"""Process-wide fault-plan installation and attempt context.

Injection sites are sprinkled through hot paths (``logs.io`` line
loops, the ingest worker, checkpoint saves), so the disabled path must
cost nothing beyond an attribute read: :func:`active` returns the
installed plan or ``None``, and every hook starts with that nil-check.

Two pieces of ambient state live here, each a
:class:`~repro.ambient.Ambient`: the **installed plan** (process-wide,
set by :func:`installed` for a run; process-pool workers re-install
the pickled plan around each shard attempt, so hooks behave the same
on every backend) and the **attempt number** (per thread, set by
:func:`attempt` around each shard/read attempt so hooks deep inside a
map function can make attempt-aware decisions without a parameter).
"""

from __future__ import annotations

from typing import ContextManager, Optional

from ..ambient import Ambient
from .plan import FaultPlan, FaultRule

__all__ = [
    "active",
    "attempt",
    "current_attempt",
    "installed",
    "should_fire",
]

_plan = Ambient()
_attempt = Ambient(0)


def active() -> Optional[FaultPlan]:
    """The currently installed fault plan, or ``None`` (the hot path)."""
    return _plan.value


def current_attempt() -> int:
    """The attempt number for the current thread (0 outside retries)."""
    return _attempt.get()


def installed(plan: Optional[FaultPlan]) -> ContextManager[None]:
    """Install ``plan`` for a block (``None``: no-op, so call sites wrap
    unconditionally); the restore is compare-and-swap
    (:meth:`~repro.ambient.Ambient.installed`)."""
    return _plan.installed(plan)


def attempt(n: int) -> ContextManager[int]:
    """Set the thread's attempt number for the duration of the block."""
    return _attempt.overridden(n)


def should_fire(site: str, key: str) -> Optional[FaultRule]:
    """Convenience hook: consult the installed plan at the current attempt.

    Returns ``None`` immediately when no plan is installed — the only
    cost a production run ever pays.
    """
    plan = _plan.value
    if plan is None:
        return None
    return plan.should_fire(site, key, current_attempt())
