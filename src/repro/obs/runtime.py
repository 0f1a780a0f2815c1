"""Ambient registry installation — the obs twin of ``repro.faults.runtime``.

Instrumented code never receives a registry argument; it asks this
module for the ambient one and does nothing when none is installed.
That keeps the disabled path to a single ``None`` check (the property
the ``benchmarks/test_perf_obs.py`` gate enforces) and means
instrumentation can be sprinkled through the executor, stream, and
pipeline layers without threading a parameter through every
signature.

The registry is one :class:`~repro.ambient.Ambient`.
:func:`installed` swaps the **process-global** registry; the CLI and
tests wrap whole runs in it.  :func:`shard_scope` overrides it
**thread-locally**: the executor's thread backend runs shards on
worker threads of the same process, each recording into its own
per-shard registry (so the run total can be folded in *plan* order,
not completion order), and the override keeps those recordings out of
the global registry.  Process-pool workers get a fresh interpreter
where the global is ``None`` anyway, so ``_run_one`` is
backend-agnostic.

The module-level helpers (:func:`inc`, :func:`observe`, ...) are the
only API instrumented code should touch: they resolve the ambient
registry once and no-op when it is absent.
"""

from __future__ import annotations

from typing import Any, ContextManager, Dict, Optional

from ..ambient import Ambient
from .registry import MetricsRegistry

__all__ = [
    "active",
    "install",
    "installed",
    "shard_scope",
    "inc",
    "observe",
    "set_gauge",
    "max_gauge",
    "record_span",
]

_registry = Ambient()


def active() -> Optional[MetricsRegistry]:
    """The registry instrumentation should record into, or ``None``.

    A thread-local override (see :func:`shard_scope`) wins over the
    process-global one so engine workers stay isolated per shard.
    """
    return _registry.get()


def install(registry: Optional[MetricsRegistry]) -> None:
    """Set (or clear, with ``None``) the process-global registry."""
    _registry.value = registry


def installed(registry: Optional[MetricsRegistry]) -> ContextManager[None]:
    """Install a process-global registry for a block (``None``: no-op);
    the restore is compare-and-swap (:meth:`Ambient.installed`)."""
    return _registry.installed(registry)


def shard_scope(registry: MetricsRegistry) -> ContextManager[MetricsRegistry]:
    """Route this thread's recordings into ``registry`` for a block."""
    return _registry.overridden(registry)


# -- nil-checking recording helpers (the instrumentation API) ------------


def inc(name: str, amount: int = 1, /, **labels) -> None:
    registry = _registry.get()
    if registry is not None:
        registry.inc(name, amount, **labels)


def observe(name: str, value: float, /, **labels) -> None:
    registry = _registry.get()
    if registry is not None:
        registry.observe(name, value, **labels)


def set_gauge(name: str, value: float, /, **labels) -> None:
    registry = _registry.get()
    if registry is not None:
        registry.set_gauge(name, value, **labels)


def max_gauge(name: str, value: float, /, **labels) -> None:
    registry = _registry.get()
    if registry is not None:
        registry.max_gauge(name, value, **labels)


def record_span(span: Dict[str, Any]) -> None:
    registry = _registry.get()
    if registry is not None:
        registry.record_span(span)
