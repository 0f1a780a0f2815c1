"""Ambient values: a process-wide install plus a per-thread override.

The fault plan (:mod:`repro.faults.runtime`) and the metrics registry
(:mod:`repro.obs.runtime`) are read by hooks deep in every layer
without a parameter threaded through each call; each is one
:class:`Ambient`.  This module imports nothing from ``repro``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = ["Ambient"]


class Ambient:
    """One process-wide ``value`` and a per-thread override of it.

    ``value`` is a plain attribute, so a hot path that never overrides
    pays one attribute read.  :meth:`get` returns the calling thread's
    override when one is set, else ``value``.  ``None`` means "nothing
    installed" at both levels.
    """

    __slots__ = ("value", "_local")

    def __init__(self, value: Any = None) -> None:
        self.value = value
        self._local = threading.local()

    def get(self) -> Any:
        override = getattr(self._local, "value", None)
        return self.value if override is None else override

    @contextmanager
    def installed(self, value: Any) -> Iterator[None]:
        """Install ``value`` process-wide for a block (``None``: no-op).

        The restore is compare-and-swap: a thread that exits after
        another thread installed a newer value (an abandoned shard
        attempt still sleeping in an injected hang, say) leaves the
        newer value in place.
        """
        if value is None:
            yield
            return
        previous, self.value = self.value, value
        try:
            yield
        finally:
            if self.value is value:
                self.value = previous

    @contextmanager
    def overridden(self, value: Any) -> Iterator[Any]:
        """Override the value for the calling thread only, for a block."""
        previous = getattr(self._local, "value", None)
        self._local.value = value
        try:
            yield value
        finally:
            self._local.value = previous
