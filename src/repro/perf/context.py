"""Ambient execution context for sweeps.

Threading ``jobs=``/``cache=`` through every experiment entry point
would force a signature change on each of the 13 registered
experiments.  Instead the registry installs a :class:`PerfContext` and
the sweep layers (:func:`repro.runtime.runner.compare`,
:func:`repro.experiments.appfigs.sweep_apps`) consult it whenever the
caller passes ``None``:

    with perf_context(jobs=4, cache=RunCache(tmp)):
        run_experiment("fig5", fast=False)   # fans out, memoizes

The context carries exactly the three values a front door sets —
``jobs``, ``cache`` and ``counters`` — and owns the shared
:class:`ProcessPoolExecutor` so that consecutive fan-outs inside one
block reuse warm workers instead of re-forking per sweep.  None of the
three changes what a cell computes.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

    from ..obs.metrics import MetricsRegistry
    from .cache import RunCache


@dataclass
class PerfContext:
    """Execution knobs every sweep inside the scope inherits."""

    #: Worker processes for cell fan-out; 1 = serial.
    jobs: int = 1
    #: Memoization cache for RunResults; None disables caching.
    cache: Optional["RunCache"] = None
    #: Instrumentation sink (a :class:`repro.obs.metrics.MetricsRegistry`);
    #: None falls back to the global registry.
    counters: Optional["MetricsRegistry"] = None
    _pool: Optional["ProcessPoolExecutor"] = field(
        default=None, repr=False, compare=False)
    _pool_broken: bool = field(default=False, repr=False, compare=False)

    def pool(self) -> Optional["ProcessPoolExecutor"]:
        """The shared worker pool (created lazily), or None when the
        context is serial or pool creation failed earlier."""
        if self.jobs <= 1 or self._pool_broken:
            return None
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            try:
                self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            except (OSError, ValueError):
                self._pool_broken = True
                return None
        return self._pool

    def mark_pool_broken(self) -> None:
        """Record a pool failure; subsequent sweeps run serially."""
        self.shutdown()
        self._pool_broken = True

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None


#: Stack of installed contexts; the default (serial, uncached) base is
#: always present so get_context() never fails.
_STACK: list[PerfContext] = [PerfContext()]


def get_context() -> PerfContext:
    """The innermost installed context."""
    return _STACK[-1]


@contextmanager
def perf_context(
    jobs: int = 1,
    cache: Optional["RunCache"] = None,
    counters: Optional["MetricsRegistry"] = None,
) -> Iterator[PerfContext]:
    """Install a :class:`PerfContext` for the duration of the block."""
    ctx = PerfContext(jobs=max(1, int(jobs)), cache=cache, counters=counters)
    _STACK.append(ctx)
    try:
        yield ctx
    finally:
        _STACK.pop()
        ctx.shutdown()
