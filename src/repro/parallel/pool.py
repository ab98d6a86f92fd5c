"""Worker-pool lifecycle: the one place allowed to spawn processes.

The ``no-fork-in-protocol`` lint rule confines process creation to this
module so every fan-out in the codebase shares one executor policy:
ordered dispatch, lazy pool creation, and graceful degradation to
inline execution when a pool cannot be created or dies mid-flight
(trial tasks are pure, so rerunning them inline is always safe).

Two modes exist.  ``"process"`` backs :meth:`WorkerPool.map_ordered`
with a :class:`concurrent.futures.ProcessPoolExecutor`; ``"inline"``
runs tasks synchronously on the caller — semantically identical,
useful for tests and for ``workers=1`` where process overhead buys
nothing.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Iterable, TypeVar

from repro.exceptions import ConfigError

_TaskT = TypeVar("_TaskT")
_ResultT = TypeVar("_ResultT")

#: Execution modes accepted by :class:`WorkerPool`.
POOL_MODES = ("process", "inline")


class WorkerPool:
    """A reusable, lazily-created pool of worker processes.

    Parameters
    ----------
    workers:
        Maximum concurrent worker processes.  ``1`` never creates a
        pool — dispatch runs inline regardless of ``mode``.
    mode:
        ``"process"`` (real processes) or ``"inline"`` (synchronous
        execution in the calling process).

    The pool is created on first use and kept for the object's
    lifetime, so repeated rounds amortise worker startup.  Use as a
    context manager (or call :meth:`close`) to release the processes.
    """

    def __init__(self, workers: int = 1, mode: str = "process") -> None:
        """Validate and store the pool policy; nothing is spawned yet."""
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if mode not in POOL_MODES:
            raise ConfigError(f"mode must be one of {POOL_MODES}, got {mode!r}")
        self.workers = workers
        self.mode = mode
        self._executor: ProcessPoolExecutor | None = None
        self._broken = False

    # ------------------------------------------------------------------
    def _ensure_executor(self) -> ProcessPoolExecutor | None:
        """The live executor, or ``None`` when dispatch must be inline."""
        if self.mode == "inline" or self.workers <= 1 or self._broken:
            return None
        if self._executor is None:
            try:
                self._executor = ProcessPoolExecutor(max_workers=self.workers)
            except (OSError, ValueError):  # pragma: no cover - env-specific
                self._broken = True
                return None
        return self._executor

    def map_ordered(
        self,
        fn: Callable[[_TaskT], _ResultT],
        tasks: Iterable[_TaskT],
    ) -> list[_ResultT]:
        """Apply ``fn`` to every task, returning results in task order.

        Tasks run concurrently in ``"process"`` mode but the result
        list always matches the input order — deterministic merge code
        never sees completion order.  ``fn`` and every task must be
        picklable (module-level callables, frozen dataclasses).  A pool
        that breaks mid-dispatch (a worker killed by the OS) downgrades
        the pool to inline and reruns the batch synchronously; tasks
        are required to be pure, so the rerun cannot double-apply
        anything.  Exceptions raised by ``fn`` itself propagate
        unchanged in both modes.
        """
        task_list = list(tasks)
        if not task_list:
            return []
        executor = self._ensure_executor()
        if executor is None or len(task_list) == 1:
            return [fn(task) for task in task_list]
        try:
            return list(executor.map(fn, task_list))
        except BrokenProcessPool:  # pragma: no cover - env-specific
            self._broken = True
            self._shutdown()
            return [fn(task) for task in task_list]

    # ------------------------------------------------------------------
    def _shutdown(self) -> None:
        """Tear down the executor if one was ever created."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def close(self) -> None:
        """Release worker processes; the pool may be reused afterwards."""
        self._shutdown()

    def __enter__(self) -> "WorkerPool":
        """Context-manager entry: the pool itself."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: release worker processes."""
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "broken" if self._broken else (
            "live" if self._executor is not None else "idle"
        )
        return f"WorkerPool(workers={self.workers}, mode={self.mode!r}, {state})"
