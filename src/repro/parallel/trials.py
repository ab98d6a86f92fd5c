"""The parallel trial engine: fan experiment seed sweeps across workers.

An experiment *trial* is a pure function of an integer seed (one
variance replication, one chaos drop-rate cell, one figure bench
repeat).  :class:`TrialExecutor` runs a batch of trials through a
:class:`~repro.parallel.pool.WorkerPool`, each under a fresh
:class:`~repro.obs.metrics.MetricsRegistry`, then merges the per-trial
registries back into the caller's active registry **in trial order** —
so a parallel sweep's merged metrics match a serial sweep's for every
instrument except the ``parallel.*`` bookkeeping the engine itself
adds (and float-valued counters, which are equal up to summation
order; see :meth:`~repro.obs.metrics.MetricsRegistry.merge`).

Trial results themselves are byte-identical to serial execution: the
trial function receives exactly the same seed it would have received
in the serial loop, and nothing about process placement leaks in.
Workers run untraced (events cannot be interleaved back into the
parent's trace stream in a meaningful order), which is the one
documented observability difference from serial runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import current_metrics, set_metrics, set_tracer
from repro.obs.trace import NULL_TRACER
from repro.parallel.pool import WorkerPool


@dataclass(frozen=True, slots=True)
class TrialTask:
    """One trial: a picklable callable plus the seed to run it under.

    ``fn`` must be a module-level function or :func:`functools.partial`
    over one (anything the :mod:`pickle` module can ship to a worker).
    """

    fn: Callable[[int], Any]
    seed: int


def run_trial_worker(task: TrialTask) -> tuple[Any, MetricsRegistry]:
    """Worker entry point: run one trial under fresh observability.

    Installs a new :class:`~repro.obs.metrics.MetricsRegistry` and the
    null tracer for the duration of the trial (a forked worker inherits
    the parent's instruments; recording into them from another process
    would corrupt both), restores the previous instruments afterwards,
    and returns ``(trial result, registry)`` for the parent to merge.
    """
    registry = MetricsRegistry()
    previous_tracer = set_tracer(NULL_TRACER)
    previous_metrics = set_metrics(registry)
    try:
        value = task.fn(task.seed)
    finally:
        set_metrics(previous_metrics)
        set_tracer(previous_tracer)
    return value, registry


def spawn_trial_seeds(root_seed: int, count: int) -> tuple[int, ...]:
    """Derive ``count`` independent trial seeds from ``root_seed``.

    Uses :class:`numpy.random.SeedSequence` spawning, so sibling seeds
    index statistically independent streams no matter how close the
    root seeds are — the sanctioned way to grow a seed sweep for a new
    experiment (existing sweeps keep their historical arithmetic seed
    schedules for backwards comparability).
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    children = np.random.SeedSequence(root_seed).spawn(count)
    return tuple(int(child.generate_state(1, dtype=np.uint32)[0]) for child in children)


class TrialExecutor:
    """Runs per-seed trials through a worker pool and merges metrics.

    Parameters
    ----------
    workers:
        Worker process count of the executor's pool (one worker runs
        trials inline, in the calling process).

    Use as a context manager to release the worker processes.
    """

    def __init__(self, workers: int = 1) -> None:
        """Create the executor and its worker pool."""
        self.pool = WorkerPool(workers)

    def map(
        self,
        fn: Callable[[int], Any],
        seeds: Iterable[int],
    ) -> list[Any]:
        """Run ``fn(seed)`` for every seed; results in seed order.

        Each trial executes under a fresh registry via
        :func:`run_trial_worker`; afterwards the per-trial registries
        are merged into the caller's active registry (if one is
        installed) in seed order, plus ``parallel.trials`` /
        ``parallel.workers`` bookkeeping.
        """
        tasks = [TrialTask(fn=fn, seed=int(seed)) for seed in seeds]
        pairs = self.pool.map_ordered(run_trial_worker, tasks)
        registry = current_metrics()
        if registry is not None and pairs:
            for _, trial_registry in pairs:
                registry.merge(trial_registry)
            registry.counter("parallel.trials").inc(len(pairs))
            registry.gauge("parallel.workers").set(self.pool.workers)
        return [value for value, _ in pairs]

    def close(self) -> None:
        """Release the pool's worker processes."""
        self.pool.close()

    def __enter__(self) -> "TrialExecutor":
        """Context-manager entry: the executor itself."""
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: release the pool."""
        self.close()
