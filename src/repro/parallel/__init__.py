"""A parallel experiment trial engine over one shared worker-pool policy.

* :class:`WorkerPool` is the one place allowed to spawn processes:
  ordered dispatch, lazy creation, inline fallback.
* :class:`TrialExecutor` fans experiment seed sweeps (variance, chaos,
  partition, byzantine) across worker processes, each trial under a
  fresh :class:`~repro.obs.metrics.MetricsRegistry` that is merged back
  into the caller's registry in trial order.

Balancing rounds themselves run in one process; the trial seeds are
what fan out.  Workers only ever see pure, picklable tasks, so a
process-pool sweep and an inline sweep give identical results.  See
``docs/parallelism.md`` for the determinism contract.
"""

from repro.parallel.pool import WorkerPool
from repro.parallel.trials import (
    TrialExecutor,
    TrialTask,
    run_trial_worker,
    spawn_trial_seeds,
)

__all__ = [
    "TrialExecutor",
    "TrialTask",
    "WorkerPool",
    "run_trial_worker",
    "spawn_trial_seeds",
]
