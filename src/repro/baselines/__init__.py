"""Baseline load-balancing schemes the paper compares against or builds on.

The paper's own baseline, the identical machinery with random
identifier-space placement of VSA information, is not a module here:
it is ``BalancerConfig(proximity_mode="ignorant")`` on the same
:class:`~repro.core.balancer.LoadBalancer`.

* :mod:`repro.baselines.rao` — the three virtual-server schemes of Rao
  et al. (one-to-one, one-to-many, many-to-many), which transfer load
  without any proximity information.
* :mod:`repro.baselines.cfs` — CFS-style shedding: an overloaded node
  simply *removes* virtual servers (their regions are absorbed by ring
  successors), which can push the successors over their own targets —
  the "load thrashing" failure mode the paper cites.
"""

from repro.baselines.rao import (
    RaoResult,
    run_many_to_many,
    run_one_to_many,
    run_one_to_one,
)
from repro.baselines.cfs import CFSResult, run_cfs_shedding

__all__ = [
    "RaoResult",
    "run_one_to_one",
    "run_one_to_many",
    "run_many_to_many",
    "CFSResult",
    "run_cfs_shedding",
]
