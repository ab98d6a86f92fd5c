"""Seeded determinism of the churn simulation, with and without faults.

The reproducibility contract extends to the degraded paths: two runs of
the churn process from identical seeds — and the identical
:class:`~repro.faults.FaultPlan` — must report identical event counts,
dropped refresh ticks and repair-round histories.
"""

from repro.dht import ChordRing
from repro.faults import FaultPlan
from repro.idspace import IdentifierSpace
from repro.ktree import KnaryTree
from repro.sim.churn import ChurnProcess


def build_system(seed=13, nodes=12):
    ring = ChordRing(IdentifierSpace(bits=12))
    ring.populate(nodes, 2, [1.0] * nodes, rng=seed)
    for vs in ring.virtual_servers:
        vs.load = 1.0
    tree = KnaryTree(ring, 2)
    tree.build_full()
    return ring, tree


def churn_digest(trace):
    return (
        trace.events,
        trace.dropped_refreshes,
        trace.refreshes_to_stable,
        trace.repairs,
    )


class TestChurnDeterminism:
    def run_churn(self, faults, events=20):
        ring, tree = build_system(seed=21, nodes=16)
        process = ChurnProcess(ring, tree, rng=9, faults=faults)
        trace = process.run(num_events=events)
        tree.check_invariants()
        ring.check_invariants()
        return trace

    def test_identical_seeds_identical_trace_without_faults(self):
        assert churn_digest(self.run_churn(None)) == churn_digest(
            self.run_churn(None)
        )

    def test_identical_seeds_identical_trace_under_faults(self):
        plan = FaultPlan(seed=4, drop=0.3)
        a = self.run_churn(plan)
        b = self.run_churn(plan)
        assert churn_digest(a) == churn_digest(b)
        assert a.dropped_refreshes > 0

    def test_dropped_ticks_burn_rounds_but_stay_bounded(self):
        faulty = self.run_churn(FaultPlan(seed=4, drop=0.3))
        clean = self.run_churn(None)
        assert faulty.events == clean.events  # membership events unaffected
        assert faulty.dropped_refreshes > 0
        assert max(faulty.refreshes_to_stable) <= 64
        # A dropped tick costs a round: stabilisation is never faster.
        assert sum(faulty.refreshes_to_stable) >= sum(clean.refreshes_to_stable)

    def test_null_plan_behaves_exact_like_no_plan(self):
        assert churn_digest(self.run_churn(FaultPlan())) == churn_digest(
            self.run_churn(None)
        )
