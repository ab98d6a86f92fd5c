"""Crash-recovery acceptance: crashed runs are digest-identical.

The subsystem's contract (docs/recovery.md): a run that crashes at any
:data:`~repro.faults.plan.CRASH_SITES` site and recovers from durable
state (snapshot restore + journal replay) produces round reports whose
:meth:`~repro.core.report.BalanceReport.canonical_digest` values are
byte-identical to the same seeded run without the crash — on
:class:`~repro.core.LoadBalancer` and its object-walk reference,
through double crashes, and
through a *true* restart (a fresh :class:`~repro.recovery.RecoveryManager`
opened on the state directory a dead process left behind).
"""

import pytest

from repro.core import BalancerConfig, LoadBalancer
from repro.core.reference import SerialLoadBalancer
from repro.exceptions import ProcessCrashError, RecoveryError
from repro.faults import CrashPoint, FaultPlan, PartitionSpec
from repro.faults.plan import CRASH_SITES
from repro.recovery import RecoveryManager
from repro.recovery.soak import run_schedule
from repro.sim.dynamics import LoadDynamics, run_dynamic_simulation
from repro.workloads import GaussianLoadModel, build_scenario

SEED = 17
ROUNDS = 5

#: Ambient faults so recovery is exercised *under* degradation, not in
#: a clean room: drops, aborts, plus a mid-round partition that leaves
#: suspended transfers in flight when the pre-heal crash fires.
BASE = dict(
    seed=5,
    drop=0.05,
    transfer_abort=0.1,
    partitions=(
        PartitionSpec(at_round=3, duration=1, num_components=2, mid_round=True),
    ),
)

#: One crash per site, in rounds that make the site reachable (the
#: pre-heal-commit site only fires while a partition heals).
SITE_ROUNDS = {
    "post-lbi-fold": 0,
    "mid-vst-batch": 0,
    "pre-heal-commit": 4,
}


def _plan(*crash_points):
    return FaultPlan(**BASE, crash_points=tuple(crash_points))


def _factory(plan, engine="serial", seed=SEED):
    config = BalancerConfig(
        proximity_mode="ignorant", epsilon=0.05, tree_degree=2
    )

    def build():
        ring = build_scenario(
            GaussianLoadModel(mu=1e6, sigma=2e3),
            num_nodes=32,
            vs_per_node=4,
            rng=seed,
        ).ring
        if engine == "serial":
            return SerialLoadBalancer(ring, config, rng=seed + 1, faults=plan)
        return LoadBalancer(ring, config, rng=seed + 1, faults=plan)

    return build


def _baseline_digests(engine="serial"):
    """The uncrashed reference run (same plan minus the crash points)."""
    balancer = _factory(_plan(), engine)()
    return [balancer.run_round().canonical_digest() for _ in range(ROUNDS)]


def _recovered_digests(plan, tmp_path, engine="serial"):
    manager = RecoveryManager(_factory(plan, engine), state_dir=tmp_path)
    try:
        digests = [r.canonical_digest() for r in manager.run_rounds(ROUNDS)]
    finally:
        manager.close()
    return digests, manager.restores


class TestSingleCrashDigestIdentity:
    @pytest.mark.parametrize("site", CRASH_SITES)
    def test_serial(self, tmp_path, site):
        plan = _plan(CrashPoint(at_round=SITE_ROUNDS[site], site=site))
        digests, restores = _recovered_digests(plan, tmp_path)
        assert restores == 1, f"crash at {site} never fired"
        assert digests == _baseline_digests()

    @pytest.mark.parametrize("site", CRASH_SITES)
    def test_incremental(self, tmp_path, site):
        plan = _plan(CrashPoint(at_round=SITE_ROUNDS[site], site=site))
        digests, restores = _recovered_digests(plan, tmp_path, "incremental")
        assert restores == 1
        assert digests == _baseline_digests("incremental")


class TestHarderSchedules:
    def test_double_crash_same_round_plus_heal_crash(self, tmp_path):
        plan = _plan(
            CrashPoint(at_round=0, site="post-lbi-fold"),
            CrashPoint(at_round=0, site="mid-vst-batch"),
            CrashPoint(at_round=4, site="pre-heal-commit"),
        )
        digests, restores = _recovered_digests(plan, tmp_path)
        assert restores == 3
        assert digests == _baseline_digests()

    def test_true_restart_resumes_open_round(self, tmp_path):
        """A dead process leaves a checkpointed, unclosed round behind.

        Run the crashing round by hand so the ProcessCrashError escapes
        before any crash marker or recovery happens — exactly the state
        a SIGKILL leaves.  A fresh manager on the same state dir must
        detect the open round at construction, restore, and complete
        the full run digest-identically.
        """
        plan = _plan(CrashPoint(at_round=2, site="mid-vst-batch"))
        factory = _factory(plan)
        first = RecoveryManager(factory, state_dir=tmp_path)
        digests = [first.run_round().canonical_digest() for _ in range(2)]
        first._checkpoint()
        with pytest.raises(ProcessCrashError):
            first.balancer.run_round()  # bypass the manager: no marker
        first.close()  # the "process" dies here

        second = RecoveryManager(factory, state_dir=tmp_path)
        try:
            assert second.restores == 1  # resumed at construction
            digests += [
                second.run_round().canonical_digest()
                for _ in range(ROUNDS - 2)
            ]
        finally:
            second.close()
        assert digests == _baseline_digests()

    def test_clean_shutdown_does_not_resume(self, tmp_path):
        factory = _factory(_plan())
        first = RecoveryManager(factory, state_dir=tmp_path)
        first.run_round()
        first.close()
        second = RecoveryManager(factory, state_dir=tmp_path)
        try:
            assert second.restores == 0
        finally:
            second.close()

    def test_missing_snapshot_is_an_error(self, tmp_path):
        plan = _plan(CrashPoint(at_round=0, site="mid-vst-batch"))
        manager = RecoveryManager(_factory(plan), state_dir=tmp_path)
        try:
            assert not manager.snapshot_path.exists()
            with pytest.raises(RecoveryError, match="no snapshot"):
                manager._restart()
        finally:
            manager.close()


class TestEmbeddings:
    def test_dynamic_simulation_under_crashes(self, tmp_path):
        """run_dynamic_simulation drives a managed stack through drift."""
        plan = _plan(CrashPoint(at_round=1, site="mid-vst-batch"))
        manager = RecoveryManager(_factory(plan), state_dir=tmp_path)
        try:
            dynamics = LoadDynamics(
                drift_sigma=0.1, flash_crowd_prob=0.2, rng=7
            )
            trace = run_dynamic_simulation(manager, dynamics, epochs=4)
        finally:
            manager.close()
        assert len(trace.epochs) == 4
        assert len(trace.reports) == 4
        assert manager.restores == 1

    def test_soak_schedule_with_crashes_is_clean(self, tmp_path):
        from repro.recovery.soak import SoakSchedule

        schedule = SoakSchedule(
            seed=SEED,
            rounds=ROUNDS,
            num_nodes=24,
            vs_per_node=4,
            plan=_plan(
                CrashPoint(at_round=1, site="mid-vst-batch"),
                CrashPoint(at_round=4, site="pre-heal-commit"),
            ),
        )
        result = run_schedule(schedule, state_dir=tmp_path)
        assert result.ok, result.failure
        assert result.restores == 2
        assert len(result.digests) == ROUNDS
