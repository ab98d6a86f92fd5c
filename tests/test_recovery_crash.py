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

import json
import os
import shutil
from itertools import accumulate

import pytest

from repro.core import BalancerConfig, LoadBalancer
from repro.core.reference import SerialLoadBalancer
from repro.exceptions import ProcessCrashError, RecoveryError
from repro.faults import CrashPoint, FaultPlan, PartitionSpec
from repro.faults.plan import CRASH_SITES
from repro.obs import MetricsRegistry, Tracer
from repro.recovery import RecoveryManager
from repro.recovery.manager import JOURNAL_NAME
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


def _factory(plan, engine="serial", seed=SEED, **observe):
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
            return SerialLoadBalancer(
                ring, config, rng=seed + 1, faults=plan, **observe
            )
        return LoadBalancer(ring, config, rng=seed + 1, faults=plan, **observe)

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


class TestContinueAfterFinishedRound:
    """A run stopped right after a ``round_end`` continues where it stopped.

    ``close()`` writes nothing, so a closed run leaves the same files as
    a process killed right after its last ``round_end``.  Reopening the
    state directory after every round must give the uninterrupted run's
    reports and journal bytes, through a crash and its recovery.
    """

    def test_close_reopen_at_every_round_boundary(self, tmp_path):
        plan = _plan(CrashPoint(at_round=1, site="mid-vst-batch"))
        factory = _factory(plan, "incremental")
        whole = RecoveryManager(factory, state_dir=tmp_path / "whole")
        try:
            expected = [r.canonical_digest() for r in whole.run_rounds(ROUNDS)]
        finally:
            whole.close()
        assert expected == _baseline_digests("incremental")

        digests = []
        for round_index in range(ROUNDS):
            manager = RecoveryManager(factory, state_dir=tmp_path / "run")
            try:
                assert manager.restores == 0
                if round_index:
                    assert manager.resumed is not None
                    assert manager.resumed.canonical_digest() == digests[-1]
                else:
                    assert manager.resumed is None
                digests.append(manager.run_round().canonical_digest())
            finally:
                manager.close()
        assert digests == expected
        assert (tmp_path / "run" / JOURNAL_NAME).read_bytes() == (
            tmp_path / "whole" / JOURNAL_NAME
        ).read_bytes()

    def test_killed_between_snapshot_and_its_marker(self, tmp_path):
        """A snapshot newer than the last checkpoint marker is the next
        round's: reopening restores it as it is and continues the run."""
        plan = _plan(CrashPoint(at_round=1, site="mid-vst-batch"))
        factory = _factory(plan, "incremental")
        whole = RecoveryManager(factory, state_dir=tmp_path / "whole")
        try:
            expected = [r.canonical_digest() for r in whole.run_rounds(ROUNDS)]
        finally:
            whole.close()

        for killed_at in range(1, ROUNDS):
            run_dir = tmp_path / f"run-{killed_at}"
            first = RecoveryManager(factory, state_dir=run_dir)
            digests = [r.canonical_digest() for r in first.run_rounds(killed_at)]
            record = first.journal.record

            def die_at_checkpoint(kind, **fields):
                if kind == "checkpoint":
                    raise ProcessCrashError(killed_at, "checkpoint")
                return record(kind, **fields)

            first.journal.record = die_at_checkpoint
            with pytest.raises(ProcessCrashError):
                first.run_round()
            first.close()  # the "process" dies here

            second = RecoveryManager(factory, state_dir=run_dir)
            try:
                assert second.restores == 0
                assert second.resumed is None
                digests += [
                    r.canonical_digest()
                    for r in second.run_rounds(ROUNDS - killed_at)
                ]
            finally:
                second.close()
            assert digests == expected, killed_at
            assert (run_dir / JOURNAL_NAME).read_bytes() == (
                tmp_path / "whole" / JOURNAL_NAME
            ).read_bytes(), killed_at

    def test_foreign_snapshot_is_an_error(self, tmp_path):
        factory = _factory(_plan())
        first = RecoveryManager(factory, state_dir=tmp_path)
        try:
            first.run_rounds(3)
        finally:
            first.close()
        older = RecoveryManager(factory, state_dir=tmp_path / "older")
        try:
            older.run_round()
        finally:
            older.close()
        shutil.copy(older.snapshot_path, first.snapshot_path)
        with pytest.raises(RecoveryError, match="neither"):
            RecoveryManager(factory, state_dir=tmp_path)

    def test_resumed_round_is_not_observed_again(self, tmp_path):
        """The re-run at construction emits no trace record and leaves
        every metric as the reopening process had it."""
        plan = _plan(CrashPoint(at_round=1, site="mid-vst-batch"))
        factory = _factory(plan, "incremental")
        first = RecoveryManager(factory, state_dir=tmp_path)
        try:
            first.run_rounds(2)
        finally:
            first.close()

        tracer = Tracer.in_memory()
        metrics = MetricsRegistry()
        metrics.counter("caller.before").inc(3)
        observed = _factory(plan, "incremental", tracer=tracer, metrics=metrics)
        second = RecoveryManager(
            observed, state_dir=tmp_path, tracer=tracer, metrics=metrics
        )
        try:
            assert second.resumed is not None
            assert tracer.sink.records == []
            assert metrics.snapshot() == {
                "counters": {"caller.before": 3.0},
                "gauges": {},
                "histograms": {},
            }
            second.run_round()
            counters = metrics.snapshot()["counters"]
            assert counters["balancer.rounds"] == 1
            assert tracer.sink.records[0].seq == 0
        finally:
            second.close()


class TestRestartAtEveryRecordBoundary:
    """A true restart after an OS crash at any point of a round in flight.

    Group commit syncs the journal only at ``checkpoint``, ``crash``
    and ``round_end``, so an OS crash can drop any suffix of the
    records written after the round's checkpoint.  For every such
    record boundary — from just after the checkpoint marker up to just
    before ``round_end`` — cut a copy of the state directory back to
    it, open a fresh manager on the copy and finish the run (the
    crashed round and the one after it): the reports and the final
    journal bytes must equal the uncut run's.
    """

    @pytest.mark.parametrize(
        "site, at_round",
        [("post-lbi-fold", 0), ("mid-vst-batch", 1), ("pre-heal-commit", 4)],
    )
    def test_every_boundary_recovers_byte_identically(
        self, tmp_path, site, at_round
    ):
        plan = _plan(CrashPoint(at_round=at_round, site=site))
        factory = _factory(plan, "incremental")
        rounds = min(ROUNDS, at_round + 2)
        run_dir, frozen = tmp_path / "run", tmp_path / "frozen"
        first = RecoveryManager(factory, state_dir=run_dir)
        try:
            digests = [
                first.run_round().canonical_digest()
                for _ in range(at_round + 1)
            ]
            # The round's own checkpoint is the latest snapshot here.
            shutil.copytree(run_dir, frozen)
            digests += [
                first.run_round().canonical_digest()
                for _ in range(rounds - at_round - 1)
            ]
        finally:
            first.close()
        assert first.restores == 1
        assert digests == _baseline_digests("incremental")[:rounds]
        full_journal = (run_dir / JOURNAL_NAME).read_bytes()

        lines = (frozen / JOURNAL_NAME).read_bytes().splitlines(keepends=True)
        kinds = [json.loads(line)["kind"] for line in lines]
        checkpoint = len(kinds) - 1 - kinds[::-1].index("checkpoint")
        assert kinds[-1] == "round_end"
        assert "crash" in kinds[checkpoint:]
        # Line ends from the checkpoint's through the one before round_end.
        boundaries = list(accumulate(map(len, lines)))[checkpoint:-1]

        for offset in boundaries:
            cut = tmp_path / f"cut-{offset}"
            shutil.copytree(frozen, cut)
            os.truncate(cut / JOURNAL_NAME, offset)
            second = RecoveryManager(factory, state_dir=cut)
            try:
                assert second.restores == 1, offset  # resumed at open
                resumed = [
                    second.run_round().canonical_digest()
                    for _ in range(rounds - at_round)
                ]
            finally:
                second.close()
            assert resumed == digests[at_round :], offset
            assert (cut / JOURNAL_NAME).read_bytes() == full_journal, offset
            shutil.rmtree(cut)

    def test_brand_new_state_dir_does_not_resume(self, tmp_path):
        manager = RecoveryManager(_factory(_plan()), state_dir=tmp_path)
        try:
            assert manager.restores == 0
            assert not manager.journal.checkpointed
        finally:
            manager.close()


class TestGroupCommitSyncCount:
    """The journal fsyncs a constant number of times per managed round."""

    #: Snapshot temp file + its directory entry, the ``checkpoint``
    #: marker and ``round_end`` — whatever the round transfers.
    FSYNCS_PER_ROUND = 4

    def test_constant_per_round_independent_of_transfers(
        self, tmp_path, fsync_calls
    ):
        manager = RecoveryManager(
            _factory(_plan(), "incremental"), state_dir=tmp_path
        )
        per_round, records, transfers = [], [], []
        try:
            for _ in range(ROUNDS):
                syncs_before, records_before = len(fsync_calls), len(manager.journal)
                report = manager.run_round()
                per_round.append(len(fsync_calls) - syncs_before)
                records.append(len(manager.journal) - records_before)
                transfers.append(len(report.transfers))
        finally:
            manager.close()
        assert per_round == [self.FSYNCS_PER_ROUND] * ROUNDS
        assert len(set(transfers)) > 1 and len(set(records)) > 1


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
