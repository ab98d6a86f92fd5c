"""Tests for the P2PSystem application facade."""

import pytest

from repro.app import P2PSystem, SystemConfig
from repro.exceptions import DHTError, ProcessCrashError, ReproError
from repro.topology import generate_transit_stub
from tests.conftest import MINI_TS


@pytest.fixture
def system():
    sys_ = P2PSystem(SystemConfig(initial_nodes=12, vs_per_node=3, seed=5))
    for i in range(60):
        sys_.put(f"obj-{i}", load=float(i % 9 + 1))
    return sys_


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(initial_nodes=0),
            dict(vs_per_node=0),
            dict(replication_factor=-1),
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ReproError):
            SystemConfig(**kwargs)

    def test_capacities_length_checked(self):
        with pytest.raises(ReproError):
            P2PSystem(SystemConfig(initial_nodes=4, seed=0), capacities=[1.0])

    def test_deterministic_by_seed(self):
        a = P2PSystem(SystemConfig(initial_nodes=6, seed=9))
        b = P2PSystem(SystemConfig(initial_nodes=6, seed=9))
        assert [v.vs_id for v in a.ring.virtual_servers] == [
            v.vs_id for v in b.ring.virtual_servers
        ]


class TestStorage:
    def test_put_get_roundtrip(self, system):
        system.put("x", load=5.0)
        assert system.get("x").load == 5.0

    def test_delete(self, system):
        system.put("y", load=2.0)
        system.delete("y")
        with pytest.raises(DHTError):
            system.get("y")

    def test_loads_accounted(self, system):
        stats = system.stats()
        assert stats.objects == 60
        assert stats.total_load == pytest.approx(
            sum(float(i % 9 + 1) for i in range(60))
        )


class TestMembership:
    def test_add_node_rehomes(self, system):
        before = system.stats()
        node = system.add_node(capacity=100.0)
        system.verify()
        after = system.stats()
        assert after.nodes == before.nodes + 1
        assert after.total_load == pytest.approx(before.total_load)
        assert node.alive

    def test_remove_node(self, system):
        victim = system.ring.alive_nodes[0]
        before_load = system.stats().total_load
        system.remove_node(victim)
        system.verify()
        assert system.stats().total_load == pytest.approx(before_load)

    def test_fail_node_with_replication_survives(self, system):
        victim = system.ring.alive_nodes[3]
        assert system.fail_node(victim) is True  # r=2 tolerates 1 crash
        system.verify()

    def test_fail_node_without_replication_loses(self):
        sys_ = P2PSystem(
            SystemConfig(initial_nodes=8, vs_per_node=2, replication_factor=0, seed=3)
        )
        sys_.put("a", load=1.0)
        owner = sys_.get("a")
        victim = sys_.ring.successor(owner.key).owner
        assert sys_.fail_node(victim) is False

    def test_resolve_by_index(self, system):
        idx = system.ring.alive_nodes[2].index
        system.remove_node(idx)
        with pytest.raises(DHTError):
            system.remove_node(idx)  # already gone


class TestBalancing:
    def test_rebalance_reduces_heavy_fraction(self, system):
        before = system.stats()
        report = system.rebalance()
        after = system.stats()
        assert report.heavy_after <= report.heavy_before
        assert after.heavy_fraction <= before.heavy_fraction
        system.verify()

    def test_rebalance_until_stable(self, system):
        reports = system.rebalance_until_stable(max_rounds=4)
        assert reports
        assert system.reports == reports

    def test_object_loads_survive_rebalancing(self, system):
        before = system.stats().total_load
        system.rebalance()
        assert system.stats().total_load == pytest.approx(before)
        # objects still retrievable
        assert system.get("obj-0").load == 1.0

    def test_full_lifecycle(self, system):
        """put -> rebalance -> churn -> fail -> rebalance -> verify."""
        system.rebalance()
        system.add_node(capacity=1000.0)
        system.put("late-object", load=42.0)
        survived = system.fail_node(system.ring.alive_nodes[1])
        assert survived
        system.rebalance()
        system.verify()
        assert system.get("late-object").load == 42.0


class TestWithTopology:
    def test_proximity_mode_selected(self):
        topo = generate_transit_stub(MINI_TS, rng=2)
        sys_ = P2PSystem(
            SystemConfig(initial_nodes=10, vs_per_node=2, seed=4), topology=topo
        )
        assert sys_._balancer.config.proximity_mode == "aware"
        for i in range(30):
            sys_.put(f"o{i}", load=1.0)
        report = sys_.rebalance()
        # transfers carry real distances
        assert all(t.has_distance for t in report.transfers)


class TestDurableMode:
    """Crash recovery at the application facade (docs/recovery.md)."""

    @staticmethod
    def _system(tmp_path, faults=None, durable=True):
        from repro.faults import FaultPlan

        sys_ = P2PSystem(
            SystemConfig(initial_nodes=12, vs_per_node=3, seed=5),
            faults=faults if faults is not None else FaultPlan(),
            state_dir=tmp_path if durable else None,
            durable=durable,
        )
        for i in range(60):
            sys_.put(f"obj-{i}", load=float(i % 9 + 1))
        return sys_

    def test_crashed_rebalance_matches_plain(self, tmp_path):
        from repro.faults import CrashPoint, FaultPlan

        base = dict(seed=9, drop=0.05, transfer_abort=0.1)
        crash_plan = FaultPlan(
            **base,
            crash_points=(
                CrashPoint(at_round=1, site="mid-vst-batch"),
                CrashPoint(at_round=2, site="post-lbi-fold"),
            ),
        )
        plain = self._system(None, faults=FaultPlan(**base), durable=False)
        durable = self._system(tmp_path, faults=crash_plan)
        for _ in range(3):
            expected = plain.rebalance().canonical_digest()
            assert durable.rebalance().canonical_digest() == expected
        durable.verify()
        durable.close()
        counters = durable.stats().metrics["counters"]
        assert counters.get("recovery.restores") == 2

    def test_reopened_system_resumes_open_round(self, tmp_path, monkeypatch):
        """A process that dies inside a round resumes it when reopened.

        Round 2 checkpoints, then its seeded crash fires and the process
        dies before the crash marker reaches the journal.  A new system
        with the same config on the same state dir must restore round
        2's checkpoint at construction and continue digest-identically
        to the uncrashed run.
        """
        from repro.faults import CrashPoint, FaultPlan

        base = dict(seed=9, drop=0.05, transfer_abort=0.1)
        crash_plan = FaultPlan(
            **base,
            crash_points=(CrashPoint(at_round=2, site="mid-vst-batch"),),
        )
        plain = self._system(None, faults=FaultPlan(**base), durable=False)
        expected = [plain.rebalance().canonical_digest() for _ in range(4)]

        first = self._system(tmp_path, faults=crash_plan)
        assert [first.rebalance().canonical_digest() for _ in range(2)] == (
            expected[:2]
        )

        def die_before_marker(round_index, site):
            raise ProcessCrashError(round_index, site)

        monkeypatch.setattr(first.journal, "record_crash", die_before_marker)
        with pytest.raises(ProcessCrashError):
            first.rebalance()
        first.close()  # the "process" dies here

        reopened = P2PSystem(
            SystemConfig(initial_nodes=12, vs_per_node=3, seed=5),
            faults=crash_plan,
            state_dir=tmp_path,
            durable=True,
        )
        try:
            counters = reopened.stats().metrics["counters"]
            assert counters.get("recovery.restores") == 1  # at construction
            resumed = [reopened.rebalance().canonical_digest() for _ in range(2)]
            assert resumed == expected[2:]
            reopened.verify()
        finally:
            reopened.close()

    def test_reopened_system_continues_after_every_round(self, tmp_path):
        """Closing after any round and reopening continues the run."""
        from repro.faults import CrashPoint, FaultPlan

        base = dict(seed=9, drop=0.05, transfer_abort=0.1)
        crash_plan = FaultPlan(
            **base,
            crash_points=(CrashPoint(at_round=1, site="mid-vst-batch"),),
        )
        plain = self._system(None, faults=FaultPlan(**base), durable=False)
        expected = [plain.rebalance().canonical_digest() for _ in range(4)]

        digests = []
        for round_index in range(4):
            if round_index == 0:
                sys_ = self._system(tmp_path, faults=crash_plan)
            else:
                sys_ = P2PSystem(
                    SystemConfig(initial_nodes=12, vs_per_node=3, seed=5),
                    faults=crash_plan,
                    state_dir=tmp_path,
                    durable=True,
                )
                # The resumed round was counted by the process that ran it.
                assert sys_.stats().metrics["counters"] == {}
            try:
                digests.append(sys_.rebalance().canonical_digest())
                sys_.verify()
            finally:
                sys_.close()
        assert digests == expected

    def test_reopened_system_after_kill_before_checkpoint_marker(
        self, tmp_path, monkeypatch
    ):
        """Killed between saving round 2's snapshot and journaling its
        marker, a reopened system restores that snapshot and goes on."""
        from repro.faults import CrashPoint, FaultPlan

        base = dict(seed=9, drop=0.05, transfer_abort=0.1)
        crash_plan = FaultPlan(
            **base,
            crash_points=(CrashPoint(at_round=1, site="mid-vst-batch"),),
        )
        plain = self._system(None, faults=FaultPlan(**base), durable=False)
        expected = [plain.rebalance().canonical_digest() for _ in range(4)]

        first = self._system(tmp_path, faults=crash_plan)
        digests = [first.rebalance().canonical_digest() for _ in range(2)]
        record = first.journal.record

        def die_at_checkpoint(kind, **fields):
            if kind == "checkpoint":
                raise ProcessCrashError(2, "checkpoint")
            return record(kind, **fields)

        monkeypatch.setattr(first.journal, "record", die_at_checkpoint)
        with pytest.raises(ProcessCrashError):
            first.rebalance()
        first.close()  # the "process" dies here

        reopened = P2PSystem(
            SystemConfig(initial_nodes=12, vs_per_node=3, seed=5),
            faults=crash_plan,
            state_dir=tmp_path,
            durable=True,
        )
        try:
            assert reopened.stats().metrics["counters"] == {}
            reopened.verify()
            digests += [reopened.rebalance().canonical_digest() for _ in range(2)]
            reopened.verify()
        finally:
            reopened.close()
        assert digests == expected

    def test_state_dir_populated(self, tmp_path):
        sys_ = self._system(tmp_path)
        sys_.rebalance()
        sys_.close()
        assert (tmp_path / "journal.jsonl").exists()
        assert (tmp_path / "snapshot-latest.json").exists()

    def test_non_durable_has_no_journal(self):
        sys_ = P2PSystem(SystemConfig(initial_nodes=8, vs_per_node=2, seed=3))
        assert sys_.journal is None
