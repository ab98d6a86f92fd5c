"""Digest identity of Byzantine runs across every execution engine.

The acceptance contract of the adversary subsystem: with an active
:class:`~repro.adversary.AdversaryPlan` (defense on or off) the round
digests must be byte-identical across the serial and incremental
engines, compose with fault plans and
partitions, survive a crash-and-recover cycle unchanged, and — when the
plan fields no active attacker (null plan, f=0 with defense armed, or
armed-but-dormant ``start_round``) — stay byte-identical to a run with
no plan at all (zero overhead when clean).
"""

import shutil
import tempfile

import pytest

from repro.adversary import AdversaryPlan
from repro.core import BalancerConfig, IncrementalLoadBalancer, LoadBalancer
from repro.core.report import check_conservation
from repro.faults import CrashPoint, FaultPlan, PartitionSpec
from repro.recovery import RecoveryManager
from repro.workloads import GaussianLoadModel, build_scenario

MODEL = GaussianLoadModel(mu=1e6, sigma=2e3)

CONFIG = BalancerConfig(proximity_mode="ignorant", epsilon=0.05)

ATTACK = AdversaryPlan(seed=13, fraction=0.15, defense=False)
DEFENDED = AdversaryPlan(seed=13, fraction=0.15, defense=True)

FAULTS = FaultPlan(seed=5, drop=0.1, transfer_abort=0.2)

PARTITION_FAULTS = FaultPlan(
    seed=5,
    drop=0.05,
    partitions=(
        PartitionSpec(at_round=1, duration=2, num_components=2, mid_round=True),
    ),
)

ROUNDS = 4


def _ring(seed=21, num_nodes=96):
    return build_scenario(
        MODEL, num_nodes=num_nodes, vs_per_node=4, rng=seed
    ).ring


def _digests(balancer, rounds=ROUNDS):
    out = []
    for _ in range(rounds):
        report = balancer.run_round()
        check_conservation(report)
        out.append(report.canonical_digest())
    return out


def _serial_digests(adversary, faults=None, rounds=ROUNDS):
    return _digests(
        LoadBalancer(_ring(), CONFIG, rng=7, faults=faults, adversary=adversary),
        rounds,
    )


class TestEngineIdentity:
    @pytest.mark.parametrize("plan", [ATTACK, DEFENDED], ids=["off", "on"])
    def test_incremental_matches_serial(self, plan):
        serial = _serial_digests(plan)
        incremental = _digests(
            IncrementalLoadBalancer(_ring(), CONFIG, rng=7, adversary=plan)
        )
        assert serial == incremental

    def test_attack_history_reproduces_byte_for_byte(self):
        first = LoadBalancer(_ring(), CONFIG, rng=7, adversary=ATTACK)
        second = LoadBalancer(_ring(), CONFIG, rng=7, adversary=ATTACK)
        reports_a = [first.run_round() for _ in range(ROUNDS)]
        reports_b = [second.run_round() for _ in range(ROUNDS)]
        assert [r.canonical_digest() for r in reports_a] == [
            r.canonical_digest() for r in reports_b
        ]
        assert reports_a[-1].adversary_stats.signature
        assert (
            reports_a[-1].adversary_stats.signature
            == reports_b[-1].adversary_stats.signature
        )


class TestComposition:
    """Byzantine behavior composes with the crash/omission fault layer."""

    @pytest.mark.parametrize("plan", [ATTACK, DEFENDED], ids=["off", "on"])
    def test_with_fault_plan(self, plan):
        serial = _serial_digests(plan, faults=FAULTS)
        incremental = _digests(
            IncrementalLoadBalancer(
                _ring(), CONFIG, rng=7, faults=FAULTS, adversary=plan
            )
        )
        assert serial == incremental

    @pytest.mark.parametrize("plan", [ATTACK, DEFENDED], ids=["off", "on"])
    def test_with_partitions(self, plan):
        serial = _serial_digests(plan, faults=PARTITION_FAULTS, rounds=5)
        incremental = _digests(
            IncrementalLoadBalancer(
                _ring(), CONFIG, rng=7, faults=PARTITION_FAULTS, adversary=plan
            ),
            rounds=5,
        )
        assert serial == incremental


class TestCrashRecovery:
    """A crashed-and-recovered Byzantine run replays byte-identically."""

    @pytest.mark.parametrize("plan", [ATTACK, DEFENDED], ids=["off", "on"])
    def test_recovered_run_matches_uncrashed(self, plan):
        # The reference plan shares every non-crash knob (a bare plan
        # would be null: no injector, different code path entirely).
        base = dict(seed=5, drop=0.05, transfer_abort=0.1)
        crash_faults = FaultPlan(
            crash_points=(CrashPoint(at_round=1, site="mid-vst-batch"),),
            **base,
        )

        def factory():
            return LoadBalancer(
                _ring(), CONFIG, rng=7, faults=crash_faults, adversary=plan
            )

        plain = _serial_digests(plan, faults=FaultPlan(**base), rounds=3)
        state_dir = tempfile.mkdtemp(prefix="repro-adv-recovery-")
        try:
            manager = RecoveryManager(factory, state_dir=state_dir)
            recovered = [
                manager.run_round().canonical_digest() for _ in range(3)
            ]
            assert manager.restores >= 1  # the crash actually fired
            manager.close()
        finally:
            shutil.rmtree(state_dir, ignore_errors=True)
        assert plain == recovered


class TestSnapshotRoundTrip:
    """Adversary and trust state ride the checkpoint byte-faithfully."""

    @pytest.mark.parametrize("plan", [ATTACK, DEFENDED], ids=["off", "on"])
    def test_capture_restore_resumes_identically(self, plan):
        from repro.recovery.snapshot import SystemSnapshot

        source = LoadBalancer(_ring(), CONFIG, rng=7, adversary=plan)
        source.run_round()
        source.run_round()
        snap = SystemSnapshot.capture(source)
        tail_expected = _digests(source, rounds=2)

        twin = LoadBalancer(_ring(), CONFIG, rng=7, adversary=plan)
        snap.restore(twin)
        # Restored state recaptures to the identical payload...
        assert SystemSnapshot.capture(twin).canonical_digest() == (
            snap.canonical_digest()
        )
        # ...and the resumed run replays the uncrashed tail exactly.
        assert _digests(twin, rounds=2) == tail_expected

    def test_snapshot_payload_carries_the_byzantine_sections(self):
        from repro.recovery.snapshot import SystemSnapshot

        balancer = LoadBalancer(_ring(), CONFIG, rng=7, adversary=DEFENDED)
        balancer.run_round()
        payload = SystemSnapshot.capture(balancer).payload
        assert payload["adversary"] is not None
        assert payload["adversary"]["log"]  # actions fired and were kept
        assert payload["trust"] is not None
        clean = LoadBalancer(_ring(), CONFIG, rng=7)
        clean.run_round()
        clean_payload = SystemSnapshot.capture(clean).payload
        assert clean_payload["adversary"] is None
        assert clean_payload["trust"] is None


class TestZeroOverheadWhenClean:
    """No active attacker => digests identical to a plan-free run."""

    def test_null_plan_matches_no_plan(self):
        assert _serial_digests(None) == _serial_digests(
            AdversaryPlan(seed=13)
        )

    def test_zero_fraction_with_defense_matches_no_plan(self):
        armed = AdversaryPlan(seed=13, fraction=0.0, defense=True)
        assert _serial_digests(None) == _serial_digests(armed)

    def test_dormant_start_round_matches_no_plan(self):
        dormant = AdversaryPlan(
            seed=13, fraction=0.15, defense=True, start_round=ROUNDS + 10
        )
        assert _serial_digests(None) == _serial_digests(dormant)
