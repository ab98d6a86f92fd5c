"""Digest identity of the persistent-tree balancer against its reference.

The contract under test (docs/performance.md): for any seed, churn/drift
history and tree degree, :class:`repro.core.LoadBalancer` produces a
:class:`~repro.core.report.BalanceReport` whose canonical digest — every
float, assignment, transfer and counter, in order — is byte-identical
to the object-walk :class:`~repro.core.reference.SerialLoadBalancer`
run on a twin ring through the same history.  Fault plans, partitions
(with mid-round crashes inside a component), defended and undefended
adversaries all run over the one persistent tree, so identity there is
asserted seed by seed.  An attached write-ahead journal must come out
byte-identical, and degenerate rings must end the same way.
"""

import numpy as np
import pytest

from repro.adversary import AdversaryPlan
from repro.core import BalancerConfig, LoadBalancer
from repro.core.reference import SerialLoadBalancer
from repro.dht import ChordRing, crash_node, join_node, leave_node
from repro.exceptions import BalancerError, EmptyRingError
from repro.faults import FaultPlan, PartitionSpec
from repro.recovery import TransferJournal
from repro.workloads import (
    ParetoLoadModel,
    apply_load_drift,
    build_scenario,
)

SEEDS = (3, 21, 77)

FAULTS = FaultPlan(seed=5, drop=0.1, crash_mid_round=1, transfer_abort=0.2)

PARTITION_FAULTS = FaultPlan(
    seed=5,
    drop=0.05,
    corrupt=0.05,
    partitions=(
        PartitionSpec(at_round=1, duration=2, num_components=2, mid_round=True),
    ),
)

#: A mid-round crash inside each component of a partition.
PARTITION_CRASH = FaultPlan(
    seed=9,
    drop=0.05,
    crash_mid_round=1,
    partitions=(PartitionSpec(at_round=1, duration=3, num_components=2),),
)

MODEL = ParetoLoadModel(mu=1e6)


def _ring(seed, num_nodes=160):
    return build_scenario(
        MODEL, num_nodes=num_nodes, vs_per_node=4, rng=seed
    ).ring


def _config(tree_degree=2):
    return BalancerConfig(
        proximity_mode="ignorant", epsilon=0.05, tree_degree=tree_degree
    )


def _perturb(ring, gen, heavy=False):
    """One seeded step of joins, leaves, crashes and localized drift.

    ``heavy`` floods the ring with enough events to trip the incremental
    engine's rebuild threshold.
    """
    joins = int(gen.integers(8, 24)) if heavy else int(gen.integers(0, 4))
    sites = []
    for _ in range(joins):
        node = join_node(
            ring,
            capacity=float(10 ** int(gen.integers(0, 4))),
            vs_count=int(gen.integers(1, 5)),
            rng=int(gen.integers(1 << 30)),
        )
        sites.extend(vs.vs_id for vs in node.virtual_servers)
    removals = int(gen.integers(0, 3))
    for _ in range(removals):
        alive = [n for n in ring.alive_nodes if n.virtual_servers]
        if len(alive) < 4:
            break
        victim = alive[int(gen.integers(len(alive)))]
        if len(victim.virtual_servers) == ring.num_virtual_servers:
            continue
        if int(gen.integers(2)):
            leave_node(ring, victim)
        else:
            crash_node(ring, victim)
        sites.append(victim.virtual_servers[0].vs_id if victim.virtual_servers else 0)
    centers = sites[:4] or [int(gen.integers(ring.space.size))]
    apply_load_drift(
        ring, MODEL, int(gen.integers(1 << 30)), centers, fraction=0.02
    )


def _run_paired(
    seed, rounds, tree_degree=2, heavy_round=None, faults=None, adversary=None
):
    """Drive reference and balancer twins through one seeded history.

    Returns the balancer twin so callers can check which path ran.
    """
    ring_a, ring_b = _ring(seed), _ring(seed)
    cfg = _config(tree_degree)
    serial = SerialLoadBalancer(
        ring_a, cfg, rng=seed + 1, faults=faults, adversary=adversary
    )
    incremental = LoadBalancer(
        ring_b, cfg, rng=seed + 1, faults=faults, adversary=adversary
    )
    gen_a = np.random.default_rng(seed + 500)
    gen_b = np.random.default_rng(seed + 500)
    for rnd in range(rounds):
        digest_a = serial.run_round().canonical_digest()
        digest_b = incremental.run_round().canonical_digest()
        assert digest_a == digest_b, f"round {rnd} diverged"
        heavy = rnd == heavy_round
        _perturb(ring_a, gen_a, heavy=heavy)
        _perturb(ring_b, gen_b, heavy=heavy)
    return incremental


class TestIncrementalByteIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_serial_under_churn_and_drift(self, seed):
        _run_paired(seed, rounds=8)

    @pytest.mark.parametrize("tree_degree", (2, 8))
    def test_matches_serial_across_tree_degrees(self, tree_degree):
        _run_paired(11, rounds=5, tree_degree=tree_degree)

    def test_event_burst_trips_rebuild_and_still_matches(self):
        _run_paired(29, rounds=5, heavy_round=1)

    def test_quiet_rounds_reuse_caches_exactly(self):
        ring_a, ring_b = _ring(13), _ring(13)
        cfg = _config()
        serial = SerialLoadBalancer(ring_a, cfg, rng=2)
        incremental = LoadBalancer(ring_b, cfg, rng=2)
        for rnd in range(4):
            assert (
                serial.run_round().canonical_digest()
                == incremental.run_round().canonical_digest()
            ), f"quiet round {rnd} diverged"


class TestRobustFastPath:
    """Faulted, attacked and partitioned rounds run fast, digest-exact."""

    def test_fault_plan_rounds_identical(self):
        _run_paired(7, rounds=4, faults=FAULTS)

    def test_partition_rounds_identical(self):
        _run_paired(7, rounds=5, faults=PARTITION_FAULTS)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_defended_adversary(self, seed):
        plan = AdversaryPlan(seed=seed, fraction=0.15, defense=True)
        _run_paired(seed, rounds=5, adversary=plan)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_undefended_adversary(self, seed):
        plan = AdversaryPlan(seed=seed, fraction=0.15, defense=False)
        _run_paired(seed, rounds=5, adversary=plan)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_adversary_with_faults(self, seed):
        plan = AdversaryPlan(seed=seed + 1, fraction=0.1, defense=True)
        _run_paired(seed, rounds=5, faults=FAULTS, adversary=plan)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_partitions_under_churn(self, seed):
        _run_paired(seed, rounds=5, faults=PARTITION_FAULTS)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_crash_mid_round_inside_a_partition(self, seed):
        bal = _run_paired(seed, rounds=5, faults=PARTITION_CRASH)
        # The persistent tree exists and resolved keys through batched
        # descents.
        assert bal._tree is not None
        assert bal.descent_stats["miss_descents"] > 0


def _outcome(engine, case):
    """Each round's (digest, stale reuse) pair, or the exception type
    and message it raised.

    ``no-alive-node`` downs every node before round 0 (their virtual
    servers stay on the ring); ``stale-lbi-reuse`` downs them after a
    good round, so later rounds reuse its aggregate until the staleness
    bound runs out; ``emptied-then-refilled`` removes every virtual
    server after a good round and puts half of them back two rounds
    later.
    """
    ring = ChordRing() if case == "empty-ring" else _ring(5, num_nodes=8)
    balancer = engine(ring, _config(), rng=3)
    down_at = {"no-alive-node": 0, "stale-lbi-reuse": 1}.get(case)
    rounds = []
    for rnd in range(5):
        if rnd == down_at:
            for node in ring.nodes:
                node.alive = False
        if case == "emptied-then-refilled" and rnd == 1:
            servers = [(vs.owner, vs.vs_id, vs.load) for vs in ring.virtual_servers]
            for _, vs_id, _ in servers:
                ring.remove_virtual_server(vs_id)
        if case == "emptied-then-refilled" and rnd == 3:
            for owner, vs_id, load in servers[::2]:
                ring.add_virtual_server(owner, vs_id, load)
        try:
            report = balancer.run_round()
        except (BalancerError, EmptyRingError) as exc:
            rounds.append((type(exc), str(exc)))
            continue
        rounds.append(
            (report.canonical_digest(), report.fault_stats.stale_lbi_reused)
        )
    return rounds


class TestDegenerateRings:
    """Degenerate rings end the same way on both kernel sets; no round
    needs to switch kernels for them."""

    @pytest.mark.parametrize(
        "case",
        ("empty-ring", "no-alive-node", "stale-lbi-reuse", "emptied-then-refilled"),
    )
    def test_outcome_matches_reference(self, case):
        rounds = _outcome(LoadBalancer, case)
        assert rounds == _outcome(SerialLoadBalancer, case)
        kinds = [kind if isinstance(kind, type) else stale for kind, stale in rounds]
        no_reports = (BalancerError, "no LBI reports to aggregate")
        if case == "empty-ring":
            assert kinds == [EmptyRingError] * 5
        elif case == "no-alive-node":
            assert rounds == [no_reports] * 5
        elif case == "stale-lbi-reuse":
            # One good round, reuse up to the staleness bound, then none.
            assert kinds[0] is False and kinds[1] is True
            assert rounds[-1] == no_reports
        else:
            assert kinds == [False, EmptyRingError, EmptyRingError, False, False]


class TestJournaledFastPath:
    """A journaled run is digest- and journal-exact against the reference."""

    def test_journaled_rounds_match_serial_and_journal(self, tmp_path):
        ring_a, ring_b = _ring(41), _ring(41)
        cfg = _config()
        serial = SerialLoadBalancer(ring_a, cfg, rng=6)
        incremental = LoadBalancer(ring_b, cfg, rng=6)
        journal_a = TransferJournal(tmp_path / "serial.jsonl")
        journal_b = TransferJournal(tmp_path / "incremental.jsonl")
        serial.attach_journal(journal_a)
        incremental.attach_journal(journal_b)
        gen_a = np.random.default_rng(123)
        gen_b = np.random.default_rng(123)
        descents = [incremental.descent_stats["miss_descents"]]
        try:
            for rnd in range(6):
                digest_a = serial.run_round().canonical_digest()
                digest_b = incremental.run_round().canonical_digest()
                assert digest_a == digest_b, f"round {rnd} diverged"
                descents.append(incremental.descent_stats["miss_descents"])
                _perturb(ring_a, gen_a)
                _perturb(ring_b, gen_b)
        finally:
            journal_a.close()
            journal_b.close()
        serial_bytes = (tmp_path / "serial.jsonl").read_bytes()
        assert serial_bytes.count(b"round_end") == 6
        assert serial_bytes == (tmp_path / "incremental.jsonl").read_bytes()
        # The persistent tree ran: batched descents resolved fresh keys
        # (the reference never moves this counter).
        assert descents[-1] > descents[0]
        assert incremental.descent_stats["miss_descents"] > 0
