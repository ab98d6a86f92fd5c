"""Hard-coded round digests: the behaviour contract, pinned per regime.

The identity suites compare two engines at the same commit, so a bug in
code both engines share passes every one of them.  This file pins the
full per-round :meth:`~repro.core.report.BalanceReport.canonical_digest`
chain of fixed seeded runs instead, on both
:class:`~repro.core.LoadBalancer` (``incremental``: the persistent-tree
kernels) and its object-walk reference
:class:`~repro.core.reference.SerialLoadBalancer` (``serial``), across
every round regime:
churn at two tree degrees, proximity-aware placement (on a tiny
transit-stub graph and on one with ~20-vertex domains), message faults
with mid-round crashes, partitions (a mid-round cut, a component
left without reports, and a proximity-aware split with crashes in both
components), stale-LBI reuse, a defended adversary that
quarantines, every message channel at once under a retry policy whose
attempt cap and phase budget both bite (with a defended and an
undefended adversary), an attached journal and a crash-and-restore
run.  Each
regime also asserts that its code path really ran, and on
``LoadBalancer`` the robustness regimes assert that they ran over the
one persistent tree: a ``KnaryTree`` is built only when that tree is
(re)built, never per round or per part.  Every regime also runs traced:
both kernel sets must emit the same event stream, and tracing must
leave every pinned digest unchanged.

The ``all-channels`` regimes also pin the state a round leaves behind:
both signed logs, the sanity gate's per-node memory and the final state
of every decision stream, so a stream drawn once too often (or too
rarely) fails even when no digest moves.

To recompute the pins (only after a deliberate behaviour change), run::

    PYTHONPATH=src python tests/test_round_digest_pins.py

and paste the printed ``PINS`` and ``STATE_PINS`` literals over the
ones below.  A changed
pin is a digest-version change: say so, with the reason, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from repro.adversary import AdversaryPlan
from repro.core import BalancerConfig, LoadBalancer
from repro.core.records import NodeClass
from repro.core.reference import SerialLoadBalancer
from repro.core.report import BalanceReport
from repro.dht import crash_node, join_node, leave_node
from repro.faults import (
    CrashPoint,
    FaultInjector,
    FaultKind,
    FaultPlan,
    PartitionSpec,
)
from repro.faults.retry import RetryPolicy
from repro.ktree import KnaryTree
from repro.obs import observe
from repro.recovery import RecoveryManager, TransferJournal
from repro.topology import Topology, TransitStubParams
from repro.workloads import (
    GaussianLoadModel,
    ParetoLoadModel,
    apply_load_drift,
    build_scenario,
)

PARETO = ParetoLoadModel(mu=1e6)
GAUSS = GaussianLoadModel(mu=1e6, sigma=2e3)

MINI_TS = TransitStubParams(
    transit_domains=2,
    transit_nodes_per_domain=2,
    stub_domains_per_transit=2,
    stub_nodes_mean=6,
    name="mini-ts",
)

#: Domains of ~20 vertices: in the seed-11 instance 35 of 240 vertices
#: have an edge leaving their domain, so the distance oracle answers
#: pair queries through its domain separator.
SEPARATOR_TS = TransitStubParams(
    transit_domains=2,
    transit_nodes_per_domain=2,
    stub_domains_per_transit=3,
    stub_nodes_mean=20,
    name="separator-ts",
)

ENGINES = {"serial": SerialLoadBalancer, "incremental": LoadBalancer}


def _config(tree_degree: int = 2, mode: str = "ignorant") -> BalancerConfig:
    return BalancerConfig(
        proximity_mode=mode, epsilon=0.05, tree_degree=tree_degree,
        num_landmarks=4,
    )


def _pareto_ring(seed: int, num_nodes: int = 96):
    return build_scenario(PARETO, num_nodes=num_nodes, vs_per_node=4, rng=seed).ring


def _churn(ring, gen: np.random.Generator) -> None:
    """One seeded step of joins, a leave, a crash and localized drift."""
    sites = []
    for _ in range(int(gen.integers(1, 4))):
        node = join_node(
            ring,
            capacity=float(10 ** int(gen.integers(0, 3))),
            vs_count=int(gen.integers(1, 5)),
            rng=int(gen.integers(1 << 30)),
        )
        sites.extend(vs.vs_id for vs in node.virtual_servers)
    for depart in (leave_node, crash_node):
        alive = [n for n in ring.alive_nodes if n.virtual_servers]
        depart(ring, alive[int(gen.integers(len(alive)))])
    apply_load_drift(ring, PARETO, int(gen.integers(1 << 30)), sites, fraction=0.02)


def _digests(reports: list[BalanceReport]) -> list[str]:
    return [r.canonical_digest() for r in reports]


# ----------------------------------------------------------------------
# Regimes: each returns the round reports and asserts its path ran
# ----------------------------------------------------------------------
def _churn_regime(engine: type[LoadBalancer], tree_degree: int) -> list[BalanceReport]:
    ring = _pareto_ring(31)
    balancer = engine(ring, _config(tree_degree), rng=4)
    gen = np.random.default_rng(8)
    reports = []
    for _ in range(5):
        reports.append(balancer.run_round())
        _churn(ring, gen)
    assert len({r.num_nodes for r in reports}) > 1, "churn never changed the ring"
    assert all(r.transfers for r in reports)
    return reports


def regime_ignorant_k2(engine: type[LoadBalancer]) -> list[BalanceReport]:
    return _churn_regime(engine, 2)


def regime_ignorant_k4(engine: type[LoadBalancer]) -> list[BalanceReport]:
    return _churn_regime(engine, 4)


def _aware_rounds(
    engine: type[LoadBalancer],
    params: TransitStubParams,
    num_nodes: int,
    seed: int,
    after_round: Callable[[LoadBalancer], None] = lambda balancer: None,
) -> list[BalanceReport]:
    scenario = build_scenario(
        GaussianLoadModel(mu=1e5, sigma=500.0),
        num_nodes=num_nodes,
        vs_per_node=3,
        topology_params=params,
        rng=seed,
    )
    balancer = engine(
        scenario.ring,
        _config(mode="aware"),
        topology=scenario.topology,
        oracle=scenario.oracle,
        rng=6,
    )
    gen = np.random.default_rng(3)
    reports = []
    for _ in range(3):
        reports.append(balancer.run_round())
        after_round(balancer)
        centers = [int(c) for c in gen.integers(0, scenario.ring.space.size, 2)]
        apply_load_drift(
            scenario.ring, GaussianLoadModel(mu=1e5, sigma=500.0),
            int(gen.integers(1 << 30)), centers, fraction=0.2,
        )
    assert any(t.has_distance for r in reports for t in r.transfers)
    return reports


def regime_aware(engine: type[LoadBalancer]) -> list[BalanceReport]:
    return _aware_rounds(engine, MINI_TS, num_nodes=24, seed=11)


def _boundary_count(topology: Topology) -> int:
    """Vertices with an edge leaving their ``stub_domain_of`` domain."""
    return sum(
        any(
            topology.stub_domain_of(v) != topology.stub_domain_of(w)
            for w in topology.graph.neighbors(v)
        )
        for v in topology.graph.nodes
    )


def regime_aware_separator(engine: type[LoadBalancer]) -> list[BalanceReport]:
    boundary_rows: list[int] = []

    def count_rows(balancer: LoadBalancer) -> None:
        oracle, topology = balancer.oracle, balancer.topology
        assert oracle is not None and topology is not None
        assert balancer.landmarks is not None
        assert _boundary_count(topology) == 35
        boundary_rows.append(oracle.dijkstra_runs - len(balancer.landmarks))

    reports = _aware_rounds(
        engine, SEPARATOR_TS, num_nodes=48, seed=11, after_round=count_rows
    )
    assert sum(t.has_distance for r in reports for t in r.transfers) > 10
    # Every transfer distance came from the 35 boundary rows, built once
    # in the first round; no per-endpoint row was ever computed.
    assert boundary_rows == [35, 35, 35]
    return reports


def regime_aware_partitioned(engine: type[LoadBalancer]) -> list[BalanceReport]:
    """Proximity-aware rounds under message drops, mid-batch crashes and
    a two-way split: each component publishes Hilbert keys and balances
    on its own, and a component after the first publishes against loads
    its predecessors' VST batches may have changed."""
    scenario = build_scenario(
        GaussianLoadModel(mu=1e5, sigma=500.0),
        num_nodes=48,
        vs_per_node=3,
        topology_params=SEPARATOR_TS,
        rng=11,
    )
    plan = FaultPlan(
        seed=5,
        drop=0.05,
        crash_mid_round=1,
        partitions=(PartitionSpec(at_round=1, duration=2, num_components=2),),
    )
    balancer = engine(
        scenario.ring,
        _config(mode="aware"),
        topology=scenario.topology,
        oracle=scenario.oracle,
        rng=6,
        faults=plan,
    )
    gen = np.random.default_rng(3)
    reports = []
    moved_in_both = []
    for _ in range(4):
        report = balancer.run_round()
        reports.append(report)
        assert balancer.membership is not None
        view = balancer.membership.active
        if view is not None and report.fault_stats.crashed_nodes:
            sources = {view.component_of(t.source_node) for t in report.transfers}
            moved_in_both.append(len(sources) == 2)
        centers = [int(c) for c in gen.integers(0, scenario.ring.space.size, 2)]
        apply_load_drift(
            scenario.ring, GaussianLoadModel(mu=1e5, sigma=500.0),
            int(gen.integers(1 << 30)), centers, fraction=0.2,
        )
    # A split round with a crash moved load in both components.
    assert any(moved_in_both), "no split round balanced both components"
    assert any(t.has_distance for r in reports for t in r.transfers)
    return reports


def regime_faults(engine: type[LoadBalancer]) -> list[BalanceReport]:
    plan = FaultPlan(seed=5, drop=0.1, transfer_abort=0.2, crash_mid_round=1)
    ring = _pareto_ring(12)
    balancer = engine(ring, _config(), rng=2, faults=plan)
    reports = [balancer.run_round() for _ in range(4)]
    assert any(r.fault_stats.crashed_nodes for r in reports)
    # A node crashed inside the VST batch drops out of the after
    # classification (its load stays in ``loads_after``).
    for r in reports:
        for victim in r.fault_stats.crashed_nodes:
            assert victim not in r.classification_after.classes
            assert victim in r.node_indices
    assert any(r.failed_assignments for r in reports)
    assert any(r.fault_stats.lbi_retries for r in reports)
    return reports


def regime_partitions(engine: type[LoadBalancer]) -> list[BalanceReport]:
    ring = _pareto_ring(23, num_nodes=64)
    # Node ``lonely`` is cut off alone in the second split; every other
    # unlisted node joins node 0's component.
    lonely = ring.alive_nodes[5].index
    plan = FaultPlan(
        seed=13,
        drop=0.3,
        partitions=(
            PartitionSpec(at_round=1, duration=2, num_components=2, mid_round=True),
            PartitionSpec(at_round=4, duration=2, components=((0,), (lonely,))),
        ),
    )
    balancer = engine(
        ring, _config(), rng=9, faults=plan, retry=RetryPolicy(max_attempts=1)
    )
    reports = [balancer.run_round() for _ in range(7)]
    assert any(r.fault_stats.suspended_transfers for r in reports)
    assert any(r.in_flight_after > 0 for r in reports)
    # A component whose every report was lost classifies neutral at
    # exactly its own load (a classified node's target never equals it).
    reportless = [
        r
        for r in reports
        if r.fault_stats.partition_components
        and r.classification_before.classes.get(lonely) is NodeClass.NEUTRAL
        and r.classification_before.targets[lonely]
        == float(r.loads_before[list(r.node_indices).index(lonely)])
    ]
    assert reportless, "no partition component lost all its reports"
    return reports


def regime_stale_lbi(engine: type[LoadBalancer]) -> list[BalanceReport]:
    ring = _pareto_ring(40)
    balancer = engine(
        ring, _config(), rng=5, faults=FaultPlan(seed=1, drop=0.01),
        retry=RetryPolicy(lbi_staleness_rounds=2),
    )
    reports = [balancer.run_round()]
    balancer.faults = FaultInjector(FaultPlan(seed=9, drop=1.0))
    reports.append(balancer.run_round())
    balancer.faults = FaultInjector(FaultPlan(seed=2, drop=0.01))
    reports.append(balancer.run_round())
    assert [r.fault_stats.stale_lbi_reused for r in reports] == [False, True, False]
    return reports


def regime_adversary(engine: type[LoadBalancer]) -> list[BalanceReport]:
    ring = build_scenario(GAUSS, num_nodes=96, vs_per_node=4, rng=21).ring
    plan = AdversaryPlan(seed=13, fraction=0.15, defense=True)
    balancer = engine(
        ring, _config(), rng=7, adversary=plan,
        faults=FaultPlan(seed=1, crash_mid_round=1),
    )
    reports = [balancer.run_round() for _ in range(5)]
    # A round that starts with nodes quarantined runs re-tiled: the
    # excluded nodes sit it out as neutral at their own load, and so
    # (after the VST) does a node crashed inside the re-tiled round.
    retiled = [
        r
        for prev, r in zip(reports, reports[1:])
        if prev.adversary_stats.quarantined
        and r.fault_stats.crashed_nodes
        and all(
            r.classification_before.classes[i] is NodeClass.NEUTRAL
            for i in prev.adversary_stats.quarantined
            if i in r.classification_before.classes
        )
        and all(
            r.classification_after.classes[i] is NodeClass.NEUTRAL
            for i in r.fault_stats.crashed_nodes
        )
    ]
    assert retiled, "the defense never quarantined a node"
    return reports


def regime_journal(engine: type[LoadBalancer]) -> list[BalanceReport]:
    ring = _pareto_ring(55)
    balancer = engine(ring, _config(), rng=3)
    gen = np.random.default_rng(17)
    with tempfile.TemporaryDirectory() as tmp:
        journal = TransferJournal(Path(tmp) / "journal.jsonl")
        balancer.attach_journal(journal)
        reports = []
        for _ in range(4):
            reports.append(balancer.run_round())
            _churn(ring, gen)
        journal.close()
        kinds = [
            line.split('"kind":"')[1].split('"')[0]
            for line in (Path(tmp) / "journal.jsonl").read_text().splitlines()
        ]
    assert kinds.count("round_begin") == kinds.count("round_end") == 4
    assert kinds.count("commit") == sum(len(r.transfers) for r in reports)
    return reports


def regime_recovery(engine: type[LoadBalancer]) -> list[BalanceReport]:
    plan = FaultPlan(
        seed=5,
        drop=0.05,
        transfer_abort=0.1,
        crash_points=(
            CrashPoint(at_round=0, site="post-lbi-fold"),
            CrashPoint(at_round=2, site="mid-vst-batch"),
        ),
    )

    def factory() -> LoadBalancer:
        ring = build_scenario(GAUSS, num_nodes=32, vs_per_node=4, rng=17).ring
        return engine(ring, _config(), rng=18, faults=plan)

    with tempfile.TemporaryDirectory() as tmp:
        manager = RecoveryManager(factory, state_dir=tmp)
        try:
            reports = manager.run_rounds(4)
        finally:
            manager.close()
    assert manager.restores == 2
    return reports


#: Every message channel at once: drops under a two-attempt cap, delays
#: long enough to exhaust a small phase budget, duplicates, corrupted
#: reports and aborted transfers.
ALL_CHANNELS = FaultPlan(
    seed=29, drop=0.25, delay=0.05, duplicate=0.1, corrupt=0.05,
    transfer_abort=0.1,
)
ALL_CHANNELS_RETRY = RetryPolicy(max_attempts=2, phase_budget=1.5)


def _all_channels_run(
    engine: type[LoadBalancer], defense: bool
) -> tuple[list[BalanceReport], LoadBalancer]:
    ring = build_scenario(GAUSS, num_nodes=96, vs_per_node=4, rng=37).ring
    balancer = engine(
        ring, _config(), rng=41, faults=ALL_CHANNELS, retry=ALL_CHANNELS_RETRY,
        adversary=AdversaryPlan(seed=43, fraction=0.15, defense=defense),
    )
    faults = balancer.faults
    assert faults is not None
    gen = np.random.default_rng(47)
    reports = []
    cap = ALL_CHANNELS_RETRY.max_attempts
    capped = budget = 0
    for _ in range(5):
        before = faults.injected
        report = balancer.run_round()
        for phase in ("lbi", "vsa"):
            drops = [
                f.subject
                for f in faults.log[before:]
                if f.kind is FaultKind.DROP and f.phase == phase
            ]
            at_cap = sum(s.endswith(f"#{cap}") for s in drops)
            # A message delivered after k drops retried k times, one lost
            # at the cap retried cap - 1 times after cap drops, and one
            # the budget stopped retried k - 1 times after k drops.
            capped += at_cap
            budget += (
                len(drops) - getattr(report.fault_stats, f"{phase}_retries") - at_cap
            )
        reports.append(report)
        _churn(ring, gen)
    kinds = {f.kind.value for f in faults.log}
    assert {"drop", "delay", "duplicate", "corrupt", "transfer_abort"} <= kinds
    assert capped and budget, "the attempt cap or the phase budget never bit"
    stats = [r.fault_stats for r in reports]
    assert any(s.lbi_duplicates for s in stats) and any(s.vsa_duplicates for s in stats)
    assert any(s.quarantined_nodes for s in stats)
    adv = [r.adversary_stats for r in reports]
    if defense:
        assert any(a.audits_failed for a in adv)
        assert any(a.accusations_refuted for a in adv)
    else:
        assert any(a.reports_suppressed for a in adv)
    assert any(a.lies_load for a in adv)
    return reports, balancer


def _state_pins(balancer: LoadBalancer) -> dict[str, str]:
    """What a run leaves behind: both signed logs, the gate's per-node
    memory and the final state of every decision stream, hashed."""

    def digest(value: object) -> str:
        return hashlib.sha256(repr(value).encode()).hexdigest()

    faults, adversary, gate = balancer.faults, balancer.adversary, balancer._sanity
    assert faults is not None and adversary is not None and gate is not None
    memory = {
        name: sorted(getattr(gate, name, {}).items())
        for name in ("_trust", "_ewma", "_probation", "_last_good")
    }
    streams = {
        "lbi_rng": balancer._lbi_rng,
        "retry_rng": balancer._retry_rng,
        "audit_rng": adversary._audit_rng,
        **{
            name: getattr(faults, name)
            for name in (
                "_drop_rng", "_delay_rng", "_dup_rng", "_crash_rng",
                "_abort_rng", "_corrupt_rng", "_partition_rng",
                "_process_crash_rng",
            )
        },
    }
    return {
        "faults": faults.signature(),
        "adversary": adversary.signature(),
        "gate": digest(memory),
        **{
            name.strip("_"): digest(gen.bit_generator.state)
            for name, gen in streams.items()
        },
    }


#: ``all-channels`` regime name -> whether its adversary plan defends.
ALL_CHANNELS_REGIMES = {"all-channels": True, "all-channels-undefended": False}


def regime_all_channels(engine: type[LoadBalancer]) -> list[BalanceReport]:
    return _all_channels_run(engine, defense=True)[0]


def regime_all_channels_undefended(engine: type[LoadBalancer]) -> list[BalanceReport]:
    return _all_channels_run(engine, defense=False)[0]


REGIMES: dict[str, Callable[[type[LoadBalancer]], list[BalanceReport]]] = {
    "ignorant_k2": regime_ignorant_k2,
    "ignorant_k4": regime_ignorant_k4,
    "aware": regime_aware,
    "aware-separator": regime_aware_separator,
    "aware-partitioned": regime_aware_partitioned,
    "faults": regime_faults,
    "partitions": regime_partitions,
    "stale_lbi": regime_stale_lbi,
    "adversary": regime_adversary,
    "journal": regime_journal,
    "recovery": regime_recovery,
    "all-channels": regime_all_channels,
    "all-channels-undefended": regime_all_channels_undefended,
}

PINS: dict[str, list[str]] = {
    'ignorant_k2': [
        'a08ef3aec4f90c365bcf19dd4400e928b14a92fc48be6d695ae9f77df58159fd',
        'e9dc9371fcaa57383abb89c184f8b2c5000d6c73cb21a665de1a5d3b8fb6e9fc',
        'ea3869a6096ddc17ae6832e94a900a803c1e0a98960c753d60fa13cf085f7ebd',
        '5abe830aeb143e220ea0595e7c8e79ebe3ba5a6801851df6c5546b0a845b8feb',
        '36cb44d474870788a3d519edf49d4e937a8e86bfe4868ed1d2772de3a1028f65',
    ],
    'ignorant_k4': [
        'f2dd937bddf632d5d6a61054d49660c6d864434cbb58477e3a41f0ebe409300e',
        '8cd56ed4831c6ad0352f3355e89deafdd7317d551884fd5c705e82e6d5f77299',
        '0a48372980913be1585f10ca41c4ce5b5156f2d01e0e5b76e2d3a0b5581de363',
        '57913490d15c7f24c4f64c0dd7f1d5a98f81906fe3886ba0e3c93af78143e300',
        '9c53c32154759eeb7a3e71303fd2796a62a96286afc7683fd557f2b1d72d56ca',
    ],
    'aware': [
        '72b3431685533e45011b6fefb6c64b026a212e43d657d2a396d211b9903d0a48',
        'daf96e09a6c34f9228f55ea083a4befe5f2acfe71b7d6c7a1c34fe45cc52e953',
        '3df2d0c0362e84a8084c794f2117cef5dea75ea6bdad1e68aa9d024e766d8ab4',
    ],
    'aware-separator': [
        'dfe189b45b2ed7abfef5e40b4efb651a44c645d35e02a01557e63fc3325f6f99',
        '82859006542be62e889dc5430b08148c24599f54d4f9f2e738d2bf862fb73695',
        'de37f307e2bbe240a0bfd63018eb8fa8ed830e450873e68ac990ac2b4701e105',
    ],
    'aware-partitioned': [
        'b21d62558ded022da53d53193062267f2bb36a1b3e6accf6a1c5f9de40330bd8',
        '59899adc633df000f7c8411c732827042a84f97e03194c5de89140a17359f438',
        '96dee00a16abe3cb2650513dae5d06c715b7aa33fd865a7b646dd126471ccc1e',
        '0681333d44aadd94774eeca7f0c0f9feff93c144e8690be54c48ae300b980dca',
    ],
    'faults': [
        'bf8dc4c73ef4fe476c585c6b40e96b91a0738214f179b7edf7d034129ce5d091',
        '82f84c89fb533183bd18a5afa8d73d48ee2701a61bb0fccdabebb6c43c69027d',
        '248a3f7c05ad56fd3ce29ff3109223d5abd2e6337e022acad7ae11a5f12e7517',
        'a0aa86d4b48de80efd3d0032ea4328a8ae04c25e941bc35f3376ea31f600916c',
    ],
    'partitions': [
        'c73a88b542686c020e682c71e1e3828fcd9badfe0a4c677ed2f2c6208d57fbbd',
        '7b61e001ec9546c5f19654823da583bed22dce4f2f004eaaa0a9d063c64d6147',
        '14195e5cce9fe659dec22111a1b30409b21f74be2cdb8ee3755e7c85129daaaf',
        '02d858d2a1ab61013a975ce57bd2a5b85bdeec4663745cade70f86d17a74a1bf',
        'd41abebf63c5f573c5468bf5d3fcec8a7600399ac3ec1d37bebee4dae2698ef3',
        'f5aaf67461e48539566ed30c5367cfe28f4e0ecca04e9efedfee53a1d3573be6',
        'e5bdc1d9166aa255fb9c682671c8ee18ec4758da7e9c8c9d48bcc63f4cbf4a57',
    ],
    'stale_lbi': [
        'e21a23806078a068b255d3d14d1cbd6f338ac30704d46669f17abb6a6058db5c',
        'c2b3a0e06fe7ad4443aa4f547348ff67e469df4a448a1cc0270cb5a4fa56bde0',
        'c71c64ad37f9b984b0c5100e1f36c4fa94f195bb36af5b165afca795f9b295fa',
    ],
    'adversary': [
        'be43d032c90b4686c392675050b8aac6e9688069a5f5064e95dd355c004b5e72',
        'fd958cef2c960cca1c4b6cc4ceb926d99b3ae8ad318326e9b149dc9b7e33125c',
        'f0d9981f81bb7d677b872634b97026cb0f611f76c5a931ff01ac5b83814ea6e1',
        '6b5ef327fac7d73a8404bfe3d81960c70c990f24fc327c6fc0bc3fcf4786fb9e',
        '3056c5cf49cb56f62841116c7e6094d72f84a390ab57adecd8fb2a95e89e6896',
    ],
    'journal': [
        '38e4e5cd9554fc8f95710bf180307c6ea36a0ef247be5acfe5187a9df0f63d89',
        '79eb8c74741128a1d5179950cbd7eb0c233fafa6380328056ddbe803ed579127',
        '5b3225da95fa46ffb010de5083ff47ea8f9587871533ff493e33ed47925d637f',
        '452aaa83f5869609f9c4e573fd7fdb4dc920209fae91f3627d64040590879776',
    ],
    'recovery': [
        'c353f762a0b6aa00c5ca47cea38083b5eb824e1074d3b8a76bafd7b90823fb53',
        '54c7c7e1ec3ab0664769d404ecfcce15d77579544ff25a48658cab11c63954c0',
        '5aa540c600e4376a3791b40a65f62ef021ec6e39a846b09cb1b79817f09589aa',
        '9dde3fe7755e028b66b76e7ac256becb5d8e75e8fd6c8e4b2bd5aaf17793ecd9',
    ],
    'all-channels': [
        '2bac7b376a63e1f19f2096453199ae0f8cf28c333c2fa3a61b846be0ea88046e',
        'ea5f3332fae8eed139958f3064f936cff621657c8fb4bedc9513e28dde7fe0b6',
        '57c65ab68a016844fb4e8d37148061f12f5ae23d936b1bcec728c7bfa76626c0',
        'ebe6b2b80bc50ba5a280c58d1f50a9a99c956415adf4c74c7fe60e7a18716482',
        'b91d083d201228f60d3173ec4b1790f9915f26fc55606ef558cc081c1ed85b1e',
    ],
    'all-channels-undefended': [
        '3b913f85131492febd55fd730547b5d45cb004c01e20a69217209bdb77043cb1',
        'dccd6952952b1a206810b76d9ea0c0fc3583e508461e181926762c6f7eeccd5f',
        '2f2dc0d216c1b4458066217b5b4333676cd60896bf4da1904a1c17f3ffcd3b39',
        '51508a8673912a769ecb5fb11cc59990c77ec2762a647e2c0a9c95ebfe9f9ca5',
        'ceaadf56eadc7fccf431153e5724cefea4d6cc2946225d063b3a846140a54967',
    ],
}

#: The state each ``all-channels`` run leaves behind (see ``_state_pins``).
STATE_PINS: dict[str, dict[str, str]] = {
    'all-channels': {
        'faults': '34cf6fcd4ddd9336fc32a76afc40dc94923c48abfa91fb7e6c1861fec8a74d30',
        'adversary': '2d588078646a3c84e3f279ffb8159a1cbc51cdb326e006b140aabce4ebc59a72',
        'gate': '5444d79dc94e0ca87796267a8e09780211c5091858c0a3fe2fb6f92805a0e1de',
        'lbi_rng': '0630110a5370a17e9e2ecdad81eaee0a0b9ff46e73275cb7d753cb031bfc7b3d',
        'retry_rng': 'b5e6fe75a877699a54e59a3c3909ecd67e2157b7194412b496d5dd68a9fadf2b',
        'audit_rng': '1d7fa7db68f78d1c135f44d9b1c7ea9d769ecdeb960dab9665c9611294837a30',
        'drop_rng': '22e2067a9ca87bfb2b476a5fb8b72297353dd247bd30e015b1f449f94e87ba46',
        'delay_rng': '5bac5c9b3c7e080e068cdd04e520a0d24184ebdd87996e5f3deebfc3ccfa37ba',
        'dup_rng': '9aceede8d0d60a9a9e5d9956424ffa0366be4c8ac8b2d884f44360cf643c08ec',
        'crash_rng': 'c6fdbfc289cc1b66f93ec4b54eb844920f430ff0ea19b1695c82fab213dd745d',
        'abort_rng': '1b8cd84cd640d13d35ce69e8e5afae979bf177b6c1641e590a447f45dc385d51',
        'corrupt_rng': '0d02b5c7496c8e73a9f40ee9b856256218067a68949a746fc43291655d4180e0',
        'partition_rng': 'a337ac6ddeb9ce3f8e34d063fdb413a2661e8eff9af1063f4e6ae8db7c918cf4',
        'process_crash_rng': 'd6c0670a7ab6adae4d67d77b2172e2621632174a01a4e85231dce3a06e596f92',
    },
    'all-channels-undefended': {
        'faults': '898c0bdbea7e8dfa83976a5743fb58adc2ce3bc1789be90ccf735d46749569bc',
        'adversary': '0351796fd3c5e5be66666192209909d2f7dd2dc55941ba853eaa29a87a193eab',
        'gate': 'e11bf37e619ee0d9292e4557dfff58327f02a87671f8861c96296567596d538d',
        'lbi_rng': '7e1c4d31f0baa44ba28278ed9c68c9855d51aa8d28d91cc95193f646ee03d344',
        'retry_rng': 'ab6e705176b5129e22426edae641464a1383a1ad940b97b7aaed29662baab6e8',
        'audit_rng': 'a4b448af5b44202f64c47091b22b613122e509dbb545d8d76c5ff5280ada1273',
        'drop_rng': 'db9f3717220686465a18a1180dbc46a0ff5dba5f57a664ead36f16bca643073b',
        'delay_rng': 'c2c50b66f8e75569db53c208aa4d706ce2c62f6e902a93792891ce980605b382',
        'dup_rng': '5d6add2da648398e90349d90c37428fbeb36380d3236a8322acc3e4d2408681b',
        'crash_rng': 'c6fdbfc289cc1b66f93ec4b54eb844920f430ff0ea19b1695c82fab213dd745d',
        'abort_rng': '6108b570748c22d7da2d24cc21713cfbc87bb206e3614c5dbb10ad7383834082',
        'corrupt_rng': 'e9928b690674b6adbfd340d5fd4694c8881c9a1ba56ed098400c9514024f2e4d',
        'partition_rng': 'a337ac6ddeb9ce3f8e34d063fdb413a2661e8eff9af1063f4e6ae8db7c918cf4',
        'process_crash_rng': 'd6c0670a7ab6adae4d67d77b2172e2621632174a01a4e85231dce3a06e596f92',
    },
}


#: Regimes whose faulted, attacked, quarantined or partitioned rounds
#: must run over ``LoadBalancer``'s one persistent tree.
ROBUST_REGIMES = frozenset(
    {
        "aware-partitioned",
        "faults",
        "partitions",
        "stale_lbi",
        "adversary",
        "recovery",
        "all-channels",
        "all-channels-undefended",
    }
)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_round_digests_match_pins(
    regime: str, engine: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    checks_tree = engine == "incremental" and regime in ROBUST_REGIMES
    builds: list[bool] = []
    if checks_tree:
        rebuilding = [False]
        tree_init = KnaryTree.__init__
        rebuild = LoadBalancer._rebuild

        def counted_init(self: KnaryTree, *args, **kwargs) -> None:
            builds.append(rebuilding[0])
            tree_init(self, *args, **kwargs)

        def flagged_rebuild(self: LoadBalancer) -> None:
            rebuilding[0] = True
            try:
                rebuild(self)
            finally:
                rebuilding[0] = False

        monkeypatch.setattr(KnaryTree, "__init__", counted_init)
        monkeypatch.setattr(LoadBalancer, "_rebuild", flagged_rebuild)
    reports = REGIMES[regime](ENGINES[engine])
    assert _digests(reports) == PINS[regime]
    if checks_tree:
        # Round 0 (and each restored process's first round) builds the
        # persistent tree; every later round and part reuses it.
        assert builds and all(builds), "a round built a fresh KnaryTree"
        assert len(builds) < len(reports)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("regime", sorted(ALL_CHANNELS_REGIMES))
def test_all_channels_state_matches_pins(regime: str, engine: str) -> None:
    _, balancer = _all_channels_run(ENGINES[engine], ALL_CHANNELS_REGIMES[regime])
    assert _state_pins(balancer) == STATE_PINS[regime]


@pytest.mark.parametrize("regime", sorted(REGIMES))
def test_traced_rounds_match_reference(regime: str) -> None:
    # Tracing switches no engine: a traced run keeps the pinned digests,
    # and both kernel sets emit the same (kind, name, fields) stream —
    # wall-clock ``t`` and span ``seconds`` aside.
    streams = {}
    for name, engine in ENGINES.items():
        with observe() as (tracer, _):
            reports = REGIMES[regime](engine)
        assert _digests(reports) == PINS[regime], name
        assert tracer.sink.events("vsa.rendezvous"), name
        # repr() compares NaN distances (ignorant mode) as equal.
        streams[name] = [
            repr(
                (
                    record.kind,
                    record.name,
                    {k: v for k, v in record.fields.items() if k != "seconds"},
                )
            )
            for record in tracer.sink.records
        ]
    assert streams["serial"] == streams["incremental"]


if __name__ == "__main__":
    chains = {}
    for name, regime in REGIMES.items():
        serial = _digests(regime(SerialLoadBalancer))
        assert serial == _digests(regime(LoadBalancer)), name
        chains[name] = serial
    print("PINS: dict[str, list[str]] = {")
    for name, chain in chains.items():
        print(f"    {name!r}: [")
        for digest in chain:
            print(f"        {digest!r},")
        print("    ],")
    print("}")
    print("STATE_PINS: dict[str, dict[str, str]] = {")
    for name, defense in ALL_CHANNELS_REGIMES.items():
        state = _state_pins(_all_channels_run(SerialLoadBalancer, defense)[1])
        assert state == _state_pins(_all_channels_run(LoadBalancer, defense)[1])
        print(f"    {name!r}: {{")
        for key, value in state.items():
            print(f"        {key!r}: {value!r},")
        print("    },")
    print("}")
