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
quarantines, an attached journal and a crash-and-restore run.  Each
regime also asserts that its code path really ran, and on
``LoadBalancer`` the robustness regimes assert that they ran over the
one persistent tree: a ``KnaryTree`` is built only when that tree is
(re)built, never per round or per part.  Every regime also runs traced:
both kernel sets must emit the same event stream, and tracing must
leave every pinned digest unchanged.

To recompute the pins (only after a deliberate behaviour change), run::

    PYTHONPATH=src python tests/test_round_digest_pins.py

and paste the printed ``PINS`` literal over the one below.  A changed
pin is a digest-version change: say so, with the reason, in CHANGES.md.
"""

from __future__ import annotations

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
from repro.faults import CrashPoint, FaultInjector, FaultPlan, PartitionSpec
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
