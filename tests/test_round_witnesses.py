"""The round witnesses against their whole-input reference encoders.

Three per-round witnesses are built incrementally or from columns: the
fault and adversary log signatures (a running hash fed at append), the
report's canonical digest text (written member by member) and each
journal line (encoded once, ``check`` spliced in).  Every test here
holds one of them to the direct form kept in
:mod:`tests.reference_encoders`, byte for byte, and pins that the
incremental forms do no work proportional to history.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary import AdversaryPlan
from repro.adversary.engine import AdversaryAction, AdversaryEngine
from repro.adversary.plan import BEHAVIORS
from repro.adversary.stats import AdversaryRoundStats
from repro.app import P2PSystem, SystemConfig
from repro.core.balancer import LoadBalancer
from repro.core.classification import ClassificationResult
from repro.core.config import BalancerConfig
from repro.core.lbi import AggregationTrace
from repro.core.records import (
    Assignment,
    ShedCandidate,
    SpareCapacity,
    SystemLBI,
)
from repro.core.report import BalanceReport
from repro.core.vsa import VSAResult
from repro.core.vst import TransferRecord
from repro.faults import FaultInjector, FaultKind, FaultPlan, PartitionSpec
from repro.faults.injector import InjectedFault
from repro.faults.stats import FaultRoundStats
from repro.recovery import SystemSnapshot
from repro.recovery.journal import JOURNAL_KINDS, JournalRecord
from repro.workloads import GaussianLoadModel, build_scenario
from tests import reference_encoders as ref

# ----------------------------------------------------------------------
# Log signatures
# ----------------------------------------------------------------------
_subjects = st.text(max_size=12)
_fault_entries = st.tuples(
    st.sampled_from(list(FaultKind)),
    st.sampled_from(["lbi", "vsa", "vst", "heartbeat", "ktree"]),
    _subjects,
)
_adversary_entries = st.tuples(
    st.sampled_from(BEHAVIORS), st.integers(-5, 10**6), _subjects
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_fault_entries, max_size=40))
def test_fault_signature_equals_full_rehash(entries):
    injector = FaultInjector(FaultPlan(seed=1), metrics=None)
    assert injector.signature() == ref.log_signature([])
    for kind, phase, subject in entries:
        injector._record(kind, phase, subject)
        assert injector.signature() == ref.log_signature(injector.log)


@settings(max_examples=60, deadline=None)
@given(st.lists(_adversary_entries, max_size=40))
def test_adversary_signature_equals_full_rehash(entries):
    engine = AdversaryEngine(AdversaryPlan(seed=1), metrics=None)
    assert engine.signature() == "" == ref.adversary_signature(engine.log)
    for behavior, node, subject in entries:
        engine._record(behavior, node, subject)
        assert engine.signature() == ref.adversary_signature(engine.log)


@pytest.mark.parametrize("entry", [InjectedFault, AdversaryAction])
def test_repeated_signature_calls_no_key(monkeypatch, entry):
    if entry is InjectedFault:
        owner: Any = FaultInjector(FaultPlan(seed=2), metrics=None)
        for i in range(5):
            owner._record(FaultKind.DROP, "lbi", f"m{i}")
    else:
        owner = AdversaryEngine(AdversaryPlan(seed=2), metrics=None)
        for i in range(5):
            owner._record(BEHAVIORS[0], i, f"round={i}")
    first = owner.signature()
    calls = []
    original = entry.key

    def counting_key(self):
        calls.append(self.seq)
        return original(self)

    monkeypatch.setattr(entry, "key", counting_key)
    assert owner.signature() == first
    assert calls == []


def _robust_balancer() -> LoadBalancer:
    scenario = build_scenario(
        GaussianLoadModel(mu=1e6, sigma=2e5),
        num_nodes=32,
        vs_per_node=4,
        rng=11,
    )
    config = BalancerConfig(
        proximity_mode="ignorant", epsilon=0.05, tree_degree=2
    )
    return LoadBalancer(
        scenario.ring,
        config,
        rng=12,
        faults=FaultPlan(
            seed=5,
            drop=0.1,
            transfer_abort=0.1,
            partitions=(
                PartitionSpec(at_round=2, duration=1, num_components=2),
            ),
        ),
        adversary=AdversaryPlan(seed=6, fraction=0.2, defense=True),
    )


def _assert_signatures_match_reference(balancer: LoadBalancer) -> None:
    assert balancer.faults is not None and balancer.adversary is not None
    assert balancer.faults.signature() == ref.log_signature(balancer.faults.log)
    assert balancer.adversary.signature() == ref.adversary_signature(
        balancer.adversary.log
    )


def test_signatures_after_mid_run_restore():
    original = _robust_balancer()
    for _ in range(2):
        original.run_round()
    snapshot = SystemSnapshot.capture(original)
    for _ in range(2):
        original.run_round()

    twin = _robust_balancer()
    for _ in range(3):  # diverge the twin's logs before restoring
        twin.run_round()
    snapshot.restore(twin)
    assert twin.faults is not None and twin.adversary is not None
    assert twin.faults.log and twin.adversary.log
    _assert_signatures_match_reference(twin)
    for _ in range(2):
        twin.run_round()
        _assert_signatures_match_reference(twin)
    assert twin.faults.signature() == original.faults.signature()
    assert twin.adversary.signature() == original.adversary.signature()


def test_restored_empty_adversary_log_signs_empty():
    clean = _robust_balancer()
    snapshot = SystemSnapshot.capture(clean)  # nothing has fired yet
    twin = _robust_balancer()
    twin.run_round()
    assert twin.adversary is not None and twin.adversary.log
    snapshot.restore(twin)
    assert twin.adversary.log == []
    assert twin.adversary.signature() == ""


# ----------------------------------------------------------------------
# The canonical digest text
# ----------------------------------------------------------------------
#: Node indices clustered at the digit-count boundaries, where the
#: string order of the keys departs from their numeric order.
_indices = st.one_of(
    st.integers(0, 12),
    st.integers(95, 105),
    st.integers(995, 1005),
    st.integers(0, 10**7),
)
_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.1, 1e300, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_loads = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0, 1e9))
_ints = st.integers(0, 10**6)


@st.composite
def _classifications(draw, indices: np.ndarray) -> ClassificationResult:
    n = len(indices)
    targets = np.asarray(draw(st.lists(_floats, min_size=n, max_size=n)))
    if draw(st.booleans()):  # a partition with no aggregate: all idle
        return ClassificationResult.merge([], indices, targets)
    codes = np.asarray(
        draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), dtype=int
    )
    return ClassificationResult(
        indices, targets.astype(np.float64), codes == 0, codes == 1
    )


_candidates = st.builds(ShedCandidate, _loads, _ints, _ints)
_assignments = st.lists(
    st.builds(Assignment, _candidates, _ints, st.integers(0, 20)), max_size=6
)


@st.composite
def _reports(draw) -> BalanceReport:
    indices = np.asarray(
        sorted(draw(st.sets(_indices, max_size=40))), dtype=np.int64
    )
    if draw(st.booleans()):
        indices = indices[::-1].copy()
    n = len(indices)
    column = st.lists(_floats, min_size=n, max_size=n)
    return BalanceReport(
        config=BalancerConfig(epsilon=draw(st.floats(0, 1))),
        system_lbi=SystemLBI(
            draw(_loads), draw(st.floats(1e-9, 1e9)), draw(_loads)
        ),
        num_nodes=n,
        num_virtual_servers=draw(_ints),
        node_indices=indices,
        capacities=np.asarray(draw(column), dtype=np.float64),
        loads_before=np.asarray(draw(column), dtype=np.float64),
        loads_after=np.asarray(draw(column), dtype=np.float64),
        classification_before=draw(_classifications(indices)),
        classification_after=draw(_classifications(indices)),
        aggregation=AggregationTrace(*draw(st.tuples(*[_ints] * 6))),
        vsa=VSAResult(
            assignments=draw(_assignments),
            unassigned_heavy=draw(st.lists(_candidates, max_size=4)),
            unassigned_light=draw(
                st.lists(st.builds(SpareCapacity, _loads, _ints), max_size=6)
            ),
            rounds=draw(_ints),
            upward_messages=draw(_ints),
            entries_published=draw(_ints),
            entries_lost=draw(_ints),
            pairings_by_level=Counter(
                draw(st.dictionaries(st.integers(0, 20), _ints, max_size=4))
            ),
        ),
        transfers=draw(
            st.lists(
                st.builds(
                    TransferRecord,
                    _ints,
                    _loads,
                    _ints,
                    _ints,
                    _floats,
                    st.integers(0, 20),
                ),
                max_size=6,
            )
        ),
        skipped_assignments=draw(_assignments),
        failed_assignments=draw(_assignments),
        fault_stats=FaultRoundStats(
            lbi_retries=draw(_ints), signature=draw(st.text(max_size=8))
        ),
        adversary_stats=AdversaryRoundStats(
            attacker_moved_load=draw(_loads),
            signature=draw(st.text(max_size=8)),
        ),
        tree_height=draw(_ints),
        tree_nodes_materialized=draw(_ints),
        in_flight_before=draw(_loads),
        in_flight_after=draw(_loads),
    )


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(_reports())
def test_canonical_text_equals_sorted_dump(report):
    assert report.canonical_text() == ref.digest_text(report)
    assert report.canonical_digest() == ref.canonical_digest(report)


def test_canonical_text_of_robust_rounds():
    balancer = _robust_balancer()
    reports = [balancer.run_round() for _ in range(4)]
    assert any(r.transfers for r in reports)
    assert any(r.fault_stats.partition_components > 1 for r in reports)
    for report in reports:
        assert report.canonical_text() == ref.digest_text(report)


def test_canonical_text_of_an_empty_round():
    report = P2PSystem(SystemConfig(initial_nodes=8, seed=3)).rebalance()
    assert not report.transfers and not report.vsa.assignments
    assert report.canonical_text() == ref.digest_text(report)


def test_moved_load_of_an_empty_round_is_a_float():
    report = P2PSystem(SystemConfig(initial_nodes=8, seed=3)).rebalance()
    assert not report.transfers
    assert type(report.moved_load) is float


# ----------------------------------------------------------------------
# Journal lines
# ----------------------------------------------------------------------
#: Keys on both sides of ``"check"`` (and sharing its prefix), plus the
#: field names the balancer journals; never the record's own keys.
_keys = st.one_of(
    st.sampled_from(
        ["a", "c", "ch", "chec", "checj", "checka", "check_", "d", "digest",
         "round", "vs", "source", "target", "load", "site", "é", "中"]
    ),
    st.text(min_size=1, max_size=8),
).filter(lambda k: k not in ("seq", "kind", "check"))
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    st.text(max_size=10),
)
_values = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 10**9),
    st.sampled_from(sorted(JOURNAL_KINDS)),
    st.dictionaries(_keys, _values, max_size=8),
)
def test_journal_line_equals_double_encode(seq, kind, fields):
    line = JournalRecord(seq=seq, kind=kind, fields=fields).to_line()
    assert line == ref.journal_line(seq, kind, fields)
    assert line.isascii()
    parsed = JournalRecord.from_line(line, seq)
    assert parsed is not None
    assert (parsed.seq, parsed.kind, parsed.fields) == (seq, kind, fields)


def test_journal_line_drops_a_check_field():
    fields = {"check": "forged", "round": 3}
    line = JournalRecord(seq=0, kind="round_end", fields=fields).to_line()
    assert line == ref.journal_line(0, "round_end", fields)
    assert json.loads(line)["check"] != "forged"
