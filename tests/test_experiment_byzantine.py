"""The ``byzantine`` experiment: sweep rows, damage metric, registry."""

from dataclasses import replace

import pytest

from repro.adversary import AdversaryPlan
from repro.experiments import ExperimentSettings, byzantine
from repro.experiments.byzantine import (
    ROUNDS_PER_POINT,
    ByzantineResult,
    byzantine_row,
    smoke,
)
from repro.experiments.common import build_ignorant_balancer, run_checked_rounds
from repro.experiments.registry import EXPERIMENTS

SETTINGS = ExperimentSettings(num_nodes=48, seed=7)

POINTS = ((0.10, False), (0.10, True), (0.0, True))


def _row(index):
    return byzantine_row(SETTINGS, POINTS, adversary_seed=7, point_index=index)


def test_registered_experiment():
    assert "byzantine" in EXPERIMENTS
    fn, description = EXPERIMENTS["byzantine"]
    assert fn is byzantine.run
    assert "Byzantine" in description


def test_undefended_point_records_the_attack():
    row = _row(0)
    assert not row.defense
    assert row.attackers == round(0.10 * SETTINGS.num_nodes)
    assert row.lies > 0
    assert row.signature  # actions fired and were hashed
    assert row.final_digest
    assert row.quarantined_end == 0  # no defense, nobody excluded
    assert row.refuted == 0 and row.audits_failed == 0


def test_defended_point_fights_back():
    row = _row(1)
    assert row.defense
    assert row.audits_failed > 0 or row.quarantined_end > 0


def test_clean_point_is_quiet():
    row = _row(2)
    assert row.attackers == 0
    assert row.lies == 0
    assert row.signature == ""
    assert row.damage == pytest.approx(0.0, abs=1e-9)


def test_rows_are_pure_functions_of_their_inputs():
    assert _row(0) == _row(0)


def test_serial_and_parallel_sweeps_agree():
    fractions = (0.0, 0.10)
    serial = byzantine.run(SETTINGS, fractions=fractions)
    parallel = byzantine.run(
        replace(SETTINGS, workers=2), fractions=fractions
    )
    assert isinstance(serial, ByzantineResult)
    assert [replace(r) for r in serial.rows] == [
        replace(r) for r in parallel.rows
    ]
    assert len(serial.rows) == 2 * len(fractions)  # defense off/on per f


def test_format_rows_mentions_every_point():
    result = byzantine.run(SETTINGS, fractions=(0.10,))
    text = result.format_rows()
    assert "off" in text and "on" in text
    assert "damage" in text


def test_smoke_passes_and_reports():
    # The same entry verify.sh gates on: defense strictly reduces honest
    # damage at f=0.10 and the clean world stays digest-identical.
    message = smoke(num_nodes=48, seed=11)
    assert "byzantine smoke OK" in message


def test_dormant_plan_and_defense_at_256_nodes():
    """A dormant plan leaves clean digests alone; the defense claws back.

    256 nodes, scenario seed 42, adversary seed 13: an armed plan that
    drafts nobody reproduces the no-plan run's per-round digests, and
    the defense strictly cuts the honest damage of a 10% attacker
    draft.
    """
    settings = ExperimentSettings(num_nodes=256, seed=42)

    def digests(plan):
        balancer = build_ignorant_balancer(settings, adversary=plan)
        return [
            r.canonical_digest()
            for r in run_checked_rounds(balancer, ROUNDS_PER_POINT)
        ]

    assert digests(AdversaryPlan(seed=13, fraction=0.0)) == digests(None)
    points = ((0.10, False), (0.10, True))
    undefended = byzantine_row(settings, points, 13, 0)
    defended = byzantine_row(settings, points, 13, 1)
    assert defended.damage < undefended.damage
