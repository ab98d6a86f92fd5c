"""Trusted aggregation: witness audits, trust scores, quarantine.

:class:`TrustedAggregation` grows the
:class:`~repro.core.lbi.AggregateSanity` plausibility gate into a
defense against *plausible lies* — reports that satisfy every
plausibility rule yet misstate the node's true load or capacity, which
in a genuinely heterogeneous network (capacities varying by orders of
magnitude) baseline sanity cannot distinguish from honest reports.
Three evidence channels feed one per-node trust score:

* **witness audits** — seeded spot-checks (one uniform draw per report
  from the engine's dedicated audit stream, so sampling is byte-
  reproducible and independent of attack traffic) compare the claimed
  ``<L, C>`` against the ground truth a parent probing the reporter's
  grandchildren would observe; a deviation beyond the audit tolerance
  substitutes the truth into the aggregate and charges the reporter;
* **EWMA plausibility envelopes** — each node's admitted load keeps an
  exponentially-weighted mean and deviation, shifted by the executed
  transfer deltas the balancer reports (so honest nodes whose load
  legitimately moved stay inside their envelope); a report far outside
  it is suspicious but *admitted* — the envelope only nudges trust;
* **transfer-outcome accounting** — a source that prepared transfers
  and never delivered (promised vs delivered deltas from
  :class:`~repro.core.vst.TransferTransaction` rollbacks) is charged
  once per reneging round, and a refuted false accusation charges the
  accuser.

Trust moves with hysteresis: penalties are immediate, recovery credit
(+``RECOVERY_CREDIT`` per clean round) is withheld for one round after
any penalty, quarantine triggers below ``QUARANTINE_THRESHOLD`` and
releases only above the higher ``REJOIN_THRESHOLD`` — into *probation*,
where every report is audited until ``PROBATION_ROUNDS`` consecutive
clean audits pass.  Quarantined nodes are excluded from the round: the
balancer re-tiles the ring without them via
:class:`~repro.membership.views.ComponentRingView`, and any report
that still arrives (degraded partitioned rounds) is rejected at the
gate.

Determinism contract: every decision here is a pure function of
``(scenario seed, adversary plan)`` — the audit stream is spawned from
``plan.seed``, all iteration is over sorted indices, and the full
mutable state (trust scores, envelopes, quarantine and probation sets)
rides :class:`~repro.recovery.SystemSnapshot` so a crashed-and-
recovered run replays to byte-identical digests.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.adversary.stats import AdversaryRoundStats
from repro.core.lbi import AggregateSanity, Columns
from repro.faults.blocks import AUDIT, GATE, FiredEvents
from repro.faults.stats import FaultRoundStats
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


def _relative_deviation(claimed: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Deviation of claims from the truth, scaled by the truth's size."""
    return np.abs(claimed - truth) / np.maximum(np.abs(truth), 1.0)


def _member(nodes: np.ndarray, members: list[int]) -> np.ndarray:
    """Mask of the entries of ``nodes`` that are in ``members``."""
    if not members:
        return np.zeros(nodes.size, dtype=bool)
    return np.isin(nodes, np.asarray(members, dtype=np.int64))


class TrustedAggregation(AggregateSanity):
    """The trust-scored defense layer over the LBI plausibility gate.

    Parameters
    ----------
    staleness:
        Maximum admissible epoch age (as for the base gate).
    rng:
        The witness-audit sampling stream — the engine's
        :attr:`~repro.adversary.engine.AdversaryEngine.audit_rng`, so
        one snapshot of the engine captures all adversarial RNG state.
    tracer:
        Structured tracer for ``trust.*`` events.
    metrics:
        Registry for ``trust.*`` counters (``None`` = off).
    """

    #: Probability each delivered report is witness-audited (probation
    #: forces an audit regardless).  One uniform is drawn per report
    #: either way, so stream consumption is independent of outcomes.
    AUDIT_RATE = 0.3
    #: Relative deviation between claim and witness observation above
    #: which an audit fails (generous enough for rounding, far below
    #: any configured lie factor).
    AUDIT_TOLERANCE = 0.05
    #: EWMA smoothing factor for the per-node load envelope.
    EWMA_ALPHA = 0.5
    #: Envelope half-width: this many deviations (floored at a capacity
    #: fraction) around the EWMA mean.
    ENVELOPE_FACTOR = 4.0
    #: Capacity fraction flooring the envelope deviation estimate.
    ENVELOPE_FLOOR = 0.0625
    #: Trust score bounds and thresholds (hysteresis: quarantine enters
    #: below ``QUARANTINE_THRESHOLD``, releases above the higher
    #: ``REJOIN_THRESHOLD``).
    INITIAL_TRUST = 1.0
    QUARANTINE_THRESHOLD = 0.4
    REJOIN_THRESHOLD = 0.7
    #: Consecutive clean audited reports required to clear probation.
    PROBATION_ROUNDS = 2
    #: Penalty sizes per evidence channel, and the per-round recovery
    #: credit (withheld for one round after any penalty).
    PENALTY_AUDIT = 0.7
    PENALTY_ACCUSE = 0.35
    PENALTY_RENEGE = 0.35
    PENALTY_ENVELOPE = 0.1
    RECOVERY_CREDIT = 0.1

    def __init__(
        self,
        staleness: int,
        rng: np.random.Generator,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        """Create an empty trust layer; see the class docstring."""
        super().__init__(staleness, tracer=tracer, metrics=metrics)
        self._audit_rng = rng
        self._trust: dict[int, float] = {}
        self._ewma: dict[int, tuple[float, float]] = {}
        self._quarantined: set[int] = set()
        self._probation: dict[int, int] = {}
        self._penalized: set[int] = set()
        self._adv_stats: AdversaryRoundStats | None = None

    # -- round lifecycle -------------------------------------------------
    def begin_round(
        self,
        epoch: int,
        stats: FaultRoundStats | None = None,
        alive_indices: Sequence[int] | None = None,
        adversary_stats: AdversaryRoundStats | None = None,
    ) -> None:
        """Arm the gate, evict departed nodes, apply trust transitions.

        Transition order: departed-node eviction, recovery credit (for
        nodes not penalized last round), probationary rejoin of
        quarantined nodes whose trust recovered past
        ``REJOIN_THRESHOLD``, then quarantine of nodes that fell below
        ``QUARANTINE_THRESHOLD``.  The resulting quarantine set is
        stable for the whole round (the balancer re-tiles against it
        before collection starts).
        """
        super().begin_round(epoch, stats, alive_indices=alive_indices)
        self._adv_stats = adversary_stats
        if alive_indices is not None:
            alive = frozenset(int(i) for i in alive_indices)
            for k in [k for k in self._trust if k not in alive]:
                del self._trust[k]
            for k in [k for k in self._ewma if k not in alive]:
                del self._ewma[k]
            for k in [k for k in self._probation if k not in alive]:
                del self._probation[k]
            self._quarantined &= alive
            self._penalized &= alive
        skip_credit = self._penalized
        self._penalized = set()
        for node in sorted(self._trust):
            if node not in skip_credit:
                self._trust[node] = min(
                    1.0, self._trust[node] + self.RECOVERY_CREDIT
                )
        for node in sorted(self._quarantined):
            if self._trust.get(node, 0.0) >= self.REJOIN_THRESHOLD:
                self._quarantined.discard(node)
                self._probation[node] = self.PROBATION_ROUNDS
                if self.metrics is not None:
                    self.metrics.counter("trust.rejoin").inc()
                if self.tracer is not None and self.tracer.enabled:
                    self.tracer.event("trust.rejoin", node=node)
        for node in sorted(self._trust):
            if (
                node not in self._quarantined
                and self._trust[node] < self.QUARANTINE_THRESHOLD
            ):
                self._quarantined.add(node)
                self._probation.pop(node, None)
                if self.metrics is not None:
                    self.metrics.counter("trust.quarantine").inc()
                if self.tracer is not None and self.tracer.enabled:
                    self.tracer.event("trust.quarantine", node=node)
        if adversary_stats is not None:
            adversary_stats.quarantined = sorted(self._quarantined)
            adversary_stats.probation = sorted(self._probation)

    @property
    def excluded(self) -> frozenset[int]:
        """Node indices quarantined for the current round."""
        return frozenset(self._quarantined)

    def trust_of(self, node_index: int) -> float:
        """The node's current trust score (``INITIAL_TRUST`` if unseen)."""
        return self._trust.get(node_index, self.INITIAL_TRUST)

    # -- evidence channels -----------------------------------------------
    def _penalize(self, node_index: int, amount: float, reason: str) -> None:
        """Charge one trust penalty (immediate, credit withheld next round)."""
        current = self._trust.get(node_index, self.INITIAL_TRUST)
        self._trust[node_index] = max(0.0, current - amount)
        self._penalized.add(node_index)
        if self.metrics is not None:
            self.metrics.counter("trust.penalties").inc()
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.event(
                "trust.penalty", node=node_index, reason=reason
            )

    # The scalar gate calls are one-row batches (see the base gate); they
    # are restated here so this class's own namespace holds them, where
    # the round benchmark's span table wraps them.
    def witness_check(
        self,
        node_index: int,
        claimed: tuple[float, float, float],
        truth: tuple[float, float, float],
    ) -> tuple[float, float, float]:
        """One row of :meth:`witness_batch`, its penalty charged at once."""
        return super().witness_check(node_index, claimed, truth)

    def admit(
        self,
        node_index: int,
        load: float,
        capacity: float,
        min_vs: float,
        epoch: int,
    ) -> tuple[float, float, float] | None:
        """One row of :meth:`admit_batch`, its events run at once."""
        return super().admit(node_index, load, capacity, min_vs, epoch)

    def witness_batch(
        self,
        nodes: Sequence[int],
        claimed: Columns,
        truth: Columns,
        rows: Sequence[int],
        events: FiredEvents,
    ) -> Columns:
        """Seeded spot-checks of claimed reports against ground truth.

        Draws exactly one uniform from the audit stream per reporter
        that is not quarantined, in order; a report is audited when its
        draw lands under ``AUDIT_RATE`` or its node is on probation.  A
        failed audit substitutes the witnessed truth into the aggregate
        and charges the reporter (queued on ``events``); a clean audited
        report advances the node's probation countdown.  Quarantined
        reporters are not audited (their report is rejected at the gate
        anyway) and consume no draw, which is safe because the
        quarantine set is itself a pure function of the run.
        """
        node_arr = np.asarray(nodes, dtype=np.int64)
        eligible = np.flatnonzero(~_member(node_arr, sorted(self._quarantined)))
        if not eligible.size:
            return claimed
        draws = self._audit_rng.random(eligible.size)
        on_probation = _member(node_arr[eligible], list(self._probation))
        audited = eligible[(draws < self.AUDIT_RATE) | on_probation]
        stats = self._adv_stats
        if stats is not None:
            stats.audits_run += int(audited.size)
        deviates = (
            _relative_deviation(claimed[0][audited], truth[0][audited])
            > self.AUDIT_TOLERANCE
        ) | (
            _relative_deviation(claimed[1][audited], truth[1][audited])
            > self.AUDIT_TOLERANCE
        )
        probation = self._probation
        for i in audited[~deviates].tolist():
            node = int(node_arr[i])
            remaining = probation.get(node)
            if remaining is not None:
                if remaining <= 1:
                    del probation[node]
                else:
                    probation[node] = remaining - 1
        failed = audited[deviates]
        if not failed.size:
            return claimed
        if stats is not None:
            stats.audits_failed += int(failed.size)
            stats.values_restored += int(failed.size)
        if self.metrics is not None:
            self.metrics.counter("trust.audit_failures").inc(int(failed.size))
        for i in failed.tolist():
            events.add(
                rows[i], AUDIT, self._penalize, int(node_arr[i]),
                self.PENALTY_AUDIT, "witness_audit",
            )
        checked = tuple(column.copy() for column in claimed)
        for column, witnessed in zip(checked, truth):
            column[failed] = witnessed[failed]
        return checked

    def refute_accusation(self, accuser: int) -> None:
        """Charge a false accuser whose victim's report proved liveness.

        Accusations from quarantined nodes are ignored outright (an
        excluded node cannot reach the heartbeat channel).
        """
        if accuser in self._quarantined:
            return
        if self._adv_stats is not None:
            self._adv_stats.accusations_refuted += 1
        self._penalize(accuser, self.PENALTY_ACCUSE, "false_accusation")

    def note_renege(self, source_index: int) -> None:
        """Charge a source that prepared transfers and never delivered.

        Called once per reneging source per round (the transfer-outcome
        accounting: promised load that was rolled back undelivered; the
        per-transfer tally lives in the balancer's round stats).
        """
        self._penalize(source_index, self.PENALTY_RENEGE, "renege")

    def note_transfer(
        self, source_index: int, target_index: int, load: float
    ) -> None:
        """Shift the endpoints' EWMA envelopes by one delivered transfer.

        Keeps honest nodes whose load legitimately moved inside their
        plausibility envelope — the expected next report follows the
        executed delta.
        """
        prev = self._ewma.get(source_index)
        if prev is not None:
            self._ewma[source_index] = (prev[0] - load, prev[1])
        prev = self._ewma.get(target_index)
        if prev is not None:
            self._ewma[target_index] = (prev[0] + load, prev[1])

    # -- the gate --------------------------------------------------------
    def _deltas_implausible(
        self, nodes: Sequence[int], loads: np.ndarray, capacities: np.ndarray
    ) -> np.ndarray:
        """Supersede the blind load-swing heuristic with the envelope.

        The base rule bounds per-report swings by a capacity multiple
        and so rejects honest nodes that legitimately absorbed a large
        rebalancing delta.  This layer tracks exactly those deltas
        (:meth:`note_transfer` shifts each node's EWMA mean by every
        executed transfer), so once a node has an envelope the blind
        heuristic is retired: verified movement passes, and a claim far
        off the transfer-accounted expectation is charged through the
        envelope breach in :meth:`admit_batch` instead of being silently
        swapped for a stale value.  First-sight nodes (no envelope yet)
        keep the base rule.
        """
        implausible = super()._deltas_implausible(nodes, loads, capacities)
        enveloped = np.array([node in self._ewma for node in nodes], dtype=bool)
        return implausible & ~enveloped

    def admit_batch(
        self,
        nodes: Sequence[int],
        loads: np.ndarray,
        capacities: np.ndarray,
        min_vs: np.ndarray,
        epochs: np.ndarray,
        rows: Sequence[int],
        events: FiredEvents,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Gate reports: quarantine rejection, base rules, envelope.

        A quarantined node's report is rejected outright (counted via
        the base gate's quarantine accounting).  Otherwise the base
        plausibility rules run first; an admitted report is then
        checked against the node's EWMA envelope — a breach charges a
        small trust penalty (queued on ``events``) but the report is
        still admitted (the envelope is a suspicion signal, not a
        correctness rule) — and folded into the envelope.
        """
        node_arr = np.asarray(nodes, dtype=np.int64)
        barred = _member(node_arr, sorted(self._quarantined))
        for i in np.flatnonzero(barred).tolist():
            events.add(
                rows[i], GATE, self._quarantine, int(node_arr[i]),
                "trust_quarantined",
            )
        rest = np.flatnonzero(~barred)
        keep = np.zeros(len(nodes), dtype=bool)
        out = (loads.copy(), capacities.copy(), min_vs.copy())
        if not rest.size:
            return keep, *out
        rest_list = rest.tolist()
        kept, *admitted = super().admit_batch(
            [int(node_arr[i]) for i in rest_list], loads[rest], capacities[rest],
            min_vs[rest], epochs[rest], [rows[i] for i in rest_list], events,
        )
        keep[rest] = kept
        for column, values in zip(out, admitted):
            column[rest] = values
        passed = rest[kept]
        adm_nodes = node_arr[passed].tolist()
        adm_load = out[0][passed]
        floor = self.ENVELOPE_FLOOR * np.maximum(out[1][passed], 1.0)
        trust = self._trust
        ewma = self._ewma
        prev = []
        for node in adm_nodes:
            trust.setdefault(node, self.INITIAL_TRUST)
            prev.append(ewma.get(node))
        seen = np.array([entry is not None for entry in prev], dtype=bool)
        mean = np.array([e[0] if e is not None else 0.0 for e in prev])
        dev = np.array([e[1] if e is not None else 0.0 for e in prev])
        bound = self.ENVELOPE_FACTOR * np.maximum(dev, floor)
        error = adm_load - mean
        breach = np.flatnonzero(seen & (np.abs(error) > bound))
        if breach.size:
            if self._adv_stats is not None:
                self._adv_stats.envelope_breaches += int(breach.size)
            if self.metrics is not None:
                self.metrics.counter("trust.envelope_breaches").inc(int(breach.size))
            for j in breach.tolist():
                events.add(
                    rows[int(passed[j])], GATE, self._penalize, adm_nodes[j],
                    self.PENALTY_ENVELOPE, "envelope",
                )
        new_mean = np.where(seen, mean + self.EWMA_ALPHA * error, adm_load)
        new_dev = np.where(
            seen,
            (1.0 - self.EWMA_ALPHA) * dev + self.EWMA_ALPHA * np.abs(error),
            floor,
        )
        ewma.update(zip(adm_nodes, zip(new_mean.tolist(), new_dev.tolist())))
        return keep, *out
