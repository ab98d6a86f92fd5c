"""The seeded decision engine that turns an :class:`AdversaryPlan` into lies.

An :class:`AdversaryEngine` owns one independent random stream per
decision channel — attacker drafting, accusation targeting, and the
defense's witness-audit sampling — all spawned from ``plan.seed`` via
the SeedSequence protocol, so the attack history on one channel is
unaffected by traffic on another and the whole Byzantine run is a pure
function of the plan.  Every action that fires (a lying report, a
reneged transfer, a false accusation) is appended to
:attr:`AdversaryEngine.log`, mirrored to the observability layer
(``adversary.actions`` counter, per-behavior counters, one
``adversary.act`` trace event), and hashed by
:meth:`AdversaryEngine.signature` so tests can assert two runs mounted
the *identical* attack byte for byte.

Mirroring :class:`~repro.faults.FaultInjector`, the engine only ever
*decides*; acting on a decision (substituting the lied report, rolling
back the reneged transfer, suppressing the accused report) stays with
the protocol code in :mod:`repro.core`, which keeps this package free
of DHT dependencies.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.adversary.plan import (
    ACCUSE,
    BEHAVIORS,
    INFLATE_CAPACITY,
    OSCILLATE,
    OVER_REPORT,
    RENEGE,
    UNDER_REPORT,
    AdversaryPlan,
)
from repro.faults.blocks import LIE, FiredEvents
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import current_metrics, current_tracer
from repro.obs.trace import Tracer
from repro.util.rng import ensure_rng, spawn_rngs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.adversary.stats import AdversaryRoundStats


@dataclass(frozen=True, slots=True)
class AdversaryAction:
    """One Byzantine action that actually fired, in action order.

    ``seq`` totals the engine's history; ``behavior`` is the acting
    node's model (one of :data:`~repro.adversary.plan.BEHAVIORS`);
    ``node`` the attacker's index; ``subject`` identifies what the
    action hit (the lied round, the reneged virtual server, the accused
    victim).
    """

    seq: int
    behavior: str
    node: int
    subject: str

    def key(self) -> str:
        """Canonical string identity (the unit of the log signature)."""
        return f"{self.seq}:{self.behavior}:{self.node}:{self.subject}"


class AdversaryEngine:
    """Draws seeded Byzantine decisions for one :class:`AdversaryPlan`.

    Parameters
    ----------
    plan:
        The declarative adversary model; ``plan.seed`` roots every
        decision stream.
    tracer:
        Structured tracer for ``adversary.act`` events; defaults to the
        process-wide one.
    metrics:
        Registry accumulating ``adversary.*`` counters; defaults to the
        process-wide one (``None`` = off).
    """

    def __init__(
        self,
        plan: AdversaryPlan,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        """Spawn the per-channel decision streams; see the class docstring."""
        self.plan = plan
        self.tracer = tracer if tracer is not None else current_tracer()
        self.metrics = metrics if metrics is not None else current_metrics()
        # SeedSequence spawning is prefix-stable: appending streams later
        # will leave these three byte-identical for existing plans.
        (
            self._assign_rng,
            self._accuse_rng,
            self._audit_rng,
        ) = spawn_rngs(ensure_rng(plan.seed), 3)
        self.log: list[AdversaryAction] = []
        self._behavior_of: dict[int, str] | None = None
        self._accused: dict[int, int] = {}
        self._reneged: list[tuple[int, int]] = []
        self._current_round = -1

    # -- bookkeeping -----------------------------------------------------
    def _record(self, behavior: str, node: int, subject: str) -> None:
        action = AdversaryAction(
            seq=len(self.log), behavior=behavior, node=node, subject=subject
        )
        self.log.append(action)
        if self.metrics is not None:
            self.metrics.counter("adversary.actions").inc()
            self.metrics.counter(f"adversary.{behavior}").inc()
        if self.tracer.enabled:
            self.tracer.event(
                "adversary.act",
                seq=action.seq,
                behavior=behavior,
                node=node,
                subject=subject,
            )

    @property
    def acted(self) -> int:
        """Total Byzantine actions fired so far."""
        return len(self.log)

    @property
    def audit_rng(self) -> np.random.Generator:
        """The defense's witness-audit sampling stream.

        Owned by the engine (it is spawned from ``plan.seed`` alongside
        the attack streams) but consumed by
        :class:`~repro.adversary.trust.TrustedAggregation`, so a
        snapshot of the engine captures the complete adversarial RNG
        state in one place.
        """
        return self._audit_rng

    def signature(self) -> str:
        """SHA-256 over the ordered action log (reproducibility witness).

        Empty string while no action has fired, so an armed-but-dormant
        plan leaves report digests identical to a plan-free run.
        """
        if not self.log:
            return ""
        digest = hashlib.sha256()
        for action in self.log:
            digest.update(action.key().encode("utf-8"))
            digest.update(b"\x00")
        return digest.hexdigest()

    # -- round lifecycle -------------------------------------------------
    def _arm(self, alive_indices: Sequence[int]) -> None:
        """Draft the attacker set (first round only; the set is sticky)."""
        behavior_of = {
            int(index): behavior for index, behavior in self.plan.assignments
        }
        pool = [
            int(i) for i in sorted(alive_indices) if int(i) not in behavior_of
        ]
        count = min(
            len(pool), int(round(self.plan.fraction * len(alive_indices)))
        )
        if count > 0:
            perm = self._assign_rng.permutation(len(pool))
            for slot in range(count):
                node = pool[int(perm[slot])]
                behavior = self.plan.behaviors[
                    int(self._assign_rng.integers(len(self.plan.behaviors)))
                ]
                behavior_of[node] = behavior
        self._behavior_of = behavior_of

    def begin_round(
        self, round_index: int, alive_indices: Sequence[int]
    ) -> None:
        """Arm (first call), advance the round cursor, draw accusations.

        Accusation victims are drawn from the accuse stream for *every*
        accuser regardless of quarantine state, so stream consumption is
        independent of defense decisions; the defense filters
        quarantined accusers at use time instead.
        """
        self._current_round = round_index
        if self._behavior_of is None:
            self._arm(alive_indices)
        self._accused = {}
        self._reneged = []
        if not self.active:
            return
        assert self._behavior_of is not None
        accusers = sorted(
            int(i)
            for i in alive_indices
            if self._behavior_of.get(int(i)) == ACCUSE
        )
        honest = [
            int(i) for i in sorted(alive_indices) if int(i) not in self._behavior_of
        ]
        for accuser in accusers:
            if not honest:
                break
            victim = honest[int(self._accuse_rng.integers(len(honest)))]
            self._accused[victim] = accuser
            self._record(ACCUSE, accuser, f"victim={victim}")

    @property
    def active(self) -> bool:
        """Whether attackers act this round (armed and past ``start_round``)."""
        return (
            self._behavior_of is not None
            and bool(self._behavior_of)
            and self._current_round >= self.plan.start_round
        )

    # -- attacker identity -----------------------------------------------
    def behavior_of(self, node_index: int) -> str | None:
        """The node's active behavior model, or ``None`` for honest/dormant."""
        if not self.active:
            return None
        assert self._behavior_of is not None
        return self._behavior_of.get(node_index)

    def is_attacker(self, node_index: int) -> bool:
        """Whether the node is an active attacker this round."""
        return self.behavior_of(node_index) is not None

    @property
    def attacker_indices(self) -> tuple[int, ...]:
        """Sorted indices of the drafted attacker set (empty until armed)."""
        if self._behavior_of is None:
            return ()
        return tuple(sorted(self._behavior_of))

    @property
    def active_attackers(self) -> int:
        """Number of attackers acting this round."""
        return len(self._behavior_of or ()) if self.active else 0

    # -- report channel --------------------------------------------------
    def lie(
        self,
        node_index: int,
        load: float,
        capacity: float,
        min_vs: float,
        stats: "AdversaryRoundStats | None" = None,
    ) -> tuple[float, float, float]:
        """The node's claimed ``<L, C, L_min>`` triple for this round.

        One row of :meth:`lies`, logged at once.
        """
        events = FiredEvents()
        claimed = self.lies(
            [node_index], np.array([load]), np.array([capacity]),
            np.array([min_vs]), [0], events, stats,
        )
        events.run()
        load, capacity, min_vs = (float(column[0]) for column in claimed)
        return load, capacity, min_vs

    def lies(
        self,
        nodes: Sequence[int],
        loads: np.ndarray,
        capacities: np.ndarray,
        min_vs: np.ndarray,
        rows: Sequence[int],
        events: FiredEvents,
        stats: "AdversaryRoundStats | None" = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The claimed ``<L, C, L_min>`` columns of reporters ``nodes``.

        Honest nodes, dormant rounds, and behaviors that do not lie in
        reports (:data:`~repro.adversary.plan.RENEGE`,
        :data:`~repro.adversary.plan.ACCUSE`) keep the truth.  Load
        lies clamp ``L_min`` to the claimed load so the triple stays
        internally consistent (plausible to the baseline sanity
        defense).  Each lie is queued on ``events`` under its reporter's
        entry of ``rows``; ``stats`` receives per-family lie counts.
        The input columns are not modified.
        """
        loads = loads.copy()
        capacities = capacities.copy()
        min_vs = min_vs.copy()
        if not self.active or not len(nodes):
            return loads, capacities, min_vs
        assert self._behavior_of is not None
        behavior_of = self._behavior_of
        node_arr = np.asarray(nodes, dtype=np.int64)
        liars = np.flatnonzero(
            np.isin(node_arr, np.fromiter(behavior_of, dtype=np.int64))
        ).tolist()
        factors: list[float] = []
        load_rows: list[int] = []
        cap_rows: list[int] = []
        subject = f"round={self._current_round}"
        oscillate = (
            self.plan.over_factor
            if self._current_round % 2 == 0
            else self.plan.under_factor
        )
        for i in liars:
            node = int(node_arr[i])
            behavior = behavior_of[node]
            if behavior in (RENEGE, ACCUSE):
                continue
            events.add(rows[i], LIE, self._record, behavior, node, subject)
            if behavior == INFLATE_CAPACITY:  # lint: disable=no-float-equality
                cap_rows.append(i)
                if stats is not None:
                    stats.lies_capacity += 1
                continue
            load_rows.append(i)
            if behavior == UNDER_REPORT:
                factors.append(self.plan.under_factor)
            elif behavior == OVER_REPORT:
                factors.append(self.plan.over_factor)
            else:  # OSCILLATE: thrash between the two extremes
                factors.append(oscillate)
            if stats is not None:
                if behavior == OSCILLATE:
                    stats.lies_oscillate += 1
                else:
                    stats.lies_load += 1
        if cap_rows:
            capacities[cap_rows] *= self.plan.inflate_factor
        if load_rows:
            claimed = loads[load_rows] * np.asarray(factors)
            loads[load_rows] = claimed
            lightest = min_vs[load_rows]
            min_vs[load_rows] = np.where(claimed < lightest, claimed, lightest)
        return loads, capacities, min_vs

    # -- transfer channel ------------------------------------------------
    def renege(self, source_index: int, vs_id: int) -> bool:
        """Whether the source prepares this transfer and never delivers.

        A reneged transfer is rolled back by the two-phase VST commit;
        the engine remembers it for the round so the defense's
        transfer-outcome accounting can charge the source.
        """
        if self.behavior_of(source_index) != RENEGE:
            return False
        self._reneged.append((source_index, vs_id))
        self._record(RENEGE, source_index, f"vs={vs_id}")
        return True

    @property
    def reneged(self) -> tuple[tuple[int, int], ...]:
        """This round's ``(source, vs_id)`` reneged transfers, in order."""
        return tuple(self._reneged)

    # -- accusation channel ----------------------------------------------
    def accuser_of(self, node_index: int) -> int | None:
        """The attacker accusing this node of being dead, or ``None``."""
        return self._accused.get(node_index)

    def accusers_of(self, nodes: Sequence[int]) -> list[tuple[int, int]]:
        """``(position, accuser)`` for each accused node of ``nodes``,
        in position order."""
        if not self._accused or not len(nodes):
            return []
        victims = np.fromiter(self._accused, dtype=np.int64)
        node_arr = np.asarray(nodes, dtype=np.int64)
        return [
            (i, self._accused[int(node_arr[i])])
            for i in np.flatnonzero(np.isin(node_arr, victims)).tolist()
        ]

    @property
    def accusations(self) -> int:
        """Number of accusations mounted this round."""
        return len(self._accused)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AdversaryEngine(plan={self.plan!r}, acted={self.acted}, "
            f"round={self._current_round})"
        )


def ensure_engine(
    adversary: AdversaryPlan | AdversaryEngine | None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> AdversaryEngine | None:
    """Coerce a plan-or-engine argument into an engine (or ``None``).

    The same convention as :func:`repro.faults.ensure_injector`: pass a
    plan for the common case, pass a pre-built engine to share one
    attack history across components.  A null plan yields ``None`` so
    Byzantine-free runs keep the exact clean fast paths.
    """
    if adversary is None:
        return None
    if isinstance(adversary, AdversaryEngine):
        return adversary
    if adversary.is_null:
        return None
    return AdversaryEngine(adversary, tracer=tracer, metrics=metrics)


__all__ = [
    "BEHAVIORS",
    "AdversaryAction",
    "AdversaryEngine",
    "ensure_engine",
]
