"""The declarative fault model: what can go wrong, how often, seeded how.

A :class:`FaultPlan` is a frozen value object describing the failure
environment one balancing round (or churn simulation) runs under.  It
deliberately carries *probabilities and budgets*, never decisions: the
decisions are drawn by a :class:`~repro.faults.injector.FaultInjector`
seeded from ``plan.seed``, which is what makes a chaos run a pure
function of ``(scenario seed, plan)`` — the same plan replayed against
the same system reproduces the identical fault sequence byte for byte.

The modelled fault classes mirror how Mirrezaei & Shahparian and
Roussopoulos & Baker stress their balancers:

* **message drop** — an LBI report, VSA publication or tree-maintenance
  tick is lost in flight (retried under the round's
  :class:`~repro.faults.retry.RetryPolicy`);
* **message delay** — delivery succeeds but late, consuming simulated
  time from the phase's timeout budget;
* **message duplication** — the same report arrives twice (suppressed
  at the receiving KT leaf by sequence number, but counted);
* **node crash mid-round** — a physical node dies *between* VST
  transfers, after classification already ran against its load;
* **transfer abort** — a virtual-server move fails mid-flight and must
  be rolled back without violating load conservation.
* **aggregate corruption** — a node reports an implausible
  ``<L, C, L_min>`` triple (negative load, zero capacity, stale epoch);
  the :class:`~repro.core.lbi.AggregateSanity` defense must quarantine
  it rather than let it poison the global aggregate.
* **network partition** — a :class:`PartitionSpec` splits the node set
  into components that cannot exchange protocol messages until a
  bounded heal; the ``repro.membership`` subsystem runs degraded
  per-component rounds and the deterministic heal protocol.
* **process crash** — a :class:`CrashPoint` kills the balancing
  *process itself* at a named protocol site
  (:data:`CRASH_SITES`); recovery restores the latest
  :class:`~repro.recovery.SystemSnapshot` and replays the journal tail
  (see :mod:`repro.recovery`), and must converge to the byte-identical
  round digest.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import FaultPlanError


def _check_probability(name: str, value: float) -> None:
    """Raise :class:`FaultPlanError` unless ``value`` is in ``[0, 1]``."""
    if not 0.0 <= value <= 1.0:
        raise FaultPlanError(f"{name} must be a probability in [0, 1], got {value}")


@dataclass(frozen=True, slots=True)
class PartitionSpec:
    """One seeded partition event on a fault plan.

    Like every other fault knob, a spec carries *intent* rather than
    decisions: the component assignment of a seeded split is drawn by
    the injector's partition stream at activation time, keeping the
    whole partition/heal history a pure function of
    ``(scenario seed, plan)``.

    Parameters
    ----------
    at_round:
        Balancing-round index (0-based) at which the partition strikes.
    duration:
        Number of rounds the partition lasts; the heal protocol runs at
        the start of round ``at_round + duration``.
    num_components:
        For a *seeded* split: how many components to cut the alive node
        set into (a seeded permutation split into near-equal chunks).
        Ignored when ``components`` is given explicitly.
    components:
        Optional explicit split: a tuple of node-index tuples.  Indices
        must be disjoint; alive nodes not listed join component 0.
    mid_round:
        When true the partition strikes *inside* round ``at_round``'s
        VST batch (at a seeded transfer slot) instead of at the round
        boundary — transfers whose endpoints land in different
        components are caught in flight and suspended until the heal.
    """

    at_round: int = 0
    duration: int = 1
    num_components: int = 2
    components: tuple[tuple[int, ...], ...] = ()
    mid_round: bool = False

    def __post_init__(self) -> None:
        """Validate every field; raises :class:`FaultPlanError`."""
        if self.at_round < 0:
            raise FaultPlanError(f"at_round must be >= 0, got {self.at_round}")
        if self.duration < 1:
            raise FaultPlanError(f"duration must be >= 1, got {self.duration}")
        if self.components:
            if len(self.components) < 2:
                raise FaultPlanError(
                    "an explicit split needs at least 2 components, got "
                    f"{len(self.components)}"
                )
            seen: set[int] = set()
            for component in self.components:
                if not component:
                    raise FaultPlanError("explicit components must be non-empty")
                for index in component:
                    if index < 0:
                        raise FaultPlanError(f"node index must be >= 0, got {index}")
                    if index in seen:
                        raise FaultPlanError(
                            f"node index {index} listed in two components"
                        )
                    seen.add(index)
        elif self.num_components < 2:
            raise FaultPlanError(
                f"num_components must be >= 2, got {self.num_components}"
            )

    @property
    def heal_round(self) -> int:
        """Round index at whose start the heal protocol runs."""
        return self.at_round + self.duration


#: The named protocol sites a :class:`CrashPoint` may target, in
#: protocol order within a round: after the LBI aggregate folds, at a
#: seeded slot inside the VST transfer batch, and just before the heal
#: protocol reconciles suspended transfers.
CRASH_SITES = ("post-lbi-fold", "mid-vst-batch", "pre-heal-commit")


@dataclass(frozen=True, slots=True)
class CrashPoint:
    """One scheduled whole-process crash on a fault plan.

    Deterministic per ``(at_round, site)``: the crash fires the first
    time the named site is reached in the given round (the only seeded
    element is the mid-VST batch slot, drawn from the injector's
    process-crash stream).  After recovery the site is disarmed, so the
    restored run passes it and completes the round.

    Parameters
    ----------
    at_round:
        Balancing-round index (0-based) in which the crash fires.
    site:
        One of :data:`CRASH_SITES`.
    """

    at_round: int = 0
    site: str = "mid-vst-batch"

    def __post_init__(self) -> None:
        """Validate both fields; raises :class:`FaultPlanError`."""
        if self.at_round < 0:
            raise FaultPlanError(f"at_round must be >= 0, got {self.at_round}")
        if self.site not in CRASH_SITES:
            raise FaultPlanError(
                f"unknown crash site {self.site!r}; expected one of "
                f"{', '.join(CRASH_SITES)}"
            )


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """Seeded, declarative description of one failure environment.

    Parameters
    ----------
    seed:
        Root seed of the injector's decision streams.  Independent of
        the scenario seed so the *same* fault sequence can be replayed
        against different workloads (and vice versa).
    drop:
        Per-message drop probability (LBI reports, VSA publications,
        tree-maintenance ticks).
    delay:
        Per-message delay probability; a delayed message still arrives
        but consumes up to ``delay_max`` simulated time units of the
        phase budget.
    delay_max:
        Upper bound of the (uniform) injected delay, in simulated time
        units.
    duplicate:
        Per-message duplication probability; duplicates are detected at
        the receiver and suppressed, but cost a message.
    crash_mid_round:
        Number of physical-node crashes to inject per balancing round,
        placed at seeded positions inside the VST transfer batch (the
        worst possible moment: after classification, during movement).
    transfer_abort:
        Per-transfer probability that a virtual-server move aborts
        mid-flight and is rolled back by the two-phase VST commit.
    corrupt:
        Per-report probability that a node's LBI report is corrupted
        into an implausible ``<L, C, L_min>`` triple (seeded mode draw);
        exercises the aggregate sanity defense.
    partitions:
        Ordered, non-overlapping :class:`PartitionSpec` events; each
        must heal no later than the next one strikes.
    crash_points:
        Scheduled :class:`CrashPoint` whole-process crashes; at most
        one per ``(round, site)`` pair.
    """

    seed: int = 0
    drop: float = 0.0
    delay: float = 0.0
    delay_max: float = 3.0
    duplicate: float = 0.0
    crash_mid_round: int = 0
    transfer_abort: float = 0.0
    corrupt: float = 0.0
    partitions: tuple[PartitionSpec, ...] = ()
    crash_points: tuple[CrashPoint, ...] = ()

    def __post_init__(self) -> None:
        """Validate every knob; raises :class:`FaultPlanError`."""
        _check_probability("drop", self.drop)
        _check_probability("delay", self.delay)
        _check_probability("duplicate", self.duplicate)
        _check_probability("transfer_abort", self.transfer_abort)
        _check_probability("corrupt", self.corrupt)
        if self.delay_max < 0:
            raise FaultPlanError(f"delay_max must be >= 0, got {self.delay_max}")
        if self.crash_mid_round < 0:
            raise FaultPlanError(
                f"crash_mid_round must be >= 0, got {self.crash_mid_round}"
            )
        for prev, nxt in zip(self.partitions, self.partitions[1:]):
            if prev.heal_round > nxt.at_round:
                raise FaultPlanError(
                    "partition events must be ordered and non-overlapping: "
                    f"one heals at round {prev.heal_round} but the next "
                    f"strikes at round {nxt.at_round}"
                )
        seen_crashes: set[tuple[int, str]] = set()
        for point in self.crash_points:
            key = (point.at_round, point.site)
            if key in seen_crashes:
                raise FaultPlanError(
                    f"duplicate crash point at round {point.at_round}, "
                    f"site {point.site!r}"
                )
            seen_crashes.add(key)

    @property
    def is_null(self) -> bool:
        """Whether this plan injects nothing (the fault-free environment)."""
        return (
            self.drop == 0
            and self.delay == 0
            and self.duplicate == 0
            and self.crash_mid_round == 0
            and self.transfer_abort == 0
            and self.corrupt == 0
            and not self.partitions
            and not self.crash_points
        )


#: The fault-free environment: attach it anywhere a plan is accepted to
#: get exactly the failure-free behaviour (every decision stream still
#: exists, it just never fires).
NULL_PLAN = FaultPlan()
