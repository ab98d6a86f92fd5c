"""The seeded decision engine that turns a :class:`FaultPlan` into faults.

A :class:`FaultInjector` owns one independent random stream per fault
channel (drop, delay, duplicate, node crash, abort, corruption,
partition, process crash), all spawned from
``plan.seed`` via the SeedSequence protocol — so the decision sequence
on one channel is unaffected by traffic on another, and the whole fault
history is a pure function of the plan.  Every decision that fires is
appended to :attr:`FaultInjector.log` and mirrored to the attached
observability layer (``faults.injected`` counter, per-kind counters,
one ``fault.inject`` trace event), and :meth:`FaultInjector.signature`
hashes the log so tests can assert two runs injected the *identical*
fault sequence byte for byte.

The injector only ever *decides*; the mechanics of acting on a decision
(dropping the report, rolling back the transfer, crashing the node)
stay with the protocol code, which keeps this package free of DHT
dependencies and lets any phase adopt a new channel without circular
imports.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import ProcessCrashError
from repro.faults.blocks import (
    CORRUPT,
    DELAY,
    DUPLICATE,
    FiredEvents,
    fired_once,
    fired_with_pick,
    fired_with_value,
)
from repro.faults.plan import FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import current_metrics, current_tracer
from repro.obs.trace import Tracer
from repro.util.rng import ensure_rng, spawn_rngs


class FaultKind(enum.Enum):
    """The injectable fault classes (see :class:`~repro.faults.FaultPlan`)."""

    DROP = "drop"
    DELAY = "delay"
    DUPLICATE = "duplicate"
    CRASH = "crash"
    TRANSFER_ABORT = "transfer_abort"
    CORRUPT = "corrupt"
    PARTITION = "partition"
    HEAL = "heal"


@dataclass(frozen=True, slots=True)
class InjectedFault:
    """One fault that actually fired, in injection order.

    ``seq`` totals the injector's history; ``phase`` names the protocol
    surface the fault hit (``"lbi"``, ``"vsa"``, ``"vst"``, ``"ktree"``,
    ``"membership"``); ``subject`` identifies the affected
    message/node/transfer within that phase.
    """

    seq: int
    kind: FaultKind
    phase: str
    subject: str

    def key(self) -> str:
        """Canonical string identity (the unit of the log signature)."""
        return f"{self.seq}:{self.kind.value}:{self.phase}:{self.subject}"


class FaultInjector:
    """Draws seeded fault decisions for one :class:`FaultPlan`.

    Parameters
    ----------
    plan:
        The declarative fault model; ``plan.seed`` roots every decision
        stream.
    tracer:
        Structured tracer for ``fault.inject`` events; defaults to the
        process-wide one.
    metrics:
        Registry accumulating ``faults.*`` counters; defaults to the
        process-wide one (``None`` = off).
    """

    def __init__(
        self,
        plan: FaultPlan,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        """Spawn the per-channel decision streams; see the class docstring."""
        self.plan = plan
        self.tracer = tracer if tracer is not None else current_tracer()
        self.metrics = metrics if metrics is not None else current_metrics()
        # SeedSequence spawning is prefix-stable, so widening from 7 to
        # 8 streams left the first seven byte-identical to older plans.
        (
            self._drop_rng,
            self._delay_rng,
            self._dup_rng,
            self._crash_rng,
            self._abort_rng,
            self._corrupt_rng,
            self._partition_rng,
            self._process_crash_rng,
        ) = spawn_rngs(ensure_rng(plan.seed), 8)
        self.log: list[InjectedFault] = []
        #: Running SHA-256 over the log's entry keys, fed at append.
        self._signer = hashlib.sha256()
        self._crashes_left = plan.crash_mid_round
        self._component_of: dict[int, int] | None = None
        self._current_round = -1
        #: ``(round, site)`` pairs whose crash already fired (restored
        #: from journal crash markers after a recovery, so a revived
        #: process does not crash at the same site forever).
        self._fired_crashes: set[tuple[int, str]] = set()
        #: Rounds whose mid-VST batch slot was already drawn; a round
        #: may run several VST batches (partitioned components), but the
        #: crash slot belongs to the first one that asks.
        self._claimed_vst_crash: set[int] = set()

    # -- bookkeeping -----------------------------------------------------
    def _record(self, kind: FaultKind, phase: str, subject: str) -> None:
        fault = InjectedFault(
            seq=len(self.log), kind=kind, phase=phase, subject=subject
        )
        self.log.append(fault)
        self._signer.update(fault.key().encode("utf-8") + b"\x00")
        if self.metrics is not None:
            self.metrics.counter("faults.injected").inc()
            self.metrics.counter(f"faults.{kind.value}").inc()
        if self.tracer.enabled:
            self.tracer.event(
                "fault.inject",
                seq=fault.seq,
                kind=kind.value,
                phase=phase,
                subject=subject,
            )

    @property
    def injected(self) -> int:
        """Total faults injected so far."""
        return len(self.log)

    def signature(self) -> str:
        """SHA-256 over the ordered fault log (reproducibility witness).

        Each entry's ``key()`` plus a NUL byte, in log order.  The hash
        runs alongside the log, so a call costs the same at any history
        length.  Two runs of the same scenario under the same plan must
        produce the same signature; the acceptance tests assert exactly
        that.
        """
        return self._signer.copy().hexdigest()

    def _restore_log(self, log: list[InjectedFault]) -> None:
        """Replace the log (a snapshot restore) and re-hash it once."""
        self.log = log
        self._signer = hashlib.sha256()
        for fault in log:
            self._signer.update(fault.key().encode("utf-8") + b"\x00")

    # -- message channels ------------------------------------------------
    def drop(self, phase: str, subject: str) -> bool:
        """Decide whether one message send is lost in flight."""
        if self.plan.drop <= 0:
            return False
        if float(self._drop_rng.random()) >= self.plan.drop:
            return False
        self._record(FaultKind.DROP, phase, subject)
        return True

    def delay(self, phase: str, subject: str) -> float:
        """Injected in-flight delay for one message (0.0 = on time)."""
        if self.plan.delay <= 0:
            return 0.0
        if float(self._delay_rng.random()) >= self.plan.delay:
            return 0.0
        self._record(FaultKind.DELAY, phase, subject)
        return float(self._delay_rng.random()) * self.plan.delay_max

    def duplicate(self, phase: str, subject: str) -> bool:
        """Decide whether one delivered message arrives twice."""
        if self.plan.duplicate <= 0:
            return False
        if float(self._dup_rng.random()) >= self.plan.duplicate:
            return False
        self._record(FaultKind.DUPLICATE, phase, subject)
        return True

    # -- message channels, a block at a time -----------------------------
    # Batch forms of the channels above for a columnar phase: each draws
    # exactly what the scalar calls would draw for the same messages, in
    # the same order (see :mod:`repro.faults.blocks`), and queues each
    # fired entry on ``events`` under the message's row instead of
    # logging it at once.  ``subject(row)`` names a fired message.
    def delays(
        self,
        phase: str,
        n: int,
        subject: Callable[[int], str],
        events: FiredEvents,
    ) -> tuple[list[int], list[float]]:
        """Delay decisions for messages ``0..n-1``: fired rows, lengths."""
        rows, draws = fired_with_value(self._delay_rng, self.plan.delay, n)
        for row in rows:
            events.add(
                row, DELAY, self._record, FaultKind.DELAY, phase, subject(row)
            )
        return rows, [draw * self.plan.delay_max for draw in draws]

    def drop_draws(self, n: int) -> np.ndarray:
        """The next ``n`` drop-stream doubles (a send is lost under
        ``plan.drop``); the retry walk serves them to attempts in order."""
        return self._drop_rng.random(n)

    def record_drop(self, phase: str, subject: str) -> None:
        """Log one lost send decided from :meth:`drop_draws`."""
        self._record(FaultKind.DROP, phase, subject)

    def duplicates(
        self,
        phase: str,
        rows: list[int],
        subject: Callable[[int], str],
        events: FiredEvents,
    ) -> list[int]:
        """Duplicate decisions for the delivered messages ``rows``."""
        fired = [
            rows[i]
            for i in fired_once(self._dup_rng, self.plan.duplicate, len(rows))
        ]
        for row in fired:
            events.add(
                row, DUPLICATE, self._record, FaultKind.DUPLICATE, phase,
                subject(row),
            )
        return fired

    def corruptions(
        self,
        phase: str,
        rows: list[int],
        subject: Callable[[int], str],
        events: FiredEvents,
    ) -> list[tuple[int, int]]:
        """Corruption decisions for the reports ``rows``: ``(row, mode)``."""
        positions, modes = fired_with_pick(
            self._corrupt_rng, self.plan.corrupt, len(rows),
            self.NUM_CORRUPT_MODES,
        )
        fired = [(rows[i], mode) for i, mode in zip(positions, modes)]
        for row, mode in fired:
            events.add(
                row, CORRUPT, self._record, FaultKind.CORRUPT, phase,
                f"{subject(row)}:mode={mode}",
            )
        return fired

    # -- transfer channel ------------------------------------------------
    def abort_transfer(self, vs_id: int) -> bool:
        """Decide whether one virtual-server move aborts mid-flight."""
        if self.plan.transfer_abort <= 0:
            return False
        if float(self._abort_rng.random()) >= self.plan.transfer_abort:
            return False
        self._record(FaultKind.TRANSFER_ABORT, "vst", f"vs={vs_id}")
        return True

    # -- corruption channel ----------------------------------------------
    #: Number of distinct corruption modes ``corrupt_report`` can draw
    #: (see :meth:`repro.core.lbi.AggregateSanity` for their meanings).
    NUM_CORRUPT_MODES = 5

    def corrupt_report(self, phase: str, subject: str) -> int | None:
        """Decide whether (and how) one LBI report is corrupted.

        Returns the seeded corruption mode in
        ``[0, NUM_CORRUPT_MODES)`` when the channel fires, ``None``
        otherwise.  The mode's meaning is owned by the sanity defense
        in :mod:`repro.core.lbi`.
        """
        if self.plan.corrupt <= 0:
            return None
        if float(self._corrupt_rng.random()) >= self.plan.corrupt:
            return None
        mode = int(self._corrupt_rng.integers(self.NUM_CORRUPT_MODES))
        self._record(FaultKind.CORRUPT, phase, f"{subject}:mode={mode}")
        return mode

    # -- partition channel -----------------------------------------------
    def partition_components(
        self, alive_indices: Sequence[int], num_components: int
    ) -> tuple[tuple[int, ...], ...]:
        """Seeded split of ``alive_indices`` into near-equal components.

        Draws one permutation from the partition stream and cuts it
        into ``num_components`` contiguous chunks (larger chunks
        first); each chunk is returned sorted.  Purely a decision —
        recording happens via :meth:`record_partition` once the
        membership layer activates the split.
        """
        indices = [int(i) for i in alive_indices]
        perm = self._partition_rng.permutation(len(indices))
        shuffled = [indices[int(p)] for p in perm]
        base, extra = divmod(len(shuffled), num_components)
        components: list[tuple[int, ...]] = []
        cursor = 0
        for c in range(num_components):
            size = base + (1 if c < extra else 0)
            chunk = shuffled[cursor : cursor + size]
            cursor += size
            if chunk:
                components.append(tuple(sorted(chunk)))
        return tuple(components)

    def partition_slot(self, num_slots: int) -> int:
        """Seeded VST-batch position (``[0, num_slots]``) for a mid-round cut."""
        return int(self._partition_rng.integers(0, num_slots + 1))

    def record_partition(
        self, epoch: int, components: tuple[tuple[int, ...], ...]
    ) -> None:
        """Log a partition activation into the signed fault history."""
        shape = "/".join(str(len(c)) for c in components)
        self._record(
            FaultKind.PARTITION, "membership", f"epoch={epoch}:shape={shape}"
        )

    def record_heal(self, epoch: int, commits: int, rollbacks: int) -> None:
        """Log a heal (with its transfer reconciliation tally)."""
        self._record(
            FaultKind.HEAL,
            "membership",
            f"epoch={epoch}:commits={commits}:rollbacks={rollbacks}",
        )

    def set_partition(self, assignment: dict[int, int] | None) -> None:
        """Install (or clear) the active node-index → component map.

        Consumes no randomness and writes no log entries — only
        activation/heal events are signed; recovery snapshots carry the
        map so a restored round sees the same partition.
        """
        self._component_of = dict(assignment) if assignment is not None else None

    @property
    def partition_active(self) -> bool:
        """Whether a component map is currently installed."""
        return self._component_of is not None

    # -- crash channel ---------------------------------------------------
    def plan_crash_slots(self, num_slots: int) -> list[int]:
        """Seeded positions (in ``[0, num_slots]``) for this round's crashes.

        One slot per remaining crash in the plan's budget; slot ``k``
        means "crash after the ``k``-th transfer of the VST batch" (slot
        0 = before any transfer executes).  Slots are drawn without
        consuming the budget — :meth:`pick_victim` consumes it when a
        crash actually lands.
        """
        if self._crashes_left <= 0:
            return []
        draws = self._crash_rng.integers(
            0, num_slots + 1, size=self._crashes_left
        )
        return sorted(int(d) for d in draws)

    def pick_victim(self, candidates: Sequence[int]) -> int | None:
        """Choose (and log) the node index to crash, or ``None``.

        Consumes one unit of the plan's ``crash_mid_round`` budget; an
        empty candidate list wastes the slot without crashing anyone.
        """
        if self._crashes_left <= 0:
            return None
        self._crashes_left -= 1
        if not candidates:
            return None
        victim = int(candidates[int(self._crash_rng.integers(len(candidates)))])
        self._record(FaultKind.CRASH, "vst", f"node={victim}")
        return victim

    @property
    def crashes_remaining(self) -> int:
        """Crash budget not yet consumed this round."""
        return self._crashes_left

    def reset_round(self, round_index: int | None = None) -> None:
        """Re-arm per-round budgets and advance the round cursor.

        ``round_index`` anchors the process-crash machinery to the
        balancer's round numbering; omitted (legacy callers), the
        cursor simply advances by one.
        """
        self._crashes_left = self.plan.crash_mid_round
        if round_index is not None:
            self._current_round = round_index
        else:
            self._current_round += 1

    # -- process-crash channel --------------------------------------------
    def crash_due(self, site: str) -> bool:
        """Whether a :class:`~repro.faults.CrashPoint` is armed here.

        True iff the plan schedules a crash for ``(current round,
        site)`` and it has not already fired (it is disarmed after a
        recovery via :meth:`disarm_crash`).  Consumes no randomness and
        writes no log entries: the fault signature of a crashed-and-
        recovered run must match the uncrashed run's byte for byte.
        """
        key = (self._current_round, site)
        if key in self._fired_crashes:
            return False
        return any(
            p.at_round == self._current_round and p.site == site
            for p in self.plan.crash_points
        )

    def process_crash_slot(self, num_slots: int) -> int | None:
        """Seeded VST-batch position for an armed mid-batch process crash.

        Returns a slot in ``[0, num_slots]`` (``k`` = crash before the
        ``k``-th transfer executes, ``num_slots`` = after the batch)
        drawn from the dedicated process-crash stream, or ``None`` when
        no ``mid-vst-batch`` crash is armed this round.  The slot is
        claimed once per round — later batches of the same round (e.g.
        per-component VST under a partition) see ``None`` — so the
        draw sequence is a pure function of the plan.
        """
        if not self.crash_due("mid-vst-batch"):
            return None
        if self._current_round in self._claimed_vst_crash:
            return None
        self._claimed_vst_crash.add(self._current_round)
        return int(self._process_crash_rng.integers(0, num_slots + 1))

    def fire_crash(self, site: str) -> None:
        """Kill the process at ``site`` (raises, never returns normally).

        Marks the ``(round, site)`` pair fired and raises
        :class:`~repro.exceptions.ProcessCrashError` for the recovery
        layer to catch.  Deliberately *not* recorded in :attr:`log` —
        see :meth:`crash_due` — though it is traced and counted.
        """
        key = (self._current_round, site)
        self._fired_crashes.add(key)
        if self.metrics is not None:
            self.metrics.counter("faults.process_crash").inc()
        if self.tracer.enabled:
            self.tracer.event(
                "fault.process_crash", round=self._current_round, site=site
            )
        raise ProcessCrashError(self._current_round, site)

    def disarm_crash(self, round_index: int, site: str) -> None:
        """Mark a crash point as already fired (journal-driven recovery).

        Called by the recovery manager for every crash marker found in
        the journal tail, so a restored process — including one revived
        in a fresh interpreter — does not re-fire the same crash.
        """
        self._fired_crashes.add((round_index, site))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultInjector(plan={self.plan!r}, injected={self.injected}, "
            f"crashes_left={self._crashes_left})"
        )


def ensure_injector(
    faults: FaultPlan | FaultInjector | None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> FaultInjector | None:
    """Coerce a plan-or-injector argument into an injector (or ``None``).

    Accepting either form everywhere mirrors the ``rng`` convention
    (:func:`repro.util.rng.ensure_rng`): pass a plan for the common
    case, pass a pre-built injector to share one fault history across
    components.  A null plan yields ``None`` so fault-free runs keep
    the exact fast paths.
    """
    if faults is None:
        return None
    if isinstance(faults, FaultInjector):
        return faults
    if faults.is_null:
        return None
    return FaultInjector(faults, tracer=tracer, metrics=metrics)
