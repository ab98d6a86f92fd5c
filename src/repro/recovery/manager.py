""":class:`RecoveryManager`: checkpoint, catch the crash, restore, replay.

The manager wraps a balancer stack behind the smallest possible loop:

1. **Checkpoint** — before each round, capture a
   :class:`~repro.recovery.snapshot.SystemSnapshot`, write it with
   rename-on-commit atomicity, and journal a ``checkpoint`` marker
   carrying its digest.
2. **Run** — delegate to :meth:`~repro.core.balancer.LoadBalancer.run_round`,
   which write-aheads every transfer intent into the shared
   :class:`~repro.recovery.journal.TransferJournal`.
3. **Recover** — a plan-scheduled
   :class:`~repro.faults.CrashPoint` surfaces as
   :class:`~repro.exceptions.ProcessCrashError`; the manager journals a
   ``crash`` marker, takes the balancer its factory returns (a fresh
   one models a real process restart), restores the latest snapshot
   onto it in place, disarms every crash site the journal tail proves already
   fired, arms the tail for replay validation, and re-runs the round.

Because restore reinstates every RNG stream and the fault-log
position, the re-executed round is byte-identical to the crashed one
up to the crash site and indistinguishable from an uncrashed run after
it: the :class:`~repro.core.report.BalanceReport` digests match — which
is the acceptance criterion the crash tests assert on the balancer and
its object-walk reference.

A **true** restart (process killed before the crash marker could be
written, or an OS crash that dropped the round's unsynced records)
converges through the same loop: construction detects the incomplete
round in the journal tail, restores, and the re-run either replays
cleanly or re-fires the same seeded crash — this time writing the
marker — before recovering normally.  A double crash during
recovery likewise just adds one more marker and one more restore.
"""

from __future__ import annotations

from contextlib import ExitStack
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from repro.core.balancer import LoadBalancer
from repro.core.report import BalanceReport
from repro.exceptions import ProcessCrashError, RecoveryError
from repro.faults.plan import CRASH_SITES
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import current_metrics, current_tracer
from repro.obs.trace import Tracer
from repro.recovery.durable import resolve_state_dir
from repro.recovery.journal import (
    REPLAYABLE_KINDS,
    JournalRecord,
    TransferJournal,
)
from repro.recovery.snapshot import SystemSnapshot

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dht.storage import ObjectStore

#: File name of the latest checkpoint inside the state directory.
SNAPSHOT_NAME = "snapshot-latest.json"

#: File name of the write-ahead journal inside the state directory.
JOURNAL_NAME = "journal.jsonl"


class RecoveryManager:
    """Crash-recovery driver for one balancer stack.

    Parameters
    ----------
    factory:
        Zero-argument callable returning the balancer to run — same
        ring size, config, fault plan and seeds every call.  It may
        build a fresh stack (a real process restart) or return the live
        balancer (recovery inside the process, as
        :class:`~repro.app.P2PSystem` does); restore is in place either
        way.  Determinism of recovery rests on that: everything that
        varies at runtime is restored from the snapshot, everything
        else must come out of the factory identical.
    store / extra_rngs:
        State outside the balancer that every snapshot must also cover:
        the DHT object store and named RNG streams the caller draws
        from between rounds.  Both are restored in place, so the
        objects passed here stay the live ones.  A bare balancer stack
        passes neither.
    state_dir:
        Durable state directory; defaults to ``$REPRO_STATE_DIR`` or
        ``.repro-state`` (see :func:`repro.recovery.resolve_state_dir`).
    tracer / metrics:
        Observability taps for ``recovery.*`` events and counters;
        default to the process-wide ones.
    """

    def __init__(
        self,
        factory: Callable[[], LoadBalancer],
        state_dir: str | Path | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        store: ObjectStore | None = None,
        extra_rngs: Mapping[str, np.random.Generator] | None = None,
    ) -> None:
        """Open the journal, build the balancer, resume if mid-round."""
        self.tracer = tracer if tracer is not None else current_tracer()
        self.metrics = metrics if metrics is not None else current_metrics()
        self._factory = factory
        self._store = store
        self._extra_rngs = extra_rngs
        self.state_dir = resolve_state_dir(state_dir)
        self.journal = TransferJournal(
            self.state_dir / JOURNAL_NAME,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        self.balancer = factory()
        self.balancer.attach_journal(self.journal)
        self._in_recovery = False
        self.restores = 0
        self.checkpoints = 0
        #: The finished round re-run at construction, if the state
        #: directory ended on one (see :meth:`_maybe_resume`).
        self.resumed: BalanceReport | None = None
        self._maybe_resume()

    # ------------------------------------------------------------------
    # The round loop
    # ------------------------------------------------------------------
    def run_round(self) -> BalanceReport:
        """Run one round to completion, recovering through any crash.

        Loops internally: each injected
        :class:`~repro.exceptions.ProcessCrashError` is journaled,
        recovered from, and the round re-run — so the caller always
        gets the round's final report, crashes or not.  The loop is
        bounded: every crash site fires at most once per round (fired
        sites are disarmed from the journal's crash markers), so more
        re-runs than sites means recovery is not converging.
        """
        for _attempt in range(len(CRASH_SITES) + 1):
            if not self._in_recovery:
                self._checkpoint()
            try:
                report = self.balancer.run_round()
            except ProcessCrashError as crash:
                self.journal.record_crash(crash.round_index, crash.site)
                if self.metrics is not None:
                    self.metrics.counter("recovery.crashes_caught").inc()
                self._restart()
                continue
            self._in_recovery = False
            return report
        raise RecoveryError(
            "crash recovery did not converge: more restarts than crash "
            "sites in one round (journal or snapshot corruption?)"
        )

    def run_rounds(self, count: int) -> list[BalanceReport]:
        """Run ``count`` rounds, returning their reports in order."""
        return [self.run_round() for _ in range(count)]

    def close(self) -> None:
        """Close the journal file handle (the state dir stays on disk)."""
        self.journal.close()

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    @property
    def snapshot_path(self) -> Path:
        """Where the latest checkpoint lives inside the state directory."""
        return self.state_dir / SNAPSHOT_NAME

    def _checkpoint(self) -> None:
        """Snapshot the stack and journal the matching marker."""
        snapshot = SystemSnapshot.capture(
            self.balancer, store=self._store, extra_rngs=self._extra_rngs
        )
        snapshot.save(self.snapshot_path)
        self.journal.record(
            "checkpoint",
            round=snapshot.round_index,
            digest=snapshot.canonical_digest(),
        )
        self.checkpoints += 1
        if self.metrics is not None:
            self.metrics.counter("recovery.checkpoints").inc()
        if self.tracer.enabled:
            self.tracer.event(
                "recovery.checkpoint",
                round=snapshot.round_index,
                digest=snapshot.canonical_digest(),
            )

    def _restart(self) -> None:
        """Model a process restart: factory balancer, restore, arm replay."""
        snapshot = self._restore()
        tail, markers = self._arm_replay()
        self._in_recovery = True
        self.restores += 1
        if self.metrics is not None:
            self.metrics.counter("recovery.restores").inc()
        if self.tracer.enabled:
            self.tracer.event(
                "recovery.restore",
                round=snapshot.round_index,
                replay_records=len(tail),
                disarmed=len(markers),
            )

    def _restore(self) -> SystemSnapshot:
        """Restore the latest snapshot onto the factory's balancer."""
        if not self.snapshot_path.exists():
            raise RecoveryError(
                f"journal at {self.journal.path} shows work in progress "
                f"but no snapshot exists at {self.snapshot_path}"
            )
        self.balancer = self._factory()
        self.balancer.attach_journal(self.journal)
        snapshot = SystemSnapshot.load(self.snapshot_path)
        snapshot.restore(
            self.balancer, store=self._store, extra_rngs=self._extra_rngs
        )
        return snapshot

    def _arm_replay(self) -> tuple[list[JournalRecord], list[tuple[int, str]]]:
        """Disarm the crash sites the journal tail shows fired; arm the tail."""
        tail = self.journal.tail_after_last_checkpoint()
        markers = self.journal.crash_markers(tail)
        injector = self.balancer.faults
        if markers and injector is None:
            raise RecoveryError(
                "journal records crash markers but the rebuilt balancer "
                "has no fault injector (factory drift?)"
            )
        for round_index, site in markers:
            assert injector is not None
            injector.disarm_crash(round_index, site)
        self.journal.begin_replay(tail)
        return tail, markers

    def _maybe_resume(self) -> None:
        """Continue (at construction) the run the previous process left.

        A round in progress shows up as a checkpointed journal tail
        that holds no ``round_end`` — the previous process died (or
        crashed without writing its marker) somewhere between the
        checkpoint and the round's last record, possibly before the
        round's first record, or an OS crash dropped the records written
        since that checkpoint was synced.  In that case restore-and-replay
        before the first caller round; the re-run then either completes
        the round or re-fires the same seeded crash and converges
        through :meth:`run_round`'s loop.

        A checkpointed tail that closes with ``round_end`` is a finished
        round — the previous process closed, or died after it.  If the
        snapshot is the one the last checkpoint marker names, the round
        is re-run from it against the armed tail, with the tracers and
        registries muted (that process already emitted it); its report
        is :attr:`resumed`.  A snapshot of the next round (the process
        died before journaling its marker) needs no re-run.  Neither
        counts in :attr:`restores`.  A journal with neither a checkpoint
        nor protocol records is brand new: the next round simply
        checkpoints on top of it.
        """
        tail = self.journal.tail_after_last_checkpoint()
        protocol = [r.kind for r in tail if r.kind in REPLAYABLE_KINDS]
        marker = self.journal.last_checkpoint
        if protocol[-1:] != ["round_end"]:
            if protocol or marker is not None:
                self._restart()
            return
        if marker is None:
            return
        snapshot = self._restore()
        if snapshot.canonical_digest() == marker.fields["digest"]:
            self._arm_replay()
            with ExitStack() as muted:
                for tracer in (self.tracer, self.balancer.tracer):
                    muted.enter_context(tracer.muted())
                for metrics in (self.metrics, self.balancer.metrics):
                    if metrics is not None:
                        muted.enter_context(metrics.discarding())
                self.resumed = self.balancer.run_round()
        elif snapshot.round_index != int(marker.fields["round"]) + 1:
            raise RecoveryError(
                f"snapshot at {self.snapshot_path} (round "
                f"{snapshot.round_index}) is neither the one the last "
                f"checkpoint marker names (round {marker.fields['round']}) "
                "nor the round after it"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RecoveryManager(state_dir={str(self.state_dir)!r}, "
            f"checkpoints={self.checkpoints}, restores={self.restores})"
        )
