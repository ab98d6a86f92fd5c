"""Ring change log: the bridge from churn events to dirty regions.

:class:`RingEventLog` subscribes to a :class:`~repro.dht.chord.ChordRing`
(see :meth:`ChordRing.add_listener`) and records which virtual-server
identifiers joined or left since the last drain.  Recording is O(1) per
event — no ring queries happen at mutation time, because a burst of
churn would otherwise rebuild the ring index once per event.

The dirty *spans* are derived lazily at :meth:`drain` time, on the
final ring, by the **successor-pair rule**: for every logged event
identifier ``x``, the regions of ``successor(x)`` and
``successor(x + 1)`` on the post-churn ring jointly cover every piece
of identifier space whose ownership changed because of ``x``:

* a join at ``x`` carves the arc ending at ``x`` out of the old owner's
  region — the new virtual server *is* ``successor(x)`` and the shrunk
  old owner is ``successor(x + 1)``;
* a leave at ``x`` merges the departed region into the ring successor —
  the grown absorber is ``successor(x)`` (and ``successor(x + 1)``
  resolves to the same server), whose final region contains both the
  departed arc and the absorber's old arc.

Chained events compose: each event's rule covers the boundary it moved,
and the union over the round's events covers every old and new region
of every affected virtual server.  ``transfer`` events change hosting
but no region boundary, so they are ignored here (callers re-read
per-node load state each round anyway).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dht.chord import ChordRing
from repro.exceptions import EmptyRingError
from repro.idspace import IntervalSet


@dataclass
class RingDelta:
    """What changed on the ring since the previous drain."""

    #: Identifiers at which a join or leave happened (possibly repeated).
    event_ids: list[int] = field(default_factory=list)
    #: A :meth:`ChordRing.populate` happened (or the ring emptied):
    #: subscribers must rebuild derived state from scratch.
    full_reset: bool = False
    #: Canonicalised dirty identifier spans, or ``None`` on full reset.
    dirty: IntervalSet | None = None

    @property
    def empty(self) -> bool:
        """Whether nothing structural changed since the last drain."""
        return not self.event_ids and not self.full_reset


class RingEventLog:
    """Accumulates ring membership events between balancing rounds."""

    __slots__ = ("ring", "_event_ids", "_full_reset")

    def __init__(self, ring: ChordRing) -> None:
        self.ring = ring
        self._event_ids: list[int] = []
        self._full_reset = False
        ring.add_listener(self._on_event)

    def _on_event(self, kind: str, vs_id: int) -> None:
        if kind in ("add", "remove"):
            self._event_ids.append(vs_id)
        elif kind == "bulk":
            self._full_reset = True
        # "transfer" changes hosting, not region boundaries: ignored.

    @property
    def pending_events(self) -> int:
        """Number of structural events logged since the last drain."""
        return len(self._event_ids)

    def drain(self, resolve: bool = True) -> RingDelta:
        """Consume the log and derive the dirty state on the final ring.

        With ``resolve=False`` only the raw events are returned (used
        when the caller has already decided to rebuild from scratch and
        the span derivation would be wasted work).  Resolution applies
        the successor-pair rule to every event id; if the ring has
        emptied in the meantime the delta degrades to a full reset.
        """
        delta = RingDelta(
            event_ids=self._event_ids, full_reset=self._full_reset
        )
        self._event_ids = []
        self._full_reset = False
        if delta.full_reset or not delta.event_ids or not resolve:
            return delta
        ring = self.ring
        size = ring.space.size
        probes = np.asarray(delta.event_ids, dtype=np.int64)
        probes = np.unique(
            np.concatenate([probes % size, (probes + 1) % size])
        )
        try:
            successors = ring.successors(probes)
        except EmptyRingError:
            delta.full_reset = True
            return delta
        seen: set[int] = set()
        regions = []
        for vs in successors:
            if vs.vs_id not in seen:
                seen.add(vs.vs_id)
                regions.append(ring.region_of(vs))
        delta.dirty = IntervalSet.from_regions(ring.space, regions)
        return delta
