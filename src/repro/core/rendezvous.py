"""Rendezvous pairing at a KT node (Section 3.4, core loop).

A KT node acting as rendezvous point holds two sorted lists:

* shed candidates ``<L_{i,k}, v_{i,k}, ip_addr(i)>`` sorted by load;
* light advertisements ``<delta_L_j, ip_addr(j)>`` sorted by delta.

The pairing loop repeatedly takes the virtual server with the *heaviest*
load and matches it to the light node minimising ``delta_L_j`` subject
to ``delta_L_j >= L_{i,k}`` (best fit).  Both entries leave their lists;
if the light node's remainder ``delta_L_j - L_{i,k}`` is still at least
``L_min`` it is reinserted.

When the heaviest candidate has no feasible light node, "no more
appropriate VSA can be achieved" for it.  Two behaviours are provided:

* default (``strict_heaviest_first=False``): the unmatchable candidate
  is set aside and pairing continues with the next-heaviest — lighter
  virtual servers may still fit, and pairing them *here* (deep in the
  tree) is exactly the proximity win the paper wants;
* ``strict_heaviest_first=True``: the literal reading — the loop stops
  at the first unmatchable heaviest and everything left propagates
  upward.  An ablation benchmark compares the two.

The loop itself, :func:`pair_entries`, runs on entry ids and one value
list (load for a shed entry, current delta for a spare one), which is
how the VSA sweeps carry a round's publications.  A slot holding no
shed or no spare entry cannot pair; unless asked to ``settle`` it hands
its lists back unsorted, because whichever rendezvous point consumes
them next sorts stably, and a stable sort of stably sorted runs equals
a stable sort of the raw runs.  :func:`pair_rendezvous` is the object
API over the same loop.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace

from repro.core.records import Assignment, ShedCandidate, SpareCapacity


@dataclass
class PairingOutcome:
    """Result of running the pairing loop at one rendezvous point."""

    assignments: list[Assignment] = field(default_factory=list)
    leftover_heavy: list[ShedCandidate] = field(default_factory=list)
    leftover_light: list[SpareCapacity] = field(default_factory=list)


def pair_entries(
    heavy: list[int],
    light: list[int],
    value: list[float],
    min_vs_load: float,
    strict_heaviest_first: bool = False,
    settle: bool = False,
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """The pairing loop over entry ids; returns ``(pairs, heavy, light)``.

    ``value[i]`` is entry ``i``'s load (shed) or spare delta (light).
    Both id lists are stably sorted by value; the heaviest shed entry
    is matched to the first light entry whose value is at least its
    load.  A light remainder ``>= min_vs_load`` (and positive) is
    written back into ``value`` and reinserted after its equal values.
    The leftover shed ids are the set-aside ones in the order they were
    set aside, then the unvisited ones ascending; the leftover light
    ids are ascending.  With no shed or no light entry nothing can
    pair: the lists come back as given, or stably sorted with
    ``settle``.
    """
    key = value.__getitem__
    if not heavy or not light:
        if settle:
            return [], sorted(heavy, key=key), sorted(light, key=key)
        return [], heavy, light
    heavy = sorted(heavy, key=key)
    light = sorted(light, key=key)
    light_keys = [value[i] for i in light]
    pairs: list[tuple[int, int]] = []
    set_aside: list[int] = []
    top = len(heavy)
    while top and light:
        top -= 1
        shed = heavy[top]
        load = value[shed]
        at = bisect_left(light_keys, load)
        if at == len(light):
            set_aside.append(shed)
            if strict_heaviest_first:
                break
            continue
        spare = light.pop(at)
        light_keys.pop(at)
        pairs.append((shed, spare))
        remainder = value[spare] - load
        if remainder >= min_vs_load and remainder > 0:
            value[spare] = remainder
            at = bisect_right(light_keys, remainder)
            light_keys.insert(at, remainder)
            light.insert(at, spare)
    set_aside.extend(heavy[:top])
    return pairs, set_aside, light


def pair_rendezvous(
    heavy: list[ShedCandidate],
    light: list[SpareCapacity],
    min_vs_load: float,
    level: int,
    strict_heaviest_first: bool = False,
) -> PairingOutcome:
    """Run the VSA pairing loop over the given entries.

    ``level`` is recorded on each produced :class:`Assignment` (the KT
    level of this rendezvous point).  ``min_vs_load`` is the system-wide
    ``L_min`` used for the remainder-reinsertion rule.  Leftovers come
    back settled (sorted) as :func:`pair_entries` leaves them.
    """
    offset = len(heavy)
    value = [c.load for c in heavy] + [s.delta for s in light]
    pairs, left_heavy, left_light = pair_entries(
        list(range(offset)),
        list(range(offset, len(value))),
        value,
        min_vs_load,
        strict_heaviest_first,
        settle=True,
    )
    outcome = PairingOutcome()
    for shed, spare in pairs:
        outcome.assignments.append(
            Assignment(
                candidate=heavy[shed],
                target_node=light[spare - offset].node_index,
                level=level,
            )
        )
    outcome.leftover_heavy = [heavy[i] for i in left_heavy]
    # A paired spare entry still listed is a reinserted remainder.
    reduced = {spare for _, spare in pairs}
    outcome.leftover_light = [
        replace(light[i - offset], delta=value[i])
        if i in reduced
        else light[i - offset]
        for i in left_light
    ]
    return outcome
