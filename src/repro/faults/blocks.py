"""Block draws from decision streams, and the ordered queue of what fires.

A columnar phase takes a whole batch of per-message decisions at once.
Each channel's stream is drawn in blocks: ``random(k)`` yields the same
doubles as ``k`` scalar ``random()`` calls, so a block served in message
order gives the scalar decisions.  Only the positions that fire are
walked in Python.  A block is sized to the messages still pending, and
every pending message takes at least one value, so each block is used
to its end: the stream is left exactly where the message-at-a-time walk
leaves it, and no unconsumed tail needs carrying between rounds.

The events a batch fires (a fault-log entry, a lie, a trust penalty, a
quarantine) are queued in a :class:`FiredEvents` and run in the order a
message-at-a-time walk runs them: by message, then by stage.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

#: The stages of one message's fired events, in the order they run: a
#: delay, the drops by attempt, a duplicate, a refuted accusation, a lie,
#: a corruption, a failed witness audit, then the gate's verdict
#: (quarantine or envelope breach).
DELAY, DROP, DUPLICATE, REFUTE, LIE, CORRUPT, AUDIT, GATE = range(8)


class FiredEvents:
    """Fired events of one batch, run in message-then-stage order.

    :meth:`add` queues ``action(*args)`` for message ``row`` at
    ``stage`` (``sub`` orders events of one stage, e.g. drop attempts);
    :meth:`run` calls them in order and empties the queue.  Events that
    tie keep the order they were added in.
    """

    __slots__ = ("_queue",)

    def __init__(self) -> None:
        """Open an empty queue."""
        self._queue: list[tuple[int, int, int, Callable[..., Any], tuple[Any, ...]]] = []

    def add(
        self,
        row: int,
        stage: int,
        action: Callable[..., Any],
        *args: Any,
        sub: int = 0,
    ) -> None:
        """Queue ``action(*args)`` for message ``row`` at ``stage``."""
        self._queue.append((row, stage, sub, action, args))

    def run(self) -> None:
        """Run every queued event in order, then forget them."""
        queue = self._queue
        self._queue = []
        queue.sort(key=lambda event: event[:3])
        for _, _, _, action, args in queue:
            action(*args)


def fired_once(rng: np.random.Generator, p: float, n: int) -> list[int]:
    """Positions of ``n`` one-draw decisions whose draw lands under ``p``.

    A channel that is off (``p <= 0``) draws nothing, like its scalar
    form.
    """
    if p <= 0 or n == 0:
        return []
    return np.flatnonzero(rng.random(n) < p).tolist()


def fired_with_value(
    rng: np.random.Generator, p: float, n: int
) -> tuple[list[int], list[float]]:
    """Positions of ``n`` decisions that fire, each with one more double.

    A fired decision draws its value (say, a delay's length) from the
    same stream right after itself, so the value sits in the next
    position and shifts the decisions after it by one.  A fire in a
    block's last position owes its value to the next block.
    """
    rows: list[int] = []
    values: list[float] = []
    if p <= 0:
        return rows, values
    m = 0  # the next message without a decision
    owed = False  # message ``m`` fired and still needs its value
    while m < n:
        block = rng.random(n - m)
        size = len(block)
        pos = 0
        if owed:
            values.append(float(block[0]))
            pos = 1
            m += 1
            owed = False
        for hit in np.flatnonzero(block < p).tolist():
            if hit < pos:
                continue  # a value position, not a decision
            m += hit - pos
            rows.append(m)
            if hit + 1 == size:
                owed = True
                pos = size
                break
            values.append(float(block[hit + 1]))
            pos = hit + 2
            m += 1
        else:
            m += size - pos
    return rows, values


def fired_with_pick(
    rng: np.random.Generator, p: float, n: int, choices: int
) -> tuple[list[int], list[int]]:
    """Positions of ``n`` decisions that fire, each with an integer pick.

    A fired decision draws ``integers(choices)`` from the same stream
    right after itself.  An integer draw may take half a 64-bit word, so
    a block of doubles cannot serve it: at each fire the walk re-seats
    the stream at the block's start, redraws through the fired position
    and draws the pick, then blocks what is left.  Stream use is exactly
    the scalar walk's.
    """
    rows: list[int] = []
    picks: list[int] = []
    if p <= 0:
        return rows, picks
    bits = rng.bit_generator
    m = 0
    while m < n:
        start = bits.state
        hits = np.flatnonzero(rng.random(n - m) < p)
        if not hits.size:
            break
        hit = int(hits[0])
        bits.state = start
        rng.random(hit + 1)
        rows.append(m + hit)
        picks.append(int(rng.integers(choices)))
        m += hit + 1
    return rows, picks
