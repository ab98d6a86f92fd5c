"""Bounded retries: exponential backoff, seeded jitter, phase budgets.

Protocol messages lost to an injected fault are retried — but never
forever.  A :class:`RetryPolicy` bounds recovery three ways at once:

* **attempts** — at most ``max_attempts`` sends per message;
* **per-try backoff** — delay before attempt ``k`` grows as
  ``base_delay * 2**(k-1)``, capped at ``max_delay``, multiplied by a
  jitter factor drawn from a *seeded* generator (unseeded jitter would
  silently break run-for-run reproducibility, which is why the
  ``bounded-retry`` lint rule insists on :mod:`repro.util.rng`);
* **phase budget** — a :class:`RetryBudget` caps the *total* simulated
  time one phase may burn on recovery, so a high drop rate degrades the
  round instead of stalling it.

Degraded mode is part of the same policy: when LBI re-aggregation fails
outright, the balancer may reuse the previous round's aggregate as long
as it is at most ``lbi_staleness_rounds`` rounds old — an explicit
staleness bound instead of an open-ended cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.exceptions import FaultPlanError
from repro.faults.blocks import DROP, FiredEvents

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.injector import FaultInjector


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Recovery knobs shared by every phase of a degraded round.

    Parameters
    ----------
    max_attempts:
        Maximum sends per message (first try included); must be >= 1.
    base_delay:
        Backoff before the first retry, in simulated time units.
    max_delay:
        Cap on any single backoff interval.
    jitter:
        Fraction of each backoff randomised away: the delay is scaled
        by ``1 - jitter + jitter * u`` with ``u ~ U[0, 1)`` drawn from
        the caller's seeded generator.  ``0`` disables jitter.
    phase_budget:
        Total simulated time one phase may spend on backoff before
        giving up on further retries (degraded mode takes over).
    lbi_staleness_rounds:
        How many rounds old a cached system LBI may be and still be
        reused when re-aggregation fails.  ``0`` disables stale reuse.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 1.0
    jitter: float = 0.5
    phase_budget: float = 8.0
    lbi_staleness_rounds: int = 2

    def __post_init__(self) -> None:
        """Validate every knob; raises :class:`FaultPlanError`."""
        if self.max_attempts < 1:
            raise FaultPlanError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise FaultPlanError(
                f"need 0 <= base_delay <= max_delay, got "
                f"{self.base_delay}..{self.max_delay}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise FaultPlanError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.phase_budget < 0:
            raise FaultPlanError(f"phase_budget must be >= 0, got {self.phase_budget}")
        if self.lbi_staleness_rounds < 0:
            raise FaultPlanError(
                f"lbi_staleness_rounds must be >= 0, got {self.lbi_staleness_rounds}"
            )

    def backoff_delay(self, attempt: int, rng: np.random.Generator) -> float:
        """Backoff before retry number ``attempt`` (1-based), jittered.

        Exponential growth capped at ``max_delay``; the jitter variate
        (one draw per backoff, none when ``jitter`` is 0) is drawn from
        ``rng`` so the schedule is a pure function of the seed.
        """
        if attempt < 1:
            raise FaultPlanError(f"attempt must be >= 1, got {attempt}")
        raw = min(self.base_delay * (2.0 ** (attempt - 1)), self.max_delay)
        if self.jitter == 0:
            return raw
        return raw * (1.0 - self.jitter + self.jitter * float(rng.random()))


class RetryBudget:
    """Mutable per-phase account of simulated recovery time.

    One budget instance covers one phase of one round; every backoff
    interval is charged against it and retries stop (degraded mode)
    once it is exhausted.
    """

    __slots__ = ("limit", "spent")

    def __init__(self, limit: float) -> None:
        """Open a budget of ``limit`` simulated time units."""
        if limit < 0:
            raise FaultPlanError(f"budget limit must be >= 0, got {limit}")
        self.limit = limit
        self.spent = 0.0

    @property
    def remaining(self) -> float:
        """Unspent simulated time (never negative)."""
        return max(self.limit - self.spent, 0.0)

    def charge(self, amount: float) -> bool:
        """Spend ``amount`` if it fits; returns whether it was charged."""
        if amount < 0:
            raise FaultPlanError(f"cannot charge a negative amount {amount}")
        if self.spent + amount > self.limit:
            return False
        self.spent += amount
        return True


@dataclass(frozen=True, slots=True)
class DeliveryOutcome:
    """Result of pushing one message through drop faults with retries."""

    delivered: bool
    attempts: int
    simulated_delay: float


def deliver_with_retry(
    policy: RetryPolicy,
    dropped: Callable[[int], bool],
    rng: np.random.Generator,
    budget: RetryBudget,
    extra_delay: float = 0.0,
) -> DeliveryOutcome:
    """Attempt a send until it survives the drop fault or bounds bite.

    ``dropped(attempt)`` is the (injected) loss decision for the given
    1-based attempt number.  Retries stop at ``policy.max_attempts`` or
    when the backoff no longer fits in ``budget`` — an explicitly
    bounded loop, never ``while True``.  ``extra_delay`` models an
    injected in-flight delay on the first attempt: it is always added to
    the outcome's ``simulated_delay`` and never blocks delivery, but it
    is charged to the budget only when it fits there (a delay the budget
    cannot hold is not charged at all).
    """
    delay = 0.0
    if extra_delay > 0:
        budget.charge(extra_delay)
        delay += extra_delay
    attempts = 0
    for attempt in range(1, policy.max_attempts + 1):
        attempts = attempt
        if not dropped(attempt):
            return DeliveryOutcome(
                delivered=True, attempts=attempts, simulated_delay=delay
            )
        if attempt == policy.max_attempts:
            break
        backoff = policy.backoff_delay(attempt, rng)
        if not budget.charge(backoff):
            break  # budget exhausted: give up early, degrade gracefully
        delay += backoff
    return DeliveryOutcome(delivered=False, attempts=attempts, simulated_delay=delay)


@dataclass(frozen=True, slots=True)
class BlockDelivery:
    """Result of pushing a batch of messages through drops with retries.

    ``delivered`` marks each message that got through; ``retries``
    counts the extra sends beyond each first attempt; ``delays`` holds
    the nonzero simulated delays (injected latency plus charged
    backoff), in message order.
    """

    delivered: np.ndarray
    retries: int
    delays: list[float]


def deliver_block(
    policy: RetryPolicy,
    faults: "FaultInjector",
    phase: str,
    n: int,
    rng: np.random.Generator,
    budget: RetryBudget,
    events: FiredEvents,
    subject: Callable[[int], str],
    before_backoff: Callable[[int], None] | None = None,
) -> BlockDelivery:
    """:func:`deliver_with_retry` for messages ``0..n-1``, in order.

    Decisions, stream use, budget charges and delays equal ``n``
    :func:`deliver_with_retry` calls, each given the message's
    ``faults.delay`` as its ``extra_delay`` and ``faults.drop`` as its
    loss decision (``subject(row)`` names the message).  The delay and
    drop streams are drawn in blocks (:mod:`repro.faults.blocks`): a
    send that goes through costs no Python step, and the walk stops
    only at the drops.  There the budget is first charged the delays of
    the messages up to the dropped one, then ``before_backoff(row)``
    runs (a caller that shares ``rng`` draws what precedes the jitter
    there), then the backoff is drawn and charged.  Fired delays and
    drops are queued on ``events``.
    """
    delivered = np.ones(n, dtype=bool)
    delay_rows, delay_lengths = faults.delays(phase, n, subject, events)
    # Simulated delay per message, keyed in message order.
    spent: dict[int, float] = {}
    charged = 0

    def charge_delays(through: int) -> None:
        nonlocal charged
        while charged < len(delay_rows) and delay_rows[charged] <= through:
            extra = delay_lengths[charged]
            if extra > 0:
                budget.charge(extra)
                spent[delay_rows[charged]] = extra
            charged += 1

    retries = 0
    p = faults.plan.drop
    cap = policy.max_attempts
    m = 0  # the message whose attempt the next draw decides
    owed = 0  # that attempt's number when it is a retry, else 0
    while p > 0 and m < n:
        # Message ``m`` and every later one take at least one draw.
        block = faults.drop_draws(n - m)
        size = len(block)
        hits = np.flatnonzero(block < p).tolist()
        h = 0
        pos = 0
        while pos < size:
            if owed:
                attempt = owed
                owed = 0
                pos += 1
                if block[pos - 1] >= p:
                    m += 1
                    continue
            else:
                while h < len(hits) and hits[h] < pos:
                    h += 1
                if h == len(hits):
                    m += size - pos
                    break
                m += hits[h] - pos
                pos = hits[h] + 1
                attempt = 1
            events.add(
                m, DROP, faults.record_drop, phase, f"{subject(m)}#{attempt}",
                sub=attempt,
            )
            if attempt == cap:
                delivered[m] = False
                m += 1
                continue
            charge_delays(m)
            if before_backoff is not None:
                before_backoff(m)
            backoff = policy.backoff_delay(attempt, rng)
            if not budget.charge(backoff):
                delivered[m] = False
                m += 1
                continue
            spent[m] = spent.get(m, 0.0) + backoff
            retries += 1
            owed = attempt + 1
    charge_delays(n - 1)
    return BlockDelivery(delivered, retries, list(spent.values()))
