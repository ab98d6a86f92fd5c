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
from typing import Callable

import numpy as np

from repro.exceptions import FaultPlanError


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
    injected in-flight delay on the first attempt; it is charged to the
    budget but never blocks delivery.
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
