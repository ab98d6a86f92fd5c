"""Tests for the jittered backoff of :class:`RetryPolicy`.

The delay must stay byte-identical to the partial-jitter formula
(digest compatibility: backoff delays feed ``fault_stats``), consume
exactly one RNG draw per backoff (none without jitter) so fault
schedules stay aligned, and :func:`deliver_with_retry` must charge
exactly the delays it slept.
"""

import pytest

from repro.faults import RetryPolicy
from repro.faults.retry import RetryBudget, deliver_with_retry
from repro.util.rng import ensure_rng


class TestJitterModes:
    def test_scaled_matches_legacy_formula(self):
        policy = RetryPolicy(base_delay=0.25, max_delay=4.0, jitter=0.3)
        rng_a, rng_b = ensure_rng(7), ensure_rng(7)
        for attempt in range(1, 8):
            raw = min(0.25 * 2.0 ** (attempt - 1), 4.0)
            legacy = raw * (1.0 - 0.3 + 0.3 * float(rng_b.random()))
            assert policy.backoff_delay(attempt, rng_a) == legacy

    def test_zero_jitter_is_deterministic_in_every_mode(self):
        policy = RetryPolicy(base_delay=0.5, max_delay=8.0, jitter=0.0)
        rng = ensure_rng(1)
        state = rng.bit_generator.state
        assert policy.backoff_delay(3, rng) == 2.0
        assert rng.bit_generator.state == state  # no draw consumed

    def test_one_draw_per_backoff_in_every_mode(self):
        policy = RetryPolicy(base_delay=0.5, max_delay=8.0, jitter=0.4)
        rng = ensure_rng(11)
        shadow = ensure_rng(11)
        policy.backoff_delay(2, rng)
        shadow.random()
        assert rng.bit_generator.state == shadow.bit_generator.state


class TestDeliveryFeedback:
    def test_delivery_charges_jittered_delays(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.5, max_delay=8.0, jitter=0.4
        )
        rng = ensure_rng(13)
        shadow = ensure_rng(13)
        budget = RetryBudget(100.0)
        outcome = deliver_with_retry(
            policy, lambda attempt: attempt < 3, rng, budget
        )
        assert outcome.delivered
        assert outcome.attempts == 3
        # Recompute the two backoffs by hand: the charged delay must
        # match what the loop actually slept.
        first = policy.backoff_delay(1, shadow)
        second = policy.backoff_delay(2, shadow)
        assert outcome.simulated_delay == pytest.approx(first + second)
        assert budget.spent == pytest.approx(first + second)
