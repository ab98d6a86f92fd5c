"""Node-capacity profiles (paper Section 5.1).

The paper uses a Gnutella-like profile derived from the Saroiu et al.
measurement study: capacities of 1, 10, 100, 1000 and 10000 with
probabilities 20%, 45%, 30%, 4.9% and 0.1%.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import GNUTELLA_CAPACITY_PROFILE
from repro.exceptions import WorkloadError
from repro.util.rng import ensure_rng


@dataclass(frozen=True)
class GnutellaCapacityProfile:
    """A discrete capacity distribution ``value -> probability``."""

    table: dict[float, float] = field(
        default_factory=lambda: dict(GNUTELLA_CAPACITY_PROFILE)
    )

    def __post_init__(self) -> None:
        if not self.table:
            raise WorkloadError("capacity profile must not be empty")
        total = sum(self.table.values())
        if abs(total - 1.0) > 1e-9:
            raise WorkloadError(f"capacity probabilities sum to {total}, expected 1")
        if any(v <= 0 for v in self.table.keys()):
            raise WorkloadError("capacities must be positive")
        if any(p < 0 for p in self.table.values()):
            raise WorkloadError("probabilities must be non-negative")

    @property
    def values(self) -> np.ndarray:
        return np.asarray(sorted(self.table.keys()), dtype=np.float64)

    @property
    def probabilities(self) -> np.ndarray:
        return np.asarray([self.table[v] for v in sorted(self.table)], dtype=np.float64)

    def sample(self, n: int, rng: int | None | np.random.Generator = None) -> np.ndarray:
        """Draw ``n`` capacities."""
        if n < 0:
            raise WorkloadError(f"cannot sample {n} capacities")
        gen = ensure_rng(rng)
        return gen.choice(self.values, size=n, p=self.probabilities)
