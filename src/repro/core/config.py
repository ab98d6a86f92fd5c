"""Configuration of the load balancer."""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import (
    DEFAULT_EPSILON,
    DEFAULT_NUM_LANDMARKS,
    DEFAULT_RENDEZVOUS_THRESHOLD,
    DEFAULT_TREE_DEGREE,
)
from repro.exceptions import ConfigError

#: Valid proximity modes.
MODES = ("aware", "ignorant")

#: Valid shed-subset selection policies.
POLICIES = ("exact", "greedy")


@dataclass(frozen=True, slots=True)
class BalancerConfig:
    """All tunables of the load balancer, with the paper's defaults.

    Attributes
    ----------
    epsilon:
        Slack in the target load ``T_i = (1+epsilon)(L/C)C_i``; 0 is the
        paper's ideal.
    tree_degree:
        Degree K of the aggregation tree (paper: 2, checked against 8).
    rendezvous_threshold:
        Combined list length at which a non-root KT node starts pairing
        (paper example: 30).
    proximity_mode:
        ``"aware"`` (Hilbert placement) or ``"ignorant"`` (random ring
        placement) — the paper's two compared systems.
    selection_policy:
        ``"exact"`` or ``"greedy"`` shed-subset selection.
    strict_heaviest_first:
        Literal stop-at-first-unmatchable pairing (see
        :mod:`repro.core.rendezvous`).
    grid_bits:
        Hilbert grid order (bits per landmark dimension).
    num_landmarks:
        Landmark count ``m`` (paper: 15).
    landmark_strategy:
        ``"spread"`` or ``"random"`` landmark selection.
    keep_at_least:
        Minimum number of virtual servers a heavy node retains.  The
        paper's scheme has no such floor (a very low-capacity node must
        be able to shed *all* of its virtual servers to get below its
        target), so the default is 0; set to 1 to model deployments
        where every node must keep a ring presence.
    """

    epsilon: float = DEFAULT_EPSILON
    tree_degree: int = DEFAULT_TREE_DEGREE
    rendezvous_threshold: int = DEFAULT_RENDEZVOUS_THRESHOLD
    proximity_mode: str = "aware"
    selection_policy: str = "exact"
    strict_heaviest_first: bool = False
    grid_bits: int = 2
    num_landmarks: int = DEFAULT_NUM_LANDMARKS
    landmark_strategy: str = "spread"
    keep_at_least: int = 0

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise ConfigError(f"epsilon must be >= 0, got {self.epsilon}")
        if not isinstance(self.tree_degree, int) or self.tree_degree < 2:
            raise ConfigError(f"tree_degree must be an int >= 2, got {self.tree_degree!r}")
        if self.rendezvous_threshold < 0:
            raise ConfigError("rendezvous_threshold must be >= 0")
        if self.proximity_mode not in MODES:
            raise ConfigError(
                f"proximity_mode must be one of {MODES}, got {self.proximity_mode!r}"
            )
        if self.selection_policy not in POLICIES:
            raise ConfigError(
                f"selection_policy must be one of {POLICIES}, got {self.selection_policy!r}"
            )
        if not isinstance(self.grid_bits, int) or self.grid_bits < 1:
            raise ConfigError(f"grid_bits must be an int >= 1, got {self.grid_bits!r}")
        if not isinstance(self.num_landmarks, int) or self.num_landmarks < 1:
            raise ConfigError(f"num_landmarks must be an int >= 1, got {self.num_landmarks!r}")
        if self.landmark_strategy not in ("spread", "random"):
            raise ConfigError(f"unknown landmark strategy {self.landmark_strategy!r}")
        if self.keep_at_least < 0:
            raise ConfigError("keep_at_least must be >= 0")
