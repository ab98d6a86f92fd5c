"""Phase 2: node classification against capacity-proportional targets.

With the disseminated ``<L, C, L_min>`` every node computes its target
load ``T_i = (1 + epsilon) * (L / C) * C_i`` — load proportional to
capacity, relaxed by the slack parameter epsilon — and classifies itself:

* **heavy** if ``L_i > T_i``;
* **light** if ``T_i - L_i >= L_min`` (it can absorb at least the
  smallest virtual server in the system);
* **neutral** otherwise (``0 <= T_i - L_i < L_min``).

Note on the paper's formula: the printed equation ``L_i = (1/e + e)C_i``
is a typo; the consistent reading used throughout the text (and in the
follow-up work of the same authors) is the capacity-proportional target
above, which is what this module implements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.records import NodeClass, SystemLBI
from repro.dht.node import PhysicalNode
from repro.exceptions import ConfigError
from repro.obs.trace import Tracer


def target_load(capacity: float, lbi: SystemLBI, epsilon: float = 0.0) -> float:
    """Target load ``T_i`` for a node of ``capacity`` under ``lbi``."""
    if epsilon < 0:
        raise ConfigError(f"epsilon must be non-negative, got {epsilon}")
    return (1.0 + epsilon) * lbi.load_per_capacity * capacity


def classify_node(node: PhysicalNode, lbi: SystemLBI, epsilon: float = 0.0) -> NodeClass:
    """Classify a single node (Section 3.3 rules)."""
    t = target_load(node.capacity, lbi, epsilon)
    load = node.load
    if load > t:
        return NodeClass.HEAVY
    if (t - load) >= lbi.min_vs_load:
        return NodeClass.LIGHT
    return NodeClass.NEUTRAL


#: Row class per code: ``0`` heavy, ``1`` light, ``2`` neutral.
_CLASSES = np.asarray(
    [NodeClass.HEAVY, NodeClass.LIGHT, NodeClass.NEUTRAL], dtype=object
)


@dataclass(frozen=True, eq=False)
class ClassificationResult:
    """Classification of a node population, one row per classified node.

    The result is four row columns: ``indices`` (``node.index``),
    ``row_targets`` (``T_i``) and the ``heavy_rows``/``light_rows``
    masks; a row in neither mask is neutral.  Rows are *not* node
    indices: after churn row ``r`` and node index ``r`` differ.  The
    index-keyed :attr:`classes` and :attr:`targets` mappings serve
    callers outside the round and are built on first read.
    """

    indices: np.ndarray
    row_targets: np.ndarray
    heavy_rows: np.ndarray
    light_rows: np.ndarray

    @classmethod
    def merge(
        cls,
        parts: list[ClassificationResult],
        idle_indices: np.ndarray,
        idle_loads: np.ndarray,
    ) -> ClassificationResult:
        """The parts' rows one after another, then the idle rows.

        An idle node had no admissible aggregate to classify against: it
        sits the round out neutral, its target its own load.
        """
        none = np.zeros(len(idle_indices), dtype=bool)
        return cls(
            np.concatenate([*(p.indices for p in parts), idle_indices]),
            np.concatenate([*(p.row_targets for p in parts), idle_loads]),
            np.concatenate([*(p.heavy_rows for p in parts), none]),
            np.concatenate([*(p.light_rows for p in parts), none]),
        )

    @property
    def neutral_rows(self) -> np.ndarray:
        return ~(self.heavy_rows | self.light_rows)

    @property
    def heavy(self) -> list[int]:
        return self.indices[self.heavy_rows].tolist()

    @property
    def light(self) -> list[int]:
        return self.indices[self.light_rows].tolist()

    @property
    def neutral(self) -> list[int]:
        return self.indices[self.neutral_rows].tolist()

    def counts(self) -> dict[str, int]:
        heavy = int(np.count_nonzero(self.heavy_rows))
        light = int(np.count_nonzero(self.light_rows))
        neutral = len(self.indices) - heavy - light
        return {"heavy": heavy, "light": light, "neutral": neutral}

    def row_classes(self) -> list[NodeClass]:
        """Each row's class, in row order."""
        codes = np.where(self.heavy_rows, 0, np.where(self.light_rows, 1, 2))
        return _CLASSES[codes].tolist()

    @cached_property
    def classes(self) -> dict[int, NodeClass]:
        """Node index -> class."""
        return dict(zip(self.indices.tolist(), self.row_classes()))

    @cached_property
    def targets(self) -> dict[int, float]:
        """Node index -> ``T_i``."""
        return dict(zip(self.indices.tolist(), self.row_targets.tolist()))


def classify_arrays(
    indices: np.ndarray,
    capacities: np.ndarray,
    loads: np.ndarray,
    lbi: SystemLBI,
    epsilon: float = 0.0,
    tracer: Tracer | None = None,
    stage: str = "",
) -> ClassificationResult:
    """Section 3.3 rules over struct-of-arrays columns, one row per node.

    ``indices`` carries ``node.index`` per row.  Targets are evaluated
    before the epsilon guard fires (the product is cheap and the guard
    is a config error either way).  With an enabled ``tracer``, emits
    one ``classification.counts`` event labelled ``stage``.
    """
    targets = (1.0 + epsilon) * lbi.load_per_capacity * capacities
    if epsilon < 0:
        raise ConfigError(f"epsilon must be non-negative, got {epsilon}")
    heavy = loads > targets
    light = ~heavy & ((targets - loads) >= lbi.min_vs_load)
    result = ClassificationResult(indices, targets, heavy, light)
    if tracer is not None and tracer.enabled:
        tracer.event(
            "classification.counts",
            stage=stage,
            epsilon=epsilon,
            **result.counts(),
        )
    return result


def classify_all(
    nodes: list[PhysicalNode],
    lbi: SystemLBI,
    epsilon: float = 0.0,
    tracer: Tracer | None = None,
    stage: str = "",
) -> ClassificationResult:
    """Classify every alive node; vectorised over the population.

    With an enabled ``tracer``, emits one ``classification.counts``
    event carrying the heavy/light/neutral totals; ``stage`` labels the
    event (the balancer classifies twice per round, "before"/"after").
    """
    alive = [n for n in nodes if n.alive]
    indices = np.asarray([n.index for n in alive], dtype=np.int64)
    caps = np.asarray([n.capacity for n in alive], dtype=np.float64)
    loads = np.asarray([n.load for n in alive], dtype=np.float64)
    return classify_arrays(
        indices, caps, loads, lbi, epsilon, tracer=tracer, stage=stage
    )
