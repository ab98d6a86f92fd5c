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


@dataclass(frozen=True, slots=True)
class ClassificationResult:
    """Classification of a whole node population."""

    classes: dict[int, NodeClass]  # node index -> class
    targets: dict[int, float]  # node index -> T_i

    @property
    def heavy(self) -> list[int]:
        return [i for i, c in self.classes.items() if c is NodeClass.HEAVY]

    @property
    def light(self) -> list[int]:
        return [i for i, c in self.classes.items() if c is NodeClass.LIGHT]

    @property
    def neutral(self) -> list[int]:
        return [i for i, c in self.classes.items() if c is NodeClass.NEUTRAL]

    def counts(self) -> dict[str, int]:
        return {
            "heavy": len(self.heavy),
            "light": len(self.light),
            "neutral": len(self.neutral),
        }


def classification_masks(
    capacities: np.ndarray,
    loads: np.ndarray,
    lbi: SystemLBI,
    epsilon: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised Section 3.3 rules over capacity/load columns.

    Returns ``(targets, heavy_mask, light_mask)``; neutral is the
    complement of the two masks.  Targets are evaluated before the
    epsilon guard fires, matching the historical scalar path (the
    product is cheap and the guard is a config error either way).
    """
    targets = (1.0 + epsilon) * lbi.load_per_capacity * capacities
    if epsilon < 0:
        raise ConfigError(f"epsilon must be non-negative, got {epsilon}")
    heavy_mask = loads > targets
    light_mask = (~heavy_mask) & ((targets - loads) >= lbi.min_vs_load)
    return targets, heavy_mask, light_mask


def classify_arrays(
    indices: np.ndarray,
    capacities: np.ndarray,
    loads: np.ndarray,
    lbi: SystemLBI,
    epsilon: float = 0.0,
    tracer: Tracer | None = None,
    stage: str = "",
    masks: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> ClassificationResult:
    """Classify a population given as struct-of-arrays columns.

    ``indices`` carries ``node.index`` per row; rows must already be in
    alive order so the result dicts iterate identically to the
    object-walking path.  A caller that already holds the
    :func:`classification_masks` of these columns passes them as
    ``masks`` instead of having them evaluated again.
    """
    targets, heavy_mask, light_mask = (
        classification_masks(capacities, loads, lbi, epsilon)
        if masks is None
        else masks
    )
    classes: dict[int, NodeClass] = {}
    target_map: dict[int, float] = {}
    for index, is_heavy, is_light, target in zip(
        indices.tolist(), heavy_mask.tolist(), light_mask.tolist(), targets.tolist()
    ):
        if is_heavy:
            cls = NodeClass.HEAVY
        elif is_light:
            cls = NodeClass.LIGHT
        else:
            cls = NodeClass.NEUTRAL
        classes[index] = cls
        target_map[index] = target
    result = ClassificationResult(classes=classes, targets=target_map)
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
