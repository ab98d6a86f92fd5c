"""Experiment drivers: one module per paper figure/claim.

Each module exposes ``run(...)`` returning a typed result with a
``format_rows()`` text table.  ``registry`` maps experiment ids
(``fig4`` ... ``timing``) to their drivers, which ``repro-p2plb run
<id>`` runs.
"""

from repro.experiments.common import ExperimentSettings
from repro.experiments.registry import EXPERIMENTS, get_experiment, list_experiments

__all__ = [
    "ExperimentSettings",
    "EXPERIMENTS",
    "get_experiment",
    "list_experiments",
]
