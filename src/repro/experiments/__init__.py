"""Experiment drivers: one module per paper figure/claim.

Each module exposes ``run(...)`` returning a typed result with a
``format_rows()`` text table.  ``registry`` maps experiment ids
(``fig4`` ... ``timing``) to their drivers, which ``repro-p2plb run
<id>`` runs.

The registry's names are loaded on first access: the registry imports
every driver module, so importing it here would put each driver in
``sys.modules`` before ``python -m repro.experiments.<driver>`` runs
it as ``__main__`` (runpy warns about exactly that).
"""

from __future__ import annotations

import importlib
from typing import Any

from repro.experiments.common import ExperimentSettings

#: Names re-exported from :mod:`repro.experiments.registry` on access.
_REGISTRY_EXPORTS = frozenset({"EXPERIMENTS", "get_experiment", "list_experiments"})

__all__ = [
    "ExperimentSettings",
    "EXPERIMENTS",
    "get_experiment",
    "list_experiments",
]


def __getattr__(name: str) -> Any:
    """Load a registry export the first time it is looked up."""
    if name in _REGISTRY_EXPORTS:
        registry = importlib.import_module("repro.experiments.registry")
        return getattr(registry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
