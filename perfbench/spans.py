"""In-memory span recorder that wraps each layer's public functions.

The benchmark changes nothing in the program: it replaces the public
functions and methods of each layer, at every module that binds them,
with thin wrappers that record a span (name, start, end, parent) and
restores the originals afterwards.  A function imported by name into
several modules (``execute_transfers`` lives in ``repro.core.vst`` and is
bound again in ``repro.core.balancer`` and ``repro.core.incremental``) is
patched at each binding, so every call site is seen.

Spans are kept in memory.  A span's self time is its duration minus the
durations of its direct children, so nested layers (VST calling the
distance oracle calling Dijkstra) are not counted twice.  Garbage
collector pauses are recorded as ``gc.pause`` child spans (through
``gc.callbacks``), so they are charged to the collector, not to the
layer whose allocation happened to trigger them.
"""

from __future__ import annotations

import gc
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

#: (span name, owner path, attribute, optional work counter).  The owner
#: is ``module`` for a function (patched at every module that binds it)
#: or ``module:Class`` for a method (patched on the class).  A counter
#: maps the call's arguments to a work count summed under ``<name>.work``.
TARGETS: tuple[tuple[str, str, str, Callable[..., int] | None], ...] = (
    ("ktree.build", "repro.ktree.tree:KnaryTree", "__init__", None),
    ("ktree.refresh_dirty", "repro.ktree.tree:KnaryTree", "refresh_dirty", None),
    (
        "ktree.descend_batch",
        "repro.ktree.tree:KnaryTree",
        "descend_batch",
        lambda args, kwargs: len(args[1] if len(args) > 1 else kwargs["keys"]),
    ),
    ("ktree.ensure_leaf", "repro.ktree.tree:KnaryTree", "ensure_leaf_for_key", None),
    ("ktree.resolve_leaves", "repro.ktree.index:TreeIndex", "resolve_leaves", None),
    ("dht.centers_of", "repro.dht.chord:ChordRing", "centers_of", None),
    ("dht.hosts_with_regions", "repro.dht.chord:ChordRing", "hosts_with_regions", None),
    ("dht.churn", "repro.dht.churn", "join_node", None),
    ("dht.churn", "repro.dht.churn", "leave_node", None),
    ("workloads.drift", "repro.workloads.drift", "apply_load_drift", None),
    ("core.soa.snapshot", "repro.core.soa:NodeStateArrays", "snapshot", None),
    ("core.lbi.collect", "repro.core.lbi", "collect_lbi_reports", None),
    ("core.lbi.aggregate", "repro.core.lbi", "aggregate_lbi", None),
    ("core.classification.classify", "repro.core.classification", "classify_all", None),
    ("core.classification.classify", "repro.core.classification", "classify_arrays", None),
    ("core.selection.select", "repro.core.selection", "select_shed_subset", None),
    ("core.rendezvous.pair", "repro.core.rendezvous", "pair_rendezvous", None),
    ("core.vst.execute", "repro.core.vst", "execute_transfers", None),
    ("topology.distances_between", "repro.topology.routing:DistanceOracle", "distances_between", None),
    ("topology.dijkstra", "repro.topology.routing", "dijkstra", None),
    ("proximity.landmark_vectors", "repro.topology.landmarks", "landmark_vectors", None),
    ("proximity.keys_for", "repro.core.placement:ProximityPlacement", "keys_for", None),
    ("proximity.keys_for", "repro.core.placement:ProximityPlacement", "key_for", None),
    ("membership.begin_round", "repro.membership.manager:MembershipManager", "begin_round", None),
    ("membership.heal", "repro.membership.manager:MembershipManager", "heal", None),
    ("adversary.begin_round", "repro.adversary.engine:AdversaryEngine", "begin_round", None),
    ("adversary.begin_round", "repro.adversary.trust:TrustedAggregation", "begin_round", None),
    ("adversary.witness_check", "repro.adversary.trust:TrustedAggregation", "witness_check", None),
    ("adversary.admit", "repro.adversary.trust:TrustedAggregation", "admit", None),
    ("recovery.journal_record", "repro.recovery.journal:TransferJournal", "record", None),
)


@dataclass
class Span:
    """One recorded call: ``parent`` is the index of the enclosing span."""

    name: str
    start: float
    end: float
    parent: int
    self_s: float
    work: int = 0


class SpanRecorder:
    """Records nested spans around patched callables, in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._children: list[float] = []
        self._patches: list[tuple[Any, str, Any, Any]] = []
        self._gc_span = -1

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, 0.0))
        self._stack.append(index)
        self._children.append(0.0)
        return index

    def close(self, index: int, work: int = 0) -> None:
        end = time.perf_counter()
        span = self.spans[index]
        self._stack.pop()
        children = self._children.pop()
        span.end = end
        duration = end - span.start
        span.self_s = duration - children
        span.work = work
        if self._children:
            self._children[-1] += duration

    def wrap(
        self, name: str, fn: Callable[..., Any], counter: Callable[..., int] | None
    ) -> Callable[..., Any]:
        recorder = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = recorder.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(
                    index, counter(args, kwargs) if counter is not None else 0
                )

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def prepare(self, extra_modules: tuple[str, ...] = ()) -> None:
        """Resolve every binding site of every target once.

        Functions are found by identity in every loaded ``repro`` module
        and in ``extra_modules`` (the benchmark's own workload module
        binds ``join_node``/``leave_node``/``apply_load_drift``).
        """
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None
            and (name == "repro" or name.startswith("repro.") or name in extra_modules)
        ]
        for name, owner_path, attr, counter in TARGETS:
            module_name, _, cls_name = owner_path.partition(":")
            module = importlib.import_module(module_name)
            if cls_name:
                owner = getattr(module, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__, counter))
                else:
                    wrapped = self.wrap(name, raw, counter)
                self._patches.append((owner, attr, raw, wrapped))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original, wrapped))

    def _on_gc(self, phase: str, info: dict[str, Any]) -> None:
        if phase == "start":
            self._gc_span = self.open("gc.pause")
        elif self._gc_span >= 0:
            self.close(self._gc_span)
            self._gc_span = -1

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def totals(self, first: int, last: int | None = None) -> dict[str, float]:
        """Per-name self seconds (``<name>_s``), call counts and work counts."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans[first:last]:
            out[f"{span.name}_s"] += span.self_s
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.work"] += span.work
        return dict(out)

    def dump(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "parent": s.parent,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "self_s": s.self_s,
                            "work": s.work,
                        }
                    )
                    + "\n"
                )
