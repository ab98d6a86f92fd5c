"""``compare A B``: per-workload deltas between two sets of saved records.

``A`` and ``B`` are JSON-lines files written with ``run.py --out``.
Records are grouped by workload.  For every end-to-end metric the table
shows each side's median, its spread (distance between the first and
third quartile as a share of the median) and the change from A to B,
marked ``WORSE`` when it exceeds the metric's bound in the worse
direction, ``unresolved`` when a side's own spread is wider than the
bound.  Traced records add per-layer self-time deltas.  The
deterministic section (digest chain, balance metrics) of records with
the same workload and seed must agree; a mismatch is reported and makes
the exit code 1 (the two sides computed different rounds).
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Any


def load(path: str) -> dict[str, list[dict[str, Any]]]:
    by_workload: dict[str, list[dict[str, Any]]] = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            by_workload[record["workload"]].append(record)
    return by_workload


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def _values(records: list[dict[str, Any]], section: str, name: str) -> list[float]:
    return [r[section][name] for r in records if name in r.get(section, {})]


def _deterministic(records: list[dict[str, Any]]) -> dict[int, set[str]]:
    """Distinct deterministic sections per seed (one expected)."""
    seen: dict[int, set[str]] = defaultdict(set)
    for r in records:
        if "deterministic" in r:
            seen[r["seed"]].add(json.dumps(r["deterministic"], sort_keys=True))
    return seen


def main(argv: list[str], spec: dict[str, Any]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.jsonl B.jsonl")
        return 2
    a, b = load(argv[0]), load(argv[1])
    regressions = 0
    for workload in sorted(set(a) | set(b)):
        ra, rb = a.get(workload, []), b.get(workload, [])
        print(f"== {workload}: A {len(ra)} runs, B {len(rb)} runs")
        print(
            f"  {'metric':<22}{'A median':>14}{'A spread':>10}"
            f"{'B median':>14}{'B spread':>10}{'delta':>9}{'bound':>7}  verdict"
        )
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va = _values(ra, "end_to_end", name)
            vb = _values(rb, "end_to_end", name)
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            sa, sb = spread(va), spread(vb)
            delta = mb / ma - 1.0 if ma else 0.0
            worse = delta if metric["better"] == "lower" else -delta
            if worse > bound:
                verdict = "WORSE"
                regressions += 1
            elif max(sa, sb) > bound:
                verdict = "unresolved"
            elif worse < -bound:
                verdict = "better"
            else:
                verdict = "same"
            print(
                f"  {name:<22}{ma:>14.6g}{sa:>10.1%}{mb:>14.6g}{sb:>10.1%}"
                f"{delta:>+9.1%}{bound:>7.0%}  {verdict}"
            )
        for seed, variants in sorted(_deterministic(ra + rb).items()):
            if len(variants) > 1:
                regressions += 1
                print(f"  seed {seed}: deterministic results differ between runs")
        layer_names = [
            m["name"]
            for m in spec["per_layer"]
            if m["unit"] == "s" or m["name"] == "trace.overhead_pct"
        ]
        traced_a = [r for r in ra if "per_layer" in r]
        traced_b = [r for r in rb if "per_layer" in r]
        if traced_a and traced_b:
            print(f"  {'per-layer self time':<34}{'A':>12}{'B':>12}{'delta':>9}")
            for name in layer_names:
                la = statistics.median(_values(traced_a, "per_layer", name))
                lb = statistics.median(_values(traced_b, "per_layer", name))
                if la == 0.0 and lb == 0.0:
                    continue
                delta = f"{lb / la - 1.0:>+9.1%}" if la else f"{'new':>9}"
                print(f"  {name:<34}{la:>12.6f}{lb:>12.6f}{delta}")
    return 1 if regressions else 0
