"""Benchmark entry point: one workload per process, or a comparison.

Run one workload (from the repository root)::

    python3 perfbench/run.py --workload churn-steady --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  The line before it is the full result record (samples,
environment, deterministic metrics, digest chain).  ``--out FILE``
appends that record to a JSON-lines file.  A traced run writes every
span to ``.perfbench_out/spans-<workload>-<seed>.jsonl``.

Compare two sets of saved records::

    python3 perfbench/run.py compare base.jsonl change.jsonl

See ``perfbench/README.md`` for the workloads and the layer map.
"""

from __future__ import annotations

import os

# Pin native thread pools before NumPy/SciPy load: one thread per run.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec(root: Path) -> dict:
    """The benchmark definition (``BENCHMARK.json`` at the root)."""
    return json.loads((root / "BENCHMARK.json").read_text())


def run_one(args: argparse.Namespace) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {src}", file=sys.stderr)
        return 2
    spec = load_spec(ROOT)
    sys.path.insert(0, str(src))
    from bench import Runner  # noqa: E402  (needs the program on sys.path)
    from scenarios import WORKLOADS  # noqa: E402

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runner = Runner(
        WORKLOADS[args.workload],
        seed=args.seed,
        seconds=float(args.seconds),
        trace=bool(args.trace),
        root=ROOT,
        flat_tolerance=bounds["round_cost_p50"],
    )
    record = runner.run()
    if args.trace:
        spans = ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        runner.recorder.dump(spans)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = record.get("per_layer" if args.trace else "end_to_end", {})
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if record["correct"] and missing:
        raise SystemExit(f"benchmark bug: metrics not computed: {missing}")
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        for m in wanted
    }
    record["metrics"] = metrics
    line = json.dumps(record)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
    print(line)
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        from compare import main as compare_main

        return compare_main(argv[1:], load_spec(ROOT))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSONL file")
    return run_one(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
