"""Command-line interface: ``repro-p2plb`` (or ``python -m repro.cli``).

Examples::

    repro-p2plb list
    repro-p2plb run fig4 --nodes 1024 --seed 7
    repro-p2plb run fig7 --scale paper
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

from repro.experiments.common import ExperimentSettings
from repro.experiments.registry import get_experiment, list_experiments


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-p2plb",
        description=(
            "Reproduction of 'Towards Efficient Load Balancing in "
            "Structured P2P Systems' (Zhu & Hu, 2004)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one experiment and print its table")
    run.add_argument("experiment", help="experiment id (see 'list')")
    run.add_argument("--nodes", type=int, default=None, help="number of DHT nodes")
    run.add_argument("--vs", type=int, default=None, help="virtual servers per node")
    run.add_argument("--seed", type=int, default=None, help="scenario seed")
    run.add_argument("--epsilon", type=float, default=None, help="target-load slack")
    run.add_argument("--tree-degree", type=int, default=None, help="K-nary tree degree")
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for seed sweeps (variance/chaos); "
        "results are identical to serial runs, only faster",
    )
    run.add_argument(
        "--scale",
        choices=["quick", "paper"],
        default="quick",
        help="preset scale (paper = 4096 nodes)",
    )
    run.add_argument(
        "--export",
        metavar="DIR",
        default=None,
        help="write the experiment's figure data as CSV/JSON into DIR",
    )
    run.add_argument(
        "--plot",
        action="store_true",
        help="render the figure as ASCII art in the terminal",
    )
    run.add_argument(
        "--fault-drop",
        type=float,
        action="append",
        default=None,
        metavar="P",
        help="chaos only: message-drop probability to sweep (repeatable)",
    )
    run.add_argument(
        "--fault-crash",
        type=int,
        default=None,
        metavar="N",
        help="chaos only: mid-round node crashes injected per round",
    )
    run.add_argument(
        "--fault-abort",
        type=float,
        default=None,
        metavar="P",
        help="chaos only: per-transfer abort probability",
    )
    run.add_argument(
        "--fault-seed",
        type=int,
        default=None,
        metavar="SEED",
        help="chaos/partition: fault-injector seed (default: scenario seed)",
    )
    run.add_argument(
        "--partition-components",
        type=int,
        action="append",
        default=None,
        metavar="N",
        help="partition only: component count to sweep (repeatable)",
    )
    run.add_argument(
        "--partition-duration",
        type=int,
        default=None,
        metavar="ROUNDS",
        help="partition only: rounds the partition stays active",
    )
    run.add_argument(
        "--fault-corrupt",
        type=float,
        default=None,
        metavar="P",
        help="partition only: per-report LBI corruption probability "
        "(exercises the aggregate sanity defense)",
    )
    run.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a structured JSONL trace of every balancing round to FILE",
    )
    run.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write the accumulated metrics snapshot to FILE as JSON",
    )

    report = sub.add_parser(
        "report", help="run every experiment and write one markdown report"
    )
    report.add_argument(
        "-o", "--output", default="REPORT.md", help="output markdown path"
    )
    report.add_argument(
        "--scale", choices=["quick", "paper"], default="quick",
        help="preset scale (paper = 4096 nodes)",
    )
    report.add_argument(
        "--only", nargs="*", default=None,
        help="restrict to these experiment ids",
    )
    return parser


def _plot_result(experiment: str, result) -> str | None:
    """Render a text plot for experiments that have a natural one."""
    import numpy as np

    from repro.analysis.text_plots import ascii_cdf, ascii_histogram, side_by_side

    data = getattr(result, "data", None)
    if data is None:
        return None
    if experiment == "fig4":
        bins = np.percentile(data.unit_before, [0, 25, 50, 75, 90, 99, 100])
        labels = ["min", "p25", "median", "p75", "p90", "p99", "max"]
        before = ascii_histogram(labels, bins, width=30)
        bins_after = np.percentile(data.unit_after, [0, 25, 50, 75, 90, 99, 100])
        after = ascii_histogram(labels, bins_after, width=30)
        return (
            "unit load percentiles before | after balancing\n"
            + side_by_side(before, after)
        )
    if experiment in ("fig7", "fig8"):
        aware = ascii_cdf(*data.aware_cdf, width=34, height=10)
        ignorant = ascii_cdf(*data.ignorant_cdf, width=34, height=10)
        return (
            "moved-load CDF over distance: aware (left) vs ignorant (right)\n"
            + side_by_side(aware, ignorant)
        )
    return None


def _export_result(experiment: str, result, directory: str) -> list[str]:
    """Write the figure data files an experiment result supports."""
    from pathlib import Path

    from repro.analysis import export as ex

    out_dir = Path(directory)
    written: list[str] = []
    data = getattr(result, "data", None)
    if experiment == "fig4" and data is not None:
        written.append(str(ex.export_figure4_csv(data, out_dir / "fig4.csv")))
    elif experiment in ("fig5", "fig6") and data is not None:
        written.append(
            str(ex.export_figure56_csv(data, out_dir / f"{experiment}.csv"))
        )
    elif experiment in ("fig7", "fig8") and data is not None:
        written.append(
            str(ex.export_figure78_csv(data, out_dir / f"{experiment}.csv"))
        )
        written.append(
            str(ex.export_figure78_json(data, out_dir / f"{experiment}.json"))
        )
    return written


def _run_observed(runner, settings, trace_path: str | None, metrics_path: str | None):
    """Run ``runner(settings)``, optionally under process-wide observability.

    ``--trace FILE`` installs a JSONL tracer and ``--metrics-out FILE`` a
    metrics registry for the duration of the run; every balancer the
    experiment constructs picks them up via :mod:`repro.obs.runtime`.
    """
    if trace_path is None and metrics_path is None:
        return runner(settings)

    from pathlib import Path

    from repro.obs import NULL_TRACER, MetricsRegistry, Tracer, observe

    tracer = Tracer.to_file(trace_path) if trace_path else None
    metrics = MetricsRegistry() if metrics_path else None
    if metrics_path:
        # Fail fast on an unwritable path instead of after the whole run.
        Path(metrics_path).touch()
    try:
        # NULL_TRACER keeps tracing off when only --metrics-out was given.
        with observe(tracer=tracer if tracer is not None else NULL_TRACER,
                     metrics=metrics):
            result = runner(settings)
    finally:
        if tracer is not None:
            tracer.close()
            print(f"[wrote {trace_path} ({tracer.sink.lines_written} records)]")
        if metrics is not None and metrics_path:
            metrics.write_json(metrics_path)
            print(f"[wrote {metrics_path}]")
    return result


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name, desc in list_experiments():
            print(f"{name:12} {desc}")
        return 0

    if args.command == "report":
        from pathlib import Path

        from repro.experiments.report_all import run_all

        settings = (
            ExperimentSettings.paper()
            if args.scale == "paper"
            else ExperimentSettings.quick()
        )
        full = run_all(settings, include=args.only)
        out = Path(args.output)
        out.write_text(full.to_markdown())
        print(f"wrote {out} ({len(full.sections)} experiments, "
              f"{full.total_seconds:.1f}s)")
        return 0

    settings = (
        ExperimentSettings.paper()
        if args.scale == "paper"
        else ExperimentSettings.quick()
    )
    overrides = {}
    if args.nodes is not None:
        overrides["num_nodes"] = args.nodes
    if args.vs is not None:
        overrides["vs_per_node"] = args.vs
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.epsilon is not None:
        overrides["epsilon"] = args.epsilon
    if args.tree_degree is not None:
        overrides["tree_degree"] = args.tree_degree
    if args.workers is not None:
        overrides["workers"] = args.workers
    if overrides:
        settings = replace(settings, **overrides)

    runner = get_experiment(args.experiment)

    fault_kwargs = {}
    if args.fault_drop is not None:
        fault_kwargs["drop_rates"] = tuple(args.fault_drop)
    if args.fault_crash is not None:
        fault_kwargs["crash_mid_round"] = args.fault_crash
    if args.fault_abort is not None:
        fault_kwargs["transfer_abort"] = args.fault_abort
    if args.fault_seed is not None:
        fault_kwargs["fault_seed"] = args.fault_seed
    if args.partition_components is not None:
        fault_kwargs["component_counts"] = tuple(args.partition_components)
    if args.partition_duration is not None:
        fault_kwargs["duration"] = args.partition_duration
    if args.fault_corrupt is not None:
        fault_kwargs["corrupt"] = args.fault_corrupt
    if fault_kwargs:
        import functools
        import inspect

        params = inspect.signature(runner).parameters
        unsupported = sorted(k for k in fault_kwargs if k not in params)
        if unsupported:
            print(
                f"error: {args.experiment} does not accept fault knobs "
                f"({', '.join(unsupported)}); --fault-*/--partition-* "
                "flags apply to the 'chaos' and 'partition' experiments",
                file=sys.stderr,
            )
            return 2
        runner = functools.partial(runner, **fault_kwargs)

    start = time.perf_counter()
    result = _run_observed(runner, settings, args.trace, args.metrics_out)
    elapsed = time.perf_counter() - start
    print(result.format_rows())
    if args.plot:
        rendered = _plot_result(args.experiment, result)
        if rendered:
            print()
            print(rendered)
    if args.export:
        for path in _export_result(args.experiment, result, args.export):
            print(f"[wrote {path}]")
    print(f"[{args.experiment} completed in {elapsed:.1f}s]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
