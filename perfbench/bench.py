"""Runs one workload in this process and returns its result record.

The run has four stages, in order:

1. **Set-up**, repeated ``workload.setups`` times: build the scenario and
   the engine and run the cold round 0.  ``setup_s`` is the median over
   the repeats that started and ended on a quiet CPU (over all repeats
   if none did); every repeat must produce the same round-0 digest.
2. **Warm-up**: ``workload.warmup`` steps + rounds that are still filling
   caches.  They are checked but not timed.
3. **Timed window**: at least ``workload.timed`` steps + rounds and at
   least ``seconds`` of wall time, one caller in a closed loop (the next
   step starts when the round returns).  Each step + round starts from a
   full ``gc.collect()`` outside the timer: GC stays enabled, so the
   young-generation collections a round's own allocations trigger are
   timed, but a whole-heap collection no longer lands in a random round
   (it would otherwise fall in one round out of two to five and decide
   p75).  The whole-heap collection is timed separately as the per-layer
   ``gc.collect_s``.  After the collection :class:`envinfo.QuietCpu`
   pins the process to a CPU running at full speed (waiting briefly if
   none is) and times its probe kernel on that CPU before the step and
   after the round.  A round's *cost* is its wall time divided by the
   slower of those two probe times, so a neighbour slowing the CPU down
   moves both alike; the timing metrics are costs, and the wall times
   stay in the record.
   The deterministic metrics and the digest chain cover the first
   ``workload.timed`` rounds, so they do not depend on machine speed.
4. **Cross-check**: a fresh scenario replayed through the serial
   :class:`~repro.core.LoadBalancer` for ``workload.crosscheck`` rounds;
   its digests must equal the first digests of the timed engine.

Every round passes :func:`~repro.core.check_conservation`.  A round that
raises or fails a check counts as failed and ends the run.

With ``trace`` on, every other timed round runs with the layer wrappers
of :mod:`spans` installed; per-layer numbers are means over the traced
rounds and ``trace.overhead_pct`` compares the traced and untraced
round-cost medians of the same window.
"""

from __future__ import annotations

import gc
import hashlib
import shutil
import statistics
import time
import traceback
from pathlib import Path
from typing import Any

from envinfo import QuietCpu, calibrate, environment, peak_rss_mb
from scenarios import Instance, Workload
from spans import SpanRecorder

from repro.core import LoadBalancer, check_conservation


class RunFailed(Exception):
    """A round raised or failed a check; the run cannot continue."""


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p75(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=4)[2]


class Runner:
    """State of one benchmark run (counts, digests, samples)."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        seconds: float,
        trace: bool,
        root: Path,
        flat_tolerance: float,
    ) -> None:
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.root = root
        self.flat_tolerance = flat_tolerance
        self.state_dir = root / ".perfbench_state" / f"{workload.name}-{seed}"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: list[str] = []
        self.recorder = SpanRecorder()
        self.cpu = QuietCpu()

    # ------------------------------------------------------------------
    def failure(self, message: str) -> RunFailed:
        """Count a failed round and return the exception that ends the run."""
        self.failed += 1
        self.errors.append(message)
        return RunFailed(message)

    def round(self, balancer: LoadBalancer) -> tuple[Any, float]:
        """One checked round; returns ``(report, wall seconds)``."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            report = balancer.run_round()
        except Exception as exc:  # boundary: a raising round is a counted failure
            raise self.failure(traceback.format_exc()) from exc
        elapsed = time.perf_counter() - t0
        try:
            check_conservation(report)
        except Exception as exc:  # boundary: the conservation check failed
            raise self.failure(traceback.format_exc()) from exc
        return report, elapsed

    # ------------------------------------------------------------------
    def setup(self) -> tuple[Instance, list[float], list[bool]]:
        """Build + cold round ``setups`` times; keep the last instance.

        Returns the instance, the set-up times and which of them started
        and ended on a quiet CPU.
        """
        samples: list[float] = []
        quiet: list[bool] = []
        instance: Instance | None = None
        first_digest: str | None = None
        for i in range(self.w.setups):
            if instance is not None:
                instance.close()
                instance = None
            gc.collect()
            settled = self.cpu.settle()
            t0 = time.perf_counter()
            instance = self.w.build(self.seed, self.state_dir, tag=f"setup{i}")
            report, _ = self.round(instance.balancer)
            samples.append(time.perf_counter() - t0)
            quiet.append(self.cpu.quiet(self.cpu.probe()) and settled)
            digest = report.canonical_digest()
            if first_digest is None:
                first_digest = digest
            elif digest != first_digest:
                raise self.failure(
                    f"set-up {i}: round-0 digest differs from set-up 0"
                )
        assert instance is not None and first_digest is not None
        self.digests.append(first_digest)
        return instance, samples, quiet

    def crosscheck(self, instance: Instance) -> int:
        """Replay the first rounds through the serial engine; returns count."""
        rounds = min(self.w.crosscheck, len(self.digests))
        ref = self.w.build(
            self.seed,
            self.state_dir,
            engine=LoadBalancer,
            topology=instance.topology,
            oracle=instance.oracle,
            tag="serial",
        )
        try:
            for r in range(rounds):
                if r:
                    ref.step()
                report, _ = self.round(ref.balancer)
                if report.canonical_digest() != self.digests[r]:
                    raise self.failure(
                        f"serial cross-check: round {r} digest differs"
                    )
        finally:
            ref.close()
        return rounds

    # ------------------------------------------------------------------
    def timed_window(self, instance: Instance) -> dict[str, Any]:
        w = self.w
        rec = self.recorder
        balancer = instance.balancer
        oracle = instance.oracle
        round_s: list[float] = []
        step_s: list[float] = []
        traced_flags: list[bool] = []
        heavy: list[float] = []
        moved: list[float] = []
        messages: list[float] = []
        within2: list[float] = []
        collect_s: list[float] = []
        probe_s: list[float] = []
        probe_pairs: list[tuple[float, float]] = []
        round_cost: list[float] = []
        step_cost: list[float] = []
        layers: list[dict[str, float]] = []
        injected = 0
        start = time.perf_counter()
        k = 0
        while k < w.timed or time.perf_counter() - start < self.seconds:
            g0 = time.perf_counter()
            gc.collect()
            collect_s.append(time.perf_counter() - g0)
            self.cpu.settle()
            probe_before = self.cpu.probe()
            traced = self.trace and k % 2 == 1
            before: dict[str, int] = {}
            if traced:
                before = dict(getattr(balancer, "descent_stats", {}))
                if oracle is not None:
                    before["dijkstra_runs"] = oracle.dijkstra_runs
                if instance.journal is not None:
                    before["journal_bytes"] = instance.journal.path.stat().st_size
                first_span = len(rec.spans)
                rec.install()
                step_span = rec.open("bench.step")
            t0 = time.perf_counter()
            events = instance.step()
            t1 = time.perf_counter()
            if traced:
                rec.close(step_span)
                round_span = rec.open("bench.round")
            report, elapsed = self.round(balancer)
            if traced:
                rec.close(round_span)
                rec.uninstall()
                layers.append(
                    self.layer_sample(
                        instance, report, before, first_span, round_span,
                        events, injected, collect_s[-1],
                    )
                )
            probe_after = self.cpu.probe()
            probe = max(probe_before, probe_after)
            probe_s.append(probe)
            probe_pairs.append((probe_before, probe_after))
            injected = report.fault_stats.injected_total
            round_s.append(elapsed)
            step_s.append(t1 - t0 + elapsed)
            round_cost.append(elapsed / probe)
            step_cost.append((t1 - t0 + elapsed) / probe)
            traced_flags.append(traced)
            if k < w.timed:
                self.digests.append(report.canonical_digest())
                heavy.append(100.0 * report.heavy_after / report.num_nodes)
                total = float(report.loads_before.sum())
                moved.append(100.0 * report.moved_load / total)
                messages.append(
                    float(
                        report.aggregation.total_messages
                        + report.vsa.upward_messages
                    )
                )
                within2.append(100.0 * report.moved_load_within(2))
            k += 1
        traced_cost = [c for c, tr in zip(round_cost, traced_flags) if tr]
        untraced_cost = [c for c, tr in zip(round_cost, traced_flags) if not tr]
        half = len(round_cost) // 2
        first_half = _median(round_cost[:half])
        second_half = _median(round_cost[half:])
        drift = (second_half / first_half - 1.0) if first_half else 0.0
        return {
            "round_s": round_s,
            "probe_s": probe_s,
            "probe_pairs": probe_pairs,
            "round_cost": round_cost,
            "step_cost": step_cost,
            "heavy": heavy,
            "moved": moved,
            "step_s": step_s,
            "traced_cost": traced_cost,
            "untraced_cost": untraced_cost,
            "heavy_after_pct": statistics.fmean(heavy),
            "moved_load_pct": statistics.fmean(moved),
            "messages_per_round": statistics.fmean(messages),
            "moved_within_2_pct": statistics.fmean(within2),
            "window": {
                "rounds": len(round_s),
                "seconds": time.perf_counter() - start,
                "first_half_p50": first_half,
                "second_half_p50": second_half,
                "drift": drift,
                "flat": abs(drift) <= self.flat_tolerance,
                "cpu_switches": self.cpu.switches,
                "quiet_wait_s": self.cpu.waited_s,
            },
            "layers": layers,
        }

    def layer_sample(
        self,
        instance: Instance,
        report: Any,
        before: dict[str, int],
        first_span: int,
        round_span: int,
        events: int,
        injected_before: int,
        collect_s: float,
    ) -> dict[str, float]:
        """Per-layer numbers of one traced step + round."""
        rec = self.recorder
        spans = rec.spans
        totals = rec.totals(first_span)
        root = spans[round_span]
        round_wall = root.end - root.start
        inside = sum(
            s.self_s for s in spans[round_span + 1 :] if s.name != "bench.round"
        )
        if inside > round_wall + 1e-6 or root.self_s < -1e-6:
            raise self.failure(
                f"span self times ({inside:.6f} s) exceed round time "
                f"({round_wall:.6f} s)"
            )

        def s(name: str) -> float:
            return totals.get(f"{name}_s", 0.0)

        def calls(name: str) -> float:
            return totals.get(f"{name}.calls", 0.0)

        stats = dict(getattr(instance.balancer, "descent_stats", {}))
        vsa = report.vsa
        shed = len(vsa.assignments) + len(vsa.unassigned_heavy)
        transfers = len(report.transfers)
        failed = len(report.failed_assignments)
        phases = report.phase_seconds
        sample: dict[str, float] = {
            "ktree.refresh_dirty_s": s("ktree.refresh_dirty"),
            "ktree.descend_batch_s": s("ktree.descend_batch"),
            "ktree.descend_keys": totals.get("ktree.descend_batch.work", 0.0),
            "ktree.resolve_leaves_s": s("ktree.resolve_leaves"),
            "ktree.build_s": s("ktree.build"),
            "ktree.builds": calls("ktree.build"),
            "ktree.ensure_leaf_s": s("ktree.ensure_leaf"),
            "ktree.ensure_leaf_calls": calls("ktree.ensure_leaf"),
            "ktree.nodes_materialized": float(report.tree_nodes_materialized),
            "ktree.height": float(report.tree_height),
            "dht.centers_of_s": s("dht.centers_of"),
            "dht.hosts_with_regions_s": s("dht.hosts_with_regions"),
            "dht.churn_s": s("dht.churn"),
            "dht.ring_events": float(events),
            "workloads.drift_s": s("workloads.drift"),
            "core.soa.snapshot_s": s("core.soa.snapshot"),
            "core.lbi.collect_s": s("core.lbi.collect"),
            "core.lbi.aggregate_s": s("core.lbi.aggregate"),
            "core.lbi.messages": float(report.aggregation.total_messages),
            "core.classification.classify_s": s("core.classification.classify"),
            "core.selection.select_s": s("core.selection.select"),
            "core.selection.calls": calls("core.selection.select"),
            "core.rendezvous.pair_s": s("core.rendezvous.pair"),
            "core.rendezvous.calls": calls("core.rendezvous.pair"),
            "core.vsa.assigned_ratio": len(vsa.assignments) / shed if shed else 1.0,
            "core.vsa.messages": float(vsa.upward_messages),
            "core.vst.execute_s": s("core.vst.execute"),
            "core.vst.transfers": float(transfers),
            "core.vst.failed": float(failed),
            "core.vst.success_ratio": (
                transfers / (transfers + failed) if transfers + failed else 1.0
            ),
            "topology.distances_between_s": s("topology.distances_between"),
            "topology.dijkstra_s": s("topology.dijkstra"),
            "topology.dijkstra_runs": float(
                instance.oracle.dijkstra_runs - before["dijkstra_runs"]
                if instance.oracle is not None
                else 0
            ),
            "proximity.landmark_vectors_s": s("proximity.landmark_vectors"),
            "proximity.keys_for_s": s("proximity.keys_for"),
            "faults.injected": float(
                report.fault_stats.injected_total - injected_before
            ),
            "membership.begin_round_s": s("membership.begin_round"),
            "membership.heal_s": s("membership.heal"),
            "adversary.begin_round_s": s("adversary.begin_round"),
            "adversary.witness_check_s": s("adversary.witness_check"),
            "adversary.admit_s": s("adversary.admit"),
            "adversary.quarantined": float(len(report.adversary_stats.quarantined)),
            "recovery.journal_record_s": s("recovery.journal_record"),
            "recovery.journal_records": calls("recovery.journal_record"),
            "recovery.journal_bytes": float(
                instance.journal.path.stat().st_size - before["journal_bytes"]
                if instance.journal is not None
                else 0
            ),
        }
        sample["gc.collect_s"] = collect_s
        sample["gc.round_pause_s"] = totals.get("gc.pause_s", 0.0)
        sample["gc.round_collections"] = totals.get("gc.pause.calls", 0.0)
        for key in ("miss_descents", "cache_repairs", "stale_cache_misses"):
            sample[f"core.incremental.{key}"] = float(
                stats.get(key, 0) - before.get(key, 0)
            )
        for phase in ("lbi", "classification", "vsa", "vst", "miss_descent"):
            sample[f"core.phase.{phase}_s"] = float(phases.get(phase, 0.0))
        return sample

    # ------------------------------------------------------------------
    def run(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "workload": self.w.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "nodes": self.w.nodes,
        }
        shutil.rmtree(self.state_dir, ignore_errors=True)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        record["env"] = environment(self.root, self.state_dir)
        record["env"]["calib_start_s"] = calibrate()
        if self.trace:
            self.recorder.prepare(extra_modules=("scenarios",))
        instance: Instance | None = None
        stages: dict[str, float] = {}
        record["stage_s"] = stages
        try:
            t0 = time.perf_counter()
            instance, setup_samples, setup_quiet = self.setup()
            record["setup_samples_s"] = setup_samples
            record["setup_quiet"] = setup_quiet
            t1 = time.perf_counter()
            for _ in range(self.w.warmup):
                instance.step()
                report, _ = self.round(instance.balancer)
                self.digests.append(report.canonical_digest())
            t2 = time.perf_counter()
            window = self.timed_window(instance)
            rss = peak_rss_mb()
            record["env"]["calib_end_s"] = calibrate()
            t3 = time.perf_counter()
            record["crosscheck_rounds"] = self.crosscheck(instance)
            stages.update(
                setup=t1 - t0,
                warmup=t2 - t1,
                window=t3 - t2,
                crosscheck=time.perf_counter() - t3,
            )
        except RunFailed:
            record["errors"] = self.errors
            record["correct"] = False
            record["attempted"] = max(self.attempted, 1)
            record["failed"] = self.failed
            return record
        finally:
            if instance is not None:
                instance.close()
            self.recorder.uninstall()
            self.cpu.release()
            shutil.rmtree(self.state_dir, ignore_errors=True)
        chain = ""
        for digest in self.digests:
            chain = hashlib.sha256((chain + digest).encode()).hexdigest()
        traced = window["traced_cost"]
        untraced = window["untraced_cost"]
        record.update(
            correct=True,
            attempted=self.attempted,
            failed=self.failed,
            window=window["window"],
            deterministic={
                "rounds": len(self.digests),
                "digest_chain": chain,
                "heavy_after_pct": window["heavy_after_pct"],
                "moved_load_pct": window["moved_load_pct"],
                "messages_per_round": window["messages_per_round"],
                "moved_within_2_pct": window["moved_within_2_pct"],
            },
            wall={
                "round_s_p50": _median(window["round_s"]),
                "round_s_p75": _p75(window["round_s"]),
                "step_s_p50": _median(window["step_s"]),
                "probe_s_p50": _median(window["probe_s"]),
            },
            tail={
                "round_cost_p75": _p75(window["round_cost"]),
                "samples_beyond_p75": len(window["round_cost"]) // 4,
            },
            end_to_end={
                "round_cost_p50": _median(window["round_cost"]),
                "step_cost_p50": _median(window["step_cost"]),
                "setup_s": _median(
                    [t for t, q in zip(setup_samples, setup_quiet) if q]
                    or setup_samples
                ),
                "peak_rss_mb": rss,
                "messages_per_round": window["messages_per_round"],
            },
            samples={
                "round_s": window["round_s"],
                "step_s": window["step_s"],
                "probe_s": window["probe_s"],
                "probe_pairs": window["probe_pairs"],
                "heavy_after_pct": window["heavy"],
                "moved_load_pct": window["moved"],
            },
        )
        if self.trace:
            layers = window["layers"]
            per_layer = {
                key: statistics.fmean(sample[key] for sample in layers)
                for key in layers[0]
            }
            per_layer["trace.overhead_pct"] = 100.0 * (
                _median(traced) / _median(untraced) - 1.0
            )
            per_layer["trace.rounds"] = float(len(layers))
            record["per_layer"] = per_layer
        return record
