"""Benchmark: crash-recovery durability overhead vs plain rounds.

The durable path adds a snapshot checkpoint per round plus a
write-ahead journal record per transfer intent, group-committed (one
fsync at the checkpoint and one at ``round_end``).  This bench measures
that tax directly: the same seeded scenario run (a) plain and (b)
through a :class:`~repro.recovery.RecoveryManager`, asserting the
digests stay byte-identical (durability must be a pure tax, never a
behavior change) and reporting the per-round overhead factor.

``main(['--smoke'])`` runs a reduced configuration and asserts the
same identity plus a generous overhead ceiling — the CI smoke wired
into ``scripts/verify.sh``.
"""

from __future__ import annotations

import shutil
import tempfile
import time

from benchmarks.conftest import emit
from repro.core.balancer import LoadBalancer
from repro.core.config import BalancerConfig
from repro.recovery import RecoveryManager
from repro.workloads import GaussianLoadModel, build_scenario


def _factory(num_nodes: int, seed: int):
    config = BalancerConfig(
        proximity_mode="ignorant", epsilon=0.05, tree_degree=2
    )

    def build() -> LoadBalancer:
        ring = build_scenario(
            GaussianLoadModel(mu=1e6, sigma=2e3),
            num_nodes=num_nodes,
            vs_per_node=4,
            rng=seed,
        ).ring
        return LoadBalancer(ring, config, rng=seed + 1)

    return build


def run_overhead(num_nodes: int = 256, rounds: int = 5, seed: int = 42):
    """Run the paired workloads; return (plain_s, durable_s, identical)."""
    factory = _factory(num_nodes, seed)

    plain = factory()
    start = time.perf_counter()
    plain_digests = [
        plain.run_round().canonical_digest() for _ in range(rounds)
    ]
    plain_seconds = time.perf_counter() - start

    state_dir = tempfile.mkdtemp(prefix="repro-bench-recovery-")
    try:
        manager = RecoveryManager(factory, state_dir=state_dir)
        start = time.perf_counter()
        durable_digests = [
            manager.run_round().canonical_digest() for _ in range(rounds)
        ]
        durable_seconds = time.perf_counter() - start
        manager.close()
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)

    return plain_seconds, durable_seconds, plain_digests == durable_digests


def _format(plain_s: float, durable_s: float, rounds: int) -> str:
    factor = durable_s / plain_s if plain_s > 0 else float("inf")
    return (
        f"plain   : {plain_s:8.3f}s total, {plain_s / rounds * 1e3:7.1f} ms/round\n"
        f"durable : {durable_s:8.3f}s total, {durable_s / rounds * 1e3:7.1f} ms/round\n"
        f"overhead: {factor:5.2f}x (checkpoint + write-ahead journal)"
    )


def test_recovery_overhead(benchmark, report_lines):
    rounds = 5
    result = benchmark.pedantic(
        lambda: run_overhead(num_nodes=256, rounds=rounds),
        rounds=1,
        iterations=1,
    )
    plain_s, durable_s, identical = result
    emit(
        report_lines,
        "Robustness: crash-recovery durability overhead",
        _format(plain_s, durable_s, rounds),
    )
    assert identical, "durable digests diverged from plain digests"
    assert durable_s > 0


def main(argv: list[str] | None = None) -> int:
    """CI smoke: small scenario, digest identity, bounded overhead."""
    import argparse

    parser = argparse.ArgumentParser(prog="bench_recovery_overhead")
    parser.add_argument("--smoke", action="store_true", help="reduced scale")
    args = parser.parse_args(argv)
    num_nodes, rounds = (64, 3) if args.smoke else (256, 5)
    plain_s, durable_s, identical = run_overhead(
        num_nodes=num_nodes, rounds=rounds
    )
    print(_format(plain_s, durable_s, rounds))
    if not identical:
        print("FAIL: durable digests diverged from plain digests")
        return 1
    # Durability is a tax, not a rewrite: checkpoint + journal must stay
    # within an order of magnitude of the plain round even at smoke
    # scale (where fixed fsync costs weigh heaviest).
    if durable_s > max(10.0 * plain_s, plain_s + 2.0):
        print(f"FAIL: overhead {durable_s / plain_s:.1f}x exceeds ceiling")
        return 1
    print("recovery overhead smoke OK: digests identical, overhead bounded")
    return 0
