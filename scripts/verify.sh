#!/usr/bin/env bash
# Repository verify path: tier-1 tests, the observability suite, the
# repro.lint static-analysis gate, the mypy strict-typing gate (when
# mypy is installed), the generated-API freshness check, the chaos
# smoke (a degraded balancing round under injected faults), the
# incremental smoke (persistent-tree digest identity under churn), the
# partition smoke (a network split healing under the conservation
# gate) and the recovery smokes (a monitored chaos soak with process
# crashes, and the durability-overhead bound).  Run from the
# repository root:
#
#   bash scripts/verify.sh
#
# REPRO_SOAK=1 additionally sweeps partition scenarios across seeds
# through the parallel trial engine (opt-in; adds a few seconds).
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1: full test suite =="
python -m pytest -x -q

echo "== observability suite (unit + integration + docstring lint) =="
python -m pytest -q tests/test_obs*.py

echo "== repro.lint: static analysis + interprocedural effect gate =="
# The flow pass builds the project call graph, infers transitive
# effects, and fails on drift against the committed effects baseline.
# After an intentional effect change, regenerate and commit with
#   python -m repro.lint src/repro --baseline lint-baseline.json \
#       --effects-out effects-baseline.json
python -m repro.lint src/repro --baseline lint-baseline.json \
    --effects-check effects-baseline.json

echo "== repro.lint: scripts/ + benchmarks/ (relaxed profile) =="
# Determinism rules stay on for bench harnesses and tooling; only the
# documentation-hygiene rules are dropped.
python -m repro.lint scripts benchmarks --profile relaxed

echo "== mypy: strict typing gate =="
if python -c "import mypy" >/dev/null 2>&1; then
    # Config ([tool.mypy] in pyproject.toml) runs strict over the whole
    # package with ignore_errors overrides for not-yet-strict modules.
    python -m mypy
else
    echo "mypy not installed; skipping (pip install -e '.[dev]' to enable)"
fi

echo "== generated API docs freshness =="
python scripts/gen_api_docs.py --check

echo "== bench trend: cost metrics vs checked-in baseline =="
# Regenerate the deterministic smoke-workload metrics dump and compare
# it against benchmarks/BENCH_BASELINE.json: any counter/gauge >20%
# above baseline (messages, Dijkstra runs, descents, ...) fails
# the build.  After an intentional cost change, regenerate with
#   python scripts/check_bench_trend.py gen
# and commit the new baseline.
BENCH_TMP="$(mktemp /tmp/bench_trend.XXXXXX.json)"
trap 'rm -f "$BENCH_TMP"' EXIT
python scripts/check_bench_trend.py gen --out "$BENCH_TMP" >/dev/null
python scripts/check_bench_trend.py check "$BENCH_TMP"

echo "== chaos smoke: degraded round survives, conserves, reproduces =="
# Small ring, fixed seed, 10% message drop + one mid-round crash; the
# module asserts conservation, convergence and byte-identical fault
# sequences across two runs.  (Invoked via -c rather than -m to avoid
# the runpy double-import warning: the experiments package __init__
# already imports chaos through the registry.)
python -c "import sys; from repro.experiments.chaos import main; sys.exit(main(['--smoke']))"

echo "== incremental smoke: persistent-tree rounds match the reference's digests =="
# Tiny ring, four rounds with 1% churn + localized drift between them;
# asserts LoadBalancer's canonical digests are byte-identical to the
# object-walk reference's (SerialLoadBalancer) on every round.
python -c "import sys; sys.path.insert(0, '.'); from benchmarks.bench_incremental_scaling import main; sys.exit(main(['--smoke']))"

echo "== million-steady smoke: directory lookups + batched descents =="
# The 10^6 steady-state configuration at reduced scale: LoadBalancer
# only, four rounds with fractional churn; asserts batched descents ran
# (counted) on the same code path the full --million
# run gates by wall-clock.
python -c "import sys; sys.path.insert(0, '.'); from benchmarks.bench_incremental_scaling import main; sys.exit(main(['--million', '--smoke']))"

echo "== partition smoke: split, degraded rounds, conservation-checked heal =="
# Mid-round 2-way split held for two rounds, then healed; the module
# asserts epochs, suspended == commits + rollbacks, global conservation
# and byte-identical signatures/digests across two runs.
python -c "import sys; from repro.experiments.partition import main; sys.exit(main(['--smoke']))"

echo "== byzantine smoke: defended sweep point beats undefended, reproduces =="
# Small ring, fixed seed, 10% Byzantine attackers; the module asserts
# the defense strictly reduces honest damage, quarantines attackers,
# reproduces attack signatures/digests across two runs, and that an
# armed-but-empty adversary (f=0, defense on) stays digest-identical
# to a run with no adversary plan at all.
python -c "import sys; from repro.experiments.byzantine import main; sys.exit(main(['--smoke']))"

echo "== recovery smoke: chaos soak (churn x faults x crashes, monitored) =="
# Two seeded schedules composing churn, message faults, a partition and
# process crashes, run under the always-on soak monitors (conservation,
# region tiling, in-flight accounting, epoch monotonicity); any monitor
# violation would be ddmin-shrunk and printed as a paste-ready test.
python -c "import sys; from repro.recovery.soak import main; sys.exit(main(['--smoke']))"

echo "== recovery smoke: durability overhead bounded, digests identical =="
# The same seeded run plain vs through the RecoveryManager: the durable
# path (checkpoint + write-ahead journal) must not change any digest
# and must stay within a generous overhead ceiling.
python -c "import sys; sys.path.insert(0, '.'); from benchmarks.bench_recovery_overhead import main; sys.exit(main(['--smoke']))"

if [ "${REPRO_SOAK:-0}" = "1" ]; then
    echo "== soak: partition seed sweep through the trial engine (REPRO_SOAK=1) =="
    # Bounded sweep: four scenario seeds x two split shapes, fanned out
    # by TrialExecutor workers.  Every point must activate, degrade,
    # heal at epoch 2 and reconcile all suspended transfers.
    python - <<'PY'
from dataclasses import replace

from repro.experiments import ExperimentSettings
from repro.experiments import partition

base = ExperimentSettings(num_nodes=96, workers=2)
for seed in (7, 11, 23, 42):
    result = partition.run(replace(base, seed=seed), component_counts=(2, 3))
    for row in result.rows:
        assert row.final_epoch == 2, (seed, row)
        assert row.suspended == row.healed_commits + row.healed_rollbacks, (
            seed, row,
        )
    print(f"  seed {seed}: {len(result.rows)} split shapes healed, conserved")
print("soak OK: 4 seeds x 2 shapes through TrialExecutor")
PY
fi

echo "verify: OK"
