"""Per-rule fixtures for repro.lint: one positive and one negative each.

Fixture files are written under ``tmp_path/repro/<pkg>/`` so that
``LintEngine.module_name`` anchors them into the package namespace the
package-scoped rules key on (``repro.core`` is protocol code,
``repro.obs`` is documented API, ``repro.analysis`` is neither).
"""

import textwrap
from pathlib import Path

from repro.lint.engine import LintEngine, Finding
from repro.lint.rules.base import Rule
from repro.lint.rules.conservation import ConservationGuardRule
from repro.lint.rules.defaults import MutableDefaultArgsRule
from repro.lint.rules.docstrings import DocstringCoverageRule
from repro.lint.rules.exceptions import ExceptionHygieneRule
from repro.lint.rules.floats import NoFloatEqualityRule
from repro.lint.rules.forks import NoForkInProtocolRule
from repro.lint.rules.iteration import NoUnorderedIterationRule
from repro.lint.rules.retry import BoundedRetryRule
from repro.lint.rules.rng import NoUnseededRngRule
from repro.lint.rules.spans import ObsSpanCoverageRule
from repro.lint.rules.wallclock import NoWallclockRule


def lint(
    tmp_path: Path, relpath: str, source: str, rule: Rule
) -> list[Finding]:
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return LintEngine(rules=[rule]).lint_paths([path], root=tmp_path)


class TestNoUnseededRng:
    def test_flags_stdlib_random(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/core/x.py",
            """
            import random

            def pick(xs):
                return random.choice(xs)
            """,
            NoUnseededRngRule(),
        )
        assert [f.rule for f in findings] == ["no-unseeded-rng"]
        assert "random.choice" in findings[0].message

    def test_flags_from_import_and_numpy_global(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/sim/x.py",
            """
            import numpy as np
            from random import shuffle

            def jitter(xs):
                shuffle(xs)
                return np.random.default_rng()
            """,
            NoUnseededRngRule(),
        )
        assert len(findings) == 2

    def test_allows_seeded_generator_and_types(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/core/x.py",
            """
            import numpy as np

            def pick(xs, rng: np.random.Generator):
                assert isinstance(rng, np.random.Generator)
                return xs[rng.integers(len(xs))]
            """,
            NoUnseededRngRule(),
        )
        assert findings == []

    def test_exempts_util_rng_module(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/util/rng.py",
            """
            import numpy as np

            def ensure_rng(seed):
                return np.random.default_rng(seed)
            """,
            NoUnseededRngRule(),
        )
        assert findings == []


class TestNoWallclock:
    def test_flags_time_calls_in_protocol(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/core/x.py",
            """
            import time
            from time import perf_counter

            def slow():
                start = perf_counter()
                return time.monotonic() - start
            """,
            NoWallclockRule(),
        )
        assert len(findings) == 2

    def test_flags_datetime_now(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/dht/x.py",
            """
            import datetime

            def stamp():
                return datetime.datetime.now()
            """,
            NoWallclockRule(),
        )
        assert len(findings) == 1

    def test_allows_clock_outside_protocol(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/obs/x.py",
            """
            import time

            def measure():
                return time.perf_counter()
            """,
            NoWallclockRule(),
        )
        assert findings == []


class TestNoUnorderedIteration:
    def test_flags_for_loop_over_set(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/core/x.py",
            """
            def total(loads: set[float]) -> float:
                acc = 0.0
                for x in loads:
                    acc += x
                return acc
            """,
            NoUnorderedIterationRule(),
        )
        assert len(findings) == 1
        assert "sorted" in findings[0].message

    def test_flags_sum_over_set_expression(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/dht/x.py",
            """
            def total(a: set[int], b: set[int]) -> int:
                return sum(a | b)
            """,
            NoUnorderedIterationRule(),
        )
        assert len(findings) == 1

    def test_allows_sorted_wrap_and_order_insensitive(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/core/x.py",
            """
            def total(loads: set[float]) -> float:
                acc = 0.0
                for x in sorted(loads):
                    acc += x
                return acc + len(loads) + max(loads)
            """,
            NoUnorderedIterationRule(),
        )
        assert findings == []

    def test_ignores_sets_outside_protocol(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/analysis/x.py",
            """
            def names(tags: set[str]) -> list[str]:
                return [t for t in tags]
            """,
            NoUnorderedIterationRule(),
        )
        assert findings == []


class TestNoFloatEquality:
    def test_flags_load_comparison(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/core/x.py",
            """
            def same(node_load, target_load):
                return node_load == target_load
            """,
            NoFloatEqualityRule(),
        )
        assert len(findings) == 1

    def test_flags_float_literal(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/analysis/x.py",
            """
            def check(x):
                return x != 0.5
            """,
            NoFloatEqualityRule(),
        )
        assert len(findings) == 1

    def test_allows_zero_sentinel_and_isclose(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/core/x.py",
            """
            import math

            def safe(load, capacity):
                if capacity == 0.0:
                    return False
                return math.isclose(load, capacity)
            """,
            NoFloatEqualityRule(),
        )
        assert findings == []


class TestConservationGuard:
    def test_flags_unguarded_mutator(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/core/x.py",
            """
            def shed(ring, vs, target):
                ring.transfer_virtual_server(vs, target)
            """,
            ConservationGuardRule(),
        )
        assert len(findings) == 1
        assert "shed" in findings[0].message

    def test_flags_unguarded_rebalance(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/app/x.py",
            """
            class System:
                def rebalance(self):
                    return self.balancer.run_round(self.ring)
            """,
            ConservationGuardRule(),
        )
        assert len(findings) == 1

    def test_allows_guarded_mutator(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/core/x.py",
            """
            def shed(ring, vs, target):
                before = sum(n.load for n in ring.nodes)
                ring.transfer_virtual_server(vs, target)
                after = sum(n.load for n in ring.nodes)
                assert_loads_conserved(before, after, context="shed")
            """,
            ConservationGuardRule(),
        )
        assert findings == []

    def test_exempts_primitive_and_other_packages(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/core/x.py",
            """
            def transfer_virtual_server(vs, target):
                target.accept(vs)
            """,
            ConservationGuardRule(),
        )
        assert findings == []
        findings = lint(
            tmp_path,
            "repro/analysis/x.py",
            """
            def replay(ring, vs, target):
                ring.transfer_virtual_server(vs, target)
            """,
            ConservationGuardRule(),
        )
        assert findings == []


class TestObsSpanCoverage:
    def test_flags_uninstrumented_entry_point(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/core/classification.py",
            """
            def classify_all(reports):
                return [r.kind for r in reports]

            def classify_arrays(columns, tracer=None):
                tracer.event("classification.counts")
                return columns
            """,
            ObsSpanCoverageRule(),
        )
        assert len(findings) == 1
        assert "no tracer source" in findings[0].message

    def test_flags_dropped_tracer_parameter(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/core/helpers.py",
            """
            def walk(tree, tracer=None):
                return list(tree)
            """,
            ObsSpanCoverageRule(),
        )
        assert len(findings) == 1
        assert "never uses or forwards" in findings[0].message

    def test_flags_missing_entry_point(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/core/vst.py",
            """
            def plan_transfers(pairs):
                return pairs
            """,
            ObsSpanCoverageRule(),
        )
        assert len(findings) == 1
        assert "execute_transfers" in findings[0].message

    def test_flags_missing_classification_kernel(self, tmp_path):
        # The round classifies through ``classify_arrays``, so the
        # registry requires it next to ``classify_all``.
        findings = lint(
            tmp_path,
            "repro/core/classification.py",
            """
            def classify_all(reports, tracer=None):
                with tracer.span("classification"):
                    return [r.kind for r in reports]
            """,
            ObsSpanCoverageRule(),
        )
        assert len(findings) == 1
        assert "classify_arrays" in findings[0].message

    def test_allows_instrumented_entry_point(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/core/classification.py",
            """
            def classify_all(reports, tracer=None):
                with tracer.span("classification"):
                    return [r.kind for r in reports]

            def classify_arrays(columns, tracer=None):
                tracer.event("classification.counts")
                return columns
            """,
            ObsSpanCoverageRule(),
        )
        assert findings == []

    def test_allows_tracer_delegation(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/core/helpers.py",
            """
            def walk(tree, tracer=None):
                return visit(tree, tracer=tracer)
            """,
            ObsSpanCoverageRule(),
        )
        assert findings == []

    def test_ignores_non_core_packages(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/obs/helpers.py",
            """
            def walk(tree, tracer=None):
                return list(tree)
            """,
            ObsSpanCoverageRule(),
        )
        assert findings == []


class TestExceptionHygiene:
    def test_flags_bare_except(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/core/x.py",
            """
            def f():
                try:
                    risky()
                except:
                    pass
            """,
            ExceptionHygieneRule(),
        )
        assert len(findings) == 1

    def test_flags_swallowed_blind_exception(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/analysis/x.py",
            """
            def f():
                try:
                    risky()
                except Exception:
                    return None
            """,
            ExceptionHygieneRule(),
        )
        assert len(findings) == 1

    def test_allows_reraise_and_bound_use(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/core/x.py",
            """
            def f(log):
                try:
                    risky()
                except Exception:
                    raise
                try:
                    risky()
                except Exception as exc:
                    log(exc)
            """,
            ExceptionHygieneRule(),
        )
        assert findings == []

    def test_allows_specific_exception(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/core/x.py",
            """
            def f():
                try:
                    risky()
                except KeyError:
                    return None
            """,
            ExceptionHygieneRule(),
        )
        assert findings == []


class TestMutableDefaultArgs:
    def test_flags_literal_and_call_defaults(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/core/x.py",
            """
            def f(a, acc=[], *, seen=set()):
                return a
            """,
            MutableDefaultArgsRule(),
        )
        assert len(findings) == 2

    def test_allows_none_and_immutable_defaults(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/core/x.py",
            """
            def f(a, acc=None, label="x", pair=(1, 2)):
                return a
            """,
            MutableDefaultArgsRule(),
        )
        assert findings == []


class TestDocstringCoverage:
    def test_flags_undocumented_api(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/obs/x.py",
            """
            def emit(x):
                return x
            """,
            DocstringCoverageRule(),
        )
        messages = " ".join(f.message for f in findings)
        assert "module" in messages.lower()
        assert "emit" in messages

    def test_allows_documented_and_private(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/obs/x.py",
            '''
            """A documented module."""

            def emit(x):
                """Emit x."""
                return x

            def _internal(x):
                return x
            ''',
            DocstringCoverageRule(),
        )
        assert findings == []

    def test_not_enforced_outside_documented_api(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/core/x.py",
            """
            def emit(x):
                return x
            """,
            DocstringCoverageRule(),
        )
        assert findings == []


class TestBoundedRetry:
    def test_flags_while_true_in_protocol_code(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/core/x.py",
            """
            def resend(send):
                while True:
                    if send():
                        return True
            """,
            BoundedRetryRule(),
        )
        assert [f.rule for f in findings] == ["bounded-retry"]
        assert "while True" in findings[0].message

    def test_flags_while_one_in_faults_package(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/faults/x.py",
            """
            def poll(q):
                while 1:
                    if q.ready():
                        break
            """,
            BoundedRetryRule(),
        )
        assert len(findings) == 1

    def test_flags_jitterless_backoff_helper(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/sim/x.py",
            """
            def backoff_delay(attempt):
                return 0.05 * 2 ** attempt
            """,
            BoundedRetryRule(),
        )
        assert [f.rule for f in findings] == ["bounded-retry"]
        assert "backoff_delay" in findings[0].message

    def test_allows_bounded_loop_with_seeded_jitter(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/core/x.py",
            """
            def deliver_with_retry(policy, send, rng):
                for attempt in range(1, policy.max_attempts + 1):
                    if send(attempt):
                        return True
                    delay = policy.backoff_delay(attempt, rng)
                return False
            """,
            BoundedRetryRule(),
        )
        assert findings == []

    def test_allows_condition_loops_and_non_protocol_code(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/core/x.py",
            """
            def drain(queue):
                while queue:
                    queue.pop()
            """,
            BoundedRetryRule(),
        )
        assert findings == []
        findings = lint(
            tmp_path,
            "repro/analysis/x.py",
            """
            def spin():
                while True:
                    pass
            """,
            BoundedRetryRule(),
        )
        assert findings == []

    def test_flags_unbounded_heal_loop_in_membership_package(self, tmp_path):
        # The partition-heal protocol lives in repro.membership — protocol
        # code, so an unbounded reconciliation loop must be flagged...
        findings = lint(
            tmp_path,
            "repro/membership/x.py",
            """
            def heal(suspended):
                while True:
                    if not suspended:
                        return
                    suspended.pop().commit()
            """,
            BoundedRetryRule(),
        )
        assert [f.rule for f in findings] == ["bounded-retry"]

    def test_allows_bounded_heal_loop_in_membership_package(self, tmp_path):
        # ...while the shipped shape — reconcile each suspended transfer
        # exactly once, in suspension order — is bounded and clean.
        findings = lint(
            tmp_path,
            "repro/membership/x.py",
            """
            def heal(suspended):
                for txn in suspended:
                    if txn.source.alive and txn.target.alive:
                        txn.commit()
                    else:
                        txn.rollback()
            """,
            BoundedRetryRule(),
        )
        assert findings == []

    def test_pragma_silences_reviewed_loop(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/sim/x.py",
            """
            def event_loop(step):
                while True:  # lint: disable=bounded-retry
                    step()
            """,
            BoundedRetryRule(),
        )
        assert findings == []


class TestNoForkInProtocol:
    def test_flags_multiprocessing_import(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/core/x.py",
            """
            import multiprocessing

            def go():
                return multiprocessing.cpu_count()
            """,
            NoForkInProtocolRule(),
        )
        assert [f.rule for f in findings] == ["no-fork-in-protocol"]
        assert "multiprocessing" in findings[0].message

    def test_flags_subprocess_and_futures_imports(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/parallel/x.py",
            """
            import subprocess
            from concurrent.futures import ProcessPoolExecutor
            """,
            NoForkInProtocolRule(),
        )
        assert len(findings) == 2

    def test_flags_os_fork_call(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/sim/x.py",
            """
            import os

            def go():
                return os.fork()
            """,
            NoForkInProtocolRule(),
        )
        assert len(findings) == 1
        assert "os.fork" in findings[0].message

    def test_flags_executor_construction_via_alias(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/parallel/x.py",
            """
            def go(futures):
                return futures.ProcessPoolExecutor(max_workers=2)
            """,
            NoForkInProtocolRule(),
        )
        assert len(findings) == 1
        assert "ProcessPoolExecutor" in findings[0].message

    def test_pool_module_is_exempt(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/parallel/pool.py",
            """
            from concurrent.futures import ProcessPoolExecutor

            def make():
                return ProcessPoolExecutor(max_workers=2)
            """,
            NoForkInProtocolRule(),
        )
        assert findings == []

    def test_non_protocol_package_is_exempt(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/analysis/x.py",
            """
            import subprocess
            """,
            NoForkInProtocolRule(),
        )
        assert findings == []

    def test_flags_worker_with_implicit_inputs(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/parallel/x.py",
            """
            def fold_worker(state):
                return state
            """,
            NoForkInProtocolRule(),
        )
        assert len(findings) == 1
        assert "fold_worker" in findings[0].message
        assert "'state'" in findings[0].message

    def test_flags_worker_with_no_args(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/parallel/x.py",
            """
            def idle_worker():
                return None
            """,
            NoForkInProtocolRule(),
        )
        assert len(findings) == 1

    def test_accepts_explicit_worker_signatures(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/parallel/x.py",
            """
            def fold_worker(task):
                return task

            def trial_worker(seed, scale=1):
                return seed * scale
            """,
            NoForkInProtocolRule(),
        )
        assert findings == []

    def test_worker_naming_only_applies_in_parallel(self, tmp_path):
        findings = lint(
            tmp_path,
            "repro/core/x.py",
            """
            def fold_worker(state):
                return state
            """,
            NoForkInProtocolRule(),
        )
        assert findings == []
