"""Interprocedural flow-analysis tests: call graph, effects, new rules.

Fixtures are written under ``tmp_path/repro/<pkg>/`` so the engine's
module-name anchoring classifies them exactly like shipped sources
(``repro/core/...`` is protocol, ``repro/analysis/...`` is not).
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint.cli import EXIT_CLEAN, EXIT_FINDINGS, main
from repro.lint.engine import LintEngine
from repro.lint.flow import EFFECTS_SCHEMA_VERSION, FlowAnalysis
from repro.lint.rules.streams import (
    ParallelTaskPurityRule,
    RngStreamDisciplineRule,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


def write(tmp_path: Path, relpath: str, source: str) -> Path:
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def analyze(tmp_path: Path) -> FlowAnalysis:
    """Build a FlowAnalysis over every fixture file under ``tmp_path``."""
    engine = LintEngine(rules=(), flow=False)
    files = engine.collect_files([tmp_path])
    contexts = [engine.parse_file(f, root=tmp_path) for f in files]
    return FlowAnalysis(contexts)


def lint(tmp_path: Path) -> list:
    """Full-engine findings (per-file + interprocedural) for fixtures."""
    return LintEngine().lint_paths([tmp_path], root=tmp_path)


# ----------------------------------------------------------------------
# The acceptance fixture: a wall-clock read reachable only through a
# 3-deep helper chain outside the protocol packages.
# ----------------------------------------------------------------------
DEEP_HELPERS = """
    import time

    def helper_c():
        return time.time()

    def helper_b():
        return helper_c()

    def helper_a():
        return helper_b()

    def pure_helper(x):
        return x + 1
"""

DEEP_PROTOCOL = """
    from repro.analysis.helpers import helper_a, pure_helper

    def run_round():
        return helper_a()

    def quiet_round():
        return pure_helper(2)
"""


def deep_fixture(tmp_path: Path) -> None:
    write(tmp_path, "repro/analysis/helpers.py", DEEP_HELPERS)
    write(tmp_path, "repro/core/proto.py", DEEP_PROTOCOL)


def test_three_deep_wallclock_chain_is_flagged_with_full_chain(tmp_path):
    deep_fixture(tmp_path)
    findings = lint(tmp_path)
    hits = [f for f in findings if f.rule == "no-wallclock-in-protocol"]
    assert len(hits) == 1
    f = hits[0]
    assert f.path == "repro/core/proto.py"
    assert "transitively reaches" in f.message
    # The full chain, caller-first, down to the direct site.
    assert (
        "repro.core.proto.run_round -> repro.analysis.helpers.helper_a "
        "-> repro.analysis.helpers.helper_b -> repro.analysis.helpers.helper_c"
        in f.message
    )
    assert "repro/analysis/helpers.py" in f.message  # site location


def test_effects_propagate_through_the_chain(tmp_path):
    deep_fixture(tmp_path)
    analysis = analyze(tmp_path)
    for qname in (
        "repro.analysis.helpers.helper_c",
        "repro.analysis.helpers.helper_b",
        "repro.analysis.helpers.helper_a",
        "repro.core.proto.run_round",
    ):
        assert "wall-clock" in analysis.effects_of(qname), qname
    assert analysis.effects_of("repro.core.proto.quiet_round") == frozenset()
    assert analysis.effects_of("repro.analysis.helpers.pure_helper") == (
        frozenset()
    )


def test_direct_site_in_protocol_is_local_not_frontier(tmp_path):
    # A direct clock read in protocol code is the local rule's finding;
    # the frontier pass must not double-report it.
    write(
        tmp_path,
        "repro/core/direct.py",
        """
        import time

        def stamp():
            return time.time()
        """,
    )
    findings = lint(tmp_path)
    hits = [f for f in findings if f.rule == "no-wallclock-in-protocol"]
    assert len(hits) == 1
    assert "transitively" not in hits[0].message


def test_recursion_and_scc_cycles_converge(tmp_path):
    write(
        tmp_path,
        "repro/analysis/cyc.py",
        """
        import time

        def ping(n):
            if n:
                return pong(n - 1)
            return time.time()

        def pong(n):
            return ping(n)

        def selfloop(n):
            if n:
                return selfloop(n - 1)
            return 0
        """,
    )
    analysis = analyze(tmp_path)
    assert "wall-clock" in analysis.effects_of("repro.analysis.cyc.ping")
    assert "wall-clock" in analysis.effects_of("repro.analysis.cyc.pong")
    assert analysis.effects_of("repro.analysis.cyc.selfloop") == frozenset()


def test_decorator_effects_reach_the_decorated_function(tmp_path):
    write(
        tmp_path,
        "repro/analysis/deco.py",
        """
        def announcing(fn):
            print("registered", fn)
            return fn

        @announcing
        def task(x):
            return x * 2
        """,
    )
    analysis = analyze(tmp_path)
    assert "io" in analysis.effects_of("repro.analysis.deco.task")


def test_method_dispatch_through_self_and_typed_receiver(tmp_path):
    write(
        tmp_path,
        "repro/analysis/meth.py",
        """
        import time

        class Worker:
            def run(self):
                return self._stamp()

            def _stamp(self):
                return time.time()

        def drive():
            w = Worker()
            return w.run()
        """,
    )
    analysis = analyze(tmp_path)
    assert "wall-clock" in analysis.effects_of(
        "repro.analysis.meth.Worker.run"
    )
    assert "wall-clock" in analysis.effects_of("repro.analysis.meth.drive")


def test_function_local_imports_bind_in_function_scope(tmp_path):
    write(
        tmp_path,
        "repro/analysis/clock.py",
        """
        import time

        def stamp():
            return time.time()

        class Clock:
            def read(self):
                return time.time()
        """,
    )
    write(
        tmp_path,
        "repro/analysis/driver.py",
        """
        def from_import():
            from repro.analysis.clock import stamp
            return stamp()

        def module_alias():
            import repro.analysis.clock as clock
            return clock.stamp()

        def typed_receiver():
            from repro.analysis.clock import Clock
            c = Clock()
            return c.read()

        def enclosing():
            from repro.analysis.clock import stamp as s

            def inner():
                return s()

            return inner

        def unbound():
            return stamp()
        """,
    )
    analysis = analyze(tmp_path)
    for name in (
        "from_import",
        "module_alias",
        "typed_receiver",
        "enclosing.inner",
        "enclosing",
    ):
        qname = f"repro.analysis.driver.{name}"
        assert "wall-clock" in analysis.effects_of(qname), qname
    # A function-local import binds nothing at module scope.
    assert analysis.effects_of("repro.analysis.driver.unbound") == frozenset()


def test_optional_attributes_and_local_aliases_are_typed(tmp_path):
    """``self.x: T | None``, ``t = self.x``, ``t.attr.method()`` and
    ``self.x = factory()`` with ``factory: Callable[[], T]`` resolve."""
    write(
        tmp_path,
        "repro/analysis/store.py",
        """
        import os


        class Log:
            def __init__(self, fd):
                self.fd = fd

            def sync(self):
                os.fsync(self.fd)


        class Index:
            def __init__(self, log: Log):
                self.log = log

            def flush(self):
                self.log.sync()
        """,
    )
    write(
        tmp_path,
        "repro/core/engine.py",
        """
        from __future__ import annotations

        from typing import TYPE_CHECKING, Callable

        if TYPE_CHECKING:
            from repro.analysis.store import Index, Log


        class Engine:
            def __init__(self) -> None:
                self._index: Index | None = None
                self.log: Log | None = None

            def attach(self, index: Index) -> None:
                self._index = index

            def alias(self):
                index = self._index
                return index.flush()

            def through_alias(self):
                index = self._index
                return index.log.sync()

            def through_self(self):
                return self._index.log.sync()

            def direct(self):
                return self.log.sync()


        class Owner:
            def __init__(self, factory: Callable[[], Log]) -> None:
                self.log = factory()

            def built(self):
                return self.log.sync()
        """,
    )
    analysis = analyze(tmp_path)
    assert analysis.effects_of("repro.analysis.store.Log.sync") == {"io"}
    engine = "repro.core.engine.Engine"
    for name in ("alias", "through_alias", "through_self", "direct"):
        assert analysis.effects_of(f"{engine}.{name}") == {"io"}, name
    assert analysis.effects_of("repro.core.engine.Owner.built") == {"io"}
    # The annotation names a type; it constructs nothing.
    assert not analysis.function(f"{engine}.__init__").calls


def test_container_annotations_give_no_receiver_type(tmp_path):
    """``self.x: dict[str, C]`` is not a ``C``: ``.get()`` stays unbound."""
    write(
        tmp_path,
        "repro/analysis/cache.py",
        """
        from __future__ import annotations

        import os
        from typing import Optional


        class Entry:
            def get(self, key):
                os.fsync(key)


        class Cache:
            def __init__(self, entry: Optional[Entry]) -> None:
                self._entries: dict[str, Entry] = {}
                self._order: list[Entry] = []
                self._either: Entry | Cache | None = None
                self._entry = entry

            def lookup(self, key):
                return self._entries.get(key)

            def aliased(self, key):
                entries = self._entries
                return entries.get(key)

            def either(self, key):
                return self._either.get(key)

            def optional(self, key):
                return self._entry.get(key)
        """,
    )
    analysis = analyze(tmp_path)
    cache = "repro.analysis.cache.Cache"
    for name in ("lookup", "aliased", "either"):
        assert analysis.effects_of(f"{cache}.{name}") == frozenset(), name
    assert analysis.effects_of(f"{cache}.optional") == {"io"}


def test_unordered_iteration_propagates_interprocedurally(tmp_path):
    write(
        tmp_path,
        "repro/analysis/iter.py",
        """
        def fold(items: set):
            total = 0.0
            for item in items:
                total += item * 0.5
            return total
        """,
    )
    write(
        tmp_path,
        "repro/core/agg.py",
        """
        from repro.analysis.iter import fold

        def aggregate(items):
            return fold(set(items))
        """,
    )
    analysis = analyze(tmp_path)
    assert "unordered-iteration" in analysis.effects_of(
        "repro.core.agg.aggregate"
    )


# ----------------------------------------------------------------------
# rng-stream-discipline
# ----------------------------------------------------------------------
def test_module_level_generator_binding_is_flagged(tmp_path):
    write(
        tmp_path,
        "repro/core/globals_rng.py",
        """
        from repro.util.rng import ensure_rng

        GEN = ensure_rng(0)
        """,
    )
    findings = lint(tmp_path)
    hits = [f for f in findings if f.rule == "rng-stream-discipline"]
    assert len(hits) == 1
    assert "module-level Generator binding 'GEN'" in hits[0].message


POOL_FIXTURE = """
    from repro.util.rng import ensure_rng, spawn_rngs

    def work(task):
        idx, gen = task
        return idx + float(gen.normal())

    def run_shared(pool):
        gen = ensure_rng(7)
        tasks = [(i, gen) for i in range(4)]
        return pool.map_ordered(work, tasks)

    def run_spawned(pool):
        streams = spawn_rngs(7, 4)
        tasks = [(i, streams[i]) for i in range(4)]
        return pool.map_ordered(work, tasks)
"""


def test_shared_stream_crossing_pool_boundary_is_flagged(tmp_path):
    write(tmp_path, "repro/analysis/pooluse.py", POOL_FIXTURE)
    analysis = analyze(tmp_path)
    findings = list(RngStreamDisciplineRule().check_project(analysis))
    assert len(findings) == 1
    assert "Generator crosses the WorkerPool submission boundary" in (
        findings[0].message
    )
    assert "run_shared" in findings[0].message
    # The per-task spawn pattern passes: only the shared submission
    # carries an origin.
    origins = {
        sub.caller: sub.shared_stream_origin
        for sub in analysis.submissions()
    }
    assert origins["repro.analysis.pooluse.run_shared"] is not None
    assert origins["repro.analysis.pooluse.run_spawned"] is None


# ----------------------------------------------------------------------
# parallel-task-purity
# ----------------------------------------------------------------------
def test_task_closing_over_shared_generator_is_rejected(tmp_path):
    write(
        tmp_path,
        "repro/analysis/impure.py",
        """
        from repro.util.rng import ensure_rng

        def run(pool):
            gen = ensure_rng(3)

            def task(item):
                return item + float(gen.normal())

            return pool.map_ordered(task, [1.0, 2.0])
        """,
    )
    analysis = analyze(tmp_path)
    findings = list(ParallelTaskPurityRule().check_project(analysis))
    assert len(findings) == 1
    assert "not effect-closed" in findings[0].message
    assert "ambient-rng" in findings[0].message


def test_payload_stream_task_is_accepted(tmp_path):
    write(tmp_path, "repro/analysis/pooluse.py", POOL_FIXTURE)
    analysis = analyze(tmp_path)
    # Both submissions pass purity: `work` draws only from the stream
    # shipped in its task payload (the sanctioned per-task pattern).
    assert list(ParallelTaskPurityRule().check_project(analysis)) == []


def test_lambda_and_wallclock_tasks_are_rejected(tmp_path):
    write(
        tmp_path,
        "repro/analysis/badtasks.py",
        """
        import time

        def slow_task(item):
            return item + time.time()

        def run_lambda(pool):
            return pool.map_ordered(lambda item: item + 1, [1, 2])

        def run_slow(pool):
            return pool.map_ordered(slow_task, [1, 2])
        """,
    )
    analysis = analyze(tmp_path)
    findings = sorted(
        ParallelTaskPurityRule().check_project(analysis),
        key=lambda f: f.line,
    )
    assert len(findings) == 2
    assert "lambda submitted" in findings[0].message
    assert "wall-clock" in findings[1].message
    assert "slow_task" in findings[1].message


def test_shipped_trial_executor_submission_is_effect_closed():
    """The real tree's one submission site proves the positive pattern."""
    engine = LintEngine(rules=(), flow=False)
    files = engine.collect_files([REPO_ROOT / "src" / "repro"])
    contexts = [engine.parse_file(f, root=REPO_ROOT) for f in files]
    analysis = FlowAnalysis(contexts)
    subs = analysis.submissions()
    # TrialExecutor.map is the only WorkerPool.map_ordered call.
    assert len(subs) == 1
    assert (subs[0].caller, subs[0].callee) == (
        "repro.parallel.trials.TrialExecutor.map",
        "repro.parallel.trials.run_trial_worker",
    )
    for sub in subs:
        assert sub.callee is not None, sub.callee_text
        assert sub.shared_stream_origin is None, sub.caller
        assert not analysis.kinds_of(sub.callee) & frozenset(
            {"wall-clock", "io", "ambient-rng", "global-rng", "fork"}
        ), sub.callee
    assert list(ParallelTaskPurityRule().check_project(analysis)) == []


# ----------------------------------------------------------------------
# CLI: flow flags, exit codes, artifact schemas
# ----------------------------------------------------------------------
IO_ONLY = """
    def report(x):
        print(x)
"""


def test_effects_out_schema(tmp_path, capsys):
    path = write(tmp_path, "repro/analysis/rep.py", IO_ONLY)
    out = tmp_path / "effects.json"
    assert main([str(path), "--effects-out", str(out)]) == EXIT_CLEAN
    data = json.loads(out.read_text())
    assert data["version"] == EFFECTS_SCHEMA_VERSION
    assert data["functions"] == {"repro.analysis.rep.report": ["io"]}
    assert data["totals"]["io"] == 1


def test_effects_check_clean_then_drift(tmp_path, capsys):
    path = write(tmp_path, "repro/analysis/rep.py", IO_ONLY)
    baseline = tmp_path / "effects-baseline.json"
    assert main([str(path), "--effects-out", str(baseline)]) == EXIT_CLEAN
    capsys.readouterr()

    # Unchanged tree: no drift.
    assert main([str(path), "--effects-check", str(baseline)]) == EXIT_CLEAN

    # Add a wall-clock effect: drift is reported and fails the run.
    write(
        tmp_path,
        "repro/analysis/rep.py",
        """
        import time

        def report(x):
            print(x, time.time())
        """,
    )
    capsys.readouterr()
    assert main([str(path), "--effects-check", str(baseline)]) == (
        EXIT_FINDINGS
    )
    out = capsys.readouterr().out
    assert "effects drift" in out
    assert "repro.analysis.rep.report" in out


def test_callgraph_dot_and_jsonl_dumps(tmp_path):
    deep_fixture(tmp_path)
    dot = tmp_path / "graph.dot"
    assert main([str(tmp_path), "--callgraph", str(dot)]) == EXIT_FINDINGS
    text = dot.read_text()
    assert text.startswith("digraph")
    assert "repro.analysis.helpers.helper_b" in text

    jsonl = tmp_path / "graph.jsonl"
    main([str(tmp_path), "--callgraph", str(jsonl)])
    records = [json.loads(line) for line in jsonl.read_text().splitlines()]
    nodes = [r for r in records if r.get("record") == "node"]
    edges = [r for r in records if r.get("record") == "edge"]
    assert any(
        n["qname"] == "repro.core.proto.run_round" and n["protocol"]
        for n in nodes
    )
    assert any(
        e["caller"].endswith("helper_a") and e["callee"].endswith("helper_b")
        for e in edges
    )


def test_no_flow_skips_interprocedural_findings(tmp_path):
    deep_fixture(tmp_path)
    assert main([str(tmp_path)]) == EXIT_FINDINGS
    assert main([str(tmp_path), "--no-flow"]) == EXIT_CLEAN


def test_no_flow_conflicts_with_flow_artifacts(tmp_path):
    path = write(tmp_path, "repro/analysis/rep.py", IO_ONLY)
    with pytest.raises(SystemExit):
        main([str(path), "--no-flow", "--effects-out", str(tmp_path / "e.json")])


def test_relaxed_profile_drops_doc_rules_keeps_determinism(tmp_path, capsys):
    # An undocumented function in a documented package plus a global
    # draw: relaxed drops the docstring finding, keeps the rng one.
    write(
        tmp_path,
        "repro/obs/script_like.py",
        """
        \"\"\"A documented module with an undocumented function.\"\"\"

        import numpy as np

        def run():
            return np.random.random()
        """,
    )
    assert main([str(tmp_path)]) == EXIT_FINDINGS
    default_out = capsys.readouterr().out
    assert "[docstring-coverage]" in default_out
    assert "[no-unseeded-rng]" in default_out

    assert main([str(tmp_path), "--profile", "relaxed"]) == EXIT_FINDINGS
    relaxed_out = capsys.readouterr().out
    assert "[docstring-coverage]" not in relaxed_out
    assert "[no-unseeded-rng]" in relaxed_out
