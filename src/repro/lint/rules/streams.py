"""Rules ``rng-stream-discipline`` and ``parallel-task-purity``.

Both rules are statements about the *parallel* determinism contract:
:class:`repro.parallel.pool.WorkerPool` promises byte-identical results
between ``process`` and ``inline`` modes, which only holds when the
work crossing the submission boundary is a pure function of its task
payload.

``rng-stream-discipline`` enforces the repository's stream topology:

* no module-level ``Generator`` bindings — a stream constructed at
  import time is process-global state whose consumption order depends
  on import order and sharing, not on the scenario seed (local check);
* no ``Generator`` object may cross a ``WorkerPool`` submission
  boundary unless it came from a per-task ``spawn_rngs`` split — a
  *shared* stream consumed by N workers interleaves differently under
  process and inline execution, silently breaking digest identity
  (interprocedural check over the flow analysis's submission registry).
  The positive pattern is the one :class:`repro.parallel.TrialExecutor`
  uses: no stream crosses at all.  Each task carries an integer seed
  (from ``spawn_trial_seeds`` or the experiment's seed schedule) and the
  trial builds its own generator from it inside the worker.  A child
  stream from ``spawn_rngs(seed, n)``, one per task, is also accepted.

``parallel-task-purity`` closes the loop on the *callable*: anything
submitted to ``map_ordered`` must be effect-closed under the flow
lattice — transitively free of wall-clock reads, I/O, global mutation,
nested forking, unordered iteration, and global/ambient RNG draws.
Draws from generators the task *receives in its payload* (parameters,
per-task spawns) are fine; draws from module globals, closures or
instance attributes are not, because that state is re-imported fresh
in worker processes but shared in inline mode.  Lambdas and
statically-unresolvable callables are rejected outright — the analysis
cannot prove anything about them, and the conservative direction is to
require a named module-level task function.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.lint.engine import FileContext, Finding, Severity
from repro.lint.rules.base import Rule, dotted_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.flow.analysis import FlowAnalysis

#: Transitive site kinds that disqualify a submitted callable.
#: ``rng-consume`` itself is *not* here: drawing from a payload stream
#: is the sanctioned per-task pattern.  The refinements are.
FORBIDDEN_TASK_KINDS = frozenset(
    {
        "ambient-rng",
        "fork",
        "global-mutation",
        "global-rng",
        "io",
        "unordered-iteration",
        "wall-clock",
    }
)

#: Callable names recognised as Generator factories (mirrors
#: :data:`repro.lint.flow.callgraph.GENERATOR_FACTORIES`, duplicated to
#: keep the local check importable without the flow package).
_FACTORY_NAMES = frozenset({"ensure_rng", "default_rng"})


class RngStreamDisciplineRule(Rule):
    """Every Generator traces to a per-run SeedSequence spawn."""

    name = "rng-stream-discipline"
    severity = Severity.ERROR
    description = (
        "Generators must trace to a per-run SeedSequence spawn: no "
        "module-level streams, and none crossing a WorkerPool boundary "
        "unless spawned per-task via spawn_rngs"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Flag module-level Generator bindings (import-time streams)."""
        for node in ctx.tree.body:
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            if not isinstance(value, ast.Call):
                continue
            chain = dotted_name(value.func)
            if not chain or chain[-1] not in _FACTORY_NAMES:
                continue
            names = ", ".join(
                t.id for t in node.targets if isinstance(t, ast.Name)
            )
            yield ctx.finding(
                self,
                node,
                f"module-level Generator binding '{names}' is process-global "
                "state consumed in import/sharing order; construct streams "
                "inside the entry point and thread them explicitly",
            )

    def check_project(self, analysis: "FlowAnalysis") -> Iterator[Finding]:
        """Flag shared streams crossing a WorkerPool submission boundary."""
        for sub in analysis.submissions():
            if sub.shared_stream_origin is None:
                continue
            fn = analysis.function(sub.caller)
            if fn is None:
                continue
            yield Finding(
                rule=self.name,
                path=fn.rel_path,
                line=sub.line,
                column=0,
                severity=self.severity,
                message=(
                    f"a {sub.shared_stream_origin} Generator crosses the "
                    f"WorkerPool submission boundary in '{sub.caller}'; "
                    "shared streams interleave differently between process "
                    "and inline modes — spawn one child stream per task via "
                    "repro.util.rng.spawn_rngs"
                ),
            )


class ParallelTaskPurityRule(Rule):
    """Callables submitted to the worker pool must be effect-closed."""

    name = "parallel-task-purity"
    severity = Severity.ERROR
    description = (
        "callables submitted to repro.parallel.pool must be effect-closed "
        "(no transitive wall-clock/io/global-mutation/fork/unordered-"
        "iteration/ambient-rng), proving process == inline digests"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """No per-file component; the rule is purely interprocedural."""
        return
        yield  # pragma: no cover - makes the override a generator

    def check_project(self, analysis: "FlowAnalysis") -> Iterator[Finding]:
        """Verify every submitted callable's transitive effect closure."""
        for sub in analysis.submissions():
            fn = analysis.function(sub.caller)
            if fn is None:
                continue
            if sub.is_lambda:
                yield self._finding(
                    fn.rel_path,
                    sub.line,
                    "lambda submitted to WorkerPool.map_ordered; tasks must "
                    "be named module-level functions so their effect closure "
                    "is statically checkable",
                )
                continue
            if sub.callee is None:
                yield self._finding(
                    fn.rel_path,
                    sub.line,
                    f"cannot statically resolve submitted callable "
                    f"'{sub.callee_text}'; submit a named module-level "
                    "function so its effect closure is checkable",
                )
                continue
            forbidden = sorted(
                analysis.kinds_of(sub.callee) & FORBIDDEN_TASK_KINDS
            )
            if not forbidden:
                continue
            chain = analysis.chain_to(sub.callee, forbidden[0])
            rendered = (
                chain.render(analysis.site_path(chain.site))
                if chain is not None
                else sub.callee
            )
            yield self._finding(
                fn.rel_path,
                sub.line,
                f"submitted task '{sub.callee}' is not effect-closed "
                f"({', '.join(forbidden)}): {rendered}; process and inline "
                "pool modes can diverge",
            )

    def _finding(self, path: str, line: int, message: str) -> Finding:
        """A finding at an explicit submission-site location."""
        return Finding(
            rule=self.name,
            path=path,
            line=line,
            column=0,
            severity=self.severity,
            message=message,
        )
