"""Rule ``obs-span-coverage``: phase entry points emit trace telemetry.

PR 1's observability layer is only trustworthy if the protocol phases
actually report through it — a phase that silently stops emitting spans
turns the per-phase cost accounting (and every figure derived from it)
into stale fiction.  This rule pins the instrumentation down statically
in two parts:

**Registry check.**  Every public phase entry point of ``repro.core``
must exist and be instrumented.  The registry below maps core modules
to the callables that constitute the protocol's phase surface; each
must reference a tracer (a ``tracer`` parameter or ``self.tracer``)
*and* emit (`.span(...)`/`.event(...)`) or delegate the tracer onward.

**Plumbing check.**  Any function in ``repro.core`` that accepts a
``tracer`` parameter must use it — emit through it, guard on
``tracer.enabled``, or pass it along to a callee.  Accepting a tracer
and dropping it on the floor is how span gaps are born.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileContext, Finding, Severity
from repro.lint.rules.base import Rule, iter_function_defs, walk_body

#: module basename -> function/method names forming the phase surface.
#: The ``lbi`` entries and ``reference``'s ``VSASweep.run`` are the
#: object-walk reference kernels; ``LoadBalancer._fold_lbi``,
#: ``_sweep_vsa`` and ``classify_arrays`` are the array kernels every
#: balancing round runs, and ``LoadBalancer._balance`` opens the round
#: and phase spans that time them.
PHASE_ENTRY_POINTS: dict[str, frozenset[str]] = {
    "balancer": frozenset({"run_round", "_balance", "_fold_lbi", "_sweep_vsa"}),
    "lbi": frozenset({"collect_lbi_reports", "aggregate_lbi"}),
    "classification": frozenset({"classify_all", "classify_arrays"}),
    "reference": frozenset({"run"}),
    "vst": frozenset({"execute_transfers"}),
}

_EMIT_METHODS = frozenset({"span", "event"})


class ObsSpanCoverageRule(Rule):
    """Require tracer instrumentation on core phase entry points."""

    name = "obs-span-coverage"
    severity = Severity.ERROR
    description = (
        "core phase entry points must emit tracer spans/events; any core "
        "function accepting a tracer must use or forward it"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield one finding per uninstrumented entry point or dropped tracer."""
        if not ctx.in_package("core"):
            return
        basename = ctx.package_parts[-1]
        required = PHASE_ENTRY_POINTS.get(basename, frozenset())
        seen: set[str] = set()
        for fn, owner in iter_function_defs(ctx.tree):
            takes_tracer = any(
                arg.arg == "tracer"
                for arg in [
                    *fn.args.posonlyargs,
                    *fn.args.args,
                    *fn.args.kwonlyargs,
                ]
            )
            reads_self_tracer = self._reads_self_tracer(fn)
            uses = self._uses_tracer(fn)
            if fn.name in required:
                seen.add(fn.name)
                where = f"{owner.name}.{fn.name}" if owner is not None else fn.name
                if not (takes_tracer or reads_self_tracer):
                    yield ctx.finding(
                        self,
                        fn,
                        f"phase entry point {where} has no tracer source "
                        "(no tracer parameter and no self.tracer read)",
                    )
                elif not uses:
                    yield ctx.finding(
                        self,
                        fn,
                        f"phase entry point {where} never emits a span/event "
                        "or forwards its tracer",
                    )
            elif takes_tracer and not uses:
                where = f"{owner.name}.{fn.name}" if owner is not None else fn.name
                yield ctx.finding(
                    self,
                    fn,
                    f"{where} accepts a tracer parameter but never uses or "
                    "forwards it",
                )
        for missing in sorted(required - seen):
            yield ctx.finding(
                self,
                None,
                f"expected phase entry point {missing}() not found in "
                f"{ctx.module} (update PHASE_ENTRY_POINTS if it moved)",
            )

    # ------------------------------------------------------------------
    @staticmethod
    def _reads_self_tracer(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        for node in walk_body(fn.body):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "tracer"
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                return True
        return False

    @staticmethod
    def _uses_tracer(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        """Emit through a tracer, guard on it, or pass one to a callee.

        Accepts any ``X.span(...)``/``X.event(...)`` call, any read of
        ``X.enabled``/binding of a tracer-ish name, or ``tracer`` /
        ``self.tracer`` appearing as a call argument (delegation) or an
        assignment source (re-binding before use).
        """
        for node in walk_body(fn.body):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and func.attr in _EMIT_METHODS:
                    return True
                for arg in [*node.args, *[kw.value for kw in node.keywords]]:
                    if ObsSpanCoverageRule._is_tracer_ref(arg):
                        return True
            elif isinstance(node, ast.Assign):
                if ObsSpanCoverageRule._is_tracer_ref(node.value):
                    return True
        return False

    @staticmethod
    def _is_tracer_ref(node: ast.expr) -> bool:
        if isinstance(node, ast.IfExp):
            return ObsSpanCoverageRule._is_tracer_ref(
                node.body
            ) or ObsSpanCoverageRule._is_tracer_ref(node.orelse)
        if isinstance(node, ast.BoolOp):
            return any(ObsSpanCoverageRule._is_tracer_ref(v) for v in node.values)
        if isinstance(node, ast.Name) and node.id == "tracer":
            return True
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "tracer"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("self", "balancer")
        )
