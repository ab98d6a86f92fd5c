"""Rule ``no-wallclock-in-protocol``: protocol code never reads the clock.

The balancing protocol's behaviour must be a pure function of the
scenario seed; a wall-clock read in ``core``/``dht``/``ktree``/``sim``
is either dead weight or — far worse — a hidden input that makes runs
unrepeatable (e.g. a timing-dependent tie-break).  Measurement belongs
to the observability layer: :class:`repro.obs.trace.Tracer` spans own
``time.perf_counter`` (they time a block whether or not tracing is on)
and expose timings without letting them feed back into protocol
decisions.

Flagged in protocol modules:

* calls to ``time.time`` / ``time.perf_counter`` / ``time.monotonic`` /
  ``time.process_time`` / ``time.time_ns`` (and ``_ns`` variants),
  whether accessed as ``time.X()`` or imported by name;
* calls to ``datetime.now`` / ``datetime.utcnow``.

Interprocedurally (the ``check_project`` pass over the flow analysis),
the rule also flags protocol functions that *reach* a clock read
through a chain of non-protocol helpers — the frontier where
determinism responsibility leaks out of the protocol packages — with
the offending call chain in the message.  ``repro.obs`` is the
sanctioned clock owner and is an effect barrier (see
:mod:`repro.lint.flow.effects`).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.lint.engine import FileContext, Finding, Severity
from repro.lint.rules.base import Rule, dotted_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.flow.analysis import FlowAnalysis

_CLOCK_FUNCS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
)

_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})


class NoWallclockRule(Rule):
    """Forbid wall-clock reads in protocol packages."""

    name = "no-wallclock-in-protocol"
    severity = Severity.ERROR
    description = (
        "time.time/perf_counter/monotonic are forbidden in core/dht/ktree/sim; "
        "route timing through repro.obs Tracer spans"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield one finding per clock read in a protocol module."""
        if not ctx.is_protocol:
            return
        time_aliases, from_time = self._time_imports(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_name(node.func)
            if not chain:
                continue
            if (
                len(chain) == 2
                and chain[0] in time_aliases
                and chain[1] in _CLOCK_FUNCS
            ):
                yield ctx.finding(
                    self,
                    node,
                    f"wall-clock read {'.'.join(chain)}() in protocol code; "
                    "time the block with a repro.obs Tracer span",
                )
            elif len(chain) == 1 and chain[0] in from_time:
                yield ctx.finding(
                    self,
                    node,
                    f"wall-clock read {chain[0]}() (imported from time) in "
                    "protocol code; time the block with a repro.obs Tracer span",
                )
            elif chain[-1] in _DATETIME_FUNCS and "datetime" in chain:
                yield ctx.finding(
                    self,
                    node,
                    f"datetime clock read {'.'.join(chain)}() in protocol code",
                )

    def check_project(self, analysis: "FlowAnalysis") -> Iterator[Finding]:
        """Flag protocol functions transitively reaching a clock read."""
        for fn, chain in analysis.protocol_frontier("wall-clock"):
            ctx = analysis.context_for(fn.rel_path)
            if ctx is None:
                continue
            yield ctx.finding(
                self,
                fn.node,
                f"protocol function '{fn.qname}' transitively reaches a "
                f"wall-clock read: {chain.render(analysis.site_path(chain.site))}; "
                "route timing through repro.obs Tracer spans",
            )

    @staticmethod
    def _time_imports(tree: ast.Module) -> tuple[set[str], set[str]]:
        """(aliases of the time module, clock names imported from it)."""
        aliases: set[str] = set()
        names: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        aliases.add(alias.asname or "time")
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in _CLOCK_FUNCS:
                        names.add(alias.asname or alias.name)
        return aliases, names
