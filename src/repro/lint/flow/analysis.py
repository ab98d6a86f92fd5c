"""The :class:`FlowAnalysis` facade the lint engine builds once per run.

It ties the three flow layers together: construct the
:class:`~repro.lint.flow.callgraph.Project`, scan direct effect sites
(:func:`~repro.lint.flow.effects.direct_sites`), fold in
unordered-iteration sites from the local iteration rule's scanner, and
propagate everything transitively.  Interprocedural rules consume the
result through three queries:

* :meth:`FlowAnalysis.effects_of` / :meth:`FlowAnalysis.kinds_of` —
  the settled transitive effect set of one function;
* :meth:`FlowAnalysis.chain_to` — a shortest offending call chain from
  a function to a direct site of a given kind (BFS over sorted
  successor lists, so the chain reported is deterministic);
* :meth:`FlowAnalysis.protocol_frontier` — the *frontier* findings the
  upgraded determinism rules print: a protocol function is flagged for
  kind ``K`` only when it reaches a ``K``-site through a chain lying
  entirely in non-protocol code.  Direct sites in protocol modules are
  already the local rules' findings, and flagging every transitive
  ancestor inside the protocol would report one leak hundreds of
  times; the frontier names exactly the functions where determinism
  responsibility crosses the package boundary.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.lint.engine import FileContext
from repro.lint.flow.callgraph import FunctionInfo, PoolSubmission, Project
from repro.lint.flow.effects import (
    EFFECT_ATOMS,
    EffectSite,
    call_adjacency,
    direct_sites,
    is_barrier_module,
    propagate,
)


@dataclass(frozen=True, slots=True)
class CallChain:
    """A concrete path from a function to a direct effect site.

    ``functions`` runs caller-first and ends at the function owning
    ``site``; a single-element chain means the site is direct.
    """

    functions: tuple[str, ...]
    site: EffectSite

    def render(self, site_path: str) -> str:
        """The ``a -> b -> c`` rendering used in finding messages."""
        arrow = " -> ".join(self.functions)
        return f"{arrow} [{self.site.detail} at {site_path}:{self.site.line}]"


class FlowAnalysis:
    """Project-wide call graph + transitive effects, built once per run."""

    def __init__(self, contexts: Sequence[FileContext]) -> None:
        """Build the full analysis from the run's parsed file contexts."""
        self.contexts: dict[str, FileContext] = {
            ctx.rel_path: ctx for ctx in contexts
        }
        self.project = Project(list(contexts))
        self.direct: dict[str, list[EffectSite]] = direct_sites(self.project)
        self._inject_unordered_iteration()
        self.adjacency: dict[str, tuple[str, ...]] = call_adjacency(
            self.project
        )
        self.transitive: dict[str, frozenset[str]] = propagate(
            self.project, self.direct
        )

    # -- construction helpers ---------------------------------------------
    def _inject_unordered_iteration(self) -> None:
        """Fold the iteration rule's site scan into the direct-site map.

        The local rule only *reports* in protocol modules; as an effect
        source it applies everywhere (a helper in ``repro.analysis``
        folding a set still corrupts a protocol caller's determinism),
        so the gate-free :meth:`NoUnorderedIterationRule.scan` runs on
        every non-barrier file and each hit is attributed to the
        innermost enclosing function.
        """
        from repro.lint.rules.iteration import NoUnorderedIterationRule

        rule = NoUnorderedIterationRule()
        spans = self._function_spans()
        for rel_path in sorted(self.contexts):
            ctx = self.contexts[rel_path]
            if is_barrier_module(ctx.module):
                continue
            for finding in rule.scan(ctx):
                owner = self._innermost(spans.get(ctx.module, []), finding.line)
                if owner is None:
                    continue
                self.direct[owner].append(
                    EffectSite(
                        qname=owner,
                        kind="unordered-iteration",
                        line=finding.line,
                        detail="order-sensitive iteration over a set",
                    )
                )
        for qname in self.direct:
            self.direct[qname].sort(key=lambda s: (s.line, s.kind))

    def _function_spans(
        self,
    ) -> dict[str, list[tuple[int, int, str]]]:
        """Per-module ``(start, end, qname)`` line spans, innermost-last."""
        spans: dict[str, list[tuple[int, int, str]]] = {}
        for qname in sorted(self.project.functions):
            fn = self.project.functions[qname]
            node = fn.node
            end = getattr(node, "end_lineno", node.lineno) or node.lineno
            spans.setdefault(fn.module, []).append((node.lineno, end, qname))
        return spans

    @staticmethod
    def _innermost(
        spans: list[tuple[int, int, str]], line: int
    ) -> str | None:
        """The qname of the smallest function span containing ``line``."""
        best: tuple[int, str] | None = None
        for start, end, qname in spans:
            if start <= line <= end:
                size = end - start
                if best is None or size < best[0]:
                    best = (size, qname)
        return best[1] if best is not None else None

    # -- queries ------------------------------------------------------------
    def function(self, qname: str) -> FunctionInfo | None:
        """The :class:`FunctionInfo` for ``qname``, if it exists."""
        return self.project.functions.get(qname)

    def kinds_of(self, qname: str) -> frozenset[str]:
        """The transitive *site kind* set of a function (refinements in)."""
        return self.transitive.get(qname, frozenset())

    def effects_of(self, qname: str) -> frozenset[str]:
        """The transitive public effect set (lattice atoms only)."""
        return self.kinds_of(qname) & frozenset(EFFECT_ATOMS)

    def site_path(self, site: EffectSite) -> str:
        """The repo-relative path of the file owning ``site``."""
        fn = self.project.functions.get(site.qname)
        return fn.rel_path if fn is not None else "<unknown>"

    def chain_to(
        self,
        start: str,
        kind: str,
        *,
        protocol_ok: bool = True,
        include_start: bool = True,
    ) -> CallChain | None:
        """A shortest call chain from ``start`` to a ``kind`` site.

        BFS over sorted successor lists, so ties break deterministically.
        With ``protocol_ok=False``, nodes past ``start`` (intermediates
        *and* the site holder) must live outside protocol packages —
        the frontier restriction.  With ``include_start=False``,
        ``start``'s own direct sites do not terminate the search.
        """
        if start not in self.project.functions:
            return None
        prev: dict[str, str | None] = {start: None}
        queue: deque[str] = deque([start])
        while queue:
            node = queue.popleft()
            if node != start or include_start:
                for site in self.direct.get(node, ()):
                    if kind in site.kinds:
                        chain: list[str] = []
                        cursor: str | None = node
                        while cursor is not None:
                            chain.append(cursor)
                            cursor = prev[cursor]
                        return CallChain(tuple(reversed(chain)), site)
            for callee in self.adjacency.get(node, ()):
                if callee in prev:
                    continue
                if (
                    not protocol_ok
                    and self.project.functions[callee].is_protocol
                ):
                    continue
                prev[callee] = node
                queue.append(callee)
        return None

    def protocol_frontier(
        self, kind: str
    ) -> Iterator[tuple[FunctionInfo, CallChain]]:
        """Protocol functions reaching ``kind`` only through outside code.

        Skips functions holding a direct ``kind`` site (the local rule's
        territory) and yields ``(function, chain)`` in qname order.
        """
        for qname in sorted(self.project.functions):
            fn = self.project.functions[qname]
            if not fn.is_protocol:
                continue
            if kind not in self.kinds_of(qname):
                continue
            if any(kind in s.kinds for s in self.direct.get(qname, ())):
                continue
            chain = self.chain_to(
                qname, kind, protocol_ok=False, include_start=False
            )
            if chain is not None:
                yield fn, chain

    def submissions(self) -> list[PoolSubmission]:
        """Every WorkerPool submission site, in deterministic order."""
        return list(self.project.submissions())

    def context_for(self, rel_path: str) -> FileContext | None:
        """The parsed file context for a repo-relative path, if linted."""
        return self.contexts.get(rel_path)
