"""Direct effect scanning and fixpoint propagation over the call graph.

Each function gets a set of *site kinds*: the six public lattice atoms
(:data:`EFFECT_ATOMS`) plus three internal refinements that the
interprocedural rules key on:

* ``global-rng`` — a draw from process-global randomness (stdlib
  ``random`` or the ``numpy.random`` module-level state), refining
  ``rng-consume``.  Forbidden everywhere outside ``repro.util.rng``.
* ``ambient-rng`` — a draw from a Generator the function did not
  receive as a parameter or spawn locally (module-global, closure, or
  instance-attribute stream), refining ``rng-consume``.  Legal in
  ordinary code, forbidden in callables crossing a ``WorkerPool``
  boundary, where ambient streams diverge between process and inline
  modes.
* ``unbounded-loop`` — a ``while`` with a truthy-constant test (the
  ``bounded-retry`` reachability target; not part of the public
  lattice because a loop is control flow, not an environment effect).

Direct sites come from a single AST walk per function (reusing the
import-detection helpers of the local rules, so local and transitive
verdicts can never disagree about what counts as a clock or a global
RNG).  Propagation condenses the call graph's strongly connected
components (Tarjan) and folds callee kinds into callers in reverse
topological order — one linear pass, no iteration to fixpoint needed
after condensation.

Barrier modules — ``repro.obs.*`` and ``repro.util.rng`` — are pinned
to the empty effect set: they are the sanctioned *owners* of clocks,
sinks and Generator construction, and propagating their internals
would (correctly but uselessly) taint every instrumented function in
the tree.  The pin is the analysis's one deliberate unsoundness and is
documented in ``docs/static_analysis.md``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from repro.lint.rules.base import dotted_name
from repro.lint.rules.rng import NoUnseededRngRule, _NUMPY_TYPE_NAMES
from repro.lint.rules.wallclock import _CLOCK_FUNCS, _DATETIME_FUNCS, NoWallclockRule

from repro.lint.flow.callgraph import FunctionInfo, Project

#: The public effect lattice, sorted.  A function's transitive effect
#: set is a subset of these atoms; the empty set means "effect-closed".
EFFECT_ATOMS: tuple[str, ...] = (
    "fork",
    "global-mutation",
    "io",
    "rng-consume",
    "unordered-iteration",
    "wall-clock",
)

#: Every propagated site kind: the lattice plus internal refinements.
SITE_KINDS: tuple[str, ...] = (
    *EFFECT_ATOMS,
    "ambient-rng",
    "global-rng",
    "unbounded-loop",
)

#: Kinds that refine ``rng-consume`` (a site of these carries both).
_RNG_REFINEMENTS = frozenset({"ambient-rng", "global-rng"})

#: Generator origins whose draws count as *ambient* (the stream is not
#: part of the function's explicit inputs).
AMBIENT_ORIGINS = frozenset({"module-global", "closure", "attribute"})

#: numpy Generator methods that consume stream state when called on a
#: known Generator binding.  Construction/plumbing (``spawn``,
#: ``bit_generator``) deliberately excluded.
DRAW_METHODS = frozenset(
    {
        "beta",
        "binomial",
        "bytes",
        "chisquare",
        "choice",
        "dirichlet",
        "exponential",
        "f",
        "gamma",
        "geometric",
        "gumbel",
        "integers",
        "laplace",
        "logistic",
        "lognormal",
        "multinomial",
        "multivariate_normal",
        "normal",
        "pareto",
        "permutation",
        "permuted",
        "poisson",
        "random",
        "shuffle",
        "standard_cauchy",
        "standard_exponential",
        "standard_gamma",
        "standard_normal",
        "triangular",
        "uniform",
        "vonmises",
        "wald",
        "weibull",
        "zipf",
    }
)

#: Terminal attribute names whose call performs filesystem I/O.
#: ``write``/``read`` are deliberately excluded (too generic — domain
#: objects legitimately define them); ``pathlib`` verbs are specific.
_IO_METHODS = frozenset(
    {
        "fsync",
        "mkdir",
        "open",
        "read_bytes",
        "read_text",
        "rename",
        "replace",
        "rmdir",
        "touch",
        "unlink",
        "write_bytes",
        "write_text",
    }
)

#: Bare-name builtins that perform I/O.
_IO_BUILTINS = frozenset({"open", "print", "input"})

#: ``os.`` functions that fork the process.
_OS_FORK_FUNCS = frozenset({"fork", "forkpty", "posix_spawn", "system"})

#: Modules whose invocation implies process creation.
_FORK_MODULE_HEADS = frozenset({"multiprocessing", "subprocess"})

#: Module prefixes pinned to the empty effect set (see module docstring).
BARRIER_MODULE_PREFIXES: tuple[str, ...] = ("repro.obs",)
BARRIER_MODULES: frozenset[str] = frozenset({"repro.util.rng"})


def is_barrier_module(module: str) -> bool:
    """Whether ``module`` is an effect barrier (sanctioned effect owner)."""
    if module in BARRIER_MODULES:
        return True
    return any(
        module == p or module.startswith(p + ".")
        for p in BARRIER_MODULE_PREFIXES
    )


@dataclass(frozen=True, slots=True)
class EffectSite:
    """One concrete effect occurrence inside a function body."""

    qname: str  # owning function
    kind: str  # one of SITE_KINDS
    line: int  # 1-based source line
    detail: str  # human-readable description for findings

    @property
    def kinds(self) -> frozenset[str]:
        """The propagated kind set (refinements imply ``rng-consume``)."""
        if self.kind in _RNG_REFINEMENTS:
            return frozenset({self.kind, "rng-consume"})
        return frozenset({self.kind})


class _ModuleImports:
    """Per-module import facts shared by every function scan in it."""

    def __init__(self, tree: ast.Module) -> None:
        self.time_aliases, self.from_time = NoWallclockRule._time_imports(tree)
        self.random_aliases, self.from_random = (
            NoUnseededRngRule._random_imports(tree)
        )
        self.numpy_aliases = NoUnseededRngRule._numpy_aliases(tree)


def direct_sites(project: Project) -> dict[str, list[EffectSite]]:
    """Scan every project function for its *direct* effect sites.

    Barrier-module functions come back with an empty site list; every
    other function gets its sites in source order.
    """
    imports_by_module: dict[str, _ModuleImports] = {}
    out: dict[str, list[EffectSite]] = {}
    for qname in sorted(project.functions):
        fn = project.functions[qname]
        if is_barrier_module(fn.module):
            out[qname] = []
            continue
        imports = imports_by_module.get(fn.module)
        if imports is None:
            imports = _ModuleImports(project.binders[fn.module].ctx.tree)
            imports_by_module[fn.module] = imports
        out[qname] = sorted(
            _scan_function(fn, imports), key=lambda s: (s.line, s.kind)
        )
    return out


def _scan_function(
    fn: FunctionInfo, imports: _ModuleImports
) -> Iterator[EffectSite]:
    """Yield every direct effect site in one function's own scope."""
    for node in _own_scope(fn.node):
        if isinstance(node, ast.Global):
            yield EffectSite(
                qname=fn.qname,
                kind="global-mutation",
                line=node.lineno,
                detail=f"'global {', '.join(node.names)}' statement",
            )
        elif isinstance(node, ast.While) and _truthy_constant(node.test):
            yield EffectSite(
                qname=fn.qname,
                kind="unbounded-loop",
                line=node.lineno,
                detail="'while True' loop with no static bound",
            )
        elif isinstance(node, ast.Call):
            yield from _scan_call(fn, node, imports)


def _own_scope(
    fn_node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.AST]:
    """Walk a function body without entering nested def/class scopes."""
    stack: list[ast.AST] = list(fn_node.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _truthy_constant(test: ast.expr) -> bool:
    """Whether a loop test is a constant that always evaluates true."""
    return isinstance(test, ast.Constant) and bool(test.value)


def _scan_call(
    fn: FunctionInfo, node: ast.Call, imports: _ModuleImports
) -> Iterator[EffectSite]:
    """Classify one call expression into zero or more effect sites."""
    chain = dotted_name(node.func)
    if not chain:
        return
    text = ".".join(chain)
    line = node.lineno
    # -- wall clock ------------------------------------------------------
    if (
        len(chain) == 2
        and chain[0] in imports.time_aliases
        and chain[1] in _CLOCK_FUNCS
    ) or (len(chain) == 1 and chain[0] in imports.from_time):
        yield EffectSite(fn.qname, "wall-clock", line, f"clock read {text}()")
        return
    if chain[-1] in _DATETIME_FUNCS and "datetime" in chain:
        yield EffectSite(
            fn.qname, "wall-clock", line, f"datetime clock read {text}()"
        )
        return
    # -- process-global RNG ---------------------------------------------
    if (chain[0] in imports.random_aliases and len(chain) > 1) or (
        len(chain) == 1 and chain[0] in imports.from_random
    ):
        yield EffectSite(
            fn.qname, "global-rng", line, f"stdlib random call {text}()"
        )
        return
    if (
        len(chain) >= 3
        and chain[0] in imports.numpy_aliases
        and chain[1] == "random"
        and chain[2] not in _NUMPY_TYPE_NAMES
    ):
        yield EffectSite(
            fn.qname, "global-rng", line, f"numpy.random global call {text}()"
        )
        return
    # -- Generator draws -------------------------------------------------
    if len(chain) >= 2 and chain[-1] in DRAW_METHODS:
        receiver = ".".join(chain[:-1])
        origin = fn.generator_origins.get(receiver)
        if origin is not None:
            kind = "ambient-rng" if origin in AMBIENT_ORIGINS else "rng-consume"
            yield EffectSite(
                fn.qname,
                kind,
                line,
                f"draw {text}() from {origin} Generator '{receiver}'",
            )
            return
    # -- I/O -------------------------------------------------------------
    if len(chain) == 1 and chain[0] in _IO_BUILTINS:
        yield EffectSite(fn.qname, "io", line, f"builtin {text}() call")
        return
    if len(chain) >= 2 and chain[-1] in _IO_METHODS:
        yield EffectSite(fn.qname, "io", line, f"filesystem call {text}()")
        return
    # -- fork ------------------------------------------------------------
    if len(chain) == 2 and chain[0] == "os" and chain[1] in _OS_FORK_FUNCS:
        yield EffectSite(fn.qname, "fork", line, f"process spawn {text}()")
        return
    if chain[-1] == "ProcessPoolExecutor" or (
        len(chain) >= 2 and chain[0] in _FORK_MODULE_HEADS
    ):
        yield EffectSite(fn.qname, "fork", line, f"process spawn {text}()")


def call_adjacency(project: Project) -> dict[str, tuple[str, ...]]:
    """Deterministic successor lists over non-barrier project functions.

    Ref and decorator edges are included alongside plain calls — a held
    reference is conservatively assumed invocable.  Edges into barrier
    modules are dropped (their effects are pinned empty anyway).
    """
    adjacency: dict[str, tuple[str, ...]] = {}
    for qname in sorted(project.functions):
        fn = project.functions[qname]
        if is_barrier_module(fn.module):
            adjacency[qname] = ()
            continue
        callees = {
            site.callee
            for site in fn.calls
            if site.callee in project.functions
            and not is_barrier_module(project.functions[site.callee].module)
        }
        adjacency[qname] = tuple(sorted(callees))
    return adjacency


def propagate(
    project: Project, direct: Mapping[str, Sequence[EffectSite]]
) -> dict[str, frozenset[str]]:
    """Transitive kind sets per function, via SCC condensation.

    Tarjan's algorithm emits strongly connected components in reverse
    topological order of the condensation (callees before callers), so
    a single pass that unions each component's direct kinds with its
    out-neighbour components' settled kinds reaches the fixpoint.
    Barrier-module functions are excluded from propagation entirely.
    """
    adjacency = call_adjacency(project)
    result: dict[str, frozenset[str]] = {}
    for component in _tarjan_sccs(adjacency):
        kinds: set[str] = set()
        for qname in component:
            for site in direct.get(qname, ()):
                kinds.update(site.kinds)
            for callee in adjacency[qname]:
                kinds.update(result.get(callee, frozenset()))
        settled = frozenset(kinds)
        for qname in component:
            result[qname] = settled
    return result


def _tarjan_sccs(
    adjacency: Mapping[str, tuple[str, ...]]
) -> Iterator[tuple[str, ...]]:
    """Tarjan's SCC algorithm, iterative, deterministic node order.

    Components are yielded in reverse topological order of the
    condensation: every out-neighbour of a component's members lies in
    an already-yielded component (or the component itself).
    """
    index: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = 0
    for root in sorted(adjacency):
        if root in index:
            continue
        # Iterative DFS: (node, iterator position into its adjacency).
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            node, pos = work.pop()
            if pos == 0:
                index[node] = lowlink[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            recursed = False
            neighbours = adjacency[node]
            for i in range(pos, len(neighbours)):
                succ = neighbours[i]
                if succ not in index:
                    work.append((node, i + 1))
                    work.append((succ, 0))
                    recursed = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if recursed:
                continue
            if lowlink[node] == index[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                yield tuple(sorted(component))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return
