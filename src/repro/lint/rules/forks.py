"""Rule ``no-fork-in-protocol``: process management stays in one place.

A process-pool seed sweep gives the same results as an inline one
because of two structural guarantees: every worker process is driven
through :class:`repro.parallel.WorkerPool` (so inline and process
execution are interchangeable), and workers receive *all* of their
inputs explicitly through a picklable task (so no ambient rng, clock or
registry state leaks across the fork).  :class:`repro.parallel.TrialExecutor`
is the positive pattern: each trial's function and integer seed travel
in a frozen :class:`~repro.parallel.TrialTask` to the module-level
``run_trial_worker(task)``.  This rule enforces both guarantees
mechanically in the protocol packages:

* importing ``multiprocessing``, ``subprocess`` or ``concurrent.futures``
  is forbidden everywhere in protocol code except
  ``repro.parallel.pool``, the one sanctioned executor owner;
* calling ``os.fork``/``os.forkpty``/``os.spawn*`` is forbidden outright;
* constructing a ``ProcessPoolExecutor`` outside ``repro.parallel.pool``
  is forbidden even if the import slipped through an alias;
* worker entry points in ``repro.parallel`` (module-level functions
  named ``*_worker``) must take their work as an explicit first
  parameter named ``task``, ``seed``, ``seeds`` or ``rng`` — a worker
  signature that hides its inputs cannot be replayed deterministically.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileContext, Finding, Severity
from repro.lint.rules.base import Rule, dotted_name

#: Modules whose import into protocol code means process management is
#: happening outside the sanctioned pool abstraction.
_BANNED_MODULES = ("multiprocessing", "subprocess", "concurrent.futures")

#: The one module allowed to import executors and talk to the OS about
#: processes.
_POOL_MODULE = "repro.parallel.pool"

_OS_FORK_FUNCS = frozenset(
    {"fork", "forkpty", "spawnl", "spawnle", "spawnlp", "spawnlpe",
     "spawnv", "spawnve", "spawnvp", "spawnvpe", "posix_spawn"}
)

#: Acceptable names for a worker entry point's first parameter: the
#: explicit, picklable carrier of everything the worker may depend on.
_WORKER_FIRST_PARAMS = frozenset({"task", "seed", "seeds", "rng"})


class NoForkInProtocolRule(Rule):
    """Forbid ad-hoc process management in protocol packages."""

    name = "no-fork-in-protocol"
    severity = Severity.ERROR
    description = (
        "process management (multiprocessing/subprocess/executors/os.fork) "
        "is forbidden in protocol code outside repro.parallel.pool, and "
        "*_worker entry points must take explicit task/seed inputs"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield every process-management violation in a protocol module."""
        if not ctx.is_protocol:
            return
        is_pool = ctx.module == _POOL_MODULE
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                yield from self._check_import(
                    ctx, node, [alias.name for alias in node.names], is_pool
                )
            elif isinstance(node, ast.ImportFrom) and node.module is not None:
                yield from self._check_import(ctx, node, [node.module], is_pool)
            elif isinstance(node, ast.Call):
                yield from self._check_call(ctx, node, is_pool)
        if ctx.in_package("parallel"):
            yield from self._check_worker_signatures(ctx)

    def _check_import(
        self,
        ctx: FileContext,
        node: ast.AST,
        modules: list[str],
        is_pool: bool,
    ) -> Iterator[Finding]:
        if is_pool:
            return
        for module in modules:
            for banned in _BANNED_MODULES:
                if module == banned or module.startswith(banned + "."):
                    yield ctx.finding(
                        self,
                        node,
                        f"import of {module} in protocol code; process "
                        f"management belongs in {_POOL_MODULE} "
                        "(use repro.parallel.WorkerPool)",
                    )

    def _check_call(
        self, ctx: FileContext, node: ast.Call, is_pool: bool
    ) -> Iterator[Finding]:
        chain = dotted_name(node.func)
        if not chain:
            return
        if len(chain) == 2 and chain[0] == "os" and chain[1] in _OS_FORK_FUNCS:
            yield ctx.finding(
                self,
                node,
                f"os.{chain[1]}() in protocol code; processes are owned "
                f"by {_POOL_MODULE}",
            )
        elif chain[-1] == "ProcessPoolExecutor" and not is_pool:
            yield ctx.finding(
                self,
                node,
                "ProcessPoolExecutor constructed outside "
                f"{_POOL_MODULE}; use repro.parallel.WorkerPool",
            )

    def _check_worker_signatures(self, ctx: FileContext) -> Iterator[Finding]:
        """Module-level ``*_worker`` functions must take explicit inputs."""
        for node in ast.iter_child_nodes(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not node.name.endswith("_worker"):
                continue
            args = node.args.posonlyargs + node.args.args
            if not args or args[0].arg not in _WORKER_FIRST_PARAMS:
                got = args[0].arg if args else "nothing"
                yield ctx.finding(
                    self,
                    node,
                    f"worker entry point {node.name} takes {got!r} first; "
                    "workers must receive their inputs explicitly as "
                    "task/seed/seeds/rng (no ambient state across the fork)",
                )
