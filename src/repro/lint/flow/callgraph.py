"""Project-wide call-graph construction for the flow analysis.

The builder runs over every :class:`~repro.lint.engine.FileContext` in
one lint invocation and produces a :class:`Project`: per-module name
binders (imports, module-level defs, classes with attribute types) and
one :class:`FunctionInfo` per function/method — including nested
functions — holding that function's resolved outgoing call edges.

Resolution rules (documented in ``docs/static_analysis.md``):

* **imports** — ``import repro.core.vsa``, ``from repro.core import
  vsa``, ``from repro.core.vsa import run as r`` all bind local names
  to absolute dotted targets; a dotted call chain is resolved by
  substituting the binding and matching the longest known module
  prefix.  An import inside a function body binds in that function's
  scope (and the functions nested in it), shadowing the module's
  bindings there.
* **methods** — ``self.m()`` / ``cls.m()`` resolve through the
  enclosing class and its project-resolvable bases; ``obj.m()``
  resolves when ``obj``'s type is known from a parameter annotation, a
  local ``obj = ClassName(...)`` assignment, or a ``self.attr``
  assignment seen anywhere in the class (``IfExp`` branches are both
  tried, so ``self.pool = pool if pool else WorkerPool(...)`` types).
* **first-class references** — a name that resolves to a project
  function but appears outside call position (passed as an argument,
  stored, returned) contributes a conservative ``ref`` edge: the
  holder may invoke it.
* **decorators** — a decorated function gets an edge to each
  project-resolvable decorator, so wrapper effects propagate to every
  caller of the decorated name (decorated names themselves stay
  transparent call targets).

Anything else — external libraries, attribute calls on untyped
receivers, lambdas, callables smuggled through containers — resolves
to *no* edge.  That is an under-approximation by design; the trade-off
is catalogued in the docs.

The builder also records the two pieces of scope information the
stream/purity rules need: per-function generator bindings (which names
hold :class:`numpy.random.Generator` objects, and whether they came
from a per-task ``spawn_rngs`` split) and every ``WorkerPool``
submission site (``*.map_ordered(fn, tasks)``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.lint.engine import FileContext
from repro.lint.rules.base import dotted_name

#: Callable names recognised as sanctioned Generator factories.  They
#: are matched by terminal name (not import origin): the codebase has a
#: single definition of each, and matching by name keeps the analysis
#: robust to ``from repro.util.rng import ensure_rng as rng_of`` style
#: aliasing at the cost of a theoretical false match.
GENERATOR_FACTORIES = frozenset({"ensure_rng", "default_rng"})

#: Callable names producing a *list* of per-task generators.
GENERATOR_LIST_FACTORIES = frozenset({"spawn_rngs"})

#: Method name that marks a WorkerPool submission boundary.  Matched by
#: name with a typed-receiver fast path: ``repro.parallel.pool`` owns
#: the only ``map_ordered`` in the tree, and fixtures mimic it.
POOL_SUBMIT_METHODS = frozenset({"map_ordered"})


@dataclass(frozen=True, slots=True)
class CallSite:
    """One outgoing edge from a function.

    ``kind`` is ``"call"`` (direct invocation), ``"ref"`` (first-class
    reference — conservatively assumed callable by the holder) or
    ``"decorator"`` (wrapper applied to the owning function).
    """

    callee: str  # qualified name of the target function
    line: int  # 1-based line of the call/reference
    kind: str  # "call" | "ref" | "decorator"
    text: str  # the dotted source chain, for messages


@dataclass(frozen=True, slots=True)
class PoolSubmission:
    """One ``*.map_ordered(fn, tasks)`` site found in a function body."""

    caller: str  # qualified name of the submitting function
    callee: str | None  # resolved task function, None if unresolvable
    callee_text: str  # source text of the fn argument
    is_lambda: bool  # fn argument was a lambda expression
    line: int
    tasks: ast.expr | None  # the tasks argument expression, if present
    #: Origin of a shared (non-per-task) Generator embedded in the
    #: tasks argument, or None when the tasks expression is stream-free
    #: or every embedded generator came from a ``spawn_rngs`` split.
    shared_stream_origin: str | None = None


@dataclass
class ClassInfo:
    """One project class: its methods, bases and inferred attribute types."""

    qname: str
    module: str
    methods: dict[str, str] = field(default_factory=dict)  # name -> fn qname
    base_chains: list[tuple[str, ...]] = field(default_factory=list)
    bases: list[str] = field(default_factory=list)  # resolved class qnames
    attr_types: dict[str, str] = field(default_factory=dict)  # attr -> token


@dataclass
class FunctionInfo:
    """One function/method and everything the effect pass needs of it.

    ``generator_origins`` maps dotted receiver names (``"gen"``,
    ``"self.rng"``) to how the Generator got there: ``"param"``
    (annotated parameter), ``"ensured"`` (local ``ensure_rng`` result),
    ``"spawned"`` (element of a per-task ``spawn_rngs`` split),
    ``"attribute"`` (instance state), ``"module-global"`` or
    ``"closure"``.  ``generator_carriers`` maps names whose *value
    embeds* a non-spawned generator object (e.g. a task list built from
    a shared stream) to the embedded generator's origin.
    ``local_imports`` maps names bound by an ``import`` in the function
    body (or in an enclosing function) to absolute dotted targets.
    """

    qname: str
    module: str
    rel_path: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    cls: str | None  # owning class qname, if a method
    params: tuple[str, ...]
    is_protocol: bool
    calls: list[CallSite] = field(default_factory=list)
    submissions: list[PoolSubmission] = field(default_factory=list)
    generator_origins: dict[str, str] = field(default_factory=dict)
    generator_lists: set[str] = field(default_factory=set)
    generator_carriers: dict[str, str] = field(default_factory=dict)
    local_types: dict[str, str] = field(default_factory=dict)
    local_imports: dict[str, str] = field(default_factory=dict)

    @property
    def line(self) -> int:
        """The 1-based definition line (finding anchor)."""
        return self.node.lineno


class _ModuleBinder:
    """Name bindings of one module: imports, defs, classes, globals."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.module = ctx.module
        self.imports: dict[str, str] = {}  # local name -> absolute dotted
        self.functions: dict[str, str] = {}  # local name -> fn qname
        self.classes: dict[str, ClassInfo] = {}  # local name -> info
        self.module_generators: dict[str, int] = {}  # gen name -> def line
        self._collect()

    def _collect(self) -> None:
        for node in ast.iter_child_nodes(self.ctx.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                self.imports.update(_import_bindings(node))
            elif isinstance(node, ast.If) and dotted_name(node.test)[-1:] == (
                "TYPE_CHECKING",
            ):
                # Annotation-only imports: they type attributes, locals
                # and parameters like any other import.
                for child in node.body:
                    if isinstance(child, (ast.Import, ast.ImportFrom)):
                        self.imports.update(_import_bindings(child))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[node.name] = f"{self.module}.{node.name}"
            elif isinstance(node, ast.ClassDef):
                info = ClassInfo(
                    qname=f"{self.module}.{node.name}", module=self.module
                )
                for child in node.body:
                    if isinstance(
                        child, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        info.methods[child.name] = f"{info.qname}.{child.name}"
                    elif isinstance(child, ast.AnnAssign) and isinstance(
                        child.target, ast.Name
                    ):
                        if _annotation_mentions_generator(child.annotation):
                            info.attr_types[child.target.id] = "Generator"
                info.base_chains = [
                    chain
                    for base in node.bases
                    if (chain := dotted_name(base))
                ]
                self.classes[node.name] = info
            elif isinstance(node, ast.Assign):
                if _is_generator_factory_call(node.value):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self.module_generators[target.id] = node.lineno


def _import_bindings(
    node: ast.Import | ast.ImportFrom,
) -> Iterator[tuple[str, str]]:
    """The ``(local name, absolute dotted target)`` pairs an import binds."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            # `import a.b.c` binds `a`; `import a.b.c as x` binds x to
            # the full dotted path.
            yield local, alias.name if alias.asname else local
    elif node.module is not None and not node.level:
        # (relative imports are not used in-tree)
        for alias in node.names:
            yield alias.asname or alias.name, f"{node.module}.{alias.name}"


def _is_generator_factory_call(node: ast.expr) -> bool:
    """Whether ``node`` is a call to a recognised Generator factory."""
    if not isinstance(node, ast.Call):
        return False
    chain = dotted_name(node.func)
    return bool(chain) and chain[-1] in GENERATOR_FACTORIES


def _is_generator_list_call(node: ast.expr) -> bool:
    """Whether ``node`` is a call producing a list of spawned generators."""
    if not isinstance(node, ast.Call):
        return False
    chain = dotted_name(node.func)
    return bool(chain) and chain[-1] in GENERATOR_LIST_FACTORIES


def _annotation_mentions_generator(node: ast.expr | None) -> bool:
    """Whether a type annotation names ``Generator`` anywhere inside.

    Handles plain names, dotted forms (``np.random.Generator``), string
    annotations and unions — ``int | None | np.random.Generator`` counts,
    which is the conservative direction for rng tracking.
    """
    if node is None:
        return False
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return False
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id == "Generator":
            return True
        if isinstance(sub, ast.Attribute) and sub.attr == "Generator":
            return True
    return False


def _param_annotation(
    method: ast.FunctionDef | ast.AsyncFunctionDef, name: ast.expr
) -> ast.expr | None:
    """The annotation of the parameter ``name`` refers to, if any."""
    if not isinstance(name, ast.Name):
        return None
    for arg in [
        *method.args.posonlyargs,
        *method.args.args,
        *method.args.kwonlyargs,
    ]:
        if arg.arg == name.id:
            return arg.annotation
    return None


def _annotation_class_chain(node: ast.expr | None) -> tuple[str, ...] | None:
    """The dotted name ``T`` of a ``T``, ``T | None`` or ``Optional[T]``.

    A container (``dict[str, T]``) or a union of two types gives ``None``.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
        return _annotation_class_chain(node)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        sides = [
            side
            for side in (node.left, node.right)
            if not (isinstance(side, ast.Constant) and side.value is None)
        ]
        return _annotation_class_chain(sides[0]) if len(sides) == 1 else None
    if isinstance(node, ast.Subscript):
        if dotted_name(node.value)[-1:] == ("Optional",):
            return _annotation_class_chain(node.slice)
        return None
    return dotted_name(node) or None


class Project:
    """The resolved project: binders, classes and functions by name.

    Construction is a three-pass process — bind every module, resolve
    class bases and attribute types, then walk every function body for
    call edges — after which :attr:`functions` maps qualified names to
    :class:`FunctionInfo` and :meth:`edges` yields the call graph.
    """

    def __init__(self, contexts: Sequence[FileContext]) -> None:
        """Build the project from parsed file contexts (one lint run)."""
        self.binders: dict[str, _ModuleBinder] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        seen_modules: set[str] = set()
        ordered: list[_ModuleBinder] = []
        for ctx in sorted(contexts, key=lambda c: c.rel_path):
            module = ctx.module
            if module in seen_modules:
                # Two files outside a package root can map to the same
                # bare module name; suffix to keep qnames unique.
                suffix = 2
                while f"{module}#{suffix}" in seen_modules:
                    suffix += 1
                module = f"{module}#{suffix}"
                ctx.module = module
            seen_modules.add(module)
            binder = _ModuleBinder(ctx)
            self.binders[module] = binder
            ordered.append(binder)
        for binder in ordered:
            for info in binder.classes.values():
                self.classes[info.qname] = info
        for binder in ordered:
            self._resolve_bases(binder)
        for binder in ordered:
            self._infer_attr_types(binder)
        for binder in ordered:
            for fn_info in _FunctionWalker(self, binder).walk():
                self.functions[fn_info.qname] = fn_info

    # -- class resolution -------------------------------------------------
    def _resolve_bases(self, binder: _ModuleBinder) -> None:
        for info in binder.classes.values():
            for chain in info.base_chains:
                resolved = self.resolve_in_module(binder, chain)
                if resolved is not None and resolved[0] == "class":
                    info.bases.append(resolved[1])

    def _mro(self, class_qname: str) -> Iterator[ClassInfo]:
        """The class and its project-resolvable ancestors, depth-first."""
        seen: set[str] = set()
        stack = [class_qname]
        while stack:
            qname = stack.pop(0)
            if qname in seen:
                continue
            seen.add(qname)
            info = self.classes.get(qname)
            if info is None:
                continue
            yield info
            stack.extend(info.bases)

    def find_method(self, class_qname: str, name: str) -> str | None:
        """Resolve ``name`` on ``class_qname`` walking project bases."""
        for info in self._mro(class_qname):
            if name in info.methods:
                return info.methods[name]
        return None

    def attr_type(self, class_qname: str, attr: str) -> str | None:
        """The inferred type token of ``self.<attr>`` for a class."""
        for info in self._mro(class_qname):
            if attr in info.attr_types:
                return info.attr_types[attr]
        return None

    def _infer_attr_types(self, binder: _ModuleBinder) -> None:
        """Fill ``attr_types`` from ``self.x = ...`` assignments."""
        for info in binder.classes.values():
            class_node = self._class_node(binder, info)
            if class_node is None:
                continue
            for method in class_node.body:
                if not isinstance(
                    method, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                for stmt in ast.walk(method):
                    target: ast.expr | None = None
                    value: ast.expr | None = None
                    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                        target, value = stmt.targets[0], stmt.value
                    elif isinstance(stmt, ast.AnnAssign):
                        target = stmt.target
                        chain = dotted_name(target)
                        if len(chain) != 2 or chain[0] != "self":
                            continue
                        token = self.annotation_type(binder, stmt.annotation)
                        if token is not None:
                            info.attr_types.setdefault(chain[1], token)
                            continue
                        value = stmt.value
                    if target is None or value is None:
                        continue
                    chain = dotted_name(target)
                    if len(chain) != 2 or chain[0] != "self":
                        continue
                    token = self._value_type(binder, method, value)
                    if token is not None:
                        info.attr_types.setdefault(chain[1], token)

    def _class_node(
        self, binder: _ModuleBinder, info: ClassInfo
    ) -> ast.ClassDef | None:
        for node in ast.iter_child_nodes(binder.ctx.tree):
            if (
                isinstance(node, ast.ClassDef)
                and f"{binder.module}.{node.name}" == info.qname
            ):
                return node
        return None

    def _value_type(
        self,
        binder: _ModuleBinder,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        value: ast.expr,
    ) -> str | None:
        """Best-effort type token of an assigned expression."""
        if isinstance(value, ast.IfExp):
            return self._value_type(binder, method, value.body) or self._value_type(
                binder, method, value.orelse
            )
        if _is_generator_factory_call(value):
            return "Generator"
        if _is_generator_list_call(value):
            return "GeneratorList"
        if isinstance(value, ast.Call):
            chain = dotted_name(value.func)
            if chain:
                resolved = self.resolve_in_module(binder, chain)
                if resolved is not None and resolved[0] == "class":
                    return resolved[1]
            # `self.balancer = factory()` with `factory: Callable[[], T]`
            # types the attribute as the factory's return type `T`.
            annotation = _param_annotation(method, value.func)
            if (
                isinstance(annotation, ast.Subscript)
                and dotted_name(annotation.value)[-1:] == ("Callable",)
                and isinstance(annotation.slice, ast.Tuple)
            ):
                return self.annotation_type(binder, annotation.slice.elts[-1])
        if isinstance(value, ast.Name):
            # `self.pool = pool` — type the attribute from the parameter
            # annotation when one names a project class or a Generator.
            annotation = _param_annotation(method, value)
            if annotation is not None:
                return self.annotation_type(binder, annotation)
        return None

    def annotation_type(
        self, binder: _ModuleBinder, annotation: ast.expr | None
    ) -> str | None:
        """``"Generator"`` or the project class an annotation names.

        ``KnaryTree | None`` types as ``KnaryTree``: a receiver that may
        be ``None`` is only ever called once it is not.
        """
        if _annotation_mentions_generator(annotation):
            return "Generator"
        chain = _annotation_class_chain(annotation)
        if chain is None:
            return None
        resolved = self.resolve_in_module(binder, chain)
        if resolved is not None and resolved[0] == "class":
            return resolved[1]
        return None

    # -- name resolution --------------------------------------------------
    def resolve_absolute(self, dotted: str) -> tuple[str, str] | None:
        """Resolve an absolute dotted name to ``(kind, qname)``.

        ``kind`` is ``"func"`` or ``"class"``.  Matching takes the
        longest known module prefix; the remainder must be a function,
        a class, or a ``Class.method`` pair in that module.
        """
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            module = ".".join(parts[:cut])
            binder = self.binders.get(module)
            if binder is None:
                continue
            rest = parts[cut:]
            if not rest:
                return None
            if len(rest) == 1:
                if rest[0] in binder.functions:
                    return ("func", binder.functions[rest[0]])
                if rest[0] in binder.classes:
                    return ("class", binder.classes[rest[0]].qname)
                return None
            if len(rest) == 2 and rest[0] in binder.classes:
                method = self.find_method(
                    binder.classes[rest[0]].qname, rest[1]
                )
                if method is not None:
                    return ("func", method)
            return None
        return None

    def resolve_in_module(
        self, binder: _ModuleBinder, chain: tuple[str, ...]
    ) -> tuple[str, str] | None:
        """Resolve a dotted chain in module scope to ``(kind, qname)``."""
        if not chain:
            return None
        head = chain[0]
        if head in binder.functions and len(chain) == 1:
            return ("func", binder.functions[head])
        if head in binder.classes:
            info = binder.classes[head]
            if len(chain) == 1:
                return ("class", info.qname)
            if len(chain) == 2:
                method = self.find_method(info.qname, chain[1])
                if method is not None:
                    return ("func", method)
            return None
        if head in binder.imports:
            dotted = ".".join((binder.imports[head], *chain[1:]))
            return self.resolve_absolute(dotted)
        return None

    def constructor_of(self, class_qname: str) -> str | None:
        """The ``__init__`` a construction call executes, if in-project."""
        return self.find_method(class_qname, "__init__")

    # -- graph views ------------------------------------------------------
    def edges(self) -> Iterator[tuple[str, CallSite]]:
        """Every resolved edge as ``(caller qname, call site)``."""
        for qname in sorted(self.functions):
            for site in self.functions[qname].calls:
                yield qname, site

    def submissions(self) -> Iterator[PoolSubmission]:
        """Every WorkerPool submission site in the project."""
        for qname in sorted(self.functions):
            yield from self.functions[qname].submissions


class _FunctionWalker:
    """Builds :class:`FunctionInfo` records for one module."""

    def __init__(self, project: Project, binder: _ModuleBinder) -> None:
        self.project = project
        self.binder = binder
        self.ctx = binder.ctx

    def walk(self) -> Iterator[FunctionInfo]:
        """Yield an info record for every function, method and nested def."""
        for node in ast.iter_child_nodes(self.ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._walk_function(
                    node, qname=f"{self.binder.module}.{node.name}", cls=None,
                    closure_gens={}, closure_imports={},
                )
            elif isinstance(node, ast.ClassDef):
                cls_qname = f"{self.binder.module}.{node.name}"
                for child in node.body:
                    if isinstance(
                        child, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        yield from self._walk_function(
                            child,
                            qname=f"{cls_qname}.{child.name}",
                            cls=cls_qname,
                            closure_gens={},
                            closure_imports={},
                        )

    # ------------------------------------------------------------------
    def _walk_function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        qname: str,
        cls: str | None,
        closure_gens: dict[str, str],
        closure_imports: dict[str, str],
    ) -> Iterator[FunctionInfo]:
        params = tuple(
            a.arg
            for a in [
                *node.args.posonlyargs,
                *node.args.args,
                *node.args.kwonlyargs,
            ]
        )
        info = FunctionInfo(
            qname=qname,
            module=self.binder.module,
            rel_path=self.ctx.rel_path,
            node=node,
            cls=cls,
            params=params,
            is_protocol=self.ctx.is_protocol,
            local_imports=dict(closure_imports),
        )
        local_functions = self._collect_locals(node, info, closure_gens)
        self._active_types = info.local_types
        for decorator in node.decorator_list:
            chain = dotted_name(decorator)
            resolved = self._resolve(chain, local_functions, cls)
            if resolved is not None:
                info.calls.append(
                    CallSite(
                        callee=resolved,
                        line=decorator.lineno,
                        kind="decorator",
                        text=".".join(chain),
                    )
                )
        self._scan(node.body, info, local_functions, cls)
        yield info
        # Nested defs become their own nodes; enclosing generator
        # bindings are visible to them as closure streams.
        nested_env = dict(closure_gens)
        for name, origin in info.generator_origins.items():
            nested_env[name] = origin if origin == "spawned" else "closure"
        for child in ast.walk(node):
            if child is node:
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if self._enclosing_def(node, child) is node:
                    yield from self._walk_function(
                        child,
                        qname=f"{qname}.{child.name}",
                        cls=cls,
                        closure_gens=nested_env,
                        closure_imports=info.local_imports,
                    )

    @staticmethod
    def _enclosing_def(
        root: ast.AST, target: ast.AST
    ) -> ast.AST | None:
        """The innermost def/class enclosing ``target`` under ``root``."""
        result: ast.AST | None = None
        stack: list[tuple[ast.AST, ast.AST | None]] = [(root, None)]
        while stack:
            node, owner = stack.pop()
            if node is target:
                return owner
            next_owner = (
                node
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                )
                else owner
            )
            for child in ast.iter_child_nodes(node):
                stack.append((child, node if next_owner is node else owner))
        return result

    # ------------------------------------------------------------------
    def _collect_locals(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        info: FunctionInfo,
        closure_gens: dict[str, str],
    ) -> dict[str, str]:
        """Populate generator/type bindings; return local fn aliases."""
        local_functions: dict[str, str] = {}
        local_types = info.local_types
        self._active_types = local_types
        self._active_imports = info.local_imports
        gens = info.generator_origins
        gens.update(closure_gens)
        for name in self.binder.module_generators:
            gens.setdefault(name, "module-global")
        if info.cls is not None:
            cls_info = self.project.classes.get(info.cls)
            if cls_info is not None:
                for attr in sorted(cls_info.attr_types):
                    if self.project.attr_type(info.cls, attr) == "Generator":
                        gens[f"self.{attr}"] = "attribute"
        for arg in [
            *node.args.posonlyargs,
            *node.args.args,
            *node.args.kwonlyargs,
        ]:
            token = self.project.annotation_type(self.binder, arg.annotation)
            if token == "Generator":
                gens[arg.arg] = "param"
            elif token is not None:
                local_types[arg.arg] = token
        # Two binding passes in document order: derived bindings (e.g. a
        # loop over a spawn_rngs list assigned later in the body) settle
        # on the second pass without a full dataflow fixpoint.
        scope_nodes = list(self._own_scope_walk(node.body))
        for _ in range(2):
            for stmt in scope_nodes:
                if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                    info.local_imports.update(_import_bindings(stmt))
                elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    local_functions[stmt.name] = f"{info.qname}.{stmt.name}"
                elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    self._bind_assignment(
                        stmt.targets[0], stmt.value, info, local_functions,
                        local_types,
                    )
                elif isinstance(stmt, ast.AnnAssign):
                    name_chain = dotted_name(stmt.target)
                    if len(name_chain) == 1 and _annotation_mentions_generator(
                        stmt.annotation
                    ):
                        gens[name_chain[0]] = "param"
                elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                    self._bind_loop_targets(stmt.target, stmt.iter, info)
                elif isinstance(
                    stmt,
                    (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp),
                ):
                    for gen_clause in stmt.generators:
                        self._bind_loop_targets(
                            gen_clause.target, gen_clause.iter, info
                        )
        return local_functions

    def _own_scope_walk(self, body: Sequence[ast.stmt]) -> Iterator[ast.AST]:
        """Pre-order walk of a body, not descending into nested scopes.

        Nested ``def`` statements are yielded (so aliases bind) but not
        entered; classes and lambdas are skipped entirely.
        """
        stack: list[ast.AST] = list(reversed(body))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
            ):
                continue
            for child in reversed(list(ast.iter_child_nodes(node))):
                stack.append(child)

    def _bind_assignment(
        self,
        target: ast.expr,
        value: ast.expr,
        info: FunctionInfo,
        local_functions: dict[str, str],
        local_types: dict[str, str],
    ) -> None:
        chain = dotted_name(target)
        if len(chain) != 1:
            return
        name = chain[0]
        if _is_generator_factory_call(value):
            info.generator_origins[name] = "ensured"
            return
        if _is_generator_list_call(value):
            info.generator_lists.add(name)
            return
        if isinstance(value, ast.Subscript):
            base = ".".join(dotted_name(value.value))
            if base in info.generator_lists:
                info.generator_origins[name] = "spawned"
                return
        if isinstance(value, ast.Name):
            src = value.id
            if src in info.generator_origins:
                info.generator_origins[name] = info.generator_origins[src]
                return
            resolved = self._resolve((src,), local_functions, info.cls)
            if resolved is not None:
                local_functions[name] = resolved
                return
        if isinstance(value, ast.Attribute):
            # `tree = self._tree` — the local takes the attribute's type.
            token = self._chain_type(dotted_name(value), info.cls)
            if token is not None:
                local_types[name] = token
                return
        if isinstance(value, ast.IfExp):
            for branch in (value.body, value.orelse):
                self._bind_assignment(
                    target, branch, info, local_functions, local_types
                )
            return
        if isinstance(value, ast.Call):
            fchain = dotted_name(value.func)
            if fchain:
                resolved_t = self._resolve_chain(fchain)
                if resolved_t is not None and resolved_t[0] == "class":
                    local_types[name] = resolved_t[1]
                    return
        origin = self._embedded_generator(value, info)
        if origin is not None:
            info.generator_carriers[name] = origin

    def _bind_loop_targets(
        self, target: ast.expr, iterable: ast.expr, info: FunctionInfo
    ) -> None:
        """Type loop/comprehension targets drawn from generator lists."""
        iter_chain = dotted_name(iterable)
        src = ".".join(iter_chain)
        if src in info.generator_lists or _is_generator_list_call(iterable):
            if isinstance(target, ast.Name):
                info.generator_origins[target.id] = "spawned"
            return
        if isinstance(iterable, ast.Call):
            fchain = dotted_name(iterable.func)
            terminal = fchain[-1] if fchain else ""
            if terminal in ("zip", "enumerate") and isinstance(
                target, ast.Tuple
            ):
                args = iterable.args
                if terminal == "enumerate":
                    args = [ast.Constant(value=0), *args]
                for pos, arg in enumerate(args):
                    arg_src = ".".join(dotted_name(arg))
                    if (
                        arg_src in info.generator_lists
                        or _is_generator_list_call(arg)
                    ) and pos < len(target.elts):
                        elt = target.elts[pos]
                        if isinstance(elt, ast.Name):
                            info.generator_origins[elt.id] = "spawned"

    # ------------------------------------------------------------------
    def _embedded_generator(
        self, expr: ast.expr, info: FunctionInfo
    ) -> str | None:
        """Origin of a *bare* non-spawned generator embedded in ``expr``.

        A generator name used as a method receiver (``g.normal(...)``)
        produces data, not a stream, and is not embedding; a bare
        reference (``Task(g, ...)``) ships the stream object itself.
        """
        parents: dict[int, ast.AST] = {}
        for parent in ast.walk(expr):
            for child in ast.iter_child_nodes(parent):
                parents[id(child)] = parent
        for node in ast.walk(expr):
            chain = dotted_name(node)
            if not chain:
                continue
            name = ".".join(chain)
            origin = info.generator_origins.get(name)
            if origin is None and name in info.generator_carriers:
                origin = info.generator_carriers[name]
            if origin is None or origin == "spawned":
                continue
            parent = parents.get(id(node))
            if isinstance(parent, ast.Attribute) and parent.value is node:
                continue  # receiver position: a draw, not an embed
            if isinstance(parent, ast.Call) and parent.func is node:
                continue  # call position
            return origin
        return None

    # ------------------------------------------------------------------
    def _resolve(
        self,
        chain: tuple[str, ...],
        local_functions: dict[str, str],
        cls: str | None,
    ) -> str | None:
        """Resolve a call/reference chain to a function qname, or None."""
        if not chain:
            return None
        head = chain[0]
        if head in local_functions:
            if len(chain) == 1:
                return local_functions[head]
            return None
        local_types: dict[str, str] = getattr(self, "_active_types", {})
        if (head in ("self", "cls") and cls is not None) or head in local_types:
            if len(chain) < 2:
                return None
            receiver = self._chain_type(chain[:-1], cls)
            if receiver is None:
                return None
            return self.project.find_method(receiver, chain[-1])
        resolved = self._resolve_chain(chain)
        if resolved is None:
            return None
        kind, qname = resolved
        if kind == "func":
            return qname
        return self.project.constructor_of(qname)

    def _chain_type(
        self, chain: tuple[str, ...], cls: str | None
    ) -> str | None:
        """The project class a receiver chain evaluates to, or ``None``.

        The head is ``self``/``cls`` or a typed local; every further
        name is an attribute typed by :meth:`Project.attr_type`
        (``tree.index`` is ``KnaryTree.index``'s ``TreeIndex``).
        """
        if not chain:
            return None
        local_types: dict[str, str] = getattr(self, "_active_types", {})
        if chain[0] in ("self", "cls"):
            token = cls
        else:
            token = local_types.get(chain[0])
        for attr in chain[1:]:
            if token is None:
                return None
            token = self.project.attr_type(token, attr)
        if token is None or token not in self.project.classes:
            return None
        return token

    def _resolve_chain(
        self, chain: tuple[str, ...]
    ) -> tuple[str, str] | None:
        """Resolve a dotted chain to ``(kind, qname)``, local imports first."""
        local_imports: dict[str, str] = getattr(self, "_active_imports", {})
        if chain and chain[0] in local_imports:
            return self.project.resolve_absolute(
                ".".join((local_imports[chain[0]], *chain[1:]))
            )
        return self.project.resolve_in_module(self.binder, chain)

    def _scan(
        self,
        body: Sequence[ast.stmt],
        info: FunctionInfo,
        local_functions: dict[str, str],
        cls: str | None,
    ) -> None:
        """Collect call, ref and submission sites from a function body."""
        self._active_types = info.local_types
        self._active_imports = info.local_imports
        stack: list[ast.AST] = list(body)
        func_position: set[int] = set()
        while stack:
            node = stack.pop()
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
            ):
                continue  # separate scopes/nodes
            if isinstance(node, ast.Call):
                chain = dotted_name(node.func)
                resolved = self._resolve(chain, local_functions, cls)
                if resolved is not None:
                    info.calls.append(
                        CallSite(
                            callee=resolved,
                            line=node.lineno,
                            kind="call",
                            text=".".join(chain),
                        )
                    )
                if chain:
                    for sub in ast.walk(node.func):
                        func_position.add(id(sub))
                if chain and chain[-1] in POOL_SUBMIT_METHODS and node.args:
                    info.submissions.append(
                        self._submission(node, info, local_functions, cls)
                    )
            chain = dotted_name(node)
            if chain and id(node) not in func_position:
                resolved = self._resolve(chain, local_functions, cls)
                if resolved is not None:
                    info.calls.append(
                        CallSite(
                            callee=resolved,
                            line=node.lineno,
                            kind="ref",
                            text=".".join(chain),
                        )
                    )
                continue  # don't descend into parts of a matched chain
            if isinstance(node, ast.AnnAssign):
                # An annotation names a type; it constructs nothing.
                stack.extend(n for n in (node.target, node.value) if n)
                continue
            for child in ast.iter_child_nodes(node):
                stack.append(child)

    def _submission(
        self,
        node: ast.Call,
        info: FunctionInfo,
        local_functions: dict[str, str],
        cls: str | None,
    ) -> PoolSubmission:
        fn_arg = node.args[0]
        fn_chain = dotted_name(fn_arg)
        resolved = self._resolve(fn_chain, local_functions, cls)
        tasks = node.args[1] if len(node.args) > 1 else None
        shared = (
            self._embedded_generator(tasks, info) if tasks is not None else None
        )
        return PoolSubmission(
            caller=info.qname,
            callee=resolved,
            callee_text=".".join(fn_chain) if fn_chain else type(fn_arg).__name__,
            is_lambda=isinstance(fn_arg, ast.Lambda),
            line=node.lineno,
            tasks=tasks,
            shared_stream_origin=shared,
        )
