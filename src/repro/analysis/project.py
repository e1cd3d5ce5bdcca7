"""Phase 1 of whole-program analysis: the project index.

The file-local rules (RL1xx/RL2xx) see one AST at a time; the
concurrency and fork-safety rules (RL3xx, ``docs/static_analysis.md``)
need to reason about the program: which callables run on HTTP handler
threads versus in executor worker processes, which class attributes are
guarded by which lock, and what a ``pool.submit(...)`` call actually
captures.  :class:`ProjectIndex` computes exactly that, in one pass over
the already-parsed :class:`~repro.analysis.framework.FileContext`
objects:

* **module symbol tables** — top-level functions, classes and module
  globals per module, plus an import map that resolves local names (and
  re-exported names, e.g. ``from repro.service import JobStore``) to
  fully qualified project symbols;
* **class attribute inventories** — every ``self.X = ...`` assignment
  of every method, with the assigned value expressions retained so
  rules can recognise lock members (``threading.Lock()``), file members
  (``open(...)``) and members whose type is another project class;
* **an approximate call graph** — call sites resolved through imports,
  ``self`` dispatch, attribute types inferred from the inventories and
  local variables, ``functools.partial`` wrappers, and project base
  classes;
* **a boundary map** — which functions are entered on HTTP
  handler threads (``do_*`` methods of ``BaseHTTPRequestHandler``
  subclasses), on background threads (``threading.Thread(target=...)``),
  or inside worker processes (``pool.submit(...)`` targets and
  ``ProcessPoolExecutor`` initializers), closed over call-graph
  reachability;
* **lock regions** — ``with self._lock:`` blocks, including a
  *called-with-lock-held* fixpoint so a private helper invoked only
  from locked regions is understood to run under the lock.

Everything here is deliberately approximate (no type checker, no alias
analysis): the index over-resolves names rather than giving up, and the
rules built on it err toward precision — a finding must point at a real
pattern, uncertain cases stay silent.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Set, Tuple

from repro.analysis.framework import FileContext

__all__ = [
    "AttributeAccess",
    "BoundaryMap",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "LockId",
    "ModuleInfo",
    "ProjectIndex",
    "SubmissionSite",
    "module_name_for",
]

#: Identity of a lock: ("<module>.<Class>", attr) for instance locks,
#: ("<module>", name) for module-level locks.
LockId = Tuple[str, str]

#: Thread/process contexts a callable may run in (boundary map tags).
HANDLER_THREAD = "handler-thread"
BACKGROUND_THREAD = "background-thread"
WORKER_PROCESS = "worker-process"

#: Constructor calls that make a class member lock-like (guarding state).
_LOCK_FACTORIES = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "multiprocessing.Lock",
        "multiprocessing.RLock",
        "Lock",
        "RLock",
    }
)

#: Constructor calls that make a class member process-local: shipping an
#: instance across a fork/pickle boundary loses or breaks the member.
_UNPICKLABLE_FACTORIES = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Event",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "threading.local",
        "multiprocessing.Lock",
        "multiprocessing.RLock",
        "queue.Queue",
        "queue.LifoQueue",
        "queue.PriorityQueue",
        "queue.SimpleQueue",
        "socket.socket",
        "open",
        "Lock",
        "RLock",
    }
)

#: Methods whose call mutates the receiver container in place.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "add",
        "discard",
        "sort",
        "reverse",
    }
)

#: Methods exempt from shared-state rules: they run before (or outside)
#: any sharing — construction, pickling hooks, finalizers.
_LIFECYCLE_METHODS = frozenset(
    {
        "__init__",
        "__new__",
        "__post_init__",
        "__getstate__",
        "__setstate__",
        "__reduce__",
        "__copy__",
        "__deepcopy__",
        "__del__",
    }
)


def module_name_for(path: Path) -> str:
    """The dotted module name of a source file.

    Walks up through directories that contain an ``__init__.py`` so
    ``src/repro/service/http.py`` maps to ``repro.service.http``
    regardless of where the tree is rooted.  A file outside any package
    maps to its stem.
    """
    resolved = path.resolve()
    parts = [resolved.stem] if resolved.stem != "__init__" else []
    parent = resolved.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else resolved.stem


def _dotted(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _self_attr(node: ast.expr) -> Optional[str]:
    """``X`` when the expression is exactly ``self.X``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _self_attr_root(node: ast.expr) -> Optional[str]:
    """``X`` when the expression is rooted at ``self.X`` (any depth)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        direct = _self_attr(node) if isinstance(node, ast.Attribute) else None
        if direct is not None:
            return direct
        node = node.value
    return None


def _annotation_names(node: Optional[ast.expr]) -> List[str]:
    """Plain class names inside an annotation (``Optional[X]`` -> X)."""
    if node is None:
        return []
    names: List[str] = []
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name):
            names.append(inner.id)
        elif isinstance(inner, ast.Attribute):
            dotted = _dotted(inner)
            if dotted is not None:
                names.append(dotted)
        elif isinstance(inner, ast.Constant) and isinstance(inner.value, str):
            names.append(inner.value)  # forward reference
    return [n for n in names if n not in ("Optional", "Union", "List", "None")]


@dataclass
class CallSite:
    """One call expression inside a function body."""

    node: ast.Call
    #: raw dotted form of the callee (``self._save_matrix``, ``time.sleep``)
    raw: str
    #: locks lexically held at the call (instance/module LockIds)
    locks: FrozenSet[LockId]
    #: resolved project qualname or external dotted name (phase B)
    resolved: Optional[str] = None


@dataclass
class AttributeAccess:
    """One ``self.X`` access inside a method body."""

    attr: str
    #: ``read`` | ``write`` | ``mutcall`` (in-place container mutation)
    kind: str
    node: ast.AST
    locks: FrozenSet[LockId]
    #: for mutcall: the method name invoked on the attribute
    via: Optional[str] = None


@dataclass
class SubmissionSite:
    """One spot where work (and its arguments) crosses to a worker pool.

    Covers ``pool.submit(f, *args)``, ``ProcessPoolExecutor(
    initializer=f, initargs=(...))`` and ``Process(target=f, args=...)``.
    """

    node: ast.Call
    #: resolved qualname of the callable shipped to the worker (if known)
    target: Optional[str]
    #: argument expressions captured across the boundary
    captured: List[ast.expr]
    #: the function containing the submission
    owner: str
    path: Path


@dataclass
class FunctionInfo:
    """Everything the phase-2 rules need about one function or method."""

    qualname: str  # full: "<module>.<Class>.<name>" / "<module>.<name>"
    name: str
    module: str
    path: Path
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_name: Optional[str] = None
    decorators: List[str] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    self_accesses: List[AttributeAccess] = field(default_factory=list)
    #: locks this function lexically acquires (``with`` blocks), with the
    #: set of locks already held at the acquisition point
    acquisitions: List[Tuple[LockId, FrozenSet[LockId], ast.AST]] = field(
        default_factory=list
    )
    #: module-level names assigned via ``global`` inside this function
    global_writes: Dict[str, ast.AST] = field(default_factory=dict)
    #: module-level names read (bare Name loads that resolve to globals)
    global_reads: Set[str] = field(default_factory=set)
    #: local variable -> project class qualname (assignment/annotation)
    local_types: Dict[str, str] = field(default_factory=dict)
    #: locks proven held on every project call path into this function
    always_held: Set[LockId] = field(default_factory=set)

    @property
    def is_lifecycle(self) -> bool:
        return self.name in _LIFECYCLE_METHODS


@dataclass
class ClassInfo:
    """One class: bases, attribute inventory, methods, locks."""

    qualname: str  # "<module>.<Class>"
    name: str
    module: str
    path: Path
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)  # raw dotted names
    decorators: List[str] = field(default_factory=list)
    #: attr -> assigned value expressions (first assignment first)
    attributes: Dict[str, List[ast.expr]] = field(default_factory=dict)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: attrs assigned a lock factory (``self._lock = threading.Lock()``)
    lock_attrs: Set[str] = field(default_factory=set)

    @property
    def is_dataclass(self) -> bool:
        return any(
            dec == "dataclass" or dec.endswith(".dataclass")
            for dec in self.decorators
        )

    def field_names(self) -> List[str]:
        """Class-level annotated names (dataclass field inventory)."""
        return [
            stmt.target.id
            for stmt in self.node.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
        ]


@dataclass
class ModuleInfo:
    """One module's symbol table."""

    name: str
    path: Path
    tree: ast.Module
    is_test: bool = False
    #: local name -> fully qualified name it binds (imports, incl. ``as``)
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: module-level assigned names -> first value expression
    globals: Dict[str, Optional[ast.expr]] = field(default_factory=dict)

    def resolve_local(self, name: str) -> Optional[str]:
        """Qualify a local (possibly dotted) name against this module."""
        head, _, rest = name.partition(".")
        target: Optional[str] = None
        if head in self.classes or head in self.functions:
            target = f"{self.name}.{head}"
        elif head in self.imports:
            target = self.imports[head]
        elif head in self.globals:
            target = f"{self.name}.{head}"
        if target is None:
            return None
        return f"{target}.{rest}" if rest else target


@dataclass
class BoundaryMap:
    """Which functions run where (closed over call-graph reachability)."""

    #: full qualname -> set of context tags (HANDLER_THREAD, ...)
    contexts: Dict[str, Set[str]] = field(default_factory=dict)
    #: entry points per tag, before reachability closure
    entries: Dict[str, Set[str]] = field(default_factory=dict)
    #: every worker-bound submission (pool.submit / initargs / Process)
    submissions: List[SubmissionSite] = field(default_factory=list)

    def contexts_of(self, qualname: str) -> Set[str]:
        return self.contexts.get(qualname, set())

    def describe(self, qualname: str) -> str:
        """Human label of the contexts reaching a callable."""
        tags = sorted(self.contexts_of(qualname))
        return ", ".join(tags) if tags else "main thread"


def _direct_nested_defs(node: ast.AST) -> List[ast.AST]:
    """Function/method defs nested directly under ``node`` (at any
    statement depth) but not inside deeper defs."""
    found: List[ast.AST] = []

    def walk(current: ast.AST) -> None:
        for child in ast.iter_child_nodes(current):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append(child)
            elif not isinstance(child, ast.Lambda):
                walk(child)

    walk(node)
    return found


class _FunctionScanner(ast.NodeVisitor):
    """Collects calls, self-accesses and lock regions of one function."""

    def __init__(
        self,
        info: FunctionInfo,
        owner_class: Optional[ClassInfo],
        module: ModuleInfo,
    ) -> None:
        self.info = info
        self.owner = owner_class
        self.module = module
        self.lock_stack: List[LockId] = []

    # -- lock identification ------------------------------------------

    def _lock_id(self, expr: ast.expr) -> Optional[LockId]:
        attr = _self_attr(expr)
        if attr is not None and self.owner is not None:
            if attr in self.owner.lock_attrs or "lock" in attr.lower():
                return (self.owner.qualname, attr)
            return None
        if isinstance(expr, ast.Name) and "lock" in expr.id.lower():
            return (self.module.name, expr.id)
        dotted = _dotted(expr)
        if dotted is not None and "lock" in dotted.rsplit(".", 1)[-1].lower():
            return (self.module.name, dotted)
        return None

    def _held(self) -> FrozenSet[LockId]:
        return frozenset(self.lock_stack)

    # -- visitors ------------------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def _visit_with(self, node: ast.AST) -> None:
        acquired: List[LockId] = []
        for item in node.items:  # type: ignore[attr-defined]
            self.visit(item.context_expr)
            lock = self._lock_id(item.context_expr)
            if lock is not None:
                self.info.acquisitions.append(
                    (lock, self._held() | frozenset(acquired), item.context_expr)
                )
                acquired.append(lock)
        self.lock_stack.extend(acquired)
        for stmt in node.body:  # type: ignore[attr-defined]
            self.visit(stmt)
        for _ in acquired:
            self.lock_stack.pop()

    def visit_Call(self, node: ast.Call) -> None:
        raw = _dotted(node.func)
        if raw is None and isinstance(node.func, ast.Attribute):
            # e.g. ``pool.submit(...)`` where pool is a subscript — keep
            # the method name so heuristics still see it.
            raw = f"?.{node.func.attr}"
        if raw is not None:
            self.info.calls.append(
                CallSite(node=node, raw=raw, locks=self._held())
            )
        # A method call on self.X mutating a container in place.
        if isinstance(node.func, ast.Attribute):
            method = node.func.attr
            root = _self_attr_root(node.func.value)
            if root is not None:
                kind = "mutcall" if method in _MUTATOR_METHODS else "read"
                self.info.self_accesses.append(
                    AttributeAccess(
                        attr=root,
                        kind=kind,
                        node=node,
                        locks=self._held(),
                        via=method,
                    )
                )
        self.generic_visit(node)

    def _record_target(self, target: ast.expr, node: ast.AST) -> None:
        root = _self_attr_root(target)
        if root is not None:
            self.info.self_accesses.append(
                AttributeAccess(
                    attr=root, kind="write", node=node, locks=self._held()
                )
            )
        elif isinstance(target, ast.Name):
            if target.id in self.info.global_writes_pending:
                self.info.global_writes.setdefault(target.id, node)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_target(element, node)
        elif isinstance(target, ast.Subscript):
            self._record_target(target.value, node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_target(target, node)
            # Local type inference: x = ClassName(...)
            if isinstance(target, ast.Name) and isinstance(node.value, ast.Call):
                callee = _dotted(node.value.func)
                if callee is not None:
                    resolved = self.module.resolve_local(callee)
                    if resolved is not None:
                        self.info.local_types.setdefault(target.id, resolved)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None or isinstance(node.target, ast.Attribute):
            self._record_target(node.target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_target(node.target, node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record_target(target, node)
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        for name in node.names:
            self.info.global_writes_pending.add(name)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and node.id in self.module.globals:
            self.info.global_reads.add(node.id)
        self.generic_visit(node)

    # Nested defs keep their own scope; record their existence but do
    # not merge their bodies into this function's accesses.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node is not self.info.node:
            return
        for stmt in node.body:
            self.visit(stmt)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        if node is not self.info.node:
            return
        for stmt in node.body:
            self.visit(stmt)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.visit(node.body)


class ProjectIndex:
    """The whole-program index (see the module docstring).

    Build one with :meth:`build` from the parsed file contexts of an
    analysis run; phase-2 rules receive the instance and query modules,
    classes, the call graph and the boundary map.
    """

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: caller qualname -> resolved callee qualnames
        self.call_graph: Dict[str, Set[str]] = {}
        self.boundary = BoundaryMap()
        #: functions reachable only from lifecycle methods (see
        #: :meth:`_compute_init_only`)
        self.init_only: Set[str] = set()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, contexts: Mapping[Path, FileContext]) -> "ProjectIndex":
        index = cls()
        for path, ctx in sorted(contexts.items(), key=lambda kv: str(kv[0])):
            index._index_module(path, ctx)
        index._resolve_calls()
        index._build_boundary()
        index._propagate_locks()
        index._compute_init_only()
        return index

    def _index_module(self, path: Path, ctx: FileContext) -> None:
        name = module_name_for(path)
        module = ModuleInfo(
            name=name, path=path, tree=ctx.tree, is_test=ctx.is_test_file()
        )
        self.modules[name] = module
        package = name.rsplit(".", 1)[0] if "." in name else ""
        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    local = alias.asname or alias.name.split(".")[0]
                    module.imports[local] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
                    if alias.asname is None:
                        module.imports[alias.name] = alias.name
            elif isinstance(stmt, ast.ImportFrom):
                base = stmt.module or ""
                if stmt.level:
                    parts = name.split(".")
                    # level 1 = current package, 2 = its parent, ...
                    anchor = parts[: len(parts) - stmt.level]
                    base = ".".join(anchor + ([stmt.module] if stmt.module else []))
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    module.imports[local] = (
                        f"{base}.{alias.name}" if base else alias.name
                    )
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        module.globals.setdefault(target.id, stmt.value)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = self._index_function(stmt, module, None)
                module.functions[stmt.name] = info
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(stmt, module)
        _ = package  # (kept for clarity; relative imports used it above)

    def _index_class(self, node: ast.ClassDef, module: ModuleInfo) -> None:
        qualname = f"{module.name}.{node.name}"
        cls_info = ClassInfo(
            qualname=qualname,
            name=node.name,
            module=module.name,
            path=module.path,
            node=node,
            bases=[d for d in (_dotted(b) for b in node.bases) if d],
            decorators=[
                d
                for d in (
                    _dotted(dec.func if isinstance(dec, ast.Call) else dec)
                    for dec in node.decorator_list
                )
                if d
            ],
        )
        module.classes[node.name] = cls_info
        self.classes[qualname] = cls_info
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = self._index_function(stmt, module, cls_info)
                cls_info.methods[stmt.name] = info
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        cls_info.attributes.setdefault(target.id, []).append(
                            stmt.value
                        )
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                if stmt.value is not None:
                    cls_info.attributes.setdefault(stmt.target.id, []).append(
                        stmt.value
                    )
                else:
                    cls_info.attributes.setdefault(stmt.target.id, [])
        # Attribute inventory from method bodies (``self.X = ...``).
        for method in cls_info.methods.values():
            for stmt in ast.walk(method.node):
                value: Optional[ast.expr] = None
                targets: List[ast.expr] = []
                if isinstance(stmt, ast.Assign):
                    targets, value = list(stmt.targets), stmt.value
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    targets, value = [stmt.target], stmt.value
                for target in targets:
                    attr = _self_attr(target)
                    if attr is None or value is None:
                        continue
                    cls_info.attributes.setdefault(attr, []).append(value)
                    callee = (
                        _dotted(value.func)
                        if isinstance(value, ast.Call)
                        else None
                    )
                    if callee is not None:
                        qualified = module.resolve_local(callee) or callee
                        if (
                            qualified in _LOCK_FACTORIES
                            or callee in _LOCK_FACTORIES
                        ):
                            cls_info.lock_attrs.add(attr)

    def _index_function(
        self,
        node: ast.AST,
        module: ModuleInfo,
        owner: Optional[ClassInfo],
    ) -> FunctionInfo:
        name = node.name  # type: ignore[attr-defined]
        qualname = (
            f"{owner.qualname}.{name}" if owner is not None
            else f"{module.name}.{name}"
        )
        info = FunctionInfo(
            qualname=qualname,
            name=name,
            module=module.name,
            path=module.path,
            node=node,
            class_name=owner.name if owner is not None else None,
            decorators=[
                d
                for d in (
                    _dotted(dec.func if isinstance(dec, ast.Call) else dec)
                    for dec in node.decorator_list  # type: ignore[attr-defined]
                )
                if d
            ],
        )
        # Parameter annotations seed local type inference.
        args = node.args  # type: ignore[attr-defined]
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            for type_name in _annotation_names(arg.annotation):
                resolved = module.resolve_local(type_name)
                if resolved is not None:
                    info.local_types.setdefault(arg.arg, resolved)
        info.global_writes_pending = set()  # type: ignore[attr-defined]
        scanner = _FunctionScanner(info, owner, module)
        scanner.visit(node)
        self.functions[qualname] = info
        # Nested defs get their own FunctionInfo (a closure like the
        # executor's ``make_pool`` still creates pools and submits work;
        # the boundary map must see inside it).  The scanner itself
        # skips nested bodies so accesses are never double-attributed.
        for nested in _direct_nested_defs(node):
            self._index_nested(nested, module, owner, qualname)
        return info

    def _index_nested(
        self,
        node: ast.AST,
        module: ModuleInfo,
        owner: Optional[ClassInfo],
        parent_qualname: str,
    ) -> None:
        name = node.name  # type: ignore[attr-defined]
        qualname = f"{parent_qualname}.<locals>.{name}"
        if qualname in self.functions:
            return
        info = FunctionInfo(
            qualname=qualname,
            name=name,
            module=module.name,
            path=module.path,
            node=node,
            class_name=owner.name if owner is not None else None,
        )
        info.global_writes_pending = set()  # type: ignore[attr-defined]
        scanner = _FunctionScanner(info, owner, module)
        scanner.visit(node)
        self.functions[qualname] = info
        for nested in _direct_nested_defs(node):
            self._index_nested(nested, module, owner, qualname)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    def resolve_qualified(self, qualname: str, depth: int = 0) -> str:
        """Follow re-export chains: ``repro.service.JobStore`` ->
        ``repro.service.jobs.JobStore``."""
        if depth > 8 or qualname in self.functions or qualname in self.classes:
            return qualname
        module_part, _, symbol = qualname.rpartition(".")
        module = self.modules.get(module_part)
        if module is not None and symbol in module.imports:
            return self.resolve_qualified(module.imports[symbol], depth + 1)
        return qualname

    def _class_of(self, qualname: str) -> Optional[ClassInfo]:
        return self.classes.get(self.resolve_qualified(qualname))

    def attr_type(self, cls_info: ClassInfo, attr: str) -> Optional[str]:
        """Project-class qualname of ``self.<attr>`` (from its first
        constructor-call assignment), or ``None``."""
        module = self.modules[cls_info.module]
        for value in cls_info.attributes.get(attr, []):
            if isinstance(value, ast.Call):
                callee = _dotted(value.func)
                if callee is None:
                    continue
                resolved = self.resolve_qualified(
                    module.resolve_local(callee) or callee
                )
                if resolved in self.classes:
                    return resolved
        return None

    def method_on(self, class_qualname: str, method: str) -> Optional[str]:
        """Resolve a method on a class or its project base chain."""
        seen: Set[str] = set()
        stack = [class_qualname]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            cls_info = self._class_of(current)
            if cls_info is None:
                continue
            if method in cls_info.methods:
                return cls_info.methods[method].qualname
            module = self.modules[cls_info.module]
            for base in cls_info.bases:
                stack.append(module.resolve_local(base) or base)
        return None

    def _resolve_call(self, info: FunctionInfo, site: CallSite) -> None:
        module = self.modules[info.module]
        raw = site.raw
        head, _, rest = raw.partition(".")
        if head == "self" and info.class_name is not None:
            owner = f"{module.name}.{info.class_name}"
            if "." not in rest and rest:
                site.resolved = self.method_on(owner, rest) or raw
                return
            # self.attr.method(...): dispatch through the attr's type.
            attr, _, method = rest.partition(".")
            cls_info = self._class_of(owner)
            if cls_info is not None and method and "." not in method:
                attr_cls = self.attr_type(cls_info, attr)
                if attr_cls is not None:
                    site.resolved = self.method_on(attr_cls, method) or raw
                    return
            site.resolved = raw
            return
        if head in info.local_types:
            target_cls = info.local_types[head]
            if rest and "." not in rest:
                site.resolved = self.method_on(target_cls, rest) or raw
                return
        # Module-level singleton: ``STORE = Store()`` then ``STORE.put()``.
        if head in module.globals and rest and "." not in rest:
            value = module.globals[head]
            if isinstance(value, ast.Call):
                callee = _dotted(value.func)
                if callee is not None:
                    target_cls = self.resolve_qualified(
                        module.resolve_local(callee) or callee
                    )
                    if target_cls in self.classes:
                        site.resolved = self.method_on(target_cls, rest) or raw
                        return
        qualified = module.resolve_local(raw)
        if qualified is not None:
            site.resolved = self.resolve_qualified(qualified)
            return
        site.resolved = raw

    def _resolve_calls(self) -> None:
        for info in self.functions.values():
            edges: Set[str] = set()
            for site in info.calls:
                self._resolve_call(info, site)
                if site.resolved in self.functions:
                    edges.add(site.resolved)
                elif site.resolved in self.classes:
                    init = self.method_on(site.resolved, "__init__")
                    if init is not None:
                        edges.add(init)
            self.call_graph[info.qualname] = edges

    # ------------------------------------------------------------------
    # Boundary map
    # ------------------------------------------------------------------

    def _callable_ref(
        self, info: FunctionInfo, expr: ast.expr
    ) -> Optional[str]:
        """Resolve an expression used as a callable reference."""
        # functools.partial(f, ...) -> f
        if isinstance(expr, ast.Call):
            callee = _dotted(expr.func)
            if callee in ("functools.partial", "partial") and expr.args:
                return self._callable_ref(info, expr.args[0])
            return None
        raw = _dotted(expr)
        if raw is None:
            return None
        site = CallSite(node=ast.Call(func=expr, args=[], keywords=[]),
                       raw=raw, locks=frozenset())
        self._resolve_call(info, site)
        return site.resolved

    def _is_handler_class(self, cls_info: ClassInfo) -> bool:
        module = self.modules[cls_info.module]
        seen: Set[str] = set()
        stack = [cls_info.qualname]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            if current.rsplit(".", 1)[-1].endswith("BaseHTTPRequestHandler"):
                return True
            inner = self._class_of(current)
            if inner is None:
                continue
            inner_module = self.modules[inner.module]
            for base in inner.bases:
                if base.rsplit(".", 1)[-1].endswith("BaseHTTPRequestHandler"):
                    return True
                stack.append(inner_module.resolve_local(base) or base)
        _ = module
        return False

    def _partial_captures(self, expr: ast.expr) -> List[ast.expr]:
        if isinstance(expr, ast.Call):
            callee = _dotted(expr.func)
            if callee in ("functools.partial", "partial"):
                return list(expr.args[1:]) + [kw.value for kw in expr.keywords]
        return []

    def _build_boundary(self) -> None:
        entries: Dict[str, Set[str]] = {
            HANDLER_THREAD: set(),
            BACKGROUND_THREAD: set(),
            WORKER_PROCESS: set(),
        }
        # HTTP handler entry points: do_* / log_* / handle* methods of
        # BaseHTTPRequestHandler subclasses run on per-request threads.
        for cls_info in self.classes.values():
            if not self._is_handler_class(cls_info):
                continue
            for name, method in cls_info.methods.items():
                if (
                    name.startswith("do_")
                    or name.startswith("log_")
                    or name.startswith("handle")
                ):
                    entries[HANDLER_THREAD].add(method.qualname)
        for info in self.functions.values():
            for site in info.calls:
                node = site.node
                resolved = site.resolved or site.raw
                tail = resolved.rsplit(".", 1)[-1]
                # threading.Thread(target=...) / Process(target=...)
                if tail in ("Thread", "Process", "Timer"):
                    tag = (
                        WORKER_PROCESS if tail == "Process"
                        else BACKGROUND_THREAD
                    )
                    for kw in node.keywords:
                        if kw.arg == "target":
                            target = self._callable_ref(info, kw.value)
                            if target in self.functions:
                                entries[tag].add(target)
                            if tag == WORKER_PROCESS:
                                captured = [
                                    e
                                    for k in node.keywords
                                    if k.arg == "args"
                                    and isinstance(k.value, (ast.Tuple, ast.List))
                                    for e in k.value.elts
                                ] + self._partial_captures(kw.value)
                                self.boundary.submissions.append(
                                    SubmissionSite(
                                        node=node,
                                        target=target,
                                        captured=captured,
                                        owner=info.qualname,
                                        path=info.path,
                                    )
                                )
                # ProcessPoolExecutor(initializer=..., initargs=(...))
                if tail == "ProcessPoolExecutor":
                    target = None
                    captured: List[ast.expr] = []
                    for kw in node.keywords:
                        if kw.arg == "initializer":
                            target = self._callable_ref(info, kw.value)
                            captured += self._partial_captures(kw.value)
                        elif kw.arg == "initargs" and isinstance(
                            kw.value, (ast.Tuple, ast.List)
                        ):
                            captured += list(kw.value.elts)
                    if target is not None or captured:
                        if target in self.functions:
                            entries[WORKER_PROCESS].add(target)
                        self.boundary.submissions.append(
                            SubmissionSite(
                                node=node,
                                target=target,
                                captured=captured,
                                owner=info.qualname,
                                path=info.path,
                            )
                        )
                # <pool>.submit(f, *args) / <pool>.apply_async(f, args)
                if tail in ("submit", "apply_async") and node.args:
                    receiver = site.raw.rsplit(".", 1)[0]
                    looks_like_pool = (
                        "pool" in receiver.lower()
                        or "executor" in receiver.lower()
                        or (
                            receiver in info.local_types
                            and "Executor"
                            in info.local_types[receiver].rsplit(".", 1)[-1]
                        )
                    )
                    if looks_like_pool:
                        target = self._callable_ref(info, node.args[0])
                        if target in self.functions:
                            entries[WORKER_PROCESS].add(target)
                        self.boundary.submissions.append(
                            SubmissionSite(
                                node=node,
                                target=target,
                                captured=list(node.args[1:])
                                + self._partial_captures(node.args[0]),
                                owner=info.qualname,
                                path=info.path,
                            )
                        )
        self.boundary.entries = entries
        # Reachability closure over the call graph.
        contexts: Dict[str, Set[str]] = {}
        for tag, roots in entries.items():
            stack = list(roots)
            seen: Set[str] = set()
            while stack:
                current = stack.pop()
                if current in seen:
                    continue
                seen.add(current)
                contexts.setdefault(current, set()).add(tag)
                stack.extend(self.call_graph.get(current, ()))
        self.boundary.contexts = contexts

    # ------------------------------------------------------------------
    # Called-with-lock-held fixpoint
    # ------------------------------------------------------------------

    def _propagate_locks(self) -> None:
        """Compute ``FunctionInfo.always_held``: locks held on *every*
        project call path into a function (so a private helper invoked
        only from locked regions counts as running under the lock)."""
        # call sites per callee: (caller, lexically-held locks)
        incoming: Dict[str, List[Tuple[str, FrozenSet[LockId]]]] = {}
        for info in self.functions.values():
            for site in info.calls:
                if site.resolved in self.functions:
                    incoming.setdefault(site.resolved, []).append(
                        (info.qualname, site.locks)
                    )
        for _ in range(6):  # small fixpoint; project call chains are short
            changed = False
            for qualname, sites in incoming.items():
                callee = self.functions[qualname]
                held_sets = []
                for caller, locks in sites:
                    caller_info = self.functions[caller]
                    held_sets.append(
                        set(locks) | caller_info.always_held
                    )
                new_always = (
                    set.intersection(*held_sets) if held_sets else set()
                )
                if new_always != callee.always_held:
                    callee.always_held = new_always
                    changed = True
            if not changed:
                break

    def _compute_init_only(self) -> None:
        """Functions reachable *only* from lifecycle methods
        (``__init__`` and friends) run before the object is shared and
        are exempt from shared-state rules, like the lifecycle methods
        themselves (``ArtifactCache._open_journal``,
        ``MiningService._register_metrics``)."""
        incoming: Dict[str, Set[str]] = {}
        for info in self.functions.values():
            for site in info.calls:
                if site.resolved in self.functions:
                    incoming.setdefault(site.resolved, set()).add(
                        info.qualname
                    )
        self.init_only: Set[str] = set()
        for _ in range(6):
            changed = False
            for qualname, callers in incoming.items():
                if (
                    qualname in self.init_only
                    or qualname in self.boundary.contexts
                ):
                    continue
                info = self.functions[qualname]
                if info.is_lifecycle:
                    continue
                if all(
                    self.functions[caller].is_lifecycle
                    or caller in self.init_only
                    for caller in callers
                ):
                    self.init_only.add(qualname)
                    changed = True
            if not changed:
                break

    # ------------------------------------------------------------------
    # Rule-facing queries
    # ------------------------------------------------------------------

    def iter_service_classes(self) -> Iterator[ClassInfo]:
        """Classes that own at least one lock member (shared by design),
        skipping test modules."""
        for cls_info in self.classes.values():
            if cls_info.lock_attrs and not self.modules[cls_info.module].is_test:
                yield cls_info

    def effective_locks(
        self, info: FunctionInfo, site_locks: FrozenSet[LockId]
    ) -> Set[LockId]:
        """Locks held at an access: lexical + always-held-by-callers."""
        return set(site_locks) | info.always_held

    def guarded_attrs(self, cls_info: ClassInfo, lock: str) -> Set[str]:
        """Attributes of a class accessed at least once while holding
        ``(cls, lock)`` — the inferred *guarded-by* relation."""
        lock_id: LockId = (cls_info.qualname, lock)
        guarded: Set[str] = set()
        for method in cls_info.methods.values():
            if method.is_lifecycle:
                continue
            for access in method.self_accesses:
                if access.attr in cls_info.lock_attrs:
                    continue
                if lock_id in self.effective_locks(method, access.locks):
                    guarded.add(access.attr)
        return guarded

    def is_self_synchronizing(
        self, cls_info: ClassInfo, attr: str
    ) -> bool:
        """Does ``self.<attr>`` hold an object that guards itself?

        True for project classes owning their own lock and for the
        thread-safe stdlib types (queues, events, locks themselves).
        """
        attr_cls = self.attr_type(cls_info, attr)
        if attr_cls is not None:
            target = self.classes.get(attr_cls)
            if target is not None and target.lock_attrs:
                return True
        for value in cls_info.attributes.get(attr, []):
            if isinstance(value, ast.Call):
                callee = _dotted(value.func) or ""
                tail = callee.rsplit(".", 1)[-1]
                if tail in (
                    "Queue",
                    "LifoQueue",
                    "PriorityQueue",
                    "SimpleQueue",
                    "Event",
                    "Lock",
                    "RLock",
                    "Condition",
                    "Semaphore",
                    "BoundedSemaphore",
                ):
                    return True
        return False

    def unpicklable_members(self, class_qualname: str) -> List[str]:
        """Attributes of a class (or its project bases) whose values are
        process-local — meaningless or broken after pickling/fork.

        Classes that define their own pickling protocol
        (``__getstate__``/``__setstate__`` or ``__reduce__``) are
        trusted and report no members.
        """
        cls_info = self._class_of(class_qualname)
        if cls_info is None:
            return []
        if (
            ("__getstate__" in cls_info.methods
             and "__setstate__" in cls_info.methods)
            or "__reduce__" in cls_info.methods
            or "__reduce_ex__" in cls_info.methods
        ):
            return []
        module = self.modules[cls_info.module]
        found: List[str] = []
        for attr, values in sorted(cls_info.attributes.items()):
            for value in values:
                if not isinstance(value, ast.Call):
                    continue
                callee = _dotted(value.func)
                if callee is None:
                    continue
                qualified = module.resolve_local(callee) or callee
                if (
                    qualified in _UNPICKLABLE_FACTORIES
                    or callee in _UNPICKLABLE_FACTORIES
                ):
                    found.append(attr)
                    break
        return found

    def infer_expr_class(
        self, info: FunctionInfo, expr: ast.expr
    ) -> Optional[str]:
        """Project class of an expression: a typed local/parameter, a
        ``self.attr`` with an inventory type, or a direct constructor
        call."""
        if isinstance(expr, ast.Name):
            return info.local_types.get(expr.id)
        attr = _self_attr(expr)
        if attr is not None and info.class_name is not None:
            owner = self._class_of(f"{info.module}.{info.class_name}")
            if owner is not None:
                return self.attr_type(owner, attr)
        if isinstance(expr, ast.Call):
            callee = _dotted(expr.func)
            if callee is not None:
                module = self.modules[info.module]
                resolved = self.resolve_qualified(
                    module.resolve_local(callee) or callee
                )
                if resolved in self.classes:
                    return resolved
        return None
