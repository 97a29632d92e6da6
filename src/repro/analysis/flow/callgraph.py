"""Module-level program model and call graph for the flow pass.

The statement-at-a-time rules in :mod:`repro.analysis.code_lint` cannot
see a seed that dies two calls up the stack.  This module gives the flow
rules (:mod:`repro.analysis.flow.seedflow` and friends) the structure
they need: every analyzed file is parsed once into a :class:`ModuleInfo`
(imports, module-level bindings, functions with their AST), functions
get stable qualified names (``repro.core.pool:maybe_crash``,
``mod:Class.method``), and calls between analyzed functions are resolved
best-effort into a call graph with forward (:meth:`Program.callees`) and
reverse (:meth:`Program.callers`) edges plus cached transitive
reachability.

Resolution is deliberately conservative: a call that cannot be resolved
inside the analyzed file set (NumPy, the stdlib, dynamic dispatch) is
simply an external edge and never produces a finding by itself.  The
supported forms cover this codebase's idiom:

* plain names -- a module-level function of the same module;
* ``self.meth(...)`` / ``cls.meth(...)`` -- a method of the enclosing
  class;
* ``alias.func(...)`` where ``alias`` was bound by ``import`` /
  ``from ... import`` -- a function of another analyzed module;
* names bound by ``from .mod import func`` -- the target function.

Known limitations (documented in ``docs/analysis.md``): no tracking of
functions stored in containers or passed as values (other than the
pool-payload positions the S-rules inspect), no inheritance resolution,
one shared namespace per module (a local rebinding a module-level name
shadows it for resolution purposes only when assigned in that
function).
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple


def module_name_for(path: str) -> str:
    """Dotted module name for ``path``, derived from ``__init__.py`` chains.

    ``src/repro/engine/campaign.py`` -> ``repro.engine.campaign``; a file
    outside any package (e.g. a lint fixture) is just its stem.
    """
    path = os.path.abspath(path)
    directory, filename = os.path.split(path)
    stem = os.path.splitext(filename)[0]
    parts = [stem] if stem != "__init__" else []
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, package = os.path.split(directory)
        if not package:  # pragma: no cover - filesystem root
            break
        parts.append(package)
    return ".".join(reversed(parts)) if parts else stem


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for Name/Attribute chains, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class FunctionInfo:
    """One analyzed function or method."""

    qualname: str                 #: ``module:fn`` / ``module:Class.fn``
    module: str
    name: str                     #: bare function name
    filename: str
    node: ast.AST                 #: FunctionDef / AsyncFunctionDef
    class_name: Optional[str] = None
    params: Tuple[str, ...] = ()
    #: names of functions/classes defined *inside* this function (their
    #: pickles capture the enclosing frame -- the S-rules care)
    local_defs: Set[str] = field(default_factory=set)
    #: resolved program-internal callees (qualnames)
    callees: Set[str] = field(default_factory=set)
    #: every Call node in the body, with its resolved target (or None)
    calls: List[Tuple[ast.Call, Optional[str]]] = field(
        default_factory=list
    )

    @property
    def line(self) -> int:
        return getattr(self.node, "lineno", 0)


@dataclass
class ModuleInfo:
    """One parsed source file."""

    name: str
    filename: str
    tree: ast.Module
    #: local alias -> dotted module (``np`` -> ``numpy``) for ``import``
    module_aliases: Dict[str, str] = field(default_factory=dict)
    #: local name -> ``module:object`` for ``from m import o [as n]``
    object_imports: Dict[str, str] = field(default_factory=dict)
    #: module-level assigned names -> the (last) value expression
    module_assigns: Dict[str, ast.AST] = field(default_factory=dict)
    #: functions keyed by local path (``fn`` or ``Class.fn``)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)


def _collect_params(node: ast.AST) -> Tuple[str, ...]:
    args = node.args  # type: ignore[attr-defined]
    names = [a.arg for a in getattr(args, "posonlyargs", [])]
    names += [a.arg for a in args.args]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    names += [a.arg for a in args.kwonlyargs]
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return tuple(names)


def _resolve_relative(module: str, level: int,
                      target: Optional[str]) -> str:
    """Absolute module for a ``from ...target import x`` statement."""
    base = module.split(".")
    # level 1 = the containing package of `module`
    base = base[: max(len(base) - level, 0)]
    if target:
        base = base + target.split(".")
    return ".".join(base)


class _ModuleScanner(ast.NodeVisitor):
    """First pass: index one module's imports, globals and functions."""

    def __init__(self, info: ModuleInfo) -> None:
        self.info = info
        self._class_stack: List[str] = []
        self._func_stack: List[FunctionInfo] = []

    # -- imports -------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.info.module_aliases[local] = target

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        source = node.module
        if node.level:
            source = _resolve_relative(self.info.name, node.level,
                                       node.module)
        if source is None:
            return
        for alias in node.names:
            local = alias.asname or alias.name
            self.info.object_imports[local] = f"{source}:{alias.name}"

    # -- module-level bindings ----------------------------------------
    def _record_assign(self, target: ast.AST, value: ast.AST) -> None:
        if (not self._func_stack and not self._class_stack
                and isinstance(target, ast.Name)):
            self.info.module_assigns[target.id] = value

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_assign(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_assign(node.target, node.value)
        self.generic_visit(node)

    # -- functions -----------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._func_stack:
            self._func_stack[-1].local_defs.add(node.name)
            return  # don't index functions of function-local classes
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _visit_function(self, node: ast.AST, name: str) -> None:
        if self._func_stack:
            # nested function: record for closure checks, keep indexing
            # its body under the *outer* function's entry is wrong --
            # give it its own entry so calls inside it resolve too.
            self._func_stack[-1].local_defs.add(name)
            local_path = f"{self._func_stack[-1].qualname.split(':', 1)[1]}.<locals>.{name}"
        else:
            local_path = (
                f"{self._class_stack[-1]}.{name}"
                if self._class_stack else name
            )
        info = FunctionInfo(
            qualname=f"{self.info.name}:{local_path}",
            module=self.info.name,
            name=name,
            filename=self.info.filename,
            node=node,
            class_name=self._class_stack[-1] if self._class_stack else None,
            params=_collect_params(node),
        )
        self.info.functions[local_path] = info
        self._func_stack.append(info)
        for child in ast.iter_child_nodes(node):
            self.visit(child)
        self._func_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, node.name)


class Program:
    """The analyzed file set: modules, functions, and the call graph."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self._reachable_cache: Dict[str, Set[str]] = {}
        self._callers: Dict[str, Set[str]] = {}

    # -- construction --------------------------------------------------
    @classmethod
    def build(cls, files: Iterable[str]) -> "Program":
        program = cls()
        for path in files:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            program.add_source(source, path)
        program.link()
        return program

    @classmethod
    def from_sources(
        cls, sources: Sequence[Tuple[str, str]]
    ) -> "Program":
        """Build from ``(source, filename)`` pairs (tests, fixtures)."""
        program = cls()
        for source, filename in sources:
            program.add_source(source, filename)
        program.link()
        return program

    def add_source(self, source: str, filename: str) -> None:
        try:
            tree = ast.parse(source, filename=filename)
        except SyntaxError:
            # the code linter reports C000; the flow pass just skips it
            return
        info = ModuleInfo(name=module_name_for(filename),
                          filename=filename, tree=tree)
        _ModuleScanner(info).visit(tree)
        self.modules[info.name] = info
        for function in info.functions.values():
            self.functions[function.qualname] = function

    # -- call resolution -----------------------------------------------
    def resolve_call(self, module: ModuleInfo,
                     function: FunctionInfo,
                     call: ast.Call) -> Optional[str]:
        """Qualname of the analyzed function this call targets, if any."""
        name = dotted_name(call.func)
        if name is None:
            return None
        parts = name.split(".")
        head = parts[0]
        # self.meth() / cls.meth() inside a class
        if (head in ("self", "cls") and len(parts) == 2
                and function.class_name is not None):
            local = f"{function.class_name}.{parts[1]}"
            target = module.functions.get(local)
            return target.qualname if target else None
        if len(parts) == 1:
            # a plain name: same-module function, or a from-import
            target = module.functions.get(head)
            if target is not None:
                return target.qualname
            imported = module.object_imports.get(head)
            if imported is not None:
                target_module, obj = imported.split(":", 1)
                return self._function_in(target_module, obj)
            return None
        # alias.func(...) through an `import` binding
        alias_target = module.module_aliases.get(head)
        if alias_target is not None and len(parts) == 2:
            return self._function_in(alias_target, parts[1])
        # from-imported *module*: `from repro import obs` binds obs
        imported = module.object_imports.get(head)
        if imported is not None and len(parts) == 2:
            target_module, obj = imported.split(":", 1)
            submodule = f"{target_module}.{obj}"
            return self._function_in(submodule, parts[1])
        return None

    def _function_in(self, module: str, name: str) -> Optional[str]:
        info = self.modules.get(module)
        if info is None:
            return None
        target = info.functions.get(name)
        return target.qualname if target else None

    def link(self) -> None:
        """Second pass: resolve every call site and build the edges."""
        for module in self.modules.values():
            for function in module.functions.values():
                for node in ast.walk(function.node):
                    if not isinstance(node, ast.Call):
                        continue
                    resolved = self.resolve_call(module, function, node)
                    function.calls.append((node, resolved))
                    if resolved is not None:
                        function.callees.add(resolved)
                        self._callers.setdefault(resolved, set()).add(
                            function.qualname
                        )
        self._reachable_cache.clear()

    # -- graph queries --------------------------------------------------
    def callees(self, qualname: str) -> Set[str]:
        function = self.functions.get(qualname)
        return set(function.callees) if function else set()

    def callers(self, qualname: str) -> Set[str]:
        return set(self._callers.get(qualname, ()))

    def reachable_from(self, qualname: str) -> Set[str]:
        """Every analyzed function transitively callable from here
        (excluding ``qualname`` itself unless it is in a cycle)."""
        cached = self._reachable_cache.get(qualname)
        if cached is not None:
            return cached
        seen: Set[str] = set()
        frontier = list(self.callees(qualname))
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self.callees(current))
        self._reachable_cache[qualname] = seen
        return seen

    def transitive_callers(self, qualname: str) -> Set[str]:
        """Every analyzed function that can transitively reach here."""
        seen: Set[str] = set()
        frontier = list(self.callers(qualname))
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self.callers(current))
        return seen

    def sorted_functions(self) -> List[FunctionInfo]:
        """All functions in (filename, line) order -- stable reporting."""
        return sorted(
            self.functions.values(),
            key=lambda f: (f.filename, f.line, f.qualname),
        )
