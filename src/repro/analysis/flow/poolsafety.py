"""S-rules: what may cross a process-pool boundary, and what workers
may touch.

The campaign engine and the parallel search guarantee ``jobs=N ==
jobs=1`` only because everything shipped to a worker pickles cleanly and
workers stay purely computational.  These rules certify both properties
statically:

* ``S001`` -- a pool payload (a ``submit``/``map`` function or argument,
  an ``initializer``/``initargs`` entry, a ``campaign_map`` function, a
  ``resilient_map`` task or ``init``/``initargs`` entry) is statically
  unpicklable: a lambda, a function or class defined
  inside the enclosing function (pickling captures the local frame), a
  generator expression, or an open file handle.
* ``S002`` -- a function reachable from a pool-worker entry point
  mutates a module global that is not one of the sanctioned
  process-local registries (trace/baseline memo caches, the worker
  state dict, the obs recorder).  Unsanctioned global writes diverge
  between the serial and pooled paths.
* ``S003`` -- ``os._exit`` outside the ``chaos`` package.  A hard exit
  is the chaos layer's fault-injection primitive; anywhere else it is a
  correctness bug (it skips ``finally`` blocks and pool cleanup).

Worker entry points are discovered from the call sites themselves: any
function passed in the callable position of ``submit``/``map``/
``apply_async``/``campaign_map``/``resilient_map`` or as a pool
``initializer=`` / runner ``init=``.  The reachable set is the
transitive call-graph closure from those entries.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..diagnostics import (
    Diagnostic,
    DiagnosticSink,
    Location,
    Severity,
    register_rule,
)
from .callgraph import FunctionInfo, ModuleInfo, Program, dotted_name

UNPICKLABLE_PAYLOAD = register_rule(
    "S001", Severity.ERROR,
    "statically unpicklable payload shipped across a pool boundary",
    "ship module-level functions and plain data; lambdas, closures, "
    "local classes, generators and open handles cannot cross a "
    "ProcessPoolExecutor boundary",
)
WORKER_GLOBAL_MUTATION = register_rule(
    "S002", Severity.ERROR,
    "pool-worker-reachable function mutates an unsanctioned module global",
    "route worker state through the sanctioned per-process registries "
    "(worker-state dict, trace/baseline memo caches) or return it with "
    "the result; ad-hoc globals diverge between jobs=1 and jobs=N",
)
HARD_EXIT_OUTSIDE_CHAOS = register_rule(
    "S003", Severity.ERROR,
    "os._exit outside the chaos package",
    "only the chaos layer may hard-kill a process (worker-crash "
    "injection); everywhere else raise or return an error instead",
)

#: module globals workers may mutate: the per-process registries that
#: memoize deterministic pure functions (so mutation order cannot change
#: results) plus the worker-state/recorder plumbing itself.
SANCTIONED_WORKER_GLOBALS: FrozenSet[str] = frozenset({
    "_WORKER_STATE",
    "_RECORDER",
    "_TRACE_SET_CACHE",
    "_TRACE_CACHE_STATS",
    "_STREAM_CACHE",
    "_STREAM_CACHE_SIZE",
    "_BASELINE_MEMO",
    "_PREFLIGHT_SEEN",
    "_preflight_check",
})

#: pool-class constructors (resolved through imports where possible)
_POOL_CONSTRUCTORS = frozenset({
    "ProcessPoolExecutor", "Pool", "ThreadPoolExecutor",
})
_POOL_CONSTRUCTOR_SUFFIXES = (
    ".ProcessPoolExecutor", ".Pool", ".ThreadPoolExecutor",
)

#: pool methods whose first argument is the shipped callable
_POOL_DISPATCH_METHODS = frozenset({
    "submit", "map", "imap", "imap_unordered", "starmap", "apply",
    "apply_async", "map_async",
})

#: program functions that behave like a pool dispatch (callable first,
#: optional per-worker ``init=`` / ``initargs=``)
_DISPATCH_FUNCTIONS = frozenset({"campaign_map", "resilient_map"})

#: list-mutating / dict-mutating method names counting as a write
_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "clear", "pop",
    "popitem", "setdefault", "remove", "discard", "sort", "reverse",
})


def _is_pool_constructor(call: ast.Call,
                         module: ModuleInfo) -> bool:
    name = dotted_name(call.func)
    if name is None:
        return False
    if name in _POOL_CONSTRUCTORS:
        imported = module.object_imports.get(name, "")
        return imported.startswith(("concurrent.futures",
                                    "multiprocessing")) or not imported
    return name.endswith(_POOL_CONSTRUCTOR_SUFFIXES)


def _pool_vars(function: FunctionInfo,
               module: ModuleInfo) -> Set[str]:
    """Local names bound to a pool object in this function."""
    pools: Set[str] = set()
    for node in ast.walk(function.node):
        if isinstance(node, ast.Assign):
            if (isinstance(node.value, ast.Call)
                    and _is_pool_constructor(node.value, module)):
                pools.update(
                    t.id for t in node.targets if isinstance(t, ast.Name)
                )
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if (isinstance(item.context_expr, ast.Call)
                        and _is_pool_constructor(item.context_expr, module)
                        and isinstance(item.optional_vars, ast.Name)):
                    pools.add(item.optional_vars.id)
    return pools


@dataclass(frozen=True)
class _Payload:
    """One expression shipped across a pool boundary."""

    expr: ast.AST
    call: ast.Call
    is_callable_slot: bool        #: the fn position (worker entry point)


def _payloads_of(function: FunctionInfo, module: ModuleInfo,
                 pool_vars: Set[str]) -> List[_Payload]:
    payloads: List[_Payload] = []
    for call, resolved in function.calls:
        func = call.func
        # pool.method(fn, *args) on a known pool variable
        if (isinstance(func, ast.Attribute)
                and func.attr in _POOL_DISPATCH_METHODS
                and isinstance(func.value, ast.Name)
                and func.value.id in pool_vars):
            for index, arg in enumerate(call.args):
                payloads.append(_Payload(arg, call, index == 0))
            continue
        # dispatch helpers (campaign_map, the resilient runner) ship
        # their first argument
        name = dotted_name(func)
        base = name.split(".")[-1] if name else ""
        dispatch = (base in _DISPATCH_FUNCTIONS
                    or (resolved is not None
                        and resolved.split(":")[-1] in _DISPATCH_FUNCTIONS))
        if dispatch and call.args:
            payloads.append(_Payload(call.args[0], call, True))
        # ... and, like pool constructors, a per-worker initializer
        # (initializer= / init=) plus its initargs=
        if not dispatch and not _is_pool_constructor(call, module):
            continue
        for keyword in call.keywords:
            if keyword.arg in ("initializer", "init"):
                payloads.append(_Payload(keyword.value, call, True))
            elif keyword.arg == "initargs":
                value = keyword.value
                elements = (
                    value.elts
                    if isinstance(value, (ast.Tuple, ast.List))
                    else [value]
                )
                for element in elements:
                    payloads.append(_Payload(element, call, False))
    return payloads


def _local_unpicklable_bindings(
    function: FunctionInfo,
) -> Dict[str, str]:
    """Local names bound to values that cannot cross the boundary."""
    bindings: Dict[str, str] = {}
    for name in function.local_defs:
        bindings[name] = "a function or class defined in the enclosing " \
                         "function (its pickle captures the local frame)"
    for node in ast.walk(function.node):
        if not isinstance(node, ast.Assign):
            continue
        reason: Optional[str] = None
        if isinstance(node.value, ast.Lambda):
            reason = "a lambda"
        elif isinstance(node.value, ast.GeneratorExp):
            reason = "a generator expression"
        elif (isinstance(node.value, ast.Call)
                and dotted_name(node.value.func) in ("open", "io.open")):
            reason = "an open file handle"
        if reason is None:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                bindings[target.id] = reason
    return bindings


def _check_payload(payload: _Payload, function: FunctionInfo,
                   bindings: Dict[str, str], sink: DiagnosticSink,
                   filename: str) -> None:
    stack: List[ast.AST] = [payload.expr]
    while stack:
        expr = stack.pop()
        reason: Optional[str] = None
        if isinstance(expr, ast.Lambda):
            reason = "a lambda"
        elif isinstance(expr, ast.GeneratorExp):
            reason = "a generator expression"
        elif (isinstance(expr, ast.Call)
                and dotted_name(expr.func) in ("open", "io.open")):
            reason = "an open file handle"
        elif isinstance(expr, ast.Name) and expr.id in bindings:
            reason = bindings[expr.id]
        elif isinstance(expr, (ast.Tuple, ast.List)):
            stack.extend(expr.elts)
        elif isinstance(expr, ast.Starred):
            stack.append(expr.value)
        elif (isinstance(expr, ast.Call)
                and dotted_name(expr.func) in ("partial",
                                               "functools.partial")):
            stack.extend(expr.args)
            stack.extend(k.value for k in expr.keywords)
        if reason is not None:
            sink.emit(
                UNPICKLABLE_PAYLOAD,
                Location(file=filename,
                         line=getattr(expr, "lineno", payload.call.lineno),
                         column=getattr(expr, "col_offset", None)),
                f"pool payload in {function.qualname} is {reason}; it "
                "cannot be pickled into a worker process",
            )


def _worker_entry_points(program: Program) -> Set[str]:
    entries: Set[str] = set()
    for module in program.modules.values():
        for function in module.functions.values():
            pool_vars = _pool_vars(function, module)
            for payload in _payloads_of(function, module, pool_vars):
                if not payload.is_callable_slot:
                    continue
                expr = payload.expr
                if isinstance(expr, ast.Name):
                    resolved = _resolve_name(program, module, expr.id)
                    if resolved is not None:
                        entries.add(resolved)
                else:
                    name = dotted_name(expr)
                    if name and "." in name:
                        resolved = _resolve_dotted(program, module, name)
                        if resolved is not None:
                            entries.add(resolved)
    return entries


def _resolve_name(program: Program, module: ModuleInfo,
                  name: str) -> Optional[str]:
    target = module.functions.get(name)
    if target is not None:
        return target.qualname
    imported = module.object_imports.get(name)
    if imported is not None:
        target_module, obj = imported.split(":", 1)
        info = program.modules.get(target_module)
        if info is not None and obj in info.functions:
            return info.functions[obj].qualname
    return None


def _resolve_dotted(program: Program, module: ModuleInfo,
                    name: str) -> Optional[str]:
    parts = name.split(".")
    alias_target = module.module_aliases.get(parts[0])
    if alias_target is not None and len(parts) == 2:
        info = program.modules.get(alias_target)
        if info is not None and parts[1] in info.functions:
            return info.functions[parts[1]].qualname
    return None


def _module_level_names(module: ModuleInfo) -> Set[str]:
    names = set(module.module_assigns)
    for node in module.tree.body:
        if isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name):
            names.add(node.target.id)
    return names


def _local_names(function: FunctionInfo) -> Set[str]:
    """Names assigned (bare) inside the function -- they shadow globals
    unless declared ``global``."""
    names: Set[str] = set(function.params)
    declared_global: Set[str] = set()
    for node in ast.walk(function.node):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for target in (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            ):
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
            elif isinstance(node.target, (ast.Tuple, ast.List)):
                names.update(
                    e.id for e in node.target.elts
                    if isinstance(e, ast.Name)
                )
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.optional_vars, ast.Name):
                    names.add(item.optional_vars.id)
    return names - declared_global


def _global_mutations(
    function: FunctionInfo, module: ModuleInfo,
    sanctioned: FrozenSet[str],
) -> List[Tuple[ast.AST, str]]:
    """(node, global name) writes to unsanctioned module globals."""
    module_names = _module_level_names(module)
    locals_ = _local_names(function)
    declared_global: Set[str] = set()
    for node in ast.walk(function.node):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
    mutations: List[Tuple[ast.AST, str]] = []

    def is_global(name: str) -> bool:
        if name in sanctioned:
            return False
        if name in declared_global:
            return True
        return name in module_names and name not in locals_

    for node in ast.walk(function.node):
        # rebinding through `global NAME; NAME = ...`
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if (isinstance(target, ast.Name)
                        and target.id in declared_global
                        and is_global(target.id)):
                    mutations.append((node, target.id))
                # NAME[...] = / NAME.attr = on a module-level binding
                elif (isinstance(target, (ast.Subscript, ast.Attribute))
                        and isinstance(target.value, ast.Name)
                        and is_global(target.value.id)):
                    mutations.append((node, target.value.id))
        # NAME.append(...) etc. on a module-level binding
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATING_METHODS
                and isinstance(node.func.value, ast.Name)
                and is_global(node.func.value.id)):
            mutations.append((node, node.func.value.id))
    return mutations


def check_pool_safety(
    program: Program,
    sanctioned: FrozenSet[str] = SANCTIONED_WORKER_GLOBALS,
) -> List[Diagnostic]:
    """Run S001-S003 over an analyzed program."""
    sink = DiagnosticSink()

    # S001: payload picklability at every dispatch site
    for module in program.modules.values():
        for function in module.functions.values():
            pool_vars = _pool_vars(function, module)
            payloads = _payloads_of(function, module, pool_vars)
            if not payloads:
                continue
            bindings = _local_unpicklable_bindings(function)
            for payload in payloads:
                _check_payload(payload, function, bindings, sink,
                               module.filename)

    # S002: global mutation from worker-reachable functions
    entries = _worker_entry_points(program)
    worker_reachable: Set[str] = set(entries)
    for entry in entries:
        worker_reachable |= program.reachable_from(entry)
    for qualname in sorted(worker_reachable):
        function = program.functions.get(qualname)
        if function is None:
            continue
        module = program.modules.get(function.module)
        if module is None:
            continue
        for node, name in _global_mutations(function, module, sanctioned):
            sink.emit(
                WORKER_GLOBAL_MUTATION,
                Location(file=function.filename,
                         line=getattr(node, "lineno", function.line),
                         column=getattr(node, "col_offset", None)),
                f"{function.qualname} runs in pool workers and mutates "
                f"module global {name!r}; worker-side writes to it are "
                "lost (or diverge) when the unit runs serially",
            )

    # S003: os._exit confined to the chaos package
    for module in program.modules.values():
        in_chaos = "/chaos/" in module.filename.replace("\\", "/") or \
            module.name.startswith("repro.chaos")
        if in_chaos:
            continue
        for function in module.functions.values():
            for call, _resolved in function.calls:
                if dotted_name(call.func) == "os._exit":
                    sink.emit(
                        HARD_EXIT_OUTSIDE_CHAOS,
                        Location(file=module.filename,
                                 line=call.lineno,
                                 column=call.col_offset),
                        f"os._exit in {function.qualname}; hard process "
                        "kills belong to the chaos layer's injection "
                        "primitives only",
                    )
    return sink.diagnostics
