"""D-rules: whole-program seed-flow analysis.

The simulator's contract is that every random draw replays bit-for-bit
from an explicit seed.  ``C001``/``C002`` check RNG *construction sites*
one statement at a time; these rules follow the seed itself -- through
assignments inside a function (a small intraprocedural taint pass) and
through the call graph across functions:

* ``D001`` -- a function accepts a seed-named parameter, never reads it,
  and (itself or via a callee) constructs an RNG: the caller's seed is
  silently ignored.
* ``D002`` -- a seed-derived variable is unconditionally overwritten by
  a constant and then still used: the derivation is dead, every caller
  gets the same stream.
* ``D003`` -- an RNG is constructed from a bare constant while a real
  seed is statically in reach (a seed parameter / seed-derived variable
  in the same function, or a seed parameter in a transitive caller):
  the seed died on its way to the construction site.
* ``D004`` -- an RNG stored in a shared binding (module global or
  ``self`` attribute) was constructed without a derived seed, and a
  *different* function draws from it: the draw's result depends on
  global call order, not on a seed.

"Seed-derived" is reference-based: any expression that mentions a
seed-named parameter or an already-derived variable derives from it
(``default_rng([seed, node])``, ``seed * 31 + shard`` both count).  A
constant seed is only an error where a derivation was available --
defaults like ``def run(seed=0)`` stay legal.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..diagnostics import (
    Diagnostic,
    DiagnosticSink,
    Location,
    Severity,
    register_rule,
)
from ..code_lint import is_np_rng_constructor
from .callgraph import FunctionInfo, Program, dotted_name

SEED_NOT_THREADED = register_rule(
    "D001", Severity.ERROR,
    "seed parameter accepted but never used by an RNG-reaching function",
    "thread the parameter into every RNG construction this function "
    "reaches (or drop the parameter); an ignored seed silently breaks "
    "replay-from-seed",
)
SEED_OVERWRITTEN = register_rule(
    "D002", Severity.ERROR,
    "derived seed overwritten by a constant before use",
    "remove the constant reassignment -- after it, every caller's seed "
    "produces the same stream",
)
SEED_OUT_OF_REACH = register_rule(
    "D003", Severity.ERROR,
    "RNG constructed from a constant while a real seed is in reach",
    "pass the in-scope seed (or a value derived from it) instead of the "
    "constant; derive per-stream seeds like default_rng([seed, tag])",
)
SHARED_RNG_UNSEEDED = register_rule(
    "D004", Severity.ERROR,
    "draw from a shared RNG that was not constructed from a derived seed",
    "construct the shared RNG from an explicit seed parameter, or make "
    "the draw site create its own seeded generator",
)

#: parameter / variable names that carry a seed
SEED_NAME = re.compile(r"(^|_)seed(s)?(_|$)", re.IGNORECASE)

#: methods that draw from an RNG object
_DRAW_METHODS = frozenset({
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "expovariate",
    "betavariate", "gammavariate", "paretovariate", "weibullvariate",
    "triangular", "vonmisesvariate", "lognormvariate", "getrandbits",
    "normal", "exponential", "integers", "permutation", "poisson",
    "standard_normal", "binomial", "weibull",
})

# seed-expression classifications
_MISSING = "missing"      # no seed argument at all (C001/C002 territory)
_CONSTANT = "constant"    # references no name: literals only
_DERIVED = "derived"      # references a seed-derived name
_OTHER = "other"          # references some non-seed name (allowed)


def is_rng_constructor(call: ast.Call,
                       name: Optional[str]) -> bool:
    """Is this call a known RNG construction?"""
    if name is None:
        return False
    if name in ("Random", "random.Random"):
        return True
    return is_np_rng_constructor(name)


def _wrapped_construction(call: ast.Call) -> Optional[ast.Call]:
    """The RNG construction ``call`` wraps as its seed, as in
    ``np.random.Generator(np.random.PCG64(seed))`` (else None)."""
    first = call.args[0] if call.args else None
    if isinstance(first, ast.Call) and is_rng_constructor(
            first, dotted_name(first.func)):
        return first
    return None


def seed_argument(call: ast.Call) -> Optional[ast.AST]:
    """The seed expression of an RNG construction (None when absent);
    a wrapped construction yields its own seed."""
    inner = _wrapped_construction(call)
    if inner is not None:
        return seed_argument(inner)
    if call.args:
        first = call.args[0]
        if isinstance(first, ast.Constant) and first.value is None:
            return None
        return first
    for keyword in call.keywords:
        if keyword.arg in ("seed", "entropy"):
            return keyword.value
    return None


def _referenced_names(node: ast.AST) -> Set[str]:
    """Every Name load (plus attribute bases) inside ``node``."""
    names: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
    return names


def classify_seed_expr(expr: Optional[ast.AST],
                       tainted: Set[str]) -> str:
    if expr is None:
        return _MISSING
    names = _referenced_names(expr)
    if not names:
        return _CONSTANT
    if names & tainted:
        return _DERIVED
    return _OTHER


@dataclass
class SeedFacts:
    """Intraprocedural seed-flow facts for one function."""

    function: FunctionInfo
    seed_params: Tuple[str, ...] = ()
    read_names: Set[str] = field(default_factory=set)
    #: seed-derived names at end of the pass (over-approximate)
    tainted: Set[str] = field(default_factory=set)
    #: (assign node, name) -- unconditional constant overwrite of a
    #: derived seed that is still read afterwards
    dead_derivations: List[Tuple[ast.AST, str]] = field(
        default_factory=list
    )
    #: (call node, seed classification) for every RNG construction
    constructions: List[Tuple[ast.Call, str]] = field(
        default_factory=list
    )

    @property
    def has_seed_source(self) -> bool:
        return bool(self.seed_params) or bool(self.tainted)


def _assign_targets(node: ast.AST) -> List[str]:
    targets: List[str] = []
    if isinstance(node, ast.Assign):
        for target in node.targets:
            if isinstance(target, ast.Name):
                targets.append(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                targets.extend(
                    e.id for e in target.elts if isinstance(e, ast.Name)
                )
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        if isinstance(node.target, ast.Name):
            targets.append(node.target.id)
    return targets


def _is_constant_expr(node: ast.AST) -> bool:
    return not _referenced_names(node)


def analyze_function(function: FunctionInfo) -> SeedFacts:
    """Run the intraprocedural pass over one function body."""
    facts = SeedFacts(function=function)
    facts.seed_params = tuple(
        p for p in function.params
        if p not in ("self", "cls") and SEED_NAME.search(p)
    )
    body = list(ast.iter_child_nodes(function.node))

    # reads: every Name load anywhere in the body (nested defs included
    # -- a seed captured by a closure counts as used)
    for node in ast.walk(function.node):  # type: ignore[arg-type]
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            facts.read_names.add(node.id)

    # taint: fixpoint over assignments (order-free over-approximation)
    tainted: Set[str] = set(facts.seed_params)
    assigns = [
        node for node in ast.walk(function.node)
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
    ]
    changed = True
    while changed:
        changed = False
        for node in assigns:
            value = getattr(node, "value", None)
            if value is None:
                continue
            if _referenced_names(value) & tainted:
                for target in _assign_targets(node):
                    if target not in tainted:
                        tainted.add(target)
                        changed = True
    facts.tainted = tainted

    # dead derivations (D002): straight-line statements of the function
    # body only -- a conditional overwrite is not provably dead
    derived_so_far: Set[str] = set(facts.seed_params)
    statements = _straight_line(body)
    for statement in statements:
        if not isinstance(statement, (ast.Assign, ast.AnnAssign)):
            continue
        value = getattr(statement, "value", None)
        if value is None:
            continue
        targets = _assign_targets(statement)
        if _referenced_names(value) & derived_so_far:
            derived_so_far.update(targets)
            continue
        if _is_constant_expr(value):
            for name in targets:
                if name in derived_so_far and _read_after(
                        function.node, statement, name):
                    facts.dead_derivations.append((statement, name))

    # RNG constructions
    for call, _resolved in function.calls:
        name = dotted_name(call.func)
        # a wrapping Generator(...) is one construction with its inner
        # bit generator, which is visited itself
        if (is_rng_constructor(call, name)
                and _wrapped_construction(call) is None):
            classification = classify_seed_expr(
                seed_argument(call), tainted
            )
            facts.constructions.append((call, classification))
    return facts


def _straight_line(body: List[ast.AST]) -> List[ast.stmt]:
    """Unconditionally executed statements (descending through With)."""
    flat: List[ast.stmt] = []
    for node in body:
        if isinstance(node, ast.stmt):
            flat.append(node)
            if isinstance(node, (ast.With, ast.AsyncWith)):
                flat.extend(_straight_line(list(node.body)))
    return flat


def _read_after(function_node: ast.AST, statement: ast.stmt,
                name: str) -> bool:
    after = getattr(statement, "end_lineno", statement.lineno)
    for node in ast.walk(function_node):
        if (isinstance(node, ast.Name) and node.id == name
                and isinstance(node.ctx, ast.Load)
                and getattr(node, "lineno", 0) > after):
            return True
    return False


# ----------------------------------------------------------------------
# shared (module-global / attribute) RNG bindings
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SharedRng:
    """An RNG stored where several functions can draw from it."""

    key: str                      #: ``module:NAME`` or ``module:Cls.attr``
    classification: str           #: seed classification at construction
    owner: Optional[str]          #: constructing function (None = module)
    filename: str
    line: int


def _collect_shared_rngs(program: Program) -> Dict[str, SharedRng]:
    shared: Dict[str, SharedRng] = {}
    for module in program.modules.values():
        # module-level `NAME = <rng ctor>` bindings
        for name, value in module.module_assigns.items():
            if isinstance(value, ast.Call) and is_rng_constructor(
                    value, dotted_name(value.func)):
                classification = classify_seed_expr(
                    seed_argument(value), set()
                )
                shared[f"{module.name}:{name}"] = SharedRng(
                    key=f"{module.name}:{name}",
                    classification=classification,
                    owner=None,
                    filename=module.filename,
                    line=value.lineno,
                )
        # `self.attr = <rng ctor>` inside methods
        for function in module.functions.values():
            if function.class_name is None:
                continue
            for node in ast.walk(function.node):
                if not isinstance(node, ast.Assign):
                    continue
                if not (isinstance(node.value, ast.Call)
                        and is_rng_constructor(
                            node.value, dotted_name(node.value.func))):
                    continue
                facts_tainted = {
                    p for p in function.params if SEED_NAME.search(p)
                }
                for target in node.targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        key = (f"{module.name}:{function.class_name}"
                               f".{target.attr}")
                        classification = classify_seed_expr(
                            seed_argument(node.value),
                            analyze_function(function).tainted
                            or facts_tainted,
                        )
                        shared[key] = SharedRng(
                            key=key,
                            classification=classification,
                            owner=function.qualname,
                            filename=module.filename,
                            line=node.lineno,
                        )
    return shared


def _draw_base(call: ast.Call) -> Optional[Tuple[str, str]]:
    """``(kind, name)`` of a draw call's receiver.

    ``("name", "X")`` for ``X.random()``, ``("attr", "a")`` for
    ``self.a.random()``; None for anything else or non-draw methods.
    """
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    if func.attr not in _DRAW_METHODS:
        return None
    base = func.value
    if isinstance(base, ast.Name):
        return ("name", base.id)
    if (isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"):
        return ("attr", base.attr)
    return None


# ----------------------------------------------------------------------
# the pass
# ----------------------------------------------------------------------
def check_seed_flow(program: Program) -> List[Diagnostic]:
    """Run D001-D004 over an analyzed program."""
    sink = DiagnosticSink()
    facts_by_function: Dict[str, SeedFacts] = {
        f.qualname: analyze_function(f)
        for f in program.sorted_functions()
    }

    # which functions construct an RNG anywhere (for D001 reach checks)
    constructs = {
        qualname for qualname, facts in facts_by_function.items()
        if facts.constructions
    }

    # which functions have a seed parameter (for D003 caller checks)
    has_seed_param = {
        qualname for qualname, facts in facts_by_function.items()
        if facts.seed_params
    }

    shared_rngs = _collect_shared_rngs(program)

    def location(function: FunctionInfo, node: ast.AST) -> Location:
        return Location(
            file=function.filename,
            line=getattr(node, "lineno", function.line),
            column=getattr(node, "col_offset", None),
        )

    for function in program.sorted_functions():
        facts = facts_by_function[function.qualname]

        # D001: seed parameter accepted but never read
        unread = [p for p in facts.seed_params
                  if p not in facts.read_names]
        if unread:
            reaches_rng = bool(facts.constructions) or bool(
                program.reachable_from(function.qualname) & constructs
            )
            if reaches_rng:
                for param in unread:
                    sink.emit(
                        SEED_NOT_THREADED, location(function, function.node),
                        f"{function.qualname} accepts seed parameter "
                        f"{param!r} but never uses it, yet reaches an "
                        "RNG construction",
                    )

        # D002: derived seed overwritten by a constant
        for statement, name in facts.dead_derivations:
            sink.emit(
                SEED_OVERWRITTEN, location(function, statement),
                f"seed-derived variable {name!r} is overwritten by a "
                "constant and then used; the derivation above it is "
                "dead",
            )

        # D003: constant-seeded construction while a seed is in reach
        for call, classification in facts.constructions:
            if classification != _CONSTANT:
                continue
            if facts.has_seed_source:
                sink.emit(
                    SEED_OUT_OF_REACH, location(function, call),
                    "RNG constructed from a constant although "
                    f"{function.qualname} has a seed in scope",
                )
                continue
            seeded_callers = (
                program.transitive_callers(function.qualname)
                & has_seed_param
            )
            if seeded_callers:
                nearest = sorted(seeded_callers)[0]
                sink.emit(
                    SEED_OUT_OF_REACH, location(function, call),
                    "RNG constructed from a constant; a seed parameter "
                    f"exists upstream (e.g. {nearest}) but is not "
                    "threaded down to this call",
                )

        # D004: draws from shared, non-derived-seed RNG bindings
        for call, _resolved in function.calls:
            base = _draw_base(call)
            if base is None:
                continue
            kind, name = base
            if kind == "name":
                key = f"{function.module}:{name}"
            else:
                if function.class_name is None:
                    continue
                key = f"{function.module}:{function.class_name}.{name}"
            binding = shared_rngs.get(key)
            if binding is None:
                continue
            if binding.classification not in (_MISSING, _CONSTANT):
                continue
            if binding.owner == function.qualname:
                continue  # construction and draw in the same function
            sink.emit(
                SHARED_RNG_UNSEEDED, location(function, call),
                f"draw from shared RNG {key!r}, constructed "
                f"{'without a seed' if binding.classification == _MISSING else 'from a constant'} "
                f"at {binding.filename}:{binding.line}; results depend "
                "on call order, not on a seed",
            )

    return sink.diagnostics
