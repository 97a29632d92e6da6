"""Custom AST lint rules for repo-specific hazards.

Generic linters do not know that this codebase contains a *deterministic*
failure simulator whose results must be reproducible bit-for-bit from a
seed, or that engine cost values are floats that must never be compared
with ``==``.  This pass encodes those house rules:

* ``C001`` -- unseeded ``random.Random()`` / global ``random.*`` draws,
* ``C002`` -- unseeded NumPy RNG (``np.random.default_rng()``,
  ``SeedSequence()`` or a bit generator such as ``PCG64()`` with no
  seed, or legacy global draws like ``np.random.rand``),
* ``C003`` -- wall-clock reads (``time.time()``, ``datetime.now()``, ...)
  inside the deterministic simulator/core modules,
* ``C004`` -- float ``==`` / ``!=`` on cost-valued expressions,
* ``C005`` -- mutable default arguments,
* ``C006`` -- bare or silent ``except`` handlers.

Entry points: :func:`lint_source` (one source string),
:func:`lint_file`, and :func:`lint_paths` (recursive over a tree,
skipping ``tests``/hidden directories).  Findings use the shared
:mod:`repro.analysis.diagnostics` vocabulary.
"""

from __future__ import annotations

import ast
import os
import re
from typing import Iterable, List, Optional, Sequence

from .diagnostics import (
    Diagnostic,
    DiagnosticSink,
    Location,
    Severity,
    register_rule,
)

SYNTAX_ERROR = register_rule(
    "C000", Severity.ERROR,
    "file does not parse",
    "fix the syntax error; nothing else can be checked until it parses",
)
UNSEEDED_RANDOM = register_rule(
    "C001", Severity.ERROR,
    "unseeded stdlib RNG (random.Random() or a global random.* draw)",
    "pass an explicit seed, e.g. random.Random(seed); the simulator "
    "must replay identically from a seed",
)
UNSEEDED_NP_RANDOM = register_rule(
    "C002", Severity.ERROR,
    "unseeded NumPy RNG (default_rng(), SeedSequence() or a bit "
    "generator such as PCG64() without a seed, or a legacy "
    "np.random.* global draw)",
    "use np.random.default_rng(seed) with a derived, explicit seed",
)
WALL_CLOCK = register_rule(
    "C003", Severity.ERROR,
    "wall-clock read inside a deterministic simulator/core module",
    "simulated time must come from the trace/timeline, never from "
    "time.time()/datetime.now()",
)
FLOAT_COST_EQ = register_rule(
    "C004", Severity.ERROR,
    "float == / != on a cost-valued expression",
    "use math.isclose (or an ordered comparison) -- cost arithmetic "
    "accumulates rounding error",
)
MUTABLE_DEFAULT = register_rule(
    "C005", Severity.ERROR,
    "mutable default argument",
    "default to None and create the list/dict/set inside the function",
)
SILENT_EXCEPT = register_rule(
    "C006", Severity.ERROR,
    "bare or silent except handler",
    "catch specific exceptions and at least log or re-raise; bare "
    "'except:' also swallows KeyboardInterrupt",
)

#: modules whose execution must be deterministic: the simulator, the
#: engine around it, the optimizer core it shares cost code with, and
#: the observability layer whose merged counters must replay.
DETERMINISTIC_PACKAGES = ("engine", "core", "obs")

#: path suffixes exempt from the wall-clock rule inside those packages:
#: the recorder legitimately timestamps spans with ``perf_counter``.
WALL_CLOCK_ALLOWLIST = ("obs/recorder.py",)

#: identifier fragments that mark a float expression as cost-valued
_COST_NAME = re.compile(
    r"(^|_)(cost|costs|runtime|runtimes|mtbf|mttr|overhead|waste|wasted"
    r"|makespan|horizon|eta|gamma|baseline)(_|$)",
    re.IGNORECASE,
)

#: stdlib ``random`` module functions that draw from the global RNG
_GLOBAL_RANDOM_DRAWS = frozenset({
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "expovariate",
    "betavariate", "gammavariate", "paretovariate", "weibullvariate",
    "triangular", "vonmisesvariate", "lognormvariate", "getrandbits",
})

#: NumPy constructions that seed a stream: ``default_rng``, a
#: ``SeedSequence`` or a bit generator (see :func:`is_np_rng_constructor`)
_NP_SEEDED_CONSTRUCTORS = frozenset({
    "default_rng", "SeedSequence", "PCG64", "PCG64DXSM", "MT19937",
    "Philox", "SFC64",
})


def is_np_rng_constructor(name: str) -> bool:
    """Does the dotted call name construct a NumPy RNG?  Bit generators
    and ``SeedSequence`` match bare or qualified; ``Generator`` only as
    ``random.Generator`` (a bare one may be ``typing.Generator``)."""
    parts = name.split(".")
    return (parts[-1] in _NP_SEEDED_CONSTRUCTORS
            or parts[-2:] == ["random", "Generator"])


#: legacy ``np.random`` global-state draws (the pre-Generator API)
_NP_GLOBAL_DRAWS = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "choice",
    "shuffle", "permutation", "uniform", "normal", "exponential",
    "poisson", "binomial", "beta", "gamma", "weibull", "seed",
})

#: wall-clock calls: (module-ish prefix, attribute)
_WALL_CLOCK_CALLS = frozenset({
    ("time", "time"), ("time", "monotonic"), ("time", "perf_counter"),
    ("time", "process_time"), ("time", "time_ns"),
    ("time", "monotonic_ns"), ("time", "perf_counter_ns"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
})


def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for Name/Attribute chains, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_cost_expression(node: ast.AST) -> bool:
    """Heuristic: does this expression carry an engine cost value?"""
    if isinstance(node, ast.Name):
        return bool(_COST_NAME.search(node.id))
    if isinstance(node, ast.Attribute):
        return bool(_COST_NAME.search(node.attr))
    if isinstance(node, ast.Call):
        name = _dotted_name(node.func)
        return bool(name and _COST_NAME.search(name.split(".")[-1]))
    if isinstance(node, ast.BinOp):
        return (_is_cost_expression(node.left)
                or _is_cost_expression(node.right))
    return False


def _is_float_literal(node: ast.AST) -> bool:
    return (isinstance(node, ast.Constant)
            and isinstance(node.value, float))


class _Visitor(ast.NodeVisitor):
    def __init__(self, filename: str, deterministic: bool) -> None:
        self.filename = filename
        self.deterministic = deterministic
        self.sink = DiagnosticSink()
        #: bare local name -> dotted original, for wall-clock functions
        #: imported directly (``from time import monotonic [as tick]``)
        self._bare_wall_clock: dict = {}
        #: local alias -> real module (``import time as t``)
        self._module_aliases: dict = {}

    # -- imports (feed the wall-clock rule) ----------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.asname and "." not in alias.name:
                self._module_aliases[alias.asname] = alias.name
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = (node.module or "").split(".")[-1]
        for alias in node.names:
            if (module, alias.name) in _WALL_CLOCK_CALLS:
                local = alias.asname or alias.name
                self._bare_wall_clock[local] = f"{module}.{alias.name}"
        self.generic_visit(node)

    # -- helpers -------------------------------------------------------
    def _emit(self, rule, node: ast.AST, message: str) -> None:
        self.sink.emit(
            rule,
            Location(file=self.filename,
                     line=getattr(node, "lineno", None),
                     column=getattr(node, "col_offset", None)),
            message,
        )

    # -- C001 / C002 / C003: calls ------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = _dotted_name(node.func)
        if name:
            self._check_rng(node, name)
            self._check_wall_clock(node, name)
        self.generic_visit(node)

    def _check_rng(self, node: ast.Call, name: str) -> None:
        parts = name.split(".")
        has_seed = bool(node.args or node.keywords) and not (
            len(node.args) == 1
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value is None
        )
        if name == "random.Random" and not has_seed:
            self._emit(UNSEEDED_RANDOM, node,
                       "random.Random() constructed without a seed")
        elif (len(parts) == 2 and parts[0] == "random"
                and parts[1] in _GLOBAL_RANDOM_DRAWS):
            self._emit(
                UNSEEDED_RANDOM, node,
                f"{name}() draws from the process-global RNG",
            )
        elif is_np_rng_constructor(name) and not has_seed:
            self._emit(
                UNSEEDED_NP_RANDOM, node,
                f"{name}() called without an explicit seed",
            )
        elif (len(parts) >= 2 and parts[-2] == "random"
                and parts[0] in ("np", "numpy")
                and parts[-1] in _NP_GLOBAL_DRAWS):
            self._emit(
                UNSEEDED_NP_RANDOM, node,
                f"{name}() uses NumPy's legacy global RNG state",
            )

    def _check_wall_clock(self, node: ast.Call, name: str) -> None:
        if not self.deterministic:
            return
        parts = name.split(".")
        # bare name bound by `from time import monotonic [as tick]`
        if len(parts) == 1 and name in self._bare_wall_clock:
            self._emit(
                WALL_CLOCK, node,
                f"{name}() ({self._bare_wall_clock[name]}) reads the "
                "wall clock inside a deterministic module",
            )
            return
        # resolve `import time as t` aliases before matching
        if parts[0] in self._module_aliases:
            parts = [self._module_aliases[parts[0]]] + parts[1:]
        if len(parts) >= 2 and (parts[-2], parts[-1]) in _WALL_CLOCK_CALLS:
            self._emit(
                WALL_CLOCK, node,
                f"{name}() reads the wall clock inside a deterministic "
                "module",
            )

    # -- C004: float equality on costs --------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            pair = (left, right)
            if any(_is_float_literal(side) for side in pair) or (
                    any(_is_cost_expression(side) for side in pair)
                    and not any(isinstance(side, ast.Constant)
                                and side.value is None for side in pair)):
                self._emit(
                    FLOAT_COST_EQ, node,
                    "== / != on a float cost value; use math.isclose or "
                    "an ordered comparison",
                )
                break
        self.generic_visit(node)

    # -- C005: mutable defaults ---------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def _check_defaults(self, node) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(
                default, (ast.List, ast.Dict, ast.Set)
            ) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set", "bytearray")
            )
            if mutable:
                self._emit(
                    MUTABLE_DEFAULT, default,
                    f"function {node.name!r} has a mutable default "
                    "argument",
                )

    # -- C006: silent except ------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._emit(SILENT_EXCEPT, node,
                       "bare 'except:' catches everything, including "
                       "KeyboardInterrupt")
        elif all(isinstance(stmt, ast.Pass) for stmt in node.body):
            self._emit(SILENT_EXCEPT, node,
                       "exception handler silently discards the error")
        self.generic_visit(node)


def module_is_deterministic(filename: str) -> bool:
    """Should the wall-clock rule apply to this file?

    True for modules under the simulator/optimizer/observability
    packages (:data:`DETERMINISTIC_PACKAGES`), except the explicit
    :data:`WALL_CLOCK_ALLOWLIST` (the recorder timestamps spans with
    ``perf_counter`` by design); profiling and calibration code in
    ``stats/`` legitimately reads real clocks.
    """
    normalized = filename.replace(os.sep, "/")
    if normalized.endswith(WALL_CLOCK_ALLOWLIST):
        return False
    return any(f"/{pkg}/" in normalized or normalized.startswith(f"{pkg}/")
               for pkg in DETERMINISTIC_PACKAGES)


def lint_source(
    source: str,
    filename: str = "<string>",
    deterministic: Optional[bool] = None,
) -> List[Diagnostic]:
    """Lint one Python source string.

    ``deterministic`` forces the wall-clock rule on/off; by default it is
    derived from ``filename`` via :func:`module_is_deterministic`.
    """
    if deterministic is None:
        deterministic = module_is_deterministic(filename)
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        return [
            SYNTAX_ERROR.at(
                Location(file=filename, line=exc.lineno),
                f"file does not parse: {exc.msg}",
            )
        ]
    visitor = _Visitor(filename, deterministic)
    visitor.visit(tree)
    return sorted(
        visitor.sink.diagnostics,
        key=lambda d: (d.location.line or 0, d.location.column or 0,
                       d.rule_id),
    )


def lint_file(path: str) -> List[Diagnostic]:
    """Lint one file on disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return lint_source(handle.read(), filename=path)


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            found.append(path)
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(
                d for d in dirs
                if not d.startswith(".") and d != "__pycache__"
            )
            found.extend(
                os.path.join(root, name) for name in sorted(files)
                if name.endswith(".py")
            )
    return sorted(found)


def lint_paths(paths: Sequence[str]) -> List[Diagnostic]:
    """Lint every Python file under ``paths`` (files or directories)."""
    diagnostics: List[Diagnostic] = []
    for filename in iter_python_files(paths):
        diagnostics.extend(lint_file(filename))
    return diagnostics
