"""Runtime replay sanitizer: localize jobs=1 vs jobs=N divergence.

The static flow pass (:mod:`repro.analysis.flow`) proves seed threading
and pool safety; this module checks the resulting contract *at runtime*
and, when it breaks, says **where**.  It fingerprints every unit result
of a campaign plus the merged artifact, runs the same workload at two
job counts, and reports the first divergent unit with its span path --
turning "bit-identical" from a bare test assertion into a localizable
diagnosis.

Fingerprints are stdlib-only (``hashlib.blake2b`` over a canonical
encoding): floats hash by their IEEE-754 bits via ``struct``, so a
single last-bit difference from a reordered float sum is caught;
container types are length-prefixed and type-tagged so ``(1,)`` and
``[1]`` differ; dicts and sets are encoded in sorted order so the
fingerprint itself never depends on iteration order.

Typical use (also wired to ``python -m repro sanitize``)::

    from repro.analysis.sanitizer import replay_campaign
    report = replay_campaign(cells, cluster, jobs=4)
    if not report.ok:
        print(report.describe())    # first divergent unit + span path
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

_FINGERPRINT_BYTES = 8


def _encode(value: Any, out: "bytearray") -> None:
    """Append a canonical, type-tagged encoding of ``value``."""
    if value is None:
        out += b"N"
    elif isinstance(value, bool):          # before int: bool is an int
        out += b"b1" if value else b"b0"
    elif isinstance(value, int):
        data = str(value).encode("ascii")
        out += b"i" + str(len(data)).encode("ascii") + b":" + data
    elif isinstance(value, float):
        # IEEE bits, not repr: catches last-bit reassociation drift and
        # distinguishes -0.0 / nan payloads
        out += b"f" + struct.pack("<d", value)
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out += b"s" + str(len(data)).encode("ascii") + b":" + data
    elif isinstance(value, bytes):
        out += b"y" + str(len(value)).encode("ascii") + b":" + value
    elif isinstance(value, (tuple, list)):
        out += b"t(" if isinstance(value, tuple) else b"l("
        for item in value:
            _encode(item, out)
        out += b")"
    elif isinstance(value, dict):
        out += b"d("
        for key in sorted(value, key=repr):
            _encode(key, out)
            _encode(value[key], out)
        out += b")"
    elif isinstance(value, (set, frozenset)):
        encoded = []
        for item in value:
            buffer = bytearray()
            _encode(item, buffer)
            encoded.append(bytes(buffer))
        out += b"S("
        for item in sorted(encoded):
            out += item
        out += b")"
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        out += b"D" + type(value).__name__.encode("utf-8") + b"("
        for field_info in dataclasses.fields(value):
            _encode(field_info.name, out)
            _encode(getattr(value, field_info.name), out)
        out += b")"
    else:
        # last resort: a stable repr (covers enums, Paths, ...); objects
        # with address-bearing default reprs should not appear in rows
        out += b"r" + repr(value).encode("utf-8")


def fingerprint(value: Any) -> str:
    """Short stable hex fingerprint of an (almost) arbitrary value."""
    out = bytearray()
    _encode(value, out)
    return hashlib.blake2b(
        bytes(out), digest_size=_FINGERPRINT_BYTES
    ).hexdigest()


def unit_fingerprints(rows: Sequence[Any]) -> List[str]:
    """Per-unit fingerprints of a campaign's result rows, in unit order."""
    return [fingerprint(row) for row in rows]


@dataclass(frozen=True)
class UnitDivergence:
    """One unit whose fingerprint differs between the two runs."""

    unit_index: int
    span_path: str                   #: campaign/cell[i]:label/unit[...]
    fingerprint_a: str
    fingerprint_b: str

    def describe(self) -> str:
        return (
            f"unit {self.unit_index} diverged at {self.span_path}: "
            f"{self.fingerprint_a} != {self.fingerprint_b}"
        )


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of one jobs=A vs jobs=B replay comparison."""

    jobs_a: int
    jobs_b: int
    unit_count: int
    divergences: Tuple[UnitDivergence, ...]
    merged_fingerprint_a: str
    merged_fingerprint_b: str
    #: deterministic-counter deltas: name -> (run A total, run B total)
    counter_deltas: Tuple[Tuple[str, int, int], ...] = ()

    @property
    def ok(self) -> bool:
        return (not self.divergences
                and self.merged_fingerprint_a == self.merged_fingerprint_b
                and not self.counter_deltas)

    @property
    def first_divergence(self) -> Optional[UnitDivergence]:
        return self.divergences[0] if self.divergences else None

    def describe(self) -> str:
        """Human-readable verdict, leading with the first divergence."""
        if self.ok:
            return (
                f"replay clean: {self.unit_count} unit fingerprints and "
                f"the merged artifact identical at jobs={self.jobs_a} "
                f"vs jobs={self.jobs_b}"
            )
        lines = [
            f"replay DIVERGED between jobs={self.jobs_a} and "
            f"jobs={self.jobs_b}:"
        ]
        first = self.first_divergence
        if first is not None:
            lines.append("  first divergent unit: " + first.describe())
            if len(self.divergences) > 1:
                lines.append(
                    f"  ({len(self.divergences) - 1} further unit(s) "
                    "diverged)"
                )
        elif self.merged_fingerprint_a != self.merged_fingerprint_b:
            lines.append(
                "  every unit matched but the merged artifact differs "
                f"({self.merged_fingerprint_a} != "
                f"{self.merged_fingerprint_b}): suspect merge order"
            )
        for name, total_a, total_b in self.counter_deltas:
            lines.append(
                f"  counter {name!r}: {total_a} != {total_b}"
            )
        return "\n".join(lines)


def _span_path(row: Any, unit_index: int) -> str:
    """Span-path label of one unit, from its result row's identity."""
    cell = getattr(row, "cell_index", None)
    label = getattr(row, "label", None)
    scheme = getattr(row, "scheme", None)
    mtbf = getattr(row, "mtbf", None)
    path = "campaign"
    if cell is not None:
        path += f"/cell[{cell}]"
        if label:
            path += f":{label}"
    path += f"/unit[{unit_index}]"
    if scheme:
        path += f":{scheme}"
    if mtbf is not None:
        path += f"@mtbf={mtbf:g}"
    return path


def compare_runs(
    rows_a: Sequence[Any],
    rows_b: Sequence[Any],
    counters_a: Optional[Dict[str, int]] = None,
    counters_b: Optional[Dict[str, int]] = None,
    jobs_a: int = 1,
    jobs_b: int = 1,
) -> ReplayReport:
    """Fingerprint-compare two runs of the same workload.

    Separable from :func:`replay_campaign` so tests can hand-inject a
    divergent row and assert on the localization.  A length mismatch is
    reported as a divergence at the first missing unit.
    """
    prints_a = unit_fingerprints(rows_a)
    prints_b = unit_fingerprints(rows_b)
    divergences: List[UnitDivergence] = []
    for index in range(max(len(prints_a), len(prints_b))):
        print_a = prints_a[index] if index < len(prints_a) else "<absent>"
        print_b = prints_b[index] if index < len(prints_b) else "<absent>"
        if print_a == print_b:
            continue
        row = (rows_a[index] if index < len(rows_a)
               else rows_b[index] if index < len(rows_b) else None)
        divergences.append(UnitDivergence(
            unit_index=index,
            span_path=_span_path(row, index),
            fingerprint_a=print_a,
            fingerprint_b=print_b,
        ))
    deltas: List[Tuple[str, int, int]] = []
    if counters_a is not None and counters_b is not None:
        for name in sorted(set(counters_a) | set(counters_b)):
            total_a = counters_a.get(name, 0)
            total_b = counters_b.get(name, 0)
            if total_a != total_b:
                deltas.append((name, total_a, total_b))
    return ReplayReport(
        jobs_a=jobs_a,
        jobs_b=jobs_b,
        unit_count=max(len(rows_a), len(rows_b)),
        divergences=tuple(divergences),
        merged_fingerprint_a=fingerprint(list(prints_a)),
        merged_fingerprint_b=fingerprint(list(prints_b)),
        counter_deltas=tuple(deltas),
    )


def replay_campaign(
    cells: Sequence[Any],
    cluster: Any,
    jobs: int = 4,
    chaos: Optional[Any] = None,
    compare_counters: bool = True,
) -> ReplayReport:
    """Run ``cells`` at jobs=1 and jobs=``jobs``; compare fingerprints.

    Each run records under its own :mod:`repro.obs` recorder; counter
    totals are compared through
    :meth:`~repro.obs.recorder.Recorder.deterministic_counters`, which
    excludes the process-local cache/retry namespaces.
    """
    from .. import obs
    from ..engine.campaign import run_campaign

    if jobs < 2:
        raise ValueError("replay needs jobs >= 2 to exercise the pool")

    with obs.recording() as recorder_serial:
        rows_serial = run_campaign(list(cells), cluster, jobs=1,
                                   chaos=chaos)
        counters_serial = recorder_serial.deterministic_counters()
    with obs.recording() as recorder_pool:
        rows_pool = run_campaign(list(cells), cluster, jobs=jobs,
                                 chaos=chaos)
        counters_pool = recorder_pool.deterministic_counters()
    return compare_runs(
        rows_serial, rows_pool,
        counters_serial if compare_counters else None,
        counters_pool if compare_counters else None,
        jobs_a=1, jobs_b=jobs,
    )


def replay_sharded_search(
    plans: Sequence[Any],
    stats: Any,
    pruning: Optional[Any] = None,
    shards: int = 8,
    parallelism: int = 2,
    config_limit: Optional[int] = None,
) -> ReplayReport:
    """Replay one search at shards=1 vs sharded/pooled; compare.

    The sharded subsystem promises a reduce that is independent of shard
    count, worker count and bound-propagation timing.  This replay runs
    the identical workload twice -- once as a single in-process shard,
    once over ``shards`` shards on ``parallelism`` workers -- and
    fingerprints the winning ``(cost, plan, mask)`` key per plan set,
    plus the deterministic counters
    (:meth:`~repro.obs.recorder.Recorder.deterministic_counters`), which
    exclude the scheduling-dependent bound tallies by design.
    """
    from .. import obs
    from ..core.pruning import PruningConfig
    from ..core.shard import sharded_search

    if pruning is None:
        pruning = PruningConfig.all()
    with obs.recording() as recorder_serial:
        key_serial, stats_serial = sharded_search(
            list(plans), stats, pruning, shards=1, parallelism=1,
            config_limit=config_limit,
        )
        counters_serial = recorder_serial.deterministic_counters()
    with obs.recording() as recorder_pool:
        key_pool, stats_pool = sharded_search(
            list(plans), stats, pruning, shards=shards,
            parallelism=parallelism, config_limit=config_limit,
        )
        counters_pool = recorder_pool.deterministic_counters()
    rows_serial = [
        (key_serial, stats_serial.configs_total,
         stats_serial.configs_enumerated),
    ]
    rows_pool = [
        (key_pool, stats_pool.configs_total,
         stats_pool.configs_enumerated),
    ]
    return compare_runs(
        rows_serial, rows_pool, counters_serial, counters_pool,
        jobs_a=1, jobs_b=parallelism,
    )


def quick_search_workload() -> Tuple[List[Any], Any, Optional[int]]:
    """A small (plans, stats, config_limit) triple for CI quick replay.

    A synthetic 12-join DAG: large enough that shards=8 cuts genuinely
    different Gray ranges, small enough to finish in seconds.
    """
    from ..core.cost_model import ClusterStats
    from ..core.summation import left_sum
    from ..joinorder.synthetic import SyntheticSpec, synthetic_plan

    plan = synthetic_plan(SyntheticSpec(n_joins=12, seed=4))
    base = left_sum(op.runtime_cost for op in plan.operators.values())
    stats = ClusterStats(mtbf=base * 20.0, mttr=base * 0.1,
                         const_pipe=0.9)
    return [plan], stats, 1024


def quick_workload() -> Tuple[List[Any], Any]:
    """A small (cells, cluster) pair for CI quick-mode replay.

    Two plans x two MTBFs, few traces: enough units to exercise the
    chunking and merge paths at jobs=4 while staying fast.  The
    ``quick-short`` cell has as many traces as the lockstep threshold
    (:data:`~repro.engine.executor.LOCKSTEP_MIN_TRACES`), so its units
    replay through the lockstep executor; the chain cells stay below it
    and replay trace by trace.
    """
    from ..core.plan import linear_plan
    from ..engine.campaign import CampaignCell
    from ..engine.cluster import Cluster
    from ..engine.executor import LOCKSTEP_MIN_TRACES

    chain = linear_plan([(4.0, 1.0), (6.0, 2.0), (3.0, 1.5), (5.0, 1.0)])
    short = linear_plan([(8.0, 2.5), (2.0, 0.5)])
    cells = [
        CampaignCell(label="quick-chain", plan=chain, mtbf=mtbf,
                     trace_count=3, base_seed=7)
        for mtbf in (25.0, 80.0)
    ] + [
        CampaignCell(label="quick-short", plan=short, mtbf=40.0,
                     trace_count=LOCKSTEP_MIN_TRACES, base_seed=11),
    ]
    return cells, Cluster(nodes=4, mttr=1.0)
