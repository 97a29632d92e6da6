"""Log-spaced cluster-statistics bucketing for the advice cache.

Advisory requests arrive with *measured* cluster statistics -- an MTBF
estimated from the last observation window, an MTTR averaged over recent
repairs -- so two requests for the same plan almost never carry
bit-equal :class:`~repro.core.cost_model.ClusterStats`.  Caching on the
raw stats would miss nearly always.  Caching on a rounded value would be
wrong: the advice must stay *exactly* reproducible by a direct search.

The resolution is canonicalize-then-search: a request's stats are
snapped to the representative of their log-spaced bucket *before* the
search runs, so the advice returned (cached or freshly computed) is
bit-identical to ``find_best_ft_plan(plan, canonical_stats, ...)`` by
construction -- the cache never changes what is computed, only whether
the computation is repeated.  Near-identical clusters (an MTBF of 86400s
vs 86700s) share a bucket and therefore a cache entry.

Bucket geometry: ``resolution`` buckets per decade, uniform in
``log10``.  MTBF is bucketed directly; MTTR is bucketed via the
*ratio* ``mttr / mtbf`` (the cost model's failure math is driven by the
relative repair cost, and bucketing the ratio keeps the two snapped
values consistent with each other).  ``mttr == 0`` is its own bucket --
the paper's no-repair-delay configuration must round-trip exactly.  The
remaining fields (``nodes``, ``const_cost``, ``const_pipe``,
``success_percentile``, ``scale_mtbf_by_nodes``) are discrete knobs
with a handful of values in practice; they pass through untouched.

Boundary determinism: a bucket index is ``floor(log10(x) * resolution)``
-- a pure function of the input float, so the same value always lands in
the same bucket and values on opposite sides of a boundary land in
adjacent buckets.  No randomization, no state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.cost_model import ClusterStats

#: a stats bucket: (mtbf index, mttr/mtbf ratio index or None, nodes,
#: const_cost, const_pipe, success_percentile, scale_mtbf_by_nodes)
Bucket = Tuple[int, Optional[int], int, float, float, float, bool]


def log_bucket_index(value: float, resolution: int) -> int:
    """The log-spaced bucket a positive value falls in.

    Bucket ``i`` covers ``[10^(i/resolution), 10^((i+1)/resolution))``.
    """
    if value <= 0:
        raise ValueError("log bucketing needs a positive value")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    return math.floor(math.log10(value) * resolution)


def log_bucket_representative(index: int, resolution: int) -> float:
    """The canonical value of bucket ``index`` (its geometric midpoint)."""
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    return 10.0 ** ((index + 0.5) / resolution)


@dataclass(frozen=True)
class StatsBucketing:
    """Knobs for snapping :class:`ClusterStats` to cache-key canonicals.

    ``mtbf_resolution`` / ``ratio_resolution`` are buckets per decade for
    the MTBF and the MTTR/MTBF ratio.  The defaults (8 per decade, about
    a 1.33x width per bucket) keep the snapped MTBF within +/-15 % of the
    measured one -- well inside the estimation error of any real MTBF
    observation window -- while collapsing continuously-drifting
    measurements onto a small set of canonical cluster profiles.
    """

    mtbf_resolution: int = 8
    ratio_resolution: int = 8

    def __post_init__(self) -> None:
        if self.mtbf_resolution < 1:
            raise ValueError("mtbf_resolution must be >= 1")
        if self.ratio_resolution < 1:
            raise ValueError("ratio_resolution must be >= 1")

    def canonical_mtbf(self, mtbf: float) -> float:
        return log_bucket_representative(
            log_bucket_index(mtbf, self.mtbf_resolution),
            self.mtbf_resolution,
        )

    def bucket(self, stats: ClusterStats) -> Bucket:
        """The identity of the bucket ``stats`` fall in.

        The MTBF index, the MTTR/MTBF ratio index (``None`` for
        ``mttr == 0``) and the pass-through fields.  Two stats have the
        same canonical stats exactly when their buckets are equal, so
        the identity doubles as a memo key for :meth:`canonicalize`.  A
        NaN or infinite MTBF or MTTR raises here, as
        :func:`log_bucket_index` does.
        """
        mtbf_index, ratio_index = self.indices(stats.mtbf, stats.mttr)
        return (
            mtbf_index, ratio_index, stats.nodes, stats.const_cost,
            stats.const_pipe, stats.success_percentile,
            stats.scale_mtbf_by_nodes,
        )

    def indices(self, mtbf: float,
                mttr: float) -> Tuple[int, Optional[int]]:
        """The MTBF and MTTR/MTBF ratio indices of :meth:`bucket`.

        Callers holding plain floats (the multi-tenant workload's
        arrival columns) take a bucket's identity from here without
        building a :class:`ClusterStats`; :meth:`bucket` calls it too,
        so there is one copy of the arithmetic.
        """
        mtbf_index = log_bucket_index(mtbf, self.mtbf_resolution)
        if mttr <= 0.0:  # exact-zero repair delay: own bucket
            return mtbf_index, None
        return mtbf_index, log_bucket_index(mttr / mtbf,
                                            self.ratio_resolution)

    def bucket_stats(self, bucket: Bucket) -> ClusterStats:
        """The canonical (representative) stats of a :meth:`bucket`."""
        (mtbf_index, ratio_index, nodes, const_cost, const_pipe,
         success_percentile, scale_mtbf_by_nodes) = bucket
        mtbf = log_bucket_representative(mtbf_index, self.mtbf_resolution)
        mttr = 0.0
        if ratio_index is not None:
            mttr = log_bucket_representative(
                ratio_index, self.ratio_resolution
            ) * mtbf
        return ClusterStats(
            mtbf=mtbf, mttr=mttr, nodes=nodes, const_cost=const_cost,
            const_pipe=const_pipe, success_percentile=success_percentile,
            scale_mtbf_by_nodes=scale_mtbf_by_nodes,
        )

    def canonicalize(self, stats: ClusterStats) -> ClusterStats:
        """The bucket-representative stats a request is answered for.

        Idempotent in the bucket: every stats object inside a bucket
        maps to the same canonical object, and canonicalizing a
        canonical object lands back in its own bucket's representative
        family -- so cache keys built on the result are stable.
        """
        return self.bucket_stats(self.bucket(stats))
