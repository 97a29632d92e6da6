"""Analytical cardinality model for the TPC-H workload.

The simulator runs the paper's SF 1-1000 experiments without generating
billions of rows: per-operator output cardinalities are computed from the
TPC-H scaling rules and uniformity assumptions, the same way a cost-based
optimizer derives them.  The model is validated against the real data
generator at small scale factors (``tests/test_cardinality.py``): measured
and predicted cardinalities must agree within sampling noise.

All helpers return *expected* (fractional) row counts; rounding is left to
the caller so that tiny scale factors do not collapse to zero.
"""

from __future__ import annotations

from .schema import (
    BASE_ROWS,
    MARKET_SEGMENTS,
    MAX_ORDER_DATE,
    MIN_ORDER_DATE,
    PART_TYPES,
)

#: days covered by o_orderdate (uniform in the generator)
ORDER_DATE_SPAN = MAX_ORDER_DATE - MIN_ORDER_DATE + 1

#: average lineitems per order (uniform 1..7)
LINEITEMS_PER_ORDER = 4.0


def table_rows(table: str, scale_factor: float) -> float:
    """Expected base-table cardinality at ``scale_factor``."""
    if table == "lineitem":
        # lineitems are generated per order (1-7 uniform), so their count
        # scales with orders rather than the spec's absolute 6,001,215
        return table_rows("orders", scale_factor) * LINEITEMS_PER_ORDER
    base = BASE_ROWS[table]
    if table in ("region", "nation"):
        return float(base)
    return base * scale_factor


def date_range_selectivity(days: float) -> float:
    """Fraction of orders with o_orderdate inside a ``days``-long window."""
    if days < 0:
        raise ValueError("days must be >= 0")
    return min(days / ORDER_DATE_SPAN, 1.0)


def q3_lineitem_selectivity(cutoff_offset_days: float = 1169.0) -> float:
    """P(l_shipdate > cutoff | o_orderdate < cutoff) for Q3.

    Ship dates lag order dates by uniform [1, 121] days, so only orders
    placed within ~121 days before the cutoff can have lineitems shipping
    after it -- the date predicates of Q3 are strongly correlated, not
    independent.  With the cutoff ``cutoff_offset_days`` after the first
    order date (1995-03-15 is day 1169), a qualifying order lies in the
    121-day window with probability ``121 / offset`` and then on average
    half its lineitems ship past the cutoff.
    """
    if cutoff_offset_days <= 0:
        raise ValueError("cutoff_offset_days must be > 0")
    window = min(121.0 / cutoff_offset_days, 1.0)
    return window * 0.5


def q3_order_survival(cutoff_offset_days: float = 1169.0) -> float:
    """P(an order before the cutoff has >= 1 lineitem shipping after it).

    Only orders inside the 121-day window qualify; of those, each of the
    ~4 lineitems independently ships past the cutoff w.p. ~1/2, so nearly
    all window orders survive (1 - 2^-4).
    """
    if cutoff_offset_days <= 0:
        raise ValueError("cutoff_offset_days must be > 0")
    window = min(121.0 / cutoff_offset_days, 1.0)
    return window * (1.0 - 0.5 ** LINEITEMS_PER_ORDER)


def ship_delay_selectivity(min_delay_days: float) -> float:
    """Fraction of lineitems with ``l_shipdate > o_orderdate + delay``.

    Ship delays are uniform on [1, 121] days in the generator.
    """
    if min_delay_days <= 1:
        return 1.0
    if min_delay_days >= 121:
        return 0.0
    return (121.0 - min_delay_days) / 120.0


def region_selectivity() -> float:
    """Fraction of regions matching one region name."""
    return 1.0 / 5.0


def nations_in_region() -> float:
    """Nations per region (the spec maps 5 nations to each region)."""
    return 25.0 / 5.0


def nation_fraction() -> float:
    """Fraction of customers/suppliers belonging to one region's nations."""
    return nations_in_region() / 25.0


def mktsegment_selectivity() -> float:
    """Fraction of customers in one market segment (uniform)."""
    return 1.0 / len(MARKET_SEGMENTS)


def part_type_selectivity() -> float:
    """Fraction of parts of one p_type (uniform over the 150 types)."""
    return 1.0 / len(PART_TYPES)


def part_size_selectivity() -> float:
    """Fraction of parts with one p_size (uniform 1..50)."""
    return 1.0 / 50.0


def same_nation_join_selectivity() -> float:
    """P(supplier nation == customer nation) for independent choices."""
    return 1.0 / 25.0


def orders_per_customer(scale_factor: float) -> float:
    """Average orders per customer."""
    return (
        table_rows("orders", scale_factor)
        / table_rows("customer", scale_factor)
    )
