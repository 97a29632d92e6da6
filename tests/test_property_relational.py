"""Property-based tests for the mini relational engine.

Random tables, reference implementations in plain Python: joins checked
against nested loops, aggregates against per-group recomputation,
partitioning against set identities.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.executor import execute
from repro.relational.expressions import Col
from repro.relational.operators import (
    AggregateSpec,
    Distinct,
    Filter,
    HashAggregate,
    HashJoin,
    Scan,
    Sort,
    TopK,
)
from repro.relational.partitioning import hash_partition
from repro.relational.schema import ColumnType, TableSchema
from repro.relational.table import Table

INT = ColumnType.INT
keys = st.integers(min_value=0, max_value=6)
values = st.integers(min_value=-100, max_value=100)


@st.composite
def tables(draw, name="t"):
    rows = draw(st.lists(st.tuples(keys, values), min_size=0,
                         max_size=25))
    schema = TableSchema.build(name, [("k", INT), ("v", INT)])
    return Table.from_rows(schema, [list(row) for row in rows])


class TestJoinProperties:
    @given(left=tables("l"), right=tables("r"))
    @settings(max_examples=60, deadline=None)
    def test_inner_join_matches_nested_loops(self, left, right):
        result = execute(HashJoin(Scan(left), Scan(right), ["k"], ["k"]))
        reference = Counter(
            (lk, lv, rk, rv)
            for lk, lv in left.rows()
            for rk, rv in right.rows()
            if lk == rk
        )
        assert Counter(result.rows()) == reference

    @given(left=tables("l"), right=tables("r"))
    @settings(max_examples=60, deadline=None)
    def test_left_join_preserves_every_left_row(self, left, right):
        result = execute(HashJoin(Scan(left), Scan(right), ["k"], ["k"],
                                  join_type="left"))
        left_side = Counter((row[0], row[1]) for row in result.rows())
        right_keys = set(right.column("k"))
        expected = Counter()
        for lk, lv in left.rows():
            matches = sum(1 for rk in right.column("k") if rk == lk)
            expected[(lk, lv)] += max(matches, 1)
        assert left_side == expected
        # unmatched rows are padded with None on the right
        for row in result.rows():
            if row[0] not in right_keys:
                assert row[2] is None and row[3] is None


class TestAggregateProperties:
    @given(table=tables())
    @settings(max_examples=60, deadline=None)
    def test_group_sums_match_reference(self, table):
        result = execute(HashAggregate(
            Scan(table), group_by=["k"],
            aggregates=[AggregateSpec("s", "sum", Col("v")),
                        AggregateSpec("n", "count", Col("v"),
                                      out_type=INT)],
        ))
        reference = {}
        for k, v in table.rows():
            total, count = reference.get(k, (0, 0))
            reference[k] = (total + v, count + 1)
        measured = {row[0]: (row[1], row[2]) for row in result.rows()}
        assert measured == reference

    @given(table=tables())
    @settings(max_examples=60, deadline=None)
    def test_counts_conserve_rows(self, table):
        result = execute(HashAggregate(
            Scan(table), group_by=["k"],
            aggregates=[AggregateSpec("n", "count", Col("v"),
                                      out_type=INT)],
        ))
        assert sum(result.column("n")) == table.num_rows


class TestOperatorAlgebra:
    @given(table=tables(), threshold=values)
    @settings(max_examples=60, deadline=None)
    def test_filter_partitions_rows(self, table, threshold):
        above = execute(Filter(Scan(table), Col("v") > threshold))
        below = execute(Filter(Scan(table), ~(Col("v") > threshold)))
        assert above.num_rows + below.num_rows == table.num_rows

    @given(table=tables(), k=st.integers(min_value=1, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_topk_is_sort_limit(self, table, k):
        topk = execute(TopK(Scan(table), by=["v", "k"], k=k))
        reference = execute(
            Sort(Scan(table), ["v", "k"], descending=True)
        ).limit(k)
        assert list(topk.rows()) == list(reference.rows())

    @given(table=tables())
    @settings(max_examples=60, deadline=None)
    def test_distinct_yields_set_semantics(self, table):
        result = execute(Distinct(Scan(table)))
        assert Counter(result.rows()) == Counter(set(table.rows()))


class TestPartitioningProperties:
    @given(table=tables(),
           partitions=st.integers(min_value=1, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_hash_partition_is_a_partition(self, table, partitions):
        parts = hash_partition(table, ["k"], partitions)
        together = Counter()
        for part in parts:
            together.update(part.rows())
        assert together == Counter(table.rows())

    @given(table=tables(),
           partitions=st.integers(min_value=2, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_equal_keys_colocate(self, table, partitions):
        parts = hash_partition(table, ["k"], partitions)
        location = {}
        for index, part in enumerate(parts):
            for key in part.column("k"):
                assert location.setdefault(key, index) == index
