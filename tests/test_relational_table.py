"""Tests for schemas and columnar tables."""

import pytest

from repro.relational.schema import ColumnType, TableSchema
from repro.relational.table import Table


@pytest.fixture
def people_schema():
    return TableSchema.build("people", [
        ("id", ColumnType.INT),
        ("name", ColumnType.STRING),
        ("score", ColumnType.FLOAT),
    ])


@pytest.fixture
def people(people_schema):
    return Table.from_rows(people_schema, [
        [1, "ada", 9.5],
        [2, "bob", 7.0],
        [3, "cyd", 8.2],
    ])


class TestSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError):
            TableSchema.build("t", [("a", ColumnType.INT),
                                    ("a", ColumnType.INT)])

    def test_index_of_and_column(self, people_schema):
        assert people_schema.index_of("name") == 1
        assert people_schema.column("score").col_type is ColumnType.FLOAT

    def test_index_of_unknown_column(self, people_schema):
        with pytest.raises(KeyError):
            people_schema.index_of("missing")

    def test_contains_and_len(self, people_schema):
        assert "id" in people_schema
        assert "missing" not in people_schema
        assert len(people_schema) == 3

    def test_project_reorders(self, people_schema):
        projected = people_schema.project(["score", "id"])
        assert projected.column_names == ["score", "id"]

    def test_concat_disambiguates_duplicates(self, people_schema):
        other = TableSchema.build("extra", [("id", ColumnType.INT),
                                            ("city", ColumnType.STRING)])
        merged = people_schema.concat(other)
        assert merged.column_names == [
            "id", "name", "score", "extra.id", "city"
        ]

    def test_python_type_mapping(self):
        assert ColumnType.INT.python_type() is int
        assert ColumnType.DATE.python_type() is int
        assert ColumnType.FLOAT.python_type() is float
        assert ColumnType.STRING.python_type() is str


class TestTableConstruction:
    def test_from_rows_roundtrip(self, people):
        assert people.num_rows == 3
        assert list(people.rows())[1] == (2, "bob", 7.0)

    def test_row_width_mismatch_rejected(self, people_schema):
        with pytest.raises(ValueError):
            Table.from_rows(people_schema, [[1, "x"]])

    def test_ragged_columns_rejected(self, people_schema):
        with pytest.raises(ValueError):
            Table(schema=people_schema, columns=[[1], [], []])

    def test_column_count_mismatch_rejected(self, people_schema):
        with pytest.raises(ValueError):
            Table(schema=people_schema, columns=[[1]])

    def test_empty(self, people_schema):
        assert Table.empty(people_schema).num_rows == 0


class TestTransformations:
    def test_take_reorders(self, people):
        taken = people.take([2, 0])
        assert taken.column("name") == ["cyd", "ada"]

    def test_filter_mask(self, people):
        kept = people.filter_mask([True, False, True])
        assert kept.column("id") == [1, 3]

    def test_filter_mask_length_checked(self, people):
        with pytest.raises(ValueError):
            people.filter_mask([True])

    def test_project(self, people):
        projected = people.project(["name"])
        assert projected.schema.column_names == ["name"]
        assert projected.column("name") == ["ada", "bob", "cyd"]

    def test_concat_rows(self, people):
        doubled = people.concat_rows(people)
        assert doubled.num_rows == 6

    def test_concat_rows_incompatible_schemas(self, people):
        other = Table.from_rows(
            TableSchema.build("o", [("x", ColumnType.STRING)]), [["a"]]
        )
        with pytest.raises(ValueError):
            people.concat_rows(other)

    def test_with_column(self, people):
        extended = people.with_column(
            "rank", ColumnType.INT, [3, 1, 2]
        )
        assert extended.column("rank") == [3, 1, 2]
        assert "rank" in extended.schema

    def test_with_column_length_checked(self, people):
        with pytest.raises(ValueError):
            people.with_column("rank", ColumnType.INT, [1])

    def test_sort_by(self, people):
        by_score = people.sort_by(["score"])
        assert by_score.column("name") == ["bob", "cyd", "ada"]
        descending = people.sort_by(["score"], descending=True)
        assert descending.column("name") == ["ada", "cyd", "bob"]

    def test_limit(self, people):
        assert people.limit(2).num_rows == 2
        assert people.limit(100).num_rows == 3

    def test_rename(self, people):
        assert people.rename("humans").schema.name == "humans"


class TestMeasurement:
    def test_byte_size_accounts_types(self, people):
        # 3 ints (24) + names (3+3+3=9) + 3 floats (24)
        assert people.byte_size() == 57

    def test_to_dicts(self, people):
        dicts = people.to_dicts()
        assert dicts[0] == {"id": 1, "name": "ada", "score": 9.5}

    def test_pretty_truncates(self, people):
        rendering = people.pretty(limit=1)
        assert "(3 rows)" in rendering
