"""Tests for repro.backend.sql — the star-join mini-SQL front end."""

import pytest

from repro.backend.sql import parse_query, tokenize
from repro.exceptions import SQLParseError
from repro.schema.builder import build_dimension
from repro.schema.star import Measure, StarSchema
from tests.conftest import answer_from_chunks, canon_rows


@pytest.fixture(scope="module")
def sales_schema():
    """A paper-like sales schema with named levels and members."""
    skeleton = build_dimension(
        "product", [2, 6], level_names=["category", "pname"]
    )
    # Named members: categories and products, hierarchically ordered.
    from repro.schema.dimension import Dimension

    product = Dimension(
        "product",
        skeleton.hierarchy,
        members={
            1: ["clothes", "electronics"],
            2: ["shirt", "pants", "dress", "phone", "laptop", "tablet"],
        },
    )
    date = build_dimension("date", [2, 8], level_names=["quarter", "month"])
    date = Dimension(
        "date",
        date.hierarchy,
        members={
            1: ["Q1", "Q2"],
            2: ["Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug"],
        },
    )
    return StarSchema(
        [product, date], [Measure("dollar_sales")], name="sales"
    )


class TestTokenizer:
    def test_basic(self):
        tokens = tokenize("SELECT a, SUM(x) FROM t WHERE a >= 'Jan''s'")
        texts = [t.text for t in tokens]
        assert "SELECT" in texts
        assert "Jan's" in texts
        assert ">=" in texts
        assert tokens[-1].kind == "end"

    def test_numbers(self):
        tokens = tokenize("x = 42 AND y <= 3.5")
        kinds = {t.text: t.kind for t in tokens if t.kind != "end"}
        assert kinds["42"] == "number"
        assert kinds["3.5"] == "number"

    def test_garbage_rejected(self):
        with pytest.raises(SQLParseError):
            tokenize("SELECT ;")


class TestParsing:
    def test_q1_template(self, sales_schema):
        """The paper's Q1: category restriction + month range."""
        query = parse_query(
            sales_schema,
            """
            SELECT pname, month, SUM(dollar_sales)
            FROM sales, date
            WHERE category = 'clothes' AND month >= 'Jan'
              AND month <= 'Jun' AND sales.did = date.did
            GROUP BY pname, month
            """,
        )
        assert query.groupby == (2, 2)
        # category='clothes' covers products 0..2 (contiguous block).
        assert query.selections[0] == (0, 3)
        assert query.selections[1] == (0, 6)
        assert query.aggregates == (("dollar_sales", "sum"),)

    def test_between(self, sales_schema):
        query = parse_query(
            sales_schema,
            "SELECT month, SUM(dollar_sales) FROM sales "
            "WHERE month BETWEEN 'Feb' AND 'Apr' GROUP BY month",
        )
        assert query.groupby == (0, 2)
        assert query.selections[1] == (1, 4)

    def test_equality_point(self, sales_schema):
        query = parse_query(
            sales_schema,
            "SELECT pname, SUM(dollar_sales) FROM sales "
            "WHERE pname = 'dress' GROUP BY pname",
        )
        assert query.selections[0] == (2, 3)

    def test_strict_comparisons(self, sales_schema):
        query = parse_query(
            sales_schema,
            "SELECT month, SUM(dollar_sales) FROM sales "
            "WHERE month > 'Jan' AND month < 'May' GROUP BY month",
        )
        assert query.selections[1] == (1, 4)

    def test_filter_on_ungrouped_dimension(self, sales_schema):
        """A predicate on a dimension outside the GROUP BY becomes a
        pre-aggregation filter."""
        query = parse_query(
            sales_schema,
            "SELECT month, SUM(dollar_sales) FROM sales "
            "WHERE category = 'electronics' GROUP BY month",
        )
        assert query.groupby == (0, 2)
        assert query.selections == (None, None)
        assert query.dim_filters[0] == (3, 6)  # leaf range of electronics

    def test_finer_level_predicate_becomes_filter(self, sales_schema):
        query = parse_query(
            sales_schema,
            "SELECT category, SUM(dollar_sales) FROM sales "
            "WHERE pname = 'shirt' GROUP BY category",
        )
        assert query.groupby == (1, 0)
        assert query.dim_filters[0] == (0, 1)

    def test_count_star(self, sales_schema):
        query = parse_query(
            sales_schema,
            "SELECT month, COUNT(*) FROM sales GROUP BY month",
        )
        assert query.aggregates == (("dollar_sales", "count"),)

    def test_multiple_aggregates(self, sales_schema):
        query = parse_query(
            sales_schema,
            "SELECT month, SUM(dollar_sales), AVG(dollar_sales) "
            "FROM sales GROUP BY month",
        )
        assert query.aggregates == (
            ("dollar_sales", "sum"),
            ("dollar_sales", "avg"),
        )

    def test_qualified_columns(self, sales_schema):
        query = parse_query(
            sales_schema,
            "SELECT date.month, SUM(dollar_sales) FROM sales "
            "WHERE date.month = 'Mar' GROUP BY date.month",
        )
        assert query.selections[1] == (2, 3)

    def test_fact_table_qualifier_falls_through(self, sales_schema):
        """A qualifier naming the fact table resolves unqualified."""
        query = parse_query(
            sales_schema,
            "SELECT sales.month, SUM(dollar_sales) FROM sales "
            "GROUP BY sales.month",
        )
        assert query.groupby == (0, 2)

    def test_resolver_bug_not_mistaken_for_fact_qualifier(
        self, sales_schema, monkeypatch
    ):
        """Regression (R004): only SchemaError means "not a dimension".

        The old ``except Exception`` also swallowed genuine defects in
        the schema lookup, silently resolving the column as unqualified.
        """
        def boom(name):
            raise AttributeError("schema lookup broke")

        monkeypatch.setattr(sales_schema, "dimension_position", boom)
        with pytest.raises(AttributeError):
            parse_query(
                sales_schema,
                "SELECT date.month, SUM(dollar_sales) FROM sales "
                "GROUP BY date.month",
            )

    def test_escaped_quote_in_member(self):
        from repro.query.model import StarQuery
        from repro.schema.dimension import Dimension
        from repro.schema.hierarchy import Hierarchy, Level

        dim = Dimension(
            "city",
            Hierarchy([Level(1, "cname", 3)]),
            members={1: ["O'Fallon", "St. Lou'is", "plain"]},
        )
        schema = StarSchema([dim], [Measure("m")], name="facts")
        query = parse_query(
            schema,
            "SELECT cname, SUM(m) FROM facts "
            "WHERE cname BETWEEN 'O''Fallon' AND 'St. Lou''is' "
            "GROUP BY cname",
        )
        assert query == StarQuery.build(schema, (1,), {"city": (0, 2)})


class TestErrors:
    def test_unknown_column(self, sales_schema):
        with pytest.raises(SQLParseError):
            parse_query(
                sales_schema,
                "SELECT flavour, SUM(dollar_sales) FROM s GROUP BY flavour",
            )

    def test_unknown_member(self, sales_schema):
        with pytest.raises(SQLParseError):
            parse_query(
                sales_schema,
                "SELECT month, SUM(dollar_sales) FROM s "
                "WHERE month = 'Dec' GROUP BY month",
            )

    def test_unknown_measure(self, sales_schema):
        with pytest.raises(SQLParseError):
            parse_query(
                sales_schema,
                "SELECT month, SUM(profit) FROM s GROUP BY month",
            )

    def test_no_aggregate_rejected(self, sales_schema):
        with pytest.raises(SQLParseError):
            parse_query(
                sales_schema, "SELECT month FROM s GROUP BY month"
            )

    def test_projection_not_grouped_rejected(self, sales_schema):
        with pytest.raises(SQLParseError):
            parse_query(
                sales_schema,
                "SELECT pname, SUM(dollar_sales) FROM s GROUP BY month",
            )

    def test_two_levels_of_one_dim_rejected(self, sales_schema):
        with pytest.raises(SQLParseError):
            parse_query(
                sales_schema,
                "SELECT category, SUM(dollar_sales) FROM s "
                "GROUP BY category, pname",
            )

    def test_contradictory_predicates_rejected(self, sales_schema):
        with pytest.raises(SQLParseError):
            parse_query(
                sales_schema,
                "SELECT month, SUM(dollar_sales) FROM s "
                "WHERE month <= 'Jan' AND month >= 'Jun' GROUP BY month",
            )

    def test_reversed_between_rejected(self, sales_schema):
        with pytest.raises(SQLParseError):
            parse_query(
                sales_schema,
                "SELECT month, SUM(dollar_sales) FROM s "
                "WHERE month BETWEEN 'Jun' AND 'Jan' GROUP BY month",
            )

    def test_missing_group_by_rejected(self, sales_schema):
        with pytest.raises(SQLParseError):
            parse_query(
                sales_schema, "SELECT SUM(dollar_sales) FROM s"
            )

    def test_trailing_garbage_rejected(self, sales_schema):
        with pytest.raises(SQLParseError):
            parse_query(
                sales_schema,
                "SELECT month, SUM(dollar_sales) FROM s GROUP BY month "
                "ORDER BY month",
            )


class TestExecution:
    def test_sql_answers_match_direct_query(self, sales_schema):
        import numpy as np

        from repro.backend.engine import BackendEngine
        from repro.chunks.grid import ChunkSpace
        from repro.workload.data import generate_fact_table

        space = ChunkSpace(sales_schema, 0.34)
        records = generate_fact_table(sales_schema, 800, seed=3)
        engine = BackendEngine.build(
            sales_schema, space, records, page_size=1024
        )
        query = parse_query(
            sales_schema,
            "SELECT pname, SUM(dollar_sales) FROM sales "
            "WHERE category = 'clothes' AND month BETWEEN 'Jan' AND 'Mar' "
            "GROUP BY pname",
        )
        rows, _ = answer_from_chunks(engine, query)
        expected, _ = engine.answer(query, "scan")
        assert canon_rows(rows) == canon_rows(expected)
        # Only clothes products appear.
        assert set(rows["product"].tolist()) <= {0, 1, 2}
