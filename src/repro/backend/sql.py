"""A mini-SQL front end for the star-join template (Section 5.2.1).

The paper assumes every query matches the template::

    SELECT   <proj-list> <aggregate-list>
    FROM     <FactName>, <dimension-list>
    WHERE    <select-list>          -- point/range predicates + join conds
    GROUP BY <dimension-list>

:func:`parse_query` turns such a statement into an analyzed
:class:`~repro.query.model.StarQuery`:

- columns are hierarchy *level names*, optionally qualified as
  ``dimension.level`` (a bare dimension name means its leaf level);
- predicates on a dimension's **group-by level** become the query's
  relaxable selections;
- predicates on any *other* level become pre-aggregation dimension
  filters (non-group-by selections, cached under an exact-match key);
- equi-join conditions between the fact table and dimension tables are
  validated syntactically and dropped (the star join is implicit in the
  storage model);
- aggregate items are ``SUM|COUNT|MIN|MAX|AVG(measure)``.

Example::

    SELECT product, month, SUM(dollar_sales)
    FROM sales, date
    WHERE category = 'clothes' AND month >= 'Jan' AND month <= 'Jun'
    GROUP BY product, month
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.exceptions import SchemaError, SQLParseError
from repro.query.model import StarQuery
from repro.query.predicates import Interval, interval_intersect
from repro.schema.star import StarSchema

__all__ = ["parse_query", "tokenize"]

_AGGREGATES = ("sum", "count", "min", "max", "avg")

_TOKEN_RE = re.compile(
    r"""
    \s*(
        (?P<string>'(?:[^']|'')*')      # 'quoted literal'
      | (?P<number>\d+(?:\.\d+)?)       # numeric literal
      | (?P<ident>[A-Za-z_][\w$]*)      # identifier / keyword
      | (?P<symbol><=|>=|<>|!=|[(),.=<>*])
    )
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "string" | "number" | "ident" | "symbol" | "end"
    text: str

    @property
    def upper(self) -> str:
        return self.text.upper()


def tokenize(sql: str) -> list[_Token]:
    """Split a statement into tokens; raises on unrecognized input."""
    tokens: list[_Token] = []
    pos = 0
    while pos < len(sql):
        match = _TOKEN_RE.match(sql, pos)
        if match is None:
            remainder = sql[pos:].strip()
            if not remainder:
                break
            raise SQLParseError(
                f"unrecognized input at position {pos}: {remainder[:20]!r}"
            )
        pos = match.end()
        for kind in ("string", "number", "ident", "symbol"):
            text = match.group(kind)
            if text is not None:
                if kind == "string":
                    text = text[1:-1].replace("''", "'")
                tokens.append(_Token(kind, text))
                break
    tokens.append(_Token("end", ""))
    return tokens


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, schema: StarSchema, sql: str) -> None:
        self.schema = schema
        self.tokens = tokenize(sql)
        self.pos = 0
        self._column_map = self._build_column_map()

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.current
        self.pos += 1
        return token

    def expect_keyword(self, keyword: str) -> None:
        token = self.advance()
        if token.kind != "ident" or token.upper != keyword:
            raise SQLParseError(
                f"expected {keyword}, got {token.text!r}"
            )

    def expect_symbol(self, symbol: str) -> None:
        token = self.advance()
        if token.kind != "symbol" or token.text != symbol:
            raise SQLParseError(
                f"expected {symbol!r}, got {token.text!r}"
            )

    def at_keyword(self, keyword: str) -> bool:
        token = self.current
        return token.kind == "ident" and token.upper == keyword

    # ------------------------------------------------------------------
    # Column resolution
    # ------------------------------------------------------------------
    def _build_column_map(self) -> dict[str, list[tuple[int, int]]]:
        """Level name -> [(dimension position, level number)]."""
        mapping: dict[str, list[tuple[int, int]]] = {}
        for pos, dim in enumerate(self.schema.dimensions):
            for level in dim.hierarchy:
                mapping.setdefault(level.name.lower(), []).append(
                    (pos, level.number)
                )
            # A bare dimension name addresses its leaf level.
            mapping.setdefault(dim.name.lower(), []).append(
                (pos, dim.leaf_level)
            )
        return mapping

    def resolve_column(
        self, qualifier: str | None, name: str
    ) -> tuple[int, int]:
        """Resolve a (possibly qualified) column to (dim position, level)."""
        candidates = self._column_map.get(name.lower(), [])
        if qualifier is not None:
            try:
                dim_pos = self.schema.dimension_position(qualifier)
            except SchemaError:
                # Qualifier may name the fact table; fall through to the
                # unqualified candidates.
                dim_pos = None
            if dim_pos is not None:
                candidates = [c for c in candidates if c[0] == dim_pos]
        if not candidates:
            raise SQLParseError(f"unknown column {name!r}")
        if len(candidates) > 1:
            names = {
                self.schema.dimensions[pos].name for pos, _ in candidates
            }
            raise SQLParseError(
                f"ambiguous column {name!r} (found in dimensions "
                f"{sorted(names)}); qualify it as <dimension>.{name}"
            )
        return candidates[0]

    def read_column_ref(self) -> tuple[str | None, str]:
        """``ident`` or ``ident.ident``."""
        first = self.advance()
        if first.kind != "ident":
            raise SQLParseError(f"expected a column, got {first.text!r}")
        if self.current.kind == "symbol" and self.current.text == ".":
            self.advance()
            second = self.advance()
            if second.kind != "ident":
                raise SQLParseError(
                    f"expected a column after {first.text!r}., got "
                    f"{second.text!r}"
                )
            return first.text, second.text
        return None, first.text

    # ------------------------------------------------------------------
    # Grammar
    # ------------------------------------------------------------------
    def parse(self) -> StarQuery:
        self.expect_keyword("SELECT")
        projections, aggregates = self.parse_select_list()
        self.expect_keyword("FROM")
        self.parse_table_list()
        conditions: list[tuple[tuple[int, int], Interval]] = []
        if self.at_keyword("WHERE"):
            self.advance()
            conditions = self.parse_where()
        self.expect_keyword("GROUP")
        self.expect_keyword("BY")
        groupby_columns = self.parse_groupby_list()
        if self.current.kind != "end":
            raise SQLParseError(
                f"unexpected trailing input {self.current.text!r}"
            )
        return self.analyze(
            projections, aggregates, conditions, groupby_columns
        )

    def parse_select_list(
        self,
    ) -> tuple[list[tuple[int, int]], list[tuple[str, str]]]:
        projections: list[tuple[int, int]] = []
        aggregates: list[tuple[str, str]] = []
        while True:
            token = self.current
            if (
                token.kind == "ident"
                and token.upper.lower() in _AGGREGATES
                and self.tokens[self.pos + 1].text == "("
            ):
                aggregates.append(self.parse_aggregate())
            else:
                qualifier, name = self.read_column_ref()
                projections.append(self.resolve_column(qualifier, name))
            if self.current.text == ",":
                self.advance()
                continue
            break
        if not aggregates:
            raise SQLParseError(
                "the star-join template requires at least one aggregate "
                "in the SELECT list"
            )
        return projections, aggregates

    def parse_aggregate(self) -> tuple[str, str]:
        agg = self.advance().text.lower()
        self.expect_symbol("(")
        token = self.advance()
        if token.text == "*":
            if agg != "count":
                raise SQLParseError(f"{agg.upper()}(*) is not valid")
            measure = self.schema.measures[0].name
        else:
            if token.kind != "ident" or not self.schema.has_measure(token.text):
                raise SQLParseError(f"unknown measure {token.text!r}")
            measure = token.text
        self.expect_symbol(")")
        return measure, agg

    def parse_table_list(self) -> list[str]:
        tables = []
        while True:
            token = self.advance()
            if token.kind != "ident":
                raise SQLParseError(
                    f"expected a table name, got {token.text!r}"
                )
            tables.append(token.text)
            if self.current.text == ",":
                self.advance()
                continue
            break
        return tables

    def parse_where(self) -> list[tuple[tuple[int, int], Interval]]:
        """Conditions as ((dim position, level), ordinal interval).

        Join conditions (``a.x = b.y``) are validated and dropped.
        """
        conditions: list[tuple[tuple[int, int], Interval]] = []
        while True:
            condition = self.parse_condition()
            if condition is not None:
                conditions.append(condition)
            if self.at_keyword("AND"):
                self.advance()
                continue
            break
        return conditions

    def parse_condition(self) -> tuple[tuple[int, int], Interval] | None:
        qualifier, name = self.read_column_ref()
        token = self.advance()
        if token.kind == "ident" and token.upper == "BETWEEN":
            low = self.parse_literal()
            self.expect_keyword("AND")
            high = self.parse_literal()
            column = self.resolve_column(qualifier, name)
            return column, self._range(column, low, high)
        if token.kind != "symbol" or token.text not in (
            "=", "<=", ">=", "<", ">",
        ):
            raise SQLParseError(
                f"expected a comparison after {name!r}, got {token.text!r}"
            )
        operator = token.text
        # Join condition: rhs is another column reference.
        if operator == "=" and self.current.kind == "ident" and (
            self.tokens[self.pos + 1].text == "."
        ):
            self.read_column_ref()
            return None
        value = self.parse_literal()
        column = self.resolve_column(qualifier, name)
        return column, self._comparison(column, operator, value)

    def parse_literal(self) -> object:
        token = self.advance()
        if token.kind == "string":
            return token.text
        if token.kind == "number":
            return float(token.text) if "." in token.text else int(token.text)
        raise SQLParseError(f"expected a literal, got {token.text!r}")

    def parse_groupby_list(self) -> list[tuple[int, int]]:
        columns = []
        while True:
            qualifier, name = self.read_column_ref()
            columns.append(self.resolve_column(qualifier, name))
            if self.current.text == ",":
                self.advance()
                continue
            break
        return columns

    # ------------------------------------------------------------------
    # Predicates -> ordinal intervals
    # ------------------------------------------------------------------
    def _ordinal(self, column: tuple[int, int], value: object) -> int:
        dim_pos, level = column
        dim = self.schema.dimensions[dim_pos]
        index = dim.domain_index(level)
        if value in index:
            return index.ordinal_of(value)
        # Numeric literals may address integer-valued members.
        if isinstance(value, float) and value.is_integer():
            if int(value) in index:
                return index.ordinal_of(int(value))
        raise SQLParseError(
            f"unknown member {value!r} at level {level} of dimension "
            f"{dim.name!r}"
        )

    def _range(
        self, column: tuple[int, int], low: object, high: object
    ) -> Interval:
        lo = self._ordinal(column, low)
        hi = self._ordinal(column, high)
        if hi < lo:
            raise SQLParseError(
                f"BETWEEN bounds are reversed: {low!r} > {high!r}"
            )
        return (lo, hi + 1)

    def _comparison(
        self, column: tuple[int, int], operator: str, value: object
    ) -> Interval:
        dim_pos, level = column
        cardinality = self.schema.dimensions[dim_pos].cardinality(level)
        ordinal = self._ordinal(column, value)
        if operator == "=":
            return (ordinal, ordinal + 1)
        if operator == ">=":
            return (ordinal, cardinality)
        if operator == ">":
            return (ordinal + 1, cardinality)
        if operator == "<=":
            return (0, ordinal + 1)
        if operator == "<":
            return (0, ordinal)
        raise SQLParseError(f"unsupported operator {operator!r}")

    # ------------------------------------------------------------------
    # Semantic analysis (Section 5.2.1)
    # ------------------------------------------------------------------
    def analyze(
        self,
        projections: list[tuple[int, int]],
        aggregates: list[tuple[str, str]],
        conditions: list[tuple[tuple[int, int], Interval]],
        groupby_columns: list[tuple[int, int]],
    ) -> StarQuery:
        groupby = [0] * self.schema.num_dimensions
        for dim_pos, level in groupby_columns:
            if groupby[dim_pos] not in (0, level):
                dim = self.schema.dimensions[dim_pos]
                raise SQLParseError(
                    f"GROUP BY names two levels of dimension {dim.name!r}"
                )
            groupby[dim_pos] = level
        for dim_pos, level in projections:
            if groupby[dim_pos] != level:
                dim = self.schema.dimensions[dim_pos]
                raise SQLParseError(
                    f"projected column of dimension {dim.name!r} at level "
                    f"{level} is not in the GROUP BY"
                )

        selections: list[Interval] = [None] * self.schema.num_dimensions
        filters: list[Interval] = [None] * self.schema.num_dimensions
        for (dim_pos, level), interval in conditions:
            dim = self.schema.dimensions[dim_pos]
            group_level = groupby[dim_pos]
            if 0 < group_level and level <= group_level:
                # Selection on a group-by attribute (possibly at a coarser
                # level of the same hierarchy, e.g. category='clothes'
                # with GROUP BY product): hierarchical ordering maps it to
                # a contiguous interval at the group-by level, keeping it
                # a relaxable post-aggregation selection.
                lo, hi = interval
                lo = max(lo, 0)
                hi = min(hi, dim.cardinality(level))
                if hi <= lo:
                    raise SQLParseError(f"empty predicate on {dim.name!r}")
                if level < group_level:
                    interval = dim.map_range(level, (lo, hi), group_level)
                else:
                    interval = (lo, hi)
                merged = interval_intersect(selections[dim_pos], interval)
                if merged == "empty":
                    raise SQLParseError(
                        f"contradictory predicates on {dim.name!r}"
                    )
                selections[dim_pos] = merged
            else:
                # Selection on a non-group-by attribute: map to a leaf
                # interval and fold in before aggregation.
                lo, hi = interval
                if hi <= lo:
                    raise SQLParseError(
                        f"empty predicate on {dim.name!r}"
                    )
                leaf = dim.map_range(
                    level,
                    (max(lo, 0), min(hi, dim.cardinality(level))),
                    dim.leaf_level,
                )
                merged = interval_intersect(filters[dim_pos], leaf)
                if merged == "empty":
                    raise SQLParseError(
                        f"contradictory predicates on {dim.name!r}"
                    )
                filters[dim_pos] = merged

        # Clamp selections that comparison operators may have pushed past
        # the domain (e.g. "> last_member").
        for dim_pos, interval in enumerate(selections):
            if interval is None:
                continue
            level = groupby[dim_pos]
            cardinality = self.schema.dimensions[dim_pos].cardinality(level)
            lo, hi = interval
            if hi <= lo or lo >= cardinality or hi <= 0:
                raise SQLParseError(
                    f"predicate on "
                    f"{self.schema.dimensions[dim_pos].name!r} selects "
                    "nothing"
                )
        return StarQuery.build(
            self.schema,
            groupby,
            selections,
            aggregates,
            dim_filters=filters,
        )


def parse_query(schema: StarSchema, sql: str) -> StarQuery:
    """Parse one star-join SELECT statement into a :class:`StarQuery`.

    Raises:
        SQLParseError: On syntax errors, unknown columns/members, or
            statements outside the star-join template.
    """
    return _Parser(schema, sql).parse()

