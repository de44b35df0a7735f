"""Tests for repro.schema.dimension."""

import pytest

from repro.exceptions import SchemaError, UnknownMemberError
from repro.schema.dimension import Dimension, DomainIndex
from repro.schema.hierarchy import Hierarchy, Level


class TestDomainIndex:
    def test_roundtrip(self):
        index = DomainIndex(["WI", "IL", "MN"])
        assert index.ordinal_of("IL") == 1
        assert index.value_of(2) == "MN"
        assert len(index) == 3
        assert "WI" in index
        assert "CA" not in index

    def test_unknown_value(self):
        index = DomainIndex(["a"])
        with pytest.raises(UnknownMemberError):
            index.ordinal_of("b")

    def test_unknown_ordinal(self):
        index = DomainIndex(["a"])
        with pytest.raises(UnknownMemberError):
            index.value_of(1)

    def test_duplicates_rejected(self):
        with pytest.raises(SchemaError):
            DomainIndex(["a", "a"])

    def test_values_property(self):
        assert DomainIndex(["x", "y"]).values == ("x", "y")


def store_dimension():
    hierarchy = Hierarchy(
        [Level(1, "state", 2), Level(2, "city", 4), Level(3, "store", 8)]
    )
    return Dimension(
        "store",
        hierarchy,
        members={
            1: ["WI", "IL"],
            2: ["Madison", "Milwaukee", "Chicago", "Evanston"],
        },
    )


class TestDimension:
    def test_structure(self):
        dim = store_dimension()
        assert dim.num_levels == 3
        assert dim.leaf_level == 3
        assert dim.leaf_cardinality == 8
        assert dim.cardinality(2) == 4

    def test_named_members(self):
        dim = store_dimension()
        assert dim.domain_index(1).ordinal_of("IL") == 1
        assert dim.value_of(2, 0) == "Madison"

    def test_synthetic_members_for_missing_levels(self):
        dim = store_dimension()
        assert dim.value_of(3, 0) == "store/store/0"

    def test_member_count_mismatch_rejected(self):
        hierarchy = Hierarchy([Level(1, "a", 3)])
        with pytest.raises(SchemaError):
            Dimension("d", hierarchy, members={1: ["only", "two"]})

    def test_members_for_unknown_level_rejected(self):
        hierarchy = Hierarchy([Level(1, "a", 1)])
        with pytest.raises(SchemaError):
            Dimension("d", hierarchy, members={2: ["x"]})

    def test_empty_name_rejected(self):
        hierarchy = Hierarchy([Level(1, "a", 1)])
        with pytest.raises(SchemaError):
            Dimension("", hierarchy)

    def test_navigation_delegation(self):
        dim = store_dimension()
        assert dim.ancestor_ordinal(2, 3, 1) == 1
        assert dim.ancestor_ordinal(3, 7, 1) == 1
        assert dim.map_range(1, (0, 1), 3) == (0, 4)
        assert dim.map_range(2, (1, 2), 3) == (2, 4)
        assert dim.map_range(1, (0, 1), 2) == (0, 2)

    def test_domain_index_unknown_level(self):
        dim = store_dimension()
        with pytest.raises(SchemaError):
            dim.domain_index(4)

    def test_repr_mentions_name(self):
        assert "store" in repr(store_dimension())
