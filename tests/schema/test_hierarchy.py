"""Tests for repro.schema.hierarchy."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import SchemaError
from repro.schema.hierarchy import (
    Hierarchy,
    Level,
    even_child_starts,
)
from tests.reference.navigation import ReferenceHierarchy


def make_hierarchy(cards, child_starts=None):
    levels = [Level(i + 1, f"L{i + 1}", c) for i, c in enumerate(cards)]
    return Hierarchy(levels, child_starts)


class TestLevel:
    def test_valid(self):
        level = Level(1, "state", 5)
        assert level.number == 1
        assert level.cardinality == 5

    def test_zero_cardinality_rejected(self):
        with pytest.raises(SchemaError):
            Level(1, "state", 0)

    def test_bad_number_rejected(self):
        with pytest.raises(SchemaError):
            Level(0, "state", 5)


class TestConstruction:
    def test_single_level(self):
        h = make_hierarchy([7])
        assert h.size == 1
        assert h.leaf_level == 1
        assert h.cardinality(1) == 7

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            Hierarchy([])

    def test_misordered_levels_rejected(self):
        levels = [Level(2, "a", 2), Level(1, "b", 4)]
        with pytest.raises(SchemaError):
            Hierarchy(levels)

    def test_decreasing_cardinality_rejected(self):
        with pytest.raises(SchemaError):
            make_hierarchy([10, 5])

    def test_child_starts_validation_span(self):
        with pytest.raises(SchemaError):
            make_hierarchy([2, 6], child_starts=[(0, 3, 5)])

    def test_child_starts_empty_parent_rejected(self):
        with pytest.raises(SchemaError):
            make_hierarchy([2, 6], child_starts=[(0, 0, 6)])

    def test_wrong_number_of_tables_rejected(self):
        with pytest.raises(SchemaError):
            make_hierarchy([2, 4], child_starts=[(0, 2, 4), (0, 1)])


class TestNavigation:
    @pytest.fixture()
    def hierarchy(self):
        # 2 -> 5 -> 12 with uneven fanouts.
        return make_hierarchy(
            [2, 5, 12],
            child_starts=[(0, 2, 5), (0, 1, 4, 7, 10, 12)],
        )

    def test_children_range(self, hierarchy):
        assert hierarchy.children_range(1, 0) == (0, 2)
        assert hierarchy.children_range(1, 1) == (2, 5)
        assert hierarchy.children_range(2, 2) == (4, 7)

    def test_children_of_leaf_rejected(self, hierarchy):
        with pytest.raises(SchemaError):
            hierarchy.children_range(3, 0)

    def test_parent_ordinal(self, hierarchy):
        assert hierarchy.parent_ordinal(2, 0) == 0
        assert hierarchy.parent_ordinal(2, 1) == 0
        assert hierarchy.parent_ordinal(2, 2) == 1
        assert hierarchy.parent_ordinal(3, 11) == 4

    def test_parent_of_root_level_rejected(self, hierarchy):
        with pytest.raises(SchemaError):
            hierarchy.parent_ordinal(1, 0)

    def test_ancestor_identity(self, hierarchy):
        assert hierarchy.ancestor_ordinal(3, 7, 3) == 7

    def test_ancestor_two_up(self, hierarchy):
        # Leaf 8 -> level-2 parent 3 -> level-1 parent 1.
        assert hierarchy.ancestor_ordinal(3, 8, 1) == 1

    def test_descend_range(self, hierarchy):
        # Parent 0 at level 1 owns level-2 members {0, 1} -> leaves [0, 4).
        assert hierarchy.descend_range(1, 0, 3) == (0, 4)
        assert hierarchy.descend_range(1, 1, 3) == (4, 12)
        assert hierarchy.descend_range(2, 0, 3) == (0, 1)

    def test_map_range(self, hierarchy):
        assert hierarchy.map_range(2, (1, 3), 3) == (1, 7)

    def test_map_range_upward_rejected(self, hierarchy):
        with pytest.raises(SchemaError):
            hierarchy.map_range(3, (0, 2), 1)

    def test_ordinal_bounds_checked(self, hierarchy):
        with pytest.raises(SchemaError):
            hierarchy.children_range(1, 2)

    def test_descend_and_ancestor_are_inverse(self, hierarchy):
        for level in (1, 2):
            for ordinal in range(hierarchy.cardinality(level)):
                lo, hi = hierarchy.descend_range(level, ordinal, 3)
                for leaf in range(lo, hi):
                    assert hierarchy.ancestor_ordinal(3, leaf, level) == ordinal


class TestContainedInterval:
    @pytest.fixture()
    def hierarchy(self):
        return make_hierarchy(
            [2, 5, 12],
            child_starts=[(0, 2, 5), (0, 1, 4, 7, 10, 12)],
        )

    def test_full_domain(self, hierarchy):
        assert hierarchy.contained_interval(2, (0, 12)) == (0, 5)

    def test_partial(self, hierarchy):
        # Leaf [1, 10) fully contains level-2 members 1 (1..4), 2 (4..7),
        # 3 (7..10) but not 0 (0..1) or 4 (10..12).
        assert hierarchy.contained_interval(2, (1, 10)) == (1, 4)

    def test_none_when_too_narrow(self, hierarchy):
        assert hierarchy.contained_interval(1, (1, 6)) is None

    def test_leaf_level_identity(self, hierarchy):
        assert hierarchy.contained_interval(3, (3, 9)) == (3, 9)

    def test_bad_leaf_interval_rejected(self, hierarchy):
        with pytest.raises(SchemaError):
            hierarchy.contained_interval(2, (5, 3))


class TestEvenChildStarts:
    def test_exact_division(self):
        assert even_child_starts(3, 9) == (0, 3, 6, 9)

    def test_remainder_goes_first(self):
        assert even_child_starts(3, 7) == (0, 3, 5, 7)

    def test_one_parent(self):
        assert even_child_starts(1, 4) == (0, 4)

    def test_too_few_children_rejected(self):
        with pytest.raises(SchemaError):
            even_child_starts(5, 3)

    @given(
        parents=st.integers(1, 50),
        extra=st.integers(0, 200),
    )
    def test_properties(self, parents, extra):
        children = parents + extra
        starts = even_child_starts(parents, children)
        assert starts[0] == 0
        assert starts[-1] == children
        sizes = [b - a for a, b in zip(starts, starts[1:])]
        assert all(size >= 1 for size in sizes)
        assert max(sizes) - min(sizes) <= 1


@given(st.data())
def test_random_hierarchy_descend_ancestor_roundtrip(data):
    """descend_range and ancestor_ordinal agree on random hierarchies."""
    depth = data.draw(st.integers(1, 4))
    cards = [data.draw(st.integers(1, 6))]
    for _ in range(depth - 1):
        cards.append(cards[-1] + data.draw(st.integers(0, 8)))
    h = make_hierarchy(cards)
    level = data.draw(st.integers(1, depth))
    ordinal = data.draw(st.integers(0, cards[level - 1] - 1))
    lo, hi = h.descend_range(level, ordinal, depth)
    assert 0 <= lo < hi <= cards[-1]
    for leaf in range(lo, hi):
        assert h.ancestor_ordinal(depth, leaf, level) == ordinal


class TestAncestorOrdinalChecksEveryTargetLevel:
    """The ordinal is checked when the target level is the source level
    too, on the paper schema's first dimension (levels of 25, 50, 100)."""

    def test_same_level(self, paper_schema):
        d0 = paper_schema.dimensions[0]
        with pytest.raises(
            SchemaError,
            match=r"^ordinal 999 out of range at level 2 \(cardinality 50\)$",
        ):
            d0.hierarchy.ancestor_ordinal(2, 999, 2)
        with pytest.raises(
            SchemaError,
            match=r"^ordinal -1 out of range at level 3 \(cardinality 100\)$",
        ):
            d0.ancestor_ordinal(3, -1, 3)

    def test_same_message_as_a_level_above(self, paper_schema):
        hierarchy = paper_schema.dimensions[0].hierarchy
        messages = []
        for target in (2, 1):
            with pytest.raises(SchemaError) as raised:
                hierarchy.ancestor_ordinal(2, 999, target)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]


# ----------------------------------------------------------------------
# Navigation against a brute-force reference
# ----------------------------------------------------------------------
@st.composite
def hierarchies(draw):
    """1-4 levels; every parent gets 1-3 children."""
    depth = draw(st.integers(1, 4))
    cards = [draw(st.integers(1, 5))]
    child_starts = []
    for _ in range(depth - 1):
        fanouts = draw(
            st.lists(st.integers(1, 3), min_size=cards[-1], max_size=cards[-1])
        )
        starts = [0]
        for fanout in fanouts:
            starts.append(starts[-1] + fanout)
        child_starts.append(tuple(starts))
        cards.append(starts[-1])
    return cards, child_starts


def outcome(call):
    """A call's value, or the message of the SchemaError it raised."""
    try:
        return ("value", call())
    except SchemaError as error:
        return ("raises", str(error))


@settings(max_examples=100, deadline=None)
@given(hierarchies(), st.data())
def test_navigation_equals_the_brute_force_reference(shape, data):
    """Every method answers as walking children and scanning members
    does, and every out-of-range input raises the same SchemaError."""
    cards, child_starts = shape
    hierarchy = make_hierarchy(cards, child_starts)
    reference = ReferenceHierarchy(cards, child_starts)
    depth = len(cards)
    levels = st.integers(-1, depth + 1)
    ordinals = st.integers(-2, max(cards) + 1)
    leaves = st.integers(-2, cards[-1] + 2)
    for _ in range(25):
        method = data.draw(
            st.sampled_from(
                [
                    "cardinality", "children_range", "parent_ordinal",
                    "ancestor_ordinal", "descend_range", "map_range",
                    "contained_interval", "descendant_starts",
                ]
            )
        )
        if method == "cardinality":
            args = (data.draw(levels),)
        elif method in ("children_range", "parent_ordinal"):
            args = (data.draw(levels), data.draw(ordinals))
        elif method in ("ancestor_ordinal", "descend_range"):
            args = (data.draw(levels), data.draw(ordinals), data.draw(levels))
        elif method == "map_range":
            interval = (data.draw(ordinals), data.draw(ordinals))
            args = (data.draw(levels), interval, data.draw(levels))
        elif method == "contained_interval":
            args = (data.draw(levels), (data.draw(leaves), data.draw(leaves)))
        else:
            args = (data.draw(levels), data.draw(levels))
        got = outcome(lambda: getattr(hierarchy, method)(*args))
        want = outcome(lambda: getattr(reference, method)(*args))
        assert got == want, (method, args)


@settings(max_examples=60, deadline=None)
@given(hierarchies())
def test_every_valid_input_equals_the_reference(shape):
    """Exhaustively, on small hierarchies: every in-range member and
    level pair, and every leaf interval."""
    cards, child_starts = shape
    hierarchy = make_hierarchy(cards, child_starts)
    reference = ReferenceHierarchy(cards, child_starts)
    depth = len(cards)
    for level in range(1, depth + 1):
        for target in range(level, depth + 1):
            assert hierarchy.descendant_starts(
                level, target
            ) == reference.descendant_starts(level, target)
        for ordinal in range(cards[level - 1]):
            for target in range(1, level + 1):
                assert hierarchy.ancestor_ordinal(
                    level, ordinal, target
                ) == reference.ancestor_ordinal(level, ordinal, target)
            for target in range(level, depth + 1):
                assert hierarchy.descend_range(
                    level, ordinal, target
                ) == reference.descend_range(level, ordinal, target)
        if cards[-1] <= 30:
            for lo in range(cards[-1]):
                for hi in range(lo + 1, cards[-1] + 1):
                    assert hierarchy.contained_interval(
                        level, (lo, hi)
                    ) == reference.contained_interval(level, (lo, hi))
