"""Tests for repro.storage.btree — model-based and structural."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import IndexError_, PageError
from repro.storage.btree import BTree
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk


def make_tree(page_size=256):
    return BTree(SimulatedDisk(page_size))


def pairs(keys):
    """Chunk-index style items: ``(key, (key * 10, key + 1))``."""
    return [(k, (k * 10, k + 1)) for k in keys]


class TestBulkLoad:
    def test_small(self):
        tree = make_tree()
        tree.bulk_load(pairs(range(5)))
        assert len(tree) == 5
        assert tree.height == 1
        for i in range(5):
            assert tree.search(i) == (i * 10, i + 1)

    def test_multi_level(self):
        tree = make_tree(page_size=128)
        tree.bulk_load(pairs(range(0, 2000, 2)))
        assert tree.height >= 2
        assert tree.search(998) == (9980, 999)
        assert tree.search(999) is None
        assert tree.search(-5) is None
        assert tree.search(99999) is None

    def test_empty_load(self):
        tree = make_tree()
        tree.bulk_load([])
        assert len(tree) == 0
        assert tree.height == 0
        assert tree.search(1) is None
        assert tree.search_many([1, 2]) == {}

    def test_unsorted_rejected(self):
        tree = make_tree()
        with pytest.raises(IndexError_):
            tree.bulk_load([(2, (0, 0)), (1, (0, 0))])

    def test_duplicates_rejected(self):
        tree = make_tree()
        with pytest.raises(IndexError_):
            tree.bulk_load([(1, (0, 0)), (1, (0, 0))])

    def test_wrong_arity_rejected(self):
        tree = make_tree()
        with pytest.raises(IndexError_):
            tree.bulk_load([(1, (0,))])

    def test_double_load_rejected(self):
        tree = make_tree()
        tree.bulk_load(pairs([1]))
        with pytest.raises(IndexError_):
            tree.bulk_load(pairs([2]))

    def test_fill_factor(self):
        """Bulk load packs every node but the last of a level full."""
        tree = make_tree(page_size=256)
        tree.bulk_load(pairs(range(100)))
        leaves = math.ceil(100 / tree.leaf_capacity)
        assert leaves <= tree.internal_capacity + 1  # one root suffices
        assert tree.disk.num_pages == leaves + 1
        assert tree.height == 2


class TestSearchMany:
    @pytest.fixture()
    def tree(self):
        tree = make_tree(page_size=128)
        tree.bulk_load([(i * 2, (i, i + 1)) for i in range(500)])
        return tree

    def test_matches_individual_searches(self, tree):
        keys = [0, 2, 3, 100, 998, 999, 1200]
        batch = tree.search_many(keys)
        for key in keys:
            single = tree.search(key)
            if single is None:
                assert key not in batch
            else:
                assert batch[key] == single

    def test_unsorted_rejected(self, tree):
        with pytest.raises(IndexError_):
            tree.search_many([10, 4])

    def test_empty(self, tree):
        assert tree.search_many([]) == {}

    def test_fewer_node_reads_than_naive(self, tree):
        keys = list(range(0, 400, 2))
        tree.disk.reset_stats()
        tree.search_many(keys)
        batch_reads = tree.disk.stats.reads
        tree.disk.reset_stats()
        for key in keys:
            tree.search(key)
        naive_reads = tree.disk.stats.reads
        assert batch_reads < naive_reads


class TestConstruction:
    def test_tiny_page_rejected(self):
        with pytest.raises(PageError):  # refused by the disk itself
            BTree(SimulatedDisk(page_size=32))
        # The smallest page the disk accepts holds two entries per node.
        tree = make_tree(page_size=64)
        assert tree.leaf_capacity == tree.internal_capacity == 2
        tree.bulk_load(pairs(range(20)))
        assert tree.height > 2
        assert tree.search_many(list(range(20))) == dict(pairs(range(20)))

    def test_with_buffer_pool(self):
        disk = SimulatedDisk(page_size=128)
        pool = BufferPool(disk, 8)
        tree = BTree(disk, buffer_pool=pool)
        tree.bulk_load(pairs(range(200)))
        disk.reset_stats()
        tree.search(100)
        tree.search(100)
        # Second search hits the pool: fewer physical reads than 2x height.
        assert disk.stats.reads <= tree.height


@settings(max_examples=25, deadline=None)
@given(
    initial=st.dictionaries(
        st.integers(0, 3000), st.integers(0, 100), max_size=300
    ),
    probes=st.lists(st.integers(-10, 3010), max_size=40),
)
def test_model_based(initial, probes):
    """BTree behaves exactly like a sorted dict under load + search."""
    tree = make_tree(page_size=128)
    tree.bulk_load(sorted((k, (v, k)) for k, v in initial.items()))
    assert len(tree) == len(initial)
    for key in probes:
        expected = (initial[key], key) if key in initial else None
        assert tree.search(key) == expected
    wanted = sorted(set(probes))
    assert tree.search_many(wanted) == {
        key: (initial[key], key) for key in wanted if key in initial
    }
