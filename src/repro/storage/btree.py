"""A page-based B+-tree over the simulated disk: the chunk index.

The paper's chunked file uses a B-tree as its *chunk index*: one entry per
chunk mapping the chunk number to the chunk's ``(start position, record
count)`` in the fact file (Section 5.3).  This module implements a
genuine B+-tree whose nodes are disk pages, so index traversals cost real
(simulated) I/O:

- integer keys, values of two integers;
- bottom-up **bulk load** from sorted items into full nodes (how chunk
  indexes are built — the file is never updated in place: appended
  tuples go to the engine's delta region, and ``reorganize`` bulk-loads
  a fresh file and index);
- **search** of one key, and **search_many** of a sorted batch along
  the linked leaves.

Node layout (little endian)::

    header:  [is_leaf: u8] [count: u16] [next_leaf: i64]
    leaf:    [keys: i64 x count] [values: i64 x count*2]
    internal:[keys: i64 x count] [children: i64 x (count+1)]
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from typing import Sequence

import numpy as np

from repro.exceptions import IndexError_
from repro.storage.buffer import BufferPool
from repro.storage.disk import SimulatedDisk

__all__ = ["BTree"]

_HEADER = struct.Struct("<BHq")
_INT = struct.Struct("<q")
#: i64 components per value: a chunk's start position and record count.
VALUE_ARITY = 2


class _Node:
    """In-memory image of one B+-tree page."""

    __slots__ = ("page_id", "is_leaf", "keys", "values", "children", "next_leaf")

    def __init__(self, page_id: int, is_leaf: bool) -> None:
        self.page_id = page_id
        self.is_leaf = is_leaf
        self.keys: list[int] = []
        self.values: list[tuple[int, ...]] = []  # leaves only
        self.children: list[int] = []  # internal only
        self.next_leaf = -1


class BTree:
    """A B+-tree index from integer keys to pairs of integers.

    Args:
        disk: Backing disk for node pages.
        buffer_pool: Optional pool node reads go through.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        buffer_pool: BufferPool | None = None,
    ) -> None:
        self.disk = disk
        self.buffer_pool = buffer_pool
        # The disk's smallest page (64 bytes) holds two entries of either
        # node kind, the least a B+-tree node needs.
        body = disk.page_size - _HEADER.size
        self.leaf_capacity = body // (8 + 8 * VALUE_ARITY)
        self.internal_capacity = (body - 8) // 16  # k keys + (k+1) children
        self._root_id = -1
        self._height = 0
        self._num_keys = 0
        # Decoded-node cache: avoids re-parsing a page's payload on every
        # traversal.  I/O accounting is unaffected — the page is still
        # requested from the buffer pool / disk before the cache is
        # consulted — and writes refresh the cached image.
        self._decoded: dict[int, _Node] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._num_keys

    @property
    def height(self) -> int:
        """Number of levels (0 for an empty tree, 1 for a lone leaf)."""
        return self._height

    # ------------------------------------------------------------------
    # Node I/O
    # ------------------------------------------------------------------
    def _read_node(self, page_id: int) -> _Node:
        # The page is always fetched first so the buffer pool and disk
        # counters see every logical node access; only the *parsing* is
        # cached.
        if self.buffer_pool is not None:
            payload = self.buffer_pool.get_page(page_id)
        else:
            payload = self.disk.read_page(page_id)
        cached = self._decoded.get(page_id)
        if cached is not None:
            return cached
        node = self._decode_node(page_id, payload)
        self._decoded[page_id] = node
        return node

    def _decode_node(self, page_id: int, payload: bytes) -> _Node:
        is_leaf, count, next_leaf = _HEADER.unpack_from(payload)
        node = _Node(page_id, bool(is_leaf))
        node.next_leaf = next_leaf
        offset = _HEADER.size
        node.keys = np.frombuffer(
            payload, dtype="<i8", count=count, offset=offset
        ).tolist()
        offset += 8 * count
        if node.is_leaf:
            flat = np.frombuffer(
                payload,
                dtype="<i8",
                count=count * VALUE_ARITY,
                offset=offset,
            )
            node.values = [
                tuple(row)
                for row in flat.reshape(count, VALUE_ARITY).tolist()
            ]
        else:
            node.children = np.frombuffer(
                payload, dtype="<i8", count=count + 1, offset=offset
            ).tolist()
        return node

    def _write_node(self, node: _Node) -> None:
        parts = [_HEADER.pack(int(node.is_leaf), len(node.keys), node.next_leaf)]
        parts.extend(_INT.pack(key) for key in node.keys)
        if node.is_leaf:
            for value in node.values:
                parts.extend(_INT.pack(component) for component in value)
        else:
            parts.extend(_INT.pack(child) for child in node.children)
        payload = b"".join(parts)
        if self.buffer_pool is not None:
            self.buffer_pool.put_page(node.page_id, payload)
        else:
            self.disk.write_page(node.page_id, payload)
        self._decoded[node.page_id] = node

    def _new_node(self, is_leaf: bool) -> _Node:
        return _Node(self.disk.allocate(), is_leaf)

    # ------------------------------------------------------------------
    # Bulk load
    # ------------------------------------------------------------------
    def bulk_load(self, items: Sequence[tuple[int, tuple[int, ...]]]) -> None:
        """Build the tree bottom-up from sorted, unique ``(key, value)`` pairs.

        Raises:
            IndexError_: If the tree is non-empty, items are unsorted or
                contain duplicates, or a value has the wrong arity.
        """
        if self._root_id != -1:
            raise IndexError_("bulk_load requires an empty tree")
        items = list(items)
        if not items:
            return
        for (k1, _), (k2, _) in zip(items, items[1:]):
            if k2 <= k1:
                raise IndexError_(
                    f"bulk_load keys must be strictly increasing "
                    f"({k1} then {k2})"
                )
        for _, value in items:
            if len(value) != VALUE_ARITY:
                raise IndexError_(
                    f"value {value} has arity {len(value)}, "
                    f"expected {VALUE_ARITY}"
                )
        per_leaf = self.leaf_capacity
        leaves: list[_Node] = []
        for start in range(0, len(items), per_leaf):
            node = self._new_node(is_leaf=True)
            for key, value in items[start:start + per_leaf]:
                node.keys.append(key)
                node.values.append(tuple(value))
            leaves.append(node)
        for node, nxt in zip(leaves, leaves[1:]):
            node.next_leaf = nxt.page_id
        for node in leaves:
            self._write_node(node)

        level = leaves
        self._height = 1
        per_internal = self.internal_capacity
        while len(level) > 1:
            parents: list[_Node] = []
            for start in range(0, len(level), per_internal + 1):
                group = level[start:start + per_internal + 1]
                parent = self._new_node(is_leaf=False)
                parent.children = [child.page_id for child in group]
                parent.keys = [self._subtree_min(child) for child in group[1:]]
                self._write_node(parent)
                parents.append(parent)
            # Degenerate tail: a parent with a single child is legal here
            # (keys empty); searches just pass through it.
            level = parents
            self._height += 1
        self._root_id = level[0].page_id
        self._num_keys = len(items)

    def _subtree_min(self, node: _Node) -> int:
        while not node.is_leaf:
            node = self._read_node(node.children[0])
        return node.keys[0]

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(self, key: int) -> tuple[int, ...] | None:
        """Value stored under ``key``, or None.

        The chunked file probes with :meth:`search_many`; this one-key
        descent is the reference that batch is tested against.
        """
        if self._root_id == -1:
            return None
        node = self._read_node(self._root_id)
        while not node.is_leaf:
            node = self._read_node(node.children[bisect_right(node.keys, key)])
        pos = bisect_left(node.keys, key)
        if pos < len(node.keys) and node.keys[pos] == key:
            return node.values[pos]
        return None

    def search_many(
        self, keys: Sequence[int]
    ) -> dict[int, tuple[int, ...]]:
        """Look up many sorted keys with one leaf visit per distinct leaf.

        Equivalent to ``{k: v for k in keys if (v := search(k))}`` but
        descends once for the first key and then follows the leaf chain,
        so a batch touching ``m`` leaves costs ``height + m - 1`` node
        reads instead of ``height * len(keys)``.

        Raises:
            IndexError_: If ``keys`` is not sorted ascending.
        """
        result: dict[int, tuple[int, ...]] = {}
        if self._root_id == -1 or not keys:
            return result
        previous = None
        node: _Node | None = None
        for key in keys:
            if previous is not None and key < previous:
                raise IndexError_("search_many keys must be sorted ascending")
            previous = key
            if node is None or (node.keys and key > node.keys[-1]):
                node = self._descend_to_leaf(key, node)
                if node is None:
                    return result
            pos = bisect_left(node.keys, key)
            if pos < len(node.keys) and node.keys[pos] == key:
                result[key] = node.values[pos]
        return result

    def _descend_to_leaf(self, key: int, start: "_Node | None") -> "_Node | None":
        """Leaf that may hold ``key``: follow the chain from ``start`` if
        close, else descend from the root."""
        if start is not None and start.next_leaf != -1:
            # Peek one leaf ahead before paying a full root descent.
            nxt = self._read_node(start.next_leaf)
            if nxt.keys and key <= nxt.keys[-1]:
                return nxt
        node = self._read_node(self._root_id)
        while not node.is_leaf:
            node = self._read_node(node.children[bisect_right(node.keys, key)])
        while node.keys and key > node.keys[-1] and node.next_leaf != -1:
            node = self._read_node(node.next_leaf)
        return node
