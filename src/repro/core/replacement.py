"""Cache replacement policies (Section 5.4).

Three policies are provided behind one interface:

- :class:`LRUPolicy` — exact least-recently-used;
- :class:`ClockPolicy` — the CLOCK (second chance) approximation of LRU
  the paper uses, necessary because the number of cached chunks is large;
- :class:`BenefitClockPolicy` — the paper's contribution: CLOCK weighted
  by chunk *benefit*.  A new entry starts with weight equal to its
  benefit; each pass of the clock arm reduces an entry's weight by the
  benefit of the incoming entry; entries whose weight has reached zero are
  evicted; re-access resets the weight.  Expensive (highly aggregated)
  chunks therefore survive more sweeps than cheap ones.

Policies track keys only; payloads live in :class:`repro.core.cache.ChunkCache`.
The clock ring is a doubly-linked list so eviction of arbitrary entries is
O(1), which matters when thousands of chunks are resident.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Hashable

from repro.exceptions import CacheError

__all__ = [
    "ReplacementPolicy",
    "LRUPolicy",
    "ClockPolicy",
    "BenefitClockPolicy",
    "make_policy",
]


class ReplacementPolicy(ABC):
    """Replacement bookkeeping over opaque hashable keys."""

    @abstractmethod
    def on_insert(self, key: Hashable, weight: float) -> None:
        """Register a newly cached entry with its benefit weight."""

    @abstractmethod
    def on_access(self, key: Hashable) -> None:
        """Record a cache hit on an entry."""

    @abstractmethod
    def remove(self, key: Hashable) -> None:
        """Forget an entry (external invalidation)."""

    @abstractmethod
    def victim(self, incoming_weight: float) -> Hashable:
        """Choose and forget the entry to evict for an incoming entry.

        Raises:
            CacheError: If the policy tracks no entries.
        """

    @abstractmethod
    def __len__(self) -> int:
        """Number of tracked entries."""


class LRUPolicy(ReplacementPolicy):
    """Exact LRU via an ordered dictionary."""

    def __init__(self) -> None:
        self._entries: OrderedDict[Hashable, None] = OrderedDict()

    def on_insert(self, key: Hashable, weight: float) -> None:
        if key in self._entries:
            raise CacheError(f"duplicate insert of {key!r}")
        self._entries[key] = None

    def on_access(self, key: Hashable) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)

    def remove(self, key: Hashable) -> None:
        self._entries.pop(key, None)

    def victim(self, incoming_weight: float) -> Hashable:
        if not self._entries:
            raise CacheError("no entries to evict")
        key, _ = self._entries.popitem(last=False)
        return key

    def __len__(self) -> int:
        return len(self._entries)


class _Node:
    __slots__ = ("key", "weight", "initial_weight", "prev", "next")

    def __init__(self, key: Hashable, weight: float) -> None:
        self.key = key
        self.weight = weight
        self.initial_weight = weight
        self.prev: "_Node | None" = None
        self.next: "_Node | None" = None


class _ClockRing:
    """Circular doubly-linked list with a hand pointer."""

    def __init__(self) -> None:
        self._nodes: dict[Hashable, _Node] = {}
        self._hand: _Node | None = None

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, key: Hashable) -> _Node | None:
        return self._nodes.get(key)

    def insert_behind_hand(self, node: _Node) -> None:
        """Insert just behind the hand (will be swept last)."""
        if node.key in self._nodes:
            raise CacheError(f"duplicate insert of {node.key!r}")
        self._nodes[node.key] = node
        if self._hand is None:
            node.prev = node.next = node
            self._hand = node
            return
        tail = self._hand.prev
        assert tail is not None
        tail.next = node
        node.prev = tail
        node.next = self._hand
        self._hand.prev = node

    def unlink(self, key: Hashable) -> _Node | None:
        node = self._nodes.pop(key, None)
        if node is None:
            return None
        if node.next is node:
            self._hand = None
        else:
            assert node.prev is not None and node.next is not None
            node.prev.next = node.next
            node.next.prev = node.prev
            if self._hand is node:
                self._hand = node.next
        node.prev = node.next = None
        return node

    @property
    def hand(self) -> _Node:
        if self._hand is None:
            raise CacheError("no entries to evict")
        return self._hand

    def advance(self) -> None:
        assert self._hand is not None and self._hand.next is not None
        self._hand = self._hand.next


class ClockPolicy(ReplacementPolicy):
    """Plain CLOCK (second chance): weights are 0/1 reference bits.

    This is the paper's "simple LRU" arm of the Figure 13 comparison —
    LRU approximated by CLOCK.
    """

    def __init__(self) -> None:
        self._ring = _ClockRing()

    def on_insert(self, key: Hashable, weight: float) -> None:
        self._ring.insert_behind_hand(_Node(key, 1.0))

    def on_access(self, key: Hashable) -> None:
        node = self._ring.node(key)
        if node is not None:
            node.weight = 1.0

    def remove(self, key: Hashable) -> None:
        self._ring.unlink(key)

    def victim(self, incoming_weight: float) -> Hashable:
        while True:
            node = self._ring.hand
            if node.weight > 0:
                node.weight = 0.0
                self._ring.advance()
            else:
                self._ring.advance()
                self._ring.unlink(node.key)
                return node.key

    def __len__(self) -> int:
        return len(self._ring)


class BenefitClockPolicy(ReplacementPolicy):
    """CLOCK weighted by benefit (the paper's replacement scheme).

    Entries enter with ``weight = benefit``.  The sweeping arm subtracts
    the *incoming* entry's benefit from each entry it passes; an entry
    whose weight is already exhausted is the victim.  Re-access restores
    the initial weight.
    """

    def __init__(self) -> None:
        self._ring = _ClockRing()
        # The ring's node table, probed directly on every cache hit.
        self._nodes = self._ring._nodes

    def on_insert(self, key: Hashable, weight: float) -> None:
        if weight < 0:
            raise CacheError(f"negative benefit {weight} for {key!r}")
        self._ring.insert_behind_hand(_Node(key, weight))

    def on_access(self, key: Hashable) -> None:
        node = self._nodes.get(key)
        if node is not None:
            node.weight = node.initial_weight

    def remove(self, key: Hashable) -> None:
        self._ring.unlink(key)

    def victim(self, incoming_weight: float) -> Hashable:
        if incoming_weight <= 0:
            # A non-positive incoming weight would sweep forever past
            # positive-weight entries; evict the lowest-weight entry
            # directly instead (one bounded pass).
            start = self._ring.hand
            weakest = start
            node = start.next
            assert node is not None
            while node is not start:
                if node.weight < weakest.weight:
                    weakest = node
                assert node.next is not None
                node = node.next
            self._ring.unlink(weakest.key)
            return weakest.key
        while True:
            node = self._ring.hand
            if node.weight <= 0:
                self._ring.advance()
                self._ring.unlink(node.key)
                return node.key
            node.weight -= incoming_weight
            self._ring.advance()

    def __len__(self) -> int:
        return len(self._ring)


_POLICIES = {
    "lru": LRUPolicy,
    "clock": ClockPolicy,
    "benefit": BenefitClockPolicy,
}


def make_policy(name: str) -> ReplacementPolicy:
    """Instantiate a policy by name: ``"lru"``, ``"clock"`` or ``"benefit"``."""
    try:
        return _POLICIES[name]()
    except KeyError:
        raise CacheError(
            f"unknown replacement policy {name!r}; "
            f"expected one of {sorted(_POLICIES)}"
        ) from None
