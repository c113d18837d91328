"""A fixed-fanout radix tree keyed by page-sized integers.

The paper keeps per-page ownership "in a per-process radix tree which
indexes the information by the virtual page address" (§III-B).  This module
implements that structure: a 64-way tree over 48-bit keys (virtual page
numbers).  Compared to a flat dict it supports ordered range scans, which
the protocol uses for bulk invalidation on VMA shrink, and it exercises the
same sparse-index behaviour as the kernel's ``radix_tree``.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

_BITS_PER_LEVEL = 6
_FANOUT = 1 << _BITS_PER_LEVEL  # 64
_KEY_BITS = 48
_LEVELS = (_KEY_BITS + _BITS_PER_LEVEL - 1) // _BITS_PER_LEVEL  # 8
_MAX_KEY = (1 << _KEY_BITS) - 1
_MASK = _FANOUT - 1
#: the shift that selects each interior level's slot, root first (the leaf
#: level's shift is 0); a walk indexes with these, no call per level
_SHIFTS = tuple((_LEVELS - 1 - level) * _BITS_PER_LEVEL
                for level in range(_LEVELS - 1))


class _Node:
    __slots__ = ("slots", "count")

    def __init__(self) -> None:
        self.slots: List[Any] = [None] * _FANOUT
        self.count = 0  # populated slots


class RadixTree:
    """Sparse integer-keyed map with ordered iteration.

    Keys must be in ``[0, 2**48)`` — the virtual-page-number space of a
    48-bit virtual address space with 4 KB pages.
    """

    def __init__(self) -> None:
        self._root = _Node()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: int) -> bool:
        return self.get(key) is not None

    def insert(self, key: int, value: Any) -> None:
        """Set *key* to *value* (which must not be None)."""
        if value is None:
            raise ValueError("radix tree cannot store None; use delete()")
        if not 0 <= key <= _MAX_KEY:
            raise KeyError(f"radix tree key out of range: {key}")
        node = self._root
        for shift in _SHIFTS:
            idx = (key >> shift) & _MASK
            child = node.slots[idx]
            if child is None:
                child = _Node()
                node.slots[idx] = child
                node.count += 1
            node = child
        idx = key & _MASK
        if node.slots[idx] is None:
            node.count += 1
            self._size += 1
        node.slots[idx] = value

    def get(self, key: int, default: Any = None) -> Any:
        if not 0 <= key <= _MAX_KEY:
            raise KeyError(f"radix tree key out of range: {key}")
        node = self._root
        for shift in _SHIFTS:
            node = node.slots[(key >> shift) & _MASK]
            if node is None:
                return default
        value = node.slots[key & _MASK]
        return default if value is None else value

    def setdefault(self, key: int, factory) -> Any:
        found = self.get(key)
        if found is None:
            found = factory()
            self.insert(key, found)
        return found

    def delete(self, key: int) -> bool:
        """Remove *key*; returns whether it was present.  Empty interior
        nodes are pruned so memory stays proportional to occupancy."""
        if not 0 <= key <= _MAX_KEY:
            raise KeyError(f"radix tree key out of range: {key}")
        path: List[Tuple[_Node, int]] = []
        node = self._root
        for shift in _SHIFTS:
            idx = (key >> shift) & _MASK
            path.append((node, idx))
            node = node.slots[idx]
            if node is None:
                return False
        idx = key & _MASK
        if node.slots[idx] is None:
            return False
        node.slots[idx] = None
        node.count -= 1
        self._size -= 1
        # prune now-empty interior nodes bottom-up
        child = node
        for parent, pidx in reversed(path):
            if child.count > 0:
                break
            parent.slots[pidx] = None
            parent.count -= 1
            child = parent
        return True

    def iter_range(
        self, start: int = 0, stop: Optional[int] = None
    ) -> Iterator[Tuple[int, Any]]:
        """Yield ``(key, value)`` pairs with ``start <= key < stop`` in
        ascending key order."""
        if stop is None:
            stop = _MAX_KEY + 1
        if start >= stop:
            return
        yield from self._iter_node(self._root, 0, 0, start, stop)

    def _iter_node(
        self, node: _Node, level: int, prefix: int, start: int, stop: int
    ) -> Iterator[Tuple[int, Any]]:
        shift = (_LEVELS - 1 - level) * _BITS_PER_LEVEL
        span = 1 << shift
        for idx in range(_FANOUT):
            slot = node.slots[idx]
            if slot is None:
                continue
            lo = prefix | (idx << shift)
            hi = lo + span  # exclusive
            if hi <= start or lo >= stop:
                continue
            if level == _LEVELS - 1:
                yield lo, slot
            else:
                yield from self._iter_node(slot, level + 1, lo, start, stop)

    def items(self) -> Iterator[Tuple[int, Any]]:
        return self.iter_range()

    def keys(self) -> Iterator[int]:
        for key, _value in self.iter_range():
            yield key
