"""Unit + property tests for the ownership-directory radix tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.radix_tree import RadixTree

KEY = st.integers(min_value=0, max_value=(1 << 48) - 1)


def test_insert_and_get():
    tree = RadixTree()
    tree.insert(0, "zero")
    tree.insert(12345, "v")
    assert tree.get(0) == "zero"
    assert tree.get(12345) == "v"
    assert tree.get(99) is None
    assert tree.get(99, default="d") == "d"
    assert len(tree) == 2


def test_overwrite_does_not_grow():
    tree = RadixTree()
    tree.insert(7, "a")
    tree.insert(7, "b")
    assert tree.get(7) == "b"
    assert len(tree) == 1


def test_delete_and_prune():
    tree = RadixTree()
    tree.insert(1 << 40, "far")
    assert tree.delete(1 << 40)
    assert not tree.delete(1 << 40)
    assert len(tree) == 0
    # the root must have been pruned back to empty
    assert tree._root.count == 0


def test_none_value_rejected():
    tree = RadixTree()
    with pytest.raises(ValueError):
        tree.insert(1, None)


def test_key_out_of_range_rejected():
    tree = RadixTree()
    with pytest.raises(KeyError):
        tree.insert(1 << 48, "too big")
    with pytest.raises(KeyError):
        tree.get(-1)
    with pytest.raises(KeyError):
        tree.get(1 << 48)
    for key in (-1, 1 << 48):
        with pytest.raises(KeyError):
            tree.delete(key)
    assert len(tree) == 0 and tree._root.count == 0


def test_contains():
    tree = RadixTree()
    tree.insert(5, "v")
    assert 5 in tree
    assert 6 not in tree


def test_setdefault():
    tree = RadixTree()
    first = tree.setdefault(9, list)
    first.append(1)
    second = tree.setdefault(9, list)
    assert second == [1]
    assert first is second


def test_iter_range_ordered():
    tree = RadixTree()
    keys = [5, 100, 3, 70, 64, 65, 1 << 30]
    for k in keys:
        tree.insert(k, k * 2)
    assert [k for k, _ in tree.items()] == sorted(keys)
    assert [k for k, _ in tree.iter_range(64, 101)] == [64, 65, 70, 100]
    assert list(tree.iter_range(101, 64)) == []
    assert [k for k, _ in tree.iter_range(0, 4)] == [3]


def test_iter_range_boundaries_exclusive_stop():
    tree = RadixTree()
    tree.insert(10, "a")
    tree.insert(11, "b")
    assert [k for k, _ in tree.iter_range(10, 11)] == [10]


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["insert", "delete", "get"]), KEY),
        max_size=200,
    )
)
def test_matches_dict_model(ops):
    """Property: the radix tree behaves exactly like a dict, and ordered
    iteration matches sorted(dict)."""
    tree = RadixTree()
    model = {}
    for op, key in ops:
        if op == "insert":
            tree.insert(key, key)
            model[key] = key
        elif op == "delete":
            assert tree.delete(key) == (key in model)
            model.pop(key, None)
        else:
            assert tree.get(key) == model.get(key)
    assert len(tree) == len(model)
    assert [k for k, _ in tree.items()] == sorted(model)


@settings(max_examples=30, deadline=None)
@given(keys=st.sets(KEY, max_size=50), lo=KEY, hi=KEY)
def test_range_scan_matches_model(keys, lo, hi):
    tree = RadixTree()
    for k in keys:
        tree.insert(k, str(k))
    expected = sorted(k for k in keys if lo <= k < hi)
    assert [k for k, _ in tree.iter_range(lo, hi)] == expected


@settings(max_examples=40, deadline=None)
@given(keys=st.sets(KEY, min_size=1, max_size=60), data=st.data())
def test_deleting_every_key_leaves_the_root_empty(keys, data):
    tree = RadixTree()
    for k in keys:
        tree.insert(k, k)
    for k in data.draw(st.permutations(sorted(keys))):
        assert tree.delete(k)
    assert len(tree) == 0 and tree._root.count == 0
    assert tree._root.slots == [None] * 64
