"""Unit tests for page tables and frame stores."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.frames import FrameStore
from repro.memory.page_table import PTE, PageState, PageTable


# ---------------------------------------------------------------------------
# PageTable
# ---------------------------------------------------------------------------


def test_default_pte_is_invalid():
    pte = PTE()
    assert not pte.readable and not pte.writable
    assert pte.data_version == -1


def test_state_permissions():
    assert PTE(PageState.SHARED).readable
    assert not PTE(PageState.SHARED).writable
    assert PTE(PageState.EXCLUSIVE).readable
    assert PTE(PageState.EXCLUSIVE).writable


def test_page_table_lookup_and_ensure():
    table = PageTable()
    assert table.lookup(5) is None
    pte = table.ensure(5)
    assert table.lookup(5) is pte
    assert len(table) == 1


def test_set_state_and_permits():
    table = PageTable()
    table.set_state(3, PageState.SHARED, data_version=2)
    assert table.permits(3, write=False)
    assert not table.permits(3, write=True)
    table.set_state(3, PageState.EXCLUSIVE)
    assert table.permits(3, write=True)
    assert table.lookup(3).data_version == 2  # version preserved


def test_permits_missing_page():
    table = PageTable()
    assert not table.permits(9, write=False)


def test_drop_range():
    table = PageTable()
    for vpn in range(10):
        table.set_state(vpn, PageState.SHARED)
    assert table.drop_range(3, 7) == 4
    assert table.lookup(3) is None
    assert table.lookup(7) is not None
    assert len(table) == 6


# ---------------------------------------------------------------------------
# FrameStore
# ---------------------------------------------------------------------------


def test_frames_zero_fill_on_first_touch():
    store = FrameStore(page_size=64)
    assert 5 not in store
    frame = store.frame(5)
    assert frame == bytearray(64)
    assert 5 in store
    assert len(store) == 1


def test_install_requires_full_page():
    store = FrameStore(page_size=64)
    with pytest.raises(ValueError):
        store.install(0, b"short")
    store.install(0, bytes(range(64)))
    assert store.peek(0)[:4] == bytearray([0, 1, 2, 3])


def test_read_untouched_pages_as_zeros():
    store = FrameStore(page_size=64)
    assert store.read(10, 8) == b"\x00" * 8


def test_write_read_roundtrip_within_a_page():
    store = FrameStore(page_size=64)
    payload = bytes(range(34))  # bytes 30..63 of page 0
    store.write(30, payload)
    assert store.read(30, len(payload)) == payload
    # neighbours untouched
    assert store.read(0, 30) == b"\x00" * 30
    assert 1 not in store


@pytest.mark.parametrize("addr, length", [(30, 35), (63, 2), (0, 65)])
def test_page_crossing_access_raises(addr, length):
    # a word access lies in one page; bulk copies go page by page through
    # the fault handler, so a crossing one here is a caller's bug
    store = FrameStore(page_size=64)
    with pytest.raises(ValueError, match="crosses a page boundary"):
        store.read(addr, length)
    with pytest.raises(ValueError, match="crosses a page boundary"):
        store.write(addr, bytes(length))
    assert len(store) == 0


def test_drop_range_frees_frames():
    store = FrameStore(page_size=64)
    for vpn in range(8):
        store.frame(vpn)
    assert store.drop_range(2, 5) == 3
    assert 2 not in store and 4 not in store and 5 in store


@settings(max_examples=50, deadline=None)
@given(
    writes=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1000),
            st.binary(min_size=1, max_size=300),
        ),
        max_size=20,
    )
)
def test_frame_store_matches_flat_buffer(writes):
    """Property: the paged store behaves like one flat byte buffer, each
    access clipped to the page it starts in."""
    store = FrameStore(page_size=64)
    flat = bytearray(2048)
    for addr, data in writes:
        data = data[: 64 - addr % 64]
        store.write(addr, data)
        flat[addr : addr + len(data)] = data
    assert b"".join(store.read(a, 64) for a in range(0, 2048, 64)) == bytes(flat)
