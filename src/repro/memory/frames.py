"""Physical page frames holding real bytes.

Every node keeps a :class:`FrameStore` per distributed process: virtual
page number -> one page of bytes.  The distributed address space is
*correctness-bearing*: applications read back exactly what the protocol
delivered, and a protocol bug shows up as a wrong answer.

Pages move by reference.  A slot holds one of two things:

* a private ``bytearray`` that only this node may write;
* a shared immutable page: ``bytes`` (such as the store's zero page), a
  read-only ``memoryview`` of a bytearray that :meth:`FrameStore.snapshot`
  retired, or a read-only view of one page of an input nobody can write
  again.

The last is how an input becomes memory: a whole-page write from a buffer
:func:`immutable` vouches for installs a view of the source as the slot,
copying nothing.  The loaded data *is* the origin's page, and the read-
replicate protocol ships that one object to every reader.  A buffer is
immutable when it is ``bytes`` or a read-only array whose base chain ends
in ``bytes`` or in an owner :func:`freeze` froze for good (the memoised
inputs of ``repro.apps.workloads``); DexVet's ``frozen-input`` rule keeps
the program from thawing one.

The write-invalidate protocol never lets a replica be written before every
other copy is revoked, so one immutable object per page version serves
every reader and the home: a grant or a dirty flush ships the holder's
snapshot and :meth:`FrameStore.install` keeps it.  Every write goes through
:meth:`FrameStore.frame`, which copies a shared slot into a private
bytearray first (copy-on-write).  Where a PTE becomes EXCLUSIVE by a grant
the protocol makes that copy up front (:meth:`FrameStore.own`), so an
EXCLUSIVE node's slot is never the same object as any other node's slot:
the origin's own input pages and zero pages are the one kind of shared
slot an EXCLUSIVE PTE maps, and no other node holds them yet.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, Optional, Union

#: what a slot holds: private and writable, or a shared immutable page
Frame = Union[bytearray, bytes, memoryview]

#: buffer owners frozen for good by :func:`freeze`, by id (an entry leaves
#: with its owner, so a reused id is never mistaken for a frozen one)
_FROZEN: "weakref.WeakValueDictionary[int, Any]" = weakref.WeakValueDictionary()


def freeze(array: Any) -> None:
    """Make the numpy array *array* read-only for good; call it on an array
    nobody holds a writable view of (a memoised result).  An array that
    owns its data is remembered, so :func:`immutable` vouches for it and
    for every read-only view of it."""
    array.setflags(write=False)
    if array.base is None:
        _FROZEN[id(array)] = array


def immutable(buf: Any) -> bool:
    """Can nobody write *buf*'s bytes again?  True for ``bytes`` and for a
    read-only array or memoryview whose base chain ends in ``bytes`` or in
    an owner :func:`freeze` froze; a writable link anywhere is a way in.
    Duck-typed, so this layer does not import numpy."""
    while buf.__class__ is not bytes:
        if buf.__class__ is memoryview:
            if not buf.readonly:
                return False
            buf = buf.obj
            continue
        flags = getattr(buf, "flags", None)
        if flags is None or flags.writeable:
            return False
        if buf.base is None:
            return _FROZEN.get(id(buf)) is buf
        buf = buf.base
    return True


class FrameStore:
    """Sparse physical memory for one (node, process)."""

    __slots__ = ("page_size", "_frames", "_zero")

    def __init__(self, page_size: int = 4096):
        self.page_size = page_size
        self._frames: Dict[int, Frame] = {}
        #: every untouched page's snapshot: one object per store
        self._zero = bytes(page_size)

    def __len__(self) -> int:
        return len(self._frames)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._frames

    def frame(self, vpn: int) -> bytearray:
        """The writable frame for *vpn*: allocated zero-filled on first touch
        (anonymous-memory semantics), copied out of a shared page on the
        first write after one."""
        frame = self._frames.get(vpn)
        if frame.__class__ is not bytearray:
            frame = bytearray(self.page_size) if frame is None else bytearray(frame)
            self._frames[vpn] = frame
        return frame

    def own(self, vpn: int) -> None:
        """Make *vpn*'s slot private if it is shared; an untouched page stays
        untouched.  Called where a grant makes this node's PTE EXCLUSIVE:
        other nodes may still hold the shared object."""
        frame = self._frames.get(vpn)
        if frame is not None and frame.__class__ is not bytearray:
            self._frames[vpn] = bytearray(frame)

    def materialize(self, vpn: int) -> None:
        """Give an untouched *vpn* a slot, the store's zero page, without
        allocating; a slot already there is kept as it is."""
        self._frames.setdefault(vpn, self._zero)

    def snapshot(self, vpn: int) -> Union[bytes, memoryview]:
        """Freeze *vpn*'s slot in place and return it: a private bytearray is
        retired behind a read-only view (this node's next write copies), so
        every snapshot of one version is the same object.  An untouched page
        snapshots as the store's zero page and stays untouched."""
        frame = self._frames.get(vpn)
        if frame.__class__ is bytearray:
            frame = self._frames[vpn] = memoryview(frame).toreadonly()
        elif frame is None:
            return self._zero
        return frame

    def peek(self, vpn: int) -> Optional[Frame]:
        """The slot for *vpn* as it is, for reading; None if untouched."""
        return self._frames.get(vpn)

    def install(self, vpn: int, data: Union[bytes, bytearray, memoryview]) -> None:
        """Make *data* (one full page) the frame for *vpn*.  An immutable
        payload — ``bytes`` or a read-only view, as :meth:`snapshot` returns
        — is kept by reference; anything writable is copied."""
        if len(data) != self.page_size:
            raise ValueError(
                f"page data must be exactly {self.page_size} bytes, got {len(data)}"
            )
        if data.__class__ is bytes or data.__class__ is memoryview and data.readonly:
            self._frames[vpn] = data
        else:
            self._frames[vpn] = bytearray(data)

    def drop(self, vpn: int) -> None:
        self._frames.pop(vpn, None)

    def drop_range(self, vpn_start: int, vpn_end: int) -> int:
        victims = [v for v in self._frames if vpn_start <= v < vpn_end]
        for vpn in victims:
            del self._frames[vpn]
        return len(victims)

    # The word accessors: an atomic update or a futex word lies in one
    # page (bulk copies go page by page through FaultHandler._copy).

    def read(self, addr: int, length: int) -> bytes:
        """The *length* bytes at byte address *addr*, within one page; a
        page never touched reads as zeros."""
        vpn, offset = divmod(addr, self.page_size)
        if offset + length > self.page_size:
            raise ValueError(f"read crosses a page boundary: {addr:#x}+{length}")
        frame = self._frames.get(vpn)
        if frame is None:
            return bytes(length)
        return bytes(frame[offset : offset + length])

    def write(self, addr: int, data: bytes) -> None:
        """Write *data* at byte address *addr*, within one page."""
        vpn, offset = divmod(addr, self.page_size)
        if offset + len(data) > self.page_size:
            raise ValueError(
                f"write crosses a page boundary: {addr:#x}+{len(data)}")
        self.frame(vpn)[offset : offset + len(data)] = data
