"""Physical page frames holding real bytes.

Every node keeps a :class:`FrameStore` per distributed process: virtual
page number -> one page of bytes.  The distributed address space is
*correctness-bearing*: applications read back exactly what the protocol
delivered, and a protocol bug shows up as a wrong answer.

Pages move by reference.  A slot holds one of two things:

* a private ``bytearray`` that only this node may write;
* a shared immutable *snapshot*: ``bytes``, or a read-only ``memoryview``
  of a bytearray that :meth:`FrameStore.snapshot` retired.

The write-invalidate protocol never lets a replica be written before every
other copy is revoked, so one snapshot per page version serves every
reader and the home: a grant or a dirty flush ships the holder's snapshot
and :meth:`FrameStore.install` keeps it.  :meth:`FrameStore.frame`, the
write accessor, copies a shared slot into a private bytearray on the first
write after it (copy-on-write).  The protocol makes that copy where a PTE
becomes EXCLUSIVE (:meth:`FrameStore.own`), so an exclusive page's slot is
always private or untouched and the write paths never test it.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

#: what a slot holds: private and writable, or a shared snapshot
Frame = Union[bytearray, bytes, memoryview]


class FrameStore:
    """Sparse physical memory for one (node, process)."""

    __slots__ = ("page_size", "_frames")

    def __init__(self, page_size: int = 4096):
        self.page_size = page_size
        self._frames: Dict[int, Frame] = {}

    def __len__(self) -> int:
        return len(self._frames)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._frames

    def frame(self, vpn: int) -> bytearray:
        """The writable frame for *vpn*: allocated zero-filled on first touch
        (anonymous-memory semantics), copied out of a shared snapshot on the
        first write after one."""
        frame = self._frames.get(vpn)
        if frame.__class__ is not bytearray:
            frame = bytearray(self.page_size) if frame is None else bytearray(frame)
            self._frames[vpn] = frame
        return frame

    def own(self, vpn: int) -> None:
        """Make *vpn*'s slot private if it is shared; an untouched page stays
        untouched.  Called where this node's PTE becomes EXCLUSIVE."""
        frame = self._frames.get(vpn)
        if frame is not None and frame.__class__ is not bytearray:
            self._frames[vpn] = bytearray(frame)

    def snapshot(self, vpn: int) -> Union[bytes, memoryview]:
        """Freeze *vpn*'s slot in place and return it: a private bytearray is
        retired behind a read-only view (this node's next write copies), so
        every snapshot of one version is the same object.  An untouched page
        snapshots as zeros and stays untouched."""
        frame = self._frames.get(vpn)
        if frame.__class__ is bytearray:
            frame = self._frames[vpn] = memoryview(frame).toreadonly()
        elif frame is None:
            return bytes(self.page_size)
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
