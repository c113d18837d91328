"""Physical page frames holding real bytes.

Every node keeps a :class:`FrameStore` per distributed process: virtual
page number -> a ``bytearray`` of one page.  Page data shipped by the
protocol is copied between stores byte-for-byte, so the distributed address
space is *correctness-bearing*: applications read back exactly what the
protocol delivered, and a protocol bug shows up as a wrong answer.
"""

from __future__ import annotations

from typing import Dict, Optional


class FrameStore:
    """Sparse physical memory for one (node, process)."""

    def __init__(self, page_size: int = 4096):
        self.page_size = page_size
        self._frames: Dict[int, bytearray] = {}

    def __len__(self) -> int:
        return len(self._frames)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._frames

    def frame(self, vpn: int) -> bytearray:
        """The frame for *vpn*, allocated zero-filled on first touch
        (anonymous-memory semantics)."""
        frame = self._frames.get(vpn)
        if frame is None:
            frame = bytearray(self.page_size)
            self._frames[vpn] = frame
        return frame

    def peek(self, vpn: int) -> Optional[bytearray]:
        return self._frames.get(vpn)

    def install(self, vpn: int, data: bytes) -> None:
        """Overwrite the frame for *vpn* with *data* (one full page)."""
        if len(data) != self.page_size:
            raise ValueError(
                f"page data must be exactly {self.page_size} bytes, got {len(data)}"
            )
        frame = self.frame(vpn)
        frame[:] = data

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
