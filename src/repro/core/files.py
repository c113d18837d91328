"""File I/O through work delegation (§III-A).

"Practically, it is infeasible to re-implement all OS features (such as
futexes and file I/O) to support a distributed execution environment.
Instead, DeX reuses existing implementations through the work delegation."

The file table, the open-file descriptors, and the file contents live at
the origin (the testbed mounts a shared NFS image, so the origin's view is
authoritative).  A remote thread's ``open``/``read``/``write``/``close``
travel to the origin as delegated operations and execute against the
origin-side table exactly as a local call would — the kernel "is identical
to handling the request from a local thread".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Generator

from repro.core.errors import DexError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.process import DexProcess

#: charge per byte moved through a file op (page-cache copy at the origin)
_FILE_COPY_BANDWIDTH = 20_000.0  # bytes/us
_FILE_OP_COST = 1.5  # descriptor lookup + bookkeeping


@dataclass
class _OpenFile:
    path: str
    offset: int = 0
    writable: bool = False


class FileService:
    """The per-process origin-side file table, plus the delegated ops."""

    def __init__(self, proc: "DexProcess"):
        self.proc = proc
        self._contents: Dict[str, bytearray] = {}
        self._descriptors: Dict[int, _OpenFile] = {}
        self._next_fd = 3  # 0-2 reserved, as tradition demands
        self.ops = 0
        self._register_ops()

    # -- origin-side filesystem state -------------------------------------

    def preload(self, path: str, data: bytes) -> None:
        """Place a file on the shared filesystem (test/setup helper, the
        analogue of staging input data on the NFS share)."""
        self._contents[path] = bytearray(data)

    def contents(self, path: str) -> bytes:
        try:
            return bytes(self._contents[path])
        except KeyError:
            raise DexError(f"no such file: {path!r}")

    def exists(self, path: str) -> bool:
        return path in self._contents

    # -- the delegated operations ------------------------------------------

    def _register_ops(self) -> None:
        proc = self.proc

        def file_open(ctx, path: str, mode: str) -> Generator:
            yield _FILE_OP_COST
            self.ops += 1
            if mode not in ("r", "w", "a", "r+"):
                raise DexError(f"bad open mode {mode!r}")
            if mode == "r" and path not in self._contents:
                return -1  # ENOENT, reported as a result not an exception
            if mode == "w" or path not in self._contents:
                self._contents.setdefault(path, bytearray())
                if mode == "w":
                    self._contents[path] = bytearray()
            fd = self._next_fd
            self._next_fd += 1
            handle = _OpenFile(path=path, writable=mode != "r")
            if mode == "a":
                handle.offset = len(self._contents[path])
            self._descriptors[fd] = handle
            return fd

        def file_read(ctx, fd: int, length: int) -> Generator:
            handle = self._handle(fd)
            data = bytes(
                self._contents[handle.path][handle.offset:handle.offset + length]
            )
            handle.offset += len(data)
            yield _FILE_OP_COST + len(data) / _FILE_COPY_BANDWIDTH
            self.ops += 1
            # bytes must survive the message payload: ship as latin-1 text
            return data.decode("latin-1")

        def file_write(ctx, fd: int, data: str) -> Generator:
            handle = self._handle(fd)
            if not handle.writable:
                raise DexError(f"fd {fd} is read-only")
            raw = data.encode("latin-1")
            content = self._contents[handle.path]
            end = handle.offset + len(raw)
            if end > len(content):
                content.extend(b"\x00" * (end - len(content)))
            content[handle.offset:end] = raw
            handle.offset = end
            yield _FILE_OP_COST + len(raw) / _FILE_COPY_BANDWIDTH
            self.ops += 1
            return len(raw)

        def file_seek(ctx, fd: int, offset: int) -> Generator:
            handle = self._handle(fd)
            if offset < 0:
                raise DexError(f"negative seek offset {offset}")
            handle.offset = offset
            yield _FILE_OP_COST
            self.ops += 1
            return offset

        def file_close(ctx, fd: int) -> Generator:
            self._handle(fd)
            del self._descriptors[fd]
            yield _FILE_OP_COST
            self.ops += 1
            return 0

        for name, op in (
            ("file_open", file_open),
            ("file_read", file_read),
            ("file_write", file_write),
            ("file_seek", file_seek),
            ("file_close", file_close),
        ):
            proc.delegation.register(name, op)

    def _handle(self, fd: int) -> _OpenFile:
        try:
            return self._descriptors[fd]
        except KeyError:
            raise DexError(f"bad file descriptor: {fd}")
