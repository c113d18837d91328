"""Per-node page tables and PTE states for the consistency protocol.

Each node participating in a distributed process has a page table mapping
virtual page numbers to :class:`PTE` entries.  The protocol (§III-B) drives
pages through three states:

* ``INVALID`` — the node may not access the page; any access traps.
* ``SHARED`` — the node holds an up-to-date read-only replica; stores trap.
* ``EXCLUSIVE`` — the node is the single writer; loads and stores proceed.

``INVALID`` entries keep their frame data around so that the
"grant ownership without transferring the page data when the remote already
has the up-to-date one" optimization (§III-B) has something to revalidate;
the ``data_version`` field tells whether the retained copy is current.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple


class PageState(enum.Enum):
    INVALID = "invalid"
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


#: for the per-access paths: an Enum class attribute costs ~20x a global
INVALID, EXCLUSIVE = PageState.INVALID, PageState.EXCLUSIVE
#: ``PageState(value)`` without the ~1 us Enum call
STATE_OF_VALUE = {state.value: state for state in PageState}


@dataclass
class PTE:
    state: PageState = INVALID
    #: version of the page contents this node last held; compared against
    #: the directory's version to decide whether data transfer can be
    #: skipped on an ownership grant
    data_version: int = -1

    @property
    def readable(self) -> bool:
        return self.state is not INVALID

    @property
    def writable(self) -> bool:
        return self.state is EXCLUSIVE


class PageTable:
    """Sparse map of virtual page number -> PTE for one (node, process)."""

    def __init__(self) -> None:
        self._entries: Dict[int, PTE] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, vpn: int) -> Optional[PTE]:
        return self._entries.get(vpn)

    def ensure(self, vpn: int) -> PTE:
        pte = self._entries.get(vpn)
        if pte is None:
            pte = PTE()
            self._entries[vpn] = pte
        return pte

    def set_state(self, vpn: int, state: PageState, data_version: Optional[int] = None) -> PTE:
        pte = self.ensure(vpn)
        pte.state = state
        if data_version is not None:
            pte.data_version = data_version
        return pte

    def drop(self, vpn: int) -> None:
        self._entries.pop(vpn, None)

    def drop_range(self, vpn_start: int, vpn_end: int) -> int:
        """Remove all entries with ``vpn_start <= vpn < vpn_end`` (VMA
        shrink); returns how many were removed."""
        victims = [v for v in self._entries if vpn_start <= v < vpn_end]
        for vpn in victims:
            del self._entries[vpn]
        return len(victims)

    def permits(self, vpn: int, write: bool) -> bool:
        pte = self._entries.get(vpn)
        if pte is None:
            return False
        return pte.writable if write else pte.readable

    def items(self) -> Iterator[Tuple[int, PTE]]:
        return iter(self._entries.items())
