"""The coherence directory: where page-ownership metadata lives.

DeX (§III-B) tracks page ownership "at the origin": every ownership
request, grant, and revocation serializes at the process's origin node,
which makes the origin a hotspot exactly when fault traffic grows with the
node count.  :class:`CoherenceDirectory` makes the placement a shard map,
built once when the process is created from ``SimParams.directory``:

* ``origin`` — the paper's design: one shard, resident at the origin;
  ``home(vpn) == origin`` for every page.
* ``sharded`` — a home-node directory in the spirit of Mitosis' replicated
  page tables and the decentralized coherence metadata argued for by
  "Elasticizing Linux via Joint Disaggregation": each VPN hashes to a
  *home node* (``home(vpn) = shard_map[vpn % nshards]``) and ownership
  requests resolve at the page's home instead of always at the origin.
  The DeX kernel extension is loaded on every node of the rack (§II), so
  any node can host shards for any process, whether or not the process
  ever runs threads there.

Storage is uniform across backends: every node hosts a
:class:`DirectoryShard` inside its :class:`~repro.core.process.
NodeProcessState`; the backends differ only in the shard map and
therefore in which shards ever hold entries.

Pages with no directory entry anywhere are implicitly owned exclusively
by the origin ("initially, the origin exclusively owns all pages of the
process"), so a process that never migrates pays nothing under either
backend: entries materialize only when a page first participates in the
protocol.

Shard-map visibility model (sharded backend): the map is *owned by the
origin* (it is part of the per-process metadata the origin creates).  A
node always knows which shards it hosts itself, and the origin knows the
whole map; any other node learns the map from the origin with its first
home lookup — the ``PAGE_HOME_INFO`` reply carries all ``nshards``
entries — and keeps a copy in its :class:`~repro.core.process.
NodeProcessState`.  Every later remote fault of that node resolves its
home from the copy, so a node pays one lookup per process, not one per
page.  The map never changes after the process is created, so a copy is
never stale.  The bench harness reports the copy's hit rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set, Tuple

from repro.memory.radix_tree import RadixTree
from repro.params import DIRECTORY_BACKENDS  # noqa: F401  (re-exported)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.process import DexProcess


@dataclass
class PageEntry:
    """Directory state for one virtual page.

    ``data_version`` is the version of the page's current contents; each
    node's PTE remembers the version it last held so the home can skip
    the data transfer on a grant when the requester is already up to date
    (§III-B's traffic optimization).
    """

    vpn: int
    owners: Set[int] = field(default_factory=set)
    writer: Optional[int] = None
    data_version: int = 0
    #: a protocol operation is in flight for this page; concurrent requests
    #: are told to retry (the race §V-D's contended faults lose)
    busy: bool = False
    #: busy-collisions this page has caused (how often a requester was
    #: told to retry because an operation was already in flight here)
    busy_retries: int = 0
    #: a write request was told to retry while the page's current
    #: operation is in flight ...
    write_refused: bool = False
    #: ... or while its last one was: another writer is queued for it
    contended: bool = False


class DirectoryShard:
    """The slice of the coherence directory one node hosts: a
    radix-tree-indexed map of :class:`PageEntry`, plus serving counters."""

    def __init__(self):
        self.tree = RadixTree()
        self.requests_served = 0
        self.entries_created = 0

    def __len__(self) -> int:
        return len(self.tree)


class CoherenceDirectory:
    """Where page-ownership metadata lives, and the metadata itself.

    The protocol only ever asks: where is *vpn*'s metadata
    (:meth:`home`, by the shard map fixed when the process is created),
    and give me / drop the entries (:meth:`lookup`, :meth:`get_or_create`,
    :meth:`drop_range`).  Whole-directory iteration (:meth:`entries`) is a
    control-plane and test convenience — the data plane never iterates
    globally.
    """

    def __init__(self, proc: "DexProcess"):
        self.proc = proc
        self.origin = proc.origin
        params = proc.cluster.params
        #: ``SimParams.directory``, which validates it
        self.backend = params.directory
        #: shard index -> hosting node; owned by the origin, copied whole
        #: by a remote node's first home lookup
        self.shard_map: Tuple[int, ...] = (proc.origin,)
        if self.backend == "sharded":
            num_nodes = proc.cluster.num_nodes
            # a prime count: segment bases are power-of-two aligned, and a
            # power-of-two count would home every segment's first (usually
            # hottest) page on the origin, the node sharding relieves
            nshards = params.directory_shards or _next_prime(num_nodes)
            self.shard_map = tuple(i % num_nodes for i in range(nshards))
        self.nshards = len(self.shard_map)
        #: where the dirty page goes when a write request from a node other
        #: than the home revokes a remote exclusive writer: to the home,
        #: which grants from its frame (False), or straight to the
        #: requester, with the home granting without data (True: the
        #: sharded backend).  Never under fault injection: fail-stop
        #: recovery restores a dead writer's page from the home's last
        #: flush, so there every handoff leaves one there
        self.forwards_handoffs = (
            self.backend == "sharded" and proc.cluster.chaos is None
        )

    # -- placement ----------------------------------------------------------

    def home(self, vpn: int) -> int:
        """The node hosting *vpn*'s directory entry."""
        return self.shard_map[vpn % self.nshards]

    def shard_nodes(self) -> List[int]:
        """Nodes that may host directory entries."""
        return sorted(set(self.shard_map))

    def home_map(self) -> Tuple[int, ...]:
        """The whole placement as a shard map — shard index -> hosting
        node — as the origin ships it in a home lookup's reply."""
        return self.shard_map

    # -- a node's copy of the shard map -------------------------------------

    def known_home(self, node: int, vpn: int) -> Optional[int]:
        """*vpn*'s home by *node*'s copy of the shard map, or None while
        *node* has no copy (it must learn the map from the origin)."""
        copy = self.proc.node_state(node).shard_map_copy
        return None if copy is None else copy[vpn % len(copy)]

    def learn_map(self, node: int, shard_map: Tuple[int, ...]) -> None:
        """Keep *shard_map*, a home lookup's answer, as *node*'s copy."""
        self.proc.node_state(node).shard_map_copy = shard_map

    # -- storage ------------------------------------------------------------

    def shard(self, node: int) -> DirectoryShard:
        """The shard hosted at *node* (created on first touch)."""
        return self.proc.node_state(node).directory_shard

    def requests_by_home(self) -> Dict[int, int]:
        """``{hosting node: requests_served}`` over shards that exist.

        Read-only, unlike :meth:`shard`: it walks only node states already
        materialized, never creating one — so the DexScope sampler can call
        it without perturbing lazily-created state (and the run stays
        bit-identical with sampling on)."""
        out: Dict[int, int] = {}
        for node, state in self.proc.iter_node_states():
            shard = state.directory_shard
            if shard.requests_served or len(shard):
                out[node] = shard.requests_served
        return out

    def lookup(self, vpn: int) -> Optional[PageEntry]:
        return self.shard(self.home(vpn)).tree.get(vpn)

    def get_or_create(self, vpn: int) -> Tuple[PageEntry, bool]:
        """The entry for *vpn*, plus whether it was just materialized (in
        which case the caller must install the origin's implicit-exclusive
        PTE state)."""
        shard = self.shard(self.home(vpn))
        entry = shard.tree.get(vpn)
        if entry is not None:
            return entry, False
        entry = PageEntry(vpn=vpn, owners={self.origin}, writer=self.origin)
        shard.tree.insert(vpn, entry)
        shard.entries_created += 1
        return entry, True

    def drop_range(self, vpn_start: int, vpn_end: int) -> int:
        """Remove entries for a VMA shrink; returns how many were dropped.
        Rides on the eager ``VMA_SHRINK`` broadcast (§III-D), which already
        reaches every node, so no extra messages are modeled."""
        dropped = 0
        for node in self.shard_nodes():
            tree = self.shard(node).tree
            victims = [vpn for vpn, _ in tree.iter_range(vpn_start, vpn_end)]
            for vpn in victims:
                tree.delete(vpn)
            dropped += len(victims)
        return dropped

    def entries(self) -> Iterator[Tuple[int, PageEntry]]:
        for node in self.shard_nodes():
            yield from self.shard(node).tree.items()

    def entries_in_range(
        self, vpn_start: int, vpn_end: int
    ) -> List[Tuple[int, PageEntry]]:
        out: List[Tuple[int, PageEntry]] = []
        for node in self.shard_nodes():
            out.extend(self.shard(node).tree.iter_range(vpn_start, vpn_end))
        return out

    def drop_entry(self, vpn: int) -> bool:
        """Remove a single entry.  Fail-stop recovery uses this when the
        entry's only current copy died with a node and cannot be reclaimed;
        the process is being failed, and a dangling entry would trip the
        teardown invariant checks.  Returns whether an entry existed."""
        return self.drop_range(vpn, vpn + 1) > 0

    def entries_hosted(self, node: int) -> int:
        """How many directory entries *node* currently hosts.  The
        interface teardown code uses instead of peeking at shard storage
        (a node hosting entries must keep its state alive)."""
        return len(self.shard(node))

    def __len__(self) -> int:
        return sum(len(self.shard(node)) for node in self.shard_nodes())

    # -- invariants ---------------------------------------------------------

    def check_entry(
        self, vpn: int, entry: PageEntry, hosted_at: Optional[int] = None
    ) -> None:
        """Per-entry multiple-reader/single-writer assertions.  Applied to
        every entry by :meth:`check_invariants` at quiescent points, and
        by the coherence sanitizer on **every ownership transition** —
        right when a grant commits, not just at teardown."""
        if hosted_at is not None:
            assert self.home(vpn) == hosted_at, (
                f"page {vpn:#x}: entry hosted at node {hosted_at} but its "
                f"home is {self.home(vpn)}"
            )
        assert entry.owners, f"page {vpn:#x}: entry with no owners"
        if entry.writer is not None:
            assert entry.owners == {entry.writer}, (
                f"page {vpn:#x}: writer {entry.writer} coexists with "
                f"owners {entry.owners}"
            )

    def check_invariants(self) -> None:
        """Raise AssertionError when the multiple-reader/single-writer
        invariant is broken, or when an entry sits in the wrong shard.
        Called by tests after every protocol step."""
        for node in self.shard_nodes():
            for vpn, entry in self.shard(node).tree.items():
                self.check_entry(vpn, entry, hosted_at=node)


def _next_prime(n: int) -> int:
    """The smallest prime strictly greater than *n*."""
    candidate = max(n + 1, 2)
    while True:
        if all(candidate % p for p in range(2, int(candidate**0.5) + 1)):
            return candidate
        candidate += 1
