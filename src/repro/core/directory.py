"""The pluggable coherence-directory layer.

DeX (§III-B) tracks page ownership "at the origin": every ownership
request, grant, and revocation serializes at the process's origin node,
which makes the origin a hotspot exactly when fault traffic grows with the
node count.  This module turns that hard-wired choice into a policy:

* :class:`CoherenceDirectory` — the abstract interface the consistency
  protocol programs against.  It answers two questions: *where* does page
  metadata live (``home(vpn)``), and *what* is the metadata
  (:class:`PageEntry` lookup / creation / teardown).
* :class:`OriginDirectory` — the paper's design: one shard, resident at
  the origin; ``home(vpn) == origin`` for every page.
* :class:`ShardedDirectory` — a home-node directory in the spirit of
  Mitosis' replicated page tables and the decentralized coherence
  metadata argued for by "Elasticizing Linux via Joint Disaggregation":
  each VPN hashes to a *home node* (``home(vpn) = shard_map[vpn %
  nshards]``) and ownership requests resolve at the page's home instead
  of always at the origin.

Storage is uniform across backends: every node hosts a
:class:`DirectoryShard` inside its :class:`~repro.core.process.
NodeProcessState`; the backends differ only in the home-assignment policy
and therefore in which shards ever hold entries.

Pages with no directory entry anywhere are implicitly owned exclusively
by the origin ("initially, the origin exclusively owns all pages of the
process"), so a process that never migrates pays nothing under either
backend: entries materialize only when a page first participates in the
protocol.

Shard-map visibility model (sharded backend): the home-assignment map is
*owned by the origin* (it is part of the per-process metadata the origin
creates, and a future rebalancer may remap shards).  A node always knows
which shards it hosts itself, and the origin knows the whole map; any
other node must resolve ``vpn -> home`` through the origin once and then
caches the answer in its per-node :class:`OwnerHintCache` (an LRU of
last-known metadata owners, validated on use: a mis-routed request is
redirected by the receiver).  Repeat faults therefore skip the resolution
hop — the cache's hit rate is reported by the bench harness.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set, Tuple

from repro.memory.radix_tree import RadixTree
from repro.params import DIRECTORY_BACKENDS

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


class DirectoryShard:
    """The slice of the coherence directory one node hosts: a
    radix-tree-indexed map of :class:`PageEntry`, plus serving counters."""

    def __init__(self, node: int = -1):
        self.node = node
        self.tree = RadixTree()
        self.requests_served = 0
        self.entries_created = 0

    def __len__(self) -> int:
        return len(self.tree)


class OwnerHintCache:
    """Per-node LRU of last-known metadata owners (``vpn -> home node``).

    A remote node that faulted on a page before remembers which node
    answered for it; on the next fault it routes the ownership request
    straight there instead of resolving the home through the origin
    first.  Hints are *validated on use*: the receiver checks that it
    really is the page's home and redirects otherwise, so a stale hint
    costs one extra hop but never correctness.
    """

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ValueError(f"hint-cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lru: "OrderedDict[int, int]" = OrderedDict()
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._lru)

    def get(self, vpn: int) -> Optional[int]:
        node = self._lru.get(vpn)
        if node is not None:
            self._lru.move_to_end(vpn)
        return node

    def insert(self, vpn: int, node: int) -> None:
        self._lru[vpn] = node
        self._lru.move_to_end(vpn)
        while len(self._lru) > self.capacity:
            self._lru.popitem(last=False)
            self.evictions += 1

    def invalidate(self, vpn: int) -> None:
        self._lru.pop(vpn, None)


class CoherenceDirectory:
    """Abstract interface between the consistency protocol and the
    placement/storage of page-ownership metadata.

    The protocol only ever asks: where is *vpn*'s metadata
    (:meth:`home`), is it here (:meth:`hosts`), and give me / drop the
    entries (:meth:`lookup`, :meth:`get_or_create`, :meth:`drop_range`).
    Whole-directory iteration (:meth:`entries`) is a control-plane and
    test convenience — the data plane never iterates globally.
    """

    #: backend name, as selected by ``SimParams.directory``
    backend: str = "abstract"

    def __init__(self, proc: "DexProcess"):
        self.proc = proc
        self.origin = proc.origin

    # -- placement policy ---------------------------------------------------

    def home(self, vpn: int) -> int:
        """The node hosting *vpn*'s directory entry."""
        raise NotImplementedError

    def hosts(self, node: int, vpn: int) -> bool:
        """Whether *node* hosts *vpn*'s entry — this is *local* knowledge
        (a node always knows its own shard assignment), unlike
        :meth:`home` for arbitrary pages, which remote nodes must resolve
        through the origin under the sharded backend."""
        return self.home(vpn) == node

    def shard_nodes(self) -> List[int]:
        """Nodes that may host directory entries under this policy."""
        raise NotImplementedError

    # -- storage ------------------------------------------------------------

    def shard(self, node: int) -> DirectoryShard:
        """The shard hosted at *node* (created on first touch)."""
        state = self.proc.node_state(node)
        if state.directory_shard.node < 0:
            state.directory_shard.node = node
        return state.directory_shard

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


class OriginDirectory(CoherenceDirectory):
    """The paper's §III-B design: one shard, resident at the origin.

    Every page's home is the origin, so ownership requests from any node
    funnel into the origin's NIC and handler — the serialization point the
    sharded backend exists to relieve.
    """

    backend = "origin"

    def home(self, vpn: int) -> int:
        return self.origin

    def shard_nodes(self) -> List[int]:
        return [self.origin]


def _next_prime(n: int) -> int:
    """The smallest prime strictly greater than *n*."""
    candidate = max(n + 1, 2)
    while True:
        if all(candidate % p for p in range(2, int(candidate**0.5) + 1)):
            return candidate
        candidate += 1


class ShardedDirectory(CoherenceDirectory):
    """Home-node directory: VPNs hash across per-node shards.

    ``home(vpn) = shard_map[vpn % nshards]`` — the DeX kernel extension is
    loaded on every node of the rack (§II), so any node can host directory
    shards for any process, whether or not the process ever runs threads
    there.  The page's *data* plane follows the metadata: revocation
    flushes land at the home, and grants are served from the home's frame,
    so the origin's NIC no longer carries every page of protocol traffic.

    The default shard count is the smallest prime greater than the node
    count: segment base addresses are power-of-two aligned, so a
    power-of-two shard count resonates with them and pins every segment's
    first (usually hottest) page to the origin — the one node sharding is
    supposed to relieve.
    """

    backend = "sharded"

    def __init__(self, proc: "DexProcess"):
        super().__init__(proc)
        params = proc.cluster.params
        num_nodes = proc.cluster.num_nodes
        self.nshards = nshards = params.directory_shards or _next_prime(num_nodes)
        #: shard index -> hosting node; owned by the origin (a rebalancer
        #: may remap it), learned lazily by remote nodes via home lookups
        self.shard_map: List[int] = [i % num_nodes for i in range(nshards)]

    def home(self, vpn: int) -> int:
        return self.shard_map[vpn % self.nshards]

    def shard_nodes(self) -> List[int]:
        return sorted(set(self.shard_map))


def make_directory(proc: "DexProcess") -> CoherenceDirectory:
    """Instantiate the backend selected by ``SimParams.directory``."""
    backend = proc.cluster.params.directory
    if backend == "origin":
        return OriginDirectory(proc)
    if backend == "sharded":
        return ShardedDirectory(proc)
    raise ValueError(
        f"unknown directory backend {backend!r}; expected one of "
        f"{DIRECTORY_BACKENDS}"
    )
