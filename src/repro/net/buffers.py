"""DMA-mapped buffer pools and RDMA sinks (§III-E).

DMA mapping and RDMA region registration are costly, so DeX pre-maps pools
of physically contiguous chunks at connection setup and recycles them:

* the **send buffer pool** — a ring of chunks a sender composes outbound
  verb messages in; reclaimed on send completion;
* the **receive buffer pool** — posted receive work requests; recycled by
  re-posting after the incoming message is consumed;
* the **RDMA sink** — page-sized slots registered as one RDMA region; a
  peer RDMA-writes page data into a slot, the receiver memcpy's it to its
  final frame and releases the slot.

All three are modelled as counted resources: when a pool is exhausted the
caller stalls until a chunk is recycled (back-pressure), and the pool
records the stall so benchmarks can report pool pressure.
"""

from __future__ import annotations

from repro.sim import Engine, Event, Resource


class BufferPool:
    """A ring of pre-mapped chunks.  ``acquire`` stalls when empty."""

    def __init__(self, engine: Engine, chunks: int, chunk_bytes: int, name: str = ""):
        self.engine = engine
        self.chunk_bytes = chunk_bytes
        self.name = name
        self._slots = Resource(engine, chunks, name=name)
        self.acquisitions = 0
        self.stalls = 0

    @property
    def chunks(self) -> int:
        return self._slots.capacity

    @property
    def in_use(self) -> int:
        return self._slots.in_use

    def take(self) -> Event:
        """One chunk's grant event, already triggered when a chunk was
        free.  An exhausted pool counts the stall and fires the engine's
        ``pool_stall`` probe — buffer-pool exhaustion is a blocking site
        like any other, and a stuck simulation's post-mortem must name
        exhausted pools — and whoever waits on the grant calls
        :meth:`resumed` once it fires."""
        self.acquisitions += 1
        grant = self._slots.acquire()
        if not grant._done:
            self.stalls += 1
            for stalled in self.engine.hooks["pool_stall"]:
                stalled(self)
        return grant

    def resumed(self) -> None:
        """A grant that :meth:`take` reported as a stall has fired."""
        for resumed in self.engine.hooks["pool_resume"]:
            resumed(self)

    def acquire(self):
        """Generator: obtain one chunk, stalling under exhaustion."""
        grant = self.take()
        if grant.triggered:
            yield grant
            return
        try:
            yield grant
        finally:
            self.resumed()

    def release(self) -> None:
        self._slots.release()


class RdmaSink(BufferPool):
    """The per-connection RDMA landing zone: page-sized slots inside a
    single pre-registered RDMA memory region."""
