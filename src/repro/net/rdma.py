"""Large-transfer data paths (§III-E).

DeX ships page data with one of three disciplines; the default is the
paper's hybrid, and the other two exist so the ablation benchmark can show
why the hybrid wins:

* ``rdma_sink`` — the paper's design: the receiver pre-registers a sink of
  page slots; the sender RDMA-writes into a slot, and on completion the
  receiver memcpy's the page to its final frame and recycles the slot.
  Costs: one RDMA post, the wire, one completion, one local memcpy.
* ``verb`` — push the page through the verb send path; the page buffer is
  not from the pre-mapped pool, so every send pays a DMA mapping.
* ``rdma_register`` — register the final frame as an RDMA region for every
  page ("dynamic RDMA region association is so costly that it can offset
  the benefit of RDMA").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Generator, NamedTuple, Tuple

from repro.params import SimParams

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.fabric import Connection


class DataPath(NamedTuple):
    """One ``page_transfer_mode``'s cost model, read by the sender-side
    generator below and by the fabric's in-flight stages."""

    #: the page lands in a slot of the receiver's RDMA sink: the sender
    #: reserves it before posting, the receiver recycles it after landing
    uses_sink: bool
    #: sender-side preparation delay, charged before the wire
    post: Callable[[SimParams], float]
    #: receiver-side delays for *nbytes*, charged one after another once
    #: the completion is reaped
    landing: Callable[[SimParams, int], Tuple[float, ...]]


DATA_PATHS: Dict[str, DataPath] = {
    # post the RDMA write (the slot's address was exchanged at request
    # time); on completion copy from the sink slot to the final frame
    "rdma_sink": DataPath(
        True,
        lambda p: p.rdma_post_cost,
        lambda p, nbytes: (p.rdma_completion_cost, nbytes / p.memcpy_bandwidth),
    ),
    # the page buffer is not from the pre-mapped pool: pay the DMA mapping;
    # the data lands in a freshly mapped buffer and is copied out
    "verb": DataPath(
        False,
        lambda p: p.dma_map_cost + p.verb_send_overhead,
        lambda p, nbytes: (nbytes / p.memcpy_bandwidth,),
    ),
    # the data lands directly in the final frame: no copy, but the region
    # is registered per page and must be torn down
    "rdma_register": DataPath(
        False,
        lambda p: p.rdma_register_cost + p.rdma_post_cost,
        lambda p, nbytes: (p.rdma_completion_cost,),
    ),
}


def sender_data_cost(conn: "Connection", nbytes: int) -> Generator:
    """Sender-side preparation for *nbytes* of page data (before the wire)."""
    with conn.engine.span(
        "net.rdma_write", node=conn.src,
        bytes=nbytes, mode=conn.params.page_transfer_mode,
    ):
        params = conn.params
        path = DATA_PATHS[params.page_transfer_mode]
        if path.uses_sink:
            yield from conn.rdma_sink.acquire()
        yield path.post(params)
