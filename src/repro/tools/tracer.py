"""The page-fault trace (§IV-A).

"DeX provides a profiling tool that collects a page fault trace containing
a six-tuple for each observed page fault requiring the memory consistency
protocol.  Each tuple contains the system time when the page fault
occurred, the node ID where the fault occurred, the task ID for the
faulting task, the type of the fault (i.e., read/write/invalidate), the
memory address of the faulting instruction, the memory address that caused
the fault, and a user-specified identifier for tagging individual pieces
of the application."

In this reproduction the "address of the faulting instruction" is the
``site`` label application code passes with its accesses (a source-location
string), and the user identifier is the tag of the VMA the fault landed in.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional


@dataclass(frozen=True)
class FaultEvent:
    """One trace record (the paper's six-tuple)."""

    time_us: float
    node: int
    tid: int
    fault_type: str  # "read" | "write" | "invalidate"
    site: str        # faulting "instruction": the access's source label
    addr: int        # faulting memory address
    tag: str = ""    # user identifier: the VMA tag
    #: for "invalidate" events: the node whose page request caused the
    #: revocation (-1 when unknown) — lets the false-sharing analysis name
    #: both parties of each bounce
    src_node: int = -1


class FaultTracer:
    """Collects :class:`FaultEvent` records; an observer of one process,
    attached with ``proc.add_hook(FaultTracer())``."""

    def __init__(self, max_events: int = 2_000_000):
        self.events: List[FaultEvent] = []
        self.max_events = max_events
        self.dropped = 0

    def record(
        self,
        time_us: float,
        node: int,
        tid: int,
        fault_type: str,
        site: str,
        addr: int,
        tag: str = "",
        src_node: int = -1,
    ) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            if self.dropped == 1:
                # warn once: silently truncated traces used to masquerade
                # as complete ones in the analysis reports
                warnings.warn(
                    f"FaultTracer hit max_events={self.max_events}; "
                    "further fault events are being dropped "
                    "(see `dropped` and the analysis report header)",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return
        self.events.append(
            FaultEvent(time_us, node, tid, fault_type, site, addr, tag, src_node)
        )

    def on_fault_begin(self, now: float, node: int, tid: int, write: bool,
                       site: str, addr: int, tag: str) -> None:
        """A thread trapped on a page the protocol must fetch or upgrade."""
        self.record(now, node, tid, "write" if write else "read", site, addr, tag)

    def on_invalidate(self, now: float, node: int, addr: int, requester: int) -> None:
        """*node* gave a page up (or down) on behalf of *requester*'s access."""
        self.record(now, node, -1, "invalidate", "", addr, src_node=requester)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0

    # -- persistence (the ftrace handoff analogue) -------------------------

    def save_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["time_us", "node", "tid", "fault_type", "site", "addr", "tag",
                 "src_node"]
            )
            for e in self.events:
                writer.writerow(
                    [e.time_us, e.node, e.tid, e.fault_type, e.site, e.addr,
                     e.tag, e.src_node]
                )

    @classmethod
    def load_csv(cls, path: str) -> "FaultTracer":
        """Load a trace written by :meth:`save_csv`; raises ``ValueError``
        naming the file and line of a row that is not a fault record."""
        tracer = cls()
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            try:
                for row in reader:
                    if None in row.values():
                        raise ValueError("row is cut short")
                    tracer.events.append(FaultEvent(
                        time_us=float(row["time_us"]),
                        node=int(row["node"]),
                        tid=int(row["tid"]),
                        fault_type=row["fault_type"],
                        site=row["site"],
                        addr=int(row["addr"]),
                        tag=row["tag"],
                        # traces written before the column existed load fine
                        src_node=int(row.get("src_node") or -1),
                    ))
            except (KeyError, TypeError, ValueError) as err:
                raise ValueError(
                    f"{path!r} line {reader.line_num}: not a fault-trace row "
                    f"({err!r})") from err
        return tracer
