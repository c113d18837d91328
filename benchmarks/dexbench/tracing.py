"""Harness-side tracing: in-memory spans and a sampling profiler.

Both live entirely in the benchmark's own files.  Spans and probes inside
``src/`` are a later issue (the instrumentation seam); until then a layer's
host time comes from where the profiler finds the stack, and a span is
recorded around each call the harness makes into the program.
"""

from __future__ import annotations

import re
import signal
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from catalogue import PACKAGES

#: bucket for samples with no frame of a catalogued ``repro`` package on
#: the stack: the harness itself, ``repro.bench`` glue, interpreter start
OTHER = "other"

_LAYER_RE = re.compile(r"[/\\]repro[/\\]([a-z_]+)[/\\]")


def layer_of_path(filename: str) -> Optional[str]:
    """The catalogued package a source file belongs to, else None."""
    match = _LAYER_RE.search(filename)
    if match and match.group(1) in PACKAGES:
        return match.group(1)
    return None


def layer_of_stack(frame: Any, cache: Optional[Dict[str, Optional[str]]] = None
                   ) -> str:
    """Charge a stack to the nearest ``repro/<package>/`` frame, innermost
    first, so numpy and stdlib time lands on the layer that called it."""
    while frame is not None:
        filename = frame.f_code.co_filename
        if cache is None:
            layer = layer_of_path(filename)
        else:
            try:
                layer = cache[filename]
            except KeyError:
                layer = cache[filename] = layer_of_path(filename)
        if layer is not None:
            return layer
        frame = frame.f_back
    return OTHER


class Sampler:
    """``setitimer(ITIMER_PROF)`` sampling profiler, ~1 kHz of CPU time.

    Python runs a signal handler only between bytecodes, and pending
    signals of one kind coalesce, so a 5 ms numpy call yields one sample,
    not five.  Each sample is therefore weighted by the CPU time since the
    previous one: the whole interval is charged to the stack that was
    running when it ended.  (cProfile was tried first: 2-4.6x overhead
    and call-count bias, so shares from it are not trustworthy.)"""

    def __init__(self, interval_s: float = 0.001):
        self.interval_s = interval_s
        self.cpu_s: Dict[str, float] = {}
        self.samples = 0
        self._last = 0.0
        self._cache: Dict[str, Optional[str]] = {}
        self._previous: Any = None

    def _on_sample(self, signum: int, frame: Any) -> None:
        now = time.process_time()
        layer = layer_of_stack(frame, self._cache)
        self.cpu_s[layer] = self.cpu_s.get(layer, 0.0) + (now - self._last)
        self._last = now
        self.samples += 1

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._on_sample)
        self._last = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        # the tail since the last tick belongs to the code that stops us
        tail = time.process_time() - self._last
        self.cpu_s[OTHER] = self.cpu_s.get(OTHER, 0.0) + tail

    def shares(self) -> Dict[str, float]:
        """CPU-time share per catalogued package plus ``other``; sums to 1."""
        total = sum(self.cpu_s.values())
        names = PACKAGES + (OTHER,)
        if total <= 0.0:
            return {name: 0.0 for name in names}
        return {name: self.cpu_s.get(name, 0.0) / total for name in names}


class Spans:
    """In-memory span log: name, start, end, parent.  Written out with the
    results when the benchmark ends, never during a measurement."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.records)
        record = {"name": name, "start_s": time.perf_counter() - self._t0,
                  "end_s": None,
                  "parent": self._stack[-1] if self._stack else None}
        self.records.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record["end_s"] = time.perf_counter() - self._t0

    def by_name(self) -> Dict[str, List[float]]:
        """Durations of the finished spans, grouped by name, in start order."""
        out: Dict[str, List[float]] = {}
        for r in self.records:
            if r["end_s"] is not None:
                out.setdefault(r["name"], []).append(r["end_s"] - r["start_s"])
        return out

    def durations(self, name: str) -> List[float]:
        return self.by_name().get(name, [])
