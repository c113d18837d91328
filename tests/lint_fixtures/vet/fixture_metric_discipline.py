"""Seeded metric-discipline violations: direct metric construction
outside the obs layer and an ad-hoc stat dict where registry families
belong — plus the collections.Counter false-positive trap."""

from collections import Counter

from repro.obs.metrics import Histogram, MetricsRegistry


class ShardTracker:
    def __init__(self):
        # BAD: hand-rolled metrics store instead of registry families
        self.stats = {}
        # BAD: suffix match — still a stat dict
        self.request_counters = {}
        # GOOD: an ordinary dict under an unrelated name stays clean
        self.routes = {}
        # BAD: direct construction bypasses the registry
        self.latency = Histogram("shard_latency_us")

    def observe(self, key, us):
        self.stats[key] = self.stats.get(key, 0) + 1
        self.latency.observe(us)


def build_registry():
    # GOOD: registration through the registry is the sanctioned path
    registry = MetricsRegistry()
    faults = registry.counter("faults_total", "page faults")
    wait = registry.histogram("queue_wait_us", "time queued")
    faults.inc()
    return registry, wait


def tally_words(words):
    # GOOD: collections.Counter is not a metric — import-aware matching
    # must not flag it
    histogram = Counter()
    for word in words:
        histogram[word] += 1
    return histogram
