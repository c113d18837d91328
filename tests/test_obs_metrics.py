"""The metrics registry and the DexStats facade over it."""

import math

import pytest

from repro.core.stats import DexStats, FaultRecord
from repro.obs.metrics import Counter, Histogram, MetricsRegistry


# -- Counter -------------------------------------------------------------------


def test_counter_basics():
    c = Counter("faults")
    assert c.value == 0
    c.inc()
    c.inc(4)
    assert c.value == 5 == c.total()
    assert c.snapshot() == 5


def test_counter_labels_aggregate():
    c = Counter("requests", labelnames=("home",))
    c.labels(home=0).inc(3)
    c.labels(home=2).inc()
    c.labels(home=0).inc()
    assert c.value_by_label() == {0: 4, 2: 1}
    assert c.total() == 5
    assert c.snapshot() == {"total": 5, "by_label": {0: 4, 2: 1}}


def test_counter_label_errors():
    plain = Counter("plain")
    with pytest.raises(ValueError):
        plain.labels(home=0)
    fam = Counter("fam", labelnames=("home",))
    with pytest.raises(ValueError):
        fam.labels(wrong=1)


# -- Histogram -----------------------------------------------------------------


def test_histogram_exact_moments():
    h = Histogram("lat")
    samples = [0.3, 1.0, 2.5, 13.6, 812.1, 0.05]
    for s in samples:
        h.observe(s)
    assert h.count == len(samples)
    assert h.sum == pytest.approx(sum(samples))
    assert h.min == min(samples)
    assert h.max == max(samples)
    assert h.mean == pytest.approx(sum(samples) / len(samples))


def test_histogram_bucket_boundaries():
    h = Histogram("b", start=1.0, factor=2.0, nbuckets=3)  # bounds 1, 2, 4
    h.observe(1.0)    # on the first bound -> bucket 0
    h.observe(1.5)    # (1, 2] -> bucket 1
    h.observe(-3.0)   # non-positive -> bucket 0
    h.observe(100.0)  # past the last bound -> overflow bucket
    assert h.counts == [2, 1, 0, 1]


def test_histogram_percentiles_ordered_and_clamped():
    h = Histogram("p")
    for v in (1.0, 2.0, 3.0, 4.0, 100.0):
        h.observe(v)
    p50, p90, p99 = h.percentile(50), h.percentile(90), h.percentile(99)
    assert h.min <= p50 <= p90 <= p99 <= h.max
    single = Histogram("s")
    single.observe(42.0)
    for p in (0, 50, 100):
        assert single.percentile(p) == 42.0  # clamped to exact [min, max]
    assert Histogram("empty").percentile(99) == 0.0


def test_histogram_quantiles_keys_and_ordering():
    h = Histogram("q")
    for v in range(1, 1001):
        h.observe(float(v))
    q = h.quantiles(50, 99, 99.9)
    # key scheme: p{value} with the decimal point dropped (99.9 -> p999)
    assert set(q) == {"p50", "p99", "p999"}
    assert q["p50"] <= q["p99"] <= q["p999"] <= h.max
    assert q["p50"] == h.percentile(50)
    snap = h.snapshot()
    # the satellite contract: snapshots (and thus report lines) carry p999
    assert snap["p999"] == q["p999"]
    assert snap["p50"] <= snap["p90"] <= snap["p99"] <= snap["p999"]


def test_report_includes_tail_quantiles():
    reg = MetricsRegistry()
    reg.histogram("lat").observe(5.0)
    text = reg.report()
    assert "p999=" in text and "p50=" in text


def test_histogram_labels_merge():
    h = Histogram("modes", labelnames=("mode",))
    h.labels(mode="fast").observe(1.0)
    h.labels(mode="slow").observe(100.0)
    snap = h.snapshot()
    assert snap["count"] == 2
    assert snap["min"] == 1.0 and snap["max"] == 100.0
    assert h.labels(mode="fast").count == 1


# -- registry ------------------------------------------------------------------


def test_registry_idempotent_registration():
    reg = MetricsRegistry()
    a = reg.counter("x", "help")
    b = reg.counter("x")
    assert a is b
    assert "x" in reg and "y" not in reg


def test_registry_kind_mismatch_rejected():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(ValueError, match="already registered"):
        reg.histogram("x")


def test_registry_snapshot_and_report():
    reg = MetricsRegistry()
    reg.counter("zero")
    reg.counter("hits").inc(3)
    reg.histogram("lat").observe(5.0)
    reg.counter("fam", labelnames=("node",)).labels(node=1).inc(2)
    snap = reg.snapshot()
    assert snap["hits"] == 3 and snap["zero"] == 0
    assert snap["lat"]["count"] == 1
    text = reg.report()
    assert "hits" in text and "lat" in text and "fam" in text
    assert "zero" not in text  # skip_zero default
    assert "zero" in reg.report(skip_zero=False)


def test_counter_totals_fold_several_registries():
    into = {"hits": 1}
    for hits in (3, 4):
        reg = MetricsRegistry()
        reg.counter("hits").inc(hits)
        reg.counter("fam", labelnames=("node",)).labels(node=1).inc(2)
        reg.histogram("lat").observe(5.0)  # not a counter: left out
        assert reg.counter_totals(into) is into
    assert into == {"hits": 8, "fam": 4}


# -- the DexStats facade -------------------------------------------------------


def _record(latency, retries=0, coalesced=False, write=True, vpn=1):
    return FaultRecord(vpn=vpn, node=1, write=write, latency_us=latency,
                       retries=retries, coalesced=coalesced)


def test_stats_attribute_counters_are_registry_backed():
    s = DexStats()
    s.faults_write += 2
    s.delegations += 1
    assert s.faults_write == 2
    assert s.registry.get("faults_write").value == 2
    assert s.registry.get("delegations").value == 1
    assert s.total_faults == 2
    assert "faults_write" in s.report()


def test_stats_latency_summary_matches_list_reference():
    s = DexStats()
    fast = [10.0, 12.5, 9.75, 11.0]
    slow = [150.0, 812.1, 236.6]
    for v in fast:
        s.record_fault(_record(v))
    for v in slow:
        s.record_fault(_record(v, retries=2))
    s.record_fault(_record(5.0, coalesced=True))
    summary = s.latency_summary()
    assert summary["fast_path_count"] == len(fast)
    assert summary["contended_count"] == len(slow)
    # the histogram accumulates in the same order the list would, so the
    # means agree to float precision
    assert summary["fast_path_mean_us"] == pytest.approx(
        sum(fast) / len(fast), rel=1e-12)
    assert summary["contended_mean_us"] == pytest.approx(
        sum(slow) / len(slow), rel=1e-12)


def test_stats_histograms_count_past_the_record_cap():
    s = DexStats(max_latency_samples=10)
    for i in range(25):
        s.record_fault(_record(float(i + 1)))
    assert len(s.fault_latencies) == 10        # retained records capped ...
    assert s.latency_samples_dropped == 15
    assert s.fault_latency.snapshot()["count"] == 25  # ... histogram is not
    summary = s.latency_summary()
    assert summary["fast_path_count"] == 25
    assert summary["fast_path_mean_us"] == pytest.approx(13.0)
    assert s.faults_write == 25


def test_stats_mode_split_and_percentiles():
    s = DexStats()
    s.record_fault(_record(10.0))
    s.record_fault(_record(500.0, retries=3))
    assert s.fault_retries == 3
    assert s.faults_coalesced == 0
    p_fast = s.fault_latency_percentile(50, mode="fast")
    p_all = s.fault_latency_percentile(99)
    assert p_fast == pytest.approx(10.0)
    assert p_all >= p_fast


def test_stats_label_family_views():
    s = DexStats()
    s.record_directory_request(home=0)
    s.record_directory_request(home=0)
    s.record_directory_request(home=3)
    assert s.directory_requests == {0: 2, 3: 1}
    for _ in range(3):
        s.record_busy_retry(vpn=7)
    s.record_busy_retry(vpn=9)
    assert s.busy_retries_by_page == {7: 3, 9: 1}
    assert s.contended_pages(top_n=1) == [(7, 3)]


def test_stats_hint_hit_rate():
    s = DexStats()
    assert s.hint_hit_rate is None
    s.hint_hits += 3
    s.hint_misses += 1
    assert s.hint_hit_rate == pytest.approx(0.75)


# -- serialization round-trip (the manifest's histogram sections) --------------


def test_histogram_round_trip_preserves_quantiles():
    h = Histogram("lat", start=0.5, factor=2.0, nbuckets=16)
    for v in (0.1, 1.0, 3.0, 7.5, 40.0, 900.0):
        h.observe(v)
    back = Histogram.from_dict(h.to_dict())
    assert back.counts == h.counts
    assert back.count == h.count and back.sum == h.sum
    assert back.min == h.min and back.max == h.max
    assert back.quantiles(50, 90, 99, 99.9) == h.quantiles(50, 90, 99, 99.9)
    # the restored histogram keeps observing on the same geometry
    back.observe(2.0)
    assert back.count == h.count + 1


def test_histogram_round_trip_folds_labeled_children():
    h = Histogram("modes", labelnames=("mode",))
    h.labels(mode="read").observe(1.0)
    h.labels(mode="write").observe(50.0)
    doc = h.to_dict()
    assert doc["count"] == 2 and doc["min"] == 1.0 and doc["max"] == 50.0
    back = Histogram.from_dict(doc)
    assert back.count == 2 and back.percentile(100) == 50.0


def test_empty_histogram_round_trips():
    """The edge case the manifest hit: min/max sentinels aren't JSON."""
    doc = Histogram("empty").to_dict()
    assert doc["min"] is None and doc["max"] is None
    assert doc["count"] == 0
    back = Histogram.from_dict(doc)
    assert back.count == 0
    assert back.min == math.inf and back.max == -math.inf
    assert back.percentile(99) == 0.0
    # ...and still observes/merges correctly afterwards
    back.observe(4.0)
    assert back.min == back.max == 4.0


def test_single_bucket_histogram_round_trips():
    h = Histogram("one", start=10.0, nbuckets=1)
    h.observe(5.0)    # bucket 0
    h.observe(100.0)  # the overflow bucket
    assert h.counts == [1, 1]
    back = Histogram.from_dict(h.to_dict())
    assert back.counts == [1, 1]
    assert back.percentile(100) == 100.0
    assert back.quantiles(50)["p50"] <= 100.0


def test_from_dict_validates_bucket_counts():
    doc = Histogram("lat", nbuckets=8).to_dict()
    doc["counts"] = doc["counts"][:-1]  # truncated artifact
    with pytest.raises(ValueError, match="bucket"):
        Histogram.from_dict(doc)


# -- merge ---------------------------------------------------------------------


def test_merge_accumulates_in_place():
    a = Histogram("lat")
    b = Histogram("lat")
    a.observe(1.0)
    b.observe(10.0)
    b.observe(2.0)
    assert a.merge(b) is a
    assert a.count == 3 and a.sum == 13.0
    assert a.min == 1.0 and a.max == 10.0
    assert b.count == 2  # the operand is untouched


def test_merge_empty_operand_is_noop_both_ways():
    full = Histogram("lat")
    full.observe(3.0)
    empty = Histogram("lat")
    full.merge(empty)
    assert full.count == 1 and full.min == 3.0 and full.max == 3.0
    empty2 = Histogram("lat")
    empty2.merge(full)
    assert empty2.min == 3.0 and empty2.max == 3.0  # no inf leakage


def test_merge_folds_operand_children():
    family = Histogram("modes", labelnames=("mode",))
    family.labels(mode="read").observe(1.0)
    family.labels(mode="write").observe(9.0)
    target = Histogram("modes")
    target.merge(family)
    assert target.count == 2 and target.max == 9.0


def test_merge_rejects_geometry_mismatch():
    a = Histogram("a", start=0.25, nbuckets=64)
    for other in (
        Histogram("b", start=0.5, nbuckets=64),
        Histogram("c", start=0.25, factor=2.0, nbuckets=64),
        Histogram("d", start=0.25, nbuckets=32),
    ):
        with pytest.raises(ValueError, match="cannot merge"):
            a.merge(other)
