"""Tests for the pluggable coherence-directory layer.

Unit coverage for home assignment, shard placement, the shard-map copy a
remote node learns (including stale-copy redirects), and the busy-retry
attribution stats —
plus differential tests running the same workloads under the ``origin``
and ``sharded`` backends and comparing results.
"""

import numpy as np
import pytest

from repro.core.directory import (
    DIRECTORY_BACKENDS,
    OriginDirectory,
    ShardedDirectory,
    _next_prime,
)
from repro.core.stats import DexStats
from repro.params import SimParams
from repro.bench.runner import run_point

from conftest import make_cluster

GLOBALS = 0x1000_0000


def run(cluster, main, *args):
    proc = cluster.create_process()
    result = cluster.simulate(main, proc, *args)
    return result, proc


# ---------------------------------------------------------------------------
# home assignment & shard placement
# ---------------------------------------------------------------------------


def test_origin_directory_homes_everything_at_origin():
    cluster = make_cluster(directory="origin")
    proc = cluster.create_process()
    directory = proc.protocol.directory
    assert isinstance(directory, OriginDirectory)
    for vpn in (0, 1, 65536, 123_456_789):
        assert directory.home(vpn) == proc.origin
    assert directory.shard_nodes() == [proc.origin]


def test_sharded_directory_spreads_homes():
    cluster = make_cluster(directory="sharded")
    proc = cluster.create_process()
    directory = proc.protocol.directory
    assert isinstance(directory, ShardedDirectory)
    # default shard count: smallest prime above the node count
    assert directory.nshards == _next_prime(cluster.num_nodes)
    homes = {directory.home(vpn) for vpn in range(directory.nshards)}
    assert homes == set(range(cluster.num_nodes))
    for vpn in (7, 65536, 99_991):
        home = directory.home(vpn)
        assert home == directory.shard_map[vpn % directory.nshards]
        assert directory.hosts(home, vpn)


def test_explicit_shard_count_and_unknown_backend():
    cluster = make_cluster(directory="sharded", directory_shards=3)
    proc = cluster.create_process()
    assert proc.protocol.directory.nshards == 3
    with pytest.raises(ValueError):
        make_cluster(directory="no_such_backend").create_process()
    assert DIRECTORY_BACKENDS == ("origin", "sharded")


def test_entries_live_at_their_home():
    cluster = make_cluster(directory="sharded")
    page = cluster.params.page_size

    def main(ctx):
        for node in range(1, cluster.num_nodes):
            yield from ctx.migrate(node)
            yield from ctx.write_i64(GLOBALS + node * page, node)
        yield from ctx.migrate_back()

    _, proc = run(cluster, main)
    directory = proc.protocol.directory
    assert len(directory) >= cluster.num_nodes - 1
    populated = [n for n in directory.shard_nodes() if len(directory.shard(n))]
    assert len(populated) > 1  # metadata is actually spread across nodes
    directory.check_invariants()  # every entry sits in its home's shard


# ---------------------------------------------------------------------------
# the shard-map copy a remote node learns from its first home lookup
# ---------------------------------------------------------------------------


class LookupLog:
    """Records which node each ``PAGE_HOME_LOOKUP`` came from."""

    def __init__(self):
        self.nodes = []

    def on_home_lookup(self, vpn, node, home):
        self.nodes.append(node)


@pytest.mark.parametrize("shards", [None, 1, 3], ids=["default", "1", "3"])
def test_one_home_lookup_per_process_and_node(shards):
    """A remote node that faults on more distinct pages than there are
    shards asks the origin once per process, and resolves every later
    home from the map that one answer carried."""
    cluster = make_cluster(directory="sharded", directory_shards=shards)
    page = cluster.params.page_size
    remotes = range(1, cluster.num_nodes)

    def main(ctx, npages):
        for node in remotes:
            yield from ctx.migrate(node)
            for i in range(npages):
                yield from ctx.read_i64(GLOBALS + i * page)
        yield from ctx.migrate_back()

    for _ in range(2):
        proc = cluster.create_process()
        log = LookupLog()
        proc.add_hook(log)
        directory = proc.protocol.directory
        npages = 2 * directory.nshards + 1
        cluster.simulate(main, proc, npages)
        assert sorted(log.nodes) == list(remotes)
        assert proc.stats.home_lookups == proc.stats.hint_misses == len(log.nodes)
        remote_homed = sum(
            directory.home(GLOBALS // page + i) != node
            for node in remotes for i in range(npages)
        )
        assert proc.stats.hint_hits == remote_homed - len(log.nodes)
        assert proc.stats.hint_stale == 0
        for node in remotes:
            assert proc.node_state(node).shard_map_copy == directory.home_map()


def test_hints_learned_and_hit_on_repeat_faults():
    cluster = make_cluster(directory="sharded")
    page = cluster.params.page_size

    def main(ctx):
        yield from ctx.migrate(2)
        yield from ctx.read_i64(GLOBALS)         # cold: learns the map
        yield from ctx.write_i64(GLOBALS, 1)     # upgrade: hint hit
        yield from ctx.read_i64(GLOBALS + page)  # another page: hit too

    _, proc = run(cluster, main)
    directory = proc.protocol.directory
    assert proc.stats.home_lookups == 1
    assert proc.stats.hint_hits >= 1
    rate = proc.stats.hint_hit_rate
    assert rate is not None and 0.0 < rate < 1.0
    assert proc.node_state(2).shard_map_copy == directory.home_map()
    assert directory.known_home(2, GLOBALS // page) == directory.home(
        GLOBALS // page
    )


def test_stale_hint_is_redirected_and_repaired():
    cluster = make_cluster(directory="sharded")
    proc = cluster.create_process()
    directory = proc.protocol.directory
    vpn = GLOBALS // cluster.params.page_size
    home = directory.home(vpn)
    requester = next(
        n for n in range(1, cluster.num_nodes) if n != home
    )
    wrong = next(
        n for n in range(cluster.num_nodes) if n not in (home, requester, 0)
    )
    # poison the requester's copy: every shard homed at a node that does
    # not host the page
    directory.learn_map(requester, (wrong,) * directory.nshards)

    def main(ctx):
        yield from ctx.write_i64(GLOBALS, 77)
        yield from ctx.migrate(requester)
        value = yield from ctx.read_i64(GLOBALS)
        return value

    value = cluster.simulate(main, proc)
    assert value == 77  # a stale copy costs a hop, never correctness
    assert proc.stats.hint_stale == 1
    assert proc.stats.home_lookups == 1
    # the redirect dropped the bad copy; the re-lookup repaired it
    assert proc.node_state(requester).shard_map_copy == directory.home_map()
    assert directory.known_home(requester, vpn) == home


# ---------------------------------------------------------------------------
# busy-retry attribution (§V-D contended mode)
# ---------------------------------------------------------------------------


def test_busy_retry_stats_and_contended_pages():
    stats = DexStats()
    for _ in range(3):
        stats.record_busy_retry(0x10)
    stats.record_busy_retry(0x20)
    assert stats.busy_retries_by_page == {0x10: 3, 0x20: 1}
    assert stats.contended_pages(top_n=1) == [(0x10, 3)]
    summary = stats.latency_summary()
    assert summary["contended_pages"] == [(0x10, 3), (0x20, 1)]


def test_contended_run_attributes_retries_to_pages():
    cluster = make_cluster()
    proc = cluster.create_process()
    counter_vpn = GLOBALS // cluster.params.page_size

    def worker(ctx, node):
        yield from ctx.migrate(node)
        for _ in range(20):
            yield from ctx.atomic_add_i64(GLOBALS, 1)
            yield from ctx.compute(cpu_us=0.3)
        yield from ctx.migrate_back()

    threads = [proc.spawn_thread(worker, n) for n in range(cluster.num_nodes)]

    def main(ctx):
        yield from proc.join_all(threads)
        return (yield from ctx.read_i64(GLOBALS))

    value = cluster.simulate(main, proc)
    assert value == 20 * cluster.num_nodes
    if proc.stats.fault_retries:
        pages = dict(proc.stats.contended_pages())
        assert counter_vpn in pages
        # every requester-side retry was attributed to some page
        assert sum(proc.stats.busy_retries_by_page.values()) == (
            proc.stats.fault_retries
        )


# ---------------------------------------------------------------------------
# differential: origin vs sharded must agree
# ---------------------------------------------------------------------------


def _walker_workload(backend):
    """Deterministic single-thread walk: write a distinct pattern at every
    node, then read everything back at the origin."""
    cluster = make_cluster(directory=backend)
    page = cluster.params.page_size

    def main(ctx):
        for node in range(1, cluster.num_nodes):
            yield from ctx.migrate(node)
            yield from ctx.write(
                GLOBALS + node * page, bytes([node]) * 32
            )
            yield from ctx.write_i64(GLOBALS, node)  # ping-pong page
        yield from ctx.migrate_back()
        out = bytearray()
        for node in range(1, cluster.num_nodes):
            out += yield from ctx.read(GLOBALS + node * page, 32)
        counter = yield from ctx.read_i64(GLOBALS)
        return bytes(out), counter

    result, proc = run(cluster, main)
    return result, proc.stats


def test_differential_walker_bit_identical():
    (data_o, counter_o), stats_o = _walker_workload("origin")
    (data_s, counter_s), stats_s = _walker_workload("sharded")
    assert data_o == data_s          # bit-identical bytes
    assert counter_o == counter_s
    assert stats_o.total_faults == stats_s.total_faults
    assert stats_o.fault_retries == stats_s.fault_retries == 0


def _pingpong_workload(backend, rounds=25):
    """One thread bouncing between two nodes, incrementing one counter —
    the page-fault ping-pong, made deterministic by the single thread."""
    cluster = make_cluster(num_nodes=2, directory=backend)

    def main(ctx):
        for _ in range(rounds):
            yield from ctx.migrate(1)
            yield from ctx.atomic_add_i64(GLOBALS, 1)
            yield from ctx.migrate_back()
            yield from ctx.atomic_add_i64(GLOBALS, 1)
        return (yield from ctx.read_i64(GLOBALS))

    value, proc = run(cluster, main)
    return value, proc.stats


def test_differential_pingpong_identical_faults():
    value_o, stats_o = _pingpong_workload("origin")
    value_s, stats_s = _pingpong_workload("sharded")
    assert value_o == value_s == 50
    assert stats_o.total_faults == stats_s.total_faults


def test_differential_kmn_results_agree():
    """KMN under both backends: both verify against the reference, and the
    fault totals agree modulo the (backend-dependent) retry races.  The
    outputs are compared with allclose — thread interleaving differs, so
    the float reduction order (not the values) may change."""
    results = {}
    for backend in ("origin", "sharded"):
        results[backend] = run_point(
            "KMN", "initial", 4, "small",
            params=SimParams(directory=backend),
        )
    origin, sharded = results["origin"], results["sharded"]
    assert origin.correct and sharded.correct
    assert np.allclose(origin.output, sharded.output, rtol=1e-8, atol=1e-8)
    fault_gap = abs(
        origin.stats.total_faults - sharded.stats.total_faults
    )
    assert fault_gap <= (
        origin.stats.fault_retries + sharded.stats.fault_retries
    )
