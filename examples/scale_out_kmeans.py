"""Scale a real application beyond one machine: k-means on 1..8 nodes.

Uses the packaged KMN application (§V) to show the end-to-end story: the
same program, converted with two migration lines, first *degrades* when
distributed naively and then scales once the §IV layout fixes are applied.
Every run's centroids are verified against a single-threaded reference.

Run:  python examples/scale_out_kmeans.py
"""

from repro.apps import RunSpec

N_POINTS = 120_000
MAX_ITERS = 2


def main():
    workload = {"n_points": N_POINTS, "max_iters": MAX_ITERS}
    baseline = RunSpec("KMN", "unmodified", overrides=workload).run()
    assert baseline.correct
    print(f"single machine (8 threads): {baseline.elapsed_us / 1000:.1f} ms\n")
    print(f"{'nodes':>5s} {'initial port':>14s} {'optimized port':>15s}")
    for nodes in (1, 2, 4, 8):
        row = [f"{nodes:5d}"]
        for variant in ("initial", "optimized"):
            result = RunSpec("KMN", variant, nodes, overrides=workload).run()
            assert result.correct, "distributed run computed wrong centroids!"
            speedup = baseline.elapsed_us / result.elapsed_us
            row.append(f"{speedup:13.2f}x")
        print(" ".join(row))
    print("\n(initial = just the two migration lines; optimized = plus the")
    print(" page-alignment and local-staging fixes of §IV. All centroids")
    print(" checked against the single-threaded reference.)")


if __name__ == "__main__":
    main()
