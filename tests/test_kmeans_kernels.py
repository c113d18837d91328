"""The k-means kernels against the numpy expressions they replaced, bit
for bit: ``sq_dist`` against the summed squared broadcast difference,
``cluster_sums`` against the per-cluster mask-and-sum loop."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.apps.kmeans import DIM, cluster_sums, sq_dist

coords = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False) | \
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 3.0, -7.5])


def points(n, dim=DIM):
    return arrays(np.float64, (n, dim), elements=coords)


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 70), k=st.integers(1, 20),
       dim=st.sampled_from([DIM, 1, 2, 7]))
def test_sq_dist_is_the_broadcast_sum(data, n, k, dim):
    pts = data.draw(points(n, dim))
    centers = data.draw(points(k, dim))
    old = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
    new = sq_dist(pts, centers)
    assert new.shape == (n, k)
    assert np.array_equal(bits(new), bits(old))


def masked_sums(pts, assign, k):
    """The loop ``cluster_sums`` replaced: one mask and one sum per
    cluster (an empty cluster sums to nothing)."""
    counts = np.zeros(k, dtype=np.int64)
    sums = np.zeros((k, pts.shape[1]))
    for c in range(k):
        mask = assign == c
        n_c = int(mask.sum())
        if n_c:
            counts[c] = n_c
            sums[c] = pts[mask].sum(axis=0)
    return counts, sums


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 70), k=st.integers(1, 20))
def test_cluster_sums_are_the_masked_sums(data, n, k):
    """n < k and empty clusters included.  ``bincount`` starts from +0.0,
    so the only difference allowed is an all -0.0 sum turning +0.0, which
    is what ``x + 0.0`` does and nothing else."""
    pts = data.draw(points(n))
    assign = data.draw(arrays(np.intp, n, elements=st.integers(0, k - 1)))
    counts, sums = cluster_sums(pts, assign, k)
    old_counts, old_sums = masked_sums(pts, assign, k)
    assert np.array_equal(counts, old_counts)
    assert sums.shape == (k, DIM)
    assert np.array_equal(bits(sums), bits(old_sums + 0.0))


def test_a_negative_zero_cluster_sum_is_absorbed_by_both_accumulations():
    pts = np.array([[-0.0, 1.0, -0.0], [-0.0, -1.0, -0.0], [2.0, 3.0, 4.0]])
    assign = np.array([0, 0, 1])
    counts, sums = cluster_sums(pts, assign, 3)
    assert not np.signbit(sums[0, 0]) and not np.signbit(sums[0, 2])
    # numpy's own sum may keep the sign (releases that start the reduction
    # from the first row do): take the -0.0 outcome as the old one
    _, old = masked_sums(pts, assign, 3)
    old[0, 0] = old[0, 2] = -0.0
    # optimized: the staged per-thread partials start at +0.0
    staged_new, staged_old = np.zeros((3, DIM)), np.zeros((3, DIM))
    staged_new += sums
    staged_old[:2] += old[:2]
    assert np.array_equal(bits(staged_new), bits(staged_old))
    # initial: one atomic float add per coordinate of a non-empty cluster
    # into the shared accumulator, which also starts at +0.0
    shared_new, shared_old = [0.0] * (3 * DIM), [0.0] * (3 * DIM)
    for c in np.flatnonzero(counts):
        for d in range(DIM):
            shared_new[c * DIM + d] += float(sums[c, d])
            shared_old[c * DIM + d] += float(old[c, d])
    assert bits(shared_new).tolist() == bits(shared_old).tolist()
