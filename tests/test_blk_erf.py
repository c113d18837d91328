"""BLK's erf kernel against its oracle: ``blackscholes._erf`` must be
``scipy.special.erf`` bit for bit (BLK's prices, and through them the
``blackscholes.reference`` pins and the ``scaled_apps`` / ``serve_mix``
digests, hold its last bit).  scipy is the test oracle here, not a
dependency of the run path."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.blackscholes import _erf, _exp

scipy_special = pytest.importorskip("scipy.special")


def same_bits(x):
    ours, oracle = _erf(x), scipy_special.erf(x)
    nan = np.isnan(oracle)
    assert np.array_equal(np.isnan(ours), nan), x[np.isnan(ours) != nan]
    differ = ours.view(np.uint64) != oracle.view(np.uint64)
    assert not (differ & ~nan).any(), x[differ & ~nan][:8]


def magnitudes(lo, hi):
    return st.floats(lo, hi, allow_nan=False).flatmap(
        lambda m: st.sampled_from([m, -m]))


#: the kernel's branches: T/U, P/Q, Cephes' R/S and its exp underflow
BRANCHES = {
    "inner": magnitudes(0.0, 1.0),
    "middle": magnitudes(np.nextafter(1.0, 2.0), np.nextafter(8.0, 0.0)),
    "far": magnitudes(8.0, 26.6),
    "underflow": magnitudes(26.65, 1e308),
}


@pytest.mark.parametrize("branch", list(BRANCHES))
def test_erf_matches_scipy_bitwise_on_each_branch(branch):
    @settings(max_examples=100, deadline=None)
    @given(st.lists(BRANCHES[branch], min_size=1, max_size=64))
    def check(values):
        same_bits(np.array(values))

    check()


def test_erf_matches_scipy_bitwise_at_the_edges():
    tiny = np.finfo(np.float64).smallest_subnormal
    edges = [0.0, tiny, 1e-300, 0.5, 1.0, np.nextafter(1.0, 2.0),
             np.nextafter(1.0, 0.0), 8.0, np.nextafter(8.0, 9.0),
             np.nextafter(8.0, 0.0), 26.6, 26.7, 1e61, 1e308, np.inf]
    x = np.array(edges + [-e for e in edges] + [np.nan])
    same_bits(x)
    assert np.signbit(_erf(np.array([-0.0])))[0]


def test_erf_matches_scipy_bitwise_on_dense_draws():
    rng = np.random.default_rng(20200708)
    for scale in (0.3, 1.5, 4.0, 12.0):
        same_bits(rng.standard_normal(50_000) * scale)


def test_the_exp_term_is_libm_exp_and_numpy_exp_is_not():
    # Cephes calls libm's exp; numpy's own float64 exp (a SIMD kernel on
    # most x86 builds) may differ in the last bit, so _exp goes through
    # libm's cexp and must stay there
    z = -np.linspace(1.0, 64.0, 20_001) ** 2
    libm = np.array([math.exp(v) for v in z])
    assert np.array_equal(_exp(z).view(np.uint64), libm.view(np.uint64))
    if np.array_equal(np.exp(z), libm):
        pytest.skip("numpy's float64 exp agrees with libm on this build")
