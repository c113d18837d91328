"""BLK — PARSEC blackscholes (pthread version, 'native'-scale input).

Prices a batch of European options with the closed-form Black–Scholes
formula.  Inputs are read-only and outputs are partitioned per thread, so
the application is *scale-ready*: the paper reports BLK scaling linearly
in its initial two-line port.  The optimized variant page-aligns the
per-thread output slices (the only cross-thread pages in the program),
a marginal win.
"""

from __future__ import annotations

from math import sqrt
from typing import Generator

import numpy as np

from repro.apps import workloads
from repro.apps.common import AdaptationInfo, AppResult, Launch, finish
from repro.runtime.array import DistArray, alloc_array

#: pricing one option (log, sqrt, two erf evaluations)
CPU_US_PER_OPTION = 0.8
CHUNK = 8192
FIELDS = ("spot", "strike", "rate", "volatility", "maturity")

ADAPTATION = AdaptationInfo(
    multithread_impl="pthread",
    initial_loc=2,
    optimized_loc=6,
    notes="1 line each for forward/backward migration; optimization "
    "page-aligns the per-thread output slices",
)


# Cephes ndtr.c erf/erfc, the kernel scipy.special.erf evaluates: T/U for
# |x| <= 1, P/Q for the erfc form above; U and Q are monic (p1evl)
_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
      7.00332514112805075473E3, 5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
      2.26290000613890934246E4, 4.92673942608635921086E4)
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
      4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
      9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)


def _horner(x: np.ndarray, coef, monic: bool = False) -> np.ndarray:
    """Cephes polevl (p1evl if *monic*: an implicit leading 1)."""
    ans = x + coef[0] if monic else np.full_like(x, coef[0])
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def _exp(x: np.ndarray) -> np.ndarray:
    """libm's exp, which Cephes calls: numpy's own float64 exp differs
    from it in the last bit; its complex exp goes through libm's cexp."""
    return np.exp(x.astype(np.complex128)).real


def _erf(x: np.ndarray) -> np.ndarray:
    """``scipy.special.erf`` bit for bit, without importing scipy.
    Cephes' erfc for |x| >= 8 (its R/S branch, or 0 once exp(-x²)
    underflows) is below 1.2e-29, so 1 - erfc rounds to exactly 1."""
    a = np.abs(x)
    out = np.ones_like(a)
    inner = a <= 1.0
    mid = ~(inner | (a >= 8.0))  # NaN lands here and stays NaN
    s = a[inner]
    z = s * s
    out[inner] = s * _horner(z, _T) / _horner(z, _U, monic=True)
    s = a[mid]
    out[mid] = 1.0 - _exp(-s * s) * _horner(s, _P) / _horner(s, _Q, monic=True)
    return np.copysign(out, x)


def _price_arrays(
    s: np.ndarray,
    k: np.ndarray,
    r: np.ndarray,
    v: np.ndarray,
    t: np.ndarray,
    is_call: np.ndarray,
) -> np.ndarray:
    d1 = (np.log(s / k) + (r + v * v / 2.0) * t) / (v * np.sqrt(t))
    d2 = d1 - v * np.sqrt(t)
    # one kernel call for both: its cost is per call more than per value
    cnd1, cnd2 = np.split(
        0.5 * (1.0 + _erf(np.concatenate((d1, d2)) / sqrt(2.0))), 2)
    call = s * cnd1 - k * np.exp(-r * t) * cnd2
    put = call - s + k * np.exp(-r * t)
    return np.where(is_call, call, put)


def _price(batch: workloads.OptionBatch, lo: int, hi: int) -> np.ndarray:
    return _price_arrays(
        batch.spot[lo:hi],
        batch.strike[lo:hi],
        batch.rate[lo:hi],
        batch.volatility[lo:hi],
        batch.maturity[lo:hi],
        batch.is_call[lo:hi],
    )


@workloads.memoised
def reference(n_options: int, seed: int = 13) -> np.ndarray:
    batch = workloads.option_batch(n_options, seed)
    # a chunk at a time: _price_arrays holds a dozen batch-sized temporaries
    prices = np.empty(n_options)
    for lo in range(0, n_options, CHUNK):
        hi = min(lo + CHUNK, n_options)
        prices[lo:hi] = _price(batch, lo, hi)
    return prices


#: the calibrated input seed, unless the spec or SimParams names one
INPUT_SEED = 13


def run(
    job: Launch,
    n_options: int = 400_000,
) -> AppResult:
    """Run BLK; output is the option price vector."""
    alloc, num_threads, optimized = job.alloc, job.num_threads, job.optimized

    batch = workloads.option_batch(n_options, job.seed)
    expected = reference(n_options, job.seed)

    inputs = {
        name: alloc_array(alloc, np.float64, n_options, name=name,
                          page_aligned=True)
        for name in FIELDS
    }
    flags = alloc_array(alloc, np.uint8, n_options, name="is_call",
                        page_aligned=True)
    part = (n_options + num_threads - 1) // num_threads
    if optimized:
        outputs = [
            alloc_array(alloc, np.float64, min(part, n_options - i * part),
                        name=f"out{i}", page_aligned=True)
            for i in range(num_threads)
            if i * part < n_options
        ]
    else:
        # one contiguous output vector: adjacent threads share the pages
        # at their partition boundaries
        whole = alloc_array(alloc, np.float64, n_options, name="out")
        outputs = [
            DistArray(whole.addr + i * part * 8, np.float64,
                      min(part, n_options - i * part), name=f"out{i}")
            for i in range(num_threads)
            if i * part < n_options
        ]

    def body(ctx, wid: int) -> Generator:
        lo = wid * part
        hi = min(lo + part, n_options)
        if lo >= hi:
            return
        pos = lo
        while pos < hi:
            take = min(CHUNK, hi - pos)
            # the prices are computed from what the DSM actually delivers
            values = {}
            for name in FIELDS:
                values[name] = yield from inputs[name].read(
                    ctx, pos, pos + take, site="blk:inputs"
                )
            raw_flags = yield from ctx.read(flags.addr + pos, take,
                                            site="blk:inputs")
            is_call = np.frombuffer(raw_flags, dtype=np.uint8).astype(bool)
            yield from ctx.compute(
                cpu_us=take * CPU_US_PER_OPTION, mem_bytes=take * 48
            )
            prices = _price_arrays(
                values["spot"], values["strike"], values["rate"],
                values["volatility"], values["maturity"], is_call,
            )
            yield from outputs[wid].write(ctx, pos - lo, prices,
                                          site="blk:output")
            pos += take

    def setup(ctx) -> Generator:
        for name in FIELDS:
            yield from inputs[name].write(ctx, 0, getattr(batch, name))
        yield from ctx.write(flags.addr,
                             batch.is_call.view(np.uint8))

    def collect(ctx) -> Generator:
        parts = []
        for out in outputs:
            data = yield from out.read(ctx)
            parts.append(data)
        prices = np.concatenate(parts)
        return prices, bool(np.allclose(prices, expected))

    return finish(job, body, collect, setup)
