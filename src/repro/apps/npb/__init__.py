"""NPB-like scientific kernels (§V: BT, EP, FT from the SNU NPB suite).

These are simplified but *verifiable* stand-ins for the OpenMP NPB
kernels: EP keeps its embarrassingly-parallel Gaussian-pair structure; BT
is modelled as a multi-region Jacobi sweep over a block-partitioned grid
with halo exchange (15 parallel regions per iteration, like BT's 15
converted regions); FT alternates row transforms with full transposes
(all-to-all traffic), 7 regions per iteration.  Each checks its final
state against a single-threaded numpy reference.

The OpenMP conversion is modelled faithfully: every worker migrates out at
each region entry and back at region exit, so BT runs 15 x iters x threads
migrations per execution — which is why the cheap second migration
(Table II) matters.
"""

from repro.apps.npb.common import region_body

__all__ = ["region_body"]
