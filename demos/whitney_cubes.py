"""
Whitney decomposition of the complement of a cusp boundary
==========================================================

Builds the dyadic-cube decomposition of the complement of the boundary of
Omega(alpha), prints the cube counts per generation, and fits the growth
slope: for a rectifiable curve (a 1-set) the count roughly doubles per
generation, so the slope of log2 N_k against k is close to 1.
"""

import numpy as np

from cuspdiv import geometry, whitney
from cuspdiv.geometry import CuspDomain

alpha = 0.5
dom = CuspDomain(alpha)
box = whitney.default_box()

dec = whitney.decompose(lambda p: geometry.distance(dom, p), box, kmax=10)
print(f"alpha = {alpha}: {len(dec.cubes)} cubes accepted")
for k, n in zip(*np.unique(dec.cubes[:, 0], return_counts=True)):
    print(f"  generation {k:2d}: {n:6d} cubes")

slope = whitney.generation_count_slope(dec, (0.5, dom.curve(0.5)), 0.4, 7, 10)
print(f"growth slope of N_k near the boundary: {slope:.3f} (1-set target: 1)")

# every accepted cube sits in the size band l <= d(Q, F) <= 4l
sample = dec.cubes[:: max(1, len(dec.cubes) // 500)]
ell = dec.geometry(sample)[2] * np.sqrt(2.0)
ratio = dec.cube_set_distance(sample) / ell
print(f"sampled d(Q,F)/diam(Q) range: [{ratio.min():.3f}, {ratio.max():.3f}]"
      " (band [1, 4] up to sampling slack)")
