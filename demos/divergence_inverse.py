"""
Right inverses of the divergence, with and without the cusp weight
==================================================================

Two constructions of u with div u = f:

1. the Newtonian potential of the zero-extended source (no boundary
   condition), validated against the analytic field of a disk source;
2. the minimal-energy finite-element field with zero boundary values,
   where the divergence is imposed against pressures weighted by
   d^(2 alpha - 2).

The closing table shows why the weight is needed: for indicator sources
concentrating at the cusp tip the unweighted ratio ||u||_H1 / ||f||_L2
grows, while the weighted ratio stays essentially flat.
"""

import numpy as np

from cuspdiv import experiments, fem, potential
from cuspdiv.geometry import CuspDomain
from cuspdiv.mesh import generate_graded_mesh

# --- potential construction against the disk oracle -----------------------
f, v_exact = potential.disk_indicator_field((0.5, 0.0), 0.1)
sol = potential.newtonian_solve(potential.SourceField.from_function(f, 128))
pts = np.array([[0.9, 0.0], [0.55, 0.0]])
print("disk source, velocity at probes (numeric vs analytic):")
for p, vn, ve in zip(pts, sol.velocity(pts), v_exact(pts)):
    print(f"  at {tuple(p)}: ({vn[0]:.5f}, {vn[1]:.5f})"
          f"  vs  ({ve[0]:.5f}, {ve[1]:.5f})")

# --- finite-element construction on the cusp domain ------------------------
alpha = 0.75
mesh = generate_graded_mesh(CuspDomain(alpha), 0.1)
src = lambda p: (p[:, 0] < 0.2).astype(float)
system = fem.assemble(mesh, alpha)     # every solve on it shares one LU
u, info = fem.solve_div_right_inverse(mesh, alpha, src, system=system)
print(f"\nFEM right inverse (alpha={alpha}, h={mesh.h}):")
print(f"  constraint residual = {info['constraint_residual']:.2e}")
print(f"  ||u||_H1 = {info['h1_norm']:.4f}")

# --- necessity of the weight ------------------------------------------------
print("\nindicator sources f_t = chi(x < t) concentrating at the tip:")
rows = experiments.necessity_demo(alpha)
print(f"  {'t':>6} {'weighted ratio':>15} {'unweighted ratio':>17}")
for r in rows:
    print(f"  {r['t']:6.2f} {r['r_w']:15.4f} {r['r_u']:17.4f}")
