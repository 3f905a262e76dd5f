"""
Muckenhaupt ratios of distance-power weights
============================================

For the weight d^mu on the cusp domain, the per-ball quantity
(avg w)(avg w^{-1/(p-1)})^{p-1} stays bounded over all balls exactly when mu
is admissible (-1 < mu < p - 1 for p = 2).  Each exponent is labelled
"flat" or "not flat", as ApEstimate.admissible_flat decides (trend and
1/trend below 2).  At resolution 512 only the two largest default radii are
resolved, so each trend is a two-radius fit and indicative only: for the
inadmissible mu = +1.25 it reads about 0.24 per radius decade here, while
resolutions 2048 and 4096 give trends of 2 or more.
"""

from cuspdiv import weights
from cuspdiv.geometry import CuspDomain

dom = CuspDomain(0.5)
sampling = weights.default_sampling(0.5)
sampling["resolution"] = 512          # keep the demo quick
plan = weights.build_ball_plan(dom, sampling)

for mu in (0.0, 0.5, -0.5, 1.25):
    est = weights.estimate_ap_constant(dom, weights.WeightSpec(mu), 2.0,
                                       plan=plan)
    verdict = "flat" if est.admissible_flat() else "not flat"
    print(f"mu = {mu:+.2f}: sup ratio = {est.value:10.3f}, "
          f"trend/radius-decade = {est.trend:7.3f}  -> {verdict}")
