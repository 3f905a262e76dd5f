"""End-to-end acceptance checks, one test per capability.

Each test exercises a full pipeline at its documented tolerance; the unit
suites cover the components in isolation.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from cuspdiv import cli, experiments, fem, geometry, potential, weights, whitney
from cuspdiv.geometry import CuspDomain
from cuspdiv.mesh import generate_graded_mesh, refine


def test_closed_form_norm_oracle():
    # quadrature ||f_s||^p vs the exact value 2/((1 - beta p') p' (A - s))
    # across alpha, beta, p and four distances to the blow-up threshold
    worst = 0.0
    for alpha in (0.5, 0.75, 1.0):
        dom = CuspDomain(alpha)
        betas = sorted({0.0, alpha - 1.0 + 0.1, (alpha - 1.0) / 2.0})
        for beta in betas:
            for p in (2.0, 3.0):
                if beta * p / (p - 1.0) >= 1.0:
                    continue
                A = weights.fs_norm_closed_form(alpha, beta, p, 0.0)["A"]
                for gap in (0.5, 0.25, 0.1, 0.02):
                    s = A - gap
                    f = weights.fs_family(alpha, beta, p, s)
                    g = weights.fs_quadrature_grid(dom, beta, p, s)
                    val = weights.weighted_lp_norm(f, dom, beta, p,
                                                   g.refined())
                    exact = weights.fs_norm_closed_form(alpha, beta, p,
                                                        s)["value"]
                    worst = max(worst, abs(val**p - exact) / exact)
    assert worst < 5e-3
    # spot value: alpha=1/2, beta=0, p=2, s=1 gives ||f_s||^2 = 2 exactly
    dom = CuspDomain(0.5)
    f = weights.fs_family(0.5, 0.0, 2.0, 1.0)
    g = weights.fs_quadrature_grid(dom, 0.0, 2.0, 1.0)
    val = weights.weighted_lp_norm(f, dom, 0.0, 2.0, g.refined())
    assert val**2 == pytest.approx(2.0, rel=5e-3)


def test_blowup_threshold_fit():
    # fitted thresholds within 1% of the exact A and B, exponents 1 +- 2%
    for alpha, beta, p in ((0.5, 0.0, 2.0), (0.75, 0.0, 3.0)):
        _, fits = experiments.optimality_sweep(alpha, beta, p)
        assert fits["A"].T == pytest.approx(fits["A_exact"], rel=0.01)
        assert fits["B"].T == pytest.approx(fits["B_exact"], rel=0.01)
        assert fits["A"].kappa == pytest.approx(1.0, abs=0.02)
        assert fits["B"].kappa == pytest.approx(1.0, abs=0.02)
    # at beta = alpha - 1 the two thresholds coincide
    _, fits = experiments.optimality_sweep(0.5, -0.5, 2.0)
    assert abs(fits["A"].T - fits["B"].T) <= 0.02 * fits["A"].T


def test_whitney_decomposition_suite():
    rng = np.random.default_rng(17)
    box = whitney.default_box()
    for alpha in (0.5, 1.0):
        dom = CuspDomain(alpha)
        dfn = lambda p: geometry.distance(dom, p)
        dec = whitney.decompose(dfn, box, kmax=9)
        # size band l <= d(Q, F) <= 4l on every accepted cube (the sampled
        # cube distance overestimates by at most diam/8)
        ell = dec.geometry()[2] * np.sqrt(2.0)
        d = dec.cube_set_distance(dec.cubes)
        assert np.all(d >= ell - 1e-12)
        assert np.all(d - ell / 8.0 <= 4.0 * ell + 1e-12)
        # exact disjointness: no accepted cube has an accepted ancestor
        rows = dec.cubes.tolist()
        seen = set(map(tuple, rows))
        assert len(seen) == len(rows)
        for kc, i, j in rows:
            for k in range(kc - 1, -1, -1):
                i >>= 1
                j >>= 1
                assert (k, i, j) not in seen
        # coverage of points farther than the finest resolvable band
        pts = rng.uniform([box.x0, box.y0],
                          [box.x0 + box.side, box.y0 + box.side],
                          size=(4000, 2))
        d = geometry.distance(dom, pts)
        eligible = d > 6.0 * box.side * 2.0 ** (-dec.kmax)
        covered = dec.covers(pts[eligible])
        assert covered.mean() >= 0.999
        # generation-count slope of the boundary (a 1-set) near 1
        deep = whitney.decompose(dfn, box, kmax=12)
        slope = whitney.generation_count_slope(
            deep, (0.5, dom.curve(0.5)), 0.4, 9, 12)
        assert 0.9 <= slope <= 1.1


def test_ap_weight_evidence():
    import gc

    dom = CuspDomain(0.5)
    # one plan in memory at a time: the node/distance tables at resolution
    # 4096 are large, so results are reduced to scalars per resolution
    results = {}
    for res in (2048, 4096):
        sampling = weights.default_sampling(0.5)
        sampling["resolution"] = res
        plan = weights.build_ball_plan(dom, sampling)
        per_mu = {}
        for mu in (0.0, -0.5, 0.5, 1.25):
            est = weights.estimate_ap_constant(dom, weights.WeightSpec(mu),
                                               2.0, plan=plan)
            per_mu[mu] = (est.value, est.trend)
        results[res] = per_mu
        del plan
        gc.collect()

    # unit weight: every ball ratio is exactly 1
    assert results[2048][0.0][0] == pytest.approx(1.0, abs=1e-6)
    # admissible exponents: the supremum is stable under resolution doubling
    for mu in (-0.5, 0.5):
        lo = results[2048][mu][0]
        hi = results[4096][mu][0]
        assert abs(hi - lo) / lo < 0.10
    # inadmissible exponent: per-ball ratios grow with shrinking radius
    assert results[2048][1.25][1] >= 2.0
    assert results[4096][1.25][1] >= 2.0


def test_potential_right_inverse():
    f, v_exact = potential.disk_indicator_field((0.5, 0.0), 0.1)
    src = potential.SourceField.from_function(f, 256)
    sol = potential.newtonian_solve(src)
    # far-field error below 1%
    pts = np.array([[0.9, 0.0], [0.2, 0.4], [0.8, -0.5], [0.1, -0.1]])
    ve = v_exact(pts)
    err = np.abs(sol.velocity(pts) - ve).max(axis=1)
    assert np.all(err / np.hypot(ve[:, 0], ve[:, 1]) < 0.01)
    # the FD divergence defect is O(step^2): halving the step quarters it
    # (checked where the exact divergence vanishes, away from the source)
    zero = lambda p: np.zeros(len(np.atleast_2d(p)))
    probes = np.array([[0.9, 0.0], [0.2, 0.4], [0.8, -0.5]])
    r1 = potential.divergence_residual(sol, zero, probes, step=0.05)
    r2 = potential.divergence_residual(sol, zero, probes, step=0.025)
    assert 3.5 <= r1 / r2 <= 4.5


def test_discrete_right_inverse_ratios():
    alpha = 0.75
    f = lambda p: (p[:, 0] < 0.2).astype(float)
    mesh = generate_graded_mesh(CuspDomain(alpha), 0.2)
    ratios = []
    for _ in range(3):
        _, info = fem.solve_div_right_inverse(mesh, alpha, f)
        fw = fem.source_weighted_norm(mesh, f, alpha - 1.0)
        ratios.append(info["h1_norm"] / fw)
        mesh = refine(mesh)
    assert max(ratios) / min(ratios) - 1.0 < 0.15
    # contrast: without the weight the ratio grows as the source
    # concentrates at the tip
    rows = experiments.necessity_demo(alpha)
    r_u = [r.values["r_u"] for r in rows]
    assert r_u[-1] / r_u[0] >= 1.5


def test_stokes_solver():
    alpha = 0.75
    dom = CuspDomain(alpha)
    infsups = []
    for h in (0.24, 0.12, 0.06):
        mesh = generate_graded_mesh(dom, h)
        system = fem.assemble(mesh, alpha)
        infsups.append(fem.discrete_infsup(mesh, alpha, system=system))
        if h == 0.12:
            f = lambda p: np.column_stack([np.ones(len(p)),
                                           np.zeros(len(p))])
            _, q, info = fem.solve_stokes(mesh, alpha, f, system=system)
            assert info["div_residual"] <= 1e-10
            assert info["energy_identity_defect"] <= 1e-10
            # integrability of the physical pressure at r = 1.3 < 4/3
            lr = fem.pressure_lr_norm(mesh, alpha, q.coeffs, 1.3)
            assert lr["norm"] <= lr["bound"] + 1e-12
    assert min(infsups) > 0.0
    assert max(infsups) / min(infsups) - 1.0 < 0.20


def test_korn_poincare_stability_admissible():
    for alpha, beta in ((0.5, 0.5), (0.5, 1.0), (0.75, 0.75)):
        dom = CuspDomain(alpha)
        korn, poin = [], []
        for lvl, h in enumerate((0.2, 0.1, 0.05)):
            mesh = generate_graded_mesh(dom, h)
            korn.append(fem.korn_best_constant(mesh, alpha, beta,
                                               level=lvl).constant)
            poin.append(fem.improved_poincare_constant(mesh, alpha, beta,
                                                       level=lvl).constant)
        assert max(korn) / min(korn) - 1.0 < 0.20, (alpha, beta, korn)
        assert max(poin) / min(poin) - 1.0 < 0.20, (alpha, beta, poin)


def test_korn_poincare_growth_below_admissible_range():
    # korn_best_constant weighs eps(u) by d^(alpha-1) times the Du weight,
    # the optimal power, so every beta gives a bounded quotient: a bending
    # field on [x, 2x] has |Du| ~ phi/x and |eps(u)| ~ x^(1/alpha) phi/x^2,
    # and d ~ x^(1/alpha) scales both weighted norms alike.  A pair outside
    # the admissible range is the unweighted one (alpha = beta = 1 sets both
    # exponents to 0 on the mesh's own Omega(1/2)), whose Korn inequality
    # fails at an external cusp (Acosta, Duran & Lopez Garcia, Proc. AMS
    # 141, 2013); its constant scales like 1/x_tip.  The default truncation
    # keeps x_tip = 0.1 for every h above 0.026, so the levels halve x_tip
    # explicitly to approach the cusp.
    dom = CuspDomain(0.5)
    ball = fem.default_ball(dom.alpha)
    consts = []
    for lvl, x_tip in enumerate((0.025, 0.0125, 0.00625)):
        mesh = generate_graded_mesh(dom, 0.2, x_tip=x_tip)
        est = fem.korn_best_constant(mesh, 1.0, 1.0, ball=ball, level=lvl)
        # growth must not come from an unconverged eigensolve
        assert est.residual <= 1e-4, (x_tip, est.residual)
        consts.append(est.constant)
    for a, b in zip(consts, consts[1:]):
        assert b / a >= 1.5, f"constants {consts} do not grow 1.5x/level"


def test_cli_determinism(tmp_path):
    def run_twice(args, outputs):
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{args[0]}_{tag}"
            assert cli.main(args + ["--outdir", str(out)]) == 0
            dirs.append(out)
        for name in outputs:
            assert (dirs[0] / name).read_bytes() == \
                (dirs[1] / name).read_bytes()
        # summaries agree apart from the manifest pointer (the manifest
        # itself carries wall time and is excluded from the comparison)
        sub = args[0]
        payloads = []
        for d in dirs:
            p = json.loads((d / f"{sub}_summary.json").read_text())
            p.pop("manifest")
            payloads.append(p)
        assert payloads[0] == payloads[1]

    run_twice(["whitney", "--alpha", "0.5", "--kmax", "7"],
              ["whitney_alpha0.5_k7.txt"])
    run_twice(["ap-check", "--alpha", "0.5", "--mu", "0.5",
               "--resolution", "512"],
              ["ap_alpha0.5_mu0.5_p2.csv"])
    # the second level is the 4,055-dof Poincare problem; both sweeps pin the
    # seeded start vector of the eigensolve
    for sweep in ("korn", "poincare"):
        run_twice([f"{sweep}-sweep", "--alpha", "0.75", "--levels", "2",
                   "--h", "0.2"],
                  [f"{sweep}_alpha0.75_beta0.75.csv"])
    run_twice(["optimality-sweep", "--alpha", "0.75", "--beta", "0",
               "--p", "3"],
              ["optimality_alpha0.75_beta0_p3.csv"])
    # the 8,533-unknown saddle, factored in its fill-reducing order
    run_twice(["stokes", "--alpha", "0.75", "--h", "0.1"], [])
    run_twice(["div-solve", "--alpha", "0.75", "--method", "fem",
               "--h", "0.1"], [])
