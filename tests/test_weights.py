import math

import numpy as np
import pytest

from cuspdiv import geometry, weights
from cuspdiv.geometry import CuspDomain
from cuspdiv.weights import (
    WeightSpec,
    ball_grid,
    estimate_ap_constant,
    fs_family,
    fs_norm_closed_form,
    fs_quadrature_grid,
    tensor_grid,
    weighted_lp_norm,
    ys_family,
    ys_norm_closed_form,
    ys_quadrature_grid,
)


def test_weight_spec_rejects_unknown_mode():
    with pytest.raises(ValueError):
        WeightSpec(1.0, "taxicab")


def test_weight_spec_mu_zero_is_unit_weight():
    dom = CuspDomain(0.5)
    pts = np.array([[0.5, 0.1], [0.9, 0.0]])
    assert np.array_equal(WeightSpec(0.0).evaluate(dom, pts), [1.0, 1.0])


def test_tensor_grid_integrates_area_and_moments():
    dom = CuspDomain(0.5)
    g = tensor_grid(dom)
    # the truncated slivers {x < x_min} and {1 - |tau| < tau_min} cost ~1e-10
    assert g.total_weight() == pytest.approx(dom.area(), rel=1e-9)
    # integral of x over Omega: 2 int_0^1 x * x^2 dx = 1/2
    assert g.integrate(g.nodes[:, 0]) == pytest.approx(0.5, rel=1e-9)
    # odd in y
    assert abs(g.integrate(g.nodes[:, 1])) < 1e-14


def test_tensor_grid_handles_integrable_tip_singularity():
    # int_Omega x^(-1) = 2 int_0^1 x^(2-1) dx = 1 for alpha = 0.5
    dom = CuspDomain(0.5)
    g = tensor_grid(dom, n_x=60)
    assert g.integrate(1.0 / g.nodes[:, 0]) == pytest.approx(1.0, rel=1e-8)


def test_weighted_lp_norm_of_constant():
    dom = CuspDomain(0.75)
    g = tensor_grid(dom)
    val, rel = weighted_lp_norm(lambda p: np.ones(len(p)), dom, 0.0, 2.0, g)
    assert val == pytest.approx(math.sqrt(dom.area()), rel=1e-9)
    assert rel < 1e-9


def test_weighted_lp_norm_rejects_bad_p():
    dom = CuspDomain(0.5)
    g = tensor_grid(dom, n_x=10, n_tau=8)
    with pytest.raises(ValueError):
        weighted_lp_norm(lambda p: np.ones(len(p)), dom, 0.0, 1.0, g)


def test_weighted_lp_norm_rejects_nonfinite_integrand():
    dom = CuspDomain(0.5)
    g = tensor_grid(dom, n_x=10, n_tau=8)
    with pytest.raises(ValueError):
        weighted_lp_norm(lambda p: np.full(len(p), np.nan), dom, 0.0, 2.0, g,
                         estimate_error=False)


@pytest.mark.parametrize("alpha,beta,p,gap", [
    (0.5, 0.0, 2.0, 0.5),
    (0.5, 0.2, 2.0, 0.1),
    (0.75, -0.25, 2.0, 0.25),
    (0.5, 0.1, 3.0, 0.05),
])
def test_fs_norm_matches_closed_form(alpha, beta, p, gap):
    dom = CuspDomain(alpha)
    A = fs_norm_closed_form(alpha, beta, p, 0.0)["A"]
    s = A - gap
    exact = fs_norm_closed_form(alpha, beta, p, s)["value"]
    f = fs_family(alpha, beta, p, s)
    grid = fs_quadrature_grid(dom, beta, p, s)
    val, rel = weighted_lp_norm(f, dom, beta, p, grid)
    assert rel < 1e-3
    assert val**p == pytest.approx(exact, rel=5e-3)


@pytest.mark.parametrize("alpha,p,gap", [
    (0.5, 2.0, 0.5),
    (0.5, 2.0, 0.05),
    (0.75, 2.0, 0.25),
])
def test_ys_norm_matches_closed_form(alpha, p, gap):
    dom = CuspDomain(alpha)
    pp = p / (p - 1.0)
    B = ys_norm_closed_form(alpha, p, 0.0)["B"]
    s = B - gap
    exact = ys_norm_closed_form(alpha, p, s)["value"]
    f = ys_family(alpha, p, s)
    grid = ys_quadrature_grid(dom, p, s)
    val, rel = weighted_lp_norm(f, dom, 0.0, pp, grid)
    assert rel < 1e-3
    assert val**pp == pytest.approx(exact, rel=5e-3)


def test_closed_form_divergent_above_threshold():
    out = fs_norm_closed_form(0.5, 0.0, 2.0, 10.0)
    assert out["value"] == math.inf
    assert ys_norm_closed_form(0.5, 2.0, 10.0)["value"] == math.inf


def test_family_log_abs_consistent_with_values():
    f = fs_family(0.5, 0.1, 2.0, 0.0)
    y = ys_family(0.5, 2.0, 0.0)
    pts = np.array([[0.5, 0.1], [0.2, -0.02], [0.9, 0.5]])
    assert np.allclose(np.exp(f.log_abs(pts)), np.abs(f(pts)), rtol=1e-12)
    assert np.allclose(np.exp(y.log_abs(pts)), np.abs(y(pts)), rtol=1e-12)


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        fs_family(0.5, 0.6, 2.0, 0.0)         # beta p' >= 1
    A = fs_norm_closed_form(0.5, 0.0, 2.0, 0.0)["A"]
    with pytest.raises(ValueError):
        fs_family(0.5, 0.0, 2.0, A + 1.0)      # s above the threshold


def test_ball_grid_total_weight_matches_disk_area():
    dom = CuspDomain(0.5)
    dfn = lambda pts: geometry.distance(dom, pts)
    r = 0.1
    g = ball_grid(dfn, (0.5, 0.0), r, 1.0 / 1024.0)
    assert g.total_weight() == pytest.approx(math.pi * r * r, rel=2e-3)
    fine = g.refined()
    assert fine.total_weight() == pytest.approx(math.pi * r * r, rel=1e-3)


def test_ball_grid_montecarlo_weighted_average():
    # quadrature average of d^mu over a boundary ball vs a seeded Monte-Carlo
    dom = CuspDomain(0.5)
    dfn = lambda pts: geometry.distance(dom, pts)
    c, r, mu = np.array([0.5, 0.25]), 0.1, 1.5
    g = ball_grid(dfn, c, r, 1.0 / 2048.0)
    quad = g.integrate(dfn(g.nodes) ** mu) / g.total_weight()
    rng = np.random.default_rng(7)
    u = rng.uniform(-1.0, 1.0, size=(200_000, 2))
    u = u[np.hypot(u[:, 0], u[:, 1]) <= 1.0]
    mc = np.mean(dfn(c + r * u) ** mu)
    assert quad == pytest.approx(mc, rel=5e-3)


def test_ap_ratio_is_one_for_unit_weight_and_jensen_lower_bound():
    dom = CuspDomain(0.5)
    sampling = {
        "boundary_centers": np.array([[0.3, 0.3**2], [0.0, 0.0]]),
        "interior_centers": np.array([[0.5, 0.1]]),
        "radii": np.array([0.1, 0.05]),
        "resolution": 512,
    }
    plan = weights.build_ball_plan(dom, sampling)
    flat = estimate_ap_constant(dom, WeightSpec(0.0), 2.0, plan=plan)
    assert len(flat.per_ball) == 3 * 2
    for rec in flat.per_ball:
        assert rec["ratio"] == pytest.approx(1.0, abs=1e-12)
    for mu in (-0.5, 0.5, 1.25):
        est = estimate_ap_constant(dom, WeightSpec(mu), 2.0, plan=plan)
        for rec in est.per_ball:
            assert rec["ratio"] >= 1.0 - 1e-12


def test_estimate_ap_constant_small_plan():
    dom = CuspDomain(0.5)
    sampling = {
        "boundary_centers": np.array([[0.0, 0.0], [0.5, 0.25], [1.0, 0.0]]),
        "interior_centers": np.array([[0.5, 0.0]]),
        "radii": np.array([0.25, 0.125, 0.0625]),
        "resolution": 256,
    }
    est = estimate_ap_constant(dom, WeightSpec(0.5), 2.0, sampling=sampling)
    assert est.value >= 1.0
    assert len(est.per_ball) == 4 * 3
    assert est.admissible_flat(tol=2.0)
    # mu = 0 gives ratio exactly 1 on every ball
    flat = estimate_ap_constant(dom, WeightSpec(0.0), 2.0, sampling=sampling)
    assert flat.value == pytest.approx(1.0, abs=1e-12)
