import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cuspdiv import geometry, weights, whitney
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


def test_tensor_grid_integrates_area_and_moments():
    dom = CuspDomain(0.5)
    g = tensor_grid(dom)
    # the truncated slivers {x < x_min} and {1 - |tau| < tau_min} cost ~1e-10
    assert np.sum(g.weights) == pytest.approx(dom.area(), rel=1e-9)
    # integral of x over Omega: 2 int_0^1 x * x^2 dx = 1/2
    assert np.dot(g.weights, g.nodes[:, 0]) == pytest.approx(0.5, rel=1e-9)
    # odd in y
    assert abs(np.dot(g.weights, g.nodes[:, 1])) < 1e-14


def test_tensor_grid_u_factor_resolves_tiny_margins():
    # 2 * int_{tau_min}^1 u^(-1/2) du with tau_min far below the spacing of
    # doubles next to tau = 1, where 1 - u rounds to 1
    g = tensor_grid(CuspDomain(0.5), order=12, n_tau=100, tau_min=1e-30)
    total = float(np.sum(np.exp(g.log_wu) * g.u ** -0.5))
    assert total == pytest.approx(4.0 * (1.0 - 1e-15), rel=1e-12)


def test_tensor_grid_handles_integrable_tip_singularity():
    # int_Omega x^(-1) = 2 int_0^1 x^(2-1) dx = 1 for alpha = 0.5
    dom = CuspDomain(0.5)
    g = tensor_grid(dom, n_x=60)
    assert np.dot(g.weights, 1.0 / g.nodes[:, 0]) == pytest.approx(1.0,
                                                                 rel=1e-8)


@pytest.mark.parametrize("bad", [
    {"order": 0}, {"n_x": 0}, {"n_tau": 0},
    {"x_min": 0.0}, {"x_min": 1.0}, {"x_min": 2.0}, {"x_min": math.nan},
    {"tau_min": 0.0}, {"tau_min": 1.0}, {"tau_min": 1.5}, {"tau_min": -1e-3},
])
def test_tensor_grid_rejects_bad_parameters(bad):
    # x_min = 2 put nodes outside Omega with NaN log weights, n_x = 0 gave
    # an empty grid and tau_min = 1.5 NaN weights
    with pytest.raises(ValueError):
        tensor_grid(CuspDomain(0.5), **bad)


@pytest.mark.parametrize("order", [1, 10, 12, 16])
def test_gauss_rule_is_shared_read_only_leggauss(order):
    rule = geometry._gauss_rule(order)
    assert geometry._gauss_rule(order) is rule
    for got, fresh in zip(rule, np.polynomial.legendre.leggauss(order)):
        assert got.tobytes() == fresh.tobytes()
        with pytest.raises(ValueError):
            got[0] = 0.0


_ONE = (np.zeros_like, np.zeros_like)      # log |f| of f = 1, factored


def _norm_and_rel(family, dom, gamma, q, grid):
    """(norm on grid.refined(), its relative distance to the norm on grid)."""
    coarse = weighted_lp_norm(family, dom, gamma, q, grid)
    fine = weighted_lp_norm(family, dom, gamma, q, grid.refined())
    return fine, abs(fine - coarse) / fine


def test_weighted_lp_norm_of_constant():
    dom = CuspDomain(0.75)
    g = tensor_grid(dom)
    val, rel = _norm_and_rel(_ONE, dom, 0.0, 2.0, g)
    assert val == pytest.approx(math.sqrt(dom.area()), rel=1e-9)
    assert rel < 1e-9
    at_nodes = weights.lp_norms_at_nodes(np.zeros(len(g.nodes)), dom, 0.0,
                                         2.0, g)
    assert at_nodes[0] == pytest.approx(math.sqrt(dom.area()), rel=1e-9)


def test_weighted_lp_norm_rejects_bad_p():
    dom = CuspDomain(0.5)
    g = tensor_grid(dom, n_x=10, n_tau=8)
    with pytest.raises(ValueError, match="p must exceed 1"):
        weighted_lp_norm(_ONE, dom, 0.0, 1.0, g)


def test_weighted_lp_norm_rejects_nonfinite_integrand():
    # the 2-D node sums reject a non-finite integrand
    dom = CuspDomain(0.5)
    g = tensor_grid(dom, n_x=10, n_tau=8)
    with pytest.raises(ValueError):
        weights.lp_norms_at_nodes(np.full(len(g.nodes), np.nan), dom, 0.0,
                                  2.0, g)


@pytest.mark.parametrize("alpha,beta,p,gap", [
    (0.5, 0.0, 2.0, 0.5),
    (0.5, 0.2, 2.0, 0.1),
    (0.75, -0.25, 2.0, 0.25),
    (0.5, 0.1, 3.0, 0.05),
    # margins 3.2e-21 and 1.0e-39: below the spacing of doubles near tau = 1
    (0.5, 0.4, 2.0, 0.25),
    (1.0, 0.45, 2.0, 0.02),
])
def test_fs_norm_matches_closed_form(alpha, beta, p, gap):
    dom = CuspDomain(alpha)
    A = fs_norm_closed_form(alpha, beta, p, 0.0)["A"]
    s = A - gap
    exact = fs_norm_closed_form(alpha, beta, p, s)["value"]
    f = fs_family(alpha, beta, p, s)
    grid = fs_quadrature_grid(dom, beta, p, s)
    val, rel = _norm_and_rel(f, dom, beta, p, grid)
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
    val, rel = _norm_and_rel(f, dom, 0.0, pp, grid)
    assert rel < 1e-3
    assert val**pp == pytest.approx(exact, rel=5e-3)


def test_closed_form_divergent_above_threshold():
    out = fs_norm_closed_form(0.5, 0.0, 2.0, 10.0)
    assert out["value"] == math.inf
    assert ys_norm_closed_form(0.5, 2.0, 10.0)["value"] == math.inf


def _fs_log_abs(dom, beta, p, s, pts):
    """log |f_s| at pts from its definition x**(-s/(p-1)) d**(-p' beta), d
    the surrogate distance."""
    d = geometry.surrogate_distance(dom, pts)
    pp = p / (p - 1.0)
    return (-s / (p - 1.0)) * np.log(pts[:, 0]) - pp * beta * np.log(d)


def _ys_log_abs(s, pts):
    """log |y x**(-s-1)| at pts."""
    with np.errstate(divide="ignore"):
        return np.log(np.abs(pts[:, 1])) - (s + 1.0) * np.log(pts[:, 0])


def test_family_log_abs_consistent_with_values():
    dom = CuspDomain(0.5)
    pts = np.array([[0.5, 0.1], [0.2, -0.02], [0.9, 0.5]])
    u = 1.0 - np.abs(pts[:, 1]) / pts[:, 0] ** 2.0
    x, y, s = pts[:, 0], pts[:, 1], 0.3
    for fam, value, log_abs in (
            (fs_family(0.5, 0.1, 2.0, s),
             x ** -s * geometry.surrogate_distance(dom, pts) ** -0.2,
             _fs_log_abs(dom, 0.1, 2.0, s, pts)),
            (ys_family(0.5, 2.0, s), y * x ** (-s - 1.0), _ys_log_abs(s, pts))):
        log_x, log_u = fam
        assert np.allclose(np.exp(log_x(x) + log_u(u)), np.abs(value),
                           rtol=1e-12)
        assert np.allclose(log_x(x) + log_u(u), log_abs, rtol=1e-12,
                           atol=1e-12)


def _family_norm(fam, alpha, beta, p, gap):
    """(f, domain, gamma, q, grid, exact ||f||^q, log |f| at points) at
    s = T - gap, where the norm is that of L^q(Omega, gamma)."""
    dom = CuspDomain(alpha)
    if fam == "fs":
        s = fs_norm_closed_form(alpha, beta, p, 0.0)["A"] - gap
        grid = fs_quadrature_grid(dom, beta, p, s)
        f, gamma, q = fs_family(alpha, beta, p, s), beta, p
        exact = fs_norm_closed_form(alpha, beta, p, s)["value"]
        log_abs = lambda pts: _fs_log_abs(dom, beta, p, s, pts)
    else:
        s = ys_norm_closed_form(alpha, p, 0.0)["B"] - gap
        grid = ys_quadrature_grid(dom, p, s)
        f, gamma, q = ys_family(alpha, p, s), 0.0, p / (p - 1.0)
        exact = ys_norm_closed_form(alpha, p, s)["value"]
        log_abs = lambda pts: _ys_log_abs(s, pts)
    return f, dom, gamma, q, grid, exact, log_abs


@pytest.mark.parametrize("fam,beta", [("fs", 0.0), ("fs", 0.1), ("ys", 0.0)])
def test_norm_keeps_tip_mass(fam, beta):
    # the 2-D weights x-weight * tau-weight * x**(1/alpha) underflow to 0
    # once x**(1 + 1/alpha) < 1e-308; the 2-D path then drops the tip's
    # contribution (relative error -6.3e-4, which its refined grid drops
    # too), while the factors keep it up to the 0.2 * tol truncation tail
    f, dom, gamma, q, grid, exact, _ = _family_norm(fam, 0.5, beta, 3.0,
                                                    0.02)
    val, rel = _norm_and_rel(f, dom, gamma, q, grid)
    assert rel < 1e-3
    assert abs(val**q / exact - 1.0) <= 3e-4


def _surrogate_norm_at_nodes(log_abs, dom, gamma, q, grid):
    """||f d^gamma||_{L^q} summed at the 2-D nodes of grid, d the surrogate
    distance: the product sums' oracle."""
    d = geometry.surrogate_distance(dom, grid.nodes)
    with np.errstate(divide="ignore"):      # tip weights may underflow
        logc = (q * log_abs(grid.nodes) + gamma * q * np.log(d)
                + np.log(grid.weights))
    return float(np.sum(np.exp(logc)) ** (1.0 / q))


@settings(max_examples=30, deadline=None)
@given(fam=st.sampled_from(["fs", "ys"]), alpha=st.floats(0.5, 1.0),
       p=st.sampled_from([2.0, 3.0]), beta_frac=st.floats(0.0, 0.95),
       gap=st.floats(0.02, 0.5))
def test_product_norm_matches_2d_oracle(fam, alpha, p, beta_frac, gap):
    # beta from alpha - 1 up to 95% of the bound 1/p'
    beta = (alpha - 1.0) + beta_frac * (1.0 - 1.0 / p - (alpha - 1.0))
    f, dom, gamma, q, grid, _, log_abs = _family_norm(fam, alpha, beta, p,
                                                      gap)
    # where the 2-D arrays are exact (checked at the smallest x- and
    # u-nodes): no tip weight underflows, and the tau-nodes 1 - u resolve
    # the margin.  Their absolute rounding eps moves
    # the integrand u**e (e = -beta p' for f_s, 0 for y x^(-s-1)) by a
    # relative eps * u_min**e; at u_min = 1e-13, e = -0.66 the 2-D path is
    # 3.4e-9 off the exact u-integral, which the u-panels hit to rounding
    e = -beta * p / (p - 1.0) if fam == "fs" else 0.0
    assume(grid.x[0] ** (1.0 + 1.0 / alpha) >= 1e-300)
    assume(grid.u[0] >= 1e-14
           and np.finfo(float).eps * grid.u[0] ** min(e, 0.0) <= 1e-12)
    # cost: the refined 2-D oracle has 4 (16/12)^2 times the nodes
    assume(len(grid.x) * 2 * len(grid.u) <= 400_000)
    vals = [weighted_lp_norm(f, dom, gamma, q, g)
            for g in (grid, grid.refined())]
    refs = [_surrogate_norm_at_nodes(log_abs, dom, gamma, q, g)
            for g in (grid, grid.refined())]
    assert vals == pytest.approx(refs, rel=1e-12)
    rel, ref_rel = (abs(v[1] - v[0]) / v[1] for v in (vals, refs))
    assert rel == pytest.approx(ref_rel, abs=1e-12)


def _reference_tensor_arrays(domain, order, n_x, n_tau, x_min, tau_min):
    """Nodes and weights of the eager 2-D construction of tensor_grid."""
    g = domain.gamma
    xb = np.geomspace(1.0, x_min, n_x + 1)
    xn, xw = weights._gauss_panels(xb[::-1].copy(), order)
    tb = 1.0 - np.geomspace(1.0, tau_min, n_tau + 1)
    tn_pos, tw_pos = weights._gauss_panels(tb, order)
    tn = np.concatenate([-tn_pos[::-1], tn_pos])
    tw = np.concatenate([tw_pos[::-1], tw_pos])
    X, T = np.meshgrid(xn, tn, indexing="ij")
    WX, WT = np.meshgrid(xw, tw, indexing="ij")
    nodes = np.column_stack([X.ravel(), (T * X**g).ravel()])
    return nodes, (WX * WT * X**g).ravel()


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(0.3, 1.0), order=st.integers(2, 12),
       n_x=st.integers(2, 40), n_tau=st.integers(2, 30),
       x_exp=st.floats(1.0, 240.0), tau_exp=st.floats(1.0, 40.0))
def test_lazy_tensor_arrays_match_eager_construction(alpha, order, n_x, n_tau,
                                                     x_exp, tau_exp):
    dom = CuspDomain(alpha)
    x_min, tau_min = 10.0 ** -x_exp, 10.0 ** -tau_exp
    grid = tensor_grid(dom, order=order, n_x=n_x, n_tau=n_tau, x_min=x_min,
                       tau_min=tau_min)
    nodes, w = _reference_tensor_arrays(dom, order, n_x, n_tau, x_min,
                                        tau_min)
    assert np.array_equal(grid.nodes, nodes)
    assert np.array_equal(grid.weights, w)


@pytest.mark.parametrize("beta,p", [(0.5, 2.0), (0.6, 2.0), (1.0 / 3.0, 1.5),
                                    (0.9, 1.5), (0.1, 1.05)])
def test_fs_functions_reject_beta_p_prime_from_one_up(beta, p):
    assert beta * p / (p - 1.0) >= 1.0
    dom = CuspDomain(0.5)
    for call in (lambda: fs_family(0.5, beta, p, 0.0),
                 lambda: fs_quadrature_grid(dom, beta, p, 0.0),
                 lambda: fs_norm_closed_form(0.5, beta, p, 0.0)):
        with pytest.raises(ValueError, match="beta \\* p' must be below 1"):
            call()


def test_family_parameter_validation():
    A = fs_norm_closed_form(0.5, 0.0, 2.0, 0.0)["A"]
    with pytest.raises(ValueError):
        fs_family(0.5, 0.0, 2.0, A + 1.0)      # s above the threshold


def test_ball_grid_total_weight_matches_disk_area(monkeypatch):
    dom = CuspDomain(0.5)
    dfn = lambda pts: geometry.distance(dom, pts)
    r = 0.1
    g = ball_grid(dfn, (0.5, 0.0), r, 1.0 / 1024.0)
    assert np.sum(g.weights) == pytest.approx(math.pi * r * r, rel=2e-3)
    # halved floor and rim resolution
    monkeypatch.setattr(weights, "_RIM_FRAC", 1.0 / 256.0)
    fine = ball_grid(dfn, (0.5, 0.0), r, 1.0 / 2048.0)
    assert np.sum(fine.weights) == pytest.approx(math.pi * r * r, rel=1e-3)


def test_ball_grid_montecarlo_weighted_average():
    # quadrature average of d^mu over a boundary ball vs a seeded Monte-Carlo
    dom = CuspDomain(0.5)
    dfn = lambda pts: geometry.distance(dom, pts)
    c, r, mu = np.array([0.5, 0.25]), 0.1, 1.5
    g = ball_grid(dfn, c, r, 1.0 / 2048.0)
    quad = np.dot(g.weights, dfn(g.nodes) ** mu) / np.sum(g.weights)
    rng = np.random.default_rng(7)
    u = rng.uniform(-1.0, 1.0, size=(200_000, 2))
    u = u[np.hypot(u[:, 0], u[:, 1]) <= 1.0]
    mc = np.mean(dfn(c + r * u) ** mu)
    assert quad == pytest.approx(mc, rel=5e-3)


def ball_grid_oracle(distance_fn, center, r, delta_min, open_frac=0.25,
                     rim_frac=1.0 / 128.0):
    """ball_grid as it was before it skipped distances: the distance at every
    cell centre of every level, and the split rule written out in full."""
    cx, cy = float(center[0]), float(center[1])
    cells = np.array([[cx - r, cy - r, 2.0 * r]])
    done = []
    while len(cells):
        x0, y0, s = cells[:, 0], cells[:, 1], cells[:, 2]
        mx, my = x0 + s / 2.0, y0 + s / 2.0
        rad = np.hypot(mx - cx, my - cy)
        half_diag = s * (math.sqrt(2.0) / 2.0)
        keep = rad - half_diag <= r
        d = np.asarray(distance_fn(np.column_stack([mx, my])), dtype=float)
        stop = np.maximum(delta_min, d * open_frac)
        rim = np.abs(rad - r) <= half_diag
        stop = np.where(rim, np.maximum(delta_min,
                                        np.minimum(stop, rim_frac * r)), stop)
        split = keep & (s > stop)
        done.append(cells[keep & ~split])
        parents = cells[split]
        if len(parents) == 0:
            break
        h = parents[:, 2:3] / 2.0
        cells = np.concatenate(
            [np.column_stack([parents[:, 0] + ox * h[:, 0],
                              parents[:, 1] + oy * h[:, 0], h[:, 0]])
             for ox, oy in ((0, 0), (1, 0), (0, 1), (1, 1))])
    cells = np.concatenate(done)
    x0, y0, s = cells[:, 0], cells[:, 1], cells[:, 2]
    g2 = weights._G2
    nodes = np.concatenate(
        [np.column_stack([x0 + (0.5 + ox) * s, y0 + (0.5 + oy) * s])
         for ox, oy in ((-g2, -g2), (g2, -g2), (-g2, g2), (g2, g2))])
    wts = np.concatenate([s * s / 4.0] * 4)
    inside = np.hypot(nodes[:, 0] - cx, nodes[:, 1] - cy) <= r
    return nodes[inside], wts[inside]


def exhaustive_ball_grid(distance_fn, center, r, delta_min):
    """ball_grid with the distance at every cell centre, the hypot of every
    centre and a hypot test at every node (test oracle)."""
    cx, cy = float(center[0]), float(center[1])
    radii = np.atleast_1d(np.asarray(r, dtype=float))

    def classify(k, b, mx, my, s, dp):
        r, s = radii[b], s[b]
        rad = np.hypot(mx - cx, my - cy)
        half_diag = s * (math.sqrt(2.0) / 2.0)
        keep = rad - half_diag <= r
        rim = np.abs(rad - r) <= half_diag
        d = np.asarray(distance_fn(np.column_stack([mx, my])), dtype=float)
        split = keep & (s > delta_min) & (
            (rim & (s > weights._RIM_FRAC * r)) | (s > d * weights._OPEN_FRAC))
        return keep & ~split, split, d

    roots = [whitney.Box(cx - q, cy - q, 2.0 * q) for q in radii]
    rows = whitney.refine(roots, classify)
    nodes, wts, counts = [], [], []
    for b, q in enumerate(radii):
        x0, y0, s = roots[b].cells(*rows[rows[:, 0] == b, 1:].T)
        n = 0
        for ox, oy in ((-1, -1), (1, -1), (-1, 1), (1, 1)):
            x = x0 + (0.5 + ox * weights._G2) * s
            y = y0 + (0.5 + oy * weights._G2) * s
            inside = np.hypot(x - cx, y - cy) <= q
            nodes.append(np.column_stack([x[inside], y[inside]]))
            wts.append((s * s / 4.0)[inside])
            n += np.count_nonzero(inside)
        counts.append(n)
    return np.concatenate(nodes), np.concatenate(wts), counts


@st.composite
def ball_case(draw):
    """alpha, a centre (the tip, on an arc, on the edge or anywhere near
    Omega), 1-4 radii (powers of two or not) and a resolution."""
    alpha = draw(st.sampled_from([0.3, 0.5, 0.75, 1.0]))
    t = draw(st.floats(0.0, 1.0))
    centre = draw(st.sampled_from([
        (0.0, 0.0), (t, t ** (1.0 / alpha)), (t, -t ** (1.0 / alpha)),
        (1.0, 2.0 * t - 1.0),
        (draw(st.floats(-0.2, 1.2)), draw(st.floats(-1.2, 1.2)))]))
    radii = draw(st.lists(st.one_of(
        st.sampled_from([2.0 ** -k for k in range(2, 11)]),
        st.floats(1e-3, 0.3)), min_size=1, max_size=4))
    return alpha, centre, radii, draw(st.sampled_from([64, 256, 1024, 2048]))


@settings(max_examples=40, deadline=None)
@given(ball_case())
def test_ball_grid_matches_exhaustive_oracle(case):
    # the certified distance and hypot skips change no node, weight or count
    alpha, centre, radii, resolution = case
    dom = CuspDomain(alpha)
    every, points = [], []

    def counting(calls):
        def fn(pts):
            assert len(pts) > 0
            calls.append(len(pts))
            return geometry.distance(dom, pts)
        return fn

    nodes, wts, counts = exhaustive_ball_grid(counting(every), centre, radii,
                                              1.0 / resolution)
    g = ball_grid(counting(points), centre, radii, 1.0 / resolution)
    assert g.nodes.tobytes() == nodes.tobytes()
    assert g.weights.tobytes() == wts.tobytes()
    assert g.counts.tolist() == counts
    assert sum(points) <= sum(every)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75])
def test_ball_grid_skips_undeciding_distances(alpha):
    dom = CuspDomain(alpha)
    balls = {"tip": (0.0, 0.0), "arc": (0.4, 0.4 ** dom.gamma),
             "edge": (1.0, 0.1), "interior": (0.6, 0.0)}
    for name, c in balls.items():
        for r in (0.25, 1.0 / 32.0):
            counts = []

            def dfn(pts, counts=counts):
                counts.append(len(pts))
                return geometry.distance(dom, pts)

            g = ball_grid(dfn, c, r, 1.0 / 512.0)
            new = sum(counts)
            counts.clear()
            nodes, wts = ball_grid_oracle(dfn, c, r, 1.0 / 512.0)
            assert np.array_equal(g.nodes, nodes), (name, r)
            assert np.array_equal(g.weights, wts), (name, r)
            assert new < sum(counts), (name, r)


@pytest.mark.parametrize("r", [0.1, 0.07])
def test_ball_grid_non_dyadic_radius_matches_oracle(r):
    # cell corners and centres are box.x0 + i * s and box.x0 + (i + 0.5) * s,
    # one rounding each, where the oracle adds half sides generation by
    # generation; for a power-of-two radius (every plan radius) both agree
    # to the bit, otherwise the nodes may differ in the last bits
    dom = CuspDomain(0.5)
    dfn = lambda pts: geometry.distance(dom, pts)
    c = (0.4, 0.16)
    g = ball_grid(dfn, c, r, 1.0 / 512.0)
    nodes, wts = ball_grid_oracle(dfn, c, r, 1.0 / 512.0)
    assert g.nodes.shape == nodes.shape
    assert np.all(np.abs(g.nodes - nodes) <= 4.0 * np.spacing(np.abs(nodes)))
    assert np.array_equal(g.weights, wts)


@pytest.mark.parametrize("alpha", [0.3, 0.75])
def test_ball_grid_radii_vector_matches_scalar_calls(alpha):
    # the radii of one centre refined together give, ball by ball, the grid
    # of each radius alone, bit for bit; with one distance call per
    # generation for all of them
    dom = CuspDomain(alpha)
    radii = np.array([0.25, 0.07, 1.0 / 32.0, 0.1, 1.0 / 512.0])
    for c in [(0.0, 0.0), (0.4, 0.4 ** dom.gamma), (1.0, 0.1), (0.6, 0.0)]:
        calls = []

        def dfn(pts):
            calls.append(len(pts))
            return geometry.distance(dom, pts)

        g = ball_grid(dfn, c, radii, 1.0 / 512.0)
        vector_calls = len(calls)
        calls.clear()
        alone = [ball_grid(dfn, c, r, 1.0 / 512.0) for r in radii]
        assert vector_calls < len(calls)
        assert all(np.array_equal(a.counts, [len(a.weights)]) for a in alone)
        assert np.array_equal(g.counts, [len(a.weights) for a in alone])
        for field in ("nodes", "weights"):
            assert np.array_equal(getattr(g, field), np.concatenate(
                [getattr(a, field) for a in alone]))


def plan_digest(dom, sampling):
    """sha256 of a ball plan: each ball's grid nodes and weights as raw
    float64 and its node distances to 12 digits (their last bits come from
    vectorized exp/log/power, which may round differently across CPUs)."""
    plan = weights.build_ball_plan(dom, sampling)
    dfn = lambda pts: geometry.distance(dom, pts)
    h = hashlib.sha256()
    for ball in plan["balls"]:
        g = ball_grid(dfn, ball["center"], ball["radius"],
                      1.0 / sampling["resolution"])
        assert np.array_equal(g.weights, ball["weights"])
        h.update(g.nodes.astype("<f8").tobytes())
        h.update(ball["weights"].astype("<f8").tobytes())
        h.update(" ".join(f"{v:.12e}" for v in ball["d"]).encode())
    return h.hexdigest()


GOLDEN_PLAN_SAMPLING = {
    "boundary_centers": np.array([[0.0, 0.0], [0.3, 0.3 ** (4.0 / 3.0)]]),
    "interior_centers": np.array([[0.5, 0.1]]),
    "radii": np.array([0.125, 1.0 / 32.0]),
    "resolution": 256,
}
# recorded from the ball grids with float cell rows and their own split loop
GOLDEN_PLAN = \
    "14146bbde973dfc4afd566d5bef388dcdfa1c9fe4a6f6a1ba88b68f1ba0bfda6"


def test_golden_ball_plan():
    dom = CuspDomain(0.75)
    assert plan_digest(dom, GOLDEN_PLAN_SAMPLING) == GOLDEN_PLAN


def test_build_ball_plan_refines_each_centre_once(monkeypatch):
    # one refinement per centre, at most one distance call per generation of
    # it, then one for the node distances of all its balls
    sampling = GOLDEN_PLAN_SAMPLING
    centres = (len(sampling["boundary_centers"])
               + len(sampling["interior_centers"]))
    balls = centres * len(sampling["radii"])
    # the largest box, of side 2 r, splits until its cells reach the floor
    generations = 1 + math.ceil(math.log2(2.0 * max(sampling["radii"])
                                          * sampling["resolution"]))
    calls = {"distance": 0, "refine": 0, "classify": 0, "refining": 0}
    distance, refine = geometry.distance, whitney.refine

    def counted_distance(*args):
        calls["distance"] += 1
        return distance(*args)

    def counted_refine(roots, classify):
        calls["refine"] += 1

        def counted_classify(*args):
            calls["classify"] += 1
            before = calls["distance"]
            out = classify(*args)
            calls["refining"] += calls["distance"] - before
            return out

        return refine(roots, counted_classify)

    monkeypatch.setattr(geometry, "distance", counted_distance)
    monkeypatch.setattr(whitney, "refine", counted_refine)
    plan = weights.build_ball_plan(CuspDomain(0.75), sampling)
    assert len(plan["balls"]) == balls
    assert calls["refine"] == centres
    assert calls["classify"] <= centres * generations
    assert calls["refining"] <= calls["classify"]
    assert calls["distance"] - calls["refining"] == centres


def test_estimate_ap_constant_rejects_a_plan_of_another_domain():
    sampling = {"boundary_centers": np.array([[0.5, 0.5 ** (4.0 / 3.0)]]),
                "interior_centers": np.array([[0.5, 0.0]]),
                "radii": np.array([0.25, 0.125]), "resolution": 512}
    plan = weights.build_ball_plan(CuspDomain(0.75), sampling)
    with pytest.raises(ValueError, match="plan was built for CuspDomain"
                                         r"\(alpha=0.75\), not CuspDomain"
                                         r"\(alpha=0.5\)"):
        estimate_ap_constant(CuspDomain(0.5), WeightSpec(0.5), 2.0, plan)
    # an equal domain is the same domain
    est = estimate_ap_constant(CuspDomain(0.75), WeightSpec(0.0), 2.0, plan)
    assert est.value == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("field, value, message", [
    ("radii", [], "sampling has fewer than two radii"),
    ("radii", [0.25], "sampling has fewer than two radii"),
    ("centers", np.empty((0, 2)),
     "sampling has no boundary or interior centers"),
])
def test_build_ball_plan_rejects_an_empty_sampling(field, value, message,
                                                   monkeypatch):
    # rejected before any work: no ball grid is built
    monkeypatch.setattr(weights, "ball_grid", None)
    sampling = dict(GOLDEN_PLAN_SAMPLING)
    if field == "radii":
        sampling["radii"] = np.array(value)
    else:
        sampling["boundary_centers"] = sampling["interior_centers"] = value
    with pytest.raises(ValueError, match=message):
        weights.build_ball_plan(CuspDomain(0.75), sampling)


@pytest.mark.parametrize("radii, message", [
    ([0.25, 0.25], "sampling has fewer than two radii, counting each value "
                   "once: [0.25, 0.25]"),
    ([0.25, -0.1], "sampling radii must be finite and positive: "
                   "[0.25, -0.1]"),
    ([0.25, 0.125, np.nan], "sampling radii must be finite and positive: "
                            "[0.25, 0.125, nan]"),
])
def test_bad_radii_fail_before_any_ball_grid(radii, message, monkeypatch):
    # duplicate, negative and NaN radii: the plan and the resolution rule
    # that ap-check applies first both raise, naming the radii
    monkeypatch.setattr(weights, "ball_grid", None)
    sampling = dict(GOLDEN_PLAN_SAMPLING, radii=np.array(radii),
                    resolution=256)
    with pytest.raises(ValueError, match=re.escape(message)):
        weights.build_ball_plan(CuspDomain(0.75), sampling)
    with pytest.raises(ValueError, match=re.escape(message)):
        weights._resolved_radii(sampling["radii"], 256)


@pytest.mark.parametrize("radii, resolution, message", [
    # a ball is resolved when r >= 64 / resolution
    ([0.125, 1.0 / 32.0], 256, "resolves 0 of the plan's radii .* "
                               "resolution 2048 resolves two"),
    ([0.25, 0.125], 256, "resolves 1 of the plan's radii .* "
                         "resolution 512 resolves two"),
])
def test_estimate_ap_constant_needs_two_resolved_radii(radii, resolution,
                                                       message):
    # a trend fitted to one radius, or to unresolved balls, says nothing
    dom = CuspDomain(0.5)
    sampling = {"boundary_centers": np.array([[0.5, 0.25]]),
                "interior_centers": np.array([[0.5, 0.0]]),
                "radii": np.array(radii), "resolution": resolution}
    plan = weights.build_ball_plan(dom, sampling)
    with pytest.raises(ValueError, match=message):
        estimate_ap_constant(dom, WeightSpec(1.5), 2.0, plan)


def test_ap_ratio_is_one_for_unit_weight_and_jensen_lower_bound():
    dom = CuspDomain(0.5)
    sampling = {
        "boundary_centers": np.array([[0.3, 0.3**2], [0.0, 0.0]]),
        "interior_centers": np.array([[0.5, 0.1]]),
        "radii": np.array([0.25, 0.125]),
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
        "resolution": 512,
    }
    plan = weights.build_ball_plan(dom, sampling)
    est = estimate_ap_constant(dom, WeightSpec(0.5), 2.0, plan)
    assert est.value >= 1.0
    assert len(est.per_ball) == 4 * 3
    assert [rec["resolved"] for rec in est.per_ball] == [True, True, False] * 4
    assert est.admissible_flat()
    # mu = 0 gives ratio exactly 1 on every ball
    flat = estimate_ap_constant(dom, WeightSpec(0.0), 2.0, plan)
    assert flat.value == pytest.approx(1.0, abs=1e-12)
