import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cuspdiv import geometry, potential, weights
from cuspdiv.geometry import CuspDomain
from cuspdiv.potential import (
    SourceField,
    check_weighted_estimate,
    disk_indicator_field,
    divergence_residual,
    newtonian_solve,
)

_FD_STEP = 1e-6


def _fd_gradient(sol, pts, step=_FD_STEP):
    """Central differences of the velocity: [k, i, j] = d_j v_i."""
    pts = np.atleast_2d(pts)
    cols = []
    for e in (np.array([step, 0.0]), np.array([0.0, step])):
        cols.append((sol.velocity(pts + e) - sol.velocity(pts - e))
                    / (2.0 * step))
    return np.stack(cols, axis=2)


def _random_source(values):
    # 4 x 4 cells of side 0.1 with lower-left corner at the origin
    return SourceField(0.0, 0.0, 0.1, np.asarray(values).reshape(4, 4))


def _away_from_jumps(src, pt, gap=1e-4, corner_gap=1e-3):
    """True if pt keeps gap from every cell edge line and from the
    near/far switch radius of every cell, across which the discrete field
    jumps, and corner_gap from every cell corner, where the Hessian has a
    log singularity and the central differences of `_fd_gradient` lose
    accuracy (4.6e-7 of max |H| at 1.7e-4 from a corner, 4e-8 at 1e-3)."""
    nx, ny = src.values.shape
    ex = src.x0 + src.h * np.arange(nx + 1)
    ey = src.y0 + src.h * np.arange(ny + 1)
    xc, yc = src.cell_centers()
    r = np.hypot(pt[0] - xc[:, None], pt[1] - yc[None, :])
    corner = np.hypot(pt[0] - ex[:, None], pt[1] - ey[None, :])
    return (np.min(np.abs(pt[0] - ex)) > gap
            and np.min(np.abs(pt[1] - ey)) > gap
            and np.min(corner) > corner_gap
            and np.min(np.abs(r - potential._NEAR_CELLS * src.h)) > gap)


def _cell_value(src, pt):
    i = int(np.floor((pt[0] - src.x0) / src.h))
    j = int(np.floor((pt[1] - src.y0) / src.h))
    nx, ny = src.values.shape
    return src.values[i, j] if 0 <= i < nx and 0 <= j < ny else 0.0


def _direct_sum(src, pts, chunk=128):
    """v1, v2, d1v1, d2v1, d2v2 at pts by direct summation over every
    nonzero cell: exact cell integrals within potential._NEAR_CELLS cells,
    midpoint values otherwise (the summation the box expansions replace)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    xc, yc = src.cell_centers()
    I, J = np.nonzero(src.values)
    cx, cy, h = xc[I], yc[J], src.h
    mass = src.values[I, J] * (h * h / (2.0 * np.pi))
    out = np.zeros((len(pts), 5))
    for lo in range(0, len(pts), chunk):
        du = pts[lo:lo + chunk, 0][:, None] - cx[None, :]
        dv = pts[lo:lo + chunk, 1][:, None] - cy[None, :]
        r2 = du * du + dv * dv
        K = np.empty((5,) + r2.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(du, r2, out=K[0])
            np.divide(dv, r2, out=K[1])
        np.subtract(K[1] * K[1], K[0] * K[0], out=K[2])
        np.multiply(-2.0 * K[0], K[1], out=K[3])
        np.negative(K[2], out=K[4])
        ii, jj = np.nonzero(r2 < (potential._NEAR_CELLS * h) ** 2)
        if len(ii):
            K[:, ii, jj] = potential._cell_integrals(
                du[ii, jj] - h / 2, du[ii, jj] + h / 2,
                dv[ii, jj] - h / 2, dv[ii, jj] + h / 2) / (h * h)
        out[lo:lo + chunk] = (K @ mass).T
    return out


def _assert_matches_direct_sum(src, pts, rel=1e-12):
    """Every column within rel of its largest magnitude over pts."""
    got = newtonian_solve(src)._accumulate(pts)
    ref = _direct_sum(src, pts)
    scale = np.max(np.abs(ref), axis=0)
    assert np.all(np.abs(got - ref) <= rel * scale)


def test_source_field_sampling_and_integral():
    src = SourceField.from_function(lambda p: np.ones(len(p)), 64)
    assert src.h == pytest.approx(1.0 / 64.0)
    # box (0,-1)x(1,1)
    assert np.sum(src.values) * src.h**2 == pytest.approx(2.0)


def test_source_field_rejects_nonfinite():
    with pytest.raises(ValueError, match="source values must be finite"):
        newtonian_solve(
            SourceField.from_function(lambda p: np.full(len(p), np.inf), 8))


def test_zero_source_gives_zero_field():
    src = SourceField.from_function(lambda p: np.zeros(len(p)), 32)
    sol = newtonian_solve(src)
    pts = np.array([[0.5, 0.0], [0.9, 0.3]])
    assert np.all(sol.velocity(pts) == 0.0)


def test_disk_field_matches_analytic_solution():
    f, v_exact = disk_indicator_field((0.5, 0.0), 0.1)
    src = SourceField.from_function(f, 256)
    sol = newtonian_solve(src)
    # exterior point: v = (R^2/2)(x - z0)/|x - z0|^2 = (0.0125, 0)
    ext = np.array([[0.9, 0.0]])
    assert np.allclose(v_exact(ext), [[0.0125, 0.0]], atol=1e-15)
    # the staircase approximation of the rim limits the absolute accuracy
    assert np.allclose(sol.velocity(ext), [[0.0125, 0.0]], atol=2e-4)
    # interior point: v = (x - z0)/2 = (0.025, 0)
    itr = np.array([[0.55, 0.0]])
    assert np.allclose(v_exact(itr), [[0.025, 0.0]], atol=1e-15)
    assert np.allclose(sol.velocity(itr), [[0.025, 0.0]], atol=2e-4)
    # generic off-axis points away from the rim
    pts = np.array([[0.2, 0.4], [0.52, 0.03], [0.8, -0.5], [0.1, -0.1]])
    err = np.abs(sol.velocity(pts) - v_exact(pts))
    assert np.max(err) < 2e-4


def test_single_cell_near_field_is_symmetric():
    # one unit cell of side 0.1 centred at (0.05, 0.05); probes on its axes
    # just inside the near-field radius (2.5 cells): the field along an axis
    # of symmetry has no transverse component, and the two probes are
    # mirror images of each other
    sol = newtonian_solve(SourceField(0.0, 0.0, 0.1, np.ones((1, 1))))
    v = sol.velocity(np.array([[0.29, 0.05], [0.05, 0.29]]))
    assert v[0, 0] > 0.0
    assert abs(v[0, 1]) <= 1e-15
    assert abs(v[1, 0]) <= 1e-15
    assert v[1, 1] == pytest.approx(v[0, 0], rel=1e-12)


def test_disk_field_with_one_sided_near_field():
    # at (0.45, -0.1) the rim of the disk (centre (0.5, 0), R = 0.2) passes
    # through the near field on one side only, so a wrong near-field v_2
    # does not cancel out
    f, v_exact = disk_indicator_field((0.5, 0.0), 0.2)
    sol = newtonian_solve(SourceField.from_function(f, 128))
    pt = np.array([[0.45, -0.1]])
    err = np.max(np.abs(sol.velocity(pt) - v_exact(pt)))
    assert err / 0.1 < 1e-3       # max |v| = R/2


def test_divergence_residual_smooth_source():
    def f(p):
        return np.exp(-10.0 * ((p[:, 0] - 0.5) ** 2 + p[:, 1] ** 2))

    src = SourceField.from_function(f, 128)
    sol = newtonian_solve(src)
    pts = np.array([[0.5, 0.1], [0.4, -0.2], [0.7, 0.0]])
    res = divergence_residual(sol, f, pts)
    assert res < 5e-3


def test_divergence_residual_shrinks_under_refinement():
    # piecewise-constant sampling of a smooth source: the divergence defect
    # shrinks as the source grid is refined (the FD step follows the grid)
    def f(p):
        return np.exp(-10.0 * ((p[:, 0] - 0.5) ** 2 + p[:, 1] ** 2))

    pts = np.array([[0.5, 0.1], [0.45, -0.15], [0.7, 0.0]])
    res = []
    for n in (32, 64, 128):
        sol = newtonian_solve(SourceField.from_function(f, n))
        res.append(divergence_residual(sol, f, pts))
    assert res[0] > res[1] > res[2]
    assert res[2] < 5e-3


def test_divergence_residual_rejects_a_vanishing_source():
    # relative to max |f| = 0 the residual has no meaning; the velocity is
    # never evaluated
    zero = lambda p: np.zeros(len(p))
    sol = newtonian_solve(SourceField.from_function(zero, 16))
    sol.velocity = None
    with pytest.raises(ValueError, match="source vanishes on the source grid"):
        divergence_residual(sol, zero, np.array([[0.5, 0.0]]))


def test_weighted_estimate_finite_and_validated():
    dom = CuspDomain(0.75)
    f, _ = disk_indicator_field((0.5, 0.0), 0.1)
    src = SourceField.from_function(f, 64)
    sol = newtonian_solve(src)
    grid = weights.tensor_grid(dom, order=6, n_x=12, n_tau=8, x_min=1e-4,
                               tau_min=1e-4)
    ratio = check_weighted_estimate(sol, f, dom, 0.0, 2.0, grid)
    assert 0.0 < ratio < 10.0
    with pytest.raises(ValueError):
        check_weighted_estimate(sol, f, dom, 0.9, 2.0, grid)


def test_weighted_estimate_zero_source():
    dom = CuspDomain(0.75)
    src = SourceField.from_function(lambda p: np.zeros(len(p)), 16)
    sol = newtonian_solve(src)
    grid = weights.tensor_grid(dom, order=4, n_x=8, n_tau=6, x_min=1e-3,
                               tau_min=1e-3)
    zero = lambda p: np.zeros(len(np.atleast_2d(p)))
    assert check_weighted_estimate(sol, zero, dom, 0.0, 2.0, grid) == 0.0


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16),
       x=st.floats(-0.2, 0.6), y=st.floats(-0.2, 0.6))
@example(values=[-0.5, 0.0, 0.0, 0.0, 0.0, 1.0] + [0.0] * 10,
         x=0.00012000568078956997, y=0.00012000568078956997)
def test_velocity_gradient_is_exact_hessian(values, x, y):
    src = _random_source(values)
    assume(np.any(src.values != 0.0))
    pt = np.array([x, y])
    assume(_away_from_jumps(src, pt))
    sol = newtonian_solve(src)
    v, grad = sol.velocity_gradient(pt[None, :])
    assert np.array_equal(v, sol.velocity(pt[None, :]))
    H = grad[0]
    scale = np.max(np.abs(H))
    assert H[0, 1] == H[1, 0]
    assert np.max(np.abs(_fd_gradient(sol, pt)[0] - H)) <= 1e-6 * scale
    # Delta phi = f: the trace is the source's value on the cell of pt
    fmax = np.max(np.abs(src.values))
    assert abs(np.trace(H) - _cell_value(src, pt)) <= 1e-12 * fmax


@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16),
       angle=st.floats(0.0, 2.0 * np.pi), dist=st.floats(0.3, 2.0))
def test_velocity_gradient_far_field_is_traceless(values, angle, dist):
    # every cell is beyond the near radius: the midpoint-rule Hessian is
    # harmonic, so its trace vanishes up to rounding
    src = _random_source(values)
    pt = np.array([0.2 + dist * np.cos(angle), 0.2 + dist * np.sin(angle)])
    _, grad = newtonian_solve(src).velocity_gradient(pt[None, :])
    H = grad[0]
    assert abs(np.trace(H)) <= 1e-14 * max(np.max(np.abs(H)), 1e-300)


@pytest.mark.parametrize("cells", [32, 64])
def test_weighted_estimate_matches_fine_difference_oracle(cells):
    # the ratio formed with a 1e-6-step central-difference gradient of the
    # velocity, on the input of test_weighted_estimate_finite_and_validated
    dom = CuspDomain(0.75)
    f, _ = disk_indicator_field((0.5, 0.0), 0.1)
    sol = newtonian_solve(SourceField.from_function(f, cells))
    grid = weights.tensor_grid(dom, order=6, n_x=12, n_tau=8, x_min=1e-4,
                               tau_min=1e-4)

    def norm(g):
        with np.errstate(divide="ignore"):
            log_abs = np.log(np.abs(g(grid.nodes)))
        return weights.lp_norms_at_nodes(log_abs, dom, 0.0, 2.0, grid)[0]

    def vmag(q):
        v = sol.velocity(q)
        return np.hypot(v[:, 0], v[:, 1])

    def gradmag(q):
        return np.sqrt(np.sum(_fd_gradient(sol, q) ** 2, axis=(1, 2)))

    oracle = (norm(vmag) + norm(gradmag)) / norm(lambda q: np.abs(f(q)))
    ratio = check_weighted_estimate(sol, f, dom, 0.0, 2.0, grid)
    assert ratio == pytest.approx(oracle, rel=1e-8)


def _cusp_input(alpha, cells, n_x, n_tau, profile):
    # the indicator of {x < 0.2} in the cusp times 1 + profile * y, and the
    # weighted estimate's quadrature nodes
    dom = CuspDomain(alpha)

    def f(pts):
        inside = (pts[:, 0] < 0.2) & geometry.contains(dom, pts)
        return inside * (1.0 + profile * pts[:, 1])

    grid = weights.tensor_grid(dom, n_x=n_x, n_tau=n_tau, x_min=1e-6,
                               tau_min=1e-6)
    return SourceField.from_function(f, cells), grid.nodes


@pytest.mark.parametrize("cells,n_x,n_tau,profile", [
    (96, 20, 12, 0.25),     # potential-blowup: 48,000 targets, 180 cells
    (256, 30, 20, 0.0),     # div-solve --alpha 0.75 --method potential
])
def test_box_expansions_match_direct_sum(cells, n_x, n_tau, profile):
    _assert_matches_direct_sum(*_cusp_input(0.75, cells, n_x, n_tau,
                                            profile))


_CELL = 0.1                 # _random_source's cell side
_targets = st.lists(st.one_of(
    # cell centres (r = 0 for the cell itself)
    st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
        lambda ij: ((ij[0] + 0.5) * _CELL, (ij[1] + 0.5) * _CELL)),
    # cell and box edges and corners, also outside the source box
    st.tuples(st.integers(-4, 8), st.floats(-0.5, 1.0)).map(
        lambda t: (t[0] * _CELL, t[1])),
    st.tuples(st.integers(-4, 8), st.integers(-4, 8)).map(
        lambda ij: (ij[0] * 2 * _CELL, ij[1] * _CELL)),
    # negative coordinates, outside the source box
    st.tuples(st.floats(-1.0, -1e-9), st.floats(-1.0, 0.5)),
    # far away
    st.floats(0.0, 2.0 * np.pi).map(
        lambda a: (50.0 * np.cos(a), 50.0 * np.sin(a))),
    st.tuples(st.floats(-0.5, 1.0), st.floats(-0.5, 1.0)),
), min_size=1, max_size=8)


@settings(max_examples=80, deadline=None)
@given(values=st.lists(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
                       min_size=16, max_size=16),
       targets=_targets)
@example(values=[0.0] * 16, targets=[(0.05, 0.05), (50.0, 0.0)])
@example(values=[0.0] * 5 + [0.7] + [0.0] * 10,
         targets=[(0.15, 0.05), (0.2, 0.2), (-0.3, -0.1), (0.0, 50.0)])
def test_box_expansions_match_direct_sum_on_random_sources(values, targets):
    # a generic target close to the cells gives every column a scale
    pts = np.array(targets + [(0.137, 0.291)])
    _assert_matches_direct_sum(_random_source(values), pts)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_targets_are_rejected(bad):
    sol = newtonian_solve(_random_source(np.ones(16)))
    pts = np.array([[0.2, 0.2], [bad, 0.1]])
    for evaluate in (sol.velocity, sol.velocity_gradient):
        with pytest.raises(ValueError, match="finite"):
            evaluate(pts)


def test_targets_beyond_box_key_range_are_rejected():
    # the int64 box keys hold 2^30 top-level boxes on each side of the grid
    sol = newtonian_solve(_random_source(np.ones(16)))
    v = sol.velocity(np.array([[1e7, 0.0]]))
    assert v[0, 0] == pytest.approx(16 * 0.01 / (2.0 * np.pi) / 1e7,
                                    rel=1e-12)
    with pytest.raises(ValueError, match="2\\^30"):
        sol.velocity(np.array([[1e12, 0.0]]))


def _gauss_cell_integrals(u0, u1, v0, v1, order=20, panels=2):
    """The five integrands of potential._cell_integrals, and their absolute
    values, integrated over each rectangle by a tensor Gauss-Legendre rule:
    two (5, rectangles) arrays."""
    vals, mags = [], []
    for a, b, c, d in zip(u0, u1, v0, v1):
        un, uw = weights._gauss_panels(np.linspace(a, b, panels + 1), order)
        vn, vw = weights._gauss_panels(np.linspace(c, d, panels + 1), order)
        U, V = np.meshgrid(un, vn, indexing="ij")
        r2 = U * U + V * V
        g = np.stack([U / r2, V / r2, (V * V - U * U) / r2**2,
                      -2.0 * U * V / r2**2, (U * U - V * V) / r2**2])
        w = np.outer(uw, vw)
        vals.append(np.sum(w * g, axis=(1, 2)))
        mags.append(np.sum(w * np.abs(g), axis=(1, 2)))
    return np.transpose(vals), np.transpose(mags)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_cell_integrals_match_gauss_rule(scale):
    # rectangles of sides in [0.5, 1] scale whose gap to the origin is one
    # to three times the longer side, the range of the near field: the
    # corner sums of the antiderivatives against an oracle that does not
    # use them, within 1e-12 of the integral of |integrand| (the integrals
    # of the odd kernels nearly cancel on rectangles across an axis)
    rng = np.random.default_rng(7)
    rects = []
    while len(rects) < 200:
        a, b = rng.uniform(0.5, 1.0, 2) * scale
        cu, cv = rng.uniform(-4.0, 4.0, 2) * scale
        u0, u1, v0, v1 = cu - a / 2, cu + a / 2, cv - b / 2, cv + b / 2
        gap = np.hypot(max(u0, -u1, 0.0), max(v0, -v1, 0.0))
        if max(a, b) <= gap <= 3.0 * max(a, b):
            rects.append((u0, u1, v0, v1))
    rects = np.transpose(rects)
    ref, mag = _gauss_cell_integrals(*rects)
    got = potential._cell_integrals(*rects)
    assert np.all(np.abs(got - ref) <= 1e-12 * mag)


def test_cell_integrals_hold_the_delta_at_the_origin():
    # Delta log r = 2 pi delta: d_u(u/r^2) + d_v(v/r^2) integrates to 2 pi
    # over every rectangle that strictly contains the origin
    rng = np.random.default_rng(11)
    lo = -rng.uniform(1e-9, 1.0, (2, 100)) * 10.0 ** rng.integers(-3, 4, 100)
    hi = rng.uniform(1e-9, 1.0, (2, 100)) * 10.0 ** rng.integers(-3, 4, 100)
    I = potential._cell_integrals(lo[0], hi[0], lo[1], hi[1])
    assert np.allclose(I[2] + I[4], 2.0 * np.pi, rtol=1e-14, atol=0.0)
