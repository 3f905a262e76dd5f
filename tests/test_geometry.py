import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from cuspdiv import geometry
from cuspdiv.geometry import CuspDomain
from cuspdiv.whitney import default_box


def dense_boundary_distance(domain, pts, n=400_000):
    """Reference distance by dense sampling of all three boundary arcs."""
    t = np.linspace(0.0, 1.0, n)
    curve = np.column_stack([t, t**domain.gamma])
    ye = np.linspace(-1.0, 1.0, n)
    edge = np.column_stack([np.ones_like(ye), ye])
    # vectorized over points, chunked over the arc to bound memory
    best = np.full(len(pts), np.inf)
    for arc in (curve, curve * [1.0, -1.0], edge):
        for lo in range(0, n, 50_000):
            seg = arc[lo:lo + 50_000]
            d = np.hypot(pts[:, None, 0] - seg[None, :, 0],
                         pts[:, None, 1] - seg[None, :, 1]).min(axis=1)
            best = np.minimum(best, d)
    return best


def grid_curve_distance(domain, x, y, n_coarse=65, iters=60):
    """Distance to the upper arc by a grid (clustered at the tip), with a
    golden-section polish of every local minimum of the sampled squared
    distance: polishing only the best sample lands in the wrong basin where
    two local minima are close."""
    g = domain.gamma
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)

    def dist_sq(t, x, y):
        return (x - t) ** 2 + (y - t**g) ** 2

    u = np.linspace(0.0, 1.0, n_coarse)
    ts = np.unique(np.concatenate([u, u**4]))
    vals = dist_sq(ts[:, None], x, y)
    pad = np.full((1, len(x)), np.inf)
    is_min = ((vals <= np.vstack([pad, vals[:-1]]))
              & (vals <= np.vstack([vals[1:], pad])))
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    best = np.full(len(x), np.inf)
    for i in np.flatnonzero(is_min.any(axis=1)):
        idx = np.flatnonzero(is_min[i])
        xs, ys = x[idx], y[idx]
        a = np.full(len(idx), ts[max(i - 1, 0)])
        b = np.full(len(idx), ts[min(i + 1, len(ts) - 1)])
        for _ in range(iters):
            c = b - golden * (b - a)
            d = a + golden * (b - a)
            left = dist_sq(c, xs, ys) < dist_sq(d, xs, ys)
            b = np.where(left, d, b)
            a = np.where(left, a, c)
        polished = np.minimum.reduce([dist_sq(t, xs, ys)
                                      for t in (a, b, 0.5 * (a + b))])
        best[idx] = np.minimum(best[idx], polished)
    return np.sqrt(best)


def dense_curve_distance(domain, x, y, n=2**20, zoom=2**14):
    """Distance from one point to the upper arc by dense sampling, sampled
    again between the neighbours of the nearest sample."""
    t = np.linspace(0.0, 1.0, n + 1)
    i = np.argmin(np.hypot(x - t, y - t**domain.gamma))
    t = np.linspace(t[max(i - 1, 0)], t[min(i + 1, n)], zoom + 1)
    return np.min(np.hypot(x - t, y - t**domain.gamma))


@pytest.mark.parametrize("alpha", [0.5, 0.75, 1.0])
def test_distance_matches_dense_sampling(alpha):
    dom = CuspDomain(alpha)
    rng = np.random.default_rng(3)
    x = rng.uniform(0.01, 0.99, 40)
    y = rng.uniform(-1.0, 1.0, 40) * x**dom.gamma
    pts = np.column_stack([x, y])
    d = geometry.distance(dom, pts)
    ref = dense_boundary_distance(dom, pts)
    assert np.max(np.abs(d - ref)) < 5e-6  # limited by the sampling density


def test_distance_zero_on_boundary():
    dom = CuspDomain(0.5)
    t = np.linspace(0.0, 1.0, 17)
    on = np.column_stack([t, t**dom.gamma])
    assert np.max(geometry.distance(dom, on)) < 1e-12
    assert geometry.distance(dom, np.array([1.0, 0.3])) < 1e-15
    assert geometry.distance(dom, np.array([0.0, 0.0])) < 1e-15


def test_distance_is_one_lipschitz():
    dom = CuspDomain(0.75)
    rng = np.random.default_rng(11)
    p = rng.uniform([-0.5, -1.0], [1.5, 1.0], size=(300, 2))
    q = p + rng.normal(scale=0.05, size=p.shape)
    dp = geometry.distance(dom, p)
    dq = geometry.distance(dom, q)
    gap = np.hypot(*(p - q).T)
    assert np.all(np.abs(dp - dq) <= gap + 1e-12)


def _near_and_box_points(dom, n, seed):
    """Points within ~1e-3 relative of the arcs, and uniform over the box."""
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 1.0, n) ** 3
    near = np.column_stack([t * (1.0 + 1e-3 * rng.normal(size=n)),
                            t**dom.gamma * (1.0 + 1e-3 * rng.normal(size=n))])
    box = default_box()
    uniform = rng.uniform([box.x0, box.y0],
                          [box.x0 + box.side, box.y0 + box.side], size=(n, 2))
    return np.vstack([near, uniform])


@pytest.mark.parametrize("alpha", [0.2, 0.3, 0.4, 0.5, 0.75, 1.0])
def test_curve_distance_matches_grid_search(alpha):
    dom = CuspDomain(alpha)
    pts = _near_and_box_points(dom, 3000, seed=int(100 * alpha))
    x, y = pts[:, 0], np.abs(pts[:, 1])
    d = geometry._curve_distance(dom, x, y)
    ref = grid_curve_distance(dom, x, y)
    assert np.all(np.abs(d - ref) <= 1e-12 * ref + 1e-14)


@pytest.mark.parametrize("alpha, x, y, ref", [
    (0.2, 0.06891603093364607, 0.8791016279694372, 0.87883974737446),
    (0.4, -0.19103960335645942, 1.1119724014198507, 1.1282615152283588),
    (0.9, -0.19391209323374314, 0.318592163854966, 0.3729648771916037),
])
def test_distance_exact_where_two_minima_compete(alpha, x, y, ref):
    # the squared distance along the arc has two close local minima here; a
    # grid search polishing only its best sample returned 2.6e-4, 2.1e-6 and
    # 9.0e-8 too much
    dom = CuspDomain(alpha)
    d = geometry.distance(dom, np.array([x, y]))
    dense = dense_curve_distance(dom, x, y)
    assert abs(d - dense) <= 1e-12 * dense
    assert abs(d - ref) <= 1e-12 * ref


def test_curve_distance_ulp_stop_regression():
    # points whose last Newton iterates straddle the root a few ulp apart, so
    # a relative step test |dt| <= 2e-16 t can cycle forever: a drawn point of
    # test_coverage_of_points_away_from_the_set, a box point of the oracle
    # test above and three A_p ball-plan nodes
    dom = CuspDomain(0.5)
    x = np.array([0.01874710903341914, 0.03286508136968913,
                  0.00833256286982248, 0.03331044399207797,
                  0.002148437499999989])
    y = np.array([0.45974386697338576, 0.39721889060820104,
                  0.24521083984716924, 0.24934252903057527, 0.2463671875])
    d = geometry._curve_distance(dom, x, y)
    ref = grid_curve_distance(dom, x, y)
    assert np.all(np.abs(d - ref) <= 1e-12 * ref)


@pytest.mark.parametrize("alpha, x, y", [
    (0.75, 0.0, 5.106951417907298e-120),
    (0.5001, -0.9350067186428942, 0.4145121838496162),
    (0.501, 0.0, 0.03015642490409442),
    (0.55, 4.454832257153636e-297, 9.741336651305726e-41),
    (0.49, 3.986772022958827e-157, 9.048454679893847),
    (0.5, 5e-324, 1.0),
])
def test_curve_distance_at_tip_scales(alpha, x, y):
    # foot points and extrema of F near (k y)**(1/(2-g)), up to hundreds of
    # binary orders below the bracket [a, b]: Newton from its ends, or
    # arithmetic bisection, stalls there past any reasonable max_iter; and
    # at a = 5e-324 a downhill Newton step of two subnormals is no root
    dom = CuspDomain(alpha)
    d = geometry._curve_distance(dom, np.array([x]), np.array([y]))[0]
    assert 0.0 < d <= dense_curve_distance(dom, x, y) * (1.0 + 1e-12)


def test_curve_distance_raises_when_unconverged():
    dom = CuspDomain(0.5)
    with pytest.raises(RuntimeError):
        geometry._curve_distance(dom, np.array([0.4]), np.array([0.1]),
                                 max_iter=1)


def unblocked_distance(dom, pts):
    """The kernel on every point in one pass: the reference for the blocks
    of `geometry.distance`."""
    x, y = pts[:, 0], pts[:, 1]
    return np.minimum(geometry._curve_distance(dom, x, np.abs(y)),
                      geometry._edge_distance(x, y))


def _mixed_points(dom, n, seed):
    """n points, shuffled: on both arcs, at and next to the tip, on the right
    edge, outside Omega and inside it."""
    rng = np.random.default_rng(seed)
    m = n // 4 + 1
    t = rng.uniform(0.0, 1.0, m)
    arcs = np.column_stack([t, rng.choice([-1.0, 1.0], m) * t**dom.gamma])
    tip = np.vstack([[0.0, 0.0], rng.uniform(-1e-6, 1e-6, size=(m - 1, 2))])
    edge = np.column_stack([np.ones(m), rng.uniform(-1.0, 1.0, m)])
    outside = rng.uniform([-0.5, -1.5], [1.5, 1.5], size=(m, 2))
    with np.errstate(invalid="ignore"):    # x**gamma at x < 0
        outside = outside[~geometry.contains(dom, outside)]
    x = rng.uniform(0.0, 1.0, m)
    inside = np.column_stack([x, rng.uniform(-1.0, 1.0, m) * x**dom.gamma])
    pool = np.vstack([arcs, tip, edge, outside, inside])
    return pool[rng.permutation(len(pool))[:n]]


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75, 1.0])
def test_blocked_distance_is_bitwise_unblocked(alpha):
    dom = CuspDomain(alpha)
    block = geometry._BLOCK
    pts = _mixed_points(dom, 2 * block + 1, seed=int(100 * alpha))
    ref = unblocked_distance(dom, pts)
    for k in (1, 2):
        for n in (k * block - 1, k * block, k * block + 1):
            d = geometry.distance(dom, pts[:n])
            assert d.shape == (n,)
            assert d.tobytes() == ref[:n].tobytes()
    p = pts[block]
    d = geometry.distance(dom, p)
    assert isinstance(d, float)
    assert d == unblocked_distance(dom, p[None, :])[0]
    empty = geometry.distance(dom, np.empty((0, 2)))
    assert empty.shape == (0,) and empty.dtype == float


def test_blocked_distance_memory_peak():
    # ten blocks (163,840 points): the kernel in one pass over all of them
    # (`unblocked_distance`) peaks at 25.6 MB of tracemalloc'd memory, one
    # block at a time at 3.9 MB
    dom = CuspDomain(0.75)
    pts = _mixed_points(dom, 10 * geometry._BLOCK, seed=7)
    tracemalloc.start()
    try:
        geometry.distance(dom, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


_box = default_box()
_bx = st.floats(_box.x0, _box.x0 + _box.side)
_by = st.floats(_box.y0, _box.y0 + _box.side)
_step = st.floats(-0.05, 0.05)


@settings(max_examples=200, deadline=None)
@given(alpha=st.sampled_from([0.2, 0.3, 0.4, 0.5, 0.75, 1.0]),
       p=st.tuples(_bx, _by), step=st.tuples(_step, _step))
@example(alpha=0.5, p=(0.0, 0.0), step=(0.01, 0.001))
@example(alpha=0.75, p=(0.0, 0.0), step=(0.0, 5.106951417907298e-120))
@example(alpha=0.5, p=(5e-324, 1.0), step=(0.03125, 0.0))
def test_distance_is_one_lipschitz_property(alpha, p, step):
    dom = CuspDomain(alpha)
    q = (p[0] + step[0], p[1] + step[1])
    dp, dq = geometry.distance(dom, np.array([p, q]))
    assert abs(dp - dq) <= np.hypot(p[0] - q[0], p[1] - q[1]) + 1e-14


@settings(max_examples=200, deadline=None)
@given(alpha=st.sampled_from([0.2, 0.3, 0.4, 0.5, 0.75, 1.0]),
       t=st.floats(0.0, 1.0), s=st.floats(-1.0, 1.0),
       sign=st.sampled_from([-1.0, 1.0]))
@example(alpha=0.5, t=0.0, s=0.0, sign=1.0)
def test_distance_zero_on_boundary_property(alpha, t, s, sign):
    dom = CuspDomain(alpha)
    tt = np.array([t])
    on = np.array([[t, sign * (tt**dom.gamma)[0]], [1.0, s], [0.0, 0.0]])
    assert np.all(geometry.distance(dom, on) == 0.0)


@settings(max_examples=200, deadline=None)
@given(alpha=st.sampled_from([0.2, 0.4, 0.5, 0.75, 1.0]),
       x=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       s=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
# contains on one point must use numpy's array power, as surrogate_distance
# does on its (1, 2) array
@example(alpha=0.4, x=0.9999999999999999, s=0.9999999999999999)
def test_surrogate_bounds_distance_property(alpha, x, s):
    # the vertical distance x^(1/a) - |y| to the arc bounds dist inside
    # Omega; within an ulp of the arc both carry rounding errors of about an
    # ulp of x^(1/a) (up to 1.6 ulp measured), hence the absolute term
    dom = CuspDomain(alpha)
    p = np.array([x, s * x**dom.gamma])
    assume(geometry.contains(dom, p))
    d = geometry.distance(dom, p)
    bound = geometry.surrogate_distance(dom, p) * (1.0 + 1e-12)
    assert 0.0 < d <= bound + 4.0 * np.spacing(x**dom.gamma)


def test_surrogate_rejects_outside_points():
    dom = CuspDomain(0.5)
    with pytest.raises(ValueError):
        geometry.surrogate_distance(dom, np.array([0.5, 0.9]))


def test_contains():
    dom = CuspDomain(0.5)
    assert geometry.contains(dom, np.array([0.5, 0.1]))
    assert not geometry.contains(dom, np.array([0.5, 0.3]))
    assert not geometry.contains(dom, np.array([-0.1, 0.0]))
    # the boundary itself is excluded (strict inequalities)
    assert not geometry.contains(dom, np.array([0.5, 0.25]))


def test_contains_warns_nothing_left_of_the_tip():
    # x < 0 with non-integer 1/alpha made x**gamma a NaN with a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inside = geometry.contains(CuspDomain(0.75), [[-0.1, 0.0]])
    assert inside.tolist() == [False]


def test_area_closed_form():
    for alpha in (0.5, 0.75, 1.0):
        dom = CuspDomain(alpha)
        # 2 * integral_0^1 x^(1/alpha) dx
        x = np.linspace(0.0, 1.0, 200_001)
        num = 2.0 * np.trapezoid(x**dom.gamma, x)
        assert abs(dom.area() - num) < 1e-8


def test_boundary_measure_straight_edge():
    # a ball centered on the right edge, small enough to miss the curves,
    # meets the boundary in a diameter: measure = 2r
    dom = CuspDomain(0.5)
    m = geometry.boundary_measure(dom, np.array([1.0, 0.0]), 0.05)
    assert abs(m - 0.1) < 1e-9


def test_boundary_measure_at_tip():
    # both curved arcs enter the ball at the cusp tip: measure ~ 2r for
    # small r (the arcs are nearly flat there), and certainly in [2r, 4r]
    dom = CuspDomain(0.5)
    for r in (0.01, 0.05):
        m = geometry.boundary_measure(dom, np.array([0.0, 0.0]), r)
        assert 2.0 * r <= m <= 4.0 * r


def quad_boundary_measure(domain, center, r, n_scan=4096):
    """Reference boundary measure: per boundary arc, a scan of the gap
    |point - center| - r on n_scan steps and at the centre's own parameter,
    brentq at each sign change, and quad of the speed where the arc is
    inside the ball."""
    g = domain.gamma
    cx, cy = center

    def curve_speed(t):
        return np.sqrt(1.0 + (g * t ** (g - 1.0)) ** 2)

    arcs = [(lambda t: (t, t**g), curve_speed, 0.0, 1.0, cx),
            (lambda t: (t, -t**g), curve_speed, 0.0, 1.0, cx),
            (lambda t: (1.0 + 0.0 * t, t), lambda t: 1.0, -1.0, 1.0, cy)]
    total = 0.0
    for point, speed, t0, t1, own in arcs:
        def gap(t):
            x, y = point(t)
            return np.hypot(x - cx, y - cy) - r

        ts = np.unique(np.append(np.linspace(t0, t1, n_scan + 1),
                                 np.clip(own, t0, t1)))
        gs = gap(ts)
        cuts = [t0, t1, *ts[gs == 0.0]]
        for i in np.flatnonzero(gs[:-1] * gs[1:] < 0.0):
            cuts.append(brentq(gap, ts[i], ts[i + 1], xtol=1e-15))
        cuts = np.unique(cuts)
        for a, b in zip(cuts[:-1], cuts[1:]):
            if gap(0.5 * (a + b)) < 0.0:
                total += quad(speed, a, b, epsabs=1e-15, epsrel=1e-13,
                              limit=200)[0]
    return total


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75, 1.0])
def test_boundary_measure_matches_quad_reference(alpha):
    dom = CuspDomain(alpha)
    centers = [(0.0, 0.0), (1.0, 1.0), (1.0, -1.0), (1.0, -0.5), (1.0, 0.3)]
    centers += [(t, s * t**dom.gamma) for t in (0.2, 0.85) for s in (1, -1)]
    for c in centers:
        for r in (1e-3, 0.03, 0.3, 3.0):
            ref = quad_boundary_measure(dom, c, r)
            assert geometry.boundary_measure(dom, c, r) == pytest.approx(
                ref, rel=1e-10), (c, r)


@pytest.mark.parametrize("alpha", [0.5, 0.75])
def test_boundary_measure_sees_a_ball_between_scan_points(alpha):
    # a ball on the arc narrower than one scan step holds no scan point;
    # it read 0 before the centre's own parameter joined the scan
    dom = CuspDomain(alpha)
    r = 3e-5
    m = geometry.boundary_measure(dom, (0.50005, 0.50005**dom.gamma), r)
    assert m == pytest.approx(2.0 * r, rel=1e-8)


def test_boundary_measure_at_the_corners():
    # the edge and the curved arc each give about r near (1, +-1)
    dom = CuspDomain(0.75)
    r = 1e-3
    upper = geometry.boundary_measure(dom, (1.0, 1.0), r)
    assert upper == pytest.approx(2.0 * r, rel=1e-6)
    assert geometry.boundary_measure(dom, (1.0, -1.0), r) == pytest.approx(
        upper, rel=1e-15)


def test_boundary_measure_ball_tangent_to_the_edge():
    # 1 - cx = r: the chord on x = 1 is exactly empty
    dom = CuspDomain(0.75)
    cx, cy, r = 0.5, 0.5**dom.gamma, 0.5
    curves = (geometry._curve_length_in_ball(dom, cx, cy, r)
              + geometry._curve_length_in_ball(dom, cx, -cy, r))
    assert geometry.boundary_measure(dom, (cx, cy), r) == curves
    assert curves == pytest.approx(quad_boundary_measure(dom, (cx, cy), r),
                                   rel=1e-10)


def test_boundary_measure_requires_boundary_center():
    dom = CuspDomain(0.5)
    with pytest.raises(ValueError):
        geometry.boundary_measure(dom, np.array([0.5, 0.0]), 0.1)
    # a NaN radius read 0
    for r in (0.0, np.nan):
        with pytest.raises(ValueError, match="r must be positive"):
            geometry.boundary_measure(dom, np.array([0.0, 0.0]), r)


def test_invalid_alpha():
    with pytest.raises(ValueError):
        CuspDomain(0.0)
    with pytest.raises(ValueError):
        CuspDomain(1.2)
