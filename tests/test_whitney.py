import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuspdiv import geometry, whitney
from cuspdiv.geometry import CuspDomain
from cuspdiv.whitney import Box, decompose, default_box

SQRT2 = math.sqrt(2.0)


def point_distance_fn(origin=(0.0, 0.0)):
    ox, oy = origin

    def d(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.hypot(pts[:, 0] - ox, pts[:, 1] - oy)

    return d


def recursive_reference(distance_fn, box, kmax):
    """Plain recursive restatement of the acceptance rule (test oracle)."""
    out = []

    def visit(k, i, j):
        s = box.side * 2.0 ** (-k)
        ell = s * SQRT2
        cx = box.x0 + (i + 0.5) * s
        cy = box.y0 + (j + 0.5) * s
        d = float(distance_fn(np.array([[cx, cy]]))[0])
        if 1.5 * ell <= d <= 3.5 * ell:
            out.append((k, i, j))
            return
        if d - 0.5 * ell > 4.0 * ell:
            return
        if k == kmax:
            return
        for di in (0, 1):
            for dj in (0, 1):
                visit(k + 1, 2 * i + di, 2 * j + dj)

    visit(0, 0, 0)
    return sorted(out)


def rect_point_distance(dec, px, py):
    """Exact distance from a point to each closed square of dec.cubes."""
    x0, y0, s = dec.geometry(dec.cubes)
    dx = np.maximum(np.maximum(x0 - px, 0.0), px - (x0 + s))
    dy = np.maximum(np.maximum(y0 - py, 0.0), py - (y0 + s))
    return np.hypot(dx, dy)


def assert_matches_reference(dec, ref):
    assert dec.cubes.dtype == np.int64
    assert dec.cubes.shape == (len(ref), 3)
    assert np.array_equal(dec.cubes, np.array(ref, dtype=np.int64))


def test_matches_recursive_reference_for_point_set():
    box = Box(-1.0, -1.0, 2.0)
    dfn = point_distance_fn()
    dec = decompose(dfn, box, kmax=7)
    assert_matches_reference(dec, recursive_reference(dfn, box, 7))


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_matches_recursive_reference_for_cusp(alpha):
    box = default_box()
    dom = CuspDomain(alpha)
    dfn = lambda p: geometry.distance(dom, p)
    dec = decompose(dfn, box, kmax=7)
    assert_matches_reference(dec, recursive_reference(dfn, box, 7))


@settings(max_examples=60, deadline=None)
@given(ox=st.floats(-1.5, 1.5), oy=st.floats(-1.5, 1.5),
       bx=st.floats(-1.0, 0.0), by=st.floats(-1.0, 0.0),
       side=st.floats(0.5, 3.0), kmax=st.integers(2, 6))
# a point at a box corner puts cell centres on the acceptance bound 1.5 l up
# to rounding, so the centre must be rounded as the reference rounds it
@example(ox=0.0, oy=-1.0, bx=0.0, by=-1.0, side=1.8736447816646349, kmax=6)
def test_matches_recursive_reference_for_random_point_sets(ox, oy, bx, by,
                                                           side, kmax):
    box = Box(bx, by, side)
    dfn = point_distance_fn((ox, oy))
    ref = recursive_reference(dfn, box, kmax)
    if not ref:
        with pytest.raises(RuntimeError):
            decompose(dfn, box, kmax)
        return
    assert_matches_reference(decompose(dfn, box, kmax), ref)


def exhaustive_cubes(distance_fn, box, kmax):
    """decompose's cubes with the distance evaluated at every cell centre
    and the rows sorted by lexsort (test oracle)."""
    def classify(k, b, cx, cy, s, dp):
        ell = s * SQRT2
        d = np.asarray(distance_fn(np.column_stack([cx, cy])), dtype=float)
        accept = (d >= 1.5 * ell) & (d <= 3.5 * ell)
        hopeless = d - 0.5 * ell > 4.0 * ell
        return accept, ~accept & ~hopeless & (k < kmax), d

    cubes = whitney.refine([box], classify)[:, 1:]
    return cubes[np.lexsort(cubes.T[::-1])]


def counting(distance_fn, points):
    """distance_fn, recording the size of each call in points; no call may
    be empty."""
    def fn(pts):
        assert len(pts) > 0
        points.append(len(pts))
        return distance_fn(pts)
    return fn


@settings(max_examples=40, deadline=None)
@given(bx=st.floats(-1.5, 0.5), by=st.floats(-1.5, 0.5),
       side=st.floats(0.5, 3.0), kmax=st.integers(2, 9),
       alpha=st.sampled_from([0.3, 0.5, 0.75, 1.0, None]),
       ox=st.floats(-1.5, 1.5), oy=st.floats(-1.5, 1.5))
@example(bx=-0.75, by=-1.25, side=2.5, kmax=9, alpha=0.3, ox=0.0, oy=0.0)
@example(bx=-0.75, by=-1.25, side=2.5, kmax=9, alpha=0.5, ox=0.0, oy=0.0)
@example(bx=-1.0, by=-1.0, side=2.0, kmax=9, alpha=None, ox=0.0, oy=0.0)
def test_decompose_matches_exhaustive_refinement(bx, by, side, kmax, alpha,
                                                 ox, oy):
    # the bounds from the parent's distance decide cubes without changing
    # one; alpha None is the point set {(ox, oy)}, and alpha 0.3 takes the
    # concave/convex split of the kernel
    box = Box(bx, by, side)
    if alpha is None:
        dfn = point_distance_fn((ox, oy))
    else:
        dom = CuspDomain(alpha)
        dfn = lambda p: geometry.distance(dom, p)
    every, points = [], []
    ref = exhaustive_cubes(counting(dfn, every), box, kmax)
    if len(ref) == 0:
        with pytest.raises(RuntimeError):
            decompose(counting(dfn, points), box, kmax)
        return
    dec = decompose(counting(dfn, points), box, kmax)
    assert np.array_equal(dec.cubes, ref)
    assert dec.cubes.dtype == np.int64
    # the same cells, each evaluated at most once
    assert sum(points) <= sum(every)


def test_decompose_kmax_range():
    dfn = point_distance_fn()
    for kmax in (1, 30):
        with pytest.raises(ValueError, match="kmax must lie in"):
            decompose(dfn, default_box(), kmax)


def test_refine_children_order_and_centres():
    box = Box(-1.0, 0.5, 4.0)
    seen = []

    def classify(k, b, cx, cy, s, dp):
        seen.append((k, b, cx, cy, s))
        return (np.full(len(cx), k == 2), np.full(len(cx), k < 2),
                np.full(len(cx), np.nan))

    rows = whitney.refine([box], classify)
    # one root: every row carries root index 0
    assert rows.dtype == np.int64 and rows.shape == (16, 4)
    assert np.all(rows[:, 0] == 0)
    rows = rows[:, 1:]
    # generation by generation; each generation lists the (0,0) children
    # of all parents, then the (1,0), (0,1) and (1,1) children
    gen1 = [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1]]
    assert rows[:4].tolist() == [[2, 2 * i, 2 * j] for _, i, j in gen1]
    assert rows[4:8].tolist() == [[2, 2 * i + 1, 2 * j] for _, i, j in gen1]
    assert len({tuple(r) for r in rows.tolist()}) == 16
    k, b, cx, cy, s = seen[2]
    assert k == 2 and np.array_equal(s, [1.0])
    assert np.array_equal(b, np.zeros(16))
    x0, y0, side = box.cells(*rows.T)
    assert np.array_equal(side, np.full(16, 1.0))
    assert np.array_equal(cx, x0 + 0.5) and np.array_equal(cy, y0 + 0.5)


def test_refine_hands_each_split_cells_d_to_its_children():
    box = Box(-1.0, 0.5, 4.0)
    seen = []

    def classify(k, b, cx, cy, s, dp):
        seen.append((cx, cy, dp))
        d = cx + 10.0 * cy
        d[cx > 0.0] = np.nan             # no distance evaluated there
        return np.zeros(len(cx), bool), np.full(len(cx), k < 3), d

    whitney.refine([box], classify)
    assert len(seen) == 4 and np.isnan(seen[0][2]).all()
    for k in range(1, 4):
        cx, cy, dp = seen[k]
        side = box.side * 2.0 ** (1 - k)     # the parents' side
        px = box.x0 + (np.floor((cx - box.x0) / side) + 0.5) * side
        py = box.y0 + (np.floor((cy - box.y0) / side) + 0.5) * side
        want = np.where(px > 0.0, np.nan, px + 10.0 * py)
        assert np.array_equal(dp, want, equal_nan=True)


def seeded_classify(seed, kmax):
    """A classify whose masks are a seeded hash of each cell's centre and
    side, so that a cell gets the same answer in whichever refine it is."""
    def classify(k, b, cx, cy, s, dp):
        bits = np.stack([cx, cy, s[b]]).view(np.uint64)
        h = np.uint64(seed) + bits[0] * np.uint64(0x9E3779B97F4A7C15)
        h = (h ^ bits[1]) * np.uint64(0xBF58476D1CE4E5B9)
        h = (h ^ bits[2] ^ (h >> np.uint64(29))) * np.uint64(
            0x94D049BB133111EB)
        h = (h ^ (h >> np.uint64(31))) % np.uint64(3)
        return h == 0, (h == 1) & (k < kmax), np.full(len(cx), np.nan)
    return classify


box_st = st.builds(Box, st.floats(-4.0, 4.0), st.floats(-4.0, 4.0),
                   st.sampled_from([0.25, 0.5, 1.0, 2.0, 2.5, 3.0]))


@settings(max_examples=60, deadline=None)
@given(st.lists(box_st, min_size=1, max_size=5), st.integers(0, 2**32 - 1),
       st.integers(0, 6))
def test_refine_roots_in_lockstep_match_one_root_each(roots, seed, kmax):
    calls = []
    classify = seeded_classify(seed, kmax)

    def counted(*args):
        calls.append(args[0])
        return classify(*args)

    rows = whitney.refine(roots, counted)
    assert rows.dtype == np.int64 and rows.shape[1] == 4
    # one classify call per generation, whatever the number of roots
    assert calls == list(range(len(calls)))
    total = 0
    for b, root in enumerate(roots):
        alone = whitney.refine([root], classify)
        assert np.all(alone[:, 0] == 0)
        assert np.array_equal(rows[rows[:, 0] == b, 1:], alone[:, 1:])
        total += len(alone)
    assert len(rows) == total


def test_band_is_exact_for_point_set():
    # against F = {origin} the cube-set distance has a closed form, so the
    # Whitney band l <= d(Q, F) <= 4l can be checked exactly
    box = Box(-1.0, -1.0, 2.0)
    dec = decompose(point_distance_fn(), box, kmax=8)
    ell = dec.geometry(dec.cubes)[2] * SQRT2
    d = rect_point_distance(dec, 0.0, 0.0)
    assert np.all(ell <= d)
    assert np.all(d <= 4.0 * ell)


def test_cubes_pairwise_disjoint_by_ancestry():
    box = default_box()
    dom = CuspDomain(0.5)
    dec = decompose(lambda p: geometry.distance(dom, p), box, kmax=8)
    rows = dec.cubes.tolist()
    seen = set(map(tuple, rows))
    assert len(seen) == len(rows)
    for kc, i, j in rows:
        for k in range(kc - 1, -1, -1):
            i >>= 1
            j >>= 1
            assert (k, i, j) not in seen  # no accepted ancestor overlaps


def test_coverage_of_points_away_from_the_set():
    box = default_box()
    dom = CuspDomain(0.5)
    dec = decompose(lambda p: geometry.distance(dom, p), box, kmax=9)
    rng = np.random.default_rng(5)
    pts = rng.uniform([box.x0, box.y0],
                      [box.x0 + box.side, box.y0 + box.side], size=(4000, 2))
    d = geometry.distance(dom, pts)
    # points whose distance exceeds the finest resolvable band are covered
    floor = 6.0 * box.side * 2.0 ** (-dec.kmax)
    eligible = d > floor
    covered = dec.covers(pts[eligible])
    assert covered.shape == (np.count_nonzero(eligible),)
    assert covered.mean() >= 0.999


def test_band_via_sampled_cube_distance():
    box = default_box()
    dom = CuspDomain(0.75)
    dec = decompose(lambda p: geometry.distance(dom, p), box, kmax=8)
    sample = dec.cubes[:: max(1, len(dec.cubes) // 200)]
    ell = dec.geometry(sample)[2] * SQRT2
    d = dec.cube_set_distance(sample)
    # sample min overestimates d(Q, F) by at most diam/8
    assert np.all(d >= ell - 1e-12)
    assert np.all(d - ell / 8.0 <= 4.0 * ell + 1e-12)
    # one row gives the same value as a float
    assert dec.cube_set_distance(sample[3]) == d[3]


def test_count_generation_and_slope_for_segment():
    # F = segment {(t, 0): 0 <= t <= 1} is a 1-set: counts double per level
    def dfn(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        t = np.clip(pts[:, 0], 0.0, 1.0)
        return np.hypot(pts[:, 0] - t, pts[:, 1])

    box = Box(-0.75, -1.25, 2.5)
    dec = decompose(dfn, box, kmax=10)
    slope = whitney.generation_count_slope(dec, (0.5, 0.0), 0.45, 7, 10)
    assert 0.9 <= slope <= 1.1


def test_count_generation_matches_per_cube_loop():
    # per-cube restatement of the farthest-corner test (reference)
    def loop_count(dec, center, R, k):
        n = 0
        for kc, i, j in dec.cubes.tolist():
            if kc != k:
                continue
            s = dec.box.side * 2.0 ** (-kc)
            x0, y0 = dec.box.x0 + i * s, dec.box.y0 + j * s
            fx = max(abs(center[0] - x0), abs(center[0] - (x0 + s)))
            fy = max(abs(center[1] - y0), abs(center[1] - (y0 + s)))
            n += math.hypot(fx, fy) <= R
        return n

    dom = CuspDomain(0.75)
    dec = decompose(lambda p: geometry.distance(dom, p), default_box(), 9)
    for center, R in (((0.5, 0.5**(1 / 0.75)), 0.4), ((0.3, 0.0), 0.2),
                      ((0.0, 0.0), 1.0)):
        for k in range(dec.kmax + 1):
            got = whitney.count_generation(dec, center, R, k)
            assert type(got) is int
            assert got == loop_count(dec, center, R, k)


def test_count_generation_validates_input():
    dec = decompose(point_distance_fn(), Box(-1, -1, 2.0), kmax=5)
    with pytest.raises(ValueError):
        whitney.count_generation(dec, (0, 0), 0.5, k=9)
    with pytest.raises(ValueError):
        whitney.count_generation(dec, (0, 0), -1.0, k=3)


def test_verify_mset_on_cusp_boundary():
    dom = CuspDomain(0.5)
    centers = [np.array([t, t**2]) for t in (0.3, 0.5, 0.8)]
    res = whitney.verify_mset(
        lambda c, r: geometry.boundary_measure(dom, c, r),
        centers, [0.02, 0.04, 0.08])
    assert res["ok"]
    assert 1.5 <= res["Clow"] <= res["Chigh"] <= 5.0
    assert abs(res["m_fit"] - 1.0) < 0.15


@pytest.mark.parametrize("radii", [[0.04], [0.04, 0.04]])
def test_verify_mset_needs_two_distinct_radii(radii):
    # one radius leaves no slope to fit: the mean of no slopes was nan
    with pytest.raises(ValueError, match="two distinct radii"):
        whitney.verify_mset(lambda c, r: 2.0 * r, [np.zeros(2)], radii)


def test_save_decomposition_sorted_text(tmp_path):
    dec = decompose(point_distance_fn(), Box(-1, -1, 2.0), kmax=5)
    path = tmp_path / "whitney.txt"
    whitney.save_decomposition(dec, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    rows = [tuple(map(int, ln.split())) for ln in lines[1:]]
    assert rows == sorted(rows)
    assert rows == list(map(tuple, dec.cubes.tolist()))


def test_covers_uses_closed_cubes():
    box = Box(-1.0, -1.0, 2.0)
    dec = decompose(point_distance_fn(), box, kmax=6)
    x0, y0, s = (float(v[0]) for v in dec.geometry(dec.cubes[0]))
    assert dec.covers((x0, y0)) is True   # corner belongs to the closed cube
    assert dec.covers((x0 + s, y0 + s)) is True
    assert dec.covers((0.0, 0.0)) is False
    got = dec.covers(np.array([[x0, y0], [x0 + s, y0 + s], [0.0, 0.0]]))
    assert got.tolist() == [True, True, False]


# one decomposition touching the box edges (point set) and one of the cusp
COVER_CASES = {
    "point": decompose(point_distance_fn(), Box(-1.0, -1.0, 2.0), kmax=6),
    "cusp": decompose(lambda p: geometry.distance(CuspDomain(0.5), p),
                      default_box(), kmax=7),
}


def test_covers_every_corner_and_edge_midpoint():
    # points on the closed boundary of each accepted cube, including edges
    # that no accepted neighbour shares, are covered
    for dec in COVER_CASES.values():
        x0, y0, s = dec.geometry(dec.cubes)
        for a in (0.0, 0.5, 1.0):
            for b in (0.0, 0.5, 1.0):
                pts = np.column_stack([x0 + a * s, y0 + b * s])
                assert dec.covers(pts).all()


def brute_force_covers(dec, pts):
    x0, y0, s = dec.geometry(dec.cubes)
    x, y = pts[:, :1], pts[:, 1:]
    inside = (x0 <= x) & (x <= x0 + s) & (y0 <= y) & (y <= y0 + s)
    return inside.any(axis=1)


@pytest.mark.parametrize("case", list(COVER_CASES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_covers_matches_brute_force(case, data):
    dec = COVER_CASES[case]
    box = dec.box
    x0, y0, s = dec.geometry(dec.cubes)
    # corners, edge midpoints (shared edges) and centres of accepted cubes,
    # plus free points in and slightly around the box
    on_cube = st.tuples(st.integers(0, len(dec.cubes) - 1),
                        st.sampled_from([0.0, 0.5, 1.0]),
                        st.sampled_from([0.0, 0.5, 1.0])).map(
        lambda t: (x0[t[0]] + t[1] * s[t[0]], y0[t[0]] + t[2] * s[t[0]]))
    free = st.tuples(
        st.floats(box.x0 - 0.1 * box.side, box.x0 + 1.1 * box.side),
        st.floats(box.y0 - 0.1 * box.side, box.y0 + 1.1 * box.side))
    pts = np.array(data.draw(st.lists(st.one_of(on_cube, free),
                                      min_size=1, max_size=40)))
    assert np.array_equal(dec.covers(pts), brute_force_covers(dec, pts))
    assert dec.covers(pts[0]) is bool(brute_force_covers(dec, pts[:1])[0])


# sha256 of the save_decomposition text, recorded from the per-cube object
# implementation (one DyadicCube per accepted cube, sorted by a key)
GOLDEN = {
    (0.5, 9):
        "82f3c9d2b00d44dd6bca5ad81402c118ea6c2f1cc7c5bc5fd3d2c4244839ee6b",
    (1.0, 9):
        "f2de05894e3df2fe8ce0a4dee79cfd9e4a317b336a37b674d2c0d7adedd93a81",
}


@pytest.mark.parametrize("alpha,kmax", list(GOLDEN))
def test_golden_decomposition_bytes(alpha, kmax, tmp_path):
    dom = CuspDomain(alpha)
    dec = decompose(lambda p: geometry.distance(dom, p), default_box(), kmax)
    path = tmp_path / "whitney.txt"
    whitney.save_decomposition(dec, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[
        alpha, kmax]
