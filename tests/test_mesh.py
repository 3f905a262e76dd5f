import hashlib
import io
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuspdiv import geometry, mesh as meshmod
from cuspdiv.geometry import CuspDomain
from cuspdiv.mesh import (MeshQualityError, generate_graded_mesh, load_mesh,
                          refine, save_mesh)


@pytest.fixture(scope="module")
def mesh05():
    return generate_graded_mesh(CuspDomain(0.5), 0.15)


def mesh_area(m):
    """Sum of the triangle areas of a mesh (test oracle)."""
    p = m.vertices[m.triangles]
    return float(0.5 * np.abs(
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    ).sum())


def test_mesh_area_accounts_for_tip_sliver(mesh05):
    dom = CuspDomain(0.5)
    # the omitted sliver {x < x_tip} has area 2a/(a+1) x_tip^((a+1)/a)
    sliver = dom.area() * mesh05.x_tip ** ((0.5 + 1.0) / 0.5)
    # chords of the convex arcs lie above the curve, so the polygon slightly
    # overshoots the truncated domain, by O(h^2)
    assert mesh_area(mesh05) > dom.area() - sliver - 1e-12
    assert mesh_area(mesh05) < dom.area() - sliver + 0.02


def test_min_angle_floor(mesh05):
    assert mesh05.min_angle() >= 15.0


def test_triangles_positively_oriented(mesh05):
    p = mesh05.vertices[mesh05.triangles]
    signed = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
        p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    assert np.all(signed > 0.0)


def test_boundary_tags_lie_on_their_arcs(mesh05):
    dom = CuspDomain(0.5)
    for v0, v1, kind in mesh05.boundary_edges:
        for v in (v0, v1):
            x, y = mesh05.vertices[v]
            if kind == "upper-curve":
                assert abs(y - x**dom.gamma) < 1e-12
            elif kind == "lower-curve":
                assert abs(y + x**dom.gamma) < 1e-12
            elif kind == "right-edge":
                assert abs(x - 1.0) < 1e-12
            elif kind == "tip":
                assert abs(x - mesh05.x_tip) < 1e-12
            else:
                raise AssertionError(f"unknown boundary kind {kind}")


def test_boundary_edges_form_closed_loop(mesh05):
    degree = {}
    for v0, v1, _ in mesh05.boundary_edges:
        degree[v0] = degree.get(v0, 0) + 1
        degree[v1] = degree.get(v1, 0) + 1
    assert all(d == 2 for d in degree.values())


def test_refine_quadruples_and_snaps(mesh05):
    dom = CuspDomain(0.5)
    fine = refine(mesh05)
    assert fine.num_triangles == 4 * mesh05.num_triangles
    assert fine.h == mesh05.h / 2.0
    # the curved snap adds area
    assert abs(mesh_area(fine) - mesh_area(mesh05)) < 5e-3
    # boundary midpoints were moved onto the arcs
    for v0, v1, kind in fine.boundary_edges:
        x, y = fine.vertices[v1]
        if kind == "upper-curve":
            assert abs(y - x**dom.gamma) < 1e-12
    assert fine.min_angle() > 10.0


def test_save_load_round_trip(mesh05):
    buf = io.StringIO()
    save_mesh(mesh05, buf)
    buf.seek(0)
    back = load_mesh(buf)
    assert np.allclose(back.vertices, mesh05.vertices)
    assert np.array_equal(back.triangles, mesh05.triangles)
    assert back.boundary_edges == mesh05.boundary_edges
    assert back.alpha == mesh05.alpha
    assert back.x_tip == mesh05.x_tip


def _without_header(text):
    return text.split("\n", 1)[1]


def _truncated(text):
    lines = text.splitlines(keepends=True)
    return "".join(lines[:len(lines) - 3])


def _renamed_block(text):
    return text.replace("\nboundary ", "\nedges ")


def _short_row(text):
    return text.replace("\n0 ", "\n0\n", 1)


def _first_row(block, row):
    """An edit that makes `row` the first line of `block`."""
    def edit(text):
        head, rest = text.split(f"\n{block} ", 1)
        count, _, tail = rest.split("\n", 2)
        return f"{head}\n{block} {count}\n{row}\n{tail}"
    edit.__name__ = f"{block}_row_{row.replace(' ', '_') or 'blank'}"
    return edit


@pytest.mark.parametrize("edit, message", [
    (_without_header, "no alpha"),
    (_truncated, "block 'boundary' ends after"),
    (_renamed_block, "unknown block 'edges'"),
    (_short_row, "does not have 3 fields"),
    (_first_row("triangles", ""), "does not have 3 fields"),
    (_first_row("vertices", "0 0.5 0.1 0.2"), "does not have 3 fields"),
    (_first_row("triangles", "0 9 -3"),
     "triangles block: vertex index -3 is outside"),
    (_first_row("triangles", "0 9 99999"),
     "triangles block: vertex index 99999 is outside"),
    (_first_row("boundary", "99999 0 tip"),
     "boundary block: vertex index 99999 is outside"),
])
def test_load_mesh_rejects_malformed_files(mesh05, edit, message):
    buf = io.StringIO()
    save_mesh(mesh05, buf)
    with pytest.raises(ValueError, match=message):
        load_mesh(io.StringIO(edit(buf.getvalue())))


def test_x_tip_override():
    dom = CuspDomain(0.75)
    m = generate_graded_mesh(dom, 0.1, x_tip=0.02, min_angle_deg=13.0)
    assert abs(m.x_tip - 0.02) < 1e-15
    assert np.min(m.vertices[:, 0]) == pytest.approx(0.02)


def test_grading_default_follows_cusp_exponent(mesh05):
    assert mesh05.grading == pytest.approx(2.0)


def test_bad_parameters_rejected():
    dom = CuspDomain(0.5)
    with pytest.raises(ValueError):
        generate_graded_mesh(dom, 1.5)
    for x_tip in (0.0, -0.1, 1.0, 2.0):
        with pytest.raises(ValueError, match="x_tip"):
            generate_graded_mesh(dom, 0.3, x_tip=x_tip)
    # x_tip and min_angle_deg are keyword-only: no third positional argument
    with pytest.raises(TypeError):
        generate_graded_mesh(dom, 0.1, 2.0)


def test_edges_unique_and_sorted(mesh05):
    e = mesh05.edges()
    assert np.all(e[:, 0] < e[:, 1])
    assert len(np.unique(e, axis=0)) == len(e)
    # Euler: V - E + T = 1 for a disk-like surface
    assert mesh05.num_vertices - len(e) + mesh05.num_triangles == 1


# sha256 of the save_mesh text, recorded from the loop implementation of the
# generator (scalar zipper quality per step, midpoint dict in refine)
GOLDEN = {
    (0.5, 0.1, None):
        "311bb38e22eec4ac842ba43504c4f8df6d0a5a2d32c02da19033cc2a21e2766e",
    (0.75, 0.05, None):
        "cf67030f56c2357f745461d34a1192c7b5d05758748b0bd0abf0c6434cedef39",
    (1.0, 0.05, None):
        "41627df5d4a86d6c6d01d9c9f8cce0e936d27c7d1d3904758913a3e7db59d13a",
    (0.5, 0.2, 0.00625):
        "a20e92813a7534b9d51e4fd4b98dc4a6b7226260ec211ff985159428fbdf9514",
}
GOLDEN_REFINED = \
    "5102211b77b451dcf24c367574dd602c9e6788e913b0a9c9f5ac5bdb8e4b3f61"


def mesh_sha256(m):
    buf = io.StringIO()
    save_mesh(m, buf)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("alpha,h,x_tip", list(GOLDEN))
def test_golden_mesh_bytes(alpha, h, x_tip):
    m = generate_graded_mesh(CuspDomain(alpha), h, x_tip=x_tip)
    assert mesh_sha256(m) == GOLDEN[alpha, h, x_tip]
    if (alpha, h, x_tip) == (0.5, 0.1, None):
        assert mesh_sha256(refine(m)) == GOLDEN_REFINED


def _scalar_quality(pa, pb, pc):
    best = np.inf
    pts = (np.asarray(pa), np.asarray(pb), np.asarray(pc))
    for k in range(3):
        u = pts[(k + 1) % 3] - pts[k]
        v = pts[(k + 2) % 3] - pts[k]
        nu, nv = np.hypot(*u), np.hypot(*v)
        if nu == 0.0 or nv == 0.0:
            return 0.0
        best = min(best, np.arccos(np.clip(np.dot(u, v) / (nu * nv), -1, 1)))
    return best


def test_min_angles_matches_scalar_formula():
    rng = np.random.default_rng(3)
    p = rng.standard_normal((200, 3, 2))
    p[:5, 2] = p[:5, 1]               # degenerate: two equal corners
    q = meshmod._min_angles(p[:, 0], p[:, 1], p[:, 2])
    ref = [_scalar_quality(*t) for t in p]
    assert np.array_equal(q[:5], np.zeros(5))
    assert np.array_equal(q, ref)


def zip_full_table(left, right, vertices):
    """The zipper walk on the full (nl, nr) quality table of a strip."""
    nl, nr = len(left) - 1, len(right) - 1
    pl, pr = vertices[left], vertices[right]
    pa, pb = pl[:-1, None], pr[None, :-1]
    adv = (meshmod._min_angles(pa, pb, pl[1:, None])
           >= meshmod._min_angles(pa, pb, pr[None, 1:])).tolist()
    tris = []
    i, j = 0, 0
    while i < nl or j < nr:
        if i < nl and (j == nr or adv[i][j]):
            tris.append((left[i], right[j], left[i + 1]))
            i += 1
        else:
            tris.append((left[i], right[j], right[j + 1]))
            j += 1
    return tris


def zip_all_full_tables(vertices, start):
    """zip_full_table of every strip between adjacent columns, in order."""
    tris = []
    for k in range(len(start) - 2):
        tris += zip_full_table(list(range(start[k], start[k + 1])),
                               list(range(start[k + 1], start[k + 2])),
                               vertices)
    return tris


def node_columns(ys, xs):
    """Vertices and column starts of node columns ys[k] (bottom to top) at
    abscissas xs[k]."""
    vertices = np.concatenate([np.column_stack([np.full(len(y), x), y])
                               for x, y in zip(xs, ys)])
    return vertices, np.cumsum([0] + [len(y) for y in ys])


def zip_strips(vertices, start):
    return list(map(tuple, meshmod._zip_strips(vertices, start).tolist()))


def bunched(n, end):
    """n + 1 nodes bunched at one end of [-1, 1]."""
    t = np.linspace(0.0, 1.0, n + 1) ** 6
    return 0.2 * t - 1.0 if end == "bottom" else 1.0 - 0.2 * t[::-1]


@pytest.mark.parametrize("nl,nr", [(2, 60), (3, 40), (4, 17)])
@pytest.mark.parametrize("end", ["bottom", "top"])
def test_zipper_walks_bunched_strips_like_the_full_table(nl, nr, end):
    # a few left nodes against many right ones bunched at one end: the
    # walk runs far off the strip's diagonal j = i nr / nl; the same strip
    # mirrored (right to left) rides along in one call
    ys = [np.linspace(-1.0, 1.0, nl + 1), bunched(nr, end),
          np.linspace(-1.0, 1.0, nl + 1)]
    vertices, start = node_columns(ys, [0.0, 1.0, 2.0])
    assert zip_strips(vertices, start) == zip_all_full_tables(vertices, start)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_zipper_matches_full_tables_of_strips_of_any_length(data, seed):
    # several strips of different lengths walk in one call; neighbouring
    # columns keep the generator's 2x rule
    counts = [data.draw(st.integers(1, 60))]
    for _ in range(data.draw(st.integers(1, 5))):
        n = counts[-1]
        counts.append(data.draw(st.integers(-(-n // 2), min(60, 2 * n))))
    gaps = data.draw(st.lists(st.floats(0.02, 2.0), min_size=len(counts) - 1,
                              max_size=len(counts) - 1))
    rng = np.random.default_rng(seed)

    def column(n):
        # increasing nodes with random, often bunched, gaps
        y = np.cumsum(np.append(0.0, rng.exponential(size=n) ** 3 + 1e-3))
        return rng.uniform(-1.0, 0.0) + y / y[-1] * rng.uniform(0.5, 2.0)

    vertices, start = node_columns([column(n) for n in counts],
                                   np.cumsum([0.0] + gaps))
    assert zip_strips(vertices, start) == zip_all_full_tables(vertices, start)


def assert_conforming(m):
    sides = Counter()
    for tri in m.triangles.tolist():
        for k in range(3):
            a, b = tri[k], tri[(k + 1) % 3]
            sides[min(a, b), max(a, b)] += 1
    assert set(sides.values()) <= {1, 2}
    once = {e for e, n in sides.items() if n == 1}
    bnd = [(min(a, b), max(a, b)) for a, b, _ in m.boundary_edges]
    assert len(bnd) == len(set(bnd))
    assert once == set(bnd)
    p = m.vertices[m.triangles]
    signed = (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1]) - (
        p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    assert np.all(signed > 0.0)


# inputs whose last column sat a sliver's width from the tip
SLIVER_INPUTS = [(0.720188577357892, 0.2900099086119622),
                 (0.9449677778602603, 0.26092224205947545)]


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(0.5, 1.0), h=st.floats(0.08, 0.3))
@example(*SLIVER_INPUTS[0])
@example(*SLIVER_INPUTS[1])
def test_meshes_are_conforming(alpha, h):
    dom = CuspDomain(alpha)
    try:
        m = generate_graded_mesh(dom, h)
    except MeshQualityError:
        # conformity does not depend on the angle target
        m = generate_graded_mesh(dom, h, min_angle_deg=0.0)
    assert_conforming(m)
    assert_conforming(refine(m))


@pytest.mark.parametrize("alpha,h,x_tip", [
    (*SLIVER_INPUTS[0], None), (*SLIVER_INPUTS[1], None), (0.75, 0.1, 0.0125)])
def test_no_sliver_column_at_the_tip(alpha, h, x_tip):
    m = generate_graded_mesh(CuspDomain(alpha), h, x_tip=x_tip)
    assert m.min_angle() >= 15.0
    xs = np.unique(m.vertices[:, 0])
    assert xs[1] - xs[0] >= 0.3 * (xs[2] - xs[1])


def test_quality_error_after_one_build(monkeypatch):
    # the mesh is built once, and the quality error (forced by an
    # unreachable 60 degree target) is raised without rebuilding it
    dom, h = CuspDomain(0.720188577357892), 0.2900099086119622
    calls = []
    build = meshmod._build

    def counting_build(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(meshmod, "_build", counting_build)
    with pytest.raises(MeshQualityError):
        generate_graded_mesh(dom, h, min_angle_deg=60.0)
    assert len(calls) == 1


def smoothed_counts_reference(domain, xs):
    """Column cell counts with the 2x rule restated as a repeat-until-stable
    pass over neighbouring pairs (test oracle)."""
    gaps = np.diff(xs)
    spacing = np.concatenate([gaps[:1], 0.5 * (gaps[:-1] + gaps[1:]),
                              gaps[-1:]])
    m = [2 * max(1, int(np.round(hk / sk)))
         for hk, sk in zip(xs**domain.gamma, spacing)]
    changed = True
    while changed:
        changed = False
        for k in range(len(m) - 1):
            for lo, hi in ((k, k + 1), (k + 1, k)):
                if m[hi] > 2 * m[lo]:
                    m[lo] = (m[hi] + 1) // 2
                    m[lo] += m[lo] % 2
                    changed = True
    return m


@settings(max_examples=200, deadline=None)
@given(alpha=st.floats(0.3, 1.0),
       xs=st.lists(st.integers(1, 1000), min_size=2, max_size=40,
                   unique=True))
def test_column_cell_counts_match_repeated_smoothing(alpha, xs):
    dom = CuspDomain(alpha)
    xs = np.sort(np.array(xs)) / 1000.0
    m = meshmod._column_cell_counts(dom, xs)
    assert m.tolist() == smoothed_counts_reference(dom, xs)
    assert np.all(m % 2 == 0)
    assert np.all(m[1:] <= 2 * m[:-1]) and np.all(m[:-1] <= 2 * m[1:])
