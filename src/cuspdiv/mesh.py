"""Graded conforming triangulations of the cusp domain.

The generator lays out vertical node columns spaced h x^(1/alpha) toward
the cusp tip, places the top and bottom node of every column exactly on the
boundary curves, and zipper-triangulates adjacent columns.  The nodes are
placed in one vertex array, and the zipper walks of all strips advance
together, one step of every strip per pass, so the number of passes is
the longest strip's cell count, not the number of strips.
For alpha < 1 a shape-regular triangulation cannot reach the tip itself
(the cusp opening angle vanishes), so the mesh stops at a tiny abscissa
x_tip chosen so the omitted sliver area is below both h^2 and 0.1% of
|Omega|; the resulting short vertical boundary edge is tagged 'tip'.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .geometry import CuspDomain

__all__ = [
    "TriangulatedMesh",
    "MeshQualityError",
    "generate_graded_mesh",
    "refine",
    "save_mesh",
    "load_mesh",
]


class MeshQualityError(RuntimeError):
    """Raised when the generator cannot meet the minimum-angle target."""


@dataclass
class TriangulatedMesh:
    vertices: np.ndarray          # (nv, 2)
    triangles: np.ndarray         # (nt, 3) int
    boundary_edges: list          # [(v0, v1, kind)]
    alpha: float
    h: float = 0.0
    grading: float = 1.0
    x_tip: float = 0.0

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    def min_angle(self) -> float:
        """Smallest interior angle over all triangles, in degrees."""
        p = self.vertices[self.triangles]
        return float(np.degrees(_min_angles(p[:, 0], p[:, 1], p[:, 2]).min()))

    def edge_numbering(self):
        """Unique undirected edges and the edge number of each triangle side.

        Returns the (ne, 2) edges (lower index first, in lexicographic
        order) and an (nt, 3) array numbering the (0,1), (1,2) and (2,0)
        side of every triangle.
        """
        nv = self.num_vertices
        keys, sides = np.unique(_edge_keys(_sides(self.triangles), nv),
                                return_inverse=True)
        return np.column_stack(np.divmod(keys, nv)), sides.reshape(-1, 3)

    def edges(self) -> np.ndarray:
        """Unique undirected edges as an (ne, 2) index array."""
        return self.edge_numbering()[0]


def _sides(triangles):
    """The (0,1), (1,2), (2,0) vertex pairs of every triangle, (nt, 3, 2)."""
    return triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 3, 2)


def _edge_keys(pairs, nv):
    """Integer key lo * nv + hi of each undirected vertex pair (..., 2).

    Keys order edges lexicographically by (lo, hi).
    """
    p = np.sort(pairs, axis=-1)
    return (p[..., 0] * nv + p[..., 1]).ravel()


def _tip_abscissa(domain: CuspDomain, h: float) -> float:
    a = domain.alpha
    # omitted sliver area: 2*a/(a+1) * x_tip**((a+1)/a)
    defect = min(h * h, 1e-3 * domain.area())
    x_tip = (defect * (a + 1.0) / (2.0 * a)) ** (a / (a + 1.0))
    return min(x_tip, 0.25)


def _column_abscissas(domain: CuspDomain, h: float, x_tip: float = None):
    if x_tip is None:
        x_tip = _tip_abscissa(domain, h)
    g = domain.gamma

    def step(x):
        return max(1e-7, h * x**g)

    xs = [1.0]
    x = 1.0
    while True:
        dx = step(x)
        if x - dx <= x_tip * 1.0001:
            break
        x = x - dx
        xs.append(x)
        if len(xs) > 200000:
            raise MeshQualityError("column grading did not terminate")
    # a last column closer to the tip than 0.3 of the local step or of the
    # previous gap leaves a sliver strip: merge it into the tip strip
    if len(xs) > 1 and \
            xs[-1] - x_tip < 0.3 * max(step(x_tip), xs[-2] - xs[-1]):
        xs.pop()
    xs.append(x_tip)
    return np.array(xs[::-1]), x_tip


def _column_cell_counts(domain, xs):
    """Even cell count per column, aspect near 1, adjacent ratio <= 2."""
    heights = xs**domain.gamma
    gaps = np.diff(xs)
    spacing = np.empty_like(xs)
    spacing[0] = gaps[0]
    spacing[-1] = gaps[-1]
    spacing[1:-1] = 0.5 * (gaps[:-1] + gaps[1:])
    m = 2 * np.maximum(1, np.round(heights / spacing).astype(int))
    # raise counts so neighbouring columns differ by at most 2x, each to the
    # least even value a neighbour forces (2 ceil(m/4) beside m): counts
    # only grow, so one sweep each way leaves every pair within the rule
    for k in range(1, len(m)):
        m[k] = max(m[k], 2 * -(-m[k - 1] // 4))
    for k in range(len(m) - 2, -1, -1):
        m[k] = max(m[k], 2 * -(-m[k + 1] // 4))
    return m


def generate_graded_mesh(domain: CuspDomain, h: float, *,
                         x_tip: float = None,
                         min_angle_deg: float = 15.0) -> TriangulatedMesh:
    """Conforming graded triangulation of Omega(alpha).

    Column spacing, and so the element diameter, is h * x**(1/alpha): h
    times the half-width of the cusp at x, which keeps elements shape regular
    and equilibrates distance-power weights across them.  The mesh records
    1/alpha as its grading.  x_tip, in (0, 1), overrides the truncation
    abscissa chosen from the area-defect rule (useful when sources
    concentrate near the tip).  Raises MeshQualityError if the smallest angle is below
    min_angle_deg.
    """
    if not (0.0 < h < 1.0):
        raise ValueError("h must be in (0, 1)")
    if x_tip is not None and not (0.0 < x_tip < 1.0):
        raise ValueError("x_tip must be in (0, 1)")
    mesh = _build(domain, h, *_column_abscissas(domain, h, x_tip))
    angle = mesh.min_angle()
    if not angle >= min_angle_deg:
        raise MeshQualityError(
            f"could not reach min angle {min_angle_deg} deg (got {angle:.2f})"
        )
    return mesh


def _build(domain, h, xs, x_tip):
    m = _column_cell_counts(domain, xs)

    # column k holds vertices start[k] .. start[k + 1] - 1, bottom to top
    start = np.concatenate([[0], np.cumsum(m + 1)])
    col = np.repeat(np.arange(len(m)), m + 1)
    # np.linspace(-1, 1, m[k] + 1) of each column, bit for bit, scaled by
    # the scalar power x**gamma (numpy's array power may differ by an ulp)
    t = (np.arange(start[-1]) - start[col]) * (2.0 / m[col]) - 1.0
    t[start[1:] - 1] = 1.0
    heights = np.array([x**domain.gamma for x in xs])
    vertices = np.column_stack([xs[col], heights[col] * t])
    triangles = _zip_strips(vertices, start)

    # strip k has bottom nodes a, b and top nodes b - 1, c - 1
    strips = zip(start[:-2].tolist(), start[1:-1].tolist(), start[2:].tolist())
    boundary = []
    for a, b, c in strips:
        boundary.append((a, b, "lower-curve"))
        boundary.append((b - 1, c - 1, "upper-curve"))
    boundary += [(a, a + 1, "right-edge")
                 for a in range(start[-2], start[-1] - 1)]
    boundary += [(a, a + 1, "tip") for a in range(start[0], start[1] - 1)]

    return TriangulatedMesh(vertices, triangles, boundary, domain.alpha,
                            h=h, grading=domain.gamma, x_tip=x_tip)


def _min_angles(pa, pb, pc):
    """Smallest angle (radians) of triangles (pa, pb, pc), broadcast over the
    leading axes of the (..., 2) corner arrays; 0 for degenerate ones."""
    pts = (pa, pb, pc)
    best = None
    degenerate = False
    for k in range(3):
        u = pts[(k + 1) % 3] - pts[k]
        v = pts[(k + 2) % 3] - pts[k]
        nu = np.hypot(u[..., 0], u[..., 1])
        nv = np.hypot(v[..., 0], v[..., 1])
        degenerate = degenerate | (nu == 0.0) | (nv == 0.0)
        dot = np.vecdot(u, v)     # the kernel of np.dot, so same rounding
        with np.errstate(divide="ignore", invalid="ignore"):
            ang = np.arccos(np.clip(dot / (nu * nv), -1, 1))
        best = ang if best is None else np.minimum(best, ang)
    return np.where(degenerate, 0.0, best)


def _zip_strips(vertices, start):
    """Triangulate every strip between adjacent node columns (bottom to top).

    Strip k joins column k (vertices start[k] .. start[k + 1] - 1) to
    column k + 1.  Its walk holds a node a on the left and b on the right,
    from the bottom ones, and takes one step per cell of the two columns:
    step s adds (a, b, a + 1) or (a, b, b + 1) as row offset[k] + s and
    moves a or b up.  Where both moves are open the triangle with the
    larger minimum angle is taken, which picks diagonals aligned against
    the local shear of the boundary-following rows.  All strips walk in
    lockstep: pass s takes step s of every strip that has one, with one
    _min_angles call on the stacked candidates of the strips where both
    moves are open.  Triangles are CCW, since each has signed area
    (x_right - x_left) times the rise of its vertical side.
    """
    steps = start[2:] - start[:-2] - 2
    offset = np.concatenate([[0], np.cumsum(steps)[:-1]])
    # longest walks first, so the strips still walking are a prefix
    order = np.argsort(-steps, kind="stable")
    walking = np.searchsorted(-steps[order], -np.arange(steps.max()))
    a, b, offset = start[:-2][order], start[1:-1][order], offset[order]
    a_top, b_top = b - 1, start[2:][order] - 1
    tris = np.empty((steps.sum(), 3), dtype=int)
    for s, n in enumerate(walking.tolist()):
        an, bn = a[:n], b[:n]
        adv = an < a_top[:n]
        both = np.flatnonzero(adv & (bn < b_top[:n]))
        a2, b2 = an[both], bn[both]
        q = _min_angles(vertices[a2], vertices[b2],
                        vertices[np.stack([a2, b2]) + 1])
        adv[both] = q[0] >= q[1]
        tris[offset[:n] + s] = np.column_stack(
            [an, bn, np.where(adv, an, bn) + 1])
        an += adv
        bn += ~adv
    return tris


def refine(mesh: TriangulatedMesh) -> TriangulatedMesh:
    """Uniform 1-to-4 refinement with boundary midpoints snapped to the arcs.

    Midpoints are numbered in order of first appearance when the triangles'
    (0,1), (1,2), (2,0) sides are visited triangle by triangle.
    """
    domain = CuspDomain(mesh.alpha)
    nv = mesh.num_vertices
    keys, first, sides = np.unique(_edge_keys(_sides(mesh.triangles), nv),
                                   return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    mids = nv + rank[sides].reshape(-1, 3)
    a, b = np.divmod(keys[order], nv)
    verts = np.concatenate(
        [mesh.vertices, 0.5 * (mesh.vertices[a] + mesh.vertices[b])])

    ends = np.array([(v0, v1) for v0, v1, _ in mesh.boundary_edges])
    bmids = (nv + rank[np.searchsorted(keys, _edge_keys(ends, nv))]).tolist()
    boundary = []
    # scalar powers: numpy's array power may round differently by an ulp
    for (v0, v1, kind), mid in zip(mesh.boundary_edges, bmids):
        mx = verts[mid, 0]
        if kind == "upper-curve":
            verts[mid, 1] = mx**domain.gamma
        elif kind == "lower-curve":
            verts[mid, 1] = -(mx**domain.gamma)
        elif kind == "right-edge":
            verts[mid, 0] = 1.0
        elif kind == "tip":
            verts[mid, 0] = mesh.x_tip
        boundary.append((v0, mid, kind))
        boundary.append((mid, v1, kind))

    t = mesh.triangles
    ab, bc, ca = mids.T
    tris = np.stack([t[:, 0], ab, ca, ab, t[:, 1], bc, ca, bc, t[:, 2],
                     ab, bc, ca], axis=1).reshape(-1, 3)

    return TriangulatedMesh(
        verts, tris, boundary,
        mesh.alpha, h=mesh.h / 2.0, grading=mesh.grading, x_tip=mesh.x_tip,
    )


def save_mesh(mesh: TriangulatedMesh, path_or_buf) -> None:
    """Plain-text mesh export (vertices / triangles / boundary blocks)."""
    text = "".join([
        f"# cuspdiv mesh alpha={float(mesh.alpha)!r} h={float(mesh.h)!r} "
        f"grading={float(mesh.grading)!r} x_tip={float(mesh.x_tip)!r}\n",
        f"vertices {mesh.num_vertices}\n",
        *(f"{i} {x!r} {y!r}\n"
          for i, (x, y) in enumerate(mesh.vertices.tolist())),
        f"triangles {mesh.num_triangles}\n",
        *(f"{a} {b} {c}\n" for a, b, c in mesh.triangles.tolist()),
        f"boundary {len(mesh.boundary_edges)}\n",
        *(f"{v0} {v1} {kind}\n" for v0, v1, kind in mesh.boundary_edges),
    ])
    if hasattr(path_or_buf, "write"):
        path_or_buf.write(text)
    else:
        with open(path_or_buf, "w") as fh:
            fh.write(text)


def load_mesh(path_or_buf) -> TriangulatedMesh:
    """Read a `save_mesh` file.  ValueError if the header gives no alpha, a
    block name is unknown, a block has fewer lines than its count, a line
    has other than 3 fields or a vertex index is outside [0, nv)."""
    if hasattr(path_or_buf, "read"):
        lines = path_or_buf.read().splitlines()
    else:
        with open(path_or_buf) as fh:
            lines = fh.read().splitlines()
    meta = {"alpha": None, "h": 0.0, "grading": 1.0, "x_tip": 0.0}
    it = iter(lines)
    verts, tris, boundary = np.empty((0, 3)), np.empty((0, 3), int), []
    for line in it:
        line = line.strip()
        if line.startswith("#"):
            for token in line[1:].split():
                if "=" in token:
                    k, v = token.split("=", 1)
                    if k in meta:
                        meta[k] = float(v)
            continue
        if not line:
            continue
        block, count = line.split()
        count = int(count)
        if block not in ("vertices", "triangles", "boundary"):
            raise ValueError(f"mesh file: unknown block {block!r}")
        rows = list(itertools.islice(it, count))
        if len(rows) < count:
            raise ValueError(f"mesh file: block {block!r} ends after "
                             f"{len(rows)} of its {count} lines")
        if block == "vertices":
            verts = _table(block, rows, float)
        elif block == "triangles":
            tris = _table(block, rows, int)
        else:
            for parts in map(str.split, rows):
                _check_fields(block, parts)
                boundary.append((int(parts[0]), int(parts[1]), parts[2]))
    if meta["alpha"] is None:
        raise ValueError("mesh file: no alpha in its '# cuspdiv mesh' header")
    nv = len(verts)
    ends = np.array([e[:2] for e in boundary], dtype=int)
    for block, index in (("triangles", tris), ("boundary", ends)):
        bad = index[(index < 0) | (index >= nv)]
        if bad.size:
            raise ValueError(f"mesh file: {block} block: vertex index "
                             f"{bad[0]} is outside [0, {nv})")
    return TriangulatedMesh(
        verts[:, 1:].copy(), tris, boundary,
        meta["alpha"], h=meta["h"], grading=meta["grading"], x_tip=meta["x_tip"],
    )


def _check_fields(block, parts):
    if len(parts) != 3:
        raise ValueError(f"mesh file: {block} line {parts} does not "
                         f"have 3 fields")


def _table(block, rows, dtype):
    """The lines of a vertices or triangles block as one (n, 3) array."""
    if not rows:
        return np.empty((0, 3), dtype=dtype)
    try:
        table = np.loadtxt(rows, dtype=dtype, comments=None, ndmin=2)
    except ValueError as err:
        reason = err
    else:
        # loadtxt skips blank lines, and takes any number of fields
        if table.shape == (len(rows), 3):
            return table
        reason = f"{table.shape[0]} rows of {table.shape[1]} fields"
    for parts in map(str.split, rows):    # name a line that is short or long
        _check_fields(block, parts)
    raise ValueError(f"mesh file: {block} block: {reason}")
