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
|Omega|; the resulting short vertical boundary side is of kind 'tip'.
A mesh is its vertices and triangles: the boundary is derived from them
(`TriangulatedMesh.boundary_edges`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import CuspDomain

__all__ = [
    "TriangulatedMesh",
    "P2Space",
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
    """A triangulation: vertices (nv, 2), CCW triangles (nt, 3) of vertex
    indices, the cusp exponent alpha and the mesh size h.

    A mesh is immutable once built: nothing may write to its arrays.  Its
    edge numbering is computed once per mesh object, on first use, and
    shared by every later reader (P2Space, boundary_edges, edges, refine);
    fem keys its quadratures by the mesh object's id on the same premise.
    """

    vertices: np.ndarray          # (nv, 2)
    triangles: np.ndarray         # (nt, 3) int
    alpha: float
    h: float

    @property
    def x_tip(self) -> float:            # the smallest vertex abscissa
        return float(self.vertices[:, 0].min())

    @property
    def grading(self) -> float:          # element diameters are h x**grading
        return 1.0 / self.alpha

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

    @property
    def boundary_edges(self) -> list:
        """The sides of exactly one triangle as (v0, v1, kind), v0 < v1, in
        edge order.  kind is 'right-edge' if both x are 1, 'tip' if both
        are the smallest vertex abscissa, else 'upper-curve' or
        'lower-curve' if both heights are positive or both negative, and
        'no kind' otherwise (which `load_mesh` refuses)."""
        edges, sides = self.edge_numbering()
        ends = edges[_boundary_sides(sides)]
        kinds = _kinds(self.vertices, ends).tolist()
        return list(zip(*ends.T.tolist(), kinds))

    def edge_numbering(self):
        """Unique undirected edges and the edge number of each triangle side.

        Returns the (ne, 2) edges (lower index first, in lexicographic
        order) and an (nt, 3) array numbering the (0,1), (1,2) and (2,0)
        side of every triangle.  Both are read-only, and the same arrays
        on every call: the mesh numbers its edges once.
        """
        return self._numbered

    @cached_property
    def _numbered(self):
        return _numbering(self.triangles, self.num_vertices)

    def edges(self) -> np.ndarray:
        """Unique undirected edges as an (ne, 2) index array."""
        return self.edge_numbering()[0]


class P2Space:
    """Continuous piecewise-quadratic scalar space: vertex + edge-midpoint dofs.

    Vertex v is dof v; edge k of ``edges`` (the mesh's edge numbering) is dof
    ``num_vertices + k``.
    """

    def __init__(self, mesh: TriangulatedMesh):
        self.mesh = mesh
        nv = mesh.num_vertices
        self.edges, self.sides = mesh.edge_numbering()
        self.tri_dofs = np.hstack([mesh.triangles, nv + self.sides])
        self.n_dofs = nv + len(self.edges)

    def dof_coords(self):
        v = self.mesh.vertices
        mids = 0.5 * (v[self.edges[:, 0]] + v[self.edges[:, 1]])
        return np.concatenate([v, mids])

    def boundary_dofs(self):
        k = _boundary_sides(self.sides)
        return np.unique(np.concatenate([self.edges[k].ravel(),
                                         self.mesh.num_vertices + k]))


def _numbering(triangles, nv):
    """The edge numbering of `TriangulatedMesh.edge_numbering` of the (nt, 3)
    triangles on nv vertices, as read-only arrays."""
    pairs = np.sort(triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    # keys lo * nv + hi order the edges lexicographically by (lo, hi)
    keys, sides = np.unique(pairs[:, 0] * nv + pairs[:, 1],
                            return_inverse=True)
    edges, sides = np.column_stack(np.divmod(keys, nv)), sides.reshape(-1, 3)
    edges.flags.writeable = sides.flags.writeable = False
    return edges, sides


def _boundary_sides(sides):
    """The numbers of the edges that are the side of exactly one triangle
    (the boundary), ascending, from the (nt, 3) edge numbers of the sides."""
    return np.flatnonzero(np.bincount(sides.ravel()) == 1)


def _kinds(vertices, ends):
    """The kind (see `TriangulatedMesh.boundary_edges`) of each boundary
    side of the (nb, 2) vertex pairs ends."""
    x, y = vertices[ends, 0], vertices[ends, 1]
    # initial= lets a mesh without vertices pass
    return np.select([np.all(x == 1.0, axis=1),
                      np.all(x == vertices[:, 0].min(initial=np.inf), axis=1),
                      np.all(y > 0.0, axis=1), np.all(y < 0.0, axis=1)],
                     ["right-edge", "tip", "upper-curve", "lower-curve"],
                     "no kind")


def _tip_abscissa(domain: CuspDomain, h: float) -> float:
    a = domain.alpha
    # omitted sliver area: 2*a/(a+1) * x_tip**((a+1)/a)
    defect = min(h * h, 1e-3 * domain.area())
    x_tip = (defect * (a + 1.0) / (2.0 * a)) ** (a / (a + 1.0))
    return min(x_tip, 0.25)


def _column_abscissas(domain: CuspDomain, h: float, x_tip: float | None):
    """Column abscissas up from x_tip (None: _tip_abscissa) to 1."""
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
    return np.array(xs[::-1])


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
    and equilibrates distance-power weights across them.  x_tip, in (0, 1),
    overrides the truncation abscissa chosen from the area-defect rule
    (useful when sources concentrate near the tip).  Raises
    MeshQualityError if the smallest angle is below min_angle_deg.
    """
    if not (0.0 < h < 1.0):
        raise ValueError("h must be in (0, 1)")
    if x_tip is not None and not (0.0 < x_tip < 1.0):
        raise ValueError("x_tip must be in (0, 1)")
    mesh = _build(domain, h, _column_abscissas(domain, h, x_tip))
    angle = mesh.min_angle()
    if not angle >= min_angle_deg:
        raise MeshQualityError(
            f"could not reach min angle {min_angle_deg} deg (got {angle:.2f})"
        )
    return mesh


def _build(domain, h, xs):
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
    return TriangulatedMesh(vertices, _zip_strips(vertices, start),
                            domain.alpha, h=h)


def _min_angles(pa, pb, pc):
    """Smallest angle (radians) of triangles (pa, pb, pc), broadcast over the
    leading axes of the (..., 2) corner arrays; 0 for degenerate ones."""
    # edges e_k = p_{k+1} - p_k; the angle at p_k lies between e_k and
    # -e_{k-1} = p_{k-1} - p_k, and negation is exact
    e = np.stack(np.broadcast_arrays(pb - pa, pc - pb, pa - pc))
    n = np.hypot(e[..., 0], e[..., 1])
    dot = -np.vecdot(e, e[[2, 0, 1]])   # the kernel of np.dot: same rounding
    with np.errstate(divide="ignore", invalid="ignore"):
        ang = np.arccos(np.clip(dot / (n * n[[2, 0, 1]]), -1, 1))
    return np.where((n == 0.0).any(axis=0), 0.0, ang.min(axis=0))


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
    """Uniform 1-to-4 refinement with curve midpoints snapped to the arcs.

    The refined vertices before the snap are the parent's P2 dof coordinates,
    and triangle t splits into its corner triangles and its midpoint one, all
    in the P2 dof numbering (the midpoint of edge k is vertex nv + k).  The
    midpoint of a boundary side of kind 'upper-curve' or 'lower-curve' (see
    `TriangulatedMesh.boundary_edges`) is moved onto its arc.
    """
    gamma = CuspDomain(mesh.alpha).gamma
    space = P2Space(mesh)
    verts = space.dof_coords()
    k = _boundary_sides(space.sides)
    kinds = _kinds(mesh.vertices, space.edges[k]).tolist()
    # scalar powers: numpy's array power may round differently by an ulp
    for mid, kind in zip((mesh.num_vertices + k).tolist(), kinds):
        if kind == "upper-curve":
            verts[mid, 1] = verts[mid, 0]**gamma
        elif kind == "lower-curve":
            verts[mid, 1] = -(verts[mid, 0]**gamma)

    tris = space.tri_dofs[:, [0, 3, 5, 3, 1, 4, 5, 4, 2, 3, 4, 5]]
    return TriangulatedMesh(verts, tris.reshape(-1, 3), mesh.alpha,
                            h=mesh.h / 2.0)


def save_mesh(mesh: TriangulatedMesh, path) -> None:
    """Plain-text mesh export to the file at path: a header with alpha and
    h, then the vertices and triangles blocks."""
    with open(path, "w") as fh:
        fh.write("".join([
            f"# cuspdiv mesh alpha={float(mesh.alpha)!r} "
            f"h={float(mesh.h)!r}\n",
            f"vertices {mesh.num_vertices}\n",
            *(f"{i} {x!r} {y!r}\n"
              for i, (x, y) in enumerate(mesh.vertices.tolist())),
            f"triangles {mesh.num_triangles}\n",
            "%d %d %d\n" * mesh.num_triangles
            % tuple(mesh.triangles.ravel().tolist()),
        ]))


def load_mesh(path) -> TriangulatedMesh:
    """Read the `save_mesh` file at path; other header tokens k=v are
    ignored.  ValueError if the header gives no alpha or no h, a block
    header is not a name and a count, a block name is unknown (an older
    file's 'boundary' block among them), the vertices or triangles block
    is missing, a block appears twice or has fewer lines than its count, a
    line has other than 3 fields, a vertices line's index is not its
    position in the block, a triangle's vertex index is outside [0, nv),
    or a side of exactly one triangle has no kind (see
    `TriangulatedMesh.boundary_edges`)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    meta = {"alpha": None, "h": None}
    it = iter(lines)
    blocks = {}
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
        parts = line.split()
        if len(parts) != 2 or not parts[1].isdecimal():
            raise ValueError(f"mesh file: {line!r} is not a block header "
                             f"'<name> <count>'")
        block, count = parts[0], int(parts[1])
        if block not in ("vertices", "triangles"):
            raise ValueError(f"mesh file: unknown block {block!r}")
        if block in blocks:
            raise ValueError(f"mesh file: block {block!r} appears twice")
        rows = list(itertools.islice(it, count))
        if len(rows) < count:
            raise ValueError(f"mesh file: block {block!r} ends after "
                             f"{len(rows)} of its {count} lines")
        blocks[block] = _table(block, rows,
                               float if block == "vertices" else int)
    for key, value in meta.items():
        if value is None:
            raise ValueError(f"mesh file: no {key} in its '# cuspdiv mesh' "
                             f"header")
    for block in ("vertices", "triangles"):
        if block not in blocks:
            raise ValueError(f"mesh file: no {block!r} block")
    verts, tris = blocks["vertices"], blocks["triangles"]
    nv = len(verts)
    moved = np.flatnonzero(verts[:, 0] != np.arange(nv))
    if moved.size:
        raise ValueError(f"mesh file: vertices block: line {moved[0]} has "
                         f"index {verts[moved[0], 0]:g}")
    bad = tris[(tris < 0) | (tris >= nv)]
    if bad.size:
        raise ValueError(f"mesh file: triangles block: vertex index "
                         f"{bad[0]} is outside [0, {nv})")
    mesh = TriangulatedMesh(verts[:, 1:].copy(), tris, meta["alpha"],
                            h=meta["h"])
    for v0, v1, kind in mesh.boundary_edges:
        if kind == "no kind":
            raise ValueError(f"mesh file: the boundary side ({v0}, {v1}) has "
                             f"no kind: its vertices are not both at x = 1, "
                             f"both at the smallest abscissa, or both above "
                             f"or both below y = 0")
    return mesh


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
        if len(parts) != 3:
            raise ValueError(f"mesh file: {block} line {parts} does not "
                             f"have 3 fields")
    raise ValueError(f"mesh file: {block} block: {reason}")
