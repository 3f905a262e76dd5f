"""Whitney decomposition of a box minus a closed set F, plus m-set checks.

Cubes are dyadic squares relative to a square bounding box: generation k
splits the box into 4**k squares of side L * 2**-k, and the cube (k, i, j)
has its lower-left corner at (x0 + i * L * 2**-k, y0 + j * L * 2**-k).
`refine` splits such cells, of one box or of several boxes in lockstep;
`decompose` accepts a cube Q with diameter l when l <= d(Q, F) <= 4*l, with
d(Q, F) bracketed by d(center) -+ l/2 (valid for any 1-Lipschitz distance
function), so acceptance is decided conservatively and the returned cubes
satisfy the band exactly.  The accepted cubes are one (n, 3) integer array
of (k, i, j) rows in lexicographic order, so each generation is a
contiguous slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Box",
    "WhitneyDecomposition",
    "decompose",
    "refine",
    "count_generation",
    "generation_count_slope",
    "verify_mset",
    "save_decomposition",
    "default_box",
]

_SQRT2 = float(np.sqrt(2.0))
_SAMPLE = 5    # cube_set_distance's sample points per cube side
_SLACK = 1e-12  # relative and absolute rounding slack of `_bounds`


@dataclass(frozen=True)
class Box:
    """Axis-aligned square [x0, x0+side] x [y0, y0+side]."""

    x0: float
    y0: float
    side: float

    def cells(self, k, i, j):
        """Corners x0, y0 and sides s of cells (k, i, j); k may be a scalar."""
        s = np.ldexp(self.side, -k)
        return self.x0 + i * s, self.y0 + j * s, s


def default_box() -> Box:
    """Square covering the cusp domain family, inflated by 25%."""
    # Omega sits in [0,1] x [-1,1]; inflate that 2x2 frame by 25%.
    return Box(-0.75, -1.25, 2.5)


@dataclass
class WhitneyDecomposition:
    """Accepted cubes as an (n, 3) int64 array of (k, i, j) rows, sorted."""

    box: Box
    kmax: int
    cubes: np.ndarray
    distance_fn: object = field(repr=False)

    def geometry(self, cubes):
        """Lower-left corners x0, y0 and sides s of (k, i, j) rows: one row
        or an (m, 3) array, such as cubes or a generation."""
        return self.box.cells(*np.atleast_2d(cubes).T)

    def generation(self, k: int) -> np.ndarray:
        """The generation-k rows (a contiguous slice of cubes)."""
        lo, hi = np.searchsorted(self.cubes[:, 0], [k, k + 1])
        return self.cubes[lo:hi]

    def covers(self, p):
        """True where p lies in some accepted cube (closed cubes).

        p is one point (returns a bool) or an (n, 2) array (returns an (n,)
        bool array).  A point can only lie in the up to four generation-k
        cubes around its floor cell, which are looked up by key i*2**k + j.
        """
        p = np.asarray(p, dtype=float)
        pts = np.atleast_2d(p)
        x, y = pts[:, 0], pts[:, 1]
        hit = np.zeros(len(pts), dtype=bool)
        for k in range(self.kmax + 1):
            gen = self.generation(k)
            if len(gen) == 0:
                continue
            n = 2**k
            keys = gen[:, 1] * n + gen[:, 2]
            s = self.box.side * 2.0 ** (-k)
            i = np.floor((x - self.box.x0) / s).astype(np.int64)
            j = np.floor((y - self.box.y0) / s).astype(np.int64)
            for di in (0, -1):
                for dj in (0, -1):
                    key = (i + di) * n + (j + dj)
                    pos = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
                    # gen[pos] is that cube when it was accepted; any other
                    # cube found (a missing or off-grid key) fails the
                    # closed containment test or covers p anyway
                    x0, y0, side = self.geometry(gen[pos])
                    hit |= ((x0 <= x) & (x <= x0 + side)
                            & (y0 <= y) & (y <= y0 + side))
        return bool(hit[0]) if p.ndim == 1 else hit

    def cube_set_distance(self, cubes):
        """A posteriori distance estimate: min of d over a 5 x 5 cube sample.

        cubes is one (k, i, j) row (returns a float) or an (m, 3) array
        (returns an (m,) array).  The sample min overestimates the true
        cube-set distance by at most diam/8 for _SAMPLE = 5 (half the
        sample-cell diagonal), which is the safety margin used when checking
        the Whitney band.
        """
        x0, y0, s = self.geometry(cubes)
        xs = np.linspace(x0, x0 + s, _SAMPLE, axis=1)
        ys = np.linspace(y0, y0 + s, _SAMPLE, axis=1)
        X, Y = np.broadcast_arrays(xs[:, None, :], ys[:, :, None])
        pts = np.column_stack([X.ravel(), Y.ravel()])
        d = np.asarray(self.distance_fn(pts), dtype=float)
        d = d.reshape(len(s), _SAMPLE**2).min(axis=1)
        return float(d[0]) if np.ndim(cubes) == 1 else d


def refine(roots, classify) -> np.ndarray:
    """Accepted (b, k, i, j) rows, generation by generation, of the boxes
    roots[b] refined in lockstep by classify(k, b, cx, cy, s, dp): it gets the
    root indices and centres of the active generation-k cells, the side
    s[b] of the generation-k cells of each root b and dp, the distance that
    classify evaluated at each cell's parent centre (NaN at the roots and
    where it evaluated none), and returns the masks (accept, split) and d,
    the distance at each centre it evaluated and NaN elsewhere.  A split
    (b, k, i, j) passes on its children (b, k+1, 2i+di, 2j+dj) in the order
    (di, dj) = (0,0), (1,0), (0,1), (1,1), with its d; the other cells end.
    So one classify call per generation serves every root, and the rows of
    root b, in order, are those of refining roots[b] alone.
    """
    x0, y0, sides = np.array([(q.x0, q.y0, q.side) for q in roots]).T
    accepted = []
    k, b = 0, np.arange(len(roots))
    i = j = np.zeros(len(roots), dtype=np.int64)
    dp = np.full(len(roots), np.nan)
    while len(i):
        # a centre is the (1, 1) child's corner, rounded as `Box.cells`
        # rounds x0 + (i + 0.5) * s; the sums are formed in place, so that
        # many cells are refined with few arrays of their size
        half = np.ldexp(sides[b], -(k + 1))
        cx, cy = (2 * i + 1) * half, (2 * j + 1) * half
        del half
        cx += x0[b]
        cy += y0[b]
        accept, split, d = classify(k, b, cx, cy, np.ldexp(sides, -k), dp)
        accepted.append(np.column_stack(
            [b[accept], np.full(np.count_nonzero(accept), k), i[accept],
             j[accept]]))
        b, i, j = np.tile(b[split], 4), 2 * i[split], 2 * j[split]
        i = np.concatenate([i, i + 1, i, i + 1])
        j = np.concatenate([j, j, j + 1, j + 1])
        dp = np.tile(d[split], 4)
        k += 1
    return np.concatenate(accepted)


def _bounds(dp, s):
    """Bounds (lo, hi) on the distance at the centres of the side-s children
    of cells with centre distance dp; NaN where dp is NaN.

    A child centre lies off = s sqrt(2)/2 from its parent's, and a
    1-Lipschitz distance moves at most off.  _SLACK, relative to dp + off
    and absolute, covers rounding: a few ulps of the coordinates and of d
    in the centres and in `geometry.distance` (a foot point to an 8-ulp stop
    at a minimum of the squared distance, then one hypot); 1e-12 is over
    500 ulps of any coordinate below 8 in magnitude.
    """
    off = s * (_SQRT2 / 2.0)
    off = off + _SLACK * (dp + off) + _SLACK
    return dp - off, dp + off


def _decide(tests, distance_fn, cx, cy, dp, s, ask):
    """(tests(d), d) at the centres (cx, cy) of side-s cells where ask.

    tests maps distances to a tuple of masks, each monotone in d.  Where
    every test reads the same at both `_bounds` from the parents' dp, it is
    read at the lower bound; the distance is evaluated (d, NaN elsewhere)
    only at the other centres where ask, in one call or none.  Where ask is
    False, the tests read at a bound or NaN, and the caller drops them.
    """
    lo, hi = _bounds(dp, s)
    need = np.isnan(dp)
    for at_lo, at_hi in zip(tests(lo), tests(hi)):
        need |= at_lo != at_hi
    need &= ask
    d = np.full(len(cx), np.nan)
    if need.any():
        d[need] = distance_fn(np.column_stack([cx[need], cy[need]]))
    return tests(np.where(need, d, lo)), d


def decompose(distance_fn, box: Box, kmax: int) -> WhitneyDecomposition:
    """Whitney decomposition of box \\ F where F = {distance_fn == 0}.

    distance_fn must be 1-Lipschitz, vanish exactly on F and accept an
    (n, 2) array of points.  Cubes still touching F at generation kmax are
    discarded (never accepted), preserving the lower bound of the band.
    Each test of a cube is monotone in its centre distance, so `_decide`
    evaluates the distance only where the bounds from the parent's leave a
    test open, and the cubes are those of evaluating it at every centre,
    bit for bit.  Raises ValueError unless 2 <= kmax <= 29 (the sort key
    packs k, i and j into one int64).
    """
    if not 2 <= kmax <= 29:
        raise ValueError(f"kmax must lie in [2, 29], got {kmax}")

    def classify(k, b, cx, cy, s, dp):
        ell = s * _SQRT2

        def tests(d):
            # d(Q,F) in [d_center - l/2, d_center + l/2]; accept when the
            # bracket certifies l <= d(Q,F) <= 4l.  Cubes certified farther
            # than 4l can never yield accepted children (children need
            # d <= 1.75*l but inherit d >= d_parent - l/4)
            return d >= 1.5 * ell, d <= 3.5 * ell, d - 0.5 * ell > 4.0 * ell

        (near, close, hopeless), d = _decide(tests, distance_fn, cx, cy, dp,
                                             s, True)
        accept = near & close
        return accept, ~accept & ~hopeless & (k < kmax), d

    cubes = refine([box], classify)[:, 1:]
    if len(cubes) == 0:
        raise RuntimeError("kmax too small: no cube was accepted")
    k, i, j = cubes.T
    cubes = cubes[np.argsort((k << 58) | (i << 29) | j)]
    return WhitneyDecomposition(box, kmax, cubes, distance_fn)


def count_generation(dec: WhitneyDecomposition, center, R: float, k: int) -> int:
    """Number of generation-k cubes entirely contained in B(center, R)."""
    if k > dec.kmax:
        raise ValueError("k exceeds kmax of the decomposition")
    if R <= 0.0:
        raise ValueError("R must be positive")
    cx, cy = float(center[0]), float(center[1])
    x0, y0, s = dec.geometry(dec.generation(k))
    # farthest corner from the ball center
    fx = np.maximum(np.abs(cx - x0), np.abs(cx - (x0 + s)))
    fy = np.maximum(np.abs(cy - y0), np.abs(cy - (y0 + s)))
    return int(np.count_nonzero(np.hypot(fx, fy) <= R))


def generation_count_slope(dec, center, R, k_lo, k_hi):
    """Least-squares slope of log2 N_k against k over [k_lo, k_hi].

    Generations with zero count are skipped; for a 1-set the slope is near 1
    (cube count doubles per generation).
    """
    ks, logs = [], []
    for k in range(k_lo, k_hi + 1):
        n = count_generation(dec, center, R, k)
        if n > 0:
            ks.append(k)
            logs.append(np.log2(n))
    if len(ks) < 3:
        raise RuntimeError("not enough populated generations for a slope fit")
    slope = np.polyfit(ks, logs, 1)[0]
    return float(slope)


def verify_mset(boundary_measure_fn, centers, radii):
    """Estimate the m-set constants of F from ball-intersection measures.

    boundary_measure_fn(center, r) must return H^m(B(center, r) & F); here
    m = 1 so ratios measure/r are formed.  Returns a dict with the extreme
    ratios, the fitted slope of log measure vs log r (averaged over centers)
    and an ok flag (False when any measure degenerates to zero).  Raises
    ValueError without centers or with fewer than two distinct radii, which
    leave no slope to fit.
    """
    centers = list(centers)
    radii = np.asarray(list(radii), dtype=float)
    if len(centers) == 0 or len(np.unique(radii)) < 2:
        raise ValueError(f"verify_mset needs centers and two distinct radii, "
                         f"got {len(centers)} centers, radii {radii.tolist()}")

    ratios, slopes = [], []
    for c in centers:
        measures = np.array([boundary_measure_fn(c, r) for r in radii])
        if np.any(measures <= 0.0):
            return {"Clow": 0.0, "Chigh": 0.0, "m_fit": float("nan"),
                    "ok": False}
        ratios.extend(measures / radii)
        slopes.append(np.polyfit(np.log(radii), np.log(measures), 1)[0])
    return {
        "Clow": float(np.min(ratios)),
        "Chigh": float(np.max(ratios)),
        "m_fit": float(np.mean(slopes)),
        "ok": True,
    }


def save_decomposition(dec: WhitneyDecomposition, path) -> None:
    """Text export to the file at path: one `k i j` line per cube, in the
    sorted order of cubes."""
    with open(path, "w") as fh:
        fh.write(f"# cuspdiv whitney box=({dec.box.x0!r},{dec.box.y0!r},"
                 f"{dec.box.side!r}) kmax={dec.kmax}\n")
        fh.writelines(f"{k} {i} {j}\n" for k, i, j in dec.cubes.tolist())
