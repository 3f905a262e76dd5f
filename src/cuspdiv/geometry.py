"""Planar cusp domains and exact distance-to-boundary computations.

The domain family is

    Omega(alpha) = {(x, y) : 0 < x < 1, |y| < x**(1/alpha)},   0 < alpha <= 1,

whose boundary consists of the two curved arcs y = +-x**(1/alpha) and the
right edge x = 1.  For alpha < 1 the origin is an external power-type cusp.
The segment {y = 0} is treated as interior, so the domain is simply
connected (see README for the two possible readings of the defining
inequality).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize

__all__ = [
    "CuspDomain",
    "BoundaryArc",
    "contains",
    "distance",
    "surrogate_distance",
    "boundary_measure",
    "surrogate_equivalence_constant",
]

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class CuspDomain:
    """The cusp domain Omega(alpha)."""

    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")

    @property
    def gamma(self) -> float:
        """Curve exponent 1/alpha: the boundary arcs are y = +-x**gamma."""
        return 1.0 / self.alpha

    def curve(self, t):
        """Height of the upper boundary curve at abscissa t."""
        return np.abs(t) ** self.gamma

    def area(self) -> float:
        """|Omega| = 2 * integral of x**(1/alpha) = 2*alpha/(alpha+1)."""
        return 2.0 * self.alpha / (self.alpha + 1.0)


@dataclass(frozen=True)
class BoundaryArc:
    """One of the three arcs partitioning the boundary of Omega(alpha).

    kind is 'upper-curve' ((t, t**(1/alpha)), t in [0,1]),
    'lower-curve' ((t, -t**(1/alpha))) or 'right-edge' ((1, t), t in [-1,1]).
    """

    kind: str
    t0: float
    t1: float

    def point(self, domain: CuspDomain, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "upper-curve":
            return np.stack([t, domain.curve(t)], axis=-1)
        if self.kind == "lower-curve":
            return np.stack([t, -domain.curve(t)], axis=-1)
        if self.kind == "right-edge":
            return np.stack([np.ones_like(t), t], axis=-1)
        raise ValueError(f"unknown arc kind {self.kind!r}")

    def speed(self, domain: CuspDomain, t):
        t = np.asarray(t, dtype=float)
        if self.kind in ("upper-curve", "lower-curve"):
            g = domain.gamma
            return np.sqrt(1.0 + (g * t ** (g - 1.0)) ** 2)
        return np.ones_like(t)


def boundary_arcs(domain: CuspDomain) -> list[BoundaryArc]:
    return [
        BoundaryArc("upper-curve", 0.0, 1.0),
        BoundaryArc("lower-curve", 0.0, 1.0),
        BoundaryArc("right-edge", -1.0, 1.0),
    ]


def contains(domain: CuspDomain, p) -> np.ndarray | bool:
    """Strict membership test: 0 < x < 1 and |y| < x**(1/alpha)."""
    p = np.asarray(p, dtype=float)
    x, y = p[..., 0], p[..., 1]
    inside = (x > 0.0) & (x < 1.0) & (np.abs(y) < x**domain.gamma)
    return bool(inside) if inside.ndim == 0 else inside


def _grid_curve_distance(domain: CuspDomain, x, y, n_coarse=65, iters=60):
    """`_curve_distance` by a grid bracket (clustered at the tip) and golden
    section: the fallback for points outside its convexity certificate."""
    g = domain.gamma

    def dist_sq(t):
        return (x - t) ** 2 + (y - t**g) ** 2

    # grid with extra resolution near t=0 where the cusp geometry varies fast
    u = np.linspace(0.0, 1.0, n_coarse)
    ts = np.unique(np.concatenate([u, u**4]))
    vals = np.stack([dist_sq(t) for t in ts])
    best = np.argmin(vals, axis=0)
    lo = ts[np.maximum(best - 1, 0)]
    hi = ts[np.minimum(best + 1, len(ts) - 1)]

    a, b = lo.copy(), hi.copy()
    for _ in range(iters):
        c = b - _GOLDEN * (b - a)
        d = a + _GOLDEN * (b - a)
        left = dist_sq(c) < dist_sq(d)
        b = np.where(left, d, b)
        a = np.where(left, a, c)
    t = 0.5 * (a + b)
    return np.sqrt(dist_sq(t))


def _curve_distance(domain: CuspDomain, x, y, max_iter=100):
    """Distance from points (x, y), y >= 0, to the arc {(t, t**g) : t in [0, 1]}.

    The foot point is a zero of F(t) = t - x + g t**(g-1) (t**g - y), and
    F < 0 below a = min(x, y**alpha), F > 0 above b = max(x, y**alpha) (both
    clipped to [0, 1]).  F' > 0 on [a, b] is certified when y <= a**g (the
    point is outside the convex epigraph of the arc) or
    1 + g(g-1) M (a**g - y) > 0, M = max t**(g-2) on [a, b]; the foot point
    is then b if F(b) <= 0, a if F(a) >= 0, else the unique root, found by
    Newton steps from clip(x, a, b) that keep a sign bracket [L, H] and
    bisect when a step leaves it.  A point stops when F = 0, the step is at
    most 8 ulp of t, or H - L is at most 8 ulp of H (a relative step test
    can cycle between floats a few ulp apart); RuntimeError if any is left
    after max_iter steps.  Uncertified points take `_grid_curve_distance`;
    alpha = 1 projects in closed form, t = clip((x + y) / 2, 0, 1).
    """
    g = domain.gamma
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if g == 1.0:
        t = np.clip(0.5 * (x + y), 0.0, 1.0)
        return np.hypot(x - t, y - t)

    def F(t):
        p1 = t ** (g - 1.0)
        return t - x + g * p1 * (t * p1 - y)

    ya = y**domain.alpha
    a = np.clip(np.minimum(x, ya), 0.0, 1.0)
    b = np.clip(np.maximum(x, ya), 0.0, 1.0)
    ag = a**g
    with np.errstate(divide="ignore", invalid="ignore"):
        M = b ** (g - 2.0) if g >= 2.0 else a ** (g - 2.0)
        certified = (y <= ag) | (1.0 + g * (g - 1.0) * M * (ag - y) > 0.0)
    Fa, Fb = F(a), F(b)
    t = np.where(Fb <= 0.0, b, a)
    idx = np.flatnonzero(certified & (Fb > 0.0) & (Fa < 0.0))
    xs, ys, lo, hi = x[idx], y[idx], a[idx], b[idx]
    ti = np.clip(xs, lo, hi)
    for _ in range(max_iter):
        if idx.size == 0:
            break
        p1 = ti ** (g - 1.0)
        r = ti * p1 - ys
        f = ti - xs + g * p1 * r
        df = 1.0 + g * (g - 1.0) * (p1 / ti) * r + (g * p1) ** 2
        lo = np.where(f < 0.0, ti, lo)
        hi = np.where(f > 0.0, ti, hi)
        step = f / df
        tn = ti - step
        done = ((f == 0.0) | (np.abs(step) <= 8.0 * np.spacing(ti))
                | (hi - lo <= 8.0 * np.spacing(hi)))
        t[idx[done]] = np.clip(tn, lo, hi)[done]
        keep = ~done
        tn = np.where((tn > lo) & (tn < hi), tn, 0.5 * (lo + hi))
        idx, xs, ys, lo, hi, ti = (v[keep] for v in (idx, xs, ys, lo, hi, tn))
    if idx.size:
        raise RuntimeError(f"foot-point Newton solve: {idx.size} points "
                           f"unconverged after {max_iter} steps")
    d = np.hypot(x - t, y - t**g)
    rest = ~certified
    if np.any(rest):
        d[rest] = _grid_curve_distance(domain, x[rest], y[rest])
    return d


def _edge_distance(x, y):
    """Distance to the right edge {x = 1, -1 <= y <= 1}."""
    yc = np.clip(y, -1.0, 1.0)
    return np.hypot(x - 1.0, y - yc)


def distance(domain: CuspDomain, p) -> np.ndarray | float:
    """Euclidean distance to the boundary, defined on all of R^2.

    Minimum over the three boundary arcs.  Since the upper arc lies in
    {y >= 0}, the nearer of the two mirror-image arcs is always the one on
    the side of the point, so a single 1-D minimization against the upper
    arc at (x, |y|) suffices.  `_curve_distance` solves it by a bracketed,
    safeguarded Newton iteration with an ulp stop (grid search where its
    convexity certificate fails), agreeing with the grid search to 1e-12
    relative plus 1e-14 absolute, and exactly 0 at (t, +-t**(1/alpha)) as
    numpy evaluates the power.
    """
    p = np.asarray(p, dtype=float)
    scalar = p.ndim == 1
    pts = np.atleast_2d(p)
    x, y = pts[:, 0], pts[:, 1]
    d_curve = _curve_distance(domain, x, np.abs(y))
    d_edge = _edge_distance(x, y)
    d = np.minimum(d_curve, d_edge)
    return float(d[0]) if scalar else d


def surrogate_distance(domain: CuspDomain, p) -> np.ndarray | float:
    """The tip-adapted surrogate x**(1/alpha) - |y|, valid inside Omega."""
    p = np.asarray(p, dtype=float)
    scalar = p.ndim == 1
    pts = np.atleast_2d(p)
    inside = contains(domain, pts)
    if not np.all(inside):
        raise ValueError("surrogate distance is only defined inside Omega")
    s = pts[:, 0] ** domain.gamma - np.abs(pts[:, 1])
    return float(s[0]) if scalar else s


def on_boundary(domain: CuspDomain, p, tol: float = 1e-10) -> bool:
    return distance(domain, np.asarray(p, dtype=float)) <= tol


def boundary_measure(domain: CuspDomain, center, r: float, tol: float = 1e-10) -> float:
    """Arclength of (boundary of Omega) intersected with B(center, r).

    center must lie on the boundary (within tol).  Curved contributions are
    integrated by adaptive quadrature of the arclength element restricted to
    the parameter set where the arc is inside the ball.
    """
    center = np.asarray(center, dtype=float)
    if r <= 0.0:
        raise ValueError("r must be positive")
    if not on_boundary(domain, center, tol):
        raise ValueError(f"center {center} is not on the boundary (tol {tol})")

    total = 0.0
    for arc in boundary_arcs(domain):
        total += _arc_length_in_ball(domain, arc, center, r)
    return total


def _arc_length_in_ball(domain, arc, center, r, n_scan=4096):
    """Arclength of one boundary arc inside the ball B(center, r)."""

    def gap(t):
        pt = arc.point(domain, t)
        return np.hypot(pt[..., 0] - center[0], pt[..., 1] - center[1]) - r

    ts = np.linspace(arc.t0, arc.t1, n_scan + 1)
    gs = gap(ts)
    # locate the sub-intervals where the arc is strictly inside the ball
    crossings = []
    for i in range(n_scan):
        if gs[i] == 0.0:
            crossings.append(ts[i])
        elif gs[i] * gs[i + 1] < 0.0:
            crossings.append(optimize.brentq(gap, ts[i], ts[i + 1], xtol=1e-14))
    if gs[-1] == 0.0:
        crossings.append(ts[-1])

    knots = np.unique(np.concatenate([[arc.t0, arc.t1], crossings]))
    length = 0.0
    for a, b in zip(knots[:-1], knots[1:]):
        if b - a <= 0.0:
            continue
        mid = 0.5 * (a + b)
        if gap(mid) < 0.0:
            val, _ = integrate.quad(
                lambda t: float(arc.speed(domain, t)), a, b,
                epsrel=1e-9, epsabs=1e-13, limit=200,
            )
            length += val
    return length


def surrogate_equivalence_constant(domain: CuspDomain, n: int = 4000, seed: int = 0):
    """Empirical c1 with c1*(x**(1/a) - |y|) <= dist <= x**(1/a) - |y| on Omega.

    Returns (c_low, c_high), the extreme observed ratios dist/surrogate over a
    quasi-uniform sample of the domain.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=4 * n) ** (1.0 + domain.gamma)
    # below x ~ 1e-5 the surrogate is ~ x^(1/alpha) and the absolute error
    # of the distance minimization (~1e-15) would dominate the ratio
    x = x[x > 1e-5][:n]
    y = rng.uniform(-1.0, 1.0, size=len(x)) * x**domain.gamma
    keep = np.abs(y) < x**domain.gamma
    pts = np.column_stack([x[keep], y[keep]])
    s = surrogate_distance(domain, pts)
    d = distance(domain, pts)
    ratio = d / s
    return float(ratio.min()), float(ratio.max())
