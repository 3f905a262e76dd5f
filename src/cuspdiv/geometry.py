"""Planar cusp domains and exact distance-to-boundary computations.

The domain family is

    Omega(alpha) = {(x, y) : 0 < x < 1, |y| < x**(1/alpha)},   0 < alpha <= 1,

whose boundary consists of the two curved arcs y = +-x**(1/alpha) and the
right edge x = 1.  For alpha < 1 the origin is an external power-type cusp.
The segment {y = 0} is treated as interior, so the domain is simply
connected (see README for the two possible readings of the defining
inequality).

The distance to the boundary is exact on all of R^2.  Along a curved arc the
derivative F of the squared distance is convex for alpha >= 1/2, and
concave then convex, with a closed-form inflection, for alpha < 1/2; split
there, each piece holds at most one foot point, which one bracketed Newton
solve finds (`_curve_distance`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CuspDomain",
    "BoundaryArc",
    "contains",
    "distance",
    "surrogate_distance",
    "boundary_measure",
]


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


_TINY = np.finfo(float).tiny


def _newton(fdf, t, lo, hi, x, y, max_iter):
    """Zeros in [lo, hi] of increasing functions f(t) = fdf(t, x, y)[0],
    one per point, with f(lo) <= 0 <= f(hi).

    fdf returns (f, f').  Newton steps from t keep the sign bracket [lo, hi]
    and bisect when a step leaves it (or f' = 0), at the geometric midpoint
    where 0 < 4 lo < hi.  A point stops when f = 0, an uphill step (f' > 0)
    is at most 8 ulp of t, or hi - lo is at most 8 ulp of hi (a relative
    step test can cycle between floats a few ulp apart; next to 0, 8 ulp is
    a few subnormals, and a downhill step that short is no sign of a root);
    RuntimeError if any is left after max_iter steps.
    """
    out = np.empty_like(t)
    idx = np.arange(t.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_iter):
            if idx.size == 0:
                return out
            f, df = fdf(t, x, y)
            lo = np.where(f < 0.0, t, lo)
            hi = np.where(f > 0.0, t, hi)
            step = f / df
            tn = t - step
            done = ((f == 0.0) | (hi - lo <= 8.0 * np.spacing(np.abs(hi)))
                    | ((np.abs(step) <= 8.0 * np.spacing(np.abs(t)))
                       & (df > 0.0)))
            if done.any():
                out[idx[done]] = np.clip(tn[done], lo[done], hi[done])
                keep = ~done
                idx, x, y, lo, hi, tn = (v[keep]
                                         for v in (idx, x, y, lo, hi, tn))
            stray = np.flatnonzero(~((tn > lo) & (tn < hi)))
            if stray.size:
                l, h = lo[stray], hi[stray]
                tn[stray] = 0.5 * (l + h)
                geo = (l > 0.0) & (h > 4.0 * l)
                tn[stray[geo]] = np.sqrt(l[geo]) * np.sqrt(h[geo])
            t = tn
    if idx.size:
        raise RuntimeError(f"foot-point Newton solve: {idx.size} points "
                           f"unconverged after {max_iter} steps")
    return out


def _curve_distance(domain: CuspDomain, x, y, max_iter=100):
    """Distance from points (x, y), y >= 0, to the arc {(t, t**g) : t in [0, 1]}.

    The local minima of phi(t) = (t - x)**2 + (t**g - y)**2 on the arc are
    its ends and the increasing zeros of F = phi'/2 = t - x + g t**(g-1)
    (t**g - y); F < 0 below a = min(x, y**alpha) and F > 0 above
    b = max(x, y**alpha) (both clipped to [0, 1]), so they lie in [a, b].
    F''(t) = g (g-1) t**(g-3) (2 (2g-1) t**g - (g-2) y), so F is convex on
    [0, 1] for g <= 2, and for g > 2 concave below the inflection
    t_c = ((g-2) y / (2 (2g-1)))**alpha and convex above it.  Split at
    c = clip(t_c, a, b), each piece holds at most one increasing zero of F:
    - where F changes sign on the piece, between its ends;
    - where F >= 0 at both ends of the convex piece, between the minimum of
      F (the zero of F', increasing there) and the upper end, if F < 0 there;
    - where F <= 0 at both ends of the concave piece, between the lower end
      and the maximum of F (the zero of -F'), if F > 0 there.
    Each zero and extremum is a `_newton` solve: a zero across a sign
    change from clip(x, lo, hi), an extremum in log t, and the zero past it
    from the outer end, or, past a minimum, from where the tip terms of F
    vanish.  The distance is the least over the zeros, a if F(a) >= 0 and b
    if F(b) <= 0.  alpha = 1 projects in closed form,
    t = clip((x + y) / 2, 0, 1).
    """
    g = domain.gamma
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if g == 1.0:
        t = np.clip(0.5 * (x + y), 0.0, 1.0)
        return np.hypot(x - t, y - t)

    def F(t, x, y):
        p1 = t ** (g - 1.0)
        return t - x + g * p1 * (t * p1 - y)

    def F_dF(t, x, y):
        p1 = t ** (g - 1.0)
        r = t * p1 - y
        return (t - x + g * p1 * r,
                1.0 + g * (g - 1.0) * (p1 / t) * r + (g * p1) ** 2)

    def dF_dlog(sign):
        # sign * (F', dF'/ds) at t = exp(s): in s = log t the extremum solve
        # is scale-free; near the tip it sits at (g (g-1) y)**(1/(2-g)),
        # which for g near 2 lies hundreds of binary orders below b
        def fdf(s, x, y):
            q, tg = np.exp((g - 2.0) * s), np.exp(g * s)
            return (sign * (1.0 + g * q * ((2.0 * g - 1.0) * tg
                                           - (g - 1.0) * y)),
                    sign * g * (g - 1.0) * q
                    * (2.0 * (2.0 * g - 1.0) * tg - (g - 2.0) * y))
        return fdf

    d = np.full(x.shape, np.inf)

    def offer(idx, t, xs, ys):
        d[idx] = np.minimum(d[idx], np.hypot(xs - t, ys - t**g))

    def zero(idx, lo, hi):
        # the zero across a sign change of F on [lo[idx], hi[idx]]; gathered
        # in the call, the brackets are freed as the solve narrows them
        if idx.size:
            xs, ys = x[idx], y[idx]
            offer(idx, _newton(F_dF, np.clip(xs, lo[idx], hi[idx]), lo[idx],
                               hi[idx], xs, ys, max_iter), xs, ys)

    def zero_past_extremum(idx, lo, hi, sign):
        # F has one extremum in (lo, hi) where sign * F' changes sign; the
        # zero lies between it and the outer end (hi for a minimum of F)
        if idx.size == 0:
            return
        xs, ys = x[idx], y[idx]
        fdf = dF_dlog(sign)
        s_lo, s_hi = (np.log(np.maximum(v, _TINY)) for v in (lo, hi))
        ok = (fdf(s_lo, xs, ys)[0] < 0.0) & (fdf(s_hi, xs, ys)[0] > 0.0)
        if not ok.any():
            return
        idx, xs, ys, lo, hi, s_lo, s_hi = (
            v[ok] for v in (idx, xs, ys, lo, hi, s_lo, s_hi))
        # near the tip F' ~ 1 - g (g-1) y t**(g-2) and F ~ t - x
        # - g y t**(g-1); the starts are where their t-terms vanish
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s_tip = np.log(g * (g - 1.0) * ys) / (2.0 - g)
            t_tip = np.exp(np.log(g * ys) / (2.0 - g))
        tm = np.exp(_newton(fdf, np.clip(s_tip, s_lo, s_hi), s_lo, s_hi,
                            xs, ys, max_iter))
        ok = sign * F(tm, xs, ys) < 0.0
        if sign > 0.0:
            lo, t = tm, np.clip(t_tip, tm, hi)
        else:
            hi, t = tm, lo
        idx, xs, ys, lo, hi, t = (v[ok] for v in (idx, xs, ys, lo, hi, t))
        offer(idx, _newton(F_dF, t, lo, hi, xs, ys, max_iter), xs, ys)

    ya = y**domain.alpha
    a = np.clip(np.minimum(x, ya), 0.0, 1.0)
    b = np.clip(np.maximum(x, ya), 0.0, 1.0)
    Fa, Fb = F(a, x, y), F(b, x, y)
    for end, is_min in ((a, Fa >= 0.0), (b, Fb <= 0.0)):
        idx = np.flatnonzero(is_min)
        if idx.size:
            offer(idx, end[idx], x[idx], y[idx])
    if g > 2.0:
        c = np.clip(((g - 2.0) * y / (2.0 * (2.0 * g - 1.0))) ** domain.alpha,
                    a, b)
        Fc = F(c, x, y)
        idx = np.flatnonzero((Fa < 0.0) & (Fc >= 0.0))
        zero(idx, a, c)
        idx = np.flatnonzero((Fa < 0.0) & (Fc <= 0.0))
        zero_past_extremum(idx, a[idx], c[idx], -1.0)
    else:
        c, Fc = a, Fa
    idx = np.flatnonzero((Fc < 0.0) & (Fb > 0.0))
    zero(idx, c, b)
    idx = np.flatnonzero((Fc >= 0.0) & (Fb > 0.0))
    zero_past_extremum(idx, c[idx], b[idx], 1.0)
    return d


def _edge_distance(x, y):
    """Distance to the right edge {x = 1, -1 <= y <= 1}."""
    yc = np.clip(y, -1.0, 1.0)
    return np.hypot(x - 1.0, y - yc)


# Points per kernel pass of `distance`.  The kernel is pointwise, so blocks
# change no value; they bound its temporaries to a few MB.  Measured on a
# 2-core x86-64 Xeon VM (4 MiB L2), one 2^20-point call (half uniform over
# [0, 1] x [-1, 1], half within 1e-3 of the upper arc), medians of 5, in s,
# unblocked / 2^13 / 2^14 / 2^15 / 2^16 points per block:
#   alpha 0.3   0.95 / 0.81 / 0.64 / 0.60 / 0.63
#   alpha 0.5   0.72 / 0.40 / 0.43 / 0.47 / 0.44
#   alpha 0.75  0.68 / 0.40 / 0.39 / 0.44 / 0.48
#   alpha 1     0.071 / 0.036 / 0.038 / 0.040 / 0.041
# and a tracemalloc peak on 164k of those points of 36.6 / 3.1 / 4.8 / 8.4
# / 15.4 MB (alpha 0.75).
_BLOCK = 1 << 14


def distance(domain: CuspDomain, p) -> np.ndarray | float:
    """Euclidean distance to the boundary, defined on all of R^2.

    Minimum over the three boundary arcs.  Since the upper arc lies in
    {y >= 0}, the nearer of the two mirror-image arcs is always the one on
    the side of the point, so a single 1-D minimization against the upper
    arc at (x, |y|) suffices.  `_curve_distance` solves it exactly for every
    point: it splits the arc at the inflection of the derivative of the
    squared distance, and solves for each candidate foot point by a
    bracketed, safeguarded Newton iteration with an ulp stop.  It is exactly
    0 at (t, +-t**(1/alpha)) as numpy evaluates the power.  Points go
    through the kernel _BLOCK at a time.
    """
    p = np.asarray(p, dtype=float)
    scalar = p.ndim == 1
    pts = np.atleast_2d(p)
    d = np.empty(len(pts))
    for i in range(0, len(pts), _BLOCK):
        x, y = pts[i:i + _BLOCK, 0], pts[i:i + _BLOCK, 1]
        d[i:i + _BLOCK] = np.minimum(_curve_distance(domain, x, np.abs(y)),
                                     _edge_distance(x, y))
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
    # imported here, so that `import cuspdiv` loads neither module
    from scipy.integrate import quad
    from scipy.optimize import brentq

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
            crossings.append(brentq(gap, ts[i], ts[i + 1], xtol=1e-14))
    if gs[-1] == 0.0:
        crossings.append(ts[-1])

    knots = np.unique(np.concatenate([[arc.t0, arc.t1], crossings]))
    length = 0.0
    for a, b in zip(knots[:-1], knots[1:]):
        if b - a <= 0.0:
            continue
        mid = 0.5 * (a + b)
        if gap(mid) < 0.0:
            val, _ = quad(
                lambda t: float(arc.speed(domain, t)), a, b,
                epsrel=1e-9, epsabs=1e-13, limit=200,
            )
            length += val
    return length

