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

The boundary measure H^1(boundary & B(c, r)) (`boundary_measure`) takes
the right edge as a closed-form chord and both curved arcs as the upper
arc, seen from c and from its mirror image.  For c on the boundary the
same foot-point function has one sign change there, so each arc meets the
ball in one parameter interval; bracketed Newton solves find its ends and
fixed Gauss-Legendre panels integrate the arclength between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

__all__ = [
    "CuspDomain",
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
        """Height of the upper boundary curve at abscissa t.  np.power takes
        numpy's array loop for a scalar t too (a numpy scalar's ** calls the
        C library's pow, which can differ by an ulp)."""
        return np.power(np.abs(t), self.gamma)

    def area(self) -> float:
        """|Omega| = 2 * integral of x**(1/alpha) = 2*alpha/(alpha+1)."""
        return 2.0 * self.alpha / (self.alpha + 1.0)


def contains(domain: CuspDomain, p) -> np.ndarray | bool:
    """Strict membership test: 0 < x < 1 and |y| < x**(1/alpha)."""
    p = np.asarray(p, dtype=float)
    x, y = p[..., 0], p[..., 1]
    inside = (x > 0.0) & (x < 1.0) & (np.abs(y) < domain.curve(x))
    return bool(inside) if inside.ndim == 0 else inside


_TINY = np.finfo(float).tiny
_NEWTON_STEPS = 100   # step cap of every `_newton` solve
_EXPONENT_BITS = 0x7FF0000000000000


def _ulp8(v):
    """8 * np.spacing(np.abs(v)), bit for bit, for float64 arrays of finite
    values: 2**(e - 49) from the exponent bits 2**e of v, and 8 times the
    least subnormal where v is zero or subnormal.  Only at +-max float,
    where np.spacing overflows to inf, it gives 8 * 2**971; inf and NaN
    give inf."""
    e = (v.view(np.int64) & _EXPONENT_BITS).view(np.float64)
    return np.maximum(e * 2.0**-49, 8.0 * 5e-324)


def _newton(fdf, t, lo, hi, x, y):
    """Zeros in [lo, hi] of increasing functions f(t) = fdf(t, x, y)[0],
    one per point, with f(lo) <= 0 <= f(hi).

    fdf returns (f, f').  Newton steps from t keep the sign bracket [lo, hi]
    and bisect when a step leaves it (or f' = 0), at the geometric midpoint
    where 0 < 4 lo < hi.  A point stops when f = 0, an uphill step (f' > 0)
    is at most 8 ulp of t, or hi - lo is at most 8 ulp of hi (a relative
    step test can cycle between floats a few ulp apart; next to 0, 8 ulp is
    a few subnormals, and a downhill step that short is no sign of a root);
    RuntimeError if any is left after _NEWTON_STEPS steps.  8 ulp is read
    off the exponent bits (`_ulp8`), which costs less than np.spacing.
    """
    out = np.empty_like(t)
    idx = np.arange(t.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_NEWTON_STEPS):
            if idx.size == 0:
                return out
            f, df = fdf(t, x, y)
            lo = np.where(f < 0.0, t, lo)
            hi = np.where(f > 0.0, t, hi)
            step = f / df
            tn = t - step
            done = ((f == 0.0) | (hi - lo <= _ulp8(hi))
                    | ((np.abs(step) <= _ulp8(t)) & (df > 0.0)))
            fin = np.flatnonzero(done)
            if fin.size:
                out[idx[fin]] = np.clip(tn[fin], lo[fin], hi[fin])
                keep = np.flatnonzero(~done)
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
                           f"unconverged after {_NEWTON_STEPS} steps")
    return out


def _foot(g, t, x, y):
    """F = phi'/2 for phi(t) = (t - x)**2 + (t**g - y)**2: zero at a foot
    point of (x, y) on the arc {(t, t**g)}."""
    p1 = t ** (g - 1.0)
    return t - x + g * p1 * (t * p1 - y)


def _foot_dF(g, t, x, y):
    """(F, F') of `_foot`, for `_newton`; F' is inf or NaN at or near t = 0."""
    p1 = t ** (g - 1.0)
    r = t * p1 - y
    return (t - x + g * p1 * r,
            1.0 + g * (g - 1.0) * (p1 / t) * r + (g * p1) ** 2)


def _curve_distance(domain: CuspDomain, x, y):
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

    F_dF = partial(_foot_dF, g)

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
                               hi[idx], xs, ys), xs, ys)

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
                            xs, ys))
        ok = sign * _foot(g, tm, xs, ys) < 0.0
        if sign > 0.0:
            lo, t = tm, np.clip(t_tip, tm, hi)
        else:
            hi, t = tm, lo
        idx, xs, ys, lo, hi, t = (v[ok] for v in (idx, xs, ys, lo, hi, t))
        offer(idx, _newton(F_dF, t, lo, hi, xs, ys), xs, ys)

    ya = y**domain.alpha
    a = np.clip(np.minimum(x, ya), 0.0, 1.0)
    b = np.clip(np.maximum(x, ya), 0.0, 1.0)
    Fa, Fb = _foot(g, a, x, y), _foot(g, b, x, y)
    for end, is_min in ((a, Fa >= 0.0), (b, Fb <= 0.0)):
        idx = np.flatnonzero(is_min)
        if idx.size:
            offer(idx, end[idx], x[idx], y[idx])
    if g > 2.0:
        c = np.clip(((g - 2.0) * y / (2.0 * (2.0 * g - 1.0))) ** domain.alpha,
                    a, b)
        Fc = _foot(g, c, x, y)
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
    """Distance to the right edge {x = 1, -1 <= y <= 1}: hypot(x - 1,
    y - clip(y, -1, 1)), bit for bit, with the hypot taken only where
    |y| > 1 (or y is NaN); elsewhere it is hypot(x - 1, 0) = |x - 1|."""
    d = np.abs(x - 1.0)
    far = np.flatnonzero(~(np.abs(y) <= 1.0))
    if far.size:
        yf = y[far]
        d[far] = np.hypot(x[far] - 1.0, yf - np.clip(yf, -1.0, 1.0))
    return d


# Points per kernel pass of `distance`.  The kernel is pointwise, so blocks
# change no value; they bound its temporaries to a few MB.  Measured on a
# 2-core x86-64 Xeon VM (4 MiB L2), one 2^20-point call (seed 0: 2^19
# uniform over [0, 1] x [-1, 1], 2^19 at (t, t**g + U(-1e-3, 1e-3)), t
# uniform in [0, 1]), medians of 5, block sizes interleaved, in s,
# unblocked / 2^13 / 2^14 / 2^15 / 2^16 points per block:
#   alpha 0.3   0.58 / 0.52 / 0.40 / 0.37 / 0.36
#   alpha 0.5   0.39 / 0.22 / 0.21 / 0.21 / 0.24
#   alpha 0.75  0.41 / 0.26 / 0.26 / 0.24 / 0.26
#   alpha 1     0.043 / 0.024 / 0.023 / 0.024 / 0.025
# (a repeat run read up to 35% more; the host is noisy) and a tracemalloc
# peak on 164k of those points of 36.6 / 3.1 / 5.0 / 8.6 / 15.9 MB
# (alpha 0.75).
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


_ON_BOUNDARY_TOL = 1e-10


def boundary_measure(domain: CuspDomain, center, r: float) -> float:
    """Arclength of (boundary of Omega) intersected with B(center, r).

    center must lie on the boundary (within _ON_BOUNDARY_TOL).  The right
    edge gives the chord of the ball on x = 1, clipped to |y| <= 1; the
    lower arc is the upper arc measured from the mirrored centre (cx, -cy).
    """
    cx, cy = np.asarray(center, dtype=float)
    if not r > 0.0:
        raise ValueError("r must be positive")
    if not distance(domain, center) <= _ON_BOUNDARY_TOL:
        raise ValueError(f"center {center} is not on the boundary")
    total = sum(_curve_length_in_ball(domain, cx, s * cy, r) for s in (1, -1))
    d = 1.0 - cx
    w = (r - d) * (r + d)
    if w > 0.0:
        half = np.sqrt(w)
        total += max(0.0, min(cy + half, 1.0) - max(cy - half, -1.0))
    return float(total)


@cache
def _gauss_rule(order):
    """The Gauss-Legendre rule of `order` on [-1, 1], built once per order;
    its arrays are read-only, since every caller shares them."""
    rule = np.polynomial.legendre.leggauss(order)
    for a in rule:
        a.flags.writeable = False
    return rule


def _gauss_panels(breaks, order):
    """Gauss-Legendre nodes/weights over consecutive panels of `breaks`."""
    xg, wg = _gauss_rule(order)
    a = breaks[:-1, None]
    b = breaks[1:, None]
    nodes = 0.5 * (a + b) + 0.5 * (b - a) * xg[None, :]
    weights = 0.5 * (b - a) * wg[None, :]
    return nodes.ravel(), weights.ravel()


def _curve_length_in_ball(domain, cx, cy, r):
    """Length of the upper arc {(t, t**g) : 0 <= t <= 1} inside B((cx, cy), r).

    For a centre on the boundary, |cy| <= cx**g, F = `_foot` is negative
    below a = max(cy, 0)**alpha (t < a <= cx, t**g < cy) and increasing
    above it (each term is), so phi(t) = (t - cx)**2 + (t**g - cy)**2 - r**2,
    phi' = 2F, falls to one minimum at the zero t0 of F in [a, cx], then
    rises: the arc meets the ball in one parameter interval.  t0 is a
    `_newton` solve unless F(a) >= 0 or F(cx) <= 0; one more finds the ends
    where phi > 0 at 0 or 1 (f = -+phi on [0, t0] and [t0, 1], from where
    the tangent at t0 leaves the ball, or an ulp off t0).  A 10-point
    Gauss-Legendre rule integrates the speed sqrt(1 + (g t**(g-1))**2) on
    panels cut at 2**-k toward the tip, where it is not smooth for
    1 < g < 2, and at 2 ceil(g) equal steps: for g > 2 it has complex
    singularities at |t| = g**(-1/(g-1)), arg t = pi/(2g - 2), which near
    t = 1 approach the real axis as g grows.  Against a 30-digit quadrature
    the rule is within 1.3e-15 relative for alpha from 0.01 to 1.
    """
    g = domain.gamma
    # a centre _ON_BOUNDARY_TOL off the boundary moves onto it, vertically
    cx = min(max(cx, 0.0), 1.0)
    cy = min(max(cy, -domain.curve(cx)), domain.curve(cx))

    def phi(t):
        return (t - cx) ** 2 + (domain.curve(t) - cy) ** 2 - r * r

    def fdf(t, s, _):
        return s * phi(t), 2.0 * s * _foot(g, t, cx, cy)

    a = min(max(cy, 0.0) ** domain.alpha, cx)
    if _foot(g, a, cx, cy) >= 0.0:
        t0 = a
    elif _foot(g, cx, cx, cy) <= 0.0:
        t0 = cx
    else:   # t from cx, in the bracket [a, cx], for the point (cx, cy)
        t0 = _newton(partial(_foot_dF, g),
                     *np.array([[cx], [a], [cx], [cx], [cy]]))[0]
    if not phi(t0) < 0.0:
        return 0.0
    ends = np.array([0.0, 1.0])
    out = phi(ends) > 0.0
    s, lo, hi = (np.array(v)[out] for v in ((-1.0, 1.0), (0.0, t0), (t0, 1.0)))
    dt = max(np.sqrt(-phi(t0)) / np.hypot(1.0, g * t0 ** (g - 1.0)),
             np.spacing(t0))
    ends[out] = _newton(fdf, np.clip(t0 + s * dt, lo, hi), lo, hi, s, s)
    knots = np.unique(np.clip(np.concatenate([
        2.0 ** -np.arange(64.0), np.linspace(0.0, 1.0, 2 * math.ceil(g) + 1),
        ends]), *ends))
    t, w = _gauss_panels(knots, 10)
    return np.sum(w * np.sqrt(1.0 + (g * t ** (g - 1.0)) ** 2))
