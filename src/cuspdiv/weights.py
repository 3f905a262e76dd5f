"""Distance-power weights d^mu, Muckenhaupt A_p diagnostics, weighted L^p
norms by tensor quadrature, and the closed-form blow-up norms on the cusp
domain.

The weighted norm is ||u||_{L^p(Omega, gamma)} = ||u d^gamma||_{L^p(Omega)}.
Each kind of integrand has one path:

- the singular families f_s and y x^(-s-1) are weighted by the tip-adapted
  surrogate distance x**(1/alpha) - |y|, under which their norms have exact
  closed forms.  In the graded coordinates y = tau x**(1/alpha) of
  `tensor_grid` that distance is x**(1/alpha) u, u = 1 - |tau|, so the
  integrand, its weight and the Jacobian factor into a function of x times
  one of u, and `weighted_lp_norm` is a product of two 1-D sums (Fubini);
- every other integrand (the Newtonian-potential estimate) is summed by
  `lp_norms_at_nodes` at the 2-D nodes of a grid, weighted by the exact
  Euclidean distance to the boundary, as are the A_p ball averages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import geometry, whitney

__all__ = [
    "WeightSpec",
    "QuadratureGrid",
    "TensorGrid",
    "tensor_grid",
    "fs_quadrature_grid",
    "ys_quadrature_grid",
    "ball_grid",
    "ApEstimate",
    "build_ball_plan",
    "default_sampling",
    "estimate_ap_constant",
    "weighted_lp_norm",
    "lp_norms_at_nodes",
    "fs_family",
    "ys_family",
    "fs_norm_closed_form",
    "ys_norm_closed_form",
]


def _pprime(p: float) -> float:
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    return p / (p - 1.0)


@dataclass(frozen=True)
class WeightSpec:
    """The weight d^mu with d the exact distance to the boundary."""

    mu: float


@dataclass
class QuadratureGrid:
    """Positive-weight quadrature nodes (n, 2) and weights (n,)."""

    nodes: np.ndarray
    weights: np.ndarray


class TensorGrid:
    """Product grid over Omega in the coordinates (x, u = 1 - |tau|).

    x, log_wx: x-nodes and log weights, the Jacobian x**(1/alpha) included;
    u, log_wu: u-nodes and log weights of one half tau > 0, log 2 included
    for the mirror half, so that sums over them integrate functions of |y|.
    The 2-D nodes and weights are built on first read.
    """

    def __init__(self, domain, order, n_x, n_tau, x_min, tau_min):
        if not min(order, n_x, n_tau) >= 1:
            raise ValueError("order, n_x and n_tau must be at least 1, got "
                             f"{order}, {n_x}, {n_tau}")
        if not (0.0 < x_min < 1.0 and 0.0 < tau_min < 1.0):
            raise ValueError("x_min and tau_min must lie in (0, 1), got "
                             f"{x_min}, {tau_min}")
        self.domain = domain
        self.order, self.n_x, self.n_tau = order, n_x, n_tau
        self.x_min, self.tau_min = x_min, tau_min
        # geometric breakpoints 1, 1/2, ..., down to x_min (log-equispaced)
        xb = np.geomspace(1.0, x_min, n_x + 1)
        self.x, self._wx = _gauss_panels(xb[::-1].copy(), order)
        self._ub = np.geomspace(1.0, tau_min, n_tau + 1)   # u = 1 - tau
        self.u, uw = _gauss_panels(self._ub[::-1].copy(), order)
        self.log_wx = np.log(self._wx) + domain.gamma * np.log(self.x)
        self.log_wu = math.log(2.0) + np.log(uw)

    @cached_property
    def _arrays(self):
        g = self.domain.gamma
        tb = 1.0 - self._ub                          # 0 ... 1 - tau_min
        tn_pos, tw_pos = _gauss_panels(tb, self.order)
        tn = np.concatenate([-tn_pos[::-1], tn_pos])
        tw = np.concatenate([tw_pos[::-1], tw_pos])
        X, T = np.meshgrid(self.x, tn, indexing="ij")
        WX, WT = np.meshgrid(self._wx, tw, indexing="ij")
        nodes = np.column_stack([X.ravel(), (T * X**g).ravel()])
        return nodes, (WX * WT * X**g).ravel()

    @property
    def nodes(self):
        return self._arrays[0]

    @property
    def weights(self):
        return self._arrays[1]

    def refined(self) -> "TensorGrid":
        """The grid with 4 more Gauss points and twice the panels."""
        return tensor_grid(self.domain, order=self.order + 4,
                           n_x=2 * self.n_x, n_tau=2 * self.n_tau,
                           x_min=self.x_min, tau_min=self.tau_min)


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


def tensor_grid(domain, *, order=10, n_x=40, n_tau=30,
                x_min=1e-12, tau_min=1e-10) -> TensorGrid:
    """Tensor quadrature over Omega in the graded coordinates (x, tau).

    Substituting y = tau * x**(1/alpha) maps Omega to (0,1) x (-1,1) with
    Jacobian x**(1/alpha).  The x-panels are geometric toward the tip down to
    x_min, the tau-panels geometric toward +-1 down to margin tau_min, so
    power singularities at the tip and at the curved boundary are integrated
    with scale-independent per-panel accuracy.  Truncation omits the slivers
    {x < x_min} and {1 - |tau| < tau_min}.

    The u-factor carries the same panels in u = 1 - |tau|, where a margin
    below the spacing of doubles near 1 stays representable; the 2-D arrays
    place the tau-nodes at 1 - u rounded, and their weights underflow once
    x**(1 + 1/alpha) drops below the smallest double.  Raises ValueError
    unless order, n_x and n_tau are at least 1 and x_min, tau_min lie in
    (0, 1).
    """
    return TensorGrid(domain, order, n_x, n_tau, x_min, tau_min)


def _x_panels(e1, tol, threshold):
    """(x_min, n_x) for an x-integrand x**(e1 - 1): the tail below x_min is
    0.2 tol of the total for every e1 (the blow-up fits need that), and ~3
    geometric panels per decade keep the per-panel Gauss error ~1e-9."""
    if e1 <= 0.0:
        raise ValueError(f"s >= {threshold}: norm integrand not integrable")
    x_min = max(math.exp(math.log(0.2 * tol) / e1), 1e-240)
    return x_min, max(24, int(3.3 * math.log10(1.0 / x_min)))


def fs_quadrature_grid(domain, beta, p, s, *, tol=1e-3, order=12):
    """Grid resolving the norm integrand of the singular family f_s.

    In graded coordinates the integrand is x**E * (1-|tau|)**(q1-1) with
    E + 1 = p'(A - s) and q1 = 1 - beta*p'; the truncation points are chosen
    so that the omitted tails are below tol relative to the total.
    """
    pp = _pprime(p)
    A = fs_norm_closed_form(domain.alpha, beta, p, 0.0)["A"]
    x_min, n_x = _x_panels(pp * (A - s), tol, "A")
    q1 = 1.0 - beta * pp
    if q1 <= 0.0:
        raise ValueError("beta * p' must be below 1")
    u_min = float(np.clip(math.exp(math.log(0.2 * tol) / min(q1, 1.0)) * 1e-2,
                          1e-240, 0.3))
    n_tau = max(16, int(3.3 * math.log10(1.0 / u_min)))
    return tensor_grid(domain, order=order, n_x=n_x, n_tau=n_tau,
                       x_min=x_min, tau_min=u_min)


def ys_quadrature_grid(domain, p, s, *, tol=1e-3, order=12):
    """Grid resolving |y * x**(-s-1)|**p' whose x-exponent is p'(B-s) - 1."""
    pp = _pprime(p)
    B = ys_norm_closed_form(domain.alpha, p, 0.0)["B"]
    x_min, n_x = _x_panels(pp * (B - s), tol, "B")
    return tensor_grid(domain, order=order, n_x=n_x, n_tau=20,
                       x_min=x_min, tau_min=1e-8)


def _log_sum_exp(v):
    # scipy.special.logsumexp takes ~8x longer on these 1-D factor arrays
    m = float(np.max(v))
    return m + math.log(float(np.sum(np.exp(v - m))))


def lp_norms_at_nodes(log_abs, domain, gamma, p, grid):
    """||u_k d^gamma||_{L^p(Omega)} for each row k of log |u_k| at the 2-D
    nodes of grid, d the exact distance, evaluated once for all rows.

    The sums are accumulated as log |u d^gamma|^p w: the pointwise power
    |u|^p can overflow near the tip although every weighted contribution is
    tiny, which is why the integrands come in log form.
    """
    log_abs = np.atleast_2d(np.asarray(log_abs, dtype=float))
    if not np.all(log_abs < np.inf):
        raise ValueError("integrand is not finite at quadrature nodes")
    log_weight = 0.0
    # the distance before the (k, n) sums: at k = 3 and 120k nodes the call
    # then peaks 4.8 MB above its input (tracemalloc), 7.3 MB after them
    if gamma != 0.0:
        log_weight = gamma * p * np.log(geometry.distance(domain, grid.nodes))
    logc = p * log_abs
    logc += log_weight
    with np.errstate(divide="ignore"):   # quadrature weights may underflow
        logc += np.log(grid.weights)
    return np.sum(np.exp(logc, out=logc), axis=1) ** (1.0 / p)


def weighted_lp_norm(family, domain, gamma, p, grid: TensorGrid) -> float:
    """||f d^gamma||_{L^p(Omega)} of a singular family on a tensor grid.

    family = (log_x, log_u) gives log |f| = log_x(x) + log_u(u), as
    `fs_family` and `ys_family` return it; d = x**(1/alpha) u is the
    surrogate distance, so log |f d^gamma|^p w splits into a term in x and a
    term in u, each summed once by log-sum-exp.
    """
    if not p > 1.0:
        raise ValueError("p must exceed 1")
    log_x, log_u = family
    lx = (p * (log_x(grid.x) + gamma * domain.gamma * np.log(grid.x))
          + grid.log_wx)
    lu = p * (log_u(grid.u) + gamma * np.log(grid.u)) + grid.log_wu
    return math.exp((_log_sum_exp(lx) + _log_sum_exp(lu)) / p)


# ---------------------------------------------------------------------------
# singular family of the optimality construction
# ---------------------------------------------------------------------------

def fs_family(alpha, beta, p, s):
    """The field f_s(x, y) = x**(-s/(p-1)) * d(x, y)**(-p' beta).

    d is the surrogate distance x**(1/alpha) u, u = 1 - |y| / x**(1/alpha);
    returns (log_x, log_u) with log |f_s| = log_x(x) + log_u(u).
    """
    pp = _pprime(p)
    if beta * pp >= 1.0:
        raise ValueError("beta * p' must be below 1")
    A = fs_norm_closed_form(alpha, beta, p, 0.0)["A"]
    if s >= A:
        raise ValueError(f"s must be below A = {A}")

    def log_abs_x(x):
        return (-s / (p - 1.0) - pp * beta / alpha) * np.log(x)

    def log_abs_u(u):
        return (-pp * beta) * np.log(u)

    return log_abs_x, log_abs_u


def ys_family(alpha, p, s):
    """The conjugate field y * x**(-s-1) as (log_x, log_u).

    With |y| = x**(1/alpha) (1 - u), u = 1 - |y| / x**(1/alpha),
    log |y x**(-s-1)| is (1/alpha - s - 1) log x plus log(1 - u).
    """
    g = 1.0 / alpha

    def log_abs_x(x):
        return (g - s - 1.0) * np.log(x)

    def log_abs_u(u):
        return np.log1p(-u)

    return log_abs_x, log_abs_u


def fs_norm_closed_form(alpha, beta, p, s):
    """Exact value of ||f_s||^p_{L^p(Omega, beta)}, surrogate-weighted.

    A = (1 - beta p' + alpha) / (alpha p'); the norm to the p-th power equals
    2 / ((1 - beta p') p' (A - s)), the factor 2 accounting for both halves
    of Omega.  Returns value = inf when s >= A (norm divergent).
    """
    pp = _pprime(p)
    if beta * pp >= 1.0:
        raise ValueError("beta * p' must be below 1")
    A = (1.0 - beta * pp + alpha) / (alpha * pp)
    if s >= A:
        return {"A": A, "value": math.inf}
    return {"A": A, "value": 2.0 / ((1.0 - beta * pp) * pp * (A - s))}


def ys_norm_closed_form(alpha, p, s):
    """Exact value of ||y x**(-s-1)||^{p'}_{L^{p'}(Omega)}.

    B = (1 - (alpha-1) p' + alpha) / (alpha p'); the norm to the p'-th power
    equals (2/(p'+1)) / (p' (B - s)).  Returns inf when s >= B.
    """
    pp = _pprime(p)
    B = (1.0 - (alpha - 1.0) * pp + alpha) / (alpha * pp)
    if s >= B:
        return {"B": B, "value": math.inf}
    return {"B": B, "value": (2.0 / (pp + 1.0)) / (pp * (B - s))}


# ---------------------------------------------------------------------------
# Muckenhaupt A_p machinery
# ---------------------------------------------------------------------------

_G2 = 0.5 / np.sqrt(3.0)   # 2x2 Gauss offsets on a unit cell
_OPEN_FRAC = 0.25          # ball cells split while larger than this * d


def ball_grid(distance_fn, center, r, delta_min, *,
              rim_frac=1.0 / 128.0) -> QuadratureGrid:
    """Adaptive quadrature grid over the ball B(center, r).

    The cells are (k, i, j) rows of the ball's box, refined by
    `whitney.refine`: split while larger than _OPEN_FRAC times the distance
    of their center to F (so d^mu is smooth per cell), down to the floor
    delta_min; cells meeting the ball rim are also split to rim_frac * r to
    control the staircase error of the ball indicator.  Each final cell
    carries a 2x2 Gauss rule restricted to the ball.  The distance is only
    evaluated where it decides a split: at kept cells above delta_min,
    except rim cells above rim_frac * r, which split anyway.
    """
    cx, cy = float(center[0]), float(center[1])

    def classify(k, mx, my, s):
        rad = np.hypot(mx - cx, my - cy)
        half_diag = s * (whitney._SQRT2 / 2.0)
        keep = rad - half_diag <= r              # discard cells outside B
        rim = np.abs(rad - r) <= half_diag
        # kept cells split while s > max(delta_min, _OPEN_FRAC d), rim cells
        # also while s > max(delta_min, rim_frac r): d decides only the rest
        big = keep & (s > delta_min)
        split = big & rim & (s > rim_frac * r)
        ask = big & ~split
        if ask.any():
            d = np.asarray(distance_fn(np.column_stack([mx[ask], my[ask]])),
                           dtype=float)
            split[ask] = s > d * _OPEN_FRAC
        return keep & ~split, split

    box = whitney.Box(cx - r, cy - r, 2.0 * r)
    x0, y0, s = box.cells(*whitney.refine(box, classify).T)
    offs = np.array([[-_G2, -_G2], [_G2, -_G2], [-_G2, _G2], [_G2, _G2]])
    nodes = np.concatenate(
        [np.column_stack([x0 + (0.5 + ox) * s, y0 + (0.5 + oy) * s])
         for ox, oy in offs]
    )
    weights = np.concatenate([s * s / 4.0] * 4)
    inside = np.hypot(nodes[:, 0] - cx, nodes[:, 1] - cy) <= r
    return QuadratureGrid(nodes[inside], weights[inside])


@dataclass
class ApEstimate:
    value: float                 # supremum of the per-ball ratios
    per_ball: list               # dicts: center_x, center_y, radius, ratio
    trend: float                 # ratio growth factor per radius decade

    def admissible_flat(self, tol=2.0) -> bool:
        return max(self.trend, 1.0 / self.trend) < tol


def default_sampling(alpha):
    """32 boundary centers (tip included) + 32 interior, radii 2^-2..2^-10."""
    dom = geometry.CuspDomain(alpha)
    t = np.linspace(0.0, 1.0, 14) ** 2
    upper = np.column_stack([t, t**dom.gamma])          # includes the tip
    lower = np.column_stack([t[1:], -t[1:] ** dom.gamma])
    ye = np.linspace(-0.8, 0.8, 5)
    edge = np.column_stack([np.ones_like(ye), ye])
    boundary = np.vstack([upper, lower, edge])
    xi = np.linspace(0.05, 0.95, 16)
    interior = np.vstack(
        [np.column_stack([xi, np.zeros_like(xi)]),
         np.column_stack([xi, 0.5 * xi**dom.gamma])]
    )
    return {
        "boundary_centers": boundary,
        "interior_centers": interior,
        "radii": 2.0 ** -np.arange(2, 11, dtype=float),
        "resolution": 2048,
    }


def build_ball_plan(domain, sampling=None):
    """Precompute quadrature weights and node distances for every plan ball.

    The grids depend only on geometry and resolution, so one plan serves any
    number of weight exponents; the per-ball records carry the distance
    values at the nodes, making each subsequent ratio a pair of vector
    powers.
    """
    if sampling is None:
        sampling = default_sampling(domain.alpha)
    if not sampling["resolution"] > 0:
        raise ValueError("resolution must be positive")
    distance_fn = lambda pts: geometry.distance(domain, pts)
    delta_min = 1.0 / float(sampling["resolution"])
    radii = np.asarray(sampling["radii"], dtype=float)
    centers = np.vstack([sampling["boundary_centers"],
                         sampling["interior_centers"]])
    balls = []
    for c in centers:
        for r in radii:
            grid = ball_grid(distance_fn, c, r, delta_min)
            d = np.maximum(np.asarray(distance_fn(grid.nodes), dtype=float),
                           1e-300)
            balls.append({"center": (float(c[0]), float(c[1])),
                          "radius": float(r), "weights": grid.weights,
                          "d": d})
    return {"sampling": sampling, "balls": balls}


def estimate_ap_constant(domain, weight: WeightSpec, p,
                         sampling=None, plan=None) -> ApEstimate:
    """Sampled A_p constant of d^mu over boundary- and interior-centered balls.

    The supremum over a finite plan is a lower bound for the true A_p
    constant; the trend (growth of the per-radius supremum per radius
    decade) is the diagnostic separating admissible exponents (flat) from
    inadmissible ones (divergent with scale/resolution).

    Both averages of a ball share one node set, so each ratio is exactly 1
    for mu = 0 and at least 1 in general (discrete Jensen inequality).
    """
    _pprime(p)                   # raises unless p > 1
    if plan is None:
        plan = build_ball_plan(domain, sampling)
    delta_min = 1.0 / float(plan["sampling"]["resolution"])
    records = []
    for ball in plan["balls"]:
        qw, d = ball["weights"], ball["d"]
        total = float(np.sum(qw))
        avg_w = float(np.dot(qw, d**weight.mu)) / total
        avg_wm = float(np.dot(qw, d ** (-weight.mu / (p - 1.0)))) / total
        records.append({"center_x": ball["center"][0],
                        "center_y": ball["center"][1],
                        "radius": ball["radius"],
                        "ratio": avg_w * avg_wm ** (p - 1.0),
                        # balls barely larger than the quadrature floor are
                        # kept in the table but excluded from the headline
                        # supremum and trend
                        "resolved": ball["radius"] >= 64.0 * delta_min})
    used = [rec for rec in records if rec["resolved"]] or records
    radii = sorted({rec["radius"] for rec in used})
    sup_per_radius = [max(rec["ratio"] for rec in used
                          if rec["radius"] == r) for r in radii]
    slope = (np.polyfit(np.log10(radii), np.log10(sup_per_radius), 1)[0]
             if len(radii) >= 2 else 0.0)
    return ApEstimate(
        value=float(max(rec["ratio"] for rec in used)),
        per_ball=records,
        trend=float(10.0**slope),
    )
