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
from functools import cached_property

import numpy as np

from . import geometry, whitney
from .geometry import _gauss_panels

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

_FAMILY_TOL = 1e-3    # relative size of the tails the family grids omit
_LOG_TAIL = math.log(0.2 * _FAMILY_TOL)
_FAMILY_ORDER = 12    # Gauss order of the family grids' panels


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
    """Positive-weight quadrature nodes (n, 2) and weights (n,) of one or
    more balls, and the node count of each ball, in order."""

    nodes: np.ndarray
    weights: np.ndarray
    counts: np.ndarray


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


def _x_panels(e1, threshold):
    """(x_min, n_x) for an x-integrand x**(e1 - 1): the tail below x_min is
    0.2 _FAMILY_TOL of the total for every e1 (the blow-up fits need that),
    and ~3 geometric panels per decade keep the per-panel Gauss error ~1e-9."""
    if e1 <= 0.0:
        raise ValueError(f"s >= {threshold}: norm integrand not integrable")
    x_min = max(math.exp(_LOG_TAIL / e1), 1e-240)
    return x_min, max(24, int(3.3 * math.log10(1.0 / x_min)))


def fs_quadrature_grid(domain, beta, p, s):
    """Grid resolving the norm integrand of the singular family f_s.

    In graded coordinates the integrand is x**E * (1-|tau|)**(q1-1) with
    E + 1 = p'(A - s) and q1 = 1 - beta*p'; the truncation points are chosen
    so that the omitted tails are below _FAMILY_TOL relative to the total.
    Raises ValueError unless p > 1 and beta p' < 1 (`fs_norm_closed_form`).
    """
    pp = _pprime(p)
    A = fs_norm_closed_form(domain.alpha, beta, p, 0.0)["A"]
    x_min, n_x = _x_panels(pp * (A - s), "A")
    q1 = 1.0 - beta * pp
    u_min = float(np.clip(math.exp(_LOG_TAIL / min(q1, 1.0)) * 1e-2,
                          1e-240, 0.3))
    n_tau = max(16, int(3.3 * math.log10(1.0 / u_min)))
    return tensor_grid(domain, order=_FAMILY_ORDER, n_x=n_x, n_tau=n_tau,
                       x_min=x_min, tau_min=u_min)


def ys_quadrature_grid(domain, p, s):
    """Grid resolving |y * x**(-s-1)|**p' whose x-exponent is p'(B-s) - 1."""
    pp = _pprime(p)
    B = ys_norm_closed_form(domain.alpha, p, 0.0)["B"]
    x_min, n_x = _x_panels(pp * (B - s), "B")
    return tensor_grid(domain, order=_FAMILY_ORDER, n_x=n_x, n_tau=20,
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
    _pprime(p)                   # raises unless p > 1
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
    returns (log_x, log_u) with log |f_s| = log_x(x) + log_u(u).  Raises
    ValueError unless p > 1, beta p' < 1 (`fs_norm_closed_form`) and s < A.
    """
    pp = _pprime(p)
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
_RIM_FRAC = 1.0 / 128.0    # rim cells split while larger than this * r
_FLAT = 2.0                # admissible_flat: trend and 1/trend below this
_MARGIN = 1e-9             # relative margin of ball_grid's squared ball tests


def ball_grid(distance_fn, center, r, delta_min) -> QuadratureGrid:
    """Adaptive quadrature grids over the balls B(center, r) for r a radius
    or a vector of radii.

    The cells are (b, k, i, j) rows of the balls' boxes, refined together by
    `whitney.refine`: split while larger than _OPEN_FRAC times the distance
    of their center to F (so d^mu is smooth per cell), down to the floor
    delta_min; cells meeting the ball rim are also split to _RIM_FRAC * r to
    control the staircase error of the ball indicator.  Each final cell
    carries a 2x2 Gauss rule restricted to its ball.  The distance is only
    evaluated where it decides a split: at kept cells above delta_min,
    except rim cells above _RIM_FRAC * r, which split anyway, and cells
    whose split `whitney._decide` settles from the parent's distance (so
    distance_fn must be 1-Lipschitz); one call per generation serves every
    ball.  The ball tests compare squared distances and take the hypot only
    within a relative margin _MARGIN, so the grid is that of evaluating
    every distance and hypot, bit for bit.  The grid holds the balls' nodes
    and weights concatenated in the order of r, and counts, their node
    count per ball; each ball's part is the grid of that radius alone.
    """
    cx, cy = float(center[0]), float(center[1])
    radii = np.atleast_1d(np.asarray(r, dtype=float))

    def classify(k, b, mx, my, s, dp):
        r, s = radii[b], s[b]
        dx, dy = mx - cx, my - cy
        half_diag = s * (whitney._SQRT2 / 2.0)
        # keep: rad - half_diag <= r; rim: |rad - r| <= half_diag, for rad
        # the hypot of (dx, dy); away from their thresholds, as squares
        q2 = dx * dx + dy * dy
        out2 = (r + half_diag) ** 2
        in2 = np.maximum(r - half_diag, 0.0) ** 2
        keep = q2 <= out2
        rim = keep & (q2 >= in2)
        tol = _MARGIN * out2
        near = np.flatnonzero((np.abs(q2 - out2) <= tol)
                               | (np.abs(q2 - in2) <= tol))
        if near.size:
            rad, hd = np.hypot(dx[near], dy[near]), half_diag[near]
            keep[near] = rad - hd <= r[near]       # discard cells outside B
            rim[near] = np.abs(rad - r[near]) <= hd
        # kept cells split while s > max(delta_min, _OPEN_FRAC d), rim cells
        # also while s > max(delta_min, _RIM_FRAC r): d decides only the rest
        big = keep & (s > delta_min)
        split = big & rim & (s > _RIM_FRAC * r)
        ask = big & ~split
        (coarse,), d = whitney._decide(lambda d: (s > d * _OPEN_FRAC,),
                                       distance_fn, mx, my, dp, s, ask)
        split |= ask & coarse
        return keep & ~split, split, d

    roots = [whitney.Box(cx - q, cy - q, 2.0 * q) for q in radii]
    rows = whitney.refine(roots, classify)
    # the nodes go straight to their place in the grid, one Gauss offset of
    # one ball at a time, so that no part of the grid is held twice
    nodes, weights = np.empty((4 * len(rows), 2)), np.empty(4 * len(rows))
    counts = np.zeros(len(radii), dtype=np.int64)
    offs = np.array([[-_G2, -_G2], [_G2, -_G2], [-_G2, _G2], [_G2, _G2]])
    end = 0
    for b, q in enumerate(radii):
        x0, y0, s = roots[b].cells(*rows[rows[:, 0] == b, 1:].T)
        w = s * s / 4.0
        # a cell whose farthest corner is inside the ball by the margin
        # keeps its four nodes; the others test each node
        fx = np.maximum(np.abs(x0 - cx), np.abs(x0 + s - cx))
        fy = np.maximum(np.abs(y0 - cy), np.abs(y0 + s - cy))
        whole = fx * fx + fy * fy <= (1.0 - _MARGIN) * q * q
        part = np.flatnonzero(~whole)
        for ox, oy in offs:
            x, y = x0 + (0.5 + ox) * s, y0 + (0.5 + oy) * s
            inside = whole.copy()
            inside[part] = np.hypot(x[part] - cx, y[part] - cy) <= q
            n = np.count_nonzero(inside)
            nodes[end:end + n, 0], nodes[end:end + n, 1] = x[inside], y[inside]
            weights[end:end + n] = w[inside]
            counts[b] += n
            end += n
    return QuadratureGrid(nodes[:end], weights[:end], counts)


@dataclass
class ApEstimate:
    value: float                 # supremum of the per-ball ratios
    per_ball: list               # dicts: center_x, center_y, radius, ratio
    trend: float                 # ratio growth factor per radius decade

    def admissible_flat(self) -> bool:
        return max(self.trend, 1.0 / self.trend) < _FLAT


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


def _delta_min(resolution):
    """The quadrature floor 1 / resolution, for a positive resolution."""
    if not resolution > 0:
        raise ValueError("resolution must be positive")
    return 1.0 / float(resolution)


def _check_radii(radii):
    """Raise ValueError unless the radii are finite and positive and hold
    two distinct values, which the trend of `estimate_ap_constant` needs."""
    r = np.asarray(radii, dtype=float)
    if not np.all(np.isfinite(r) & (r > 0)):
        raise ValueError(f"sampling radii must be finite and positive: "
                         f"{r.tolist()}")
    if len(np.unique(r)) < 2:
        raise ValueError(f"sampling has fewer than two radii, counting each "
                         f"value once: {r.tolist()}")


def build_ball_plan(domain, sampling):
    """Quadrature weights and node distances for every ball of sampling.

    The grids depend only on geometry and resolution, so one plan serves any
    number of weight exponents; the per-ball records carry the distance
    values at the nodes, making each subsequent ratio a pair of vector
    powers.  The grids of all radii about one centre come from one
    `ball_grid` call, whose refinement rows are freed before one distance
    call takes the nodes of all its balls.  The distance is 1-Lipschitz, as
    `ball_grid` requires: it skips the distance at the cells whose split
    its bounds decide, while every node's distance is evaluated exactly.
    The plan records domain.
    Raises ValueError for a resolution below 1, radii that are not finite,
    positive and two distinct values (_check_radii) or no centres.
    """
    delta_min = _delta_min(sampling["resolution"])
    distance_fn = lambda pts: geometry.distance(domain, pts)
    radii = np.asarray(sampling["radii"], dtype=float)
    centers = np.vstack([sampling["boundary_centers"],
                         sampling["interior_centers"]])
    _check_radii(radii)
    if not len(centers):
        raise ValueError("sampling has no boundary or interior centers")
    balls = []
    for c in centers:
        grid = ball_grid(distance_fn, c, radii, delta_min)
        ends = np.cumsum(grid.counts)[:-1]
        d = np.asarray(distance_fn(grid.nodes), dtype=float)
        np.maximum(d, 1e-300, out=d)
        for r, qw, db in zip(radii, np.split(grid.weights, ends),
                             np.split(d, ends)):
            balls.append({"center": (float(c[0]), float(c[1])),
                          "radius": float(r), "weights": qw, "d": db})
        del grid                 # before the next centre's grid is built
    return {"domain": domain, "sampling": sampling, "balls": balls}


def _resolved_radii(radii, resolution):
    """The radii r >= 64 / resolution, sorted, that the supremum and trend
    of `estimate_ap_constant` count; ValueError unless the radii pass
    _check_radii and two qualify."""
    _check_radii(radii)
    floor = 64.0 * _delta_min(resolution)
    resolved = sorted({float(r) for r in radii if r >= floor})
    if len(resolved) < 2:
        r2 = sorted({float(r) for r in radii})[-2]
        raise ValueError(
            f"resolution {resolution} resolves {len(resolved)} of the plan's "
            "radii (r >= 64 / resolution), and the trend needs two: "
            f"resolution {math.ceil(64.0 / r2)} resolves two")
    return resolved


def estimate_ap_constant(domain, weight: WeightSpec, p, plan) -> ApEstimate:
    """Sampled A_p constant of d^mu over the balls of a `build_ball_plan`.

    The supremum over a finite plan is a lower bound for the true A_p
    constant; the trend (growth of the per-radius supremum per radius
    decade) is the diagnostic separating admissible exponents (flat) from
    inadmissible ones (divergent with scale/resolution).  Both count only
    balls of radius r >= 64 / resolution, and ValueError is raised unless
    two radii qualify, p > 1 and plan was built for domain.

    Both averages of a ball share one node set, so each ratio is exactly 1
    for mu = 0 and at least 1 in general (discrete Jensen inequality).
    """
    _pprime(p)                   # raises unless p > 1
    if plan["domain"] != domain:
        raise ValueError(f"plan was built for {plan['domain']!r}, "
                         f"not {domain!r}")
    radii = _resolved_radii([ball["radius"] for ball in plan["balls"]],
                            plan["sampling"]["resolution"])
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
                        "resolved": ball["radius"] in radii})
    used = [rec for rec in records if rec["resolved"]]
    sup_per_radius = [max(rec["ratio"] for rec in used
                          if rec["radius"] == r) for r in radii]
    slope = np.polyfit(np.log10(radii), np.log10(sup_per_radius), 1)[0]
    return ApEstimate(
        value=float(max(rec["ratio"] for rec in used)),
        per_ball=records,
        trend=float(10.0**slope),
    )
