"""Parameter sweeps and blow-up-rate fitting.

The singular family f_s has ||f_s||^p proportional to 1/(A - s) and the
conjugate family y x^(-s-1) has ||.||^{p'} proportional to 1/(B - s); the
sweeps fit both thresholds from quadrature data and compare them, and the
necessity demo contrasts weighted and unweighted ratios of the discrete
divergence right inverse on indicator sources concentrating at the tip.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, weights
from .mesh import generate_graded_mesh

__all__ = [
    "FitResult",
    "rate_fit",
    "optimality_sweep",
    "necessity_demo",
    "fit_grid",
]


@dataclass
class FitResult:
    """Fit of y(s) = exp(c) * (T - s)^(-kappa)."""

    kappa: float
    T: float
    c: float
    residual: float      # RMS of log-model error


_SCAN = 256    # rate_fit's scan points in log(T - max s)
# optimality_sweep calls fitted thresholds equal within this relative
# distance: over alpha in {0.3, 0.5, 0.75, 1}, p in {1.1, 1.2, 1.5, 2, 3, 4}
# and five beta each, the fits reach the closed-form A and B within 1.4e-15,
# far inside it
_T_RTOL = 1e-5
_SPAN = 5.12    # fit_grid's largest distance T - s
_MIN_ANGLE_DEG = 13.0    # the smallest angle necessity_demo's meshes reach
_T_VALUES = (0.4, 0.2, 0.1, 0.05)   # necessity_demo's source supports x < t


def rate_fit(points) -> FitResult:
    """Least-squares fit of a reciprocal-power blow-up law.

    points: iterable of (s, value) with finite positive values, at least 6 of
    them.  The fit runs on log values so that the near-threshold points do
    not dominate.  For a fixed T the model is linear in (kappa, c), so the
    fit is a variable projection (Golub & Pereyra 1973) onto T alone: a scan
    of u = log(T - max s) over [log 1e-12, log 50] brackets the smallest
    residual, and the reduced gradient's root in that bracket is refined to
    adjacent doubles.  A minimum at an end of the scan returns that end.
    Fits with kappa outside [1e-3, 50] or c outside [-50, 50] raise.
    """
    pts = sorted((float(s), float(v)) for s, v in points)
    if len(pts) < 6:
        raise ValueError("rate_fit needs at least 6 points")
    s, y = np.array(pts).T
    if not np.all(np.isfinite(s) & np.isfinite(y)):
        raise ValueError("points must be finite")
    if np.any(y <= 0.0):
        raise ValueError("values must be positive")
    ly = np.log(y)
    T = s[-1] + np.geomspace(1e-12, 50.0, _SCAN)
    _, _, r, g = _projection(T, s, ly)
    rss = np.sum(r * r, axis=1)
    # k with g[k-1] < 0 <= g[k] holds a local minimum in [T[k-1], T[k]];
    # k = 0 and k = _SCAN stand for the two ends of the scan
    down = np.concatenate([[True], g < 0.0, [False]])
    ks = np.flatnonzero(down[:-1] & ~down[1:])
    padded = np.concatenate([rss[:1], rss, rss[-1:]])
    k = ks[np.argmin(np.minimum(padded[ks], padded[ks + 1]))]
    if k in (0, _SCAN) or g[k] == 0.0:
        t = T[min(k, _SCAN - 1)]
    else:
        t = _gradient_root(s, ly, T[k - 1], T[k], g[k - 1], g[k])
    kappa, c, r, _ = (v[0] for v in _projection(np.array([t]), s, ly))
    if not 1e-3 <= kappa <= 50.0:
        raise ValueError(f"fitted kappa = {kappa:g} outside [1e-3, 50]")
    if not -50.0 <= c <= 50.0:
        raise ValueError(f"fitted c = {c:g} outside [-50, 50]")
    return FitResult(float(kappa), float(t), float(c),
                     float(np.sqrt(np.mean(r * r))))


def _projection(T, s, ly):
    """(kappa, c, r, g) of the log model at each candidate T (k,).

    For each T the two-column least-squares problem in (kappa, c) is solved
    in closed form from centred sums; r (k, n) are the residuals and g (k,)
    is the gradient of sum(r^2) / 2 in T at those (kappa, c), which by the
    envelope theorem is the gradient of the reduced residual.
    """
    x = np.log(T[:, None] - s)
    xc = x - x.mean(axis=1, keepdims=True)
    kappa = -(xc @ (ly - ly.mean())) / np.sum(xc * xc, axis=1)
    z = ly + kappa[:, None] * x
    c = z.mean(axis=1)
    r = z - c[:, None]
    g = kappa * np.sum(r / (T[:, None] - s), axis=1)
    return kappa, c, r, g


def _gradient_root(s, ly, a, b, ga, gb):
    """T in (a, b) where the reduced gradient, ga < 0 at a and gb > 0 at b,
    changes sign: regula falsi, with a bisection after every step that does
    not halve the bracket, until a and b are adjacent doubles."""
    bisect = False
    while a < 0.5 * (a + b) < b:
        t = a - ga * (b - a) / (gb - ga)
        if bisect or not a < t < b:
            t = 0.5 * (a + b)
        gt = _projection(np.array([t]), s, ly)[3][0]
        if gt == 0.0:
            return t
        width = b - a
        if gt < 0.0:
            a, ga = t, gt
        else:
            b, gb = t, gt
        bisect = b - a > 0.5 * width
    return a if -ga <= gb else b


def fit_grid(T, n=8):
    """s_i = T - 2^-i * _SPAN, i = 1..n: equal spacing in log(T - s).

    At n = 8 the smallest gap is 0.02, where the family grids keep their
    verified sub-0.1% accuracy; the reciprocal-power law is exact at every
    distance from the threshold, so wide grids only help conditioning.
    """
    return np.array([T - _SPAN * 2.0 ** (-i) for i in range(1, n + 1)])


def optimality_sweep(alpha, beta, p, s_grid=None):
    """Norm sweep of both singular families with threshold fits.

    Returns (records, fits) where fits = {"A": FitResult, "B": FitResult,
    "A_exact", "B_exact", "comparison"}, and comparison is "T_A = T_B" when
    the fitted thresholds agree within _T_RTOL relative.  Records are dict
    rows, one per s in s_grid: the quadrature and closed-form norms of f_s
    (to the power p), the conjugate-family norm (power p') and the two
    blow-up reciprocals.  Each family is fitted on its own geometric grid
    approaching its own threshold, since a grid suited to one threshold
    underresolves the other when A != B.  The records integrate on each
    family's grid refined and the fits on the grid itself, each norm once.
    """
    domain = geometry.CuspDomain(alpha)
    # the closed forms raise unless p > 1
    A = weights.fs_norm_closed_form(alpha, beta, p, 0.0)["A"]
    pp = p / (p - 1.0)
    B = weights.ys_norm_closed_form(alpha, p, 0.0)["B"]
    if s_grid is None:
        s_grid = fit_grid(min(A, B))
    s_grid = np.asarray(s_grid, dtype=float)
    if np.any(s_grid >= min(A, B)):
        raise ValueError("s_grid must stay strictly below min(A, B)")

    # each family norm on the grid resolving it, or on that grid refined
    def fs(s, refined=False):
        grid = weights.fs_quadrature_grid(domain, beta, p, s)
        return weights.weighted_lp_norm(
            weights.fs_family(alpha, beta, p, s), domain, beta, p,
            grid.refined() if refined else grid)

    def ys(s, refined=False):
        grid = weights.ys_quadrature_grid(domain, p, s)
        return weights.weighted_lp_norm(
            weights.ys_family(alpha, p, s), domain, 0.0, pp,
            grid.refined() if refined else grid)

    records = []
    for s in s_grid.tolist():
        val, yval = fs(s, True), ys(s, True)
        records.append({
            "s": s, "fs_norm_p": val**p,
            "fs_norm_p_closed": weights.fs_norm_closed_form(
                alpha, beta, p, s)["value"],
            "ys_norm_pp": yval**pp,
            "ys_norm_pp_closed": weights.ys_norm_closed_form(
                alpha, p, s)["value"],
            # the inequality chain: ||f_s||^{p-1} vs C(s ||y x^-s-1|| + 1)
            "chain_lhs": val ** (p - 1.0),
            "chain_rhs_core": s * yval + 1.0,
        })
    fit_A = rate_fit([(s, fs(s) ** p) for s in fit_grid(A).tolist()])
    fit_B = rate_fit([(s, ys(s) ** pp) for s in fit_grid(B).tolist()])
    if abs(fit_A.T - fit_B.T) <= _T_RTOL * max(fit_A.T, fit_B.T):
        comparison = "T_A = T_B"
    else:
        comparison = "T_B < T_A" if fit_B.T < fit_A.T else "T_A < T_B"
    fits = {
        "A": fit_A,
        "B": fit_B,
        "A_exact": A,
        "B_exact": B,
        "comparison": comparison,
        # beta <= alpha-1 is equivalent to B <= A: the ordering behind the
        # contradiction argument for the optimal weight exponent
        "beta_vs_alpha_minus_1": float(beta - (alpha - 1.0)),
    }
    return records, fits


def necessity_demo(alpha, h=0.1):
    """Weighted vs unweighted ratios of the discrete divergence inverse.

    For indicator sources f_t = chi_{x < t}, t in _T_VALUES (the solver
    works against weighted-mean-zero pressures, so the weighted-constant
    component of f_t is removed automatically) it returns one dict row per
    t, with ||u_h||_{H1}, both source norms, the constraint residual,
    r_w = ||u_h||_{H1} / ||f_t||_{L2(Omega, alpha-1)} and
    r_u = ||u_h||_{H1} / ||f_t||_{L2(Omega)}.  On a cusp (alpha < 1) r_w
    stays bounded while r_u grows as t -> 0; on the triangle (alpha = 1)
    both stay bounded.  The mesh stops at x_tip = min(_T_VALUES) / 4, inside
    the support of every source, and must reach _MIN_ANGLE_DEG.
    """
    from . import fem

    mesh = generate_graded_mesh(geometry.CuspDomain(alpha), h,
                                x_tip=min(_T_VALUES) / 4.0,
                                min_angle_deg=_MIN_ANGLE_DEG)
    system = fem.assemble(mesh, alpha)
    rows = []
    for t in _T_VALUES:
        def f(pts, t=t):
            return (pts[:, 0] < t).astype(float)

        _, info = fem.solve_div_right_inverse(mesh, alpha, f, system=system)
        fw = fem.source_weighted_norm(system.quad, f, alpha - 1.0)
        fu = fem.source_weighted_norm(system.quad, f, 0.0)
        rows.append({
            "t": float(t),
            "h1_norm": info["h1_norm"],
            "f_weighted_norm": fw,
            "f_unweighted_norm": fu,
            "r_w": info["h1_norm"] / fw,
            "r_u": info["h1_norm"] / fu,
            "constraint_residual": info["constraint_residual"],
        })
    return rows
