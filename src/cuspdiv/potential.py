"""Constructive right inverse of the divergence without boundary conditions.

Extend the source f by zero, form the logarithmic Newtonian potential
phi(x) = (1/2pi) integral log|x-y| f(y) dy and return v = grad(phi), so that
div v = Delta phi = f.  Sources are piecewise constant on a regular cell
grid; each cell contributes the cell integrals of the kernel, its gradient
and its Hessian, by exact closed-form antiderivatives over rectangles for
near cells and a midpoint rule for far cells, whose sum is the real part
of a complex logarithmic potential evaluated through box-local Taylor
expansions (Greengard & Rokhlin, J. Comput. Phys. 73, 1987).  One pass
gives v and its exact gradient (the Hessian of the discrete potential,
whose trace is the source's cell value), which the weighted W^{1,p}
estimate uses without finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import weights

__all__ = [
    "SourceField",
    "PotentialSolution",
    "newtonian_solve",
    "divergence_residual",
    "check_weighted_estimate",
    "disk_indicator_field",
]

_NEAR_CELLS = 2.5   # near-field radius in units of the cell size
_TERMS = 32         # far-field expansion order p: (1/3)^p / (2/3) = 8.1e-16
_BLOCK = 1 << 13    # entries of one (boxes x sources), pair or target block


@dataclass
class SourceField:
    """Piecewise-constant source on a regular grid over a box containing Omega.

    values[i, j] is the source on the cell with lower-left corner
    (x0 + i*h, y0 + j*h); cells outside the support carry 0 (zero extension).
    """

    x0: float
    y0: float
    h: float
    values: np.ndarray     # (nx, ny)

    @classmethod
    def from_function(cls, f, n, box=(0.0, -1.0, 1.0, 1.0)):
        """Sample f at cell midpoints of an n-cells-per-unit grid on box."""
        if not n >= 1:
            raise ValueError("n (cells per unit length) must be at least 1")
        x0, y0, x1, y1 = box
        h = (x1 - x0) / n
        nx, ny = n, int(round((y1 - y0) / h))
        xc = x0 + (np.arange(nx) + 0.5) * h
        yc = y0 + (np.arange(ny) + 0.5) * h
        X, Y = np.meshgrid(xc, yc, indexing="ij")
        vals = np.asarray(f(np.column_stack([X.ravel(), Y.ravel()])),
                          dtype=float).reshape(nx, ny)
        if not np.all(np.isfinite(vals)):
            raise ValueError("source values must be finite")
        return cls(x0, y0, h, vals)

    def cell_centers(self):
        nx, ny = self.values.shape
        xc = self.x0 + (np.arange(nx) + 0.5) * self.h
        yc = self.y0 + (np.arange(ny) + 0.5) * self.h
        return xc, yc

    def integral(self) -> float:
        return float(np.sum(self.values)) * self.h**2

    def refined(self) -> "SourceField":
        """Grid with half the cell size and the same cell values (1 -> 4)."""
        vals = np.repeat(np.repeat(self.values, 2, axis=0), 2, axis=1)
        return SourceField(self.x0, self.y0, self.h / 2.0, vals)


def _cell_integrals(u0, u1, v0, v1):
    """Exact integrals of log r and its first and second derivatives over
    the rectangles [u0,u1]x[v0,v1], r = sqrt(u^2+v^2).

    Each is the corner sum F(u1,v1) - F(u1,v0) - F(u0,v1) + F(u0,v0) of an
    antiderivative F with d2F/dudv equal to the integrand:
      log r:          H = uv (log r^2 - 3)/2 + (u^2/2) atan(v/u)
                          + (v^2/2) atan(u/v);
      u/r^2, v/r^2:   A(u,v) = (v/2) log r^2 - v + u atan(v/u) and A(v,u);
      d_u(u/r^2), d_v(u/r^2) = d_u(v/r^2), d_v(v/r^2):
                      d_u A = atan(v/u), d_v A = (log r^2)/2, atan(u/v).
    log r^2 and atan are taken as 0 where their argument is undefined.
    Returns the six integrals stacked along the first axis.
    """
    u = np.stack([u1, u1, u0, u0])
    v = np.stack([v1, v0, v1, v0])
    r2 = u * u + v * v
    with np.errstate(divide="ignore", invalid="ignore"):
        logr2 = np.where(r2 > 0.0, np.log(np.where(r2 > 0, r2, 1.0)), 0.0)
        au = np.where(u != 0.0, np.arctan(np.divide(v, np.where(u != 0, u, 1.0))), 0.0)
        av = np.where(v != 0.0, np.arctan(np.divide(u, np.where(v != 0, v, 1.0))), 0.0)
    F = np.stack([
        0.5 * u * v * (logr2 - 3.0) + 0.5 * u * u * au + 0.5 * v * v * av,
        0.5 * v * logr2 - v + u * au,
        0.5 * u * logr2 - u + v * av,
        au,
        0.5 * logr2,
        av,
    ])
    return F[:, 0] - F[:, 1] - F[:, 2] + F[:, 3]


def _pair_kernel(du, dv, h):
    """(6, targets, cells) cell averages of log r, (u, v)/r^2 and
    (v^2 - u^2, -2uv, u^2 - v^2)/r^4 over the cells centred at offsets
    (du, dv) from the targets: exact within _NEAR_CELLS cells, the midpoint
    values otherwise."""
    r2 = du * du + dv * dv
    K = np.empty((6,) + r2.shape)
    # entries with r2 = 0 are near cells and are overwritten below
    with np.errstate(divide="ignore", invalid="ignore"):
        K[0] = 0.5 * np.log(r2)
        np.divide(du, r2, out=K[1])
        np.divide(dv, r2, out=K[2])
    np.subtract(K[2] * K[2], K[1] * K[1], out=K[3])
    np.multiply(-2.0 * K[1], K[2], out=K[4])
    np.negative(K[3], out=K[5])
    ii, jj = np.nonzero(r2 < (_NEAR_CELLS * h) ** 2)
    if len(ii):
        du, dv, half = du[ii, jj], dv[ii, jj], h / 2.0
        K[:, ii, jj] = _cell_integrals(du - half, du + half, dv - half,
                                       dv + half) / (h * h)
    return K


def _horner(coef, rows, t):
    """Phi, dPhi/dt and d2Phi/dt2 of Phi = sum_k coef[rows, k] t^k."""
    q = coef[rows, -1]
    d1 = np.zeros_like(q)
    d2 = np.zeros_like(q)
    for k in range(coef.shape[1] - 2, -1, -1):
        d2 *= t
        d2 += d1
        d1 *= t
        d1 += q
        q *= t
        q += coef[rows, k]
    return q, d1, 2.0 * d2


@dataclass
class PotentialSolution:
    """Evaluators for the potential phi, the field v = grad phi and its
    gradient, the Hessian of phi."""

    source: SourceField

    @cached_property
    def _nonzero(self):
        """Centres zeta (complex) and masses f h^2 / 2pi of nonzero cells."""
        xc, yc = self.source.cell_centers()
        I, J = np.nonzero(self.source.values)
        h = self.source.h
        return (xc[I] + 1j * yc[J],
                self.source.values[I, J] * (h * h / (2.0 * np.pi)))

    def _accumulate(self, pts):
        """phi, v1, v2, d1v1, d2v1 = d1v2, d2v2 at pts (n, 6) in one pass.

        Each cell weighs, by its mass m = f h^2 / 2pi, the cell averages of
        log r, (u, v)/r^2 and (v^2 - u^2, -2uv, u^2 - v^2)/r^4: exact for
        near cells (within _NEAR_CELLS cells), the values at the cell
        centre zeta otherwise.  Those far values are the real parts of
        Phi(z) = sum m log(z - zeta): phi = Re Phi, v = (Re, -Im) Phi',
        d1v1 = -d2v2 = Re Phi'' and d2v1 = -Im Phi''.

        Targets are binned into boxes aligned to the source grid, of side
        2^k 2h for k = K..0 (coarse to fine).  A box B of half-diagonal R
        whose sources all lie at |zeta - z_B| >= max(3R, R + _NEAR_CELLS h)
        from its centre is a leaf; a box with closer sources passes its
        targets to the next level.  At k = 0 every box is a leaf for its
        well-separated sources, and its close ones are summed pairwise.
        Each leaf expands Phi about z_B, Phi = sum_k c_k (z - z_B)^k with
        c_0 = sum m log(z_B - zeta) and c_k = -sum m (zeta - z_B)^-k / k,
        kept to k = _TERMS = p.  With rho = |z - z_B| / |zeta - z_B| <= 1/3
        the truncated Phi' of each source is within rho^p / (1 - rho) =
        8.1e-16 of m / |zeta - z_B| (Phi'' within p rho^(p-1) / (1 - rho)^2
        = 1.2e-13 of m / |zeta - z_B|^2), and no far pair is near, so the
        result is the direct sum's to rounding.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if not np.all(np.isfinite(pts)):
            raise ValueError("targets must be finite")
        zeta, mass = self._nonzero
        out = np.zeros((len(pts), 6))
        if len(mass) == 0 or len(pts) == 0:
            return out
        h = self.source.h
        z = np.ascontiguousarray(pts).view(complex)[:, 0]    # x + iy
        z0 = complex(self.source.x0, self.source.y0)
        extent = max(np.ptp(zeta.real), np.ptp(zeta.imag)) + h
        top = max(0, int(np.ceil(np.log2(extent / (2.0 * h)))))
        # box keys (ix, iy) packed into one int64 need |ix|, |iy| < 2^31
        if np.max(np.abs(z - z0)) >= 2.0 ** 30 * 2.0 * h * 2.0 ** top:
            raise ValueError("targets must lie within 2^30 source extents "
                             "of the source grid")
        active = np.arange(len(z))
        for k in range(top, -1, -1):
            side = 2.0 * h * 2.0 ** k
            ix = np.floor((pts[active, 0] - z0.real) / side).astype(np.int64)
            iy = np.floor((pts[active, 1] - z0.imag) / side).astype(np.int64)
            lx, ly, ny = ix.min(), iy.min(), np.ptp(iy) + 1
            key = (ix - lx) * ny + (iy - ly)      # one int64 per box
            del ix, iy
            order = np.argsort(key, kind="stable")
            active, key = active[order], key[order]
            first = np.flatnonzero(np.diff(key, prepend=-1, append=-1))
            ix, iy = np.divmod(key[first[:-1]], ny)
            centres = z0 + side * (ix + lx + 0.5 + 1j * (iy + ly + 0.5))
            active = self._level(out, z, active, first, centres, side, k == 0)
            if len(active) == 0:
                break
        return out

    def _level(self, out, z, active, first, centres, side, finest):
        """Add the expansions of the leaf boxes of one level, and at the
        finest level the close sources, to their targets; return the
        targets of the other boxes."""
        zeta, mass = self._nonzero
        R = side / np.sqrt(2.0)
        sep2 = max(3.0 * R, R + _NEAR_CELLS * self.source.h) ** 2
        passed = []
        step = max(1, _BLOCK // len(mass))
        for b0 in range(0, len(centres), step):
            zb = centres[b0:b0 + step]
            bounds = first[b0:b0 + len(zb) + 1]
            box = np.repeat(np.arange(len(zb)), np.diff(bounds))
            D = zeta - zb[:, None]
            d2 = D.real * D.real + D.imag * D.imag
            far = d2 >= sep2
            leaf = far.all(axis=1) | finest
            tgt = active[bounds[0]:bounds[-1]]
            passed.append(tgt[~leaf[box]])
            # scaled coefficients c_k R^k of the leaves, 0 for the others
            far &= leaf[:, None]
            coef = np.empty((len(zb), _TERMS + 1), dtype=complex)
            coef[:, 0] = np.where(far, 0.5 * np.log(d2), 0.0) @ mass
            W = np.where(far, R / D, 0.0)
            Wk = W * mass
            for k in range(1, _TERMS + 1):
                coef[:, k] = Wk.sum(axis=1) / -k
                Wk *= W
            on = np.flatnonzero(leaf[box])
            for c0 in range(0, len(on), _BLOCK):
                sel = on[c0:c0 + _BLOCK]
                b = box[sel]
                P, P1, P2 = _horner(coef, b, (z[tgt[sel]] - zb[b]) / R)
                P1 /= R
                P2 /= R * R
                out[tgt[sel]] += np.stack([P.real, P1.real, -P1.imag, P2.real,
                                           -P2.imag, -P2.real], axis=1)
            if finest:
                self._near(out, z, active, bounds, ~far)
        return np.concatenate(passed)

    def _near(self, out, z, idx, first, close):
        """Add the pairwise sums of the close sources of each finest box
        (close: boxes x sources) to its targets idx[first[b]:first[b + 1]]."""
        zeta, mass = self._nonzero
        for b, row in enumerate(close):
            src = np.flatnonzero(row)
            if len(src) == 0:
                continue
            step = max(1, _BLOCK // len(src))
            for lo in range(first[b], first[b + 1], step):
                tgt = idx[lo:min(lo + step, first[b + 1])]
                d = z[tgt][:, None] - zeta[src]
                K = _pair_kernel(d.real, d.imag, self.source.h)
                out[tgt] += (K @ mass[src]).T

    def phi(self, pts):
        return self._accumulate(pts)[:, 0]

    def velocity(self, pts):
        return self._accumulate(pts)[:, 1:3]

    def velocity_gradient(self, pts):
        """v and grad v at pts: (n, 2) and (n, 2, 2) with [k, i, j] =
        d_j v_i, from one pass (grad v is the exact, symmetric Hessian of
        the discrete potential)."""
        out = self._accumulate(pts)
        grad = out[:, [3, 4, 4, 5]].reshape(-1, 2, 2)
        return out[:, 1:3], grad


def newtonian_solve(f: SourceField) -> PotentialSolution:
    """Right inverse of the divergence: v = grad phi with Delta phi = f.

    The kernel is +(1/2pi) log|x - y|, the sign for which the Laplacian of
    the potential reproduces f (validated against the analytic disk field).
    """
    if not np.all(np.isfinite(f.values)):
        raise ValueError("source values must be finite")
    return PotentialSolution(f)


def divergence_residual(sol: PotentialSolution, f, points, step=None) -> float:
    """max |div v - f| / max |f| with a central-difference divergence."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    h = sol.source.h / 2.0 if step is None else float(step)
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])
    div = (
        (sol.velocity(pts + ex)[:, 0] - sol.velocity(pts - ex)[:, 0])
        + (sol.velocity(pts + ey)[:, 1] - sol.velocity(pts - ey)[:, 1])
    ) / (2.0 * h)
    fv = np.asarray(f(pts), dtype=float)
    scale = np.max(np.abs(sol.source.values))
    if scale == 0.0:
        return float(np.max(np.abs(div)))
    return float(np.max(np.abs(div - fv)) / scale)


def check_weighted_estimate(sol: PotentialSolution, f, domain, gamma, p,
                            grid) -> float:
    """||v||_{W^{1,p}(Omega,gamma)} / ||f||_{L^p(Omega,gamma)}.

    The W^{1,p} norm is ||v d^gamma||_p + ||grad v d^gamma||_p, with v and
    the exact grad v (Frobenius norm) from one pass at the quadrature nodes
    and one distance evaluation for all three norms.  Requires
    -1/p < gamma <= 1 - 1/p; returns 0.0 for f identically zero.
    """
    if not (-1.0 / p < gamma <= 1.0 - 1.0 / p):
        raise ValueError("gamma must satisfy -1/p < gamma <= 1 - 1/p")
    v, grad = sol.velocity_gradient(grid.nodes)
    mags = np.stack([np.abs(np.asarray(f(grid.nodes), dtype=float)),
                     np.hypot(v[:, 0], v[:, 1]),
                     np.sqrt(np.sum(grad * grad, axis=(1, 2)))])
    # freed before the weighted sums, so the gradient pass stays the memory
    # peak (tracemalloc at 120k nodes: 14.7 MB, and 17.3 MB with v and grad
    # kept; the blocked distance adds 4.4 MB)
    del v, grad
    with np.errstate(divide="ignore"):
        np.log(mags, out=mags)
    fnorm, vnorm, gnorm = weights.lp_norms_at_nodes(mags, domain, gamma, p,
                                                    grid)
    if fnorm == 0.0:
        return 0.0
    return float((vnorm + gnorm) / fnorm)


def disk_indicator_field(center, radius):
    """Indicator of a disk, plus its exact potential gradient for testing.

    Returns (f, v_exact): the interior field is (x-z0)/2, the exterior field
    (R^2/2)(x-z0)/|x-z0|^2.
    """
    z = np.asarray(center, dtype=float)
    R = float(radius)

    def f(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return (np.hypot(pts[:, 0] - z[0], pts[:, 1] - z[1]) <= R).astype(float)

    def v_exact(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        dx = pts - z
        r2 = np.sum(dx * dx, axis=1)
        inside = r2 <= R * R
        scale = np.where(inside, 0.5, 0.5 * R * R / np.where(r2 > 0, r2, 1.0))
        return dx * scale[:, None]

    return f, v_exact
