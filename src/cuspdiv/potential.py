"""Constructive right inverse of the divergence without boundary conditions.

Extend the source f by zero, form the logarithmic Newtonian potential
phi(x) = (1/2pi) integral log|x-y| f(y) dy and return v = grad(phi), so that
div v = Delta phi = f.  Sources are piecewise constant on a regular cell
grid; each cell contributes the cell integrals of the kernel, its gradient
and its Hessian, by exact closed-form antiderivatives over rectangles for
near cells and a midpoint rule for far cells.  One summation pass gives v
and its exact gradient (the Hessian of the discrete potential, whose trace
is the source's cell value), which the weighted W^{1,p} estimate uses
without finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass
class PotentialSolution:
    """Evaluators for the potential phi, the field v = grad phi and its
    gradient, the Hessian of phi."""

    source: SourceField

    def _nonzero(self):
        if not hasattr(self, "_nz"):
            xc, yc = self.source.cell_centers()
            I, J = np.nonzero(self.source.values)
            self._nz = (xc[I], yc[J], self.source.values[I, J])
        return self._nz

    def _accumulate(self, pts, chunk=128):
        """phi, v1, v2, d1v1, d2v1 = d1v2, d2v2 at pts in one pass of
        direct summation over the nonzero cells.

        Each cell weighs, by its mass f h^2 / 2pi, the cell averages of
        log r, (u, v)/r^2 and (v^2 - u^2, -2uv, u^2 - v^2)/r^4: exact for
        near cells (within _NEAR_CELLS cells), the values at the cell
        centre otherwise.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        cx, cy, fv = self._nonzero()
        h = self.source.h
        half = h / 2.0
        near_r2 = (_NEAR_CELLS * h) ** 2
        mass = fv * (h * h / (2.0 * np.pi))
        out = np.zeros((len(pts), 6))
        for lo in range(0, len(pts), chunk):
            du = pts[lo:lo + chunk, 0][:, None] - cx[None, :]
            dv = pts[lo:lo + chunk, 1][:, None] - cy[None, :]
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
            ii, jj = np.nonzero(r2 < near_r2)
            if len(ii):
                K[:, ii, jj] = _cell_integrals(
                    du[ii, jj] - half, du[ii, jj] + half,
                    dv[ii, jj] - half, dv[ii, jj] + half) / (h * h)
            out[lo:lo + chunk] = (K @ mass).T
        return out

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
    del v, grad        # freed before the distance evaluation, the memory peak
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
