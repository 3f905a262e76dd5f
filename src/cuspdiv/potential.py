"""Constructive right inverse of the divergence without boundary conditions.

Extend the source f by zero, form the logarithmic Newtonian potential
phi(x) = (1/2pi) integral log|x-y| f(y) dy and return v = grad(phi), so that
div v = Delta phi = f.  Sources are piecewise constant on a regular cell
grid; near-field cell integrals of the kernel and its gradient use exact
closed-form antiderivatives over rectangles, far-field cells a midpoint
rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry

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


def _phi_cell_exact(u0, u1, v0, v1):
    """Integral of log sqrt(u^2+v^2) over [u0,u1]x[v0,v1] (exact).

    Uses the antiderivative H with d2H/dudv = log r:
    H(u,v) = uv (log(u^2+v^2) - 3)/2 + (u^2/2) atan(v/u) + (v^2/2) atan(u/v).
    """

    def H(u, v):
        r2 = u * u + v * v
        with np.errstate(divide="ignore", invalid="ignore"):
            logr2 = np.where(r2 > 0.0, np.log(np.where(r2 > 0, r2, 1.0)), 0.0)
            au = np.where(u != 0.0, np.arctan(np.divide(v, np.where(u != 0, u, 1.0))), 0.0)
            av = np.where(v != 0.0, np.arctan(np.divide(u, np.where(v != 0, v, 1.0))), 0.0)
        return 0.5 * u * v * (logr2 - 3.0) + 0.5 * u * u * au + 0.5 * v * v * av

    return H(u1, v1) - H(u1, v0) - H(u0, v1) + H(u0, v0)


def _grad_cell_exact(u0, u1, v0, v1):
    """Integrals of u/(u^2+v^2) and v/(u^2+v^2) over the rectangle (exact).

    Antiderivative A with d2A/dudv = u/(u^2+v^2):
    A(u,v) = (v/2) log(u^2+v^2) - v + u atan(v/u); the v-component follows
    by symmetry.
    """

    def A(u, v):
        r2 = u * u + v * v
        with np.errstate(divide="ignore", invalid="ignore"):
            logr2 = np.where(r2 > 0.0, np.log(np.where(r2 > 0, r2, 1.0)), 0.0)
            au = np.where(u != 0.0, np.arctan(np.divide(v, np.where(u != 0, u, 1.0))), 0.0)
        return 0.5 * v * logr2 - v + u * au

    def box(F, a0, a1, b0, b1):
        return F(a1, b1) - F(a1, b0) - F(a0, b1) + F(a0, b0)

    gu = box(A, u0, u1, v0, v1)
    gv = box(A, v0, v1, u0, u1)
    return gu, gv


@dataclass
class PotentialSolution:
    """Evaluators for the potential phi and the gradient field v = grad phi."""

    source: SourceField

    def _nonzero(self):
        if not hasattr(self, "_nz"):
            xc, yc = self.source.cell_centers()
            I, J = np.nonzero(self.source.values)
            self._nz = (xc[I], yc[J], self.source.values[I, J])
        return self._nz

    def _accumulate(self, pts, chunk=128):
        """phi, v1, v2 at pts by direct summation over nonzero cells."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        cx, cy, fv = self._nonzero()
        h = self.source.h
        half = h / 2.0
        near_r = _NEAR_CELLS * h
        area = h * h
        out = np.zeros((len(pts), 3))
        for lo in range(0, len(pts), chunk):
            px = pts[lo:lo + chunk, 0][:, None]
            py = pts[lo:lo + chunk, 1][:, None]
            du = px - cx[None, :]
            dv = py - cy[None, :]
            r2 = du * du + dv * dv
            near = r2 < near_r * near_r
            with np.errstate(divide="ignore"):
                logr2 = np.log(r2)
            phi = np.where(near, 0.0, 0.5 * logr2) * area
            g1 = np.where(near, 0.0, du / np.where(near, 1.0, r2)) * area
            g2 = np.where(near, 0.0, dv / np.where(near, 1.0, r2)) * area
            if np.any(near):
                ii, jj = np.nonzero(near)
                u0 = du[ii, jj] - half
                u1 = du[ii, jj] + half
                v0 = dv[ii, jj] - half
                v1 = dv[ii, jj] + half
                phi[ii, jj] = _phi_cell_exact(u0, u1, v0, v1)
                gu, gv = _grad_cell_exact(u0, u1, v0, v1)
                g1[ii, jj] = gu
                g2[ii, jj] = gv
            k = 1.0 / (2.0 * np.pi)
            out[lo:lo + chunk, 0] = k * phi @ fv
            out[lo:lo + chunk, 1] = k * g1 @ fv
            out[lo:lo + chunk, 2] = k * g2 @ fv
        return out

    def phi(self, pts):
        return self._accumulate(pts)[:, 0]

    def velocity(self, pts):
        return self._accumulate(pts)[:, 1:]


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
                            grid, fd_step=None) -> float:
    """||v||_{W^{1,p}(Omega,gamma)} / ||f||_{L^p(Omega,gamma)}.

    The W^{1,p} norm is ||v d^gamma||_p + ||grad v d^gamma||_p with grad v by
    central differences at the quadrature nodes.  Requires -1/p < gamma
    <= 1 - 1/p; returns 0.0 for f identically zero.
    """
    if not (-1.0 / p < gamma <= 1.0 - 1.0 / p):
        raise ValueError("gamma must satisfy -1/p < gamma <= 1 - 1/p")
    from .weights import weighted_lp_norm

    fnorm, _ = weighted_lp_norm(lambda q: np.abs(np.asarray(f(q))), domain,
                                gamma, p, grid, mode="exact",
                                estimate_error=False)
    if fnorm == 0.0:
        return 0.0
    h = sol.source.h / 2.0 if fd_step is None else float(fd_step)
    ex = np.array([h, 0.0])
    ey = np.array([0.0, h])

    def vmag(q):
        v = sol.velocity(q)
        return np.hypot(v[:, 0], v[:, 1])

    def gradmag(q):
        q = np.atleast_2d(q)
        dx = (sol.velocity(q + ex) - sol.velocity(q - ex)) / (2.0 * h)
        dy = (sol.velocity(q + ey) - sol.velocity(q - ey)) / (2.0 * h)
        return np.sqrt(dx[:, 0] ** 2 + dx[:, 1] ** 2
                       + dy[:, 0] ** 2 + dy[:, 1] ** 2)

    vnorm, _ = weighted_lp_norm(vmag, domain, gamma, p, grid, mode="exact",
                                estimate_error=False)
    gnorm, _ = weighted_lp_norm(gradmag, domain, gamma, p, grid, mode="exact",
                                estimate_error=False)
    return (vnorm + gnorm) / fnorm


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
