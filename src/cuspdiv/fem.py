"""Finite-element realization (p = 2) of the weighted divergence machinery.

Taylor-Hood elements on graded triangulations: continuous piecewise-quadratic
velocities (optionally with zero boundary values) and continuous piecewise-
linear pressures.  The constraint form is b(v, q) = int div v q d^(2 alpha - 2),
with the distance-power weight evaluated at quadrature nodes.  Every form on
a mesh is integrated through one MeshQuadrature: its nodes, the P2 space, the
physical P2 gradients and the exact distance d are built once, and each
weight d^e of a form is a power of that d; assemble keeps its MeshQuadrature
in the SaddleSystem for every later solve.  Weighted constant pressures are
removed by a bordered (deflated) saddle solve, factored once per assembled
system.  The inf-sup, Korn and improved-Poincare constants are generalized
Rayleigh-quotient extremes, all computed by one shift-invert Lanczos path
(_min_eig) that raises when it does not converge.  Every sparse LU (the
saddle, Korn and Poincare matrices) comes from _factor: SuperLU in symmetric
mode with a small diagonal-pivot threshold, whose factors one probe solve
checks by its backward error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from . import geometry
from .mesh import TriangulatedMesh, _edge_keys

__all__ = [
    "DiscreteField",
    "SaddleSystem",
    "ConstantEstimate",
    "P2Space",
    "MeshQuadrature",
    "assemble",
    "solve_div_right_inverse",
    "discrete_infsup",
    "solve_stokes",
    "pressure_lr_norm",
    "korn_best_constant",
    "improved_poincare_constant",
    "default_ball",
]

# 7-point degree-5 rule on the reference triangle (barycentric, weights sum 1)
_B1, _B2 = 0.0597158717897698, 0.7974269853530873
_QL = np.array(
    [[1 / 3, 1 / 3, 1 / 3],
     [_B1, (1 - _B1) / 2, (1 - _B1) / 2],
     [(1 - _B1) / 2, _B1, (1 - _B1) / 2],
     [(1 - _B1) / 2, (1 - _B1) / 2, _B1],
     [_B2, (1 - _B2) / 2, (1 - _B2) / 2],
     [(1 - _B2) / 2, _B2, (1 - _B2) / 2],
     [(1 - _B2) / 2, (1 - _B2) / 2, _B2]]
)
_QW = np.array([0.225,
                0.1323941527885062, 0.1323941527885062, 0.1323941527885062,
                0.1259391805448271, 0.1259391805448271, 0.1259391805448271])


def _p2_shape(lam):
    """P2 basis at barycentric points lam (nq, 3) -> (nq, 6)."""
    l1, l2, l3 = lam[:, 0], lam[:, 1], lam[:, 2]
    return np.column_stack([
        l1 * (2 * l1 - 1), l2 * (2 * l2 - 1), l3 * (2 * l3 - 1),
        4 * l1 * l2, 4 * l2 * l3, 4 * l3 * l1,
    ])


def _p2_grad(lam):
    """Reference gradients d/d(xi, eta) with xi = l2, eta = l3: (nq, 6, 2)."""
    l1, l2, l3 = lam[:, 0], lam[:, 1], lam[:, 2]
    z = np.zeros_like(l1)
    gx = np.stack([1 - 4 * l1, 4 * l2 - 1, z,
                   4 * (l1 - l2), 4 * l3, -4 * l3], axis=1)
    gy = np.stack([1 - 4 * l1, z, 4 * l3 - 1,
                   -4 * l2, 4 * l2, 4 * (l1 - l3)], axis=1)
    return np.stack([gx, gy], axis=2)


_P2_N = _p2_shape(_QL)            # (7, 6)
_P2_G = _p2_grad(_QL)             # (7, 6, 2)
_P1_N = _QL                       # (7, 3)
# the shape values as (1, 7, m, 1) operands of _weighted_products
_N1, _N2 = _P1_N[None, ..., None], _P2_N[None, ..., None]


class P2Space:
    """Continuous piecewise-quadratic scalar space: vertex + edge-midpoint dofs.

    Vertex v is dof v; edge k of ``edges`` (the mesh's edge numbering) is dof
    ``num_vertices + k``.
    """

    def __init__(self, mesh: TriangulatedMesh):
        self.mesh = mesh
        nv = mesh.num_vertices
        self.edges, sides = mesh.edge_numbering()
        self.tri_dofs = np.hstack([mesh.triangles, nv + sides])
        self.n_dofs = nv + len(self.edges)

    def dof_coords(self):
        v = self.mesh.vertices
        mids = 0.5 * (v[self.edges[:, 0]] + v[self.edges[:, 1]])
        return np.concatenate([v, mids])

    def boundary_dofs(self):
        nv = self.mesh.num_vertices
        ends = np.array([(v0, v1) for v0, v1, _ in self.mesh.boundary_edges])
        mids = nv + np.searchsorted(_edge_keys(self.edges, nv),
                                    _edge_keys(ends, nv))
        return np.unique(np.concatenate([ends.ravel(), mids]))


@dataclass
class DiscreteField:
    space: str                    # scalar-P1 | scalar-P2 | vector-P2
    coeffs: np.ndarray
    mesh: TriangulatedMesh


class MeshQuadrature:
    """The 7-point quadrature of a mesh, shared by every form assembled on it.

    pts (nt, 7, 2) and wq (nt, 7) are the physical nodes and scaled weights.
    The P2 space, the physical P2 gradients (nt, 7, 6, 2) and the exact
    distance d at pts are built on first use; weight(e) is d**e.
    """

    def __init__(self, mesh: TriangulatedMesh):
        self.mesh = mesh
        p = mesh.vertices[mesh.triangles]           # (nt, 3, 2)
        J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)
        detJ = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        invJT = np.empty_like(J)
        invJT[:, 0, 0] = J[:, 1, 1]
        invJT[:, 0, 1] = -J[:, 1, 0]
        invJT[:, 1, 0] = -J[:, 0, 1]
        invJT[:, 1, 1] = J[:, 0, 0]
        invJT /= detJ[:, None, None]
        self._invJT = invJT
        # x_q = p0 + J (xi, eta)
        self.pts = p[:, None, 0, :] + _apply(J, _QL[:, 1:])
        self.wq = 0.5 * np.abs(detJ)[:, None] * _QW[None, :]

    @cached_property
    def space(self) -> P2Space:
        return P2Space(self.mesh)

    @cached_property
    def grads(self):
        return _apply(self._invJT, _P2_G)

    @cached_property
    def d(self):
        dom = geometry.CuspDomain(self.mesh.alpha)
        return geometry.distance(dom, self.pts.reshape(-1, 2)).reshape(
            self.wq.shape)

    def weight(self, exponent):
        """d^exponent at the nodes; ones, without evaluating d, for 0."""
        if exponent == 0.0:
            return np.ones(self.wq.shape)
        return self.d**exponent


def _apply(J, X):
    """sum_j J[t, i, j] X[..., j]: (nt,) + X.shape from J (nt, 2, 2).

    Summed as (0 + J_i0 X_0) + J_i1 X_1, np.einsum's order, with its +0
    where both products are -0; built in place, one i at a time.
    """
    out = np.empty((len(J),) + X.shape)
    J = J.reshape(J.shape + (1,) * (X.ndim - 1))
    for i in range(2):
        oi = out[..., i]
        np.multiply(J[:, i, 0], X[..., 0], out=oi)
        oi += 0.0
        oi += J[:, i, 1] * X[..., 1]
    return out


def _scatter(rdofs, cdofs, local, shape):
    """CSR sum of local blocks (nt, m, n) at rows rdofs (nt, m), cols cdofs."""
    m, n = local.shape[1:]
    rows = np.repeat(rdofs, n, axis=1)
    cols = np.tile(cdofs, (1, m))
    return sparse.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())),
                             shape=shape).tocsr()


def _load(dofs, local, n):
    """Length-n vector summing local values (nt, m) at dofs (nt, m)."""
    return np.bincount(dofs.ravel(), local.ravel(), minlength=n)


def _weighted_products(w, a, b):
    """sum over q and i of (w_q a_qmi) b_qni: (nt, m, n) from w (nt, nq),
    a (nt, nq, m, ni) and b (nt, nq, n, ni); a or b may have 1 for nt.

    The sum runs in np.einsum's order, q from 0 with the i terms of each q
    added first, so the blocks equal einsum's to the bit.  It is formed in
    an (m, n, nt) layout, so that every product is one long loop over the
    triangles, and returned as that array's (nt, m, n) view; no temporary
    exceeds (m, n, nt).
    """
    out = np.zeros((a.shape[2], b.shape[2], len(w)))
    s = np.empty_like(out)
    for q in range(w.shape[1]):
        # this q's operands as (ni, m, nt) and (ni, n, nt), contiguous in t
        aq = np.ascontiguousarray(a[:, q].T)
        bq = np.ascontiguousarray(b[:, q].T)
        np.multiply((w[:, q] * aq[0])[:, None], bq[0], out=s)
        for i in range(1, a.shape[3]):
            s += (w[:, q] * aq[i])[:, None] * bq[i]
        out += s
    return out.transpose(2, 0, 1)


def _assemble_p2(quad, values, kind):
    """Weighted scalar P2 matrix: kind 'mass' or 'stiffness'."""
    w = quad.wq * values
    if kind == "mass":
        local = _weighted_products(w, _N2, _N2)
    else:
        local = _weighted_products(w, quad.grads, quad.grads)
    d, n = quad.space.tri_dofs, quad.space.n_dofs
    return _scatter(d, d, local, (n, n))


def _assemble_eps(quad, values):
    """Vector-P2 matrix of int eps(u):eps(v) w, blocked [ux; uy]."""
    w = quad.wq * values
    gx, gy = quad.grads[..., :1], quad.grads[..., 1:]
    gxx = _weighted_products(w, gx, gx)
    gyy = _weighted_products(w, gy, gy)
    # eps(u):eps(v) blocks for (ux, ux), (ux, uy), (uy, uy)
    xx = gxx + 0.5 * gyy
    yy = gyy + 0.5 * gxx
    xy = 0.5 * _weighted_products(w, gy, gx)
    d, n = quad.space.tri_dofs, quad.space.n_dofs
    # block-major (xx, yy, xy, yx) entry order: the CSR conversion sums
    # duplicates after an unstable sort, so the order fixes the last bits
    return _scatter(np.concatenate([d, d + n, d, d + n]),
                    np.concatenate([d, d + n, d + n, d]),
                    np.concatenate([xx, yy, xy, xy.transpose(0, 2, 1)]),
                    (2 * n, 2 * n))


def _assemble_div(quad, values):
    """B[q, v] = int div v phi_q w over P1 pressures x vector P2: (np, 2 nu)."""
    w = quad.wq * values
    G = quad.grads
    bx = _weighted_products(w, _N1, G[..., :1])
    by = _weighted_products(w, _N1, G[..., 1:])
    t, d, n = quad.mesh.triangles, quad.space.tri_dofs, quad.space.n_dofs
    shape = (quad.mesh.num_vertices, 2 * n)
    # two matrices, not one: duplicates are summed per block (see above)
    return _scatter(t, d, bx, shape) + _scatter(t, d + n, by, shape)


def _assemble_p1_mass(quad, values):
    local = _weighted_products(quad.wq * values, _N1, _N1)
    t, nv = quad.mesh.triangles, quad.mesh.num_vertices
    return _scatter(t, t, local, (nv, nv))


def default_ball(alpha):
    """Largest inscribed disk centered at (0.7, 0), slightly shrunk."""
    dom = geometry.CuspDomain(alpha)
    r = geometry.distance(dom, np.array([0.7, 0.0]))
    return (0.7, 0.0), 0.95 * float(r)


def _ball_indicator(pts, ball):
    (cx, cy), r = ball
    return (np.hypot(pts[..., 0] - cx, pts[..., 1] - cy) <= r).astype(float)


@dataclass
class SaddleSystem:
    """Assembled weighted Taylor-Hood saddle-point blocks.

    quad is the mesh quadrature the blocks were assembled with; every solve
    on the system reuses it, and with it the distance at its nodes.  The
    bordered saddle matrix is factored on first use and shared by all later
    solves.
    """

    mesh: TriangulatedMesh
    alpha: float
    A: sparse.csr_matrix          # int Du : Dv on vector P2 (no BC applied)
    B: sparse.csr_matrix          # int div v q d^(2 alpha - 2)
    Mw: sparse.csr_matrix         # weighted P1 pressure mass
    c: np.ndarray = field(repr=False)       # Mw 1, the deflated direction
    free: np.ndarray = field(repr=False)    # zero-BC dofs
    quad: MeshQuadrature = field(repr=False)
    _solve: object = field(repr=False, default=None, init=False)

    def restrict(self):
        """A, B with zero boundary values imposed on the velocity."""
        fv = self.free
        return self.A[fv][:, fv], self.B[:, fv]

    def bordered_solve(self, rhs_u, rhs_p):
        """(u, q, mu) of the deflated saddle system (see _bordered_solver)."""
        if self._solve is None:
            self._solve = _bordered_solver(*self.restrict(), self.c)
        return self._solve(rhs_u, rhs_p)


def assemble(mesh: TriangulatedMesh, alpha=None) -> SaddleSystem:
    """Assemble the weighted Stokes blocks; requires alpha > 1/2."""
    alpha = mesh.alpha if alpha is None else alpha
    if not alpha > 0.5:
        raise ValueError("alpha must exceed 1/2 for the weighted Stokes forms")
    quad = MeshQuadrature(mesh)
    n = quad.space.n_dofs
    w = quad.weight(2.0 * alpha - 2.0)
    K = _assemble_p2(quad, quad.weight(0.0), "stiffness")
    A = sparse.block_diag([K, K]).tocsr()
    B = _assemble_div(quad, w)
    Mw = _assemble_p1_mass(quad, w)
    c = np.asarray(Mw @ np.ones(mesh.num_vertices))
    bdofs = quad.space.boundary_dofs()
    mask = np.ones(2 * n, dtype=bool)
    mask[bdofs] = False
    mask[bdofs + n] = False
    free = np.nonzero(mask)[0]
    return SaddleSystem(mesh, alpha, A, B, Mw, c, free, quad)


# Diagonal-pivot threshold of _factor.  SuperLU's default partial pivoting
# (threshold 1.0) picks off-diagonal pivots these structurally symmetric
# matrices do not need, and they add fill.  On the alpha = 0.75 saddle,
# symmetric mode at 1e-6 has fill 1,863,888 against 2,455,826 at h = 0.1
# (16.6M against 22.9M at h = 0.05) and factors in 0.5 to 0.7 of the time;
# Korn keeps its fill and factors in 0.5 to 1 of the time, Poincare is
# unchanged.  Threshold 0 breaks the saddle of the unweighted B (mesh alpha
# 0.75, h = 0.3, weight alpha 1): probe backward error 1.1e-4, against
# 2.5e-19 at 1e-6, which has the fill of threshold 0 on the other saddles.
# 1e-3 and 1e-2 raise the h = 0.1 saddle fill to 3.54M and 3.56M.
_DIAG_PIVOT_THRESH = 1e-6
# largest normwise backward error _factor accepts for its probe solve
_FACTOR_TOL = 1e-12


def _factor(A, order):
    """SuperLU factors of the structurally symmetric CSC matrix A.

    Symmetric mode (row order = column order, diagonal pivots preferred down
    to _DIAG_PIVOT_THRESH times the column maximum) in column order `order`.
    One probe solve for a seeded right-hand side b checks the factors: its
    normwise backward error ||A x - b|| / (||A|| ||x|| + ||b||), in the max
    norm, above _FACTOR_TOL raises RuntimeError.
    """
    lu = splu(A, permc_spec=order, diag_pivot_thresh=_DIAG_PIVOT_THRESH,
              options={"SymmetricMode": True})
    b = np.random.default_rng(0).standard_normal(A.shape[0])
    x = lu.solve(b)
    norm_a = float(abs(A).sum(axis=1).max())
    err = float(np.max(np.abs(A @ x - b)) / (
        norm_a * np.max(np.abs(x)) + np.max(np.abs(b))))
    if not err <= _FACTOR_TOL:
        raise RuntimeError(f"sparse LU inaccurate: backward error "
                           f"{err:.3e} > {_FACTOR_TOL:g}")
    return lu


def _bordered_solver(Af, Bf, c):
    """Factor the deflated saddle system once and return its solve.

    [Af  Bf' 0 ] [u ]   [rhs_u]
    [Bf  0   c ] [q ] = [rhs_p]
    [0   c'  0 ] [mu]   [0    ]

    c = Mw 1 deflates weighted-constant pressures; mu absorbs any weighted
    mean of the constraint right-hand side.  solve(rhs_u, rhs_p) returns
    (u, q, mu).
    """
    # imported here, so that runs which never factor do not load csgraph
    from scipy.sparse.csgraph import reverse_cuthill_mckee

    nu, npress = Af.shape[0], Bf.shape[0]
    # Fill-reducing order: reverse Cuthill-McKee on the sparse leading block
    # [[Af, Bf'], [Bf, 0]], with the dense border row and column of c kept
    # last; _factor keeps that order (NATURAL).  On these matrices it has
    # about 0.4 of COLAMD's fill.
    K = sparse.bmat([[Af, Bf.T], [Bf, None]], format="csr")
    perm = np.append(reverse_cuthill_mckee(K, symmetric_mode=True),
                     nu + npress)
    border = sparse.csr_matrix(np.append(np.zeros(nu), c).reshape(-1, 1))
    full = sparse.bmat([[K, border], [border.T, None]], format="csr")
    lu = _factor(full[perm][:, perm].tocsc(), "NATURAL")

    def solve(rhs_u, rhs_p):
        sol = np.empty(nu + npress + 1)
        sol[perm] = lu.solve(np.concatenate([rhs_u, rhs_p, [0.0]])[perm])
        return sol[:nu], sol[nu:nu + npress], float(sol[-1])

    return solve


_EIG_TOL = 1e-8
# Column order for the symmetric Korn and Poincare matrices: minimum degree
# on A'A + A has about half of COLAMD's fill there.  (As an order for the
# saddle it factors slower than COLAMD; _bordered_solver orders that matrix
# itself, by reverse Cuthill-McKee.)
_KORN_POINCARE_ORDER = "MMD_AT_PLUS_A"


def _min_eig(solve, M):
    """Smallest mu of K x = mu M x on a constraint subspace, and its residual.

    solve(y) applies the inverse of K restricted to the subspace: it returns
    the x in the subspace with K x - y orthogonal to it.  One shift-invert
    Lanczos run (ARPACK mode 3, sigma = 0, OPinv = solve) finds the largest
    eigenvalue 1/mu of solve(M .), which is self-adjoint in the M inner
    product; mode 3 never applies K itself.  The start vector is seeded, so
    results are reproducible to the bit.  The residual is
    ||solve(M x) - x/mu|| / ||x/mu||; above _EIG_TOL, or for mu <= 0,
    RuntimeError is raised (ARPACK's own ArpackNoConvergence is one too).
    """
    n = M.shape[0]
    op = LinearOperator((n, n), matvec=solve, dtype=float)
    v0 = solve(M @ np.random.default_rng(0).standard_normal(n))
    vals, vecs = eigsh(op, k=1, M=M, sigma=0.0, OPinv=op, which="LM", v0=v0)
    mu, x = float(vals[0]), vecs[:, 0]
    if not mu > 0.0:
        raise RuntimeError("pencil not positive definite on the subspace")
    resid = float(np.linalg.norm(solve(M @ x) - x / mu)
                  / np.linalg.norm(x / mu))
    if not resid <= _EIG_TOL:
        raise RuntimeError(f"eigensolve not converged: residual "
                           f"{resid:.3e} > {_EIG_TOL:g}")
    return mu, resid


def field_h1_norm(quad, coeffs) -> float:
    """Unweighted H^1 norm (sqrt of int |u|^2 + |Du|^2) of a blocked
    vector-P2 field."""
    n, d = quad.space.n_dofs, quad.space.tri_dofs
    ux, uy = coeffs[:n], coeffs[n:]
    vals = np.stack([np.einsum("qm,tm->tq", _P2_N, ux[d]),
                     np.einsum("qm,tm->tq", _P2_N, uy[d])], axis=-1)
    grads = np.stack([np.einsum("tqmi,tm->tqi", quad.grads, ux[d]),
                      np.einsum("tqmi,tm->tqi", quad.grads, uy[d])], axis=-2)
    dens = np.sum(vals**2, axis=-1) + np.sum(grads**2, axis=(-1, -2))
    return float(np.sqrt(np.sum(quad.wq * dens)))


def source_weighted_norm(mesh, f, gamma) -> float:
    """||f||_{L^2(Omega, gamma)} of a callable source by mesh quadrature."""
    quad = MeshQuadrature(mesh)
    fv = np.asarray(f(quad.pts.reshape(-1, 2)), dtype=float).reshape(
        quad.wq.shape)
    return float(np.sqrt(np.sum(quad.wq * quad.weight(2.0 * gamma) * fv**2)))


def solve_div_right_inverse(mesh, alpha, f, system=None):
    """Minimal-energy zero-BC velocity with weighted-weak divergence f.

    Minimizes int |Du|^2 over zero-BC vector P2 subject to
    int (div u - f) q d^(2 alpha - 2) = 0 for all P1 pressures q with zero
    weighted mean.  Returns (u: DiscreteField, info dict) with the algebraic
    constraint residual and the Lagrange multiplier.
    """
    sys_ = assemble(mesh, alpha) if system is None else system
    if not callable(f):
        raise TypeError("f must be callable on (n, 2) point arrays")
    quad = sys_.quad
    fv = np.asarray(f(quad.pts.reshape(-1, 2)), dtype=float).reshape(
        quad.wq.shape)
    w = quad.wq * quad.weight(2.0 * sys_.alpha - 2.0) * fv
    g = _load(mesh.triangles, np.einsum("tq,qm->tm", w, _P1_N),
              mesh.num_vertices)

    uf, lam, mu = sys_.bordered_solve(np.zeros(len(sys_.free)), g)
    coeffs = np.zeros(2 * quad.space.n_dofs)
    coeffs[sys_.free] = uf
    _, Bf = sys_.restrict()
    resid = Bf @ uf + mu * sys_.c - g
    scale = max(np.linalg.norm(g), 1e-30)
    info = {
        "constraint_residual": float(np.linalg.norm(resid)) / scale,
        "multiplier": lam,
        "weighted_mean_correction": mu,
        "h1_norm": field_h1_norm(quad, coeffs),
    }
    return DiscreteField("vector-P2", coeffs, mesh), info


def discrete_infsup(mesh, alpha, system=None):
    """Discrete weighted inf-sup constant.

    sqrt of the smallest eigenvalue of the pressure Schur complement
    B A^-1 B' against the weighted mass M_w, restricted to pressures of zero
    weighted mean (one deflated direction).  The Schur complement is never
    formed: its inverse on that subspace is the pressure block of the
    system's bordered saddle solve with right-hand side [0, -y, 0], which
    _min_eig applies.
    """
    sys_ = assemble(mesh, alpha) if system is None else system
    zero_u = np.zeros(len(sys_.free))
    mu, _ = _min_eig(lambda y: sys_.bordered_solve(zero_u, -y)[1], sys_.Mw)
    return float(np.sqrt(mu))


def solve_stokes(mesh, alpha, f, system=None):
    """Weighted mixed Stokes solve: a(u,v) + b(v,q) = (f, v), b(u, r) = 0.

    Returns (u, q, info); the physical pressure is p = q d^(2 alpha - 2),
    whose L^r norm `pressure_lr_norm` measures.  info carries the energy
    identity defect and the weighted divergence residual.
    """
    sys_ = assemble(mesh, alpha) if system is None else system
    Af, Bf = sys_.restrict()
    wq, d, n = sys_.quad.wq, sys_.quad.space.tri_dofs, sys_.quad.space.n_dofs
    fv = np.asarray(f(sys_.quad.pts.reshape(-1, 2)), dtype=float).reshape(
        wq.shape + (2,))
    contrib_x = np.einsum("tq,tq,qm->tm", wq, fv[..., 0], _P2_N)
    contrib_y = np.einsum("tq,tq,qm->tm", wq, fv[..., 1], _P2_N)
    Ff = _load(np.hstack([d, d + n]), np.hstack([contrib_x, contrib_y]),
               2 * n)[sys_.free]

    uf, q, mu = sys_.bordered_solve(Ff, np.zeros(mesh.num_vertices))
    coeffs = np.zeros(2 * n)
    coeffs[sys_.free] = uf

    energy = float(uf @ (Af @ uf))
    work = float(Ff @ uf)
    div_resid = np.linalg.norm(Bf @ uf + mu * sys_.c) / max(
        np.linalg.norm(Ff), 1e-30)
    info = {
        "energy": energy,
        "energy_identity_defect": abs(energy - work) / max(abs(work), 1e-30),
        "div_residual": float(div_resid),
        "q_weighted_norm": float(np.sqrt(q @ (sys_.Mw @ q))),
        # unweighted mean of q, recorded as a diagnostic
        "q_unweighted_mean": float(np.einsum(
            "tq,qm,tm->", wq, _P1_N, q[mesh.triangles])),
    }
    return DiscreteField("vector-P2", coeffs, mesh), \
        DiscreteField("scalar-P1", q, mesh), info


def pressure_lr_norm(mesh, alpha, q, r):
    """||p||_{L^r(Omega)} for p = q d^(2 alpha - 2), plus its Hoelder bound.

    Requires 1 <= r < 2/(3 - 2 alpha).  Returns a dict with the norm, the
    bound ||p||_{L^2(Omega, 1-alpha)} (int d^(2(alpha-1) r/(2-r)))^((2-r)/(2r))
    and the slack; the bound is only formed for r < 2.
    """
    if not (1.0 <= r < 2.0 / (3.0 - 2.0 * alpha)):
        raise ValueError(
            f"r must lie in [1, {2.0 / (3.0 - 2.0 * alpha):.6f}) "
            f"for alpha={alpha}")
    quad = MeshQuadrature(mesh)
    qv = np.einsum("qm,tm->tq", _P1_N, np.asarray(q)[mesh.triangles])
    p = qv * quad.weight(2.0 * alpha - 2.0)
    norm = float(np.sum(quad.wq * np.abs(p) ** r) ** (1.0 / r))
    # Hoelder: ||p||_r <= ||p d^(1-alpha)||_2 * ||d^(alpha-1)||_{2r/(2-r)}
    w2 = float(np.sqrt(np.sum(quad.wq * (p * quad.weight(1.0 - alpha)) ** 2)))
    ex = 2.0 * (alpha - 1.0) * r / (2.0 - r)
    mass = float(np.sum(quad.wq * quad.weight(ex)))
    bound = w2 * mass ** ((2.0 - r) / (2.0 * r))
    return {"norm": norm, "bound": bound, "slack": bound - norm}


@dataclass
class ConstantEstimate:
    params: dict
    mesh_level: int
    constant: float
    residual: float


def korn_best_constant(mesh, alpha, beta, ball=None, level=0):
    """Best constant of the weighted Korn inequality as a Rayleigh maximum.

    Maximizes ||Du||^2_{L^2(Omega,1-beta)} over
    ||eps(u)||^2_{L^2(Omega,alpha-beta)} + ||u||^2_{L^2(B)} on vector P2
    fields (no boundary condition); returns sqrt of the max eigenvalue,
    1 / sqrt(mu) for the smallest mu of (E + M_B) x = mu G x (_min_eig).

    Omega is the mesh's domain and the distance d comes from mesh.alpha;
    alpha and beta set only the weight exponents d^(2(1-beta)) and
    d^(2(alpha-beta)) and the default ball.  So alpha = beta = 1 (with an
    explicit ball) gives the unweighted Korn quotient on the mesh's domain.
    """
    if ball is None:
        ball = default_ball(alpha)
    quad = MeshQuadrature(mesh)
    K = _assemble_p2(quad, quad.weight(2.0 * (1.0 - beta)), "stiffness")
    G = sparse.block_diag([K, K]).tocsr()
    E = _assemble_eps(quad, quad.weight(2.0 * (alpha - beta)))
    Mb = _assemble_p2(quad, _ball_indicator(quad.pts, ball), "mass")
    MB = sparse.block_diag([Mb, Mb]).tocsr()
    lu = _factor((E + MB).tocsc(), _KORN_POINCARE_ORDER)
    mu, resid = _min_eig(lu.solve, G)
    return ConstantEstimate(
        {"alpha": alpha, "beta": beta, "ball": ball},
        level, float(1.0 / np.sqrt(mu)), resid)


def improved_poincare_constant(mesh, alpha, beta, ball=None, level=0):
    """Best constant of the improved Poincare inequality.

    Maximizes ||f||^2_{L^2(Omega,1-beta)} / ||grad f||^2_{L^2(Omega,1+alpha-beta)}
    over scalar P2 fields with int_B f phi = 0 for a fixed normalized bump
    phi supported in the ball.  The constraint is imposed by bordering the
    stiffness: one LU of [[S, c], [c', 0]] applies the inverse of S on the
    constrained subspace, and _min_eig returns the smallest mu of
    S x = mu M x there; the constant is 1 / sqrt(mu).
    """
    if ball is None:
        ball = default_ball(alpha)
    (cx, cy), r = ball
    quad = MeshQuadrature(mesh)
    M = _assemble_p2(quad, quad.weight(2.0 * (1.0 - beta)), "mass")
    S = _assemble_p2(quad, quad.weight(2.0 * (1.0 + alpha - beta)),
                     "stiffness")
    # tent bump on the ball, normalized to unit integral by quadrature
    bump = np.maximum(0.0, 1.0 - np.hypot(quad.pts[..., 0] - cx,
                                          quad.pts[..., 1] - cy) / r)
    total = float(np.sum(quad.wq * bump))
    if total <= 0.0:
        raise ValueError("bump ball does not intersect the quadrature nodes")
    bump /= total
    c = _load(quad.space.tri_dofs,
              np.einsum("tq,qm->tm", quad.wq * bump, _P2_N), quad.space.n_dofs)
    cc = sparse.csc_matrix(c.reshape(-1, 1))
    lu = _factor(sparse.bmat([[S, cc], [cc.T, None]], format="csc"),
                 _KORN_POINCARE_ORDER)
    mu, resid = _min_eig(lambda y: lu.solve(np.append(y, 0.0))[:-1], M)
    return ConstantEstimate(
        {"alpha": alpha, "beta": beta, "ball": ball},
        level, float(1.0 / np.sqrt(mu)), resid)

