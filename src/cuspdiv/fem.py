"""Finite-element realization (p = 2) of the weighted divergence machinery.

Taylor-Hood elements on graded triangulations: continuous piecewise-quadratic
velocities (optionally with zero boundary values) and continuous piecewise-
linear pressures.  The constraint form is b(v, q) = int div v q d^(2 alpha - 2),
with the distance-power weight evaluated at quadrature nodes.  Every form on
a mesh is integrated through one MeshQuadrature, which _quadrature shares
among all live callers on that mesh (a SaddleSystem keeps its own for every
later solve): its nodes, the P2 space, the physical P2 gradients, the exact
distance d and the minimum-degree order of the P2 dofs are built once, and
each weight d^e of a form is a power of that d.  One helper, _bordered,
factors both constraint borders, the border last: c = M_w 1 on the saddle
matrix, which removes weighted-constant pressures (once per assembled
system), and the bump on the improved-Poincare stiffness.  The inf-sup, Korn
and improved-Poincare constants are generalized Rayleigh-quotient extremes,
all computed by one shift-invert Lanczos iteration (_min_eig) that stops on
the residual it accepts and raises when it does not converge.  Every sparse LU
(saddle, Korn and Poincare) comes from _factor, in an order derived from the
mesh's order: SuperLU in symmetric mode with a small diagonal-pivot
threshold, whose factors one probe solve checks by its backward error.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import sparse
# eigsh is unused here: it stays for perfbench's tracer, which rebinds it
from scipy.sparse.linalg import eigsh, spilu, splu

from . import geometry
from .mesh import P2Space, TriangulatedMesh

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


@dataclass
class DiscreteField:
    coeffs: np.ndarray            # blocked vector P2 (u) or P1 (q) values


class MeshQuadrature:
    """The 7-point quadrature of a mesh, shared by every form assembled on it.

    pts (nt, 7, 2) and wq (nt, 7) are the physical nodes and scaled weights.
    The P2 space, the physical P2 gradients, the exact distance d at pts
    and the elimination order of the P2 dofs are built on first use;
    weight(e) is d**e.  grads[t, q, m, i] is the i-th derivative of basis
    function m at node q of triangle t: an (nt, 7, 6, 2) view of an array
    stored (q, i, m, t), contiguous in t, the layout _weighted_products
    reads.
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
        # x_q = p0 + J (xi, eta), as a C-ordered (nt, 7, 2) array
        self.pts = np.add(p[:, None, 0, :], _apply(J, _QL[:, 1:]), order="C")
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

    @cached_property
    def order(self):
        """Minimum-degree elimination sequence of the P2 dofs: argsort of
        SuperLU's perm_c on the unweighted P2 mass, which has the pattern of
        every scalar P2 form and is nonsingular.  The incomplete LU that
        drops all it may gives the full LU's perm_c at 1/3 to 1/2 its cost.
        """
        M = _assemble_p2(self, self.weight(0.0), "mass").tocsc()
        return np.argsort(spilu(M, permc_spec=_MIN_DEGREE_ORDER,
                                drop_tol=1.0, fill_factor=1.0).perm_c)

    def weight(self, exponent):
        """d^exponent at the nodes; ones, without evaluating d, for 0."""
        if exponent == 0.0:
            return np.ones(self.wq.shape)
        return self.d**exponent

    def values(self, f):
        """f at the nodes: (nt, 7) for a scalar f, (nt, 7, 2) for a vector."""
        fv = np.asarray(f(self.pts.reshape(-1, 2)), dtype=float)
        return fv.reshape(self.wq.shape + fv.shape[1:])


# live quadratures by id of their mesh, held weakly: a quadrature lives as
# long as its holders, and it keeps its mesh, so the id stays that mesh's
_QUADRATURES = weakref.WeakValueDictionary()


def _quadrature(mesh):
    """The MeshQuadrature of mesh: the one a live holder (a SaddleSystem,
    say) keeps for this mesh object, or else a new one."""
    quad = _QUADRATURES.get(id(mesh))
    if quad is None:
        quad = _QUADRATURES[id(mesh)] = MeshQuadrature(mesh)
    return quad


def _apply(J, X):
    """sum_j J[t, i, j] X[q, ..., j] for J (nt, 2, 2) and X (nq, ..., 2),
    as the (nt, nq, ..., 2) view of an array stored (nq, 2, ..., nt), so
    that the values of one q and one i are contiguous in t.

    Summed as (0 + J_i0 X_0) + J_i1 X_1, np.einsum's order, with its +0
    where both products are -0; built in place, one i at a time.
    """
    X = np.moveaxis(X, -1, 0)[..., None]        # (2, nq, ..., 1)
    out = np.empty((len(X[0]), 2) + X.shape[2:-1] + (len(J),))
    for i in range(2):
        oi = out[:, i]
        np.multiply(J[:, i, 0], X[0], out=oi)
        oi += 0.0
        oi += J[:, i, 1] * X[1]
    return np.moveaxis(out, (1, -1), (-1, 0))


def _scatter(rdofs, cdofs, local, shape):
    """CSR sum of local blocks (nt, m, n) at rows rdofs (nt, m), cols cdofs.

    The indices are built in the dtype scipy stores them in, int32 when
    both dimensions fit in it, so that the COO matrix casts none of them.
    """
    m, n = local.shape[1:]
    idx = np.int32 if max(shape) <= np.iinfo(np.int32).max else np.int64
    rows = np.repeat(rdofs.astype(idx), n, axis=1)
    cols = np.tile(cdofs.astype(idx), (1, m))
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
    exceeds (m, n, nt).  Each q reads its operands as (ni, m, nt) arrays,
    a[:, q].T; for the gradients (MeshQuadrature.grads, stored contiguous
    in t) and their slices in i, that is a view, and nothing is copied.
    """
    out = np.zeros((a.shape[2], b.shape[2], len(w)))
    s = np.empty_like(out)
    for q in range(w.shape[1]):
        # this q's operands as (ni, m, nt) and (ni, n, nt), contiguous in t
        aq = np.ascontiguousarray(a[:, q].T)
        bq = aq if b is a else np.ascontiguousarray(b[:, q].T)
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


def _diag2(X):
    """diag(X, X) as CSR for a square CSR X, from X's own arrays: the bytes
    of sparse.block_diag([X, X]).tocsr(), without its COO round trip."""
    n = X.shape[0]
    return sparse.csr_matrix(
        (np.concatenate([X.data, X.data]),
         np.concatenate([X.indices, X.indices + n]),
         np.concatenate([X.indptr, X.indptr[1:] + X.nnz])),
        shape=(2 * n, 2 * n))


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

    @cached_property
    def _restricted(self):
        fv = self.free
        return self.A[fv][:, fv], self.B[:, fv]

    def restrict(self):
        """A, B with zero boundary values imposed on the velocity, built on
        first use and shared by all later callers."""
        return self._restricted

    @cached_property
    def _solve(self):
        """The deflated saddle system, factored once by _bordered:

        [Af  Bf' 0 ] [u ]   [rhs_u]
        [Bf  0   c ] [q ] = [rhs_p]
        [0   c'  0 ] [mu]   [0    ]

        Af is diag(Kf, Kf): one boundary mask serves both velocity
        components.  c = Mw 1 deflates weighted-constant pressures; mu
        absorbs any weighted mean of the constraint right-hand side.  The
        unknowns (u, q) go in the order of _saddle_order on the mesh order
        of the free scalar dofs, the border mu last.  At alpha = 0.75 that
        has fill 1.20M at h = 0.1 and 7.60M at h = 0.05, against 1.86M and
        16.6M for the reverse Cuthill-McKee order of the whole saddle
        block, and factors and solves in 0.3 to 0.6 of its time.
        """
        Af, Bf = self.restrict()
        # the mesh order on the free scalar dofs, numbered among them
        scalar = self.free[:len(self.free) // 2]
        seq = np.argsort(np.argsort(self.quad.order)[scalar])
        return _bordered(sparse.bmat([[Af, Bf.T], [Bf, None]]),
                         np.concatenate([np.zeros(Af.shape[0]), self.c]),
                         _saddle_order(seq, Bf))

    def bordered_solve(self, rhs_u, rhs_p):
        """(u, q, mu) of the deflated saddle system (see _solve)."""
        x, mu = self._solve(np.concatenate([rhs_u, rhs_p]))
        return x[:len(rhs_u)], x[len(rhs_u):], mu


def assemble(mesh: TriangulatedMesh, alpha) -> SaddleSystem:
    """Assemble the weighted Stokes blocks; requires alpha > 1/2."""
    if not alpha > 0.5:
        raise ValueError("alpha must exceed 1/2 for the weighted Stokes forms")
    quad = _quadrature(mesh)
    n = quad.space.n_dofs
    w = quad.weight(2.0 * alpha - 2.0)
    K = _assemble_p2(quad, quad.weight(0.0), "stiffness")
    A = _diag2(K)
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
# matrices do not need, and they add fill.  On the alpha = 0.75 saddle in
# the order of _saddle_order, symmetric mode at 1e-6 has fill 1.20M against
# 5.31M at h = 0.1 and factors in 55 ms against 590 ms (7.69M against 98.2M
# fill, 0.48 s against 72 s, at h = 0.05, measured in the saddle's former
# order); Korn and Poincare keep their fill, to 2%, and their time.
# Threshold 0 breaks the saddle of the unweighted B (mesh alpha 0.75,
# h = 0.3, weight alpha 1): probe backward error 8.8e-8, against 3.4e-20 at
# 1e-6, which has the fill of threshold 0 on the other saddles.  1e-3 keeps
# that fill, and 1e-2 raises it to 1.44M at h = 0.1 and 10.4M at h = 0.05.
_DIAG_PIVOT_THRESH = 1e-6
# largest normwise backward error _factor accepts for its probe solve
_FACTOR_TOL = 1e-12
# Minimum degree on A'A + A, read once per mesh from the P2 dof pattern
# (MeshQuadrature.order); every LU on the mesh is ordered from it.  At
# alpha = 0.75, h = 0.1 and 0.05, that gives Korn fill 793k and 4.43M
# (830k and 4.53M for minimum degree on the whole Korn matrix, 1.30M and
# 8.28M for COLAMD), Poincare 202k and 1.12M (203k and 1.08M on its own
# matrix) and the saddle 1.20M and 7.60M (1.18M and 7.69M ordered by its
# free scalar block).  On the whole saddle its zero pressure block defeats
# it: at h = 0.05 it had 21.3M fill against the 7.69M of that order.
_MIN_DEGREE_ORDER = "MMD_AT_PLUS_A"


def _factor(A, perm):
    """Solve with the SuperLU factors of the structurally symmetric A,
    eliminated in the order perm (unknown perm[k] k-th).

    A[perm][:, perm] is factored in symmetric mode (NATURAL order, diagonal
    pivots preferred down to _DIAG_PIVOT_THRESH times the column maximum).
    One probe solve for a seeded right-hand side b checks the factors: its
    normwise backward error ||A x - b|| / (||A|| ||x|| + ||b||), in the max
    norm, above _FACTOR_TOL raises RuntimeError.  Returns solve(b), A^-1 b
    in the unknowns of A.
    """
    A = A.tocsr()[perm][:, perm].tocsc()
    lu = splu(A, permc_spec="NATURAL", diag_pivot_thresh=_DIAG_PIVOT_THRESH,
              options={"SymmetricMode": True})
    b = np.random.default_rng(0).standard_normal(A.shape[0])
    x = lu.solve(b)
    norm_a = float(abs(A).sum(axis=1).max())
    err = float(np.max(np.abs(A @ x - b)) / (
        norm_a * np.max(np.abs(x)) + np.max(np.abs(b))))
    if not err <= _FACTOR_TOL:
        raise RuntimeError(f"sparse LU inaccurate: backward error "
                           f"{err:.3e} > {_FACTOR_TOL:g}")

    def solve(rhs):
        out = np.empty(len(rhs))
        out[perm] = lu.solve(rhs[perm])
        return out

    return solve


def _pair(seq):
    """The [ux; uy] unknowns of the scalar sequence seq, x and y together."""
    return np.column_stack([seq, seq + len(seq)]).ravel()


def _saddle_order(seq, Bf):
    """Elimination order of the saddle matrix [[Af, Bf'], [Bf, 0]].

    The free scalar dofs go in the sequence seq, the two velocity
    components of each next to each other (_pair), and every pressure right
    after the dof of its last free velocity neighbour, so that its zero
    diagonal has been filled by the time it is eliminated; pressures with
    no free neighbour go after all velocities.  Returns the unknowns (u, q)
    in elimination order.
    """
    nu, npress = 2 * len(seq), Bf.shape[0]
    # dof k of the sequence has its components at positions 2k and 2k + 1
    pos = np.empty(nu, dtype=np.intp)
    pos[_pair(seq)] = np.arange(nu)
    # each pressure's key: the second position (2k + 1, that is | 1) of
    # the dof of its last neighbour; nu if it has none
    coo = Bf.tocoo()
    last = np.full(npress, -1, dtype=np.intp)
    np.maximum.at(last, coo.row, pos[coo.col] | 1)
    last[last < 0] = nu
    # stable: a pressure follows the velocity it shares a key with
    return np.argsort(np.concatenate([pos, last]), kind="stable")


def _bordered(A, c, perm):
    """Factor the bordered matrix [[A, c], [c', 0]] once; return its solve.

    A's unknowns are eliminated in the order perm and the border unknown,
    coupled to every nonzero of c, last (_factor).  solve(rhs) returns
    (x, m) with A x + c m = rhs and c'x = 0.
    """
    cc = sparse.csr_matrix(c.reshape(-1, 1))
    solve_full = _factor(sparse.bmat([[A, cc], [cc.T, None]], format="csr"),
                         np.append(perm, len(c)))

    def solve(rhs):
        sol = solve_full(np.append(rhs, 0.0))
        return sol[:-1], float(sol[-1])

    return solve


# largest relative residual ||solve(M x) - x/mu|| / ||x/mu|| _min_eig accepts
_EIG_TOL = 1e-8
# Lanczos stops 10 times below the _EIG_TOL its explicit check must meet
_STOP_TOL = _EIG_TOL / 10
# most Lanczos steps (solves) of one eigensolve; the fem problems stop after
# 7 to 18 at alpha 0.75, h 0.25 to 0.05 (Parlett, The Symmetric Eigenvalue
# Problem)
_EIG_MAX_STEPS = 100


def _min_eig(solve, M):
    """Smallest mu of K x = mu M x on a constraint subspace, and its residual.

    solve(y) applies the inverse of K restricted to the subspace: it returns
    the x in the subspace with K x - y orthogonal to it.  A shift-invert
    Lanczos iteration on solve(M .), which is self-adjoint in the M inner
    product, finds its eigenvalue theta = 1/mu of largest magnitude; K itself
    is never applied.  The seeded start solve(M r) lies in the operator's
    range, where M is definite even when it is only semidefinite on the
    whole space (Korn's G).  Each new vector is reorthogonalized against all
    earlier ones, two passes.  The tridiagonal's Ritz pair (theta, s) gives
    x = s V with solve(M x) - theta x = s_j w, so the run stops when
    |s_j| ||w|| <= _STOP_TOL |theta| ||x|| or beta_j = 0, and raises
    RuntimeError after _EIG_MAX_STEPS steps.  Results are reproducible to
    the bit.  The residual ||solve(M x) - x/mu|| / ||x/mu||, the same norm,
    costs one more solve; above _EIG_TOL, or for mu <= 0, _min_eig raises.
    """
    n = M.shape[0]
    steps = min(_EIG_MAX_STEPS, n)
    V = np.empty((steps, n))        # the M-orthonormal Lanczos basis
    MV = np.empty((steps, n))       # M times each basis vector
    diag, sub = np.empty(steps), np.empty(steps)    # the tridiagonal
    w = solve(M @ np.random.default_rng(0).standard_normal(n))
    Mw = M @ w
    b = np.sqrt(w @ Mw)
    for j in range(steps):
        V[j], MV[j] = w / b, Mw / b
        w = solve(MV[j])
        diag[j] = w @ MV[j]
        for _ in range(2):
            w -= (MV[:j + 1] @ w) @ V[:j + 1]
        Mw = M @ w
        b = sub[j] = np.sqrt(max(w @ Mw, 0.0))
        off = np.diag(sub[:j], 1)
        vals, vecs = np.linalg.eigh(np.diag(diag[:j + 1]) + off + off.T)
        k = np.argmax(np.abs(vals))
        theta, s = float(vals[k]), vecs[:, k]
        x = s @ V[:j + 1]
        est = abs(s[-1]) * np.linalg.norm(w) / (abs(theta) * np.linalg.norm(x))
        if est <= _STOP_TOL or b == 0.0:
            break
    else:
        raise RuntimeError(f"eigensolve not converged in {steps} Lanczos "
                           f"steps: residual {est:.3e}")
    mu = 1.0 / theta
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
    # einsum sums a C-ordered operand in the order the norm was recorded in
    G = np.ascontiguousarray(quad.grads)
    grads = np.stack([np.einsum("tqmi,tm->tqi", G, ux[d]),
                      np.einsum("tqmi,tm->tqi", G, uy[d])], axis=-2)
    dens = np.sum(vals**2, axis=-1) + np.sum(grads**2, axis=(-1, -2))
    return float(np.sqrt(np.sum(quad.wq * dens)))


def source_weighted_norm(quad, f, gamma) -> float:
    """||f||_{L^2(Omega, gamma)} of a callable source by mesh quadrature."""
    fv = quad.values(f)
    return float(np.sqrt(np.sum(quad.wq * quad.weight(2.0 * gamma) * fv**2)))


def _check_system(mesh, alpha, system):
    """Raise ValueError unless system was assembled on mesh for alpha."""
    if system.mesh is not mesh:
        raise ValueError("system was assembled on another mesh")
    if system.alpha != alpha:
        raise ValueError(f"system was assembled for alpha {system.alpha!r}, "
                         f"not {alpha!r}")


def solve_div_right_inverse(mesh, alpha, f, system):
    """Minimal-energy zero-BC velocity with weighted-weak divergence f.

    Minimizes int |Du|^2 over zero-BC vector P2 subject to
    int (div u - f) q d^(2 alpha - 2) = 0 for all P1 pressures q with zero
    weighted mean.  Returns (u: DiscreteField, info dict) with the algebraic
    constraint residual and the Lagrange multiplier.  system must come from
    assemble(mesh, alpha).
    """
    _check_system(mesh, alpha, system)
    quad = system.quad
    w = quad.wq * quad.weight(2.0 * system.alpha - 2.0) * quad.values(f)
    g = _load(mesh.triangles, np.einsum("tq,qm->tm", w, _P1_N),
              mesh.num_vertices)

    uf, lam, mu = system.bordered_solve(np.zeros(len(system.free)), g)
    coeffs = np.zeros(2 * quad.space.n_dofs)
    coeffs[system.free] = uf
    _, Bf = system.restrict()
    resid = Bf @ uf + mu * system.c - g
    scale = max(np.linalg.norm(g), 1e-30)
    info = {
        "constraint_residual": float(np.linalg.norm(resid)) / scale,
        "multiplier": lam,
        "weighted_mean_correction": mu,
        "h1_norm": field_h1_norm(quad, coeffs),
    }
    return DiscreteField(coeffs), info


def discrete_infsup(mesh, alpha, system):
    """Discrete weighted inf-sup constant.

    sqrt of the smallest eigenvalue of the pressure Schur complement
    B A^-1 B' against the weighted mass M_w, restricted to pressures of zero
    weighted mean (one deflated direction).  The Schur complement is never
    formed: its inverse on that subspace is the pressure block of the
    system's bordered saddle solve with right-hand side [0, -y, 0], which
    _min_eig applies.  system must come from assemble(mesh, alpha).
    """
    _check_system(mesh, alpha, system)
    return _infsup(system)[0]


def _infsup(system):
    """The discrete inf-sup constant of system (see discrete_infsup) and
    the relative residual of its eigenpair (_min_eig)."""
    zero_u = np.zeros(len(system.free))
    mu, resid = _min_eig(lambda y: system.bordered_solve(zero_u, -y)[1],
                         system.Mw)
    return float(np.sqrt(mu)), resid


def solve_stokes(mesh, alpha, f, system):
    """Weighted mixed Stokes solve: a(u,v) + b(v,q) = (f, v), b(u, r) = 0.

    Returns (u, q, info); the physical pressure is p = q d^(2 alpha - 2),
    whose L^r norm `pressure_lr_norm` measures.  info carries the energy
    identity defect and the weighted divergence residual.  system must come
    from assemble(mesh, alpha).
    """
    _check_system(mesh, alpha, system)
    Af, Bf = system.restrict()
    quad = system.quad
    wq, d, n = quad.wq, quad.space.tri_dofs, quad.space.n_dofs
    fv = quad.values(f)
    contrib_x = np.einsum("tq,tq,qm->tm", wq, fv[..., 0], _P2_N)
    contrib_y = np.einsum("tq,tq,qm->tm", wq, fv[..., 1], _P2_N)
    Ff = _load(np.hstack([d, d + n]), np.hstack([contrib_x, contrib_y]),
               2 * n)[system.free]

    uf, q, mu = system.bordered_solve(Ff, np.zeros(mesh.num_vertices))
    coeffs = np.zeros(2 * n)
    coeffs[system.free] = uf

    energy = float(uf @ (Af @ uf))
    work = float(Ff @ uf)
    div_resid = np.linalg.norm(Bf @ uf + mu * system.c) / max(
        np.linalg.norm(Ff), 1e-30)
    info = {
        "energy": energy,
        "energy_identity_defect": abs(energy - work) / max(abs(work), 1e-30),
        "div_residual": float(div_resid),
        # unweighted mean of q, recorded as a diagnostic
        "q_unweighted_mean": float(np.einsum(
            "tq,qm,tm->", wq, _P1_N, q[mesh.triangles])),
    }
    return DiscreteField(coeffs), DiscreteField(q), info


def _pressure_r_max(alpha):
    """p = q d^(2 alpha - 2) lies in L^r for 1 <= r < 2/(3 - 2 alpha)."""
    return 2.0 / (3.0 - 2.0 * alpha)


def _check_pressure_r(alpha, r):
    """Raise ValueError unless 1 <= r < _pressure_r_max(alpha)."""
    r_max = _pressure_r_max(alpha)
    if not 1.0 <= r < r_max:
        raise ValueError(f"r must lie in [1, {r_max:.6f}) for alpha={alpha}")


def pressure_lr_norm(mesh, alpha, q, r):
    """||p||_{L^r(Omega)} for p = q d^(2 alpha - 2), plus its Hoelder bound.

    Requires 1 <= r < 2/(3 - 2 alpha) <= 2.  Returns a dict with the norm, the
    bound ||p||_{L^2(Omega, 1-alpha)} (int d^(2(alpha-1) r/(2-r)))^((2-r)/(2r))
    and the slack.
    """
    _check_pressure_r(alpha, r)
    quad = _quadrature(mesh)
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
    mesh_level: int
    constant: float
    residual: float


def korn_best_constant(mesh, alpha, beta, level=0):
    """Best constant of the weighted Korn inequality as a Rayleigh maximum.

    Maximizes ||Du||^2_{L^2(Omega,1-beta)} over
    ||eps(u)||^2_{L^2(Omega,alpha-beta)} + ||u||^2_{L^2(B)} on vector P2
    fields (no boundary condition); returns sqrt of the max eigenvalue,
    1 / sqrt(mu) for the smallest mu of (E + M_B) x = mu G x (_min_eig).

    Omega is the mesh's domain, and the distance d and the ball
    B = default_ball(mesh.alpha) come from it; alpha and beta set only the
    weight exponents d^(2(1-beta)) and d^(2(alpha-beta)).  So alpha = beta
    = 1 gives the unweighted Korn quotient on the mesh's domain.
    """
    quad = _quadrature(mesh)
    K = _assemble_p2(quad, quad.weight(2.0 * (1.0 - beta)), "stiffness")
    G = _diag2(K)
    E = _assemble_eps(quad, quad.weight(2.0 * (alpha - beta)))
    inside = _ball_indicator(quad.pts, default_ball(mesh.alpha))
    MB = _diag2(_assemble_p2(quad, inside, "mass"))
    mu, resid = _min_eig(_factor(E + MB, _pair(quad.order)), G)
    return ConstantEstimate(level, float(1.0 / np.sqrt(mu)), resid)


def improved_poincare_constant(mesh, alpha, beta, level=0):
    """Best constant of the improved Poincare inequality.

    Maximizes ||f||^2_{L^2(Omega,1-beta)} / ||grad f||^2_{L^2(Omega,1+alpha-beta)}
    over scalar P2 fields with int_B f phi = 0 for a fixed normalized bump
    phi supported in the ball B = default_ball(mesh.alpha) of the mesh's
    domain.  The constraint is imposed by bordering the stiffness: one LU of
    [[S, c], [c', 0]] (_bordered) applies the inverse of S on the
    constrained subspace, and _min_eig returns the smallest mu of
    S x = mu M x there; the constant is 1 / sqrt(mu).
    """
    quad = _quadrature(mesh)
    (cx, cy), r = default_ball(mesh.alpha)
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
    solve = _bordered(S, c, quad.order)
    mu, resid = _min_eig(lambda y: solve(y)[0], M)
    return ConstantEstimate(level, float(1.0 / np.sqrt(mu)), resid)
