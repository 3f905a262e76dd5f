import hashlib
import math

import numpy as np
import pytest
from scipy import linalg as dla
from scipy import sparse
from scipy.sparse.linalg import splu

from cuspdiv import cli, fem, geometry
from cuspdiv.fem import (
    P2Space,
    assemble,
    default_ball,
    discrete_infsup,
    improved_poincare_constant,
    korn_best_constant,
    pressure_lr_norm,
    solve_div_right_inverse,
    solve_stokes,
)
from cuspdiv.geometry import CuspDomain
from cuspdiv.mesh import generate_graded_mesh, refine
from test_mesh import mesh_area


@pytest.fixture(scope="module")
def mesh075():
    return generate_graded_mesh(CuspDomain(0.75), 0.25)


@pytest.fixture(scope="module")
def system075(mesh075):
    return assemble(mesh075, 0.75)


def test_p2_space_dof_bookkeeping(mesh075):
    sp = P2Space(mesh075)
    assert sp.n_dofs == mesh075.num_vertices + len(mesh075.edges())
    coords = sp.dof_coords()
    for k, (a, b) in enumerate(sp.edges):
        mid = 0.5 * (mesh075.vertices[a] + mesh075.vertices[b])
        assert np.allclose(coords[mesh075.num_vertices + k], mid)
    bd = sp.boundary_dofs()
    assert len(bd) == len(set(bd))
    assert np.all(bd < sp.n_dofs)


def test_p2_dof_map_indexes_edges(mesh075):
    sp = P2Space(mesh075)
    nv = mesh075.num_vertices
    t = mesh075.triangles
    assert np.array_equal(sp.tri_dofs[:, :3], t)
    assert np.all(sp.tri_dofs[:, 3:] >= nv)
    for col, (a, b) in enumerate([(0, 1), (1, 2), (2, 0)]):
        e = sp.edges[sp.tri_dofs[:, 3 + col] - nv]
        assert np.array_equal(e, np.sort(t[:, [a, b]], axis=1))
    # boundary dofs: the boundary vertices and the dofs of boundary edges
    edge_dof = {tuple(e): nv + k for k, e in enumerate(sp.edges.tolist())}
    ref = set()
    for v0, v1, _ in mesh075.boundary_edges:
        ref |= {v0, v1, edge_dof[min(v0, v1), max(v0, v1)]}
    assert sp.boundary_dofs().tolist() == sorted(ref)


def test_assemble_rejects_small_alpha(mesh075):
    with pytest.raises(ValueError):
        assemble(mesh075, 0.5)


def test_assembled_blocks_symmetric_and_positive(system075):
    A, Mw = system075.A, system075.Mw
    assert abs(A - A.T).max() < 1e-12
    assert abs(Mw - Mw.T).max() < 1e-12
    Af, _ = system075.restrict()
    vals = dla.eigvalsh(Af.toarray())
    assert vals[0] > 0.0          # SPD once boundary values are imposed
    assert dla.eigvalsh(Mw.toarray())[0] > 0.0


def csr_sha256(m):
    m = m.tocsr()
    return hashlib.sha256(m.indptr.tobytes() + m.indices.tobytes()
                          + m.data.tobytes()).hexdigest()


# sha256 of indptr, indices and data, recorded from the per-function
# quadrature code that each form rebuilt for itself
GOLDEN_FORMS = {
    "A": "21beb83866fe0780300df89b69804c02736b3179fad8be3f99134bb67cbf004e",
    "B": "21158fc4c1c09d227e8bdf3fcfaeda752597c6c1e7fb4bd9ba89538a723afcbe",
    "Mw": "29f9c7a2d665da2e6a58ce79272b2d60f2daa4fc04dbb5a97923296a7bff9a71",
    "E": "342d49024298a42e6366b7f4daef1d8467c45bc1d29a9d74ea907528850eb34e",
    "S": "455535106da6731cba49d17199d52c89cb9f48f4182cecd8bf5cff874ae5b91d",
}


def test_golden_form_bytes(mesh075):
    system = assemble(mesh075, 0.75)
    quad = fem.MeshQuadrature(mesh075)
    got = {
        "A": system.A, "B": system.B, "Mw": system.Mw,
        # Korn at (alpha, beta) = (0.75, 0.5): eps weight d^(2(alpha - beta))
        "E": fem._assemble_eps(quad, quad.weight(0.5)),
        # Poincare at (0.75, 0.75): stiffness weight d^(2(1 + alpha - beta))
        "S": fem._assemble_p2(quad, quad.weight(2.0), "stiffness"),
    }
    assert {k: csr_sha256(m) for k, m in got.items()} == GOLDEN_FORMS


def bit_equal(a, b):
    return np.array_equal(a, b) and \
        np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("alpha,h,refined", [(1.0, 0.05, True),
                                             (0.6, 0.2, False)])
def test_quadrature_kernels_match_einsum(alpha, h, refined, monkeypatch):
    # the einsum formulas the kernels replace, on meshes outside the golden
    # set; equal to the bit, signs of zero included
    mesh = generate_graded_mesh(CuspDomain(alpha), h)
    mesh = refine(mesh) if refined else mesh
    quad = fem.MeshQuadrature(mesh)
    p = mesh.vertices[mesh.triangles]
    J = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]], axis=2)
    assert bit_equal(quad.pts, p[:, None, 0, :]
                     + np.einsum("tij,qj->tqi", J, fem._QL[:, 1:]))
    G = np.einsum("tij,qnj->tqni", quad._invJT, fem._P2_G)
    assert bit_equal(quad.grads, G)
    gx, gy = G[..., 0], G[..., 1]
    locals_ = []
    # 0 in place of the matrix: _assemble_div adds its two blocks
    monkeypatch.setattr(
        fem, "_scatter",
        lambda rows, cols, local, shape: locals_.append(local) or 0)
    for e in (0.0, 0.5, 2.0 * alpha - 2.0):
        w = quad.wq * quad.weight(e)
        fem._assemble_p2(quad, quad.weight(e), "stiffness")
        assert bit_equal(locals_.pop(),
                         np.einsum("tq,tqmi,tqni->tmn", w, G, G))
        fem._assemble_eps(quad, quad.weight(e))
        xx = np.einsum("tq,tqm,tqn->tmn", w, gx, gx) \
            + 0.5 * np.einsum("tq,tqm,tqn->tmn", w, gy, gy)
        yy = np.einsum("tq,tqm,tqn->tmn", w, gy, gy) \
            + 0.5 * np.einsum("tq,tqm,tqn->tmn", w, gx, gx)
        xy = 0.5 * np.einsum("tq,tqm,tqn->tmn", w, gy, gx)
        assert bit_equal(locals_.pop(), np.concatenate(
            [xx, yy, xy, xy.transpose(0, 2, 1)]))
        fem._assemble_p2(quad, quad.weight(e), "mass")
        assert bit_equal(locals_.pop(), np.einsum(
            "tq,qm,qn->tmn", w, fem._P2_N, fem._P2_N))
        fem._assemble_p1_mass(quad, quad.weight(e))
        assert bit_equal(locals_.pop(), np.einsum(
            "tq,qm,qn->tmn", w, fem._P1_N, fem._P1_N))
        fem._assemble_div(quad, quad.weight(e))
        by, bx = locals_.pop(), locals_.pop()
        for got, gi in ((bx, G[..., :1]), (by, G[..., 1:])):
            assert bit_equal(got, np.einsum(
                "tq,qm,tqni->tmni", w, fem._P1_N, gi)[..., 0])


def count_distance_calls(monkeypatch):
    calls = []
    distance = geometry.distance

    def counted(domain, pts):
        calls.append(len(np.atleast_2d(pts)))
        return distance(domain, pts)

    monkeypatch.setattr(geometry, "distance", counted)
    return calls


def test_one_distance_evaluation_per_mesh_quadrature(mesh075, monkeypatch):
    ball = default_ball(0.75)
    calls = count_distance_calls(monkeypatch)
    system = assemble(mesh075, 0.75)
    assert len(calls) == 1
    # solves on the system reuse its quadrature and distance
    solve_div_right_inverse(mesh075, 0.75, lambda p: p[:, 0], system=system)
    assert len(calls) == 1
    for estimate in (korn_best_constant, improved_poincare_constant):
        calls.clear()
        estimate(mesh075, 0.75, 0.5, ball=ball)
        assert calls == [7 * mesh075.num_triangles]


def test_rigid_rotation_has_zero_strain(mesh075):
    # u = (-y, x) is linear, so its P2 interpolant is exact and eps(u) = 0
    quad = fem.MeshQuadrature(mesh075)
    xy = quad.space.dof_coords()
    coeffs = np.concatenate([-xy[:, 1], xy[:, 0]])
    E = fem._assemble_eps(quad, quad.weight(0.0))
    energy = float(coeffs @ (E @ coeffs))
    scale = float(coeffs @ coeffs)
    assert abs(energy) < 1e-12 * scale


def test_constant_field_h1_norm(mesh075):
    quad = fem.MeshQuadrature(mesh075)
    n = quad.space.n_dofs
    norm = fem.field_h1_norm(quad, np.concatenate([np.ones(n), np.zeros(n)]))
    assert norm == pytest.approx(math.sqrt(mesh_area(mesh075)), rel=1e-12)


def test_div_right_inverse_constraint_and_optimality(mesh075, system075):
    f = lambda p: p[:, 0]
    u, info = solve_div_right_inverse(mesh075, 0.75, f, system=system075)
    assert info["constraint_residual"] < 1e-10
    assert info["h1_norm"] > 1e-3
    # stationarity of the Lagrangian in u: A u + B' lambda = 0 on free dofs
    Af, Bf = system075.restrict()
    uf = u.coeffs[system075.free]
    grad = Af @ uf + Bf.T @ info["multiplier"]
    assert np.linalg.norm(grad) < 1e-8 * np.linalg.norm(Af @ uf)


def test_div_right_inverse_of_weighted_constant_is_zero(mesh075, system075):
    # a constant source is exactly the deflated direction: the weighted-mean
    # correction absorbs it and the minimal-energy velocity vanishes
    f = lambda p: np.ones(len(p))
    u, info = solve_div_right_inverse(mesh075, 0.75, f, system=system075)
    assert info["h1_norm"] < 1e-10
    assert info["weighted_mean_correction"] == pytest.approx(1.0, abs=1e-10)


def test_bordered_solve_weight_scaling_invariance(system075):
    # scaling the constraint rows (B, Mw -> cB, cMw) must leave u unchanged
    # and scale the pressure multiplier by 1/c
    Af, Bf = system075.restrict()
    nv = system075.mesh.num_vertices
    c_vec = np.asarray(system075.Mw @ np.ones(nv))
    rng = np.random.default_rng(2)
    g = rng.standard_normal(nv)
    g -= c_vec * (c_vec @ g) / (c_vec @ c_vec)
    u1, q1, _ = fem._bordered_solver(Af, Bf, c_vec)(np.zeros(Af.shape[0]), g)
    s = 7.5
    u2, q2, _ = fem._bordered_solver(Af, s * Bf, s * c_vec)(
        np.zeros(Af.shape[0]), s * g)
    assert np.allclose(u1, u2, atol=1e-10 * max(np.linalg.norm(u1), 1.0))
    assert np.allclose(q1, s * q2, atol=1e-10 * max(np.linalg.norm(q1), 1.0))


def record_lu(monkeypatch):
    """(matrix, LU) of every factorization in fem, through fem.splu."""
    factored = []
    fem_splu = fem.splu

    def recorded(A, **kw):
        lu = fem_splu(A, **kw)
        factored.append((A, lu))
        return lu

    monkeypatch.setattr(fem, "splu", recorded)
    return factored


def lu_fill(lu):
    return lu.L.nnz + lu.U.nnz


def relative_error(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


def check_bordered_solve(system, rng):
    """The bordered solve against a default (COLAMD, partial pivoting) LU of
    the bordered matrix in its own dof order, which it returns."""
    Af, Bf = system.restrict()
    c = sparse.csc_matrix(system.c.reshape(-1, 1))
    oracle = splu(sparse.bmat([[Af, Bf.T, None], [Bf, None, c],
                               [None, c.T, None]], format="csc"))
    nu, npress = Bf.shape[1], Bf.shape[0]
    rhs = np.append(rng.standard_normal(nu + npress), 0.0)
    u, q, mu = system.bordered_solve(rhs[:nu], rhs[nu:-1])
    assert relative_error(np.concatenate([u, q, [mu]]),
                          oracle.solve(rhs)) <= 1e-10
    return oracle


# h, largest saddle fill as a fraction of COLAMD's (0.70 and 0.41 measured)
@pytest.mark.parametrize("h, saddle_fill", [(0.25, 1.0), (0.1, 0.45)])
def test_lu_orders_agree_with_colamd(h, saddle_fill, monkeypatch):
    mesh = generate_graded_mesh(CuspDomain(0.75), h)
    factored = record_lu(monkeypatch)
    rng = np.random.default_rng(3)
    oracle = check_bordered_solve(assemble(mesh, 0.75), rng)
    assert len(factored) == 1
    assert lu_fill(factored[0][1]) <= saddle_fill * lu_fill(oracle)
    # Korn and Poincare: the factored matrix against its default-order LU
    korn_best_constant(mesh, 0.75, 0.75)
    improved_poincare_constant(mesh, 0.75, 0.75)
    assert len(factored) == 3
    for A, lu in factored[1:]:
        oracle = splu(A)
        b = rng.standard_normal(A.shape[0])
        assert relative_error(lu.solve(b), oracle.solve(b)) <= 1e-10
        assert lu_fill(lu) <= lu_fill(oracle)


# (mesh alpha, h, weight alpha): the unweighted B of (0.75, 0.3, 1.0) needs
# the off-diagonal pivots a zero pivot threshold refuses (backward error
# 3.5e-4 at threshold 0); alpha 0.5 is left out, its h = 0.1 saddle has
# 15M fill
@pytest.mark.parametrize("mesh_alpha, h, alpha", [
    (0.75, 0.3, 1.0), (0.75, 0.3, 0.55), (0.75, 0.1, 0.75), (1.0, 0.3, 1.0),
])
def test_bordered_solver_matches_partial_pivoting(mesh_alpha, h, alpha):
    mesh = generate_graded_mesh(CuspDomain(mesh_alpha), h)
    system = assemble(mesh, alpha)
    rng = np.random.default_rng(11)
    for _ in range(2):
        check_bordered_solve(system, rng)


def test_inaccurate_factors_raise(mesh075, tmp_path, capsys, monkeypatch):
    # factors of A + 1e-6 max|A| I: the probe solve of _factor must reject
    # them before any caller solves with them
    splu_ = fem.splu

    def perturbed(A, **kw):
        shift = 1e-6 * abs(A).max() * sparse.identity(A.shape[0],
                                                        format="csc")
        return splu_((A + shift).tocsc(), **kw)

    monkeypatch.setattr(fem, "splu", perturbed)
    for estimate in (korn_best_constant, improved_poincare_constant):
        with pytest.raises(RuntimeError, match="backward error"):
            estimate(mesh075, 0.75, 0.75)
    with pytest.raises(RuntimeError, match="backward error"):
        discrete_infsup(mesh075, 0.75)
    assert cli.main(["stokes", "--alpha", "0.75", "--h", "0.25",
                     "--outdir", str(tmp_path)]) == 1
    assert "error: sparse LU inaccurate" in capsys.readouterr().err
    assert not (tmp_path / "stokes_summary.json").exists()


def dense_infsup_oracle(system):
    """Schur-complement inf-sup via an SVD projector (independent path)."""
    Af, Bf = system.restrict()
    A = Af.toarray()
    B = Bf.toarray()
    Mw = system.Mw.toarray()
    S = B @ np.linalg.solve(A, B.T)
    S = 0.5 * (S + S.T)
    c = Mw @ np.ones(len(Mw))
    P = np.eye(len(c)) - np.outer(c, c) / (c @ c)
    U, s, _ = np.linalg.svd(P)
    T = U[:, : len(c) - 1]
    vals = dla.eigh(T.T @ S @ T, T.T @ Mw @ T, eigvals_only=True)
    return math.sqrt(vals[0])


def test_discrete_infsup_matches_dense_oracle(mesh075, system075):
    got = discrete_infsup(mesh075, 0.75, system=system075)
    ref = dense_infsup_oracle(system075)
    assert got == pytest.approx(ref, rel=1e-8)
    assert 0.0 < got < 1.5


def test_stokes_identities(mesh075, system075):
    f = lambda p: np.column_stack([np.ones(len(p)), p[:, 0]])
    u, q, info = solve_stokes(mesh075, 0.75, f, system=system075)
    assert info["energy"] > 0.0
    assert info["energy_identity_defect"] < 1e-10
    assert info["div_residual"] < 1e-10
    # the deflation enforces zero weighted mean of q
    c = np.asarray(system075.Mw @ np.ones(mesh075.num_vertices))
    assert abs(c @ q.coeffs) < 1e-10 * max(np.linalg.norm(q.coeffs), 1e-30)


def test_pressure_lr_norm_unit_weight_case():
    # at alpha = 1 the weight power vanishes: ||q||_r of q = 1 is area^(1/r)
    mesh = generate_graded_mesh(CuspDomain(1.0), 0.25)
    q = np.ones(mesh.num_vertices)
    out = pressure_lr_norm(mesh, 1.0, q, 1.5)
    assert out["norm"] == pytest.approx(mesh_area(mesh) ** (1.0 / 1.5),
                                        rel=1e-12)
    assert out["slack"] >= -1e-12


def test_pressure_lr_norm_rejects_out_of_range_r(mesh075):
    q = np.ones(mesh075.num_vertices)
    # 2/(3 - 2 alpha) = 4/3 at alpha = 0.75
    with pytest.raises(ValueError):
        pressure_lr_norm(mesh075, 0.75, q, 1.34)
    with pytest.raises(ValueError):
        pressure_lr_norm(mesh075, 0.75, q, 0.9)


def test_korn_constant_finite_with_residual(mesh075):
    est = korn_best_constant(mesh075, 0.75, 0.75)
    assert est.constant > 1.0       # ||Du|| exceeds ||eps(u)|| for rotations
    assert est.constant < 50.0
    assert est.residual < 1e-8
    assert est.params["beta"] == 0.75


def test_poincare_constant_finite_with_residual(mesh075):
    est = improved_poincare_constant(mesh075, 0.75, 0.75)
    assert 0.0 < est.constant < 50.0
    assert est.residual < 1e-8


def test_korn_constant_matches_dense_oracle(mesh075):
    alpha = beta = 0.75
    quad = fem.MeshQuadrature(mesh075)
    ball = default_ball(alpha)
    K = fem._assemble_p2(quad, quad.weight(2.0 * (1.0 - beta)),
                         "stiffness").toarray()
    Mb = fem._assemble_p2(quad, fem._ball_indicator(quad.pts, ball),
                          "mass").toarray()
    E = fem._assemble_eps(quad, quad.weight(2.0 * (alpha - beta))).toarray()
    G, MB = dla.block_diag(K, K), dla.block_diag(Mb, Mb)
    ref = math.sqrt(dla.eigh(G, E + MB, eigvals_only=True)[-1])
    got = korn_best_constant(mesh075, alpha, beta).constant
    assert got == pytest.approx(ref, rel=1e-10)


def test_poincare_constant_matches_dense_oracle(mesh075):
    alpha = beta = 0.75
    quad = fem.MeshQuadrature(mesh075)
    sp = quad.space
    (cx, cy), r = default_ball(alpha)
    M = fem._assemble_p2(quad, quad.weight(2.0 * (1.0 - beta)),
                         "mass").toarray()
    S = fem._assemble_p2(quad, quad.weight(2.0 * (1.0 + alpha - beta)),
                         "stiffness").toarray()
    bump = np.maximum(0.0, 1.0 - np.hypot(quad.pts[..., 0] - cx,
                                          quad.pts[..., 1] - cy) / r)
    c = np.zeros(sp.n_dofs)
    np.add.at(c, sp.tri_dofs.ravel(),
              np.einsum("tq,qm->tm", quad.wq * bump, fem._P2_N).ravel())
    # orthonormal basis of {x : c.x = 0} from an SVD of the projector
    U, _, _ = np.linalg.svd(np.eye(len(c)) - np.outer(c, c) / (c @ c))
    T = U[:, : len(c) - 1]
    ref = math.sqrt(dla.eigh(T.T @ M @ T, T.T @ S @ T, eigvals_only=True)[-1])
    got = improved_poincare_constant(mesh075, alpha, beta).constant
    assert got == pytest.approx(ref, rel=1e-10)


def test_unconverged_eigensolve_raises(mesh075, tmp_path, monkeypatch):
    # one restart of the default 20-vector Lanczos basis already converges
    # these well-separated problems, so the basis is cut to 3 vectors as well
    eigsh = fem.eigsh
    monkeypatch.setattr(fem, "eigsh", lambda *a, **kw: eigsh(
        *a, **{**kw, "maxiter": 1, "ncv": 3}))
    for estimate in (korn_best_constant, improved_poincare_constant):
        with pytest.raises(RuntimeError):
            estimate(mesh075, 0.75, 0.75)
    with pytest.raises(RuntimeError):
        discrete_infsup(mesh075, 0.75)
    assert cli.main(["poincare-sweep", "--alpha", "0.75", "--levels", "1",
                     "--h", "0.25", "--outdir", str(tmp_path)]) == 1


def test_inaccurate_eigenvector_raises(mesh075, monkeypatch):
    # the residual check of _min_eig, not ARPACK, must reject this vector
    eigsh = fem.eigsh

    def perturbed(*a, **kw):
        vals, vecs = eigsh(*a, **kw)
        return vals, vecs + 1e-6 * np.linalg.norm(vecs)

    monkeypatch.setattr(fem, "eigsh", perturbed)
    with pytest.raises(RuntimeError, match="not converged"):
        improved_poincare_constant(mesh075, 0.75, 0.75)


def test_default_ball_inside_domain():
    for alpha in (0.6, 0.75, 1.0):
        (cx, cy), r = default_ball(alpha)
        dom = CuspDomain(alpha)
        from cuspdiv import geometry
        assert r < geometry.distance(dom, np.array([cx, cy]))
