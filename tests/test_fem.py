import dataclasses
import gc
import hashlib
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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


def test_gradient_operands_are_views_contiguous_in_the_triangle_index():
    # _weighted_products reads grads[:, q].T and its i-slices without a copy
    mesh = generate_graded_mesh(CuspDomain(0.75), 0.25)
    grads = fem.MeshQuadrature(mesh).grads
    assert grads.shape == (mesh.num_triangles, 7, 6, 2)
    for g in (grads, grads[..., :1], grads[..., 1:]):
        for q in range(7):
            assert g[:, q].T.flags.c_contiguous


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_scatter_matches_the_coo_sum_of_int64_indices(data):
    # repeated dofs and +-0.0 entries: the CSR bytes, the signs of zeros and
    # the index dtype equal those of the COO -> CSR conversion of the same
    # entries at int64 indices
    nt, m, n = (data.draw(st.integers(1, k)) for k in (12, 6, 6))
    nr, nc = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rdofs = rng.integers(0, nr, (nt, m))
    cdofs = rng.integers(0, nc, (nt, n))
    local = rng.choice([-0.0, 0.0, 1.0, -1.0], (nt, m, n)) \
        * rng.standard_normal((nt, m, n)) ** data.draw(st.sampled_from([0, 1]))
    if data.draw(st.booleans()):
        # the (nt, m, n) view of an (m, n, nt) array, as _weighted_products
        # returns it
        local = np.ascontiguousarray(local.transpose(1, 2, 0)).transpose(
            2, 0, 1)
    got = fem._scatter(rdofs, cdofs, local, (nr, nc))
    ref = sparse.coo_matrix(
        (local.ravel(), (np.repeat(rdofs, n, axis=1).ravel(),
                         np.tile(cdofs, (1, m)).ravel())),
        shape=(nr, nc)).tocsr()
    for a, b in ((got.indptr, ref.indptr), (got.indices, ref.indices)):
        assert a.dtype == b.dtype == np.int32
        assert a.tobytes() == b.tobytes()
    assert got.data.tobytes() == ref.data.tobytes()


def count_distance_calls(monkeypatch):
    calls = []
    distance = geometry.distance

    def counted(domain, pts):
        calls.append(len(np.atleast_2d(pts)))
        return distance(domain, pts)

    monkeypatch.setattr(geometry, "distance", counted)
    return calls


def test_one_distance_evaluation_per_mesh_quadrature(monkeypatch):
    # a fresh mesh: no fixture holds a quadrature of it
    mesh = generate_graded_mesh(CuspDomain(0.75), 0.25)
    nodes = 7 * mesh.num_triangles
    calls = count_distance_calls(monkeypatch)
    system = assemble(mesh, 0.75)
    assert calls == [nodes]
    # every later call on the mesh reuses the system's quadrature, and with
    # it the distance at its nodes
    solve_div_right_inverse(mesh, 0.75, lambda p: p[:, 0], system=system)
    _, q, _ = solve_stokes(mesh, 0.75, lambda p: np.ones((len(p), 2)),
                           system=system)
    discrete_infsup(mesh, 0.75, system=system)
    pressure_lr_norm(mesh, 0.75, q.coeffs, 1.3)
    # Korn and Poincare each add the one point that places the mesh's ball
    korn_best_constant(mesh, 0.75, 0.5)
    improved_poincare_constant(mesh, 0.75, 0.5)
    assert calls == [nodes, 1, 1]
    # with the system gone, Korn builds its own quadrature again
    del system
    gc.collect()
    korn_best_constant(mesh, 0.75, 0.5)
    assert calls == [nodes, 1, 1, nodes, 1]


def test_shared_quadrature_gives_bit_identical_results():
    mesh = generate_graded_mesh(CuspDomain(0.75), 0.25)
    q = np.random.default_rng(5).standard_normal(mesh.num_vertices)

    def results():
        return (korn_best_constant(mesh, 0.75, 0.5),
                improved_poincare_constant(mesh, 0.75, 0.5),
                pressure_lr_norm(mesh, 0.75, q, 1.3))

    alone = results()              # each call on a quadrature of its own
    system = assemble(mesh, 0.75)
    assert results() == alone      # all on the system's
    assert fem._quadrature(mesh) is system.quad


def test_quadrature_lives_as_long_as_its_holders():
    mesh = generate_graded_mesh(CuspDomain(0.75), 0.25)
    system = assemble(mesh, 0.75)
    quad = weakref.ref(system.quad)
    korn_best_constant(mesh, 0.75, 0.75)
    assert fem._quadrature(mesh) is quad()
    # no reference cycle keeps it: it goes with its last holder
    del system
    assert quad() is None
    # one made for a call alone goes when the call returns
    korn_best_constant(mesh, 0.75, 0.75)
    assert id(mesh) not in fem._QUADRATURES


def test_mesh_order_is_minimum_degree_on_the_p2_mass(mesh075):
    # the incomplete LU that reads the order gives the full LU's perm_c
    quad = fem.MeshQuadrature(mesh075)
    M = fem._assemble_p2(quad, quad.weight(0.0), "mass").tocsc()
    lu = splu(M, permc_spec="MMD_AT_PLUS_A")
    assert np.array_equal(quad.order, np.argsort(lu.perm_c))


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
    nv = system075.mesh.num_vertices
    c_vec = system075.c
    rng = np.random.default_rng(2)
    g = rng.standard_normal(nv)
    g -= c_vec * (c_vec @ g) / (c_vec @ c_vec)
    s = 7.5
    scaled = dataclasses.replace(system075, B=s * system075.B,
                                 Mw=s * system075.Mw, c=s * c_vec)
    zero_u = np.zeros(len(system075.free))
    u1, q1, _ = system075.bordered_solve(zero_u, g)
    u2, q2, _ = scaled.bordered_solve(zero_u, s * g)
    assert np.allclose(u1, u2, atol=1e-10 * max(np.linalg.norm(u1), 1.0))
    assert np.allclose(q1, s * q2, atol=1e-10 * max(np.linalg.norm(q1), 1.0))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 30), density=st.floats(0.0, 0.5),
       seed=st.integers(0, 2**32 - 1))
def test_bordered_solve_on_random_spd_matrices(n, density, seed):
    # a random sparse SPD A, a border c that may hold zeros (not only
    # zeros) and a random elimination order, against a dense solve
    rng = np.random.default_rng(seed)
    R = (rng.random((n, n)) < density) * rng.standard_normal((n, n))
    A = R @ R.T + np.eye(n)
    c = (rng.random(n) < 0.5) * rng.standard_normal(n)
    c[rng.integers(n)] = 1.0 + rng.random()
    rhs = rng.standard_normal(n)
    x, m = fem._bordered(sparse.csr_matrix(A), c, rng.permutation(n))(rhs)
    ref = np.linalg.solve(np.block([[A, c[:, None]], [c[None, :], 0.0]]),
                          np.append(rhs, 0.0))
    assert np.allclose(np.append(x, m), ref, rtol=0.0,
                       atol=1e-10 * np.abs(ref).max())
    assert np.abs(A @ x + c * m - rhs).max() <= 1e-10 * np.abs(rhs).max()
    assert abs(c @ x) <= 1e-10 * np.abs(c).sum() * np.abs(ref).max()


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


# h, largest saddle fill as a fraction of COLAMD's (0.65 and 0.26 measured)
@pytest.mark.parametrize("h, saddle_fill", [(0.25, 1.0), (0.1, 0.30)])
def test_lu_orders_agree_with_colamd(h, saddle_fill, monkeypatch):
    mesh = generate_graded_mesh(CuspDomain(0.75), h)
    factored = record_lu(monkeypatch)
    rng = np.random.default_rng(3)
    oracle = check_bordered_solve(assemble(mesh, 0.75), rng)
    # the saddle alone: its order comes from the mesh, not from an LU
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


def check_saddle_order(seq, Bf):
    """_saddle_order is a permutation of the saddle unknowns (u, q), with no
    border, that eliminates the free scalar dofs in the sequence seq, puts
    the two components of each dof next to each other and every pressure
    after all its free velocity neighbours (after every velocity if it has
    none)."""
    nf, npress = len(seq), Bf.shape[0]
    nu = 2 * nf
    perm = fem._saddle_order(seq, Bf)
    assert np.array_equal(np.sort(perm), np.arange(nu + npress))
    pos = np.argsort(perm)
    assert np.all(np.diff(pos[seq]) > 0)
    assert np.array_equal(pos[nf:nu], pos[:nf] + 1)
    Bf = Bf.tocsr()
    for q in range(npress):
        nbrs = Bf.indices[Bf.indptr[q]:Bf.indptr[q + 1]]
        assert pos[nu + q] > pos[nbrs if len(nbrs) else np.arange(nu)].max()


def test_saddle_order_on_a_taylor_hood_system(mesh075, monkeypatch):
    # the sequence the system passes: the mesh order on the free dofs
    orders = []
    saddle_order = fem._saddle_order
    monkeypatch.setattr(fem, "_saddle_order", lambda seq, Bf: orders.append(
        (seq, Bf)) or saddle_order(seq, Bf))
    system = assemble(mesh075, 0.75)
    system.bordered_solve(np.zeros(len(system.free)),
                          np.zeros(mesh075.num_vertices))
    (seq, Bf), = orders
    scalar = system.free[:len(seq)]
    assert np.all(np.diff(np.argsort(system.quad.order)[scalar[seq]]) > 0)
    check_saddle_order(seq, Bf)


@settings(max_examples=40, deadline=None)
@given(nf=st.integers(1, 40), npress=st.integers(1, 20),
       density=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
def test_saddle_order_on_random_patterns(nf, npress, density, seed):
    # a random sequence of the scalar dofs, and a random constraint pattern
    # that may leave pressures with no velocity neighbour
    rng = np.random.default_rng(seed)
    Bf = sparse.csr_matrix((rng.random((npress, 2 * nf)) < density)
                           * rng.standard_normal((npress, 2 * nf)))
    check_saddle_order(rng.permutation(nf), Bf)


# (mesh alpha, h, weight alpha): the unweighted B of (0.75, 0.3, 1.0) needs
# the off-diagonal pivots a zero pivot threshold refuses (backward error
# 1.8e-6 at threshold 0); alpha 0.5 is left out, the COLAMD oracle of its
# h = 0.1 saddle has 8-12M fill
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
        discrete_infsup(mesh075, 0.75, system=assemble(mesh075, 0.75))
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
    # the CLI's helper: the same constant, and the residual of its eigenpair
    value, resid = fem._infsup(system075)
    assert value == got
    assert 0.0 <= resid <= fem._EIG_TOL


def test_stokes_identities(mesh075, system075):
    f = lambda p: np.column_stack([np.ones(len(p)), p[:, 0]])
    u, q, info = solve_stokes(mesh075, 0.75, f, system=system075)
    assert info["energy"] > 0.0
    assert info["energy_identity_defect"] < 1e-10
    assert info["div_residual"] < 1e-10
    # the deflation enforces zero weighted mean of q
    c = np.asarray(system075.Mw @ np.ones(mesh075.num_vertices))
    assert abs(c @ q.coeffs) < 1e-10 * max(np.linalg.norm(q.coeffs), 1e-30)


@pytest.mark.parametrize("solve", [
    lambda m, a, s: solve_div_right_inverse(m, a, lambda p: p[:, 0], system=s),
    lambda m, a, s: discrete_infsup(m, a, system=s),
    lambda m, a, s: solve_stokes(
        m, a, lambda p: np.zeros((len(p), 2)), system=s),
], ids=["div", "infsup", "stokes"])
def test_solves_reject_a_system_of_another_mesh_or_alpha(mesh075, system075,
                                                          solve):
    # an equal copy of the mesh is another mesh: the system keeps its own
    copy = dataclasses.replace(mesh075)
    with pytest.raises(ValueError, match="assembled on another mesh"):
        solve(copy, 0.75, system075)
    with pytest.raises(ValueError, match="assembled for alpha 0.75, not 0.9"):
        solve(mesh075, 0.9, system075)


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


def test_eigensolves_stop_at_convergence(mesh075, monkeypatch):
    # solves per eigensolve, the start solve and the residual check
    # included; ARPACK's 20-vector basis took 33 for the inf-sup problem on
    # this mesh and 23 for Korn and Poincare
    counts = []
    min_eig = fem._min_eig

    def counted(solve, M):
        counts.append(0)

        def counted_solve(y):
            counts[-1] += 1
            return solve(y)

        return min_eig(counted_solve, M)

    monkeypatch.setattr(fem, "_min_eig", counted)
    discrete_infsup(mesh075, 0.75, system=assemble(mesh075, 0.75))
    korn_best_constant(mesh075, 0.75, 0.75)
    improved_poincare_constant(mesh075, 0.75, 0.75)
    infsup, korn, poincare = counts
    assert infsup <= 22
    assert korn <= 12
    assert poincare <= 18


def test_unconverged_eigensolve_raises(mesh075, tmp_path, monkeypatch):
    # each of these problems needs more than 3 Lanczos steps
    monkeypatch.setattr(fem, "_EIG_MAX_STEPS", 3)
    for estimate in (korn_best_constant, improved_poincare_constant):
        with pytest.raises(RuntimeError, match="not converged"):
            estimate(mesh075, 0.75, 0.75)
    with pytest.raises(RuntimeError, match="not converged"):
        discrete_infsup(mesh075, 0.75, system=assemble(mesh075, 0.75))
    assert cli.main(["poincare-sweep", "--alpha", "0.75", "--levels", "1",
                     "--h", "0.25", "--outdir", str(tmp_path)]) == 1


def test_inaccurate_eigenvector_raises(mesh075, monkeypatch):
    # a loose stop ends the Lanczos run early; the explicit residual check
    # of _min_eig, not the stop, must reject its vector
    monkeypatch.setattr(fem, "_STOP_TOL", 1e-2)
    with pytest.raises(RuntimeError, match="not converged: residual"):
        improved_poincare_constant(mesh075, 0.75, 0.75)


# ARPACK's improved-Poincare constants (alpha 0.5, beta 0.5, 0.75 and 1) on
# h = 0.2 meshes whose tip column approaches the cusp; there the weight
# d^(2(1 - beta)) of the mass is small, so a residual small in the M norm
# can be large in the Euclidean norm that _EIG_TOL bounds
_NEAR_TIP_POINCARE = {
    0.025: {0.5: 0.8910650258194183, 0.75: 1.0966870864155924,
            1.0: 1.439904196096484},
    0.00625: {0.5: 0.891065025820016, 0.75: 1.0966870864182723,
              1.0: 1.439904196099398},
}


@pytest.fixture(scope="module", params=sorted(_NEAR_TIP_POINCARE))
def near_tip_mesh(request):
    return request.param, generate_graded_mesh(CuspDomain(0.5), 0.2,
                                               x_tip=request.param)


@pytest.mark.parametrize("beta", [0.5, 0.75, 1.0])
def test_poincare_converges_near_the_tip(near_tip_mesh, beta, monkeypatch):
    x_tip, mesh = near_tip_mesh
    solves = 0
    min_eig = fem._min_eig

    def counted(solve, M):
        def counted_solve(y):
            nonlocal solves
            solves += 1
            return solve(y)

        return min_eig(counted_solve, M)

    monkeypatch.setattr(fem, "_min_eig", counted)
    est = improved_poincare_constant(mesh, 0.5, beta)
    assert est.constant == pytest.approx(_NEAR_TIP_POINCARE[x_tip][beta],
                                         rel=1e-10)
    assert est.residual <= fem._EIG_TOL
    assert solves <= 22


def test_default_ball_inside_domain():
    for alpha in (0.6, 0.75, 1.0):
        (cx, cy), r = default_ball(alpha)
        dom = CuspDomain(alpha)
        from cuspdiv import geometry
        assert r < geometry.distance(dom, np.array([cx, cy]))
