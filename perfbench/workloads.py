"""The benchmark's four pipelines, written against the public cuspdiv API.

Each workload has a seeded input draw (`inputs`) and a pipeline: a sequence
of stages (name, run, check).  `run` is timed and may read the outputs of
earlier stages; `check` is not timed and returns the list of failed
invariants.  A stage fails if `run` raises or `check` reports a problem.

The seed only draws inputs that leave the problem size unchanged (weight
exponents, force direction, source thresholds and profiles), so every seed
does the same amount of work.

REFERENCE holds values recorded from the code at the commit that added this
benchmark; floats must agree to REL_TOL, which leaves room for the
reduction-order noise of threaded BLAS (observed in the 13th digit).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from cuspdiv import (experiments, fem, geometry, mesh, potential, weights,
                     whitney)

WORKLOADS = ("ap-plan", "fem-ladder", "potential-blowup", "mesh-assembly")

REL_TOL = 1e-9

SIZES = {
    "full": {
        "ap-plan": {"kmax": 12, "resolution": 1024, "center_stride": 8},
        "fem-ladder": {"levels": (0.24, 0.1), "sources": 4},
        "potential-blowup": {"cells": 96, "grid": (20, 12), "s_points": 3,
                             "sweeps": ((0.5, 0.0, 2.0), (0.75, 0.0, 3.0),
                                        (0.5, -0.5, 2.0))},
        "mesh-assembly": {"coarse_h": 0.1, "fine_h": 0.05},
    },
    "small": {
        "ap-plan": {"kmax": 8, "resolution": 1024, "center_stride": 16},
        "fem-ladder": {"levels": (0.3, 0.1), "sources": 1},
        "potential-blowup": {"cells": 96, "grid": (8, 6), "s_points": 1,
                             "sweeps": ((0.5, -0.5, 2.0),)},
        "mesh-assembly": {"coarse_h": 0.2, "fine_h": 0.1},
    },
}

_SWEEP_T = {
    "TA_a0.5_b0_p2": 1.4999999999999978, "TB_a0.5_b0_p2": 2.4999999999999996,
    "TA_a0.75_b0_p3": 1.5555555555555556, "TB_a0.75_b0_p3": 1.888888888888882,
    "TA_a0.5_b-0.5_p2": 2.4999999999999916,
    "TB_a0.5_b-0.5_p2": 2.4999999999999996,
}

REFERENCE = {
    "full": {
        # ap-plan
        "cubes_a0.5": 72272, "cubes_a1": 71588, "plan_nodes": 813961,
        "ratio_mu1.25": 1204.077959815599,
        # fem-ladder
        "vertices_h0.24": 176, "vertices_h0.1": 1054,
        "infsup_h0.24": 0.6262312914216781, "infsup_h0.1": 0.6282414961527526,
        "korn_h0.24": 7.222889639986416, "korn_h0.1": 7.466353313111096,
        "poincare_h0.24": 1.7565789904086475,
        "poincare_h0.1": 1.7179780549335206,
        # potential-blowup
        **_SWEEP_T,
        # mesh-assembly
        "vertices_a0.5-coarse": 1863, "vertices_a0.5-fine": 7325,
        "vertices_a0.75-coarse": 1054, "vertices_a0.75-fine": 4058,
        "vertices_a1-coarse": 658, "vertices_a1-fine": 2791,
        "nnz_a0.75-fine": 390526, "nnz_a0.75-refined": 388709,
        "nnz_a1-fine": 264533, "nnz_a1-refined": 240485,
    },
    "small": {
        "cubes_a0.5": 4010, "cubes_a1": 4166, "plan_nodes": 447403,
        "ratio_mu1.25": 1204.077959815599,
        "vertices_h0.3": 114, "vertices_h0.1": 1054,
        "infsup_h0.3": 0.5424097854939763, "infsup_h0.1": 0.6282414961527526,
        "korn_h0.3": 7.457298600565854, "korn_h0.1": 7.466353313111096,
        "poincare_h0.3": 1.7782145208254592,
        "poincare_h0.1": 1.7179780549335206,
        **_SWEEP_T,
        "vertices_a0.5-coarse": 482, "vertices_a0.5-fine": 1863,
        "vertices_a0.75-coarse": 248, "vertices_a0.75-fine": 1054,
        "vertices_a1-coarse": 169, "vertices_a1-fine": 658,
        "nnz_a0.75-fine": 97930, "nnz_a0.75-refined": 86359,
        "nnz_a1-fine": 60646, "nnz_a1-refined": 55791,
    },
}


class Stage:
    def __init__(self, name, run, check=None):
        self.name = name
        self.run = run
        self.check = check or (lambda out: [])


def _close(label, value, ref, rtol=REL_TOL):
    """Problem text when value differs from ref by more than rtol."""
    if ref is None:
        return [f"{label}: no reference value"]
    if not math.isclose(value, ref, rel_tol=rtol, abs_tol=0.0):
        return [f"{label} = {value!r}, reference {ref!r} (rtol {rtol:g})"]
    return []


def _ref(size, key):
    return REFERENCE.get(size, {}).get(key)


def _check_mesh(m, ref):
    """Vertex count equal to the reference and the 15 degree minimum angle."""
    problems = []
    if m.num_vertices != ref:
        problems.append(f"{m.num_vertices} vertices, reference {ref}")
    if m.min_angle() < 15.0:
        problems.append(f"min angle {m.min_angle()} < 15")
    return problems


def inputs(workload, seed):
    """Seeded inputs of one workload; same seed, same inputs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "ap-plan":
        return {"mus": (0.0, float(rng.uniform(-0.7, -0.3)),
                        float(rng.uniform(0.3, 0.7)), 1.25)}
    if workload == "fem-ladder":
        # the smallest source must reach past the mesh's tip truncation
        # (x_tip = 0.0518 for alpha = 0.75 at every h used), or it is zero
        return {"force_angle": float(rng.uniform(0.0, 2.0 * math.pi)),
                "thresholds": tuple(float(t * rng.uniform(0.9, 1.1))
                                    for t in (0.4, 0.2, 0.1, 0.06))}
    if workload == "potential-blowup":
        return {"profile": float(rng.uniform(-0.5, 0.5))}
    if workload == "mesh-assembly":
        # exponent alpha of the assembly weight d^(2 alpha - 2), alpha > 1/2
        return {"weight_alpha": float(rng.uniform(0.55, 1.0))}
    raise ValueError(f"unknown workload {workload!r}")


def pipeline(workload, inp, size="full", workdir=Path(".")):
    """Stages of one workload; outputs of earlier stages live in `out`."""
    cfg = SIZES[size][workload]
    build = {"ap-plan": _ap_plan, "fem-ladder": _fem_ladder,
             "potential-blowup": _potential_blowup,
             "mesh-assembly": _mesh_assembly}[workload]
    return build(cfg, inp, size, workdir)


# ---------------------------------------------------------------------------
# ap-plan: Whitney cubes, one A_p ball plan reused for four exponents
# ---------------------------------------------------------------------------

def _ap_plan(cfg, inp, size, workdir):
    out = {}
    stages = []
    for alpha in (0.5, 1.0):
        dom = geometry.CuspDomain(alpha)

        def run(dom=dom):
            return whitney.decompose(lambda p: geometry.distance(dom, p),
                                     whitney.default_box(), cfg["kmax"])

        def check(dec, alpha=alpha):
            ref = _ref(size, f"cubes_a{alpha:g}")
            if len(dec.cubes) != ref:
                return [f"{len(dec.cubes)} cubes, reference {ref}"]
            return []

        stages.append(Stage(f"whitney-a{alpha:g}", run, check))

    dom = geometry.CuspDomain(0.5)
    sampling = weights.default_sampling(0.5)
    stride = cfg["center_stride"]
    sampling["boundary_centers"] = sampling["boundary_centers"][::stride]
    sampling["interior_centers"] = sampling["interior_centers"][::stride]
    sampling["resolution"] = cfg["resolution"]

    def build_plan():
        out["plan"] = weights.build_ball_plan(dom, sampling)
        return out["plan"]

    def check_plan(plan):
        nodes = sum(len(b["d"]) for b in plan["balls"])
        problems = []
        if nodes != _ref(size, "plan_nodes"):
            problems.append(f"{nodes} plan nodes, reference "
                            f"{_ref(size, 'plan_nodes')}")
        if not all(np.all(b["d"] > 0.0) for b in plan["balls"]):
            problems.append("non-positive node distance")
        return problems

    stages.append(Stage("plan", build_plan, check_plan))

    for mu in inp["mus"]:
        def run(mu=mu):
            return weights.estimate_ap_constant(dom, weights.WeightSpec(mu),
                                                2.0, plan=out["plan"])

        def check(est, mu=mu):
            if mu == 0.0:
                return _close("unit-weight ratio", est.value, 1.0, 1e-12)
            if mu == 1.25:
                problems = _close("ratio mu=1.25", est.value,
                                  _ref(size, "ratio_mu1.25"))
                if est.trend < 2.0:
                    problems.append(f"trend {est.trend} < 2 for mu=1.25")
                return problems
            if not est.admissible_flat():
                return [f"trend {est.trend} not flat for mu={mu}"]
            return []

        stages.append(Stage(f"ap-mu{mu:+.3f}", run, check))
    return stages


# ---------------------------------------------------------------------------
# fem-ladder: Stokes, inf-sup, divergence right inverse and Korn/Poincare
# constants on a refinement ladder
# ---------------------------------------------------------------------------

def _fem_ladder(cfg, inp, size, workdir):
    alpha = 0.75
    dom = geometry.CuspDomain(alpha)
    theta = inp["force_angle"]
    force = np.array([math.cos(theta), math.sin(theta)])
    r = 1.3                      # below the pressure integrability limit 4/3
    out = {}
    stages = []
    for lvl, h in enumerate(cfg["levels"]):
        tag = f"h{h:g}"

        def make_mesh(h=h, tag=tag):
            out[tag] = mesh.generate_graded_mesh(dom, h)
            return out[tag]

        def assemble(tag=tag):
            out[tag + "sys"] = fem.assemble(out[tag], alpha)
            return out[tag + "sys"]

        def stokes(tag=tag):
            def f(pts):
                return np.tile(force, (len(pts), 1))

            _, q, info = fem.solve_stokes(out[tag], alpha, f,
                                          system=out[tag + "sys"])
            lr = fem.pressure_lr_norm(out[tag], alpha, q.coeffs, r)
            return info, lr

        def check_stokes(res):
            info, lr = res
            problems = []
            for key in ("div_residual", "energy_identity_defect"):
                if not info[key] <= 1e-10:
                    problems.append(f"{key} {info[key]:.3e} > 1e-10")
            if not lr["norm"] <= lr["bound"] + 1e-12:
                problems.append(f"||p||_{r} = {lr['norm']} above its "
                                f"bound {lr['bound']}")
            return problems

        def infsup(tag=tag):
            return fem.discrete_infsup(out[tag], alpha,
                                       system=out[tag + "sys"])

        stages += [
            Stage(f"mesh-{tag}", make_mesh,
                  lambda m, tag=tag: _check_mesh(
                      m, _ref(size, f"vertices_{tag}"))),
            Stage(f"assemble-{tag}", assemble),
            Stage(f"stokes-{tag}", stokes, check_stokes),
            Stage(f"infsup-{tag}", infsup,
                  lambda v, tag=tag: _close(f"inf-sup {tag}", v,
                                            _ref(size, f"infsup_{tag}"))),
        ]
        for t in inp["thresholds"][:cfg["sources"]]:
            def div_inverse(t=t, tag=tag):
                def f(pts):
                    return (pts[:, 0] < t).astype(float)

                return fem.solve_div_right_inverse(
                    out[tag], alpha, f, system=out[tag + "sys"])[1]

            def check_div(info):
                problems = []
                if not info["constraint_residual"] <= 1e-8:
                    problems.append(f"constraint residual "
                                    f"{info['constraint_residual']:.3e}")
                if not (math.isfinite(info["h1_norm"])
                        and info["h1_norm"] > 0.0):
                    problems.append(f"h1 norm {info['h1_norm']}")
                return problems

            stages.append(Stage(f"div-inverse-{tag}-t{t:.4f}", div_inverse,
                                check_div))
        for which, fn in (("korn", "korn_best_constant"),
                          ("poincare", "improved_poincare_constant")):
            def const(fn=fn, tag=tag, lvl=lvl):
                return getattr(fem, fn)(out[tag], alpha, alpha, level=lvl)

            stages.append(Stage(
                f"{which}-{tag}", const,
                lambda est, which=which, tag=tag: _close(
                    f"{which} {tag}", est.constant,
                    _ref(size, f"{which}_{tag}"))))
    return stages


# ---------------------------------------------------------------------------
# potential-blowup: Newtonian-potential right inverse, then blow-up fits
# ---------------------------------------------------------------------------

def _potential_blowup(cfg, inp, size, workdir):
    alpha = 0.75
    dom = geometry.CuspDomain(alpha)
    c = inp["profile"]
    out = {}

    def f(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        inside = (pts[:, 0] < 0.2) & geometry.contains(dom, pts)
        return inside * (1.0 + c * pts[:, 1])

    def solve():
        src = potential.SourceField.from_function(f, cfg["cells"])
        out["sol"] = potential.newtonian_solve(src)
        probes = np.array([[0.9, 0.0], [0.55, 0.0], [0.3, 0.1]])
        return potential.divergence_residual(out["sol"], f, probes)

    def estimate():
        n_x, n_tau = cfg["grid"]
        grid = weights.tensor_grid(dom, n_x=n_x, n_tau=n_tau, x_min=1e-6,
                                   tau_min=1e-6)
        return potential.check_weighted_estimate(out["sol"], f, dom,
                                                 alpha - 1.0, 2.0, grid)

    stages = [
        Stage("newtonian-solve", solve,
              lambda res: [] if res <= 1e-4 else
              [f"divergence residual {res:.3e} > 1e-4"]),
        Stage("weighted-estimate", estimate,
              lambda ratio: [] if 0.0 < ratio < 10.0 else
              [f"weighted ratio {ratio} outside (0, 10)"]),
    ]
    for a, beta, p in cfg["sweeps"]:
        tag = f"a{a:g}_b{beta:g}_p{p:g}"

        def sweep(a=a, beta=beta, p=p):
            A = weights.fs_norm_closed_form(a, beta, p, 0.0)["A"]
            B = weights.ys_norm_closed_form(a, p, 0.0)["B"]
            s_grid = experiments.fit_grid(min(A, B), n=cfg["s_points"])
            return experiments.optimality_sweep(a, beta, p, s_grid)[1]

        def check(fits, tag=tag):
            problems = []
            for fam in ("A", "B"):
                exact = fits[f"{fam}_exact"]
                if abs(fits[fam].T - exact) > 0.01 * abs(exact):
                    problems.append(f"T_{fam} = {fits[fam].T} not within 1% "
                                    f"of {exact}")
                problems += _close(f"T_{fam} {tag}", fits[fam].T,
                                   _ref(size, f"T{fam}_{tag}"), 1e-7)
            return problems

        stages.append(Stage(f"sweep-{tag}", sweep, check))
    return stages


# ---------------------------------------------------------------------------
# mesh-assembly: graded meshes, refinement, file round trip, dof maps and
# weighted assembly, without solves
# ---------------------------------------------------------------------------

def _mesh_assembly(cfg, inp, size, workdir):
    out = {}
    stages = []
    for alpha in (0.5, 0.75, 1.0):
        dom = geometry.CuspDomain(alpha)
        for level in ("coarse", "fine"):
            tag = f"a{alpha:g}-{level}"

            def make(dom=dom, h=cfg[f"{level}_h"], tag=tag):
                out[tag] = mesh.generate_graded_mesh(dom, h)
                return out[tag]

            stages.append(Stage(
                f"mesh-{tag}", make, lambda m, tag=tag: _check_mesh(
                    m, _ref(size, f"vertices_{tag}"))))

        tag = f"a{alpha:g}-refined"

        def refined(alpha=alpha, tag=tag):
            out[tag] = mesh.refine(out[f"a{alpha:g}-coarse"])
            return out[tag]

        def check_refined(m, alpha=alpha):
            parent = out[f"a{alpha:g}-coarse"]
            expected = parent.num_vertices + len(parent.edges())
            if m.num_vertices != expected or \
                    m.num_triangles != 4 * parent.num_triangles:
                return [f"refined mesh has {m.num_vertices} vertices and "
                        f"{m.num_triangles} triangles"]
            return []

        stages.append(Stage(f"refine-a{alpha:g}", refined, check_refined))

        if alpha == 0.5:
            path = workdir / f"mesh-a{alpha:g}.txt"

            def round_trip(alpha=alpha, path=path):
                mesh.save_mesh(out[f"a{alpha:g}-fine"], path)
                return mesh.load_mesh(path)

            def check_round_trip(m, alpha=alpha):
                src = out[f"a{alpha:g}-fine"]
                same = (np.array_equal(m.vertices, src.vertices)
                        and np.array_equal(m.triangles, src.triangles)
                        and m.boundary_edges == src.boundary_edges
                        and (m.alpha, m.h, m.grading, m.x_tip)
                        == (src.alpha, src.h, src.grading, src.x_tip))
                return [] if same else ["mesh changed in the save/load "
                                        "round trip"]

            stages.append(Stage(f"round-trip-a{alpha:g}", round_trip,
                                check_round_trip))

        for level in ("fine", "refined"):
            tag = f"a{alpha:g}-{level}"

            def dofs(tag=tag):
                return fem.P2Space(out[tag])

            def check_dofs(space, tag=tag):
                m = out[tag]
                if space.n_dofs != m.num_vertices + len(m.edges()):
                    return [f"{space.n_dofs} P2 dofs"]
                return []

            stages.append(Stage(f"p2-{tag}", dofs, check_dofs))
            if alpha > 0.5:
                def assemble(tag=tag):
                    return fem.assemble(out[tag], inp["weight_alpha"])

                def check_system(system, tag=tag):
                    # the pattern of B depends on the weight through exact
                    # cancellations; those of A and Mw do not
                    nnz = system.A.nnz + system.Mw.nnz
                    if nnz != _ref(size, f"nnz_{tag}"):
                        return [f"{nnz} nonzeros, reference "
                                f"{_ref(size, f'nnz_{tag}')}"]
                    return []

                stages.append(Stage(f"assemble-{tag}", assemble,
                                    check_system))
    return stages
