"""Command-line entry point.

One subcommand per capability, a flat key=value config file with flag
overrides, and deterministic machine-readable outputs (CSV/JSON) plus a run
manifest recording the resolved configuration, library versions and wall
time.  Exit codes: 0 success, 1 numerical failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, experiments, fem, geometry, weights, whitney
from .mesh import generate_graded_mesh, load_mesh, refine, save_mesh

__all__ = ["RunConfig", "run", "main"]


@dataclass
class RunConfig:
    subcommand: str
    params: dict
    outdir: str = "."

    def to_dict(self):
        return {"subcommand": self.subcommand, "params": dict(self.params),
                "outdir": self.outdir}


def _read_config_file(path):
    """Flat key=value lines; '#' starts a comment."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not serializable: {type(o)}")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True,
                  default=_json_default)
        fh.write("\n")


def _write_csv(path, header, rows, manifest_name):
    with open(path, "w") as fh:
        fh.write(f"# manifest: {manifest_name}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return f"{v:.12g}"
    return str(v)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (summary dict, list of artifact names)
# ---------------------------------------------------------------------------


def _cmd_whitney(cfg, outdir, manifest_name):
    alpha = cfg.params["alpha"]
    kmax = int(cfg.params.get("kmax", 8))
    dom = geometry.CuspDomain(alpha)
    dec = whitney.decompose(lambda pts: geometry.distance(dom, pts),
                            whitney.default_box(), kmax)
    name = f"whitney_alpha{alpha:g}_k{kmax}.txt"
    whitney.save_decomposition(dec, str(Path(outdir) / name))
    ks, counts = np.unique(dec.cubes[:, 0], return_counts=True)
    gens = {str(k): n for k, n in zip(ks.tolist(), counts.tolist())}
    summary = {"alpha": alpha, "kmax": kmax, "cubes": len(dec.cubes),
               "per_generation": gens, "decomposition_file": name}
    return summary, [name]


def _cmd_ap_check(cfg, outdir, manifest_name):
    alpha = cfg.params["alpha"]
    mu = cfg.params["mu"]
    p = cfg.params.get("p", 2.0)
    resolution = int(cfg.params.get("resolution", 2048))
    dom = geometry.CuspDomain(alpha)
    sampling = weights.default_sampling(alpha)
    sampling["resolution"] = resolution
    est = weights.estimate_ap_constant(dom, weights.WeightSpec(mu), p,
                                       sampling=sampling)
    csv_name = f"ap_alpha{alpha:g}_mu{mu:g}_p{p:g}.csv"
    _write_csv(Path(outdir) / csv_name,
               ["center_x", "center_y", "radius", "ratio", "resolved"],
               [(r["center_x"], r["center_y"], r["radius"], r["ratio"],
                 r["resolved"]) for r in est.per_ball],
               manifest_name)
    summary = {"alpha": alpha, "mu": mu, "p": p,
               "resolution": resolution, "value": est.value,
               "trend_per_radius_decade": est.trend,
               "admissible_flat": est.admissible_flat(),
               "per_ball_file": csv_name}
    return summary, [csv_name]


def _load_or_generate_mesh(cfg, alpha):
    if "mesh" in cfg.params:
        mesh = load_mesh(cfg.params["mesh"])
        if mesh.alpha != alpha:
            raise ValueError(f"mesh file {cfg.params['mesh']} is for alpha "
                             f"{mesh.alpha!r}, not {alpha!r}")
        return mesh
    dom = geometry.CuspDomain(alpha)
    kwargs = {}
    if "x_tip" in cfg.params:
        kwargs["x_tip"] = cfg.params["x_tip"]
    if "min_angle" in cfg.params:
        kwargs["min_angle_deg"] = cfg.params["min_angle"]
    return generate_graded_mesh(dom, cfg.params.get("h", 0.1),
                                cfg.params.get("grading"), **kwargs)


def _cmd_div_solve(cfg, outdir, manifest_name):
    alpha = cfg.params["alpha"]
    method = cfg.params.get("method", "potential")
    t = cfg.params.get("t", 0.2)
    dom = geometry.CuspDomain(alpha)

    def f(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return ((pts[:, 0] < t) & geometry.contains(dom, pts)).astype(float)

    if method == "potential":
        from . import potential

        n = int(cfg.params.get("cells", 256))
        src = potential.SourceField.from_function(f, n)
        sol = potential.newtonian_solve(src)
        probes = np.array([[0.9, 0.0], [0.55, 0.0], [0.3, 0.1]])
        resid = potential.divergence_residual(sol, f, probes)
        gamma = alpha - 1.0 if alpha < 1.0 else 0.0
        grid = weights.tensor_grid(dom, n_x=30, n_tau=20, x_min=1e-6,
                                   tau_min=1e-6)
        ratio = potential.check_weighted_estimate(sol, f, dom, gamma, 2.0,
                                                  grid)
        summary = {"alpha": alpha, "method": method, "t": t, "cells": n,
                   "divergence_residual": resid,
                   "weighted_ratio": ratio, "gamma": gamma}
        return summary, []
    if method == "fem":
        mesh = _load_or_generate_mesh(cfg, alpha)
        u, info = fem.solve_div_right_inverse(mesh, alpha, f)
        fw = fem.source_weighted_norm(mesh, f, alpha - 1.0)
        summary = {"alpha": alpha, "method": method, "t": t,
                   "h": mesh.h, "vertices": mesh.num_vertices,
                   "h1_norm": info["h1_norm"],
                   "constraint_residual": info["constraint_residual"],
                   "weighted_ratio": info["h1_norm"] / fw}
        return summary, []
    raise ValueError(f"unknown div-solve method {method!r}")


def _cmd_stokes(cfg, outdir, manifest_name):
    alpha = cfg.params["alpha"]
    if not alpha > 0.5:
        raise ValueError("alpha must exceed 1/2 for stokes")
    mesh = _load_or_generate_mesh(cfg, alpha)

    def f(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.column_stack([np.ones(len(pts)), np.zeros(len(pts))])

    system = fem.assemble(mesh, alpha)
    u, q, info = fem.solve_stokes(mesh, alpha, f, system=system)
    infsup = fem.discrete_infsup(mesh, alpha, system=system)
    r_max = 2.0 / (3.0 - 2.0 * alpha)
    r = cfg.params.get("r", 1.3 if 1.3 < r_max else 0.5 * (1.0 + r_max))
    lr = fem.pressure_lr_norm(mesh, alpha, q.coeffs, r)
    summary = {"alpha": alpha, "h": mesh.h, "vertices": mesh.num_vertices,
               "energy": info["energy"],
               "energy_identity_defect": info["energy_identity_defect"],
               "div_residual": info["div_residual"],
               "infsup": infsup, "pressure_r": r,
               "pressure_lr_norm": lr["norm"],
               "pressure_lr_bound": lr["bound"],
               "q_unweighted_mean": info["q_unweighted_mean"]}
    return summary, []


def _constant_sweep(cfg, which, manifest_name, outdir):
    alpha = cfg.params["alpha"]
    beta = cfg.params.get("beta", alpha)
    levels = int(cfg.params.get("levels", 3))
    h0 = cfg.params.get("h", 0.2)
    dom = geometry.CuspDomain(alpha)
    rows = []
    for lvl in range(levels):
        h = h0 * 2.0 ** (-lvl)
        mesh = generate_graded_mesh(dom, h)
        if which == "korn":
            est = fem.korn_best_constant(mesh, alpha, beta, level=lvl)
        else:
            est = fem.improved_poincare_constant(mesh, alpha, beta,
                                                 level=lvl)
        rows.append((lvl, h, mesh.num_vertices, est.constant, est.residual))
    csv_name = f"{which}_alpha{alpha:g}_beta{beta:g}.csv"
    _write_csv(Path(outdir) / csv_name,
               ["level", "h", "vertices", "constant", "eig_residual"],
               rows, manifest_name)
    consts = [r[3] for r in rows]
    summary = {"alpha": alpha, "beta": beta, "levels": levels,
               "constants": consts,
               "spread": max(consts) / min(consts) - 1.0,
               "table_file": csv_name}
    return summary, [csv_name]


def _cmd_optimality(cfg, outdir, manifest_name):
    alpha = cfg.params["alpha"]
    beta = cfg.params.get("beta", 0.0)
    p = cfg.params.get("p", 2.0)
    records, fits = experiments.optimality_sweep(alpha, beta, p)
    csv_name = f"optimality_alpha{alpha:g}_beta{beta:g}_p{p:g}.csv"
    _write_csv(Path(outdir) / csv_name,
               ["s", "fs_norm_p", "fs_norm_p_closed", "ys_norm_pp",
                "ys_norm_pp_closed", "chain_lhs", "chain_rhs_core"],
               [(r.parameters["s"], r.values["fs_norm_p"],
                 r.values["fs_norm_p_closed"], r.values["ys_norm_pp"],
                 r.values["ys_norm_pp_closed"], r.values["chain_lhs"],
                 r.values["chain_rhs_core"]) for r in records],
               manifest_name)
    summary = {
        "alpha": alpha, "beta": beta, "p": p,
        "T_A": fits["A"].T, "kappa_A": fits["A"].kappa,
        "residual_A": fits["A"].residual,
        "T_B": fits["B"].T, "kappa_B": fits["B"].kappa,
        "residual_B": fits["B"].residual,
        "A_exact": fits["A_exact"], "B_exact": fits["B_exact"],
        "comparison": fits["comparison"], "records_file": csv_name,
    }
    return summary, [csv_name]


def _cmd_necessity(cfg, outdir, manifest_name):
    alpha = cfg.params["alpha"]
    rows = experiments.necessity_demo(alpha, h=cfg.params.get("h", 0.1))
    csv_name = f"necessity_alpha{alpha:g}.csv"
    _write_csv(Path(outdir) / csv_name,
               ["t", "h1_norm", "f_weighted_norm", "f_unweighted_norm",
                "r_w", "r_u"],
               [(r.parameters["t"], r.values["h1_norm"],
                 r.values["f_weighted_norm"], r.values["f_unweighted_norm"],
                 r.values["r_w"], r.values["r_u"]) for r in rows],
               manifest_name)
    rus = [r.values["r_u"] for r in rows]
    rws = [r.values["r_w"] for r in rows]
    summary = {"alpha": alpha, "r_u_growth": rus[-1] / rus[0],
               "r_w_spread": max(rws) / min(rws), "table_file": csv_name}
    return summary, [csv_name]


def _cmd_mset(cfg, outdir, manifest_name):
    alpha = cfg.params["alpha"]
    dom = geometry.CuspDomain(alpha)
    nc = int(cfg.params.get("centers", 6))
    t = np.linspace(0.15, 0.9, nc)
    centers = [np.array([ti, ti**dom.gamma]) for ti in t]
    radii = [0.02, 0.04, 0.08]
    res = whitney.verify_mset(
        lambda c, r: geometry.boundary_measure(dom, c, r), centers, radii)
    summary = {"alpha": alpha, "centers": nc, "radii": radii, **res}
    return summary, []


_HANDLERS = {
    "whitney": _cmd_whitney,
    "ap-check": _cmd_ap_check,
    "div-solve": _cmd_div_solve,
    "stokes": _cmd_stokes,
    "korn-sweep": lambda c, o, m: _constant_sweep(c, "korn", m, o),
    "poincare-sweep": lambda c, o, m: _constant_sweep(c, "poincare", m, o),
    "optimality-sweep": _cmd_optimality,
    "necessity-demo": _cmd_necessity,
    "mset-check": _cmd_mset,
}


def run(cfg: RunConfig) -> int:
    """Execute a configured run; returns the process exit code."""
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest_name = f"{cfg.subcommand}_manifest.json"
    t0 = time.time()
    try:
        summary, artifacts = _HANDLERS[cfg.subcommand](cfg, outdir,
                                                       manifest_name)
    except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary_name = f"{cfg.subcommand}_summary.json"
    summary["manifest"] = manifest_name
    _write_json(outdir / summary_name, summary)
    import scipy

    manifest = {
        "config": cfg.to_dict(),
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__, "scipy": scipy.__version__,
                     "cuspdiv": __version__},
        "wall_time_s": time.time() - t0,
        "outputs": sorted(artifacts + [summary_name]),
    }
    _write_json(outdir / manifest_name, manifest)
    return 0


_FLOAT_KEYS = {"alpha", "beta", "mu", "p", "h", "grading", "t", "r",
               "x_tip", "min_angle"}
_INT_KEYS = {"kmax", "resolution", "levels", "cells", "centers"}
# the parameters of each subcommand, as flags and as config-file keys
_SPECS = {
    "whitney": ["alpha", "kmax"],
    "ap-check": ["alpha", "mu", "p", "resolution"],
    "div-solve": ["alpha", "method", "t", "cells", "h", "grading",
                  "mesh", "x_tip", "min_angle"],
    "stokes": ["alpha", "h", "grading", "mesh", "r"],
    "korn-sweep": ["alpha", "beta", "levels", "h"],
    "poincare-sweep": ["alpha", "beta", "levels", "h"],
    "optimality-sweep": ["alpha", "beta", "p"],
    "necessity-demo": ["alpha", "h"],
    "mset-check": ["alpha", "centers"],
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cuspdiv",
        description="Weighted-divergence computations on planar cusp domains")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, keys in _SPECS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="key=value config file")
        sp.add_argument("--outdir", default=None)
        for key in keys:
            if key in _FLOAT_KEYS:
                sp.add_argument(f"--{key}", type=float, default=None)
            elif key in _INT_KEYS:
                sp.add_argument(f"--{key}", type=int, default=None)
            else:
                sp.add_argument(f"--{key}", default=None)
    return parser


def _coerce(key, val):
    if key in _FLOAT_KEYS:
        return float(val)
    if key in _INT_KEYS:
        return int(val)
    return val


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    params = {}
    outdir = "."
    if args.config:
        try:
            entries = _read_config_file(args.config)
        except ValueError as exc:
            parser.error(f"{args.config}: {exc}")
        for key, val in entries.items():
            if key == "outdir":
                outdir = val
                continue
            if key not in _SPECS[args.subcommand]:
                parser.error(f"{args.config}: unknown key {key!r} for "
                             f"{args.subcommand}")
            try:
                val = _coerce(key, val)
            except ValueError:
                parser.error(f"{args.config}: {key} = {val!r} is not a "
                             f"valid value")
            params[key] = val
    for key, val in vars(args).items():
        if key in ("config", "subcommand") or val is None:
            continue
        if key == "outdir":
            outdir = val
        else:
            params[key] = val
    required = ("alpha", "mu") if args.subcommand == "ap-check" else ("alpha",)
    for key in required:
        if key not in params:
            parser.error(f"{args.subcommand}: --{key} is required")
    cfg = RunConfig(args.subcommand, params, outdir)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
