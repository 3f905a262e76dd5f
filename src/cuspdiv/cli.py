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
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__, experiments, geometry, weights, whitney
from .mesh import generate_graded_mesh, load_mesh

__all__ = ["run", "main"]


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
# subcommand handlers: each takes the output directory, the manifest name and
# the subcommand's resolved parameters, and returns (summary dict, list of
# artifact names)
# ---------------------------------------------------------------------------


def _cmd_whitney(outdir, manifest_name, alpha, kmax):
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


def _cmd_ap_check(outdir, manifest_name, alpha, mu, p, resolution):
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


def _load_or_generate_mesh(alpha, h, mesh, x_tip, min_angle):
    if mesh is not None:
        loaded = load_mesh(mesh)
        if loaded.alpha != alpha:
            raise ValueError(f"mesh file {mesh} is for alpha "
                             f"{loaded.alpha!r}, not {alpha!r}")
        return loaded
    return generate_graded_mesh(geometry.CuspDomain(alpha), h, x_tip=x_tip,
                                min_angle_deg=min_angle)


def _cmd_div_solve(outdir, manifest_name, alpha, method, t, cells,
                   **mesh_keys):
    dom = geometry.CuspDomain(alpha)

    def f(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return ((pts[:, 0] < t) & geometry.contains(dom, pts)).astype(float)

    if method == "potential":
        from . import potential

        src = potential.SourceField.from_function(f, cells)
        if not np.any(src.values):
            raise ValueError("source vanishes on the source grid")
        sol = potential.newtonian_solve(src)
        probes = np.array([[0.9, 0.0], [0.55, 0.0], [0.3, 0.1]])
        resid = potential.divergence_residual(sol, f, probes)
        gamma = alpha - 1.0 if alpha < 1.0 else 0.0
        grid = weights.tensor_grid(dom, n_x=30, n_tau=20, x_min=1e-6,
                                   tau_min=1e-6)
        ratio = potential.check_weighted_estimate(sol, f, dom, gamma, 2.0,
                                                  grid)
        summary = {"alpha": alpha, "method": method, "t": t, "cells": cells,
                   "divergence_residual": resid,
                   "weighted_ratio": ratio, "gamma": gamma}
        return summary, []
    if method == "fem":
        from . import fem

        mesh = _load_or_generate_mesh(alpha, **mesh_keys)
        fw = fem.source_weighted_norm(mesh, f, alpha - 1.0)
        if fw == 0.0:
            raise ValueError("source vanishes on the mesh")
        u, info = fem.solve_div_right_inverse(mesh, alpha, f)
        summary = {"alpha": alpha, "method": method, "t": t,
                   "h": mesh.h, "vertices": mesh.num_vertices,
                   "h1_norm": info["h1_norm"],
                   "constraint_residual": info["constraint_residual"],
                   "weighted_ratio": info["h1_norm"] / fw}
        return summary, []
    raise ValueError(f"unknown div-solve method {method!r}")


def _cmd_stokes(outdir, manifest_name, alpha, r, **mesh_keys):
    from . import fem

    if not alpha > 0.5:
        raise ValueError("alpha must exceed 1/2 for stokes")
    mesh = _load_or_generate_mesh(alpha, **mesh_keys)

    def f(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.column_stack([np.ones(len(pts)), np.zeros(len(pts))])

    system = fem.assemble(mesh, alpha)
    u, q, info = fem.solve_stokes(mesh, alpha, f, system=system)
    infsup = fem.discrete_infsup(mesh, alpha, system=system)
    if r is None:
        r_max = 2.0 / (3.0 - 2.0 * alpha)
        r = 1.3 if 1.3 < r_max else 0.5 * (1.0 + r_max)
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


def _constant_sweep(which, outdir, manifest_name, alpha, beta, levels, h):
    from . import fem

    if levels < 1:
        raise ValueError("levels must be at least 1")
    if beta is None:
        beta = alpha
    dom = geometry.CuspDomain(alpha)
    rows = []
    for lvl in range(levels):
        h_lvl = h * 2.0 ** (-lvl)
        mesh = generate_graded_mesh(dom, h_lvl)
        if which == "korn":
            est = fem.korn_best_constant(mesh, alpha, beta, level=lvl)
        else:
            est = fem.improved_poincare_constant(mesh, alpha, beta,
                                                 level=lvl)
        rows.append((lvl, h_lvl, mesh.num_vertices, est.constant,
                     est.residual))
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


def _cmd_optimality(outdir, manifest_name, alpha, beta, p):
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


def _cmd_necessity(outdir, manifest_name, alpha, h):
    rows = experiments.necessity_demo(alpha, h=h)
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


def _cmd_mset(outdir, manifest_name, alpha, centers):
    dom = geometry.CuspDomain(alpha)
    t = np.linspace(0.15, 0.9, centers)
    points = [np.array([ti, ti**dom.gamma]) for ti in t]
    radii = [0.02, 0.04, 0.08]
    res = whitney.verify_mset(
        lambda c, r: geometry.boundary_measure(dom, c, r), points, radii)
    summary = {"alpha": alpha, "centers": centers, "radii": radii, **res}
    return summary, []


# ---------------------------------------------------------------------------
# the parameter table: one type per key, and per subcommand its handler and
# its keys with their defaults.  Flags, config-file keys, the required and
# unknown-key errors, the --help defaults and the manifest's params all come
# from here.  A None default is resolved by the handler or the library, as
# _DERIVED says.
# ---------------------------------------------------------------------------

_REQUIRED = object()

_TYPES = {"alpha": float, "beta": float, "mu": float, "p": float, "h": float,
          "t": float, "r": float, "x_tip": float, "min_angle": float,
          "kmax": int, "resolution": int, "levels": int, "cells": int,
          "centers": int, "method": str, "mesh": str}
_DERIVED = {"beta": "alpha",
            "r": "1.3, or (1 + r_max)/2 if r_max = 2/(3 - 2 alpha) <= 1.3",
            "mesh": "a graded mesh from h, x_tip and min_angle",
            "x_tip": "the area-defect rule of generate_graded_mesh"}
# the finite-element subcommands' mesh: a --mesh file, or a generated one
_MESH_KEYS = {"h": 0.1, "mesh": None, "x_tip": None, "min_angle": 15.0}
_SWEEP_KEYS = {"alpha": _REQUIRED, "beta": None, "levels": 3, "h": 0.2}

_SUBCOMMANDS = {
    "whitney": (_cmd_whitney, {"alpha": _REQUIRED, "kmax": 8}),
    "ap-check": (_cmd_ap_check, {"alpha": _REQUIRED, "mu": _REQUIRED,
                                 "p": 2.0, "resolution": 2048}),
    "div-solve": (_cmd_div_solve, {"alpha": _REQUIRED, "method": "potential",
                                   "t": 0.2, "cells": 256, **_MESH_KEYS}),
    "stokes": (_cmd_stokes, {"alpha": _REQUIRED, "r": None, **_MESH_KEYS}),
    "korn-sweep": (partial(_constant_sweep, "korn"), _SWEEP_KEYS),
    "poincare-sweep": (partial(_constant_sweep, "poincare"), _SWEEP_KEYS),
    "optimality-sweep": (_cmd_optimality, {"alpha": _REQUIRED, "beta": 0.0,
                                           "p": 2.0}),
    "necessity-demo": (_cmd_necessity, {"alpha": _REQUIRED, "h": 0.1}),
    "mset-check": (_cmd_mset, {"alpha": _REQUIRED, "centers": 6}),
}


def run(subcommand, params, outdir) -> int:
    """Run a subcommand on all of its parameters; returns the exit code."""
    path = Path(outdir)
    path.mkdir(parents=True, exist_ok=True)
    manifest_name = f"{subcommand}_manifest.json"
    t0 = time.time()
    try:
        summary, artifacts = _SUBCOMMANDS[subcommand][0](path, manifest_name,
                                                         **params)
    except (ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary_name = f"{subcommand}_summary.json"
    summary["manifest"] = manifest_name
    _write_json(path / summary_name, summary)
    import scipy

    manifest = {
        "config": {"subcommand": subcommand, "params": params,
                   "outdir": outdir},
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__, "scipy": scipy.__version__,
                     "cuspdiv": __version__},
        "wall_time_s": time.time() - t0,
        "outputs": sorted(artifacts + [summary_name]),
    }
    _write_json(path / manifest_name, manifest)
    return 0


def _help(key, default):
    if default is _REQUIRED:
        return "required"
    return f"default: {_DERIVED[key] if default is None else default}"


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cuspdiv",
        description="Weighted-divergence computations on planar cusp domains")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, table) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="key=value config file")
        sp.add_argument("--outdir", help="default: .")
        for key, default in table.items():
            sp.add_argument(f"--{key}", type=_TYPES[key],
                            help=_help(key, default))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    table = _SUBCOMMANDS[args.subcommand][1]
    given = {}
    if args.config:
        try:
            entries = _read_config_file(args.config)
        except ValueError as exc:
            parser.error(f"{args.config}: {exc}")
        for key, val in entries.items():
            if key == "outdir":
                given[key] = val
                continue
            if key not in table:
                parser.error(f"{args.config}: unknown key {key!r} for "
                             f"{args.subcommand}")
            try:
                given[key] = _TYPES[key](val)
            except ValueError:
                parser.error(f"{args.config}: {key} = {val!r} is not a "
                             f"valid value")
    # flags override the config file, which overrides the table's defaults
    given.update((k, v) for k, v in vars(args).items()
                 if v is not None and k not in ("config", "subcommand"))
    outdir = given.pop("outdir", ".")
    params = {**table, **given}
    for key, val in params.items():
        if val is _REQUIRED:
            parser.error(f"{args.subcommand}: --{key} is required")
    return run(args.subcommand, params, outdir)


if __name__ == "__main__":
    sys.exit(main())
