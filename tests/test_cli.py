import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cuspdiv
from cuspdiv import cli
from cuspdiv.geometry import CuspDomain
from cuspdiv.mesh import generate_graded_mesh, save_mesh


def run_cli(args):
    return cli.main(args)


def read(path):
    return Path(path).read_text()


def strip_manifest(outdir, subcommand):
    """Summary JSON without the volatile manifest pointer removed files."""
    payload = json.loads(read(Path(outdir) / f"{subcommand}_summary.json"))
    payload.pop("manifest", None)
    return payload


def test_whitney_run_and_artifacts(tmp_path):
    code = run_cli(["whitney", "--alpha", "0.5", "--kmax", "6",
                    "--outdir", str(tmp_path)])
    assert code == 0
    summary = json.loads(read(tmp_path / "whitney_summary.json"))
    assert summary["cubes"] > 0
    dec_file = tmp_path / summary["decomposition_file"]
    assert dec_file.exists()
    manifest = json.loads(read(tmp_path / "whitney_manifest.json"))
    assert manifest["config"]["params"]["alpha"] == 0.5
    assert "whitney_summary.json" in manifest["outputs"]
    assert "numpy" in manifest["versions"]


def test_repeated_runs_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["ap-check", "--alpha", "0.5", "--mu", "0.5", "--resolution", "256"]
    assert run_cli(args + ["--outdir", str(a)]) == 0
    assert run_cli(args + ["--outdir", str(b)]) == 0
    csv = "ap_alpha0.5_mu0.5_p2.csv"
    assert read(a / csv) == read(b / csv)
    assert strip_manifest(a, "ap-check") == strip_manifest(b, "ap-check")


def test_csv_has_manifest_header(tmp_path):
    assert run_cli(["ap-check", "--alpha", "0.5", "--mu", "0.5",
                    "--resolution", "256", "--outdir", str(tmp_path)]) == 0
    lines = read(tmp_path / "ap_alpha0.5_mu0.5_p2.csv").splitlines()
    assert lines[0] == "# manifest: ap-check_manifest.json"
    assert lines[1].split(",")[0] == "center_x"


def test_ap_check_has_no_weight_mode(tmp_path):
    args = ["ap-check", "--alpha", "0.5", "--mu", "0.5", "--resolution",
            "256", "--outdir", str(tmp_path)]
    with pytest.raises(SystemExit):
        run_cli(args + ["--mode", "surrogate"])
    assert run_cli(args) == 0
    assert "mode" not in strip_manifest(tmp_path, "ap-check")


def test_config_file_with_flag_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(
        "alpha = 0.5   # overridden on the command line\n"
        "kmax = 5\n"
        f"outdir = {tmp_path / 'cfg_out'}\n"
    )
    code = run_cli(["whitney", "--config", str(cfgfile), "--alpha", "0.75"])
    assert code == 0
    summary = json.loads(read(tmp_path / "cfg_out" / "whitney_summary.json"))
    assert summary["alpha"] == 0.75    # flag wins
    assert summary["kmax"] == 5        # config survives


def test_malformed_config_rejected(tmp_path, capsys):
    # a line without '=' and a value that does not parse are usage errors
    bad = tmp_path / "bad.cfg"
    for text, message in (("alpha 0.5\n", "malformed config line"),
                          ("alpha = 0.5\nkmax = five\n", "kmax = 'five'")):
        bad.write_text(text)
        with pytest.raises(SystemExit) as exc:
            run_cli(["whitney", "--config", str(bad)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"alpha = 0.5\nkmx = 5\noutdir = {tmp_path / 'out'}\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(["whitney", "--config", str(cfgfile)])
    assert exc.value.code == 2
    assert "unknown key 'kmx' for whitney" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # a key of another subcommand is unknown too
    cfgfile.write_text("alpha = 0.5\nmu = 0.5\n")
    with pytest.raises(SystemExit):
        run_cli(["whitney", "--config", str(cfgfile)])
    # so is seed: no computation draws from a global random state
    cfgfile.write_text("alpha = 0.5\nseed = 3\n")
    with pytest.raises(SystemExit) as exc:
        run_cli(["whitney", "--config", str(cfgfile)])
    assert exc.value.code == 2
    assert "unknown key 'seed' for whitney" in capsys.readouterr().err


def test_missing_alpha_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["whitney", "--outdir", str(tmp_path)])
    assert exc.value.code == 2


def test_ap_check_without_mu_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["ap-check", "--alpha", "0.75", "--outdir", str(tmp_path)])
    assert exc.value.code == 2
    assert "--mu is required" in capsys.readouterr().err


# every parameter of each subcommand, as its manifest records it; the
# expensive ap-check resolution is the one value set below its default
ALL_PARAMS = {
    "whitney": {"alpha": 0.75, "kmax": 8},
    "ap-check": {"alpha": 0.75, "mu": 0.5, "p": 2.0, "resolution": 256},
    "div-solve": {"alpha": 0.75, "method": "potential", "t": 0.2,
                  "cells": 256, "h": 0.1, "mesh": None, "x_tip": None,
                  "min_angle": 15.0},
    "stokes": {"alpha": 0.75, "r": None, "h": 0.1, "mesh": None,
               "x_tip": None, "min_angle": 15.0},
    "korn-sweep": {"alpha": 0.75, "beta": None, "levels": 3, "h": 0.2},
    "poincare-sweep": {"alpha": 0.75, "beta": None, "levels": 3, "h": 0.2},
    "optimality-sweep": {"alpha": 0.75, "beta": 0.0, "p": 2.0},
    "necessity-demo": {"alpha": 0.75, "h": 0.1},
    "mset-check": {"alpha": 0.75, "centers": 6},
}


@pytest.mark.parametrize("subcommand", sorted(ALL_PARAMS))
def test_manifest_records_every_parameter(tmp_path, subcommand):
    args = [subcommand, "--alpha", "0.75", "--outdir", str(tmp_path)]
    if subcommand == "ap-check":
        args += ["--mu", "0.5", "--resolution", "256"]
    assert run_cli(args) == 0
    manifest = json.loads(read(tmp_path / f"{subcommand}_manifest.json"))
    params = manifest["config"]["params"]
    assert params == ALL_PARAMS[subcommand]
    assert [type(v) for v in params.values()] == \
        [type(ALL_PARAMS[subcommand][k]) for k in params]


def test_help_shows_defaults(capsys):
    with pytest.raises(SystemExit):
        run_cli(["ap-check", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert "--resolution RESOLUTION default: 2048" in out
    assert "--mu MU required" in out


def test_stokes_takes_the_mesh_keys(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("alpha = 0.75\nh = 0.2\nx_tip = 0.06\n"
                       "min_angle = 14\n")
    assert run_cli(["stokes", "--config", str(cfgfile),
                    "--outdir", str(tmp_path)]) == 0
    summary = json.loads(read(tmp_path / "stokes_summary.json"))
    mesh = generate_graded_mesh(CuspDomain(0.75), 0.2, x_tip=0.06,
                                min_angle_deg=14.0)
    assert summary["vertices"] == mesh.num_vertices
    assert run_cli(["stokes", "--alpha", "0.75", "--h", "0.2", "--x_tip",
                    "0.06", "--outdir", str(tmp_path)]) == 0
    assert json.loads(read(tmp_path / "stokes_summary.json")) == summary


@pytest.mark.parametrize("args,message", [
    (["ap-check", "--alpha", "0.75", "--mu", "0.5", "--p", "0.5"],
     "p must exceed 1"),
    (["ap-check", "--alpha", "0.75", "--mu", "0.5", "--p", "1"],
     "p must exceed 1"),
    (["ap-check", "--alpha", "0.75", "--mu", "0.5", "--resolution", "0"],
     "resolution must be positive"),
    (["ap-check", "--alpha", "0.75", "--mu", "0.5", "--resolution", "-4"],
     "resolution must be positive"),
    (["div-solve", "--alpha", "0.75", "--cells", "0"],
     "n (cells per unit length) must be at least 1"),
    (["optimality-sweep", "--alpha", "0.75", "--p", "1"],
     "p must exceed 1"),
    (["korn-sweep", "--alpha", "0.75", "--levels", "0"],
     "levels must be at least 1"),
    (["div-solve", "--alpha", "0.75", "--method", "fem", "--h", "0.3",
      "--t", "-1"], "source vanishes on the mesh"),
    (["div-solve", "--alpha", "0.75", "--t", "-1"],
     "source vanishes on the source grid"),
    (["stokes", "--alpha", "0.75", "--h", "0.3", "--x_tip", "2"],
     "x_tip must be in (0, 1)"),
])
def test_invalid_values_are_numerical_errors(tmp_path, capsys, args,
                                             message):
    assert run_cli(args + ["--outdir", str(tmp_path)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / f"{args[0]}_summary.json").exists()


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli(["frobnicate", "--alpha", "0.5"])
    assert exc.value.code == 2


def test_numerical_failure_exit_code(tmp_path, capsys):
    # stokes requires alpha > 1/2: domain is valid but the solve is not
    code = run_cli(["stokes", "--alpha", "0.4", "--outdir", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_mesh_file_must_match_alpha(tmp_path, capsys):
    path = tmp_path / "mesh05.txt"
    save_mesh(generate_graded_mesh(CuspDomain(0.5), 0.3), path)
    code = run_cli(["stokes", "--alpha", "0.75", "--mesh", str(path),
                    "--outdir", str(tmp_path)])
    assert code == 1
    assert "alpha" in capsys.readouterr().err
    assert not (tmp_path / "stokes_summary.json").exists()
    # a file for the requested alpha is used as it is
    m075 = generate_graded_mesh(CuspDomain(0.75), 0.3)
    save_mesh(m075, path)
    assert run_cli(["stokes", "--alpha", "0.75", "--mesh", str(path),
                    "--outdir", str(tmp_path)]) == 0
    summary = json.loads(read(tmp_path / "stokes_summary.json"))
    assert summary["vertices"] == m075.num_vertices


@pytest.mark.parametrize("edit, message", [
    # without its header an alpha = 0.75 file once loaded as alpha = 1
    (lambda text: text.split("\n", 1)[1], "no alpha"),
    # a truncated file once escaped as a StopIteration traceback
    (lambda text: text[:len(text) // 2], "ends after"),
    # a negative index once reached numpy as "negative axis 0 index: -3"
    (lambda text: re.sub(r"(\ntriangles \d+\n).*", r"\g<1>0 9 -3", text,
                         count=1), "vertex index -3 is outside"),
], ids=["no-header", "truncated", "index-out-of-range"])
def test_malformed_mesh_file_is_an_error(tmp_path, capsys, edit, message):
    path = tmp_path / "mesh.txt"
    save_mesh(generate_graded_mesh(CuspDomain(0.75), 0.3), path)
    path.write_text(edit(path.read_text()))
    assert run_cli(["stokes", "--alpha", "1", "--mesh", str(path),
                    "--outdir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "error: mesh file: " in err and message in err
    assert not (tmp_path / "stokes_summary.json").exists()


def test_mset_check_loads_no_scipy_submodule(tmp_path):
    src = str(Path(cuspdiv.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys; from cuspdiv import cli; "
            "assert cli.main(['mset-check', '--alpha', '0.75', '--outdir', "
            "sys.argv[1]]) == 0; print(sorted(m for m in sys.modules "
            "if m in ('scipy.integrate', 'scipy.optimize', 'scipy.sparse')))")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_mset_check_summary(tmp_path):
    code = run_cli(["mset-check", "--alpha", "0.5", "--centers", "4",
                    "--outdir", str(tmp_path)])
    assert code == 0
    summary = json.loads(read(tmp_path / "mset-check_summary.json"))
    assert summary["ok"]
    assert abs(summary["m_fit"] - 1.0) < 0.2


def test_div_solve_fem_method(tmp_path):
    code = run_cli(["div-solve", "--alpha", "0.75", "--method", "fem",
                    "--h", "0.2", "--outdir", str(tmp_path)])
    assert code == 0
    summary = json.loads(read(tmp_path / "div-solve_summary.json"))
    assert summary["method"] == "fem"
    assert summary["constraint_residual"] < 1e-8
    assert summary["weighted_ratio"] > 0.0


def test_div_solve_potential_method(tmp_path):
    # 64 cells: the central-difference divergence defect at the probes is
    # O(step^2) in the step h/2 and reads 1.42e-4 at 32 cells, 1.3e-5 here
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["div-solve", "--alpha", "0.75", "--method", "potential",
            "--cells", "64"]
    assert run_cli(args + ["--outdir", str(a)]) == 0
    assert run_cli(args + ["--outdir", str(b)]) == 0
    summary = json.loads(read(a / "div-solve_summary.json"))
    assert summary["method"] == "potential"
    assert summary["divergence_residual"] <= 1e-4
    assert 0.0 < summary["weighted_ratio"] < 10.0
    assert (read(a / "div-solve_summary.json")
            == read(b / "div-solve_summary.json"))


def test_optimality_sweep_positive_beta(tmp_path):
    # f_s needs the margin 1 - |tau| down to 3.2e-21 here, below the spacing
    # of doubles next to tau = 1
    code = run_cli(["optimality-sweep", "--alpha", "0.5", "--beta", "0.4",
                    "--p", "2", "--outdir", str(tmp_path)])
    assert code == 0
    summary = json.loads(read(tmp_path / "optimality-sweep_summary.json"))
    assert summary["T_A"] == pytest.approx(summary["A_exact"], rel=0.01)


def test_div_solve_unknown_method(tmp_path):
    code = run_cli(["div-solve", "--alpha", "0.75", "--method", "magic",
                    "--outdir", str(tmp_path)])
    assert code == 1


def test_python_dash_m_entry_point():
    src = str(Path(cuspdiv.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "cuspdiv", "--help"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout
