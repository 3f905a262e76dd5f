import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import curve_fit

import cuspdiv
from cuspdiv import experiments, geometry, weights
from cuspdiv.experiments import fit_grid, necessity_demo, optimality_sweep, rate_fit


def curve_fit_oracle(s, y):
    """(T, rms residual) of the bounded curve_fit the fit replaced."""
    s, ly = np.asarray(s), np.log(y)
    smax = s.max()

    def model(sv, kappa, T, c):
        return -kappa * np.log(T - sv) + c

    p0 = (1.0, smax + max(0.1 * (smax - s.min()), 1e-6), 0.0)
    bounds = ([1e-3, smax + 1e-12, -50.0], [50.0, smax + 50.0, 50.0])
    popt, _ = curve_fit(model, s, ly, p0=p0, bounds=bounds, maxfev=20000)
    return popt[1], float(np.sqrt(np.mean((ly - model(s, *popt)) ** 2)))


def test_rate_fit_recovers_exact_law():
    T, kappa, c = 2.5, 1.0, 0.7
    s = fit_grid(T)
    y = np.exp(c) * (T - s) ** (-kappa)
    fit = rate_fit(zip(s, y))
    assert fit.T == pytest.approx(T, abs=1e-6)
    assert fit.kappa == pytest.approx(kappa, abs=1e-6)
    assert fit.c == pytest.approx(c, abs=1e-6)
    assert fit.residual < 1e-8
    assert fit.n_points == len(s)


def test_rate_fit_tolerates_small_noise():
    T, kappa = 1.5, 2.0
    s = fit_grid(T)
    rng = np.random.default_rng(4)
    y = (T - s) ** (-kappa) * np.exp(rng.normal(scale=1e-3, size=len(s)))
    fit = rate_fit(zip(s, y))
    assert fit.T == pytest.approx(T, abs=0.01)
    assert fit.kappa == pytest.approx(kappa, abs=0.05)


def test_rate_fit_input_validation():
    with pytest.raises(ValueError):
        rate_fit([(0.1, 1.0)] * 5)
    s = fit_grid(1.0)
    with pytest.raises(ValueError):
        rate_fit(zip(s, np.zeros(len(s))))


@pytest.mark.parametrize("bad", [(np.nan, 1.0), (np.inf, 1.0), (0.1, np.nan),
                                 (0.1, np.inf)])
def test_rate_fit_rejects_non_finite_points(bad):
    # a NaN value passes the y <= 0 test; it must not become a NaN fit
    s = fit_grid(1.0)
    pts = list(zip(s, 1.0 / (1.0 - s)))
    pts[3] = bad
    with pytest.raises(ValueError, match="finite"):
        rate_fit(pts)


def test_rate_fit_has_no_initial_gap():
    s = fit_grid(1.0)
    with pytest.raises(TypeError):
        rate_fit(zip(s, 1.0 / (1.0 - s)), T_gap=0.1)


@pytest.mark.parametrize("kappa,c,name", [(60.0, 0.0, "kappa"),
                                          (1e-4, 0.0, "kappa"),
                                          (-1.0, 0.0, "kappa"),
                                          (1.0, 60.0, "c"),
                                          (1.0, -60.0, "c")])
def test_rate_fit_bounds_are_checks(kappa, c, name):
    # exact laws outside the kappa bound [1e-3, 50] or the c bound [-50, 50]
    s = fit_grid(1.0)
    with pytest.raises(ValueError, match=f"fitted {name} "):
        rate_fit(zip(s, np.exp(c) * (1.0 - s) ** -kappa))


@pytest.mark.parametrize("T,kappa,c", [(2.5, 1.0, 0.7), (1.5, 2.0, 0.0),
                                       (0.7, 1.0, -1.1), (1.9, 0.5, 3.0)])
def test_rate_fit_matches_curve_fit_on_exact_laws(T, kappa, c):
    s = fit_grid(T)
    y = np.exp(c) * (T - s) ** (-kappa)
    fit = rate_fit(zip(s, y))
    assert fit.T == pytest.approx(curve_fit_oracle(s, y)[0], rel=1e-12)
    assert fit.T == pytest.approx(T, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(T=st.floats(0.3, 3.0), kappa=st.floats(0.3, 3.0),
       c=st.floats(-3.0, 3.0),
       noise=st.lists(st.floats(-1e-2, 1e-2), min_size=8, max_size=8))
@example(T=1.5, kappa=1.0, c=0.0, noise=[1e-2, -1e-2] * 4)
@example(T=1.0, kappa=3.0, c=0.0, noise=[0.0] * 8)
def test_rate_fit_residual_no_worse_than_curve_fit(T, kappa, c, noise):
    # the projected fit minimises the same log residual over the same
    # bracket, so it never ends above curve_fit's local minimum.  Near zero
    # noise both residuals are rounding error (1.3e-15 against 3.6e-16 on
    # the exact law above), so the bound adds 4 ulps of the largest log y
    s = fit_grid(T)
    ly = c + np.array(noise) - kappa * np.log(T - s)
    fit = rate_fit(zip(s, np.exp(ly)))
    rounding = 4.0 * np.finfo(float).eps * np.abs(ly).max()
    assert fit.residual <= (curve_fit_oracle(s, np.exp(ly))[1] * (1.0 + 1e-9)
                            + rounding)


@settings(max_examples=60, deadline=None)
@given(T=st.floats(0.3, 3.0), kappa=st.floats(0.3, 3.0),
       c=st.floats(-3.0, 3.0))
def test_rate_fit_recovers_exact_laws_to_rounding(T, kappa, c):
    # curve_fit stops at its 1e-8 tolerances: on 400 random exact laws its
    # T was up to 3.6e-10 relative off, the projected fit's 2.6e-16
    s = fit_grid(T)
    fit = rate_fit(zip(s, np.exp(c) * (T - s) ** (-kappa)))
    assert fit.T == pytest.approx(T, rel=1e-12)
    assert fit.kappa == pytest.approx(kappa, rel=1e-9)


@pytest.mark.parametrize("alpha,beta,p", [(0.5, 0.0, 2.0), (0.75, 0.0, 3.0),
                                          (0.5, -0.5, 2.0)])
def test_rate_fit_replays_blowup_sweep_fits(alpha, beta, p):
    # the points optimality_sweep fits (the benchmark's potential-blowup
    # sweeps), against curve_fit's T: the benchmark checks T to 1e-7
    domain = geometry.CuspDomain(alpha)
    pp = p / (p - 1.0)
    A = weights.fs_norm_closed_form(alpha, beta, p, 0.0)["A"]
    B = weights.ys_norm_closed_form(alpha, p, 0.0)["B"]
    _, fits = optimality_sweep(alpha, beta, p, fit_grid(min(A, B), n=3))
    families = {
        "A": (A, lambda s: experiments._fs_norm(domain, beta, p, s, 1e-3,
                                                False)[0] ** p),
        "B": (B, lambda s: experiments._ys_norm(domain, p, s, 1e-3,
                                                False)[0] ** pp),
    }
    for fam, (exact, norm) in families.items():
        s = fit_grid(exact)
        y = np.array([norm(si) for si in s])
        fit = rate_fit(zip(s, y))
        assert fits[fam].T == fit.T
        assert fit.T == pytest.approx(curve_fit_oracle(s, y)[0], rel=1e-12)


def test_import_loads_no_optimize_or_integrate():
    src = str(Path(cuspdiv.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    # fem, and with it scipy.sparse, loads on first use of cuspdiv.fem
    code = ("import sys, cuspdiv; print(sorted(m for m in sys.modules "
            "if m in ('scipy.optimize', 'scipy.integrate', 'scipy.sparse'))); "
            "print(cuspdiv.fem.assemble.__module__, "
            "'scipy.sparse' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "cuspdiv.fem True"]


def test_fit_grid_geometry():
    g = fit_grid(2.0, span=5.12, n=8)
    gaps = 2.0 - g
    assert gaps[-1] == pytest.approx(0.02)
    assert np.allclose(gaps[:-1] / gaps[1:], 2.0)


def test_optimality_sweep_records_match_closed_forms():
    records, fits = optimality_sweep(0.5, 0.0, 2.0)
    assert all(r.finite() for r in records)
    for r in records:
        v = r.values
        assert v["fs_norm_p"] == pytest.approx(v["fs_norm_p_closed"], rel=5e-3)
        assert v["ys_norm_pp"] == pytest.approx(v["ys_norm_pp_closed"],
                                                rel=5e-3)
        assert v["fs_quadrature_relerr"] < 1e-3
    # alpha=1/2, beta=0, p=2: A = (1 + 1/2)/1 = 1.5, B = (1 + 1/2 + 1/2)/1
    assert fits["A_exact"] == pytest.approx(1.5)
    assert fits["B_exact"] == pytest.approx(2.5)
    assert fits["A"].T == pytest.approx(1.5, abs=5e-3)
    assert fits["B"].T == pytest.approx(2.5, abs=5e-3)
    assert fits["A"].kappa == pytest.approx(1.0, abs=0.02)
    assert fits["B"].kappa == pytest.approx(1.0, abs=0.02)


def test_optimality_sweep_threshold_ordering():
    # beta > alpha - 1 forces A < B; at beta = alpha - 1 they coincide
    _, above = optimality_sweep(0.5, 0.0, 2.0)
    assert above["beta_vs_alpha_minus_1"] > 0.0
    assert above["A_exact"] < above["B_exact"]
    assert above["comparison"] == "T_A < T_B"
    _, at = optimality_sweep(0.5, -0.5, 2.0)
    assert at["beta_vs_alpha_minus_1"] == pytest.approx(0.0)
    assert at["A_exact"] == pytest.approx(at["B_exact"])
    assert abs(at["A"].T - at["B"].T) < 2e-2


@pytest.mark.parametrize("alpha,beta,p", [(0.75, 0.0, 3.0), (0.5, 0.0, 2.0)])
def test_optimality_sweep_evaluates_each_norm_once(alpha, beta, p,
                                                    monkeypatch):
    # each weighted_lp_norm call integrates one grid
    calls = []
    norm = weights.weighted_lp_norm

    def counted(*args, **kwargs):
        calls.append(1)
        return norm(*args, **kwargs)

    monkeypatch.setattr(weights, "weighted_lp_norm", counted)
    records, fits = optimality_sweep(alpha, beta, p)
    monkeypatch.undo()
    # 8 records x 2 families x (grid + refined grid), then the 8 fit norms
    # of the family with the larger threshold; the other family's fit
    # reuses the records' unrefined norms
    assert sum(calls) == 8 * 2 * 2 + 8
    domain = geometry.CuspDomain(alpha)
    pp = p / (p - 1.0)
    for fam, norm_s, q in (
            ("A", lambda s: experiments._fs_norm(domain, beta, p, s, 1e-3,
                                                 False)[0], p),
            ("B", lambda s: experiments._ys_norm(domain, p, s, 1e-3,
                                                 False)[0], pp)):
        s = fit_grid(fits[f"{fam}_exact"])
        assert fits[fam] == rate_fit([(si, norm_s(si) ** q) for si in s])


@pytest.mark.parametrize("alpha,p", [(0.3, 3.0), (0.75, 4.0), (0.5, 2.0)])
def test_optimality_sweep_verdict_at_equal_thresholds(alpha, p):
    # beta = alpha - 1 makes A = B; the fits of (0.3, 3) and (0.75, 4) land
    # 1.7e-16 and 2.1e-16 apart, which an exact comparison called T_A < T_B
    _, fits = optimality_sweep(alpha, alpha - 1.0, p)
    assert fits["A_exact"] == pytest.approx(fits["B_exact"], rel=1e-14)
    assert (abs(fits["A"].T - fits["B"].T)
            <= experiments._T_RTOL * fits["A"].T)
    assert fits["comparison"] == "T_A = T_B"
    # a genuine gap still orders them
    _, off = optimality_sweep(alpha, alpha - 1.0 + 0.01, p)
    assert off["comparison"] == "T_A < T_B"


@pytest.mark.parametrize("alpha,expected", [(0.5, "T_A < T_B"),
                                            (1.0, "T_A = T_B")])
def test_optimality_sweep_fits_at_p_three_halves(alpha, expected):
    # p = 1.5 is the CLI smoke case; the verdict tolerance covers the fits
    _, fits = optimality_sweep(alpha, 0.0, 1.5)
    for fam in ("A", "B"):
        exact = fits[f"{fam}_exact"]
        assert abs(fits[fam].T - exact) <= experiments._T_RTOL * exact
    assert fits["comparison"] == expected


@pytest.mark.parametrize("alpha", [0.5, 1.0])
@pytest.mark.parametrize("p", [1.1, 1.2])
def test_optimality_sweep_fits_to_rounding_below_p_two(alpha, p):
    # the x-tail left out below x_min is 0.2 tol at every fit point, however
    # steep the integrand (p' up to 11 here), so the fit absorbs it into c
    _, fits = optimality_sweep(alpha, 0.0, p)
    for fam in ("A", "B"):
        exact = fits[f"{fam}_exact"]
        assert abs(fits[fam].T - exact) <= 1e-14 * exact


def test_optimality_sweep_rejects_bad_grid():
    with pytest.raises(ValueError):
        optimality_sweep(0.5, 0.0, 2.0, s_grid=[0.0, 10.0])


def test_necessity_demo_contrast():
    rows = necessity_demo(0.75, h=0.15, t_values=(0.4, 0.2, 0.1))
    assert [r.parameters["t"] for r in rows] == [0.4, 0.2, 0.1]
    for r in rows:
        assert r.provenance == "fem"
        assert r.values["constraint_residual"] < 1e-8
        assert r.values["r_w"] > 0.0
    # the unweighted ratio grows as the source concentrates at the tip,
    # the weighted ratio varies far less
    r_u = [r.values["r_u"] for r in rows]
    r_w = [r.values["r_w"] for r in rows]
    assert r_u[-1] / r_u[0] > 1.3
    assert max(r_w) / min(r_w) < max(r_u) / min(r_u)
