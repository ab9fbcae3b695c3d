"""Bracket-flow integrator: monotonicity, reconstruction, trace persistence."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import RK45, solve_ivp

import g2coflow
from g2coflow import coflow
from g2coflow.almost_abelian import (
    _scalar_diagnostics_batch,
    q_matrix,
    random_sp,
    random_su3,
    scalar_diagnostics,
    sp_check,
)
from g2coflow.coflow import (
    FlowTrace,
    IntegrationError,
    IntegratorOptions,
    coflow_pde_residuals,
    integrate,
    norm_derivative,
    read_trace_csv,
    reconstruct_h,
    reconstruction_gap,
    rhs,
    scalar_bound_check,
    write_trace_csv,
)
from g2coflow.g2 import CONVENTIONS, canonical_g2
from g2coflow.soliton import load_example

rng = np.random.default_rng(20240820)
DATA = canonical_g2("section4")


def test_options_validation():
    with pytest.raises(ValueError):
        IntegratorOptions(rel_tol=-1.0)
    with pytest.raises(ValueError):
        IntegratorOptions(max_step=0.0)
    with pytest.raises(ValueError):
        IntegratorOptions(t_end=0.0)
    with pytest.raises(ValueError):
        IntegratorOptions(direction="sideways")


def test_rhs_tangent_to_sp_and_norm_derivative():
    for _ in range(5):
        A = random_sp(rng, DATA)
        dA = rhs(A, DATA)
        ok, residual = sp_check(dA, DATA, tol=1e-10)
        assert ok, residual
        two_route = 2.0 * float(np.sum(dA * A))
        closed = norm_derivative(A, DATA)
        scale = max(1.0, abs(closed))
        assert abs(two_route - closed) < 1e-10 * scale
        assert closed <= 1e-12


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_joint_rhs_shares_one_symbol(convention):
    data = canonical_g2(convention)
    for _ in range(5):
        A = random_sp(rng, data)
        h = rng.standard_normal((7, 7))
        out = coflow._joint_rhs(np.concatenate([A.ravel(), h.ravel()]), data)
        assert np.max(np.abs(out[:36].reshape(6, 6) - rhs(A, data))) < 1e-14
        expected_dh = -q_matrix(A, data).Q @ h
        assert np.max(np.abs(out[36:].reshape(7, 7) - expected_dh)) < 1e-14


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_canonical_structure_is_shared_and_read_only(convention):
    data = canonical_g2(convention)
    assert canonical_g2(convention) is data
    with pytest.raises(ValueError):
        data.J[0, 0] = 1.0


def test_su3_is_a_fixed_point():
    A = random_su3(rng, DATA)
    assert np.max(np.abs(rhs(A, DATA))) < 1e-13
    assert abs(norm_derivative(A, DATA)) < 1e-13
    trace = integrate(A, IntegratorOptions(t_end=5.0), DATA)
    assert np.max(np.abs(trace.As - A)) < 1e-9
    check = scalar_bound_check(trace)
    assert check["skipped"]


def test_forward_flow_monotonicity_and_bound():
    for seed in (3, 11):
        local = np.random.default_rng(seed)
        A0 = random_sp(local, DATA)
        trace = integrate(A0, IntegratorOptions(t_end=20.0), DATA)
        assert trace.meta["termination"] == "t_end"
        assert np.all(np.diff(trace.ts) > 0)
        assert np.all(np.diff(trace.norm_sq) <= 1e-9)
        check = scalar_bound_check(trace)
        assert not check["skipped"]
        assert check["bound_ok"]
        assert check["R_increasing"]
        assert check["torsion_decreasing"]
        assert trace.meta["max_sp_drift"] < 1e-12


def test_norm_derivative_matches_finite_difference():
    A0 = random_sp(np.random.default_rng(7), DATA)
    opts = IntegratorOptions(t_end=1.0, rel_tol=1e-12, abs_tol=1e-14)
    dt = 1e-4
    ends = {}
    for t_end in (1.0 - dt, 1.0, 1.0 + dt):
        tr = integrate(A0, IntegratorOptions(
            t_end=t_end, rel_tol=opts.rel_tol, abs_tol=opts.abs_tol), DATA)
        ends[t_end] = tr.As[-1]
    fd = (np.sum(ends[1.0 + dt] ** 2) - np.sum(ends[1.0 - dt] ** 2)) / (2 * dt)
    closed = norm_derivative(ends[1.0], DATA)
    assert abs(fd - closed) < 1e-4 * max(1.0, abs(closed))


def test_backward_run_hits_norm_ceiling():
    A0 = random_sp(np.random.default_rng(5), DATA)
    opts = IntegratorOptions(t_end=50.0, direction="backward", norm_ceiling=50.0)
    trace = integrate(A0, opts, DATA)
    assert trace.meta["termination"] == "norm_ceiling"
    assert np.all(np.diff(trace.ts) > 0)
    assert trace.ts[0] < 0.0 and trace.ts[-1] == 0.0
    assert np.max(trace.norm_sq) > 0.9 * 50.0**2
    # norm grows into the past, so the earliest sample is the largest
    assert trace.norm_sq[0] == np.max(trace.norm_sq)
    # the two-sided curvature bound is a forward-time statement
    assert scalar_bound_check(trace)["skipped"]


def test_drift_gate_raises():
    A0 = random_sp(np.random.default_rng(9), DATA)
    opts = IntegratorOptions(t_end=1.0, sp_drift_tol=1e-17)
    with pytest.raises(IntegrationError):
        integrate(A0, opts, DATA)


def test_trace_csv_round_trip(tmp_path):
    A0 = random_sp(np.random.default_rng(13), DATA)
    trace = integrate(A0, IntegratorOptions(t_end=2.0), DATA)
    path = str(tmp_path / "trace.csv")
    write_trace_csv(trace, path)
    back = read_trace_csv(path)
    assert isinstance(back, FlowTrace)
    assert np.array_equal(back.ts, trace.ts)
    assert np.array_equal(back.As, trace.As)
    assert np.array_equal(back.norm_sq, trace.norm_sq)
    assert np.array_equal(back.R, trace.R)
    assert back.meta["termination"] == "t_end"
    # a rerun of the same write is byte identical
    second = str(tmp_path / "trace2.csv")
    write_trace_csv(trace, second)
    assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "trace2.csv").read_bytes()


def test_meta_fields():
    A0 = random_sp(np.random.default_rng(17), DATA)
    trace = integrate(A0, IntegratorOptions(t_end=1.0), DATA)
    meta = trace.meta
    assert meta["solver"] == "rk45"
    assert meta["convention"] == "section4"
    assert meta["samples"] == len(trace.ts)
    assert meta["status"] == 0
    assert meta["min_accepted_step"] > 0


def test_h_reconstruction_pairs_with_bracket_trajectory():
    fixture = load_example("nilpotent3")
    data = canonical_g2(fixture["convention"])
    trace = integrate(
        fixture["A"],
        IntegratorOptions(t_end=5.0, rel_tol=1e-11, abs_tol=1e-13),
        data,
    )
    hs = reconstruct_h(trace, data)
    assert hs.shape == (len(trace.ts), 7, 7)
    assert np.max(np.abs(hs[0] - np.eye(7))) < 1e-12
    assert reconstruction_gap(trace, hs) < 1e-8


def reconstruction_gap_loop(trace, hs):
    """Reference: the per-sample solve and maxima."""
    A0 = trace.As[0]
    worst = 0.0
    for A, h in zip(trace.As, hs):
        k = h[:6, :6]
        recon = np.linalg.solve(k.T, (k @ A0).T).T / h[6, 6]
        worst = max(worst, float(np.max(np.abs(A - recon))))
        off = max(np.max(np.abs(h[:6, 6])), np.max(np.abs(h[6, :6])))
        worst = max(worst, float(off))
    return worst


def test_reconstruction_gap_matches_per_sample_loop():
    fixture = load_example("nilpotent3")
    data = canonical_g2(fixture["convention"])
    trace = integrate(fixture["A"], IntegratorOptions(t_end=3.0), data)
    hs = reconstruct_h(trace, data)
    assert reconstruction_gap(trace, hs) == reconstruction_gap_loop(trace, hs)
    # a perturbed stack, so the off-block and the bracket terms both count
    noisy = hs + 1e-6 * rng.standard_normal(hs.shape)
    assert reconstruction_gap(trace, noisy) == reconstruction_gap_loop(trace, noisy)
    off = hs.copy()
    off[len(off) // 2, 6, 2] = 0.5
    assert reconstruction_gap(trace, off) == 0.5


def test_pde_residuals_second_order():
    fixture = load_example("nilpotent3")
    data = canonical_g2(fixture["convention"])
    res = coflow_pde_residuals(
        fixture["A"], data, times=(0.5,), dts=(1e-2, 1e-3)
    )
    assert res[1e-2] < 1e-3
    assert res[1e-3] < res[1e-2] / 30.0


def _flow_fun(data):
    return lambda t, y: coflow._rhs_raw(y.reshape(6, 6), data).ravel()


def _start(seed, data, norm=4.0):
    A0 = random_sp(np.random.default_rng(seed), data)
    return A0 * (norm / np.linalg.norm(A0))


def test_tableau_is_scipy_rk45():
    for name in "ABCEP":
        assert np.array_equal(getattr(coflow, "_DP_" + name), getattr(RK45, name)), name


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_dopri_reproduces_scipy_rk45_bit_for_bit(convention):
    data = canonical_g2(convention)
    fun = _flow_fun(data)
    y0 = _start(3, data).ravel()
    ref = solve_ivp(fun, (0.0, 100.0), y0, method="RK45", rtol=1e-9, atol=1e-12)
    sol = coflow._dopri(fun, 0.0, y0, 100.0, 1e-9, 1e-12)
    assert sol.status == ref.status == 0
    assert sol.nfev == ref.nfev
    assert np.array_equal(sol.t, ref.t)
    assert np.array_equal(sol.y, ref.y.T)


def test_dopri_backward_ceiling_matches_scipy_event():
    fun = _flow_fun(DATA)
    y0 = _start(5, DATA).ravel()
    ceiling = 50.0

    def event(t, y):
        return float(np.linalg.norm(y)) - ceiling

    event.terminal = True
    ref = solve_ivp(
        fun, (0.0, -10.0), y0, method="RK45", rtol=1e-9, atol=1e-12, events=[event]
    )
    sol = coflow._dopri(fun, 0.0, y0, -10.0, 1e-9, 1e-12, event=event)
    assert ref.status == sol.status == 1
    assert sol.nfev == ref.nfev
    assert np.array_equal(sol.t[:-1], ref.t[:-1])
    assert abs(sol.t[-1] - ref.t[-1]) < 1e-12
    top, ref_top = np.linalg.norm(sol.y[-1]), np.linalg.norm(ref.y[:, -1])
    assert abs(top - ref_top) < 1e-12 * ceiling
    assert abs(top - ceiling) < 1e-10 * ceiling


@pytest.mark.parametrize("backward", [False, True])
def test_dopri_t_eval_matches_scipy_on_joint_rhs(backward):
    fixture = load_example("nilpotent3")
    data = canonical_g2(fixture["convention"])
    fun = lambda t, y: coflow._joint_rhs(y, data)  # noqa: E731
    y0 = np.concatenate([fixture["A"].ravel(), np.eye(7).ravel()])
    t_eval = np.concatenate([[0.0], np.sort(np.random.default_rng(1).uniform(0, 2, 15)), [2.0]])
    if backward:
        # the fixture's orbit (1 + 5t)^{-1/2} e^{sE} A e^{-sE} blows up at t = -1/5
        t_eval = -0.075 * t_eval
    ref = solve_ivp(
        fun, (0.0, t_eval[-1]), y0, method="RK45", rtol=1e-11, atol=1e-13, t_eval=t_eval
    )
    sol = coflow._dopri(fun, 0.0, y0, t_eval[-1], 1e-11, 1e-13, t_eval=t_eval)
    assert sol.status == ref.status == 0
    assert sol.nfev == ref.nfev
    assert np.array_equal(sol.t, t_eval)
    assert np.array_equal(sol.y[0], y0)
    rel = np.max(np.abs(sol.y - ref.y.T) / np.maximum(1.0, np.abs(ref.y.T)))
    assert rel < 1e-12


def test_batched_diagnostics_match_per_sample():
    trace = integrate(_start(21, DATA), IntegratorOptions(t_end=5.0), DATA)
    R, torsion_sq = _scalar_diagnostics_batch(trace.As, DATA)
    for i, A in enumerate(trace.As):
        diag = scalar_diagnostics(A, DATA)
        assert abs(R[i] - diag["R"]) <= 1e-13 * max(1.0, abs(diag["R"]))
        ref_t = diag["torsionNormSq"]
        assert abs(torsion_sq[i] - ref_t) <= 1e-13 * max(1.0, abs(ref_t))
    assert np.array_equal(trace.R, R)
    assert np.array_equal(trace.torsion_sq, torsion_sq)


def test_batched_diagnostics_gate_bookkeeping():
    # off sp(R^6) the torsion identity R = (1/4)(tr JA)^2 - |T|^2 fails
    A = rng.standard_normal((1, 6, 6))
    with pytest.raises(AssertionError):
        _scalar_diagnostics_batch(A, DATA)


def test_trace_csv_matches_per_element_writer(tmp_path):
    trace = integrate(_start(13, DATA), IntegratorOptions(t_end=1.0), DATA)
    As = trace.As.copy()
    As[0, 0, 0] = -0.0
    As[1, 0, 0] = 0.1 + 0.2  # needs all 17 significant digits
    As[2, 0, 0] = 1e-300
    trace = FlowTrace(
        ts=trace.ts, As=As, norm_sq=trace.norm_sq, R=trace.R,
        torsion_sq=trace.torsion_sq, steps=trace.steps, meta=trace.meta,
    )
    lines = [",".join(coflow._CSV_COLUMNS)]
    for i in range(len(trace.ts)):
        row = (
            [trace.ts[i]]
            + list(trace.As[i].ravel())
            + [trace.norm_sq[i], trace.R[i], trace.torsion_sq[i], trace.steps[i]]
        )
        lines.append(",".join(f"{x:.17g}" for x in row))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    text = path.read_text()
    assert text == "\n".join(lines) + "\n"
    assert ",-0," in text and "0.30000000000000004" in text


def test_package_import_leaves_scipy_integrate_out():
    src = str(Path(g2coflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, g2coflow.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.startswith(('scipy.integrate', 'scipy.optimize'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
