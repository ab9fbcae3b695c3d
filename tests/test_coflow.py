"""Bracket-flow integrator: monotonicity, reconstruction, trace persistence."""

import numpy as np
import pytest

from g2coflow import coflow
from g2coflow.almost_abelian import q_matrix, random_sp, random_su3, sp_check
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
        IntegratorOptions(min_step=1.0, max_step=0.5)
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


def test_pde_residuals_second_order():
    fixture = load_example("nilpotent3")
    data = canonical_g2(fixture["convention"])
    res = coflow_pde_residuals(
        fixture["A"], data, times=(0.5,), dts=(1e-2, 1e-3)
    )
    assert res[1e-2] < 1e-3
    assert res[1e-3] < res[1e-2] / 30.0
