"""Bracket-flow integrator: monotonicity, reconstruction, trace persistence."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import RK45, solve_ivp

import g2coflow
from g2coflow import almost_abelian, coflow, planar
from g2coflow.almost_abelian import (
    _symbol_evaluator,
    q_matrix,
    random_sp,
    random_su3,
    scalar_diagnostics,
    sp_check,
    torsion_forms,
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
from g2coflow.soliton import certify, load_example
from test_almost_abelian import _symbol_inputs

rng = np.random.default_rng(20240820)
DATA = canonical_g2("section4")


def test_options_validation():
    for bad in (
        dict(t_end=math.nan),
        dict(t_end=math.inf),
        dict(rel_tol=math.nan),
        dict(abs_tol=math.inf),
        dict(sp_drift_tol=math.nan),
        dict(max_step=math.nan),
        dict(norm_ceiling=math.nan),
    ):
        with pytest.raises(ValueError):
            IntegratorOptions(**bad)
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


def _stacked(As, data):
    """The stacked symbol (Qh, q) and right-hand side of a (n, 6, 6) stack."""
    Qh, q = _symbol_evaluator(data, len(As))(As.reshape(-1, 36))
    F = np.empty_like(As)
    coflow._bracket_rhs(As, Qh, q, F, np.empty_like(As))
    return Qh, q, F


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_stacked_symbol_and_rhs_match_per_bracket(convention):
    data = canonical_g2(convention)
    As = np.array([3.0 * random_sp(rng, data) for _ in range(40)])
    Qh, q, F = _stacked(As, data)
    assert Qh.shape == F.shape == As.shape and q.shape == (len(As), 1, 1)
    for i, A in enumerate(As):
        Qh_i, q_i = _symbol_evaluator(data)(A.ravel())
        w_i = np.append(Qh_i, q_i)
        w_stack = np.append(Qh[i], q[i])
        assert np.max(np.abs(w_stack - w_i)) <= 1e-15 * np.max(np.abs(w_i))
        F_i = rhs(A, data)
        assert np.max(np.abs(F[i] - F_i)) <= 1e-15 * np.max(np.abs(F_i))
        # a 1-row stack keeps the single bracket's bits
        Qh1, q1, F1 = _stacked(A[None], data)
        assert Qh1[0].tobytes() == Qh_i.tobytes()
        assert q1.item() == q_i
        assert F1[0].tobytes() == F_i.tobytes()


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_write_into_rhs_equal_the_allocating_block_formula(convention):
    """On the symbol's test inputs (signed zeros, planar-axis starts and the
    fixture among them), the bound right-hand side and rhs (on the inputs in
    sp(R^6)) write A Qh - Qh A + q A as allocating products give it."""
    data = canonical_g2(convention)
    flow = coflow._flow_rhs(data)
    K = np.empty((3, 36))  # rows of a stage matrix, as _dopri passes them
    for A in _symbol_inputs(data, np.random.default_rng(20261021)):
        Qh, q = _symbol_evaluator(data)(A.ravel())
        dA = (A @ Qh - Qh @ A + q * A).ravel()
        flow(0.0, A.ravel(), K[2])
        assert np.array_equal(K[2], dA)
        if sp_check(A, data)[0]:
            assert np.array_equal(rhs(A, data).ravel(), dA)


def _rhs_starts(data):
    """Random |A| = 4 brackets; in the example convention also the
    nilpotent3 fixture and the planar-axis start embed(1.5, 0)."""
    starts = [_start(seed, data) for seed in range(3)]
    if data.convention == "example":
        starts += [load_example("nilpotent3")["A"], planar.embed(1.5, 0.0)]
    return starts


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_bound_rhs_is_rhs_byte_for_byte(convention):
    """The bound right-hand side writes rhs's bytes, which are those of
    A Qh - Qh A + q A from allocating ndarray.dot products on a fresh
    symbol, and keeps neither y nor out: y1, y2 and y1 again, as three
    arrays or through one reused buffer (as the stepper's stage argument),
    into different rows, give the first bytes again and leave the earlier
    rows be."""
    data = canonical_g2(convention)
    fun = coflow._flow_rhs(data)
    K = np.empty((7, 36))
    arg = np.empty(36)
    starts = _rhs_starts(data)
    for A in starts:
        fun(0.0, A.ravel(), K[1])
        Qh, q = _symbol_evaluator(data)(A.ravel())
        assert K[1].tobytes() == (A.dot(Qh) - Qh.dot(A) + q * A).tobytes()
        assert K[1].tobytes() == rhs(A, data).tobytes()
    for y1, y2 in zip(starts, starts[1:]):
        for reuse in (False, True):
            for row, A in zip((2, 3, 4), (y1, y2, y1)):
                y = A.ravel().copy()
                if reuse:
                    arg[:] = y
                fun(0.0, arg if reuse else y, K[row])
            assert K[2].tobytes() == K[4].tobytes() == rhs(y1, data).tobytes()
            assert K[3].tobytes() == rhs(y2, data).tobytes()


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_stack_symbol_is_the_dot_route_bit_for_bit(convention):
    """A stack evaluation makes np.dot's products on the same operands: the
    route of the unbound evaluation, z = vec(A) P^t, one einsum outer
    product and w = (z (x) z) M^t, gives the same bits."""
    data = canonical_g2(convention)
    P, M = data._symbol_quadratic
    opts = IntegratorOptions(t_end=10.0)
    As = np.concatenate([integrate(A0, opts, data).As for A0 in _rhs_starts(data)])
    n = len(As)
    z = np.dot(As.reshape(n, 36), P.T)
    w = np.dot(np.einsum("ni,nj->nij", z, z).reshape(n, 441), M.T)
    Qh, q = _symbol_evaluator(data, n)(As.reshape(n, 36))
    assert Qh.shape == (n, 6, 6) and q.shape == (n, 1, 1)
    assert Qh.tobytes() == w[:, :36].tobytes()
    assert q.tobytes() == w[:, 36:].tobytes()


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("backward", [False, True])
def test_integrate_reproduces_scipy_rk45_on_public_rhs(convention, backward):
    data = canonical_g2(convention)
    A0 = _start(5, data)

    def fun(t, y):
        return rhs(y.reshape(6, 6), data).ravel()

    if backward:
        opts = IntegratorOptions(t_end=10.0, direction="backward", norm_ceiling=50.0)

        def event(t, y):
            return float(np.linalg.norm(y)) - 50.0

        event.terminal = True
        span, events = (0.0, -10.0), [event]
    else:
        opts = IntegratorOptions(t_end=100.0)
        span, events = (0.0, 100.0), None
    ref = solve_ivp(
        fun, span, A0.ravel(), method="RK45", rtol=1e-9, atol=1e-12, events=events
    )
    trace = integrate(A0, opts, data)
    assert trace.meta["nfev"] == ref.nfev
    ts, ys = trace.ts, trace.As.reshape(-1, 36)
    ref_t, ref_y = ref.t, ref.y.T
    if backward:
        assert trace.meta["termination"] == "norm_ceiling" and ref.status == 1
        # time-ascending trace; the event-located end sample comes from a
        # different root finder and is compared in the _dopri event test
        ts, ys = ts[::-1][:-1], ys[::-1][:-1]
        ref_t, ref_y = ref_t[:-1], ref_y[:-1]
    assert np.array_equal(ts, ref_t)
    assert np.array_equal(ys, ref_y)


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
        assert np.max(np.diff(trace.torsion_sq)) <= 1e-9
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


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_non_finite_sample_is_named(monkeypatch, direction):
    """The drift of a NaN sample is NaN, which no `drift > tol` catches; the
    gate reads it as over tolerance and names the state as non-finite."""
    dopri = coflow._dopri
    runs = []

    def overflowing(*args, **kwargs):
        runs.append(dopri(*args, **kwargs))
        runs[-1].y[3:, 5] = np.nan
        runs[-1].y[5:, 7] = np.inf
        return runs[-1]

    monkeypatch.setattr(coflow, "_dopri", overflowing)
    opts = IntegratorOptions(t_end=1.0, direction=direction, norm_ceiling=50.0)
    with pytest.raises(IntegrationError) as err:
        integrate(_start(5, DATA), opts, DATA)
    t = runs[0].t[3]
    assert str(err.value) == f"the state became non-finite (overflow) at t = {t:.6g}"


def test_drift_gate_raises():
    A0 = random_sp(np.random.default_rng(9), DATA)
    opts = IntegratorOptions(t_end=1.0, sp_drift_tol=1e-17)
    with pytest.raises(IntegrationError):
        integrate(A0, opts, DATA)


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_drift_gate_names_first_sample_over_tolerance(direction):
    fixture = load_example("nilpotent3")
    data = canonical_g2(fixture["convention"])
    A0 = np.asarray(fixture["A"], dtype=float)
    # the gate only reads the samples, so a default-tolerance run takes the
    # same steps; its drift is recomputed here by matrix products
    trace = integrate(A0, IntegratorOptions(direction=direction), data)
    order = slice(None, None, -1) if direction == "backward" else slice(None)
    ts, As = trace.ts[order], trace.As[order]  # in integration order
    drift = np.max(np.abs(As @ data.J + data.J @ np.swapaxes(As, 1, 2)), axis=(1, 2))
    first = int(np.flatnonzero(drift > 1e-17)[0])
    assert first > 0  # the fixture starts exactly in sp(R^6)
    opts = IntegratorOptions(direction=direction, sp_drift_tol=1e-17)
    with pytest.raises(IntegrationError) as err:
        integrate(A0, opts, data)
    message = str(err.value)
    assert message.endswith(f"exceeded 1e-17 at t = {ts[first]:.6g}")
    assert message.startswith(f"symplectic drift {drift[first]:.3e}")


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


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("backward", [False, True])
def test_meta_counts_every_step(convention, backward):
    """nfev = 2 + 6 (accepted + rejected): the start, the initial-step
    probe and six evaluations per attempted step."""
    data = canonical_g2(convention)
    if backward:
        opts = IntegratorOptions(t_end=10.0, direction="backward", norm_ceiling=1e4)
    else:
        opts = IntegratorOptions(t_end=100.0)
    rejected = 0
    for seed in range(3):
        meta = integrate(_start(seed, data), opts, data).meta
        assert meta["nfev"] == 2 + 6 * (meta["samples"] - 1 + meta["rejected_steps"])
        rejected += meta["rejected_steps"]
    if backward:
        assert rejected > 0


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
    """Reference: the per-sample solve and maxima, anchored where the trace
    starts (t = 0)."""
    A0 = trace.As[-1 if trace.meta["options"]["direction"] == "backward" else 0]
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
    backward = integrate(
        fixture["A"], IntegratorOptions(direction="backward", norm_ceiling=10.0), data
    )
    hs = reconstruct_h(backward, data)
    assert reconstruction_gap(backward, hs) == reconstruction_gap_loop(backward, hs)


def h_on_steps_loop(ts, As, data):
    """Reference: h on the accepted steps with h carried as a full 7x7
    matrix, the stage propagators H = I + dt sum_j a_j dH_j with
    dH/dt = -Q H, and h the running product of the 7x7 propagators."""
    dt = np.diff(ts)[:, None, None]
    n = len(dt)
    symbol = _symbol_evaluator(data, n)
    dA = np.empty((6, n, 6, 6))
    dH = np.empty((6, n, 7, 7))
    Q = np.zeros((n, 7, 7))
    tmp = np.empty((n, 6, 6))
    eye = np.eye(7)
    for s in range(6):
        a = coflow._DP_A[s, :s]
        arg = As[:-1] + dt * np.tensordot(a, dA[:s], 1)
        Q[:, :6, :6], Q[:, 6:, 6:] = symbol(arg.reshape(n, 36))
        coflow._bracket_rhs(arg, Q[:, :6, :6], Q[:, 6:, 6:], dA[s], tmp)
        H = eye + dt * np.tensordot(a, dH[:s], 1)
        np.negative(np.matmul(Q, H, dH[s]), dH[s])
    hs = np.empty((n + 1, 7, 7))
    hs[0] = eye
    for i, H in enumerate(eye + dt * np.tensordot(coflow._DP_B, dH, 1)):
        np.dot(H, hs[i], hs[i + 1])
    return hs


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_block_h_matches_the_full_stage_loop(convention):
    """The block form carries k and a apart; it equals the 7x7 loop to
    rounding (BLAS sums the last entries of a vector in another order, so
    bits can differ where the two layouts put an entry there), and its
    off-block entries are exact zeros."""
    data = canonical_g2(convention)
    starts = [_start(seed, data) for seed in range(2)]
    fixture = load_example("nilpotent3")
    if fixture["convention"] == convention:
        starts.append(fixture["A"])
    for opts in (
        IntegratorOptions(t_end=100.0),
        IntegratorOptions(direction="backward", norm_ceiling=1e4),
    ):
        for A0 in starts:
            trace = integrate(A0, opts, data)
            ts, As = trace.ts, trace.As
            if opts.direction == "backward":
                ts, As = ts[::-1], As[::-1]
            hs = coflow._h_on_steps(ts, As, data)
            ref = h_on_steps_loop(ts, As, data)
            scale = np.max(np.abs(ref), axis=(1, 2))
            assert np.max(np.max(np.abs(hs - ref), axis=(1, 2)) / scale) < 1e-15
            assert not np.any(hs[:, :6, 6]) and not np.any(hs[:, 6, :6])


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_reconstruction_gap_on_backward_traces(convention):
    """A backward trace starts (h = I) at its last sample, t = 0."""
    data = canonical_g2(convention)
    opts = IntegratorOptions(direction="backward", norm_ceiling=10.0)
    for seed in range(3):
        trace = integrate(_start(seed, data), opts, data)
        assert trace.meta["termination"] == "norm_ceiling"
        hs = reconstruct_h(trace, data)
        assert np.max(np.abs(hs[-1] - np.eye(7))) == 0.0
        assert reconstruction_gap(trace, hs) < 1e-7


def _joint_reference(trace, data, rtol=1e-13, atol=1e-15):
    """h on the trace's samples from scipy's DOP853 on the joint flow of
    (A, h), built from the public rhs and q_matrix."""

    def fun(t, y):
        A = y[:36].reshape(6, 6)
        dh = -q_matrix(A, data) @ y[36:].reshape(7, 7)
        return np.concatenate([rhs(A, data).ravel(), dh.ravel()])

    y0 = np.concatenate([trace.As[0].ravel(), np.eye(7).ravel()])
    ref = solve_ivp(
        fun, (0.0, trace.ts[-1]), y0, method="DOP853", rtol=rtol, atol=atol,
        t_eval=trace.ts,
    )
    assert ref.status == 0
    return ref.y[36:].T.reshape(-1, 7, 7)


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_reconstruct_h_matches_scipy_dop853(convention):
    data = canonical_g2(convention)
    opts = IntegratorOptions(t_end=100.0)
    for seed in range(3):
        trace = integrate(_start(seed, data), opts, data)
        hs = reconstruct_h(trace, data)
        ref = _joint_reference(trace, data)
        scale = np.maximum(1.0, np.max(np.abs(ref), axis=(1, 2)))
        err = np.max(np.abs(hs - ref), axis=(1, 2)) / scale
        assert np.max(err) < 10 * opts.rel_tol, np.max(err)


def test_pde_residuals_fall_a_hundredfold_per_decade():
    """h is taken at step ends, so the residual is the central difference's
    own O(dt^2) error on all three decades."""
    fixture = load_example("nilpotent3")
    data = canonical_g2(fixture["convention"])
    res = coflow_pde_residuals(
        fixture["A"], data, times=(0.5, 1.5), dts=(1e-2, 1e-3, 1e-4)
    )
    for big, small in ((1e-2, 1e-3), (1e-3, 1e-4)):
        assert 95.0 <= res[big] / res[small] <= 105.0, res


def test_pde_residuals_integrate_in_one_pass(monkeypatch):
    """One run with stops on the needed times takes fewer right-hand sides
    than the runs that each end on one of them, each restarting step
    control."""
    fixture = load_example("nilpotent3")
    data = canonical_g2(fixture["convention"])
    times, dts = (0.5, 1.5), (1e-2, 1e-3, 1e-4)
    calls = []
    flow_rhs = coflow._flow_rhs

    def counting(data):
        fun = flow_rhs(data)

        def counted(t, y, out):
            calls.append(t)
            fun(t, y, out)

        return counted

    monkeypatch.setattr(coflow, "_flow_rhs", counting)
    coflow_pde_residuals(fixture["A"], data, times=times, dts=dts)
    one_pass = len(calls)
    needed = sorted({t + s * dt for t in times for dt in dts for s in (-1, 0, 1)})
    fun = coflow._flow_rhs(data)
    calls.clear()
    t, y = 0.0, fixture["A"].ravel()
    for t_end in needed:
        sol = coflow._dopri(fun, t, y, t_end, 1e-12, 1e-14)
        t, y = sol.t[-1], sol.y[-1]
    assert 0 < one_pass < len(calls)


def test_pde_run_takes_no_sliver_step(monkeypatch):
    """A step that t + 1.01 h would carry past a stop ends on the stop
    (Hairer's rule), so the fixture's run takes no step shorter than min(dts)
    up to the rounding of the stop times; its last free step used to leave
    a 1.1e-15 step to the stop at 1.51."""
    fixture = load_example("nilpotent3")
    data = canonical_g2(fixture["convention"])
    dts = (1e-2, 1e-3, 1e-4)
    runs = []
    dopri = coflow._dopri

    def recorded(*args, **kwargs):
        runs.append(dopri(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(coflow, "_dopri", recorded)
    coflow_pde_residuals(fixture["A"], data, times=(0.5, 1.5), dts=dts)
    assert len(runs) == 1
    assert np.diff(runs[0].t).min() >= min(dts) * (1 - 1e-9)


@pytest.mark.parametrize(
    "times, dts",
    [
        ((math.inf,), (1e-2,)),
        ((math.nan,), (1e-2,)),
        ((0.5,), (math.nan,)),
        ((0.5,), (0.0,)),
        ((0.5,), (-1e-3,)),
        ((0.5,), ()),
        ((), (1e-2,)),
        ((0.5, 1e-2), (1e-2, 1e-3)),
    ],
    ids=[
        "inf-time", "nan-time", "nan-dt", "zero-dt", "negative-dt", "no-dts", "no-times",
        "time-at-dt",
    ],
)
def test_pde_residuals_reject_bad_grids(monkeypatch, times, dts):
    fixture = load_example("nilpotent3")
    data = canonical_g2(fixture["convention"])

    def no_integration(*args, **kwargs):
        raise AssertionError("integrated a bad grid")

    monkeypatch.setattr(coflow, "_dopri", no_integration)
    with pytest.raises(ValueError):
        coflow_pde_residuals(fixture["A"], data, times=times, dts=dts)


def test_pde_residuals_second_order():
    fixture = load_example("nilpotent3")
    data = canonical_g2(fixture["convention"])
    res = coflow_pde_residuals(
        fixture["A"], data, times=(0.5,), dts=(1e-2, 1e-3)
    )
    assert res[1e-2] < 1e-3
    assert res[1e-3] < res[1e-2] / 30.0


def test_pde_residuals_take_one_laplacian_per_time(monkeypatch):
    fixture = load_example("nilpotent3")
    data = canonical_g2(fixture["convention"])
    calls = []
    laplacian = coflow.hodge_laplacian

    def counted(*args, **kwargs):
        calls.append(args)
        return laplacian(*args, **kwargs)

    monkeypatch.setattr(coflow, "hodge_laplacian", counted)
    res = coflow_pde_residuals(
        fixture["A"], data, times=(0.5, 1.5), dts=(1e-2, 1e-3, 1e-4)
    )
    assert sorted(res) == [1e-4, 1e-3, 1e-2]
    assert len(calls) == 2


def test_pde_residuals_keep_nan(monkeypatch):
    fixture = load_example("nilpotent3")
    data = canonical_g2(fixture["convention"])
    monkeypatch.setattr(coflow, "form_norm", lambda form: math.nan)
    res = coflow_pde_residuals(fixture["A"], data, times=(0.5,), dts=(1e-2,))
    assert math.isnan(res[1e-2])


def _allocating(fun):
    """fun(t, y) for scipy from a write-into fun(t, y, out)."""

    def alloc(t, y):
        out = np.empty_like(y)
        fun(t, y, out)
        return out

    return alloc


def _start(seed, data, norm=4.0):
    A0 = random_sp(np.random.default_rng(seed), data)
    return A0 * (norm / np.linalg.norm(A0))


def test_tableau_is_scipy_rk45():
    for name in "ABCEP":
        assert np.array_equal(getattr(coflow, "_DP_" + name), getattr(RK45, name)), name


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_dopri_reproduces_scipy_rk45_bit_for_bit(convention):
    """At the flow's default tolerances and the orbit check's, forward and
    backward (from |A| = 1: from |A| = 4 the flow blows up by t = -0.045;
    to t = -0.01 in two steps, to t = -0.5 in tens of steps)."""
    data = canonical_g2(convention)
    fun = coflow._flow_rhs(data)
    for t_bound, norm in ((100.0, 4.0), (-0.01, 1.0), (-0.5, 1.0)):
        y0 = _start(3, data, norm).ravel()
        for rtol, atol in ((1e-9, 1e-12), (1e-11, 1e-13)):
            ref = solve_ivp(
                _allocating(fun), (0.0, t_bound), y0, "RK45", rtol=rtol, atol=atol
            )
            sol = coflow._dopri(fun, 0.0, y0, t_bound, rtol, atol)
            assert sol.status == ref.status == 0
            assert sol.nfev == ref.nfev
            assert np.array_equal(sol.t, ref.t)
            assert np.array_equal(sol.y, ref.y.T)


@pytest.mark.parametrize("direction", [1.0, -1.0])
def test_dopri_ends_steps_on_every_stop(direction):
    """Each stop is a sample, exactly, in one pass: nfev = 2 + 6 (accepted
    + rejected) counts one start and one initial-step probe."""
    fun = coflow._flow_rhs(DATA)
    y0 = _start(5, DATA, norm=1.0).ravel()  # from |A| = 4 it blows up by t = -0.045
    stops = [direction * x for x in (1e-3, 1e-3 + 1e-4, 0.01, 0.03, 0.031, 0.05)]
    t_bound = stops[-1]
    sol = coflow._dopri(fun, 0.0, y0, t_bound, 1e-9, 1e-12, stops=stops)
    assert sol.status == 0
    assert sol.nfev == 2 + 6 * (len(sol.t) - 1 + sol.rejected)
    assert np.all(direction * np.diff(sol.t) > 0)
    assert set(stops) <= set(sol.t.tolist())
    free = coflow._dopri(fun, 0.0, y0, t_bound, 1e-9, 1e-12)
    assert not set(stops[:-1]) <= set(free.t.tolist())


def test_dopri_ends_on_a_nan_step():
    calls = 0

    def fun(t, y, out):
        nonlocal calls
        calls += 1
        if calls > 1000:
            raise RuntimeError("the stepper kept stepping with a NaN step")
        out[:] = np.nan

    sol = coflow._dopri(fun, 0.0, np.array([1.0]), 1.0, 1e-9, 1e-12)
    assert sol.status == -1
    assert sol.nfev == calls <= 10


def test_initial_step_when_the_derivative_norm_overflows():
    # |f0 / scale| squared overflows, so d1 = inf and h0 = 0; as with numpy's
    # float division, d2 = inf and the first step is 0 (the stepper then
    # starts from its ten-ulp floor) instead of a ZeroDivisionError
    y0 = np.full(2, 1e150)
    f0 = np.full(2, 1e300)

    def fun(t, y, out):
        out[:] = f0

    with np.errstate(over="ignore"):
        h = coflow._initial_step(fun, 0.0, y0, f0, 1.0, np.inf, 1.0, 1e-9, 1e-12)
    assert h == 0.0


def test_dopri_backward_ceiling_matches_scipy_event():
    fun = coflow._flow_rhs(DATA)
    y0 = _start(5, DATA).ravel()
    ceiling = 50.0

    def event(t, y):
        return float(np.linalg.norm(y)) - ceiling

    event.terminal = True
    ref = solve_ivp(
        _allocating(fun), (0.0, -10.0), y0, method="RK45", rtol=1e-9, atol=1e-12,
        events=[event],
    )
    sol = coflow._dopri(fun, 0.0, y0, -10.0, 1e-9, 1e-12, event=event)
    assert ref.status == sol.status == 1
    assert sol.nfev == ref.nfev
    assert np.array_equal(sol.t[:-1], ref.t[:-1])
    assert abs(sol.t[-1] - ref.t[-1]) < 1e-12
    top, ref_top = np.linalg.norm(sol.y[-1]), np.linalg.norm(ref.y[:, -1])
    assert abs(top - ref_top) < 1e-12 * ceiling
    assert abs(top - ceiling) < 1e-10 * ceiling


def test_event_root_equals_per_point_interpolation(monkeypatch):
    """_event_root forms the step's dense-output coefficients once; its
    root and the end sample equal, bit for bit, a bisection that forms the
    interpolant afresh at every point."""
    fun = coflow._flow_rhs(DATA)
    stage = {}

    def recording(t, y, out):
        stage["K"] = out.base  # out is a row of the stepper's stage matrix
        fun(t, y, out)

    roots = []

    def recording_root(*args):
        roots.append(args)
        return event_root(*args)

    event_root = coflow._event_root
    monkeypatch.setattr(coflow, "_event_root", recording_root)
    ceiling = 50.0

    def event(t, y):
        return math.sqrt(y.dot(y)) - ceiling

    y0 = _start(5, DATA).ravel()
    sol = coflow._dopri(recording, 0.0, y0, -10.0, 1e-9, 1e-12, event=event)
    assert sol.status == 1 and len(roots) == 1
    _, _, t_old, t_new, y_old, g_old = roots[0]
    K = stage["K"]  # the event step's stages: the run ends on that step

    def interpolate(t):
        return coflow._interpolate(K.T @ coflow._DP_P, t_old, t_new - t_old, y_old, t)

    a, b, ga = t_old, t_new, g_old
    evaluations = 0
    while (m := 0.5 * (a + b)) not in (a, b):
        gm = event(m, interpolate(m))
        evaluations += 1
        if (ga <= 0) == (gm <= 0):
            a, ga = m, gm
        else:
            b = m
    assert evaluations > 10
    assert sol.t[-1] == b
    assert sol.y[-1].tobytes() == interpolate(b).tobytes()


def test_workspaces_keep_nothing_between_runs(tmp_path):
    """One integrate run twice in a process, with a reconstruct_h and a
    soliton certificate between, writes the same trace and sidecar bytes,
    forward and backward."""
    A0 = _start(7, DATA)
    fixture = load_example("nilpotent3")
    data_ex = canonical_g2(fixture["convention"])
    for opts in (
        IntegratorOptions(t_end=20.0),
        IntegratorOptions(t_end=10.0, direction="backward", norm_ceiling=1e3),
    ):
        written = []
        for run in range(2):
            path = tmp_path / f"{opts.direction}{run}.csv"
            write_trace_csv(integrate(A0, opts, DATA), str(path))
            meta = path.with_suffix(".meta.json")
            written.append((path.read_bytes(), meta.read_bytes()))
            if run == 0:
                orbit = integrate(fixture["A"], IntegratorOptions(t_end=1.0), data_ex)
                reconstruct_h(orbit, data_ex)
                certify(random_sp(np.random.default_rng(3), DATA), DATA)
        assert written[0] == written[1]


def test_stepper_makes_no_deprecated_numpy_call():
    """Every warning is an error here, so a deprecated call (such as
    np.maximum with a positional out) fails the run."""
    fixture = load_example("nilpotent3")
    data_ex = canonical_g2(fixture["convention"])
    y0 = _start(5, DATA).ravel()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coflow._dopri(coflow._flow_rhs(DATA), 0.0, y0, 5.0, 1e-9, 1e-12)
        sol = coflow._dopri(
            coflow._flow_rhs(DATA), 0.0, y0, -10.0, 1e-9, 1e-12,
            event=lambda t, y: math.sqrt(y.dot(y)) - 50.0,
        )
        assert sol.status == 1
        orbit = integrate(
            fixture["A"],
            IntegratorOptions(t_end=1.0, rel_tol=1e-11, abs_tol=1e-13),
            data_ex,
        )
        reconstruct_h(orbit, data_ex)
        coflow_pde_residuals(fixture["A"], data_ex, times=(0.5,), dts=(1e-2,))


def test_batched_diagnostics_match_per_sample():
    trace = integrate(_start(21, DATA), IntegratorOptions(t_end=5.0), DATA)
    diag = scalar_diagnostics(trace.As, DATA)
    for i, A in enumerate(trace.As):
        # references by matrix products: R = -tr S^2, |T|^2 from torsion_forms
        S = 0.5 * (A + A.T)
        T = torsion_forms(A, DATA).T
        ref = {
            "R": -np.trace(S @ S),
            "torsionNormSq": np.sum(T * T),
            "trJA": np.trace(DATA.J @ A),
            "trSSq": np.trace(S @ S),
            "normSq": np.sum(A * A),
        }
        one = scalar_diagnostics(A[None], DATA)
        for key, value in ref.items():
            assert abs(diag[key][i] - value) <= 1e-13 * max(1.0, abs(value))
            assert abs(one[key][0] - value) <= 1e-13 * max(1.0, abs(value))
    assert np.array_equal(trace.R, diag["R"])
    assert np.array_equal(trace.torsion_sq, diag["torsionNormSq"])
    assert np.array_equal(trace.norm_sq, diag["normSq"])


def test_integrate_reads_diagnostics_once_through_coflow_binding(monkeypatch):
    # the benchmark's almost_abelian.scalar_diagnostics.calls counts this call
    assert coflow.scalar_diagnostics is almost_abelian.scalar_diagnostics
    assert "scalar_diagnostics" in almost_abelian.__all__
    calls = []
    inner = coflow.scalar_diagnostics

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(coflow, "scalar_diagnostics", counted)
    for direction in ("forward", "backward"):
        options = IntegratorOptions(t_end=1.0, direction=direction)
        calls.clear()
        integrate(_start(21, DATA), options, DATA)
        assert len(calls) == 1


def test_batched_diagnostics_gate_bookkeeping():
    # off sp(R^6) the torsion identity R = (1/4)(tr JA)^2 - |T|^2 fails
    A = rng.standard_normal((1, 6, 6))
    with pytest.raises(AssertionError):
        scalar_diagnostics(A, DATA)


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


def test_package_import_leaves_scipy_out():
    src = str(Path(g2coflow.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    # The process pool (and with it multiprocessing) loads only for --jobs > 1.
    code = (
        "import sys, g2coflow.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'multiprocessing')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
