"""End-to-end acceptance battery.

Ten criteria covering the full stack: contraction identities, the
Laplacian symbol oracle, torsion dual routes, curvature identities,
closed-form operators, long-horizon flow behaviour, the shipped example,
the skew sweep, the planar reduction, and the PDE reconstruction order.
Each test prints one summary line on success (visible with pytest -s);
a failure keeps the stated tolerance, never loosens it.
"""

import math
import time

import numpy as np
from scipy.integrate import solve_ivp

from g2coflow.almost_abelian import (
    q_matrix,
    random_sp,
    random_sp_skew,
    ricci_closed,
    torsion_forms,
    torsion_from_nabla_phi,
)
from g2coflow.coflow import (
    IntegratorOptions,
    coflow_pde_residuals,
    integrate,
    norm_derivative,
    rhs,
    scalar_bound_check,
)
from g2coflow.exterior import form_norm, theta
from g2coflow.g2 import (
    CONVENTIONS,
    assemble_4form,
    bianchi_defect,
    canonical_g2,
    identity_suite,
    laplacian_closed_form,
    lie_derivative_psi_decomposition,
)
from g2coflow.metric_lie import (
    covariant_derivative_tensor,
    curl_tensor,
    curvature_tensor,
    divergence_tensor,
    grad_trace,
    hodge_laplacian,
    invariant_vector_field,
    koszul_connection,
    lie_derivative_form,
    ricci_tensor,
)
from g2coflow.planar import (
    axis_solution,
    embedding_consistency,
    integrate_trajectory,
    log_abs_h,
)
from g2coflow.soliton import (
    algebraic_check,
    certify,
    load_example,
    self_similar_bracket,
    semi_algebraic_check,
    soliton_pde_check,
    symbol_terms,
)

DATA_S4 = canonical_g2("section4")
DATA_EX = canonical_g2("example")
BOTH = (DATA_S4, DATA_EX)

FIXTURE = load_example("nilpotent3")
FIX_DATA = canonical_g2(FIXTURE["convention"])


def test_criterion_01_contraction_identities():
    start = time.monotonic()
    for data in BOTH:
        report = identity_suite(data)
        for name, residual in report.items():
            assert residual < 1e-12, f"{data.convention}/{name}: {residual}"
        p, q = data.phi.dense(), data.psi.dense()
        assert np.einsum("abc,abc->", p, p) == 42.0
        assert np.einsum("abcd,abcd->", q, q) == 168.0
        assert np.array_equal(np.einsum("abj,abk->jk", p, p), 6.0 * np.eye(7))
        assert np.array_equal(np.einsum("abcj,abck->jk", q, q), 24.0 * np.eye(7))
        assert np.array_equal(np.einsum("ijq,ijkl->qkl", p, q), 4.0 * p)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"identity battery took {elapsed:.2f}s"
    print(f"criterion 1 PASS: identities < 1e-12, scalars exact, {elapsed:.2f}s")


def test_criterion_02_laplacian_symbol_oracle():
    start = time.monotonic()
    worst = 0.0
    for data in BOTH:
        rng = np.random.default_rng((1002, CONVENTIONS.index(data.convention)))
        for _ in range(50):
            A = random_sp(rng, data)
            gap = form_norm(
                theta(q_matrix(A, data), data.psi) - hodge_laplacian(data.psi, A)
            )
            worst = max(worst, gap)
    elapsed = time.monotonic() - start
    assert worst < 1e-10, worst
    assert elapsed < 10.0, f"symbol oracle took {elapsed:.2f}s"
    print(f"criterion 2 PASS: 100 samples, worst gap {worst:.3e}, {elapsed:.2f}s")


def test_criterion_03_torsion_dual_route():
    worst = 0.0
    for data in BOTH:
        rng = np.random.default_rng((1003, CONVENTIONS.index(data.convention)))
        for _ in range(500):
            A = random_sp(rng, data)
            T_closed = torsion_forms(A, data)
            T_direct, residual = torsion_from_nabla_phi(A, data)
            worst = max(worst, residual, float(np.max(np.abs(T_closed - T_direct))))
    assert worst < 1e-10, worst
    print(f"criterion 3 PASS: 1000 dual-route torsion checks, worst {worst:.3e}")


def test_criterion_04_curvature_identities():
    worst = {"div": 0.0, "curl_sym": 0.0, "ricci": 0.0, "bianchi": 0.0}
    for data in BOTH:
        rng = np.random.default_rng((1004, CONVENTIONS.index(data.convention)))
        for _ in range(50):
            A = random_sp(rng, data)
            T = torsion_forms(A, data)
            gamma = koszul_connection(A)
            nabla_T = covariant_derivative_tensor(T, gamma)
            div_T = divergence_tensor(T, gamma)
            worst["div"] = max(
                worst["div"], float(np.max(np.abs(div_T - grad_trace(nabla_T))))
            )
            curl_T = curl_tensor(T, gamma, data.phi.dense())
            worst["curl_sym"] = max(
                worst["curl_sym"], float(np.max(np.abs(curl_T - curl_T.T)))
            )
            ric, _ = ricci_closed(A, data)
            ric_direct = ricci_tensor(curvature_tensor(gamma, A))
            worst["ricci"] = max(
                worst["ricci"], float(np.max(np.abs(ric - ric_direct)))
            )
            worst["bianchi"] = max(
                worst["bianchi"], float(np.max(np.abs(bianchi_defect(T, A, data))))
            )
    for name, value in worst.items():
        assert value < 1e-10, f"{name}: {value}"
    print(
        "criterion 4 PASS: div/curl/ricci/bianchi worst "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    )


def test_criterion_05_closed_forms_vs_chevalley_eilenberg():
    worst_lap = 0.0
    worst_lie = 0.0
    for data in BOTH:
        rng = np.random.default_rng((1005, CONVENTIONS.index(data.convention)))
        for _ in range(50):
            A = random_sp(rng, data)
            T = torsion_forms(A, data)
            gamma = koszul_connection(A)
            curl_T = curl_tensor(T, gamma, data.phi.dense())
            div_T = divergence_tensor(T, gamma)
            lap = laplacian_closed_form(T, curl_T, div_T, data)
            gap = form_norm(assemble_4form(lap, data) - hodge_laplacian(data.psi, A))
            worst_lap = max(worst_lap, gap)
            Xv = rng.standard_normal(7)
            field = invariant_vector_field(Xv, gamma)
            dec = lie_derivative_psi_decomposition(field, T, data)
            lie = assemble_4form(dec, data)
            gap = form_norm(lie - lie_derivative_form(Xv, data.psi, A))
            worst_lie = max(worst_lie, gap)
    assert worst_lap < 1e-10, worst_lap
    assert worst_lie < 1e-10, worst_lie
    print(
        f"criterion 5 PASS: 100 samples, Laplacian {worst_lap:.3e}, "
        f"Lie derivative {worst_lie:.3e}"
    )


def test_criterion_06_long_horizon_flow():
    start = time.monotonic()
    dt = 1e-4
    worst_growth = -np.inf
    worst_fd = 0.0
    for seed in range(50):
        A0 = random_sp(np.random.default_rng((1006, seed)), DATA_S4)
        trace = integrate(A0, IntegratorOptions(t_end=100.0), DATA_S4)
        assert trace.meta["termination"] == "t_end"
        growth = float(np.max(np.diff(trace.norm_sq)))
        worst_growth = max(worst_growth, growth)
        assert growth <= 1e-9
        check = scalar_bound_check(trace)
        assert not check["skipped"]
        assert check["bound_ok"], check
        assert check["R_increasing"], check
        assert np.max(np.diff(trace.torsion_sq)) <= 1e-9
        # central difference of |A|^2 against the closed-form derivative
        sol = solve_ivp(
            lambda t, y: rhs(y.reshape(6, 6), DATA_S4).ravel(),
            (0.0, 1.0 + dt),
            A0.ravel(),
            method="RK45",
            rtol=1e-11,
            atol=1e-13,
            t_eval=[1.0 - dt, 1.0, 1.0 + dt],
        )
        assert sol.status == 0
        before, middle, after = (sol.y[:, k].reshape(6, 6) for k in range(3))
        fd = (np.sum(after**2) - np.sum(before**2)) / (2.0 * dt)
        closed = norm_derivative(middle, DATA_S4)
        rel = abs(fd - closed) / max(1.0, abs(closed))
        worst_fd = max(worst_fd, rel)
        assert rel < 1e-4, rel
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"long-horizon battery took {elapsed:.1f}s"
    print(
        f"criterion 6 PASS: 50 brackets to t=100, max growth {worst_growth:.2e}, "
        f"worst fd gap {worst_fd:.2e}, {elapsed:.1f}s"
    )


def test_criterion_07_shipped_example():
    A = FIXTURE["A"]
    D = FIXTURE["D"]
    sym = symbol_terms(A, FIX_DATA)
    _, _, _, c, d = sym
    assert abs(c + 2.5) < 1e-12
    assert abs(d - 1.0) < 1e-12
    ok, residuals = semi_algebraic_check(sym, FIXTURE["D1"])
    assert ok, residuals
    alg_res, alg_D, _ = algebraic_check(sym)
    assert alg_D is None and alg_res > 1.0
    pde = soliton_pde_check(sym, D, FIX_DATA)
    assert pde < 1e-10, pde
    trace = integrate(
        A, IntegratorOptions(t_end=10.0, rel_tol=1e-11, abs_tol=1e-13), FIX_DATA
    )
    worst = 0.0
    for t, At in zip(trace.ts, trace.As):
        closed = self_similar_bracket(A, D, c, t)
        worst = max(
            worst, float(np.max(np.abs(At - closed)) / np.max(np.abs(closed)))
        )
    assert worst < 1e-6, worst
    print(
        f"criterion 7 PASS: c={c:g}, d={d:g}, lambda={-4*c:g}, pde {pde:.2e}, "
        f"orbit rel gap {worst:.2e}"
    )


def test_criterion_08_skew_sweep():
    # a skew bracket has c = -(1/4)(tr JA)^2 = -|T|^2, so it is steady
    # exactly when torsion-free; the identity is checked on every sample
    rng = np.random.default_rng(1008)
    worst = 0.0
    for _ in range(500):
        A = random_sp_skew(rng, DATA_S4)
        report = certify(A, DATA_S4)
        assert report.kind == "algebraic"
        assert report.c <= 1e-10
        T = torsion_forms(A, DATA_S4)
        worst = max(worst, abs(report.c + float(np.sum(T * T))))
    assert worst < 1e-12, worst
    print(
        f"criterion 8 PASS: 500 skew brackets all algebraic, c = -|T|^2 to {worst:.2e}"
    )


def test_criterion_09_planar_reduction():
    xs = np.linspace(-5.0, 5.0, 401)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    S = X + Y
    DX = -2.0 * X * (3.0 * X - Y) * S
    DY = 2.0 * Y * (X - 3.0 * Y) * S
    VDOT = -2.0 * S**2 * (6.0 * X**2 - 4.0 * X * Y + 6.0 * Y**2)
    mask = np.abs(S) < 1e-12
    assert np.all(VDOT <= 0.0)
    assert np.all(np.abs(VDOT[mask]) < 1e-24)
    assert np.all(VDOT[~mask] < -1e-7)
    # equilibria are exactly the antidiagonal
    speed = np.maximum(np.abs(DX), np.abs(DY))
    assert np.all(speed[mask] < 1e-12)
    assert np.all(speed[~mask] > 1e-6)
    # conserved quantity along 20 trajectories
    rng = np.random.default_rng(1009)
    done = 0
    worst_drift = 0.0
    while done < 20:
        x0, y0 = rng.uniform(0.5, 2.0, size=2)
        if abs(x0 - y0) < 0.05:
            continue
        ts, xs_t, ys_t = integrate_trajectory(x0, y0, 5.0)
        values = [log_abs_h(x, y) for x, y in zip(xs_t, ys_t)]
        drift = max(abs(v - values[0]) for v in values)
        worst_drift = max(worst_drift, drift)
        assert drift < 1e-6, (x0, y0, drift)
        done += 1
    # axis orbit: invariance and the closed form
    ts, xs_t, ys_t = integrate_trajectory(1.0, 0.0, 5.0, rel_tol=1e-11, abs_tol=1e-13)
    assert np.max(np.abs(ys_t)) < 1e-10
    expected = axis_solution(1.0, ts)
    rel = np.max(np.abs(xs_t - expected) / np.abs(expected))
    assert rel < 1e-6
    assert np.max(np.abs(expected - (1.0 + 12.0 * ts) ** -0.5)) < 1e-15
    # the bracket embedding runs the same orbits at one quarter speed
    for x0, y0 in ((1.0, 0.5), (0.8, -0.3)):
        report = embedding_consistency(x0, y0, DATA_EX)
        assert report["off_family"] == 0.0
        assert report["residual"] < 1e-12
        assert abs(report["factor"] - 0.25) < 1e-12
    print(
        f"criterion 9 PASS: grid descent, equilibria = antidiagonal, "
        f"H drift {worst_drift:.2e}, axis closed form rel {rel:.2e}, factor 1/4"
    )


def test_criterion_10_pde_reconstruction_order():
    res = coflow_pde_residuals(
        FIXTURE["A"], FIX_DATA, times=(0.5, 1.5), dts=(1e-2, 1e-3, 1e-4)
    )
    assert res[1e-2] < 1e-3
    assert res[1e-3] < res[1e-2] / 50.0
    assert res[1e-4] < res[1e-3] / 50.0
    print(
        "criterion 10 PASS: residuals "
        + ", ".join(f"{dt:g}: {r:.3e}" for dt, r in sorted(res.items()))
    )
