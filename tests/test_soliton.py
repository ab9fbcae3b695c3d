"""Soliton certification: constants, derivation search, orbits, audits."""

import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

from g2coflow.almost_abelian import (
    q_matrix,
    random_sp,
    random_sp_skew,
    random_su3,
    torsion_forms,
)
from g2coflow.coflow import IntegratorOptions, integrate
from g2coflow.g2 import CONVENTIONS, canonical_g2, circ6, ricci_from_torsion
from g2coflow.metric_lie import (
    curl_tensor,
    derivation_residual,
    koszul_connection,
    linear_vector_field,
)
from g2coflow.soliton import (
    CERT_TOL,
    algebraic_check,
    certify,
    classify,
    expanding_only_audit,
    find_derivation,
    general_soliton_conditions,
    load_example,
    self_similar_bracket,
    semi_algebraic_check,
    soliton_constants,
    soliton_pde_check,
    trace_identity_check,
)

rng = np.random.default_rng(20240821)

FIXTURE = load_example("nilpotent3")
DATA = canonical_g2(FIXTURE["convention"])
A_FIX = FIXTURE["A"]
D_FIX = FIXTURE["D"]
D1_FIX = FIXTURE["D1"]


def test_fixture_contents():
    assert FIXTURE["expected"]["c"] == -2.5
    assert FIXTURE["expected"]["d"] == 1.0
    assert FIXTURE["expected"]["lambda"] == 10.0
    assert A_FIX.shape == (6, 6)
    assert D_FIX.shape == (7, 7)
    assert np.max(np.abs(D_FIX[:6, :6] - D1_FIX)) == 0.0
    assert D_FIX[6, 6] == 1.0
    with pytest.raises(FileNotFoundError):
        load_example("no-such-example")


def test_fixture_constants():
    c, d = soliton_constants(A_FIX, DATA)
    assert abs(c + 2.5) < 1e-13
    assert abs(d - 1.0) < 1e-13
    comm = A_FIX @ A_FIX.T - A_FIX.T @ A_FIX
    assert abs(np.sum(comm * comm) - 12.0) < 1e-13
    assert abs(np.sum(A_FIX * A_FIX) - 6.0) < 1e-13


def test_zero_bracket_rejected():
    with pytest.raises(ValueError):
        soliton_constants(np.zeros((6, 6)), DATA)


def test_fixture_is_not_algebraic():
    ok, residual = algebraic_check(A_FIX, DATA)
    assert not ok
    # the obstruction [M, A] - 2dA has max entry exactly 2
    assert abs(residual - 2.0) < 1e-13


def test_fixture_semi_algebraic_with_shipped_derivation():
    ok, residuals = semi_algebraic_check(A_FIX, D1_FIX, DATA)
    assert ok
    for name, value in residuals.items():
        assert value < 1e-12, f"{name}: {value}"
    assert derivation_residual(D_FIX, A_FIX) < 1e-13
    # D^t fails to be a derivation by the same obstruction that blocks the
    # algebraic certificate, so the example is strictly semi-algebraic
    assert abs(derivation_residual(D_FIX.T, A_FIX) - 2.0) < 1e-13


def test_find_derivation_recovers_shipped_block():
    D1, report = find_derivation(A_FIX, 1.0, DATA)
    assert D1 is not None
    assert np.max(np.abs(D1 - D1_FIX)) < 1e-11
    assert report["residual"] < 1e-12
    assert report["nullity"] == 0
    assert report["gauge_residual"] < 1e-12


def test_fixture_pde_residual_and_wrong_scaling():
    assert soliton_pde_check(A_FIX, D_FIX, -2.5, DATA) < 1e-12
    # dropping the scaling term leaves exactly |10 psi| = 10 sqrt(7)
    gap = soliton_pde_check(A_FIX, D_FIX, 0.0, DATA)
    assert abs(gap - 10.0 * math.sqrt(7.0)) < 1e-10


def test_fixture_certify_report():
    report = certify(A_FIX, DATA)
    assert report.kind == "semi_algebraic"
    assert report.classification == "expanding"
    assert abs(report.c + 2.5) < 1e-13
    assert abs(report.d - 1.0) < 1e-13
    assert report.residuals["pde"] < 1e-12
    assert report.residuals["trace_identity"] < 1e-12
    assert expanding_only_audit(report, DATA)
    blob = json.dumps(report.to_dict())
    assert "semi_algebraic" in blob


def test_general_conditions_on_fixture():
    T = torsion_forms(A_FIX, DATA).T
    gamma = koszul_connection(A_FIX)
    curl_T = curl_tensor(T, gamma, DATA.phi.dense())
    ric, _ = ricci_from_torsion(T, curl_T)
    X = linear_vector_field(-D_FIX)
    assert abs(X.divergence + 16.0) < 1e-13
    res1, res2 = general_soliton_conditions(T, curl_T, ric, X, 10.0, gamma, DATA)
    assert res1 < 1e-12
    assert res2 < 1e-12
    assert trace_identity_check(T, X, 10.0) < 1e-12
    with pytest.raises(ValueError):
        general_soliton_conditions(
            T, curl_T, ric + np.eye(7), X, 10.0, gamma, DATA
        )


def test_orbit_closed_form_matches_integration():
    trace = integrate(
        A_FIX,
        IntegratorOptions(t_end=10.0, rel_tol=1e-11, abs_tol=1e-13),
        DATA,
    )
    worst = 0.0
    for t, A in zip(trace.ts, trace.As):
        closed = self_similar_bracket(A_FIX, D_FIX, -2.5, t)
        worst = max(worst, np.max(np.abs(A - closed)) / np.max(np.abs(closed)))
    assert worst < 1e-6


def test_orbit_rotation_form():
    # the orbit rotates in the plane spanned by A and sqrt(2) [E, A]
    E = 0.5 * (D1_FIX - D1_FIX.T)
    A_perp = math.sqrt(2.0) * (E @ A_FIX - A_FIX @ E)
    expected_upper = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    expected_lower = np.array(
        [[0.0, 0.0, 0.0], [0.0, 0.0, -math.sqrt(2.0)], [0.0, -math.sqrt(2.0), 0.0]]
    )
    assert np.max(np.abs(A_perp[:3, 3:] - expected_upper)) < 1e-14
    assert np.max(np.abs(A_perp[3:, :3] - expected_lower)) < 1e-14
    for t in (0.3, 3.7, 9.0):
        s = math.log(1.0 + 5.0 * t) / 5.0
        angle = s / math.sqrt(2.0)
        closed = (1.0 + 5.0 * t) ** -0.5 * (
            math.cos(angle) * A_FIX + math.sin(angle) * A_perp
        )
        gap = np.max(np.abs(self_similar_bracket(A_FIX, D_FIX, -2.5, t) - closed))
        assert gap < 1e-12


def test_self_similar_domain_error():
    with pytest.raises(ValueError):
        self_similar_bracket(A_FIX, D_FIX, -2.5, -0.3)
    with pytest.raises(ValueError):
        self_similar_bracket(A_FIX, D_FIX, 0.5, 1.0)


def test_steady_orbit_is_a_pure_rotation():
    A = random_su3(rng, DATA)
    D = np.zeros((7, 7))
    D[:6, :6] = random_sp_skew(rng, DATA)
    for t in (0.5, 2.0):
        moved = self_similar_bracket(A, D, 0.0, t)
        assert abs(np.sum(moved * moved) - np.sum(A * A)) < 1e-12


def test_complex_structure_bracket_is_algebraic():
    data = canonical_g2("example")
    A = data.J.copy()
    report = certify(A, data)
    assert report.kind == "algebraic"
    assert abs(report.c + 9.0) < 1e-13
    assert abs(report.d) < 1e-13
    assert report.residuals["algebraic_eq"] == 0.0
    assert report.classification == "expanding"
    # D = Q - cI = diag(9 I_6, 0) rescales the ideal
    assert np.max(np.abs(report.D - np.diag([9.0] * 6 + [0.0]))) < 1e-13
    assert expanding_only_audit(report, data)


def test_su3_certifies_steady():
    A = random_su3(rng, DATA)
    report = certify(A, DATA)
    assert report.kind == "algebraic"
    assert report.classification == "steady"
    assert abs(report.c) < 1e-12
    assert expanding_only_audit(report, DATA)


def test_generic_bracket_is_not_a_soliton():
    A = random_sp(np.random.default_rng(23), DATA)
    report = certify(A, DATA)
    assert report.kind == "none"
    assert report.D is None
    assert expanding_only_audit(report, DATA)


def test_skew_sweep_all_algebraic():
    local = np.random.default_rng(29)
    for _ in range(25):
        A = random_sp_skew(local, DATA)
        report = certify(A, DATA)
        assert report.kind == "algebraic"
        assert report.c <= 1e-10
        assert report.residuals["soliton_eq"] < 1e-10
        assert expanding_only_audit(report, DATA)


def test_classify_bands():
    assert classify(-1.0) == "expanding"
    assert classify(0.0) == "steady"
    assert classify(1e-12) == "steady"
    assert classify(0.5) == "shrinking"


def test_symbol_decomposition_identity():
    # Q - cI splits as the derivation D plus the obstruction measured by
    # algebraic_check; on the fixture the two differ in the skew part only
    c, d = soliton_constants(A_FIX, DATA)
    Q = q_matrix(A_FIX, DATA).Q
    sym_gap = Q - c * np.eye(7) - 0.5 * (D_FIX + D_FIX.T)
    assert np.max(np.abs(sym_gap)) < 1e-13


def closed_form_soliton_terms(A, data):
    """Reference M = [A,A^t] + S o6 S, c and d from the paper's formulas."""
    S = 0.5 * (A + A.T)
    comm = A @ A.T - A.T @ A
    ss = circ6(S, S, data)
    d = (np.sum(comm * comm) + np.sum(ss * comm)) / (2.0 * np.sum(A * A))
    q = -0.5 * np.trace(S @ S) - 0.25 * np.trace(data.J @ A) ** 2
    return comm + ss, q - d, d


def reference_search_residual(A, d, target):
    """Worst residual of the least-squares derivation system, built column
    by column from its defining maps E -> EA - AE and E -> E + E^t."""
    basis = np.eye(36).reshape(36, 6, 6)
    P = np.concatenate(
        [
            np.stack([(E @ A - A @ E).ravel() for E in basis], axis=1),
            np.stack([(E + E.T).ravel() for E in basis], axis=1),
        ]
    )
    b = np.concatenate([(d * A).ravel(), target.ravel()])
    x, *_ = np.linalg.lstsq(P, b, rcond=None)
    return float(np.max(np.abs(P @ x - b)))


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("sampler", [random_sp, random_sp_skew, random_su3])
def test_soliton_code_matches_closed_forms(convention, sampler):
    data = canonical_g2(convention)
    local = np.random.default_rng(20241020)
    for _ in range(8):
        A = sampler(local, data)
        M, c_ref, d_ref = closed_form_soliton_terms(A, data)
        scale = max(1.0, np.max(np.abs(M)), abs(c_ref), abs(d_ref))
        c, d = soliton_constants(A, data)
        assert abs(c - c_ref) <= 1e-12 * scale
        assert abs(d - d_ref) <= 1e-12 * scale

        ok, residual = algebraic_check(A, data)
        residual_ref = np.max(np.abs(M @ A - A @ M - 2.0 * d_ref * A))
        assert abs(residual - residual_ref) <= 1e-12 * scale
        if ok:
            # Both residuals are at rounding level here, so compare the
            # derivation blockdiag(M/2 - cI, q - c) it certifies instead.
            D_ref = np.zeros((7, 7))
            D_ref[:6, :6] = 0.5 * M - c_ref * np.eye(6)
            D_ref[6, 6] = d_ref
            report = certify(A, data)
            assert report.kind == "algebraic"
            assert np.max(np.abs(report.D - D_ref)) <= 1e-12 * scale

        target = M - 2.0 * c_ref * np.eye(6)
        # With D1 = target/2, matrix_eq and symbol measure the code's
        # 2 Qh - 2cI and Q_A - cI against the closed forms.
        _, semi = semi_algebraic_check(A, 0.5 * target, data)
        assert semi["matrix_eq"] <= 1e-12 * scale
        assert semi["symbol"] <= 1e-12 * scale
        D1, search = find_derivation(A, d, data)
        gap = search["residual"] - reference_search_residual(A, d, target)
        assert abs(gap) <= 1e-12 * scale
        if D1 is not None:
            assert np.max(np.abs(D1 + D1.T - target)) <= 1e-12 * scale
        # skew brackets are algebraic solitons, so their search succeeds
        assert (D1 is not None) or sampler is random_sp


def test_certify_on_rotated_scaled_fixture_images():
    local = np.random.default_rng(20241021)
    for _ in range(10):
        U = expm(random_su3(local, DATA))
        lam = local.uniform(0.9, 1.1)
        report = certify(lam * U @ A_FIX @ U.T, DATA)
        assert report.kind == "semi_algebraic"
        assert abs(report.c + 2.5 * lam**2) < 1e-12
        assert abs(report.d - lam**2) < 1e-12
        assert np.max(np.abs(report.D[:6, :6] - lam**2 * U @ D1_FIX @ U.T)) < 1e-12
        assert report.residuals["soliton_eq"] < CERT_TOL
