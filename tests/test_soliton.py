"""Soliton certification: constants, derivation search, orbits, audits."""

import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

from g2coflow import almost_abelian, soliton
from g2coflow.almost_abelian import (
    q_matrix,
    random_sp,
    random_sp_skew,
    random_su3,
    torsion_forms,
)
from g2coflow.coflow import IntegratorOptions, integrate
from g2coflow.g2 import CONVENTIONS, canonical_g2, circ, ricci_from_torsion
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
    find_derivation,
    general_soliton_conditions,
    load_example,
    self_similar_bracket,
    semi_algebraic_check,
    soliton_pde_check,
    symbol_terms,
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
    _, _, _, c, d = symbol_terms(A_FIX, DATA)
    assert abs(c + 2.5) < 1e-13
    assert abs(d - 1.0) < 1e-13
    comm = A_FIX @ A_FIX.T - A_FIX.T @ A_FIX
    assert abs(np.sum(comm * comm) - 12.0) < 1e-13
    assert abs(np.sum(A_FIX * A_FIX) - 6.0) < 1e-13


def test_zero_bracket_rejected():
    with pytest.raises(ValueError, match="zero bracket"):
        symbol_terms(np.zeros((6, 6)), DATA)


def test_underflowing_bracket_is_not_called_zero():
    # |A|^2 of a unit bracket times 1e-170 underflows to 0, but A is nonzero
    A = random_sp(np.random.default_rng(5), DATA)
    A = 1e-170 * A / np.linalg.norm(A)
    assert np.any(A) and np.sum(A * A) == 0.0
    with pytest.raises(ValueError, match="underflows") as err:
        symbol_terms(A, DATA)
    assert "zero bracket" not in str(err.value)


def test_fixture_is_not_algebraic():
    residual, D, _ = algebraic_check(symbol_terms(A_FIX, DATA))
    assert D is None
    # the obstruction [M, A] - 2dA has max entry exactly 2
    assert abs(residual - 2.0) < 1e-13


def test_fixture_semi_algebraic_with_shipped_derivation():
    ok, residuals = semi_algebraic_check(symbol_terms(A_FIX, DATA), D1_FIX)
    assert ok
    for name, value in residuals.items():
        assert value < 1e-12, f"{name}: {value}"
    assert derivation_residual(D_FIX, A_FIX) < 1e-13
    # D^t fails to be a derivation by the same obstruction that blocks the
    # algebraic certificate, so the example is strictly semi-algebraic
    assert abs(derivation_residual(D_FIX.T, A_FIX) - 2.0) < 1e-13


def test_find_derivation_recovers_shipped_block():
    D1, report = find_derivation(symbol_terms(A_FIX, DATA), DATA)
    assert D1 is not None
    assert np.max(np.abs(D1 - D1_FIX)) < 1e-11
    assert report["residual"] < 1e-12
    assert report["nullity"] == 0
    assert report["gauge_residual"] < 1e-12


def test_fixture_pde_residual_and_wrong_scaling():
    sym = symbol_terms(A_FIX, DATA)
    assert soliton_pde_check(sym._replace(c=-2.5), D_FIX, DATA) < 1e-12
    # dropping the scaling term leaves exactly |10 psi| = 10 sqrt(7)
    gap = soliton_pde_check(sym._replace(c=0.0), D_FIX, DATA)
    assert abs(gap - 10.0 * math.sqrt(7.0)) < 1e-10


def test_fixture_certify_report():
    report = certify(A_FIX, DATA)
    assert report.kind == "semi_algebraic"
    assert report.classification == "expanding"
    assert abs(report.c + 2.5) < 1e-13
    assert abs(report.d - 1.0) < 1e-13
    assert report.residuals["pde"] < 1e-12
    assert report.residuals["trace_identity"] < 1e-12
    assert report.classification != "shrinking"
    blob = json.dumps(report.to_dict())
    assert "semi_algebraic" in blob


def test_certify_evaluates_the_symbol_once(monkeypatch):
    calls = {"symbol": 0, "derivation_residual": 0, "find_derivation": 0}
    derivation_residual = soliton.derivation_residual
    symbol_evaluator = soliton._symbol_evaluator
    find_derivation = soliton.find_derivation

    def counted_residual(*args):
        calls["derivation_residual"] += 1
        return derivation_residual(*args)

    def counted_search(*args):
        calls["find_derivation"] += 1
        return find_derivation(*args)

    def counted_evaluator(*args):
        symbol = symbol_evaluator(*args)

        def counted_symbol(y):
            calls["symbol"] += 1
            return symbol(y)

        return counted_symbol

    monkeypatch.setattr(soliton, "derivation_residual", counted_residual)
    monkeypatch.setattr(soliton, "_symbol_evaluator", counted_evaluator)
    # certify searches through soliton's public name, which the benchmark's
    # soliton.find_derivation metrics trace: once off the algebraic branch
    monkeypatch.setattr(soliton, "find_derivation", counted_search)
    assert {"symbol_terms", "find_derivation"} <= set(soliton.__all__)
    data = canonical_g2("section4")
    local = np.random.default_rng(20241022)
    cases = [
        (random_sp_skew(local, data), data, "algebraic", 2, 0),
        (random_sp(local, data), data, "none", 0, 1),
        (A_FIX, DATA, "semi_algebraic", 0, 1),
    ]
    for A, case_data, kind, derivation_calls, searches in cases:
        calls.update(symbol=0, derivation_residual=0, find_derivation=0)
        assert certify(A, case_data).kind == kind
        assert calls == {
            "symbol": 1,
            "derivation_residual": derivation_calls,
            "find_derivation": searches,
        }


def _bracket_families(seed):
    """(name, A, data) for a random, a skew and an su(3) bracket per
    convention, and the fixture."""
    local = np.random.default_rng(seed)
    out = []
    for convention in CONVENTIONS:
        data = canonical_g2(convention)
        for name, sampler in (
            ("random", random_sp),
            ("skew", random_sp_skew),
            ("su3", random_su3),
        ):
            out.append((f"{name}/{convention}", sampler(local, data), data))
    out.append(("fixture", A_FIX, DATA))
    return out


def test_derivation_system_matches_kron_bytes(monkeypatch):
    # find_derivation's commutator block is np.kron's, bit for bit, with the
    # signs of its zeros
    systems = []
    lstsq = np.linalg.lstsq

    def recording_lstsq(P, b, **kwargs):
        systems.append(P.copy())
        return lstsq(P, b, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", recording_lstsq)
    eye = np.eye(6)
    negative_zeros = 0
    for name, A, data in _bracket_families(20261022):
        systems.clear()
        sym = symbol_terms(A, data)
        find_derivation(sym, data)
        A = sym.A
        kron = np.concatenate([np.kron(eye, A.T) - np.kron(A, eye), soliton._SYM_PART])
        assert systems[0].tobytes() == kron.tobytes(), name
        negative_zeros += int(np.sum((kron == 0.0) & np.signbit(kron)))
    assert negative_zeros > 0


def test_certify_runs_the_sp_gate_once(monkeypatch):
    calls = {"sp_check": 0, "torsion": 0}
    sp_check = almost_abelian.sp_check
    torsion = soliton.torsion_forms_ungated

    def counted_sp_check(*args, **kwargs):
        calls["sp_check"] += 1
        return sp_check(*args, **kwargs)

    def counted_torsion(*args):
        calls["torsion"] += 1
        return torsion(*args)

    # require_sp, the gate of symbol_terms and torsion_forms, reads this name
    monkeypatch.setattr(almost_abelian, "sp_check", counted_sp_check)
    monkeypatch.setattr(soliton, "torsion_forms_ungated", counted_torsion)
    for name, A, data in _bracket_families(20261023):
        calls.update(sp_check=0, torsion=0)
        report = certify(A, data)
        # T is formed once when the trace identity or the steady verdict
        # reads it, and not at all for a generic bracket
        needs_torsion = report.kind != "none" or abs(report.c) <= CERT_TOL
        assert calls == {"sp_check": 1, "torsion": int(needs_torsion)}, name
        if name.startswith(("skew", "su3")):
            assert report.kind == "algebraic", name
        if name.startswith("su3"):
            assert report.classification == "steady", name


def test_general_conditions_on_fixture():
    T = torsion_forms(A_FIX, DATA)
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
    assert report.classification != "shrinking"


def test_su3_certifies_steady():
    A = random_su3(rng, DATA)
    report = certify(A, DATA)
    assert report.kind == "algebraic"
    assert report.classification == "steady"
    assert abs(report.c) < 1e-12
    assert report.classification != "shrinking"


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_steady_needs_torsion_free(convention):
    # su(3) + eps J has tr JA = -6 eps and c = -(1/4)(tr JA)^2 = -9 eps^2,
    # inside CERT_TOL for eps = 1e-5, but its torsion is of order eps
    data = canonical_g2(convention)
    A = random_su3(np.random.default_rng(31), data)
    for eps, expected in ((0.0, "steady"), (1e-6, "expanding"), (1e-5, "expanding")):
        report = certify(A + eps * data.J, data)
        assert report.kind == "algebraic"
        assert abs(report.c + 9.0 * eps**2) < 1e-14
        assert report.classification == expected


def test_generic_bracket_is_not_a_soliton():
    A = random_sp(np.random.default_rng(23), DATA)
    report = certify(A, DATA)
    assert report.kind == "none"
    assert report.D is None
    assert report.classification != "shrinking"


def test_skew_sweep_all_algebraic():
    local = np.random.default_rng(29)
    for _ in range(25):
        A = random_sp_skew(local, DATA)
        report = certify(A, DATA)
        assert report.kind == "algebraic"
        assert report.c <= 1e-10
        assert report.residuals["soliton_eq"] < 1e-10
        assert report.classification != "shrinking"


def test_classify_bands():
    assert classify(-1.0) == "expanding"
    assert classify(0.0) == "steady"
    assert classify(1e-12) == "steady"
    assert classify(0.5) == "shrinking"


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_classify_non_finite_c_is_undefined(c):
    assert classify(c) == "undefined"
    assert classify(c, 0.0) == "undefined"


def test_symbol_decomposition_identity():
    # Q - cI splits as the derivation D plus the obstruction measured by
    # algebraic_check; on the fixture the two differ in the skew part only
    _, _, _, c, d = symbol_terms(A_FIX, DATA)
    Q = q_matrix(A_FIX, DATA)
    sym_gap = Q - c * np.eye(7) - 0.5 * (D_FIX + D_FIX.T)
    assert np.max(np.abs(sym_gap)) < 1e-13


def closed_form_soliton_terms(A, data):
    """Reference M = [A,A^t] + S o6 S, c and d from the paper's formulas."""
    S = 0.5 * (A + A.T)
    comm = A @ A.T - A.T @ A
    S7 = np.zeros((7, 7))
    S7[:6, :6] = S
    ss = circ(S7, S7, data)[:6, :6]
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
        sym = symbol_terms(A, data)
        _, _, _, c, d = sym
        assert abs(c - c_ref) <= 1e-12 * scale
        assert abs(d - d_ref) <= 1e-12 * scale

        residual, D_alg, _ = algebraic_check(sym)
        residual_ref = np.max(np.abs(M @ A - A @ M - 2.0 * d_ref * A))
        assert abs(residual - residual_ref) <= 1e-12 * scale
        if D_alg is not None:
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
        _, semi = semi_algebraic_check(sym, 0.5 * target)
        assert semi["matrix_eq"] <= 1e-12 * scale
        assert semi["symbol"] <= 1e-12 * scale
        D1, search = find_derivation(sym, data)
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
