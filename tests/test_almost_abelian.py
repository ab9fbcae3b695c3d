"""Coclosed brackets: sp membership, torsion, Laplacian symbol, curvature."""

import numpy as np
import pytest

from g2coflow.almost_abelian import (
    _symbol_evaluator,
    q_matrix,
    random_sp,
    random_sp_skew,
    random_sp_symmetric,
    random_su3,
    require_sp,
    ricci_closed,
    scalar_diagnostics,
    sp_check,
    t_circ_t,
    torsion_forms,
    torsion_from_nabla_phi,
)
from g2coflow.exterior import form_norm, theta
from g2coflow.g2 import canonical_g2, circ, identity_suite
from g2coflow.metric_lie import (
    ce_differential,
    covariant_derivative_form,
    curvature_tensor,
    hodge_laplacian,
    koszul_connection,
    ricci_tensor,
)
from g2coflow.soliton import load_example

rng = np.random.default_rng(20240817)
CONVENTIONS = ("section4", "example")


def pad7(block: np.ndarray, corner: float = 0.0) -> np.ndarray:
    out = np.zeros((7, 7))
    out[:6, :6] = block
    out[6, 6] = corner
    return out


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_sp_membership_of_generators(convention):
    data = canonical_g2(convention)
    J = data.J
    assert np.max(np.abs(J @ J + np.eye(6))) == 0.0
    ok, residual = sp_check(J, data)
    assert ok and residual == 0.0
    for maker in (random_sp, random_sp_symmetric, random_sp_skew, random_su3):
        A = maker(rng, data)
        ok, residual = sp_check(A, data)
        assert ok, f"{maker.__name__}: residual {residual}"
    S = random_sp_symmetric(rng, data)
    assert np.max(np.abs(S - S.T)) < 1e-14
    K = random_sp_skew(rng, data)
    assert np.max(np.abs(K + K.T)) < 1e-14
    U = random_su3(rng, data)
    assert np.max(np.abs(U + U.T)) < 1e-14
    assert abs(np.trace(J @ U)) < 1e-13
    assert np.max(np.abs(U @ J - J @ U)) < 1e-13


def test_require_sp_rejects_generic_matrices():
    data = canonical_g2("section4")
    bad = rng.standard_normal((6, 6))
    with pytest.raises(ValueError):
        require_sp(bad, data)


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_coclosed_iff_sp(convention):
    data = canonical_g2(convention)
    A = random_sp(rng, data)
    assert form_norm(ce_differential(data.psi, A)) < 1e-13
    bad = A + 0.1 * np.eye(6)
    ok, _ = sp_check(bad, data)
    assert not ok
    assert form_norm(ce_differential(data.psi, bad)) > 1e-3


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_torsion_block_structure(convention):
    data = canonical_g2(convention)
    A = random_sp(rng, data)
    T = torsion_forms(A, data)
    # T = (tau0/4) g - tau27 with tau0 = (2/7) tr JA and tr tau27 = 0
    assert abs(np.trace(T) - 0.5 * np.trace(data.J @ A)) < 1e-13
    assert np.max(np.abs(T - T.T)) < 1e-13
    # off-diagonal blocks never appear for invariant coclosed structures
    assert np.max(np.abs(T[:6, 6])) == 0.0
    assert np.max(np.abs(T[6, :6])) == 0.0


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_torsion_dual_route(convention):
    data = canonical_g2(convention)
    local = np.random.default_rng((20240818, CONVENTIONS.index(convention)))
    for _ in range(10):
        A = random_sp(local, data)
        # the stack behind nabla phi against per-slot tensordot contractions,
        # (nabla_m alpha)_{..j..} = -sum over slots of Gamma[m,j,p] alpha_{..p..}
        gamma = koszul_connection(A)
        for form in (data.phi, data.psi):
            stack = covariant_derivative_form(form, gamma)
            dense = form.dense()
            for m in range(7):
                ref = np.zeros_like(dense)
                for slot in range(form.k):
                    ref -= np.moveaxis(
                        np.tensordot(dense, gamma[m].T, axes=([slot], [0])), -1, slot
                    )
                assert np.max(np.abs(stack[m] - ref)) < 1e-14
        T = torsion_forms(A, data)
        T_direct, residual = torsion_from_nabla_phi(A, data)
        assert residual < 1e-12
        assert np.max(np.abs(T - T_direct)) < 1e-12


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_t_circ_t_closed_form(convention):
    data = canonical_g2(convention)
    A = random_sp(rng, data)
    T = torsion_forms(A, data)
    assert np.max(np.abs(t_circ_t(A, data) - circ(T, T, data))) < 1e-12


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_laplacian_symbol_matches_hodge(convention):
    data = canonical_g2(convention)
    local = np.random.default_rng((20240819, CONVENTIONS.index(convention)))
    for _ in range(10):
        A = random_sp(local, data)
        gap = theta(q_matrix(A, data), data.psi) - hodge_laplacian(data.psi, A)
        assert form_norm(gap) < 1e-11


def closed_form_symbol(A, data):
    """Reference (Qh, q) by matrix products and circ on the padded S."""
    S = 0.5 * (A + A.T)
    Qh = 0.5 * (A @ A.T - A.T @ A + circ(pad7(S), pad7(S), data)[:6, :6])
    q = -0.5 * np.trace(S @ S) - 0.25 * np.trace(data.J @ A) ** 2
    return Qh, q


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize(
    "sampler", [random_sp, random_sp_skew, random_su3, lambda r, d: np.zeros((6, 6))]
)
def test_symbol_quadratic_form_matches_closed_form(convention, sampler):
    data = canonical_g2(convention)
    local = np.random.default_rng(20241019)
    for _ in range(10):
        A = 3.0 * sampler(local, data)
        Qh, q = _symbol_evaluator(data)(A.ravel())
        Qh_ref, q_ref = closed_form_symbol(A, data)
        scale = max(1.0, np.max(np.abs(Qh_ref)), abs(q_ref))
        assert np.max(np.abs(Qh - Qh_ref)) <= 1e-13 * scale
        assert abs(q - q_ref) <= 1e-13 * scale
        assert _is_0d_view_of_w(q, Qh)


def _is_0d_view_of_w(q, Qh):
    """q is a 0-d array on the buffer that Qh views too (the evaluator's w)."""
    return isinstance(q, np.ndarray) and q.shape == () and q.base is Qh.base


def _symbol_inputs(data, local):
    """Random, skew and su(3) brackets, planar-axis starts (with +0.0 and
    with -0.0 zeros), the zero matrix in both signs, and the nilpotent3
    fixture with its negative."""
    samplers = (random_sp, random_sp_skew, random_su3)
    As = [3.0 * sample(local, data) for sample in samplers for _ in range(5)]
    for x0 in (0.7, -1.1):
        A = np.zeros((6, 6))
        A[0, 1], A[4, 3] = x0, -x0  # planar.embed(x0, 0) in the example basis
        As += [A, np.where(A == 0.0, -0.0, A)]
    fixture = load_example("nilpotent3")["A"]
    return As + [np.zeros((6, 6)), np.full((6, 6), -0.0), fixture, -fixture]


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_symbol_arithmetic_is_the_quadratic_form(convention):
    """The bound evaluation makes the floating-point operations of
    M (z (x) z) for z = P vec(A): same bits, signed zeros included, from a
    fresh evaluator or one reused across brackets, which rewrites the same
    Qh and q on every call."""
    data = canonical_g2(convention)
    P, M = data._symbol_quadratic
    reused = _symbol_evaluator(data)
    views = reused(np.zeros(36))
    for A in _symbol_inputs(data, np.random.default_rng(20261019)):
        z = P @ A.ravel()
        w = M @ np.multiply.outer(z, z).ravel()
        for Qh, q in (_symbol_evaluator(data)(A.ravel()), reused(A.ravel())):
            assert Qh.tobytes() == w[:36].tobytes()
            assert q.tobytes() == w[36:].tobytes()
            assert _is_0d_view_of_w(q, Qh)
        assert Qh is views[0] and q is views[1]


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_symbol_reads_the_sp_projection(convention):
    data = canonical_g2(convention)
    P, _ = data._symbol_quadratic
    A = random_sp(rng, data)
    off = rng.standard_normal((6, 6))
    off -= (P.T @ (P @ off.ravel())).reshape(6, 6)  # orthogonal to sp(R^6)
    Qh, q = _symbol_evaluator(data)((A + off).ravel())
    Qh_ref, q_ref = closed_form_symbol(A, data)
    assert np.max(np.abs(Qh - Qh_ref)) < 1e-13
    assert abs(q - q_ref) < 1e-13


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_ricci_closed_form(convention):
    data = canonical_g2(convention)
    A = random_sp(rng, data)
    ric, scal = ricci_closed(A, data)
    direct = ricci_tensor(curvature_tensor(koszul_connection(A), A))
    assert np.max(np.abs(ric - direct)) < 1e-12
    assert abs(scal - np.trace(direct)) < 1e-12
    S = 0.5 * (A + A.T)
    assert abs(scal + np.trace(S @ S)) < 1e-13


def test_su3_brackets_are_torsion_free():
    data = canonical_g2("section4")
    A = random_su3(rng, data)
    T = torsion_forms(A, data)
    assert np.max(np.abs(T)) < 1e-13
    assert form_norm(hodge_laplacian(data.psi, A)) < 1e-11
    assert np.max(np.abs(q_matrix(A, data))) < 1e-13


def test_fixture_diagnostics():
    fixture = load_example("nilpotent3")
    data = canonical_g2(fixture["convention"])
    A = fixture["A"]
    diag = {k: v[0] for k, v in scalar_diagnostics(A[None], data).items()}
    assert abs(diag["trJA"]) < 1e-14
    assert abs(diag["trSSq"] - 3.0) < 1e-13
    assert abs(diag["normSq"] - 6.0) < 1e-13
    assert abs(diag["R"] + 3.0) < 1e-13
    assert abs(diag["torsionNormSq"] - 3.0) < 1e-13
    comm = A @ A.T - A.T @ A
    assert np.max(np.abs(comm - np.diag([-2.0, -1.0, 1.0, 2.0, 1.0, -1.0]))) < 1e-14
    Q = q_matrix(A, data)
    assert abs(Q[6, 6] + 1.5) < 1e-14
    # the symbol solves Q = c I + (1/2)(D + D^t) for the shipped derivation
    D = fixture["D"]
    gap = Q - (-2.5 * np.eye(7) + 0.5 * (D + D.T))
    assert np.max(np.abs(gap)) < 1e-13


def test_complex_structure_bracket_diagnostics():
    data = canonical_g2("example")
    A = data.J.copy()
    diag = {k: v[0] for k, v in scalar_diagnostics(A[None], data).items()}
    assert diag["trJA"] == -6.0
    assert diag["trSSq"] == 0.0
    assert diag["R"] == 0.0
    assert abs(diag["torsionNormSq"] - 9.0) < 1e-14
    assert diag["normSq"] == 6.0
    Q = q_matrix(A, data)
    assert np.max(np.abs(Q[:6, :6])) == 0.0
    assert Q[6, 6] == -9.0


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_identity_suite_runs_under_either_basis(convention):
    report = identity_suite(canonical_g2(convention))
    assert max(report.values()) < 1e-12
