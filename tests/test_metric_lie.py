"""Invariant calculus on the almost abelian algebra: d, delta, connection, curvature."""

import math

import numpy as np
import pytest

from g2coflow.almost_abelian import random_sp
from g2coflow.exterior import (
    KForm,
    basis_form,
    form_inner,
    form_norm,
    from_dense,
    interior,
    multi_indices,
    wedge,
)
from g2coflow.g2 import canonical_g2
from g2coflow.metric_lie import (
    VectorField,
    ce_differential,
    codifferential,
    covariant_derivative_form,
    covariant_derivative_tensor,
    curl_tensor,
    curl_vector,
    curvature_tensor,
    derivation_residual,
    divergence_tensor,
    grad_trace,
    hodge_laplacian,
    invariant_vector_field,
    koszul_connection,
    lie_derivative_form,
    linear_vector_field,
    ricci_tensor,
    structure_constants,
)

rng = np.random.default_rng(20240812)
DATA = canonical_g2("section4")


def random_form(k: int) -> KForm:
    return KForm(7, k, rng.standard_normal(math.comb(7, k)))


def random_bracket() -> np.ndarray:
    return rng.standard_normal((6, 6))


def ce_differential_loop(alpha: KForm, A: np.ndarray) -> np.ndarray:
    """Reference: the defining sum over index pairs, one term at a time."""
    k = alpha.k
    dense = alpha.dense()
    out = np.zeros(math.comb(7, k + 1))
    for pos, idx in enumerate(multi_indices(7, k + 1)):
        total = 0.0
        for p in range(k + 1):
            for q in range(p + 1, k + 1):
                a, b = idx[p], idx[q]
                rest = idx[:p] + idx[p + 1 : q] + idx[q + 1 :]
                if b == 6:  # [e_a, e_7] = -A e_a
                    vec = -A[:, a]
                elif a == 6:
                    vec = A[:, b]
                else:
                    continue
                sign = -1.0 if (p + q) % 2 else 1.0
                total += sign * float(vec @ dense[(slice(None, 6),) + rest])
        out[pos] = total
    return out


@pytest.mark.parametrize("k", range(7))
def test_ce_differential_matches_defining_sum(k):
    for _ in range(3):
        a = random_form(k)
        A = random_bracket()
        d = ce_differential(a, A)
        assert (d.n, d.k) == (7, k + 1)
        gap = np.abs(d.coeffs - ce_differential_loop(a, A))
        assert np.max(gap, initial=0.0) < 1e-14


def test_structure_constants_layout():
    A = np.zeros((6, 6))
    A[0, 1] = 1.0
    c = structure_constants(A)
    assert c[6, 1, 0] == 1.0
    assert c[1, 6, 0] == -1.0
    assert np.max(np.abs(c + np.swapaxes(c, 0, 1))) == 0.0
    assert np.max(np.abs(c[:6, :6, :])) == 0.0
    # d e^0 = e^1 wedge e^7 for this bracket
    de = ce_differential(basis_form(7, (0,)), A)
    assert de.dense()[1, 6] == 1.0
    assert form_norm(de - basis_form(7, (1, 6))) == 0.0


def test_differential_squares_to_zero():
    A = random_bracket()
    for k in (0, 1, 2, 3, 4):
        a = random_form(k)
        assert form_norm(ce_differential(ce_differential(a, A), A)) < 1e-13


def test_differential_builds_frozen_fresh_forms():
    # ce_differential and the Laplacian return read-only coefficient vectors
    # of their own
    local = np.random.default_rng(20261022)
    A = random_sp(local, DATA)
    for k in range(7):
        alpha = KForm(7, k, local.standard_normal(math.comb(7, k)))
        # the codifferential of a 0-form would need d of the 7-form *alpha
        outs = [(ce_differential(alpha, A), k + 1)]
        if k:
            outs.append((hodge_laplacian(alpha, A), k))
        for out, degree in outs:
            assert (out.k, out.coeffs.shape) == (degree, (math.comb(7, degree),))
            assert not out.coeffs.flags.writeable
            assert not np.shares_memory(out.coeffs, alpha.coeffs)
            assert not np.shares_memory(out.coeffs, A)


def test_differential_degree_guard():
    with pytest.raises(ValueError):
        ce_differential(random_form(7), random_bracket())


def test_codifferential_adjoint_to_differential():
    # the algebra is unimodular whenever tr A = 0, so the pointwise pairing
    # identity <d a, b> = <a, d* b> is exact for invariant forms
    A = random_sp(rng, DATA)
    for k in (1, 2, 3):
        a, b = random_form(k), random_form(k + 1)
        lhs = form_inner(ce_differential(a, A), b)
        rhs = form_inner(a, codifferential(b, A))
        assert abs(lhs - rhs) < 1e-12


def test_laplacian_commutes_with_star_and_is_self_adjoint():
    from g2coflow.exterior import hodge_star

    A = random_sp(rng, DATA)
    a, b = random_form(3), random_form(3)
    gap = hodge_laplacian(hodge_star(a), A) - hodge_star(hodge_laplacian(a, A))
    assert form_norm(gap) < 1e-12
    lhs = form_inner(hodge_laplacian(a, A), b)
    rhs = form_inner(a, hodge_laplacian(b, A))
    assert abs(lhs - rhs) < 1e-11


def test_koszul_connection_blocks():
    A = random_bracket()
    S = 0.5 * (A + A.T)
    K = 0.5 * (A - A.T)
    gamma = koszul_connection(A)
    assert np.max(np.abs(gamma[:6, :6, 6] - S)) < 1e-14
    assert np.max(np.abs(gamma[:6, 6, :6] + S)) < 1e-14
    assert np.max(np.abs(gamma[6, :6, :6] - K.T)) < 1e-14
    assert np.max(np.abs(gamma[6, 6, :])) == 0.0
    assert np.max(np.abs(gamma[:6, :6, :6])) == 0.0


def test_koszul_connection_metric_and_torsion_free():
    A = random_bracket()
    gamma = koszul_connection(A)
    c = structure_constants(A)
    # metric compatibility: gamma antisymmetric in the last two slots
    assert np.max(np.abs(gamma + np.swapaxes(gamma, 1, 2))) < 1e-14
    # vanishing torsion: gamma[a,b,:] - gamma[b,a,:] = c[a,b,:]
    gap = gamma - np.swapaxes(gamma, 0, 1) - c
    assert np.max(np.abs(gap)) < 1e-14


def test_curvature_symmetries():
    A = random_bracket()
    gamma = koszul_connection(A)
    R = curvature_tensor(gamma, A)
    assert np.max(np.abs(R + np.einsum("jikm->ijkm", R))) < 1e-13
    assert np.max(np.abs(R + np.einsum("ijmk->ijkm", R))) < 1e-13
    assert np.max(np.abs(R - np.einsum("kmij->ijkm", R))) < 1e-13
    bianchi = R + np.einsum("jkim->ijkm", R) + np.einsum("kijm->ijkm", R)
    assert np.max(np.abs(bianchi)) < 1e-13
    ric = ricci_tensor(R)
    assert np.max(np.abs(ric - ric.T)) < 1e-13
    # the almost abelian scalar curvature R = tr Ric = -tr S^2 - (tr A)^2
    S = 0.5 * (A + A.T)
    assert abs(np.trace(ric) + np.trace(S @ S) + np.trace(A) ** 2) < 1e-12


def test_covariant_derivative_form_matches_tensor_rule():
    A = random_bracket()
    gamma = koszul_connection(A)
    a = random_form(2)
    nabla = covariant_derivative_form(a, gamma)
    dense = covariant_derivative_tensor(a.dense(), gamma)
    for m in range(7):
        gap = from_dense(7, 2, nabla[m]) - from_dense(7, 2, dense[m])
        assert form_norm(gap) < 1e-13


def test_metric_is_parallel():
    gamma = koszul_connection(random_bracket())
    nabla_g = covariant_derivative_tensor(np.eye(7), gamma)
    assert np.max(np.abs(nabla_g)) < 1e-14
    assert np.max(np.abs(divergence_tensor(np.eye(7), gamma))) < 1e-14
    assert np.max(np.abs(curl_tensor(np.eye(7), gamma, DATA.phi.dense()))) < 1e-14


def test_grad_trace_vanishes_for_invariant_tensors():
    gamma = koszul_connection(random_bracket())
    h = rng.standard_normal((7, 7))
    h = h + h.T
    assert np.max(np.abs(grad_trace(covariant_derivative_tensor(h, gamma)))) < 1e-12


def test_linear_vector_field_at_basepoint():
    M = rng.standard_normal((7, 7))
    field = linear_vector_field(M)
    assert np.max(np.abs(field.value)) == 0.0
    assert np.max(np.abs(field.grad - M.T)) == 0.0
    assert abs(field.divergence - np.trace(M)) < 1e-13
    assert np.max(np.abs(field.lie_derivative_metric - (M + M.T).T)) < 1e-13


def test_invariant_transverse_field_metric_derivative():
    # for X = e_7 the metric Lie derivative is -2S on the abelian block,
    # so the field is Killing exactly when A is skew
    A = random_bracket()
    S = 0.5 * (A + A.T)
    gamma = koszul_connection(A)
    X = np.zeros(7)
    X[6] = 1.0
    field = invariant_vector_field(X, gamma)
    expected = np.zeros((7, 7))
    expected[:6, :6] = -2.0 * S
    assert np.max(np.abs(field.lie_derivative_metric - expected)) < 1e-13
    skew = invariant_vector_field(X, koszul_connection(0.5 * (A - A.T)))
    assert np.max(np.abs(skew.lie_derivative_metric)) < 1e-14


def test_curl_vector_against_exterior_derivative():
    # (Curl X)_c = 1/2 (d X^flat)_{ab} phi_{abc} for an invariant field
    A = random_sp(rng, DATA)
    gamma = koszul_connection(A)
    X = rng.standard_normal(7)
    field = invariant_vector_field(X, gamma)
    d_flat = ce_differential(KForm(7, 1, X.copy()), A)
    via_form = 0.5 * np.einsum("ab,abc->c", d_flat.dense(), DATA.phi.dense())
    assert np.max(np.abs(curl_vector(field, DATA.phi.dense()) - via_form)) < 1e-12


def test_lie_derivative_commutes_with_differential():
    A = random_bracket()
    X = rng.standard_normal(7)
    a = random_form(2)
    lhs = lie_derivative_form(X, ce_differential(a, A), A)
    rhs = ce_differential(lie_derivative_form(X, a, A), A)
    assert form_norm(lhs - rhs) < 1e-12


def test_lie_derivative_is_a_derivation():
    A = random_bracket()
    X = rng.standard_normal(7)
    a, b = random_form(1), random_form(2)
    lhs = lie_derivative_form(X, wedge(a, b), A)
    rhs = wedge(lie_derivative_form(X, a, A), b) + wedge(
        a, lie_derivative_form(X, b, A)
    )
    assert form_norm(lhs - rhs) < 1e-12


def test_derivation_residual_known_cases():
    A = random_bracket()
    # diag(I_6, 0) rescales the abelian ideal compatibly with [e_7, x] = A x
    D_scale = np.zeros((7, 7))
    D_scale[:6, :6] = np.eye(6)
    assert derivation_residual(D_scale, A) < 1e-14
    # any polynomial in A extends by zero on e_7
    D_poly = np.zeros((7, 7))
    D_poly[:6, :6] = A @ A + 3.0 * A
    assert derivation_residual(D_poly, A) < 1e-12
    # rescaling e_7 alone fails by exactly |A|_max
    D_bad = np.zeros((7, 7))
    D_bad[6, 6] = 1.0
    assert abs(derivation_residual(D_bad, A) - np.max(np.abs(A))) < 1e-14


def test_vector_field_is_frozen():
    field = VectorField(value=np.zeros(7), grad=np.zeros((7, 7)))
    with pytest.raises(AttributeError):
        field.value = np.ones(7)
