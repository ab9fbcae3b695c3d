"""G2-structure algebra: identities, type decomposition, closed-form operators."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from g2coflow.almost_abelian import (
    random_sp,
    random_su3,
    torsion_forms,
)
from g2coflow.exterior import (
    KForm,
    form_inner,
    form_norm,
    from_dense,
    pullback,
    theta,
    wedge,
)
from g2coflow.g2 import (
    assemble_4form,
    bianchi_defect,
    canonical_g2,
    circ,
    decompose_4form,
    einstein_defect,
    g2_data_from_pair,
    i_phi,
    i_psi,
    identity_suite,
    infinitesimal_symmetry_check,
    laplacian_closed_form,
    lie_derivative_psi_decomposition,
    metric_from_phi,
    ricci_from_torsion,
)
from g2coflow.metric_lie import (
    covariant_derivative_tensor,
    curl_tensor,
    divergence_tensor,
    hodge_laplacian,
    invariant_vector_field,
    koszul_connection,
    lie_derivative_form,
)

rng = np.random.default_rng(20240813)
CONVENTIONS = ("section4", "example")


def random_symmetric(scale: float = 1.0) -> np.ndarray:
    h = scale * rng.standard_normal((7, 7))
    return h + h.T


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_identity_suite_vanishes(convention):
    data = canonical_g2(convention)
    report = identity_suite(data)
    assert len(report) >= 13
    for name, residual in report.items():
        assert residual < 1e-12, f"{name}: {residual}"


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_scalar_contractions_exact(convention):
    data = canonical_g2(convention)
    p, q = data.phi.dense(), data.psi.dense()
    assert np.einsum("abc,abc->", p, p) == 42.0
    assert np.einsum("abcd,abcd->", q, q) == 168.0
    assert np.array_equal(np.einsum("aij,bij->ab", p, p), 6.0 * np.eye(7))
    assert np.array_equal(np.einsum("aijk,bijk->ab", q, q), 24.0 * np.eye(7))
    assert np.array_equal(np.einsum("ija,ijbc->abc", p, q), 4.0 * p)


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_star_pairing(convention):
    data = canonical_g2(convention)
    assert form_norm(data.star(data.phi) - data.psi) < 1e-14
    assert form_norm(data.star(data.psi) - data.phi) < 1e-14
    assert abs(form_inner(data.phi, data.phi) - 7.0) < 1e-14
    assert abs(form_inner(data.psi, data.psi) - 7.0) < 1e-14


def test_canonical_rejects_unknown_convention():
    with pytest.raises(ValueError):
        canonical_g2("made-up")


def test_pair_assembly_rejects_scaled_omega():
    data = canonical_g2("section4")
    with pytest.raises(ValueError):
        g2_data_from_pair(2.0 * data.omega, data.rho_plus, "section4")


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_metric_from_phi_equivariance(convention):
    data = canonical_g2(convention)
    g0, sign0 = metric_from_phi(data.phi)
    assert np.max(np.abs(g0 - np.eye(7))) < 1e-13
    assert sign0 == data.orientation
    h = np.eye(7) + 0.2 * rng.standard_normal((7, 7))
    if np.linalg.det(h) < 0:
        h[0] = -h[0]
    g, _ = metric_from_phi(pullback(h, data.phi))
    assert np.max(np.abs(g - h.T @ h)) < 1e-10


def test_metric_from_phi_degenerate():
    with pytest.raises(ValueError):
        metric_from_phi(KForm(7, 3, np.zeros(35)))


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_i_phi_i_psi_on_metric(convention):
    data = canonical_g2(convention)
    assert form_norm(i_phi(np.eye(7), data) - 3.0 * data.phi) < 1e-14
    assert form_norm(i_psi(np.eye(7), data) - 4.0 * data.psi) < 1e-14
    with pytest.raises(ValueError):
        i_phi(rng.standard_normal((7, 7)), data)
    with pytest.raises(ValueError):
        i_psi(rng.standard_normal((7, 7)), data)


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_theta_of_symmetric_matches_i_psi(convention):
    # i_phi and i_psi against their defining slot insertions: each slot
    # contraction meets at most one term of phi or psi, so the einsums and
    # -theta(h) agree bit for bit (up to the sign of zero)
    data = canonical_g2(convention)
    p, q = data.phi.dense(), data.psi.dense()
    for _ in range(20):
        h = random_symmetric()
        i_phi_ref = (
            np.einsum("im,mjk->ijk", h, p)
            + np.einsum("jm,imk->ijk", h, p)
            + np.einsum("km,ijm->ijk", h, p)
        )
        i_psi_ref = (
            np.einsum("im,mjkl->ijkl", h, q)
            + np.einsum("jm,imkl->ijkl", h, q)
            + np.einsum("km,ijml->ijkl", h, q)
            + np.einsum("lm,ijkm->ijkl", h, q)
        )
        i_phi_ref = from_dense(7, 3, i_phi_ref).coeffs
        i_psi_ref = from_dense(7, 4, i_psi_ref).coeffs
        assert np.array_equal(i_phi(h, data).coeffs, i_phi_ref)
        assert np.array_equal(i_psi(h, data).coeffs, i_psi_ref)
        assert np.array_equal(theta(h, data.psi).coeffs, -i_psi_ref)


def test_circ_restriction_to_ideal():
    # s o6 t = s_mn t_pq rho+_mpa rho+_nqb is the ideal block of circ on
    # zero-padded arguments; the rest of the padded product is symmetric
    # when s and t are
    for convention in CONVENTIONS:
        data = canonical_g2(convention)
        r = data.rho_plus.dense()[:6, :6, :6]
        for symmetric in (True, False):
            s = rng.standard_normal((6, 6))
            t = rng.standard_normal((6, 6))
            if symmetric:
                s, t = s + s.T, t + t.T
            h = np.zeros((7, 7))
            k = np.zeros((7, 7))
            h[:6, :6] = s
            k[:6, :6] = t
            full = circ(h, k, data)
            expected = np.einsum("mn,pq,mpa,nqb->ab", s, t, r, r)
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(full[:6, :6] - expected)) < 1e-13 * scale
            if symmetric:
                assert np.max(np.abs(full - full.T)) < 1e-13 * scale


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("symmetric", [True, False])
def test_circ_matches_defining_contraction(convention, symmetric):
    data = canonical_g2(convention)
    p = data.phi.dense()
    for _ in range(5):
        h = rng.standard_normal((7, 7))
        k = rng.standard_normal((7, 7))
        if symmetric:
            h, k = h + h.T, k + k.T
        hk = circ(h, k, data)
        expected = np.einsum("amn,bpq,mp,nq->ab", p, p, h, k)
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(hk - expected)) < 1e-13 * scale
        # phi is alternating, so o commutes and transposes slotwise:
        # (h o k)^t = h^t o k^t, which is k o h for symmetric h and k
        assert np.max(np.abs(hk - circ(k, h, data))) < 1e-13 * scale
        assert np.max(np.abs(hk.T - circ(h.T, k.T, data))) < 1e-13 * scale
        if symmetric:
            assert np.max(np.abs(hk.T - circ(k, h, data))) < 1e-13 * scale


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_symbol_tables_are_shared_and_read_only(convention):
    data = canonical_g2(convention)
    P, M = data._symbol_quadratic
    D = data._sp_residual
    assert (P.shape, M.shape, D.shape) == ((21, 36), (37, 441), (36, 36))
    assert canonical_g2(convention)._symbol_quadratic[0] is P
    assert canonical_g2(convention)._sp_residual is D
    for table in (P, M, D):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_sp_coordinates_are_orthonormal_inside_sp(convention):
    data = canonical_g2(convention)
    P, _ = data._symbol_quadratic
    assert np.max(np.abs(P @ P.T - np.eye(21))) < 1e-15
    X = P.reshape(21, 6, 6)
    assert np.max(np.abs(X @ data.J + data.J @ np.swapaxes(X, 1, 2))) < 1e-15
    # sp(R^6) has dimension 21, so P^t P is the orthogonal projection onto it
    A = random_sp(rng, data)
    assert np.max(np.abs(P.T @ (P @ A.ravel()) - A.ravel())) < 1e-14


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_sp_residual_map_is_exact(convention):
    data = canonical_g2(convention)
    D = data._sp_residual
    As = rng.standard_normal((500, 6, 6)) * 10.0 ** rng.integers(-3, 4, (500, 1, 1))
    expected = (As @ data.J + data.J @ np.swapaxes(As, 1, 2)).reshape(500, 36)
    assert np.array_equal(As.reshape(500, 36) @ D.T, expected)
    for A, row in zip(As[:50], expected):
        assert np.array_equal(D @ A.ravel(), row)


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_decompose_assemble_round_trip(convention):
    data = canonical_g2(convention)
    xi = KForm(7, 4, rng.standard_normal(35))
    dec = decompose_4form(xi, data)
    assert form_norm(xi - assemble_4form(dec, data)) < 1e-13


def test_decompose_pure_components():
    data = canonical_g2("section4")
    dec = decompose_4form(data.psi, data)
    assert abs(dec.a - 1.0) < 1e-14
    assert np.max(np.abs(dec.X)) < 1e-14
    assert np.max(np.abs(dec.s)) < 1e-13
    s0 = random_symmetric()
    s0 -= np.trace(s0) / 7.0 * np.eye(7)
    dec = decompose_4form(data.star(i_phi(s0, data)), data)
    assert abs(dec.a) < 1e-13
    assert np.max(np.abs(dec.X)) < 1e-13
    assert np.max(np.abs(dec.s - s0)) < 1e-12
    X0 = rng.standard_normal(7)
    dec = decompose_4form(wedge(KForm(7, 1, X0), data.phi), data)
    assert np.max(np.abs(dec.X - X0)) < 1e-13
    assert abs(dec.a) < 1e-14


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_laplacian_closed_form_matches_hodge(convention):
    data = canonical_g2(convention)
    local = np.random.default_rng((20240813, CONVENTIONS.index(convention)))
    for _ in range(20):
        A = random_sp(local, data)
        T = torsion_forms(A, data)
        gamma = koszul_connection(A)
        curl_T = curl_tensor(T, gamma, data.phi.dense())
        div_T = divergence_tensor(T, gamma)
        lap = laplacian_closed_form(T, curl_T, div_T, data)
        assert np.max(np.abs(lap.X)) < 1e-12  # div T = 0 for coclosed structures
        gap = assemble_4form(lap, data) - hodge_laplacian(data.psi, A)
        assert form_norm(gap) < 1e-10


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_ricci_from_torsion_matches_curvature(convention):
    data = canonical_g2(convention)
    local = np.random.default_rng((20240814, CONVENTIONS.index(convention)))
    from g2coflow.metric_lie import curvature_tensor, ricci_tensor

    for _ in range(10):
        A = random_sp(local, data)
        T = torsion_forms(A, data)
        gamma = koszul_connection(A)
        curl_T = curl_tensor(T, gamma, data.phi.dense())
        ric, scal = ricci_from_torsion(T, curl_T)
        ric_direct = ricci_tensor(curvature_tensor(gamma, A))
        assert np.max(np.abs(ric - ric_direct)) < 1e-11
        assert abs(scal - np.trace(ric_direct)) < 1e-11


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_bianchi_defect_vanishes(convention):
    data = canonical_g2(convention)
    local = np.random.default_rng((20240815, CONVENTIONS.index(convention)))
    for _ in range(10):
        A = random_sp(local, data)
        T = torsion_forms(A, data)
        assert np.max(np.abs(bianchi_defect(T, A, data))) < 1e-11


def test_curvature_phi_psi_contractions_vanish():
    # both full contractions of the curvature against phi and psi are zero
    # for coclosed structures; they pin the curvature sign convention
    data = canonical_g2("section4")
    from g2coflow.metric_lie import curvature_tensor

    A = random_sp(rng, data)
    R = curvature_tensor(koszul_connection(A), A)
    assert np.max(np.abs(np.einsum("abmn,bmn->a", R, data.phi.dense()))) < 1e-12
    assert np.max(np.abs(np.einsum("amnp,bmnp->ab", R, data.psi.dense()))) < 1e-12


def test_einstein_defect_identity_and_su3():
    data = canonical_g2("section4")
    A = random_sp(rng, data)
    T = torsion_forms(A, data)
    gamma = koszul_connection(A)
    curl_T = curl_tensor(T, gamma, data.phi.dense())
    ric, scal = ricci_from_torsion(T, curl_T)
    defect = einstein_defect(T, curl_T, data)
    expected = -1.0 * i_phi(ric - scal / 7.0 * np.eye(7), data)
    assert form_norm(defect - expected) < 1e-11
    # su(3) brackets are Ricci-flat, hence Einstein
    A = random_su3(rng, data)
    T = torsion_forms(A, data)
    curl_T = curl_tensor(T, koszul_connection(A), data.phi.dense())
    assert form_norm(einstein_defect(T, curl_T, data)) < 1e-12


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_lie_derivative_closed_form_matches_cartan(convention):
    data = canonical_g2(convention)
    local = np.random.default_rng((20240816, CONVENTIONS.index(convention)))
    for _ in range(10):
        A = random_sp(local, data)
        T = torsion_forms(A, data)
        gamma = koszul_connection(A)
        X = local.standard_normal(7)
        field = invariant_vector_field(X, gamma)
        dec = lie_derivative_psi_decomposition(field, T, data)
        oracle = lie_derivative_form(X, data.psi, A)
        assert form_norm(assemble_4form(dec, data) - oracle) < 1e-11
        assert abs(dec.a - (4.0 / 7.0) * field.divergence) < 1e-12


def test_symmetry_check_su3_transverse():
    data = canonical_g2("example")
    A = random_su3(rng, data)
    T = torsion_forms(A, data)
    X = np.zeros(7)
    X[6] = 1.0
    field = invariant_vector_field(X, koszul_connection(A))
    ok, residuals = infinitesimal_symmetry_check(field, T, data)
    assert ok
    assert residuals["lie_psi_norm"] < 1e-12


def test_symmetry_check_complex_structure_bracket():
    # A = J is Killing-transverse but not a symmetry: the curl condition
    # fails by twice the torsion corner tr(JA)/2 = -3
    data = canonical_g2("example")
    A = data.J.copy()
    T = torsion_forms(A, data)
    assert np.max(np.abs(T - np.diag([0, 0, 0, 0, 0, 0, -3.0]))) < 1e-14
    X = np.zeros(7)
    X[6] = 1.0
    field = invariant_vector_field(X, koszul_connection(A))
    ok, residuals = infinitesimal_symmetry_check(field, T, data)
    assert not ok
    assert abs(residuals["killing_residual"]) < 1e-14
    assert abs(residuals["curl_torsion_residual"] - 6.0) < 1e-13
    assert abs(residuals["lie_psi_norm"] - 6.0) < 1e-12


def test_nabla_psi_structure():
    # nabla_m psi = -(T e_m)-flat ^ phi, the sign anchor for the whole stack
    data = canonical_g2("section4")
    A = random_sp(rng, data)
    T = torsion_forms(A, data)
    gamma = koszul_connection(A)
    from g2coflow.metric_lie import covariant_derivative_form

    nabla_psi = covariant_derivative_form(data.psi, gamma)
    for m in range(7):
        expected = -1.0 * wedge(KForm(7, 1, T[m].copy()), data.phi)
        assert form_norm(from_dense(7, 4, nabla_psi[m]) - expected) < 1e-12


def test_pullback_by_flow_of_symmetric_matrix():
    # theta is the generator: pullback(expm(-tQ)) psi ~ psi + t theta(Q) psi
    data = canonical_g2("section4")
    Q = random_symmetric(0.3)
    t = 1e-6
    fd = (1.0 / (2.0 * t)) * (
        pullback(expm(-t * Q), data.psi) - pullback(expm(t * Q), data.psi)
    )
    assert form_norm(fd - theta(Q, data.psi)) < 1e-6
