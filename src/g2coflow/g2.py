"""G2-structure tensor core: canonical forms, fitting maps, decompositions.

A G2-structure on R^7 is encoded by the positive 3-form phi; here phi is
assembled from an SU(3)-pair (omega, rho_plus) on the ideal span(e_1..e_6)
as phi = omega ^ e^7 + rho_plus, with dual 4-form
psi = (1/2) omega^2 + rho_minus ^ e^7 and rho_minus = J^* rho_plus.

Both shipped bases induce the identity metric. The orientation induced by
phi may be the opposite of the fixed frame orientation e^{1...7} (it is for
the "example" basis, where omega^3/3! = -e^{123456}); G2Data records that
sign and star() applies it, so identities written with the phi-oriented
Hodge star hold verbatim for every convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exterior import (
    KForm,
    basis_form,
    form_inner,
    form_norm,
    from_terms,
    hodge_star,
    interior,
    pullback,
    theta,
    wedge,
)
from .metric_lie import (
    DIM,
    VectorField,
    covariant_derivative_tensor,
    curl_vector,
    curvature_tensor,
    koszul_connection,
)

__all__ = [
    "G2Data",
    "CONVENTIONS",
    "canonical_g2",
    "g2_data_from_pair",
    "metric_from_phi",
    "i_phi",
    "i_psi",
    "circ",
    "Decomposition4",
    "decompose_4form",
    "identity_suite",
    "ricci_from_torsion",
    "bianchi_defect",
    "einstein_defect",
    "laplacian_closed_form",
    "assemble_4form",
    "PsiLieDerivative",
    "lie_derivative_psi_decomposition",
    "infinitesimal_symmetry_check",
]

CONVENTIONS = ("section4", "example")

# SU(3)-pairs of the two shipped bases, as (index tuple, coefficient) terms
# over 0-based frame indices.
_OMEGA_TERMS = {
    "section4": [((0, 1), 1.0), ((2, 3), 1.0), ((4, 5), 1.0)],
    "example": [((0, 3), 1.0), ((1, 4), 1.0), ((2, 5), 1.0)],
}
_RHO_PLUS_TERMS = {
    "section4": [
        ((0, 2, 4), 1.0),
        ((0, 3, 5), -1.0),
        ((1, 3, 4), -1.0),
        ((1, 2, 5), -1.0),
    ],
    "example": [
        ((0, 1, 2), 1.0),
        ((0, 4, 5), -1.0),
        ((1, 3, 5), 1.0),
        ((2, 3, 4), -1.0),
    ],
}


@dataclass(frozen=True)
class G2Data:
    """Immutable bundle of one G2-structure in an orthonormal frame."""

    convention: str
    omega: KForm
    rho_plus: KForm
    rho_minus: KForm
    phi: KForm
    psi: KForm
    J: np.ndarray
    orientation: int

    def star(self, a: KForm) -> KForm:
        """Hodge star for the phi-induced orientation."""
        out = hodge_star(a)
        return out if self.orientation == 1 else -out

    @cached_property
    def _symbol_quadratic(self) -> tuple[np.ndarray, np.ndarray]:
        """(P, M): the Laplacian symbol as a quadratic form on sp(R^6).

        Rows of P (21x36) are vec(J Sigma_a) for the orthonormal basis
        E_ii, (E_ij + E_ji)/sqrt(2) of Sym(6), so z = P vec(A) are the
        coordinates of the orthogonal projection of A onto sp(R^6) =
        J Sym(6). M (37x441) gives [vec Qh; q] = M (z (x) z) for
        Qh = (1/2)([A,A^t] + S o6 S), q = -(1/2) tr S^2 - (1/4)(tr JA)^2:
        its column (a, b) is the bilinear form behind the symbol on the
        basis pair X_a = J Sigma_a, X_b = J Sigma_b (only its symmetric
        part meets z (x) z). Both are read-only.
        """
        rows, cols = np.triu_indices(6)
        sigma = np.zeros((21, 6, 6))
        weight = np.where(rows == cols, 1.0, math.sqrt(0.5))
        sigma[np.arange(21), rows, cols] = weight
        sigma[np.arange(21), cols, rows] = weight
        X = self.J @ sigma
        S = 0.5 * (X + np.swapaxes(X, 1, 2))
        # (1/2)(X_a X_b^t - X_a^t X_b)
        comm = 0.5 * (
            np.einsum("aij,bkj->abik", X, X) - np.einsum("aji,bjk->abik", X, X)
        )
        # (1/2) S_a o6 S_b = (1/2) S_a,mn S_b,pq rho+_mpc rho+_nqd: contract
        # each factor with one rho+ and the pair over the shared (m, q)
        r = np.ascontiguousarray(self.rho_plus.dense()[:6, :6, :6])
        U = np.einsum("amn,nqd->mqad", S, r).reshape(36, 21 * 6)
        T = np.einsum("bpq,mpc->mqbc", S, r).reshape(36, 21 * 6)
        circ = 0.5 * (T.T @ U).reshape(21, 6, 21, 6).transpose(2, 0, 1, 3)
        tr_js = np.einsum("ij,aji->a", self.J, X)
        q = -0.5 * np.einsum("aij,bij->ab", S, S) - 0.25 * np.outer(tr_js, tr_js)
        M = np.empty((37, 21, 21))
        M[:36] = (comm + circ).reshape(21, 21, 36).transpose(2, 0, 1)
        M[36] = q
        P = X.reshape(21, 36)
        M = M.reshape(37, 441)
        for a in (P, M):
            a.setflags(write=False)
        return P, M

    @cached_property
    def _sp_residual(self) -> np.ndarray:
        """D (36x36, read-only) with D vec(A) = vec(A J + J A^t).

        When J is a signed permutation, as in both shipped bases, each
        entry of D vec(A) is a sum of at most two signed entries of A and
        equals the matrix-product form bit for bit.
        """
        E = np.eye(36).reshape(36, 6, 6)
        columns = E @ self.J + self.J @ np.swapaxes(E, 1, 2)
        D = np.ascontiguousarray(columns.reshape(36, 36).T)
        D.setflags(write=False)
        return D


def metric_from_phi(phi: KForm) -> tuple[np.ndarray, int]:
    """Metric and orientation sign induced by a positive 3-form.

    6 g(X,Y) vol_g = (X -| phi) ^ (Y -| phi) ^ phi; the e^{1...7} coefficient
    of that 7-form gives B = g sqrt(det g) up to the orientation sign, and
    the signed ninth root removes the conformal factor.
    """
    B = np.empty((DIM, DIM))
    contractions = [interior(np.eye(DIM)[i], phi) for i in range(DIM)]
    for i in range(DIM):
        for j in range(i, DIM):
            top = wedge(wedge(contractions[i], contractions[j]), phi)
            B[i, j] = B[j, i] = top.coeffs[0] / 6.0
    det = np.linalg.det(B)
    if det == 0.0:
        raise ValueError("degenerate 3-form: vanishing induced volume")
    sign = 1 if det > 0 else -1
    g = sign * B * abs(det) ** (-1.0 / 9.0)
    return g, sign


def g2_data_from_pair(omega: KForm, rho_plus: KForm, convention: str) -> G2Data:
    """Assemble G2Data from an SU(3)-pair on the ideal."""
    Omega = np.zeros((6, 6))
    for (i, j), c in omega.terms():
        if max(i, j) > 5:
            raise ValueError("omega must live on the ideal span(e_1..e_6)")
        Omega[i, j] = c
        Omega[j, i] = -c
    J = Omega.T  # omega_{ij} = <J e_i, e_j>
    J.setflags(write=False)
    J7 = np.zeros((DIM, DIM))
    J7[:6, :6] = J
    rho_minus = pullback(J7, rho_plus)
    e7 = basis_form(DIM, (6,))
    phi = wedge(omega, e7) + rho_plus
    psi = 0.5 * wedge(omega, omega) + wedge(rho_minus, e7)
    g, sign = metric_from_phi(phi)
    if not np.allclose(g, np.eye(DIM), atol=1e-12):
        raise ValueError("SU(3)-pair does not induce the identity metric")
    data = G2Data(
        convention=convention,
        omega=omega,
        rho_plus=rho_plus,
        rho_minus=rho_minus,
        phi=phi,
        psi=psi,
        J=J,
        orientation=sign,
    )
    if form_norm(data.star(phi) - psi) > 1e-12:
        raise ValueError("assembled psi does not match the oriented star of phi")
    return data


_CANONICAL: dict[str, G2Data] = {}


def canonical_g2(convention: str = "section4") -> G2Data:
    """The two shipped bases: "section4" and "example".

    Each is built once per process; later calls return the same immutable
    G2Data.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}, expected {CONVENTIONS}")
    data = _CANONICAL.get(convention)
    if data is None:
        omega = from_terms(DIM, 2, _OMEGA_TERMS[convention])
        rho_plus = from_terms(DIM, 3, _RHO_PLUS_TERMS[convention])
        data = _CANONICAL[convention] = g2_data_from_pair(omega, rho_plus, convention)
    return data


def _symmetric(h: np.ndarray, name: str) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    scale = max(1.0, float(np.max(np.abs(h))))
    if np.max(np.abs(h - np.swapaxes(h, -1, -2))) > 1e-8 * scale:
        raise ValueError(f"{name} expects a symmetric matrix")
    return h


def i_phi(h: np.ndarray, data: G2Data) -> KForm:
    """3-form i_phi(h)_{ijk} = h_i^m phi_{mjk} + h_j^m phi_{imk} + h_k^m phi_{ijm},
    which is -theta(h) phi for symmetric h."""
    h = _symmetric(np.asarray(h, dtype=float).reshape(DIM, DIM), "i_phi")
    return -theta(h, data.phi)


def i_psi(h: np.ndarray, data: G2Data) -> KForm:
    """4-form analogue of i_phi, one slot insertion per argument: -theta(h) psi."""
    h = _symmetric(np.asarray(h, dtype=float).reshape(DIM, DIM), "i_psi")
    return -theta(h, data.psi)


def circ(h: np.ndarray, k: np.ndarray, data: G2Data) -> np.ndarray:
    """(h o k)_{ab} = phi_{amn} phi_{bpq} h^{mp} k^{nq} on R^7.

    Evaluated as three small matrix products:
    W_{amq} = phi_{amn} k_{nq} (phi reshaped to 49x7), Y_{apq} = h_{mp}
    W_{amq} (one batched product h^t W over a), and Y F^t with Y and
    F = phi both reshaped to 7x49 (rows a and b, columns (p, q)). phi is
    rho+ on the ideal, so s o6 t is the 6x6 block of circ on padded s, t.
    """
    p = data.phi.dense()
    h = np.asarray(h, dtype=float).reshape(DIM, DIM)
    k = np.asarray(k, dtype=float).reshape(DIM, DIM)
    Y = h.T @ (p.reshape(DIM * DIM, DIM) @ k).reshape(DIM, DIM, DIM)
    return Y.reshape(DIM, DIM * DIM) @ p.reshape(DIM, DIM * DIM).T


@dataclass(frozen=True)
class Decomposition4:
    """Type components of a 4-form: a psi + X-flat ^ phi + star i_phi(s)."""

    a: float
    X: np.ndarray
    s: np.ndarray
    residual: float


def decompose_4form(xi: KForm, data: G2Data) -> Decomposition4:
    """Split a 4-form into its 1 + 7 + 27 components against data.psi.

    a = <xi, psi>/7; X_m = <xi, e^m ^ phi>/4; s from the symmetrised psi
    contraction xi_{imnp} psi_j^{mnp} + (i <-> j) = 24 (2a g - s).
    """
    a = form_inner(xi, data.psi) / 7.0
    X = np.array(
        [
            form_inner(xi, wedge(basis_form(DIM, (m,)), data.phi)) / 4.0
            for m in range(DIM)
        ]
    )
    C = np.einsum("imnp,jmnp->ij", xi.dense(), data.psi.dense())
    s = 2.0 * a * np.eye(DIM) - (C + C.T) / 24.0
    recon = assemble_4form(a, X, s, data)
    return Decomposition4(a=a, X=X, s=s, residual=form_norm(xi - recon))


def identity_suite(data: G2Data) -> dict[str, float]:
    """Max-abs residuals of the contraction identity battery.

    The thirteen core identities (nine phi/psi contractions, four SU(3)
    displays) plus structural round-trip checks; every value should vanish
    to machine precision for a canonical basis.
    """
    p = data.phi.dense()
    q = data.psi.dense()
    d6 = np.eye(6)
    d7 = np.eye(DIM)
    om = data.omega.dense()[:6, :6]
    rp = data.rho_plus.dense()[:6, :6, :6]
    rm = data.rho_minus.dense()[:6, :6, :6]

    res: dict[str, float] = {}

    def put(name: str, lhs, rhs) -> None:
        res[name] = float(np.max(np.abs(np.asarray(lhs) - np.asarray(rhs))))

    put("phi_phi_full", np.einsum("abc,abc->", p, p), 42.0)
    put("phi_phi_1free", np.einsum("abj,abk->jk", p, p), 6.0 * d7)
    put(
        "phi_phi_2free",
        np.einsum("apq,ajk->pqjk", p, p),
        np.einsum("pj,qk->pqjk", d7, d7) - np.einsum("pk,qj->pqjk", d7, d7) + q,
    )
    put("phi_psi_full", np.einsum("ijk,aijk->a", p, q), np.zeros(DIM))
    put("phi_psi_2free", np.einsum("ijq,ijkl->qkl", p, q), 4.0 * p)
    put(
        "phi_psi_1free",
        np.einsum("ipq,ijkl->pqjkl", p, q),
        np.einsum("pj,qkl->pqjkl", d7, p)
        - np.einsum("jq,pkl->pqjkl", d7, p)
        + np.einsum("pk,jql->pqjkl", d7, p)
        - np.einsum("kq,jpl->pqjkl", d7, p)
        + np.einsum("pl,jkq->pqjkl", d7, p)
        - np.einsum("lq,jkp->pqjkl", d7, p),
    )
    put(
        "psi_psi_2free",
        np.einsum("abcd,abmn->cdmn", q, q),
        4.0 * np.einsum("cm,dn->cdmn", d7, d7)
        - 4.0 * np.einsum("cn,dm->cdmn", d7, d7)
        + 2.0 * q,
    )
    put("psi_psi_1free", np.einsum("abcd,mbcd->am", q, q), 24.0 * d7)
    put("psi_psi_full", np.einsum("abcd,abcd->", q, q), 168.0)

    # SU(3) displays on the ideal
    su3_a = [
        np.max(np.abs(np.einsum("ip,pj->ij", om, om) + d6)),
        np.max(np.abs(np.einsum("iab,ab->i", rp, om))),
        np.max(np.abs(np.einsum("ijp,pk->ijk", rp, om) - rm)),
        np.max(np.abs(np.einsum("ijp,pk->ijk", rm, om) + rp)),
    ]
    res["su3_omega_rho"] = float(max(su3_a))
    su3_b = [
        np.max(np.abs(np.einsum("ipq,jpq->ij", rp, rm) - 4.0 * om)),
        np.max(np.abs(np.einsum("ipq,jpq->ij", rp, rp) - 4.0 * d6)),
        np.max(np.abs(np.einsum("ipq,jpq->ij", rm, rm) - 4.0 * d6)),
    ]
    res["su3_rho_rho_2free"] = float(max(su3_b))
    put(
        "su3_rho_mp_1free",
        np.einsum("ijp,klp->ijkl", rm, rp),
        -np.einsum("ik,jl->ijkl", om, d6)
        + np.einsum("jk,il->ijkl", om, d6)
        + np.einsum("il,jk->ijkl", om, d6)
        - np.einsum("jl,ik->ijkl", om, d6),
    )
    rho_pp_rhs = (
        -np.einsum("ik,jl->ijkl", om, om)
        + np.einsum("il,jk->ijkl", om, om)
        + np.einsum("ik,jl->ijkl", d6, d6)
        - np.einsum("jk,il->ijkl", d6, d6)
    )
    su3_c = [
        np.max(np.abs(np.einsum("ijp,klp->ijkl", rp, rp) - rho_pp_rhs)),
        np.max(np.abs(np.einsum("ijp,klp->ijkl", rm, rm) - rho_pp_rhs)),
    ]
    res["su3_rho_pp_1free"] = float(max(su3_c))

    # structural round-trips
    res["phi_norm"] = abs(form_inner(data.phi, data.phi) - 7.0)
    res["psi_norm"] = abs(form_inner(data.psi, data.psi) - 7.0)
    res["psi_is_star_phi"] = form_norm(data.star(data.phi) - data.psi)
    res["phi_is_star_psi"] = form_norm(data.star(data.psi) - data.phi)
    g, _ = metric_from_phi(data.phi)
    res["metric_identity"] = float(np.max(np.abs(g - d7)))
    res["i_phi_metric"] = form_norm(i_phi(np.eye(DIM), data) - 3.0 * data.phi)
    res["i_psi_metric"] = form_norm(i_psi(np.eye(DIM), data) - 4.0 * data.psi)
    return res


def ricci_from_torsion(
    T: np.ndarray, curl_T: np.ndarray
) -> tuple[np.ndarray, float]:
    """Ric = -Curl T - T^2 + (tr T) T and R = (tr T)^2 - |T|^2."""
    T = np.asarray(T, dtype=float)
    ric = -curl_T - T @ T + np.trace(T) * T
    scal = float(np.trace(T) ** 2 - np.sum(T * T))
    return ric, scal


def bianchi_defect(T: np.ndarray, A: np.ndarray, data: G2Data) -> np.ndarray:
    """Defect of the curvature identity for coclosed structures:

    grad_i T_jk - grad_j T_ik = -(1/2 R_ijmn + T_im T_jn) phi_kmn,

    with the frame curvature R[i,j,k,m] = <(grad_i grad_j - grad_j grad_i
    - grad_[ei,ej]) e_k, e_m> and Ric_jk = R_ljkl. Identically zero; the
    returned (7,7,7) array measures numerical and convention drift.
    """
    T = np.asarray(T, dtype=float)
    gamma = koszul_connection(A)
    R = curvature_tensor(gamma, A)
    nT = covariant_derivative_tensor(T, gamma)
    phi = data.phi.dense()
    lhs = nT - np.einsum("jik->ijk", nT)
    rhs = -np.einsum("ijmn,kmn->ijk", 0.5 * R, phi) - np.einsum(
        "im,jn,kmn->ijk", T, T, phi
    )
    return lhs - rhs


def einstein_defect(T: np.ndarray, curl_T: np.ndarray, data: G2Data) -> KForm:
    """Defect 3-form i_phi(Curl T) - (3/7)|T|^2 phi + (tr T) tau3 + i_phi(T^2).

    tau3 = i_phi(tau27) with tau27 = (tr T / 7) g - T. Vanishes iff the
    metric is Einstein; a diagnostic, not an identity.
    """
    T = np.asarray(T, dtype=float)
    tau3 = i_phi(np.trace(T) / 7.0 * np.eye(DIM) - T, data)
    return (
        i_phi(curl_T, data)
        - (3.0 / 7.0) * float(np.sum(T * T)) * data.phi
        + float(np.trace(T)) * tau3
        + i_phi(T @ T, data)
    )


def laplacian_closed_form(
    T: np.ndarray,
    curl_T: np.ndarray,
    div_T: np.ndarray,
    data: G2Data,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Component triple (a, X, s) of the Hodge Laplacian of psi, coclosed case.

    Delta psi = a psi + X-flat ^ phi + star i_phi(s) with
    a = (2/7)((tr T)^2 + |T|^2), X = div T and
    s = Ric - (1/2) T o T - (tr T) T + (1/14)((tr T)^2 + |T|^2) g,
    Ric computed from (T, Curl T).
    """
    T = np.asarray(T, dtype=float)
    ric, _ = ricci_from_torsion(T, curl_T)
    tr = float(np.trace(T))
    norm_sq = float(np.sum(T * T))
    a = (2.0 / 7.0) * (tr**2 + norm_sq)
    s = (
        ric
        - 0.5 * circ(T, T, data)
        - tr * T
        + (tr**2 + norm_sq) / 14.0 * np.eye(DIM)
    )
    return a, np.asarray(div_T, dtype=float).copy(), s


def assemble_4form(a: float, X: np.ndarray, s: np.ndarray, data: G2Data) -> KForm:
    """Rebuild a psi + X-flat ^ phi + star i_phi(s); inverse of decompose_4form."""
    return (
        a * data.psi
        + wedge(KForm(DIM, 1, np.asarray(X, dtype=float)), data.phi)
        + data.star(i_phi(s, data))
    )


@dataclass(frozen=True)
class PsiLieDerivative:
    """Components of L_X psi in the 1 + 7 + 27 splitting."""

    a: float
    w: np.ndarray
    s: np.ndarray
    total: KForm


def lie_derivative_psi_decomposition(
    field: VectorField, T: np.ndarray, data: G2Data
) -> PsiLieDerivative:
    """L_X psi = (4/7)(div X) psi + (-1/2 Curl X - X -| T)-flat ^ phi
    + star i_phi((1/7)(div X) g - (1/2) L_X g).

    The sign of the X -| T term is pinned by the Chevalley-Eilenberg oracle
    under the convention nabla_m phi = (T e_m) -| psi (see tests); it enters
    through nabla_m psi = -(T e_m)-flat ^ phi.
    """
    div_x = field.divergence
    w = -0.5 * curl_vector(field, data.phi.dense()) - np.einsum(
        "a,ab->b", field.value, np.asarray(T, dtype=float)
    )
    s = (div_x / 7.0) * np.eye(DIM) - 0.5 * field.lie_derivative_metric
    total = (
        (4.0 / 7.0) * div_x * data.psi
        + wedge(KForm(DIM, 1, w), data.phi)
        + data.star(i_phi(s, data))
    )
    return PsiLieDerivative(a=(4.0 / 7.0) * div_x, w=w, s=s, total=total)


def infinitesimal_symmetry_check(
    field: VectorField, T: np.ndarray, data: G2Data, tol: float = 1e-10
) -> tuple[bool, dict[str, float]]:
    """X preserves psi iff it is Killing and Curl X = -2 (X -| T).

    The curl condition is the vanishing of the middle component of
    lie_derivative_psi_decomposition, so its sign follows the same oracle.
    """
    killing = float(np.max(np.abs(field.lie_derivative_metric)))
    decomposition = lie_derivative_psi_decomposition(field, T, data)
    # -2 w is Curl X + 2 (X -| T) bit for bit: both scalings are by powers of 2
    curl_gap = float(np.max(np.abs(-2.0 * decomposition.w)))
    lie_psi = form_norm(decomposition.total)
    residuals = {
        "killing_residual": killing,
        "curl_torsion_residual": curl_gap,
        "lie_psi_norm": lie_psi,
    }
    return killing < tol and curl_gap < tol, residuals
