"""Soliton certification for the bracket coflow.

A bracket A is a soliton when Delta psi = lambda psi + L_X psi for the
field X_D = -D of some derivation D, with lambda = -4c. At the bracket
level this is Q_A = c I_7 + (1/2)(D + D^t) with D = blockdiag(D1, d);
algebraic solitons additionally have D^t a derivation, which collapses to
a single commutator equation in A. All certified solitons here are
expanding (c < 0) or steady and torsion-free (c = 0).

The constants, the certificates, the derivation search and the PDE check
all read one symbol_terms record of the Laplacian symbol (Qh, q) of
almost_abelian, and its sp gate is a certificate's only one; with
2 Qh = [A,A^t] + S o6 S, d = <Qh, [A,A^t]>/|A|^2 and c = q - d.

Certification tolerance defaults to 1e-8: the library inputs are exact
rational/sqrt(2) combinations evaluated in double precision, so this
leaves headroom over accumulation error without admitting near-misses.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .almost_abelian import (
    _blockdiag,
    _symbol_evaluator,
    require_sp,
    torsion_forms_ungated,
)
from .exterior import form_norm, theta
from .g2 import G2Data, circ, ricci_from_torsion
from .metric_lie import (
    DIM,
    VectorField,
    curl_vector,
    derivation_residual,
    divergence_tensor,
    hodge_laplacian,
    linear_vector_field,
)

__all__ = [
    "CERT_TOL",
    "SolitonReport",
    "SymbolTerms",
    "symbol_terms",
    "algebraic_check",
    "semi_algebraic_check",
    "find_derivation",
    "soliton_pde_check",
    "general_soliton_conditions",
    "trace_identity_check",
    "classify",
    "certify",
    "self_similar_bracket",
    "load_example",
]

CERT_TOL = 1e-8


@dataclass(frozen=True)
class SolitonReport:
    """Certification outcome for one bracket.

    kind is "algebraic", "semi_algebraic", or "none"; D is the assembled
    7x7 candidate derivation (None when kind is "none"); residuals holds
    the named defects that justify the verdict.
    """

    kind: str
    c: float
    d: float
    A: np.ndarray
    D: np.ndarray | None
    residuals: dict
    classification: str

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "c": self.c,
            "d": self.d,
            "classification": self.classification,
            "A": self.A.tolist(),
            "D": None if self.D is None else self.D.tolist(),
            "residuals": {k: float(v) for k, v in self.residuals.items()},
        }


# x -> x + x^t on row-major vec(x) of 6x6 matrices: I36 plus the transpose
# permutation
_SYM_PART = np.eye(36) + np.eye(36)[np.arange(36).reshape(6, 6).T.ravel()]
_SYM_PART.setflags(write=False)
# I6 with the axes a Kronecker product broadcasts over: (i, 1, k, 1) for
# I (x) B, (1, j, 1, l) for B (x) I; read-only views of one frozen I6
_EYE6 = np.eye(6)
_EYE6.setflags(write=False)
_EYE_LEFT = _EYE6[:, None, :, None]
_EYE_RIGHT = _EYE6[None, :, None, :]


# The record every certificate stage reads: the sp-gated bracket A, the
# Laplacian symbol Q_A = blockdiag(Qh, q) and the constants c and d.
SymbolTerms = namedtuple("SymbolTerms", "A Qh q c d")


def symbol_terms(A: np.ndarray, data: G2Data) -> SymbolTerms:
    """A certificate's one symbol evaluation, for a nonzero sp bracket:
    d = (|[A,A^t]|^2 + <S o6 S, [A,A^t]>) / (2|A|^2) = <Qh, [A,A^t]>/|A|^2
    and c = q_A - d. A nonzero bracket whose |A|^2 underflows is refused as
    such, not as the zero bracket."""
    A = require_sp(A, data)
    norm_sq = float(np.sum(A * A))
    if norm_sq == 0.0:
        tiny = "a bracket whose |A|^2 underflows to 0"
        why = tiny if np.any(A) else "the zero bracket"
        raise ValueError(f"soliton constants are undefined for {why}")
    Qh, q = _symbol_evaluator(data)(A.ravel())
    q = float(q)
    d = float(np.sum(Qh * (A @ A.T - A.T @ A))) / norm_sq
    return SymbolTerms(A, Qh, q, q - d, d)


def algebraic_check(sym: SymbolTerms, tol: float = CERT_TOL) -> tuple:
    """[[A,A^t] + S o6 S, A] = 2d A, plus derivation checks on success.

    Returns (residual, D, derivation). The residual is the worst of the
    commutator equation and, when it passes, the derivation defect of
    D = Q_A - cI and D^t; D is None unless the residual is below tol.
    """
    A, Qh, q, c, d = sym
    M = 2.0 * Qh
    residual = float(np.max(np.abs((M @ A - A @ M) - 2.0 * d * A)))
    if residual >= tol:
        return residual, None, None
    D = _blockdiag(Qh - c * np.eye(6), q - c)
    derivation = max(derivation_residual(D, A), derivation_residual(D.T, A))
    residual = max(residual, derivation)
    return residual, D if residual < tol else None, derivation


def semi_algebraic_check(
    sym: SymbolTerms, D1: np.ndarray, tol: float = CERT_TOL
) -> tuple[bool, dict]:
    """Residuals of the semi-algebraic system for a candidate D1.

    derivation: [D1, A] - dA; matrix_eq: [A,A^t] + S o6 S - (2c I + D1 +
    D1^t); symbol: Q_A - (c I_7 + (1/2)(D + D^t)) for D = blockdiag(D1, d).
    """
    A, Qh, q, c, d = sym
    D1 = np.asarray(D1, dtype=float).reshape(6, 6)
    D = _blockdiag(D1, d)
    residuals = {
        "derivation": float(np.max(np.abs(D1 @ A - A @ D1 - d * A))),
        "matrix_eq": float(
            np.max(np.abs(2.0 * Qh - 2.0 * c * np.eye(6) - D1 - D1.T))
        ),
        "symbol": float(
            np.max(np.abs(_blockdiag(Qh, q) - c * np.eye(DIM) - 0.5 * (D + D.T)))
        ),
    }
    return all(v < tol for v in residuals.values()), residuals


def find_derivation(
    sym: SymbolTerms, data: G2Data, tol: float = CERT_TOL
) -> tuple[np.ndarray | None, dict]:
    """Least-squares search for D1 with [D1, A] = dA and prescribed
    symmetric part D1 + D1^t = [A,A^t] + S o6 S - 2cI.

    The constraints only see the symmetric part and the commutator, so the
    skew part carries gauge freedom; among exact solutions the one whose
    skew part has the smallest phi-contraction (the rotation that fixes
    psi) is returned, which is what the PDE check needs. Returns None when
    the best residual exceeds tol.
    """
    A, Qh, _, c, d = sym
    target = 2.0 * Qh - 2.0 * c * np.eye(6)

    # On row-major vec(D1): vec(D1 A - A D1) = (I (x) A^t - A (x) I) vec(D1),
    # each Kronecker product formed as numpy's kron forms it, bit for bit
    kron_diff = _EYE_LEFT * A.T[None, :, None, :] - A[:, None, :, None] * _EYE_RIGHT
    P = np.concatenate([kron_diff.reshape(36, 36), _SYM_PART])
    b = np.concatenate([(d * A).ravel(), target.ravel()])

    x0, *_ = np.linalg.lstsq(P, b, rcond=None)
    residual = float(np.max(np.abs(P @ x0 - b)))
    report = {"residual": residual}
    if residual >= tol:
        return None, report

    # Fix the gauge inside the solution space: minimize the phi-contraction
    # of the skew part over x0 + null(P).
    phi = data.phi.dense()
    G = phi[:6, :6, :].reshape(36, DIM).T
    # P is 72x36, so svd gives all 36 singular values
    _, sv, vt = np.linalg.svd(P)
    N = vt[sv < 1e-10 * sv[0]].T
    if N.size:
        z, *_ = np.linalg.lstsq(G @ N, -(G @ x0), rcond=None)
        x0 = x0 + N @ z
    report["nullity"] = N.shape[1]
    report["gauge_residual"] = float(np.max(np.abs(G @ x0)))
    return x0.reshape(6, 6), report


def soliton_pde_check(sym: SymbolTerms, D: np.ndarray, data: G2Data) -> float:
    """|Delta psi - lambda psi - L_{X_D} psi| with lambda = -4c, for the
    record's A and c.

    Delta psi comes from the algebra differential; the Lie derivative
    along X_D = -D (the generator of the pullback family exp(tD)^* psi)
    is theta(D) psi.
    """
    D = np.asarray(D, dtype=float).reshape(DIM, DIM)
    lap = hodge_laplacian(data.psi, sym.A)
    gap = lap - (-4.0 * sym.c) * data.psi - theta(D, data.psi)
    return form_norm(gap)


def general_soliton_conditions(
    T: np.ndarray,
    curl_T: np.ndarray,
    ric: np.ndarray,
    X: VectorField,
    lam: float,
    gamma: np.ndarray,
    data: G2Data,
) -> tuple[float, float]:
    """Residuals of the two component equations of the soliton system:

    div T = -(1/2)(Curl X)^flat - X .| T
    -Ric + (1/2) T o T + (tr T) T = (lambda/4) g + (1/2) L_X g

    curl_T is used to cross-check ric against the torsion closed form; a
    gross mismatch means the caller paired tensors from different brackets.
    """
    T = np.asarray(T, dtype=float)
    ric_closed, _ = ricci_from_torsion(T, curl_T)
    if np.max(np.abs(ric - ric_closed)) > 1e-6 * max(1.0, np.max(np.abs(ric))):
        raise ValueError("ric does not match the torsion closed form")

    div_T = divergence_tensor(T, gamma)
    curl_X = curl_vector(X, data.phi.dense())
    res1 = float(np.max(np.abs(div_T + 0.5 * curl_X + T @ X.value)))

    lhs = -ric + 0.5 * circ(T, T, data) + np.trace(T) * T
    rhs = (lam / 4.0) * np.eye(DIM) + 0.5 * X.lie_derivative_metric
    res2 = float(np.max(np.abs(lhs - rhs)))
    return res1, res2


def trace_identity_check(T: np.ndarray, X: VectorField, lam: float) -> float:
    """|(1/2)((tr T)^2 + |T|^2) - (7/4) lambda - div X|."""
    T = np.asarray(T, dtype=float)
    lhs = 0.5 * (np.trace(T) ** 2 + np.sum(T * T))
    return float(abs(lhs - 1.75 * lam - X.divergence))


def classify(c: float, tol: float = CERT_TOL) -> str:
    """steady when |c| <= tol, otherwise the sign of c; undefined when c is
    not finite (a NaN has no sign, and an overflowed c is no verdict)."""
    if not math.isfinite(c):
        return "undefined"
    if abs(c) <= tol:
        return "steady"
    return "expanding" if c < 0 else "shrinking"


def _torsion_free(A: np.ndarray, T: np.ndarray, data: G2Data) -> bool:
    """The torsion-free gate on A and its torsion T, following the two
    scalar routes: tr JA = 0 and S_A = 0 (so S^2 = 0), equivalent to
    |T| = 0."""
    S = 0.5 * (A + A.T)
    return bool(
        abs(np.trace(data.J @ A)) < 1e-8
        and np.max(np.abs(S @ S)) < 1e-8
        and np.max(np.abs(T)) < 1e-8
    )


def certify(A: np.ndarray, data: G2Data, tol: float = CERT_TOL) -> SolitonReport:
    """Full pipeline: constants, algebraic check, derivation search,
    PDE and trace-identity residuals, all stages on one symbol_terms
    record (one symbol evaluation and one sp gate per certificate); T is
    formed once, by torsion_forms_ungated on the record's gated A, where
    the trace identity or the steady verdict reads it.

    The classification is the package's one steadiness verdict: steady
    when |c| <= tol and the bracket is torsion-free, otherwise the sign
    of c."""
    A, _, _, c, d = sym = symbol_terms(A, data)
    alg_res, D, derivation = algebraic_check(sym, tol)
    residuals: dict = {"algebraic_eq": alg_res}
    if D is not None:
        kind = "algebraic"
        residuals["derivation"] = derivation
        residuals["soliton_eq"] = alg_res
    else:
        D1, search = find_derivation(sym, data, tol)
        if D1 is not None:
            ok, semi_res = semi_algebraic_check(sym, D1, tol)
            if ok:
                kind = "semi_algebraic"
                D = _blockdiag(D1, d)
                residuals["derivation"] = semi_res["derivation"]
                residuals["soliton_eq"] = semi_res["matrix_eq"]
            else:
                kind = "none"
                residuals.update(semi_res)
        else:
            kind = "none"
            residuals["derivation"] = search["residual"]

    classification = classify(c, tol)
    if D is not None or classification == "steady":
        T = torsion_forms_ungated(A, data)
    if D is not None:
        residuals["pde"] = soliton_pde_check(sym, D, data)
        X = linear_vector_field(-D)
        residuals["trace_identity"] = trace_identity_check(T, X, -4.0 * c)

    if classification == "steady" and not _torsion_free(A, T, data):
        # steady means torsion-free: a skew bracket has c = -(1/4)(tr JA)^2,
        # inside CERT_TOL up to |tr JA| = 2e-4, so the sign decides
        classification = classify(c, 0.0)
    return SolitonReport(
        kind=kind,
        c=c,
        d=d,
        A=A,
        D=D,
        residuals=residuals,
        classification=classification,
    )


def self_similar_bracket(
    A: np.ndarray, D: np.ndarray, c: float, t: float
) -> np.ndarray:
    """Closed-form soliton orbit (1 - 2ct)^{-1/2} e^{sE} A e^{-sE}.

    E is the skew part of the 6x6 block of D and s(t) = -log(1-2ct)/(2c),
    degenerating to s = t for steady solitons. Only defined while
    1 - 2ct > 0.
    """
    A = np.asarray(A, dtype=float)
    D = np.asarray(D, dtype=float)
    if D.shape == (DIM, DIM):
        D = D[:6, :6]
    scale = 1.0 - 2.0 * c * t
    if scale <= 0.0:
        raise ValueError(f"closed form undefined at t = {t:g} (1 - 2ct <= 0)")
    E = 0.5 * (D - D.T)
    s = t if c == 0.0 else -np.log(scale) / (2.0 * c)
    # i E is Hermitian: with i E = U diag(lam) U^H, e^{sE} = U diag(e^{-i s lam}) U^H
    # is real, and e^{-sE} is its transpose because E is skew
    lam, U = np.linalg.eigh(1j * E)
    rot = ((U * np.exp(-1j * s * lam)) @ U.conj().T).real
    return scale**-0.5 * rot @ A @ rot.T


def load_example(name: str = "nilpotent3") -> dict:
    """Shipped example library; matrices come back as arrays."""
    text = resources.files("g2coflow.fixtures").joinpath(f"{name}.json").read_text()
    raw = json.loads(text)
    out = dict(raw)
    for key in ("A", "B", "C", "D", "D1"):
        out[key] = np.asarray(raw[key], dtype=float)
    return out
