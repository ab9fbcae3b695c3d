"""Closed-form structure quantities parametrized by A in sp(R^6).

The invariant coclosed G2-structures on the almost Abelian algebra
correspond to bracket matrices A with A J + J A^t = 0 (equivalently
theta(A) omega = 0, equivalently d psi = 0). Every geometric quantity of
the structure then has a block closed form in A; this module provides
those forms together with their independent derivations from the Koszul
connection, so each one is testable by a dual route.

Conventions: S_A = (A + A^t)/2, K_A = (A - A^t)/2, [J, A] = JA - AJ.
The 7x7 blocks are written blockdiag(6x6 block on the ideal, scalar e7e7
entry). Torsion normalization is nabla_m phi = (T e_m) -| psi.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .g2 import G2Data, circ
from .metric_lie import DIM, _as_bracket, covariant_derivative_form, koszul_connection

__all__ = [
    "sp_check",
    "require_sp",
    "random_sp",
    "random_sp_symmetric",
    "random_sp_skew",
    "random_su3",
    "torsion_forms",
    "torsion_forms_ungated",
    "torsion_from_nabla_phi",
    "t_circ_t",
    "q_matrix",
    "ricci_closed",
    "scalar_diagnostics",
]


def _blockdiag(block: np.ndarray, corner: float) -> np.ndarray:
    out = np.zeros((DIM, DIM))
    out[:6, :6] = block
    out[6, 6] = corner
    return out


def sp_check(A: np.ndarray, data: G2Data) -> tuple[bool, float]:
    """Whether A J + J A^t = 0 to 1e-10 relative to max(1, max |A_ij|), with
    the max-abs residual (read through data._sp_residual, the map the flow's
    drift gate reads)."""
    A = _as_bracket(A)
    residual = float(np.max(np.abs(data._sp_residual @ A.reshape(36))))
    scale = max(1.0, float(np.max(np.abs(A))))
    return residual <= 1e-10 * scale, residual


def require_sp(A: np.ndarray, data: G2Data) -> np.ndarray:
    A = _as_bracket(A)
    ok, residual = sp_check(A, data)
    if not ok:
        raise ValueError(f"matrix is not symplectic: |AJ + JA^t| = {residual:.3e}")
    return A


def random_sp(rng: np.random.Generator, data: G2Data) -> np.ndarray:
    """Random element of sp(R^6): J-anti-commuting symmetric part plus
    J-commuting skew part."""
    return random_sp_symmetric(rng, data) + random_sp_skew(rng, data)


def random_sp_symmetric(rng: np.random.Generator, data: G2Data) -> np.ndarray:
    J = data.J
    S0 = rng.standard_normal((6, 6))
    S0 = 0.5 * (S0 + S0.T)
    return 0.5 * (S0 + J @ S0 @ J)


def random_sp_skew(rng: np.random.Generator, data: G2Data) -> np.ndarray:
    J = data.J
    K0 = rng.standard_normal((6, 6))
    K0 = 0.5 * (K0 - K0.T)
    return 0.5 * (K0 - J @ K0 @ J)


def random_su3(rng: np.random.Generator, data: G2Data) -> np.ndarray:
    """Random element of su(3) = {A in sp skew-symmetric, tr(JA) = 0}."""
    J = data.J
    K = random_sp_skew(rng, data)
    return K + np.trace(J @ K) / 6.0 * J


def torsion_forms(A: np.ndarray, data: G2Data) -> np.ndarray:
    """The torsion T = blockdiag((1/2)[J,A], (1/2) tr JA) (7x7), symmetric
    to rounding: T = (tau0/4) g - tau27 with tau0 = (2/7) tr JA. The dual
    route through nabla phi = T . psi is torsion_from_nabla_phi."""
    return torsion_forms_ungated(require_sp(A, data), data)


def torsion_forms_ungated(A: np.ndarray, data: G2Data) -> np.ndarray:
    """torsion_forms of a bracket that has already passed the sp gate
    (require_sp); it runs no gate of its own."""
    J = data.J
    return _blockdiag(0.5 * (J @ A - A @ J), 0.5 * float(np.trace(J @ A)))


def torsion_from_nabla_phi(
    A: np.ndarray, data: G2Data
) -> tuple[np.ndarray, float]:
    """Solve nabla_m phi = T_m^p (e_p -| psi) for T in one product.

    With N (7x343) the stack of all nabla_m phi and Psi = psi reshaped to
    7x343, the system is N = T Psi; since Psi Psi^t = 24 I (psi_{pjkl}
    psi_{qjkl} = 24 delta_{pq}), T = N Psi^t / 24 inverts it exactly. The
    reported residual is max |T Psi - N|; it vanishes only when nabla phi
    lies in the psi-image, i.e. when the convention matches.
    """
    A = require_sp(A, data)
    N = covariant_derivative_form(data.phi, koszul_connection(A)).reshape(DIM, DIM**3)
    psi = data.psi.dense().reshape(DIM, DIM**3)
    T = N @ psi.T / 24.0
    return T, float(np.max(np.abs(T @ psi - N)))


def t_circ_t(A: np.ndarray, data: G2Data) -> np.ndarray:
    """Block closed form of T o T:
    blockdiag(-(1/2)(tr JA)[J,A] - S o6 S, -tr S^2)."""
    A = require_sp(A, data)
    J = data.J
    S = _blockdiag(0.5 * (A + A.T), 0.0)
    comm = J @ A - A @ J
    return _blockdiag(
        -0.5 * np.trace(J @ A) * comm - circ(S, S, data)[:6, :6],
        -float(np.trace(S @ S)),
    )


def _symbol_evaluator(
    data: G2Data, n: int | None = None
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """symbol(y) -> (Qh, q) of q_matrix without the sp(R^6) gate, for
    y = vec(A) of one bracket (36 entries, n None) or of a stack of n
    brackets (n x 36); the flow right-hand sides call it on every
    evaluation, with the bracket already checked once at the start.

    Evaluated as the precomputed quadratic form data._symbol_quadratic on
    the coordinates z = P vec(A), i.e. on the orthogonal projection of A
    onto sp(R^6); on sp(R^6) it equals the closed form to rounding. One
    bracket gives Qh (6, 6) and a 0-d q, a stack Qh (n, 6, 6) and
    q (n, 1, 1); BLAS may sum a stack's products in another order, so its
    rows agree with single brackets to rounding.

    What a call reads is bound here, once: P^t and M^t, the buffers of z,
    z (x) z and w = M (z (x) z), and the products as ndarray.dot methods
    (y.dot(P^t, z), the outer product z_col.dot(z_row, zz) and
    zz.dot(M^t, w)), which make np.dot's BLAS calls without its per-call
    dispatch. ndarray.dot does not batch, so a stack's outer product is one
    einsum (faster than a broadcast product or np.matmul's batched ones).
    Qh and q (0-d: not converted per operation, as a float is) are the same
    views of w from every call; a caller that keeps q takes float(q). Whatever
    the sign of a zero in z (x) z (the BLAS outer product and einsum may
    give +0.0 for -0.0), w is the same, since M's sums start at +0.0.
    """
    P, M = data._symbol_quadratic
    PT, MT = P.T, M.T
    stack = () if n is None else (n,)
    z, zz, w = (np.empty(stack + shape) for shape in ((21,), (21, 21), (37,)))
    if n is None:
        outer = functools.partial(z[:, None].dot, z[None], zz)
    else:
        outer = functools.partial(np.einsum, "ni,nj->nij", z, z, out=zz)
    to_w = zz.reshape(stack + (441,)).dot
    Qh = w[..., :36].reshape(stack + (6, 6))
    q = w[..., 36] if n is None else w[:, 36:, None]

    def symbol(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y.dot(PT, z)
        outer()
        to_w(MT, w)
        return Qh, q

    return symbol


def q_matrix(A: np.ndarray, data: G2Data) -> np.ndarray:
    """Laplacian symbol Q_A = blockdiag(Qh, q), Delta psi = theta(Q_A) psi:
    Qh = (1/2)[A,A^t] + (1/2) S o6 S, q = -(1/2) tr S^2 - (1/4)(tr JA)^2."""
    return _blockdiag(*_symbol_evaluator(data)(require_sp(A, data).ravel()))


def ricci_closed(A: np.ndarray, data: G2Data) -> tuple[np.ndarray, float]:
    """Ric = blockdiag((1/2)[A,A^t], -tr S^2) and R = -tr S^2."""
    A = require_sp(A, data)
    S = 0.5 * (A + A.T)
    tr_ssq = float(np.trace(S @ S))
    return _blockdiag(0.5 * (A @ A.T - A.T @ A), -tr_ssq), -tr_ssq


def scalar_diagnostics(As: np.ndarray, data: G2Data) -> dict[str, np.ndarray]:
    """Scalar invariants on a stack of brackets (n, 6, 6), one array per key.

    R = -tr S^2 must equal (tr T)^2 - |T|^2 = (1/4)(tr JA)^2 - |T|^2; the
    assembly raises if the torsion bookkeeping ever drifts. No sp gate (the
    flow gates its samples on symplectic drift); one bracket is A[None].
    """
    J = data.J
    S = 0.5 * (As + np.swapaxes(As, 1, 2))
    comm = J @ As - As @ J
    tr_ja = np.einsum("ij,nji->n", J, As)
    tr_ssq = np.einsum("nij,nij->n", S, S)
    R = -tr_ssq
    # |T|^2 for T = blockdiag((1/2)[J,A], (1/2) tr JA)
    torsion_sq = 0.25 * (np.einsum("nij,nij->n", comm, comm) + tr_ja**2)
    gap = np.abs(R - (0.25 * tr_ja**2 - torsion_sq))
    if np.any(gap > 1e-9 * np.maximum(1.0, np.abs(R))):
        raise AssertionError(
            f"scalar curvature bookkeeping drifted by {float(np.max(gap)):.3e}"
        )
    return {
        "R": R,
        "torsionNormSq": torsion_sq,
        "trJA": tr_ja,
        "trSSq": tr_ssq,
        "normSq": np.einsum("nij,nij->n", As, As),
    }

