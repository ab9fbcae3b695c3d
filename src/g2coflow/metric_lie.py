"""Invariant calculus on the metric Lie algebra (R^6 x_A R, <.,.> = identity).

The Lie algebra is almost Abelian: an Abelian ideal spanned by e_1..e_6 and
one extra generator e_7 acting by a 6x6 matrix A, i.e. [e_7, x] = A x. All
tensors are left-invariant, so they are plain coefficient arrays over the
orthonormal frame; exterior and covariant derivatives reduce to algebra on
the structure constants.

The curvature sign convention is R(e_i,e_j)e_k = (nabla_i nabla_j -
nabla_j nabla_i - nabla_{[e_i,e_j]}) e_k with Ric_{jk} = R_{ljkl}, which
reproduces Ric = (1/2)[A, A^t] on the ideal for symplectic A (see tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exterior import (
    KForm,
    _flat_index,
    _theta_stack,
    hodge_star,
    interior,
    multi_indices,
)

__all__ = [
    "DIM",
    "structure_constants",
    "ce_differential",
    "codifferential",
    "hodge_laplacian",
    "koszul_connection",
    "curvature_tensor",
    "ricci_tensor",
    "covariant_derivative_form",
    "covariant_derivative_tensor",
    "divergence_tensor",
    "curl_tensor",
    "grad_trace",
    "VectorField",
    "invariant_vector_field",
    "linear_vector_field",
    "curl_vector",
    "lie_derivative_form",
    "derivation_residual",
]

DIM = 7


def _as_bracket(A: np.ndarray) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.shape != (6, 6):
        raise ValueError(f"bracket matrix must be 6x6, got {A.shape}")
    return A


def structure_constants(A: np.ndarray) -> np.ndarray:
    """c[a,b,m] with [e_a, e_b] = c[a,b,m] e_m; only [e_7, h] is nonzero."""
    A = _as_bracket(A)
    c = np.zeros((DIM, DIM, DIM))
    c[6, :6, :6] = A.T  # [e_7, e_i] = A e_i, so c[6, i, m] = A[m, i]
    c[:6, 6, :6] = -A.T
    return c


@lru_cache(maxsize=None)
def _ce_table(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(out position, column a, flat rest index, sign) of every nonzero
    term of the differential of a k-form.

    The bracket is nonzero only on pairs [e_a, e_7] = -A e_a, and in an
    increasing (k+1)-index e_7 can only come last (q = k), so each term is
    (-1)^(p+k+1) <A e_a, alpha(., rest)> with a = idx[p] < 6 and rest the
    index with positions p and k removed, flattened over (7,)*(k-1).
    """
    pos, col, rest, sign = [], [], [], []
    for out_pos, idx in enumerate(multi_indices(DIM, k + 1)):
        if idx[-1] != DIM - 1:
            continue
        for p in range(k):
            pos.append(out_pos)
            col.append(idx[p])
            rest.append(_flat_index(DIM, idx[:p] + idx[p + 1 : k]))
            sign.append(-1.0 if (p + k) % 2 == 0 else 1.0)
    out = (
        np.array(pos, dtype=np.intp),
        np.array(col, dtype=np.intp),
        np.array(rest, dtype=np.intp),
        np.array(sign, dtype=float),
    )
    for a in out:
        a.setflags(write=False)
    return out


def ce_differential(alpha: KForm, A: np.ndarray) -> KForm:
    """Chevalley-Eilenberg differential of an invariant k-form.

    (d alpha)(x_0,...,x_k) = sum_{p<q} (-1)^{p+q}
    alpha([x_p, x_q], x_0,..., x_p hat,..., x_q hat,..., x_k),
    evaluated as one gather and contraction over the cached _ce_table.
    """
    n, k = alpha.n, alpha.k
    if n != DIM:
        raise ValueError("invariant calculus is fixed to dimension 7")
    if k >= n:
        raise ValueError("no (k+1)-forms above the top degree")
    A = _as_bracket(A)
    size = len(multi_indices(n, k + 1))
    if k == 0:  # brackets need two arguments
        return KForm(n, 1, np.zeros(size))
    pos, col, rest, sign = _ce_table(k)
    ideal = alpha.dense().reshape(DIM, -1)[:6]
    terms = sign * np.einsum("mi,mi->i", A[:, col], ideal[:, rest])
    return KForm(n, k + 1, np.bincount(pos, weights=terms, minlength=size))


def codifferential(alpha: KForm, A: np.ndarray, g: np.ndarray | None = None) -> KForm:
    """Formal adjoint d* = (-1)^k * d * on k-forms in dimension 7."""
    sign = -1.0 if alpha.k % 2 else 1.0
    return sign * hodge_star(ce_differential(hodge_star(alpha, g), A), g)


def hodge_laplacian(alpha: KForm, A: np.ndarray, g: np.ndarray | None = None) -> KForm:
    """Hodge Laplacian dd* + d*d with the Chevalley-Eilenberg differential."""
    out = ce_differential(codifferential(alpha, A, g), A)
    if alpha.k < DIM:
        out = out + codifferential(ce_differential(alpha, A), A, g)
    return out


def koszul_connection(A: np.ndarray) -> np.ndarray:
    """Levi-Civita coefficients Gamma[a,j,k] with nabla_{e_a} e_j = Gamma[a,j,k] e_k.

    Koszul formula for the orthonormal frame:
    2 Gamma[a,j,k] = <[e_a,e_j],e_k> - <[e_j,e_k],e_a> + <[e_k,e_a],e_j>.
    """
    c = structure_constants(A)
    gamma = 0.5 * (
        c
        - np.einsum("jka->ajk", c)
        + np.einsum("kaj->ajk", c)
    )
    return gamma


def curvature_tensor(gamma: np.ndarray, A: np.ndarray) -> np.ndarray:
    """R[i,j,k,m] = <(nabla_i nabla_j - nabla_j nabla_i - nabla_[e_i,e_j]) e_k, e_m>."""
    c = structure_constants(A)
    nn = np.einsum("jkp,ipm->ijkm", gamma, gamma)
    return nn - np.einsum("jikm->ijkm", nn) - np.einsum("ijp,pkm->ijkm", c, gamma)


def ricci_tensor(riemann: np.ndarray) -> np.ndarray:
    """Ricci contraction Ric_{jk} = R_{ljkl}."""
    return np.einsum("ljkl->jk", riemann)


def covariant_derivative_form(alpha: KForm, gamma: np.ndarray) -> np.ndarray:
    """All seven nabla_{e_m} alpha as one dense (7,)*(k+1) array, m first.

    The constant-coefficient rule (nabla_m alpha)_{..j..} = -sum over slots
    of Gamma[m,j,p] alpha_{..p..}, i.e. theta(gamma[m]^t) alpha for every m
    at once.
    """
    return _theta_stack(gamma.transpose(0, 2, 1), alpha)


def covariant_derivative_tensor(h: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """(nabla h)[m,i,j] = (nabla_{e_m} h)_{ij} for a (0,2)-tensor h."""
    h = np.asarray(h, dtype=float)
    return -np.einsum("mip,pj->mij", gamma, h) - np.einsum("mjp,ip->mij", gamma, h)


def divergence_tensor(h: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """(div h)_a = nabla_b h_{ab}."""
    return np.einsum("bab->a", covariant_derivative_tensor(h, gamma))


def curl_tensor(h: np.ndarray, gamma: np.ndarray, phi_dense: np.ndarray) -> np.ndarray:
    """(Curl h)_{ab} = nabla_m h_{an} phi_b^{mn}."""
    return np.einsum(
        "man,bmn->ab", covariant_derivative_tensor(h, gamma), phi_dense
    )


def grad_trace(nabla_h: np.ndarray) -> np.ndarray:
    """(grad tr h)_a = nabla_a h_m^m; vanishes for invariant h (constant trace)."""
    return np.einsum("amm->a", nabla_h)


@dataclass(frozen=True)
class VectorField:
    """Pointwise data of a vector field at the basepoint.

    value is X at the basepoint, grad[a, b] = nabla_a X_b. Invariant fields
    have constant value and a gradient determined by the connection; the
    field x -> M x generating the group exp(tM) vanishes at the basepoint
    and has grad = M^t there.
    """

    value: np.ndarray
    grad: np.ndarray

    @property
    def divergence(self) -> float:
        return float(np.trace(self.grad))

    @property
    def lie_derivative_metric(self) -> np.ndarray:
        return self.grad + self.grad.T


def invariant_vector_field(X: np.ndarray, gamma: np.ndarray) -> VectorField:
    X = np.asarray(X, dtype=float).reshape(DIM)
    grad = np.einsum("c,acb->ab", X, gamma)
    return VectorField(value=X, grad=grad)


def linear_vector_field(M: np.ndarray) -> VectorField:
    """Field x -> M x at the basepoint x = 0 of the flat frame chart."""
    M = np.asarray(M, dtype=float).reshape(DIM, DIM)
    return VectorField(value=np.zeros(DIM), grad=M.T)


def curl_vector(field: VectorField, phi_dense: np.ndarray) -> np.ndarray:
    """(Curl X)_c = nabla_a X_b phi^{ab}_c."""
    return np.einsum("ab,abc->c", field.grad, phi_dense)


def lie_derivative_form(X: np.ndarray, alpha: KForm, A: np.ndarray) -> KForm:
    """Cartan formula L_X alpha = d(X -| alpha) + X -| d(alpha), X invariant."""
    out = ce_differential(interior(X, alpha), A)
    if alpha.k < DIM:
        out = out + interior(X, ce_differential(alpha, A))
    return out


def derivation_residual(D: np.ndarray, A: np.ndarray) -> float:
    """max_{a<b} |D [e_a,e_b] - [D e_a, e_b] - [e_a, D e_b]| (Frobenius-style)."""
    D = np.asarray(D, dtype=float).reshape(DIM, DIM)
    c = structure_constants(A)
    lhs = np.einsum("mp,abp->abm", D, c)
    rhs = np.einsum("pa,pbm->abm", D, c) + np.einsum("qb,aqm->abm", D, c)
    return float(np.max(np.abs(lhs - rhs)))
