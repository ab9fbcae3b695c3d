"""Dense exterior algebra over an oriented orthonormal frame of R^n (n <= 7).

Conventions. A k-form is alpha = (1/k!) alpha_{i1...ik} e^{i1} ^ ... ^ e^{ik}
with fully antisymmetric coefficients; the stored representation is the
vector of coefficients over lexicographically increasing multi-indices, so a
3-form on R^7 is a length-35 vector. The orientation is e^1 ^ ... ^ e^n and
the frame metric is the identity unless a Gram matrix is passed explicitly.
All operations are pure functions; KForm values are immutable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "KForm",
    "multi_indices",
    "index_position",
    "perm_sign",
    "basis_form",
    "from_terms",
    "from_dense",
    "wedge",
    "interior",
    "form_inner",
    "form_norm",
    "hodge_star",
    "volume_form",
    "pullback",
    "theta",
]


@lru_cache(maxsize=None)
def multi_indices(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All strictly increasing k-tuples drawn from 0..n-1, lexicographic."""
    return tuple(itertools.combinations(range(n), k))


@lru_cache(maxsize=None)
def index_position(n: int, k: int) -> dict[tuple[int, ...], int]:
    """Position of each increasing multi-index in the coefficient vector."""
    return {idx: pos for pos, idx in enumerate(multi_indices(n, k))}


def perm_sign(seq) -> int:
    """Sign of the permutation sorting seq; 0 if entries repeat."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return 0
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def _flat_index(n: int, idx) -> int:
    flat = 0
    for i in idx:
        flat = flat * n + i
    return flat


@lru_cache(maxsize=None)
def _increasing_flat(n: int, k: int) -> np.ndarray:
    """Flat index into an (n,)*k array of each increasing multi-index."""
    out = np.array([_flat_index(n, idx) for idx in multi_indices(n, k)], dtype=np.intp)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _dense_table(n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(flat index, coefficient position, sign) over every permutation of
    every increasing multi-index: the scatter that builds KForm.dense."""
    flat, pos, sign = [], [], []
    for p, idx in enumerate(multi_indices(n, k)):
        for perm in itertools.permutations(idx):
            flat.append(_flat_index(n, perm))
            pos.append(p)
            sign.append(perm_sign(perm))
    out = (
        np.array(flat, dtype=np.intp),
        np.array(pos, dtype=np.intp),
        np.array(sign, dtype=float),
    )
    for a in out:
        a.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _star_table(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(position of the complement, sign(I, I^c)) per increasing k-index I."""
    pos_out = index_position(n, n - k)
    pos, sign = [], []
    for idx in multi_indices(n, k):
        comp = tuple(i for i in range(n) if i not in idx)
        pos.append(pos_out[comp])
        sign.append(perm_sign(idx + comp))
    out = np.array(pos, dtype=np.intp), np.array(sign, dtype=float)
    for a in out:
        a.setflags(write=False)
    return out


@dataclass(frozen=True)
class KForm:
    """Immutable k-form with dense coefficients over increasing multi-indices."""

    n: int
    k: int
    coeffs: np.ndarray
    _dense: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if not (0 <= self.k <= self.n <= 7):
            raise ValueError(f"degree {self.k} not in range for n={self.n} (n <= 7)")
        c = np.asarray(self.coeffs, dtype=float).reshape(-1).copy()
        if c.size != math.comb(self.n, self.k):
            raise ValueError(
                f"expected {math.comb(self.n, self.k)} coefficients for a "
                f"{self.k}-form on R^{self.n}, got {c.size}"
            )
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def __add__(self, other: "KForm") -> "KForm":
        self._check_compatible(other)
        return KForm(self.n, self.k, self.coeffs + other.coeffs)

    def __sub__(self, other: "KForm") -> "KForm":
        self._check_compatible(other)
        return KForm(self.n, self.k, self.coeffs - other.coeffs)

    def __neg__(self) -> "KForm":
        return KForm(self.n, self.k, -self.coeffs)

    def __mul__(self, scalar: float) -> "KForm":
        return KForm(self.n, self.k, self.coeffs * float(scalar))

    __rmul__ = __mul__

    def _check_compatible(self, other: "KForm") -> None:
        if (self.n, self.k) != (other.n, other.k):
            raise ValueError(
                f"incompatible forms: ({self.n},{self.k}) vs ({other.n},{other.k})"
            )

    def dense(self) -> np.ndarray:
        """Fully antisymmetric coefficient array of shape (n,)*k (cached)."""
        if self._dense is None:
            flat, pos, sign = _dense_table(self.n, self.k)
            arr = np.zeros(self.n**self.k)
            arr[flat] = sign * self.coeffs[pos]
            arr = arr.reshape((self.n,) * self.k)
            arr.setflags(write=False)
            object.__setattr__(self, "_dense", arr)
        return self._dense

    def terms(self):
        """Yield (increasing multi-index, coefficient) for nonzero entries."""
        for pos, idx in enumerate(multi_indices(self.n, self.k)):
            if self.coeffs[pos] != 0.0:
                yield idx, self.coeffs[pos]


def basis_form(n: int, idx) -> KForm:
    """Unit wedge monomial e^{i1} ^ ... ^ e^{ik} for 0-based idx (any order)."""
    return from_terms(n, len(idx), [(idx, 1.0)])


def from_terms(n: int, k: int, terms) -> KForm:
    """Build a form from (idx, coefficient) pairs with 0-based indices."""
    coeffs = np.zeros(math.comb(n, k))
    pos = index_position(n, k)
    for idx, c in terms:
        sign = perm_sign(idx)
        if sign == 0:
            raise ValueError(f"repeated index in {idx}")
        coeffs[pos[tuple(sorted(idx))]] += sign * c
    return KForm(n, k, coeffs)


def from_dense(n: int, k: int, arr: np.ndarray) -> KForm:
    """KForm from a fully antisymmetric dense array (entries read as-is)."""
    arr = np.asarray(arr, dtype=float)
    if arr.shape != (n,) * k:
        raise ValueError(f"expected shape {(n,) * k}, got {arr.shape}")
    return KForm(n, k, arr.reshape(-1)[_increasing_flat(n, k)])


@lru_cache(maxsize=None)
def _wedge_table(n: int, ka: int, kb: int):
    """Read-only columns (pos_a, pos_b, pos_out, sign) of the sparse term
    table for the wedge of densities."""
    out = []
    pos_out = index_position(n, ka + kb)
    for pa, ia in enumerate(multi_indices(n, ka)):
        sa = set(ia)
        for pb, ib in enumerate(multi_indices(n, kb)):
            if sa & set(ib):
                continue
            merged = ia + ib
            out.append((pa, pb, pos_out[tuple(sorted(merged))], perm_sign(merged)))
    pa, pb, po, sign = np.array(out, dtype=np.intp).T.copy()
    cols = (pa, pb, po, sign.astype(float))
    for c in cols:
        c.setflags(write=False)
    return cols


def wedge(a: KForm, b: KForm) -> KForm:
    """Exterior product a ^ b.

    One ordered accumulation over the cached term table: bincount adds the
    products into zeroed outputs in table order.
    """
    if a.n != b.n:
        raise ValueError("forms live on different spaces")
    k = a.k + b.k
    if k > a.n:
        raise ValueError(f"wedge degree {k} exceeds dimension {a.n}")
    pa, pb, po, sign = _wedge_table(a.n, a.k, b.k)
    weights = sign * a.coeffs[pa] * b.coeffs[pb]
    return KForm(a.n, k, np.bincount(po, weights=weights, minlength=math.comb(a.n, k)))


def interior(v: np.ndarray, a: KForm) -> KForm:
    """Interior product v -| a, i.e. (v -| a)_{J} = v^m a_{m J}."""
    if a.k == 0:
        raise ValueError("interior product of a 0-form is not defined")
    n = a.n
    v = np.asarray(v, dtype=float).reshape(n)
    contracted = np.dot(v.reshape(1, n), a.dense().reshape(n, n ** (a.k - 1)))
    return from_dense(n, a.k - 1, contracted.reshape((n,) * (a.k - 1)))


def form_inner(a: KForm, b: KForm, g: np.ndarray | None = None) -> float:
    """Frame inner product <a, b>; pass a Gram matrix g for a non-unit metric."""
    a._check_compatible(b)
    if g is None:
        return float(a.coeffs @ b.coeffs)
    ginv = np.linalg.inv(np.asarray(g, dtype=float))
    return float(a.coeffs @ pullback(ginv, b).coeffs)


def form_norm(a: KForm, g: np.ndarray | None = None) -> float:
    return math.sqrt(max(form_inner(a, a, g), 0.0))


def volume_form(n: int, g: np.ndarray | None = None) -> KForm:
    """Riemannian volume form sqrt(det g) e^{1...n} for the fixed orientation."""
    scale = 1.0 if g is None else math.sqrt(np.linalg.det(np.asarray(g, dtype=float)))
    return scale * basis_form(n, tuple(range(n)))


def hodge_star(a: KForm, g: np.ndarray | None = None) -> KForm:
    """Hodge star, defined by alpha ^ *beta = <alpha, beta> vol_g.

    In the orthonormal frame (*a)_{I^c} = sign(I, I^c) a_I. For a Gram
    matrix g, *a is sqrt(det g) times the frame star of a with every index
    raised by g^{-1}.
    """
    n, k = a.n, a.k
    scale = 1.0
    if g is not None:
        g = np.asarray(g, dtype=float)
        a = pullback(np.linalg.inv(g), a)
        scale = math.sqrt(np.linalg.det(g))
    pos, sign = _star_table(n, k)
    coeffs = np.zeros(math.comb(n, n - k))
    coeffs[pos] = sign * a.coeffs
    return KForm(n, n - k, scale * coeffs)


@lru_cache(maxsize=None)
def _slot_axes(k: int, slot: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Axis order that moves `slot` last, and the order that moves the last
    axis back to `slot`."""
    rest = tuple(i for i in range(k) if i != slot)
    back = tuple(range(slot)) + (k - 1,) + tuple(range(slot, k - 1))
    return rest + (slot,), back


def _slot_dot(dense: np.ndarray, h: np.ndarray, slot: int) -> np.ndarray:
    """dense with index `slot` contracted against the rows of h, as a view in
    the original axis order. The same transpose, reshape and np.dot as
    np.moveaxis(np.tensordot(dense, h, axes=([slot], [0])), -1, slot)."""
    n, k = h.shape[0], dense.ndim
    to_last, back = _slot_axes(k, slot)
    flat = dense.transpose(to_last).reshape(n ** (k - 1), n)
    return np.dot(flat, h).reshape((n,) * k).transpose(back)


def pullback(h: np.ndarray, a: KForm) -> KForm:
    """Pullback h^* a, i.e. (h^* a)(v_1,...,v_k) = a(h v_1,..., h v_k)."""
    h = np.asarray(h, dtype=float).reshape(a.n, a.n)
    if a.k == 0:
        return a
    dense = a.dense()
    for slot in range(a.k):
        dense = _slot_dot(dense, h, slot)
    return from_dense(a.n, a.k, dense)


def _theta_stack(Bs: np.ndarray, a: KForm) -> np.ndarray:
    """theta(B_m) a for a stack of matrices Bs (m, n, n), as one dense
    (m,) + (n,)*k array, m first.

    Per slot, one product of a's dense array (that slot last, as in
    _slot_dot) with the stack reshaped to n x (n m), columns (j, m),
    accumulated into the m-first buffer so the stack stays C-contiguous.
    """
    n, k, m = a.n, a.k, len(Bs)
    dense = a.dense()
    G = Bs.transpose(1, 2, 0).reshape(n, n * m)
    out = np.zeros((m,) + (n,) * k)
    for slot in range(k):
        to_last, back = _slot_axes(k, slot)
        flat = dense.transpose(to_last).reshape(n ** (k - 1), n)
        out -= np.dot(flat, G).reshape((n,) * k + (m,)).transpose((k,) + back)
    return out


def theta(B: np.ndarray, a: KForm) -> KForm:
    """Infinitesimal gl(n) action theta(B) a = -sum_s a(..., B cdot, ...).

    Equals d/dt at t=0 of pullback(expm(-tB), a); a degree-0 derivation of
    the exterior algebra. The one-matrix case of _theta_stack.
    """
    if a.k == 0:
        raise ValueError("theta acts on forms of degree >= 1")
    B = np.asarray(B, dtype=float).reshape(a.n, a.n)
    return from_dense(a.n, a.k, _theta_stack(B[None], a)[0])
