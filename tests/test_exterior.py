"""Exterior algebra kernel: products, star, pullback, infinitesimal action."""

import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from g2coflow.exterior import (
    KForm,
    basis_form,
    form_inner,
    form_norm,
    from_dense,
    hodge_star,
    index_position,
    interior,
    multi_indices,
    perm_sign,
    pullback,
    theta,
    volume_form,
    wedge,
)

rng = np.random.default_rng(20240811)


def random_form(n: int, k: int) -> KForm:
    return KForm(n, k, rng.standard_normal(math.comb(n, k)))


def test_multi_indices_lexicographic():
    idx = multi_indices(4, 2)
    assert idx == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    assert len(multi_indices(7, 3)) == 35


def test_perm_sign():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((2, 0, 1)) == 1
    assert perm_sign((0, 0, 1)) == 0


def test_basis_form_sign_and_coefficient():
    a = basis_form(7, (2, 0, 1))
    assert a.dense()[0, 1, 2] == 1.0
    assert a.dense()[1, 0, 2] == -1.0
    with pytest.raises(ValueError):
        basis_form(7, (0, 0, 1))


def test_kform_validation():
    with pytest.raises(ValueError):
        KForm(7, 8, np.zeros(1))
    with pytest.raises(ValueError):
        KForm(7, 2, np.zeros(20))
    with pytest.raises(ValueError):
        random_form(7, 2) + random_form(7, 3)


def test_dense_antisymmetry_round_trip():
    a = random_form(7, 3)
    d = a.dense()
    assert np.max(np.abs(d + np.swapaxes(d, 0, 1))) == 0.0
    assert np.max(np.abs(from_dense(7, 3, d).coeffs - a.coeffs)) == 0.0


def test_wedge_graded_commutativity():
    for ka, kb in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4)):
        a, b = random_form(7, ka), random_form(7, kb)
        lhs = wedge(a, b)
        rhs = (-1.0) ** (ka * kb) * wedge(b, a)
        assert form_norm(lhs - rhs) < 1e-13


def test_wedge_associativity():
    a, b, c = random_form(7, 1), random_form(7, 2), random_form(7, 3)
    lhs = wedge(wedge(a, b), c)
    rhs = wedge(a, wedge(b, c))
    assert form_norm(lhs - rhs) < 1e-13


def test_wedge_degree_overflow():
    with pytest.raises(ValueError):
        wedge(random_form(7, 4), random_form(7, 4))


def test_interior_antiderivation():
    v = rng.standard_normal(7)
    for ka, kb in ((1, 2), (2, 2), (2, 3), (3, 3)):
        a, b = random_form(7, ka), random_form(7, kb)
        lhs = interior(v, wedge(a, b))
        rhs = wedge(interior(v, a), b) + (-1.0) ** ka * wedge(a, interior(v, b))
        assert form_norm(lhs - rhs) < 1e-13


def test_interior_squares_to_zero():
    v = rng.standard_normal(7)
    a = random_form(7, 3)
    assert form_norm(interior(v, interior(v, a))) < 1e-13


def test_form_inner_orthonormal_basis():
    a = basis_form(7, (0, 1, 2))
    b = basis_form(7, (0, 1, 3))
    assert form_inner(a, a) == 1.0
    assert form_inner(a, b) == 0.0


def test_form_inner_dense_consistency():
    a, b = random_form(7, 3), random_form(7, 3)
    direct = np.tensordot(a.dense(), b.dense(), axes=3) / math.factorial(3)
    assert abs(form_inner(a, b) - direct) < 1e-12


def _dense_by_permutation_loop(a: KForm) -> np.ndarray:
    arr = np.zeros((a.n,) * a.k)
    for pos, idx in enumerate(multi_indices(a.n, a.k)):
        for perm in itertools.permutations(idx):
            arr[perm] = perm_sign(perm) * a.coeffs[pos]
    return arr


@pytest.mark.parametrize("k", range(8))
def test_dense_and_from_dense_match_permutation_loop(k):
    a = random_form(7, k)
    d = a.dense()
    assert d.shape == (7,) * k
    assert np.array_equal(d, _dense_by_permutation_loop(a))
    assert not d.flags.writeable
    # a generic (not antisymmetric) array: only increasing entries are read
    arr = rng.standard_normal((7,) * k)
    gathered = [arr[idx] for idx in multi_indices(7, k)]
    assert np.array_equal(from_dense(7, k, arr).coeffs, gathered)


def _hodge_star_by_levi_civita(a: KForm, g: np.ndarray) -> KForm:
    """sqrt(det g)/k! a^{i1..ik} eps_{i1..ik j1..j(n-k)} over the full tensor."""
    n, k = a.n, a.k
    eps = np.zeros((n,) * n)
    for perm in itertools.permutations(range(n)):
        eps[perm] = perm_sign(perm)
    ginv = np.linalg.inv(g)
    raised = a.dense()
    for slot in range(k):
        raised = np.moveaxis(np.tensordot(raised, ginv, axes=([slot], [0])), -1, slot)
    dense = (
        math.sqrt(np.linalg.det(g))
        / math.factorial(k)
        * np.tensordot(raised, eps, axes=(tuple(range(k)), tuple(range(k))))
    )
    return from_dense(n, n - k, dense)


def test_hodge_star_gram_matches_levi_civita_contraction():
    for k in range(8):
        h = np.eye(7) + 0.3 * rng.standard_normal((7, 7))
        g = h.T @ h
        a = random_form(7, k)
        expected = _hodge_star_by_levi_civita(a, g)
        got = hodge_star(a, g)
        assert (got.n, got.k) == (7, 7 - k)
        scale = max(1.0, float(np.max(np.abs(expected.coeffs))))
        assert np.max(np.abs(got.coeffs - expected.coeffs)) < 1e-12 * scale


def test_hodge_star_involution_all_degrees():
    # k(7-k) is even in dimension 7, so ** = id on every degree
    for k in range(8):
        a = random_form(7, k)
        assert form_norm(hodge_star(hodge_star(a)) - a) < 1e-13


def test_hodge_star_defining_property():
    for k in (1, 2, 3, 4):
        a, b = random_form(7, k), random_form(7, k)
        lhs = wedge(a, hodge_star(b))
        gap = lhs - form_inner(a, b) * volume_form(7)
        assert form_norm(gap) < 1e-12


def test_hodge_star_general_metric():
    h = np.eye(7) + 0.2 * rng.standard_normal((7, 7))
    g = h.T @ h
    vol = volume_form(7, g)
    for k in (2, 3):
        a, b = random_form(7, k), random_form(7, k)
        gap = wedge(a, hodge_star(b, g)) - form_inner(a, b, g) * vol
        assert form_norm(gap) < 1e-10
        # identity Gram must agree with the orthonormal fast path
        gap_id = hodge_star(a, np.eye(7)) - hodge_star(a)
        assert form_norm(gap_id) < 1e-12


def test_pullback_contravariant_functor():
    a = random_form(7, 3)
    h1 = np.eye(7) + 0.3 * rng.standard_normal((7, 7))
    h2 = np.eye(7) + 0.3 * rng.standard_normal((7, 7))
    lhs = pullback(h1 @ h2, a)
    rhs = pullback(h2, pullback(h1, a))
    assert form_norm(lhs - rhs) < 1e-12
    assert form_norm(pullback(np.eye(7), a) - a) < 1e-15


def test_pullback_respects_wedge():
    a, b = random_form(7, 2), random_form(7, 2)
    h = np.eye(7) + 0.3 * rng.standard_normal((7, 7))
    gap = pullback(h, wedge(a, b)) - wedge(pullback(h, a), pullback(h, b))
    assert form_norm(gap) < 1e-12


def test_theta_matches_pullback_derivative():
    B = rng.standard_normal((7, 7))
    a = random_form(7, 4)
    t = 1e-6
    fd = (1.0 / (2.0 * t)) * (pullback(expm(-t * B), a) - pullback(expm(t * B), a))
    assert form_norm(fd - theta(B, a)) < 1e-7


def test_theta_is_a_derivation():
    B = rng.standard_normal((7, 7))
    a, b = random_form(7, 2), random_form(7, 2)
    lhs = theta(B, wedge(a, b))
    rhs = wedge(theta(B, a), b) + wedge(a, theta(B, b))
    assert form_norm(lhs - rhs) < 1e-12


def test_theta_identity_scales_by_degree():
    for k in (1, 2, 3, 4):
        a = random_form(7, k)
        assert form_norm(theta(np.eye(7), a) + float(k) * a) < 1e-13


# Exact references for the vectorised kernels: the per-term wedge loop and
# the tensordot/moveaxis slot contractions. A change of summation order shows
# as a byte difference, so these compare bytes, never within a tolerance.


def _form_with_signed_zeros(n: int, k: int) -> KForm:
    c = rng.standard_normal(math.comb(n, k))
    c[rng.random(c.size) < 0.25] = 0.0
    c[rng.random(c.size) < 0.15] = -0.0
    return KForm(n, k, c)


def _wedge_by_term_loop(a: KForm, b: KForm) -> np.ndarray:
    k = a.k + b.k
    coeffs = np.zeros(math.comb(a.n, k))
    pos_out = index_position(a.n, k)
    for pa, ia in enumerate(multi_indices(a.n, a.k)):
        for pb, ib in enumerate(multi_indices(a.n, b.k)):
            sign = perm_sign(ia + ib)
            if sign:
                coeffs[pos_out[tuple(sorted(ia + ib))]] += sign * a.coeffs[pa] * b.coeffs[pb]
    return coeffs


@pytest.mark.parametrize(
    "ka,kb", [(ka, kb) for ka in range(8) for kb in range(8 - ka)]
)
def test_wedge_matches_term_loop_bytes(ka, kb):
    a, b = _form_with_signed_zeros(7, ka), _form_with_signed_zeros(7, kb)
    assert wedge(a, b).coeffs.tobytes() == _wedge_by_term_loop(a, b).tobytes()


def _slot_by_tensordot(dense: np.ndarray, h: np.ndarray, slot: int) -> np.ndarray:
    return np.moveaxis(np.tensordot(dense, h, axes=([slot], [0])), -1, slot)


def _matrix(layout: str) -> np.ndarray:
    if layout == "contiguous":
        return rng.standard_normal((7, 7))
    if layout == "transposed":
        return rng.standard_normal((7, 7)).T
    return rng.standard_normal((5, 7, 7))[3]


LAYOUTS = ("contiguous", "transposed", "stack_row")


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("k", range(1, 8))
def test_pullback_matches_tensordot_bytes(k, layout):
    a, h = _form_with_signed_zeros(7, k), _matrix(layout)
    dense = a.dense()
    for slot in range(k):
        dense = _slot_by_tensordot(dense, h, slot)
    assert pullback(h, a).coeffs.tobytes() == from_dense(7, k, dense).coeffs.tobytes()


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("k", range(1, 8))
def test_theta_matches_tensordot_bytes(k, layout):
    a, B = _form_with_signed_zeros(7, k), _matrix(layout)
    out = np.zeros_like(a.dense())
    for slot in range(k):
        out -= _slot_by_tensordot(a.dense(), B, slot)
    assert theta(B, a).coeffs.tobytes() == from_dense(7, k, out).coeffs.tobytes()


@pytest.mark.parametrize("k", range(1, 8))
def test_interior_matches_tensordot_bytes(k):
    a, v = _form_with_signed_zeros(7, k), rng.standard_normal(7)
    direct = from_dense(7, k - 1, np.tensordot(v, a.dense(), axes=1))
    assert interior(v, a).coeffs.tobytes() == direct.coeffs.tobytes()


def test_zero_form_and_scalar_ops():
    z = KForm(7, 3, np.zeros(35))
    a = random_form(7, 3)
    assert form_norm(z + a - a) == 0.0
    assert form_norm(2.0 * a - a - a) < 1e-15


def _assert_fresh_frozen(form, n, k, *operands):
    assert (form.n, form.k) == (n, k)
    assert form.coeffs.dtype == np.float64
    assert form.coeffs.shape == (math.comb(n, k),)
    assert not form.coeffs.flags.writeable
    for operand in operands:
        assert not np.shares_memory(form.coeffs, operand)


def test_computed_forms_are_frozen_fresh_arrays():
    # every computed form holds its own read-only coefficient vector;
    # KForm(...) copies what it is given
    a, b = random_form(7, 3), random_form(7, 3)
    c = random_form(7, 1)
    _assert_fresh_frozen(wedge(a, c), 7, 4, a.coeffs, c.coeffs)
    _assert_fresh_frozen(a + b, 7, 3, a.coeffs, b.coeffs)
    _assert_fresh_frozen(a - b, 7, 3, a.coeffs, b.coeffs)
    _assert_fresh_frozen(-a, 7, 3, a.coeffs)
    _assert_fresh_frozen(2.0 * a, 7, 3, a.coeffs)
    _assert_fresh_frozen(a * 1.0, 7, 3, a.coeffs)
    arr = a.dense().copy()
    _assert_fresh_frozen(from_dense(7, 3, arr), 7, 3, arr, a.dense())
    g = np.eye(7) + 0.1 * np.diag(np.arange(7.0))
    for k in range(8):
        form = random_form(7, k)
        _assert_fresh_frozen(hodge_star(form), 7, 7 - k, form.coeffs)
        _assert_fresh_frozen(hodge_star(form, g), 7, 7 - k, form.coeffs, g)
    raw = rng.standard_normal(35)
    _assert_fresh_frozen(KForm(7, 3, raw), 7, 3, raw)
    assert raw.flags.writeable
    # from_dense reads outside arrays and keeps KForm's degree check
    with pytest.raises(ValueError, match="degree"):
        from_dense(8, 3, np.zeros((8, 8, 8)))
