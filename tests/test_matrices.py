from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    adjugate,
    charpoly_plus_leibniz,
    conjugate_embedded,
    det_laplace,
)
from padharm.errors import NotInDomain, NotRegular
from padharm.padic import FieldContext, QuadExtContext
from padharm.matrices import (
    Delta_minus,
    Delta_plus,
    FractionRing,
    IntModRing,
    QuadExtRing,
    charpoly_plus,
    classify_nilpotent,
    conjugate,
    delta_plus,
    det,
    identity,
    invariants_of,
    iota,
    iota_inverse,
    iota_prime_inverse,
    is_nilpotent,
    mat,
    mat_inv,
    mat_mul,
    section_sigma,
    section_sigma_prime,
    triangular_check,
    varrho,
    xi_minus,
    xi_plus,
)

R = FractionRing()


def test_invariants_of_shift_representatives():
    # xi_+ and xi_- are in the null-cone
    for m in (2, 3, 4):
        assert is_nilpotent(R, xi_plus(R, m))
        assert is_nilpotent(R, xi_minus(R, m))


def test_classification_of_shifts():
    for m in (2, 3, 4):
        assert classify_nilpotent(R, xi_plus(R, m)) == "plus"
        assert classify_nilpotent(R, xi_minus(R, m)) == "minus"
    # the zero matrix (m >= 2) is nilpotent but irregular
    Z = mat([[Fraction(0)] * 3 for _ in range(3)])
    assert classify_nilpotent(R, Z) == "irregular"


def test_classify_rejects_non_nilpotent():
    with pytest.raises(NotInDomain):
        classify_nilpotent(R, identity(R, 3))


def test_delta_signs_on_shifts():
    for m in (2, 3):
        assert Delta_plus(R, xi_plus(R, m)) != 0
        assert Delta_minus(R, xi_plus(R, m)) == 0
        assert Delta_minus(R, xi_minus(R, m)) != 0
        assert Delta_plus(R, xi_minus(R, m)) == 0


def test_charpoly_sign_convention():
    # det(T + A) coefficients: charpoly_plus([...]) for A = diag(1, 2):
    # det(T + A) = T^2 + 3T + 2
    A = mat([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(2)]])
    cp = charpoly_plus(R, A)
    assert list(cp) == [Fraction(1), Fraction(3), Fraction(2)]


def test_sections_are_sections():
    a = (Fraction(2), Fraction(-1, 3))
    b = (Fraction(5), Fraction(1, 2), Fraction(7))
    X = section_sigma(R, a, b)
    assert invariants_of(R, X) == (a, b)
    # sigma' is a section up to a triangular change of the b-coordinates:
    # a and the leading b-entries are reproduced exactly
    ga, gb = invariants_of(R, section_sigma_prime(R, a, b))
    assert ga == a
    assert gb[0] == b[0] and gb[1] == b[1]
    # varrho is the transpose of sigma', so it shares the a-invariants and
    # has the b-invariants of the transpose
    Xr = varrho(R, a, b)
    ga, _ = invariants_of(R, Xr)
    assert ga == a


def test_delta_plus_of_sigma_is_identity():
    a = (Fraction(1), Fraction(4))
    b = (Fraction(0), Fraction(2), Fraction(-3))
    assert delta_plus(R, section_sigma(R, a, b)) == identity(R, 2)


def test_iota_round_trip_over_fractions():
    a = (Fraction(1),)
    b = (Fraction(2), Fraction(3))
    h = mat([[Fraction(5)]])
    X = iota(R, h, a, b)
    h2, (a2, b2) = iota_inverse(R, X)
    assert (a2, b2) == (a, b)
    assert conjugate(R, h2, section_sigma(R, a2, b2)) == X


def test_iota_inverse_needs_plus_regularity():
    with pytest.raises(NotRegular):
        iota_inverse(R, xi_minus(R, 2))


def test_invariants_are_conjugation_invariant():
    a = (Fraction(1), Fraction(2))
    b = (Fraction(3), Fraction(4), Fraction(5))
    X = section_sigma(R, a, b)
    h = mat([[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]])
    assert invariants_of(R, conjugate(R, h, X)) == (a, b)


def test_mat_inv():
    A = mat([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]])
    assert mat_mul(A, mat_inv(R, A)) == identity(R, 2)
    with pytest.raises(NotInDomain):
        mat_inv(R, mat([[Fraction(1), Fraction(1)],
                        [Fraction(2), Fraction(2)]]))


def test_mat_inv_over_Z_mod_p_k_pivots_on_a_unit():
    # the first nonzero entry of column 0 is 3, not a unit mod 3^5; the
    # determinant is -1, so the matrix is invertible
    Rm = IntModRing(3, 5)
    h = mat([[3, 1], [1, 0]])
    hinv = mat_inv(Rm, h)
    assert [[x % Rm.m for x in row] for row in mat_mul(h, hinv)] == [
        [1, 0], [0, 1]]
    X = iota(Rm, h, (1, 2), (0, 1, 2))
    h2, (a2, b2) = iota_inverse(Rm, X)
    assert [[x % Rm.m for x in row] for row in h2] == [[3, 1], [1, 0]]
    assert ([x % Rm.m for x in a2], [x % Rm.m for x in b2]) == (
        [1, 2], [0, 1, 2])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 8), min_size=9, max_size=9))
def test_mat_inv_over_Z_mod_9_exactly_when_det_is_a_unit(entries):
    Rm = IntModRing(3, 2)
    A = mat([entries[0:3], entries[3:6], entries[6:9]])
    if det(Rm, A) % 3 == 0:
        with pytest.raises(NotInDomain):
            mat_inv(Rm, A)
    else:
        assert [[x % 9 for x in row] for row in mat_mul(A, mat_inv(Rm, A))] \
            == [[int(i == j) for j in range(3)] for i in range(3)]


@pytest.mark.parametrize("Rx, u", [
    (R, Fraction(0)),          # Delta_+ = 0
    (IntModRing(3, 5), 0),     # Delta_+ = 0
    (IntModRing(3, 5), 3),     # Delta_+ = 3, nonzero but not a unit
])
def test_chart_inverses_refuse_a_singular_moment_matrix(Rx, u):
    # for n = 1, delta_+(X) is the 1x1 matrix (u)
    X = mat([[Rx.coerce(1), Rx.coerce(u)], [Rx.coerce(2), Rx.coerce(5)]])
    with pytest.raises(NotRegular):
        iota_inverse(Rx, X)
    with pytest.raises(NotInDomain):
        iota_prime_inverse(Rx, X)


def test_triangular_check_detects_collisions():
    with pytest.raises(ArithmeticError):
        triangular_check(lambda x: (0,), 1, 3, 2)
    rep = triangular_check(lambda x: ((x[0] + 1) % 9,), 1, 3, 2)
    assert rep["mode"] == "exhaustive"
    assert rep["fibers"] == 1


small = st.integers(min_value=-4, max_value=4).map(Fraction)


@settings(max_examples=40, deadline=None)
@given(st.tuples(small, small), st.tuples(small, small, small))
def test_section_property(a, b):
    X = section_sigma(R, a, b)
    ga, gb = invariants_of(R, X)
    assert (ga, gb) == (a, b)


small_frac = st.fractions(min_value=-4, max_value=4, max_denominator=3)
e_pair = st.tuples(small_frac, small_frac)
e_mat2 = st.tuples(st.tuples(e_pair, e_pair), st.tuples(e_pair, e_pair))
# inert and ramified extensions at p = 3 and p = 5
EXTS = [QuadExtContext(FieldContext(p), d)
        for p, d in ((3, 2), (3, 3), (5, 2), (5, 5))]


@settings(max_examples=40, deadline=None)
@given(e_mat2, e_mat2, st.sampled_from(EXTS))
def test_det_over_E_multiplicative(A, B, ext):
    RE = QuadExtRing(ext)
    A, B = (mat([[ext.scalar(*z) for z in row] for row in M]) for M in (A, B))
    assert det(RE, mat_mul(A, B)) == det(RE, A) * det(RE, B)
    # z conj(z) is the norm x^2 - delta y^2
    z = A[0][0]
    assert z * z.conj() == ext.scalar(z.x * z.x - ext.delta * z.y * z.y)


@settings(max_examples=30, deadline=None)
@given(small, st.tuples(small, small), st.tuples(small, small, small))
def test_det_multiplicative(c, a, b):
    A = section_sigma(R, a, b)
    B = mat([[Fraction(1), c, 0], [0, Fraction(1), c], [0, 0, Fraction(1)]])
    assert det(R, mat_mul(A, B)) == det(R, A) * det(R, B)


def _entries(R):
    """Entries over R, with non-units drawn often over Z/p^k."""
    if isinstance(R, QuadExtRing):
        return st.tuples(small_frac, small_frac).map(
            lambda xy: R.ext.scalar(*xy))
    if isinstance(R, IntModRing):
        return st.one_of(st.integers(0, R.m - 1),
                         st.integers(0, R.m // R.p - 1).map(lambda x: R.p * x))
    return small_frac


# Q, Z/3^5, Z/5^2, and E inert (delta = 2) and ramified (delta = 3) at p = 3
KERNEL_RINGS = [R, IntModRing(3, 5), IntModRing(5, 2), QuadExtRing(EXTS[0]),
                QuadExtRing(EXTS[1])]


def _square(data, R, n):
    return mat(data.draw(st.lists(st.lists(_entries(R), min_size=n,
                                           max_size=n),
                                  min_size=n, max_size=n)))


def _same(R, A, B):
    return all(R.is_zero(x - y) for x, y in zip(
        (x for row in A for x in row), (y for row in B for y in row)))


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(KERNEL_RINGS), st.integers(0, 5))
def test_matrix_kernels_match_their_oracles(data, Rk, n):
    # Berkowitz's charpoly_plus against the Leibniz expansion over R[T],
    # det against cofactor expansion (both exact, on ints at Z/p^k too),
    # and, up to R's zero test, mat_inv against adj(A) / det(A) and the
    # blockwise conjugate against the full product with diag(h, 1)
    A = _square(data, Rk, n)
    assert charpoly_plus(Rk, A) == charpoly_plus_leibniz(Rk, A)
    d = det_laplace(Rk, A)
    assert det(Rk, A) == d
    X = _square(data, Rk, n + 1)
    if not Rk.is_unit(d):
        with pytest.raises(NotInDomain):
            mat_inv(Rk, A)
        with pytest.raises(NotInDomain):
            conjugate(Rk, A, X)
        return
    inv = Rk.inv(d)
    A_inv = mat([[inv * x for x in row] for row in adjugate(Rk, A)])
    assert _same(Rk, mat_inv(Rk, A), A_inv)
    assert _same(Rk, conjugate(Rk, A, X),
                 conjugate_embedded(Rk, A, X, A_inv))


def test_conjugate_needs_h_one_size_smaller():
    X = xi_plus(R, 3)
    with pytest.raises(NotInDomain):
        conjugate(R, identity(R, 3), X)
