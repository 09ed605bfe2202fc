"""Unit tests for the cyclic algebra, its involutions, and the
archimedean realization."""

import cmath
import copy
import itertools
import operator
import pickle
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramanujan_bigraphs import algebra
from ramanujan_bigraphs.numberfield import (
    CubicExtElem,
    CycloElem,
    QuadElem,
    SQRT_M3,
    ZETA3_E,
    embed_E_in_L,
    galois_rho,
    galois_tau,
    local_norm_obstruction,
    quad_from_sqrt3_basis,
)
from ramanujan_bigraphs.algebra import (
    GALOIS,
    NONGALOIS,
    AlgebraElem,
    AlgebraParams,
    check_theorem_conditions,
    example_galois_params,
    example_nongalois_params,
    inverse,
    involution,
    is_special_unitary,
    matrix_at_infinity,
    matrix_det,
    matrix_mul,
    random_element,
    random_hermitian,
    random_special_unitary,
    realize_at_infinity,
    reduced_norm,
    reduced_trace,
    to_matrix,
    torus_point,
    triple_is_unitary_norm_one,
    verify_noncompact_torus,
    witness_primes,
)

GAL = example_galois_params()
NONGAL = example_nongalois_params()
KINDS = pytest.mark.parametrize("params", [GAL, NONGAL], ids=["galois", "nongalois"])


# ---------------------------------------------------------------------------
# The compiled product and involution against the L-triple formulas
# ---------------------------------------------------------------------------

def reference_mul(d, e) -> tuple:
    """The L-triple of d e = sum_k l_k (z^k e): row k of e's matrix image is z^k e."""
    l0, l1, l2 = d.l
    return tuple(l0 * c0 + l1 * c1 + l2 * c2 for c0, c1, c2 in zip(*to_matrix(e)))


def reference_involution(d) -> tuple:
    """The L-triple of alpha(d), by the formula of d's kind."""
    p = d.params
    l0, l1, l2 = d.l
    if p.kind == GALOIS:
        t, r = galois_tau, galois_rho
        ta = p.one.from_E(p.a.conj())
        return (t(l0), ta * t(r(l2)), ta * t(r(r(l1))))
    # transpose the theta/z coefficient grid and conjugate
    grid = zip(*(lj.coeffs for lj in d.l))
    return tuple(CubicExtElem(*(e.conj() for e in col), b=p.b) for col in grid)


def reference_reduced_norm(d):
    """Nrd(d) = N(l0) + a N(l1) + a^2 N(l2) - a Tr(l0 rho(l1) rho^2(l2)), in L."""
    a = d.params.a
    l0, l1, l2 = d.l
    cross = l0 * l1.rho() * l2.rho().rho()
    return l0.norm() + a * l1.norm() + a * a * l2.norm() - a * cross.trace()


# a radicand whose numerator has more decimal digits than str(int) allows
_HUGE_B = QuadElem(Fraction(10 ** max(sys.get_int_max_str_digits(), 4300) + 7, 3), 2)
FUZZED = {
    "galois": GAL,
    "nongalois": NONGAL,
    "galois, a=10^400": AlgebraParams(GALOIS, QuadElem(10) ** 400),
    "nongalois, huge b": AlgebraParams(NONGALOIS, _HUGE_B.conj(), _HUGE_B),
}
_BIG = 2 ** 100


def _elements(params):
    def coordinate(nums, den):
        return params.one.from_rationals([Fraction(c, den) for c in nums])
    coords = st.builds(coordinate, st.lists(st.integers(-_BIG, _BIG), min_size=6, max_size=6),
                       st.integers(1, _BIG))
    return st.tuples(coords, coords, coords).map(lambda t: AlgebraElem(params, *t))


@pytest.mark.parametrize("algebra", FUZZED)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_kernels_match_the_l_triple_formulas(algebra, data):
    params = FUZZED[algebra]
    d, e = data.draw(_elements(params)), data.draw(_elements(params))
    for x, ref in ((d * e, reference_mul(d, e)), (involution(d), reference_involution(d)),
                   (d + e, tuple(u + v for u, v in zip(d.l, e.l))),
                   (d - e, tuple(u - v for u, v in zip(d.l, e.l))), (-d, tuple(-u for u in d.l))):
        built = AlgebraElem(params, *ref)
        assert x.l == ref
        assert (x.num, x.den) == (built.num, built.den)
        assert x == built and hash(x) == hash(built)
        assert repr(x) == f"AlgebraElem({ref[0]!r}, {ref[1]!r}, {ref[2]!r})"
    assert bool(d - d) is False and (d - d) == AlgebraElem(params, 0)
    nrd, ref = reduced_norm(d), reference_reduced_norm(d)
    assert (nrd.num, nrd.den) == (ref.num, ref.den)
    trd, ref = reduced_trace(d), d.l[0].trace()
    assert (trd.num, trd.den) == (ref.num, ref.den)


@KINDS
def test_kernels_are_named_and_hold_no_literal(params):
    """Each kernel is compiled under a file name that names the algebra's kind
    and map, and binds every coefficient as a name: its code holds no constant."""
    cls = type(AlgebraElem.scalar(params, 1))
    for name in ("product", "times_w", "alpha", "trd", "nrd", "adj"):
        kernel = getattr(cls, f"_{name}")
        assert kernel.__code__.co_filename == f"<algebra {params.kind}.{name}>"
        assert kernel.__name__ == name
        assert set(kernel.__code__.co_consts) <= {None}


def test_kernels_are_built_once_per_algebra_value():
    def element_class(params):
        return type(AlgebraElem.scalar(params, 1))
    a = quad_from_sqrt3_basis(2, 1) / quad_from_sqrt3_basis(2, -1)
    assert element_class(AlgebraParams(GALOIS, a)) is element_class(GAL)
    assert element_class(example_nongalois_params())._product is element_class(NONGAL)._product
    assert element_class(AlgebraParams(GALOIS, a * a))._product is not element_class(GAL)._product


@KINDS
def test_elements_copy_and_pickle(params):
    d = random_element(params, random.Random(21))
    for x in (copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert x == d and repr(x) == repr(d)
        assert x * x == d * d and involution(x) == involution(d)


def test_foreign_coordinates_are_refused():
    for params, c in ((NONGAL, CycloElem([1, 2])), (GAL, CubicExtElem.scalar(1, NONGAL.b)),
                      (NONGAL, CubicExtElem.scalar(1, QuadElem(5))), (GAL, 1.5)):
        with pytest.raises(ValueError, match="is not an element of the algebra's L"):
            AlgebraElem(params, c)
        with pytest.raises(ValueError, match="is not an element of the algebra's L"):
            AlgebraElem(params, 0, 0, c)
    # ints, Fractions and elements of E are embedded
    three = AlgebraElem(GAL, 3)
    assert three.l == (GAL.one.from_E(3), GAL.one.from_E(0), GAL.one.from_E(0))
    assert repr(three).startswith("AlgebraElem(CycloElem([Fraction(3, 1), ")
    assert three * three == AlgebraElem.scalar(GAL, 9)
    half = AlgebraElem(NONGAL, Fraction(1, 2), ZETA3_E)
    assert half.l == (NONGAL.one.from_E(Fraction(1, 2)), NONGAL.one.from_E(ZETA3_E),
                      NONGAL.one.from_E(0))


def test_elements_of_two_algebras_do_not_mix():
    a_squared = AlgebraParams(GALOIS, GAL.a * GAL.a)
    for p, q in ((GAL, NONGAL), (NONGAL, GAL), (GAL, a_squared), (a_squared, GAL)):
        d, e = AlgebraElem.scalar(p, 1), AlgebraElem.scalar(q, 1)
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ValueError, match="^elements belong to different algebras$"):
                op(d, e)
        assert (d == e) is False and (d != e) is True


@KINDS
def test_scalars_coerce_into_D(params):
    """ints, Fractions and elements of E enter D as its scalars, on either side."""
    d = random_element(params, random.Random(5))
    one = AlgebraElem.scalar(params, 1)
    mu, e = Fraction(-2, 3), QuadElem(Fraction(1, 2), -1)
    assert d + 1 == d + one and 1 - d == one - d
    assert QuadElem(mu) * d == d * QuadElem(mu) == d * AlgebraElem.scalar(params, mu)
    assert e * d == d * e == AlgebraElem.scalar(params, e) * d
    for x in (d, one):
        assert (x == AlgebraElem.scalar(params, 1)) is (x == 1) is (1 == x)
    assert one == 1 and d != 1


# ---------------------------------------------------------------------------
# The involution and the product on D's Q-basis: alpha is Q-linear and the
# product Q-bilinear, so each law checked on the basis holds on all of D
# ---------------------------------------------------------------------------

def _q_basis(params):
    """c z^k for c in L's Q-basis and k = 0, 1, 2: 18 elements."""
    zero = params.one.from_E(0)
    units = [params.one.from_rationals([int(i == j) for j in range(6)]) for i in range(6)]
    return [AlgebraElem(params, *(c if m == k else zero for m in range(3)))
            for k in range(3) for c in units]


def _cubic_points(basis):
    """e_i, e_i + e_j, 2 e_i + e_j (i < j) and e_i + e_j + e_k (i < j < k):
    1,140 points on which two Q-cubic forms in 18 variables agree only if
    they are equal."""
    pairs = list(itertools.combinations(basis, 2))
    return (basis + [x + y for x, y in pairs] + [x + x + y for x, y in pairs]
            + [x + y + z for x, y, z in itertools.combinations(basis, 3)])


# failures of alpha^2 = id (18 elements), associativity (5,832 triples),
# anti-multiplicativity (324 pairs) and Nrd(alpha(x)) = tau(Nrd(x)) (1,140
# points); the non-Galois alpha is no anti-automorphism and does not conjugate
# the norm, with b = 2 zeta_3 as with a rational b = a = 2
BASIS_LAW_FAILURES = {
    "galois": (GAL, (0, 0, 0, 0)),
    "nongalois": (NONGAL, (0, 0, 144, 48)),
    "nongalois, b=2": (AlgebraParams(NONGALOIS, QuadElem(2), QuadElem(2)), (0, 0, 144, 48)),
}


@pytest.mark.parametrize("algebra", BASIS_LAW_FAILURES)
def test_laws_on_the_basis(algebra):
    params, expected = BASIS_LAW_FAILURES[algebra]
    basis = _q_basis(params)
    alpha = [involution(e) for e in basis]
    pairs = list(itertools.product(range(18), repeat=2))
    prod = {(i, j): basis[i] * basis[j] for i, j in pairs}
    squares = sum(involution(a) != e for a, e in zip(alpha, basis))
    assoc = sum(prod[i, j] * basis[k] != basis[i] * prod[j, k]
                for (i, j), k in itertools.product(pairs, range(18)))
    anti = sum(involution(prod[i, j]) != alpha[j] * alpha[i] for i, j in pairs)
    points = _cubic_points(basis)
    assert len(points) == 1140
    norm = sum(reduced_norm(involution(x)) != reduced_norm(x).conj() for x in points)
    assert (squares, assoc, anti, norm) == expected


# ---------------------------------------------------------------------------
# Ring structure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("params", [GAL, NONGAL], ids=["galois", "nongalois"])
def test_z_relations(params):
    z = AlgebraElem.gen_z(params)
    zero = params.one.from_E(0)
    # z l = rho(l) z on the Q-basis of L: zeta_9^j (galois), theta^k w^j (nongalois)
    for i in range(6):
        lval = params.one.from_rationals([int(i == k) for k in range(6)])
        assert (z * AlgebraElem(params, lval)).l == (zero, lval.rho(), zero)
    assert z * z * z == AlgebraElem.scalar(params, params.a)


@pytest.mark.parametrize("params", [GAL, NONGAL], ids=["galois", "nongalois"])
def test_matrix_embedding_is_homomorphism(params):
    rng = random.Random(10)
    for _ in range(20):
        d, e, f = (random_element(params, rng) for _ in range(3))
        assert (d * e) * f == d * (e * f)
        assert matrix_mul(to_matrix(d), to_matrix(e)) == to_matrix(d * e)


def test_identity_matrix():
    one = AlgebraElem.scalar(GAL, 1)
    m = to_matrix(one)
    for i in range(3):
        for j in range(3):
            expected = GAL.one if i == j else GAL.one.from_E(0)
            assert m[i][j] == expected


def test_z_matrix_shape():
    m = to_matrix(AlgebraElem.gen_z(GAL))
    assert m[0][1] == GAL.one and m[1][2] == GAL.one
    assert m[2][0] == GAL.one.from_E(GAL.a)
    assert m[0][0] == GAL.one.from_E(0)


# ---------------------------------------------------------------------------
# Reduced norm
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("params", [GAL, NONGAL], ids=["galois", "nongalois"])
def test_reduced_norm(params):
    assert reduced_norm(AlgebraElem.scalar(params, 1)) == QuadElem(1)
    assert reduced_norm(AlgebraElem.gen_z(params)) == params.a
    rng = random.Random(11)
    for _ in range(20):
        d, e = random_element(params, rng), random_element(params, rng)
        assert reduced_norm(d * e) == reduced_norm(d) * reduced_norm(e)
        assert matrix_det(to_matrix(d)) == params.one.from_E(reduced_norm(d))


def test_inverse():
    rng = random.Random(12)
    one = AlgebraElem.scalar(GAL, 1)
    for _ in range(5):
        d = random_element(GAL, rng)
        if reduced_norm(d):
            assert d * inverse(d) == one
    with pytest.raises(ZeroDivisionError):
        inverse(AlgebraElem.scalar(GAL, 0))


# ---------------------------------------------------------------------------
# The cofactors of the matrix image in integers against the L formulas
# ---------------------------------------------------------------------------

def reference_cofactors(m) -> tuple:
    """Row 0 of adj(m), the cofactors of column 0, in L."""
    return (
        m[1][1] * m[2][2] - m[1][2] * m[2][1],
        m[0][2] * m[2][1] - m[0][1] * m[2][2],
        m[0][1] * m[1][2] - m[0][2] * m[1][1],
    )


def reference_det(m):
    c0, c1, c2 = reference_cofactors(m)
    return m[0][0] * c0 + m[1][0] * c1 + m[2][0] * c2


def reference_inverse(d):
    """Row 0 of adj(A) / Nrd(d), in L: the triple of d^-1."""
    inv_n = d.params.one.from_E(reference_reduced_norm(d).inverse())
    return AlgebraElem(d.params, *(inv_n * c for c in reference_cofactors(to_matrix(d))))


# a radicand with a denominator, so that E(theta)'s product lies over 3
_B_THIRDS = QuadElem(Fraction(2, 3), 1)
INTEGER_ROUTE = {
    "galois": GAL,
    "nongalois": NONGAL,
    "galois, a=10^400": FUZZED["galois, a=10^400"],
    "nongalois, b=2/3+w": AlgebraParams(NONGALOIS, _B_THIRDS.conj(), _B_THIRDS),
}


def test_integer_route_meets_a_product_denominator():
    assert type(INTEGER_ROUTE["nongalois, b=2/3+w"].one)._product_den == 3
    assert {type(INTEGER_ROUTE[k].one)._product_den for k in ("galois", "nongalois")} == {1}


@pytest.mark.parametrize("algebra", INTEGER_ROUTE)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_integer_cofactors_match_the_l_formula(algebra, data):
    params = INTEGER_ROUTE[algebra]
    d = data.draw(_elements(params))
    m = to_matrix(d)
    det, ref = matrix_det(m), reference_det(m)
    assert (det.num, det.den) == (ref.num, ref.den)
    assert det == params.one.from_E(reduced_norm(d))


# ---------------------------------------------------------------------------
# The reduced adjoint x^# as a compiled quadratic form, and the inverse
# ---------------------------------------------------------------------------

def reduced_adjoint(d):
    """x^# from the compiled form, normalised."""
    return d._canonical(d._adj(d.num), d.den ** 2 * d._adj_den)


@pytest.mark.parametrize("algebra", INTEGER_ROUTE)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_adjugate_form_matches_the_l_formula(algebra, data):
    params = INTEGER_ROUTE[algebra]
    d = data.draw(_elements(params))
    if not reduced_norm(d):
        with pytest.raises(ZeroDivisionError):
            inverse(d)
        return
    x, ref = inverse(d), reference_inverse(d)
    assert (x.num, x.den) == (ref.num, ref.den)
    assert d * x == 1 and x * d == 1


@pytest.mark.parametrize("algebra", INTEGER_ROUTE)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_reduced_adjoint_law(algebra, data):
    """x x^# = x^# x = Nrd(x), with x^# = x^2 - t1 x + (t1^2 - t2)/2."""
    params = INTEGER_ROUTE[algebra]
    d = data.draw(_elements(params))
    adj, n = reduced_adjoint(d), reduced_norm(d)
    assert d * adj == n and adj * d == n
    t1, t2 = reduced_trace(d), reduced_trace(d * d)
    assert adj == d * d - t1 * d + (t1 * t1 - t2) / 2


def test_reduced_adjoint_at_a_zero_divisor():
    """On the split algebra b = a = 2, Nrd(z - theta) = 0 with z - theta != 0:
    the adjoint is a nonzero zero divisor and the inverse still raises."""
    params = AlgebraParams(NONGALOIS, QuadElem(2), QuadElem(2))
    x = AlgebraElem(params, -CubicExtElem(0, 1, b=params.b), 1)
    adj = reduced_adjoint(x)
    assert x and adj and not reduced_norm(x)
    assert x * adj == 0 and adj * x == 0
    with pytest.raises(ZeroDivisionError):
        inverse(x)


def test_inverse_of_cayley_draws_matches_the_l_formula():
    rng = random.Random(22)
    for _ in range(5):
        d = random_special_unitary(GAL, rng)
        x, ref = inverse(d), reference_inverse(d)
        assert (x.num, x.den) == (ref.num, ref.den) and x == involution(d)


_FRACTIONS = st.fractions(min_value=-_BIG, max_value=_BIG, max_denominator=_BIG)


def test_scalar_is_the_constructor_route():
    """AlgebraElem.scalar embeds E straight into the class: the same num, den
    and class as the constructor, which embeds each coordinate into L."""
    for params in INTEGER_ROUTE.values():
        for e in (0, 3, Fraction(-2, 3), QuadElem(Fraction(1, 2), -1), QuadElem(10) ** 50):
            x, ref = AlgebraElem.scalar(params, e), AlgebraElem(params, e)
            assert (type(x), x.num, x.den) == (type(ref), ref.num, ref.den)
            assert x.l == ref.l


def _scalar_spaces():
    """An element of E, L, E(theta) at two radicands and D of four algebras."""
    rng = random.Random(31)
    six = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(6)]
    yield QuadElem(Fraction(3, 4), -5)
    yield CycloElem(six)
    for b in (NONGAL.b, _B_THIRDS):
        yield CubicExtElem.scalar(1, b).from_rationals(six)
    for params in INTEGER_ROUTE.values():
        yield random_element(params, rng)


@pytest.mark.parametrize("e", [7, -1, Fraction(-5, 6), QuadElem(0, 1), SQRT_M3,
                               QuadElem(Fraction(2, 9), Fraction(-7, 4))],
                         ids=["int", "minus-one", "fraction", "w", "sqrt-3", "quad"])
def test_scalars_act_as_the_product(e):
    """e x and x e, by the compiled product by w, equal x's product with the
    embedded e in num and den, in every space."""
    for x in _scalar_spaces():
        s = x.from_E(e)
        ref = x._canonical(x._product(s.num, x.num), s.den * x.den * x._product_den)
        for y in (e * x, x * e):
            assert (type(y), y.num, y.den) == (type(ref), ref.num, ref.den)
    a_squared = AlgebraParams(GALOIS, GAL.a * GAL.a)
    pairs = [(CubicExtElem.scalar(e, NONGAL.b), CubicExtElem.scalar(e, _B_THIRDS)),
             (AlgebraElem.scalar(GAL, e), AlgebraElem.scalar(a_squared, e)),
             (AlgebraElem.scalar(GAL, e), AlgebraElem.scalar(NONGAL, e))]
    for x, y in pairs:
        for u, v in ((x, y), (y, x)):
            with pytest.raises(ValueError, match="^(mixing|elements belong)"):
                u * v


@given(x=_FRACTIONS, y=st.one_of(st.just(0), _FRACTIONS))
@settings(max_examples=60, deadline=None)
def test_equal_values_hash_equal(x, y):
    """a == b implies hash(a) == hash(b) across ints, Fractions, E, L, E(theta)
    and D: a value of E is equal to its images in every space."""
    e = QuadElem(x, y)
    forms = [e, embed_E_in_L(e), CubicExtElem.scalar(e, NONGAL.b),
             CubicExtElem.scalar(e, _B_THIRDS)]
    forms += [AlgebraElem.scalar(p, e) for p in INTEGER_ROUTE.values()]
    assert all(f == e for f in forms)
    if not y:
        forms += [x, x.numerator] if x.denominator == 1 else [x]
    forms += [embed_E_in_L(e) + CycloElem.zeta9(1), AlgebraElem(GAL, e, 1)]   # not in E
    for a, b in itertools.product(forms, repeat=2):
        if a == b:
            assert hash(a) == hash(b), (a, b)


# ---------------------------------------------------------------------------
# Involutions
# ---------------------------------------------------------------------------

def test_involution_fixes_one():
    for params in (GAL, NONGAL):
        one = AlgebraElem.scalar(params, 1)
        assert involution(one) == one


def test_galois_involution_on_z():
    z = AlgebraElem.gen_z(GAL)
    az = involution(z)
    ta = embed_E_in_L(GAL.a.conj())
    assert az.l == (CycloElem([]), CycloElem([]), ta)
    assert az * z == AlgebraElem.scalar(GAL, 1)   # tau(a) a = 1


def test_galois_involution_is_conjugate_transpose():
    rng = random.Random(13)
    for _ in range(10):
        d = random_element(GAL, rng)
        m = to_matrix(d)
        am = to_matrix(involution(d))
        for i in range(3):
            for j in range(3):
                assert am[i][j] == galois_tau(m[j][i])


def test_nongalois_involution_swaps_theta_and_z():
    from ramanujan_bigraphs.numberfield import CubicExtElem
    theta = AlgebraElem(
        NONGAL, CubicExtElem(QuadElem(0), QuadElem(1), QuadElem(0), b=NONGAL.b)
    )
    z = AlgebraElem.gen_z(NONGAL)
    assert involution(theta) == z
    assert involution(z) == theta


@pytest.mark.parametrize("params", [GAL, NONGAL], ids=["galois", "nongalois"])
def test_involution_is_order_two(params):
    rng = random.Random(14)
    for _ in range(50):
        d = random_element(params, rng)
        assert involution(involution(d)) == d


@pytest.mark.parametrize("params", [GAL, NONGAL], ids=["galois", "nongalois"])
def test_involution_restricts_to_tau(params):
    rng = random.Random(15)
    for _ in range(30):
        s = QuadElem(Fraction(rng.randrange(-6, 7)), Fraction(rng.randrange(-6, 7)))
        assert involution(AlgebraElem.scalar(params, s)) == \
            AlgebraElem.scalar(params, s.conj())


def test_galois_involution_is_anti_automorphism():
    rng = random.Random(16)
    for _ in range(30):
        d, e = random_element(GAL, rng), random_element(GAL, rng)
        assert involution(d * e) == involution(e) * involution(d)
        assert reduced_norm(involution(d)) == reduced_norm(d).conj()


# ---------------------------------------------------------------------------
# Special unitary membership
# ---------------------------------------------------------------------------

def test_special_unitary_examples():
    assert is_special_unitary(AlgebraElem.scalar(GAL, 1))
    assert is_special_unitary(AlgebraElem.scalar(GAL, ZETA3_E))
    zeta9 = AlgebraElem(GAL, CycloElem.zeta9(1))
    assert not is_special_unitary(zeta9)


def test_special_unitary_sampler_and_closure():
    rng = random.Random(17)
    elems = [random_special_unitary(GAL, rng) for _ in range(6)]
    for d in elems:
        assert is_special_unitary(d)
        assert is_special_unitary(inverse(d))
    for d, e in zip(elems, elems[1:]):
        assert is_special_unitary(d * e)


def test_cayley_sampler_retries_when_n_1_plus_s_is_zero(monkeypatch):
    # an attempt whose 1 + s has reduced norm 0 is skipped: the draw is then
    # the next attempt's, the one a second draw from the same stream returns
    rng = random.Random(17)
    random_special_unitary(GAL, rng)
    want = random_special_unitary(GAL, rng)
    calls = []

    def inverse_singular_once(d):
        calls.append(d)
        if len(calls) == 1:
            raise ZeroDivisionError("element has reduced norm zero")
        return inverse(d)

    monkeypatch.setattr(algebra, "inverse", inverse_singular_once)
    assert random_special_unitary(GAL, random.Random(17)) == want
    assert len(calls) == 2


def reference_random_hermitian(params, rng):
    """The hermitian draw in Fractions: d + alpha(d) for d = l0/2 + l1 z, with
    l0 = q0 + q1 eta1 + q2 eta2 in the real cubic subfield and l1 in L."""
    q0, q1, q2 = (algebra._random_fraction(rng) for _ in range(3))
    l0 = CycloElem([q0, q1 - q2, q2 - q1, 0, -q2, -q1])
    d = AlgebraElem(params, l0 / 2, algebra.random_l_element(params, rng))
    return d + involution(d)


def test_random_hermitian_is_the_fraction_draw():
    for seed in range(200):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        h, ref = random_hermitian(GAL, rng), reference_random_hermitian(GAL, ref_rng)
        assert (h.num, h.den) == (ref.num, ref.den) and involution(h) == h
        assert rng.getstate() == ref_rng.getstate()    # the same calls


@pytest.mark.parametrize("sample", [
    lambda p: random_hermitian(p, random.Random(0)),
    lambda p: random_special_unitary(p, random.Random(0)),
    lambda p: matrix_at_infinity(AlgebraElem.scalar(p, 1)),
], ids=["hermitian", "special-unitary", "matrix-at-infinity"])
def test_galois_only_operations_refuse_the_nongalois_kind(sample):
    with pytest.raises(ValueError, match="Galois kind"):
        sample(NONGAL)


@pytest.mark.parametrize("args, message", [
    (("cubic", QuadElem(2)), "unknown algebra kind 'cubic'"),
    ((GALOIS, QuadElem(0)), "must be a unit of E"),
    ((NONGALOIS, QuadElem(2)), "needs the radicand b"),
    ((NONGALOIS, QuadElem(2), QuadElem(2) * ZETA3_E), "requires a = tau"),
    ((GALOIS, QuadElem(2), QuadElem(5)), "Galois kind takes no radicand b"),
], ids=["kind", "a-zero", "b-missing", "a-not-tau-b", "b-for-galois"])
def test_algebra_params_refusals(args, message):
    with pytest.raises(ValueError, match=message):
        AlgebraParams(*args)


# ---------------------------------------------------------------------------
# Construction conditions
# ---------------------------------------------------------------------------

def test_conditions_builtin_example():
    rep = check_theorem_conditions(GAL)
    assert rep.division_condition is True
    assert rep.unit_norm_condition and rep.commuting_condition
    assert rep.witness_prime_a == 7 and rep.witness_prime_a2 == 7


def test_conditions_a_one():
    rep = check_theorem_conditions(AlgebraParams(GALOIS, QuadElem(1)))
    assert rep.division_condition is False
    assert rep.unit_norm_condition


def test_conditions_a_sqrt_m3():
    rep = check_theorem_conditions(AlgebraParams(GALOIS, quad_from_sqrt3_basis(0, 1)))
    assert not rep.unit_norm_condition


def _second_search(a, limit=200):
    """witness_prime_a2 and residues_a2 by a search of their own over a^2."""
    for p in witness_primes(limit):
        rep = local_norm_obstruction(a * a, p)
        if rep.obstructed:
            return p, rep.valuations_mod_3
    return None, None


@pytest.mark.parametrize("a", [
    quad_from_sqrt3_basis(2, 1) / quad_from_sqrt3_basis(2, -1),
    QuadElem(10) ** 400,                          # no witness below 200
    QuadElem(7) ** 61,
    QuadElem(Fraction(2, 7), 3) ** 5,
    QuadElem(1, 1) / QuadElem(13),
    QuadElem(19, -4),
], ids=["example", "10^400", "7^61", "(2/7+3w)^5", "(1+w)/13", "19-4w"])
def test_conditions_a2_fields_match_a_second_search(a):
    rep = check_theorem_conditions(AlgebraParams(GALOIS, a))
    assert (rep.witness_prime_a2, rep.residues_a2) == _second_search(a)
    if rep.witness_prime_a is not None:       # the record the residues are read from
        assert rep.obstruction == local_norm_obstruction(a, rep.witness_prime_a)
        assert rep.residues_a == rep.obstruction.valuations_mod_3
    assert rep.division_condition is (True if rep.witness_prime_a else None)


def test_conditions_require_galois_kind():
    with pytest.raises(ValueError):
        check_theorem_conditions(NONGAL)


# ---------------------------------------------------------------------------
# Archimedean realization
# ---------------------------------------------------------------------------

def reference_embed_c(l) -> complex:
    """The embedding zeta_9 -> exp(2 pi i / 9) from l's Fraction coefficients."""
    zeta = cmath.exp(2j * cmath.pi / 9)
    return sum(float(c) * zeta ** i for i, c in enumerate(l.coeffs))


def _bits(values) -> bytes:
    return np.array(values, dtype=complex).tobytes()


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_embedding_is_the_fraction_formula_bit_for_bit(data):
    d = data.draw(st.one_of(_elements(GAL), st.integers(0, 2 ** 32).map(
        lambda seed: random_special_unitary(GAL, random.Random(seed)))))
    m = to_matrix(d)
    assert matrix_at_infinity(d).tobytes() == _bits([[reference_embed_c(x) for x in row]
                                                     for row in m])
    for l in d.l:
        r = galois_rho(l)
        want = (reference_embed_c(l), reference_embed_c(r), reference_embed_c(galois_rho(r)))
        assert _bits(realize_at_infinity(l)) == _bits(want)


def test_realize_constants():
    t = realize_at_infinity(CycloElem([1]))
    assert np.allclose(t, (1, 1, 1))
    z = realize_at_infinity(CycloElem.zeta9(1))
    w = np.exp(2j * np.pi / 9)
    assert np.allclose(z, (w, w ** 4, w ** 7))


def test_realize_is_homomorphism():
    rng = random.Random(18)
    for _ in range(20):
        x = CycloElem([Fraction(rng.randrange(-4, 5)) for _ in range(6)])
        y = CycloElem([Fraction(rng.randrange(-4, 5)) for _ in range(6)])
        lhs = np.array(realize_at_infinity(x)) * np.array(realize_at_infinity(y))
        rhs = np.array(realize_at_infinity(x * y))
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_matrix_at_infinity_special_unitary():
    rng = random.Random(19)
    for _ in range(5):
        d = random_special_unitary(GAL, rng)
        m = matrix_at_infinity(d)
        assert np.allclose(m.conj().T @ m, np.eye(3), atol=1e-10)
        assert abs(np.linalg.det(m) - 1) < 1e-10
        am = matrix_at_infinity(involution(d))
        assert np.allclose(am, m.conj().T, atol=1e-10)


def test_torus():
    assert verify_noncompact_torus(1.0)
    assert torus_point(2.0) == (1.0, 2.0, 0.5)
    assert verify_noncompact_torus(2.0)
    assert verify_noncompact_torus(0.3 - 1.7j)
    with pytest.raises(ValueError):
        verify_noncompact_torus(0)
    assert not triple_is_unitary_norm_one((1.01, 2.0, 0.5))
