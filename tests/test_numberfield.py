"""Unit tests for exact arithmetic in E = Q(sqrt(-3)), L = Q(zeta_9) and E(theta)."""

import copy
import math
import operator
import pickle
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ramanujan_bigraphs.numberfield import (
    CubicExtElem,
    CycloElem,
    QuadElem,
    ZETA3_E,
    cubic_norm,
    cubic_rho,
    cubic_trace,
    embed_E_in_L,
    galois_rho,
    galois_tau,
    hensel_sqrt_minus3,
    is_in_E,
    is_prime,
    local_norm_obstruction,
    norm_L_over_E,
    norm_trace_L_over_E,
    project_to_E,
    quad_from_sqrt3_basis,
    splitting_data,
    trace_L_over_E,
)

small_fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=5
)


def random_cyclo(rng, span=4):
    return CycloElem([Fraction(rng.randrange(-span, span + 1),
                               rng.randrange(1, 4)) for _ in range(6)])


# ---------------------------------------------------------------------------
# Field arithmetic
# ---------------------------------------------------------------------------

def test_zeta9_reduction():
    z = CycloElem.zeta9(1)
    assert z * CycloElem.zeta9(5) == -CycloElem.zeta9(3) - CycloElem([1])


def test_inverse_roundtrip():
    x = CycloElem([3, 2])   # 3 + 2 zeta_9
    assert x * x.inverse() == CycloElem([1])


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        CycloElem([]).inverse()


def test_example_product_in_E():
    a = quad_from_sqrt3_basis(2, 1)
    b = quad_from_sqrt3_basis(2, -1)
    assert a * b == QuadElem(7)


@given(small_fractions, small_fractions, small_fractions, small_fractions)
def test_quad_field_axioms(x1, y1, x2, y2):
    a, b = QuadElem(x1, y1), QuadElem(x2, y2)
    assert a * b == b * a
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a * b).norm() == a.norm() * b.norm()
    if a:
        assert a * a.inverse() == QuadElem(1)


def test_constructors_take_exact_rationals_only():
    b = QuadElem(2) * ZETA3_E
    builds = [lambda v: QuadElem(v), lambda v: QuadElem(1, v), lambda v: CycloElem([1, v]),
              lambda v: CubicExtElem.scalar(1, b).from_rationals([v, 0, 0, 0, 0, 0]),
              lambda v: CubicExtElem(v, b=b), lambda v: QuadElem(1) + v]
    for v in (0.1, 0.5, "1/3", "2", Decimal("0.5"), True, None):
        for build in builds:
            with pytest.raises(TypeError):
                build(v)
    assert QuadElem(Fraction(1, 3), 2) == QuadElem(Fraction(1, 3), Fraction(2))
    assert CycloElem([Fraction(1, 2), 7]).coeffs[:2] == (Fraction(1, 2), Fraction(7))


# ---------------------------------------------------------------------------
# Field laws over E, L and E(theta)
# ---------------------------------------------------------------------------

# theta^3 = b: the radicand of the non-Galois example, and one that is not integral
RADICANDS = {"E(theta)": QuadElem(2) * ZETA3_E,
             "E(theta), b=3/2+w/5": QuadElem(Fraction(3, 2), Fraction(1, 5))}
six_fractions = st.lists(small_fractions, min_size=6, max_size=6)

FIELDS = {
    "E": st.tuples(small_fractions, small_fractions).map(lambda t: QuadElem(*t)),
    "L": six_fractions.map(CycloElem),
    **{name: six_fractions.map(CubicExtElem.scalar(1, b).from_rationals)
       for name, b in RADICANDS.items()},
}
ORDERS = {field: 2 if field == "E" else 3 for field in FIELDS}   # of the Galois generator rho
# Exact arithmetic in L takes milliseconds per law on a loaded host: no deadline.
field_laws = settings(max_examples=50, deadline=None)


@pytest.mark.parametrize("field", FIELDS)
@given(data=st.data())
@field_laws
def test_ring_laws(field, data):
    x, y, z = (data.draw(FIELDS[field]) for _ in range(3))
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + 0 == x and x * 1 == x and not x * 0
    assert not x - x and -(-x) == x


@pytest.mark.parametrize("field", ["E", "L", "E(theta)"])
@given(data=st.data())
@field_laws
def test_inverse_law(field, data):
    x = data.draw(FIELDS[field])
    if x:
        assert x * x.inverse() == 1
        assert x / x == 1
    else:
        with pytest.raises(ZeroDivisionError):
            x.inverse()


@pytest.mark.parametrize("field", FIELDS)
@given(data=st.data())
@field_laws
def test_galois_generator_and_norm(field, data):
    x, y = data.draw(FIELDS[field]), data.draw(FIELDS[field])
    assert x.rho() * y.rho() == (x * y).rho()
    assert (x + y).rho() == x.rho() + y.rho()
    orbit = x
    for _ in range(ORDERS[field]):
        orbit = orbit.rho()
    assert orbit == x
    assert (x * y).norm() == x.norm() * y.norm()
    assert (x + y).trace() == x.trace() + y.trace()


@given(six_fractions.map(CycloElem), six_fractions.map(CycloElem))
@field_laws
def test_tau_laws(x, y):
    assert galois_tau(galois_tau(x)) == x
    assert galois_tau(galois_rho(x)) == galois_rho(galois_tau(x))
    assert galois_tau(x * y) == galois_tau(x) * galois_tau(y)


# ---------------------------------------------------------------------------
# The canonical integer form against a Fraction reference
# ---------------------------------------------------------------------------

def _poly_mul(a, b, top, mul, add, zero):
    """a * b modulo the monic rule t^n = sum(top[i] t^i), over any ring."""
    n = len(a)
    prod = [zero] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = add(prod[i + j], mul(x, y))
    for k in range(2 * n - 2, n - 1, -1):
        c = prod.pop()
        for i, r in enumerate(top):
            prod[k - n + i] = add(prod[k - n + i], mul(c, r))
    return prod


def _zip(f, a, b):
    """f applied coefficientwise, into nested coefficient lists."""
    return [_zip(f, x, y) if isinstance(x, list) else f(x, y) for x, y in zip(a, b)]


def _e_mul(a, b):
    return _poly_mul(a, b, (-1, 1), operator.mul, operator.add, 0)         # w^2 = -1 + w


def _l_mul(a, b):
    return _poly_mul(a, b, (-1, 0, 0, -1, 0, 0), operator.mul, operator.add, 0)


def _t_mul(b):
    """The product of E(theta) with theta^3 = b."""
    top = ([b.x, b.y], [0, 0], [0, 0])
    e_add = lambda u, v: _zip(operator.add, u, v)
    return lambda x, y: _poly_mul(x, y, top, _e_mul, e_add, [0, 0])


_ZETA9 = [[1, 0, 0, 0, 0, 0]]
while len(_ZETA9) < 9:
    _ZETA9.append(_l_mul(_ZETA9[-1], [0, 1, 0, 0, 0, 0]))


def _l_map(exponent):
    """zeta_9 -> zeta_9^exponent on a coefficient list of L."""
    def image(v):
        return [sum(c * _ZETA9[exponent * i % 9][j] for i, c in enumerate(v)) for j in range(6)]
    return image


def _t_rho(v):   # theta -> zeta_3 theta, zeta_3 = -1 + w
    return [v[0], _e_mul(v[1], [-1, 1]), _e_mul(v[2], [0, -1])]


# per field: product, Galois generator, and an element of the fixed field as a list
REFERENCE = {
    "E": (_e_mul, lambda v: [v[0] + v[1], -v[1]], lambda n: [n, 0]),
    "L": (_l_mul, _l_map(4), lambda n: [n.x + n.y, 0, 0, n.y, 0, 0]),
    **{name: (_t_mul(b), _t_rho, lambda n: [[n.x, n.y], [0, 0], [0, 0]])
       for name, b in RADICANDS.items()},
}


def _vec(x):
    """The coefficients as Fractions, E coefficients as [x, y] lists."""
    return [[c.x, c.y] if isinstance(c, QuadElem) else c for c in x.coeffs]


def _assert_canonical(z):
    if isinstance(z, Fraction):          # the norm and trace of E lie in Q
        return
    assert all(type(c) is int for c in z.num)
    assert z.den > 0 and math.gcd(z.den, *z.num) == 1


@pytest.mark.parametrize("field", FIELDS)
@given(data=st.data())
@field_laws
def test_canonical_form_matches_fraction_reference(field, data):
    x, y = data.draw(FIELDS[field]), data.draw(FIELDS[field])
    mul, rho, from_base = REFERENCE[field]
    X, Y = _vec(x), _vec(y)
    conjugates = [rho(X)]
    while len(conjugates) < ORDERS[field] - 1:
        conjugates.append(rho(conjugates[-1]))
    norm, trace = X, X
    for c in conjugates:
        norm, trace = mul(norm, c), _zip(operator.add, trace, c)
    checks = [
        (x + y, _zip(operator.add, X, Y)),
        (x - y, _zip(operator.sub, X, Y)),
        (x * y, mul(X, Y)),
        (x.rho(), conjugates[0]),
    ]
    if field == "L":
        checks.append((galois_tau(x), _l_map(8)(X)))
    for z, expected in checks:
        _assert_canonical(z)
        assert _vec(z) == expected
    for z, expected in ((x.norm(), norm), (x.trace(), trace)):
        _assert_canonical(z)
        assert from_base(z) == expected
    if x:
        inv = x.inverse()
        _assert_canonical(inv)
        assert mul(X, _vec(inv)) == from_base(1 if field == "E" else QuadElem(1))
    assert x * y == y * x and hash(x * y) == hash(y * x)
    assert (x + y) - y == x and hash((x + y) - y) == hash(x)


# ---------------------------------------------------------------------------
# The compiled kernels against the row interpreter and schoolbook product
# they replaced, on numerators far past machine words
# ---------------------------------------------------------------------------

def _linear_map(images):
    """The linear map sending basis vector i to images[i], as rows: row j
    lists (i, s, m) for each nonzero m = images[i][j], where s = +-1 when
    m = +-1 (applied as an addition or subtraction) and s = 0 otherwise."""
    rows = []
    for j in range(len(images[0])):
        col = [(i, img[j]) for i, img in enumerate(images) if img[j]]
        rows.append(tuple((i, 1 if m == 1 else -1 if m == -1 else 0, m) for i, m in col))
    return tuple(rows)


def _apply(rows, vec):
    """The linear map ``rows`` applied to the integer vector vec."""
    out = []
    for row in rows:
        acc = 0
        for i, s, m in row:
            v = vec[i]
            if v:
                acc = acc + v if s > 0 else acc - v if s < 0 else acc + m * v
        out.append(acc)
    return tuple(out)


def _powers(top):
    """t^0, ..., t^(2n-2) on the basis 1, ..., t^(n-1), for t^n = sum(top[i] t^i)."""
    n = len(top)
    images = [[int(i == k) for i in range(n)] for k in range(n)]
    while len(images) < 2 * n - 1:
        *low, high = images[-1]
        images.append([a + high * r for a, r in zip([0] + low, top)])
    return images


def _schoolbook(a, b):
    right = [(j, y) for j, y in enumerate(b) if y]
    prod = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in right:
                prod[i + j] += x * y
    return prod


def _lowest(num, den):
    g = math.gcd(den, *num)
    return tuple(c // g for c in num), den // g


def _theta_map(slots, factor):
    """Slot 3k + j of E(theta) to factor(k) w^j at theta^(k mod 3)."""
    images = [[0] * 9 for _ in range(slots)]
    for s, image in enumerate(images):
        k, j = divmod(s, 3)
        image[3 * (k % 3):3 * (k % 3) + 2] = (factor(k) * QuadElem(0, 1) ** j).num
    return images


class _Interpreter:
    """One field's operations on canonical (num, den) pairs through the
    interpreter.  ``project`` takes an element of the fixed field of rho to its
    (num, den) in the base field (Q as 1-tuples, or E), ``embed`` the reverse,
    and ``base`` is the base field's own interpreter (None for Q)."""

    def __init__(self, reduction, galois, order, project, embed, base, reduction_den=1):
        self.reduction, self.galois = _linear_map(reduction), _linear_map(galois)
        self.order, self.project, self.embed = order, project, embed
        self.base, self.reduction_den = base, reduction_den

    def mul(self, x, y):
        num = _apply(self.reduction, _schoolbook(x[0], y[0]))
        return _lowest(num, x[1] * y[1] * self.reduction_den)

    def rho(self, x):
        return _apply(self.galois, x[0]), x[1]

    def conjugates(self, x):
        out = [self.rho(x)]
        while len(out) < self.order - 1:
            out.append(self.rho(out[-1]))
        return out

    def norm(self, x):
        for c in self.conjugates(x):
            x = self.mul(x, c)
        return self.project(x)

    def inverse(self, x):
        first, *rest = self.conjugates(x)
        for c in rest:
            first = self.mul(first, c)
        n = self.project(self.mul(x, first))
        if self.base is None:        # 1 / (n / d) in Q
            (u,), d = n
            n_inv = ((d if u > 0 else -d,), abs(u))
        else:
            n_inv = self.base.inverse(n)
        return self.mul(first, self.embed(n_inv))


_E_REF = _Interpreter(_powers((-1, 1)), [(1, 0), (1, -1)], 2,
                      project=lambda x: (x[0][:1], x[1]), embed=lambda q: ((q[0][0], 0), q[1]),
                      base=None)
_ZETA9_IMAGES = _powers((-1, 0, 0, -1, 0, 0))
_L_REF = _Interpreter(_ZETA9_IMAGES, [_ZETA9_IMAGES[4 * i % 9] for i in range(6)], 3,
                      project=lambda x: ((x[0][0] - x[0][3], x[0][3]), x[1]),
                      embed=lambda e: ((e[0][0] + e[0][1], 0, 0, e[0][1], 0, 0), e[1]),
                      base=_E_REF)
_L_TAU = _linear_map([_ZETA9_IMAGES[8 * i % 9] for i in range(6)])


def _l_constructor(coeffs):
    """CycloElem(coeffs) through the interpreter."""
    qs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(q.denominator for q in qs))
    c = [q.numerator * (den // q.denominator) for q in qs]
    for k in range(len(c) - 1, 8, -1):
        c[k - 9] += c.pop()
    return _lowest(_apply(_linear_map(_ZETA9_IMAGES), c + [0] * (11 - len(c))), den)


def _cubic_ref(b):
    return _Interpreter(
        _theta_map(17, lambda k: b * b.den if k >= 3 else QuadElem(b.den)),
        _theta_map(9, lambda k: ZETA3_E ** k), 3,
        project=lambda x: (x[0][:2], x[1]), embed=lambda e: (e[0] + (0,) * 7, e[1]),
        base=_E_REF, reduction_den=b.den)


# a radicand whose numerator has more decimal digits than str(int) allows
_HUGE_B = QuadElem(Fraction(10 ** max(sys.get_int_max_str_digits(), 4300) + 7, 3), 2)
KERNEL_FIELDS = {   # field -> (an element of it, its interpreter, the live slots)
    "E": (QuadElem(1), _E_REF, range(2)),
    "L": (CycloElem([1]), _L_REF, range(6)),
    "E(theta), b=2*zeta3": (CubicExtElem.scalar(1, RADICANDS["E(theta)"]),
                            _cubic_ref(RADICANDS["E(theta)"]), range(6)),
    "E(theta), huge b": (CubicExtElem.scalar(1, _HUGE_B), _cubic_ref(_HUGE_B), range(6)),
}
_BIG = 2 ** 200


def _big_elements(field):
    one, _, live = KERNEL_FIELDS[field]
    n = len(one.num)

    def build(drawn):
        nums, den = drawn
        num = [0] * n
        for s, c in zip(live, nums):
            num[s] = c
        return one._new(*_lowest(tuple(num), den))
    return st.tuples(st.lists(st.integers(-_BIG, _BIG), min_size=len(live), max_size=len(live)),
                     st.integers(1, _BIG)).map(build)


def _pair(x):
    """(num, den) of a field element, or of a rational as a 1-tuple.  E(theta)
    holds theta^k w^j at slot 2k + j, the interpreter at slot 3k + j with
    slot 3k + 2 empty, so its numerators are spread out to nine here."""
    if isinstance(x, Fraction):
        return (x.numerator,), x.denominator
    if isinstance(x, CubicExtElem):
        return tuple(c for k in (0, 2, 4) for c in (*x.num[k:k + 2], 0)), x.den
    return x.num, x.den


@pytest.mark.parametrize("field", KERNEL_FIELDS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_kernels_match_the_interpreter(field, data):
    x, y = data.draw(_big_elements(field)), data.draw(_big_elements(field))
    ref = KERNEL_FIELDS[field][1]
    X, Y = _pair(x), _pair(y)
    assert _pair(x * y) == ref.mul(X, Y)
    assert _pair(x.rho()) == ref.rho(X)
    assert _pair(x.norm()) == ref.norm(X)
    if x:
        assert _pair(x.inverse()) == ref.inverse(X)
    if field == "L":
        assert _pair(galois_tau(x)) == (_apply(_L_TAU, X[0]), X[1])
        coeffs = data.draw(st.lists(st.fractions(min_value=-_BIG, max_value=_BIG,
                                                 max_denominator=_BIG), max_size=12))
        assert _pair(CycloElem(coeffs)) == _l_constructor(coeffs)


def test_huge_radicand_is_past_the_str_limit():
    assert _HUGE_B.num[0] >= 10 ** sys.get_int_max_str_digits()


def test_huge_radicand_messages_do_not_format_the_value():
    # the reprs write such ints in hex and read back; the errors name no value
    x = CubicExtElem.scalar(1, _HUGE_B)
    for e in (x, _HUGE_B, CubicExtElem(0, 1, b=_HUGE_B), x.coeffs[0]):
        assert eval(repr(e), {"CubicExtElem": CubicExtElem, "QuadElem": QuadElem,
                              "Fraction": Fraction}) == e
    assert repr(QuadElem(Fraction(1, 2), 3)) == "QuadElem(Fraction(1, 2), Fraction(3, 1))"
    with pytest.raises(ValueError, match=r"^CubicExtElem element does not lie in Q\(sqrt\(-3\)\)$"):
        CubicExtElem(0, 1, b=_HUGE_B)._to_base()


@pytest.mark.parametrize("field", KERNEL_FIELDS)
def test_kernels_are_named_and_hold_no_literal(field):
    """Each kernel is compiled under a file name that names its field and map,
    and binds every coefficient as a name: its code holds no constant."""
    cls = type(KERNEL_FIELDS[field][0])
    prefix = field.partition(",")[0]
    maps = {"product": cls._product, "rho": cls._galois, "times_w": cls._times_w}
    if cls is CycloElem:
        maps.update(tau=cls._tau, reduce=cls._reduce)
    for name, kernel in maps.items():
        assert kernel.__code__.co_filename == f"<numberfield {prefix}.{name}>"
        assert kernel.__name__ == name
        assert set(kernel.__code__.co_consts) <= {None}


# ---------------------------------------------------------------------------
# Galois actions
# ---------------------------------------------------------------------------

def test_rho_tau_on_generators():
    z = CycloElem.zeta9(1)
    assert galois_rho(z) == CycloElem.zeta9(4)
    assert galois_tau(z) == CycloElem.zeta9(8)
    sqrt_m3 = embed_E_in_L(quad_from_sqrt3_basis(0, 1))
    assert galois_tau(sqrt_m3) == -sqrt_m3
    assert galois_rho(sqrt_m3) == sqrt_m3


def test_action_orders_and_commutation():
    rng = random.Random(1)
    for _ in range(100):
        x = random_cyclo(rng)
        assert galois_rho(galois_rho(galois_rho(x))) == x
        assert galois_tau(galois_tau(x)) == x
        assert galois_tau(galois_rho(x)) == galois_rho(galois_tau(x))


def test_rho_fixes_E():
    rng = random.Random(2)
    for _ in range(50):
        e = QuadElem(Fraction(rng.randrange(-9, 10)), Fraction(rng.randrange(-9, 10)))
        le = embed_E_in_L(e)
        assert galois_rho(le) == le
        assert project_to_E(le) == e


# ---------------------------------------------------------------------------
# Relative norm and trace
# ---------------------------------------------------------------------------

def test_norm_trace_values():
    one = CycloElem([1])
    n, t = norm_trace_L_over_E(one)
    assert n == QuadElem(1) and t == QuadElem(3)
    assert embed_E_in_L(norm_L_over_E(CycloElem.zeta9(1))) == CycloElem.zeta9(3)


def test_norm_lands_in_E_and_multiplicative():
    rng = random.Random(3)
    for _ in range(50):
        x, y = random_cyclo(rng), random_cyclo(rng)
        assert is_in_E(embed_E_in_L(norm_L_over_E(x)))
        assert norm_L_over_E(x * y) == norm_L_over_E(x) * norm_L_over_E(y)
        assert trace_L_over_E(x + y) == trace_L_over_E(x) + trace_L_over_E(y)


# ---------------------------------------------------------------------------
# Cubic extension E(theta)
# ---------------------------------------------------------------------------

def test_cubic_reduction_and_norm():
    b = QuadElem(2) * ZETA3_E
    theta = CubicExtElem(QuadElem(0), QuadElem(1), QuadElem(0), b=b)
    assert theta * theta * theta == CubicExtElem.scalar(b, b)
    assert cubic_norm(theta) == b
    assert cubic_trace(theta) == QuadElem(0)
    assert cubic_rho(cubic_rho(cubic_rho(theta))) == theta
    assert copy.deepcopy(theta) == pickle.loads(pickle.dumps(theta)) == theta


def test_mixing_radicands_raises():
    x = CubicExtElem(1, 1, b=QuadElem(2) * ZETA3_E)
    y = CubicExtElem(1, 1, b=QuadElem(2))
    for op in (operator.add, operator.mul):
        with pytest.raises(ValueError, match="different radicands"):
            op(x, y)
    # two values of one family are unequal, not an error
    assert (x == y) is False and (x != y) is True
    assert len({CubicExtElem(1, b=2), CubicExtElem(1, b=3)}) == 2


# ---------------------------------------------------------------------------
# Splitting and the local obstruction
# ---------------------------------------------------------------------------

def test_splitting_examples():
    assert splitting_data(3) == ("ramified", None)
    assert splitting_data(7) == ("split", 3)
    assert splitting_data(5) == ("inert", 6)
    with pytest.raises(ValueError):
        splitting_data(6)


def test_splitting_against_root_count():
    """Every prime below 2,000, 2 and 3 included: the kind is read off the
    number of roots of w^2 - w + 1 mod p, the residue degree is the least k
    with p^k = 1 mod 9."""
    kinds = {0: "inert", 1: "ramified", 2: "split"}
    for p in filter(is_prime, range(2000)):
        roots = sum((x * x - x + 1) % p == 0 for x in range(p))
        degree = None if p == 3 else next(k for k in range(1, 7) if pow(p, k, 9) == 1)
        assert splitting_data(p) == (kinds[roots], degree), p


def test_hensel_lift():
    for p in (7, 13, 19):
        for prec in (2, 5, 8):
            r = hensel_sqrt_minus3(p, prec)
            assert (r * r + 3) % p ** prec == 0


def test_obstruction_example():
    a = quad_from_sqrt3_basis(2, 1) / quad_from_sqrt3_basis(2, -1)
    rep = local_norm_obstruction(a, 7)
    assert set(rep.valuations) == {1, -1}
    assert rep.valuations_mod_3 == frozenset({1, 2})
    assert rep.obstructed
    rep2 = local_norm_obstruction(a * a, 7)
    assert set(rep2.valuations) == {2, -2}
    assert rep2.valuations_mod_3 == frozenset({1, 2})
    assert rep2.obstructed
    assert not local_norm_obstruction(QuadElem(1), 7).obstructed


def test_obstruction_inapplicable_prime():
    with pytest.raises(ValueError):
        local_norm_obstruction(QuadElem(1), 5)   # inert, not split


# split primes of residue degree 3 in L below 200: where the obstruction applies
_WITNESSES = [p for p in range(5, 200) if is_prime(p) and splitting_data(p) == ("split", 3)]
_REFERENCE_PRECISION = 130   # above every valuation the strategy below can reach


def _v(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _clear_denominators(a):
    """(u, v, d) with a = (u + v*w) / d."""
    x, y = a.coeffs
    d = math.lcm(x.denominator, y.denominator)
    return int(x * d), int(y * d), d


def _reference_valuations(a, p):
    """Valuations of both p-adic images of a, from residues mod p^130."""
    mod = p ** _REFERENCE_PRECISION
    r = hensel_sqrt_minus3(p, _REFERENCE_PRECISION)
    u, v, d = _clear_denominators(a)
    vals = []
    for root in (r, -r % mod):
        image = (u + v * (1 + root) * pow(2, -1, mod)) % mod
        assert image, "valuation at or above the reference precision"
        vals.append(_v(image, p) - _v(d, p))
    return tuple(vals)


_coords = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=1000)
_nonzero_elements = st.one_of(
    st.tuples(_coords, _coords).filter(any).map(lambda xy: QuadElem(*xy)),
    st.integers(0, 61).map(lambda k: QuadElem(7 ** k)),   # v_7(a^2) up to 122
)


@settings(max_examples=60, deadline=None)
@given(_nonzero_elements)
def test_obstruction_valuation_law(a):
    """v1 + v2 = v_p(u^2 + uv + v^2) - 2 v_p(d), and both valuations are exact."""
    u, v, d = _clear_denominators(a)
    for p in _WITNESSES:
        vals = local_norm_obstruction(a, p).valuations
        assert sum(vals) == _v(u * u + u * v + v * v, p) - 2 * _v(d, p)
        assert vals == _reference_valuations(a, p)


def test_obstruction_high_valuation():
    rep = local_norm_obstruction(QuadElem(7 ** 61), 7)
    assert rep.valuations == (61, 61) and rep.valuations_mod_3 == frozenset({1})
    assert local_norm_obstruction(QuadElem(7 ** 122), 7).valuations_mod_3 == frozenset({2})


def test_is_prime():
    assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
