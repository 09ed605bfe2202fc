"""Degree-3 cyclic algebras over Q(sqrt(-3)) with involutions of the second kind.

The algebra is D = L + L*z + L*z^2 with z^3 = a and z*l = rho(l)*z.  Two
flavors are supported:

* kind "galois": L = Q(zeta_9), which is C6-Galois over Q; the involution is
  the tau-conjugate-transpose on the regular representation, so alpha(d) is
  tau of column 0 of d's matrix image.
* kind "nongalois": L = E(theta) with theta^3 = b and a = tau(b); the
  involution swaps theta and z.

An element is one of numberfield's exact vectors: the 18 numerators of l0,
l1 and l2 in turn over one positive denominator, in lowest terms.  Each
algebra value (kind, a, b) has its own element class, made once, which holds
D's product, compiled by numberfield's one generator of forms from the
structure tensor (the rows of the matrix image of the Q-basis), the product
by w, read from it, the involution, compiled from tau of column 0 of the
same images (Galois kind) or the theta/z swap, and the reduced trace, norm
and adjoint, a linear map, a cubic form with values in E and a quadratic
form with values in D on the numerators.  The inverse is the reduced
adjoint over the reduced norm, scaled once by an element of E.  The L-triple
``l`` and the matrix image are read in L; the determinant forms the image's
cofactors with L's compiled product on its numerators over one denominator,
normalising once.  Ints, Fractions and elements of E enter D as scalars,
acting by the product by w; elements of two algebras do not mix
(RationalVector's one rule).
"""

from __future__ import annotations

import cmath
import functools
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .numberfield import (
    CubicExtElem,
    CycloElem,
    ObstructionReport,
    QuadElem,
    SQRT_M3,
    ZETA3_E,
    RationalVector,
    _bilinear_kernel,
    _form_kernel,
    _join,
    _linear_kernel,
    _lowest_terms,
    _times_w_kernel,
    galois_actions_commute,
    galois_rho,
    is_prime,
    local_norm_obstruction,
    quad_from_sqrt3_basis,
    splitting_data,
)

GALOIS = "galois"
NONGALOIS = "nongalois"
WITNESS_LIMIT = 200     # the condition report searches witness primes below it
ARCHIMEDEAN_TOLERANCE = 1e-10   # absolute, for every check of complex points


@dataclass(frozen=True)
class AlgebraParams:
    """Structure data (kind, a, and for the non-Galois kind the radicand b).

    ``one`` is the unit of the coefficient field L: Q(zeta_9) for the Galois
    kind, E(theta) for the other.  The operations of L come from its elements.
    ``a_l`` is the structure constant a embedded in L.
    """

    kind: str
    a: QuadElem
    b: Optional[QuadElem] = None
    one: CycloElem | CubicExtElem = field(init=False, repr=False, compare=False)
    a_l: CycloElem | CubicExtElem = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in (GALOIS, NONGALOIS):
            raise ValueError(f"unknown algebra kind {self.kind!r}")
        if not self.a:
            raise ValueError("structure constant a must be a unit of E")
        if self.kind == NONGALOIS:
            if self.b is None:
                raise ValueError("non-Galois kind needs the radicand b")
            if self.a != self.b.conj():
                raise ValueError("non-Galois kind requires a = tau(b)")
            one = CubicExtElem.scalar(1, self.b)
        elif self.b is not None:
            raise ValueError("the Galois kind takes no radicand b")
        else:
            one = CycloElem([1])
        object.__setattr__(self, "one", one)
        object.__setattr__(self, "a_l", one.from_E(self.a))

    def times_z(self, m) -> tuple:
        """Triple of z (m0 + m1 z + m2 z^2) = a rho(m2) + rho(m0) z + rho(m1) z^2: the
        one place where D's relations z l = rho(l) z and z^3 = a are written."""
        m0, m1, m2 = m
        return (self.a_l * m2.rho(), m0.rho(), m1.rho())


def example_galois_params() -> AlgebraParams:
    """Built-in Galois-kind data: a = (2 + sqrt(-3)) / (2 - sqrt(-3))."""
    a = quad_from_sqrt3_basis(2, 1) / quad_from_sqrt3_basis(2, -1)
    return AlgebraParams(GALOIS, a)


def example_nongalois_params() -> AlgebraParams:
    """Built-in non-Galois-kind data: b = 2*zeta_3, a = tau(b)."""
    b = QuadElem(2) * ZETA3_E
    return AlgebraParams(NONGALOIS, b.conj(), b)


class AlgebraElem(RationalVector, mixing="elements belong to different algebras"):
    """Element l0 + l1*z + l2*z^2 of the cyclic algebra.

    ``num`` holds the 18 numerators of l0, l1, l2 in turn over the positive
    ``den``, with gcd(den, *num) = 1.  The coordinates given may be elements
    of the algebra's L, or ints, Fractions and QuadElems, which are embedded.
    Each algebra value (kind, a, b) has its own subclass, made by
    _algebra_class, which holds ``params`` and the compiled kernels.  Only
    to_matrix (read by matrix_det's check and matrix_at_infinity), copy and
    pickle, and the repr build the L-triple ``l``.  A scalar hashes as its
    value in E.
    """

    __slots__ = ("__dict__",)

    def __new__(cls, params: AlgebraParams, *coords, **named):
        return object.__new__(_algebra_class(params))

    def __init__(self, params: AlgebraParams, l0, l1=None, l2=None):
        one = params.one
        triple = []
        for c in (l0, l1, l2):
            if c is None or isinstance(c, (int, Fraction, QuadElem)):
                c = one.from_E(0 if c is None else c)
            elif type(c) is not type(one):
                raise ValueError(f"a {type(c).__name__} is not an element of the algebra's L")
            triple.append(c)
        self.num, self.den = _join(triple)   # in lowest terms, as each c is
        self.l = tuple(triple)

    @functools.cached_property
    def l(self) -> tuple:
        """The L-triple (l0, l1, l2), built on first read and kept."""
        new = type(self.params.one)._new
        return tuple(new(*_lowest_terms(self.num[i:i + 6], self.den)) for i in (0, 6, 12))

    @classmethod
    def scalar(cls, params: AlgebraParams, e) -> "AlgebraElem":
        return _algebra_class(params).from_E(e)

    @classmethod
    def gen_z(cls, params: AlgebraParams) -> "AlgebraElem":
        return cls(params, 0, params.one)

    @classmethod
    def from_E(cls, e) -> "AlgebraElem":    # the scalar embedding of E, as l0
        c = cls.params.one.from_E(e)
        return cls._new(c.num + (0,) * 12, c.den)

    def _in_E(self, num):    # the scalars of D are l0 in E
        return None if any(num[6:]) else self.params.one._in_E(num[:6])

    def __reduce__(self):    # copy and pickle rebuild it in its algebra's subclass
        return AlgebraElem, (self.params, *self.l)

    def __repr__(self):
        return f"AlgebraElem({self.l[0]!r}, {self.l[1]!r}, {self.l[2]!r})"


def to_matrix(d: AlgebraElem) -> List[list]:
    """Regular-representation image A(l0, l1, l2) in M_3(L): the rows d, z d, z^2 d."""
    r1 = d.params.times_z(d.l)
    return [list(d.l), list(r1), list(d.params.times_z(r1))]


def matrix_mul(m1: Sequence, m2: Sequence) -> List[list]:
    return [
        [sum(m1[i][k] * m2[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]


def matrix_det(m: Sequence):
    """det(m), expanded along column 0 in integers.  The nine entries, in L,
    are joined over their lcm den once, entry (i, j) being the numerator
    tuple e[3 i + j]; each minor and each term is formed by L's compiled
    product on them, so the sum lies over den^3 pd^2, pd being L's
    _product_den, and is normalised once."""
    num, den = _join([x for row in m for x in row])
    e = [num[i:i + 6] for i in range(0, 54, 6)]
    x = m[0][0]
    mul = x._product

    def minor(i, j, k, l):    # e_i e_j - e_k e_l
        return tuple(a - b for a, b in zip(mul(e[i], e[j]), mul(e[k], e[l])))

    cofactors = (minor(4, 8, 5, 7), minor(2, 7, 1, 8), minor(1, 5, 2, 4))
    terms = [mul(e[3 * i], c) for i, c in enumerate(cofactors)]
    return x._canonical(tuple(map(sum, zip(*terms))), den ** 3 * x._product_den ** 2)


def reduced_norm(d: AlgebraElem) -> QuadElem:
    """Nrd(d), from the compiled cubic form on d's numerators."""
    return QuadElem._new(*_lowest_terms(d._nrd(d.num), d.den ** 3 * d._nrd_den))


def reduced_trace(d: AlgebraElem) -> QuadElem:
    """Trd(d) = Tr_{L/E}(l0), from the compiled linear map on d's numerators."""
    return QuadElem._new(*_lowest_terms(d._trd(d.num), d.den * d._trd_den))


def involution(d: AlgebraElem) -> AlgebraElem:
    """The involution of the second kind, per the algebra kind."""
    return d._canonical(d._alpha(d.num), d.den * d._alpha_den)


def _involution_formula(p: AlgebraParams, l: tuple) -> tuple:
    """The non-Galois involution on an L-triple: transpose the theta/z
    coefficient grid and conjugate, so the theta^k coefficient of l_j becomes
    the theta^j one of entry k."""
    grid = zip(*(lj.coeffs for lj in l))
    return tuple(CubicExtElem(*(e.conj() for e in col), b=p.b) for col in grid)


@functools.cache
def _algebra_class(params: AlgebraParams) -> type:
    """The subclass of AlgebraElem for one algebra value (kind, a, b), made
    once, with D's product, product by w, involution, reduced trace, reduced
    norm and reduced adjoint compiled once under the file names
    ``<algebra kind.product>``, ``<algebra kind.times_w>``,
    ``<algebra kind.alpha>``, ``<algebra kind.trd>``, ``<algebra kind.nrd>``
    and ``<algebra kind.adj>``.  num(d e) is _product(num(d), num(e)) over
    den(d) den(e) _product_den, num(w d) is _times_w(num(d)) over den(d),
    num(alpha(d)) is _alpha(num(d)) over den(d) _alpha_den, Trd(d) is
    _trd(num(d)) over den(d) _trd_den, Nrd(d) is _nrd(num(d)) over
    den(d)^3 _nrd_den, and num(d^#) is _adj(num(d)) over den(d)^2 _adj_den.

    D's Q-basis is c z^k for c in L's Q-basis: the unit vector at slot
    6k + s, where s is c's slot among L's six numerators.  The product
    c z^k e is c times row k of e's matrix image, z^k e, so the structure
    tensor is read from the rows of the basis elements' images, and the
    Galois alpha, whose image is the tau-conjugate transpose, from tau of
    their columns 0.  Nrd and x^# are built in integers from the structure
    tensor, the traces of the basis and the product by w.
    """
    cls = type("AlgebraElem", (AlgebraElem,), {"__slots__": (), "params": params})
    kind = params.kind
    basis = [cls._new(tuple(int(i == s) for i in range(18))) for s in range(18)]
    rows = [to_matrix(e) for e in basis]
    pairs = [(i, j) for i in range(18) for j in range(18)]
    num, pd = _join([basis[i].l[i // 6] * x if x else x
                     for i, j in pairs for x in rows[j][i // 6]])
    products = {ij: num[18 * m:18 * m + 18] for m, ij in enumerate(pairs)}
    cls._product_den = pd
    cls._product = staticmethod(_bilinear_kernel(
        f"algebra {kind}.product", 18, lambda i, j: products[i, j]))
    cls._times_w = staticmethod(_times_w_kernel(
        f"algebra {kind}.times_w", cls._product, cls.from_E(QuadElem(0, 1)).num, pd))
    if kind == GALOIS:
        images = [[row[0].tau() for row in m] for m in rows]
    else:
        images = [_involution_formula(params, e.l) for e in basis]
    num, cls._alpha_den = _join([x for image in images for x in image])
    cls._alpha = staticmethod(_linear_kernel(
        f"algebra {kind}.alpha", [num[18 * i:18 * i + 18] for i in range(18)]))
    num, td = _join([e.l[0].trace() for e in basis])
    traces = [num[2 * i:2 * i + 2] for i in range(18)]
    cls._trd_den = td
    cls._trd = staticmethod(_linear_kernel(f"algebra {kind}.trd", traces))
    pair_traces = _pair_traces(products, traces)
    terms, cls._nrd_den = _reduced_norm_terms(products, pd, traces, td, pair_traces)
    cls._nrd = staticmethod(_form_kernel(f"algebra {kind}.nrd", "v", 18, terms, 2))
    terms, cls._adj_den = _adjugate_terms(products, pd, traces, td, pair_traces,
                                          cls._times_w, cls.from_E(1).num)
    cls._adj = staticmethod(_form_kernel(f"algebra {kind}.adj", "v", 18, terms, 18))
    return cls


def _pair_traces(products: dict, traces: list) -> dict:
    """T_jk = Trd(e_j e_k) = sum_m P_jkm T_m, over pd td, for each ordered
    pair (j, k) where it is nonzero: P is the structure tensor
    (``products`` over pd) and T_m = Trd(e_m) (``traces`` over td)."""
    t = {m: v for m, v in enumerate(traces) if any(v)}
    out = {}
    for jk, row in products.items():
        v = [sum(c * t[m][s] for m, c in enumerate(row) if c and m in t) for s in (0, 1)]
        if any(v):
            out[jk] = v
    return out


def _reduced_norm_terms(products: dict, pd: int, traces: list, td: int,
                        pair_traces: dict) -> tuple:
    """(terms, den): Nrd on D's Q-basis e_i as the cubic form, the sum of
    x_i x_j x_k c / den over the (monomial, c) pairs ``terms``, c in E, from
    the structure tensor P (``products`` over pd), T_i = Trd(e_i)
    (``traces`` over td) and T_jk (``pair_traces``, _pair_traces).
    Nrd = (t1^3 - 3 t1 t2 + 2 t3)/6 with tk = Trd(x^k), so the ordered triple
    (i, j, k) adds (T_i T_j T_k - 3 T_i T_jk + 2 T_ijk)/6 to its monomial,
    where T_ijk = sum_m P_ijm T_mk.  Only the nonzero T, P and T_jk are
    visited, in integers over 6 pd^2 td^3."""
    mul = QuadElem._product     # E's product on numerator pairs
    acc = {}    # (i, j, k), sorted -> the numerators of its coefficient

    def add(triple, c, v):
        img = acc.setdefault(tuple(sorted(triple)), [0, 0])
        img[0] += c * v[0]
        img[1] += c * v[1]

    t = {i: v for i, v in enumerate(traces) if any(v)}
    support = {ij: [(m, c) for m, c in enumerate(row) if c] for ij, row in products.items()}
    t2 = {m: {} for m in range(len(traces))}    # T_mk over pd td, by m
    for (m, k), v in pair_traces.items():
        t2[m][k] = v
    for i, j, k in itertools.product(t, repeat=3):
        add((i, j, k), pd * pd, mul(mul(t[i], t[j]), t[k]))
    for i in t:
        for j in t2:
            for k, v in t2[j].items():
                add((i, j, k), -3 * pd * td, mul(t[i], v))
    for (i, j), cs in support.items():
        for m, c in cs:
            for k, v in t2[m].items():
                add((i, j, k), 2 * td * td * c, v)
    num, den = _lowest_terms(tuple(c for img in acc.values() for c in img), 6 * pd ** 2 * td ** 3)
    return [(f"v{i} * v{j} * v{k}", num[2 * m:2 * m + 2]) for m, (i, j, k) in enumerate(acc)], den


def _adjugate_terms(products: dict, pd: int, traces: list, td: int, pair_traces: dict,
                    times_w, one: tuple) -> tuple:
    """(terms, den): the reduced adjoint x^# = x^2 - t1 x + (t1^2 - t2)/2,
    with x x^# = x^# x = Nrd(x) (Knus-Merkurjev-Rost-Tignol, The Book of
    Involutions, section 1), on D's Q-basis e_i as the quadratic form with
    values in D: the sum of x_i x_j c / den over the (monomial, c) pairs
    ``terms``, c a numerator vector, from the structure tensor P
    (``products`` over pd), T_i = Trd(e_i) (``traces`` over td) and T_ij
    (``pair_traces``).  The ordered pair (i, j) adds
    P_ij - T_i e_j + (T_i T_j - T_ij)/2 to its monomial; c' + c'' w in E acts
    on a vector v as c' v + c'' W(v), W being ``times_w``, and enters D as
    that action on ``one``.  In integers over 2 pd td^2; the monomials whose
    coefficient is zero are left out."""
    n = len(one)
    mul = QuadElem._product
    zero = (0,) * n
    acc = {(i, j): [2 * td * td * (x + y) for x, y in zip(p, products[j, i] if i < j else zero)]
           for (i, j), p in products.items() if i <= j}    # x^2 on the monomials i <= j

    def add(i, j, c, v):    # c v, v a numerator vector
        if c:
            img = acc[min(i, j), max(i, j)]
            for s, x in enumerate(v):
                if x:
                    img[s] += c * x

    t = {i: v for i, v in enumerate(traces) if any(v)}
    units = [tuple(int(i == s) for i in range(n)) for s in range(n)]
    w_units, w_one = [times_w(u) for u in units], times_w(one)
    for i, (t0, t1) in t.items():    # - T_i e_j
        for j in range(n):
            add(i, j, -2 * pd * td * t0, units[j])
            add(i, j, -2 * pd * td * t1, w_units[j])
    halves = {(i, j): [pd * x for x in mul(t[i], t[j])] for i in t for j in t}
    for ij, v in pair_traces.items():
        h = halves.setdefault(ij, [0, 0])
        h[0] -= td * v[0]
        h[1] -= td * v[1]
    for (i, j), (h0, h1) in halves.items():    # (T_i T_j - T_ij)/2, times 2 pd td^2
        add(i, j, h0, one)
        add(i, j, h1, w_one)
    num, den = _lowest_terms(tuple(c for img in acc.values() for c in img), 2 * pd * td * td)
    return [(f"v{i} * v{j}", num[n * m:n * m + n]) for m, (i, j) in enumerate(acc)
            if any(num[n * m:n * m + n])], den


def involution_failures(params: AlgebraParams, samples: int, rng: random.Random) -> dict:
    """Failure counts of the involution laws on seeded random elements d_i.

    alpha_squared_is_identity: alpha(alpha(d)) = d.  restricts_to_tau_on_E:
    checked on the scalars (i % 11 - 5) + (i % 7 - 3) w.  anti_automorphism:
    alpha(d e) = alpha(e) alpha(d), with e the next sample cyclically.
    norm_conjugation: Nrd(alpha(d)) = tau(Nrd(d)).  norm_equals_det: det of the
    matrix image = Nrd(d).
    """
    failures = dict.fromkeys(("alpha_squared_is_identity", "restricts_to_tau_on_E",
                              "anti_automorphism", "norm_conjugation", "norm_equals_det"), 0)
    elems = [random_element(params, rng) for _ in range(samples)]
    images = [involution(d) for d in elems]
    for i, (d, ad) in enumerate(zip(elems, images)):
        j = (i + 1) % samples
        nd = reduced_norm(d)
        s = QuadElem(i % 11 - 5, i % 7 - 3)
        failures["alpha_squared_is_identity"] += involution(ad) != d
        failures["restricts_to_tau_on_E"] += involution(d.from_E(s)) != s.conj()
        failures["anti_automorphism"] += involution(d * elems[j]) != images[j] * ad
        failures["norm_conjugation"] += reduced_norm(ad) != nd.conj()
        failures["norm_equals_det"] += matrix_det(to_matrix(d)) != nd
    return failures


def inverse(d: AlgebraElem) -> AlgebraElem:
    """d^-1 = d^# / Nrd(d), d^# = d^2 - t1 d + (t1^2 - t2)/2 (tk = Trd(d^k))
    being the reduced adjoint, d d^# = d^# d = Nrd(d): the compiled form
    _adj on d's numerators, over den^2 _adj_den, scaled by
    Nrd(d)^-1 = tau(n)/N(n) in E and normalised once."""
    n = reduced_norm(d)
    if not n:
        raise ZeroDivisionError("element has reduced norm zero")
    return d._scaled(d._adj(d.num), d.den ** 2 * d._adj_den, n.inverse())


def is_special_unitary(d: AlgebraElem) -> bool:
    """True iff alpha(d) * d = 1 and the reduced norm is 1, exactly."""
    return involution(d) * d == 1 and reduced_norm(d) == 1


# --------------------------------------------------------------------------
# Condition report for the division-algebra-with-involution construction.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionReport:
    """Verdicts for the three construction conditions of the Galois kind.

    division_condition: a and a^2 both fail to be relative norms (None means
    no witness prime settled it either way).
    unit_norm_condition: a * tau(a) = 1, exactly.
    commuting_condition: the order-2 and order-3 Galois actions commute.
    """

    division_condition: Optional[bool]
    unit_norm_condition: bool
    commuting_condition: bool
    witness_prime_a: Optional[int] = None
    witness_prime_a2: Optional[int] = None
    residues_a: Optional[frozenset] = None
    residues_a2: Optional[frozenset] = None
    searched_below: Optional[int] = None
    # a's obstruction record at witness_prime_a: the fields above are read from it
    obstruction: Optional[ObstructionReport] = field(default=None, repr=False)


def _obvious_norm(a: QuadElem) -> bool:
    """Detect elements that are trivially relative norms from L."""
    # norms of the torsion units +-zeta_9^j are +-zeta_3^j
    zeta3_powers = [QuadElem(1), ZETA3_E, ZETA3_E * ZETA3_E]
    for u in zeta3_powers:
        if a == u or a == -u:
            return True
    # rational cubes are norms of rationals; in lowest terms both parts are cubes
    return a.is_rational and _is_cube(a.x.numerator) and _is_cube(a.x.denominator)


def _is_cube(n: int) -> bool:
    """Whether the integer n is a perfect cube, decided in integer arithmetic."""
    n = abs(n)
    r = 1 << -(-n.bit_length() // 3)   # 2^ceil(bits/3) exceeds the cube root
    while r ** 3 > n:
        r = (2 * r + n // (r * r)) // 3   # Newton steps stay >= floor(cbrt(n))
    return r ** 3 == n


def witness_primes(limit: int):
    """Primes below limit at which the valuation obstruction test applies,
    ascending and generated lazily: the condition report stops at the first
    primes that settle it."""
    return (p for p in range(5, limit) if is_prime(p) and splitting_data(p) == ("split", 3))


def check_theorem_conditions(params: AlgebraParams) -> ConditionReport:
    """Verify the three conditions making (D, alpha) a division algebra with
    involution of the second kind and compact archimedean unitary group,
    searching witness primes below WITNESS_LIMIT."""
    if params.kind != GALOIS:
        raise ValueError("condition report applies to the Galois kind only")
    a = params.a
    unit_norm = a * a.conj() == QuadElem(1)
    commuting = galois_actions_commute()
    # not symmetric: a = 3 sqrt(-3) is caught only through a^2 = -27
    if _obvious_norm(a) or _obvious_norm(a * a):
        return ConditionReport(False, unit_norm, commuting, searched_below=WITNESS_LIMIT)
    reps = (local_norm_obstruction(a, p) for p in witness_primes(WITNESS_LIMIT))
    obs = next((rep for rep in reps if rep.obstructed), None)
    if obs is None:
        return ConditionReport(None, unit_norm, commuting, searched_below=WITNESS_LIMIT)
    # v(a^2) = 2 v(a) exactly and 2 is invertible mod 3, so a^2 is obstructed
    # at the same first prime, with the residues doubled
    return ConditionReport(
        division_condition=True,
        unit_norm_condition=unit_norm,
        commuting_condition=commuting,
        witness_prime_a=obs.prime,
        witness_prime_a2=obs.prime,
        residues_a=obs.valuations_mod_3,
        residues_a2=frozenset(2 * r % 3 for r in obs.valuations_mod_3),
        searched_below=WITNESS_LIMIT,
        obstruction=obs,
    )


# --------------------------------------------------------------------------
# Random sampling: generic elements, and exactly special-unitary elements.
# --------------------------------------------------------------------------


def _random_fraction(rng: random.Random, span: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, 2))


def random_l_element(params: AlgebraParams, rng: random.Random):
    """Random element of L with six random rational coordinates (L has degree 6 over Q)."""
    return params.one.from_rationals([_random_fraction(rng) for _ in range(6)])


def random_element(params: AlgebraParams, rng: random.Random) -> AlgebraElem:
    return AlgebraElem(params, *(random_l_element(params, rng) for _ in range(3)))


def random_hermitian(params: AlgebraParams, rng: random.Random) -> AlgebraElem:
    """Random alpha-fixed element of the Galois-kind algebra: d + alpha(d) for
    d = l0/2 + l1 z, with l0 = q0 + q1 eta1 + q2 eta2 in the real subfield
    that alpha fixes (eta1 = z + z^8 = z - z^2 - z^5 and eta2 = z^2 + z^7 =
    -z + z^2 - z^4 on the power basis of z = zeta_9) and l1 as
    random_l_element draws it.  Each rational q is drawn as _random_fraction
    draws it, with the same calls, and d is built as 18 numerators over 4
    straight away: 2q = randint(-3, 3) * (2 // randint(1, 2)) is an integer."""
    if params.kind != GALOIS:
        raise ValueError("hermitian sampling implemented for the Galois kind")
    r0, r1, r2, *r = (rng.randint(-3, 3) * (2 // rng.randint(1, 2)) for _ in range(9))
    num = (r0, r1 - r2, r2 - r1, 0, -r2, -r1, *(2 * x for x in r), *(0,) * 6)
    d = _algebra_class(params)._new(*_lowest_terms(num, 4))
    return d + involution(d)


def random_special_unitary(params: AlgebraParams, rng: random.Random) -> AlgebraElem:
    """Exact special-unitary element via a Cayley transform.

    For a skew element s (alpha(s) = -s) the Cayley transform
    x = (1 - s)(1 + s)^{-1} satisfies alpha(x) x = 1, and its reduced norm is
    tau(n)/n with n = N(1 + s).  Taking s = sqrt(-3) * (1 + mu*k) for a
    traceless hermitian k and mu = -S_k / N_k (S_k the middle coefficient of
    the characteristic polynomial of k) forces n rational, hence norm one.
    """
    if params.kind != GALOIS:
        raise ValueError("special-unitary sampling implemented for the Galois kind")
    for _ in range(100):
        k = random_hermitian(params, rng)
        tr = reduced_trace(k)
        if not tr.is_rational:
            raise ArithmeticError("hermitian trace must be rational")
        k = k - QuadElem(tr.x / 3)
        if not k:
            continue
        n_k = reduced_norm(k)
        tr_k2 = reduced_trace(k * k)
        if not (n_k.is_rational and tr_k2.is_rational) or n_k.x == 0:
            continue
        mu = -(-tr_k2.x / 2) / n_k.x  # -S_k / N_k with S_k = -Tr(k^2)/2
        s = SQRT_M3 * (1 + QuadElem(mu) * k)
        try:
            x = (1 - s) * inverse(1 + s)
        except ZeroDivisionError:    # N(1 + s) = 0
            continue
        if not is_special_unitary(x):
            raise ArithmeticError("Cayley transform failed the unitarity check")
        return x
    raise ArithmeticError("failed to sample a special unitary element")


# --------------------------------------------------------------------------
# Archimedean realization: L ⊗ R ≅ C^3, D ⊗ R ≅ M_3(C).
# --------------------------------------------------------------------------

_ZETA9_C_POWERS = tuple(cmath.exp(2j * cmath.pi / 9) ** i for i in range(6))


def _embed_c(l: CycloElem) -> complex:
    """Fixed complex embedding zeta_9 -> exp(2*pi*i/9): the sum of
    (c_i / den) zeta_9^i read from the numerators, each c_i / den an int
    true division, so correctly rounded, the float of Fraction(c_i, den)."""
    return sum(c / l.den * z for c, z in zip(l.num, _ZETA9_C_POWERS))


def realize_at_infinity(l: CycloElem) -> Tuple[complex, complex, complex]:
    """Image of l in C^3 via the three embeddings ordered by rho-powers."""
    r = galois_rho(l)
    return (_embed_c(l), _embed_c(r), _embed_c(galois_rho(r)))


def matrix_at_infinity(d: AlgebraElem):
    """Complex 3x3 image of d under the fixed embedding (Galois kind)."""
    import numpy as np

    if d.params.kind != GALOIS:
        raise ValueError("archimedean matrix realization needs the Galois kind")
    m = to_matrix(d)
    return np.array([[_embed_c(e) for e in row] for row in m], dtype=complex)


def torus_point(t: complex) -> Tuple[complex, complex, complex]:
    """The archimedean torus point (conj(t)/t, t, 1/conj(t))."""
    if t == 0:
        raise ValueError("torus parameter must be nonzero")
    tc = t.conjugate()
    return (tc / t, t, 1 / tc)


def triple_is_unitary_norm_one(triple: Sequence[complex]) -> bool:
    """Check norm 1 and alpha(x) x = 1, within ARCHIMEDEAN_TOLERANCE, for a
    point of C^3 under the split archimedean actions rho(t0,t1,t2) =
    (t1,t2,t0), tau(t0,t1,t2) = (conj t0, conj t2, conj t1)."""
    t0, t1, t2 = triple
    if t0 == 0 or t1 == 0 or t2 == 0:
        return False
    norm = t0 * t1 * t2
    tau = (t0.conjugate(), t2.conjugate(), t1.conjugate())
    prods = [tau[i] * triple[i] for i in range(3)]
    tol = ARCHIMEDEAN_TOLERANCE
    return abs(norm - 1) <= tol and all(abs(p - 1) <= tol for p in prods)


def verify_noncompact_torus(t: complex) -> bool:
    """True iff the torus point of t is special unitary in the split sense,
    within ARCHIMEDEAN_TOLERANCE."""
    return triple_is_unitary_norm_one(torus_point(t))
