"""Degree-3 cyclic algebras over Q(sqrt(-3)) with involutions of the second kind.

The algebra is D = L + L*z + L*z^2 with z^3 = a and z*l = rho(l)*z.  Two
flavors are supported:

* kind "galois": L = Q(zeta_9), which is C6-Galois over Q; the involution is
  the tau-conjugate-transpose on the regular representation.
* kind "nongalois": L = E(theta) with theta^3 = b and a = tau(b); the
  involution swaps theta and z.

Elements are stored as L-triples; the 3x3 matrix image is derived.
"""

from __future__ import annotations

import cmath
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
    galois_actions_commute,
    galois_rho,
    galois_tau,
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
    ``a_l`` and ``ta_l`` are the structure constant a and tau(a) embedded in L.
    """

    kind: str
    a: QuadElem
    b: Optional[QuadElem] = None
    one: CycloElem | CubicExtElem = field(init=False, repr=False, compare=False)
    a_l: CycloElem | CubicExtElem = field(init=False, repr=False, compare=False)
    ta_l: CycloElem | CubicExtElem = field(init=False, repr=False, compare=False)

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
        else:
            one = CycloElem([1])
        object.__setattr__(self, "one", one)
        object.__setattr__(self, "a_l", one.from_E(self.a))
        object.__setattr__(self, "ta_l", one.from_E(self.a.conj()))

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


class AlgebraElem:
    """Element l0 + l1*z + l2*z^2 of the cyclic algebra."""

    __slots__ = ("params", "l")

    def __init__(self, params: AlgebraParams, l0, l1=None, l2=None):
        self.params = params
        if l1 is None or l2 is None:
            z = params.one.from_E(0)
            l1, l2 = (z if c is None else c for c in (l1, l2))
        self.l = (l0, l1, l2)

    @classmethod
    def scalar(cls, params: AlgebraParams, e) -> "AlgebraElem":
        if isinstance(e, (int, Fraction, QuadElem)):
            e = params.one.from_E(e)
        return cls(params, e)

    @classmethod
    def gen_z(cls, params: AlgebraParams) -> "AlgebraElem":
        return cls(params, params.one.from_E(0), params.one)

    def _check(self, other: "AlgebraElem"):
        if self.params != other.params:
            raise ValueError("elements belong to different algebras")

    def __add__(self, other: "AlgebraElem"):
        self._check(other)
        return AlgebraElem(self.params, *(a + b for a, b in zip(self.l, other.l)))

    def __sub__(self, other: "AlgebraElem"):
        self._check(other)
        return AlgebraElem(self.params, *(a - b for a, b in zip(self.l, other.l)))

    def __neg__(self):
        return AlgebraElem(self.params, *(-a for a in self.l))

    def __mul__(self, other: "AlgebraElem"):
        self._check(other)
        # row k of A(e) is z^k e, so d e = sum of l_k (z^k e), column by column
        l0, l1, l2 = self.l
        cols = zip(*to_matrix(other))
        return AlgebraElem(self.params, *(l0 * c0 + l1 * c1 + l2 * c2 for c0, c1, c2 in cols))

    def __eq__(self, other):
        if isinstance(other, AlgebraElem):
            return self.params == other.params and self.l == other.l
        return NotImplemented

    def __hash__(self):
        return hash((self.params, self.l))

    def __bool__(self):
        return any(bool(c) for c in self.l)

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
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def reduced_norm(d: AlgebraElem) -> QuadElem:
    """N(d) = N(l0) + a N(l1) + a^2 N(l2) - a Tr(l0 rho(l1) rho^2(l2))."""
    p = d.params
    a = p.a
    l0, l1, l2 = d.l
    cross = l0 * l1.rho() * l2.rho().rho()
    return (
        l0.norm()
        + a * l1.norm()
        + a * a * l2.norm()
        - a * cross.trace()
    )


def reduced_trace(d: AlgebraElem) -> QuadElem:
    return d.l[0].trace()


def involution(d: AlgebraElem) -> AlgebraElem:
    """The involution of the second kind, per the algebra kind."""
    p = d.params
    l0, l1, l2 = d.l
    if p.kind == GALOIS:
        t, r = galois_tau, galois_rho
        return AlgebraElem(
            p,
            t(l0),
            p.ta_l * t(r(l2)),
            p.ta_l * t(r(r(l1))),
        )
    # non-Galois kind: transpose the theta/z coefficient grid and conjugate,
    # so the theta^k coefficient of l_j becomes the theta^j one of entry k
    grid = zip(*(lj.coeffs for lj in d.l))
    return AlgebraElem(p, *(CubicExtElem(*(e.conj() for e in col), b=p.b) for col in grid))


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
        failures["restricts_to_tau_on_E"] += involution(AlgebraElem.scalar(params, s)) != \
            AlgebraElem.scalar(params, s.conj())
        failures["anti_automorphism"] += involution(d * elems[j]) != images[j] * ad
        failures["norm_conjugation"] += reduced_norm(ad) != nd.conj()
        failures["norm_equals_det"] += matrix_det(to_matrix(d)) != params.one.from_E(nd)
    return failures


def inverse(d: AlgebraElem) -> AlgebraElem:
    """Inverse via the adjugate of the matrix image divided by the norm."""
    n = reduced_norm(d)
    if not n:
        raise ZeroDivisionError("element has reduced norm zero")
    m = to_matrix(d)
    inv_n = d.params.one.from_E(n.inverse())
    # row 0 of A^{-1} = adj(A) / N carries the triple of d^{-1}; it holds the
    # cofactors of column 0 of A
    adj = (
        m[1][1] * m[2][2] - m[1][2] * m[2][1],
        m[0][2] * m[2][1] - m[0][1] * m[2][2],
        m[0][1] * m[1][2] - m[0][2] * m[1][1],
    )
    return AlgebraElem(d.params, *(inv_n * c for c in adj))


def is_special_unitary(d: AlgebraElem) -> bool:
    """True iff alpha(d) * d = 1 and the reduced norm is 1, exactly."""
    one = AlgebraElem.scalar(d.params, 1)
    return involution(d) * d == one and reduced_norm(d) == QuadElem(1)


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


def _random_real_subfield_element(rng: random.Random) -> CycloElem:
    """Random element of the tau-fixed cubic subfield of Q(zeta_9)."""
    eta1 = CycloElem.zeta9(1) + CycloElem.zeta9(8)
    eta2 = CycloElem.zeta9(2) + CycloElem.zeta9(7)
    q0, q1, q2 = (_random_fraction(rng) for _ in range(3))
    return CycloElem([q0]) + CycloElem([q1]) * eta1 + CycloElem([q2]) * eta2


def random_hermitian(params: AlgebraParams, rng: random.Random) -> AlgebraElem:
    """Random alpha-fixed element of the Galois-kind algebra: d + alpha(d) for
    d = l0/2 + l1 z, with l0 in the real subfield that alpha fixes."""
    if params.kind != GALOIS:
        raise ValueError("hermitian sampling implemented for the Galois kind")
    l0 = _random_real_subfield_element(rng)
    l1 = CycloElem([_random_fraction(rng) for _ in range(6)])
    d = AlgebraElem(params, l0 / 2, l1)
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
    one = AlgebraElem.scalar(params, 1)
    for _ in range(100):
        k = random_hermitian(params, rng)
        tr = reduced_trace(k)
        if not tr.is_rational:
            raise ArithmeticError("hermitian trace must be rational")
        k = k - AlgebraElem.scalar(params, QuadElem(tr.x / 3))
        if not k:
            continue
        n_k = reduced_norm(k)
        tr_k2 = reduced_trace(k * k)
        if not (n_k.is_rational and tr_k2.is_rational) or n_k.x == 0:
            continue
        mu = -(-tr_k2.x / 2) / n_k.x  # -S_k / N_k with S_k = -Tr(k^2)/2
        h = one + AlgebraElem.scalar(params, QuadElem(mu)) * k
        s = AlgebraElem.scalar(params, SQRT_M3) * h
        denom = one + s
        n = reduced_norm(denom)
        if not n:
            continue
        x = (one - s) * inverse(denom)
        if not is_special_unitary(x):
            raise ArithmeticError("Cayley transform failed the unitarity check")
        return x
    raise ArithmeticError("failed to sample a special unitary element")


# --------------------------------------------------------------------------
# Archimedean realization: L ⊗ R ≅ C^3, D ⊗ R ≅ M_3(C).
# --------------------------------------------------------------------------

_ZETA9_C = cmath.exp(2j * cmath.pi / 9)


def _embed_c(l: CycloElem) -> complex:
    """Fixed complex embedding zeta_9 -> exp(2*pi*i/9)."""
    return sum(float(c) * _ZETA9_C ** i for i, c in enumerate(l.coeffs))


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
