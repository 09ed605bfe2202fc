"""Exact arithmetic in Q(sqrt(-3)), Q(zeta_9), and cubic radical extensions.

Everything here is exact: an element is a tuple of integer numerators over
one positive denominator, kept in lowest terms, so equality and hashing are
structural, never tolerance-based.  The three fields are polynomial quotients
sharing one kernel, :class:`PolyElem`:

* E = Q(sqrt(-3)) = Q[w]/(w^2 - w + 1), on the integral basis {1, w} with
  w = (1+sqrt(-3))/2, which keeps residue-ring reduction correct even at 2;
* L = Q(zeta_9) = Q[x]/(x^6 + x^3 + 1), on the power basis of zeta_9;
* E(theta) = E[theta]/(theta^3 - b), on the Q-basis theta^k w^j.

Reduction and the Galois actions are precomputed linear maps on coefficient
vectors; relative norms, traces and inverses follow from the Galois generator.
``coeffs`` reads the coefficients: Fractions on E and L, elements of E on E(theta).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

Scalar = Union[int, Fraction]


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
    """The linear map ``rows`` applied to the integer vector vec.  Entries +-1
    are applied as additions and subtractions."""
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
    """t^0, ..., t^(2n-2) as vectors on the basis 1, t, ..., t^(n-1), for the
    monic rule t^n = top[0] + top[1] t + ... + top[n-1] t^(n-1)."""
    n = len(top)
    images = [[int(i == k) for i in range(n)] for k in range(n)]
    while len(images) < 2 * n - 1:
        *low, high = images[-1]
        images.append([a + high * r for a, r in zip([0] + low, top)])
    return images


def _over_one_denominator(values) -> tuple:
    """(numerators, den): the rationals ``values`` over their least common
    denominator, which leaves gcd(den, *numerators) = 1."""
    qs = [Fraction(v) for v in values]
    den = math.lcm(*(q.denominator for q in qs))
    return tuple(q.numerator * (den // q.denominator) for q in qs), den


def _lowest_terms(num: tuple, den: int) -> tuple:
    """(num, den) divided by gcd(den, *num)."""
    g = math.gcd(den, *num)
    if g != 1:
        num = tuple(c // g for c in num)
        den //= g
    return num, den


class PolyElem:
    """(n_0 + n_1 t + ... + n_(n-1) t^(n-1)) / den modulo a fixed monic rule.

    The numerators ``num`` are ints and ``den`` is positive with
    gcd(den, *num) = 1 after every operation, so the form is canonical.

    A subclass fixes the field: ``_reduction`` maps the 2n-1 coefficients of a
    product to n numerators over ``_reduction_den``, ``_galois`` is the
    generator g of Gal(F/base) and ``_order`` its order, and ``from_E`` embeds
    E.  The fixed field of g is the coefficient field unless the subclass
    overrides ``_to_base``.
    """

    __slots__ = ("num", "den")
    _reduction_den = 1

    @classmethod
    def _new(cls, num: tuple, den: int = 1) -> "PolyElem":
        out = object.__new__(cls)
        out.num = num
        out.den = den
        return out

    def _canonical(self, num: tuple, den: int) -> "PolyElem":
        """num / den in lowest terms."""
        return self._new(*_lowest_terms(num, den))

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(c, self.den) for c in self.num)

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (int, Fraction, QuadElem)):
            return self.from_E(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d, e = self.den, o.den
        if d == e:    # most L sums; saves 2n products
            return self._canonical(tuple(a + b for a, b in zip(self.num, o.num)), d)
        return self._canonical(tuple(a * e + b * d for a, b in zip(self.num, o.num)), d * e)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d, e = self.den, o.den
        if d == e:
            return self._canonical(tuple(a - b for a, b in zip(self.num, o.num)), d)
        return self._canonical(tuple(a * e - b * d for a, b in zip(self.num, o.num)), d * e)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return self._new(tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        right = [(j, b) for j, b in enumerate(o.num) if b]
        prod = [0] * (2 * len(self.num) - 1)
        for i, a in enumerate(self.num):
            if a:
                for j, b in right:
                    prod[i + j] += a * b
        return self._canonical(_apply(self._reduction, prod),
                               self.den * o.den * self._reduction_den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = self._coerce(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return any(self.num)

    def _to_base(self):
        """The element as one of the fixed field of g; raises if it is not."""
        if any(self.num[1:]):
            raise ValueError(f"element {self!r} does not lie in the base field")
        return self.coeffs[0]

    def rho(self) -> "PolyElem":
        """The generator g of Gal(F/base): conj on E, zeta_9 -> zeta_9^4 on L,
        theta -> zeta_3 * theta on E(theta)."""
        # g is a ring automorphism of the integral basis, so its matrix is
        # unimodular and the numerators stay coprime to den
        return self._new(_apply(self._galois, self.num), self.den)

    def _conjugates(self) -> list:
        """g(x), ..., g^(order-1)(x)."""
        out = [self.rho()]
        while len(out) < self._order - 1:
            out.append(out[-1].rho())
        return out

    def norm(self):
        """Relative norm to the fixed field of g: the product of the conjugates."""
        return math.prod(self._conjugates(), start=self)._to_base()

    def trace(self):
        """Relative trace to the fixed field of g: the sum of the conjugates."""
        return sum(self._conjugates(), self)._to_base()

    def inverse(self) -> "PolyElem":
        """x^-1 = g(x) ... g^(order-1)(x) / N(x), with N(x) inverted in E."""
        if not self:
            raise ZeroDivisionError(f"inversion of zero in {type(self).__name__}")
        first, *rest = self._conjugates()
        others = math.prod(rest, start=first)
        return others * (self * others)._to_base().inverse()


# --------------------------------------------------------------------------
# E = Q(sqrt(-3)) on the basis {1, w}, w^2 = w - 1, sqrt(-3) = 2w - 1.
# --------------------------------------------------------------------------


class QuadElem(PolyElem):
    """Element x + y*w of Q(sqrt(-3)), with w = (1 + sqrt(-3)) / 2."""

    __slots__ = ()
    _order = 2
    _reduction = _linear_map(_powers((-1, 1)))       # w^2 = -1 + w
    _galois = _linear_map([(1, 0), (1, -1)])         # w -> 1 - w

    def __init__(self, x: Scalar = 0, y: Scalar = 0):
        self.num, self.den = _over_one_denominator((x, y))

    x = property(lambda self: Fraction(self.num[0], self.den))
    y = property(lambda self: Fraction(self.num[1], self.den))
    conj = PolyElem.rho   # the nontrivial automorphism of E/Q

    def from_E(self, e) -> "QuadElem":
        return _as_quad(e)

    @property
    def is_rational(self) -> bool:
        return not self.num[1]

    def inverse(self) -> "QuadElem":
        """x^-1 = conj(x) / N(x): for x = (u + v w)/d, N(x) = (u^2 + uv + v^2)/d^2,
        and u^2 + uv + v^2 > 0 unless x = 0."""
        if not self:
            raise ZeroDivisionError("inversion of zero in QuadElem")
        (u, v), d = self.num, self.den
        return self._canonical((d * (u + v), -d * v), u * u + u * v + v * v)

    def __repr__(self):
        return f"QuadElem({self.x!r}, {self.y!r})"

    def __str__(self):
        if self.is_rational:
            return str(self.x)
        return f"({self.x} + {self.y}*w)"


def _as_quad(v) -> QuadElem:
    return v if isinstance(v, QuadElem) else QuadElem(v)


SQRT_M3 = QuadElem(-1, 2)     # sqrt(-3) = 2w - 1
ZETA3_E = QuadElem(-1, 1)     # zeta_3 = w - 1 = (-1 + sqrt(-3)) / 2
QUAD_ZERO = QuadElem(0)


def quad_from_sqrt3_basis(x: Scalar, y: Scalar) -> QuadElem:
    """Build x + y*sqrt(-3) as a QuadElem."""
    return QuadElem(x, 0) + QuadElem(y, 0) * SQRT_M3


# --------------------------------------------------------------------------
# L = Q(zeta_9), power basis mod Phi_9 = x^6 + x^3 + 1.
# --------------------------------------------------------------------------

_ZETA9_POWERS = _powers((-1, 0, 0, -1, 0, 0))    # zeta_9^0 .. zeta_9^10; x^6 = -1 - x^3


class CycloElem(PolyElem):
    """Element of Q(zeta_9) as c0 + c1 z + ... + c5 z^5, z = zeta_9."""

    __slots__ = ()
    _order = 3
    _reduction = _linear_map(_ZETA9_POWERS)
    _galois = _linear_map([_ZETA9_POWERS[4 * i % 9] for i in range(6)])  # zeta_9 -> zeta_9^4
    _tau = _linear_map([_ZETA9_POWERS[8 * i % 9] for i in range(6)])     # zeta_9 -> zeta_9^8

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        num, den = _over_one_denominator(coeffs)
        c = list(num)
        for k in range(len(c) - 1, 8, -1):   # zeta_9^9 = 1
            c[k - 9] += c.pop()
        c = _apply(self._reduction, c + [0] * (11 - len(c)))
        self.num, self.den = _lowest_terms(c, den)

    @classmethod
    def zeta9(cls, k: int = 1) -> "CycloElem":
        return cls([0] * (k % 9) + [1])

    def from_E(self, e) -> "CycloElem":
        return embed_E_in_L(_as_quad(e))

    def _to_base(self) -> QuadElem:
        """Inverse of embed_E_in_L; raises if the element is not in E."""
        if not is_in_E(self):
            raise ValueError(f"element {self!r} does not lie in Q(sqrt(-3))")
        # l = c0 + c3 zeta_3 = (c0 - c3) + c3 w, still in lowest terms
        c = self.num
        return QuadElem._new((c[0] - c[3], c[3]), self.den)

    def tau(self) -> "CycloElem":
        """Complex conjugation zeta_9 -> zeta_9^8."""
        return self._new(_apply(self._tau, self.num), self.den)

    def from_rationals(self, qs) -> "CycloElem":
        """The element of L with coordinates qs on the power basis."""
        return CycloElem(qs)

    def __repr__(self):
        return f"CycloElem({list(self.coeffs)!r})"


galois_rho = CycloElem.rho        # order 3 automorphism of L/E; fixes E pointwise
galois_tau = CycloElem.tau        # order 2 automorphism (complex conjugation)
norm_L_over_E = CycloElem.norm
trace_L_over_E = CycloElem.trace
project_to_E = CycloElem._to_base


def galois_actions_commute() -> bool:
    """tau rho = rho tau, checked on the power basis of L."""
    basis = [CycloElem.zeta9(i) for i in range(6)]
    return all(z.rho().tau() == z.tau().rho() for z in basis)


def embed_E_in_L(e: QuadElem) -> CycloElem:
    """Embed x + y*w into L via w = 1 + zeta_3 = 1 + zeta_9^3."""
    x, y = e.num    # gcd(den, x + y, y) = gcd(den, x, y) = 1
    return CycloElem._new((x + y, 0, 0, y, 0, 0), e.den)


def is_in_E(l: CycloElem) -> bool:
    c = l.num
    return not (c[1] or c[2] or c[4] or c[5])


def norm_trace_L_over_E(l: CycloElem):
    """Relative norm and trace of L/E as a pair of QuadElems."""
    return norm_L_over_E(l), trace_L_over_E(l)


# --------------------------------------------------------------------------
# Cubic radical extensions E(theta), theta^3 = b (used for the non-Galois case).
# --------------------------------------------------------------------------


class CubicExtElem(PolyElem):
    """Element e0 + e1*theta + e2*theta^2 of E(theta) with theta^3 = b.

    The numerators sit on the Q-basis theta^k w^j at slot 3k + j.  Slot 3k + 2
    stays 0, so the w^2 terms of a product land in slots of their own, not in
    theta^(k+1).  Each radicand b has its own subclass, made by _cubic_field.
    """

    __slots__ = ()
    _order = 3

    def __new__(cls, *coeffs, b):
        return object.__new__(_cubic_field(_as_quad(b)))

    def __init__(self, e0, e1=QUAD_ZERO, e2=QUAD_ZERO, *, b):
        es = [_as_quad(e) for e in (e0, e1, e2)]
        self.den = math.lcm(*(e.den for e in es))    # in lowest terms, as each e is
        self.num = tuple(c * (self.den // e.den) for e in es for c in (*e.num, 0))

    coeffs = e = property(lambda self: tuple(
        QuadElem._new(*_lowest_terms(self.num[k:k + 2], self.den)) for k in (0, 3, 6)))

    @classmethod
    def scalar(cls, v, b: QuadElem) -> "CubicExtElem":
        return cls(v, b=b)

    def from_E(self, e) -> "CubicExtElem":
        e = _as_quad(e)
        return self._new(e.num + (0,) * 7, e.den)

    def from_rationals(self, qs) -> "CubicExtElem":
        """The element with coordinates qs on the basis theta^k, theta^k w."""
        n, den = _over_one_denominator(qs)
        return self._new((n[0], n[1], 0, n[2], n[3], 0, n[4], n[5], 0), den)

    def _to_base(self) -> QuadElem:
        if any(self.num[2:]):
            raise ValueError(f"element {self!r} does not lie in Q(sqrt(-3))")
        return QuadElem._new(self.num[:2], self.den)

    def _coerce(self, other):
        if isinstance(other, CubicExtElem) and type(other) is not type(self):
            raise ValueError("mixing cubic extensions with different radicands")
        return PolyElem._coerce(self, other)

    def __reduce__(self):    # copy and pickle rebuild it in its radicand's subclass
        return functools.partial(CubicExtElem, b=self.b), self.coeffs

    def __repr__(self):
        return f"CubicExtElem({self.e[0]!r}, {self.e[1]!r}, {self.e[2]!r}, b={self.b!r})"


@functools.cache
def _cubic_field(b: QuadElem) -> type:
    """The subclass of CubicExtElem for theta^3 = b = (x + y w)/d, made once per
    radicand.  Its maps send slot 3k + j to factor(k) w^j at theta^(k mod 3):
    the Galois generator theta -> zeta_3 theta, and the reduction over d, which
    sends theta^k to d theta^k for k < 3 and to (x + y w) theta^(k-3) beyond."""
    def theta_map(slots, factor):
        images = [[0] * 9 for _ in range(slots)]
        for s, image in enumerate(images):
            k, j = divmod(s, 3)
            image[3 * (k % 3):3 * (k % 3) + 2] = (factor(k) * QuadElem(0, 1) ** j).num
        return _linear_map(images)
    return type("CubicExtElem", (CubicExtElem,), {
        "__slots__": (), "b": b, "_reduction_den": b.den,
        "_reduction": theta_map(17, lambda k: b * b.den if k >= 3 else QuadElem(b.den)),
        "_galois": theta_map(9, lambda k: ZETA3_E ** k),
    })


cubic_rho = CubicExtElem.rho      # generator of Gal(E(theta)/E): theta -> zeta_3 * theta
cubic_norm = CubicExtElem.norm
cubic_trace = CubicExtElem.trace


# --------------------------------------------------------------------------
# Prime splitting and the local norm obstruction.
# --------------------------------------------------------------------------


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond the ranges used here."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _sqrt_minus3_mod(p: int) -> Optional[int]:
    """Least square root of -3 mod p by brute-force search, or None.

    The least root is at most p // 2, since p - x is a root whenever x is.
    """
    target = -3 % p
    return next((x for x in range(p // 2 + 1) if x * x % p == target), None)


RAMIFIED, SPLIT, INERT = "ramified", "split", "inert"


def _splitting_of_prime(p: int):
    """``splitting_data`` of a number already known to be prime."""
    if p == 3:
        return RAMIFIED, None
    # the order of p mod 9 divides phi(9) = 6
    return (SPLIT if p % 3 == 1 else INERT), next(k for k in (1, 2, 3, 6) if pow(p, k, 9) == 1)


def splitting_data(p: int):
    """Splitting type of p in E and residue degree of p in L = Q(zeta_9).

    Returns (kind, residue_degree) with kind in {"ramified", "split",
    "inert"}; the residue degree, the order of p mod 9, is None for p = 3.
    Raises ValueError if p is not prime.

    Congruences decide the kind.  p = 3 divides the discriminant -3 of
    w^2 - w + 1 and ramifies; any other p splits iff that polynomial has a
    root mod p.  For odd p that means (-3/p) = 1, and by quadratic
    reciprocity (-3/p) = (p/3), so p splits iff p = 1 mod 3.  At p = 2, which
    is 2 mod 3, there is no root, so the same rule holds with no special case.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _splitting_of_prime(p)


def hensel_sqrt_minus3(p: int, precision: int) -> int:
    """Lift a square root of -3 mod p to a root mod p^precision by Newton steps."""
    if p == 2 or p == 3 or not is_prime(p):
        raise ValueError(f"no unramified square root of -3 at p={p}")
    r = _sqrt_minus3_mod(p)
    if r is None:
        raise ValueError(f"-3 is not a square mod {p}")
    k = 1
    while k < precision:
        k = min(2 * k, precision)
        mod = p ** k
        # Newton: r <- r - (r^2 + 3) / (2r)
        inv2r = pow(2 * r % mod, -1, mod)
        r = (r - (r * r + 3) * inv2r) % mod
    mod = p ** precision
    if (r * r + 3) % mod != 0:
        raise ArithmeticError(f"Hensel lift failed at p={p}")
    return r % mod


@dataclass(frozen=True)
class ObstructionReport:
    """Valuation residues of both p-adic embeddings of an element of E."""

    element: QuadElem
    prime: int
    valuations: tuple
    valuations_mod_3: frozenset
    obstructed: bool


def _padic_valuation(n: int, p: int) -> int:
    """v_p(n) of a nonzero integer n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def local_norm_obstruction(a: QuadElem, p: int) -> ObstructionReport:
    """Valuation-based witness that a is not a relative norm from L.

    Requires p split in E with residue degree 3 in L, so that the local cubic
    extension is unramified: units are automatically norms and an element is a
    local norm iff its valuation is divisible by 3.  The two embeddings of E
    into the p-adic field send sqrt(-3) to the two Hensel lifts +-r.

    The valuations are exact.  Write a = (u + v*w) / d with integers u, v, d.
    The two images s1, s2 of u + v*w in Z_p multiply to its norm
    N = u^2 + uv + v^2, so neither valuation exceeds v_p(N).  Modulo
    p^(v_p(N) + 1) both images are therefore nonzero, and their residues
    carry their valuations.
    """
    kind, f = splitting_data(p)
    if kind != "split":
        raise ValueError(f"p={p} is not split in Q(sqrt(-3))")
    if f != 3:
        raise ValueError(f"p={p} has residue degree {f} != 3 in Q(zeta_9)")
    if not a:
        raise ValueError("zero has no valuation")
    (u, v), d = a.num, a.den
    precision = _padic_valuation(u * u + u * v + v * v, p) + 1
    mod = p ** precision
    r = hensel_sqrt_minus3(p, precision)
    inv2 = pow(2, -1, mod)
    vd = _padic_valuation(d, p)
    vals = []
    for root in (r, (-r) % mod):
        w_img = (1 + root) * inv2 % mod  # w = (1 + sqrt(-3)) / 2
        vals.append(_padic_valuation((u + v * w_img) % mod, p) - vd)
    residues = frozenset(v % 3 for v in vals)
    return ObstructionReport(
        element=a,
        prime=p,
        valuations=tuple(vals),
        valuations_mod_3=residues,
        obstructed=any(res != 0 for res in residues),
    )
