"""Exact arithmetic in Q(sqrt(-3)), Q(zeta_9), and cubic radical extensions.

Everything here is exact: elements carry Fraction coefficients and equality is
structural, never tolerance-based.  The three fields are polynomial quotients
sharing one kernel, :class:`PolyElem`:

* E = Q(sqrt(-3)) = Q[w]/(w^2 - w + 1), on the integral basis {1, w} with
  w = (1+sqrt(-3))/2, which keeps residue-ring reduction correct even at 2;
* L = Q(zeta_9) = Q[x]/(x^6 + x^3 + 1), on the power basis of zeta_9;
* E(theta) = E[theta]/(theta^3 - b), with coefficients in E.

Reduction and the Galois actions are precomputed linear maps on coefficient
vectors; relative norms, traces and inverses follow from the Galois generator.
"""

from __future__ import annotations

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


def _apply(rows, vec, zero):
    """The linear map ``rows`` applied to vec, in which None stands for 0.
    Entries +-1 are applied as additions and subtractions."""
    out = []
    for row in rows:
        acc = None
        for i, s, m in row:
            v = vec[i]
            if v:
                if acc is None:
                    acc = v if s > 0 else -v if s < 0 else m * v
                else:
                    acc = acc + v if s > 0 else acc - v if s < 0 else acc + m * v
        out.append(zero if acc is None else acc)
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


class PolyElem:
    """c_0 + c_1 t + ... + c_(n-1) t^(n-1) modulo a fixed monic rule.

    A subclass fixes the field: ``_reduction`` maps the 2n-1 coefficients of a
    product to n, ``_galois`` is the generator g of Gal(F/base) and
    ``_order`` its order, ``_zero`` is the zero coefficient and ``from_E``
    embeds E.  The fixed field of g is the coefficient field unless the
    subclass overrides ``_to_base``.
    """

    __slots__ = ("coeffs",)

    def _new(self, coeffs: tuple) -> "PolyElem":
        out = object.__new__(type(self))
        out.coeffs = coeffs
        return out

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
        return self._new(tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._new(tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return self._new(tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        right = [(j, b) for j, b in enumerate(o.coeffs) if b]
        prod = [None] * (2 * len(self.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in right:
                    p = prod[i + j]
                    prod[i + j] = a * b if p is None else p + a * b
        return self._new(_apply(self._reduction, prod, self._zero))

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
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def _to_base(self):
        """The element as one of the fixed field of g; raises if it is not."""
        if any(self.coeffs[1:]):
            raise ValueError(f"element {self!r} does not lie in the base field")
        return self.coeffs[0]

    def rho(self) -> "PolyElem":
        """The generator g of Gal(F/base): conj on E, zeta_9 -> zeta_9^4 on L,
        theta -> zeta_3 * theta on E(theta)."""
        return self._new(_apply(self._galois, self.coeffs, self._zero))

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
        """x^-1 = g(x) ... g^(order-1)(x) / N(x)."""
        if not self:
            raise ZeroDivisionError(f"inversion of zero in {type(self).__name__}")
        first, *rest = self._conjugates()
        others = math.prod(rest, start=first)
        return others * (1 / (self * others)._to_base())


# --------------------------------------------------------------------------
# E = Q(sqrt(-3)) on the basis {1, w}, w^2 = w - 1, sqrt(-3) = 2w - 1.
# --------------------------------------------------------------------------


class QuadElem(PolyElem):
    """Element x + y*w of Q(sqrt(-3)), with w = (1 + sqrt(-3)) / 2."""

    __slots__ = ()
    _order, _zero = 2, Fraction(0)
    _reduction = _linear_map(_powers((-1, 1)))       # w^2 = -1 + w
    _galois = _linear_map([(1, 0), (1, -1)])         # w -> 1 - w

    def __init__(self, x: Scalar = 0, y: Scalar = 0):
        self.coeffs = (Fraction(x), Fraction(y))

    x = property(lambda self: self.coeffs[0])
    y = property(lambda self: self.coeffs[1])
    conj = PolyElem.rho   # the nontrivial automorphism of E/Q

    def from_E(self, e) -> "QuadElem":
        return _as_quad(e)

    @property
    def is_rational(self) -> bool:
        return self.y == 0

    def __repr__(self):
        return f"QuadElem({self.x!r}, {self.y!r})"

    def __str__(self):
        if self.y == 0:
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
    _order, _zero = 3, Fraction(0)
    _reduction = _linear_map(_ZETA9_POWERS)
    _galois = _linear_map([_ZETA9_POWERS[4 * i % 9] for i in range(6)])  # zeta_9 -> zeta_9^4
    _tau = _linear_map([_ZETA9_POWERS[8 * i % 9] for i in range(6)])     # zeta_9 -> zeta_9^8

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        c = [Fraction(v) for v in coeffs]
        for k in range(len(c) - 1, 8, -1):   # zeta_9^9 = 1
            c[k - 9] += c.pop()
        self.coeffs = _apply(self._reduction, c + [None] * (11 - len(c)), self._zero)

    @classmethod
    def zeta9(cls, k: int = 1) -> "CycloElem":
        return cls([0] * (k % 9) + [1])

    def from_E(self, e) -> "CycloElem":
        return embed_E_in_L(_as_quad(e))

    def _to_base(self) -> QuadElem:
        """Inverse of embed_E_in_L; raises if the element is not in E."""
        if not is_in_E(self):
            raise ValueError(f"element {self!r} does not lie in Q(sqrt(-3))")
        # l = c0 + c3 zeta_3 = (c0 - c3) + c3 w
        return QuadElem(self.coeffs[0] - self.coeffs[3], self.coeffs[3])

    def tau(self) -> "CycloElem":
        """Complex conjugation zeta_9 -> zeta_9^8."""
        return self._new(_apply(self._tau, self.coeffs, self._zero))

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
    return CycloElem([e.x + e.y, 0, 0, e.y])


def is_in_E(l: CycloElem) -> bool:
    c = l.coeffs
    return c[1] == 0 and c[2] == 0 and c[4] == 0 and c[5] == 0


def norm_trace_L_over_E(l: CycloElem):
    """Relative norm and trace of L/E as a pair of QuadElems."""
    return norm_L_over_E(l), trace_L_over_E(l)


# --------------------------------------------------------------------------
# Cubic radical extensions E(theta), theta^3 = b (used for the non-Galois case).
# --------------------------------------------------------------------------


class CubicExtElem(PolyElem):
    """Element e0 + e1*theta + e2*theta^2 of E(theta) with theta^3 = b."""

    __slots__ = ("b",)
    _order, _zero = 3, QUAD_ZERO
    _galois = _linear_map([(1, 0, 0), (0, ZETA3_E, 0), (0, 0, ZETA3_E * ZETA3_E)])

    def __init__(self, e0, e1=QUAD_ZERO, e2=QUAD_ZERO, *, b: QuadElem):
        self.coeffs = (_as_quad(e0), _as_quad(e1), _as_quad(e2))
        self.b = _as_quad(b)

    def _new(self, coeffs: tuple) -> "CubicExtElem":
        out = PolyElem._new(self, coeffs)
        out.b = self.b
        return out

    e = property(lambda self: self.coeffs)

    @property
    def _reduction(self):
        b = self.b    # theta^3 = b, theta^4 = b * theta
        return (((0, 1, 1), (3, 0, b)), ((1, 1, 1), (4, 0, b)), ((2, 1, 1),))

    @classmethod
    def scalar(cls, v, b: QuadElem) -> "CubicExtElem":
        return cls(v, QUAD_ZERO, QUAD_ZERO, b=b)

    def from_E(self, e) -> "CubicExtElem":
        return CubicExtElem.scalar(e, self.b)

    def from_rationals(self, qs) -> "CubicExtElem":
        """The element with coordinates qs on the basis theta^k, theta^k w."""
        return CubicExtElem(*(QuadElem(x, y) for x, y in zip(qs[::2], qs[1::2])), b=self.b)

    def _coerce(self, other):
        if isinstance(other, CubicExtElem) and other.b is not self.b and other.b != self.b:
            raise ValueError("mixing cubic extensions with different radicands")
        return PolyElem._coerce(self, other)

    def __eq__(self, other):
        if isinstance(other, CubicExtElem):
            return self.b == other.b and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.coeffs, self.b))

    def __repr__(self):
        return f"CubicExtElem({self.e[0]!r}, {self.e[1]!r}, {self.e[2]!r}, b={self.b!r})"


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


def splitting_data(p: int):
    """Splitting type of p in E and residue degree of p in L = Q(zeta_9).

    Returns (kind, residue_degree) with kind in {"ramified", "split",
    "inert"}; the residue degree is None for p = 3.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 3:
        return "ramified", None
    # residue degree in L = multiplicative order of p mod 9
    f = 1
    x = p % 9
    while x != 1:
        x = x * p % 9
        f += 1
    if p == 2:
        # w^2 - w + 1 is irreducible mod 2, so 2 is inert
        return "inert", f
    return ("inert" if _sqrt_minus3_mod(p) is None else "split"), f


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
    split_type_in_E: str
    residue_degree_in_L: int
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
    x, y = a.coeffs
    d = math.lcm(x.denominator, y.denominator)
    u = int(x * d)
    v = int(y * d)
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
        split_type_in_E=kind,
        residue_degree_in_L=f,
        valuations=tuple(vals),
        valuations_mod_3=residues,
        obstructed=any(res != 0 for res in residues),
    )
