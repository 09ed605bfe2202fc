"""Exact arithmetic in Q(sqrt(-3)), Q(zeta_9), and cubic radical extensions.

Everything here is exact: a value is a :class:`RationalVector`, a tuple of
integer numerators over one positive denominator, kept in lowest terms, so
equality and hashing are structural, never tolerance-based.  ``algebra``'s
elements of D are such vectors too.  The three fields are polynomial
quotients sharing one kernel on top of it, :class:`PolyElem`:

* E = Q(sqrt(-3)) = Q[w]/(w^2 - w + 1), on the integral basis {1, w} with
  w = (1+sqrt(-3))/2, which keeps residue-ring reduction correct even at 2;
* L = Q(zeta_9) = Q[x]/(x^6 + x^3 + 1), on the power basis of zeta_9;
* E(theta) = E[theta]/(theta^3 - b), on the Q-basis theta^k w^j, j < 2.

Every product, of E, L, E(theta) and D, and D's reduced norm and adjoint
are compiled by one generator of forms from the images of the monomials,
products of basis elements: monomials with the same image are summed once,
and each output is a combination of those sums.  The Galois maps, L's
constructor reduction and each space's product by w, through which a scalar
of E acts, are compiled as linear maps.  E and L compile at import, E(theta)
once per radicand b, D once per algebra; each is a straight-line Python
function on the integer numerators.  Coefficients
other than +-1 are bound as names, never written into the source, so a
radicand of any size compiles.  Relative norms, traces and inverses follow
from the Galois generator.  ``coeffs`` reads the coefficients: Fractions on E
and L, elements of E on E(theta).  The constructors take ints and Fractions
only; a float, str, Decimal or bool raises TypeError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

Scalar = Union[int, Fraction]


def _combination(terms, consts) -> str:
    """Source of the sum of c * t over the (name t, int c) pairs ``terms``.
    A coefficient other than +-1, and the 0 of an empty sum, is never written
    into the text: it is bound in ``consts`` (value -> name), so the source
    holds only names, + - * and parentheses, whatever the size of the
    integers.  Terms are grouped by |c|, so each distinct |c| is one product."""
    groups = {}     # |c| -> the signed terms
    for t, c in terms:
        if c:
            groups.setdefault(abs(c), []).append(("+ " if c > 0 else "- ") + t)
    parts = []
    for c, signed in groups.items():
        if c == 1:
            parts.extend(signed)
        else:
            inner = " ".join(signed).removeprefix("+ ")
            parts.append(f"+ {consts.setdefault(c, f'k{len(consts)}')} * ({inner})")
    return " ".join(parts).removeprefix("+ ") or consts.setdefault(0, f"k{len(consts)}")


def _compile(label: str, params: str, body: list, results: list, consts: dict):
    """The straight-line function ``params -> tuple(results)``, compiled under
    the file name ``<label>``, such as ``<numberfield L.rho>``, so profiles and
    tracebacks name it; the function is named by the label's last part."""
    name = label.rpartition(".")[2]
    src = "\n    ".join([f"def {name}({params}):", *body, f"return ({', '.join(results)},)"])
    namespace = {v: c for c, v in consts.items()}
    exec(compile(src, f"<{label}>", "exec"), namespace)
    return namespace[name]


def _linear_kernel(label: str, images):
    """v -> sum_i v[i] images[i], straight-line on the integer tuple v."""
    consts = {}
    results = [_combination([(f"v{i}", image[j]) for i, image in enumerate(images)], consts)
               for j in range(len(images[0]))]
    return _compile(label, "v", [f"{', '.join(f'v{i}' for i in range(len(images)))}, = v"],
                    results, consts)


def _form_kernel(label: str, args: str, n: int, terms, width: int):
    """The sum of monomial * image over the (monomial, image) pairs ``terms``,
    straight-line on the integer n-tuples named by the letters of ``args``: a
    monomial is the source of a product, such as ``a0 * b3``, and an image a
    width-tuple of ints.  The one generator of products and forms: monomials
    with the same image are summed once, and each output is a _combination
    of those sums."""
    groups = {}     # image -> the monomials that have it
    for monomial, img in terms:
        if any(img):
            groups.setdefault(tuple(img), []).append(monomial)
    body = [f"{', '.join(f'{v}{i}' for i in range(n))}, = {v}" for v in args]
    body += [f"p{g} = {' + '.join(monomials)}" for g, monomials in enumerate(groups.values())]
    consts = {}
    results = [_combination([(f"p{g}", img[s]) for g, img in enumerate(groups)], consts)
               for s in range(width)]
    return _compile(label, ", ".join(args), body, results, consts)


def _bilinear_kernel(label: str, n: int, image):
    """(a, b) -> sum over i, j < n of a[i] b[j] image(i, j), on n-tuples."""
    return _form_kernel(label, "ab", n, ((f"a{i} * b{j}", image(i, j))
                                         for i in range(n) for j in range(n)), n)


def _times_w_kernel(label: str, product, w: tuple, pd: int = 1):
    """v -> num(w v), the product by w = (1 + sqrt(-3))/2 as a compiled linear
    map, read from a space's compiled product: w's numerators ``w``, over 1,
    times each basis element, over the product's ``pd``.  Each basis is
    integral and w acts on it without the radicand or a, so every image is an
    integer vector and the division by pd is exact."""
    units = [tuple(int(i == s) for i in range(len(w))) for s in range(len(w))]
    return _linear_kernel(label, [[c // pd for c in product(w, e)] for e in units])


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
    """(numerators, den): the ints and Fractions ``values`` over their least
    common denominator, which leaves gcd(den, *numerators) = 1.  Any other
    value, a float, str, Decimal or bool among them, raises TypeError."""
    values = tuple(values)
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
            raise TypeError(f"a {type(v).__name__} is not an exact rational: "
                            "pass an int or a Fraction")
    den = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def _join(parts) -> tuple:
    """(numerators, den): the numerators of the vectors ``parts`` in turn, over
    their least common denominator; lowest terms if each part is."""
    den = math.lcm(*(x.den for x in parts))
    return tuple(c * (den // x.den) for x in parts for c in x.num), den


def _lowest_terms(num: tuple, den: int) -> tuple:
    """(num, den) divided by gcd(den, *num)."""
    g = math.gcd(den, *num)
    if g != 1:
        num = tuple(c // g for c in num)
        den //= g
    return num, den


def _fraction_repr(num: int, den: int) -> str:
    """repr(Fraction(num, den)), in hex (which reads back) past the str limit."""
    q = Fraction(num, den)
    try:
        return repr(q)
    except ValueError:
        return f"Fraction({q.numerator:#x}, {q.denominator:#x})"


class RationalVector:
    """Integer numerators ``num`` over one positive ``den``, with
    gcd(den, *num) = 1 after every operation, so the form is canonical and
    equality is structural; equal values hash equal in every space.

    A subclass fixes the space: ``_product`` is its compiled product on
    numerator tuples, whose result lies over ``_product_den``, ``_times_w``
    its compiled product by w, a linear map with integer images, ``from_E``
    embeds an int, Fraction or element of E, which is how such an operand is
    taken into ``+``, ``-`` and ``==``, and ``_in_E`` reads back the
    numerators on E's basis of a value of E, None for any other.  In ``*`` a
    scalar e = (x + y w)/d of E acts as (x v + y W(v))/d on the numerators
    v, W being ``_times_w``, never through the full product.  A family,
    E(theta) or D, has one subclass of its base ``_family`` per value
    (radicand or algebra), and two values do not mix: arithmetic raises
    ``ValueError(_mixing)`` and ``==`` is False.  The base names its
    message: ``class F(..., mixing=...)``.
    """

    __slots__ = ("num", "den")
    _product_den = 1
    _family = ()    # no family: isinstance(x, ()) is False

    def __init_subclass__(cls, mixing: Optional[str] = None):
        if mixing:
            cls._family, cls._mixing = cls, mixing

    @classmethod
    def _new(cls, num: tuple, den: int = 1) -> "RationalVector":
        out = object.__new__(cls)
        out.num = num
        out.den = den
        return out

    def _canonical(self, num: tuple, den: int) -> "RationalVector":
        """num / den in lowest terms."""
        return self._new(*_lowest_terms(num, den))

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, (int, Fraction, QuadElem)):
            return self.from_E(other)
        if isinstance(other, self._family):
            raise ValueError(self._mixing)
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

    def _scaled(self, num: tuple, den: int, e: "QuadElem") -> "RationalVector":
        """e (num / den) for e = (x + y w)/d in E: x num + y W(num) over den d,
        W being the space's compiled product by w, normalised once."""
        (x, y), d = e.num, e.den
        if y:
            num = tuple(x * a + y * b for a, b in zip(num, self._times_w(num)))
        else:
            num = tuple(x * a for a in num)
        return self._canonical(num, den * d)

    def __mul__(self, other):
        if isinstance(other, type(self)):
            return self._canonical(self._product(self.num, other.num),
                                   self.den * other.den * self._product_den)
        if isinstance(other, (int, Fraction, QuadElem)):    # a scalar of E acts by W
            return self._scaled(self.num, self.den, _as_quad(other))
        if isinstance(other, self._family):
            raise ValueError(self._mixing)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not type(self) and isinstance(other, self._family):
            return False    # values of one family are unequal, not an error
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        # equal values hash equal: a value of Q hashes as that rational, and
        # one of E by its numerators on E's basis, whatever its space
        e = self._in_E(self.num)
        if e is None:
            return hash((self.num, self.den))
        if e[1]:
            return hash((e, self.den))
        return hash(e[0]) if self.den == 1 else hash(Fraction(e[0], self.den))

    def __bool__(self):
        return any(self.num)


class PolyElem(RationalVector):
    """(n_0 + n_1 t + ... + n_(n-1) t^(n-1)) / den modulo a fixed monic rule.

    A subclass fixes the field with compiled kernels on numerator tuples:
    ``_product`` multiplies and reduces to n numerators over
    ``_product_den``, ``_galois`` is the generator g of Gal(F/base) and
    ``_order`` its order, and ``from_E`` embeds E.  The fixed field of g is
    E, except on E itself, whose ``_to_base`` reads Q.
    """

    __slots__ = ()

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(c, self.den) for c in self.num)

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

    def _to_base(self):
        """The element as one of the fixed field of g; raises if it is not."""
        e = self._in_E(self.num)
        if e is None:
            raise ValueError(f"{type(self).__name__} element does not lie in Q(sqrt(-3))")
        return QuadElem._new(e, self.den)

    def rho(self) -> "PolyElem":
        """The generator g of Gal(F/base): conj on E, zeta_9 -> zeta_9^4 on L,
        theta -> zeta_3 * theta on E(theta)."""
        # g is a ring automorphism of the integral basis, so its matrix is
        # unimodular and the numerators stay coprime to den
        return self._new(self._galois(self.num), self.den)

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
    _product = staticmethod(_bilinear_kernel(   # w^2 = -1 + w
        "numberfield E.product", 2, lambda i, j: _powers((-1, 1))[i + j]))
    _galois = staticmethod(_linear_kernel("numberfield E.rho", [(1, 0), (1, -1)]))  # w -> 1 - w
    _times_w = staticmethod(_times_w_kernel("numberfield E.times_w", _product, (0, 1)))

    def __init__(self, x: Scalar = 0, y: Scalar = 0):
        self.num, self.den = _over_one_denominator((x, y))

    x = property(lambda self: Fraction(self.num[0], self.den))
    y = property(lambda self: Fraction(self.num[1], self.den))
    conj = PolyElem.rho   # the nontrivial automorphism of E/Q
    _in_E = staticmethod(lambda num: num)

    def _to_base(self) -> Fraction:    # the fixed field of conj is Q
        if self.num[1]:
            raise ValueError("QuadElem element does not lie in the base field")
        return self.x

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
        return f"QuadElem({', '.join(_fraction_repr(c, self.den) for c in self.num)})"

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
    _product = staticmethod(_bilinear_kernel(
        "numberfield L.product", 6, lambda i, j: _ZETA9_POWERS[i + j]))
    _reduce = staticmethod(_linear_kernel(   # zeta_9^k, k < 9
        "numberfield L.reduce", _ZETA9_POWERS[:9]))
    _galois = staticmethod(_linear_kernel(   # zeta_9 -> zeta_9^4
        "numberfield L.rho", [_ZETA9_POWERS[4 * i % 9] for i in range(6)]))
    _tau = staticmethod(_linear_kernel(      # zeta_9 -> zeta_9^8
        "numberfield L.tau", [_ZETA9_POWERS[8 * i % 9] for i in range(6)]))
    _times_w = staticmethod(_times_w_kernel(    # w = 1 + zeta_9^3
        "numberfield L.times_w", _product, (1, 0, 0, 1, 0, 0)))

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        num, den = _over_one_denominator(coeffs)
        c = list(num)
        for k in range(len(c) - 1, 8, -1):   # zeta_9^9 = 1
            c[k - 9] += c.pop()
        self.num, self.den = _lowest_terms(self._reduce(c + [0] * (9 - len(c))), den)

    @classmethod
    def zeta9(cls, k: int = 1) -> "CycloElem":
        return cls([0] * (k % 9) + [1])

    def from_E(self, e) -> "CycloElem":
        return embed_E_in_L(_as_quad(e))

    @staticmethod
    def _in_E(c):    # the inverse of embed_E_in_L: c0 + c3 zeta_3 = (c0 - c3) + c3 w
        return None if c[1] or c[2] or c[4] or c[5] else (c[0] - c[3], c[3])

    def tau(self) -> "CycloElem":
        """Complex conjugation zeta_9 -> zeta_9^8."""
        return self._new(self._tau(self.num), self.den)

    def from_rationals(self, qs) -> "CycloElem":
        """The element of L with coordinates qs on the power basis."""
        return CycloElem(qs)

    def __repr__(self):
        return f"CycloElem([{', '.join(_fraction_repr(c, self.den) for c in self.num)}])"


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
    return l._in_E(l.num) is not None


def norm_trace_L_over_E(l: CycloElem):
    """Relative norm and trace of L/E as a pair of QuadElems."""
    return norm_L_over_E(l), trace_L_over_E(l)


# --------------------------------------------------------------------------
# Cubic radical extensions E(theta), theta^3 = b (used for the non-Galois case).
# --------------------------------------------------------------------------


class CubicExtElem(PolyElem, mixing="mixing cubic extensions with different radicands"):
    """Element e0 + e1*theta + e2*theta^2 of E(theta) with theta^3 = b.

    The numerators sit on the Q-basis theta^k w^j (j < 2) at slot 2k + j.
    Each radicand b has its own subclass, made by _cubic_field.
    """

    __slots__ = ()
    _order = 3

    def __new__(cls, *coeffs, b):
        return object.__new__(_cubic_field(_as_quad(b)))

    def __init__(self, e0, e1=QUAD_ZERO, e2=QUAD_ZERO, *, b):
        self.num, self.den = _join([_as_quad(e) for e in (e0, e1, e2)])

    coeffs = property(lambda self: tuple(
        QuadElem._new(*_lowest_terms(self.num[k:k + 2], self.den)) for k in (0, 2, 4)))

    @classmethod
    def scalar(cls, v, b: QuadElem) -> "CubicExtElem":
        return cls(v, b=b)

    def from_E(self, e) -> "CubicExtElem":
        e = _as_quad(e)
        return self._new(e.num + (0,) * 4, e.den)

    def from_rationals(self, qs) -> "CubicExtElem":
        """The element with coordinates qs on the basis theta^k, theta^k w."""
        return self._new(*_over_one_denominator(qs))

    _in_E = staticmethod(lambda num: None if any(num[2:]) else num[:2])

    def __reduce__(self):    # copy and pickle rebuild it in its radicand's subclass
        return functools.partial(CubicExtElem, b=self.b), self.coeffs

    def __repr__(self):
        return f"CubicExtElem({', '.join(map(repr, self.coeffs))}, b={self.b!r})"


@functools.cache
def _cubic_field(b: QuadElem) -> type:
    """The subclass of CubicExtElem for theta^3 = b = (x + y w)/d, made once per
    radicand, with its kernels compiled once.  theta^k w^j times
    theta^m w^i is w^(i+j), by E's product, at theta^(k+m), and theta^3 = b;
    the product's tensor holds d times it, (x + y w) in place of d b, over d.
    The product by w is read from it; the Galois generator sends theta^k w^j
    to zeta_3^k theta^k w^j."""
    def at(k, e):   # e theta^k on the six slots
        out = [0] * 6
        out[2 * k:2 * k + 2] = e.num
        return out

    def product(s, t):   # of slots s and t, over d
        (k, j), (m, i) = divmod(s, 2), divmod(t, 2)
        return at((k + m) % 3, (b * b.den if k + m >= 3 else QuadElem(b.den)) * w ** (i + j))

    w = QuadElem(0, 1)
    mul = _bilinear_kernel("numberfield E(theta).product", 6, product)
    return type("CubicExtElem", (CubicExtElem,), {
        "__slots__": (), "b": b, "_product_den": b.den, "_product": staticmethod(mul),
        "_times_w": staticmethod(_times_w_kernel(
            "numberfield E(theta).times_w", mul, (0, 1, 0, 0, 0, 0), b.den)),
        "_galois": staticmethod(_linear_kernel(
            "numberfield E(theta).rho", [at(k, ZETA3_E ** k * w ** j)
                                         for k in range(3) for j in range(2)])),
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
    if p == 3:
        return RAMIFIED, None
    # the order of p mod 9 divides phi(9) = 6
    return (SPLIT if p % 3 == 1 else INERT), next(k for k in (1, 2, 3, 6) if pow(p, k, 9) == 1)


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
