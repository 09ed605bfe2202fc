"""Prime classification for E = Q(sqrt(-3)), residue rings over Z[omega],
exhaustive enumeration of small finite special unitary groups, and
congruence-tower index bookkeeping.

The integral model is O_E = Z[omega] with omega^2 = omega - 1 throughout;
this is the maximal order, so reduction mod 2 is correct (x^2 - x + 1 is
irreducible over F_2, unlike x^2 + 3).  Every residue ring O_E/q^n, inert or
split q, is written in the same omega basis, and its product and
conjugation are E's compiled kernels, ``QuadElem._product`` and
``QuadElem._galois``, reduced mod q^n.

This module computes the finite reduction targets SU_3(O_E / q^n) and the
indices between congruence levels; it never constructs the S-arithmetic
lattices themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import List, Optional, Tuple

import numpy as np

# the splitting kinds are defined in numberfield and re-exported here
from .numberfield import INERT, RAMIFIED, SPLIT, QuadElem, is_prime, splitting_data

DEFAULT_ENUM_CEILING = 10_000_000
PRIMES_CEILING = 10_000_000     # sieve bound: a 10 MB bytearray, about 0.2 s


class LatticeError(Exception):
    """Error raised by this module."""


@dataclass(frozen=True)
class PrimeClass:
    p: int
    cls: str          # ramified | split | inert
    good: bool        # good <=> inert


def classify_prime(p: int) -> PrimeClass:
    """Ramified (p = 3), split (p = 1 mod 3) or inert (p = 2 mod 3), as
    ``numberfield.splitting_data`` decides it; good means inert."""
    try:
        cls, _ = splitting_data(p)
    except ValueError as exc:    # p is not prime
        raise LatticeError(str(exc)) from None
    return PrimeClass(p, cls, cls == INERT)


def good_primes_up_to(n: int) -> List[int]:
    """Ascending inert ('good') primes <= n, from a sieve of Eratosthenes: by
    ``numberfield.splitting_data`` they are 2 and the primes = 2 mod 3."""
    if n < 2:
        raise LatticeError("bound must be >= 2")
    if n > PRIMES_CEILING:
        raise LatticeError(f"bound {n} exceeds the sieve ceiling {PRIMES_CEILING}")
    composite = bytearray(n + 1)
    for p in range(2, math.isqrt(n) + 1):
        if not composite[p]:
            composite[p * p::p] = b"\x01" * len(range(p * p, n + 1, p))
    return [p for p in range(2, n + 1, 3) if not composite[p]]


# ---------------------------------------------------------------------------
# Residue rings O_E / q^n
# ---------------------------------------------------------------------------

class ResidueRing:
    """O_E / q^n = (Z/q^n)[omega]/(omega^2 - omega + 1) for unramified q.

    Elements are pairs (x, y) mod q^n standing for x + y*omega, for inert
    and split q alike (for split q the ring is isomorphic to Z/q^n x Z/q^n).
    The product and conjugation are E's compiled kernels, ``QuadElem._product``
    and ``_galois``, reduced mod q^n: straight-line code, so x and y may also
    be numpy integer arrays.
    """

    one = (1, 0)

    def __init__(self, q: int, n: int = 1):
        if classify_prime(q).cls == RAMIFIED:
            raise LatticeError("ramified residue rings (q = 3) are out of scope")
        if n < 1:
            raise LatticeError("exponent must be >= 1")
        self.q = q
        self.n = n
        self.modulus = q ** n

    def element(self, x: int, y: int) -> Tuple[int, int]:
        return (x % self.modulus, y % self.modulus)

    def add(self, a, b):
        return ((a[0] + b[0]) % self.modulus, (a[1] + b[1]) % self.modulus)

    def sub(self, a, b):
        return ((a[0] - b[0]) % self.modulus, (a[1] - b[1]) % self.modulus)

    def mul(self, a, b):
        return self.element(*QuadElem._product(a, b))

    def conj(self, a):
        return self.element(*QuadElem._galois(a))

    def norm(self, a) -> int:
        """Norm to Z/q^n: a * conj(a), whose omega part is 0."""
        return QuadElem._product(a, QuadElem._galois(a))[0] % self.modulus

    def hermitian(self, u, v):
        """Hermitian product sum_i conj(u_i) v_i of two columns."""
        return reduce(self.add, (self.mul(self.conj(a), b) for a, b in zip(u, v)))

    def inv(self, a):
        nrm = self.norm(a)
        try:
            nrm_inv = pow(nrm, -1, self.modulus)
        except ValueError as exc:
            raise LatticeError(f"{a} is a zero divisor in O_E/{self.q}^{self.n}") from exc
        c = self.conj(a)
        return ((c[0] * nrm_inv) % self.modulus, (c[1] * nrm_inv) % self.modulus)


# ---------------------------------------------------------------------------
# Finite special unitary groups by exhaustive enumeration
# ---------------------------------------------------------------------------

def su3_order_formula(q: int) -> int:
    """|SU_3(F_{q^2}/F_q)| = q^3 (q^2 - 1)(q^3 + 1)."""
    return q ** 3 * (q ** 2 - 1) * (q ** 3 + 1)


def sl3_order_formula(q: int) -> int:
    """|SL_3(F_q)| = q^3 (q^3 - 1)(q^2 - 1)."""
    return q ** 3 * (q ** 3 - 1) * (q ** 2 - 1)


@dataclass(frozen=True)
class FiniteGroupReport:
    q: int
    n: int
    order: int
    level1_order: Optional[int] = None
    kernel_size: Optional[int] = None     # kernel of reduction to level n-1
    surjective: Optional[bool] = None
    elements: Optional[Tuple] = None      # enumerated matrices at n = 1


class _CodeTables:
    """``ring``'s operations as lookup tables on codes c = x + m*y < m^2 of
    the elements x + y*omega of O_E/m, built once by applying ``ResidueRing``'s
    operations to every pair of codes at once.  Codes are uint8 when m^2 <= 256,
    else uint16; a binary op is one ``take`` at index a*m^2 + b."""

    def __init__(self, ring: ResidueRing):
        m = self.m = ring.modulus
        self.size = m * m
        self.code_dtype = np.uint8 if self.size <= 256 else np.uint16
        self.index_dtype = np.uint16 if self.size ** 2 <= 65536 else np.uint32
        a = self.decode(np.arange(self.size, dtype=np.int32))   # products < 3 m^2 < 2^31
        pair = (a[0][:, None], a[1][:, None]), (a[0][None], a[1][None])
        self.mul, self.add, self.sub, self.herm = (
            self.encode(*op(*pair)).ravel()
            for op in (ring.mul, ring.add, ring.sub, lambda u, v: ring.mul(ring.conj(u), v)))
        self.conj, self.norm = self.encode(*ring.conj(a)), self.encode(ring.norm(a), 0)

    def encode(self, x, y):
        return (x % self.m + self.m * (y % self.m)).astype(self.code_dtype)

    def decode(self, c):
        return c % self.m, c // self.m

    def op(self, table, a, b):
        index = a.astype(self.index_dtype)    # then in place: one temporary, not three
        index *= self.size
        index += b
        return table.take(index)

    def total(self, terms):
        """The ring sum of the three entries along the last axis of terms."""
        return self.op(self.add, self.op(self.add, terms[..., 0], terms[..., 1]), terms[..., 2])

    def cross(self, a, b, c, d):
        """a b - c d"""
        return self.op(self.sub, self.op(self.mul, a, b), self.op(self.mul, c, d))

    def hermitian(self, u, v):
        """sum_i conj(u_i) v_i over the last axis of the columns u and v."""
        return self.total(self.op(self.herm, u, v))

    def unitary_det_mask(self, g):
        """Boolean mask of the code matrices g of shape (k, 3, 3) with
        conj-transpose(g) g = I and det(g) = 1."""
        mask = np.ones(len(g), dtype=bool)
        # conj(g)^T g is Hermitian, so its upper triangle decides whether it is I
        for i in range(3):
            for j in range(i, 3):
                mask &= self.hermitian(g[:, :, i], g[:, :, j]) == int(i == j)

        def minor(i1, j1, i2, j2):
            return self.cross(g[:, i1, j1], g[:, i2, j2], g[:, i1, j2], g[:, i2, j1])

        # det = a00 (a11 a22 - a12 a21) - a01 (a10 a22 - a12 a20) + a02 (a10 a21 - a11 a20)
        det = self.op(self.add,
                      self.cross(g[:, 0, 0], minor(1, 1, 2, 2), g[:, 0, 1], minor(1, 0, 2, 2)),
                      self.op(self.mul, g[:, 0, 2], minor(1, 0, 2, 1)))
        return mask & (det == 1)


def _complete(t: _CodeTables, c0, c1):
    """The code matrices [c0, c1, conj(c0 x c1)] of the column pairs c0, c1
    (shape (k, 3) each), and ``unitary_det_mask`` of each."""
    i1, i2 = [1, 2, 0], [2, 0, 1]                       # conj(c0 x c1), all rows at once
    c2 = t.conj[t.cross(c0[:, i1], c1[:, i2], c0[:, i2], c1[:, i1])]
    g = np.stack([c0, c1, c2], axis=-1)
    return g, t.unitary_det_mask(g)


def _su3_level1(t: _CodeTables):
    """SU_3(O_E/q) as code matrices of shape (k, 3, 3), for the tables t of
    O_E/q: every pair of the unit columns in (O_E/q)^3 is tested for
    orthogonality, and the orthogonal pairs are completed as in ``_su3_lift``."""
    grid = np.indices((t.m,) * 6).reshape(2, 3, -1).transpose(0, 2, 1)   # the q^6 columns
    cols = t.encode(grid[0], grid[1])
    units = cols[t.total(t.norm[cols]) == 1]
    c0, c1 = (units[k] for k in np.indices((len(units),) * 2).reshape(2, -1))
    orth = t.hermitian(c0, c1) == 0
    g, keep = _complete(t, c0[orth], c1[orth])
    return g[keep]


def _su3_lift(t: _CodeTables, bases):
    """Every lift g + q*M in SU_3(O_E/q^2), M over O_E/q, of the code matrices
    g of shape (B, 3, 3) in SU_3(O_E/q), for the tables t of O_E/q^2 and
    entries of g in [0, q).  Returns the code matrices found and the index of
    the base each came from.

    For g in SU_3, conj(g)^T = g^-1 = adj(g): columns 0 and 1 are orthonormal
    and column 2 is conj(c0 x c1), the cofactor column.  So the two columns of
    each base are lifted by all of q*(O_E/q)^3 and the unit ones kept.  As
    q^2 = 0, the lifted columns cj = gj + q*Mj satisfy exactly
    <c0, c1> = <c0, g1> + <g0, c1> - <g0, g1>, so c0 and c1 are orthogonal iff
    key0 = <c0, g1> equals key1 = <g0, g1> - <g0, c1>.  The unit c1 are sorted
    by (base, key1), and ``searchsorted`` gives each unit c0 the run of c1 of
    its base with its key: only the orthogonal pairs are formed.

    A completed matrix is always in SU_3.  Over any commutative ring with an
    involution, for unit c0 and c1 with <c0, c1> = 0 and c2 = conj(c0 x c1):
    <c0, c2> = conj(det[c0, c0, c1]) = 0 and <c1, c2> = conj(det[c1, c0, c1]) = 0;
    by the Binet-Cauchy identity (a x b).(c x d) = (a.c)(b.d) - (a.d)(b.c),
    <c2, c2> = (c0 x c1).(conj c0 x conj c1) = <c0, c0><c1, c1> - <c1, c0><c0, c1> = 1;
    and det g = (c0 x c1).c2 = <c2, c2> = 1.  The ``unitary_det_mask`` of
    every completed matrix is kept all the same: the join never computes
    <c0, c1>, so the mask is the one check, matrix by matrix, that the
    identity above and the keys built from it hold.  A fault there would drop
    matrices from the count rather than let a non-member through.
    """
    q = math.isqrt(t.m)
    grid = q * np.indices((q,) * 6).reshape(2, 3, -1).transpose(0, 2, 1)
    step = t.encode(grid[0], grid[1])                   # the q^6 columns q*M
    lifted = [t.op(t.add, np.broadcast_to(bases[:, None, :, j], (len(bases), *step.shape)), step)
              for j in (0, 1)]
    (base0, k0), (base1, k1) = (np.nonzero(t.total(t.norm[c]) == 1) for c in lifted)
    c0, c1 = lifted[0][base0, k0], lifted[1][base1, k1]
    g0, g1 = bases[:, :, 0], bases[:, :, 1]
    key0 = base0 * t.size + t.hermitian(c0, g1[base0])
    key1 = base1 * t.size + t.op(t.sub, t.hermitian(g0, g1)[base1], t.hermitian(g0[base1], c1))
    order = np.argsort(key1, kind="stable")
    key1 = key1[order]
    lo = np.searchsorted(key1, key0)
    count = np.searchsorted(key1, key0, "right") - lo
    i0 = np.repeat(np.arange(len(key0)), count)
    # the pair's rank within the run of its c0, plus where that run starts in key1
    i1 = order[np.arange(len(i0)) + np.repeat(lo - (np.cumsum(count) - count), count)]
    g, keep = _complete(t, c0[i0], c1[i1])
    return g[keep], base0[i0[keep]]


def enumerate_su3(q: int, n: int = 1) -> FiniteGroupReport:
    """Exhaustively enumerate SU_3(O_E/q^n) for inert q whose q^18 candidate
    matrices are within DEFAULT_ENUM_CEILING.

    n = 1 lists SU_3(O_E/q) (``_su3_level1``), ordered as the base-q indices
    sum x_ij q^(3i+j) + y_ij q^(9+3i+j) of the q^18 candidate matrices.
    n = 2 lifts I (the kernel of reduction to level 1) and every level-1
    element (``_su3_lift``), with one set of O_E/q^2 tables: the reduction is
    surjective iff no fibre is empty, and together they are SU_3(O_E/q^2).
    Level-2 matrices are counted, never decoded.
    """
    cls = classify_prime(q)
    if cls.cls != INERT:
        raise LatticeError(
            f"enumeration requires an inert prime; {q} is {cls.cls} "
            f"(use the formula orders instead)"
        )
    if n not in (1, 2):
        raise LatticeError("only levels n = 1, 2 are enumerable")
    if q ** 18 > DEFAULT_ENUM_CEILING:
        raise LatticeError(
            f"candidate count {q}^18 = {q ** 18} exceeds the ceiling {DEFAULT_ENUM_CEILING}; "
            "use formula mode (su3_order_formula)"
        )

    t = _CodeTables(ResidueRing(q))
    x, y = t.decode(_su3_level1(t).astype(np.int64))
    if n == 1:
        # np.lexsort takes its last key as the primary one: digit 17 down to 0
        order = np.lexsort(np.concatenate([x.reshape(-1, 9), y.reshape(-1, 9)], axis=1).T)
        elements = tuple(
            tuple(tuple(zip(xr, yr)) for xr, yr in zip(xm, ym))
            for xm, ym in zip(x[order].tolist(), y[order].tolist())
        )
        return FiniteGroupReport(q=q, n=1, order=len(elements), elements=elements)

    t2 = _CodeTables(ResidueRing(q, 2))
    kernel_size = len(_su3_lift(t2, t2.encode(np.eye(3, dtype=np.int64)[None], 0))[1])
    base = _su3_lift(t2, t2.encode(x, y))[1]
    return FiniteGroupReport(
        q=q, n=2, order=len(base), level1_order=len(x), kernel_size=kernel_size,
        surjective=bool(np.bincount(base, minlength=len(x)).all()),
    )


# ---------------------------------------------------------------------------
# Congruence tower indices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndexEntry:
    k: int            # index [Gamma(q^k) : Gamma(q^(k+1))]
    index: int
    method: str       # enumerated | formula


def congruence_tower(q: int, n_max: int, p: int) -> List[IndexEntry]:
    """Indices [Gamma(q^k) : Gamma(q^(k+1))] for 0 <= k < n_max.

    By strong approximation these equal the kernel sizes of the residue-group
    reductions: the full residue group order at k = 0 and q^8 (the Lie
    algebra dimension of SU_3/SL_3 is 8) for k >= 1.  Enumerated values are
    used where q^18 is within ``DEFAULT_ENUM_CEILING`` (inert q = 2), formula
    values otherwise, each entry method-tagged.  Requires q != p per the construction's hypothesis.
    """
    if not is_prime(p):
        raise LatticeError(f"p = {p} is not prime")
    if q == p:
        raise LatticeError(
            "q must differ from p: the construction requires a prime q not equal to p"
        )
    cls = classify_prime(q)
    if cls.cls == RAMIFIED:
        raise LatticeError("ramified q = 3 towers are out of scope")
    if n_max < 1:
        raise LatticeError("n_max must be >= 1")
    if cls.cls == INERT and q ** 18 <= DEFAULT_ENUM_CEILING:
        report = enumerate_su3(q, min(n_max, 2))
        first = [report.level1_order, report.kernel_size] if n_max > 1 else [report.order]
        method = "enumerated"
    else:
        order = su3_order_formula(q) if cls.cls == INERT else sl3_order_formula(q)
        first, method = [order, q ** 8], "formula"
    entries = [
        IndexEntry(k, first[k], method) if k < 2 else IndexEntry(k, q ** 8, "formula")
        for k in range(n_max)
    ]
    for entry in entries:
        if entry.index <= 1:
            raise LatticeError("tower index not > 1: strict nesting violated")
    return entries
