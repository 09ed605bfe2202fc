"""Prime classification for E = Q(sqrt(-3)), residue rings over Z[omega],
exhaustive enumeration of small finite special unitary groups, and
congruence-tower index bookkeeping.

The integral model is O_E = Z[omega] with omega^2 = omega - 1 throughout;
this is the maximal order, so reduction mod 2 is correct (x^2 - x + 1 is
irreducible over F_2, unlike x^2 + 3).

This module computes the finite reduction targets SU_3(O_E / q^n) and the
indices between congruence levels; it never constructs the S-arithmetic
lattices themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .numberfield import is_prime, splitting_data

DEFAULT_ENUM_CEILING = 10_000_000

RAMIFIED = "ramified"
SPLIT = "split"
INERT = "inert"


class LatticeError(Exception):
    """Error raised by this module."""


@dataclass(frozen=True)
class PrimeClass:
    p: int
    cls: str          # ramified | split | inert
    good: bool        # good <=> inert


def classify_prime(p: int) -> PrimeClass:
    """Ramified (p = 3), split (-3 a square mod p), or inert.

    The class comes from ``splitting_data`` (a brute-force square-root
    search); for p > 3 it is cross-checked against the mod-12 rule (split
    iff p = 1, 7 mod 12).
    """
    if not is_prime(p):
        raise LatticeError(f"{p} is not prime")
    cls, _ = splitting_data(p)
    rule = SPLIT if p % 12 in (1, 7) else INERT
    if p > 3 and cls != rule:
        raise LatticeError(
            f"internal inconsistency: oracle says {cls}, mod-12 rule says {rule} for p={p}"
        )
    return PrimeClass(p, cls, cls == INERT)


def good_primes_up_to(n: int) -> List[int]:
    """Ascending inert ('good') primes <= n."""
    if n < 2:
        raise LatticeError("bound must be >= 2")
    return [p for p in range(2, n + 1) if is_prime(p) and classify_prime(p).good]


# ---------------------------------------------------------------------------
# Residue rings O_E / q^n
# ---------------------------------------------------------------------------

class ResidueRing:
    """O_E / q^n: pairs (x, y) mod q^n.

    inert kind: x + y*omega in (Z/q^n)[omega]/(omega^2 - omega + 1);
    split kind: the product ring (Z/q^n) x (Z/q^n), conjugation swaps
    coordinates.
    """

    def __init__(self, q: int, n: int = 1):
        cls = classify_prime(q)
        if cls.cls == RAMIFIED:
            raise LatticeError("ramified residue rings (q = 3) are out of scope")
        if n < 1:
            raise LatticeError("exponent must be >= 1")
        self.q = q
        self.n = n
        self.kind = cls.cls
        self.modulus = q ** n

    # elements are tuples (x, y) with 0 <= x, y < modulus
    def element(self, x: int, y: int) -> Tuple[int, int]:
        return (x % self.modulus, y % self.modulus)

    @property
    def zero(self) -> Tuple[int, int]:
        return (0, 0)

    @property
    def one(self) -> Tuple[int, int]:
        return (1, 0) if self.kind == INERT else (1, 1)

    def add(self, a, b):
        return ((a[0] + b[0]) % self.modulus, (a[1] + b[1]) % self.modulus)

    def sub(self, a, b):
        return ((a[0] - b[0]) % self.modulus, (a[1] - b[1]) % self.modulus)

    def mul(self, a, b):
        m = self.modulus
        if self.kind == INERT:
            # (x1 + y1 w)(x2 + y2 w) with w^2 = w - 1
            return (
                (a[0] * b[0] - a[1] * b[1]) % m,
                (a[0] * b[1] + a[1] * b[0] + a[1] * b[1]) % m,
            )
        return ((a[0] * b[0]) % m, (a[1] * b[1]) % m)

    def conj(self, a):
        m = self.modulus
        if self.kind == INERT:
            # conj(x + y w) = x + y - y w
            return ((a[0] + a[1]) % m, (-a[1]) % m)
        return (a[1], a[0])

    def norm(self, a) -> int:
        """Norm to Z/q^n: a * conj(a)."""
        m = self.modulus
        if self.kind == INERT:
            return (a[0] * a[0] + a[0] * a[1] + a[1] * a[1]) % m
        return (a[0] * a[1]) % m

    def inv(self, a):
        nrm = self.norm(a)
        try:
            nrm_inv = pow(nrm, -1, self.modulus)
        except ValueError as exc:
            raise LatticeError(f"{a} is a zero divisor in O_E/{self.q}^{self.n}") from exc
        c = self.conj(a)
        return ((c[0] * nrm_inv) % self.modulus, (c[1] * nrm_inv) % self.modulus)

    def elements(self):
        for x in range(self.modulus):
            for y in range(self.modulus):
                yield (x, y)


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
    order_method: str                     # enumerated | formula
    level1_order: Optional[int] = None
    kernel_size: Optional[int] = None     # kernel of reduction to level n-1
    kernel_method: Optional[str] = None
    surjective: Optional[bool] = None
    elements: Optional[Tuple] = None      # enumerated matrices at n = 1

    def as_dict(self) -> Dict:
        out = {
            "q": self.q,
            "n": self.n,
            "order": {"value": self.order, "method": self.order_method},
        }
        if self.level1_order is not None:
            out["level1_order"] = {"value": self.level1_order, "method": "enumerated"}
        if self.kernel_size is not None:
            out["kernel_size"] = {"value": self.kernel_size, "method": self.kernel_method}
        if self.surjective is not None:
            out["surjective"] = self.surjective
        return out


def _enumerate_component_grids(q: int):
    """All q^18 matrices over O_E/q as component arrays X, Y of shape
    (q^18, 3, 3): entry (i, j) is X[.,i,j] + Y[.,i,j] * omega."""
    count = q ** 18
    idx = np.arange(count, dtype=np.int64)
    digits = np.empty((count, 18), dtype=np.int64)
    for k in range(18):
        digits[:, k] = idx % q
        idx //= q
    x = digits[:, :9].reshape(count, 3, 3)
    y = digits[:, 9:].reshape(count, 3, 3)
    return x, y


def _ring_mul_arrays(ax, ay, bx, by, m):
    return (ax * bx - ay * by) % m, (ax * by + ay * bx + ay * by) % m


def _unitary_det_mask(x, y, m):
    """Boolean mask of matrices g (component arrays mod m) with
    conj-transpose(g) g = I and det(g) = 1 in (Z/m)[omega]."""
    cx, cy = (x + y) % m, (-y) % m           # conjugated entries
    # C = conj(g)^T g via einsum over the shared row index
    gx = np.einsum("kti,ktj->kij", cx, x) - np.einsum("kti,ktj->kij", cy, y)
    gy = (
        np.einsum("kti,ktj->kij", cx, y)
        + np.einsum("kti,ktj->kij", cy, x)
        + np.einsum("kti,ktj->kij", cy, y)
    )
    eye = np.eye(3, dtype=np.int64)
    unitary = np.all((gx - eye) % m == 0, axis=(1, 2)) & np.all(gy % m == 0, axis=(1, 2))

    def mul(a, b):
        return _ring_mul_arrays(a[0], a[1], b[0], b[1], m)

    def sub(a, b):
        return (a[0] - b[0]) % m, (a[1] - b[1]) % m

    def entry(i, j):
        return x[:, i, j], y[:, i, j]

    def minor(i1, j1, i2, j2):
        return sub(mul(entry(i1, j1), entry(i2, j2)), mul(entry(i1, j2), entry(i2, j1)))

    # det = a00 (a11 a22 - a12 a21) - a01 (a10 a22 - a12 a20) + a02 (a10 a21 - a11 a20)
    d = sub(mul(entry(0, 0), minor(1, 1, 2, 2)), mul(entry(0, 1), minor(1, 0, 2, 2)))
    last = mul(entry(0, 2), minor(1, 0, 2, 1))
    d = ((d[0] + last[0]) % m, (d[1] + last[1]) % m)
    det_one = ((d[0] - 1) % m == 0) & (d[1] % m == 0)
    return unitary & det_one


def enumerate_su3(
    q: int, n: int = 1, ceiling: int = DEFAULT_ENUM_CEILING
) -> FiniteGroupReport:
    """Exhaustively enumerate SU_3(O_E/q^n) for inert q.

    n = 1 scans all q^18 candidate matrices.  n = 2 enumerates the kernel of
    reduction to level 1 (matrices I + q M) and proves surjectivity of the
    reduction by exhibiting a lift of every level-1 element; the level-2
    order is then (level-1 order) * (kernel size).
    """
    cls = classify_prime(q)
    if cls.cls != INERT:
        raise LatticeError(
            f"enumeration requires an inert prime; {q} is {cls.cls} "
            f"(use the formula orders instead)"
        )
    if n not in (1, 2):
        raise LatticeError("only levels n = 1, 2 are enumerable")
    if q ** 18 > ceiling:
        raise LatticeError(
            f"candidate count {q}^18 = {q ** 18} exceeds the ceiling {ceiling}; "
            "use formula mode (su3_order_formula)"
        )

    x, y = _enumerate_component_grids(q)
    mask1 = _unitary_det_mask(x, y, q)
    idx1 = np.nonzero(mask1)[0]
    level1 = [
        tuple(
            tuple((int(x[k, i, j]), int(y[k, i, j])) for j in range(3))
            for i in range(3)
        )
        for k in idx1
    ]
    order1 = len(level1)
    if n == 1:
        return FiniteGroupReport(
            q=q, n=1, order=order1, order_method="enumerated",
            elements=tuple(level1),
        )

    m = q * q
    # kernel of SU_3(O/q^2) -> SU_3(O/q): elements I + q M, M mod q
    eye_x = np.eye(3, dtype=np.int64)[None]
    kx = (eye_x + q * x) % m
    ky = (q * y) % m
    kernel_mask = _unitary_det_mask(kx, ky, m)
    kernel_size = int(kernel_mask.sum())

    # surjectivity: every level-1 element admits a lift g + q M in chunks
    chunk = 1 << 14
    total = q ** 18
    surjective = True
    for g in level1:
        gx = np.array([[g[i][j][0] for j in range(3)] for i in range(3)], dtype=np.int64)
        gy = np.array([[g[i][j][1] for j in range(3)] for i in range(3)], dtype=np.int64)
        found = False
        for start in range(0, total, chunk):
            sl = slice(start, min(start + chunk, total))
            lx = (gx[None] + q * x[sl]) % m
            ly = (gy[None] + q * y[sl]) % m
            if _unitary_det_mask(lx, ly, m).any():
                found = True
                break
        if not found:
            surjective = False
            break

    order2 = order1 * kernel_size if surjective else -1
    return FiniteGroupReport(
        q=q, n=2, order=order2,
        order_method="enumerated",
        level1_order=order1,
        kernel_size=kernel_size,
        kernel_method="enumerated",
        surjective=surjective,
    )


# ---------------------------------------------------------------------------
# Congruence tower indices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndexEntry:
    k: int            # index [Gamma(q^k) : Gamma(q^(k+1))]
    index: int
    method: str       # enumerated | formula


def congruence_tower(
    q: int, n_max: int, p: int, ceiling: int = DEFAULT_ENUM_CEILING
) -> List[IndexEntry]:
    """Indices [Gamma(q^k) : Gamma(q^(k+1))] for 0 <= k < n_max.

    By strong approximation these equal the kernel sizes of the residue-group
    reductions: the full residue group order at k = 0 and q^8 (the Lie
    algebra dimension of SU_3/SL_3 is 8) for k >= 1.  Enumerated values are
    used where feasible (inert q = 2), formula values otherwise, each entry
    method-tagged.  Requires q != p per the construction's hypothesis.
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
    entries: List[IndexEntry] = []
    enumerable = cls.cls == INERT and q ** 18 <= ceiling
    if enumerable:
        report = enumerate_su3(q, 2, ceiling)
        level0 = IndexEntry(0, report.level1_order, "enumerated")
        level1 = IndexEntry(1, report.kernel_size, "enumerated")
    else:
        order = su3_order_formula(q) if cls.cls == INERT else sl3_order_formula(q)
        level0 = IndexEntry(0, order, "formula")
        level1 = IndexEntry(1, q ** 8, "formula")
    for k in range(n_max):
        if k == 0:
            entries.append(level0)
        elif k == 1:
            entries.append(level1)
        else:
            entries.append(IndexEntry(k, q ** 8, "formula"))
    for entry in entries:
        if entry.index <= 1:
            raise LatticeError("tower index not > 1: strict nesting violated")
    return entries
