"""Reference answers computed without the code under test.

Everything here is written from the mathematics, not from the package: exact
arithmetic in Q(sqrt(-3)), Q(zeta_9) and the Galois-kind cyclic algebra on
plain tuples of Fractions; bigraph spectra from ``numpy.linalg.svd`` of the
biadjacency matrix; closed-form tree level counts; the mod-12 rule for good
primes; and the orders of SU_3 over O_E/2^n.  The workloads call these only
outside an op's timed interval.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# E = Q(sqrt(-3)) on {1, w}, w^2 = w - 1; elements are pairs (x, y).
# ---------------------------------------------------------------------------

E_ONE = (Fraction(1), Fraction(0))


def e_mul(a, b):
    # (x1 + y1 w)(x2 + y2 w) = x1 x2 - y1 y2 + (x1 y2 + y1 x2 + y1 y2) w
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0] + a[1] * b[1])


def e_conj(a):
    # conj(w) = 1 - w
    return (a[0] + a[1], -a[1])


# ---------------------------------------------------------------------------
# L = Q(zeta_9) on the power basis mod Phi_9 = x^6 + x^3 + 1; 6-tuples.
# ---------------------------------------------------------------------------

L_ZERO = (Fraction(0),) * 6
L_ONE = (Fraction(1),) + (Fraction(0),) * 5


def _reduce9(c):
    """Fold exponents 6.. down with x^k = -x^(k-3) - x^(k-6)."""
    c = list(c)
    for k in range(len(c) - 1, 5, -1):
        v = c[k]
        if v:
            c[k - 3] -= v
            c[k - 6] -= v
    return tuple(c[:6])


def l_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def l_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def l_mul(a, b):
    out = [Fraction(0)] * 11
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _reduce9(out)


def _power_map(a, k):
    out = [Fraction(0)] * 9
    for i, x in enumerate(a):
        out[k * i % 9] += x
    return _reduce9(out)


def l_rho(a):
    """zeta_9 -> zeta_9^4."""
    return _power_map(a, 4)


def l_tau(a):
    """zeta_9 -> zeta_9^8 (complex conjugation)."""
    return _power_map(a, 8)


def l_from_e(e):
    """x + y w with w = 1 + zeta_9^3."""
    x, y = e
    return (x + y, Fraction(0), Fraction(0), y, Fraction(0), Fraction(0))


def l_to_e(a):
    if any(a[i] for i in (1, 2, 4, 5)):
        raise ArithmeticError("element does not lie in E")
    return (a[0] - a[3], a[3])


def l_norm(a):
    r = l_rho(a)
    return l_to_e(l_mul(l_mul(a, r), l_rho(r)))


# ---------------------------------------------------------------------------
# Galois-kind algebra D = L + L z + L z^2, z l = rho(l) z, z^3 = a.
# ---------------------------------------------------------------------------


def d_mul(d, e, a):
    """Product of L-triples: sum_{i,j} l_i rho^i(m_j) z^(i+j), z^3 = a."""
    al = l_from_e(a)
    out = [L_ZERO, L_ZERO, L_ZERO]
    for i, li in enumerate(d):
        for j, mj in enumerate(e):
            m = mj
            for _ in range(i):
                m = l_rho(m)
            t = l_mul(li, m)
            if i + j >= 3:
                t = l_mul(al, t)
            out[(i + j) % 3] = l_add(out[(i + j) % 3], t)
    return tuple(out)


def d_involution(d, a):
    """(l0, l1, l2) -> (tau l0, conj(a) tau rho l2, conj(a) tau rho^2 l1)."""
    ta = l_from_e(e_conj(a))
    l0, l1, l2 = d
    return (l_tau(l0), l_mul(ta, l_tau(l_rho(l2))), l_mul(ta, l_tau(l_rho(l_rho(l1)))))


def d_reduced_norm(d, a):
    """Determinant of the left-regular image, computed in L, landing in E."""
    al = l_from_e(a)
    l0, l1, l2 = d
    r = [l_rho(x) for x in d]
    rr = [l_rho(x) for x in r]
    m = [
        [l0, l1, l2],
        [l_mul(al, r[2]), r[0], r[1]],
        [l_mul(al, rr[1]), l_mul(al, rr[2]), rr[0]],
    ]

    def minor(i1, j1, i2, j2):
        return l_sub(l_mul(m[i1][j1], m[i2][j2]), l_mul(m[i1][j2], m[i2][j1]))

    det = l_add(
        l_sub(l_mul(m[0][0], minor(1, 1, 2, 2)), l_mul(m[0][1], minor(1, 0, 2, 2))),
        l_mul(m[0][2], minor(1, 0, 2, 1)),
    )
    return l_to_e(det)


def d_scalar(e):
    return (l_from_e(e), L_ZERO, L_ZERO)


# ---------------------------------------------------------------------------
# Number theory
# ---------------------------------------------------------------------------


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def good_primes(n: int):
    """Inert primes of Z[omega] up to n: 2, and p = 5, 11 mod 12."""
    return [p for p in range(2, n + 1) if is_prime(p) and (p == 2 or p % 12 in (5, 11))]


def splitting(p: int):
    """(kind, residue degree in Q(zeta_9)) by the rules p = 1 mod 3 splits and
    the residue degree is the order of p mod 9."""
    if p == 3:
        return "ramified", None
    f = next(k for k in range(1, 7) if pow(p, k, 9) == 1)
    return ("split" if p % 3 == 1 else "inert"), f


SU3_LEVEL1_ORDER_Q2 = 216            # |SU_3(F_4/F_2)| = 2^3 (2^2 - 1)(2^3 + 1)
SU3_KERNEL_Q2 = 2 ** 8               # kernel of reduction mod 2, dim SU_3 = 8


def su3_order(q: int) -> int:
    return q ** 3 * (q * q - 1) * (q ** 3 + 1)


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


def biregular_edges(n1: int, l: int, m: int, rng: random.Random):
    """Simple (l, m)-biregular bigraph on n1 + n1*l/m vertices: a random stub
    pairing, then random switches until no edge repeats."""
    n2 = n1 * l // m
    left = [u for u in range(n1) for _ in range(l)]
    right = [n1 + v for v in range(n2) for _ in range(m)]
    rng.shuffle(right)
    count = {}
    for u, v in zip(left, right):
        count[(u, v)] = count.get((u, v), 0) + 1
    while True:
        bad = [i for i, (u, v) in enumerate(zip(left, right)) if count[(u, v)] > 1]
        if not bad:
            break
        for i in bad:
            j = rng.randrange(len(left))
            a, b = (left[i], right[i]), (left[j], right[j])
            na, nb = (left[i], right[j]), (left[j], right[i])
            if count[a] > 1 and count.get(na, 0) == 0 and count.get(nb, 0) == 0 and na != nb:
                for key, delta in ((a, -1), (b, -1), (na, 1), (nb, 1)):
                    count[key] = count.get(key, 0) + delta
                right[i], right[j] = right[j], right[i]
    return n1 + n2, sorted(zip(left, right)), tuple([0] * n1 + [1] * n2)


def regular_edges(n: int, k: int, rng: random.Random):
    """Simple k-regular graph on n vertices by stub pairing with rejection."""
    stubs = [v for v in range(n) for _ in range(k)]
    while True:
        rng.shuffle(stubs)
        pairs = [tuple(sorted(stubs[i:i + 2])) for i in range(0, len(stubs), 2)]
        if any(u == v for u, v in pairs):
            continue
        if len(set(pairs)) == len(pairs):
            return sorted(pairs)


def components_and_bipartite(n: int, edges):
    nbr = [[] for _ in range(n)]
    for u, v in edges:
        nbr[u].append(v)
        nbr[v].append(u)
    color = [-1] * n
    comps, bip = 0, True
    for s in range(n):
        if color[s] != -1:
            continue
        comps += 1
        color[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            for v in nbr[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    stack.append(v)
                elif color[v] == color[u]:
                    bip = False
    return comps, bip


def singular_values(n: int, edges, parts=None):
    """Singular values (descending) of the biadjacency matrix when parts are
    given, else of the adjacency matrix."""
    if parts is None:
        a = np.zeros((n, n))
        for u, v in edges:
            a[u, v] = a[v, u] = 1.0
        return np.linalg.svd(a, compute_uv=False)
    left = [v for v in range(n) if parts[v] == 0]
    right = [v for v in range(n) if parts[v] == 1]
    li = {v: i for i, v in enumerate(left)}
    ri = {v: i for i, v in enumerate(right)}
    b = np.zeros((len(left), len(right)))
    for u, v in edges:
        if u in ri:
            u, v = v, u
        b[li[u], ri[v]] = 1.0
    return np.linalg.svd(b, compute_uv=False)


def bigraph_spectrum(sv, n: int):
    """Adjacency eigenvalues of a bigraph: +-sigma_i and n - 2 r zeros."""
    sv = list(sv)
    return sorted(sv + [-s for s in sv] + [0.0] * (n - 2 * len(sv)), reverse=True)


def bigraph_verdict(sv, l: int, m: int, tol: float = 1e-9):
    """lambda = second singular value (the nontrivial spectral radius) and
    the two-sided window |sqrt(l-1) - sqrt(m-1)| <= lambda <= sum."""
    lam = float(sv[1]) if len(sv) > 1 else 0.0
    lo, hi = abs(math.sqrt(l - 1) - math.sqrt(m - 1)), math.sqrt(l - 1) + math.sqrt(m - 1)
    return lam, (lo - tol <= lam <= hi + tol)


def regular_verdict(sv, k: int, tol: float = 1e-9):
    """Non-bipartite connected k-regular graph: |eigenvalues| are the singular
    values of A, the trivial one is k, so lambda is the second."""
    lam = float(sv[1])
    return lam, lam <= 2 * math.sqrt(k - 1) + tol


def odd_cycle_lambda(n: int) -> float:
    """max_{j != 0} |2 cos(2 pi j / n)| = 2 cos(pi / n) for odd n."""
    return 2 * math.cos(math.pi / n)


def tree_level_counts(l: int, m: int, r: int):
    """Ball of the (l, m)-biregular tree rooted on the degree-l side."""
    counts = [1]
    for level in range(1, r + 1):
        if level == 1:
            counts.append(l)
        else:
            counts.append(counts[-1] * ((m if level % 2 == 0 else l) - 1))
    return counts


def expansion(n: int, edges) -> Fraction:
    """min |boundary(W)| / |W| over 0 < |W| <= n/2, by numpy over all subsets."""
    nbr = np.zeros(n, dtype=np.int64)
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    w = np.arange(1, 1 << n, dtype=np.int64)
    bound = np.zeros_like(w)
    size = np.zeros_like(w)
    for v in range(n):
        has = (w >> v) & 1
        size += has
        bound |= np.where(has == 1, nbr[v], 0)
    bound &= ~w
    keep = size <= n // 2
    bsize = np.zeros_like(w)
    for v in range(n):
        bsize += (bound >> v) & 1
    num, den = bsize[keep], size[keep]
    best = Fraction(int(num[0]), int(den[0]))
    for s in range(1, n // 2 + 1):
        sel = den == s
        if sel.any():
            best = min(best, Fraction(int(num[sel].min()), s))
    return best


def is_biregular_simple(n1: int, n2: int, l: int, m: int, edges) -> bool:
    deg = [0] * (n1 + n2)
    for u, v in edges:
        if not (0 <= u < n1 <= v < n1 + n2):
            return False
        deg[u] += 1
        deg[v] += 1
    return (
        len(set(map(tuple, edges))) == len(edges)
        and all(d == l for d in deg[:n1])
        and all(d == m for d in deg[n1:])
    )
