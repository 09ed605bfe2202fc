"""Unit tests for prime classification, residue rings, and finite groups."""

import bisect
import itertools
import random
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramanujan_bigraphs.lattices import (
    INERT,
    PRIMES_CEILING,
    RAMIFIED,
    SPLIT,
    IndexEntry,
    LatticeError,
    ResidueRing,
    _CodeTables,
    _su3_lift,
    _unitary_det_mask,
    classify_prime,
    congruence_tower,
    enumerate_su3,
    good_primes_up_to,
    sl3_order_formula,
    su3_order_formula,
)
from ramanujan_bigraphs.numberfield import QuadElem, is_prime


def test_classification_examples():
    assert classify_prime(3).cls == RAMIFIED and not classify_prime(3).good
    assert classify_prime(5).cls == INERT and classify_prime(5).good
    assert classify_prime(7).cls == SPLIT and not classify_prime(7).good
    assert classify_prime(2).cls == INERT and classify_prime(2).good
    with pytest.raises(LatticeError):
        classify_prime(9)


def test_mod12_rule():
    for p in range(5, 2000):
        if not is_prime(p):
            continue
        cls = classify_prime(p)
        assert cls.good == (p % 12 in (5, 11))


def test_good_primes():
    assert good_primes_up_to(30) == [2, 5, 11, 17, 23, 29]
    assert good_primes_up_to(4) == [2]
    for bound in (1, PRIMES_CEILING + 1, 10 ** 15):   # 10^15 raised MemoryError
        with pytest.raises(LatticeError):
            good_primes_up_to(bound)


def test_good_primes_match_the_primality_test():
    # the sieve against Miller-Rabin and the congruence rule for inert primes
    want = [p for p in range(2, 20_001) if is_prime(p) and p % 3 == 2]
    for n in [*range(2, 3001), 20_000]:
        assert good_primes_up_to(n) == want[:bisect.bisect_right(want, n)], n


def test_residue_ring_f4():
    r = ResidueRing(2, 1)
    omega = (0, 1)
    assert r.norm(omega) == 1
    assert r.mul(omega, r.conj(omega)) == r.one
    # F4 multiplicative group has order 3
    x = omega
    for _ in range(3):
        x = r.mul(x, omega)
    assert x == omega


def test_residue_ring_split():
    # split q uses the omega basis too: conj(2 + 5w) = 7 - 5w, norm 4 + 10 + 25 = 39
    r = ResidueRing(7, 1)
    assert r.conj((2, 5)) == (0, 2)
    assert r.norm((2, 5)) == 4
    assert r.norm((4, 1)) == 0     # w - 3: 3 is a square root of -3 mod 7
    with pytest.raises(LatticeError):
        r.inv((4, 1))        # zero divisor


@settings(max_examples=50, deadline=None)
@given(q=st.sampled_from([2, 5, 7, 13]), n=st.sampled_from([1, 2]),
       a=st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6)),
       b=st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6)))
def test_residue_ring_is_quadelem_mod_q_power(q, n, a, b):
    # O_E/q^n is Z[w] reduced mod q^n, for inert and split q alike
    r = ResidueRing(q, n)
    ea, eb = QuadElem(*a), QuadElem(*b)

    def reduced(e):
        return r.element(int(e.x), int(e.y))

    assert r.mul(r.element(*a), r.element(*b)) == reduced(ea * eb)
    assert r.conj(r.element(*a)) == reduced(ea.conj())
    assert r.norm(r.element(*a)) == int(ea.norm()) % r.modulus


def test_residue_ring_norm_multiplicative():
    rng = random.Random(0)
    for q, n in ((2, 2), (5, 1), (7, 1)):
        r = ResidueRing(q, n)
        for _ in range(200):
            a = r.element(rng.randrange(r.modulus), rng.randrange(r.modulus))
            b = r.element(rng.randrange(r.modulus), rng.randrange(r.modulus))
            assert r.norm(r.mul(a, b)) == (r.norm(a) * r.norm(b)) % r.modulus


@pytest.mark.parametrize("q, n", [(2, 1), (2, 2), (5, 1), (7, 1)])
def test_residue_ring_arrays_match_scalars(q, n):
    # the SU_3 enumerator applies the ring operations to whole numpy arrays
    r = ResidueRing(q, n)
    rng = np.random.default_rng(100 * q + n)
    a = tuple(rng.integers(0, r.modulus, 64) for _ in range(2))
    b = tuple(rng.integers(0, r.modulus, 64) for _ in range(2))
    for op, args in ((r.add, (a, b)), (r.sub, (a, b)), (r.mul, (a, b)), (r.conj, (a,))):
        got = op(*args)
        for k in range(64):
            scalar = op(*((int(v[0][k]), int(v[1][k])) for v in args))
            assert (int(got[0][k]), int(got[1][k])) == scalar


@pytest.mark.parametrize("q, n", [(2, 1), (2, 2), (5, 1), (5, 2), (7, 1), (7, 2)])
def test_code_tables_match_the_ring(q, n):
    # every entry, on every pair of codes c = x + m*y, against ResidueRing's
    # array formulas; a seeded sample against its scalar formulas too
    r = ResidueRing(q, n)
    m = r.modulus
    t = _CodeTables(r)
    assert t.code_dtype == (np.uint8 if m * m <= 256 else np.uint16)
    assert t.index_dtype == (np.uint16 if m ** 4 <= 65536 else np.uint32)
    y, x = np.divmod(np.arange(m * m), m)

    def decoded(table):
        return tuple(np.divmod(table.astype(np.int64), m)[::-1])

    for rows in np.array_split(np.arange(m * m), m):    # m^2 / m rows at a time
        a, b = (x[rows, None], y[rows, None]), (x[None], y[None])
        for table, want in ((t.mul, r.mul(a, b)), (t.add, r.add(a, b)),
                            (t.sub, r.sub(a, b)), (t.herm, r.mul(r.conj(a), b))):
            got = decoded(table.reshape(m * m, m * m)[rows])
            assert all((g == w).all() for g, w in zip(got, want))
    assert all((g == w).all() for g, w in zip(decoded(t.conj), r.conj((x, y))))
    assert (t.norm == r.norm((x, y))).all()

    def code(e):
        return e[0] + m * e[1]

    rng = random.Random(m)
    for _ in range(200):
        ca, cb = rng.randrange(m * m), rng.randrange(m * m)
        ea, eb = (ca % m, ca // m), (cb % m, cb // m)
        pair = np.array([ca], t.code_dtype), np.array([cb], t.code_dtype)
        for table, want in ((t.mul, r.mul(ea, eb)), (t.add, r.add(ea, eb)),
                            (t.sub, r.sub(ea, eb)), (t.herm, r.mul(r.conj(ea), eb))):
            assert int(t.op(table, *pair)[0]) == code(want)
        assert int(t.conj[ca]) == code(r.conj(ea))
        assert int(t.norm[ca]) == r.norm(ea)


def test_residue_ring_rejects_ramified():
    with pytest.raises(LatticeError):
        ResidueRing(3, 1)


def test_order_formulas():
    assert su3_order_formula(2) == 216
    assert sl3_order_formula(7) == 343 * 342 * 48


def test_enumerate_su3_preconditions():
    with pytest.raises(LatticeError):
        enumerate_su3(7, 1)            # split
    with pytest.raises(LatticeError):
        enumerate_su3(5, 1)            # 5^18 exceeds the ceiling
    with pytest.raises(LatticeError):
        enumerate_su3(2, 3)


def test_enumerate_su3_level1():
    rep = enumerate_su3(2, 1)
    assert rep.order == 216 == su3_order_formula(2)
    assert len(rep.elements) == 216
    identity = tuple(
        tuple((1, 0) if i == j else (0, 0) for j in range(3)) for i in range(3)
    )
    assert identity in rep.elements


def test_enumerate_su3_level1_matches_full_scan():
    # reference: scan all 2^18 matrices over O_E/2 in base-2 index order; digit k
    # of the index sum_k d_k 2^k is x_ij for k = 3i + j and y_ij for k = 9 + 3i + j
    digits = np.indices((2,) * 18).reshape(18, -1)[::-1].T
    x, y = digits[:, :9].reshape(-1, 3, 3), digits[:, 9:].reshape(-1, 3, 3)
    keep = np.nonzero(_unitary_det_mask(x, y, ResidueRing(2)))[0]
    scanned = tuple(
        tuple(tuple((int(x[k, i, j]), int(y[k, i, j])) for j in range(3)) for i in range(3))
        for k in keep
    )
    assert enumerate_su3(2, 1).elements == scanned


@pytest.fixture(scope="module")
def su3_level2_fibres():
    """The level-1 elements at q = 2 and the fibres of SU_3(O/4) over them."""
    level1 = np.array(enumerate_su3(2, 1).elements)
    t = _CodeTables(ResidueRing(2, 2))
    g, base = _su3_lift(t, t.encode(level1[..., 0], level1[..., 1]))
    return level1, (*t.decode(g.astype(np.int64)), base)


def _all_pairs_lift(bx, by, s, ring):
    """The lift search before the join, as the reference: every matrix
    g + s*M in SU_3(ring), M over O_E/q, for the bases g = bx + by*omega of
    shape (B, 3, 3).  Every pair of unit lifted columns of a base is tested for
    orthogonality, completed with conj(c0 x c1) and decided by the mask.
    Returns the code matrices found and the index of the base of each."""
    t = _CodeTables(ring)
    grid = np.indices((ring.q,) * 6).reshape(2, 3, -1).transpose(0, 2, 1)   # the q^6 columns
    lifted = [t.encode(bx[:, None, :, j] + s * grid[0], by[:, None, :, j] + s * grid[1])
              for j in (0, 1)]
    unit0, unit1 = (t.total(t.norm[c]) == 1 for c in lifted)
    base, k0 = np.nonzero(unit0)
    pair, k1 = np.nonzero(unit1[base])            # the unit columns 1 of the same base
    c0, c1 = lifted[0][base, k0][pair], lifted[1][base[pair], k1]
    orth = np.flatnonzero(t.hermitian(c0, c1) == 0)
    base, c0, c1 = base[pair[orth]], c0[orth], c1[orth]
    i1, i2 = [1, 2, 0], [2, 0, 1]
    c2 = t.conj[t.cross(c0[:, i1], c1[:, i2], c0[:, i2], c1[:, i1])]
    g = np.stack([c0, c1, c2], axis=-1)
    keep = t.unitary_det_mask(g)
    return g[keep], base[keep]


def _sorted_rows(g, base):
    """The multiset of (base, matrix) as rows in lexicographic order."""
    rows = np.column_stack([base, g.reshape(len(g), 9)]).astype(np.int64)
    return rows[np.lexsort(rows.T[::-1])]


@pytest.mark.parametrize("over", ["level1", "identity"])
def test_su3_lift_matches_all_pairs_reference(over):
    # q = 2: the join against the all-pairs filter, over all 216 level-1
    # elements (the fibres) and over I alone (the kernel)
    level1 = np.array(enumerate_su3(2, 1).elements)
    bx, by = (level1[..., 0], level1[..., 1]) if over == "level1" else (
        np.eye(3, dtype=np.int64)[None], np.zeros((1, 3, 3), dtype=np.int64))
    ring = ResidueRing(2, 2)
    t = _CodeTables(ring)
    got = _sorted_rows(*_su3_lift(t, t.encode(bx, by)))
    want = _sorted_rows(*_all_pairs_lift(bx, by, 2, ring))
    assert len(got) == len(bx) * 2 ** 8
    assert np.array_equal(got, want)


def _adjugate(g, ring):
    def cofactor(i, j):
        r, c = [k for k in range(3) if k != i], [k for k in range(3) if k != j]
        minor = ring.sub(ring.mul(g[r[0]][c[0]], g[r[1]][c[1]]),
                         ring.mul(g[r[0]][c[1]], g[r[1]][c[0]]))
        return minor if (i + j) % 2 == 0 else ring.sub((0, 0), minor)

    return tuple(tuple(cofactor(j, i) for j in range(3)) for i in range(3))


def test_su3_conj_transpose_is_adjugate(su3_level2_fibres):
    # conj(g)^T = g^-1 = adj(g) on SU_3: the law the column-pair pruning rests on
    _, (x, y, _) = su3_level2_fibres
    picks = np.random.default_rng(9).choice(len(x), 300, replace=False)
    level2 = [tuple(tuple(zip(xr, yr)) for xr, yr in zip(x[k].tolist(), y[k].tolist()))
              for k in picks]
    for ring, group in ((ResidueRing(2), enumerate_su3(2, 1).elements),
                        (ResidueRing(2, 2), level2)):
        for g in group:
            conj_t = tuple(tuple(ring.conj(g[j][i]) for j in range(3)) for i in range(3))
            assert conj_t == _adjugate(g, ring)


def _is_su3(g, ring):
    """conj(g)^T g = I and det(g) = 1, entry by entry in ResidueRing tuples."""
    cols = list(zip(*g))
    for i in range(3):
        for j in range(3):
            if ring.hermitian(cols[i], cols[j]) != (ring.one if i == j else (0, 0)):
                return False
    adj = _adjugate(g, ring)
    det = (0, 0)
    for j in range(3):
        det = ring.add(det, ring.mul(g[0][j], adj[j][0]))
    return det == ring.one


def _block_products(ring, rng):
    """A sampler of products of SU_2 blocks [[a, b], [-conj(b), conj(a)]]
    (N(a) + N(b) = 1) and unit diagonals over ``ring``, a column of each
    scaled by a norm-1 unit half the time."""
    m = ring.modulus
    elements = [(x, y) for x in range(m) for y in range(m)]
    by_norm = {}
    for e in elements:
        by_norm.setdefault(ring.norm(e), []).append(e)
    units = by_norm[1]

    def matmul(g, h):
        return [[reduce(ring.add, (ring.mul(g[i][k], h[k][j]) for k in range(3)))
                 for j in range(3)] for i in range(3)]

    def built():
        u, v = rng.choice(units), rng.choice(units)
        g = [[u, (0, 0), (0, 0)], [(0, 0), v, (0, 0)], [(0, 0), (0, 0), ring.conj(ring.mul(u, v))]]
        for _ in range(3):
            a = rng.choice(elements)
            while (1 - ring.norm(a)) % m not in by_norm:
                a = rng.choice(elements)
            b = rng.choice(by_norm[(1 - ring.norm(a)) % m])
            i, j = rng.sample(range(3), 2)
            block = [[ring.one if r == c else (0, 0) for c in range(3)] for r in range(3)]
            block[i][i], block[i][j] = a, b
            block[j][i], block[j][j] = ring.sub((0, 0), ring.conj(b)), ring.conj(a)
            g = matmul(g, block)
        if rng.random() < 0.5:
            w = rng.choice(units)
            g = [[ring.mul(row[0], w), row[1], row[2]] for row in g]
        return g

    return built


@pytest.mark.parametrize("q", [5, 7])
def test_unitary_det_mask_matches_scalar_reference(q):
    # over O_E/25 (inert) and O_E/49 (split): 1,000 products of SU_2 blocks
    # (``_block_products``) and 1,000 random matrices
    ring = ResidueRing(q, 2)
    m = ring.modulus
    rng = random.Random(q)
    elements = [(x, y) for x in range(m) for y in range(m)]
    built = _block_products(ring, rng)
    mats = [built() for _ in range(1000)]
    mats += [[[rng.choice(elements) for _ in range(3)] for _ in range(3)] for _ in range(1000)]
    arr = np.array(mats)
    mask = _unitary_det_mask(arr[..., 0], arr[..., 1], ring)
    want = [_is_su3(g, ring) for g in mats]
    assert mask.tolist() == want
    assert 300 < sum(want) < 1000


def test_su3_lift_at_q5_gives_q8_lifts():
    # over I and over one g in SU_3(O_E/5) built from SU_2 blocks: 5^8 = 390,625
    # distinct lifts each, every one reducing to its base; that is the whole
    # fibre, so the mask rejected none
    ring = ResidueRing(5)
    built = _block_products(ring, random.Random(5))
    off_diagonal = list(itertools.permutations(range(3), 2))
    g = built()
    while not _is_su3(g, ring) or all(g[i][j] == (0, 0) for i, j in off_diagonal):
        g = built()
    ring2 = ResidueRing(5, 2)
    t = _CodeTables(ring2)
    for base in (np.eye(3, dtype=np.int64)[..., None] * [1, 0], np.array(g)):
        lifts, index = _su3_lift(t, t.encode(base[None, ..., 0], base[None, ..., 1]))
        assert len(lifts) == 5 ** 8 and not index.any()
        x, y = t.decode(lifts.reshape(-1, 9).astype(np.int64))
        assert (x % 5 == base[..., 0].ravel()).all() and (y % 5 == base[..., 1].ravel()).all()
        digits = np.concatenate([x // 5, y // 5], axis=1)          # M, 18 base-5 digits
        assert len(np.unique(digits @ 5 ** np.arange(18))) == 5 ** 8
        picks = np.random.default_rng(5).choice(len(lifts), 100, replace=False)
        assert all(_is_su3(np.stack([x[k], y[k]], -1).reshape(3, 3, 2).tolist(), ring2)
                   for k in picks)


def test_su3_level2_fibres_are_kernel_cosets(su3_level2_fibres):
    level1, (_, _, base) = su3_level2_fibres
    rep = enumerate_su3(2, 2)
    counts = np.bincount(base, minlength=len(level1))
    assert (counts == rep.kernel_size).all()
    assert counts.sum() == rep.order == 216 * 256


def test_congruence_tower_split_formula():
    entries = congruence_tower(7, 3, p=5)
    assert [e.index for e in entries] == [sl3_order_formula(7), 7 ** 8, 7 ** 8]
    assert [e.method for e in entries] == ["formula", "formula", "formula"]
    assert all(e.index > 1 for e in entries)


def test_congruence_tower_level1_only():
    assert congruence_tower(2, 1, p=5) == [IndexEntry(0, 216, "enumerated")]


def test_congruence_tower_inert_formula():
    entries = congruence_tower(5, 2, p=2)   # 5^18 candidates: too many to enumerate
    assert [e.index for e in entries] == [su3_order_formula(5), 5 ** 8]
    assert entries[0].method == "formula"


def test_congruence_tower_preconditions():
    with pytest.raises(LatticeError):
        congruence_tower(5, 2, p=5)
    with pytest.raises(LatticeError):
        congruence_tower(3, 2, p=5)
    with pytest.raises(LatticeError):
        congruence_tower(5, 0, p=2)
