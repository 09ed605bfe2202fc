"""Acceptance suite: end-to-end verification battery.

Each test below is one acceptance criterion.  Tolerances are pinned:
1e-9 for spectral assertions, 1e-10 for archimedean (floating) checks;
everything else is exact rational/cyclotomic arithmetic.

Known honest failure: criterion 2 asserts that the involution is an
anti-automorphism for BOTH algebra kinds.  For the non-Galois kind the
explicit coefficient-grid formula satisfies alpha^2 = id and restricts to
conjugation on E, but it is provably NOT anti-multiplicative (applying
anti-multiplicativity to the defining relation z*theta = zeta_3*theta*z
would force conj(zeta_3) = zeta_3).  The test states the criterion as
given and is expected to fail on that sub-check; README, "Known
limitation", gives the full analysis.
"""

import math
import random

import numpy as np
import pytest

from ramanujan_bigraphs import algebra, graphs, lattices, trees
from ramanujan_bigraphs.numberfield import local_norm_obstruction

SPECTRAL_TOL = 1e-9
ARCH_TOL = 1e-10


# ---------------------------------------------------------------------------
# 1. Built-in example: the three construction conditions, exactly
# ---------------------------------------------------------------------------

def test_1_builtin_example_conditions():
    params = algebra.example_galois_params()
    rep = algebra.check_theorem_conditions(params)
    assert rep.unit_norm_condition is True          # (ii) a tau(a) = 1
    assert rep.commuting_condition is True          # (iii) tau rho = rho tau
    assert rep.division_condition is True           # (i) via local obstruction
    assert rep.witness_prime_a == 7 and rep.witness_prime_a2 == 7

    obs_a = local_norm_obstruction(params.a, 7)
    assert sorted(v % 3 for v in obs_a.valuations) == [1, 2]
    assert obs_a.obstructed
    obs_a2 = local_norm_obstruction(params.a * params.a, 7)
    assert sorted(v % 3 for v in obs_a2.valuations) == [1, 2]
    assert set(v % 3 for v in obs_a2.valuations) == {2, 1}
    assert obs_a2.obstructed


# ---------------------------------------------------------------------------
# 2. Involution suite on 1000 seeded random elements, both kinds, exact
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "params",
    [algebra.example_galois_params(), algebra.example_nongalois_params()],
    ids=["galois", "nongalois"],
)
def test_2_involution_suite(params):
    failures = algebra.involution_failures(params, 1000, random.Random(20260823))
    assert failures == {k: 0 for k in failures}, (
        f"involution suite failures for kind={params.kind}: {failures} "
        "(non-Galois anti-multiplicativity is a known honest failure; "
        "see module docstring)"
    )


# ---------------------------------------------------------------------------
# 3. Archimedean compactness signature at 1e-10
# ---------------------------------------------------------------------------

def test_3_archimedean_signature():
    assert algebra.ARCHIMEDEAN_TOLERANCE == ARCH_TOL
    params = algebra.example_galois_params()
    rng = random.Random(3)
    for _ in range(100):
        d = algebra.random_special_unitary(params, rng)
        m = algebra.matrix_at_infinity(d)
        assert np.max(np.abs(m.conj().T @ m - np.eye(3))) < ARCH_TOL
        assert abs(np.linalg.det(m) - 1) < ARCH_TOL
    for _ in range(100):
        t = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(t) < 1e-3:
            t = 1.0 + 1.0j
        assert algebra.verify_noncompact_torus(t)
        t0, t1, t2 = algebra.torus_point(t)
        eps = 1.0 + rng.uniform(0.01, 0.2)     # multiplicative perturbation
        assert not algebra.triple_is_unitary_norm_one((t0 * eps, t1, t2))


# ---------------------------------------------------------------------------
# 4. Prime classifier vs the brute-force oracle, all odd primes < 10^4
# ---------------------------------------------------------------------------

def test_4_good_primes_oracle():
    sieve = np.ones(10_000, dtype=bool)
    sieve[:2] = False
    for i in range(2, 100):
        if sieve[i]:
            sieve[i * i :: i] = False
    primes = [int(p) for p in np.nonzero(sieve)[0] if p % 2 == 1]
    for p in primes:
        cls = lattices.classify_prime(p)
        if p == 3:
            assert cls.cls == lattices.RAMIFIED
            continue
        oracle_split = any((x * x + 3) % p == 0 for x in range(p))
        assert (cls.cls == lattices.SPLIT) == oracle_split, p
        assert cls.good == (p % 12 in (5, 11)), p


# ---------------------------------------------------------------------------
# 5. Ramanujan certification battery at 1e-9
# ---------------------------------------------------------------------------

def _random_connected_bigraph(index: int) -> graphs.Graph:
    """Deterministic connected random biregular graph #index (n <= 60)."""
    for attempt in range(50):
        rng = random.Random(index * 7919 + attempt)
        m = rng.randint(2, 5)
        ratio = rng.randint(2, 4)
        l = m * ratio
        n1 = rng.randint(2, 8)
        n2 = n1 * ratio
        if l > n2 - 1 or m > n1 or n1 + n2 > 60:
            continue
        try:
            g = graphs.random_biregular(n1, n2, l, m, seed=index * 1000 + attempt)
        except graphs.GraphClassError:
            continue
        if graphs.analyze_structure(g).connected:
            return g
    raise AssertionError(f"could not build connected bigraph #{index}")


def test_5_certification_battery():
    assert graphs.DEFAULT_TOLERANCE == SPECTRAL_TOL
    for k in range(2, 9):
        assert graphs.certify_ramanujan(graphs.complete_bipartite(k, k)).is_ramanujan
    for l in range(2, 7):
        for m in range(2, 7):
            if l == m:
                continue
            cert = graphs.certify_ramanujan(graphs.complete_bipartite(l, m))
            assert not cert.is_ramanujan          # lambda = 0 below the lower bound
            assert cert.lam < SPECTRAL_TOL
    for n in range(2, 17):
        assert graphs.certify_ramanujan(graphs.cycle(2 * n)).is_ramanujan
    for index in range(200):
        g = _random_connected_bigraph(index)
        cert = graphs.certify_ramanujan(g)
        assert cert.def22 == cert.def23           # definition equivalence


# ---------------------------------------------------------------------------
# 6. Spectral multiset structure of 200 random connected bigraphs (n <= 60)
# ---------------------------------------------------------------------------

def test_6_spectral_multiset_structure():
    """Multiset structure of connected-bigraph spectra.

    The structural claim checked per graph: the spectrum is symmetric,
    contains sqrt(l*m), and consists of +-pairs plus n2 - n1 forced zeros.
    Some lambda_i may themselves vanish (adjacency rank deficiency, e.g.
    K_{3,3}), in which case the zero count exceeds n2 - n1 by an even
    number; the count is therefore >= n2 - n1 with matching parity, and
    equals n2 - n1 exactly in the generic full-rank case, asserted for the
    overwhelming majority of the battery.
    """
    exact_count = 0
    for index in range(200):
        g = _random_connected_bigraph(index)
        profile = graphs.analyze_structure(g).profile
        vals = sorted(graphs.spectrum(g).values)
        n = len(vals)
        assert all(
            abs(vals[i] + vals[-1 - i]) < SPECTRAL_TOL for i in range(n // 2)
        ), index
        top = math.sqrt(profile.l * profile.m)
        assert any(abs(v - top) < SPECTRAL_TOL for v in vals), index
        zeros = sum(1 for v in vals if abs(v) < SPECTRAL_TOL)
        forced = profile.n2 - profile.n1
        assert zeros >= forced and (zeros - forced) % 2 == 0, (index, zeros, forced)
        exact_count += zeros == forced
    assert exact_count >= 180, exact_count


# ---------------------------------------------------------------------------
# 7. Finite special unitary group at q = 2
# ---------------------------------------------------------------------------

def test_7_finite_unitary_group():
    rep1 = lattices.enumerate_su3(2, 1)
    assert rep1.order == 216 == lattices.su3_order_formula(2)

    ring = lattices.ResidueRing(2, 1)

    def mat_mul(a, b):
        return tuple(
            tuple(
                _sum3(ring, [ring.mul(a[i][k], b[k][j]) for k in range(3)])
                for j in range(3)
            )
            for i in range(3)
        )

    def _sum3(r, items):
        out = items[0]
        for it in items[1:]:
            out = r.add(out, it)
        return out

    group = set(rep1.elements)
    assert len(group) == 216
    # full Cayley closure check
    for a in group:
        for b in group:
            assert mat_mul(a, b) in group
    # inverses exist within the set (finite closure implies this, checked anyway)
    identity = tuple(tuple((1, 0) if i == j else (0, 0) for j in range(3)) for i in range(3))
    for a in group:
        assert any(mat_mul(a, b) == identity for b in group)

    rep2 = lattices.enumerate_su3(2, 2)
    assert rep2.kernel_size == 256 == 2 ** 8
    assert rep2.surjective is True
    assert rep2.order == 216 * 256


# ---------------------------------------------------------------------------
# 8. Tree balls for p = 2, radius <= 5
# ---------------------------------------------------------------------------

def test_8_tree_balls():
    p = 2
    l, m = p ** 3 + 1, p + 1
    for radius in range(6):
        ball = trees.biregular_tree_ball(l, m, radius)
        assert list(ball.level_counts) == trees.level_counts_closed_form(l, m, radius)
        assert len(ball.graph.edges) == ball.graph.n - 1       # acyclic
        ident = trees.CoveringCandidate(
            ball, ball.graph, {v: v for v in range(ball.graph.n)}
        )
        assert trees.check_local_covering(ident)


# ---------------------------------------------------------------------------
# 9. Desk-scale substitute for the quotient-graph family
# ---------------------------------------------------------------------------

def test_9_quotient_handshake_contract():
    """The actual congruence-quotient graphs are not reproducible at desk
    scale (no construction algorithm exists for them here); the handshake
    validator is the contract for externally supplied quotient data, checked
    on synthetic graphs of the correct and incorrect bidegrees."""
    g = graphs.random_biregular(3, 9, 9, 3, seed=7)
    assert trees.quotient_handshake_check(g, 2)
    assert trees.quotient_handshake_check(graphs.complete_bipartite(4, 28), 3)
    assert not trees.quotient_handshake_check(graphs.complete_bipartite(2, 2), 2)
    assert not trees.quotient_handshake_check(g, 5)
