"""Unit tests for the cyclic algebra, its involutions, and the
archimedean realization."""

import random
from fractions import Fraction

import numpy as np
import pytest

from ramanujan_bigraphs.numberfield import (
    CycloElem,
    QuadElem,
    ZETA3_E,
    embed_E_in_L,
    galois_rho,
    galois_tau,
    local_norm_obstruction,
    quad_from_sqrt3_basis,
)
from ramanujan_bigraphs.algebra import (
    GALOIS,
    NONGALOIS,
    AlgebraElem,
    AlgebraParams,
    check_theorem_conditions,
    example_galois_params,
    example_nongalois_params,
    inverse,
    involution,
    is_special_unitary,
    matrix_at_infinity,
    matrix_det,
    matrix_mul,
    random_element,
    random_special_unitary,
    realize_at_infinity,
    reduced_norm,
    to_matrix,
    torus_point,
    triple_is_unitary_norm_one,
    verify_noncompact_torus,
    witness_primes,
)

GAL = example_galois_params()
NONGAL = example_nongalois_params()


# ---------------------------------------------------------------------------
# Ring structure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("params", [GAL, NONGAL], ids=["galois", "nongalois"])
def test_z_relations(params):
    z = AlgebraElem.gen_z(params)
    zero = params.one.from_E(0)
    # z l = rho(l) z on the Q-basis of L: zeta_9^j (galois), theta^k w^j (nongalois)
    for i in range(6):
        lval = params.one.from_rationals([int(i == k) for k in range(6)])
        assert (z * AlgebraElem(params, lval)).l == (zero, lval.rho(), zero)
    assert z * z * z == AlgebraElem.scalar(params, params.a)


@pytest.mark.parametrize("params", [GAL, NONGAL], ids=["galois", "nongalois"])
def test_matrix_embedding_is_homomorphism(params):
    rng = random.Random(10)
    for _ in range(20):
        d, e, f = (random_element(params, rng) for _ in range(3))
        assert (d * e) * f == d * (e * f)
        assert matrix_mul(to_matrix(d), to_matrix(e)) == to_matrix(d * e)


def test_identity_matrix():
    one = AlgebraElem.scalar(GAL, 1)
    m = to_matrix(one)
    for i in range(3):
        for j in range(3):
            expected = GAL.one if i == j else GAL.one.from_E(0)
            assert m[i][j] == expected


def test_z_matrix_shape():
    m = to_matrix(AlgebraElem.gen_z(GAL))
    assert m[0][1] == GAL.one and m[1][2] == GAL.one
    assert m[2][0] == GAL.one.from_E(GAL.a)
    assert m[0][0] == GAL.one.from_E(0)


# ---------------------------------------------------------------------------
# Reduced norm
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("params", [GAL, NONGAL], ids=["galois", "nongalois"])
def test_reduced_norm(params):
    assert reduced_norm(AlgebraElem.scalar(params, 1)) == QuadElem(1)
    assert reduced_norm(AlgebraElem.gen_z(params)) == params.a
    rng = random.Random(11)
    for _ in range(20):
        d, e = random_element(params, rng), random_element(params, rng)
        assert reduced_norm(d * e) == reduced_norm(d) * reduced_norm(e)
        assert matrix_det(to_matrix(d)) == params.one.from_E(reduced_norm(d))


def test_inverse():
    rng = random.Random(12)
    one = AlgebraElem.scalar(GAL, 1)
    for _ in range(5):
        d = random_element(GAL, rng)
        if reduced_norm(d):
            assert d * inverse(d) == one
    with pytest.raises(ZeroDivisionError):
        inverse(AlgebraElem.scalar(GAL, 0))


# ---------------------------------------------------------------------------
# Involutions
# ---------------------------------------------------------------------------

def test_involution_fixes_one():
    for params in (GAL, NONGAL):
        one = AlgebraElem.scalar(params, 1)
        assert involution(one) == one


def test_galois_involution_on_z():
    z = AlgebraElem.gen_z(GAL)
    az = involution(z)
    ta = embed_E_in_L(GAL.a.conj())
    assert az.l == (CycloElem([]), CycloElem([]), ta)
    assert az * z == AlgebraElem.scalar(GAL, 1)   # tau(a) a = 1


def test_galois_involution_is_conjugate_transpose():
    rng = random.Random(13)
    for _ in range(10):
        d = random_element(GAL, rng)
        m = to_matrix(d)
        am = to_matrix(involution(d))
        for i in range(3):
            for j in range(3):
                assert am[i][j] == galois_tau(m[j][i])


def test_nongalois_involution_swaps_theta_and_z():
    from ramanujan_bigraphs.numberfield import CubicExtElem
    theta = AlgebraElem(
        NONGAL, CubicExtElem(QuadElem(0), QuadElem(1), QuadElem(0), b=NONGAL.b)
    )
    z = AlgebraElem.gen_z(NONGAL)
    assert involution(theta) == z
    assert involution(z) == theta


@pytest.mark.parametrize("params", [GAL, NONGAL], ids=["galois", "nongalois"])
def test_involution_is_order_two(params):
    rng = random.Random(14)
    for _ in range(50):
        d = random_element(params, rng)
        assert involution(involution(d)) == d


@pytest.mark.parametrize("params", [GAL, NONGAL], ids=["galois", "nongalois"])
def test_involution_restricts_to_tau(params):
    rng = random.Random(15)
    for _ in range(30):
        s = QuadElem(Fraction(rng.randrange(-6, 7)), Fraction(rng.randrange(-6, 7)))
        assert involution(AlgebraElem.scalar(params, s)) == \
            AlgebraElem.scalar(params, s.conj())


def test_galois_involution_is_anti_automorphism():
    rng = random.Random(16)
    for _ in range(30):
        d, e = random_element(GAL, rng), random_element(GAL, rng)
        assert involution(d * e) == involution(e) * involution(d)
        assert reduced_norm(involution(d)) == reduced_norm(d).conj()


# ---------------------------------------------------------------------------
# Special unitary membership
# ---------------------------------------------------------------------------

def test_special_unitary_examples():
    assert is_special_unitary(AlgebraElem.scalar(GAL, 1))
    assert is_special_unitary(AlgebraElem.scalar(GAL, ZETA3_E))
    zeta9 = AlgebraElem(GAL, CycloElem.zeta9(1))
    assert not is_special_unitary(zeta9)


def test_special_unitary_sampler_and_closure():
    rng = random.Random(17)
    elems = [random_special_unitary(GAL, rng) for _ in range(6)]
    for d in elems:
        assert is_special_unitary(d)
        assert is_special_unitary(inverse(d))
    for d, e in zip(elems, elems[1:]):
        assert is_special_unitary(d * e)


# ---------------------------------------------------------------------------
# Construction conditions
# ---------------------------------------------------------------------------

def test_conditions_builtin_example():
    rep = check_theorem_conditions(GAL)
    assert rep.division_condition is True
    assert rep.unit_norm_condition and rep.commuting_condition
    assert rep.witness_prime_a == 7 and rep.witness_prime_a2 == 7


def test_conditions_a_one():
    rep = check_theorem_conditions(AlgebraParams(GALOIS, QuadElem(1)))
    assert rep.division_condition is False
    assert rep.unit_norm_condition


def test_conditions_a_sqrt_m3():
    rep = check_theorem_conditions(AlgebraParams(GALOIS, quad_from_sqrt3_basis(0, 1)))
    assert not rep.unit_norm_condition


def _second_search(a, limit=200):
    """witness_prime_a2 and residues_a2 by a search of their own over a^2."""
    for p in witness_primes(limit):
        rep = local_norm_obstruction(a * a, p)
        if rep.obstructed:
            return p, rep.valuations_mod_3
    return None, None


@pytest.mark.parametrize("a", [
    quad_from_sqrt3_basis(2, 1) / quad_from_sqrt3_basis(2, -1),
    QuadElem(10) ** 400,                          # no witness below 200
    QuadElem(7) ** 61,
    QuadElem(Fraction(2, 7), 3) ** 5,
    QuadElem(1, 1) / QuadElem(13),
    QuadElem(19, -4),
], ids=["example", "10^400", "7^61", "(2/7+3w)^5", "(1+w)/13", "19-4w"])
def test_conditions_a2_fields_match_a_second_search(a):
    rep = check_theorem_conditions(AlgebraParams(GALOIS, a))
    assert (rep.witness_prime_a2, rep.residues_a2) == _second_search(a)
    if rep.witness_prime_a is not None:       # the record the residues are read from
        assert rep.obstruction == local_norm_obstruction(a, rep.witness_prime_a)
        assert rep.residues_a == rep.obstruction.valuations_mod_3
    assert rep.division_condition is (True if rep.witness_prime_a else None)


def test_conditions_require_galois_kind():
    with pytest.raises(ValueError):
        check_theorem_conditions(NONGAL)


# ---------------------------------------------------------------------------
# Archimedean realization
# ---------------------------------------------------------------------------

def test_realize_constants():
    t = realize_at_infinity(CycloElem([1]))
    assert np.allclose(t, (1, 1, 1))
    z = realize_at_infinity(CycloElem.zeta9(1))
    w = np.exp(2j * np.pi / 9)
    assert np.allclose(z, (w, w ** 4, w ** 7))


def test_realize_is_homomorphism():
    rng = random.Random(18)
    for _ in range(20):
        x = CycloElem([Fraction(rng.randrange(-4, 5)) for _ in range(6)])
        y = CycloElem([Fraction(rng.randrange(-4, 5)) for _ in range(6)])
        lhs = np.array(realize_at_infinity(x)) * np.array(realize_at_infinity(y))
        rhs = np.array(realize_at_infinity(x * y))
        assert np.allclose(lhs, rhs, atol=1e-10)


def test_matrix_at_infinity_special_unitary():
    rng = random.Random(19)
    for _ in range(5):
        d = random_special_unitary(GAL, rng)
        m = matrix_at_infinity(d)
        assert np.allclose(m.conj().T @ m, np.eye(3), atol=1e-10)
        assert abs(np.linalg.det(m) - 1) < 1e-10
        am = matrix_at_infinity(involution(d))
        assert np.allclose(am, m.conj().T, atol=1e-10)


def test_torus():
    assert verify_noncompact_torus(1.0)
    assert torus_point(2.0) == (1.0, 2.0, 0.5)
    assert verify_noncompact_torus(2.0)
    assert verify_noncompact_torus(0.3 - 1.7j)
    with pytest.raises(ValueError):
        verify_noncompact_torus(0)
    assert not triple_is_unitary_norm_one((1.01, 2.0, 0.5))
