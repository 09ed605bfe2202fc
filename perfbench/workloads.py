"""The four workloads.

Each workload holds inputs shared by its ops and a ``cycle``: the op kinds
run in order, repeated.  ``make(kind, rng)`` generates one op's inputs and
returns ``(run, check)``: ``run(tracer)`` is the timed part and calls only
the package; ``check(ck, out)`` compares its outputs with reference answers
from :mod:`oracles` after the clock has stopped.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction
from operator import mul

import numpy as np

import oracles as ref
from ramanujan_bigraphs import algebra, cli, graphs, lattices, numberfield, trees

# Wrapped calls per module; every traced run reports all of them.
LAYER_CALLS = {
    "numberfield": ["mul", "inverse", "galois_rho", "galois_tau", "norm_L_over_E",
                    "splitting_data", "local_norm_obstruction"],
    "algebra": ["mul", "involution", "reduced_norm", "to_matrix_det", "inverse",
                "check_theorem_conditions", "matrix_at_infinity",
                "random_special_unitary", "is_special_unitary"],
    "graphs": ["spectrum", "certify_ramanujan", "random_biregular",
               "analyze_structure", "expansion_coefficient"],
    "trees": ["biregular_tree_ball", "check_local_covering", "quotient_handshake_check"],
    "lattices": ["enumerate_su3.level1", "enumerate_su3.level2", "congruence_tower",
                 "classify_prime", "good_primes_up_to"],
    "cli": ["verify-algebra", "certify", "spectrum", "expansion", "tree", "primes",
            "finite-group", "random-bigraph", "paper-suite"],
}

# Work counts recorded at the same boundaries, with their units.
COUNTERS = {
    "graphs.eig_dim_sum": "count",          # sum of n over eigenproblems solved
    "graphs.eig_flops_computed": "flop",    # sum of n^3, computed, not measured
    "trees.ball_vertices": "count",
    "lattices.candidates_computed": "count",  # q^18 per full candidate scan
    "lattices.yield": "ratio",               # elements found / candidates
    "cli.report_bytes": "bytes",
    "cli.schema_invalid": "count",
}


def _frac(rng, span=3):
    return Fraction(rng.randint(-span, span), rng.randint(1, 2))


def _coeffs(l):
    return tuple(l.coeffs)


def _quad(e):
    return (e.x, e.y)


def _triple(d):
    return tuple(_coeffs(l) for l in d.l)


def _eig(tr, n):
    tr.count("graphs.eig_dim_sum", n)
    tr.count("graphs.eig_flops_computed", n ** 3)


def warm_blas():
    """Load LAPACK's code paths and fault in its buffers before timing: the
    first few eigenproblems after import run many times slower."""
    rng = np.random.default_rng(0)
    for n in (240, 600, 600, 1200, 240, 240):
        a = rng.random((n, n))
        np.linalg.eigvalsh(a + a.T)
        np.linalg.svd(a[: n // 4], compute_uv=False)


class Workload:
    """A cycle of op kinds; each kind is a tuple (name, *arguments)."""

    name = ""
    cycle = ()
    cycle_seconds = 1.0     # nominal length of one cycle on a 2-core x86 host
    warm = ()               # kinds run once, untimed, during set-up
    traced_only = ()        # kinds added once per cycle in traced runs
    uses_blas = False
    # Labels of op kinds whose times are scaled to the speed of a quiet host,
    # measured around each op with the probe named by ``probe`` (a key of
    # harness.KERNELS): on a shared host such code slows by up to 2x for
    # minutes at a time.  With the interpreter probe the set-up time is scaled
    # too.  Kinds the probe does not resemble keep their measured times.
    calibrate = frozenset()
    probe = "interpreter"

    def __init__(self, seed):
        pass

    def make(self, kind, rng):
        return getattr(self, "op_" + kind[0].replace("-", "_"))(rng, *kind[1:])


OTHER_DEGREE = {9: 3, 28: 4}    # the paper's bidegrees (p^3 + 1, p + 1), p = 2, 3


def _bigraph(rng, l, n):
    """Connected (l, m)-biregular bigraph on n vertices, m = OTHER_DEGREE[l]."""
    m = OTHER_DEGREE[l]
    while True:
        n, edges, parts = ref.biregular_edges(n * m // (l + m), l, m, rng)
        if ref.components_and_bipartite(n, edges)[0] == 1:
            return graphs.Graph(n, tuple(edges), parts)


class ExactAlgebra(Workload):
    """Galois-kind samples: field laws in L and the involution checks in D,
    with Cayley special-unitary draws and the condition report mixed in."""

    name = "exact-algebra"
    cycle = (("sample",),) * 3 + (("cayley",),) + (("sample",),) * 3 + (("conditions",),)
    cycle_seconds = 0.34
    calibrate = frozenset({"sample", "cayley", "conditions"})
    warm = (("sample",), ("cayley",), ("conditions",))

    def __init__(self, seed):
        self.params = algebra.example_galois_params()
        self.a = _quad(self.params.a)
        self.primes = [p for p in range(5, 400) if ref.is_prime(p)]

    def op_sample(self, rng):
        P = self.params
        x, y, z = (numberfield.CycloElem([_frac(rng) for _ in range(6)]) for _ in range(3))
        d = algebra.AlgebraElem(P, *(numberfield.CycloElem([_frac(rng) for _ in range(6)])
                                     for _ in range(3)))
        e = algebra.AlgebraElem(P, *(numberfield.CycloElem([_frac(rng) for _ in range(6)])
                                     for _ in range(3)))
        s = numberfield.QuadElem(_frac(rng, 5), _frac(rng, 5))
        scalar = algebra.AlgebraElem.scalar(P, s)

        def run(tr):
            c = tr.call
            out = {}
            out["xy"] = c("numberfield.mul", mul, x, y)
            out["xy_z"] = c("numberfield.mul", mul, out["xy"], z)
            out["x_yz"] = c("numberfield.mul", mul, x, c("numberfield.mul", mul, y, z))
            out["xinv"] = c("numberfield.inverse", numberfield.CycloElem.inverse, x)
            out["x_xinv"] = c("numberfield.mul", mul, x, out["xinv"])
            r = c("numberfield.galois_rho", numberfield.galois_rho, x)
            out["rho"] = r
            r = c("numberfield.galois_rho", numberfield.galois_rho, r)
            out["rho3"] = c("numberfield.galois_rho", numberfield.galois_rho, r)
            out["tau"] = c("numberfield.galois_tau", numberfield.galois_tau, x)
            out["tau2"] = c("numberfield.galois_tau", numberfield.galois_tau, out["tau"])
            out["norm"] = c("numberfield.norm_L_over_E", numberfield.norm_L_over_E, x)
            inv = algebra.involution
            out["ad"] = c("algebra.involution", inv, d)
            out["aad"] = c("algebra.involution", inv, out["ad"])
            out["de"] = c("algebra.mul", mul, d, e)
            out["a_de"] = c("algebra.involution", inv, out["de"])
            ae = c("algebra.involution", inv, e)
            out["ae_ad"] = c("algebra.mul", mul, ae, out["ad"])
            out["nd"] = c("algebra.reduced_norm", algebra.reduced_norm, d)
            out["nad"] = c("algebra.reduced_norm", algebra.reduced_norm, out["ad"])
            out["det"] = c("algebra.to_matrix_det",
                           lambda v: algebra.matrix_det(algebra.to_matrix(v)), d)
            out["as"] = c("algebra.involution", inv, scalar)
            return out

        def check(ck, out):
            X, Y, Z = _coeffs(x), _coeffs(y), _coeffs(z)
            xy = ref.l_mul(X, Y)
            xyz = ref.l_mul(xy, Z)
            nf = "numberfield"
            ck.eq(nf, _coeffs(out["xy"]), xy)
            ck.eq(nf, _coeffs(out["xy_z"]), xyz)
            ck.eq(nf, _coeffs(out["x_yz"]), xyz)
            ck.eq(nf, ref.l_mul(X, _coeffs(out["xinv"])), ref.L_ONE)
            ck.eq(nf, _coeffs(out["x_xinv"]), ref.L_ONE)
            ck.eq(nf, _coeffs(out["rho"]), ref.l_rho(X))
            ck.eq(nf, _coeffs(out["rho3"]), X)
            ck.eq(nf, _coeffs(out["tau"]), ref.l_tau(X))
            ck.eq(nf, _coeffs(out["tau2"]), X)
            ck.eq(nf, _quad(out["norm"]), ref.l_norm(X))
            D, E = _triple(d), _triple(e)
            al = "algebra"
            ck.eq(al, _triple(out["ad"]), ref.d_involution(D, self.a))
            ck.eq(al, _triple(out["aad"]), D)
            de = ref.d_mul(D, E, self.a)
            ck.eq(al, _triple(out["de"]), de)
            a_de = ref.d_involution(de, self.a)
            ck.eq(al, _triple(out["a_de"]), a_de)
            ck.eq(al, _triple(out["ae_ad"]), a_de)
            nd = ref.d_reduced_norm(D, self.a)
            ck.eq(al, _quad(out["nd"]), nd)
            ck.eq(al, _quad(out["nad"]), ref.e_conj(nd))
            ck.eq(al, _coeffs(out["det"]), ref.l_from_e(nd))
            ck.eq(al, _triple(out["as"]), ref.d_scalar(ref.e_conj(_quad(s))))

        return run, check

    def op_cayley(self, rng):
        P = self.params
        sampler = random.Random(rng.getrandbits(64))

        def run(tr):
            u = tr.call("algebra.random_special_unitary", algebra.random_special_unitary,
                        P, sampler)
            return {
                "u": u,
                "su": tr.call("algebra.is_special_unitary", algebra.is_special_unitary, u),
                "inv": tr.call("algebra.inverse", algebra.inverse, u),
                "m": tr.call("algebra.matrix_at_infinity", algebra.matrix_at_infinity, u),
            }

        def check(ck, out):
            U = _triple(out["u"])
            one = ref.d_scalar(ref.E_ONE)
            adjoint = ref.d_involution(U, self.a)
            ck.eq("algebra", ref.d_mul(adjoint, U, self.a), one)
            ck.eq("algebra", ref.d_reduced_norm(U, self.a), ref.E_ONE)
            ck.true("algebra", out["su"])
            ck.eq("algebra", _triple(out["inv"]), adjoint)
            m = out["m"]
            ck.true("algebra", np.allclose(m.conj().T @ m, np.eye(3), atol=1e-10)
                    and abs(np.linalg.det(m) - 1) < 1e-10)

        return run, check

    def op_conditions(self, rng):
        P = self.params
        primes = rng.sample(self.primes, 4)

        def run(tr):
            return {
                "rep": tr.call("algebra.check_theorem_conditions",
                               algebra.check_theorem_conditions, P),
                "obs": tr.call("numberfield.local_norm_obstruction",
                               numberfield.local_norm_obstruction, P.a, 7),
                "split": [tr.call("numberfield.splitting_data",
                                  numberfield.splitting_data, p) for p in primes],
            }

        def check(ck, out):
            rep = out["rep"]
            # a = (2 + sqrt(-3)) / (2 - sqrt(-3)): a tau(a) = 1, and neither a
            # nor a^2 is a local norm at 7 (valuations 1 and 2 mod 3).
            ck.eq("algebra", ref.e_mul(self.a, ref.e_conj(self.a)), ref.E_ONE)
            ck.eq("algebra", (rep.division_condition, rep.unit_norm_condition,
                              rep.commuting_condition), (True, True, True))
            ck.eq("algebra", (rep.witness_prime_a, rep.witness_prime_a2), (7, 7))
            ck.eq("numberfield", (out["obs"].obstructed, sorted(out["obs"].valuations_mod_3)),
                  (True, [1, 2]))
            ck.eq("numberfield", list(out["split"]), [ref.splitting(p) for p in primes])

        return run, check


class SpectralCertify(Workload):
    """Certification of seeded (9, 3) and (28, 4) bigraphs from 60 to 2400
    vertices, odd cycles, a random regular non-bipartite graph, K_{k,k} and
    K_{2,3}, tree balls with covering and handshake checks, exact expansion
    and the seeded generator."""

    name = "spectral-certify"
    # ("certify" | "spectrum", l, vertices): (9, 3) or (28, 4) bigraphs.  The
    # mix puts the median among the 240-vertex calls (11 ops slower, 11
    # faster) and, over several cycles, the tail among the 2400-vertex ones.
    cycle = (
        ("certify", 9, 60), ("certify", 28, 240), ("certify", 28, 64), ("spectrum", 9, 600),
        ("odd-cycle",), ("certify", 9, 240), ("certify", 9, 2400), ("spectrum", 9, 60),
        ("tree",), ("certify", 9, 120), ("certify", 28, 1200), ("spectrum", 28, 240),
        ("regular",), ("certify", 28, 600), ("generator",), ("expansion",),
        ("spectrum", 9, 240), ("complete",), ("certify", 28, 2400), ("certify", 28, 120),
        ("certify", 9, 600), ("odd-cycle",), ("certify", 9, 1200), ("spectrum", 28, 120),
        ("tree",), ("certify", 9, 240), ("spectrum", 28, 600),
    )
    cycle_seconds = 3.1
    warm = (("certify", 9, 60), ("certify", 28, 240), ("spectrum", 9, 600), ("odd-cycle",),
            ("regular",), ("complete",), ("tree",), ("expansion",), ("generator",))
    uses_blas = True
    # The median ops: most of their time is a dense eigenproblem near n = 240,
    # whose speed swung by up to 30 % between seconds of one run while their
    # time over the probe's stayed within 7 %.
    calibrate = frozenset({"certify-9-240", "certify-28-240", "spectrum-9-240",
                           "spectrum-28-240", "regular"})
    probe = "lapack"

    def op_certify(self, rng, l, n):
        m = OTHER_DEGREE[l]
        n1 = n * m // (l + m)
        g = _bigraph(rng, l, n)

        def run(tr):
            rep = tr.call("graphs.analyze_structure", graphs.analyze_structure, g)
            _eig(tr, g.n)
            return rep, tr.call("graphs.certify_ramanujan", graphs.certify_ramanujan, g)

        def check(ck, out):
            rep, cert = out
            p = rep.profile
            ck.eq("graphs", (rep.connected, p.n1, p.n2, p.l, p.m), (True, n1, n1 * l // m, l, m))
            lam, verdict = ref.bigraph_verdict(ref.singular_values(g.n, g.edges, g.parts), l, m)
            ck.close("graphs", [cert.lam], [lam], 1e-8)
            ck.eq("graphs", (cert.graph_class, cert.is_ramanujan), ("bigraph", verdict))

        return run, check

    def op_spectrum(self, rng, l, n):
        g = _bigraph(rng, l, n)

        def run(tr):
            _eig(tr, g.n)
            return tr.call("graphs.spectrum", graphs.spectrum, g)

        def check(ck, s):
            want = ref.bigraph_spectrum(ref.singular_values(g.n, g.edges, g.parts), g.n)
            ck.close("graphs", list(s.values), want, 1e-8)

        return run, check

    def op_odd_cycle(self, rng):
        n = 2 * rng.randint(25, 150) + 1
        g = graphs.Graph(n, tuple((i, (i + 1) % n) for i in range(n)))

        def run(tr):
            _eig(tr, n)
            return tr.call("graphs.certify_ramanujan", graphs.certify_ramanujan, g)

        def check(ck, cert):
            ck.close("graphs", [cert.lam], [ref.odd_cycle_lambda(n)], 1e-8)
            ck.eq("graphs", (cert.graph_class, cert.def21, cert.is_ramanujan),
                  ("regular", True, True))

        return run, check

    def op_regular(self, rng):
        n, k = 2 * rng.randint(50, 150), 3
        while True:
            edges = ref.regular_edges(n, k, rng)
            if ref.components_and_bipartite(n, edges) == (1, False):
                break
        g = graphs.Graph(n, tuple(edges))

        def run(tr):
            _eig(tr, n)
            return tr.call("graphs.certify_ramanujan", graphs.certify_ramanujan, g)

        def check(ck, cert):
            lam, verdict = ref.regular_verdict(ref.singular_values(n, g.edges), k)
            ck.close("graphs", [cert.lam], [lam], 1e-8)
            ck.eq("graphs", (cert.graph_class, cert.is_ramanujan), ("regular", verdict))

        return run, check

    def op_complete(self, rng):
        def kab(a, b):
            return graphs.Graph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)),
                                tuple([0] * a + [1] * b))

        cases = [(k, k) for k in range(2, 9)] + [(2, 3)]
        rng.shuffle(cases)
        gs = [kab(a, b) for a, b in cases]

        def run(tr):
            out = []
            for g in gs:
                _eig(tr, g.n)
                out.append(tr.call("graphs.certify_ramanujan", graphs.certify_ramanujan, g))
            return out

        def check(ck, certs):
            for (a, b), g, cert in zip(cases, gs, certs):
                lam, verdict = ref.bigraph_verdict(
                    ref.singular_values(g.n, g.edges, g.parts), max(a, b), min(a, b))
                ck.close("graphs", [cert.lam], [lam], 1e-8)
                ck.eq("graphs", cert.is_ramanujan, verdict)

        return run, check

    def op_tree(self, rng):
        radius = 5
        quotient = _bigraph(rng, 9, 4 * rng.randint(9, 30))
        other = _bigraph(rng, 28, 8 * rng.randint(7, 15))

        def run(tr):
            ball = tr.call("trees.biregular_tree_ball", trees.biregular_tree_ball, 9, 3, radius)
            tr.count("trees.ball_vertices", ball.graph.n)
            ident = trees.CoveringCandidate(ball, ball.graph, {v: v for v in range(ball.graph.n)})
            hs = trees.quotient_handshake_check
            return {
                "ball": ball,
                "covering": tr.call("trees.check_local_covering", trees.check_local_covering,
                                    ident),
                "handshake": [tr.call("trees.quotient_handshake_check", hs, quotient, 2),
                              tr.call("trees.quotient_handshake_check", hs, other, 3),
                              tr.call("trees.quotient_handshake_check", hs, quotient, 3)],
            }

        def check(ck, out):
            counts = ref.tree_level_counts(9, 3, radius)
            ball = out["ball"]
            ck.eq("trees", (list(ball.level_counts), ball.graph.n, len(ball.graph.edges)),
                  (counts, sum(counts), sum(counts) - 1))
            ck.eq("trees", out["covering"], True)
            ck.eq("trees", out["handshake"], [True, True, False])

        return run, check

    def op_expansion(self, rng):
        if rng.random() < 0.5:
            g = graphs.Graph(16, tuple((i, (i + 1) % 16) for i in range(16)))
        else:
            g = _bigraph(rng, 9, 16)

        def run(tr):
            _eig(tr, g.n)
            return tr.call("graphs.expansion_coefficient", graphs.expansion_coefficient, g)

        def check(ck, rep):
            ck.eq("graphs", rep.c, ref.expansion(g.n, g.edges))
            ck.eq("graphs", rep.two_c, 2 * rep.c)

        return run, check

    def op_generator(self, rng):
        n1 = rng.randint(8, 30)
        gseed = rng.getrandbits(32)

        def run(tr):
            return tr.call("graphs.random_biregular", graphs.random_biregular,
                           n1, 3 * n1, 9, 3, gseed)

        def check(ck, g):
            ck.true("graphs", ref.is_biregular_simple(n1, 3 * n1, 9, 3, g.edges))

        return run, check


_T5, _T11, _O, _C = ("tower", 5), ("tower", 11), ("obstruction",), ("classify",)


class FiniteGroups(Workload):
    """SU_3 over O_E/2 and O_E/4 by enumeration, congruence towers at q = 2
    (enumerated), 5 and 11 (formula), good-prime classification and the
    local norm obstruction at the witness primes."""

    name = "finite-groups"
    # The mix puts the median among the obstruction ops (18 faster, 16
    # slower) and the tail among the classify ops (6 heavier ops above them).
    cycle = (
        ("su3-level2",), _T5, _O, _C, _T11, _O, _C, _T5,
        ("su3-level1",), _O, _T11, _C, _O, _T5, _C, _O, _T11,
        ("good-primes",), _T5, _O, _C, _T11, _O, _T5,
        ("tower", 2), _T5, _O, _C, _T11, _O, _C, _T5,
        ("su3-level1",), _O, _T11, _C, _O, _T5, _C, _O, _T11,
        ("good-primes",), _T5, _O, _C, _T11, _O, _T5,
    )
    cycle_seconds = 26.0
    calibrate = frozenset({"obstruction", "classify", "tower-5", "tower-11", "good-primes"})
    warm = (("obstruction",), ("classify",), ("tower", 5))

    def __init__(self, seed):
        self.classify_pool = [p for p in range(5000, 15000) if ref.is_prime(p)]
        self.witnesses = [p for p in range(5, 200)
                          if ref.is_prime(p) and ref.splitting(p) == ("split", 3)]

    @staticmethod
    def _scan(tr, q, scans, found):
        candidates = scans * q ** 18
        tr.count("lattices.candidates_computed", candidates)
        tr.count("lattices.found", found)

    def op_su3_level1(self, rng):
        picks = [rng.randrange(ref.SU3_LEVEL1_ORDER_Q2) for _ in range(8)]

        def run(tr):
            rep = tr.call("lattices.enumerate_su3.level1", lattices.enumerate_su3, 2, 1)
            self._scan(tr, 2, 1, rep.order)
            return rep

        def check(ck, rep):
            ck.eq("lattices", (rep.order, len(set(rep.elements))),
                  (ref.SU3_LEVEL1_ORDER_Q2, ref.SU3_LEVEL1_ORDER_Q2))
            ck.true("lattices", all(_is_su3_mod2(rep.elements[i]) for i in picks))

        return run, check

    def op_su3_level2(self, rng):
        def run(tr):
            rep = tr.call("lattices.enumerate_su3.level2", lattices.enumerate_su3, 2, 2)
            self._scan(tr, 2, 2 + rep.level1_order, rep.level1_order + rep.kernel_size)
            return rep

        def check(ck, rep):
            ck.eq("lattices", (rep.level1_order, rep.kernel_size, rep.surjective, rep.order),
                  (ref.SU3_LEVEL1_ORDER_Q2, ref.SU3_KERNEL_Q2, True,
                   ref.SU3_LEVEL1_ORDER_Q2 * ref.SU3_KERNEL_Q2))

        return run, check

    def op_tower(self, rng, q):
        n_max = rng.randint(2, 5)
        p = rng.choice([p for p in (5, 7, 13, 19, 31) if p != q])

        def run(tr):
            entries = tr.call("lattices.congruence_tower", lattices.congruence_tower,
                              q, n_max, p)
            if q == 2:
                self._scan(tr, 2, 2 + entries[0].index, entries[0].index + entries[1].index)
            return entries

        def check(ck, entries):
            if q == 2:
                first = [(ref.SU3_LEVEL1_ORDER_Q2, "enumerated"), (ref.SU3_KERNEL_Q2, "enumerated")]
            else:
                first = [(ref.su3_order(q), "formula"), (q ** 8, "formula")]
            want = first + [(q ** 8, "formula")] * (n_max - 2)
            ck.eq("lattices", [(e.index, e.method) for e in entries], want)

        return run, check

    def op_good_primes(self, rng):
        bound = 20000 - rng.randrange(200)     # the cost grows as bound^2

        def run(tr):
            return tr.call("lattices.good_primes_up_to", lattices.good_primes_up_to, bound)

        def check(ck, primes):
            ck.eq("lattices", primes, ref.good_primes(bound))

        return run, check

    def op_classify(self, rng):
        # one prime from each fortieth of the pool: classify_prime is O(p),
        # so every op does near-equal work
        pool, k = self.classify_pool, len(self.classify_pool) // 40
        primes = [rng.choice(pool[i * k:(i + 1) * k]) for i in range(40)]

        def run(tr):
            return [tr.call("lattices.classify_prime", lattices.classify_prime, p).good
                    for p in primes]

        def check(ck, good):
            ck.eq("lattices", good, [p % 12 in (5, 11) for p in primes])

        return run, check

    def op_obstruction(self, rng):
        a = numberfield.QuadElem(_frac(rng, 40), _frac(rng, 40)) or numberfield.QuadElem(1)

        def run(tr):
            return [tr.call("numberfield.local_norm_obstruction",
                            numberfield.local_norm_obstruction, a, p) for p in self.witnesses]

        def check(ck, reports):
            ck.eq("numberfield", [(r.prime, r.obstructed) for r in reports],
                  [(p, _obstructed(_quad(a), p)) for p in self.witnesses])

        return run, check


def _is_su3_mod2(g):
    """conj(g)^T g = I and det g = 1 over F_4 = F_2[w], w^2 = w + 1."""
    def m(a, b):
        return ((a[0] * b[0] + a[1] * b[1]) % 2, (a[0] * b[1] + a[1] * b[0] + a[1] * b[1]) % 2)

    def add(*xs):
        return (sum(x[0] for x in xs) % 2, sum(x[1] for x in xs) % 2)

    def conj(a):
        return ((a[0] + a[1]) % 2, a[1])

    gram = [[add(*(m(conj(g[k][i]), g[k][j]) for k in range(3))) for j in range(3)]
            for i in range(3)]
    ident = all(gram[i][j] == ((1, 0) if i == j else (0, 0)) for i in range(3) for j in range(3))
    det = add(
        m(g[0][0], add(m(g[1][1], g[2][2]), m(g[1][2], g[2][1]))),
        m(g[0][1], add(m(g[1][0], g[2][2]), m(g[1][2], g[2][0]))),
        m(g[0][2], add(m(g[1][0], g[2][1]), m(g[1][1], g[2][0]))),
    )
    return ident and det == (1, 0)


def _obstructed(a, p):
    """a = (u + v w) / d is a local norm at a split prime p of residue degree
    3 iff both p-adic valuations are 0 mod 3.  The embeddings send w to the
    two roots of w^2 - w + 1, lifted mod p^k with k above v_p(N(u + v w)),
    N(u + v w) = u^2 + u v + v^2, which bounds both valuations."""
    x, y = a
    d = x.denominator * y.denominator
    u, v = int(x * d), int(y * d)
    mod = p ** (_val(u * u + u * v + v * v, p) + 1)
    vals = []
    for r in (r for r in range(p) if (r * r - r + 1) % p == 0):
        m = p
        while m < mod:
            m = min(m * m, mod)
            r = (r - (r * r - r + 1) * pow(2 * r - 1, -1, m)) % m
        vals.append(_val((u + v * r) % mod, p) - _val(d, p))
    return any(val % 3 for val in vals)


def _val(n, p):
    v = 0
    while n and n % p == 0:
        n //= p
        v += 1
    return v


class CliReports(Workload):
    """In-process ``cli.main`` calls with stdout captured: every subcommand
    and ``--paper-suite``.  Graph files are written during setup."""

    name = "cli-reports"
    # Two halves of one mix, the second without finite-group: per cycle
    # 21 ops are slower than the tree calls and 24 faster, so the median
    # lands among the tree calls and, over four cycles, the tail among the
    # expansion calls.  --paper-suite, one 6-9 s call, runs in traced runs
    # only: a single call per run left the end-to-end figures unsteady on a
    # shared host.
    _half = (
        ("certify", 0), ("primes",), ("verify-algebra", "galois"), ("tree",),
        ("spectrum", 3), ("random-bigraph",), ("tree",), ("verify-algebra", "nongalois"),
        ("certify", 4), ("expansion", 0), ("tree",), ("certify", 3), ("spectrum", 0),
        ("finite-group",), ("primes",), ("tree",), ("random-bigraph",), ("spectrum", 4),
        ("verify-algebra", "galois"), ("tree",), ("certify", 1), ("expansion", 1),
        ("random-bigraph",), ("tree",), ("primes",), ("certify", 2),
        ("verify-algebra", "nongalois"), ("tree",), ("random-bigraph",), ("tree",),
        ("primes",),
    )
    cycle = _half + tuple(("tree",) if k == ("finite-group",) else k for k in _half)
    traced_only = (("paper-suite",),)
    cycle_seconds = 4.4
    calibrate = frozenset({"verify-algebra-galois", "verify-algebra-nongalois", "expansion-0",
                           "expansion-1", "tree", "primes", "random-bigraph", "paper-suite"})
    warm = (("verify-algebra", "galois"), ("verify-algebra", "nongalois"), ("certify", 2),
            ("spectrum", 0), ("tree",), ("primes",), ("random-bigraph",), ("expansion", 0))
    uses_blas = True

    def __init__(self, seed, workdir):
        import jsonschema

        schema_path = os.path.join(os.path.dirname(cli.__file__), "schemas",
                                   "report.schema.json")
        with open(schema_path, encoding="utf-8") as fh:
            self.validator = jsonschema.Draft202012Validator(json.load(fh))
        os.makedirs(workdir, exist_ok=True)
        rng = random.Random(seed)
        self.graphs = [
            self._save(workdir, f"bigraph{n}-{l}", _bigraph(rng, l, n), (l, OTHER_DEGREE[l]))
            for l, n in ((9, 60), (28, 120), (9, 120), (28, 240), (9, 300))
        ]
        # expansion is a scan of all 2^16 vertex subsets
        self.small = [
            self._save(workdir, "cycle16", graphs.Graph(16, tuple((j, (j + 1) % 16)
                                                                  for j in range(16))), None),
            self._save(workdir, "bigraph16-9", _bigraph(rng, 9, 16), (9, 3)),
        ]

    @staticmethod
    def _save(workdir, stem, g, degrees):
        path = os.path.join(workdir, stem + ".json")
        doc = {"n": g.n, "edges": [list(e) for e in g.edges]}
        if g.parts is not None:
            doc["parts"] = list(g.parts)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path, g, degrees

    def _call(self, command, argv, check_results):
        def run(tr):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = tr.call("cli." + command, cli.main, argv)
            text = buf.getvalue()
            tr.count("cli.report_bytes", len(text.encode()))
            return code, text

        def check(ck, out):
            code, text = out
            try:
                doc = json.loads(text)     # exactly one JSON document
                valid = self.validator.is_valid(doc)
            except ValueError:
                valid = False
            if not valid:
                ck.count("cli.schema_invalid")
            ck.true("cli", valid)
            if not valid:
                return
            ck.eq("cli", (code in (0, 1, 2), doc["exit_code"], doc["command"]),
                  (True, code, command))
            check_results(ck, doc["results"], code)

        return run, check

    def op_verify_algebra(self, rng, kind):
        seed = rng.getrandbits(32)
        argv = ["verify-algebra", "--kind", kind, "--samples", "3", "--seed", str(seed)]

        def check(ck, res, code):
            suite = {k: v["value"] for k, v in res["involution_suite"].items()}
            laws = ("alpha_squared_is_identity", "restricts_to_tau_on_E", "norm_equals_det")
            ck.eq("cli", [suite[k] for k in laws], [True] * 3)
            if kind == "galois":
                ck.eq("cli", (suite["anti_automorphism"], suite["norm_conjugation"], code),
                      (True, True, 0))
                cond = {k: v["value"] for k, v in res["conditions"].items()}
                ck.eq("cli", (cond["division_condition"], cond["unit_norm_condition"],
                              cond["commuting_condition"], cond["witness_prime_a"],
                              cond["witness_prime_a2"]), (True, True, True, 7, 7))
            else:
                # the grid involution is not anti-multiplicative (README)
                ck.eq("cli", (suite["anti_automorphism"], suite["norm_conjugation"]),
                      (False, False))

        return self._call("verify-algebra", argv, check)

    def op_certify(self, rng, index):
        path, g, (l, m) = self.graphs[index]

        def check(ck, res, code):
            lam, verdict = ref.bigraph_verdict(ref.singular_values(g.n, g.edges, g.parts), l, m)
            cert = res["certificate"]
            ck.close("cli", [cert["lambda"]["value"]], [lam], 1e-8)
            ck.eq("cli", (cert["is_ramanujan"], code), (verdict, 0 if verdict else 1))

        return self._call("certify", ["certify", path], check)

    def op_spectrum(self, rng, index):
        path, g, _ = self.graphs[index]

        def check(ck, res, code):
            want = ref.bigraph_spectrum(ref.singular_values(g.n, g.edges, g.parts), g.n)
            ck.close("cli", res["eigenvalues"]["value"], want, 1e-8)
            ck.eq("cli", (res["connected"]["value"], res["bipartite"]["value"]), (True, True))

        return self._call("spectrum", ["spectrum", path], check)

    def op_expansion(self, rng, index):
        path, g, _ = self.small[index]

        def check(ck, res, code):
            ck.eq("cli", Fraction(res["c"]["value"]), ref.expansion(g.n, g.edges))

        return self._call("expansion", ["expansion", path], check)

    def op_tree(self, rng):
        l, m, radius = 28, 4, 3
        argv = ["tree", "--l", str(l), "--m", str(m), "--radius", str(radius)]

        def check(ck, res, code):
            counts = ref.tree_level_counts(l, m, radius)
            ck.eq("cli", (res["level_counts"]["value"], res["vertices"]["value"],
                          res["identity_covering"]["value"]), (counts, sum(counts), True))

        return self._call("tree", argv, check)

    def op_primes(self, rng):
        n = 3000 - rng.randrange(100)

        def check(ck, res, code):
            ck.eq("cli", res["good_primes"]["value"], ref.good_primes(n))
            ck.eq("cli", {p: v["value"] for p, v in res["classification"].items()},
                  {str(p): ref.splitting(p)[0] for p in range(2, 51) if ref.is_prime(p)})

        return self._call("primes", ["primes", "--up-to", str(n)], check)

    def op_finite_group(self, rng):
        def check(ck, res, code):
            ck.eq("cli", (res["order"], res["formula_order_level1"]["value"]),
                  ({"value": ref.SU3_LEVEL1_ORDER_Q2, "method": "enumerated"},
                   ref.SU3_LEVEL1_ORDER_Q2))

        return self._call("finite-group", ["finite-group", "--q", "2", "--n", "1"], check)

    def op_random_bigraph(self, rng):
        l, m, n1 = 9, 3, rng.randint(5, 15)    # denser (28, 4) draws retry many times
        n2 = n1 * l // m
        argv = ["random-bigraph", "--n1", str(n1), "--n2", str(n2), "--l", str(l),
                "--m", str(m), "--seed", str(rng.getrandbits(32))]

        def check(ck, res, code):
            ck.true("cli", ref.is_biregular_simple(n1, n2, l, m, res["graph"]["edges"]))
            ck.eq("cli", res["profile"]["value"], [n1, n2, l, m])

        return self._call("random-bigraph", argv, check)

    def op_paper_suite(self, rng):
        # the default --seed 0, as users run it; a seeded sample count would
        # change the op's cost from seed to seed
        def check(ck, res, code):
            b = res["battery"]
            ck.eq("cli", b["galois_example"]["status"], "pass")
            ng = {k: v["value"] for k, v in b["nongalois_example"]["involution_suite"].items()}
            ck.eq("cli", (ng["alpha_squared_is_identity"], ng["restricts_to_tau_on_E"],
                          ng["norm_equals_det"], ng["anti_automorphism"],
                          ng["norm_conjugation"]), (True, True, True, False, False))
            ck.eq("cli", (b["archimedean"]["special_unitary_matrices"]["value"],
                          b["archimedean"]["torus_points"]["value"],
                          b["good_primes"]["mod12_agreement"]["value"],
                          b["certification"]["spot_checks"]["value"],
                          b["finite_group"]["order"]["value"],
                          b["tree_balls"]["level_counts_match"]["value"]),
                  (True, True, True, True, ref.SU3_LEVEL1_ORDER_Q2, True))

        return self._call("paper-suite", ["--paper-suite"], check)


WORKLOADS = {w.name: w for w in (ExactAlgebra, SpectralCertify, FiniteGroups, CliReports)}
