"""Unit tests for graph structure, spectra, certification, and generation."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ramanujan_bigraphs.graphs import (
    BiregularProfile,
    Graph,
    GraphClassError,
    GraphError,
    RegularProfile,
    SpectralStructureError,
    Spectrum,
    analyze_structure,
    bound_values,
    certify_ramanujan,
    complete_bipartite,
    cycle,
    expansion_coefficient,
    graph_from_json,
    graph_to_json,
    lambda_of,
    random_biregular,
    spectrum,
    to_dot,
)
from ramanujan_bigraphs.trees import biregular_tree_ball


# ---------------------------------------------------------------------------
# Construction and structure
# ---------------------------------------------------------------------------

def test_graph_validation():
    with pytest.raises(GraphError):
        Graph(2, ((0, 0),))                 # loop
    with pytest.raises(GraphError):
        Graph(2, ((0, 1), (1, 0)))          # duplicate
    with pytest.raises(GraphError):
        Graph(2, ((0, 2),))                 # out of range
    with pytest.raises(GraphError):
        Graph(2, ((0, 1),), (0, 0))         # parts violated


def test_analyze_examples():
    rep = analyze_structure(complete_bipartite(3, 3))
    assert rep.connected and rep.bipartition is not None
    assert rep.profile == RegularProfile(3, True)

    rep = analyze_structure(cycle(6))
    assert rep.profile == RegularProfile(2, True)

    rep = analyze_structure(complete_bipartite(1, 3))
    assert rep.profile == BiregularProfile(1, 3, 3, 1)

    rep = analyze_structure(cycle(5))
    assert rep.profile == RegularProfile(2, False) and rep.bipartition is None


def test_handshake_enforced():
    with pytest.raises(GraphError):
        BiregularProfile(2, 3, 3, 1)


# ---------------------------------------------------------------------------
# Spectrum and lambda
# ---------------------------------------------------------------------------

def test_spectrum_examples():
    s = spectrum(complete_bipartite(3, 3))
    assert [round(v, 9) for v in s.values] == [3, 0, 0, 0, 0, -3]
    s = spectrum(Graph(2, ((0, 1),)))
    assert [round(v, 9) for v in s.values] == [1, -1]
    s = spectrum(complete_bipartite(2, 3))
    want = [round(math.sqrt(6), 9), 0, 0, 0, round(-math.sqrt(6), 9)]
    assert [round(v, 9) for v in s.values] == want


def test_lambda_examples():
    g = complete_bipartite(3, 3)
    assert lambda_of(spectrum(g), analyze_structure(g).profile) < 1e-9
    g = cycle(6)
    assert abs(lambda_of(spectrum(g), analyze_structure(g).profile) - 1) < 1e-9
    g = complete_bipartite(2, 3)
    assert lambda_of(spectrum(g), analyze_structure(g).profile) < 1e-9


def test_lambda_rejects_trivial_multiplicity():
    # two disjoint 4-cycles: eigenvalue 2 has multiplicity 2
    g = Graph(8, ((0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)))
    with pytest.raises(SpectralStructureError):
        lambda_of(spectrum(g), RegularProfile(2, True))


def test_lambda_rejects_wrong_profile():
    g = cycle(6)
    with pytest.raises(SpectralStructureError):
        lambda_of(spectrum(g), RegularProfile(3, True))


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

def test_certify_k44():
    cert = certify_ramanujan(complete_bipartite(4, 4))
    assert cert.is_ramanujan and cert.def22 and cert.def23 and cert.def21
    assert cert.lam < 1e-9
    assert abs(cert.upper_bound - 2 * math.sqrt(3)) < 1e-12


def test_certify_k23_not_ramanujan():
    cert = certify_ramanujan(complete_bipartite(2, 3))
    assert not cert.is_ramanujan
    assert cert.graph_class == "bigraph" and cert.degrees == (3, 2)
    assert abs(cert.lower_bound - (math.sqrt(2) - 1)) < 1e-12


def test_certify_c6():
    cert = certify_ramanujan(cycle(6))
    assert cert.is_ramanujan and cert.def21
    assert abs(cert.lam - 1) < 1e-9


def test_certify_preconditions():
    with pytest.raises(GraphClassError):
        certify_ramanujan(Graph(4, ((0, 1), (2, 3))))     # disconnected
    path = Graph(3, ((0, 1), (1, 2)))                     # not (bi)regular? it is (2,1)-biregular
    cert = certify_ramanujan(path)
    assert cert.graph_class == "bigraph"
    irregular = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)))
    with pytest.raises(GraphClassError):
        certify_ramanujan(irregular)


# ---------------------------------------------------------------------------
# Expansion coefficient
# ---------------------------------------------------------------------------

def test_expansion_single_edge():
    rep = expansion_coefficient(Graph(2, ((0, 1),)))
    assert rep.c == 1 and rep.two_c == 2


def test_expansion_disconnected_is_zero():
    rep = expansion_coefficient(Graph(4, ((0, 1), (2, 3))))
    assert rep.c == 0


def test_expansion_k4():
    k4 = Graph(4, tuple((i, j) for i in range(4) for j in range(i + 1, 4)))
    rep = expansion_coefficient(k4)
    assert rep.c == Fraction(1)                      # |dW| = 2 for |W| = 2
    assert rep.one_minus_lambda_over_k is not None
    assert abs(rep.one_minus_lambda_over_k - Fraction(2, 3)) < 1e-9


def test_expansion_ceiling():
    with pytest.raises(GraphError):
        expansion_coefficient(complete_bipartite(11, 11), ceiling=20)


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------

def test_bound_values():
    fl, ab = bound_values(9, 3)
    assert abs(fl - 3 * math.sqrt(2)) < 1e-12 and ab is None
    fl, ab = bound_values(2, 2)
    assert fl == ab == 2.0
    for k in range(2, 8):
        fl, ab = bound_values(k, k)
        assert fl == ab


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def test_generators():
    g = complete_bipartite(3, 3)
    assert g.n == 6 and len(g.edges) == 9
    g = cycle(6)
    assert g.n == 6 and len(g.edges) == 6


def test_random_biregular_feasibility():
    with pytest.raises(GraphClassError):
        random_biregular(3, 9, 10, 3, seed=0)    # handshake fails
    with pytest.raises(GraphClassError):
        random_biregular(2, 4, 5, 2, seed=0)     # 2*5 = 10 != 4*2 = 8
    with pytest.raises(GraphClassError):
        random_biregular(1, 2, 4, 2, seed=0)     # l=4 > n2=2


def test_random_biregular_deterministic():
    g1 = random_biregular(4, 8, 4, 2, seed=5)
    g2 = random_biregular(4, 8, 4, 2, seed=5)
    g3 = random_biregular(4, 8, 4, 2, seed=6)
    assert g1.edges == g2.edges
    assert analyze_structure(g1).profile == BiregularProfile(4, 8, 4, 2)
    assert g1.edges != g3.edges


def test_bipartite_spectral_symmetry():
    for seed in range(10):
        g = random_biregular(3, 6, 4, 2, seed=seed)
        vals = sorted(spectrum(g).values)
        assert all(abs(vals[i] + vals[-1 - i]) < 1e-9 for i in range(len(vals) // 2))


_G93 = random_biregular(4, 12, 9, 3, seed=3)
_PATHS = Graph(7, ((0, 1), (1, 2), (3, 4), (4, 5), (5, 6)))
# graph and the shape of the matrix its spectrum is taken from
_IDENTITY_CASES = {
    "biregular-parts-none": (Graph(_G93.n, _G93.edges), (4, 12)),
    "larger-side-1": (_G93, (4, 12)),
    "larger-side-0": (Graph(_G93.n, _G93.edges, tuple(1 - c for c in _G93.parts)), (4, 12)),
    "disconnected": (_PATHS, (3, 4)),
    "disconnected-parts": (Graph(7, _PATHS.edges, (0, 1, 0, 1, 0, 1, 0)), (3, 4)),
    "isolated-vertices": (Graph(6, ((0, 1), (0, 2))), (2, 4)),
    "edgeless": (Graph(4, ()), (0, 4)),
    "single-vertex": (Graph(1, ()), (0, 1)),
    "K44": (complete_bipartite(4, 4), (4, 4)),
    "K25": (complete_bipartite(2, 5), (2, 5)),
    "C8": (cycle(8), (4, 4)),
    "C8-parts-none": (Graph(8, cycle(8).edges), (4, 4)),
    "tree-ball": (biregular_tree_ball(3, 2, 4).graph, (9, 10)),
    "odd-cycle": (cycle(7), (7, 7)),
}


@pytest.mark.parametrize("g, shape", list(_IDENTITY_CASES.values()), ids=list(_IDENTITY_CASES))
def test_spectrum_matches_adjacency_eigenvalues(g, shape):
    # bipartite graphs are decomposed as their r x c biadjacency matrix,
    # the rest as their n x n adjacency matrix; both give spec(A)
    s = spectrum(g)
    want = np.sort(np.linalg.eigvalsh(g.adjacency_matrix()))[::-1]
    assert len(s.values) == g.n
    assert np.max(np.abs(np.array(s.values) - want)) < 1e-10
    assert s.eigenproblem == shape


# ---------------------------------------------------------------------------
# Interchange
# ---------------------------------------------------------------------------

def test_json_roundtrip():
    g = random_biregular(3, 9, 9, 3, seed=1)
    assert graph_from_json(graph_to_json(g)) == g
    with pytest.raises(GraphError):
        graph_from_json({"edges": []})


def test_dot_export():
    dot = to_dot(complete_bipartite(2, 2))
    assert dot.startswith("graph G {") and "0 -- 2;" in dot
