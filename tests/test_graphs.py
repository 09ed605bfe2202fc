"""Unit tests for graph structure, spectra, certification, and generation."""

import itertools
import json
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramanujan_bigraphs import cli, graphs, trees
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
    deflated_lambda,
    expansion_coefficient,
    graph_from_json,
    graph_to_json,
    lambda_of,
    random_biregular,
    save_graph,
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
    with pytest.raises(GraphError, match=r"duplicate edge \(0, 1\)"):
        Graph(2, ((0, 1), (1, 0)))          # duplicate
    with pytest.raises(GraphError, match=r"duplicate edge \(1, 2\)"):
        Graph(3, ((1, 2), (0, 1), (2, 1), (1, 0)))   # the first repeat in input order
    with pytest.raises(GraphError):
        Graph(2, ((0, 2),))                 # out of range
    with pytest.raises(GraphError):
        Graph(2, ((0, 1),), (0, 0))         # parts violated
    with pytest.raises(GraphError, match="beyond int64"):
        Graph(2 ** 64, ((0, 2 ** 63),))     # in range, but not an int64 vertex id
    g = Graph(2 ** 63, ((1, 2), (0, 5)))
    assert g.edges == ((0, 5), (1, 2)) and g.edge_array().tolist() == [[0, 5], [1, 2]]
    # any iterable of pairs is read once, and the edges come back as tuples
    assert Graph(3, ([0, 1], [1, 2])).edges == ((0, 1), (1, 2))
    assert Graph(3, ((u, u + 1) for u in range(2))).edges == ((0, 1), (1, 2))


def reference_graph(n, edges, parts):
    """(edges, parts) of Graph(n, edges, parts), by the edge-by-edge loop
    the edge array replaced."""
    if n < 0:
        raise GraphError("vertex count must be non-negative")
    canon = []
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge {e} references an invalid vertex")
        if u < v:
            canon.append((u, v))
        elif v < u:
            canon.append((v, u))
        else:
            raise GraphError(f"loop at vertex {u} not allowed")
    if len(set(canon)) < len(canon):
        seen = set()
        key = next(k for k in canon if k in seen or seen.add(k))
        raise GraphError(f"duplicate edge {key}")
    edges = tuple(sorted(canon))
    if parts is not None:
        parts = tuple(parts)
        if len(parts) != n or any(c not in (0, 1) for c in parts):
            raise GraphError("parts must assign 0/1 to every vertex")
        for u, v in edges:
            if parts[u] == parts[v]:
                raise GraphError(f"edge ({u},{v}) violates the declared parts")
    return edges, parts


@st.composite
def graph_arguments(draw):
    """(n, edges, parts): a simple graph in any edge order and orientation,
    with up to two defects (a loop, a repeat in either orientation, an id
    below 0, at or above n or at or above 2^63), and parts of any length
    and value."""
    n = draw(st.integers(1, 6) | st.sampled_from([0, 2 ** 63]))
    pairs = list(itertools.combinations(range(min(n, 6)), 2))
    edges = [(v, u) if draw(st.booleans()) else (u, v)
             for u, v in draw(st.lists(st.sampled_from(pairs), unique=True))] if pairs else []
    for defect in draw(st.lists(st.sampled_from(["loop", "repeat", "reversed", "id"]),
                                max_size=2)):
        if defect == "loop":
            v = draw(st.integers(0, 6))
            edges.append((v, v))
        elif defect == "id":
            bad = draw(st.sampled_from([-1, n, 2 ** 63, 2 ** 64, -2 ** 63 - 1]))
            edges.append((draw(st.integers(0, 6)), bad)[::draw(st.sampled_from([1, -1]))])
        elif edges:
            u, v = draw(st.sampled_from(edges))
            edges.append((u, v) if defect == "repeat" else (v, u))
    edges = draw(st.permutations(edges))
    parts = None
    if draw(st.booleans()) and n < 2 ** 63:
        binary = st.lists(st.integers(0, 1), min_size=n, max_size=n)
        wrong = st.lists(st.integers(-1, 2), min_size=max(n - 1, 0), max_size=n + 1)
        parts = draw(binary | binary | wrong)
        if draw(st.booleans()):          # keep only the edges the colouring allows
            edges = [(u, v) for u, v in edges if 0 <= u < len(parts) and 0 <= v < len(parts)
                     and parts[u] != parts[v]]
    return n, tuple(edges), parts


@settings(max_examples=400, deadline=None)
@given(graph_arguments())
def test_graph_validation_matches_reference(args):
    try:
        want = reference_graph(*args)
    except GraphError as exc:
        with pytest.raises(GraphError) as got:
            Graph(*args)
        assert str(got.value) == str(exc)
    else:
        g = Graph(*args)
        assert (g.edges, g.parts) == want
        assert g.edge_array().tolist() == [list(e) for e in want[0]]


def _edge_array(edges):
    """edges as an (E, 2) int64 array, or None if an id does not fit in int64."""
    try:
        return np.array(edges, dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        return None


def _built(n, edges, parts):
    """(edges, edge array, parts, parts array) of Graph(n, edges, parts), or
    the message of the GraphError it raised."""
    try:
        g = Graph(n, edges, parts)
    except GraphError as exc:
        return str(exc)
    side = g.parts_array()
    return (g.edges, g.edge_array().tolist(), g.parts, None if side is None else side.tolist())


@settings(max_examples=400, deadline=None)
@given(graph_arguments())
def test_array_and_tuple_input_agree(args):
    # an int64 edge array takes the array route past the per-pair reading;
    # both routes give the same graph or the same first-bad-edge message
    n, edges, parts = args
    want = _built(n, edges, parts)
    ends = _edge_array(edges)
    if ends is None:                          # an id past int64 is no vertex
        assert isinstance(want, str)
        return
    side = None if parts is None else np.array(parts, dtype=np.int64)
    assert _built(n, ends, parts) == want
    assert _built(n, ends, side) == want
    assert _built(n, edges, side) == want
    if not isinstance(want, str):
        g = Graph(n, ends, side)
        kept = g.edge_array()
        twin = Graph(n, edges, parts)
        # ndarray and pair arguments alike stay arrays until edges or parts is
        # read; then the graph is the one the pairs give, to ==, hash and repr too
        for built in (g, twin):
            assert "edges" not in vars(built) and ("parts" in vars(built)) == (parts is None)
        assert hash(g) == hash(twin) and repr(g) == repr(twin) and g == twin
        assert g.edge_array() is kept
        assert all(type(v) is int for v in itertools.chain(*g.edges, g.parts or ()))
        assert g.edge_array().dtype == np.int64 and not g.edge_array().flags.writeable
        assert g.parts is None or (g.parts_array().dtype == np.int8
                                   and not g.parts_array().flags.writeable)


def test_edge_array_input_is_copied():
    ends = np.array([[1, 2], [0, 1]])
    g = Graph(3, ends)
    ends[0, 0] = 0                            # the caller's array stays the caller's
    assert g.edges == ((0, 1), (1, 2)) and g.edge_array().tolist() == [[0, 1], [1, 2]]
    big = np.array([[0, 2 ** 63]], dtype=np.uint64)
    with pytest.raises(GraphError, match=r"edge \(0, 9223372036854775808\) names a vertex beyond int64"):
        Graph(2 ** 64, big)
    assert Graph(3, np.array([[2, 1]], dtype=np.uint8)).edges == ((1, 2),)


@pytest.mark.parametrize("n, edges, parts, message", [
    (3, [(0.5, 1), (0, 2.9)], None, "pairs of integer vertex ids"),   # was read as (0, 1), (0, 2)
    (3, [("0", "1")], None, "pairs of integer vertex ids"),
    (3, [(0, 1, 2)], None, "pairs of integer vertex ids"),
    (3, [5], None, "pairs of integer vertex ids"),
    (3, [(0, 1), (1, 2.0)], None, "pairs of integer vertex ids"),
    (3, np.array([[0.0, 1.0]]), None, "pairs of integer vertex ids"),
    (3, np.array([[False, True]]), None, "pairs of integer vertex ids"),
    (3, np.array([0, 1]), None, "pairs of integer vertex ids"),
    (3, np.zeros((1, 3), dtype=int), None, "pairs of integer vertex ids"),
    (3, [(0, 1)], (0, 1.0, 1), "parts must assign"),                  # was stored as given
    (3, [(0, 1)], ("0", "1", "1"), "parts must assign"),
    (3, [(0, 1)], np.array([0.0, 1.0, 1.0]), "parts must assign"),
    (3, [(0, 1)], np.array([[0, 1, 1]]), "parts must assign"),
    (3, [(0, 1)], (0, 1, 2 ** 64), "parts must assign"),
    (2.5, [(0, 1)], None, "vertex count must be an integer"),   # built, then analysis raised
    (True, [], None, "vertex count must be an integer"),        # was written as "n": true
], ids=["float-ids", "str-ids", "triple", "bare-int", "one-float", "float-array",
        "bool-array", "flat-array", "three-columns", "float-part", "str-parts",
        "float-parts-array", "parts-2d", "part-past-int64", "float-n", "bool-n"])
def test_non_integer_ids_and_parts_are_refused(n, edges, parts, message):
    with pytest.raises(GraphError, match=message):
        Graph(n, edges, parts)


def test_parts_are_python_ints():
    # a numpy vertex count and numpy and bool parts are stored as Python ints,
    # so the graph's JSON document dumps and reads back
    for n, parts in ((3, np.array([0, 1, 1])), (3, (False, True, True)),
                     (np.int64(3), (np.int8(0), 1, np.int64(1)))):
        g = Graph(n, [(0, 1), (0, 2)], parts)
        assert type(g.n) is int and g.n == 3
        assert g.parts == (0, 1, 1) and all(type(c) is int for c in g.parts)
        assert graph_from_json(json.loads(json.dumps(graph_to_json(g)))) == g


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


def reference_neighbor_lists(g):
    """Each vertex's neighbours, one edge tuple at a time."""
    nbr = [[] for _ in range(g.n)]
    for u, v in g.edges:
        nbr[u].append(v)
        nbr[v].append(u)
    return tuple(map(tuple, nbr))


def reference_structure(g):
    """Connectivity, bipartition and profile from a search that 2-colours
    each component from its smallest vertex: the pass the double cover
    replaced."""
    color = [-1] * g.n
    nbr = reference_neighbor_lists(g)
    bipartite = True
    components = 0
    for start in range(g.n):
        if color[start] != -1:
            continue
        components += 1
        color[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for v in nbr[u]:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    bipartite = False
    bipartition = None
    if bipartite:                      # declared parts win over the colouring
        bipartition = g.parts if g.parts is not None else tuple(color)
    deg = [len(a) for a in nbr]
    profile = None
    if g.n > 0 and len(set(deg)) == 1:
        profile = RegularProfile(deg[0], bipartite)
    elif bipartition is not None:
        side = [{d for d, c in zip(deg, bipartition) if c == s} for s in (0, 1)]
        if all(len(s) == 1 for s in side):
            (d0,), (d1,) = side
            n1 = bipartition.count(0 if d0 >= d1 else 1)
            profile = BiregularProfile(n1, g.n - n1, max(d0, d1), min(d0, d1))
    return graphs.StructureReport(components <= 1, bipartition, profile)


@st.composite
def structured_graphs(draw):
    """A graph on 0..12 vertices whose components are cycles (odd beside
    even), paths, isolated vertices and random blocks, under a random
    labelling; with declared random parts half the time, keeping only the
    edges across them."""
    n = draw(st.integers(0, 12))
    order = draw(st.permutations(range(n)))
    edges, start = set(), 0
    while start < n:
        block = order[start:start + draw(st.integers(1, n - start))]
        start += len(block)
        kind = draw(st.sampled_from(["cycle", "path", "random"]))
        if kind == "random" and len(block) > 1:
            edges |= draw(st.sets(st.sampled_from(list(itertools.combinations(block, 2)))))
        else:
            edges |= set(zip(block, block[1:]))
            if kind == "cycle" and len(block) > 2:
                edges.add((block[-1], block[0]))
    parts = None
    if draw(st.booleans()):
        parts = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        edges = {(u, v) for u, v in edges if parts[u] != parts[v]}
    return Graph(n, tuple(edges), parts)


@settings(max_examples=300, deadline=None)
@given(structured_graphs())
def test_structure_matches_the_search(g):
    assert analyze_structure(g) == reference_structure(g)
    assert g.neighbors() == reference_neighbor_lists(g)
    assert g.degrees() == [len(a) for a in reference_neighbor_lists(g)]


@pytest.mark.parametrize("g", [Graph(2000, tuple((i, i + 1) for i in range(1999))), cycle(301)],
                         ids=["path-2000", "C301"])
def test_structure_of_long_paths_and_odd_cycles(g):
    # the longest chains the hooking can build, and an odd cycle whose two
    # cover vertices meet only halfway round
    rep = analyze_structure(g)
    assert rep == reference_structure(g) and rep.connected
    assert (rep.bipartition is None) == (g.n % 2 == 1)


@pytest.mark.parametrize("n", [2 ** 62, 2 ** 62 + 1, 2 ** 63])
def test_structure_refuses_a_cover_beyond_int64(n, count_calls):
    # the 2n labels of the double cover must fit in int64: refused before
    # any array is made (it raised IndexError or OverflowError)
    calls = count_calls(graphs, "_components")
    with pytest.raises(GraphClassError, match="overflow int64"):
        analyze_structure(Graph(n, ()))
    assert not calls


def test_each_graph_is_analysed_once(count_calls):
    calls = count_calls(graphs, "_neighbor_tuples", "_components", "_structure")
    g = Graph(6, tuple((i, (i + 1) % 6) for i in range(6)))      # C_6, no declared parts
    rep = analyze_structure(g)
    spectrum(g)
    certify_ramanujan(g)
    expansion_coefficient(g)
    identity = trees.CoveringCandidate(g, g, {v: v for v in range(g.n)})
    assert trees.check_local_covering(identity)
    assert not trees.quotient_handshake_check(g, 2)
    assert analyze_structure(g) is rep and g.degrees() == [2] * 6
    assert calls == {"_neighbor_tuples": 1, "_components": 1, "_structure": 1}
    assert all(isinstance(a, tuple) for a in g.neighbors())     # shared, so immutable


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
    with pytest.raises(GraphClassError, match="degree"):
        certify_ramanujan(Graph(1, ()))                   # K_1: no window at degree 0


def test_complete_bipartite_lambda_is_exactly_zero():
    for a in range(1, 10):
        for b in range(a, 10):
            cert = certify_ramanujan(complete_bipartite(a, b))
            assert cert.lam == 0.0 and cert.eigenproblem == (a, a)


# (6, 9, 3, 2)-biregular and connected, from random_biregular(6, 9, 3, 2, seed=0):
# its 6 x 9 biadjacency matrix has rank 5, so it has a zero singular value
_SINGULAR_BIGRAPH = Graph(15, (
    (0, 6), (0, 12), (0, 13), (1, 8), (1, 11), (1, 12), (2, 9), (2, 10), (2, 14),
    (3, 8), (3, 10), (3, 11), (4, 6), (4, 7), (4, 13), (5, 7), (5, 9), (5, 14)),
    (0,) * 6 + (1,) * 9)


def _random_regular(n, k, rng):
    """A connected non-bipartite simple k-regular graph on n vertices, by
    rejection from the configuration model."""
    while True:
        stubs = [v for v in range(n) for _ in range(k)]
        rng.shuffle(stubs)
        pairs = {tuple(sorted(p)) for p in zip(stubs[::2], stubs[1::2])}
        if len(pairs) == n * k // 2 and all(u != v for u, v in pairs):
            rep = analyze_structure(g := Graph(n, tuple(pairs)))
            if rep.connected and rep.bipartition is None:
                return g


def _agreement_graphs():
    rng = random.Random(19)
    for seed in range(4):
        yield random_biregular(60, 180, 9, 3, seed)
        yield random_biregular(8, 56, 28, 4, seed)
        yield random_biregular(15, 20, 4, 3, seed)
        yield random_biregular(20, 20, 3, 3, seed)
        yield _random_regular(2 * rng.randint(5, 40), 3, rng)
    yield from (cycle(n) for n in range(3, 40))
    yield _SINGULAR_BIGRAPH


def test_certify_agrees_with_the_spectrum():
    b = np.zeros((6, 9), dtype=int)
    for u, v in _SINGULAR_BIGRAPH.edges:
        b[u, v - 6] = 1
    assert not (np.array([1, -1, -1, 1, -1, 1]) @ b).any()     # a zero singular value
    for g in _agreement_graphs():
        rep = analyze_structure(g)
        assert rep.connected
        want = lambda_of(spectrum(g), rep.profile)
        assert abs(certify_ramanujan(g).lam - want) < 1e-12
    assert certify_ramanujan(_SINGULAR_BIGRAPH).lam > 2


def _cli_lambda(argv, capsys):
    cli.main(argv)
    results = json.loads(capsys.readouterr().out)["results"]
    return results.get("certificate", results)["lambda"]["value"]


def test_spectrum_and_certify_report_the_same_lambda(tmp_path, capsys):
    # one deflated eigenproblem gives both: equal bits, not equal within a tolerance
    path = str(tmp_path / "g.json")
    k35 = complete_bipartite(3, 5)
    for g in itertools.chain(_agreement_graphs(), [k35, random_biregular(60, 180, 9, 3, 0)]):
        save_graph(g, path)
        lam = _cli_lambda(["certify", path], capsys)
        assert _cli_lambda(["spectrum", path], capsys) == lam
        assert g is not k35 or lam == 0.0
        if g.n <= graphs.DEFAULT_EXPANSION_CEILING:
            assert expansion_coefficient(g).lam == lam


def test_deflated_lambda_preconditions():
    assert deflated_lambda(Graph(1, ())) == (0.0, (0, 0), (0, 0))  # K_1: no nontrivial eigenvalue
    assert deflated_lambda(Graph(2, ((0, 1),))) == (0.0, (1, 1), (1, 1))
    assert deflated_lambda(complete_bipartite(3, 5)) == (0.0, (3, 3), (5, 3))
    assert deflated_lambda(cycle(5))[1:] == ((5, 5), (2, 2))
    irregular = Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)))
    for g in (Graph(4, ((0, 1), (2, 3))), irregular, Graph(0, ())):
        with pytest.raises(GraphClassError, match="connected regular or biregular"):
            deflated_lambda(g)


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
    assert graphs.DEFAULT_EXPANSION_CEILING <= 64    # the subset scan's word size
    with pytest.raises(GraphError):
        expansion_coefficient(complete_bipartite(11, 11))
    with pytest.raises(GraphClassError, match="exceeds the brute-force ceiling"):
        expansion_coefficient(cycle(65))


@pytest.mark.parametrize("g, c, subset", [
    (cycle(16), Fraction(1, 4), tuple(range(8))),
    (random_biregular(4, 12, 9, 3, seed=3), Fraction(1, 2), tuple(range(4, 12))),
], ids=["C16", "biregular-9-3"])
def test_expansion_pinned_minimiser(g, c, subset):
    # the first minimiser in scan order (subsets as bitmasks, ascending) wins
    rep = expansion_coefficient(g)
    assert (rep.c, rep.minimizing_subset) == (c, subset)


def _reference_expansion(g):
    """(c, 2c, minimising subset) by the one-subset-at-a-time scan that the
    word-parallel scan replaced: the first minimiser in ascending bitmask
    order wins, and ratios are compared by integer cross-products."""
    nbr_mask = [sum(1 << v for v in a) for a in g.neighbors()]
    half = g.n // 2
    best_b, best_size, best_set = 1, 0, 0     # 1/0 stands for infinity
    for w in range(1, 1 << g.n):
        size = w.bit_count()
        if size > half:
            continue
        boundary = 0
        rest = w
        while rest:
            v = (rest & -rest).bit_length() - 1
            boundary |= nbr_mask[v]
            rest &= rest - 1
        b = (boundary & ~w).bit_count()
        if b * best_size < best_b * size:
            best_b, best_size, best_set = b, size, w
            if b == 0:
                break
    best = Fraction(best_b, best_size)
    return best, 2 * best, tuple(v for v in range(g.n) if best_set >> v & 1)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, tuple(e for e, k in zip(pairs, keep) if k))


@settings(max_examples=200, deadline=None)
@given(small_graphs(), st.integers(1, graphs._BLOCK_BITS))
def test_expansion_matches_reference(g, block_bits):
    # every block size gives the same answer, so small graphs also take
    # the multi-block path
    with mock.patch.object(graphs, "_BLOCK_BITS", block_bits):
        rep = expansion_coefficient(g)
    assert (rep.c, rep.two_c, rep.minimizing_subset) == _reference_expansion(g)


def test_expansion_multi_block_matches_reference():
    rng = random.Random(3)
    g = Graph(18, tuple((u, v) for u in range(18) for v in range(u + 1, 18) if rng.random() < 0.5))
    rep = expansion_coefficient(g)
    assert (rep.c, rep.two_c, rep.minimizing_subset) == _reference_expansion(g)
    assert max(rep.minimizing_subset) >= graphs._BLOCK_BITS   # found in a later block


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


def test_random_biregular_ceiling():
    # a star on ceiling + 1 vertices is feasible, so only the ceiling refuses it
    with pytest.raises(GraphClassError, match="exceeds the spectrum ceiling"):
        random_biregular(1, graphs.SPECTRUM_CEILING, graphs.SPECTRUM_CEILING, 1, seed=0)
    assert random_biregular(5000, 5000, 3, 3, seed=0).n == graphs.SPECTRUM_CEILING


def test_random_biregular_edge_ceiling(monkeypatch):
    # 2809 * 89 = EDGE_CEILING + 1 edges on 5,618 vertices: feasible, and
    # refused before the random generator is even made
    assert 2809 * 89 == graphs.EDGE_CEILING + 1
    monkeypatch.setattr(random, "Random", mock.Mock(side_effect=AssertionError("drew")))
    with pytest.raises(GraphClassError, match=f"exceeds the edge ceiling {graphs.EDGE_CEILING}"):
        random_biregular(2809, 2809, 89, 89, seed=0)


@st.composite
def _biregular_shapes(draw):
    """A feasible (n1, n2, l, m): l is a multiple of n2 / gcd(n1, n2) up to n2,
    so every density, 2l > n2 and l = n2 (complete) among them, comes up."""
    n1, n2 = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    g = math.gcd(n1, n2)
    k = draw(st.integers(1, g))
    return n1, n2, k * n2 // g, k * n1 // g


def _assert_biregular_draw(n1, n2, l, m, seed):
    g = random_biregular(n1, n2, l, m, seed)     # Graph refuses a repeated edge
    ends = g.edge_array()
    assert g.n == n1 + n2 and g.parts == (0,) * n1 + (1,) * n2
    assert len(g.edges) == n1 * l and (ends[:, 0] < n1).all() and (ends[:, 1] >= n1).all()
    assert (np.bincount(ends.ravel(), minlength=g.n) == [l] * n1 + [m] * n2).all()
    assert random_biregular(n1, n2, l, m, seed).edges == g.edges


@settings(max_examples=150, deadline=None)
@given(_biregular_shapes(), st.integers(-2, 2 ** 70))
def test_random_biregular_is_simple_exact_and_seeded(shape, seed):
    _assert_biregular_draw(*shape, seed)


def test_random_biregular_half_dense_repair_is_quick(monkeypatch):
    # each accepted switch removes a repeat, so the densest drawn shape needs
    # under 45 rounds here; switches that may make repeats took over 100
    monkeypatch.setattr(graphs, "_SWITCH_ROUNDS", 80)
    for seed in (1, 2, 3):
        _assert_biregular_draw(200, 200, 100, 100, seed)


@pytest.mark.parametrize("shape", [(1000, 1000, 100, 100), (50, 100, 100, 50)],
                         ids=["dense-100", "complete-50-100"])
def test_random_biregular_fixed_shapes(shape):
    _assert_biregular_draw(*shape, seed=1)


def test_random_biregular_deterministic():
    g1 = random_biregular(4, 8, 4, 2, seed=5)
    g2 = random_biregular(4, 8, 4, 2, seed=5)
    g3 = random_biregular(4, 8, 4, 2, seed=6)
    assert g1.edges == g2.edges
    assert analyze_structure(g1).profile == BiregularProfile(4, 8, 4, 2)
    assert g1.edges != g3.edges


# draws pinned before random_biregular handed its edge array to Graph
_PINNED_DRAWS = {
    (4, 8, 4, 2, 5): ((0, 6), (0, 7), (0, 9), (0, 11), (1, 4), (1, 7), (1, 8), (1, 10),
                      (2, 5), (2, 6), (2, 8), (2, 11), (3, 4), (3, 5), (3, 9), (3, 10)),
    (4, 8, 6, 3, 1): ((0, 5), (0, 6), (0, 7), (0, 9), (0, 10), (0, 11), (1, 4), (1, 7),
                      (1, 8), (1, 9), (1, 10), (1, 11), (2, 4), (2, 5), (2, 6), (2, 8),
                      (2, 9), (2, 10), (3, 4), (3, 5), (3, 6), (3, 7), (3, 8), (3, 11)),
}


@pytest.mark.parametrize("shape", [(4, 8, 4, 2), (4, 8, 6, 3), (60, 180, 9, 3), (8, 56, 28, 4)],
                         ids=["9-3-small", "half-dense", "9-3", "28-4"])
@pytest.mark.parametrize("seed", [1, 5])
def test_random_biregular_matches_tuple_built_graph(shape, seed):
    # the array hand-off gives the graph that the same pairs, as tuples, give
    g = random_biregular(*shape, seed)
    n1, n2 = shape[:2]
    pairs = tuple(zip(*g.edge_array().T.tolist()))
    want = Graph(n1 + n2, pairs[::-1], (0,) * n1 + (1,) * n2)
    assert g == want and (g.edges, g.parts) == (want.edges, want.parts)
    assert all(type(v) is int for v in itertools.chain(*g.edges, g.parts))
    if (*shape, seed) in _PINNED_DRAWS:
        assert g.edges == _PINNED_DRAWS[(*shape, seed)]


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


@pytest.mark.parametrize("doc", [
    {"n": 3.0, "edges": [[0, 1]]},
    {"n": True, "edges": []},
    {"n": 3, "edges": [[0, 1.5]]},
    {"n": 3, "edges": [[0, 1.0]]},
    {"n": 3, "edges": [[False, 1]]},
    {"n": 2, "edges": [[0, 1]], "parts": [0, 1.0]},
    {"n": 2, "edges": [[0, 1]], "parts": [False, True]},
    {"n": 0, "edges": {}},                      # edges is a list, not an object
])
def test_json_ids_must_be_integers(doc):
    with pytest.raises(GraphError, match="not integers"):
        graph_from_json(doc)


@pytest.mark.parametrize("edge", [[0, 1, 2], [0], []])
def test_json_edges_must_be_pairs(edge):
    with pytest.raises(GraphError, match="^edges must be pairs of integer vertex ids$"):
        graph_from_json({"n": 3, "edges": [[0, 1], edge]})


def test_dot_export():
    dot = to_dot(complete_bipartite(2, 2))
    assert dot.startswith("graph G {") and "0 -- 2;" in dot


def test_save_graph_of_an_array_built_graph(tmp_path):
    # written from the arrays, byte for byte the document the tuples gave
    path = tmp_path / "g.json"
    save_graph(Graph(3, np.array([[2, 1]]), np.array([0, 1, 0])), path)
    assert path.read_text() == \
        '{\n  "n": 3,\n  "edges": [\n    [\n      1,\n      2\n    ]\n  ],\n' \
        '  "parts": [\n    0,\n    1,\n    0\n  ]\n}\n'
    for g in (random_biregular(3, 9, 9, 3, seed=1), biregular_tree_ball(9, 3, 3).graph,
              Graph(4, np.array([[3, 0], [1, 2]]))):
        save_graph(g, path)
        doc = {"n": g.n, "edges": [list(e) for e in g.edges]}
        if g.parts is not None:
            doc["parts"] = list(g.parts)
        assert path.read_text() == json.dumps(doc, indent=2) + "\n"
