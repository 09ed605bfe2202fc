"""Unit tests for biregular tree balls and quotient validators."""

import itertools
import json
import random
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramanujan_bigraphs import cli, graphs, trees
from ramanujan_bigraphs.graphs import Graph, GraphClassError, GraphError, complete_bipartite, cycle, random_biregular, spectrum
from ramanujan_bigraphs.trees import (
    CoveringCandidate,
    biregular_tree_ball,
    check_local_covering,
    level_counts_closed_form,
    quotient_handshake_check,
)


def test_closed_form_examples():
    assert level_counts_closed_form(9, 3, 3) == [1, 9, 18, 144]
    assert level_counts_closed_form(2, 2, 4) == [1, 2, 2, 2, 2]
    assert level_counts_closed_form(5, 5, 2) == [1, 5, 20]
    assert level_counts_closed_form(9, 3, 0) == [1]
    assert level_counts_closed_form(9, 3, 2, root_side="m") == [1, 3, 24]


def test_closed_form_matches_construction():
    rng = random.Random(0)
    for _ in range(30):
        l, m = rng.randint(2, 6), rng.randint(2, 6)
        r = rng.randint(0, 4)
        side = rng.choice(["l", "m"])
        counts = level_counts_closed_form(l, m, r, side)
        if sum(counts) > 20000:
            continue
        ball = biregular_tree_ball(l, m, r, side)
        assert list(ball.level_counts) == counts
        assert ball.graph.n == sum(counts)
        assert len(ball.graph.edges) == ball.graph.n - 1     # acyclic + connected


def test_ball_examples():
    ball = biregular_tree_ball(9, 3, 2)
    assert ball.level_counts == (1, 9, 18) and ball.graph.n == 28
    ball = biregular_tree_ball(9, 3, 0)
    assert ball.graph.n == 1
    ball = biregular_tree_ball(9, 3, 3)
    assert ball.level_counts == (1, 9, 18, 144)


@pytest.mark.parametrize("side", ["l", "m"])
def test_level_counts_are_measured_depths(side):
    ball = biregular_tree_ball(4, 3, 4, side)
    depth = ball.depth_of()
    assert list(ball.level_counts) == [depth.count(k) for k in range(ball.radius + 1)]


def test_each_ball_is_searched_once(count_calls):
    calls = count_calls(graphs, "_canonical_edges", "_neighbor_tuples", "_components", "_structure")
    count_calls(trees, "_validate_ball")
    ball = biregular_tree_ball(9, 3, 3)
    ident = CoveringCandidate(ball, ball.graph, {v: v for v in range(ball.graph.n)})
    assert check_local_covering(ident)
    depth = ball.depth_of()
    assert ball.level_counts == (1, 9, 18, 144) == tuple(depth.count(k) for k in range(4))
    assert ball.interior_vertices() == [v for v in range(ball.graph.n) if depth[v] < 3]
    # one edge array and one depth pass per ball: the covering check reads
    # both, with no neighbour tuples and no structure pass
    assert calls == {"_canonical_edges": 1, "_validate_ball": 1}


def reference_tree_ball_graph(l, m, r, side):
    """The ball's graph from tuples, one vertex at a time: each level's
    vertices numbered after the level above, each vertex's children after
    those of the vertex before it."""
    counts = level_counts_closed_form(l, m, r, side)
    edges, parts, level = [], [0], [0]
    for k in range(1, r + 1):
        branch = counts[k] // counts[k - 1]
        start = len(parts)
        edges += [(u, start + i * branch + j) for i, u in enumerate(level) for j in range(branch)]
        level = list(range(start, start + branch * len(level)))
        parts += [k % 2] * len(level)
    return Graph(len(parts), tuple(edges), tuple(parts))


@pytest.mark.parametrize("l, m, r, side", [(9, 3, 3, "l"), (28, 4, 3, "l"), (3, 9, 4, "m"),
                                           (2, 2, 5, "l"), (4, 3, 0, "m"), (5, 2, 1, "l")])
def test_ball_matches_tuple_built_graph(l, m, r, side):
    # the ball hands Graph its edge and parts arrays: the same graph as from tuples
    g = biregular_tree_ball(l, m, r, side).graph
    want = reference_tree_ball_graph(l, m, r, side)
    assert g == want and (g.edges, g.parts) == (want.edges, want.parts)
    assert all(type(v) is int for v in itertools.chain(*g.edges, g.parts))
    assert g.parts_array().tolist() == list(g.parts)


def test_array_built_ball_builds_no_tuples(monkeypatch, capsys):
    # the ball and the tree command read only the arrays; no edge or part
    # tuple is built unless a caller reads edges or parts
    ball = biregular_tree_ball(28, 4, 3)
    assert not {"edges", "parts"} & vars(ball.graph).keys()

    def refuse(g):
        raise AssertionError("a tuple of edges or parts was built")
    for name in ("edges", "parts"):
        monkeypatch.setitem(graphs._TUPLES, name, refuse)
    assert cli.main(["tree", "--l", "28", "--m", "4", "--radius", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["edges"]["value"] == 2380


def test_ball_beyond_its_radius_is_refused():
    path = Graph(4, ((0, 1), (1, 2), (2, 3)))
    with pytest.raises(GraphError, match="vertex 3 is not within radius 1"):
        trees.TreeBall(path, root=1, radius=1, l=2, m=2, root_side="l")
    inside = Graph(3, path.edges[:2])
    assert trees.TreeBall(inside, root=1, radius=1, l=2, m=2, root_side="l").level_counts == (1, 2)


def test_ball_spectrum_symmetric():
    ball = biregular_tree_ball(4, 3, 3)
    vals = sorted(spectrum(ball.graph).values)
    assert all(abs(vals[i] + vals[-1 - i]) < 1e-9 for i in range(len(vals) // 2))


def test_ceiling():
    with pytest.raises(GraphError):
        biregular_tree_ball(9, 3, 9)


def test_identity_covering():
    ball = biregular_tree_ball(5, 3, 3)
    ident = CoveringCandidate(ball, ball.graph, {v: v for v in range(ball.graph.n)})
    assert check_local_covering(ident)


def test_c6_to_c3_double_cover():
    cand = CoveringCandidate(cycle(6), cycle(3), {v: v % 3 for v in range(6)})
    assert check_local_covering(cand)


def test_collapsed_neighbors_rejected():
    cand = CoveringCandidate(cycle(6), cycle(3), {0: 0, 1: 1, 2: 2, 3: 0, 4: 1, 5: 0})
    assert not check_local_covering(cand)


def test_disconnected_codomain_refused():
    # only a ball's own graph skips the connectivity pass
    two_triangles = Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    ball = biregular_tree_ball(2, 2, 2)                   # the path 3 - 1 - 0 - 2 - 4
    ident = {v: v for v in range(5)}
    assert check_local_covering(CoveringCandidate(ball, Graph(5, ball.graph.edges), ident))
    for domain, codomain in ((cycle(6), two_triangles), (ball, Graph(5, ball.graph.edges[:-1]))):
        ident = {v: v for v in range(codomain.n)}
        with pytest.raises(GraphClassError, match="connected"):
            check_local_covering(CoveringCandidate(domain, codomain, ident))


def test_huge_vertex_counts_are_decided_from_the_counts(count_calls):
    # 2^63 isolated vertices: an isolated vertex fails the bidegree, and fewer
    # than n - 1 edges cannot connect a codomain, with no per-vertex pass
    huge = Graph(2 ** 63, ())
    calls = count_calls(graphs, "analyze_structure")
    count_calls(trees, "analyze_structure")
    assert not quotient_handshake_check(huge, 2)
    with pytest.raises(GraphClassError, match="connected"):
        check_local_covering(CoveringCandidate(cycle(6), huge, {v: v for v in range(6)}))
    assert not calls


def test_undefined_map_errors():
    with pytest.raises(GraphError, match=r"undefined on vertices \[1, 2, 3, 4, 5\]"):
        check_local_covering(CoveringCandidate(cycle(6), cycle(3), {0: 0}))


@pytest.mark.parametrize("images, message", [
    (np.array([0, 1, 2, 0, 1, 3]), r"leaves the codomain at \[5\]"),
    (np.array([0, 1, -1, 0, 1, 2]), r"leaves the codomain at \[2\]"),
    (np.array([0, 1, 2, 0, 1]), r"shape \(5,\)"),
    (np.arange(6).reshape(2, 3) % 3, r"shape \(2, 3\)"),
    (np.array([0.0, 1, 2, 0, 1, 2]), "dtype float64"),
    ({0: 0, 1: 1, 2: 2, 3: 0, 4: 1, 5: 3}, r"leaves the codomain at \[5\]"),
    ({0: 0, 1: 1, 2: 2, 3: 0, 4: 1, 5: 2.0}, "must be integers"),     # was read as 2
    ({0: 0, 1: 1, 2: 2, 3: 0, 4: 1, 5: 2 ** 64}, "must be integers that fit in int64"),
], ids=["array-past-codomain", "array-negative", "array-short", "array-2d", "array-float",
        "dict-past-codomain", "dict-float", "dict-past-int64"])
def test_bad_vertex_maps_are_refused(images, message):
    with pytest.raises(GraphError, match=message):
        check_local_covering(CoveringCandidate(cycle(6), cycle(3), images))


def test_image_array_and_dict_agree():
    # the image array is read as it is given: any integer dtype, and never kept
    for images in (np.arange(6) % 3, (np.arange(6) % 3).astype(np.uint8)):
        assert check_local_covering(CoveringCandidate(cycle(6), cycle(3), images))
    collapse = np.array([0, 1, 2, 0, 1, 0])
    assert not check_local_covering(CoveringCandidate(cycle(6), cycle(3), collapse))
    ball = biregular_tree_ball(28, 4, 2)
    assert check_local_covering(CoveringCandidate(ball, ball.graph, np.arange(ball.graph.n)))


def test_handshake_examples():
    g = random_biregular(3, 9, 9, 3, seed=7)
    assert quotient_handshake_check(g, 2)
    assert not quotient_handshake_check(complete_bipartite(2, 2), 2)
    assert not quotient_handshake_check(g, 3)
    with pytest.raises(GraphError):
        quotient_handshake_check(g, 4)


def test_handshake_accepts_complete_bidegree_graph():
    # K_{4,28} is (28, 4)-biregular, exactly the (p^3+1, p+1) bidegree for p = 3
    assert quotient_handshake_check(complete_bipartite(4, 28), 3)


def test_handshake_rejects_wrong_bidegree():
    g = complete_bipartite(2, 9)       # (9, 2)-biregular; p = 2 needs (9, 3)
    assert not quotient_handshake_check(g, 2)


# ---------------------------------------------------------------------------
# The array kernels against the vertex-by-vertex references they replaced
# ---------------------------------------------------------------------------

def reference_validate_ball(ball):
    """BFS depths of a tree ball, by one queue over the neighbour tuples."""
    g = ball.graph
    if len(g.edges) != g.n - 1:
        raise GraphError("tree ball is not acyclic")
    nbr = g.neighbors()
    depth = [-1] * g.n
    depth[ball.root] = 0
    queue = [ball.root]
    for u in queue:
        for v in nbr[u]:
            if depth[v] == -1:
                depth[v] = depth[u] + 1
                queue.append(v)
    if -1 in depth or max(depth) > ball.radius:     # every vertex within the radius
        raise GraphError("tree ball is not connected within its radius")
    d_root, d_other = (ball.l, ball.m) if ball.root_side == "l" else (ball.m, ball.l)
    for v, d in enumerate(depth):
        want = d_root if d % 2 == 0 else d_other
        if d < ball.radius and len(nbr[v]) != want:
            raise GraphError(f"interior vertex {v} has degree {len(nbr[v])}, expected {want}")
    return tuple(depth)


def reference_check_local_covering(c):
    """The local bijection at every interior vertex, by neighbour sets."""
    dom, cod = c.domain_graph(), c.codomain
    own_ball = isinstance(c.domain, trees.TreeBall) and cod is c.domain.graph
    if not own_ball and not graphs.analyze_structure(cod).connected:
        raise GraphClassError("covering codomain must be connected")
    fmap = c.vertex_map
    if any(v not in fmap for v in range(dom.n)):
        raise GraphError("vertex map undefined")
    if any(not 0 <= fmap[v] < cod.n for v in range(dom.n)):
        raise GraphError("vertex map leaves the codomain")
    if dom.parts is not None and cod.parts is not None and dom.n > 0:
        flip = cod.parts[fmap[0]] ^ dom.parts[0]
        if any(cod.parts[fmap[v]] != dom.parts[v] ^ flip for v in range(dom.n)):
            return False
    dom_nbr = dom.neighbors()
    cod_nbr = [set(s) for s in cod.neighbors()]
    interior = (c.domain.interior_vertices() if isinstance(c.domain, trees.TreeBall)
                else range(dom.n))
    for v in interior:
        images = [fmap[u] for u in dom_nbr[v]]
        if len(set(images)) != len(images) or set(images) != cod_nbr[fmap[v]]:
            return False
    return all(fmap[v] in cod_nbr[fmap[u]] for u, v in dom.edges)


def outcome(fn, *args):
    """fn(*args), or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:       # compared, never swallowed: the test asserts on it
        return type(exc)


def two_lift(base, bits):
    """The 2-lift of base whose edge e is crossed when bits[e] is set, with
    its covering map onto base: vertex x + i n lies over x."""
    n = base.n
    edges = []
    for (u, v), s in zip(base.edges, bits):
        edges += [(u, v + s * n), (u + n, v + (1 - s) * n)]
    parts = None if base.parts is None else base.parts * 2
    return Graph(2 * n, tuple(edges), parts), {x: x % n for x in range(2 * n)}


BASES = [(2, 3, 3, 2), (3, 3, 2, 2), (4, 6, 3, 2), (3, 9, 9, 3), (4, 12, 9, 3), (6, 6, 2, 2)]


@st.composite
def coverings(draw):
    """(domain, codomain, vertex map) of a true local covering."""
    kind = draw(st.sampled_from(["lift", "sheets", "cycle", "ball", "ball-copy"]))
    if kind in ("lift", "sheets"):      # two sheets: the trivial, disconnected lift
        n1, n2, l, m = draw(st.sampled_from(BASES))
        base = random_biregular(n1, n2, l, m, seed=draw(st.integers(0, 50)))
        bits = [0] * len(base.edges) if kind == "sheets" else draw(
            st.lists(st.integers(0, 1), min_size=len(base.edges), max_size=len(base.edges)))
        lift, fmap = two_lift(base, bits)
        return lift, base, fmap
    if kind == "cycle":
        k = draw(st.integers(3, 9))
        return cycle(2 * k), cycle(k), {v: v % k for v in range(2 * k)}
    ball = biregular_tree_ball(draw(st.integers(2, 4)), draw(st.integers(2, 4)),
                               draw(st.integers(0, 3)), draw(st.sampled_from(["l", "m"])))
    g = ball.graph if kind == "ball" else Graph(ball.graph.n, ball.graph.edges, ball.graph.parts)
    return ball, g, {v: v for v in range(g.n)}


def mutate(draw, domain, codomain, fmap, how):
    """One of the changes a true covering must be judged through."""
    fmap = dict(fmap)
    n = len(fmap)
    a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if how == "swap":
        fmap[a], fmap[b] = fmap[b], fmap[a]
    elif how == "collapse":
        fmap[a] = fmap[b]
    elif how == "undefined":
        del fmap[a]
    elif how == "out-of-range":
        fmap[a] = draw(st.sampled_from([-1, codomain.n, 2 ** 64]))
    elif how == "colour-flip" and codomain.parts is not None:
        # recolour the second half of the domain when no edge leaves it (two
        # sheets of a lift); else flip every colour of the codomain
        half = domain.n // 2 if isinstance(domain, Graph) else 0
        if half and all((u < half) == (v < half) for u, v in domain.edges):
            domain = Graph(domain.n, domain.edges,
                           domain.parts[:half] + tuple(1 - c for c in domain.parts[half:]))
        else:
            codomain = Graph(codomain.n, codomain.edges, tuple(1 - c for c in codomain.parts))
    elif how == "extra-edge":       # the image of a vertex gains a neighbour
        present, side = set(codomain.edges), codomain.parts
        extra = [(u, v) for u, v in itertools.combinations(range(codomain.n), 2)
                 if (u, v) not in present and (side is None or side[u] != side[v])]
        if extra:
            codomain = Graph(codomain.n, codomain.edges + (draw(st.sampled_from(extra)),), side)
    elif how == "disconnected":
        codomain = Graph(codomain.n + 1, codomain.edges,
                         None if codomain.parts is None else codomain.parts + (0,))
    return CoveringCandidate(domain, codomain, fmap)


@settings(max_examples=300, deadline=None)
@given(st.data(), coverings(),
       st.sampled_from([None, "swap", "collapse", "colour-flip", "extra-edge", "undefined",
                        "out-of-range", "disconnected"]))
def test_covering_kernel_matches_reference(data, covering, how):
    domain, codomain, fmap = covering
    cand = (CoveringCandidate(domain, codomain, fmap) if how is None
            else mutate(data.draw, domain, codomain, fmap, how))
    got = outcome(check_local_covering, cand)
    assert got is outcome(reference_check_local_covering, cand), (cand, how)
    if how is None and graphs.analyze_structure(codomain).connected:
        assert got is True                    # every true covering is accepted
    # the equal image array gets the same verdict, or the same error
    fmap = cand.vertex_map
    n = cand.domain_graph().n
    if all(v in fmap for v in range(n)) and all(-2 ** 63 <= w < 2 ** 63 for w in fmap.values()):
        images = np.array([fmap[v] for v in range(n)], dtype=np.int64)
        as_array = CoveringCandidate(cand.domain, cand.codomain, images)
        assert outcome(check_local_covering, as_array) is got, (cand, how)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.integers(0, 3), st.sampled_from(["l", "m"]),
       st.sampled_from([None, "drop", "add", "rewire", "root", "radius-", "radius+", "l+1"]),
       st.data())
def test_ball_validation_matches_reference(l, m, r, side, how, data):
    ball = biregular_tree_ball(l, m, r, side)
    g, fields = ball.graph, dict(root=0, radius=r, l=l, m=m, root_side=side)
    edges = list(g.edges)
    pick = data.draw(st.integers(0, max(len(edges) - 1, 0)))
    if how == "drop" and edges:
        del edges[pick]
    elif how == "add":
        u, v = data.draw(st.integers(0, g.n)), data.draw(st.integers(0, g.n))
        if u != v and (min(u, v), max(u, v)) not in g.edges:
            edges.append((u, v))
    elif how == "rewire" and edges:
        u, _ = edges.pop(pick)
        edges.append((u, g.n))
    elif how == "root":
        fields["root"] = data.draw(st.integers(0, g.n - 1))
    elif how == "radius-" and r:
        fields["radius"] = r - 1
    elif how == "radius+":
        fields["radius"] = r + 1
    elif how == "l+1":
        fields["l"] = l + 1
    n = max([g.n, *(v + 1 for e in edges for v in e)])
    graph = Graph(n, tuple(edges))
    got = outcome(lambda: trees.TreeBall(graph, **fields).depth_of())
    want = outcome(reference_validate_ball, types.SimpleNamespace(graph=graph, **fields))
    assert got == (list(want) if isinstance(want, tuple) else want), (how, fields)
    assert how is not None or got == list(ball.depth_of())
