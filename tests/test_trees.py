"""Unit tests for biregular tree balls and quotient validators."""

import random

import pytest

from ramanujan_bigraphs import graphs, trees
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
    count_calls(graphs, "_neighbor_lists", "_structure")
    calls = count_calls(trees, "_validate_ball")
    ball = biregular_tree_ball(9, 3, 3)
    ident = CoveringCandidate(ball, ball.graph, {v: v for v in range(ball.graph.n)})
    assert check_local_covering(ident)
    depth = ball.depth_of()
    assert ball.level_counts == (1, 9, 18, 144) == tuple(depth.count(k) for k in range(4))
    assert ball.interior_vertices() == [v for v in range(ball.graph.n) if depth[v] < 3]
    # _validate_ball holds the only BFS, and its connectivity serves the covering check
    assert calls == {"_validate_ball": 1, "_neighbor_lists": 1}


def test_ball_spectrum_symmetric():
    ball = biregular_tree_ball(4, 3, 3)
    vals = sorted(spectrum(ball.graph).values)
    assert all(abs(vals[i] + vals[-1 - i]) < 1e-9 for i in range(len(vals) // 2))


def test_ceiling():
    with pytest.raises(GraphError):
        biregular_tree_ball(9, 3, 9, ceiling=200000)


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


def test_undefined_map_errors():
    with pytest.raises(GraphError):
        check_local_covering(CoveringCandidate(cycle(6), cycle(3), {0: 0}))


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
