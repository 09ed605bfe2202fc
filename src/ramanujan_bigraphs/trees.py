"""Finite balls of the (l, m)-biregular tree and quotient validators.

The tree of interest is the (q^3+1, q+1)-biregular tree on which the p-adic
special unitary group acts; this module builds finite radius-r balls of any
(l, m)-biregular tree deterministically (breadth-first, children appended in
order), checks the closed-form level counts, and validates externally
supplied quotient data via a local covering-map check and the bidegree
handshake n1 (p^3+1) = n2 (p+1) = |E|.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple, Union

from .graphs import Graph, GraphClassError, GraphError, analyze_structure
from .numberfield import is_prime

DEFAULT_TREE_CEILING = 200_000


@dataclass(frozen=True)
class TreeBall:
    """Radius-r ball of the (l, m)-biregular tree, rooted at vertex 0."""

    graph: Graph
    root: int
    radius: int
    l: int
    m: int
    root_side: str                    # "l" (root has degree l) or "m"
    level_counts: Tuple[int, ...]     # vertices at each BFS depth, as built

    def depth_of(self) -> List[int]:
        """Distance from the root for every vertex (BFS)."""
        nbr = self.graph.neighbors()
        depth = [-1] * self.graph.n
        depth[self.root] = 0
        queue = [self.root]
        while queue:
            nxt = []
            for u in queue:
                for v in nbr[u]:
                    if depth[v] == -1:
                        depth[v] = depth[u] + 1
                        nxt.append(v)
            queue = nxt
        return depth

    def interior_vertices(self) -> List[int]:
        depth = self.depth_of()
        return [v for v in range(self.graph.n) if 0 <= depth[v] < self.radius]


def level_counts_closed_form(l: int, m: int, r: int, root_side: str = "l") -> List[int]:
    """Vertex counts per level: c0 = 1, c1 = (root degree), then alternate
    multiplying by (other degree - 1) and (root degree - 1)."""
    if l < 2 or m < 2:
        raise GraphError("tree degrees must be >= 2")
    if r < 0:
        raise GraphError("radius must be >= 0")
    if root_side not in ("l", "m"):
        raise GraphError("root_side must be 'l' or 'm'")
    d_root, d_other = (l, m) if root_side == "l" else (m, l)
    counts = [1]
    if r >= 1:
        counts.append(d_root)
    for level in range(2, r + 1):
        branch = (d_other - 1) if level % 2 == 0 else (d_root - 1)
        counts.append(counts[-1] * branch)
    return counts


def biregular_tree_ball(
    l: int,
    m: int,
    radius: int,
    root_side: str = "l",
    ceiling: int = DEFAULT_TREE_CEILING,
) -> TreeBall:
    """Breadth-first, deterministic construction of the radius-r ball."""
    counts = level_counts_closed_form(l, m, radius, root_side)
    total = sum(counts)
    if total > ceiling:
        raise GraphClassError(
            f"ball would have {total} vertices, exceeding the ceiling {ceiling}"
        )
    edges: List[Tuple[int, int]] = []
    parts = [0]
    frontier = [0]
    next_vertex = 1
    for level in range(1, radius + 1):
        branch = counts[level] // counts[level - 1]
        new_frontier = []
        for parent in frontier:
            for _ in range(branch):
                edges.append((parent, next_vertex))
                parts.append(level % 2)
                new_frontier.append(next_vertex)
                next_vertex += 1
        frontier = new_frontier
    graph = Graph(total, tuple(edges), tuple(parts))
    ball = TreeBall(graph, 0, radius, l, m, root_side, ())
    depth = Counter(_validate_ball(ball))
    return replace(ball, level_counts=tuple(depth[k] for k in range(radius + 1)))


def _validate_ball(ball: TreeBall) -> List[int]:
    """Check that the ball is a tree with the biregular interior degrees;
    return the BFS depth of every vertex."""
    g = ball.graph
    if len(g.edges) != g.n - 1:
        raise GraphError("tree ball is not acyclic")
    depth = ball.depth_of()
    if any(d == -1 for d in depth):
        raise GraphError("tree ball is not connected")
    deg = g.degrees()
    d_root, d_other = (ball.l, ball.m) if ball.root_side == "l" else (ball.m, ball.l)
    for v in range(g.n):
        want = d_root if depth[v] % 2 == 0 else d_other
        if depth[v] < ball.radius and deg[v] != want:
            raise GraphError(f"interior vertex {v} has degree {deg[v]}, expected {want}")
    return depth


@dataclass(frozen=True)
class CoveringCandidate:
    """A vertex map from a domain graph (or tree ball) onto a codomain graph.

    For tree balls only interior vertices (distance < radius) are required
    to satisfy the local bijection condition; boundary vertices are exempt.
    """

    domain: Union[TreeBall, Graph]
    codomain: Graph
    vertex_map: Dict[int, int]

    def domain_graph(self) -> Graph:
        return self.domain.graph if isinstance(self.domain, TreeBall) else self.domain


def check_local_covering(c: CoveringCandidate) -> bool:
    """True iff, at every interior domain vertex, the map restricted to its
    neighbors is a bijection onto the neighbors of its image."""
    dom = c.domain_graph()
    cod = c.codomain
    rep = analyze_structure(cod)
    if not rep.connected:
        raise GraphClassError("covering codomain must be connected")
    fmap = c.vertex_map
    missing = [v for v in range(dom.n) if v not in fmap]
    if missing:
        raise GraphError(f"vertex map undefined on vertices {missing[:5]}")
    bad = [v for v, w in fmap.items() if not 0 <= w < cod.n]
    if bad:
        raise GraphError(f"vertex map leaves the codomain at {bad[:5]}")
    if dom.parts is not None and cod.parts is not None and dom.n > 0:
        # the map must respect the bipartitions up to a global color flip
        flip = cod.parts[fmap[0]] ^ dom.parts[0]
        if any(cod.parts[fmap[v]] != dom.parts[v] ^ flip for v in range(dom.n)):
            return False
    dom_nbr = dom.neighbors()
    cod_nbr = [set(s) for s in cod.neighbors()]
    if isinstance(c.domain, TreeBall):
        interior = c.domain.interior_vertices()
    else:
        interior = list(range(dom.n))
    for v in interior:
        images = [fmap[u] for u in dom_nbr[v]]
        if len(set(images)) != len(images):
            return False                      # local injectivity fails
        if set(images) != cod_nbr[fmap[v]]:
            return False                      # not onto the image's neighbors
    # edges must map to edges everywhere, boundary included
    for u, v in dom.edges:
        fu, fv = fmap[u], fmap[v]
        if fv not in cod_nbr[fu]:
            return False
    return True


def quotient_handshake_check(g: Graph, p: int) -> bool:
    """True iff g is a bigraph of bidegree (p^3+1, p+1) with a consistent
    handshake n1 (p^3+1) = n2 (p+1) = |E|."""
    if not is_prime(p):
        raise GraphError(f"{p} is not prime")
    rep = analyze_structure(g)
    profile = rep.profile
    if profile is None or not hasattr(profile, "l"):
        return False
    l, m = p ** 3 + 1, p + 1
    if (profile.l, profile.m) != (l, m):
        return False
    return profile.n1 * l == profile.n2 * m == len(g.edges)
