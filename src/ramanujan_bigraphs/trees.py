"""Finite balls of the (l, m)-biregular tree and quotient validators.

The tree of interest is the (q^3+1, q+1)-biregular tree on which the p-adic
special unitary group acts; this module builds finite radius-r balls of any
(l, m)-biregular tree deterministically (breadth-first, children appended in
order), checks the closed-form level counts, and validates externally
supplied quotient data via a local covering-map check and a bidegree check
(the handshake n1 (p^3+1) = n2 (p+1) = |E| then holds by the degree count).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

from .graphs import BiregularProfile, Graph, GraphClassError, GraphError, analyze_structure
from .numberfield import is_prime

DEFAULT_TREE_CEILING = 200_000


@dataclass(frozen=True)
class TreeBall:
    """Radius-r ball of the (l, m)-biregular tree, rooted at vertex 0.
    Construction validates it by one BFS from the root and keeps the depths:
    ``level_counts``, ``depth_of()`` and ``interior_vertices()`` read them."""

    graph: Graph
    root: int
    radius: int
    l: int
    m: int
    root_side: str                    # "l" (root has degree l) or "m"
    level_counts: Tuple[int, ...] = field(init=False)   # vertices at each BFS depth
    _depth: Tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_depth", _validate_ball(self))
        counts = Counter(self._depth)
        object.__setattr__(self, "level_counts", tuple(counts[k] for k in range(self.radius + 1)))

    def depth_of(self) -> List[int]:
        """Distance from the root for every vertex."""
        return list(self._depth)

    def interior_vertices(self) -> List[int]:
        return [v for v, d in enumerate(self._depth) if d < self.radius]


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
    return TreeBall(Graph(total, tuple(edges), tuple(parts)), 0, radius, l, m, root_side)


def _validate_ball(ball: TreeBall) -> Tuple[int, ...]:
    """Check that the ball is a tree with the biregular interior degrees;
    return the BFS depth of every vertex."""
    g = ball.graph
    if len(g.edges) != g.n - 1:
        raise GraphError("tree ball is not acyclic")
    nbr = g.neighbors()
    depth = [-1] * g.n
    depth[ball.root] = 0
    queue = [ball.root]
    for u in queue:                   # the queue grows while it is read
        for v in nbr[u]:
            if depth[v] == -1:
                depth[v] = depth[u] + 1
                queue.append(v)
    if -1 in depth:
        raise GraphError("tree ball is not connected")
    d_root, d_other = (ball.l, ball.m) if ball.root_side == "l" else (ball.m, ball.l)
    for v, d in enumerate(depth):
        want = d_root if d % 2 == 0 else d_other
        if d < ball.radius and len(nbr[v]) != want:
            raise GraphError(f"interior vertex {v} has degree {len(nbr[v])}, expected {want}")
    return tuple(depth)


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
    # a tree ball's own graph needs no structure pass: _validate_ball proved it connected
    own_ball = isinstance(c.domain, TreeBall) and cod is c.domain.graph
    if not own_ball and not analyze_structure(cod).connected:
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
    interior = c.domain.interior_vertices() if isinstance(c.domain, TreeBall) else range(dom.n)
    for v in interior:
        images = [fmap[u] for u in dom_nbr[v]]
        if len(set(images)) != len(images):
            return False                      # local injectivity fails
        if set(images) != cod_nbr[fmap[v]]:
            return False                      # not onto the image's neighbors
    # edges must map to edges everywhere, boundary included
    return all(fmap[v] in cod_nbr[fmap[u]] for u, v in dom.edges)


def quotient_handshake_check(g: Graph, p: int) -> bool:
    """True iff g is a bigraph of bidegree (p^3+1, p+1).

    Only the bidegree is checked.  The handshake n1 (p^3+1) = n2 (p+1) = |E|
    holds for every biregular profile by the degree count, and
    ``BiregularProfile`` enforces n1 l = n2 m when it is built."""
    if not is_prime(p):
        raise GraphError(f"{p} is not prime")
    profile = analyze_structure(g).profile
    return isinstance(profile, BiregularProfile) and (profile.l, profile.m) == (p ** 3 + 1, p + 1)
