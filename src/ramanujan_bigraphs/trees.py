"""Finite balls of the (l, m)-biregular tree and quotient validators.

The tree of interest is the (q^3+1, q+1)-biregular tree on which the p-adic
special unitary group acts; this module builds finite radius-r balls of any
(l, m)-biregular tree deterministically (breadth-first, children appended in
order), checks the closed-form level counts, and validates externally
supplied quotient data via a local covering-map check and a bidegree check
(the handshake n1 (p^3+1) = n2 (p+1) = |E| then holds by the degree count).

The ball construction, the ball validation and the covering check are
whole-array work over each graph's (E, 2) edge array (``Graph.edge_array``):
the parents of each level come from ``np.repeat``, the ball's edges and
parts reach ``Graph`` as int arrays and stay arrays unless a caller reads
``edges`` or ``parts``, the depths come from at most ``radius`` level steps
and the degrees from ``np.bincount``.  A vertex map
is an array of images (a dict becomes one), and the bipartition test reads
the parts array each graph keeps (``Graph.parts_array``).  Every quantity
stays an integer.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

import numpy as np

from .graphs import (
    BiregularProfile, Graph, GraphClassError, GraphError, _connected, analyze_structure,
)
from .numberfield import is_prime

DEFAULT_TREE_CEILING = 200_000


@dataclass(frozen=True)
class TreeBall:
    """Radius-r ball of the (l, m)-biregular tree, rooted at vertex 0.
    Construction validates it by one level-by-level search from the root and
    keeps the depths: ``level_counts``, ``depth_of()`` and
    ``interior_vertices()`` read them."""

    graph: Graph
    root: int
    radius: int
    l: int
    m: int
    root_side: str                    # "l" (root has degree l) or "m"
    level_counts: Tuple[int, ...] = field(init=False)   # vertices at each depth
    _depth: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_depth", _validate_ball(self))
        counts = np.bincount(self._depth, minlength=self.radius + 1)
        object.__setattr__(self, "level_counts", tuple(counts.tolist()))

    def depth_of(self) -> List[int]:
        """Distance from the root for every vertex."""
        return self._depth.tolist()

    def interior_vertices(self) -> List[int]:
        return np.flatnonzero(self._depth < self.radius).tolist()


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
    counts = [1, d_root][:r + 1]
    for level in range(2, r + 1):
        counts.append(counts[-1] * ((d_other if level % 2 == 0 else d_root) - 1))
    return counts


def biregular_tree_ball(l: int, m: int, radius: int, root_side: str = "l") -> TreeBall:
    """Breadth-first, deterministic construction of the radius-r ball: the
    vertices of each level are numbered after those of the level above, and
    each vertex's children after those of the vertex before it.  A ball of
    more than DEFAULT_TREE_CEILING vertices is refused."""
    counts = level_counts_closed_form(l, m, radius, root_side)
    total = sum(counts)
    if total > DEFAULT_TREE_CEILING:
        raise GraphClassError(
            f"ball would have {total} vertices, exceeding the ceiling {DEFAULT_TREE_CEILING}"
        )
    branch = np.array([counts[k] // counts[k - 1] for k in range(1, radius + 1)], dtype=np.int64)
    children = np.repeat(branch, counts[:-1])                # of each vertex above the last level
    parent = np.repeat(np.arange(children.size), children)   # of vertices 1 .. total - 1
    parts = np.repeat(np.arange(radius + 1) % 2, counts)
    edges = np.stack((parent, np.arange(1, total)), axis=1)   # already sorted, parent < child
    return TreeBall(Graph(total, edges, parts), 0, radius, l, m, root_side)


def _validate_ball(ball: TreeBall) -> np.ndarray:
    """Check that the ball is a tree, within ``radius`` of its root, with the
    biregular interior degrees; return the depth of every vertex.

    The depths are found level by level: level k is the unvisited
    neighbours of level k - 1, gathered from the adjacency lists in one
    array step, for at most ``radius`` levels."""
    g = ball.graph
    if len(g.edge_array()) != g.n - 1:
        raise GraphError("tree ball is not acyclic")
    if not 0 <= ball.root < g.n:
        raise GraphError(f"root {ball.root} is not a vertex of the ball")
    ends = g.edge_array()
    degree = np.bincount(ends.ravel(), minlength=g.n)
    first = np.cumsum(degree) - degree                   # of each vertex's adjacency list
    adjacent = ends[:, ::-1].ravel()[np.argsort(ends.ravel(), kind="stable")]
    depth = np.full(g.n, -1)
    depth[ball.root] = 0
    level = np.array([ball.root])
    # ndarray methods, not numpy's Python wrappers: a path-like ball has 10^5 levels
    for k in range(1, ball.radius + 1):
        sizes = degree[level]
        starts = (first[level] + sizes - sizes.cumsum()).repeat(sizes)
        reached = adjacent[starts + np.arange(starts.size)]
        level = reached[depth[reached] < 0]
        depth[level] = k
    unreached = np.flatnonzero(depth < 0)
    if unreached.size:
        raise GraphError(
            f"tree ball vertex {unreached[0]} is not within radius {ball.radius} of the root"
        )
    d_root, d_other = (ball.l, ball.m) if ball.root_side == "l" else (ball.m, ball.l)
    want = np.where(depth % 2 == 0, d_root, d_other)
    bad = np.flatnonzero((depth < ball.radius) & (degree != want))
    if bad.size:
        v = bad[0]
        raise GraphError(f"interior vertex {v} has degree {degree[v]}, expected {want[v]}")
    depth.flags.writeable = False
    return depth


@dataclass(frozen=True)
class CoveringCandidate:
    """A vertex map from a domain graph (or tree ball) onto a codomain graph.

    ``vertex_map`` is a dict from each domain vertex to its image, or an
    integer array of shape (n,) whose entry v is the image of domain vertex
    v; the check turns a dict into that array.  For tree balls only interior
    vertices (distance < radius) are required to satisfy the local
    bijection condition; boundary vertices are exempt.
    """

    domain: Union[TreeBall, Graph]
    codomain: Graph
    vertex_map: Union[Dict[int, int], np.ndarray]

    def domain_graph(self) -> Graph:
        return self.domain.graph if isinstance(self.domain, TreeBall) else self.domain


def check_local_covering(c: CoveringCandidate) -> bool:
    """True iff every domain edge maps to a codomain edge (boundary
    included) and, at every interior domain vertex, the map restricted to
    its neighbors is a bijection onto the neighbors of its image.

    Given that edges map to edges, the bijection at v is checked as two
    conditions: the images of v's neighbours are distinct, and
    deg v = deg f(v).  Proof: each edge vu maps to the edge f(v)f(u), so f
    maps N(v) into N(f(v)).  Distinct images make that map injective, and
    an injection between finite sets of equal size is a bijection.
    Conversely a bijection is injective and forces |N(v)| = |N(f(v))|.
    """
    dom = c.domain_graph()
    cod = c.codomain
    # a tree ball's own graph needs no structure pass: _validate_ball proved it connected
    own_ball = isinstance(c.domain, TreeBall) and cod is c.domain.graph
    if not own_ball and not _connected(cod):
        raise GraphClassError("covering codomain must be connected")
    image = _image_array(c.vertex_map, dom.n, cod.n)
    if dom.parts_array() is not None and cod.parts_array() is not None and dom.n > 0:
        # the map must respect the bipartitions up to a global color flip
        flip = cod.parts_array()[image] ^ dom.parts_array()
        if (flip != flip[0]).any():
            return False
    # edges must map to edges everywhere, boundary included.  The codomain is
    # connected, so n <= |E| + 1: an edge array that fits in memory has
    # n < 3e9, and the key lo * n + hi < n^2 fits in int64.  Sorted edges
    # give sorted keys.
    ends, cod_ends = dom.edge_array(), cod.edge_array()
    u, v = image[ends].T
    keys = np.minimum(u, v) * cod.n + np.maximum(u, v)
    cod_keys = cod_ends[:, 0] * cod.n + cod_ends[:, 1]
    found = np.append(cod_keys, -1)[np.searchsorted(cod_keys, keys)] == keys   # -1: no key
    if not found.all():
        return False
    # the images of each interior vertex's neighbours are distinct
    source, target = ends.ravel(), ends[:, ::-1].ravel()
    interior = None
    if isinstance(c.domain, TreeBall):
        interior = c.domain._depth < c.domain.radius
        inner = interior[source]
        source, target = source[inner], target[inner]
    target = image[target]
    order = np.lexsort((target, source))
    source, target = source[order], target[order]
    if ((source[1:] == source[:-1]) & (target[1:] == target[:-1])).any():
        return False
    # and as many as the neighbours of the image
    dom_degree = np.bincount(ends.ravel(), minlength=dom.n)
    cod_degree = np.bincount(cod_ends.ravel(), minlength=cod.n)
    if interior is not None:
        dom_degree, image = dom_degree[interior], image[interior]
    return bool((dom_degree == cod_degree[image]).all())


def _image_array(fmap: Union[Dict[int, int], np.ndarray], n: int, cod_n: int) -> np.ndarray:
    """The images of vertices 0..n-1 under ``fmap``, a dict or an integer
    array of shape (n,), as an int64 array; GraphError unless every vertex
    has an image and every image is a vertex of range(cod_n).  A dict's
    images are read through ``operator.index``, and keys beyond the domain
    are not read."""
    if not isinstance(fmap, np.ndarray):
        missing = [v for v in range(n) if v not in fmap]
        if missing:
            raise GraphError(f"vertex map undefined on vertices {missing[:5]}")
        try:
            fmap = np.fromiter(map(operator.index, map(fmap.__getitem__, range(n))), np.int64, n)
        except (TypeError, OverflowError):
            raise GraphError("vertex map images must be integers that fit in int64") from None
    if fmap.shape != (n,) or not np.issubdtype(fmap.dtype, np.integer):
        raise GraphError(f"vertex map array has shape {fmap.shape} and dtype {fmap.dtype}, "
                         f"not ({n},) and an integer dtype")
    bad = np.flatnonzero((fmap < 0) | (fmap >= cod_n))
    if bad.size:
        raise GraphError(f"vertex map leaves the codomain at {bad[:5].tolist()}")
    return fmap.astype(np.int64, copy=False)


def quotient_handshake_check(g: Graph, p: int) -> bool:
    """True iff g is a bigraph of bidegree (p^3+1, p+1).

    Only the bidegree is checked.  The handshake n1 (p^3+1) = n2 (p+1) = |E|
    holds for every biregular profile by the degree count, and
    ``BiregularProfile`` enforces n1 l = n2 m when it is built."""
    if not is_prime(p):
        raise GraphError(f"{p} is not prime")
    if g.n > 2 * len(g.edge_array()):     # a vertex is isolated: no per-vertex work for that
        return False
    profile = analyze_structure(g).profile
    return isinstance(profile, BiregularProfile) and (profile.l, profile.m) == (p ** 3 + 1, p + 1)
