"""Finite graphs: structure analysis, spectra, Ramanujan certification,
expansion coefficients, generators, and JSON/DOT interchange.

Conventions
-----------
* Graphs are simple and undirected; vertices are 0..n-1, and a vertex id
  is an integer that fits in int64.  Edges may arrive as an integer (E, 2)
  ndarray, taken as it is, or as any iterable of pairs.  Validation puts
  them in one read-only (E, 2) int64 array, ``edge_array()``, with
  whole-array checks of range, loops, repeats and the declared parts (a
  short scan names the first bad edge); no check forms a key lo * n, since
  n may exceed int64.  Declared parts are kept as the read-only int8 array
  ``parts_array()``.  ``edges``, the sorted tuple of (lo, hi) pairs with
  lo < hi, and ``parts``, a tuple of ints 0/1, are built from the arrays on
  first read, so a graph read as arrays holds no tuple per edge or vertex.
  A Graph is frozen, so what it builds is built at most once and shared.
* ``analyze_structure`` is one whole-array pass: the components of the
  bipartite double cover (of g itself, given parts) give connectivity,
  bipartiteness and the 2-colouring, and ``np.bincount`` the degrees.
* ``spectrum`` lists n eigenvalues, so it refuses n > SPECTRUM_CEILING, and
  ``random_biregular`` refuses to draw a graph that ``spectrum`` would refuse
  or with over EDGE_CEILING edges; it repairs one stub pairing by switches.
* ``lambda_of``, the tolerance-matching reference, drops the trivial
  eigenvalues of a ``Spectrum`` within DEFAULT_TOLERANCE: one copy of k (and
  of -k when bipartite) for a connected k-regular graph, one of each of
  +-sqrt(lm) for a connected (l, m)-bigraph.  Multiplicity at the trivial eigenvalue
  signals disconnection and raises ``SpectralStructureError``.
* Every floating check reads the fixed DEFAULT_TOLERANCE, 1e-9 absolute, at
  call time; exact quantities (expansion coefficient) are ``Fraction``s.
* The expansion coefficient is a word-parallel exact scan of all 2^n vertex
  subsets as uint64 bitmasks, so it refuses n > DEFAULT_EXPANSION_CEILING.
* Spectra of bipartite graphs come from the biadjacency matrix.  With sides
  of sizes r <= c and B the r x c matrix of edges from the smaller side to
  the larger, the adjacency spectrum is {+-sigma_i(B)} plus c - r zeros, for
  every bipartite graph, connected or not.  So ``spectrum`` of a bipartite
  graph costs one r x c SVD; any other graph costs the n x n symmetric
  eigenproblem of its adjacency matrix A.  Both are backward stable, with
  absolute error O(eps ||A||).
* Every command takes lambda from ``deflated_lambda``, which matches no
  eigenvalue.  A bipartite graph's trivial eigenvector is removed exactly,
  in integers, from r x r M = r BB^T - lm J, positive semidefinite with
  ||M|| = r lambda^2: lambda^2 comes with relative error O(eps), where the
  SVD gave lambda with absolute error O(eps sqrt(lm)), and K_{a,b} gives
  lambda = 0.0.  Otherwise k is the simple top eigenvalue of A, dropped by
  position from the eigenvalues ``spectrum`` lists.  ``Spectrum.eigenproblem``
  and ``RamanujanCertificate.eigenproblem`` record the shape decomposed.
"""

from __future__ import annotations

import json
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

DEFAULT_TOLERANCE = 1e-9
DEFAULT_EXPANSION_CEILING = 20   # vertices; at most 64, the subset scan's word size
SPECTRUM_CEILING = 10_000   # vertices: the n x n eigenproblem alone takes 800 MB there


class GraphError(Exception):
    """Base error for this module."""


class GraphClassError(GraphError):
    """Graph does not satisfy a structural precondition (disconnected,
    not regular/biregular, infeasible generation parameters, ...)."""


class SpectralStructureError(GraphError):
    """Spectrum inconsistent with the expected multiset structure."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with an optional two-coloring."""

    n: int
    edges: Tuple[Tuple[int, int], ...]
    parts: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        try:
            n = None if isinstance(self.n, bool) else operator.index(self.n)
        except TypeError:
            n = None
        if n is None:
            raise GraphError("vertex count must be an integer")    # 2.5 or True
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        object.__setattr__(self, "n", n)    # a Python int, as JSON needs
        ends = self.__dict__["_edge_array"] = _canonical_edges(self.n, self.edges)
        if self.parts is not None:
            side = self.__dict__["_parts_array"] = _parts_array(self.n, self.parts)
            clash = np.flatnonzero(side[ends[:, 0]] == side[ends[:, 1]])
            if clash.size:
                u, v = ends[clash[0]].tolist()
                raise GraphError(f"edge ({u},{v}) violates the declared parts")
        for name in _TUPLES:
            if self.__dict__[name] is not None:
                del self.__dict__[name]         # __getattr__ builds it on first read

    def __getattr__(self, name):    # edges, or parts when parts were declared
        if name not in _TUPLES:
            raise AttributeError(f"'Graph' object has no attribute {name!r}")
        return _once(self, name, _TUPLES[name])

    def edge_array(self) -> np.ndarray:
        """The edges as a read-only (E, 2) int64 array, row i = edges[i]:
        built once, while the graph is validated, and shared."""
        return self.__dict__["_edge_array"]

    def parts_array(self) -> Optional[np.ndarray]:
        """The declared parts as a read-only int8 array, entry v = parts[v],
        or None without parts: built once, while the graph is validated, and
        shared."""
        return self.__dict__.get("_parts_array")

    def degrees(self) -> List[int]:
        return np.bincount(self.edge_array().ravel(), minlength=self.n).tolist()

    def neighbors(self) -> Tuple[Tuple[int, ...], ...]:
        """Every vertex's neighbours, ascending, built once per graph and shared."""
        return _once(self, "_neighbors", _neighbor_tuples)

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        u, v = self.edge_array().T
        a[u, v] = a[v, u] = 1.0
        return a


# edges and parts as tuples of Python ints, from the arrays the graph keeps
_TUPLES = {"edges": lambda g: tuple(zip(*g.edge_array().T.tolist())),
           "parts": lambda g: tuple(g.parts_array().tolist())}
del Graph.parts     # its class default None would answer for a deferred parts


@dataclass(frozen=True)
class RegularProfile:
    k: int
    bipartite: bool


@dataclass(frozen=True)
class BiregularProfile:
    """n1 vertices of degree l, n2 of degree m, with l >= m (so n2 >= n1)."""

    n1: int
    n2: int
    l: int
    m: int

    def __post_init__(self):
        if self.l < self.m or self.n1 * self.l != self.n2 * self.m:
            raise GraphError("biregular profile fails the handshake convention")


@dataclass(frozen=True)
class StructureReport:
    connected: bool
    bipartition: Optional[Tuple[int, ...]]
    profile: Optional[Union[RegularProfile, BiregularProfile]]


def _once(g: Graph, key: str, build):
    """build(g), kept in g's instance dict: a frozen Graph's facts never go stale."""
    if key not in g.__dict__:
        g.__dict__[key] = build(g)
    return g.__dict__[key]


_INT64_MAX = int(np.iinfo(np.int64).max)


def _canonical_edges(
    n: int, edges: Union[np.ndarray, Iterable[Tuple[int, int]]]
) -> np.ndarray:
    """The edges as sorted (lo, hi) pairs with lo < hi, in a read-only (E, 2)
    int64 array.  ``edges`` is an integer ndarray of shape (E, 2), taken as
    it is, or any iterable of pairs, whose ids are read through
    ``operator.index``, so 1.0 and "1" are refused.  Raises GraphError for a
    vertex outside range(n) or int64, a loop or a repeated edge."""
    if isinstance(edges, np.ndarray):
        if edges.ndim != 2 or edges.shape[1] != 2 or not np.issubdtype(edges.dtype, np.integer):
            raise GraphError("edges must be pairs of integer vertex ids")
        if not np.can_cast(edges.dtype, np.int64) and (edges > _INT64_MAX).any():
            _raise_first_bad_edge(n, map(tuple, edges.tolist()))
        ends = np.array(edges, dtype=np.int64, order="C")    # a copy: the caller keeps theirs
        pairs = None                                         # rows are named only on error
    else:
        if not isinstance(edges, (tuple, list)):
            edges = list(edges)             # an iterator is read once
        try:
            if set(map(len, edges)) - {2}:
                raise ValueError("an edge is not a pair")
            ids = map(operator.index, chain.from_iterable(edges))
            ends = np.fromiter(ids, np.int64, 2 * len(edges)).reshape(-1, 2)
        except (TypeError, ValueError, OverflowError):
            _raise_first_bad_edge(n, edges)
        pairs = edges
    u, v = ends.T
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    if (lo < 0).any() or (hi >= n).any() or (lo == hi).any():
        _raise_first_bad_edge(n, map(tuple, ends.tolist()) if pairs is None else pairs)
    ascending = (lo[1:] > lo[:-1]) | ((lo[1:] == lo[:-1]) & (hi[1:] > hi[:-1]))
    if not ((u < v).all() and ascending.all()):     # canonical edges have no repeats
        order = np.lexsort((hi, lo))
        first, second = lo[order], hi[order]
        if ((first[1:] == first[:-1]) & (second[1:] == second[:-1])).any():
            seen = set()    # name the first repeat in input order
            key = next(k for k in zip(lo.tolist(), hi.tolist()) if k in seen or seen.add(k))
            raise GraphError(f"duplicate edge {key}")
        ends = np.stack((first, second), axis=1)
    ends.flags.writeable = False
    return ends


def _raise_first_bad_edge(n: int, edges) -> None:
    """Raise the error of the first edge, in input order, that is not a
    pair of distinct integer vertices of range(n) that fit in int64."""
    for e in edges:
        try:
            u, v = map(operator.index, e)
        except (TypeError, ValueError):
            break
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge {tuple(e)} references an invalid vertex")
        if u == v:
            raise GraphError(f"loop at vertex {u} not allowed")
        if max(u, v) > _INT64_MAX:
            raise GraphError(f"edge {tuple(e)} names a vertex beyond int64")
    raise GraphError("edges must be pairs of integer vertex ids")


def _parts_array(n: int, parts) -> np.ndarray:
    """The declared parts as a read-only int8 array: an integer ndarray, or
    any iterable of ids read through ``operator.index``.  Raises GraphError
    unless they give 0 or 1 to each of the n vertices."""
    if isinstance(parts, np.ndarray):
        side = parts if np.issubdtype(parts.dtype, np.integer) else None
    else:
        try:
            side = np.fromiter(map(operator.index, parts), np.int64)
        except (TypeError, OverflowError):
            side = None
    if side is None or side.shape != (n,) or ((side < 0) | (side > 1)).any():
        raise GraphError("parts must assign 0/1 to every vertex")
    side = side.astype(np.int8)
    side.flags.writeable = False
    return side


def _neighbor_tuples(g: Graph) -> Tuple[Tuple[int, ...], ...]:
    u, v = g.edge_array().T
    source, target = np.concatenate((u, v)), np.concatenate((v, u))
    flat = target[np.lexsort((target, source))].tolist()
    ends = np.bincount(source, minlength=g.n).cumsum().tolist()
    return tuple(tuple(flat[i:j]) for i, j in zip([0] + ends, ends))


def analyze_structure(g: Graph) -> StructureReport:
    """Connectivity, bipartition (if any), and the most specific degree
    profile, from one pass per graph: every later call returns the same report.
    Without parts, n >= 2^62 is refused (the double cover's 2n labels are
    int64); below that, arrays of 2n labels are made, so n = 2^40 raises
    MemoryError, a resource limit."""
    return _analysed(g)[0]


def _analysed(g: Graph) -> Tuple[StructureReport, Optional[np.ndarray]]:
    """(analyze_structure(g), its bipartition as an int8 array or None), once per graph."""
    return _once(g, "_structure", _structure)


def _connected(g: Graph) -> bool:
    """``analyze_structure(g).connected``, but False from the counts alone when
    n >= 2 vertices have fewer than n - 1 edges: no per-vertex work for that,
    so a huge isolated n is refused without allocating per vertex."""
    return not (g.n >= 2 and len(g.edge_array()) < g.n - 1) and analyze_structure(g).connected


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The smallest vertex of each vertex's component, for the graph on
    range(n) with edges (a[i], b[i]).  Min-label hooking with pointer
    jumping (Shiloach and Vishkin, J. Algorithms 3, 1982): each round hooks
    every root to the smallest root among its neighbours and flattens the
    trees.  A root that neither hooks nor is hooked onto has only smaller
    roots beside it in the next round, so it hooks then: the roots with an
    edge to another tree at least halve every two rounds."""
    label = np.arange(n)
    ra, rb = a, b                           # every vertex starts as its own root
    for _ in range(2 * n.bit_length() + 2):
        np.minimum.at(label, np.maximum(ra, rb), np.minimum(ra, rb))
        while ((up := label[label]) != label).any():
            label = up
        ra, rb = label[a], label[b]
        cross = np.flatnonzero(ra != rb)    # edges inside one tree stay inside it
        if not cross.size:
            return label
        a, b, ra, rb = a[cross], b[cross], ra[cross], rb[cross]
    raise RuntimeError(f"components unresolved after {2 * n.bit_length() + 2} rounds")


def _structure(g: Graph) -> Tuple[StructureReport, Optional[np.ndarray]]:
    """Components of the bipartite double cover, where vertex x is x and
    x + n and edge uv is u(v + n) and v(u + n); then the degree profile.
    x's component of g is bipartite iff x and x + n lie in different
    components of the cover, and the colour label[x] > label[x + n] gives
    each component's smallest vertex 0, as a search from it would; g is
    connected iff min(label[x], label[x + n]), that smallest vertex, is 0.
    Declared parts are a 2-colouring already, so g's own components suffice."""
    n, ends = g.n, g.edge_array()
    side = g.parts_array()
    if side is None:
        if 2 * n > _INT64_MAX:
            raise GraphClassError(f"n={n} is not below 2^62: the cover's labels overflow int64")
        label = _components(2 * n, ends.ravel(), (ends[:, ::-1] + n).ravel())
        low, high = label[:n], label[n:]
        roots = np.minimum(low, high)
        side = (low > high).view(np.int8) if (low != high).all() else None
    else:
        roots = _components(n, ends[:, 0], ends[:, 1])
    deg = np.bincount(ends.ravel(), minlength=n)
    profile: Optional[Union[RegularProfile, BiregularProfile]] = None
    if n > 0 and deg.min() == deg.max():
        profile = RegularProfile(int(deg[0]), side is not None)
    elif side is not None:
        by_side = [deg[side == s] for s in (0, 1)]
        if all(d.size and d.min() == d.max() for d in by_side):
            (n0, d0), (n1, d1) = ((d.size, int(d[0])) for d in by_side)
            profile = BiregularProfile(*((n0, n1, d0, d1) if d0 > d1 else (n1, n0, d1, d0)))
    bipartition = None if side is None else tuple(side.tolist())
    return StructureReport(not roots.any(), bipartition, profile), side


@dataclass(frozen=True)
class Spectrum:
    """Adjacency eigenvalues, sorted descending, and the shape of the matrix
    decomposed for them: (r, c) for the biadjacency SVD, (n, n) otherwise."""

    values: Tuple[float, ...]
    eigenproblem: Tuple[int, int] = field(kw_only=True)


def _biadjacency_index(g: Graph, side: np.ndarray) -> Tuple[int, np.ndarray, np.ndarray]:
    """(r, i, j) for the biadjacency matrix B of g with 0/1 sides ``side``:
    r is the size of the smaller side (the rows of B), and edge e joins row
    i[e] of B to column j[e]."""
    rows = side != 0
    if 2 * np.count_nonzero(rows) > g.n:
        rows = ~rows
    r = int(np.count_nonzero(rows))
    index = np.empty(g.n, dtype=np.intp)   # position of each vertex in its side
    index[rows] = np.arange(r)
    index[~rows] = np.arange(g.n - r)
    u, v = g.edge_array().T
    u, v = np.where(rows[u], u, v), np.where(rows[u], v, u)
    return r, index[u], index[v]


def spectrum(g: Graph) -> Spectrum:
    """Spectrum of g from the SVD of its biadjacency matrix when g is
    bipartite (declared ``parts``, else the structure pass's colouring), else from the
    eigenvalues of its adjacency matrix."""
    if g.n < 1:
        raise GraphClassError("spectrum requires at least one vertex")
    if g.n > SPECTRUM_CEILING:
        raise GraphClassError(f"n={g.n} exceeds the spectrum ceiling {SPECTRUM_CEILING}")
    side = _analysed(g)[1]
    if side is None:
        vals = np.linalg.eigvalsh(g.adjacency_matrix())
        shape = (g.n, g.n)
    else:
        r, i, j = _biadjacency_index(g, side)
        b = np.zeros((r, g.n - r))
        b[i, j] = 1.0
        sigma = np.linalg.svd(b, compute_uv=False)
        vals = np.concatenate([sigma, -sigma, np.zeros(g.n - 2 * r)])
        shape = (r, g.n - r)
    values = tuple(sorted((float(v) for v in vals), reverse=True))
    return Spectrum(values, eigenproblem=shape)


def _drop_value(values: List[float], target: float, what: str) -> List[float]:
    best = min(range(len(values)), key=lambda i: abs(values[i] - target))
    if abs(values[best] - target) > DEFAULT_TOLERANCE:
        raise SpectralStructureError(
            f"expected trivial eigenvalue {what}={target:.12g} not found"
        )
    return values[:best] + values[best + 1 :]


def lambda_of(s: Spectrum, profile: Union[RegularProfile, BiregularProfile]) -> float:
    """lambda(X): largest |eigenvalue| after removing the trivial ones, which
    are matched within DEFAULT_TOLERANCE; the reference for ``deflated_lambda``."""
    values = sorted(s.values, reverse=True)
    if isinstance(profile, RegularProfile):
        lam0 = float(profile.k)
        bipartite = profile.bipartite
    else:
        lam0 = math.sqrt(profile.l * profile.m)
        bipartite = True
    rest = _drop_value(values, lam0, "lambda_0")
    if bipartite and lam0:                 # K_1's one eigenvalue is 0 = -0
        rest = _drop_value(rest, -lam0, "-lambda_0")
    if any(abs(v) >= lam0 - DEFAULT_TOLERANCE for v in rest):
        raise SpectralStructureError(
            "multiplicity at the trivial eigenvalue: graph is disconnected "
            "or the profile is wrong"
        )
    return max((abs(v) for v in rest), default=0.0)


@dataclass(frozen=True)
class RamanujanCertificate:
    graph_class: str                       # "regular" or "bigraph"
    degrees: Tuple[int, ...]               # (k,) or (l, m)
    lam: float
    lower_bound: float                     # 0 for regular graphs
    upper_bound: float
    def21: Optional[bool]                  # regular graphs only
    def22: Optional[bool]                  # bigraphs only
    def23: Optional[bool]                  # bigraphs only
    is_ramanujan: bool
    eigenproblem: Tuple[int, int]          # (r, r) if bipartite, else (n, n): the deflated matrix
    margins: Dict[str, float] = field(default_factory=dict)


def deflated_lambda(
    g: Graph, s: Optional[Spectrum] = None
) -> Tuple[float, Tuple[int, int], Tuple[int, int]]:
    """(lambda(X), shape of the matrix decomposed, degrees (l, m)) of a
    connected regular or biregular g, the degrees (k, k) if it is k-regular;
    (0.0, (0, 0), (0, 0)) for K_1, which has no nontrivial eigenvalue.

    Bipartite: G = BB^T counts common neighbours, one m x m block of row
    pairs per column of B, and G 1 = lm 1.  So M = r G - lm J has eigenvalue
    0 on 1 and r sigma_i^2 on its complement.  Otherwise k is a simple
    eigenvalue of A, its largest, and -k is none, so the trivial eigenvalue
    is dropped by position from the eigenvalues of A, or from ``s``, g's
    ``spectrum``, when it is given.
    """
    rep, side = _analysed(g)
    if not rep.connected or rep.profile is None:
        raise GraphClassError("lambda requires a connected regular or biregular graph")
    p = rep.profile
    l, m = (p.k, p.k) if isinstance(p, RegularProfile) else (p.l, p.m)
    if l == 0:
        return 0.0, (0, 0), (l, m)
    if side is None:
        theta = s.values if s is not None else np.linalg.eigvalsh(g.adjacency_matrix())[::-1]
        return float(max(theta[1], -theta[-1])), (g.n, g.n), (l, m)
    r, i, j = _biadjacency_index(g, side)
    column_rows = i[np.argsort(j)].reshape(-1, m)
    pairs = (column_rows[:, :, None] * r + column_rows[:, None, :]).ravel()
    # r G - lm J in one float64 array: sums of the integer weight r, exact
    mat = np.bincount(pairs, weights=np.full(pairs.size, float(r)), minlength=r * r).reshape(r, r)
    mat -= l * m
    top = np.linalg.eigvalsh(mat)[-1]
    return math.sqrt(top / r), (r, r), (l, m)


def certify_ramanujan(g: Graph) -> RamanujanCertificate:
    """Certify per the applicable definitions, within DEFAULT_TOLERANCE.

    The window |sqrt(l-1) - sqrt(m-1)| <= lambda <= sqrt(l-1) + sqrt(m-1)
    has l = m = k for a k-regular graph.  Regular graphs report def21, lambda
    <= upper; bigraphs, bipartite regular ones included, report def22, the
    window, and def23, |lambda^2 - q1 - q2| <= 2 sqrt(q1 q2) with q_i = degree - 1.
    """
    if not _connected(g):
        raise GraphClassError("certification requires a connected graph")
    lam, shape, (l, m) = deflated_lambda(g)   # refuses a graph neither regular nor biregular
    if shape == (0, 0):
        raise GraphClassError("certification requires degree at least 1")
    rep = analyze_structure(g)
    tolerance = DEFAULT_TOLERANCE
    sl, sm = math.sqrt(l - 1), math.sqrt(m - 1)
    lower, upper = abs(sl - sm), sl + sm      # l = m: 0.0 and sl + sl == 2 sl, exactly
    margins: Dict[str, float] = {}
    def21 = def22 = def23 = None
    if isinstance(rep.profile, RegularProfile):
        graph_class = "regular"
        degrees: Tuple[int, ...] = (l,)
        def21 = lam <= upper + tolerance
        margins["def21_upper"] = upper - lam
    else:
        graph_class = "bigraph"
        degrees = (l, m)
    if rep.bipartition is not None:
        def22 = (lower - tolerance <= lam) and (lam <= upper + tolerance)
        q1, q2 = l - 1, m - 1
        def23 = abs(lam * lam - q1 - q2) <= 2.0 * math.sqrt(q1 * q2) + tolerance
        margins["def22_lower"] = lam - lower
        margins["def22_upper"] = upper - lam
        margins["def23"] = 2.0 * math.sqrt(q1 * q2) - abs(lam * lam - q1 - q2)
        if def22 != def23:
            raise SpectralStructureError(
                "def22 and def23 verdicts disagree at the tolerance margin"
            )
    return RamanujanCertificate(
        graph_class=graph_class,
        degrees=degrees,
        lam=lam,
        lower_bound=lower,
        upper_bound=upper,
        def21=def21,
        def22=def22,
        def23=def23,
        is_ramanujan=all(v for v in (def21, def22) if v is not None),
        eigenproblem=shape,
        margins=margins,
    )


@dataclass(frozen=True)
class ExpansionReport:
    c: Fraction
    minimizing_subset: Tuple[int, ...]
    two_c: Fraction
    lam: Optional[float]
    one_minus_lambda_over_k: Optional[float]


_WORD = 64                          # subsets are uint64 bitmasks, so n <= 64
_BLOCK_BITS = 13                    # 2^13-word blocks: 64 KB temporaries stay in cache
_RATIO_SCALE = math.lcm(*range(1, _WORD // 2 + 1))   # every |W| <= 32 divides it
_NO_RATIO = np.iinfo(np.int64).max  # key of a subset of size 0 or above n/2


def expansion_coefficient(g: Graph) -> ExpansionReport:
    """Exact expansion coefficient by exhaustive subset scan.

    c = min |dW| / |W| over 0 < |W| <= n/2, where dW is the set of vertices
    outside W adjacent to W; the first minimiser in ascending bitmask order
    is reported.  Also reports lambda(X) and, for regular graphs,
    1 - lambda(X)/k; the relation between 2c and 1 - lambda/k is reported,
    never asserted.

    It refuses n > DEFAULT_EXPANSION_CEILING.  The scan is word-parallel:
    subsets are uint64 bitmasks, taken in blocks that share their high
    bits.  The neighbourhood unions of the low subsets are tabulated once,
    by doubling, and each block ORs in the union of its high bits.  The
    ratio b / |W| is compared as the integer key b * (L / |W|), with L the
    lcm of 1..32, so no rounding enters.
    """
    n = g.n
    if n < 2:
        raise GraphClassError("expansion needs at least two vertices")
    if n > DEFAULT_EXPANSION_CEILING:
        raise GraphClassError(
            f"n={n} exceeds the brute-force ceiling {DEFAULT_EXPANSION_CEILING}; "
            "use the spectral report instead"
        )
    nbr_mask = [sum(1 << v for v in a) for a in g.neighbors()]
    k = min(n, _BLOCK_BITS)
    low_w = np.arange(1 << k, dtype=np.uint64)
    low_nbr = np.zeros(1 << k, dtype=np.uint64)
    for v in range(k):
        low_nbr[1 << v : 2 << v] = low_nbr[: 1 << v] | np.uint64(nbr_mask[v])
    not_low_w = ~low_w
    # key of (|W|, b) at |W| * (n + 1) + b
    keys = np.array([b * (_RATIO_SCALE // s) if 0 < 2 * s <= n else _NO_RATIO
                     for s in range(n + 1) for b in range(n + 1)])
    low_row = np.bitwise_count(low_w).astype(np.intp) * (n + 1)
    best_key, best_w = _NO_RATIO, 0    # a singleton beats it in the first block
    for high in range(1 << (n - k)):
        high_nbr = 0
        for j in range(n - k):
            if high >> j & 1:
                high_nbr |= nbr_mask[k + j]
        boundary = low_nbr | np.uint64(high_nbr)
        boundary &= not_low_w
        boundary &= np.uint64(~(high << k) & ((1 << _WORD) - 1))
        key = keys[high.bit_count() * (n + 1) :][low_row + np.bitwise_count(boundary)]
        i = int(np.argmin(key))
        if key[i] < best_key:
            best_key, best_w = int(key[i]), i | high << k
            if best_key == 0:
                break
    best = Fraction(best_key, _RATIO_SCALE)
    subset = tuple(v for v in range(n) if best_w >> v & 1)
    lam = one_minus = None
    rep = analyze_structure(g)
    if rep.connected and rep.profile is not None:
        lam = deflated_lambda(g)[0]
        if isinstance(rep.profile, RegularProfile):
            one_minus = 1.0 - lam / rep.profile.k
    return ExpansionReport(best, subset, 2 * best, lam, one_minus)


def bound_values(l: int, m: int) -> Tuple[float, Optional[float]]:
    """(Feng-Li bound sqrt(l-1)+sqrt(m-1), Alon-Boppana bound 2 sqrt(k-1) if l=m)."""
    if l < 1 or m < 1:
        raise GraphError("degrees must be >= 1")
    feng_li = math.sqrt(l - 1) + math.sqrt(m - 1)
    alon_boppana = 2.0 * math.sqrt(l - 1) if l == m else None
    return feng_li, alon_boppana


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

_SWITCH_ROUNDS = 500    # random_biregular's repair rounds: 47 at most measured
EDGE_CEILING = 250_000  # random_biregular's edges: random-bigraph takes 2 s and 150 MB there


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise GraphError("complete bipartite parts must be non-empty")
    edges = tuple((i, a + j) for i in range(a) for j in range(b))
    return Graph(a + b, edges, tuple([0] * a + [1] * b))


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    edges = tuple((i, (i + 1) % n) for i in range(n))
    parts = tuple(i % 2 for i in range(n)) if n % 2 == 0 else None
    return Graph(n, edges, parts)


def random_biregular(n1: int, n2: int, l: int, m: int, seed: int) -> Graph:
    """Random simple (l, m)-biregular bigraph, left vertices 0..n1-1 first,
    the same for the same seed (any int).  Feasible iff n1*l = n2*m, l <= n2
    and m <= n1 (Gale-Ryser for constant degrees); n1 + n2 > SPECTRUM_CEILING
    and n1*l > EDGE_CEILING are refused before any work.

    One random pairing of the stubs gives exact degrees.  Each repeated edge
    (u, v) is then switched with a random edge (x, y) to (u, y), (x, v) when
    u != x, v != y and neither new edge exists, which removes the repeat.  A
    shape over half dense is drawn as its complement.  Not uniform over simple
    biregular graphs.  Switchings: McKay and Wormald, J. Algorithms 11 (1990);
    bipartite chain: Kannan, Tetali and Vempala, Random Struct. Alg. 14 (1999).
    """
    if min(n1, n2, l, m) < 1:
        raise GraphClassError("all parameters must be positive")
    if n1 + n2 > SPECTRUM_CEILING:
        raise GraphClassError(f"n1 + n2 = {n1 + n2} exceeds the spectrum ceiling {SPECTRUM_CEILING}")
    if n1 * l > EDGE_CEILING:
        raise GraphClassError(f"n1 * l = {n1 * l} edges exceeds the edge ceiling {EDGE_CEILING}")
    if n1 * l != n2 * m:
        raise GraphClassError(f"handshake fails: {n1}*{l} != {n2}*{m}")
    if l > n2 or m > n1:
        raise GraphClassError("degree exceeds the opposite part: no simple graph")
    rng = random.Random(seed)   # any int seeds it; its random words spare importing numpy.random
    flip = 2 * l > n2
    l, m = (n2 - l, n1 - m) if flip else (l, m)
    u = np.repeat(np.arange(n1), l)
    v = np.repeat(np.arange(n2), m)[np.argsort(np.frombuffer(rng.randbytes(8 * len(u)), np.int64))]
    for _ in range(_SWITCH_ROUNDS):
        key = u * n2 + v
        order = np.argsort(key)
        repeats = order[1:][key[order][1:] == key[order][:-1]]
        if not repeats.size:
            break
        other = np.frombuffer(rng.randbytes(8 * repeats.size), np.int64) % len(key)
        new = np.stack((u[repeats] * n2 + v[other], u[other] * n2 + v[repeats]))
        # no two switches share an edge or a new edge: indices, then keys past them
        touched = np.concatenate((repeats[None], other[None], new + len(key)))
        _, index, counts = np.unique(touched, return_inverse=True, return_counts=True)
        ok = ((u[repeats] != u[other]) & (v[repeats] != v[other]) & ~np.isin(new, key).any(axis=0)
              & (counts[index] == 1).reshape(touched.shape).all(axis=0))
        v[repeats[ok]], v[other[ok]] = v[other[ok]], v[repeats[ok]]
    else:
        raise GraphClassError(f"repeated edges left after {_SWITCH_ROUNDS} switch rounds")
    key = np.setdiff1d(np.arange(n1 * n2), key) if flip else np.sort(key)
    edges = np.stack((key // n2, key % n2 + n1), axis=1)
    return Graph(n1 + n2, edges, np.repeat([0, 1], [n1, n2]))


# ---------------------------------------------------------------------------
# Interchange formats
# ---------------------------------------------------------------------------

def graph_to_json(g: Graph) -> dict:
    doc = {"n": g.n, "edges": g.edge_array().tolist()}
    if g.parts_array() is not None:
        doc["parts"] = g.parts_array().tolist()
    return doc


def graph_from_json(doc: dict) -> Graph:
    """The graph of a JSON document, whose ids are JSON integers: one type
    scan refuses true and 1.0, then ``Graph`` checks the lists as they are,
    the arity of each edge included."""
    try:
        n, edges, parts = doc["n"], doc["edges"], doc.get("parts")
        ids = chain((n,), chain.from_iterable(edges), () if parts is None else parts)
        if set(map(type, ids)) - {int} or type(edges) is not list:
            raise GraphError("malformed graph document: n, edges or parts not integers")
        return Graph(n, edges, parts)
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"malformed graph document: {exc}") from exc


def load_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_json(json.load(fh))


def save_graph(g: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_json(g), fh, indent=2)
        fh.write("\n")


def to_dot(g: Graph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    side = g.parts_array()
    if side is None:
        lines += [f"  {v};" for v in range(g.n)]
    else:
        lines += [f"  {v} [shape={('circle', 'box')[c]}];" for v, c in enumerate(side.tolist())]
    lines += [f"  {u} -- {v};" for u, v in g.edge_array().tolist()]
    lines.append("}")
    return "\n".join(lines) + "\n"
