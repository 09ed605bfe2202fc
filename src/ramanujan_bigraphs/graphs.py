"""Finite graphs: structure analysis, spectra, Ramanujan certification,
expansion coefficients, generators, and JSON/DOT interchange.

Conventions
-----------
* Graphs are simple and undirected; vertices are 0..n-1, and a vertex id
  must fit in int64.  ``edges`` is the sorted tuple of (lo, hi) pairs with
  lo < hi.  Validation builds the same pairs once as a read-only (E, 2)
  int64 array, ``edge_array()``, with whole-array checks of range, loops,
  repeats and the declared parts (a short scan names the first bad edge);
  no check forms a key lo * n, since n may exceed int64.  A Graph is
  frozen, so its edge array, its neighbour tuples and its structure report
  are built at most once per instance and shared by every caller.
* ``spectrum`` lists n eigenvalues, so it refuses n > SPECTRUM_CEILING, and
  ``random_biregular`` refuses to draw a graph that ``spectrum`` would refuse
  or with over EDGE_CEILING edges; it repairs one stub pairing by switches.
* ``lambda_of`` follows the trivial-eigenvalue convention: for a connected
  k-regular graph drop one copy of k (and one copy of -k when bipartite);
  for a connected (l, m)-bigraph drop one copy of each of +-sqrt(lm).
  Multiplicity at the trivial eigenvalue signals disconnection and raises
  ``SpectralStructureError``.
* Floating tolerances default to 1e-9 absolute; exact quantities (expansion
  coefficient) are ``Fraction``s.
* The expansion coefficient is a word-parallel exact scan of all 2^n vertex
  subsets as uint64 bitmasks, so it takes n <= min(ceiling, 64).
* Spectra of bipartite graphs come from the biadjacency matrix.  With sides
  of sizes r <= c and B the r x c matrix of edges from the smaller side to
  the larger, the adjacency spectrum is {+-sigma_i(B)} plus c - r zeros, for
  every bipartite graph, connected or not.  So ``spectrum`` of a bipartite
  graph costs one r x c SVD; any other graph costs the n x n symmetric
  eigenproblem of its adjacency matrix A.  Both are backward stable, with
  absolute error O(eps ||A||).
* ``certify_ramanujan`` never matches a trivial eigenvalue.  It removes the
  trivial eigenvector exactly, in integers, and decomposes r x r
  M = r BB^T - lm J for a bipartite graph, n x n M = n A - k J otherwise.
  The bipartite M is positive semidefinite with ||M|| = r lambda^2, so
  lambda^2 comes with relative error O(eps), where the SVD gave lambda with
  absolute error O(eps sqrt(lm)); K_{a,b} gives M = 0 and lambda = 0.0.
  ``Spectrum.eigenproblem`` and ``RamanujanCertificate.eigenproblem`` record
  which shape was decomposed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

DEFAULT_TOLERANCE = 1e-9
DEFAULT_EXPANSION_CEILING = 20
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
        if self.n < 0:
            raise GraphError("vertex count must be non-negative")
        ends, edges = _canonical_edges(self.n, self.edges)
        object.__setattr__(self, "edges", edges)
        self.__dict__["_edge_array"] = ends
        if self.parts is not None:
            parts = tuple(self.parts)
            if len(parts) != self.n or parts.count(0) + parts.count(1) != len(parts):
                raise GraphError("parts must assign 0/1 to every vertex")
            side = np.array(parts, dtype=np.int8)
            clash = np.flatnonzero(side[ends[:, 0]] == side[ends[:, 1]])
            if clash.size:
                u, v = ends[clash[0]].tolist()
                raise GraphError(f"edge ({u},{v}) violates the declared parts")
            object.__setattr__(self, "parts", parts)

    def edge_array(self) -> np.ndarray:
        """The edges as a read-only (E, 2) int64 array, row i = edges[i]:
        built once, while the graph is validated, and shared."""
        return self.__dict__["_edge_array"]

    def degrees(self) -> List[int]:
        return [len(a) for a in self.neighbors()]

    def neighbors(self) -> Tuple[Tuple[int, ...], ...]:
        """The neighbours of every vertex, built once per graph and shared."""
        return _once(self, "_neighbors", _neighbor_lists)

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        u, v = self.edge_array().T
        a[u, v] = a[v, u] = 1.0
        return a


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
    n: int, edges: Tuple[Tuple[int, int], ...]
) -> Tuple[np.ndarray, Tuple[Tuple[int, int], ...]]:
    """The edges as sorted (lo, hi) pairs with lo < hi, as an (E, 2) int64
    array and as a tuple of int pairs; the tuple is ``edges`` itself when it
    already is that tuple.  Raises GraphError for a vertex outside range(n)
    or int64, a loop or a repeated edge."""
    if not isinstance(edges, (tuple, list)):
        edges = list(edges)             # an iterator is read once
    try:
        if set(map(len, edges)) - {2}:
            raise ValueError("an edge is not a pair")
        ends = np.fromiter(chain.from_iterable(edges), np.int64, 2 * len(edges)).reshape(-1, 2)
    except (TypeError, ValueError, OverflowError):
        _raise_first_bad_edge(n, edges)
    u, v = ends.T
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    if (lo < 0).any() or (hi >= n).any() or (lo == hi).any():
        _raise_first_bad_edge(n, edges)
    ascending = (lo[1:] > lo[:-1]) | ((lo[1:] == lo[:-1]) & (hi[1:] > hi[:-1]))
    if (type(edges) is tuple and (u < v).all() and ascending.all()      # so no repeats
            and set(map(type, edges)) == {tuple}):
        ends.flags.writeable = False
        return ends, edges
    order = np.lexsort((hi, lo))
    ends = np.stack((lo[order], hi[order]), axis=1)
    if (ends[1:] == ends[:-1]).all(axis=1).any():
        seen = set()    # name the first repeat in input order
        key = next(k for k in zip(lo.tolist(), hi.tolist()) if k in seen or seen.add(k))
        raise GraphError(f"duplicate edge {key}")
    ends.flags.writeable = False
    return ends, tuple(zip(*ends.T.tolist()))


def _raise_first_bad_edge(n: int, edges) -> None:
    """Raise the error of the first edge, in input order, that is not a
    pair of distinct vertices of range(n) that fit in int64."""
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge {e} references an invalid vertex")
        if u == v:
            raise GraphError(f"loop at vertex {u} not allowed")
        if max(u, v) > _INT64_MAX:
            raise GraphError(f"edge {e} names a vertex beyond int64")
    raise GraphError("edges must be pairs of integer vertex ids")


def _neighbor_lists(g: Graph) -> Tuple[Tuple[int, ...], ...]:
    nbr: List[List[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        nbr[u].append(v)
        nbr[v].append(u)
    return tuple(map(tuple, nbr))


def analyze_structure(g: Graph) -> StructureReport:
    """Connectivity, bipartition (if any), and the most specific degree
    profile, from one BFS per graph: every later call returns the same report."""
    return _once(g, "_structure", _structure)


def _connected(g: Graph) -> bool:
    """``analyze_structure(g).connected``, but False from the counts alone when
    n >= 2 vertices have fewer than n - 1 edges: no per-vertex work for that,
    so a huge isolated n is refused without allocating per vertex."""
    return not (g.n >= 2 and len(g.edges) < g.n - 1) and analyze_structure(g).connected


def _structure(g: Graph) -> StructureReport:
    """BFS 2-colouring of every component, then the degree profile."""
    color = [-1] * g.n
    nbr = g.neighbors()
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
    if bipartite:                      # declared parts win over the BFS colouring
        bipartition = g.parts if g.parts is not None else tuple(color)
    deg = g.degrees()
    profile: Optional[Union[RegularProfile, BiregularProfile]] = None
    if g.n > 0 and len(set(deg)) == 1:
        profile = RegularProfile(deg[0], bipartite)
    elif bipartition is not None:
        side = [{d for d, c in zip(deg, bipartition) if c == s} for s in (0, 1)]
        if all(len(s) == 1 for s in side):
            (d0,), (d1,) = side
            n1 = bipartition.count(0 if d0 >= d1 else 1)
            profile = BiregularProfile(n1, g.n - n1, max(d0, d1), min(d0, d1))
    return StructureReport(components <= 1, bipartition, profile)


@dataclass(frozen=True)
class Spectrum:
    """Adjacency eigenvalues, sorted descending, and the shape of the matrix
    decomposed for them: (r, c) for the biadjacency SVD, (n, n) otherwise."""

    values: Tuple[float, ...]
    tolerance: float = DEFAULT_TOLERANCE
    eigenproblem: Tuple[int, int] = field(kw_only=True)


def _biadjacency_index(
    g: Graph, coloring: Tuple[int, ...]
) -> Tuple[int, np.ndarray, np.ndarray]:
    """(r, i, j) for the biadjacency matrix B of a bipartite g: r is the size
    of the smaller side (the rows of B), and edge e joins row i[e] of B to
    column j[e]."""
    rows = np.asarray(coloring, dtype=bool)
    if 2 * np.count_nonzero(rows) > g.n:
        rows = ~rows
    r = int(np.count_nonzero(rows))
    index = np.empty(g.n, dtype=np.intp)   # position of each vertex in its side
    index[rows] = np.arange(r)
    index[~rows] = np.arange(g.n - r)
    u, v = g.edge_array().T
    u, v = np.where(rows[u], u, v), np.where(rows[u], v, u)
    return r, index[u], index[v]


def spectrum(g: Graph, tolerance: float = DEFAULT_TOLERANCE) -> Spectrum:
    """Spectrum of g from the SVD of its biadjacency matrix when g is
    bipartite (declared ``parts``, else the BFS colouring), else from the
    eigenvalues of its adjacency matrix."""
    if g.n < 1:
        raise GraphClassError("spectrum requires at least one vertex")
    if g.n > SPECTRUM_CEILING:
        raise GraphClassError(f"n={g.n} exceeds the spectrum ceiling {SPECTRUM_CEILING}")
    coloring = analyze_structure(g).bipartition
    if coloring is None:
        vals = np.linalg.eigvalsh(g.adjacency_matrix())
        shape = (g.n, g.n)
    else:
        r, i, j = _biadjacency_index(g, coloring)
        b = np.zeros((r, g.n - r))
        b[i, j] = 1.0
        sigma = np.linalg.svd(b, compute_uv=False)
        vals = np.concatenate([sigma, -sigma, np.zeros(g.n - 2 * r)])
        shape = (r, g.n - r)
    values = tuple(sorted((float(v) for v in vals), reverse=True))
    return Spectrum(values, tolerance, eigenproblem=shape)


def _drop_value(values: List[float], target: float, tol: float, what: str) -> List[float]:
    best = min(range(len(values)), key=lambda i: abs(values[i] - target))
    if abs(values[best] - target) > tol:
        raise SpectralStructureError(
            f"expected trivial eigenvalue {what}={target:.12g} not found"
        )
    return values[:best] + values[best + 1 :]


def lambda_of(s: Spectrum, profile: Union[RegularProfile, BiregularProfile]) -> float:
    """lambda(X): largest |eigenvalue| after removing the trivial ones, which
    are matched within ``s.tolerance``."""
    tol = s.tolerance
    values = sorted(s.values, reverse=True)
    if isinstance(profile, RegularProfile):
        lam0 = float(profile.k)
        bipartite = profile.bipartite
    else:
        lam0 = math.sqrt(profile.l * profile.m)
        bipartite = True
    rest = _drop_value(values, lam0, tol, "lambda_0")
    if bipartite and lam0:                 # K_1's one eigenvalue is 0 = -0
        rest = _drop_value(rest, -lam0, tol, "-lambda_0")
    if any(abs(v) >= lam0 - tol for v in rest):
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
    tolerance: float
    eigenproblem: Tuple[int, int]          # (r, r) if bipartite, else (n, n): the deflated matrix
    margins: Dict[str, float] = field(default_factory=dict)


def _deflated_lambda(
    g: Graph, coloring: Optional[Tuple[int, ...]], l: int, m: int
) -> Tuple[float, Tuple[int, int]]:
    """lambda(X) of a connected (l, m)-biregular g with bipartition
    ``coloring``, or of a connected l-regular non-bipartite g (coloring
    None), and the shape of the matrix decomposed for it.

    Bipartite: G = BB^T counts common neighbours, one m x m block of row
    pairs per column of B, and G 1 = lm 1.  So M = r G - lm J has eigenvalue
    0 on 1 and r sigma_i^2 on its complement.  Otherwise M = n A - l J, with
    eigenvalue 0 on 1 and n theta_i on its complement.
    """
    if coloring is None:
        n = g.n
        theta = np.linalg.eigvalsh(n * g.adjacency_matrix() - l)
        return float(max(-theta[0], theta[-1]) / n), (n, n)
    r, i, j = _biadjacency_index(g, coloring)
    column_rows = i[np.argsort(j)].reshape(-1, m)
    pairs = (column_rows[:, :, None] * r + column_rows[:, None, :]).ravel()
    gram = np.bincount(pairs, minlength=r * r).reshape(r, r)
    top = np.linalg.eigvalsh((r * gram - l * m).astype(float))[-1]
    return math.sqrt(top / r), (r, r)


def certify_ramanujan(g: Graph, tolerance: float = DEFAULT_TOLERANCE) -> RamanujanCertificate:
    """Certify per the applicable definitions.

    Regular graphs use lambda <= 2 sqrt(k-1).  Bigraphs (which include
    bipartite regular graphs, with l = m = k) use the two-sided window
    |sqrt(l-1) - sqrt(m-1)| <= lambda <= sqrt(l-1) + sqrt(m-1) and,
    equivalently, |lambda^2 - q1 - q2| <= 2 sqrt(q1 q2) with q_i = degree - 1.
    """
    if not _connected(g):
        raise GraphClassError("certification requires a connected graph")
    rep = analyze_structure(g)
    if rep.profile is None:
        raise GraphClassError("certification requires a regular or biregular graph")
    if isinstance(rep.profile, RegularProfile) and rep.profile.k == 0:
        raise GraphClassError("certification requires degree at least 1")
    regular = isinstance(rep.profile, RegularProfile)
    l, m = (rep.profile.k,) * 2 if regular else (rep.profile.l, rep.profile.m)
    lam, shape = _deflated_lambda(g, rep.bipartition, l, m)
    margins: Dict[str, float] = {}
    def21 = def22 = def23 = None
    if regular:
        graph_class = "regular"
        degrees: Tuple[int, ...] = (l,)
        lower, upper = 0.0, 2.0 * math.sqrt(l - 1)
        def21 = lam <= upper + tolerance
        margins["def21_upper"] = upper - lam
    else:
        graph_class = "bigraph"
        degrees = (l, m)
    if rep.bipartition is not None:
        sl, sm = math.sqrt(l - 1), math.sqrt(m - 1)
        lower, upper = abs(sl - sm), sl + sm
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
        tolerance=tolerance,
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


def expansion_coefficient(
    g: Graph, ceiling: int = DEFAULT_EXPANSION_CEILING
) -> ExpansionReport:
    """Exact expansion coefficient by exhaustive subset scan.

    c = min |dW| / |W| over 0 < |W| <= n/2, where dW is the set of vertices
    outside W adjacent to W; the first minimiser in ascending bitmask order
    is reported.  Also reports lambda(X) and, for regular graphs,
    1 - lambda(X)/k; the relation between 2c and 1 - lambda/k is reported,
    never asserted.

    The scan is word-parallel, so n <= 64: subsets are uint64 bitmasks,
    taken in blocks that share their high bits.  The neighbourhood unions of
    the low subsets are tabulated once, by doubling, and each block ORs in
    the union of its high bits.  The ratio b / |W| is compared as the
    integer key b * (L / |W|), with L the lcm of 1..32, so no rounding enters.
    """
    n = g.n
    if n < 2:
        raise GraphClassError("expansion needs at least two vertices")
    if n > _WORD:
        raise GraphClassError(
            f"n={n} exceeds the {_WORD}-vertex limit of the subset scan; "
            "use the spectral report instead"
        )
    if n > ceiling:
        raise GraphClassError(
            f"n={n} exceeds the brute-force ceiling {ceiling}; "
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
        lam = lambda_of(spectrum(g), rep.profile)
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
    edges = tuple(zip((key // n2).tolist(), (key % n2 + n1).tolist()))
    return Graph(n1 + n2, edges, (0,) * n1 + (1,) * n2)


# ---------------------------------------------------------------------------
# Interchange formats
# ---------------------------------------------------------------------------

def graph_to_json(g: Graph) -> dict:
    doc = {"n": g.n, "edges": [list(e) for e in g.edges]}
    if g.parts is not None:
        doc["parts"] = list(g.parts)
    return doc


def graph_from_json(doc: dict) -> Graph:
    try:
        n = doc["n"]
        edges = tuple(tuple(e) for e in doc["edges"])
        parts = tuple(doc["parts"]) if "parts" in doc and doc["parts"] is not None else None
        ints = (n, *(v for e in edges for v in e), *(parts or ()))   # bools excluded
        if any(len(e) != 2 for e in edges) or any(type(v) is not int for v in ints):
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
    for v in range(g.n):
        attrs = ""
        if g.parts is not None:
            shape = "circle" if g.parts[v] == 0 else "box"
            attrs = f" [shape={shape}]"
        lines.append(f"  {v}{attrs};")
    for u, v in g.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
