"""Finite graphs: structure analysis, spectra, Ramanujan certification,
expansion coefficients, generators, and JSON/DOT interchange.

Conventions
-----------
* Graphs are simple and undirected; vertices are 0..n-1.
* ``lambda_of`` follows the trivial-eigenvalue convention: for a connected
  k-regular graph drop one copy of k (and one copy of -k when bipartite);
  for a connected (l, m)-bigraph drop one copy of each of +-sqrt(lm).
  Multiplicity at the trivial eigenvalue signals disconnection and raises
  ``SpectralStructureError``.
* Floating tolerances default to 1e-9 absolute; exact quantities (expansion
  coefficient) are ``Fraction``s.
* Spectra of bipartite graphs come from the biadjacency matrix.  With sides
  of sizes r <= c and B the r x c matrix of edges from the smaller side to
  the larger, the adjacency spectrum is {+-sigma_i(B)} plus c - r zeros, for
  every bipartite graph, connected or not.  So a bipartite graph costs one
  r x c SVD; any other graph costs the n x n symmetric eigenproblem of its
  adjacency matrix A.  Both are backward stable, with absolute error
  O(eps ||A||).  ``Spectrum.eigenproblem`` records which shape was decomposed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

DEFAULT_TOLERANCE = 1e-9
DEFAULT_EXPANSION_CEILING = 20


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
        seen = set()
        canon = []
        for e in self.edges:
            u, v = e
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge {e} references an invalid vertex")
            if u == v:
                raise GraphError(f"loop at vertex {u} not allowed")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphError(f"duplicate edge {key}")
            seen.add(key)
            canon.append(key)
        object.__setattr__(self, "edges", tuple(sorted(canon)))
        if self.parts is not None:
            parts = tuple(self.parts)
            if len(parts) != self.n or any(c not in (0, 1) for c in parts):
                raise GraphError("parts must assign 0/1 to every vertex")
            for u, v in self.edges:
                if parts[u] == parts[v]:
                    raise GraphError(f"edge ({u},{v}) violates the declared parts")
            object.__setattr__(self, "parts", parts)

    def degrees(self) -> List[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def neighbors(self) -> List[List[int]]:
        nbr: List[List[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbr[u].append(v)
            nbr[v].append(u)
        return nbr

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for u, v in self.edges:
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


def _two_color(g: Graph) -> Tuple[bool, Optional[List[int]], bool]:
    """BFS two-coloring. Returns (connected, coloring-or-None, bipartite)."""
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
    connected = components <= 1
    return connected, (color if bipartite else None), bipartite


def analyze_structure(g: Graph) -> StructureReport:
    """Connectivity, bipartition (if any), and the most specific degree profile."""
    connected, coloring, bipartite = _two_color(g)
    if g.parts is not None and bipartite:
        coloring = list(g.parts)
    deg = g.degrees()
    bipartition = tuple(coloring) if coloring is not None else None
    profile: Optional[Union[RegularProfile, BiregularProfile]] = None
    if g.n > 0 and len(set(deg)) == 1:
        profile = RegularProfile(deg[0], bipartite)
    elif bipartition is not None:
        side = [{deg[v] for v in range(g.n) if bipartition[v] == c} for c in (0, 1)]
        if all(len(s) == 1 for s in side):
            d0, d1 = side[0].pop(), side[1].pop()
            c_l = 0 if d0 >= d1 else 1
            l, m = max(d0, d1), min(d0, d1)
            n1 = sum(1 for v in range(g.n) if bipartition[v] == c_l)
            profile = BiregularProfile(n1, g.n - n1, l, m)
    return StructureReport(connected, bipartition, profile)


@dataclass(frozen=True)
class Spectrum:
    """Adjacency eigenvalues, sorted descending, and the shape of the matrix
    decomposed for them: (r, c) for the biadjacency SVD, (n, n) otherwise."""

    values: Tuple[float, ...]
    tolerance: float = DEFAULT_TOLERANCE
    eigenproblem: Tuple[int, int] = field(kw_only=True)


def spectrum(g: Graph, tolerance: float = DEFAULT_TOLERANCE) -> Spectrum:
    coloring = g.parts if g.parts is not None else _two_color(g)[1]
    return _spectrum(g, coloring, tolerance)


def _spectrum(g: Graph, coloring: Optional[Sequence[int]], tolerance: float) -> Spectrum:
    """Spectrum of g from the SVD of its biadjacency matrix when ``coloring``
    is a 2-coloring of g, else from the eigenvalues of its adjacency matrix."""
    if g.n < 1:
        raise GraphError("spectrum requires at least one vertex")
    if coloring is None:
        vals = np.linalg.eigvalsh(g.adjacency_matrix())
        shape = (g.n, g.n)
    else:
        rows = np.asarray(coloring, dtype=bool)
        if 2 * np.count_nonzero(rows) > g.n:
            rows = ~rows                       # rows of B: the smaller side
        r = int(np.count_nonzero(rows))
        index = np.empty(g.n, dtype=np.intp)   # position of each vertex in its side
        index[rows] = np.arange(r)
        index[~rows] = np.arange(g.n - r)
        u, v = np.asarray(g.edges, dtype=np.intp).reshape(-1, 2).T
        u, v = np.where(rows[u], u, v), np.where(rows[u], v, u)
        b = np.zeros((r, g.n - r))
        b[index[u], index[v]] = 1.0
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


def lambda_of(
    s: Spectrum,
    profile: Union[RegularProfile, BiregularProfile],
    tolerance: Optional[float] = None,
) -> float:
    """lambda(X): largest |eigenvalue| after removing the trivial ones."""
    tol = s.tolerance if tolerance is None else tolerance
    values = sorted(s.values, reverse=True)
    if isinstance(profile, RegularProfile):
        lam0 = float(profile.k)
        bipartite = profile.bipartite
    else:
        lam0 = math.sqrt(profile.l * profile.m)
        bipartite = True
    rest = _drop_value(values, lam0, tol, "lambda_0")
    if bipartite:
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
    eigenproblem: Tuple[int, int]          # shape of the matrix decomposed
    margins: Dict[str, float] = field(default_factory=dict)


def certify_ramanujan(g: Graph, tolerance: float = DEFAULT_TOLERANCE) -> RamanujanCertificate:
    """Certify per the applicable definitions.

    Regular graphs use lambda <= 2 sqrt(k-1).  Bigraphs (which include
    bipartite regular graphs, with l = m = k) use the two-sided window
    |sqrt(l-1) - sqrt(m-1)| <= lambda <= sqrt(l-1) + sqrt(m-1) and,
    equivalently, |lambda^2 - q1 - q2| <= 2 sqrt(q1 q2) with q_i = degree - 1.
    """
    rep = analyze_structure(g)
    if not rep.connected:
        raise GraphClassError("certification requires a connected graph")
    if rep.profile is None:
        raise GraphClassError("certification requires a regular or biregular graph")
    s = _spectrum(g, rep.bipartition, tolerance)
    lam = lambda_of(s, rep.profile, tolerance)
    margins: Dict[str, float] = {}
    def21 = def22 = def23 = None
    if isinstance(rep.profile, RegularProfile):
        graph_class = "regular"
        k = rep.profile.k
        degrees: Tuple[int, ...] = (k,)
        lower, upper = 0.0, 2.0 * math.sqrt(max(k - 1, 0))
        def21 = lam <= upper + tolerance
        margins["def21_upper"] = upper - lam
        verdicts = [def21]
        if rep.profile.bipartite:
            l = m = k
        else:
            l = m = None
    else:
        graph_class = "bigraph"
        l, m = rep.profile.l, rep.profile.m
        degrees = (l, m)
        verdicts = []
    if l is not None:
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
        verdicts.append(def22)
    return RamanujanCertificate(
        graph_class=graph_class,
        degrees=degrees,
        lam=lam,
        lower_bound=lower,
        upper_bound=upper,
        def21=def21,
        def22=def22,
        def23=def23,
        is_ramanujan=all(verdicts),
        tolerance=tolerance,
        eigenproblem=s.eigenproblem,
        margins=margins,
    )


@dataclass(frozen=True)
class ExpansionReport:
    c: Fraction
    minimizing_subset: Tuple[int, ...]
    two_c: Fraction
    lam: Optional[float]
    one_minus_lambda_over_k: Optional[float]


def expansion_coefficient(
    g: Graph, ceiling: int = DEFAULT_EXPANSION_CEILING
) -> ExpansionReport:
    """Exact expansion coefficient by exhaustive subset scan.

    c = min |dW| / |W| over 0 < |W| <= n/2, where dW is the set of vertices
    outside W adjacent to W.  Also reports lambda(X) and, for regular graphs,
    1 - lambda(X)/k; the relation between 2c and 1 - lambda/k is reported,
    never asserted.
    """
    if g.n < 2:
        raise GraphError("expansion needs at least two vertices")
    if g.n > ceiling:
        raise GraphError(
            f"n={g.n} exceeds the brute-force ceiling {ceiling}; "
            "use the spectral report instead"
        )
    nbr_mask = [0] * g.n
    for u, v in g.edges:
        nbr_mask[u] |= 1 << v
        nbr_mask[v] |= 1 << u
    half = g.n // 2
    best: Optional[Fraction] = None
    best_set = 0
    for w in range(1, 1 << g.n):
        size = bin(w).count("1")
        if size > half:
            continue
        boundary = 0
        rest = w
        while rest:
            v = (rest & -rest).bit_length() - 1
            boundary |= nbr_mask[v]
            rest &= rest - 1
        ratio = Fraction(bin(boundary & ~w).count("1"), size)
        if best is None or ratio < best:
            best, best_set = ratio, w
            if best == 0:
                break
    assert best is not None
    subset = tuple(v for v in range(g.n) if best_set >> v & 1)
    lam = one_minus = None
    rep = analyze_structure(g)
    if rep.connected and rep.profile is not None:
        lam = lambda_of(_spectrum(g, rep.bipartition, DEFAULT_TOLERANCE), rep.profile)
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


def random_biregular(
    n1: int, n2: int, l: int, m: int, seed: int, max_retries: int = 500
) -> Graph:
    """Random simple (l, m)-biregular bipartite graph by the configuration
    model with rejection of multi-edges.  Deterministic for a fixed seed.

    Feasibility: handshake n1*l = n2*m plus l <= n2 and m <= n1 (the
    Gale-Ryser condition specializes to exactly this for constant degree
    sequences).
    """
    if min(n1, n2, l, m) < 1:
        raise GraphClassError("all parameters must be positive")
    if n1 * l != n2 * m:
        raise GraphClassError(f"handshake fails: {n1}*{l} != {n2}*{m}")
    if l > n2 or m > n1:
        raise GraphClassError("degree exceeds the opposite part: no simple graph")
    rng = random.Random(seed)
    for _ in range(max_retries):
        # sequential configuration model: each left vertex draws l distinct
        # right stubs (weighted by remaining degree); restart on a dead end
        remaining = [m] * n2
        edges: List[Tuple[int, int]] = []
        ok = True
        for u in range(n1):
            eligible = [v for v in range(n2) if remaining[v] > 0]
            if len(eligible) < l:
                ok = False
                break
            weights = [remaining[v] for v in eligible]
            chosen: List[int] = []
            for _ in range(l):
                total = sum(weights)
                pick = rng.randrange(total)
                acc = 0
                for i, wgt in enumerate(weights):
                    acc += wgt
                    if pick < acc:
                        chosen.append(eligible.pop(i))
                        weights.pop(i)
                        break
            for v in chosen:
                remaining[v] -= 1
                edges.append((u, n1 + v))
        if ok:
            return Graph(n1 + n2, tuple(edges), tuple([0] * n1 + [1] * n2))
    raise GraphClassError(f"no simple pairing found after {max_retries} retries")


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
        if not isinstance(n, int) or any(len(e) != 2 for e in edges):
            raise GraphError("malformed graph document")
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
