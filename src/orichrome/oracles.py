"""Exact solvers used as ground truth for the rest of the package.

These run full searches at small sizes: oriented chromatic number against
isomorph-free tournament targets, 2-dipath chromatic number by branch and
bound on the directed square, and minimum-arc oriented cliques by scanning
edge subsets in increasing size.  All caps raise CapExceeded rather than
degrade silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

from .errors import CapExceeded
from .generate import all_tournaments
from .graphs import OrientedGraph, SimpleGraph, bits, directed_square, is_oriented_clique

_CHI_O_CAP = 7
_TWO_DIPATH_CAP = 20
_MIN_EDGE_CAP = 6


@dataclass
class SolveResult:
    """Outcome of an exact search.

    ``witness`` is a homomorphism map for oriented chromatic number, a colour
    map for 2-dipath colouring, and a graph for minimum-edge clique search.
    """

    value: int
    witness: object
    nodes_explored: int
    target: OrientedGraph | None = None


def validate_homomorphism(g: OrientedGraph, h: OrientedGraph, phi: Mapping[int, int]) -> bool:
    """True when phi maps every arc of g onto an arc of h, directions kept."""
    for v in range(g.n):
        if v not in phi:
            return False
        if not 0 <= phi[v] < h.n:
            return False
    return all(h.has_arc(phi[u], phi[v]) for u, v in g.arcs())


def _find_homomorphism(g: OrientedGraph, h: OrientedGraph, order: list[int]) -> tuple[dict[int, int] | None, int]:
    """Backtracking search for a g -> h homomorphism along the given order."""
    phi: dict[int, int] = {}
    nodes = 0
    nbrs = [g.neighbours(v) for v in range(g.n)]

    def bt(i: int) -> bool:
        nonlocal nodes
        if i == len(order):
            return True
        v = order[i]
        for t in range(h.n):
            nodes += 1
            ok = True
            for u in nbrs[v]:
                if u not in phi:
                    continue
                if g.has_arc(v, u):
                    if not h.has_arc(t, phi[u]):
                        ok = False
                        break
                else:
                    if not h.has_arc(phi[u], t):
                        ok = False
                        break
            if ok:
                phi[v] = t
                if bt(i + 1):
                    return True
                del phi[v]
        return False

    found = bt(0)
    return (dict(phi) if found else None), nodes


def exact_oriented_chromatic(g: OrientedGraph, k_max: int = _CHI_O_CAP) -> SolveResult | None:
    """Least k <= k_max with a homomorphism into some k-vertex tournament.

    Any oriented target extends to a tournament on the same vertices, so
    searching tournaments only is complete.  Returns None when no k <= k_max
    admits a homomorphism.
    """
    if k_max > _CHI_O_CAP:
        raise CapExceeded(f"oriented chromatic search capped at k = {_CHI_O_CAP}")
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    total_nodes = 0
    for k in range(min(k_max, g.n) + 1 if g.n else 1):
        if k == 0 and g.n > 0:
            continue
        for t in all_tournaments(k):
            phi, nodes = _find_homomorphism(g, t, order)
            total_nodes += nodes
            if phi is not None:
                return SolveResult(value=k, witness=phi, nodes_explored=total_nodes, target=t)
    return None


# -- chromatic number of a simple graph (for the directed square) -------------


def _greedy_colouring(g: SimpleGraph, order: list[int]) -> dict[int, int]:
    colours: dict[int, int] = {}
    for v in order:
        used = {colours[u] for u in g.neighbours(v) if u in colours}
        c = 1
        while c in used:
            c += 1
        colours[v] = c
    return colours


def _greedy_clique(g: SimpleGraph) -> list[int]:
    clique: list[int] = []
    mask = (1 << g.n) - 1
    for v in sorted(range(g.n), key=lambda u: -g.degree(u)):
        if mask >> v & 1:
            clique.append(v)
            mask &= g.adj_mask(v)
    return clique


def _k_colourable(g: SimpleGraph, k: int, order: list[int]) -> tuple[dict[int, int] | None, int]:
    """Backtracking k-colouring with new colours introduced in order."""
    colours: dict[int, int] = {}
    nodes = 0

    def bt(i: int, used: int) -> bool:
        nonlocal nodes
        if i == len(order):
            return True
        v = order[i]
        forbidden = {colours[u] for u in g.neighbours(v) if u in colours}
        limit = min(k, used + 1)
        for c in range(1, limit + 1):
            if c in forbidden:
                continue
            nodes += 1
            colours[v] = c
            if bt(i + 1, max(used, c)):
                return True
            del colours[v]
        return False

    found = bt(0, 0)
    return (dict(colours) if found else None), nodes


def chromatic_number(g: SimpleGraph) -> SolveResult:
    """Exact chromatic number of a simple graph with colour-map witness."""
    if g.n == 0:
        return SolveResult(value=0, witness={}, nodes_explored=0)
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    greedy = _greedy_colouring(g, order)
    ub = max(greedy.values())
    lb = max(len(_greedy_clique(g)), 1)
    nodes = 0
    for k in range(lb, ub):
        witness, explored = _k_colourable(g, k, order)
        nodes += explored
        if witness is not None:
            return SolveResult(value=k, witness=witness, nodes_explored=nodes)
    return SolveResult(value=ub, witness=greedy, nodes_explored=nodes)


def exact_two_dipath(g: OrientedGraph) -> SolveResult:
    """Exact chromatic number of the directed square of g (n <= 20)."""
    if g.n > _TWO_DIPATH_CAP:
        raise CapExceeded(f"2-dipath exact solver capped at n = {_TWO_DIPATH_CAP}")
    return chromatic_number(directed_square(g))


# -- minimum-edge oriented cliques ---------------------------------------------


def _underlying_diameter_two(n: int, edge_subset: tuple[tuple[int, int], ...]) -> bool:
    adj = [0] * n
    for u, v in edge_subset:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    full = (1 << n) - 1
    for u in range(n):
        reach = adj[u]
        for x in bits(adj[u]):
            reach |= adj[x]
        if reach | (1 << u) != full:
            return False
    return True


def min_edge_oriented_clique(n: int, edge_budget: int | None = None) -> SolveResult | None:
    """Exhaustive search for an oriented clique on n <= 6 vertices with few arcs.

    Scans arc counts upward, so the first hit has the minimum possible number
    of arcs; with an ``edge_budget`` the scan stops there and returns None
    when no clique that small exists.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n > _MIN_EDGE_CAP:
        raise CapExceeded(f"oriented clique search capped at n = {_MIN_EDGE_CAP}")
    pairs = list(combinations(range(n), 2))
    top = len(pairs) if edge_budget is None else min(edge_budget, len(pairs))
    nodes = 0
    for m in range(max(n - 1, 0), top + 1):
        for subset in combinations(pairs, m):
            if not _underlying_diameter_two(n, subset):
                continue
            for code in range(1 << m):
                nodes += 1
                arcs = [
                    (u, v) if code >> i & 1 else (v, u)
                    for i, (u, v) in enumerate(subset)
                ]
                og = OrientedGraph(n, arcs)
                if is_oriented_clique(og):
                    return SolveResult(value=m, witness=og, nodes_explored=nodes)
    return None
