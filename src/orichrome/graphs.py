"""Oriented graphs, directed squares, orderings, and file formats.

An oriented graph here is a loopless digraph with at most one arc per
unordered vertex pair (no anti-parallel pairs).  Vertices are 0..n-1.
Adjacency is stored as two bitset rows per vertex (out-set and in-set,
as Python ints), which makes the distance-two mask algebra used by the
colouring routines cheap.  Graphs are immutable after construction, so
instances can be shared freely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InvariantViolation, NonAdjacent, ParseError


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class OrientedGraph:
    """Immutable oriented graph on vertices 0..n-1."""

    __slots__ = ("n", "_out", "_in")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise InvariantViolation("vertex count must be non-negative")
        self.n = n
        out = [0] * n
        inc = [0] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise InvariantViolation(f"arc ({u},{v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise InvariantViolation(f"loop at vertex {u}")
            if out[u] >> v & 1:
                raise InvariantViolation(f"duplicate arc ({u},{v})")
            if out[v] >> u & 1:
                raise InvariantViolation(f"anti-parallel pair between {u} and {v}")
            out[u] |= 1 << v
            inc[v] |= 1 << u
        self._out = out
        self._in = inc

    @classmethod
    def _from_masks(cls, out: list[int]) -> "OrientedGraph":
        """Trusted constructor from out-masks; skips invariant validation."""
        g = cls.__new__(cls)
        g.n = len(out)
        g._out = list(out)
        inc = [0] * g.n
        for u, row in enumerate(out):
            for v in bits(row):
                inc[v] |= 1 << u
        g._in = inc
        return g

    # -- adjacency -------------------------------------------------------

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self._out[u] >> v & 1)

    def out_mask(self, u: int) -> int:
        return self._out[u]

    def in_mask(self, u: int) -> int:
        return self._in[u]

    def adj_mask(self, u: int) -> int:
        return self._out[u] | self._in[u]

    def out_neighbours(self, u: int) -> list[int]:
        return list(bits(self._out[u]))

    def in_neighbours(self, u: int) -> list[int]:
        return list(bits(self._in[u]))

    def neighbours(self, u: int) -> list[int]:
        return list(bits(self.adj_mask(u)))

    def degree(self, u: int) -> int:
        return self.adj_mask(u).bit_count()

    def max_degree(self) -> int:
        return max((self.degree(u) for u in range(self.n)), default=0)

    def min_degree(self) -> int:
        return min((self.degree(u) for u in range(self.n)), default=0)

    def arcs(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits(self._out[u])]

    @property
    def arc_count(self) -> int:
        return sum(row.bit_count() for row in self._out)

    def underlying(self) -> "SimpleGraph":
        return SimpleGraph._from_masks([self.adj_mask(u) for u in range(self.n)])

    # -- dunder ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OrientedGraph)
            and self.n == other.n
            and self._out == other._out
        )

    def __hash__(self) -> int:
        return hash((self.n, tuple(self._out)))

    def __repr__(self) -> str:
        return f"OrientedGraph(n={self.n}, m={self.arc_count})"


class SimpleGraph:
    """Immutable undirected simple graph on vertices 0..n-1."""

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise InvariantViolation("vertex count must be non-negative")
        self.n = n
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvariantViolation(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise InvariantViolation(f"loop at vertex {u}")
            if adj[u] >> v & 1:
                raise InvariantViolation(f"duplicate edge ({u},{v})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self._adj = adj

    @classmethod
    def _from_masks(cls, adj: list[int]) -> "SimpleGraph":
        g = cls.__new__(cls)
        g.n = len(adj)
        g._adj = list(adj)
        return g

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[u] >> v & 1)

    def adj_mask(self, u: int) -> int:
        return self._adj[u]

    def neighbours(self, u: int) -> list[int]:
        return list(bits(self._adj[u]))

    def degree(self, u: int) -> int:
        return self._adj[u].bit_count()

    def max_degree(self) -> int:
        return max((self.degree(u) for u in range(self.n)), default=0)

    def min_degree(self) -> int:
        return min((self.degree(u) for u in range(self.n)), default=0)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits(self._adj[u]) if u < v]

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self._adj) // 2

    def is_complete(self) -> bool:
        full = (1 << self.n) - 1
        return all(self._adj[u] == full ^ (1 << u) for u in range(self.n))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimpleGraph)
            and self.n == other.n
            and self._adj == other._adj
        )

    def __hash__(self) -> int:
        return hash((self.n, tuple(self._adj)))

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, m={self.edge_count})"


# -- orientation vectors --------------------------------------------------


def orientation_vector(g: OrientedGraph, ordered_set: Iterable[int], v: int) -> tuple[int, ...]:
    """Signs of the arcs between ``v`` and each vertex of ``ordered_set``.

    Entry i is +1 when the arc runs from ``v`` to the i-th vertex, -1 when it
    runs the other way.  Raises NonAdjacent when some listed vertex shares no
    arc with ``v`` (including v itself).
    """
    out = []
    for u in ordered_set:
        if g.has_arc(v, u):
            out.append(1)
        elif g.has_arc(u, v):
            out.append(-1)
        else:
            raise NonAdjacent(f"vertices {v} and {u} share no arc")
    return tuple(out)


# -- directed square and oriented cliques ----------------------------------


def directed_square(g: OrientedGraph) -> SimpleGraph:
    """Simple graph joining u,w when some directed path of length <= 2 links them.

    The edge set is {u,w} such that 1 <= dist(u,w) <= 2 or 1 <= dist(w,u) <= 2,
    with dist measured along arcs.
    """
    adj = [0] * g.n
    for u in range(g.n):
        reach = g.out_mask(u)
        for x in bits(g.out_mask(u)):
            reach |= g.out_mask(x)
        reach &= ~(1 << u)
        adj[u] |= reach
        for w in bits(reach):
            adj[w] |= 1 << u
    return SimpleGraph._from_masks(adj)


def is_oriented_clique(g: OrientedGraph) -> bool:
    """True when every vertex pair is linked by a directed path of length <= 2."""
    return directed_square(g).is_complete()


# -- degeneracy ordering ----------------------------------------------------


@dataclass(frozen=True)
class VertexOrdering:
    """A vertex order together with its maximum back-degree."""

    order: tuple[int, ...]
    degeneracy: int


def degeneracy_ordering(g) -> VertexOrdering:
    """Min-degree peeling order: position i has minimum degree in the prefix.

    Peeling removes a minimum-degree vertex of the remaining graph (ties by
    lowest index); the removal sequence reversed is the returned order, and
    the largest degree seen at removal time is the degeneracy.
    Accepts an OrientedGraph or a SimpleGraph.
    """
    adj = [g.adj_mask(u) for u in range(g.n)]
    n = len(adj)
    alive = (1 << n) - 1
    deg = [adj[u].bit_count() for u in range(n)]
    removal: list[int] = []
    degeneracy = 0
    for _ in range(n):
        v = min((u for u in range(n) if alive >> u & 1), key=lambda u: (deg[u], u))
        degeneracy = max(degeneracy, deg[v])
        removal.append(v)
        alive &= ~(1 << v)
        for w in bits(adj[v] & alive):
            deg[w] -= 1
    return VertexOrdering(order=tuple(reversed(removal)), degeneracy=degeneracy)


def back_degrees(g, order: Iterable[int]) -> list[int]:
    """Back-degree of each position: neighbours among earlier order positions."""
    adj = [g.adj_mask(u) for u in range(g.n)]
    seen = 0
    out = []
    for v in order:
        out.append((adj[v] & seen).bit_count())
        seen |= 1 << v
    return out


# -- file formats -----------------------------------------------------------


def parse_edge_list(text: str) -> OrientedGraph:
    """Parse the plain edge-list format: header ``n m`` then m lines ``u v``.

    ``#`` starts a comment anywhere on a line; blank lines are skipped.
    Raises ParseError (with line number) for malformed text and
    InvariantViolation for loops, duplicates, or anti-parallel pairs.
    """
    header: tuple[int, int] | None = None
    arcs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected two integers, got {line!r}", lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"expected two integers, got {line!r}", lineno) from None
        if header is None:
            if a < 0 or b < 0:
                raise ParseError("header counts must be non-negative", lineno)
            header = (a, b)
        else:
            arcs.append((a, b))
    if header is None:
        raise ParseError("missing 'n m' header", 1)
    n, m = header
    if len(arcs) != m:
        raise ParseError(f"header promised {m} arcs, found {len(arcs)}", 1)
    return OrientedGraph(n, arcs)


def serialize_edge_list(g: OrientedGraph) -> str:
    """Edge-list text with sorted arcs; inverse of parse_edge_list up to layout."""
    lines = [f"{g.n} {g.arc_count}"]
    lines.extend(f"{u} {v}" for u, v in g.arcs())
    return "\n".join(lines) + "\n"


def graph_to_json(g: OrientedGraph) -> str:
    return json.dumps({"n": g.n, "arcs": g.arcs()}, sort_keys=True, separators=(",", ":"))


def graph_from_json(text: str) -> OrientedGraph:
    try:
        obj = json.loads(text)
        n = obj["n"]
        arcs = [(int(u), int(v)) for u, v in obj["arcs"]]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad graph JSON: {exc}", 1) from None
    return OrientedGraph(n, arcs)
