"""Oriented graphs, directed squares, orderings, and file formats.

An oriented graph here is a loopless digraph with at most one arc per
unordered vertex pair (no anti-parallel pairs).  Vertices are 0..n-1.
Both graph classes store sorted neighbour tuples: an OrientedGraph an
out-row per vertex, and an in-row per vertex built from the out-rows on
first read and kept, a SimpleGraph one row per vertex, so memory and
neighbour walks grow with n + m; isolated vertices share the empty tuple.
Code that needs only arcs (the reducer, ``arcs()``, the writers) never
builds the in-rows.  Bitset rows (Python ints) are built from the tuples
on demand for the small-graph routines that want mask algebra, and serve
as working state inside directed_square.  Graphs are immutable after
construction, so instances can be shared freely.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from decimal import Decimal
from heapq import heapify, heappop, heappush
from itertools import compress
from operator import add
from typing import Iterable, Iterator

from .errors import InvariantViolation, ParseError, TooLarge


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_NO_ARCS = frozenset()
_ONE = "1".__eq__
_BIT = (1).__lshift__


def _mask(row: tuple[int, ...]) -> int:
    """The bitset of a neighbour row, for the small-graph routines that want one."""
    return sum(map(_BIT, row))


def _rows(masks: list[int]) -> list[tuple[int, ...]]:
    """Sorted neighbour rows of bitset rows; empty rows share ``()``."""
    labels = list(range(len(masks)))
    return [tuple(compress(labels, map(_ONE, bin(row)[:1:-1]))) if row else () for row in masks]


def _transpose(rows: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """In-rows of the out-rows ``rows``, sorted because tails are visited in order.

    A tail's label is one int object, shared by every in-row it enters.
    """
    cols: list = [()] * len(rows)
    for u, row in enumerate(rows):
        for v in row:
            col = cols[v]
            if col:
                col.append(u)
            else:
                cols[v] = [u]
    return list(map(tuple, cols))


class OrientedGraph:
    """Immutable oriented graph on vertices 0..n-1."""

    __slots__ = ("n", "_out", "_in_rows")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise InvariantViolation("vertex count must be non-negative")
        self.n = n
        # one out-set per vertex with an arc, the rest sharing one empty set;
        # dicts stand in for sets because storing a key is cheaper than
        # set.add
        succ: list = [_NO_ARCS] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise InvariantViolation(f"arc ({u},{v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise InvariantViolation(f"loop at vertex {u}")
            row = succ[u]
            if v in row:
                raise InvariantViolation(f"duplicate arc ({u},{v})")
            if u in succ[v]:
                raise InvariantViolation(f"anti-parallel pair between {u} and {v}")
            if row:
                row[v] = None
            else:
                succ[u] = {v: None}
        self._out = [tuple(sorted(row)) if row else () for row in succ]
        self._in_rows = None

    @classmethod
    def _from_rows(cls, out: list[tuple[int, ...]], inc: list[tuple[int, ...]] | None = None) -> "OrientedGraph":
        """Trusted constructor from sorted out-rows, and the in-rows if a caller
        has them already; skips validation.  Without ``inc`` the in-rows are
        built on first read of ``_in``."""
        g = cls.__new__(cls)
        g.n = len(out)
        g._out = out
        g._in_rows = inc
        return g

    @classmethod
    def _from_masks(cls, out: list[int]) -> "OrientedGraph":
        """Trusted constructor from out-masks; skips invariant validation."""
        return cls._from_rows(_rows(out))

    @property
    def _in(self) -> list[tuple[int, ...]]:
        """Sorted in-rows: ``_transpose`` of the out-rows, built on first read and kept."""
        inc = self._in_rows
        if inc is None:
            inc = self._in_rows = _transpose(self._out)
        return inc

    # -- adjacency -------------------------------------------------------

    def has_arc(self, u: int, v: int) -> bool:
        return v in self._out[u]

    def out_mask(self, u: int) -> int:
        return _mask(self._out[u])

    def neighbours(self, u: int) -> list[int]:
        return sorted(self._out[u] + self._in[u])

    def neighbour_rows(self) -> list[tuple[int, ...]]:
        """Every vertex's neighbours, unsorted: its out-row, then its in-row."""
        return list(map(add, self._out, self._in))

    def degree(self, u: int) -> int:
        return len(self._out[u]) + len(self._in[u])

    def degrees(self) -> list[int]:
        """Degree of every vertex, by vertex: out-row plus in-row length."""
        return list(map(add, map(len, self._out), map(len, self._in)))

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def min_degree(self) -> int:
        return min(self.degrees(), default=0)

    def arcs(self) -> list[tuple[int, int]]:
        return [(u, v) for u, row in enumerate(self._out) for v in row]

    @property
    def arc_count(self) -> int:
        return sum(map(len, self._out))

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
        # a neighbour dict only for each vertex with an edge
        nbrs = defaultdict(dict)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvariantViolation(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise InvariantViolation(f"loop at vertex {u}")
            row = nbrs[u]
            if v in row:
                raise InvariantViolation(f"duplicate edge ({u},{v})")
            row[v] = None
            nbrs[v][u] = None
        self._adj = [tuple(sorted(nbrs[u])) if u in nbrs else () for u in range(n)]

    @classmethod
    def _from_rows(cls, adj: list[tuple[int, ...]]) -> "SimpleGraph":
        """Trusted constructor from sorted, symmetric rows; skips validation."""
        g = cls.__new__(cls)
        g.n = len(adj)
        g._adj = adj
        return g

    def adj_mask(self, u: int) -> int:
        return _mask(self._adj[u])

    def neighbours(self, u: int) -> list[int]:
        return list(self._adj[u])

    def neighbour_rows(self) -> list[tuple[int, ...]]:
        """Every vertex's neighbour row, the graph's own list; do not mutate."""
        return self._adj

    def degree(self, u: int) -> int:
        return len(self._adj[u])

    def max_degree(self) -> int:
        return max(map(len, self._adj), default=0)

    def min_degree(self) -> int:
        return min(map(len, self._adj), default=0)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u, row in enumerate(self._adj) for v in row if u < v]

    @property
    def edge_count(self) -> int:
        return sum(map(len, self._adj)) // 2

    def is_complete(self) -> bool:
        # rows hold no loop or repeat, so n - 1 entries means every other vertex
        return all(len(row) == self.n - 1 for row in self._adj)

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


# -- directed square and oriented cliques ----------------------------------


def directed_square(g: OrientedGraph) -> SimpleGraph:
    """Simple graph joining u,w when some directed path of length <= 2 links them.

    The edge set is {u,w} such that 1 <= dist(u,w) <= 2 or 1 <= dist(w,u) <= 2,
    with dist measured along arcs.
    """
    out = list(map(_mask, g._out))
    adj = [0] * g.n
    for u, row in enumerate(g._out):
        reach = out[u]
        for x in row:
            reach |= out[x]
        reach &= ~(1 << u)
        adj[u] |= reach
        for w in bits(reach):
            adj[w] |= 1 << u
    return SimpleGraph._from_rows(_rows(adj))


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
    lowest index), taken from a heap of ``degree * n + vertex`` ints, the
    smallest-last worklist of Matula and Beck; the ints sort as the
    (degree, vertex) pairs would.  ``key`` holds each vertex's newest heap
    int, -1 once removed, so a popped int is stale unless it is its
    vertex's key.  The removal sequence reversed is the returned order, and
    the largest live int popped, ``// n``, is the degeneracy.
    Accepts an OrientedGraph or a SimpleGraph.
    """
    n = g.n
    adj = g.neighbour_rows()
    # degrees only fall, so a vertex's newest int is its smallest and pops first
    key = [len(row) * n + u for u, row in enumerate(adj)]
    heap = key.copy()
    heapify(heap)
    removal: list[int] = []
    top = 0
    while heap:
        x = heappop(heap)
        v = x % n
        if key[v] != x:
            continue
        if x > top:
            top = x
        removal.append(v)
        key[v] = -1
        for w in adj[v]:
            k = key[w]
            if k >= 0:
                key[w] = k = k - n
                heappush(heap, k)
    return VertexOrdering(order=tuple(reversed(removal)), degeneracy=top // n if n else 0)


def back_degrees(g, order: Iterable[int]) -> list[int]:
    """Back-degree of each position: neighbours among earlier order positions."""
    seen = [False] * g.n
    adj = g.neighbour_rows()
    out = []
    for v in order:
        out.append(sum(map(seen.__getitem__, adj[v])))
        seen[v] = True
    return out


# -- file formats -----------------------------------------------------------

# checked before allocating: ~100x the largest benchmarked graph; an
# arc-free graph at the cap holds one 8 MB out-row list sharing one empty
# tuple, and its in-rows only once something reads them
_MAX_FILE_VERTICES = 1_000_000


def _read_count(token: str) -> int | Decimal:
    """int(token), or a Decimal when int() refuses it only for its length:
    over 4300 digits, which is far past the cap."""
    try:
        return int(token)
    except ValueError:
        if not token.isdecimal():
            raise
        return Decimal(token)


def _check_file_order(n: int | Decimal) -> int:
    if n > _MAX_FILE_VERTICES:
        raise TooLarge(f"graph file declares {count_text(n)} vertices; the limit is {_MAX_FILE_VERTICES}")
    return int(n)


def parse_edge_list(text: str) -> OrientedGraph:
    """Parse the plain edge-list format: header ``n m`` then m lines ``u v``.

    ``#`` starts a comment anywhere on a line; blank lines are skipped.
    Raises ParseError (with line number) for malformed text, TooLarge for a
    header above a million vertices, and InvariantViolation for loops,
    duplicates, or anti-parallel pairs.
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
            a = int(parts[0]) if header is not None else _read_count(parts[0])
            b = int(parts[1])
        except ValueError:
            raise ParseError(f"expected two integers, got {line!r}", lineno) from None
        if header is None:
            if a < 0 or b < 0:
                raise ParseError("header counts must be non-negative", lineno)
            header = (_check_file_order(a), b)
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


def canonical_json(obj) -> str:
    """The one JSON layout every writer uses: sorted keys, no spaces, so
    equal objects give equal bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def count_text(n: int | Decimal) -> str:
    """``n`` in decimal up to 2^1000, else as 1.23e+456: int-to-str refuses over 4300 digits."""
    return str(n) if abs(n) < 1 << 1000 else f"{Decimal(n):.2e}"


def graph_to_json(g: OrientedGraph) -> str:
    return canonical_json({"n": g.n, "arcs": g.arcs()})


def _long_json_count(text: str) -> Decimal | int:
    """Graph JSON's n if json.loads refused it for its length (over 4300
    digits), else 0."""
    try:
        n = json.loads(text, parse_int=_read_count)["n"]
    except (KeyError, TypeError, ValueError, RecursionError):
        return 0
    return n if isinstance(n, Decimal) else 0


def graph_from_json(text: str) -> OrientedGraph:
    try:
        obj = json.loads(text)
        n = obj["n"]
        arcs = [(u, v) for u, v in obj["arcs"]]
    # RecursionError: json.loads on a document nested past the stack depth
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        if isinstance(exc, ValueError):
            _check_file_order(_long_json_count(text))
        raise ParseError(f"bad graph JSON: {exc}", 1) from None
    # exact ints only: bool is an int subclass, and a float endpoint would truncate
    if type(n) is not int or any(type(x) is not int for arc in arcs for x in arc):
        raise ParseError("bad graph JSON: n and every arc endpoint must be integers", 1)
    _check_file_order(n)
    return OrientedGraph(n, arcs)
