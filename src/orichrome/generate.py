"""Graph generators and exhaustive enumerators.

Everything randomised takes an explicit seed and draws from SplitMix64, so
generation is reproducible across platforms.  The enumerators (orientations,
pair states, tournaments up to isomorphism) guard their combinatorial size
with TooLarge rather than silently grinding.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from typing import Iterator

from .errors import InvariantViolation, TooLarge
from .graphs import OrientedGraph, SimpleGraph, bits
from .rng import SplitMix64, derive_seed

_ORIENTATION_CAP = 20  # 2^20 orientations
_PAIR_STATE_CAP = 5  # 3^C(5,2) oriented graphs
_TOURNAMENT_CAP = 7


def transitive_tournament(n: int) -> OrientedGraph:
    """Tournament with all arcs pointing from lower to higher index."""
    return OrientedGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def directed_cycle(n: int) -> OrientedGraph:
    """Consistently oriented cycle 0 -> 1 -> ... -> n-1 -> 0."""
    if n < 3:
        raise ValueError("directed cycle needs n >= 3")
    return OrientedGraph(n, [(u, (u + 1) % n) for u in range(n)])


def random_tournament(n: int, seed: int = 0) -> OrientedGraph:
    """Uniformly random orientation of the complete graph on n vertices."""
    rng = SplitMix64(derive_seed(seed, 0x7031))
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            arcs.append((u, v) if rng.coin() else (v, u))
    return OrientedGraph(n, arcs)


def random_orientation(g: SimpleGraph, seed: int = 0) -> OrientedGraph:
    """Orient each edge of a simple graph by a fair coin."""
    rng = SplitMix64(derive_seed(seed, 0x7032))
    arcs = []
    for u, v in g.edges():
        arcs.append((u, v) if rng.coin() else (v, u))
    return OrientedGraph(g.n, arcs)


def toroidal_grid_graph(rows: int, cols: int) -> SimpleGraph:
    """The rows x cols grid with wrap-around in both directions (4-regular)."""
    if rows < 3 or cols < 3:
        raise ValueError("toroidal grid needs rows, cols >= 3")
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            edges.append((v, i * cols + (j + 1) % cols))
            edges.append((v, ((i + 1) % rows) * cols + j))
    return SimpleGraph(rows * cols, edges)


def toroidal_grid(rows: int, cols: int, seed: int = 0) -> OrientedGraph:
    """Random orientation of the toroidal grid."""
    return random_orientation(toroidal_grid_graph(rows, cols), seed)


def stacked_triangulation(n: int, seed: int = 0) -> SimpleGraph:
    """Random planar triangulation grown by splitting faces of a triangle.

    Starts from a triangle; each new vertex is dropped into a uniformly random
    triangular face and joined to its three corners.  The result is planar and
    3-degenerate.
    """
    if n < 3:
        raise ValueError("stacked triangulation needs n >= 3")
    rng = SplitMix64(derive_seed(seed, 0x7033))
    edges = [(0, 1), (1, 2), (0, 2)]
    faces = [(0, 1, 2)]
    for v in range(3, n):
        idx = rng.randrange(len(faces))
        a, b, c = faces[idx]
        edges.extend([(a, v), (b, v), (c, v)])
        faces[idx] = (a, b, v)
        faces.append((a, c, v))
        faces.append((b, c, v))
    return SimpleGraph(n, edges)


def planar_sparse_graph(n: int, seed: int = 0) -> SimpleGraph:
    """Random planar 3-degenerate graph.

    Grown like a stacked triangulation, but each new vertex attaches to a
    random non-empty subset of the corners of a random face, so degrees and
    densities vary while planarity and 3-degeneracy are kept by construction.
    """
    if n < 3:
        raise ValueError("planar sparse graph needs n >= 3")
    rng = SplitMix64(derive_seed(seed, 0x7034))
    edges = [(0, 1), (1, 2), (0, 2)]
    faces = [(0, 1, 2)]
    for v in range(3, n):
        idx = rng.randrange(len(faces))
        a, b, c = faces[idx]
        arity = 1 + rng.randrange(3)
        corners = [a, b, c]
        rng.shuffle(corners)
        for u in corners[:arity]:
            edges.append((u, v))
        if arity == 3:
            # v subdivides the face; replace it by the three new ones
            faces[idx] = (a, b, v)
            faces.append((a, c, v))
            faces.append((b, c, v))
        # with arity < 3 the old face stays usable for later insertions
    return SimpleGraph(n, edges)


def random_oriented_graph(n: int, seed: int = 0, density: float = 0.5) -> OrientedGraph:
    """Each unordered pair independently: no arc, or an arc by a fair coin."""
    rng = SplitMix64(derive_seed(seed, 0x7035))
    threshold = int(density * (1 << 53))
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            if (rng.next_u64() >> 11) < threshold:
                arcs.append((u, v) if rng.coin() else (v, u))
    return OrientedGraph(n, arcs)


# -- exhaustive enumeration ---------------------------------------------------


def all_orientations(g: SimpleGraph) -> Iterator[OrientedGraph]:
    """All 2^m orientations of a simple graph; TooLarge when m exceeds the cap."""
    edges = g.edges()
    m = len(edges)
    if m > _ORIENTATION_CAP:
        raise TooLarge(f"{m} edges; orientation enumeration capped at {_ORIENTATION_CAP}")
    for code in range(1 << m):
        arcs = [
            (u, v) if code >> i & 1 else (v, u)
            for i, (u, v) in enumerate(edges)
        ]
        yield OrientedGraph(g.n, arcs)


def all_oriented_graphs(n: int) -> Iterator[OrientedGraph]:
    """All 3^C(n,2) oriented graphs on n labelled vertices."""
    if n > _PAIR_STATE_CAP:
        raise TooLarge(f"pair-state enumeration capped at n = {_PAIR_STATE_CAP}")
    pairs = list(combinations(range(n), 2))
    for states in product((0, 1, 2), repeat=len(pairs)):
        arcs = []
        for state, (u, v) in zip(states, pairs):
            if state == 1:
                arcs.append((u, v))
            elif state == 2:
                arcs.append((v, u))
        yield OrientedGraph(n, arcs)


def _canonical_tournament_key(out: list[int]) -> tuple[int, ...]:
    """Canonical form: lexicographically least out-mask tuple over relabelings.

    Only permutations compatible with the score sequence can matter, so the
    search is restricted to products of permutations within equal-score groups
    after sorting vertices by score.
    """
    n = len(out)
    scores = [row.bit_count() for row in out]
    base = sorted(range(n), key=lambda v: (scores[v], v))
    groups: list[list[int]] = []
    for v in base:
        if groups and scores[groups[-1][0]] == scores[v]:
            groups[-1].append(v)
        else:
            groups.append([v])
    best: tuple[int, ...] | None = None
    for perm_parts in product(*(permutations(grp) for grp in groups)):
        order = [v for part in perm_parts for v in part]
        pos = [0] * n
        for i, v in enumerate(order):
            pos[v] = i
        key = []
        for v in order:
            row = 0
            for w in bits(out[v]):
                row |= 1 << pos[w]
            key.append(row)
        t = tuple(key)
        if best is None or t < best:
            best = t
    if best is None:
        raise InvariantViolation("no relabelling was tried")
    return best


_tournament_cache: dict[int, list[OrientedGraph]] = {}


def all_tournaments(n: int) -> list[OrientedGraph]:
    """All tournaments on n vertices up to isomorphism (n <= 7)."""
    if n > _TOURNAMENT_CAP:
        raise TooLarge(f"tournament enumeration capped at n = {_TOURNAMENT_CAP}")
    if n in _tournament_cache:
        return _tournament_cache[n]
    if n == 0:
        result = [OrientedGraph(0)]
    else:
        smaller = all_tournaments(n - 1)
        seen: dict[tuple[int, ...], list[int]] = {}
        for t in smaller:
            base = [t.out_mask(u) for u in range(n - 1)]
            for pattern in range(1 << (n - 1)):
                out = [
                    (base[u] | (0 if pattern >> u & 1 else 1 << (n - 1)))
                    for u in range(n - 1)
                ]
                out.append(pattern)
                key = _canonical_tournament_key(out)
                if key not in seen:
                    seen[key] = list(key)
        result = [OrientedGraph._from_masks(out) for out in sorted(seen.values())]
    _tournament_cache[n] = result
    return result


def tournament_count(n: int) -> int:
    return len(all_tournaments(n))


# -- dispatcher ----------------------------------------------------------------


def generate(kind: str, seed: int = 0, **params) -> OrientedGraph:
    """Build one oriented graph of the named kind (CLI entry point)."""
    if kind == "complete-tournament":
        return random_tournament(params["n"], seed)
    if kind == "transitive-tournament":
        return transitive_tournament(params["n"])
    if kind == "directed-cycle":
        return directed_cycle(params["n"])
    if kind == "random-orientation-of":
        return random_orientation(params["graph"], seed)
    if kind == "toroidal-grid":
        return toroidal_grid(params["rows"], params["cols"], seed)
    if kind == "stacked-triangulation":
        return random_orientation(stacked_triangulation(params["n"], seed), derive_seed(seed, 1))
    if kind == "planar-sparse":
        return random_orientation(planar_sparse_graph(params["n"], seed), derive_seed(seed, 1))
    if kind == "random-oriented":
        return random_oriented_graph(params["n"], seed, params.get("density", 0.5))
    raise ValueError(f"unknown graph kind {kind!r}")
