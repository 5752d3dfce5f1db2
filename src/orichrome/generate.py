"""Graph generators and exhaustive enumerators.

Everything randomised takes an explicit seed and draws from SplitMix64, so
generation is reproducible across platforms.  The enumerators (pair states,
tournaments up to isomorphism) guard their combinatorial size
with TooLarge rather than silently grinding.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations, permutations, product
from typing import Iterator

from .errors import DomainError, InvariantViolation, TooLarge
from .graphs import _MAX_FILE_VERTICES, OrientedGraph, SimpleGraph, bits, count_text
from .rng import SplitMix64, derive_seed

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
    if n < 0:
        raise InvariantViolation("vertex count must be non-negative")
    rows = [[*range(u), *range(u + 1, n)] for u in range(n)]
    return _orient(rows, SplitMix64(derive_seed(seed, 0x7031)))


def random_orientation(g: SimpleGraph, seed: int = 0) -> OrientedGraph:
    """Orient each edge of a simple graph by a fair coin, in ``g.edges()`` order."""
    return _orient(g._adj, SplitMix64(derive_seed(seed, 0x7032)))


def _orient(rows: list, rng: SplitMix64) -> OrientedGraph:
    """Orient each edge of the sorted neighbour rows by one coin from ``rng``,
    u's higher neighbours for each u in turn.

    A tail's out-row gets its lower heads while they are walked and its
    higher ones on its own turn, so every out-row comes out sorted.  Only
    the out-rows are built; the graph builds its in-rows on first read.
    """
    # one batch of the coins coin() would draw edge by edge; coin i is bit i,
    # so the binary digits are read from the right
    m = sum(map(len, rows)) // 2
    coins = format(rng.coin_bits(m), "b").zfill(m)[::-1]
    out: list = [[] for _ in rows]
    i = 0
    for u, row in enumerate(rows):
        higher = row[bisect_right(row, u) :]
        j = i + len(higher)
        out_u = out[u]
        for v, c in zip(higher, coins[i:j]):
            if c == "1":
                out_u.append(v)
            else:
                out[v].append(u)
        i = j
    return OrientedGraph._from_rows(list(map(tuple, out)))


def toroidal_grid_graph(rows: int, cols: int) -> SimpleGraph:
    """The rows x cols grid with wrap-around in both directions (4-regular).

    With rows, cols >= 3 a cell's four neighbours are distinct and differ
    from it, so the rows are built directly.
    """
    if rows < 3 or cols < 3:
        raise ValueError("toroidal grid needs rows, cols >= 3")
    adj = []
    for i in range(rows):
        up, here, down = (i - 1) % rows * cols, i * cols, (i + 1) % rows * cols
        for j in range(cols):
            adj.append(tuple(sorted((up + j, here + (j - 1) % cols, here + (j + 1) % cols, down + j))))
    return SimpleGraph._from_rows(adj)


def toroidal_grid(rows: int, cols: int, seed: int = 0) -> OrientedGraph:
    """Random orientation of the toroidal grid."""
    return random_orientation(toroidal_grid_graph(rows, cols), seed)


def _grow_faces(n: int, rng: SplitMix64, corners) -> SimpleGraph:
    """Grow a triangle to n vertices, dropping each new vertex v into a
    uniformly random face and joining it to ``corners(face)``, a sorted list
    of that face's corners.  Joined to all three, v splits the face; joined
    to fewer, it leaves the face usable for later insertions.

    Each new vertex v is the largest label so far, so appending v keeps the
    corners' rows sorted, and a face (a, b, c) with a < b < c splits into
    (a, b, v), (a, c, v) and (b, c, v), which keeps every face sorted too.
    """
    adj = [[1, 2], [0, 2], [0, 1]]
    faces = [(0, 1, 2)]
    for v in range(3, n):
        idx = rng.randrange(len(faces))
        a, b, c = face = faces[idx]
        chosen = corners(face)
        for u in chosen:
            adj[u].append(v)
        adj.append(chosen)
        if len(chosen) == 3:
            faces[idx] = (a, b, v)
            faces.append((a, c, v))
            faces.append((b, c, v))
    return SimpleGraph._from_rows(list(map(tuple, adj)))


def stacked_triangulation(n: int, seed: int = 0) -> SimpleGraph:
    """Random planar triangulation grown by splitting faces of a triangle.

    Starts from a triangle; each new vertex is dropped into a uniformly random
    triangular face and joined to its three corners.  The result is planar and
    3-degenerate.
    """
    if n < 3:
        raise ValueError("stacked triangulation needs n >= 3")
    return _grow_faces(n, SplitMix64(derive_seed(seed, 0x7033)), list)


def planar_sparse_graph(n: int, seed: int = 0) -> SimpleGraph:
    """Random planar 3-degenerate graph.

    Grown like a stacked triangulation, but each new vertex attaches to a
    random non-empty subset of the corners of a random face, so degrees and
    densities vary while planarity and 3-degeneracy are kept by construction.
    """
    if n < 3:
        raise ValueError("planar sparse graph needs n >= 3")
    rng = SplitMix64(derive_seed(seed, 0x7034))

    def corners(face):
        arity = 1 + rng.randrange(3)
        shuffled = list(face)
        rng.shuffle(shuffled)
        return sorted(shuffled[:arity])

    return _grow_faces(n, rng, corners)


def random_oriented_graph(n: int, seed: int = 0, density: float = 0.5) -> OrientedGraph:
    """Each unordered pair independently: no arc, or an arc by a fair coin.

    ``density`` is the probability of an arc; a value outside [0, 1], NaN
    included, raises DomainError.
    """
    if not 0 <= density <= 1:
        raise DomainError(f"density must lie in [0, 1], got {density}")
    rng = SplitMix64(derive_seed(seed, 0x7035))
    threshold = int(density * (1 << 53))
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            if (rng.next_u64() >> 11) < threshold:
                arcs.append((u, v) if rng.coin() else (v, u))
    return OrientedGraph(n, arcs)


# -- exhaustive enumeration ---------------------------------------------------


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


# -- dispatcher ----------------------------------------------------------------


# kind -> builder from (need, seed, params); the order is the CLI's choice list
_GENERATORS = {
    "complete-tournament": lambda need, seed, params: random_tournament(need("n"), seed),
    "transitive-tournament": lambda need, seed, params: transitive_tournament(need("n")),
    "directed-cycle": lambda need, seed, params: directed_cycle(need("n")),
    "toroidal-grid": lambda need, seed, params: toroidal_grid(need("rows"), need("cols"), seed),
    "stacked-triangulation": lambda need, seed, params: random_orientation(
        stacked_triangulation(need("n"), seed), derive_seed(seed, 1)
    ),
    "planar-sparse": lambda need, seed, params: random_orientation(
        planar_sparse_graph(need("n"), seed), derive_seed(seed, 1)
    ),
    "random-oriented": lambda need, seed, params: random_oriented_graph(
        need("n"), seed, params.get("density", 0.5)
    ),
}
GEN_KINDS = tuple(_GENERATORS)


def generate(kind: str, seed: int = 0, **params) -> OrientedGraph:
    """Build one oriented graph of the named kind (CLI entry point).

    A size parameter the kind needs but ``params`` lacks raises DomainError.
    A vertex count (``rows * cols`` for the grid) above the graph-file cap
    raises TooLarge before anything is built, so ``gen`` never writes a
    graph that the file reader refuses.
    """

    def need(name: str):
        if params.get(name) is None:
            raise DomainError(f"graph kind {kind!r} needs the parameter {name!r}")
        return params[name]

    if kind not in _GENERATORS:
        raise ValueError(f"unknown graph kind {kind!r}")
    if kind == "toroidal-grid":
        # two negative sides are the grid's own ValueError, not a large grid
        order = max(need("rows"), 0) * max(need("cols"), 0)
    else:
        order = need("n")
    if order > _MAX_FILE_VERTICES:
        raise TooLarge(f"{kind} with {count_text(order)} vertices; the limit is {_MAX_FILE_VERTICES}")
    return _GENERATORS[kind](need, seed, params)
