"""2-dipath colourings: greedy, stratified, and the bounded-genus variant.

A 2-dipath colouring is a proper colouring of the directed square, i.e. any
two vertices linked by a directed path of length one or two get different
colours.  Colours are positive integers.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

from .errors import DegeneracyViolation, InvalidInner, InvariantViolation, PreconditionViolated
from .graphs import OrientedGraph, VertexOrdering, bits

_STRIPPED_BACK_DEGREE = 6


@dataclass
class DipathColouring:
    """Colour assignment (vertex -> positive int) plus its palette size.

    ``palette_size`` bounds the colour values used; stratified construction
    may leave some values in 1..palette_size unused.
    """

    colours: dict[int, int]
    palette_size: int

    def to_json(self) -> str:
        return json.dumps(
            {"palette": self.palette_size, "colours": {str(v): c for v, c in sorted(self.colours.items())}},
            sort_keys=True,
            separators=(",", ":"),
        )


def is_valid_two_dipath(g: OrientedGraph, colours: dict[int, int]) -> bool:
    """Independent checker: BFS out to depth two from every vertex.

    Deliberately avoids directed_square so greedy output and square
    construction are verified against each other.
    """
    if set(colours) != set(range(g.n)):
        return False
    if any(c < 1 for c in colours.values()):
        return False
    for u in range(g.n):
        dist = {u: 0}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            if dist[x] == 2:
                continue
            for y in g.out_neighbours(x):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        for w, d in dist.items():
            if 1 <= d <= 2 and colours[w] == colours[u]:
                return False
    return True


def two_dipath_palette_bound(d: int, delta: int) -> int:
    """Palette guaranteed for greedy colouring: 2*d*delta - delta - d*d + d + 1."""
    return 2 * d * delta - delta - d * d + d + 1


def greedy_two_dipath(g: OrientedGraph, ordering: VertexOrdering) -> DipathColouring:
    """Colour along the ordering, avoiding everything at underlying distance <= 2.

    Avoiding already-coloured vertices at *undirected* distance up to two is
    stronger than 2-dipath properness and is what makes the palette bound
    2*d*delta - delta - d^2 + d + 1 hold, with d the maximum back-degree of
    the ordering and delta the maximum degree.
    """
    if sorted(ordering.order) != list(range(g.n)):
        raise ValueError("ordering is not a permutation of the vertices")
    adj = [g.adj_mask(u) for u in range(g.n)]
    colours: dict[int, int] = {}
    coloured_mask = 0
    d_eff = 0
    for v in ordering.order:
        d_eff = max(d_eff, (adj[v] & coloured_mask).bit_count())
        near = adj[v]
        for x in bits(adj[v]):
            near |= adj[x]
        near &= coloured_mask & ~(1 << v)
        used = {colours[w] for w in bits(near)}
        c = 1
        while c in used:
            c += 1
        colours[v] = c
        coloured_mask |= 1 << v
    palette = max(colours.values(), default=0)
    bound = two_dipath_palette_bound(d_eff, g.max_degree())
    if g.n and palette > bound:
        raise InvariantViolation(f"palette {palette} exceeded bound {bound}")
    return DipathColouring(colours=colours, palette_size=palette)


def stratified_two_dipath(g: OrientedGraph, strip_set: list[int], inner: DipathColouring) -> DipathColouring:
    """Combine a colouring of g minus the strip set's internal arcs.

    ``inner`` must be a valid 2-dipath colouring of g with every arc between
    two strip-set vertices removed.  Strip-set vertices are then re-coloured
    with fresh singleton colours above the inner palette (in sorted vertex
    order), which restores validity on the full graph.
    """
    strip = sorted(set(strip_set))
    if any(not 0 <= v < g.n for v in strip):
        raise ValueError("strip set outside vertex range")
    in_strip = 0
    for v in strip:
        in_strip |= 1 << v
    stripped = OrientedGraph._from_masks(
        [g.out_mask(u) & ~in_strip if in_strip >> u & 1 else g.out_mask(u) for u in range(g.n)]
    )
    if not is_valid_two_dipath(stripped, inner.colours):
        raise InvalidInner("inner colouring is not a valid 2-dipath colouring of the stripped graph")
    if inner.colours and max(inner.colours.values()) > inner.palette_size:
        raise InvalidInner("inner colouring uses colours above its own palette")
    colours = dict(inner.colours)
    for i, v in enumerate(strip):
        colours[v] = inner.palette_size + 1 + i
    return DipathColouring(colours=colours, palette_size=inner.palette_size + len(strip))


def surface_two_dipath(
    g: OrientedGraph, genus: int, ordering: VertexOrdering | None = None
) -> DipathColouring:
    """2-dipath colouring with at most 138*genus - 162 colours.

    Requires genus >= 2 and max degree <= 12*genus - 12.  Strips the arcs
    among the first 6*genus - 1 vertices of the degeneracy ordering; the rest
    of the ordering must have back-degree <= 6 in the stripped graph (true
    whenever the graph really has Euler genus <= genus), else
    DegeneracyViolation is raised.
    """
    if genus < 2:
        raise PreconditionViolated("surface colouring needs genus >= 2")
    delta_cap = 12 * genus - 12
    if g.max_degree() > delta_cap:
        raise PreconditionViolated(
            f"max degree {g.max_degree()} exceeds 12*genus-12 = {delta_cap}"
        )
    if ordering is None:
        from .graphs import degeneracy_ordering

        ordering = degeneracy_ordering(g)
    strip = list(ordering.order[: min(6 * genus - 1, g.n)])
    if len(strip) == g.n:
        colours = {v: i + 1 for i, v in enumerate(sorted(strip))}
        return DipathColouring(colours=colours, palette_size=g.n)

    in_strip = 0
    for v in strip:
        in_strip |= 1 << v
    stripped = OrientedGraph._from_masks(
        [g.out_mask(u) & ~in_strip if in_strip >> u & 1 else g.out_mask(u) for u in range(g.n)]
    )
    seen = 0
    max_back = 0
    for v in ordering.order:
        back = (stripped.adj_mask(v) & seen).bit_count()
        if back > _STRIPPED_BACK_DEGREE:
            raise DegeneracyViolation(
                f"stripped graph has back-degree {back} at vertex {v}; "
                f"inconsistent with Euler genus <= {genus}"
            )
        max_back = max(max_back, back)
        seen |= 1 << v
    inner = greedy_two_dipath(stripped, VertexOrdering(ordering.order, max_back))
    result = stratified_two_dipath(g, strip, inner)
    if result.palette_size > 138 * genus - 162:
        raise InvariantViolation(f"surface palette {result.palette_size} exceeds 138g-162")
    return result
