"""2-dipath colourings: greedy and the bounded-genus variant.

A 2-dipath colouring is a proper colouring of the directed square, i.e. any
two vertices linked by a directed path of length one or two get different
colours.  Colours are positive integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .bounds import surface_parameters
from .errors import DegeneracyViolation, InvalidInner, InvariantViolation, PreconditionViolated
from .graphs import OrientedGraph, VertexOrdering, back_degrees, degeneracy_ordering


@dataclass
class DipathColouring:
    """Colour assignment (vertex -> positive int) plus its palette size.

    ``palette_size`` bounds the colour values used; the surface construction
    may leave some values in 1..palette_size unused.
    """

    colours: dict[int, int]
    palette_size: int


def is_valid_two_dipath(g: OrientedGraph, colours: dict[int, int]) -> bool:
    """Independent checker: walks every directed path of length one and two.

    Deliberately avoids directed_square so greedy output and square
    construction are verified against each other.  In an oriented graph a
    path of length two never returns to its start, so each path's end must
    differ in colour from its start.
    """
    if set(colours) != set(range(g.n)):
        return False
    if any(c < 1 for c in colours.values()):
        return False
    out = g._out
    for u, row in enumerate(out):
        c = colours[u]
        for x in row:
            if colours[x] == c:
                return False
            for y in out[x]:
                if colours[y] == c:
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
    the ordering and delta the maximum degree.  Colours live in a list by
    vertex, 0 meaning uncoloured, over unsorted out-plus-in rows; the
    returned dict lists the vertices in ordering order.
    """
    if sorted(ordering.order) != list(range(g.n)):
        raise ValueError("ordering is not a permutation of the vertices")
    adj = g.neighbour_rows()
    colour = [0] * g.n
    get = colour.__getitem__
    d_eff = 0
    for v in ordering.order:
        row = adj[v]
        near = list(map(get, row))
        d_eff = max(d_eff, len(near) - near.count(0))
        # v itself is not coloured yet, and c starts above the 0 of the
        # uncoloured, so neither matters in used
        used = set(near)
        used.update(map(get, chain.from_iterable(map(adj.__getitem__, row))))
        c = 1
        while c in used:
            c += 1
        colour[v] = c
    palette = max(colour, default=0)
    bound = two_dipath_palette_bound(d_eff, g.max_degree())
    if g.n and palette > bound:
        raise InvariantViolation(f"palette {palette} exceeded bound {bound}")
    colours = {v: colour[v] for v in ordering.order}
    return DipathColouring(colours=colours, palette_size=palette)


def _strip_arcs(g: OrientedGraph, strip) -> OrientedGraph:
    """g without the arcs whose ends both lie in ``strip``; rows outside it are shared."""
    in_strip = set(strip)

    def strip_rows(rows):
        return [
            tuple(x for x in row if x not in in_strip) if u in in_strip else row
            for u, row in enumerate(rows)
        ]

    return OrientedGraph._from_rows(strip_rows(g._out), strip_rows(g._in))


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
    params = surface_parameters(genus)
    max_degree = g.max_degree()
    if max_degree > params.core_degree_limit:
        raise PreconditionViolated(
            f"max degree {max_degree} exceeds 12*genus-12 = {params.core_degree_limit}"
        )
    if ordering is None:
        ordering = degeneracy_ordering(g)
    strip = list(ordering.order[: params.strip_size])
    if len(strip) == g.n:
        colours = {v: i + 1 for i, v in enumerate(sorted(strip))}
        return DipathColouring(colours=colours, palette_size=g.n)

    stripped = _strip_arcs(g, strip)
    backs = back_degrees(stripped, ordering.order)
    for v, back in zip(ordering.order, backs):
        if back > params.back_degree_limit:
            raise DegeneracyViolation(
                f"stripped graph has back-degree {back} at vertex {v}; "
                f"inconsistent with Euler genus <= {genus}"
            )
    inner = greedy_two_dipath(stripped, ordering)
    if not is_valid_two_dipath(stripped, inner.colours):
        raise InvalidInner("inner colouring is not a valid 2-dipath colouring of the stripped graph")
    # each strip vertex gets a fresh colour above greedy's palette, its
    # maximum colour, in sorted vertex order; the dict keeps greedy's order
    for c, v in enumerate(sorted(strip), inner.palette_size + 1):
        inner.colours[v] = c
    inner.palette_size += len(strip)
    if inner.palette_size > params.free_classes:
        raise InvariantViolation(f"surface palette {inner.palette_size} exceeds 138g-162")
    return inner
