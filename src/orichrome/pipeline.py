"""Reduce-discharge-colour pipeline for oriented graphs of bounded genus.

The pipeline peels an input graph down to a structured core (min degree 4,
low-degree vertices shielded by degree-12 neighbours), colours the core into
a class-structured target (reserved pool for a small prefix, one class per
distance-2 colour for the rest), then replays the peeling in reverse,
re-inserting each removed vertex or edge with a fresh fullness query.

Genus is an asserted input, never computed.  A false assertion raises
GenusAssumptionViolated exactly where a degree bound it promises breaks:
the core degree cap in ``discharge_check`` and the stripped back-degree
cap in ``surface_two_dipath``.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations, compress
from types import MappingProxyType

from .bounds import SurfaceParameters, surface_parameters
from .dipath import surface_two_dipath
from .errors import (
    CapacityExceeded,
    ConstraintConflict,
    GenusAssumptionViolated,
    InvariantViolation,
    NotReduced,
)
from .graphs import OrientedGraph, canonical_json, degeneracy_ordering
from .targets import LazyTarget


class _WorkGraph:
    """Mutable oriented graph over a fixed label space: one signed neighbour
    map per vertex, ``nb[v][u]`` = 1 for an arc v -> u and -1 for u -> v,
    and an alive flag per vertex.

    A vertex without arcs never gains one (completions join neighbours of a
    removed vertex), so all such vertices share one immutable empty map.
    A removed vertex keeps its own map: nothing adds to or removes from a
    dead vertex's map, so it holds its arcs at removal until ``add_vertex``.

    The maps are built from the input's out-rows alone, so its in-rows are
    never read: a map lists its out-neighbours, then its in-neighbours, each
    ascending.  No reader depends on that order.  The reducer and the replay
    sort a map before completing or constraining it, ``pop_edge``'s heap
    pushes and ``min`` judge each key on its own, ``remove_vertex`` and
    ``add_vertex`` touch every key once, and ``_embed_pool`` and
    ``_constraints`` walk sorted keys.
    """

    __slots__ = ("nb", "alive")

    @classmethod
    def from_graph(cls, g: OrientedGraph) -> "_WorkGraph":
        wk, empty = cls(), MappingProxyType({})
        out = g._out
        nb = [dict.fromkeys(row, 1) if row else empty for row in out]
        for u, row in enumerate(out):
            for v in row:
                nv = nb[v]
                if nv is empty:
                    nb[v] = {u: -1}
                else:
                    nv[u] = -1
        wk.nb = nb
        wk.alive = [True] * g.n
        return wk

    def add_vertex(self, v: int) -> None:
        """Undo ``remove_vertex(v)``: re-attach v to the neighbours in its own map."""
        nb = self.nb
        for u, sign in nb[v].items():
            nb[u][v] = -sign
        self.alive[v] = True

    def add_arc(self, u: int, v: int) -> None:
        self.nb[u][v] = 1
        self.nb[v][u] = -1

    def remove_pair(self, u: int, v: int) -> None:
        nu = self.nb[u]
        if v not in nu:
            raise InvariantViolation(f"pair ({u},{v}) not present")
        del nu[v]
        del self.nb[v][u]

    def remove_vertex(self, v: int) -> None:
        """Detach v from its neighbours; v's own map stays for ``add_vertex``."""
        if not self.alive[v]:
            raise InvariantViolation(f"vertex {v} not present")
        for u in self.nb[v]:
            del self.nb[u][v]
        self.alive[v] = False


@dataclass(slots=True)
class VertexStep:
    """``vertex`` went away after the ``completion`` arcs made its
    neighbourhood a clique; its arcs stay in the work graph's rows."""

    kind = "remove-vertex"
    vertex: int
    completion: tuple[tuple[int, int], ...]


@dataclass(slots=True)
class EdgeStep:
    """``arc`` joining ``low_vertex`` (degree 4 or 5) to ``other`` (degree < 12) went away."""

    kind = "remove-edge"
    arc: tuple[int, int]
    low_vertex: int
    other: int


@dataclass
class ReductionResult:
    """Relabelled core and steps.

    ``work`` is the final work graph, which replay extends: its alive part is
    the core in input labels, and each peeled vertex's map holds its arcs at
    removal.
    """

    core: OrientedGraph
    core_vertices: tuple[int, ...]
    steps: list[VertexStep | EdgeStep]
    work: _WorkGraph


def reduce_graph(g: OrientedGraph) -> ReductionResult:
    """Peel removable vertices and edges until the structured core remains.

    Degree-<=3 vertices go first (lowest index, neighbourhood completed into
    a clique with new arcs oriented low to high); when none is left, one
    low-degree edge (endpoint of degree 4 or 5 whose other end has degree
    < 12) is removed and vertex peeling restarts.  Each step strictly
    decreases (vertex count, arc count) lexicographically: removing an absent
    vertex or pair raises InvariantViolation.

    Candidates come from two min-heaps of vertex indices, re-checked on pop:
    the vertex heap holds every alive vertex of degree <= 3, the edge heap
    every alive vertex of degree 4 or 5 with a neighbour of degree < 12,
    each vertex at most once.  A step changes degrees and neighbours only at
    the vertices it touches; a touch queues the vertex by its new degree and
    marks it dirty.  An edge pop first lets each alive dirty vertex of
    degree < 12 queue its degree-4 and -5 neighbours, at that moment's
    degrees, so both heaps are complete at every pop and each pick is the
    lowest-index one a scan of the whole graph would make.  A stacked
    triangulation takes no edge step and never pays for that scan.

    When nothing peels, the core is ``g`` itself.
    """
    wk = _WorkGraph.from_graph(g)
    nb, alive = wk.nb, wk.alive
    deg = list(map(len, nb))
    # seeded with the vertices whose degree qualifies; ascending lists are heaps
    vertex_heap = [v for v, d in enumerate(deg) if d <= 3]
    edge_heap = [v for v, d in enumerate(deg) if d in (4, 5)]
    queued = [d in (4, 5) for d in deg]  # membership of the edge heap
    dirty: list[int] = []  # touched since the last edge pop, each vertex once
    is_dirty = bytearray(g.n)  # membership of dirty

    def touch(xs) -> None:
        # a vertex whose degree is not 4 or 5 is pushed when a later touch
        # brings it there, so only current candidates enter the edge heap
        for x in xs:
            d = deg[x] = len(nb[x])
            if d <= 3:
                heappush(vertex_heap, x)
            elif d <= 5 and not queued[x]:
                queued[x] = True
                heappush(edge_heap, x)
            if not is_dirty[x]:
                is_dirty[x] = 1
                dirty.append(x)

    def pop_vertex() -> int | None:
        while vertex_heap:
            v = heappop(vertex_heap)
            if alive[v] and deg[v] <= 3:
                return v
        return None

    def pop_edge() -> tuple[int, int] | None:
        # only an alive neighbour below 12 makes a degree-4 or -5 vertex eligible
        for x in dirty:
            is_dirty[x] = 0
            if alive[x] and deg[x] < 12:
                for u in nb[x]:
                    if deg[u] in (4, 5) and not queued[u]:
                        queued[u] = True
                        heappush(edge_heap, u)
        dirty.clear()
        while edge_heap:
            v = heappop(edge_heap)
            queued[v] = False
            if alive[v] and deg[v] in (4, 5):
                u = min((u for u in nb[v] if deg[u] < 12), default=None)
                if u is not None:
                    return v, u
        return None

    steps: list[VertexStep | EdgeStep] = []
    while True:
        v = pop_vertex()
        if v is not None:
            neighbours = sorted(nb[v])
            completion = []
            for a, b in combinations(neighbours, 2):
                na = nb[a]
                if b not in na:
                    na[b] = 1
                    nb[b][a] = -1
                    completion.append((a, b))
            wk.remove_vertex(v)
            touch(neighbours)
            steps.append(VertexStep(v, tuple(completion)))
        else:
            pair = pop_edge()
            if pair is None:
                break
            low, other = pair
            arc = (low, other) if nb[low][other] == 1 else (other, low)
            wk.remove_pair(low, other)
            touch(pair)
            steps.append(EdgeStep(arc, low, other))

    if not steps:
        return ReductionResult(core=g, core_vertices=tuple(range(g.n)), steps=steps, work=wk)
    # the work graph's maps hold no loop and one sign per pair, and
    # relabelling keeps the order, so sorted rows need no validation
    core_vertices = tuple(compress(range(g.n), alive))
    index = {v: i for i, v in enumerate(core_vertices)}
    rows = [tuple(sorted([index[b] for b, sign in nb[a].items() if sign == 1])) for a in core_vertices]
    core = OrientedGraph._from_rows(rows)
    return ReductionResult(core=core, core_vertices=core_vertices, steps=steps, work=wk)


def _check_reduced(core: OrientedGraph) -> None:
    """Raise NotReduced when a reduction rule still applies to ``core``."""
    degree = core.degrees()
    for v, d in enumerate(degree):
        if d <= 3:
            raise NotReduced(f"vertex {v} of degree {d} is removable")
    for v, d in enumerate(degree):
        if d in (4, 5):
            for u in core.neighbours(v):
                if degree[u] < 12:
                    raise NotReduced(f"edge {(v, u)} at a degree-{d} vertex is removable")


class ChargeLedger:
    """Exact per-vertex charges deg(v)-6 with zero-sum local transfers.

    Charges start as ints; a Fraction enters only with a transfer amount,
    so every sum stays exact.
    """

    def __init__(self, degrees: list[int]):
        self.initial: dict[int, int | Fraction] = {v: d - 6 for v, d in enumerate(degrees)}
        self.final = dict(self.initial)
        self.transfers: list[tuple[int, int, Fraction]] = []

    def transfer(self, giver: int, receiver: int, amount: Fraction) -> None:
        self.final[giver] -= amount
        self.final[receiver] += amount
        self.transfers.append((giver, receiver, amount))

    def conservation_ok(self) -> bool:
        return sum(self.final.values()) == sum(self.initial.values())


def discharge_check(core: OrientedGraph, genus: int) -> ChargeLedger:
    """Run the two transfer rules on a reduced core and check the degree cap.

    Every neighbour of a degree-4 vertex sends it 1/2; of a degree-5 vertex,
    1/5.  On a reduced core no final charge is negative, whatever the genus
    (one that is raises InvariantViolation).  A max degree above 12g-12, a
    false genus assertion, raises GenusAssumptionViolated; else the ledger returns.
    """
    params = surface_parameters(genus)
    _check_reduced(core)
    degree = core.degrees()  # one list for the ledger, the transfers and the cap
    ledger = ChargeLedger(degree)
    half = Fraction(1, 2)
    fifth = Fraction(1, 5)
    for v, d in enumerate(degree):
        if d == 4:
            for u in core.neighbours(v):
                ledger.transfer(u, v, half)
        elif d == 5:
            for u in core.neighbours(v):
                ledger.transfer(u, v, fifth)
    if any(c < 0 for c in ledger.final.values()):
        raise InvariantViolation("discharging left a negative charge")
    if not ledger.conservation_ok():
        raise InvariantViolation("discharging changed the total charge")
    top = max(degree, default=0)
    if top > params.core_degree_limit:
        raise GenusAssumptionViolated(f"core max degree {top} exceeds {params.core_degree_limit}")
    return ledger


def _valid(g: OrientedGraph, target, mapping: dict[int, int]) -> bool:
    """Every arc of g lands on a target arc; pool images stay injective."""
    orientation = target.orientation
    for u, row in enumerate(g._out):
        image = mapping[u]
        for v in row:
            if orientation(image, mapping[v]) != 1:
                return False
    # class_of once per distinct image, in first-seen order, and for every
    # one, so that the first image the target lacks still raises
    counts = Counter(mapping.values())
    pool_counts = [count for x, count in counts.items() if target.class_of(x) == 0]
    return all(count == 1 for count in pool_counts)


def _embed_pool(target, wk: _WorkGraph, vertices) -> dict[int, int]:
    """Map ``vertices`` injectively into the reserved pool, then install the
    ``wk`` arcs among them by ascending tail and head."""
    mapping = dict(zip(vertices, target.reserve_pool(len(vertices))))
    for a in sorted(mapping):
        for b in sorted([b for b, sign in wk.nb[a].items() if sign == 1 and b in mapping]):
            target.install_pool_arc(mapping[a], mapping[b])
    return mapping


def _constraints(mapping: dict[int, int], signs: dict[int, int], neighbours: list[int]) -> dict[int, int]:
    """Image -> sign toward it for every mapped one of ``neighbours``, the
    sorted keys of a vertex's signed neighbour map ``signs``.

    Two neighbours sharing an image with opposite signs raise
    ConstraintConflict (impossible when the mapped part is valid, since the
    target never holds both directions of a pair).
    """
    constraints: dict[int, int] = {}
    for u in neighbours:
        image = mapping.get(u)
        if image is None:
            continue
        sign = signs[u]
        if constraints.setdefault(image, sign) != sign:
            raise ConstraintConflict(f"image {image} required with both orientations")
    return constraints


@dataclass
class PipelineResult:
    """Full record of one pipeline run; to_json carries the public summary."""

    valid: bool
    colours_used: int
    reduction_steps: int
    core_size: int
    psi_palette: int
    genus: int
    mapping: dict[int, int]
    target: object
    core: OrientedGraph
    core_vertices: tuple[int, ...]
    core_ordering: tuple[int, ...]
    pool_vertices: tuple[int, ...]
    core_images: dict[int, int]  # the core stage's mapping, before the replay re-maps any of it
    psi_colours: dict[int, int] | None
    ledger: ChargeLedger
    debug_checks: int

    def to_json(self) -> str:
        return canonical_json(
            {
                "valid": self.valid,
                "colours_used": self.colours_used,
                "reduction_steps": self.reduction_steps,
                "core_size": self.core_size,
                "psi_palette": self.psi_palette,
            }
        )


def _map_core(target, reduction: ReductionResult, params: SurfaceParameters):
    """Map the core, held by the work graph in input labels: the first 6g
    degeneracy-order vertices injectively into the reserved pool, each later
    one into the class of its distance-2 colour.  Returns the mapping, the
    ordering, the pool vertices, psi's palette size and colours (0 and None
    when the core fits the pool)."""
    core, orig, wk, nb = reduction.core, reduction.core_vertices, reduction.work, reduction.work.nb
    if not core.n:
        return {}, (), (), 0, None
    ordering = degeneracy_ordering(core)
    core_ordering = tuple(orig[c] for c in ordering.order)
    pool_vertices = core_ordering[: params.reserved_capacity]
    mapping = _embed_pool(target, wk, pool_vertices)
    if core.n == len(pool_vertices):
        return mapping, core_ordering, pool_vertices, 0, None
    psi = surface_two_dipath(core, params.genus, ordering)
    psi_colours = {orig[c]: col for c, col in psi.colours.items()}
    queried = core_ordering[len(pool_vertices):]
    # the strip's colours sit on pool vertices, which are never queried
    top = max(psi_colours[v] for v in queried)
    if top > target.free_classes:
        raise CapacityExceeded(f"core needs class {top}, the target has {target.free_classes} free classes")
    for v in queried:
        mapping[v] = target.query(psi_colours[v], _constraints(mapping, nb[v], sorted(nb[v])))
    return mapping, core_ordering, pool_vertices, psi.palette_size, psi_colours


def _replay(target, reduction: ReductionResult, mapping: dict[int, int]) -> int:
    """Replay the peeling in reverse on the final work graph, extending
    ``mapping``: a vertex step against <= 3 constraints, an edge step's weak
    endpoint against <= 10 and then its low one against <= 5, each into a
    class disjoint from its constraint images.  Every arc a step touches is
    re-checked against the target's realized orientations; returns the count."""
    wk, nb = reduction.work, reduction.work.nb
    # the class of every image placed so far, kept beside the mapping
    classes = {x: target.class_of(x) for x in dict.fromkeys(mapping.values())}
    query, orientation = target.query, target.orientation
    free = range(1, target.free_classes + 1)

    def place(v: int, nv: list[int], avoid: set[int]) -> None:
        """Map v into the first free class outside ``avoid``, which gains the
        classes of v's constraint images; ``nv`` is v's sorted neighbours."""
        constraints = _constraints(mapping, nb[v], nv)
        for x in constraints:
            avoid.add(classes[x])
        for c in free:
            if c not in avoid:
                break
        else:
            raise CapacityExceeded(f"all {target.free_classes} free classes collide with constraint images")
        mapping[v] = x = query(c, constraints)
        classes[x] = c

    def check(v: int, nv: list[int]) -> int:
        """Check each arc between v and its sorted neighbours ``nv``, reported as (tail, head)."""
        signs, x = nb[v], mapping[v]
        for u in nv:
            if signs[u] == 1:
                if orientation(x, mapping[u]) != 1:
                    raise InvariantViolation(f"replay produced an unrealized arc ({v},{u})")
            elif orientation(mapping[u], x) != 1:
                raise InvariantViolation(f"replay produced an unrealized arc ({u},{v})")
        return len(nv)

    debug_checks = 0
    for step in reversed(reduction.steps):
        if step.kind == "remove-vertex":
            for a, b in step.completion:
                wk.remove_pair(a, b)
            v = step.vertex
            wk.add_vertex(v)
            nv = sorted(nb[v])
            place(v, nv, set())
            debug_checks += check(v, nv)
        else:
            v, w = step.low_vertex, step.other
            nv, nw = sorted(nb[v]), sorted(nb[w])
            # v and w are not adjacent here, so re-mapping w leaves v's constraints
            # as they are; w's class avoids their classes, so its image is none of them
            place(w, nw, {classes[x] for x in _constraints(mapping, nb[v], nv)})
            wk.add_arc(*step.arc)
            # both lists gain the arc at its sorted place, so w's check covers it
            insort(nv, w)
            insort(nw, v)
            place(v, nv, set())
            debug_checks += check(w, nw)
            debug_checks += check(v, nv)

    return debug_checks


def colour_surface_graph(g: OrientedGraph, genus: int, target=None) -> PipelineResult:
    """Colour a genus-<=genus oriented graph into a class-structured target in
    stages: ``reduce_graph``, ``discharge_check``, ``_map_core``, ``_replay``, ``_valid``.
    Each vertex is mapped against its mapped neighbours on the reducer's work graph."""
    params = surface_parameters(genus)
    if target is None:
        target = LazyTarget(params.free_classes, params.reserved_capacity)
    reduction = reduce_graph(g)
    ledger = discharge_check(reduction.core, genus)
    core_images, core_ordering, pool_vertices, psi_palette, psi_colours = _map_core(target, reduction, params)
    mapping = dict(core_images)
    debug_checks = _replay(target, reduction, mapping)
    return PipelineResult(
        valid=_valid(g, target, mapping),
        colours_used=len(set(mapping.values())),
        reduction_steps=len(reduction.steps),
        core_size=reduction.core.n,
        psi_palette=psi_palette,
        genus=genus,
        mapping=mapping,
        target=target,
        core=reduction.core,
        core_vertices=reduction.core_vertices,
        core_ordering=core_ordering,
        pool_vertices=pool_vertices,
        core_images=core_images,
        psi_colours=psi_colours,
        ledger=ledger,
        debug_checks=debug_checks,
    )
