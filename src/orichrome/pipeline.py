"""Reduce-discharge-colour pipeline for oriented graphs of bounded genus.

The pipeline peels an input graph down to a structured core (min degree 4,
low-degree vertices shielded by degree-12 neighbours), colours the core into
a class-structured target (reserved pool for a small prefix, one class per
distance-2 colour for the rest), then replays the peeling in reverse,
re-inserting each removed vertex or edge with a fresh fullness query.

Genus is an asserted input, never computed.  A false assertion surfaces
exactly where the degree bounds it promises are violated: the core max
degree check and the stripped back-degree check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .dipath import DipathColouring, surface_two_dipath
from .errors import (
    CapacityExceeded,
    ConstraintConflict,
    DegeneracyViolation,
    DomainError,
    GenusAssumptionViolated,
    InvariantViolation,
    NotReduced,
)
from .graphs import OrientedGraph, bits, degeneracy_ordering
from .rng import derive_seed
from .targets import LazyTarget


@dataclass(frozen=True)
class SurfaceParameters:
    """Every degree threshold the genus-g machinery uses, in one place."""

    genus: int
    free_classes: int
    reserved_capacity: int
    total_classes: int
    core_degree_limit: int
    back_degree_limit: int
    removable_degree: int
    low_edge_degrees: tuple[int, int]
    sturdy_degree: int
    fullness_arity: int


def surface_parameters(genus: int) -> SurfaceParameters:
    if genus < 2:
        raise DomainError("surface machinery needs genus >= 2")
    return SurfaceParameters(
        genus=genus,
        free_classes=138 * genus - 162,
        reserved_capacity=6 * genus,
        total_classes=144 * genus - 162,
        core_degree_limit=12 * genus - 12,
        back_degree_limit=6,
        removable_degree=3,
        low_edge_degrees=(4, 5),
        sturdy_degree=12,
        fullness_arity=10,
    )


class _WorkGraph:
    """Mutable oriented graph over a fixed label space, bitmask-backed."""

    __slots__ = ("n", "out", "inn", "alive")

    def __init__(self, n: int):
        self.n = n
        self.out = [0] * n
        self.inn = [0] * n
        self.alive = 0

    @classmethod
    def from_graph(cls, g: OrientedGraph) -> "_WorkGraph":
        wk = cls(g.n)
        wk.alive = (1 << g.n) - 1 if g.n else 0
        for v in range(g.n):
            wk.out[v] = g.out_mask(v)
            wk.inn[v] = g.in_mask(v)
        return wk

    def adj(self, v: int) -> int:
        return self.out[v] | self.inn[v]

    def degree(self, v: int) -> int:
        return self.adj(v).bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj(u) >> v & 1)

    def add_vertex(self, v: int) -> None:
        self.alive |= 1 << v

    def add_arc(self, u: int, v: int) -> None:
        self.out[u] |= 1 << v
        self.inn[v] |= 1 << u

    def remove_pair(self, u: int, v: int) -> None:
        if not self.has_edge(u, v):
            raise InvariantViolation(f"pair ({u},{v}) not present")
        self.out[u] &= ~(1 << v)
        self.inn[u] &= ~(1 << v)
        self.out[v] &= ~(1 << u)
        self.inn[v] &= ~(1 << u)

    def remove_vertex(self, v: int) -> None:
        for u in bits(self.adj(v)):
            self.out[u] &= ~(1 << v)
            self.inn[u] &= ~(1 << v)
        self.out[v] = 0
        self.inn[v] = 0
        self.alive &= ~(1 << v)

    def vertex_count(self) -> int:
        return self.alive.bit_count()

    def arc_count(self) -> int:
        return sum(self.out[v].bit_count() for v in bits(self.alive))

    def arc_list(self) -> list[tuple[int, int]]:
        return [(u, v) for u in bits(self.alive) for v in bits(self.out[u])]

    def incident(self, v: int) -> tuple[tuple[int, int], ...]:
        """Arcs at v as (tail, head), by ascending neighbour."""
        return tuple((v, u) if self.out[v] >> u & 1 else (u, v) for u in bits(self.adj(v)))


@dataclass
class ReductionStep:
    """One reversible peeling move, recorded for replay.

    remove-vertex: ``vertex`` with its ``incident`` arcs went away after the
    ``completion`` arcs made its neighbourhood a clique.
    remove-edge: ``arc`` joining ``low_vertex`` (degree 4 or 5) to ``other``
    (degree < 12) went away; ``degrees`` snapshots both before removal.
    """

    kind: str
    vertex: int | None = None
    incident: tuple[tuple[int, int], ...] = ()
    completion: tuple[tuple[int, int], ...] = ()
    arc: tuple[int, int] | None = None
    low_vertex: int | None = None
    other: int | None = None
    degrees: tuple[int, int] | None = None


@dataclass
class ReductionResult:
    core: OrientedGraph
    core_vertices: tuple[int, ...]
    steps: list[ReductionStep]


def _find_removable_vertex(wk: _WorkGraph) -> int | None:
    for v in bits(wk.alive):
        if wk.degree(v) <= 3:
            return v
    return None


def _find_removable_edge(wk: _WorkGraph) -> tuple[int, int] | None:
    for v in bits(wk.alive):
        if wk.degree(v) in (4, 5):
            for u in bits(wk.adj(v)):
                if wk.degree(u) < 12:
                    return v, u
    return None


def reduce_graph(g: OrientedGraph) -> ReductionResult:
    """Peel removable vertices and edges until the structured core remains.

    Degree-<=3 vertices go first (lowest index, neighbourhood completed into
    a clique with new arcs oriented low to high); when none is left, one
    low-degree edge (endpoint of degree 4 or 5 whose other end has degree
    < 12) is removed and vertex peeling restarts.  Each step strictly
    decreases (vertex count, arc count) lexicographically.
    """
    wk = _WorkGraph.from_graph(g)
    steps: list[ReductionStep] = []
    metric = (wk.vertex_count(), wk.arc_count())
    while True:
        v = _find_removable_vertex(wk)
        if v is not None:
            incident = wk.incident(v)
            completion = []
            for a, b in combinations(bits(wk.adj(v)), 2):
                if not wk.has_edge(a, b):
                    wk.add_arc(a, b)
                    completion.append((a, b))
            wk.remove_vertex(v)
            steps.append(
                ReductionStep(
                    kind="remove-vertex",
                    vertex=v,
                    incident=incident,
                    completion=tuple(completion),
                )
            )
        else:
            pair = _find_removable_edge(wk)
            if pair is None:
                break
            low, other = pair
            arc = (low, other) if wk.out[low] >> other & 1 else (other, low)
            degrees = (wk.degree(low), wk.degree(other))
            wk.remove_pair(low, other)
            steps.append(
                ReductionStep(
                    kind="remove-edge",
                    arc=arc,
                    low_vertex=low,
                    other=other,
                    degrees=degrees,
                )
            )
        new_metric = (wk.vertex_count(), wk.arc_count())
        if new_metric >= metric:
            raise InvariantViolation(f"reduction step left (vertices, arcs) at {new_metric}")
        metric = new_metric

    core_vertices = tuple(bits(wk.alive))
    index = {v: i for i, v in enumerate(core_vertices)}
    arcs = [(index[a], index[b]) for a, b in wk.arc_list()]
    core = OrientedGraph(len(core_vertices), arcs)
    return ReductionResult(core=core, core_vertices=core_vertices, steps=steps)


def _check_reduced(core: OrientedGraph) -> None:
    for v in range(core.n):
        d = core.degree(v)
        if d <= 3:
            raise NotReduced(f"vertex {v} has degree {d} <= 3")
        if d in (4, 5):
            for u in core.neighbours(v):
                if core.degree(u) < 12:
                    raise NotReduced(
                        f"degree-{d} vertex {v} has a degree-{core.degree(u)} neighbour {u}"
                    )


class ChargeLedger:
    """Exact per-vertex charges deg(v)-6 with zero-sum local transfers."""

    def __init__(self, core: OrientedGraph):
        self.initial = {v: Fraction(core.degree(v) - 6) for v in range(core.n)}
        self.final = dict(self.initial)
        self.transfers: list[tuple[int, int, Fraction]] = []

    def transfer(self, giver: int, receiver: int, amount: Fraction) -> None:
        self.final[giver] -= amount
        self.final[receiver] += amount
        self.transfers.append((giver, receiver, amount))

    def conservation_ok(self) -> bool:
        return sum(self.final.values()) == sum(self.initial.values())


def discharge_check(core: OrientedGraph, genus: int) -> tuple[ChargeLedger, bool]:
    """Run the two transfer rules on a reduced core and check the degree cap.

    Every neighbour of a degree-4 vertex sends it 1/2; of a degree-5 vertex,
    1/5.  On a reduced core all final charges are nonnegative regardless of
    genus (asserted); the returned flag reports max degree <= 12g-12, and a
    False flag means the caller's genus assertion is wrong.
    """
    params = surface_parameters(genus)
    _check_reduced(core)
    ledger = ChargeLedger(core)
    half = Fraction(1, 2)
    fifth = Fraction(1, 5)
    for v in range(core.n):
        d = core.degree(v)
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
    return ledger, core.max_degree() <= params.core_degree_limit


class Homomorphism:
    """Vertex map from an oriented source into a restricted or lazy target."""

    def __init__(self, source: OrientedGraph, target, mapping=None):
        self.source = source
        self.target = target
        self.mapping: dict[int, int] = dict(mapping or {})

    def validate(self, arcs=None) -> bool:
        """Mapped arcs land on target arcs; pool images stay injective."""
        if arcs is None:
            arcs = self.source.arcs()
        for u, v in arcs:
            a = self.mapping.get(u)
            b = self.mapping.get(v)
            if a is None or b is None:
                continue
            if self.target.orientation(a, b) != 1:
                return False
        pool_images = [
            x for x in self.mapping.values() if self.target.class_of(x) == 0
        ]
        return len(pool_images) == len(set(pool_images))


def _embed_pool(hom: Homomorphism, vertices, arcs) -> None:
    """Map ``vertices`` injectively into the reserved pool, then install ``arcs``."""
    for v, x in zip(vertices, hom.target.reserve_pool(len(vertices))):
        hom.mapping[v] = x
    for a, b in arcs:
        hom.target.install_pool_arc(hom.mapping[a], hom.mapping[b])


def embed_small(g: OrientedGraph, target) -> Homomorphism:
    """Injective map of a whole small graph into the reserved pool.

    Installs one pool arc per source arc, so it needs the pool pristine.
    """
    hom = Homomorphism(g, target)
    _embed_pool(hom, range(g.n), g.arcs())
    return hom


def _merge_constraint(constraints: dict[int, int], image: int, sign: int) -> None:
    known = constraints.get(image)
    if known is None:
        constraints[image] = sign
    elif known != sign:
        raise ConstraintConflict(
            f"image {image} required with both orientations"
        )


def extend_vertex(partial: Homomorphism, v: int, class_index: int) -> Homomorphism:
    """Map one more source vertex into the given class of the target.

    Constraints are the orientations between v and its already-mapped
    neighbours' images; conflicting requirements on a shared image raise
    ConstraintConflict (impossible when the mapped part is valid, since the
    target never holds both directions of a pair).
    """
    src = partial.source
    constraints: dict[int, int] = {}
    for u in src.neighbours(v):
        img = partial.mapping.get(u)
        if img is None:
            continue
        _merge_constraint(constraints, img, 1 if src.has_arc(v, u) else -1)
    partial.mapping[v] = partial.target.query(class_index, constraints)
    return partial


def _work_constraints(hom: Homomorphism, wk: _WorkGraph, v: int) -> dict[int, int]:
    """Image -> sign toward it for every current neighbour of v in the work graph."""
    constraints: dict[int, int] = {}
    for u in bits(wk.adj(v)):
        _merge_constraint(constraints, hom.mapping[u], 1 if wk.out[v] >> u & 1 else -1)
    return constraints


def _first_free_class(target, avoid: set[int]) -> int:
    for c in range(1, target.free_classes + 1):
        if c not in avoid:
            return c
    raise CapacityExceeded(
        f"all {target.free_classes} free classes collide with constraint images"
    )


def _classes_of(target, images) -> set[int]:
    return {target.class_of(x) for x in images}


def _assert_realized(hom: Homomorphism, arcs) -> int:
    checked = 0
    for a, b in arcs:
        if hom.target.orientation(hom.mapping[a], hom.mapping[b]) != 1:
            raise InvariantViolation(
                f"replay produced an unrealized arc ({a},{b})"
            )
        checked += 1
    return checked


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
    core_classes: dict[int, int]
    psi_colours: dict[int, int] | None
    replay_classes: dict[int, int]
    ledger: ChargeLedger | None
    max_degree_ok: bool
    debug_checks: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "valid": self.valid,
                "colours_used": self.colours_used,
                "reduction_steps": self.reduction_steps,
                "core_size": self.core_size,
                "psi_palette": self.psi_palette,
            },
            sort_keys=True,
            separators=(",", ":"),
        )


def colour_surface_graph(
    g: OrientedGraph,
    genus: int,
    target=None,
    seed: int = 0,
    debug: bool = False,
) -> PipelineResult:
    """Colour a genus-<=genus oriented graph into a class-structured target.

    Stages: reduce to a core; discharge-check the core (max degree beyond
    12g-12 means the genus assertion is false); embed the first 6g
    degeneracy-order vertices injectively into the reserved pool; map every
    later core vertex into the class named by its distance-2 colour; then
    replay the reduction backwards, re-inserting vertices (<= 3 constraints)
    and edges (re-map the weak endpoint against <= 10 constraints, then the
    low one against <= 5) into classes disjoint from their constraint images.

    debug=True re-checks every arc touched by each replay step against the
    target's realized orientations.
    """
    params = surface_parameters(genus)
    if target is None:
        target = LazyTarget(
            params.free_classes,
            params.reserved_capacity,
            seed=derive_seed(seed, 0xC010),
        )

    reduction = reduce_graph(g)
    core, steps = reduction.core, reduction.steps
    orig = reduction.core_vertices

    ledger = None
    max_degree_ok = True
    if core.n:
        ledger, max_degree_ok = discharge_check(core, genus)
        if not max_degree_ok:
            raise GenusAssumptionViolated(
                f"core max degree {core.max_degree()} exceeds {params.core_degree_limit}"
            )

    hom = Homomorphism(g, target)
    core_classes: dict[int, int] = {}
    psi: DipathColouring | None = None
    pool_vertices: tuple[int, ...] = ()
    core_ordering: tuple[int, ...] = ()

    if core.n:
        ordering = degeneracy_ordering(core)
        order = ordering.order
        core_ordering = tuple(orig[c] for c in order)
        prefix = order[: params.reserved_capacity]
        in_pool = set(prefix)
        core_hom = Homomorphism(core, target)
        _embed_pool(
            core_hom, prefix, [(a, b) for a, b in core.arcs() if a in in_pool and b in in_pool]
        )
        pool_vertices = tuple(orig[c] for c in prefix)

        if core.n > len(prefix):
            try:
                psi = surface_two_dipath(core, genus, ordering)
            except DegeneracyViolation as exc:
                raise GenusAssumptionViolated(
                    f"degeneracy ordering breaks the genus promise: {exc}"
                ) from exc
            for c in order[len(prefix):]:
                extend_vertex(core_hom, c, psi.colours[c])
        for c, x in core_hom.mapping.items():
            hom.mapping[orig[c]] = x
            core_classes[orig[c]] = target.class_of(x)

    # replay the peeling in reverse on a work graph seeded with the core
    wk = _WorkGraph(g.n)
    for v in orig:
        wk.add_vertex(v)
    for a, b in core.arcs():
        wk.add_arc(orig[a], orig[b])

    replay_classes: dict[int, int] = {}
    debug_checks = 0
    for step in reversed(steps):
        if step.kind == "remove-vertex":
            for a, b in step.completion:
                wk.remove_pair(a, b)
            v = step.vertex
            wk.add_vertex(v)
            for a, b in step.incident:
                wk.add_arc(a, b)
            constraints = _work_constraints(hom, wk, v)
            cls = _first_free_class(target, _classes_of(target, constraints))
            hom.mapping[v] = target.query(cls, constraints)
            replay_classes[v] = cls
            if debug:
                debug_checks += _assert_realized(hom, step.incident)
        else:
            v, w = step.low_vertex, step.other
            # v and w are not adjacent here, so re-mapping w leaves v_constraints as is
            w_constraints = _work_constraints(hom, wk, w)
            v_constraints = _work_constraints(hom, wk, v)
            avoid = _classes_of(target, w_constraints) | _classes_of(target, v_constraints)
            cls_w = _first_free_class(target, avoid)
            hom.mapping[w] = target.query(cls_w, w_constraints)
            replay_classes[w] = cls_w
            z = hom.mapping[w]

            if z in v_constraints:
                raise InvariantViolation(f"image {z} of {w} already constrains {v}")
            _merge_constraint(v_constraints, z, 1 if step.arc == (v, w) else -1)
            cls_v = _first_free_class(target, _classes_of(target, v_constraints))
            hom.mapping[v] = target.query(cls_v, v_constraints)
            replay_classes[v] = cls_v
            wk.add_arc(*step.arc)
            if debug:
                debug_checks += _assert_realized(hom, wk.incident(w) + wk.incident(v))

    valid = hom.validate()
    colours_used = len(set(hom.mapping.values()))
    return PipelineResult(
        valid=valid,
        colours_used=colours_used,
        reduction_steps=len(steps),
        core_size=core.n,
        psi_palette=psi.palette_size if psi else 0,
        genus=genus,
        mapping=hom.mapping,
        target=target,
        core=core,
        core_vertices=orig,
        core_ordering=core_ordering,
        pool_vertices=pool_vertices,
        core_classes=core_classes,
        psi_colours={orig[c]: col for c, col in psi.colours.items()} if psi else None,
        replay_classes=replay_classes,
        ledger=ledger,
        max_degree_ok=max_degree_ok,
        debug_checks=debug_checks,
    )
