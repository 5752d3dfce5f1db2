import dataclasses
import hashlib
import json
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orichrome import (
    LazyTarget,
    OrientedGraph,
    RestrictedTarget,
    back_degrees,
    colour_surface_graph,
    cyclic_k66_target,
    degeneracy_ordering,
    discharge_check,
    exact_oriented_chromatic,
    random_orientation,
    random_oriented_graph,
    random_tournament,
    reduce_graph,
    sample_full,
    stacked_triangulation,
    surface_parameters,
    surface_two_dipath,
    toroidal_grid,
    verify_full,
)
from orichrome.errors import (
    CapacityExceeded,
    ConstraintConflict,
    DomainError,
    GenusAssumptionViolated,
    InvalidClass,
    InvariantViolation,
    NotReduced,
    OrichromeError,
    PreconditionViolated,
)
from orichrome import dipath, oracles, pipeline
from orichrome.acceptance import class_layout_ok
from orichrome.generate import toroidal_grid_graph
from orichrome.graphs import SimpleGraph, VertexOrdering, bits

from conftest import cyclic_k44_target, pool_arcs

seeds = st.integers(min_value=0, max_value=2**62)


def icosahedron_orientation(seed: int = 0) -> OrientedGraph:
    edges = [(0, i) for i in range(1, 6)]
    edges += [(i, i % 5 + 1) for i in range(1, 6)]
    edges += [(11, i) for i in range(6, 11)]
    edges += [(i, (i - 5) % 5 + 6) for i in range(6, 11)]
    edges += [(i, i + 5) for i in range(1, 6)]
    edges += [(i, i % 5 + 6) for i in range(1, 6)]
    g = SimpleGraph(12, edges)
    assert g.min_degree() == g.max_degree() == 5
    return random_orientation(g, seed)


def k12_minus_matching_orientation(seed: int = 0) -> OrientedGraph:
    edges = [
        (u, v)
        for u in range(12)
        for v in range(u + 1, 12)
        if not (u % 2 == 0 and v == u + 1)
    ]
    g = SimpleGraph(12, edges)
    assert g.min_degree() == g.max_degree() == 10
    return random_orientation(g, seed)


def deg4_on_k13(seed: int = 0) -> OrientedGraph:
    # K13 plus one extra vertex joined to four of it: reduced, with a
    # degree-4 vertex whose neighbours all have degree 13
    t = random_tournament(13, seed)
    arcs = t.arcs() + [(13, i) for i in range(4)]
    return OrientedGraph(14, arcs)


# -- parameters ------------------------------------------------------------------


def test_parameter_record():
    p = surface_parameters(2)
    assert p.free_classes == 114
    assert p.reserved_capacity == 12
    assert p.total_classes == 126
    assert p.core_degree_limit == 12
    assert p.strip_size == 11
    assert p.back_degree_limit == 6
    assert p.fullness_arity == 10
    with pytest.raises(DomainError):
        surface_parameters(1)


# -- reduction --------------------------------------------------------------------


def test_tree_reduces_to_nothing():
    tree = OrientedGraph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    res = reduce_graph(tree)
    assert res.core.n == 0
    assert len(res.steps) == 7
    assert all(s.kind == "remove-vertex" for s in res.steps)


def test_already_reduced_untouched():
    k13 = random_tournament(13, seed=2)
    res = reduce_graph(k13)
    assert res.steps == []
    assert res.core is k13  # nothing peeled, so nothing is rebuilt
    assert res.core_vertices == tuple(range(13))


def test_icosahedron_cascades():
    g = icosahedron_orientation(3)
    res = reduce_graph(g)
    assert any(s.kind == "remove-edge" for s in res.steps)
    if res.core.n:
        discharge_check(res.core, 2)  # would raise NotReduced on a bad core


@pytest.mark.parametrize("step", ["vertex", "edge"])
def test_reduction_progress_check_fires(step):
    # repeating the reducer's first step removes an absent vertex or pair
    g = OrientedGraph(4, [(0, 1), (1, 2), (2, 3)]) if step == "vertex" else random_tournament(5, seed=0)
    first = reduce_graph(g).steps[0]
    assert first.kind == f"remove-{step}"
    wk = pipeline._WorkGraph.from_graph(g)
    if step == "vertex":
        wk.remove_vertex(first.vertex)
        with pytest.raises(InvariantViolation):
            wk.remove_vertex(first.vertex)
    else:
        wk.remove_pair(first.low_vertex, first.other)
        with pytest.raises(InvariantViolation):
            wk.remove_pair(first.other, first.low_vertex)


class _MaskWorkGraph:
    """The reducer's work graph as bitmask rows: the reference's own storage,
    independent of the library's neighbour sets."""

    def __init__(self, g: OrientedGraph):
        self.out = [g.out_mask(v) for v in range(g.n)]
        self.inn = [0] * g.n
        for u, v in g.arcs():
            self.inn[v] |= 1 << u
        self.alive = (1 << g.n) - 1

    def adj(self, v: int) -> int:
        return self.out[v] | self.inn[v]

    def degree(self, v: int) -> int:
        return self.adj(v).bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj(u) >> v & 1)

    def add_arc(self, u: int, v: int) -> None:
        self.out[u] |= 1 << v
        self.inn[v] |= 1 << u

    def remove_pair(self, u: int, v: int) -> None:
        assert self.has_edge(u, v)
        self.out[u] &= ~(1 << v)
        self.inn[u] &= ~(1 << v)
        self.out[v] &= ~(1 << u)
        self.inn[v] &= ~(1 << u)

    def remove_vertex(self, v: int) -> None:
        assert self.alive >> v & 1
        for u in bits(self.adj(v)):
            self.out[u] &= ~(1 << v)
            self.inn[u] &= ~(1 << v)
        self.out[v] = 0
        self.inn[v] = 0
        self.alive &= ~(1 << v)

    def incident(self, v: int) -> tuple[tuple[int, int], ...]:
        return tuple((v, u) if self.out[v] >> u & 1 else (u, v) for u in bits(self.adj(v)))

    def removable_vertex(self) -> int | None:
        for v in bits(self.alive):
            if self.degree(v) <= 3:
                return v
        return None

    def removable_edge(self) -> tuple[int, int] | None:
        for v in bits(self.alive):
            if self.degree(v) in (4, 5):
                for u in bits(self.adj(v)):
                    if self.degree(u) < 12:
                        return v, u
        return None


def _reference_reduce(g: OrientedGraph):
    """The reducer as one lowest-index scan per step: its steps, the arcs at
    each removed vertex, the degrees of both ends of each removed edge, its
    core vertices and core, the last built by the validating constructor."""
    wk = _MaskWorkGraph(g)
    steps, incident, degrees = [], {}, []
    while True:
        v = wk.removable_vertex()
        if v is not None:
            incident[v] = wk.incident(v)
            completion = []
            for a, b in combinations(bits(wk.adj(v)), 2):
                if not wk.has_edge(a, b):
                    wk.add_arc(a, b)
                    completion.append((a, b))
            wk.remove_vertex(v)
            steps.append(pipeline.VertexStep(v, tuple(completion)))
        else:
            pair = wk.removable_edge()
            if pair is None:
                break
            low, other = pair
            arc = (low, other) if wk.out[low] >> other & 1 else (other, low)
            degrees.append((wk.degree(low), wk.degree(other)))
            wk.remove_pair(low, other)
            steps.append(pipeline.EdgeStep(arc, low, other))
    core_vertices = tuple(bits(wk.alive))
    index = {v: i for i, v in enumerate(core_vertices)}
    arcs = [(index[a], index[b]) for a in core_vertices for b in bits(wk.out[a])]
    return steps, incident, degrees, core_vertices, OrientedGraph(len(core_vertices), arcs)


def _incident(wk: pipeline._WorkGraph, v: int) -> tuple[tuple[int, int], ...]:
    """Arcs at v in a work graph as (tail, head), by ascending neighbour."""
    signs = wk.nb[v]
    return tuple((v, u) if signs[u] == 1 else (u, v) for u in sorted(signs))


def _forward_degrees(g: OrientedGraph, steps) -> list[tuple[int, int]]:
    """Replay ``steps`` forward on a fresh work graph; the degrees of
    ``low_vertex`` and ``other`` before each edge removal."""
    wk = pipeline._WorkGraph.from_graph(g)
    degrees = []
    for s in steps:
        if s.kind == "remove-vertex":
            for a, b in s.completion:
                wk.add_arc(a, b)
            wk.remove_vertex(s.vertex)
        else:
            v, w = s.low_vertex, s.other
            degrees.append((len(wk.nb[v]), len(wk.nb[w])))
            wk.remove_pair(v, w)
    return degrees


def _reference_ordering(g) -> VertexOrdering:
    """Min-degree peeling by a full (degree, index) scan per removal."""
    adj = [sum(1 << w for w in g.neighbours(u)) for u in range(g.n)]
    alive = (1 << g.n) - 1
    deg = [row.bit_count() for row in adj]
    removal = []
    degeneracy = 0
    for _ in range(g.n):
        v = min((u for u in range(g.n) if alive >> u & 1), key=lambda u: (deg[u], u))
        degeneracy = max(degeneracy, deg[v])
        removal.append(v)
        alive &= ~(1 << v)
        for w in bits(adj[v] & alive):
            deg[w] -= 1
    return VertexOrdering(order=tuple(reversed(removal)), degeneracy=degeneracy)


def pendants_on_tournament(seed: int, n: int) -> OrientedGraph:
    """A tournament on 11-14 vertices plus pendant vertices of degree 1, 2, 4 or 5.

    Tournament vertices start near degree 12 and fall below it as the
    pendants peel, which makes waiting degree-4 and -5 pendants removable.
    """
    rnd = random.Random(seed)
    m = 11 + n % 4
    arcs = random_tournament(m, seed).arcs()
    end = m + 2 + n % 9
    for v in range(m, end):
        for u in rnd.sample(range(v), rnd.choice((1, 2, 4, 4, 5, 5))):
            arcs.append((v, u) if rnd.random() < 0.5 else (u, v))
    return OrientedGraph(end, arcs)


# stacked triangulations peel by vertices alone; the other families also
# take the edge rule
FAMILIES = {
    "pendants": pendants_on_tournament,
    "stacked": lambda seed, n: random_orientation(stacked_triangulation(n, seed), seed),
    "grid": lambda seed, n: toroidal_grid(3 + n % 7, 3 + n // 7 % 7, seed),
    "icosahedron": lambda seed, n: icosahedron_orientation(seed),
    "dense": lambda seed, n: random_oriented_graph(n % 30 + 4, seed, density=0.3 + n % 6 / 10),
}


def _reduce_matches_reference(g: OrientedGraph) -> int:
    """Assert the worklists take the reference's steps and orders; count edge steps."""
    res = reduce_graph(g)
    steps, incident, degrees, core_vertices, core = _reference_reduce(g)
    assert res.steps == steps
    # a removed vertex's rows still hold its arcs at removal
    assert {s.vertex: _incident(res.work, s.vertex) for s in steps if s.kind == "remove-vertex"} == incident
    assert _forward_degrees(g, res.steps) == degrees
    assert res.core_vertices == core_vertices
    assert res.core == core
    assert res.core._in == core._in
    for h in (g, SimpleGraph(g.n, g.arcs()), res.core):
        assert degeneracy_ordering(h) == _reference_ordering(h)
    return sum(s.kind == "remove-edge" for s in steps)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(sorted(FAMILIES)), seeds, st.integers(min_value=3, max_value=60))
def test_worklists_match_reference_scans(family, seed, n):
    _reduce_matches_reference(FAMILIES[family](seed, n))


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_worklists_match_reference_fixed_sample(family):
    edge_steps = sum(_reduce_matches_reference(FAMILIES[family](seed, 3 + seed)) for seed in range(100))
    if family != "stacked":
        assert edge_steps > 0  # the edge heap was exercised


@pytest.mark.parametrize(
    "make",
    [lambda: toroidal_grid(20, 20, seed=5), lambda: random_orientation(stacked_triangulation(400, 7), 7)],
    ids=["grid-20x20", "stacked-400"],
)
def test_worklists_match_reference_at_scale(make):
    # long cascades re-queue the same vertices many times over
    _reduce_matches_reference(make())


def test_six_regular_torus_takes_no_heap_pop(monkeypatch):
    # the heaps start with the vertices of degree <= 5 only, and a 6-regular
    # torus has none
    real, pops = pipeline.heappop, []

    def counting(heap):
        pops.append(heap[0])
        return real(heap)

    monkeypatch.setattr(pipeline, "heappop", counting)
    g = random_orientation(_torus_triangulation(12), 0)
    res = reduce_graph(g)
    assert res.steps == [] and res.core is g
    assert len(pops) == 0


def _waiting_low_vertex() -> OrientedGraph:
    """Degree-4 vertex 0 whose only neighbour below degree 12 is 2, and 2
    gets there (12 -> 11) only through a vertex step after the first edge step.

    0 is popped and dropped at that first edge pop, while 2 still has degree
    12; then edge (1, 3) goes, 1 falls to degree 3 and is peeled, and 2 loses
    it.  Only 2's own touch can make 0 eligible again.
    """
    tournament = [(a, b) for a in range(4, 18) for b in range(a + 1, 18)]  # degree 13 each
    spokes = [(0, 2), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 7), (1, 8)]
    spokes += [(2, k) for k in range(7, 17)] + [(3, k) for k in range(9, 14)]
    return OrientedGraph(18, tournament + spokes)


def test_edge_candidates_wait_for_the_next_edge_pop():
    g = _waiting_low_vertex()
    assert g.degrees()[:4] == [4, 4, 12, 6]
    steps = reduce_graph(g).steps
    assert steps == _reference_reduce(g)[0]
    assert [(s.low_vertex, s.other) for s in steps if s.kind == "remove-edge"] == [(1, 3), (0, 2)]


def test_vertex_steps_record_low_degree():
    tree = OrientedGraph(4, [(0, 1), (1, 2), (2, 3)])
    res = reduce_graph(tree)
    for s in res.steps:
        assert s.kind == "remove-vertex"
        incident = _incident(res.work, s.vertex)
        assert len(incident) <= 3
        assert all(v == s.vertex or u == s.vertex for u, v in incident)


def test_edge_steps_record_degrees():
    g = icosahedron_orientation(5)
    for low, other in _forward_degrees(g, reduce_graph(g).steps):
        assert low in (4, 5)
        assert other < 12


@settings(deadline=None, max_examples=25)
@given(seeds, st.integers(min_value=3, max_value=60))
def test_reduced_core_conditions(seed, n):
    g = random_orientation(stacked_triangulation(n, seed), seed)
    res = reduce_graph(g)
    core = res.core
    for v in range(core.n):
        assert core.degree(v) >= 4
        if core.degree(v) in (4, 5):
            assert all(core.degree(u) >= 12 for u in core.neighbours(v))


# -- discharging -----------------------------------------------------------------


def test_empty_core_vacuous():
    ledger = discharge_check(OrientedGraph(0), 2)
    assert ledger.conservation_ok()


def test_k12_minus_matching_ledger():
    g = k12_minus_matching_orientation(1)
    ledger = discharge_check(g, 2)  # max degree 10 <= 12
    assert all(c == Fraction(4) for c in ledger.final.values())
    assert ledger.transfers == []
    assert ledger.conservation_ok()


def test_degree4_receives_half_from_each_neighbour():
    g = deg4_on_k13(4)
    ledger = discharge_check(g, 3)  # max degree 13 <= 24
    assert ledger.initial[13] == Fraction(-2)
    assert ledger.final[13] == Fraction(0)
    assert len(ledger.transfers) == 4
    assert all(amount == Fraction(1, 2) for _, _, amount in ledger.transfers)
    assert ledger.conservation_ok()


def test_degree5_transfers_stay_exact():
    # two degree-5 vertices on K13, each paid 1/5 by its five neighbours;
    # vertex 4 pays both, so its charge 14 - 6 - 2/5 is no float
    arcs = random_tournament(13, 2).arcs() + [(13, i) for i in range(5)] + [(i, 14) for i in range(4, 9)]
    g = OrientedGraph(15, arcs)
    ledger = discharge_check(g, 3)
    exact = {v: Fraction(g.degree(v) - 6) for v in range(g.n)}
    for v in (13, 14):
        for u in g.neighbours(v):
            exact[u] -= Fraction(1, 5)
            exact[v] += Fraction(1, 5)
    assert ledger.final == exact
    assert ledger.final[4] == Fraction(38, 5)
    assert all(amount == Fraction(1, 5) for _, _, amount in ledger.transfers)
    assert len(ledger.transfers) == 10
    assert ledger.conservation_ok()


def test_degree_cap_flags_wrong_genus():
    g = deg4_on_k13(4)
    with pytest.raises(GenusAssumptionViolated, match="core max degree 13 exceeds 12"):
        discharge_check(g, 2)


def test_negative_charge_raises(monkeypatch):
    # with the reduction check off, a 4-cycle's degree-2 vertices keep charge -4
    monkeypatch.setattr(pipeline, "_check_reduced", lambda core: None)
    with pytest.raises(InvariantViolation, match="^discharging left a negative charge$"):
        discharge_check(random_orientation(SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), 0), 2)


def test_charge_conservation_breach_raises(monkeypatch):
    monkeypatch.setattr(pipeline.ChargeLedger, "conservation_ok", lambda self: False)
    with pytest.raises(InvariantViolation, match="^discharging changed the total charge$"):
        discharge_check(k12_minus_matching_orientation(1), 2)


def test_not_reduced_k4():
    with pytest.raises(NotReduced):
        discharge_check(random_tournament(4, 0), 2)


def test_not_reduced_low_degree_edge():
    # octahedron orientation: degree-4 vertices with degree-4 neighbours
    non_edges = ({0, 1}, {2, 3}, {4, 5})
    edges = [
        (u, v) for u in range(6) for v in range(u + 1, 6) if {u, v} not in non_edges
    ]
    octa = random_orientation(SimpleGraph(6, edges), 0)
    with pytest.raises(NotReduced):
        discharge_check(octa, 2)


# -- pool embedding ---------------------------------------------------------------


def embed(g, target):
    """All of g mapped into the pool by the path colour_surface_graph runs."""
    return pipeline._embed_pool(target, pipeline._WorkGraph.from_graph(g), range(g.n))


def test_embed_single_vertex():
    t = LazyTarget(4, 3)
    mapping = embed(OrientedGraph(1), t)
    assert pipeline._valid(OrientedGraph(1), t, mapping)
    assert t.minted(0) == [mapping[0]]


def test_embed_tournament_installs_all_arcs():
    g = random_tournament(5, seed=8)
    t = LazyTarget(4, 6)
    assert pipeline._valid(g, t, embed(g, t))
    assert t.to_oriented_graph().arc_count == 10


def test_embed_restricted_pool():
    base = cyclic_k44_target(1)
    verify_full(base)
    r = RestrictedTarget(base, 1)
    g = random_tournament(4, seed=9)
    mapping = embed(g, r)
    assert pipeline._valid(g, r, mapping)
    assert len(pool_arcs(r)) == 6
    assert sorted(mapping.values()) == list(r.pool)


# both pools hold four vertices
POOLS = {
    "lazy": lambda: LazyTarget(4, 4),
    "restricted": lambda: RestrictedTarget(cyclic_k44_target(1), 1),
}


@pytest.mark.parametrize("make_target", POOLS.values(), ids=list(POOLS))
def test_valid_rejects_reversed_arc_and_shared_pool_image(make_target):
    g, t = OrientedGraph(2, [(0, 1)]), make_target()
    mapping = embed(g, t)
    assert pipeline._valid(g, t, mapping)
    assert not pipeline._valid(g, t, {0: mapping[1], 1: mapping[0]})
    # without the arc only injectivity on the pool decides
    free = t.query(1, {})
    assert pipeline._valid(OrientedGraph(2), t, {0: free, 1: free})
    assert not pipeline._valid(OrientedGraph(2), t, {0: mapping[0], 1: mapping[0]})


@pytest.mark.parametrize("make_target", POOLS.values(), ids=list(POOLS))
@pytest.mark.parametrize("offset", [0, 1, None], ids=["vertex-count", "one-above", "negative"])
def test_valid_names_an_image_the_target_lacks(make_target, offset):
    # the bad image sits at a tail, then at the head of a row's second arc,
    # then on an arc-free vertex, where only the pool check asks for it
    g, t = OrientedGraph(4, [(0, 1), (0, 2)]), make_target()
    mapping = embed(g, t)
    bad = -1 if offset is None else t.vertex_count + offset
    message = rf"^vertex {bad} outside 0\.\.{t.vertex_count - 1}$"
    for u in (0, 2, 3):
        with pytest.raises(InvalidClass, match=message):
            pipeline._valid(g, t, mapping | {u: bad})
    # a reversed first arc decides before the walk reaches the bad head
    assert not pipeline._valid(g, t, mapping | {1: mapping[0], 0: mapping[1], 2: bad})


@pytest.mark.parametrize("make_target", POOLS.values(), ids=list(POOLS))
def test_valid_rejects_a_reversed_arc_after_the_first_in_its_row(make_target):
    # 0's row is [1, 2]: its first arc lands on a target arc, its second on
    # a reversed one, and an earlier row is realized in full
    t = make_target()
    mapping = embed(OrientedGraph(4, [(3, 0), (0, 1), (2, 0)]), t)
    g = OrientedGraph(4, [(3, 0), (0, 1), (0, 2)])
    assert not pipeline._valid(g, t, mapping)
    assert pipeline._valid(OrientedGraph(4, [(3, 0), (0, 1), (2, 0)]), t, mapping)


@pytest.mark.parametrize("make_target", POOLS.values(), ids=list(POOLS))
def test_embed_pigeonhole(make_target):
    g, t = random_tournament(4, 1), make_target()
    assert pipeline._valid(g, t, embed(g, t))
    with pytest.raises(CapacityExceeded):
        embed(random_tournament(5, 1), make_target())


@pytest.mark.parametrize("make_target", POOLS.values(), ids=list(POOLS))
def test_embed_requires_fresh_pool(make_target):
    # a pool that handed out a slot is in use, whether or not it carries an arc
    for first in (random_tournament(2, 1), OrientedGraph(2)):
        t = make_target()
        embed(first, t)
        with pytest.raises(PreconditionViolated, match=r"^reserved pool already in use$"):
            embed(random_tournament(2, 1), t)


@pytest.mark.parametrize("make_target", POOLS.values(), ids=list(POOLS))
def test_reserve_pool_refuses_negative_count(make_target):
    t = make_target()
    with pytest.raises(DomainError):
        t.reserve_pool(-1)
    assert len(t.reserve_pool(4)) == 4  # the refused call left the pool fresh


# -- work graph ---------------------------------------------------------------------


def test_arc_free_work_graph_is_small():
    g = OrientedGraph(10**5, [])
    tracemalloc.start()
    try:
        wk = pipeline._WorkGraph.from_graph(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert len(wk.nb) == 10**5
    with pytest.raises(TypeError):
        wk.nb[-1][0] = 1  # the one empty map all arc-free vertices share is read-only


def test_work_graph_is_one_signed_map_per_vertex():
    # about 3.2 MiB; two neighbour sets per vertex would take 6.1 MiB
    g = random_orientation(stacked_triangulation(10**4, 0), 0)
    tracemalloc.start()
    try:
        pipeline._WorkGraph.from_graph(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 2**20


def _assert_maps_match_out_and_in_rows(g: OrientedGraph) -> None:
    """from_graph's maps, built from the out-rows alone, hold what merging
    each vertex's out-row (sign 1) and in-row (sign -1) holds."""
    nb = pipeline._WorkGraph.from_graph(g).nb
    assert g._in_rows is None
    assert nb == [dict.fromkeys(o, 1) | dict.fromkeys(i, -1) for o, i in zip(g._out, g._in)]
    empty = [row for row in nb if not row]
    assert all(row is empty[0] for row in empty)  # arc-free vertices share one read-only map


@settings(deadline=None, max_examples=60)
@given(seeds, st.integers(min_value=0, max_value=30), st.floats(min_value=0, max_value=1), st.integers(min_value=0, max_value=4))
def test_work_graph_maps_match_out_and_in_rows(seed, n, density, isolated):
    # isolated vertices at both ends of the label range
    arcs = random_oriented_graph(n, seed, density).arcs()
    _assert_maps_match_out_and_in_rows(OrientedGraph(n + 2 * isolated, [(u + isolated, v + isolated) for u, v in arcs]))


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_orientation(stacked_triangulation(3000, 1), 2),
        lambda: toroidal_grid(40, 40, 3),
        lambda: random_orientation(_torus_triangulation(30), 4),
        lambda: OrientedGraph(50, []),
    ],
    ids=["stacked-3000", "grid-40x40", "torus-30x30", "arc-free"],
)
def test_work_graph_maps_match_out_and_in_rows_on_bench_families(make):
    _assert_maps_match_out_and_in_rows(make())


def test_colouring_a_peeled_graph_leaves_its_in_rows_unbuilt():
    # the reducer and the replay read the work graph's maps and _valid reads
    # the out-rows, so a graph that peels to nothing never transposes
    g = random_orientation(stacked_triangulation(500, 0), 0)
    res = colour_surface_graph(g, 2)
    assert res.valid and res.core_size == 0
    assert g._in_rows is None


def test_in_only_vertex_gains_completion_arc():
    # 1 and 2 have only in-arcs; removing 0 completes its neighbourhood by
    # 1 -> 2, an out-arc of 1 that the rows of 2 and of isolated 3 must not see
    g = OrientedGraph(4, [(0, 1), (0, 2)])
    assert reduce_graph(g).steps[0].completion == ((1, 2),)
    assert colour_surface_graph(g, 2).valid
    wk = pipeline._WorkGraph.from_graph(g)
    wk.add_arc(1, 2)
    assert wk.nb == [{1: 1, 2: 1}, {0: -1, 2: 1}, {0: -1, 1: -1}, {}]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_replay_restores_the_input_graph(family, monkeypatch):
    # add_vertex re-attaches each peeled vertex from its own rows, so after
    # the replay the work graph is the input again
    real, captured = pipeline.reduce_graph, []

    def capture(g):
        captured.append(real(g))
        return captured[-1]

    monkeypatch.setattr(pipeline, "reduce_graph", capture)
    for seed in range(4):
        g = FAMILIES[family](seed, 12 + 7 * seed)
        colour_surface_graph(g, g.n // 6 + 2)  # the whole core fits the pool
        wk = captured.pop().work
        assert [sorted(u for u, sign in row.items() if sign == 1) for row in wk.nb] == [list(r) for r in g._out]
        assert [sorted(u for u, sign in row.items() if sign == -1) for row in wk.nb] == [list(r) for r in g._in]
        assert all(wk.alive)


def _bytes_per_step(steps) -> float:
    """Average sys.getsizeof of a step record, its attribute dict if it has
    one, and the tuples it holds; an object shared by steps counts once."""
    seen, total, stack = set(), 0, list(steps)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, tuple):
            stack += [x for x in obj if isinstance(x, tuple)]
        else:
            total += sys.getsizeof(vars(obj)) if hasattr(obj, "__dict__") else 0
            values = (getattr(obj, f.name) for f in dataclasses.fields(obj))
            stack += [x for x in values if isinstance(x, tuple)]
    return total / len(steps)


@pytest.mark.parametrize(
    "make",
    [lambda: random_orientation(stacked_triangulation(10**4, 0), 0), lambda: toroidal_grid(60, 60, 0)],
    ids=["stacked-10000", "grid-60x60"],
)
def test_reduction_log_is_small(make):
    # the log keeps only what the work graph cannot give back: no arcs of a
    # removed vertex, no degree snapshot
    steps = reduce_graph(make()).steps
    assert _bytes_per_step(steps) < 256


# -- constraints ----------------------------------------------------------------------


def test_constraints_read_mapped_neighbours():
    # vertex 6 aims at 0..2 and away from 3..5; 5 is unmapped and drops out,
    # and 1 shares 0's image with the same sign
    g = OrientedGraph(7, [(6, i) for i in range(3)] + [(i, 6) for i in range(3, 6)])
    wk = pipeline._WorkGraph.from_graph(g)
    neighbours = sorted(wk.nb[6])
    mapping = {0: 10, 1: 10, 2: 12, 3: 13, 4: 14}
    assert pipeline._constraints(mapping, wk.nb[6], neighbours) == {10: 1, 12: 1, 13: -1, 14: -1}
    mapping[3] = 12
    with pytest.raises(ConstraintConflict):
        pipeline._constraints(mapping, wk.nb[6], neighbours)


# -- the full pipeline ----------------------------------------------------------------


class _UnfixingTarget(LazyTarget):
    """Answers its first ``fixing`` queries as LazyTarget does, then every
    query with a fresh class vertex, fixing no arc."""

    def __init__(self, free_classes: int, pool_capacity: int, fixing: int = 0):
        super().__init__(free_classes, pool_capacity)
        self.fixing = fixing

    def query(self, class_index: int, constraints: dict[int, int]) -> int:
        if self.fixing:
            self.fixing -= 1
            return super().query(class_index, constraints)
        return self._mint(class_index)


def test_replay_rejects_unrealized_arc():
    # peeling 1 adds the completion arc 2 -> 3, the first arc the replay checks
    tree = OrientedGraph(4, [(0, 1), (1, 2), (1, 3)])
    with pytest.raises(InvariantViolation, match=r"^replay produced an unrealized arc \(2,3\)$"):
        colour_surface_graph(tree, 2, _UnfixingTarget(4, 12))
    # every arc a replayed vertex or edge touches is checked once per step
    assert colour_surface_graph(random_orientation(stacked_triangulation(30, 1), 1), 2).debug_checks == 84
    assert colour_surface_graph(toroidal_grid(6, 6, 2), 2).debug_checks == 324


def test_replay_rejects_unrealized_arc_at_edge_step():
    # the grid peels to an empty core, and six vertex steps follow its last
    # edge step, so query 6 re-maps that step's weak endpoint 17; the arc to
    # the low endpoint 15, added back just before, is the first one at 17
    g = toroidal_grid(5, 5, 11)
    steps = reduce_graph(g).steps
    last = max(i for i, s in enumerate(steps) if s.kind == "remove-edge")
    assert len(steps) - 1 - last == 6
    assert steps[last] == pipeline.EdgeStep((15, 17), 15, 17)
    with pytest.raises(InvariantViolation, match=r"^replay produced an unrealized arc \(15,17\)$"):
        colour_surface_graph(g, 2, _UnfixingTarget(114, 12, fixing=6))


class _SkippingTarget(LazyTarget):
    """Answers query ``skip`` (counted from 0) with a fresh class vertex,
    fixing no arc, and every other query as LazyTarget does."""

    def __init__(self, free_classes: int, pool_capacity: int, skip: int):
        super().__init__(free_classes, pool_capacity)
        self.skip = skip

    def query(self, class_index: int, constraints: dict[int, int]) -> int:
        self.skip -= 1
        if self.skip == -1:
            return self._mint(class_index)
        return super().query(class_index, constraints)


def test_edge_step_checks_weak_endpoint_against_low_endpoints_new_image():
    # hub 0 points at every vertex of a 4x4 grid, so 0 is the lowest
    # neighbour of low endpoint 1 in the edge step that removed (1,4).
    # Query 49 re-maps weak endpoint 4 and query 50, left unfixed, re-maps 1.
    # 4's check comes first and must read 1's new image, so it names the
    # restored arc; against 1's old image it passes, and 1's own check names
    # its arc from the hub first
    grid = toroidal_grid(4, 4, 0)
    g = OrientedGraph(17, [(a + 1, b + 1) for a, b in grid.arcs()] + [(0, x) for x in range(1, 17)])
    steps = reduce_graph(g).steps
    i = steps.index(pipeline.EdgeStep((1, 4), 1, 4))
    assert sum(2 if s.kind == "remove-edge" else 1 for s in steps[i + 1 :]) == 49
    params = surface_parameters(2)
    target = _SkippingTarget(params.free_classes, params.reserved_capacity, skip=50)
    with pytest.raises(InvariantViolation, match=r"^replay produced an unrealized arc \(1,4\)$"):
        colour_surface_graph(g, 2, target)


class _OrientationCountingTarget(LazyTarget):
    """Counts ``orientation`` calls."""

    orientation_calls = 0

    def orientation(self, a: int, b: int) -> int | None:
        self.orientation_calls += 1
        return super().orientation(a, b)


@pytest.mark.parametrize(
    "make",
    [lambda: toroidal_grid(20, 20, 5), lambda: random_orientation(stacked_triangulation(400, 7), 7)],
    ids=["grid", "stacked"],
)
def test_realized_replay_and_validation_ask_no_orientation(make):
    # both peel to an empty core, the grid through edge steps; every check of
    # a replayed vertex and every row _valid reads is one realizes test, and
    # only a failed one walks the arcs by orientation
    params = surface_parameters(2)
    target = _OrientationCountingTarget(params.free_classes, params.reserved_capacity)
    res = colour_surface_graph(make(), 2, target)
    assert res.valid and res.core_size == 0 and res.debug_checks > 0
    assert target.orientation_calls == 0


class _QueryCountingTarget(LazyTarget):
    """Counts the queries that returned."""

    answered = 0

    def query(self, class_index: int, constraints: dict[int, int]) -> int:
        x = super().query(class_index, constraints)
        self.answered += 1
        return x


@pytest.mark.parametrize(
    "make, free_classes, answered",
    [
        # vertex steps only; the fourth placement finds all 3 classes taken
        (lambda: random_orientation(stacked_triangulation(30, 1), 1), 3, 3),
        # the grid's first eight replayed steps are vertex steps, and the fourth runs out
        (lambda: toroidal_grid(6, 6, 2), 3, 3),
        # the 19th placement is the weak endpoint 23 of an edge step: its own
        # constraint images and the avoided classes {2, 3, 4, 5} of the low end's cover all 5
        (lambda: toroidal_grid(6, 6, 2), 5, 18),
    ],
    ids=["stacked-vertex-step", "grid-vertex-step", "grid-edge-step"],
)
def test_replay_runs_out_of_free_classes(make, free_classes, answered):
    target = _QueryCountingTarget(free_classes, 12)
    message = rf"^all {free_classes} free classes collide with constraint images$"
    with pytest.raises(CapacityExceeded, match=message):
        colour_surface_graph(make(), 2, target)
    assert target.answered == answered


class _CountingTarget(LazyTarget):
    """Counts ``class_of`` calls."""

    class_of_calls = 0

    def class_of(self, v: int) -> int:
        self.class_of_calls += 1
        return super().class_of(v)


def test_replay_keeps_image_classes():
    # the replay knows the class of each image it placed, and a stacked
    # triangulation peels to an empty core, so only _valid's pool check asks
    # the target, once per distinct image
    g = random_orientation(stacked_triangulation(10**3, 0), 0)
    params = surface_parameters(2)
    target = _CountingTarget(params.free_classes, params.reserved_capacity)
    res = colour_surface_graph(g, 2, target)
    assert res.valid and res.reduction_steps == g.n and res.core_size == 0
    assert target.class_of_calls <= len(set(res.mapping.values()))


def test_core_classes_asked_once_per_image():
    # nothing peels off a 6-regular torus, so the whole mapping comes from the
    # core stage: the replay's classes and _valid's pool check each ask the
    # target once per distinct image, not once per core vertex, beside the
    # two ends install_pool_arc checks on each arc among the pool vertices
    g = random_orientation(_torus_triangulation(12), 12)
    params = surface_parameters(2)
    target = _CountingTarget(params.free_classes, params.reserved_capacity)
    res = colour_surface_graph(g, 2, target)
    images = len(set(res.mapping.values()))
    pool = set(res.pool_vertices)
    pool_arcs = sum(u in pool and v in pool for u, v in g.arcs())
    assert res.valid and res.core_size == g.n > params.reserved_capacity
    assert images < g.n
    assert target.class_of_calls <= 2 * images + 2 * pool_arcs


def test_pipeline_single_arc():
    res = colour_surface_graph(OrientedGraph(2, [(0, 1)]), 2)
    assert res.valid
    assert res.colours_used == 2


def test_pipeline_empty_graph():
    res = colour_surface_graph(OrientedGraph(0), 2)
    assert res.valid
    assert res.colours_used == 0
    assert res.to_json() == (
        '{"colours_used":0,"core_size":0,"psi_palette":0,"reduction_steps":0,"valid":true}'
    )


def test_pipeline_grid():
    g = toroidal_grid(5, 5, seed=11)
    res = colour_surface_graph(g, 2)
    assert res.valid
    assert res.colours_used <= 25
    assert res.debug_checks > 0


def test_pipeline_k7_embeds_in_pool():
    k7 = random_tournament(7, seed=1)
    res = colour_surface_graph(k7, 2)
    assert res.valid
    assert res.core_size == 7
    assert res.colours_used == 7
    assert all(res.target.class_of(res.mapping[v]) == 0 for v in range(7))


def test_pipeline_detects_impossible_genus():
    k13 = random_tournament(13, seed=1)
    with pytest.raises(GenusAssumptionViolated):
        colour_surface_graph(k13, 2)


def test_pipeline_psi_classes_beyond_pool():
    # 6-regular circulant on 17 vertices: reduced, bigger than the genus-2
    # pool, so five vertices must land in their psi classes
    arcs = []
    for i in range(17):
        for off in (1, 2, 3):
            arcs.append((i, (i + off) % 17))
    g = random_orientation(SimpleGraph(17, arcs), 6)
    res = colour_surface_graph(g, 2)
    assert res.valid
    assert res.core_size == 17
    assert res.reduction_steps == 0
    prefix = set(res.core_ordering[:12])
    assert set(res.pool_vertices) == prefix
    for v in res.core_ordering[12:]:
        assert res.target.class_of(res.mapping[v]) == res.psi_colours[v] >= 1


def test_pipeline_colours_at_least_oracle():
    for seed in range(20):
        g = random_oriented_graph(5, seed, density=0.7)
        res = colour_surface_graph(g, 2)
        assert res.valid
        assert res.colours_used >= exact_oriented_chromatic(g).value


def test_pipeline_deterministic():
    g = toroidal_grid(4, 6, seed=3)
    a = colour_surface_graph(g, 2)
    b = colour_surface_graph(g, 2)
    assert a.to_json() == b.to_json()
    assert a.mapping == b.mapping


def test_pipeline_genus_gate():
    with pytest.raises(DomainError):
        colour_surface_graph(OrientedGraph(1), 1)


@settings(deadline=None, max_examples=15)
@given(seeds, st.integers(min_value=3, max_value=80), st.integers(min_value=2, max_value=5))
def test_pipeline_random_triangulations(seed, n, genus):
    g = random_orientation(stacked_triangulation(n, seed), seed)
    res = colour_surface_graph(g, genus)
    assert res.valid
    params = surface_parameters(genus)
    replayed = set(res.mapping) - set(res.core_vertices)
    assert all(1 <= res.target.class_of(res.mapping[v]) <= params.free_classes for v in replayed)


def _torus_triangulation(r: int):
    """r x r toroidal grid plus one diagonal per square: 6-regular, Euler genus 2."""
    edges = []
    for i in range(r):
        for j in range(r):
            v = i * r + j
            edges += [(v, i * r + (j + 1) % r), (v, (i + 1) % r * r + j), (v, (i + 1) % r * r + (j + 1) % r)]
    return SimpleGraph(r * r, edges)


@pytest.mark.parametrize(
    "make, steps, core_size",
    [
        (lambda: stacked_triangulation(10**4, 0), 10**4, 0),
        (lambda: _torus_triangulation(100), 0, 10**4),
    ],
    ids=["stacked-10000", "torus-100x100"],
)
def test_pipeline_at_ten_thousand_vertices(make, steps, core_size):
    res = colour_surface_graph(random_orientation(make(), 0), 2)
    assert res.valid
    assert res.reduction_steps == steps
    assert res.core_size == core_size


def _torus_with_trees(r: int, seed: int) -> OrientedGraph:
    """A 6-regular r x r torus with planar trees hung off it: the trees peel
    by vertex steps, the torus stays as the core and replay re-inserts them."""
    rnd = random.Random(seed)
    g = random_orientation(_torus_triangulation(r), seed)
    arcs, n = g.arcs(), g.n
    for _ in range(r):
        parent = rnd.randrange(g.n)
        for _ in range(rnd.randrange(1, 5)):
            arcs.append((n, parent) if rnd.random() < 0.5 else (parent, n))
            parent, n = rnd.choice((parent, n)), n + 1
    return OrientedGraph(n, arcs)


def _torus_and_grid(seed: int) -> OrientedGraph:
    """A 6x6 6-regular torus and a 5x5 toroidal grid joined by 3 random edges:
    the grid peels by edge steps, and an edge step at a joining edge re-maps
    its torus end, which stays in the core."""
    rnd = random.Random(seed)
    edges = _torus_triangulation(6).edges() + [(36 + a, 36 + b) for a, b in toroidal_grid_graph(5, 5).edges()]
    edges += zip(rnd.sample(range(36), 3), rnd.sample(range(36, 61), 3))
    return random_orientation(SimpleGraph(61, edges), seed)


def test_class_layout_reads_core_classes_at_core_time():
    # the layout check once read each core vertex's class at its final image,
    # so every one of these valid runs read as a class-structure break
    remapped = 0
    for seed in range(40):
        res = colour_surface_graph(_torus_and_grid(seed), 5)
        assert res.valid and res.core_size == 36
        assert class_layout_ok(res), seed
        class_of = res.target.class_of
        remapped += any(class_of(res.mapping[v]) != class_of(x) for v, x in res.core_images.items())
    assert remapped


def test_traced_stage_names_run_once(monkeypatch):
    # bench/spans.py wraps these names on the pipeline module; a stage that
    # bound one of them elsewhere would run unwrapped and read 0 in the bench
    names = ("reduce_graph", "discharge_check", "degeneracy_ordering", "surface_two_dipath")
    calls = dict.fromkeys(names, 0)

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in names:
        monkeypatch.setattr(pipeline, name, counting(name, getattr(pipeline, name)))
    assert colour_surface_graph(_torus_with_trees(6, 6), 2).valid
    assert calls == dict.fromkeys(names, 1)


def _pinned_record(g: OrientedGraph, target) -> list:
    try:
        res = colour_surface_graph(g, 2, target)
    except Exception as exc:  # the error's type and message are pinned too
        return [type(exc).__name__, str(exc)]
    if isinstance(target, LazyTarget):
        state = [[target.class_of(v) for v in range(target.vertex_count)], target.to_oriented_graph().arcs()]
    else:
        state = pool_arcs(target)
    # the classes of the core vertices and of the replayed ones, read from the target
    core, class_of = set(res.core_vertices), target.class_of
    return [
        sorted(res.mapping.items()),
        sorted((v, class_of(x)) for v, x in res.mapping.items() if v in core),
        sorted((v, class_of(x)) for v, x in res.mapping.items() if v not in core),
        sorted(res.psi_colours.items()) if res.psi_colours is not None else None,
        res.core_ordering,
        res.pool_vertices,
        res.debug_checks,
        res.valid,
        state,
    ]


def _pinned_runs() -> tuple[list[OrientedGraph], dict]:
    """The graphs test_colour_runs_pinned colours, and the targets it colours
    each of them into, by name, as functions making a fresh target."""
    graphs = (
        [random_orientation(stacked_triangulation(n, seed), seed) for n, seed in ((4, 0), (30, 1), (90, 2))]
        + [toroidal_grid(r, c, seed) for r, c, seed in ((3, 3, 0), (4, 5, 1), (6, 6, 2))]
        + [random_orientation(_torus_triangulation(r), r) for r in (4, 5, 7)]
        + [_torus_with_trees(r, r) for r in (4, 6)]
        # these colour into the restricted targets too: a K7 core fits the
        # sampled target's pool, and cycles ask for two constraints at most
        + [OrientedGraph(7 + 3, random_tournament(7, 3).arcs() + [(7, 0), (8, 7), (1, 9)])]
        + [OrientedGraph(3), OrientedGraph(9, [(i, (i + 1) % 9) for i in range(9)])]
    )
    params = surface_parameters(2)
    sampled, k66 = sample_full(5, 2, seed=1), cyclic_k66_target()
    targets = {
        "lazy": lambda: LazyTarget(params.free_classes, params.reserved_capacity),
        "sampled-5-2": lambda: RestrictedTarget(sampled, 4),
        "k66-1": lambda: RestrictedTarget(k66, 1),
    }
    return graphs, targets


def test_colour_runs_pinned():
    # mapping, classes, psi, ordering, pool, checks, validity and target state
    # of each run, or its error; on the lazy target the tori's cores reach
    # past the pool and the replays take both step kinds
    graphs, targets = _pinned_runs()
    digest = hashlib.sha256()
    for name, make in targets.items():
        for g in graphs:
            digest.update(json.dumps([name, _pinned_record(g, make())]).encode())
    assert digest.hexdigest() == "9cf7fd716cafc1ba0dc687f9005c224a8fed84eda593ba647da684bfc9d72e33"


def test_pinned_runs_are_homomorphisms_into_the_target_graph():
    # checked by the oracle on the target's own graph, not by the pipeline's
    # _valid or the replay's checks, which ask the target's orientation
    graphs, targets = _pinned_runs()
    coloured = dict.fromkeys(targets, 0)
    for name, make in targets.items():
        for g in graphs:
            target = make()
            try:
                res = colour_surface_graph(g, 2, target)
            except OrichromeError:
                continue
            assert oracles.validate_homomorphism(g, target.to_oriented_graph(), res.mapping), name
            coloured[name] += 1
    assert coloured == {"lazy": 14, "sampled-5-2": 3, "k66-1": 1}


def test_core_path_pinned_at_bench_scale():
    # the ordering, the stripped back-degrees and the 2-dipath colouring of a
    # 30x30 torus, the smallest core-workload size, with the colours in dict order
    g = random_orientation(_torus_triangulation(30), 30)
    ordering = degeneracy_ordering(g)
    stripped = dipath._strip_arcs(g, ordering.order[: surface_parameters(2).strip_size])
    psi = surface_two_dipath(g, 2, ordering)
    record = [
        ordering.order,
        ordering.degeneracy,
        back_degrees(stripped, ordering.order),
        list(psi.colours.items()),
        psi.palette_size,
    ]
    digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()
    assert digest == "277e880b0258dfc58188af55ed49e200bb125cd44bf24acc965afa5ae09903d4"
