from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orichrome import (
    LazyTarget,
    OrientedGraph,
    build_restricted,
    colour_surface_graph,
    cyclic_k44_target,
    discharge_check,
    embed_small,
    exact_oriented_chromatic,
    extend_vertex,
    orientation_vector,
    random_orientation,
    random_oriented_graph,
    random_tournament,
    reduce_graph,
    stacked_triangulation,
    surface_parameters,
    toroidal_grid,
    verify_full,
)
from orichrome.errors import (
    ArityExceeded,
    CapacityExceeded,
    DomainError,
    GenusAssumptionViolated,
    NotReduced,
    PreconditionViolated,
)
from orichrome.pipeline import Homomorphism

seeds = st.integers(min_value=0, max_value=2**62)


def icosahedron_orientation(seed: int = 0) -> OrientedGraph:
    from orichrome.graphs import SimpleGraph

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
    from orichrome.graphs import SimpleGraph

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
    assert p.back_degree_limit == 6
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
    assert res.core == k13
    assert res.core_vertices == tuple(range(13))


def test_icosahedron_cascades():
    g = icosahedron_orientation(3)
    res = reduce_graph(g)
    assert any(s.kind == "remove-edge" for s in res.steps)
    if res.core.n:
        discharge_check(res.core, 2)  # would raise NotReduced on a bad core


def test_vertex_steps_record_low_degree():
    tree = OrientedGraph(4, [(0, 1), (1, 2), (2, 3)])
    for s in reduce_graph(tree).steps:
        assert s.kind == "remove-vertex"
        assert len(s.incident) <= 3
        assert all(v == s.vertex or u == s.vertex for u, v in s.incident)


def test_edge_steps_record_degrees():
    g = icosahedron_orientation(5)
    for s in reduce_graph(g).steps:
        if s.kind == "remove-edge":
            assert s.degrees[0] in (4, 5)
            assert s.degrees[1] < 12


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
    ledger, ok = discharge_check(OrientedGraph(0), 2)
    assert ok
    assert ledger.conservation_ok()


def test_k12_minus_matching_ledger():
    g = k12_minus_matching_orientation(1)
    ledger, ok = discharge_check(g, 2)
    assert ok  # max degree 10 <= 12
    assert all(c == Fraction(4) for c in ledger.final.values())
    assert ledger.transfers == []
    assert ledger.conservation_ok()


def test_degree4_receives_half_from_each_neighbour():
    g = deg4_on_k13(4)
    ledger, ok = discharge_check(g, 3)
    assert ok  # max degree 13 <= 24
    assert ledger.initial[13] == Fraction(-2)
    assert ledger.final[13] == Fraction(0)
    assert len(ledger.transfers) == 4
    assert all(amount == Fraction(1, 2) for _, _, amount in ledger.transfers)
    assert ledger.conservation_ok()


def test_degree_cap_flags_wrong_genus():
    g = deg4_on_k13(4)
    _, ok = discharge_check(g, 2)
    assert not ok  # max degree 13 > 12*2-12


def test_not_reduced_k4():
    with pytest.raises(NotReduced):
        discharge_check(random_tournament(4, 0), 2)


def test_not_reduced_low_degree_edge():
    # octahedron orientation: degree-4 vertices with degree-4 neighbours
    from orichrome.graphs import SimpleGraph

    non_edges = ({0, 1}, {2, 3}, {4, 5})
    edges = [
        (u, v) for u in range(6) for v in range(u + 1, 6) if {u, v} not in non_edges
    ]
    octa = random_orientation(SimpleGraph(6, edges), 0)
    with pytest.raises(NotReduced):
        discharge_check(octa, 2)


# -- pool embedding ---------------------------------------------------------------


def test_embed_single_vertex():
    t = LazyTarget(4, 3, seed=0)
    hom = embed_small(OrientedGraph(1), t)
    assert hom.validate()
    assert t.minted(0) == [hom.mapping[0]]


def test_embed_tournament_installs_all_arcs():
    g = random_tournament(5, seed=8)
    t = LazyTarget(4, 6, seed=0)
    hom = embed_small(g, t)
    assert hom.validate()
    assert len(t.decided_arcs()) == 10


def test_embed_restricted_pool():
    base = cyclic_k44_target(1)
    verify_full(base)
    r = build_restricted(base, 1)
    g = random_tournament(4, seed=9)
    hom = embed_small(g, r)
    assert hom.validate()
    assert len(r.extra_arcs) == 6
    assert sorted(hom.mapping.values()) == list(r.pool)


# both pools hold four vertices
POOLS = {
    "lazy": lambda: LazyTarget(4, 4, seed=0),
    "restricted": lambda: build_restricted(cyclic_k44_target(1), 1),
}


@pytest.mark.parametrize("make_target", POOLS.values(), ids=list(POOLS))
def test_embed_pigeonhole(make_target):
    assert embed_small(random_tournament(4, 1), make_target()).validate()
    with pytest.raises(CapacityExceeded):
        embed_small(random_tournament(5, 1), make_target())


@pytest.mark.parametrize("make_target", POOLS.values(), ids=list(POOLS))
def test_embed_requires_fresh_pool(make_target):
    t = make_target()
    embed_small(random_tournament(2, 1), t)
    with pytest.raises(PreconditionViolated):
        embed_small(random_tournament(2, 1), t)


# -- single-vertex extension --------------------------------------------------------


def test_extend_unconstrained():
    t = LazyTarget(3, 1, seed=0)
    g = OrientedGraph(2, [(0, 1)])
    hom = Homomorphism(g, t)
    hom = extend_vertex(hom, 0, 2)
    assert t.class_of(hom.mapping[0]) == 2


def test_extend_matches_orientation_vector():
    # vertex 6 aims at pool images 0..2 and away from 3..5; the minted image
    # must reproduce that sign pattern exactly
    g = OrientedGraph(7, [(6, i) for i in range(3)] + [(i, 6) for i in range(3, 6)])
    t = LazyTarget(10, 6, seed=3)
    base = embed_small(OrientedGraph(6), t)
    hom = Homomorphism(g, t, base.mapping)
    hom = extend_vertex(hom, 6, 4)
    image = hom.mapping[6]
    nbrs = [hom.mapping[v] for v in range(6)]
    vec = orientation_vector(t.to_oriented_graph(), nbrs, image)
    assert vec == (1, 1, 1, -1, -1, -1)
    assert hom.validate()


def test_extend_arity_gate_on_certified_target():
    base = cyclic_k44_target(1)
    verify_full(base)
    r = build_restricted(base, 1)
    g = OrientedGraph(3, [(0, 2), (1, 2)])
    hom = Homomorphism(g, r, {0: r.pool[0], 1: r.pool[1]})
    with pytest.raises(ArityExceeded):
        extend_vertex(hom, 2, 1)


# -- the full pipeline ----------------------------------------------------------------


def test_pipeline_single_arc():
    res = colour_surface_graph(OrientedGraph(2, [(0, 1)]), 2, debug=True)
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
    res = colour_surface_graph(g, 2, debug=True)
    assert res.valid
    assert res.colours_used <= 25
    assert res.debug_checks > 0


def test_pipeline_k7_embeds_in_pool():
    k7 = random_tournament(7, seed=1)
    res = colour_surface_graph(k7, 2, debug=True)
    assert res.valid
    assert res.core_size == 7
    assert res.colours_used == 7
    assert all(res.core_classes[v] == 0 for v in range(7))


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
    g = random_orientation(OrientedGraph(17, arcs).underlying(), 6)
    res = colour_surface_graph(g, 2, debug=True)
    assert res.valid
    assert res.core_size == 17
    assert res.reduction_steps == 0
    prefix = set(res.core_ordering[:12])
    assert set(res.pool_vertices) == prefix
    for v in res.core_ordering[12:]:
        assert res.core_classes[v] == res.psi_colours[v] >= 1


def test_pipeline_colours_at_least_oracle():
    for seed in range(20):
        g = random_oriented_graph(5, seed, density=0.7)
        res = colour_surface_graph(g, 2, debug=True)
        assert res.valid
        assert res.colours_used >= exact_oriented_chromatic(g).value


def test_pipeline_deterministic():
    g = toroidal_grid(4, 6, seed=3)
    a = colour_surface_graph(g, 2, seed=5)
    b = colour_surface_graph(g, 2, seed=5)
    assert a.to_json() == b.to_json()
    assert a.mapping == b.mapping


def test_pipeline_genus_gate():
    with pytest.raises(DomainError):
        colour_surface_graph(OrientedGraph(1), 1)


@settings(deadline=None, max_examples=15)
@given(seeds, st.integers(min_value=3, max_value=80), st.integers(min_value=2, max_value=5))
def test_pipeline_random_triangulations(seed, n, genus):
    g = random_orientation(stacked_triangulation(n, seed), seed)
    res = colour_surface_graph(g, genus, seed=seed, debug=True)
    assert res.valid
    params = surface_parameters(genus)
    assert all(1 <= c <= params.free_classes for c in res.replay_classes.values())
