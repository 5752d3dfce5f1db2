import pytest
from hypothesis import given
from hypothesis import strategies as st

from orichrome import (
    all_oriented_graphs,
    all_tournaments,
    directed_cycle,
    generate,
    planar_sparse_graph,
    random_orientation,
    random_oriented_graph,
    random_tournament,
    stacked_triangulation,
    toroidal_grid,
    toroidal_grid_graph,
    transitive_tournament,
)
from orichrome.errors import TooLarge
from orichrome.graphs import OrientedGraph, SimpleGraph, degeneracy_ordering
from orichrome.rng import SplitMix64, derive_seed

seeds = st.integers(min_value=0, max_value=2**62)


def test_transitive_tournament():
    assert transitive_tournament(3).arcs() == [(0, 1), (0, 2), (1, 2)]


def test_directed_cycle():
    assert directed_cycle(5).arcs() == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]


@given(seeds, st.integers(min_value=3, max_value=40))
def test_random_orientation_matches_per_edge_coins(seed, n):
    # the batched coins orient each edge as one coin() per edge in order would
    g = planar_sparse_graph(n, seed)
    rng = SplitMix64(derive_seed(seed, 0x7032))
    arcs = [(u, v) if rng.coin() else (v, u) for u, v in g.edges()]
    assert random_orientation(g, seed) == OrientedGraph(n, arcs)


def test_random_orientation_of_edgeless_graph():
    assert random_orientation(SimpleGraph(4), 1).arc_count == 0


def test_tournament_counts_up_to_iso():
    assert [len(all_tournaments(n)) for n in range(8)] == [1, 1, 1, 2, 4, 12, 56, 456]


def test_tournament_enumeration_cap():
    with pytest.raises(TooLarge):
        all_tournaments(8)


def test_all_tournaments_really_are_tournaments():
    for t in all_tournaments(5):
        assert t.arc_count == 10


def test_all_oriented_graphs_counts():
    assert sum(1 for _ in all_oriented_graphs(3)) == 27
    assert sum(1 for _ in all_oriented_graphs(4)) == 729


def test_all_oriented_graphs_cap():
    with pytest.raises(TooLarge):
        list(all_oriented_graphs(6))


def test_toroidal_grid_is_4_regular():
    g = toroidal_grid_graph(4, 5)
    assert g.n == 20
    assert g.min_degree() == g.max_degree() == 4


def test_toroidal_grid_too_small():
    with pytest.raises(ValueError):
        toroidal_grid_graph(2, 5)


@given(seeds, st.integers(min_value=3, max_value=40))
def test_stacked_triangulation_edge_count(seed, n):
    g = stacked_triangulation(n, seed)
    assert g.edge_count == 3 * n - 6
    assert degeneracy_ordering(g).degeneracy <= 3


@given(seeds, st.integers(min_value=3, max_value=40))
def test_planar_sparse_is_3_degenerate(seed, n):
    g = planar_sparse_graph(n, seed)
    assert degeneracy_ordering(g).degeneracy <= 3
    assert g.edge_count <= 3 * n - 6


@given(seeds, st.integers(min_value=1, max_value=10))
def test_random_tournament_complete(seed, n):
    t = random_tournament(n, seed)
    assert t.arc_count == n * (n - 1) // 2


@given(seeds)
def test_generators_deterministic(seed):
    assert random_oriented_graph(9, seed) == random_oriented_graph(9, seed)
    assert toroidal_grid(3, 4, seed) == toroidal_grid(3, 4, seed)
    assert stacked_triangulation(12, seed) == stacked_triangulation(12, seed)


def test_density_extremes():
    assert random_oriented_graph(8, 1, density=0.0).arc_count == 0
    assert random_oriented_graph(8, 1, density=1.0).arc_count == 28


def test_dispatcher():
    g = generate("toroidal-grid", seed=4, rows=3, cols=3)
    assert g.n == 9
    with pytest.raises(ValueError):
        generate("moebius-ladder", n=5)
