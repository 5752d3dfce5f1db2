import hashlib

import pytest
from hypothesis import example, given
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
from orichrome.generate import GEN_KINDS
from orichrome.graphs import OrientedGraph, SimpleGraph, degeneracy_ordering, serialize_edge_list
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


def _per_pair_tournament(n: int, seed: int) -> OrientedGraph:
    # the tournament as one coin() per pair u < v, in that order, through the
    # validating constructor
    rng = SplitMix64(derive_seed(seed, 0x7031))
    arcs = []
    for u in range(n):
        for v in range(u + 1, n):
            arcs.append((u, v) if rng.coin() else (v, u))
    return OrientedGraph(n, arcs)


@given(seeds, st.integers(min_value=0, max_value=40))
def test_random_tournament_matches_per_pair_coins(seed, n):
    t = random_tournament(n, seed)
    ref = _per_pair_tournament(n, seed)
    assert t == ref
    assert t._in == ref._in


# The generators build their rows directly and skip the validating
# constructors, so these tests hold every generator to what the validating
# constructors build from its own output.


def _assert_simple_valid(g: SimpleGraph) -> None:
    assert SimpleGraph(g.n, g.edges()) == g


def _assert_oriented_valid(o: OrientedGraph) -> None:
    ref = OrientedGraph(o.n, o.arcs())
    assert ref == o
    assert ref._in == o._in


@given(seeds, st.integers(min_value=3, max_value=60))
@example(0, 3)
def test_face_splitting_generators_match_validated(seed, n):
    for g in (stacked_triangulation(n, seed), planar_sparse_graph(n, seed)):
        _assert_simple_valid(g)
        _assert_oriented_valid(random_orientation(g, seed))


@given(seeds, st.integers(min_value=3, max_value=9), st.integers(min_value=3, max_value=9))
@example(0, 3, 3)
@example(1, 3, 7)
@example(2, 8, 3)
def test_toroidal_grid_matches_validated(seed, rows, cols):
    g = toroidal_grid_graph(rows, cols)
    _assert_simple_valid(g)
    _assert_oriented_valid(random_orientation(g, seed))
    assert toroidal_grid(rows, cols, seed) == random_orientation(g, seed)


def test_random_orientation_of_edgeless_graph():
    o = random_orientation(SimpleGraph(4), 1)
    assert o.arc_count == 0
    _assert_oriented_valid(o)


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
    # too small on both sides, though rows * cols is above the vertex cap
    with pytest.raises(ValueError):
        generate("toroidal-grid", rows=-1001, cols=-1000)


# the bench sizes where there is one (stacked 3000, grid 40x40), small ones for
# the quadratic kinds
_PINNED_SIZES = {
    "complete-tournament": {"n": 30},
    "transitive-tournament": {"n": 30},
    "directed-cycle": {"n": 50},
    "toroidal-grid": {"rows": 40, "cols": 40},
    "stacked-triangulation": {"n": 3000},
    "planar-sparse": {"n": 3000},
    "random-oriented": {"n": 40},
}

_PINNED_DIGESTS = {
    0: {
        "complete-tournament": "e631cb6f027c6ece7a4965a8be042f8acc14e6156902eea27e21da2ad609dcc1",
        "transitive-tournament": "df17503d79386fd129f3c5c27e33af2f8c45c1fc8b1f96a2aee10722b3b78efb",
        "directed-cycle": "71581e7b9c6dcb4c9e543837438555230e14c4824710e4e64a8818d78c6de609",
        "toroidal-grid": "12dce10880744b13a7910015cdf6890cd40f8542a1e97052900d787a93af0b51",
        "stacked-triangulation": "b53aba45f0ed7e3b0e385eeae0c488311acd9029682ec51a8733d9c15927edee",
        "planar-sparse": "9c15cce20bc5673ee185c174fb8931ba185b1770d2d948c6f930cb5a6375dce9",
        "random-oriented": "179d813005a70c9a9bfb59945fed46e9879c346efd5f72cde0be6c1e5c7bc879",
        "torus-70x70": "c8e7f8a104575081f5e0feefa53536dc2d4a2ae328a106001a24c99a3cf64181",
    },
    3: {
        "complete-tournament": "f8fc64a000cf0e3d16da17330d3189672281c01e3b014ea9c49b5949cacfaf4b",
        "transitive-tournament": "df17503d79386fd129f3c5c27e33af2f8c45c1fc8b1f96a2aee10722b3b78efb",
        "directed-cycle": "71581e7b9c6dcb4c9e543837438555230e14c4824710e4e64a8818d78c6de609",
        "toroidal-grid": "3f5f467d4db5975597248af467e6671843cd879180456cb21e5bf1f7cc53d877",
        "stacked-triangulation": "0f0f6bf46e3e8a5f3e46710609cdb1ea1de8591bc8c803352f9f8ce00a26d97f",
        "planar-sparse": "f8ad2e75de26e25b7269765cff03b6bf7472d5331766a305c509c6ac4f9fc6cc",
        "random-oriented": "b82bf4e7b8c219520e1b9e9a8491f1016cb2eda5e99501354987c667a8145bdc",
        "torus-70x70": "68bfb4794bb4d84e030943dcfe9ec79bea99165c56359be0abe79ebf4ca56421",
    },
}


def test_gen_kinds_keep_their_order():
    # gen --help lists the kinds in this order, the order of _PINNED_SIZES
    assert GEN_KINDS == tuple(_PINNED_SIZES)


def _torus_triangulation(r: int) -> SimpleGraph:
    """r x r toroidal grid plus one diagonal per square: 6-regular, Euler genus 2."""
    edges = []
    for i in range(r):
        for j in range(r):
            v = i * r + j
            edges += [(v, i * r + (j + 1) % r), (v, (i + 1) % r * r + j), (v, (i + 1) % r * r + (j + 1) % r)]
    return SimpleGraph(r * r, edges)


def test_gen_output_pinned():
    # sha256 of the edge-list text of every gen kind, and of the core
    # workload's largest torus oriented by random_orientation
    def sha(g):
        return hashlib.sha256(serialize_edge_list(g).encode()).hexdigest()

    torus = _torus_triangulation(70)
    for seed, digests in _PINNED_DIGESTS.items():
        got = {kind: sha(generate(kind, seed, **size)) for kind, size in _PINNED_SIZES.items()}
        got["torus-70x70"] = sha(random_orientation(torus, seed))
        assert got == digests, seed
