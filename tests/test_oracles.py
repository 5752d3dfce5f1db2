import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orichrome import (
    OrientedGraph,
    SimpleGraph,
    chromatic_number,
    directed_cycle,
    exact_oriented_chromatic,
    exact_two_dipath,
    is_oriented_clique,
    is_valid_two_dipath,
    min_edge_oriented_clique,
    random_oriented_graph,
    transitive_tournament,
    validate_homomorphism,
)
from orichrome.errors import CapExceeded

seeds = st.integers(min_value=0, max_value=2**62)


# -- oriented chromatic number ---------------------------------------------------


def test_single_arc():
    assert exact_oriented_chromatic(OrientedGraph(2, [(0, 1)])).value == 2


def test_edgeless():
    assert exact_oriented_chromatic(OrientedGraph(3)).value == 1


def test_consistent_c5_needs_five():
    res = exact_oriented_chromatic(directed_cycle(5))
    assert res.value == 5


def test_hub_hexagon_value(hub_hexagon):
    # 7 vertices, 12 arcs; the exact solver settles on 4
    res = exact_oriented_chromatic(hub_hexagon)
    assert res.value == 4
    assert validate_homomorphism(hub_hexagon, res.target, res.witness)


def test_cap_gate():
    with pytest.raises(CapExceeded):
        exact_oriented_chromatic(OrientedGraph(2, [(0, 1)]), k_max=8)


def test_none_when_cap_too_tight():
    assert exact_oriented_chromatic(directed_cycle(5), k_max=4) is None


def test_witness_validates(hub_hexagon):
    res = exact_oriented_chromatic(hub_hexagon)
    assert validate_homomorphism(hub_hexagon, res.target, res.witness)


# -- distance-2 chromatic number --------------------------------------------------


def test_two_dipath_path(path3):
    assert exact_two_dipath(path3).value == 3


def test_two_dipath_edgeless():
    assert exact_two_dipath(OrientedGraph(6)).value == 1


def test_two_dipath_consistent_c4():
    c4 = OrientedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert exact_two_dipath(c4).value == 4


def test_two_dipath_cap():
    with pytest.raises(CapExceeded):
        exact_two_dipath(OrientedGraph(21))


def test_chromatic_number_triangle():
    assert chromatic_number(SimpleGraph(3, [(0, 1), (1, 2), (0, 2)])).value == 3


# -- minimum-arc oriented cliques -------------------------------------------------


def test_f3():
    res = min_edge_oriented_clique(3)
    assert res.value == 2
    assert is_oriented_clique(res.witness)


def test_f4():
    res = min_edge_oriented_clique(4)
    assert res.value == 4
    assert is_oriented_clique(res.witness)


def test_budget_monotone_at_4():
    # a witness at budget b exists exactly when f(4) <= b
    assert min_edge_oriented_clique(4, edge_budget=3) is None
    assert min_edge_oriented_clique(4, edge_budget=4) is not None


def test_witness_on_5_within_11_arcs():
    res = min_edge_oriented_clique(5, edge_budget=11)
    assert res is not None
    assert res.witness.arc_count <= 11
    assert is_oriented_clique(res.witness)


@pytest.mark.parametrize("n", [7, 10])
def test_min_edge_cap(n):
    # the search is exhaustive only, up to 6 vertices
    with pytest.raises(CapExceeded):
        min_edge_oriented_clique(n, edge_budget=30)


def test_f_below_n_log2_n():
    import math

    for n in range(2, 6):
        res = min_edge_oriented_clique(n)
        assert res.value <= math.floor(n * math.log2(n))


# -- homomorphism validation ------------------------------------------------------


def test_identity_map_validates(hub_hexagon):
    phi = {v: v for v in range(hub_hexagon.n)}
    assert validate_homomorphism(hub_hexagon, hub_hexagon, phi)


def test_constant_map_fails(path3):
    tt = transitive_tournament(3)
    assert not validate_homomorphism(path3, tt, {0: 0, 1: 0, 2: 0})


def test_direction_matters(path3):
    tt = transitive_tournament(3)
    assert validate_homomorphism(path3, tt, {0: 0, 1: 1, 2: 2})
    assert not validate_homomorphism(path3, tt, {0: 2, 1: 1, 2: 0})


# -- the sandwich, probed beyond the acceptance sweep ------------------------------


@settings(deadline=None, max_examples=40)
@given(seeds)
def test_sandwich_on_random_n5(seed):
    g = random_oriented_graph(5, seed, density=0.6)
    co = exact_oriented_chromatic(g)
    c2 = exact_two_dipath(g)
    assert c2.value <= co.value <= 5
    assert (co.value == 5) == is_oriented_clique(g)
    assert is_valid_two_dipath(g, c2.witness)
