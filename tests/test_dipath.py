import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orichrome import (
    OrientedGraph,
    degeneracy_ordering,
    directed_cycle,
    exact_two_dipath,
    greedy_two_dipath,
    is_valid_two_dipath,
    random_orientation,
    random_oriented_graph,
    random_tournament,
    stacked_triangulation,
    stratified_two_dipath,
    surface_two_dipath,
    toroidal_grid,
    two_dipath_palette_bound,
)
import orichrome.dipath as dipath_module
from orichrome.errors import (
    DegeneracyViolation,
    InvalidInner,
    InvariantViolation,
    PreconditionViolated,
)

seeds = st.integers(min_value=0, max_value=2**62)


def _greedy(g):
    return greedy_two_dipath(g, degeneracy_ordering(g))


def test_palette_bound_breach_raises(monkeypatch):
    monkeypatch.setattr(dipath_module, "two_dipath_palette_bound", lambda d, max_degree: 0)
    with pytest.raises(InvariantViolation):
        _greedy(random_tournament(4, 0))


# -- greedy colourer -------------------------------------------------------------


def test_forest_within_four_colours():
    tree = OrientedGraph(7, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6)])
    res = _greedy(tree)
    assert res.palette_size <= two_dipath_palette_bound(1, 3)
    assert is_valid_two_dipath(tree, res.colours)


def test_edgeless_single_colour():
    res = _greedy(OrientedGraph(5))
    assert res.palette_size == 1


def test_bound_formula():
    assert two_dipath_palette_bound(1, 3) == 4
    assert two_dipath_palette_bound(2, 3) == 8


def test_two_degenerate_within_eight():
    # grown 2-degenerate: each new vertex joins the two ends of a random edge
    g = OrientedGraph(
        8, [(0, 1), (2, 0), (1, 2), (3, 1), (2, 3), (4, 2), (3, 4), (5, 3), (4, 5), (6, 4), (5, 6), (0, 7)]
    )
    ordering = degeneracy_ordering(g)
    assert ordering.degeneracy == 2
    if g.max_degree() <= 3:
        assert _greedy(g).palette_size <= 8


@settings(deadline=None)
@given(seeds, st.integers(min_value=1, max_value=30))
def test_greedy_bound_and_validity(seed, n):
    g = random_oriented_graph(n, seed, density=0.4)
    ordering = degeneracy_ordering(g)
    res = greedy_two_dipath(g, ordering)
    assert res.palette_size <= two_dipath_palette_bound(ordering.degeneracy, g.max_degree())
    assert is_valid_two_dipath(g, res.colours)


@settings(deadline=None, max_examples=30)
@given(seeds, st.integers(min_value=1, max_value=11))
def test_greedy_at_least_exact(seed, n):
    g = random_oriented_graph(n, seed, density=0.5)
    assert _greedy(g).palette_size >= exact_two_dipath(g).value


def test_greedy_rejects_non_permutation(path3):
    from orichrome import VertexOrdering

    with pytest.raises(ValueError):
        greedy_two_dipath(path3, VertexOrdering(order=(0, 1), degeneracy=1))


def test_colouring_serializes(path3):
    res = _greedy(path3)
    data = json.loads(res.to_json())
    assert data["palette"] == res.palette_size
    assert len(data["colours"]) == 3


# -- stratified combinator -------------------------------------------------------


def test_empty_strip_is_identity(path3):
    inner = _greedy(path3)
    out = stratified_two_dipath(path3, [], inner)
    assert out.colours == inner.colours
    assert out.palette_size == inner.palette_size


def test_full_strip_gives_singletons():
    g = random_oriented_graph(6, 3, density=0.7)
    stripped_inner = greedy_two_dipath(OrientedGraph(6), degeneracy_ordering(OrientedGraph(6)))
    out = stratified_two_dipath(g, list(range(6)), stripped_inner)
    assert len(set(out.colours.values())) == 6
    assert out.palette_size == 6 + stripped_inner.palette_size
    assert is_valid_two_dipath(g, out.colours)


def test_k4_strip_two_adjacent():
    k4 = random_tournament(4, seed=5)
    strip = [0, 1]
    stripped = OrientedGraph(
        4, [(u, v) for u, v in k4.arcs() if not ({u, v} <= set(strip))]
    )
    inner = _greedy(stripped)
    out = stratified_two_dipath(k4, strip, inner)
    assert out.palette_size <= inner.palette_size + 2
    assert is_valid_two_dipath(k4, out.colours)


def test_invalid_inner_rejected(path3):
    bad = greedy_two_dipath(OrientedGraph(3), degeneracy_ordering(OrientedGraph(3)))
    with pytest.raises(InvalidInner):
        stratified_two_dipath(path3, [], bad)


# -- surface specialization ------------------------------------------------------


def test_surface_budget_formula():
    assert 138 * 2 - 162 == 114


def test_surface_grid_within_budget():
    g = toroidal_grid(4, 4, seed=0)
    res = surface_two_dipath(g, 2)
    assert res.palette_size <= 114
    assert is_valid_two_dipath(g, res.colours)


def test_surface_small_graph_all_singletons():
    g = random_oriented_graph(8, 2)
    res = surface_two_dipath(g, 2)
    assert res.palette_size == 8


def test_surface_genus_gate():
    with pytest.raises(PreconditionViolated):
        surface_two_dipath(directed_cycle(4), 1)


def test_surface_degree_gate():
    star = OrientedGraph(14, [(0, i) for i in range(1, 14)])
    with pytest.raises(PreconditionViolated):
        surface_two_dipath(star, 2)


def test_surface_detects_impossible_genus():
    # complete on 13 vertices: degree 12 passes the gate at genus 2, but the
    # stripped back-degree must blow through 6
    k13 = random_tournament(13, seed=1)
    with pytest.raises(DegeneracyViolation):
        surface_two_dipath(k13, 2)


@settings(deadline=None, max_examples=25)
@given(seeds, st.integers(min_value=3, max_value=25))
def test_surface_on_triangulations(seed, n):
    g = random_orientation(stacked_triangulation(n, seed), seed)
    # stacked triangulations can pile arbitrarily high degree onto one apex,
    # and the direct colouring only admits max degree 12g - 12
    assume(g.max_degree() <= 12)
    res = surface_two_dipath(g, 2)
    assert res.palette_size <= 114
    assert is_valid_two_dipath(g, res.colours)
