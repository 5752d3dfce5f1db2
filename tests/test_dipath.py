
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orichrome import (
    DipathColouring,
    OrientedGraph,
    VertexOrdering,
    degeneracy_ordering,
    directed_cycle,
    exact_two_dipath,
    greedy_two_dipath,
    is_valid_two_dipath,
    random_orientation,
    random_oriented_graph,
    random_tournament,
    stacked_triangulation,
    surface_parameters,
    surface_two_dipath,
    toroidal_grid,
    two_dipath_palette_bound,
)
import orichrome.dipath as dipath_module
from orichrome.errors import (
    GenusAssumptionViolated,
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


def _reference_greedy(g, ordering):
    """greedy_two_dipath as a dict of colours over sorted neighbour lists."""
    if sorted(ordering.order) != list(range(g.n)):
        raise ValueError("ordering is not a permutation of the vertices")
    adj = [g.neighbours(u) for u in range(g.n)]
    colours = {}
    d_eff = 0
    for v in ordering.order:
        row = adj[v]
        d_eff = max(d_eff, sum(x in colours for x in row))
        used = {colours[w] for x in row for w in adj[x] if w in colours}
        used.update(colours[x] for x in row if x in colours)
        c = 1
        while c in used:
            c += 1
        colours[v] = c
    palette = max(colours.values(), default=0)
    bound = dipath_module.two_dipath_palette_bound(d_eff, g.max_degree())
    if g.n and palette > bound:
        raise InvariantViolation(f"palette {palette} exceeded bound {bound}")
    return DipathColouring(colours=colours, palette_size=palette)


def _greedy_outcome(colour, g, ordering):
    """Colours in dict order and the palette, or the type and message of the error."""
    try:
        res = colour(g, ordering)
    except (InvariantViolation, ValueError) as exc:
        return type(exc), str(exc)
    return list(res.colours.items()), res.palette_size


@settings(max_examples=200)
@given(
    seeds,
    st.integers(min_value=0, max_value=40),
    st.floats(min_value=0.0, max_value=0.8),
    st.sampled_from(("degeneracy", "shuffled", "short", "repeat")),
    st.integers(min_value=0, max_value=3),
    st.randoms(use_true_random=False),
)
def test_greedy_matches_dict_reference(seed, n, density, kind, cut, rnd):
    g = random_oriented_graph(n, seed, density)
    order = list(degeneracy_ordering(g).order)
    if kind != "degeneracy":
        rnd.shuffle(order)
    if kind == "short" and order:
        order.pop()
    elif kind == "repeat" and n > 1:
        order[0] = order[1]
    ordering = VertexOrdering(tuple(order), 0)
    bound = dipath_module.two_dipath_palette_bound
    with pytest.MonkeyPatch.context() as mp:
        # a bound lowered by ``cut`` (none at 0) makes some runs raise
        mp.setattr(dipath_module, "two_dipath_palette_bound", lambda d, delta: bound(d, delta) - cut)
        assert _greedy_outcome(greedy_two_dipath, g, ordering) == _greedy_outcome(_reference_greedy, g, ordering)


def test_greedy_rejects_non_permutation(path3):
    with pytest.raises(ValueError):
        greedy_two_dipath(path3, VertexOrdering(order=(0, 1), degeneracy=1))


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
    with pytest.raises(GenusAssumptionViolated, match="back-degree"):
        surface_two_dipath(k13, 2)


def test_surface_palette_breach_raises(monkeypatch):
    # greedy filling every free class leaves no room for the 11 strip colours
    free = surface_parameters(2).free_classes
    monkeypatch.setattr(dipath_module, "_greedy", lambda g, o, backs: DipathColouring({}, free))
    with pytest.raises(InvariantViolation, match=rf"^surface palette {free + 11} exceeds 138g-162$"):
        surface_two_dipath(toroidal_grid(4, 4, seed=0), 2)


def test_surface_strips_once(monkeypatch):
    g = toroidal_grid(4, 4, seed=0)
    strip_calls = []
    strip_arcs = dipath_module._strip_arcs

    def counted(*args):
        strip_calls.append(args)
        return strip_arcs(*args)

    monkeypatch.setattr(dipath_module, "_strip_arcs", counted)
    surface_two_dipath(g, 2)
    assert len(strip_calls) == 1


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
