import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orichrome import (
    OrientedGraph,
    SimpleGraph,
    back_degrees,
    degeneracy_ordering,
    directed_square,
    graph_from_json,
    graph_to_json,
    is_oriented_clique,
    parse_edge_list,
    random_oriented_graph,
    random_orientation,
    serialize_edge_list,
    stacked_triangulation,
)
from orichrome.dipath import _strip_arcs
from orichrome.errors import InvariantViolation, ParseError, TooLarge
from orichrome.generate import random_tournament, toroidal_grid
from orichrome.graphs import _transpose, bits
from orichrome.pipeline import reduce_graph

seeds = st.integers(min_value=0, max_value=2**62)
sizes = st.integers(min_value=1, max_value=12)


# -- construction invariants ---------------------------------------------------


def test_loop_rejected():
    with pytest.raises(InvariantViolation):
        OrientedGraph(2, [(1, 1)])


def test_antiparallel_rejected():
    with pytest.raises(InvariantViolation):
        OrientedGraph(2, [(0, 1), (1, 0)])


def test_duplicate_rejected():
    with pytest.raises(InvariantViolation):
        OrientedGraph(2, [(0, 1), (0, 1)])


def test_out_of_range_rejected():
    with pytest.raises(InvariantViolation):
        OrientedGraph(2, [(0, 2)])


def test_degree_counts(path3):
    assert path3.degree(1) == 2
    assert [v for v in path3.neighbours(0) if path3.has_arc(0, v)] == [1]
    assert path3.arc_count == 2
    assert path3.max_degree() == 2
    assert path3.min_degree() == 1


class _MaskOrientedGraph:
    """The oriented graph as two bitset rows per vertex: the reference the
    neighbour-tuple OrientedGraph is pinned against."""

    def __init__(self, n, arcs=()):
        if n < 0:
            raise InvariantViolation("vertex count must be non-negative")
        self.n = n
        out = [0] * n
        inc = [0] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise InvariantViolation(f"arc ({u},{v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise InvariantViolation(f"loop at vertex {u}")
            if out[u] >> v & 1:
                raise InvariantViolation(f"duplicate arc ({u},{v})")
            if out[v] >> u & 1:
                raise InvariantViolation(f"anti-parallel pair between {u} and {v}")
            out[u] |= 1 << v
            inc[v] |= 1 << u
        self._out = out
        self._in = inc

    def has_arc(self, u, v):
        return bool(self._out[u] >> v & 1)

    def out_mask(self, u):
        return self._out[u]

    def in_mask(self, u):
        return self._in[u]

    def adj_mask(self, u):
        return self._out[u] | self._in[u]

    def neighbours(self, u):
        return list(bits(self.adj_mask(u)))

    def degree(self, u):
        return self.adj_mask(u).bit_count()

    def arcs(self):
        return [(u, v) for u in range(self.n) for v in bits(self._out[u])]

    @property
    def arc_count(self):
        return sum(row.bit_count() for row in self._out)

    def __eq__(self, other):
        return self.n == other.n and self._out == other._out


@st.composite
def arc_lists(draw, max_n=12):
    """(n, arcs): each vertex pair absent or oriented either way, in a random order."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    states = draw(st.lists(st.sampled_from((0, 1, 2)), min_size=len(pairs), max_size=len(pairs)))
    arcs = [(u, v) if s == 1 else (v, u) for (u, v), s in zip(pairs, states) if s]
    return n, draw(st.permutations(arcs))


def _assert_same_graph(g, ref):
    assert g.n == ref.n
    assert g.arcs() == ref.arcs()
    assert g.arc_count == ref.arc_count
    underlying = SimpleGraph(g.n, g.arcs())
    for u in range(g.n):
        assert g.degree(u) == ref.degree(u)
        assert g.neighbours(u) == ref.neighbours(u)
        assert g._out[u] == tuple(bits(ref.out_mask(u)))
        assert g.out_mask(u) == ref.out_mask(u)
        assert g._in[u] == tuple(bits(ref.in_mask(u)))
        assert underlying.adj_mask(u) == ref.adj_mask(u)
        for v in range(g.n):
            assert g.has_arc(u, v) == ref.has_arc(u, v)


@given(arc_lists(), arc_lists())
def test_matches_mask_reference(first, second):
    g, ref = OrientedGraph(*first), _MaskOrientedGraph(*first)
    _assert_same_graph(g, ref)
    h = OrientedGraph(*second)
    assert (g == h) == (ref == _MaskOrientedGraph(*second))
    # the same arcs in another order build an equal graph with an equal hash
    n, arcs = first
    same = OrientedGraph(n, reversed(arcs))
    assert same == g and hash(same) == hash(g)


def _first_message(build, n, arcs):
    with pytest.raises(InvariantViolation) as info:
        build(n, arcs)
    return str(info.value)


# each defect is (position, arc) inserted into a valid arc list
DEFECTS = {
    "negative-endpoint": [(1, (-1, 2))],
    "endpoint-equal-to-n": [(2, (3, 6))],
    "loop": [(0, (4, 4))],
    "duplicate": [(3, (0, 1))],
    "anti-parallel": [(3, (1, 0))],
    "loop-then-duplicate": [(1, (2, 2)), (4, (0, 1))],
    "duplicate-then-loop": [(1, (0, 1)), (4, (2, 2))],
    "range-then-anti-parallel": [(1, (0, 7)), (4, (1, 0))],
    "anti-parallel-then-range": [(1, (1, 0)), (4, (0, 7))],
}


@pytest.mark.parametrize("defects", DEFECTS.values(), ids=list(DEFECTS))
def test_defect_messages_match_mask_reference(defects):
    arcs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
    for position, arc in defects:
        arcs.insert(position, arc)
    message = _first_message(_MaskOrientedGraph, 6, arcs)
    assert _first_message(OrientedGraph, 6, arcs) == message
    assert _first_message(OrientedGraph, 6, iter(arcs)) == message


@given(arc_lists(), st.randoms(use_true_random=False))
def test_random_defect_messages_match_mask_reference(valid, rnd):
    n, arcs = valid
    arcs = list(arcs)
    for _ in range(rnd.randint(1, 3)):
        u, v = rnd.randint(-1, n), rnd.randint(-1, n)
        arcs.insert(rnd.randint(0, len(arcs)), (u, v))
    try:
        ref = _MaskOrientedGraph(n, arcs)
    except InvariantViolation as exc:
        assert _first_message(OrientedGraph, n, arcs) == str(exc)
    else:
        _assert_same_graph(OrientedGraph(n, arcs), ref)


# -- in-rows built on first read -----------------------------------------------


def _peeled_core(n, arcs, rnd):
    """The relabelled core of n pendants of degree <= 3 on a 7-vertex
    tournament: the pendants peel and the tournament stays."""
    arcs = [(u + n, v + n) for u, v in random_tournament(7, rnd.randrange(2**32)).arcs()]
    for p in range(n):
        for w in rnd.sample(range(n, n + 7), rnd.randint(0, 3)):
            arcs.append((p, w) if rnd.random() < 0.5 else (w, p))
    core = reduce_graph(OrientedGraph(n + 7, arcs)).core
    assert core.n == 7
    return core


def _strip(n, arcs, rnd):
    g = OrientedGraph(n, arcs)
    return _strip_arcs(g, rnd.sample(range(n), rnd.randint(0, n)))


# each path builds an oriented graph from (n, arcs, rnd); every path but the
# strip, which reads its input's in-rows, leaves the in-rows unbuilt
BUILD_PATHS = {
    "constructor": lambda n, arcs, rnd: OrientedGraph(n, arcs),
    "rows": lambda n, arcs, rnd: OrientedGraph._from_rows(list(OrientedGraph(n, arcs)._out)),
    "masks": lambda n, arcs, rnd: OrientedGraph._from_masks([sum(1 << v for u, v in arcs if u == x) for x in range(n)]),
    "random-orientation": lambda n, arcs, rnd: random_orientation(SimpleGraph(n, arcs), rnd.randrange(2**62)),
    "random-tournament": lambda n, arcs, rnd: random_tournament(n, rnd.randrange(2**62)),
    "toroidal-grid": lambda n, arcs, rnd: toroidal_grid(3 + n % 5, 3 + rnd.randrange(5), rnd.randrange(2**62)),
    "reduced-core": _peeled_core,
    "strip": _strip,
}


@pytest.mark.parametrize("path", sorted(BUILD_PATHS))
@given(arc_lists(), st.randoms(use_true_random=False), st.sampled_from(("_in", "degrees", "neighbours", "rows")))
def test_in_rows_built_on_first_read_match_eager_rows(path, graph, rnd, first):
    g = BUILD_PATHS[path](*graph, rnd)
    assert (g._in_rows is None) == (path != "strip")
    # the eager in-rows: the mask reference's, the ones every graph held at construction before
    ref = _MaskOrientedGraph(g.n, g.arcs())
    eager = [tuple(bits(ref.in_mask(u))) for u in range(g.n)]
    reads = {
        "_in": lambda: g._in,
        "degrees": g.degrees,
        "neighbours": lambda: [g.neighbours(u) for u in range(g.n)],
        "rows": g.neighbour_rows,
    }
    reads[first]()  # whichever read comes first builds the in-rows
    rows = g._in
    assert rows == _transpose(g._out) == eager
    assert g._in is rows  # kept, not rebuilt
    assert g.degrees() == [ref.degree(u) for u in range(g.n)]
    assert [g.neighbours(u) for u in range(g.n)] == [ref.neighbours(u) for u in range(g.n)]
    assert g.neighbour_rows() == [out + inc for out, inc in zip(g._out, eager)]
    assert (g.max_degree(), g.min_degree()) == (max(g.degrees(), default=0), min(g.degrees(), default=0))


def test_writers_leave_the_in_rows_unbuilt():
    g = random_orientation(stacked_triangulation(200, 0), 0)
    text, js = serialize_edge_list(g), graph_to_json(g)
    assert g._in_rows is None
    assert parse_edge_list(text) == graph_from_json(js) == g


@pytest.mark.parametrize(
    "build",
    [lambda: OrientedGraph(10**6, []), lambda: graph_from_json('{"n": 1000000, "arcs": []}')],
    ids=["constructor", "json"],
)
def test_arc_free_graph_at_file_cap_is_small(build):
    # one 8 MB out-row list sharing one empty tuple, beside the constructor's
    # 8 MB list of out-sets, peaks near 16 MiB while the in-rows stay
    # unbuilt; building them adds 8 MB, and a set per vertex would take
    # about 216 MB
    tracemalloc.start()
    try:
        g = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == 10**6 and g.arc_count == 0
    assert peak < 20 * 2**20


class _MaskSimpleGraph:
    """The simple graph as one bitset row per vertex: the reference the
    neighbour-tuple SimpleGraph is pinned against."""

    def __init__(self, n, edges=()):
        if n < 0:
            raise InvariantViolation("vertex count must be non-negative")
        self.n = n
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvariantViolation(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise InvariantViolation(f"loop at vertex {u}")
            if adj[u] >> v & 1:
                raise InvariantViolation(f"duplicate edge ({u},{v})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self._adj = adj

    def has_edge(self, u, v):
        return bool(self._adj[u] >> v & 1)

    def adj_mask(self, u):
        return self._adj[u]

    def neighbours(self, u):
        return list(bits(self._adj[u]))

    def degree(self, u):
        return self._adj[u].bit_count()

    def max_degree(self):
        return max((self.degree(u) for u in range(self.n)), default=0)

    def min_degree(self):
        return min((self.degree(u) for u in range(self.n)), default=0)

    def edges(self):
        return [(u, v) for u in range(self.n) for v in bits(self._adj[u]) if u < v]

    @property
    def edge_count(self):
        return sum(row.bit_count() for row in self._adj) // 2

    def is_complete(self):
        full = (1 << self.n) - 1
        return all(self._adj[u] == full ^ (1 << u) for u in range(self.n))

    def __eq__(self, other):
        return self.n == other.n and self._adj == other._adj


@st.composite
def edge_lists(draw, max_n=8):
    """(n, edges): a random edge set, each edge in either direction, in a
    random order, with up to two bad entries inserted: an endpoint out of
    range, a loop, a duplicate or a reversed duplicate."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [(v, u) if draw(st.booleans()) else (u, v) for (u, v), k in zip(pairs, keep) if k]
    edges = draw(st.permutations(edges))
    ends = st.integers(min_value=-1, max_value=n)
    for kind in draw(st.lists(st.sampled_from(("range", "loop", "duplicate", "reversed")), max_size=2)):
        if kind == "range":
            bad = (draw(st.sampled_from((-1, n))), draw(ends))
        elif kind == "loop":
            bad = (draw(ends),) * 2
        elif edges:
            u, v = draw(st.sampled_from(edges))
            bad = (u, v) if kind == "duplicate" else (v, u)
        else:
            continue
        edges.insert(draw(st.integers(min_value=0, max_value=len(edges))), bad)
    return n, edges


def _built(build, n, edges):
    """The graph, or the type and message of the first error."""
    try:
        return build(n, edges)
    except InvariantViolation as exc:
        return type(exc), str(exc)


@settings(max_examples=200)
@given(edge_lists(), edge_lists())
def test_simple_graph_matches_mask_reference(first, second):
    n, edges = first
    g, ref = _built(SimpleGraph, n, edges), _built(_MaskSimpleGraph, n, edges)
    if isinstance(ref, tuple):
        assert g == ref
        return
    assert g.n == ref.n
    assert g.edges() == ref.edges()
    assert g.edge_count == ref.edge_count
    for u in range(n):
        assert g.neighbours(u) == ref.neighbours(u)
        assert g.degree(u) == ref.degree(u)
        assert g.adj_mask(u) == ref.adj_mask(u)
        for v in range(n):
            assert (v in g.neighbours(u)) == ref.has_edge(u, v)
    assert g.is_complete() == ref.is_complete()
    assert (g.max_degree(), g.min_degree()) == (ref.max_degree(), ref.min_degree())
    other, other_ref = _built(SimpleGraph, *second), _built(_MaskSimpleGraph, *second)
    if not isinstance(other_ref, tuple):
        assert (g == other) == (ref == other_ref)
    # the same edges, reversed and in reverse order, build an equal graph with an equal hash
    same = SimpleGraph(n, [(v, u) for u, v in reversed(edges)])
    assert same == g and hash(same) == hash(g)


def test_generated_graph_memory_is_linear():
    # neighbour tuples peak at about 16 MiB here; n-bit rows took about 49 MiB
    tracemalloc.start()
    try:
        g = random_orientation(stacked_triangulation(2 * 10**4, 0), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.n == 2 * 10**4 and g.arc_count == 3 * 2 * 10**4 - 6
    assert peak < 25 * 2**20


# -- directed square -----------------------------------------------------------


def test_square_of_path_is_triangle(path3):
    sq = directed_square(path3)
    assert sorted(sq.edges()) == [(0, 1), (0, 2), (1, 2)]


def test_square_of_edgeless():
    sq = directed_square(OrientedGraph(4))
    assert sq.edge_count == 0


def test_square_of_consistent_c4():
    c4 = OrientedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert directed_square(c4).is_complete()


@given(seeds, sizes)
def test_square_monotone_under_arc_addition(seed, n):
    g = random_oriented_graph(n, seed, density=0.4)
    base = directed_square(g)
    for u in range(n):
        for v in range(n):
            if u != v and not g.has_arc(u, v) and not g.has_arc(v, u):
                bigger = OrientedGraph(n, g.arcs() + [(u, v)])
                sq = directed_square(bigger)
                assert set(base.edges()) <= set(sq.edges())
                return


# -- oriented cliques ----------------------------------------------------------


def test_transitive_triangle_is_clique():
    assert is_oriented_clique(OrientedGraph(3, [(0, 1), (0, 2), (1, 2)]))


def test_path_is_clique(path3):
    assert is_oriented_clique(path3)


def test_consistent_c5_is_clique():
    # every pair of C5 vertices is joined by an arc or a directed 2-path,
    # confirmed by the all-pairs scan in directed_square
    c5 = OrientedGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert directed_square(c5).is_complete()
    assert is_oriented_clique(c5)


@settings(deadline=None)  # the first example imports networkx
@given(arc_lists(max_n=10))
def test_square_matches_networkx_distances(graph):
    nx = pytest.importorskip("networkx")
    n, arcs = graph
    D = nx.DiGraph()
    D.add_nodes_from(range(n))
    D.add_edges_from(arcs)
    expected = set()
    for u in range(n):
        for w, d in nx.single_source_shortest_path_length(D, u, cutoff=2).items():
            if 1 <= d <= 2:
                expected.add((min(u, w), max(u, w)))
    assert set(directed_square(OrientedGraph(n, arcs)).edges()) == expected


def test_clique_iff_square_complete():
    for seed in range(40):
        g = random_oriented_graph(6, seed, density=0.6)
        assert is_oriented_clique(g) == directed_square(g).is_complete()


# -- degeneracy ordering -------------------------------------------------------


def test_degeneracy_edgeless():
    assert degeneracy_ordering(OrientedGraph(5)).degeneracy == 0


def test_degeneracy_tree():
    tree = OrientedGraph(5, [(0, 1), (0, 2), (1, 3), (3, 4)])
    assert degeneracy_ordering(tree).degeneracy == 1


def test_degeneracy_octahedron():
    # K2,2,2 is 4-regular, so peeling can never see a vertex below degree 4
    non_edges = ({0, 1}, {2, 3}, {4, 5})
    edges = [
        (u, v) for u in range(6) for v in range(u + 1, 6) if {u, v} not in non_edges
    ]
    octa = SimpleGraph(6, edges)
    assert octa.min_degree() == 4
    assert degeneracy_ordering(octa).degeneracy == 4


@given(seeds, sizes)
def test_degeneracy_prefix_property(seed, n):
    g = random_oriented_graph(n, seed)
    ordering = degeneracy_ordering(g)
    backs = back_degrees(g, ordering.order)
    assert max(backs) == ordering.degeneracy
    assert ordering.degeneracy <= g.max_degree()
    assert sorted(ordering.order) == list(range(n))


@given(
    seeds,
    st.integers(min_value=0, max_value=40),
    st.floats(min_value=0.0, max_value=0.8),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_back_degrees_match_reference(seed, n, density, simple, rnd):
    g = random_oriented_graph(n, seed, density)
    if simple:
        g = SimpleGraph(n, g.arcs())
    order = list(degeneracy_ordering(g).order)
    rnd.shuffle(order)
    expected = [sum(1 for u in g.neighbours(v) if u in order[:i]) for i, v in enumerate(order)]
    backs = back_degrees(g, order)
    assert backs == expected and all(type(b) is int for b in backs)


@given(seeds, st.integers(min_value=0, max_value=40), st.floats(min_value=0.05, max_value=0.9), st.booleans())
def test_degeneracy_matches_networkx_core_number(seed, n, density, simple):
    nx = pytest.importorskip("networkx")
    g = random_oriented_graph(n, seed, density)
    if simple:
        g = SimpleGraph(n, g.arcs())
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from((u, v) for u in range(n) for v in g.neighbours(u) if u < v)
    assert degeneracy_ordering(g).degeneracy == max(nx.core_number(G).values(), default=0)


def _naive_degeneracy_ordering(g):
    """Remove the vertex of least (remaining degree, index) until none is left, in O(n^2)."""
    alive = set(range(g.n))
    removal, degeneracy = [], 0
    while alive:
        d, v = min((sum(u in alive for u in g.neighbours(v)), v) for v in alive)
        degeneracy = max(degeneracy, d)
        removal.append(v)
        alive.remove(v)
    return tuple(reversed(removal)), degeneracy


@given(
    seeds,
    st.integers(min_value=0, max_value=40),
    st.floats(min_value=0.0, max_value=0.9),
    st.integers(min_value=0, max_value=5),
    st.booleans(),
)
def test_degeneracy_order_matches_naive_reference(seed, n, density, isolated, simple):
    # ``isolated`` extra vertices with no arcs sit at the top of the labels
    g = OrientedGraph(n + isolated, random_oriented_graph(n, seed, density).arcs())
    if simple:
        g = SimpleGraph(g.n, g.arcs())
    ordering = degeneracy_ordering(g)
    assert (ordering.order, ordering.degeneracy) == _naive_degeneracy_ordering(g)


# -- text and JSON round trips -------------------------------------------------


def test_parse_path():
    g = parse_edge_list("3 2\n0 1\n1 2\n")
    assert g == OrientedGraph(3, [(0, 1), (1, 2)])


def test_parse_comments_and_blanks():
    g = parse_edge_list("# a path\n3 2\n\n0 1  # first arc\n1 2\n")
    assert g.arc_count == 2


def test_parse_antiparallel():
    with pytest.raises(InvariantViolation):
        parse_edge_list("2 2\n0 1\n1 0\n")


def test_parse_bad_header():
    with pytest.raises(ParseError):
        parse_edge_list("3\n0 1\n")


def test_parse_bad_token():
    with pytest.raises(ParseError):
        parse_edge_list("2 1\n0 x\n")


def test_parse_wrong_arc_count():
    with pytest.raises(ParseError):
        parse_edge_list("3 5\n0 1\n1 2\n")


@pytest.mark.parametrize(
    "parse, text",
    [(parse_edge_list, "1000001 0\n"), (graph_from_json, '{"arcs":[],"n":1000001}')],
    ids=["edge-list", "json"],
)
def test_file_vertex_cap(parse, text):
    # a declared vertex count above a million is refused before any allocation
    with pytest.raises(TooLarge):
        parse(text)


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_edge_list, "1" + "0" * 5000 + " 1\n0 1\n"),
        (graph_from_json, '{"n": 1' + "0" * 5000 + ', "arcs": []}'),
    ],
    ids=["edge-list", "json"],
)
def test_file_vertex_cap_past_int_digit_limit(parse, text):
    # int() refuses over 4300 digits; the count is still TooLarge, printed short
    with pytest.raises(TooLarge, match=r"declares 1\.00e\+5000 vertices"):
        parse(text)


def test_file_vertex_count_with_leading_zeros():
    # 5000 zeros make the token too long for int(), not the count too large
    g = parse_edge_list("0" * 5000 + "3 1\n0 1\n")
    assert (g.n, g.arcs()) == (3, [(0, 1)])


@pytest.mark.parametrize(
    "text",
    [
        '{"arcs":[],"n":3.5}',
        '{"arcs":[],"n":true}',
        '{"arcs":[],"n":"3"}',
        '{"arcs":[[0.9,2],[true,3]],"n":4}',
        '{"arcs":[["0",1]],"n":2}',
    ],
    ids=["float-n", "bool-n", "string-n", "float-and-bool-endpoints", "string-endpoint"],
)
def test_json_rejects_non_integers(text):
    with pytest.raises(ParseError):
        graph_from_json(text)


def test_serialize_normalizes():
    text = "3 2\n1 2\n0 1\n"
    assert serialize_edge_list(parse_edge_list(text)) == "3 2\n0 1\n1 2\n"


@given(seeds, sizes)
def test_edge_list_round_trip(seed, n):
    g = random_oriented_graph(n, seed)
    assert parse_edge_list(serialize_edge_list(g)) == g


@given(seeds, sizes)
def test_json_round_trip(seed, n):
    g = random_oriented_graph(n, seed)
    assert graph_from_json(graph_to_json(g)) == g


@given(seeds, st.integers(min_value=3, max_value=10))
def test_random_orientation_keeps_underlying(seed, n):
    from orichrome import planar_sparse_graph

    base = planar_sparse_graph(n, seed)
    g = random_orientation(base, seed)
    assert SimpleGraph(g.n, g.arcs()) == base
