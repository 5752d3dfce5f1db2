import pytest

from orichrome import FullTarget, OrientedGraph
from orichrome.targets import _cyclic_bipartite_target


def cyclic_k44_target(d: int = 2) -> FullTarget:
    """Oriented K_{4,4} whose sign patterns are the cyclic shifts of (+,+,-,-).

    Class 1 holds vertices 0..3, class 2 holds 4..7; vertex i of class 1
    points toward class-2 vertices i and i+1 (cyclically) and receives from
    the other two.  Realizes both signs toward every single outside vertex,
    but misses half the patterns on antipodal pairs, so it certifies at
    arity 1 and fails at arity 2.
    """
    return _cyclic_bipartite_target(4, (0, 1), d)


def pool_arcs(r) -> list[tuple[int, int]]:
    """The arcs installed among a restricted target's pool vertices, sorted,
    read through its orientation."""
    return [(a, b) for a in r.pool for b in r.pool if r.orientation(a, b) == 1]


@pytest.fixture
def hub_hexagon() -> OrientedGraph:
    """Directed 6-cycle with every rim vertex also aiming at a central hub."""
    arcs = [(i, (i + 1) % 6) for i in range(6)] + [(i, 6) for i in range(6)]
    return OrientedGraph(7, arcs)


@pytest.fixture
def path3() -> OrientedGraph:
    return OrientedGraph(3, [(0, 1), (1, 2)])
