import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orichrome import (
    OrientedGraph,
    bounds_table,
    chi_lower_bound,
    chi_upper_bound,
    clique_order_threshold,
    extremal_clique_order,
    genus_upper_from_edges,
    lambert_w0,
    order_upper_from_min_degree,
)
import orichrome.bounds as bounds_module
from orichrome.errors import DomainError, InvariantViolation, PreconditionViolated


# -- simple counting bounds --------------------------------------------------------


def test_genus_from_edges():
    assert genus_upper_from_edges(7, 21).bound_value == 15
    assert genus_upper_from_edges(1, 0).bound_value == 0
    with pytest.raises(DomainError):
        genus_upper_from_edges(0, 0)


def test_order_from_min_degree():
    assert order_upper_from_min_degree(4, 2).bound_value == 12
    star = OrientedGraph(5, [(0, i) for i in range(1, 5)])
    with pytest.raises(PreconditionViolated):
        order_upper_from_min_degree(4, 2, graph=star)


# -- Lambert W ----------------------------------------------------------------------


def test_w_at_zero_and_e():
    assert lambert_w0(0.0) == 0.0
    assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-12)


def test_w_at_ten():
    assert lambert_w0(10.0) == pytest.approx(1.7455280027, abs=1e-9)


def test_w_domain():
    with pytest.raises(DomainError):
        lambert_w0(-0.5)


@given(st.floats(min_value=1e-6, max_value=1e12, allow_nan=False))
def test_w_defining_equation(x):
    w = lambert_w0(x)
    assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, x)


@given(st.floats(min_value=math.e, max_value=1e12))
def test_w_log_inequality(x):
    assert lambert_w0(x) >= math.log(x) - math.log(math.log(x))


# -- chromatic lower bound ------------------------------------------------------------


def test_chi_lower_values():
    assert chi_lower_bound(11).bound_value == pytest.approx(5.5767418396414214)
    assert chi_lower_bound(100).bound_value == pytest.approx(19.40951835047206)


def test_chi_lower_domain():
    with pytest.raises(DomainError):
        chi_lower_bound(10)


def test_chi_lower_monotone():
    vals = [chi_lower_bound(g).bound_value for g in range(11, 400)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


# -- extremal clique order -------------------------------------------------------------


def test_clique_threshold():
    assert clique_order_threshold(4) == pytest.approx(5.0)
    with pytest.raises(DomainError):
        clique_order_threshold(1)


def test_extremal_values():
    assert extremal_clique_order(11) == 6
    assert extremal_clique_order(100) == 26
    with pytest.raises(DomainError):
        extremal_clique_order(10)


def test_extremal_matches_literal_scan():
    for g in range(11, 1500):
        n = 5
        while clique_order_threshold(n + 1) <= g:
            n += 1
        assert extremal_clique_order(g) == n


def test_extremal_is_the_threshold_optimum():
    for g in (11, 37, 200, 5000, 10**5):
        n = extremal_clique_order(g)
        assert clique_order_threshold(n) <= g < clique_order_threshold(n + 1)


# -- chromatic upper bound ---------------------------------------------------------------


def test_chi_upper_at_genus_2():
    rep = chi_upper_bound(2)
    assert rep.bound_value == pytest.approx(2**40 * 2 * math.log(2))
    assert rep.intermediate == 126 * math.ceil(8**10 * math.log(126))
    assert rep.intermediate <= rep.bound_value


def test_chi_upper_dominates_intermediate_everywhere():
    for g in (2, 3, 5, 10, 100, 10**4, 10**6):
        rep = chi_upper_bound(g)
        assert rep.intermediate <= rep.bound_value


def test_chi_upper_domain():
    with pytest.raises(DomainError):
        chi_upper_bound(1)


def test_upper_bound_construction_check_raises(monkeypatch):
    monkeypatch.setattr(bounds_module, "_HEADLINE_FACTOR", 1)
    with pytest.raises(InvariantViolation):
        chi_upper_bound(2)


# -- CSV table ------------------------------------------------------------------------------


def test_table_shape():
    text = bounds_table(11, 13)
    lines = text.strip().split("\n")
    assert lines[0] == "g,chi_lower,clique_order,chi_upper_intermediate,chi_upper"
    assert len(lines) == 4
    assert lines[1].startswith("11,5.576742,6,")


def test_table_na_below_11():
    text = bounds_table(10, 10)
    row = text.strip().split("\n")[1]
    assert row.split(",")[1] == "NA"
    assert row.split(",")[2] == "NA"


def test_table_domain():
    with pytest.raises(DomainError):
        bounds_table(1, 5)
    with pytest.raises(DomainError):
        bounds_table(5, 4)
