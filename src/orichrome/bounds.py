"""Euler-formula and asymptotic bounds for colouring graphs on surfaces.

Everything here is plain double-precision arithmetic with explicit
tolerances; the only exact computation in the package lives in the
discharging ledger (pipeline module).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain

from .errors import DomainError, InvariantViolation, NonConvergence, PreconditionViolated

LN2 = math.log(2)
_W_TOL = 1e-12
_W_MAX_ITER = 100
_HEADLINE_FACTOR = 1 << 40


@dataclass(frozen=True)
class SurfaceParameters:
    """Every genus-g number the surface construction uses, in one place."""

    genus: int
    free_classes: int
    reserved_capacity: int
    total_classes: int
    core_degree_limit: int
    strip_size: int
    back_degree_limit: int
    fullness_arity: int


def surface_parameters(genus: int) -> SurfaceParameters:
    if genus < 2:
        raise DomainError("surface machinery needs genus >= 2")
    return SurfaceParameters(
        genus=genus,
        free_classes=138 * genus - 162,
        reserved_capacity=6 * genus,
        total_classes=144 * genus - 162,
        core_degree_limit=12 * genus - 12,
        strip_size=6 * genus - 1,
        back_degree_limit=6,
        fullness_arity=10,
    )


def genus_upper_from_edges(n: int, e: int) -> float:
    """Euler genus bound from average degree: (e/n - 1)*n + 1 = e - n + 1."""
    if n < 1 or e < 0:
        raise DomainError("need n >= 1 and e >= 0")
    return float(e - n + 1)


def order_upper_from_min_degree(g: int, k: int, graph=None) -> float:
    """Strict order bound 6g/k for genus-g graphs with min degree >= k+6.

    When a graph is supplied its min degree is checked against the
    hypothesis; the bound is meaningless otherwise.
    """
    if g < 2 or k < 1:
        raise DomainError("need g >= 2 and k >= 1")
    if graph is not None and graph.min_degree() < k + 6:
        raise PreconditionViolated(
            f"min degree {graph.min_degree()} below the hypothesis k+6 = {k + 6}"
        )
    return 6 * g / k


def lambert_w0(x: float) -> float:
    """Principal branch of y*e^y = x for x >= 0, by Newton iteration.

    Starting from y0 = ln(1+x) >= W0(x) the iteration decreases
    monotonically, so the result never undershoots the true value by more
    than the final-step rounding.  Residual contract:
    |y*e^y - x| <= 1e-12 * max(1, x).
    """
    if x < 0:
        raise DomainError("defined for x >= 0 only")
    if x == 0:
        return 0.0
    tol = _W_TOL * max(1.0, x)
    y = math.log1p(x)
    for _ in range(_W_MAX_ITER):
        ey = math.exp(y)
        residual = y * ey - x
        if abs(residual) <= tol:
            return y
        y -= residual / (ey * (1.0 + y))
    raise NonConvergence(f"no convergence for x = {x!r}")


def chi_lower_bound(g: int) -> float:
    """Near-linear lower bound ln(2)(g-1) / (ln(g-1) + ln(ln 2) - ln 2)."""
    if g < 11:
        raise DomainError("lower bound formula needs g >= 11")
    return LN2 * (g - 1) / (math.log(g - 1) + math.log(LN2) - LN2)


def clique_order_threshold(n: int) -> float:
    """Genus needed by the sparse clique construction: (log2(n) - 1)*n + 1."""
    if n < 2:
        raise DomainError("need n >= 2")
    return (math.log2(n) - 1) * n + 1


def _last(holds, lo: int, hi: int) -> int:
    """Greatest n in [lo, hi) with ``holds(n)``, by bisection; ``holds`` is monotone, true at lo, false at hi."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return lo


def extremal_clique_order(g: int) -> int:
    """Greatest n with (log2(n) - 1)*n + 1 <= g, for g >= 11.

    The threshold never falls as n grows, in floats too, and passes n from
    n = 5 on, so it is found between n = 5 (threshold ~ 7.6 <= g) and n = g in
    about log2(g) bisection steps.
    """
    if g < 11:
        raise DomainError("clique order selection needs g >= 11")
    return _last(lambda n: clique_order_threshold(n) <= g, 5, g)


def _headline(g: int) -> float:
    return _HEADLINE_FACTOR * g * math.log(g)


# the headline is the first bound to leave the doubles; 2^40 * 2^975 is still a float
MAX_GENUS = _last(lambda g: math.isfinite(_headline(g)), 2, 1 << 975)


def chi_upper_bound(g: int) -> tuple[float, float]:
    """``(headline, construction_size)``: the upper bound 2^40 * g * ln(g) and
    the target size the construction actually needs.

    That size is (144g-162) * ceil(8^10 * ln(144g-162)), 8^10 coming from
    fullness arity 10, and is asserted to sit under the headline.  It is
    returned as a float, as the headline is: from g ~ 10^5 it exceeds 2^53.
    Above MAX_GENUS, about 2.42e293, the headline is no double: DomainError.
    """
    params = surface_parameters(g)
    if g > MAX_GENUS:
        raise DomainError(f"2^40 g ln g is a finite double only up to g = {MAX_GENUS:.6e}")
    headline = _headline(g)
    classes = params.total_classes
    intermediate = classes * math.ceil(8**params.fullness_arity * math.log(classes))
    if intermediate > headline:
        raise InvariantViolation(f"construction size {intermediate} exceeds the headline {headline}")
    return headline, float(intermediate)


def _bounds_row(g: int) -> str:
    headline, construction_size = chi_upper_bound(g)
    if g < 11:
        lower_text = "NA"
        order_text = "NA"
    else:
        lower_text = f"{chi_lower_bound(g):.6f}"
        order_text = str(extremal_clique_order(g))
    return f"{g},{lower_text},{order_text},{int(construction_size)},{headline:.6e}\n"


def bounds_rows(g_min: int, g_max: int) -> Iterator[str]:
    """The lines of bounds_table, each computed as it is read.

    The range is checked first, so a refused range yields no line.
    """
    if g_min < 2 or g_min > g_max:
        raise DomainError("need 2 <= g_min <= g_max")
    chi_upper_bound(g_max)  # DomainError here, not mid-table, past MAX_GENUS
    header = "g,chi_lower,clique_order,chi_upper_intermediate,chi_upper\n"
    return chain([header], map(_bounds_row, range(g_min, g_max + 1)))


def bounds_table(g_min: int, g_max: int) -> str:
    """CSV over a genus range; columns below their domain print NA."""
    return "".join(bounds_rows(g_min, g_max))
