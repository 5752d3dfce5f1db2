"""Euler-formula and asymptotic bounds for colouring graphs on surfaces.

Everything here is plain double-precision arithmetic with explicit
tolerances; the only exact computation in the package lives in the
discharging ledger (pipeline module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InvariantViolation, NonConvergence, PreconditionViolated

LN2 = math.log(2)
_W_TOL = 1e-12
_W_MAX_ITER = 100
_HEADLINE_FACTOR = 1 << 40
_CLASS_GROWTH = 8**10


@dataclass
class BoundReport:
    """One evaluated bound; ``kind`` says which inputs are meaningful."""

    kind: str
    bound_value: float
    g: int | None = None
    n: int | None = None
    e: int | None = None
    intermediate: float | None = None


def genus_upper_from_edges(n: int, e: int) -> BoundReport:
    """Euler genus bound from average degree: (e/n - 1)*n + 1 = e - n + 1."""
    if n < 1 or e < 0:
        raise DomainError("need n >= 1 and e >= 0")
    return BoundReport(kind="genus_upper", bound_value=float(e - n + 1), n=n, e=e)


def order_upper_from_min_degree(g: int, k: int, graph=None) -> BoundReport:
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
    return BoundReport(kind="order_upper", bound_value=6 * g / k, g=g)


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


def chi_lower_bound(g: int) -> BoundReport:
    """Near-linear lower bound ln(2)(g-1) / (ln(g-1) + ln(ln 2) - ln 2)."""
    if g < 11:
        raise DomainError("lower bound formula needs g >= 11")
    value = LN2 * (g - 1) / (math.log(g - 1) + math.log(LN2) - LN2)
    return BoundReport(kind="chi_lower", bound_value=value, g=g)


def clique_order_threshold(n: int) -> float:
    """Genus needed by the sparse clique construction: (log2(n) - 1)*n + 1."""
    if n < 2:
        raise DomainError("need n >= 2")
    return (math.log2(n) - 1) * n + 1


def extremal_clique_order(g: int) -> int:
    """Greatest n with (log2(n) - 1)*n + 1 <= g, for g >= 11.

    The threshold is strictly increasing for n >= 2, so a local walk from
    the analytic estimate 2*exp(W0((g-1)*ln2/2)) lands on the same value an
    upward scan from n = 5 would.
    """
    if g < 11:
        raise DomainError("clique order selection needs g >= 11")
    estimate = int(2 * math.exp(lambert_w0((g - 1) * LN2 / 2)))
    n = max(5, estimate - 2)
    while clique_order_threshold(n + 1) <= g:
        n += 1
    while n > 5 and clique_order_threshold(n) > g:
        n -= 1
    # g >= 11 makes n = 5 feasible (threshold(5) ~ 7.6), so n is the maximum
    return n


def chi_upper_bound(g: int) -> BoundReport:
    """Headline upper bound 2^40 * g * ln(g) with its construction-size check.

    The construction actually needs (144g-162) * ceil(8^10 * ln(144g-162))
    target vertices; that intermediate is asserted to sit under the headline.
    """
    if g < 2:
        raise DomainError("upper bound needs g >= 2")
    headline = _HEADLINE_FACTOR * g * math.log(g)
    classes = 144 * g - 162
    intermediate = classes * math.ceil(_CLASS_GROWTH * math.log(classes))
    if intermediate > headline:
        raise InvariantViolation(f"construction size {intermediate} exceeds the headline {headline}")
    return BoundReport(
        kind="chi_upper",
        bound_value=headline,
        g=g,
        intermediate=float(intermediate),
    )


def bounds_table(g_min: int, g_max: int) -> str:
    """CSV over a genus range; columns below their domain print NA."""
    if g_min < 2 or g_min > g_max:
        raise DomainError("need 2 <= g_min <= g_max")
    lines = ["g,chi_lower,clique_order,chi_upper_intermediate,chi_upper"]
    for g in range(g_min, g_max + 1):
        upper = chi_upper_bound(g)
        if g < 11:
            lower_text = "NA"
            order_text = "NA"
        else:
            lower_text = f"{chi_lower_bound(g).bound_value:.6f}"
            order_text = str(extremal_clique_order(g))
        lines.append(
            f"{g},{lower_text},{order_text},{int(upper.intermediate)},{upper.bound_value:.6e}"
        )
    return "\n".join(lines) + "\n"
