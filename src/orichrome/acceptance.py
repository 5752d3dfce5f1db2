"""Executable acceptance criteria, shared by the test suite and selftest.

Each criterion returns a CriterionResult whose ``report`` field is a
canonical JSON string with no timing data: repeating a criterion with the
same seed must reproduce the report byte for byte.
"""

from __future__ import annotations

import functools
import hashlib
import math
import time
from dataclasses import dataclass

from .bounds import chi_lower_bound, extremal_clique_order, lambert_w0, surface_parameters
from .dipath import greedy_two_dipath, is_valid_two_dipath, two_dipath_palette_bound
from .errors import OrichromeError
from .generate import all_oriented_graphs, generate, random_oriented_graph
from .graphs import canonical_json, degeneracy_ordering, is_oriented_clique
from .oracles import (
    exact_oriented_chromatic,
    exact_two_dipath,
    min_edge_oriented_clique,
    validate_homomorphism,
)
from .pipeline import PipelineResult, colour_surface_graph
from .rng import derive_seed
from .targets import (
    cyclic_k66_target,
    failure_probability_bound,
    minimal_full_N,
    sample_full,
    verify_full,
)

DEFAULT_SEED = 0
_DENSITIES = (0.15, 0.3, 0.5, 0.8)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    report: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number} {status}: {self.name} ({self.detail})"


def criterion_1(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Bundled 6+6 target certifies at arity 2 and no smaller class size can.

    Class sizes up to 3 are refuted by exhaustion, 4 and 5 by the
    covering-array bound: a class's N x N sign matrix is a binary covering
    array of strength 2, which has at most C(N-1, ceil(N/2)) columns
    (Kleitman & Spencer 1973; Katona 1973).
    """
    t0 = time.perf_counter()
    target = cyclic_k66_target()
    res = verify_full(target)
    verified = res is True
    witness = None if verified else res.to_dict()
    n_small = minimal_full_N(2, 2, n_cap=3)
    elapsed = time.perf_counter() - t0
    passed = verified and n_small is None and elapsed < 1.0
    sizes = "class size <= 3 infeasible by exhaustion, 4 and 5 by the covering-array bound"
    if verified:
        detail = f"bundled 6+6 target certified at arity 2; {sizes}"
    else:
        detail = (
            f"bundled target misses pattern {tuple(witness['signs'])} on pair "
            f"{tuple(witness['vertices'])}; {sizes}"
        )
    report = canonical_json(
        {
            "bundled_target_certified": verified,
            "witness": witness,
            "smallest_class_size_up_to_3": n_small,
        }
    )
    return CriterionResult(1, "bundled arity-2 target verifies", passed, detail, report, elapsed)


def _sample_one(k: int, seed: int) -> tuple[dict, float, bool]:
    t0 = time.perf_counter()
    t = sample_full(k, 2, seed=derive_seed(seed, 0xAC2, k))
    elapsed = time.perf_counter() - t0
    bound = failure_probability_bound(k, 2, t.N)
    entry = {
        "k": k,
        "d": 2,
        "N": t.N,
        "certified": t.certified,
        "failure_bound": bound,
        "sha256": hashlib.sha256(t.to_json().encode("ascii")).hexdigest(),
    }
    formula = math.ceil(8**2 * math.log(k))
    ok = t.certified and t.N == formula and bound < 1e-4 and elapsed < 60.0
    return entry, elapsed, ok


def criterion_2(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Las Vegas sampler succeeds at (5,2) and (6,2) with the formula N."""
    t0 = time.perf_counter()
    entry5, _, ok5 = _sample_one(5, seed)
    entry6, _, ok6 = _sample_one(6, seed)
    elapsed = time.perf_counter() - t0
    passed = ok5 and ok6
    detail = (
        f"N(5,2)={entry5['N']}, N(6,2)={entry6['N']}, failure bounds "
        f"{entry5['failure_bound']:.2e}/{entry6['failure_bound']:.2e}"
    )
    report = canonical_json({"k5": entry5, "k6": entry6})
    return CriterionResult(2, "random target sampler at desk scale", passed, detail, report, elapsed)


def criterion_3(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Greedy distance-2 palette never exceeds 2d*D - D - d^2 + d + 1."""
    t0 = time.perf_counter()
    violations = 0
    invalid = 0
    max_palette = 0
    for i in range(500):
        n = 3 + (i * 7) % 58
        g = random_oriented_graph(
            n, derive_seed(seed, 0xAC3, i), density=_DENSITIES[i % 4]
        )
        ordering = degeneracy_ordering(g)
        colouring = greedy_two_dipath(g, ordering)
        bound = two_dipath_palette_bound(ordering.degeneracy, g.max_degree())
        if colouring.palette_size > bound:
            violations += 1
        if not is_valid_two_dipath(g, colouring.colours):
            invalid += 1
        max_palette = max(max_palette, colouring.palette_size)
    elapsed = time.perf_counter() - t0
    passed = violations == 0 and invalid == 0 and elapsed < 30.0
    detail = f"500 instances, {violations} bound violations, {invalid} invalid colourings"
    report = canonical_json(
        {"instances": 500, "violations": violations, "invalid": invalid, "max_palette": max_palette}
    )
    return CriterionResult(3, "greedy distance-2 palette bound", passed, detail, report, elapsed)


def criterion_4(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Exact solvers agree: chi2 <= chio, and chio = n exactly on cliques."""
    t0 = time.perf_counter()
    checked = 0
    sandwich_bad = 0
    clique_bad = 0
    witness_bad = 0

    def check(g):
        nonlocal checked, sandwich_bad, clique_bad, witness_bad
        checked += 1
        co = exact_oriented_chromatic(g)
        c2 = exact_two_dipath(g)
        if c2.value > co.value:
            sandwich_bad += 1
        if (co.value == g.n) != is_oriented_clique(g):
            clique_bad += 1
        if co.target is not None and not validate_homomorphism(g, co.target, co.witness):
            witness_bad += 1
        if not is_valid_two_dipath(g, c2.witness):
            witness_bad += 1

    for n in range(1, 5):
        for g in all_oriented_graphs(n):
            check(g)
    for i in range(2000):
        check(random_oriented_graph(5, derive_seed(seed, 0xAC4, i), density=_DENSITIES[i % 4]))
    elapsed = time.perf_counter() - t0
    passed = sandwich_bad == 0 and clique_bad == 0 and witness_bad == 0 and elapsed < 300.0
    detail = f"{checked} graphs, {sandwich_bad + clique_bad + witness_bad} oracle disagreements"
    report = canonical_json(
        {
            "checked": checked,
            "sandwich_violations": sandwich_bad,
            "clique_mismatches": clique_bad,
            "witness_failures": witness_bad,
        }
    )
    return CriterionResult(4, "oracle sandwich and clique characterization", passed, detail, report, elapsed)


def criterion_5(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Frozen sparse-clique sizes f(3)=2, f(4)=4; 5-vertex witness within 11 arcs."""
    t0 = time.perf_counter()
    f3 = min_edge_oriented_clique(3)
    f4 = min_edge_oriented_clique(4)
    w5 = min_edge_oriented_clique(5, edge_budget=11)
    witness_ok = (
        w5 is not None
        and w5.witness.arc_count <= 11
        and is_oriented_clique(w5.witness)
    )
    elapsed = time.perf_counter() - t0
    passed = f3.value == 2 and f4.value == 4 and witness_ok and elapsed < 120.0
    detail = (
        f"f(3)={f3.value}, f(4)={f4.value}, "
        f"5-vertex witness arcs={w5.witness.arc_count if w5 else None}"
    )
    report = canonical_json(
        {
            "f3": f3.value,
            "f4": f4.value,
            "witness5_arcs": w5.witness.arc_count if w5 else None,
            "witness5_value": w5.value if w5 else None,
        }
    )
    return CriterionResult(5, "minimum-arc oriented cliques", passed, detail, report, elapsed)


def criterion_6(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Numeric chain: clique order beats the lower-bound formula; W0 contract."""
    t0 = time.perf_counter()
    chain_bad = 0
    for g in range(11, 100001):
        n = extremal_clique_order(g)
        low = chi_lower_bound(g)
        if not n > low - 1:
            chain_bad += 1
    residual_bad = 0
    inequality_bad = 0
    top = math.log(1e9)
    for i in range(1000):
        x = math.exp(1 + i * (top - 1) / 999)
        w = lambert_w0(x)
        if abs(w * math.exp(w) - x) > 1e-12 * max(1.0, x):
            residual_bad += 1
        if w < math.log(x) - math.log(math.log(x)):
            inequality_bad += 1
    elapsed = time.perf_counter() - t0
    passed = chain_bad == 0 and residual_bad == 0 and inequality_bad == 0 and elapsed < 10.0
    detail = (
        f"genus 11..100000 chain violations {chain_bad}; "
        f"W0 residual/inequality failures {residual_bad}/{inequality_bad}"
    )
    report = canonical_json(
        {
            "genus_checked": 99990,
            "chain_violations": chain_bad,
            "w_samples": 1000,
            "residual_failures": residual_bad,
            "inequality_failures": inequality_bad,
        }
    )
    return CriterionResult(6, "lower-bound numeric chain and W0 contract", passed, detail, report, elapsed)


_FAMILIES = ("toroidal-grid", "stacked-triangulation", "planar-sparse")


def _batch_instances(seed: int):
    for i in range(200):
        family = _FAMILIES[i % 3]
        genus = 2 + (i % 4)
        s = derive_seed(seed, 0xAC7, i)
        if family == "toroidal-grid":
            size = {"rows": 3 + (i // 3) % 12, "cols": 3 + (i // 5) % 14}
        elif family == "stacked-triangulation":
            size = {"n": 20 + (i * 3) % 281}
        else:
            size = {"n": 10 + (i * 7) % 291}
        g = generate(family, seed=s, **size)
        yield i, family, genus, g, size


def class_layout_ok(res: PipelineResult) -> bool:
    """The pool in class 0 and later core vertices in their psi class, read at
    their core-time images; every replayed vertex in a free class, at its final one."""
    class_of, core_images = res.target.class_of, res.core_images
    expected = (res.psi_colours or {}) | dict.fromkeys(res.pool_vertices, 0)
    return {v: class_of(x) for v, x in core_images.items()} == expected and all(
        class_of(x) >= 1 for v, x in res.mapping.items() if v not in core_images
    )


@functools.cache
def run_pipeline_batch(seed: int) -> list[dict]:
    """Colour the 200-instance corpus; records are reused by criteria 7 and 8."""
    records = []
    for i, family, genus, g, size in _batch_instances(seed):
        entry = {"index": i, "family": family, "genus": genus, "vertices": g.n}
        entry.update(size)
        try:
            res = colour_surface_graph(g, genus)
        except OrichromeError as exc:
            entry["valid"] = False
            entry["error"] = type(exc).__name__
            records.append({"entry": entry, "result": None})
            continue
        entry.update(
            {
                "valid": res.valid,
                "structure_ok": class_layout_ok(res),
                "colours_used": res.colours_used,
                "reduction_steps": res.reduction_steps,
                "core_size": res.core_size,
                "psi_palette": res.psi_palette,
                "debug_checks": res.debug_checks,
            }
        )
        records.append({"entry": entry, "result": res})
    return records


def criterion_7(seed: int = DEFAULT_SEED) -> CriterionResult:
    """200 bounded-genus inputs all colour validly with enforced class layout."""
    t0 = time.perf_counter()
    records = run_pipeline_batch(seed)
    invalid = sum(1 for r in records if not r["entry"].get("valid"))
    structure_bad = sum(
        1 for r in records if r["result"] is not None and not r["entry"]["structure_ok"]
    )
    elapsed = time.perf_counter() - t0
    passed = invalid == 0 and structure_bad == 0 and elapsed < 300.0
    detail = f"200 instances, {invalid} invalid, {structure_bad} class-structure breaks"
    report = canonical_json([r["entry"] for r in records])
    return CriterionResult(7, "surface pipeline soundness", passed, detail, report, elapsed)


def criterion_8(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Discharging on every core from criterion 7: exact, nonnegative, degree-capped.

    Reads the ledgers the criterion 7 runs recorded; a run that ended in an
    error has no ledger to check and fails this criterion.
    """
    t0 = time.perf_counter()
    records = run_pipeline_batch(seed)
    missing = 0
    nonempty = 0
    conservation_bad = 0
    negative_bad = 0
    degree_bad = 0
    for r in records:
        res = r["result"]
        if res is None:
            missing += 1
            continue
        if res.core_size == 0:
            continue
        nonempty += 1
        if not res.ledger.conservation_ok():
            conservation_bad += 1
        if any(c < 0 for c in res.ledger.final.values()):
            negative_bad += 1
        if res.core.max_degree() > surface_parameters(res.genus).core_degree_limit:
            degree_bad += 1
    elapsed = time.perf_counter() - t0
    passed = missing == 0 and conservation_bad == 0 and negative_bad == 0 and degree_bad == 0
    detail = (
        f"{nonempty} nonempty cores of {len(records)}, "
        f"{conservation_bad + negative_bad + degree_bad} charge/degree failures"
    )
    if missing:
        detail += f", {missing} runs without a result"
    report = canonical_json(
        {
            "cores": len(records),
            "nonempty_cores": nonempty,
            "conservation_violations": conservation_bad,
            "negative_charges": negative_bad,
            "degree_cap_violations": degree_bad,
        }
    )
    return CriterionResult(8, "discharging ledger on reduced cores", passed, detail, report, elapsed)


def criterion_9(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Criteria 2 and 7 reports are byte-identical across repeat runs."""
    t0 = time.perf_counter()
    sampler_same = criterion_2(seed).report == criterion_2(seed).report
    # the first criterion 7 run may come from the batch cache; the rerun is fresh
    first = criterion_7(seed).report
    run_pipeline_batch.cache_clear()
    pipeline_same = first == criterion_7(seed).report
    elapsed = time.perf_counter() - t0
    passed = sampler_same and pipeline_same
    detail = f"sampler identical: {sampler_same}; pipeline identical: {pipeline_same}"
    report = canonical_json(
        {"sampler_reports_identical": sampler_same, "pipeline_reports_identical": pipeline_same}
    )
    return CriterionResult(9, "byte-identical reruns", passed, detail, report, elapsed)


def run_all(seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    """Run criteria 1..9 in order, printing one PASS/FAIL line per criterion."""
    results = []
    for fn in (
        criterion_1,
        criterion_2,
        criterion_3,
        criterion_4,
        criterion_5,
        criterion_6,
        criterion_7,
        criterion_8,
        criterion_9,
    ):
        res = fn(seed)
        results.append(res)
        print(res.line())
    return results
