"""In-memory spans around the library calls that cross module boundaries.

``install`` replaces each traced function or method with a wrapper that
records a span, and returns a function that puts the originals back, so
untraced passes run the library's own code unchanged.  Nothing in ``src/``
knows about tracing.

A span is ``[name, start_ns, end_ns, parent, note]``: ``parent`` is the
index of the enclosing span in ``Tracer.spans`` (-1 for a root) and
``note`` is whatever the span's note function extracted from the call's
arguments and result (a count, a size), or None.
"""

from __future__ import annotations

import math
import time
from importlib import import_module


class Tracer:
    """Spans of one process, kept in a list until the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name, fn, args=(), kwargs=None, note=None):
        spans, stack = self.spans, self._stack
        index = len(spans)
        span = [name, 0, 0, stack[-1] if stack else -1, None]
        spans.append(span)
        stack.append(index)
        span[1] = time.perf_counter_ns()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span[2] = time.perf_counter_ns()
            stack.pop()
        if note is not None:
            span[4] = note(args, result)
        return result

    def wrap(self, name, fn, note=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, note)

        return traced


def _note_colour(args, result):
    # the workloads colour into the default LazyTarget; its non-pool
    # vertices are exactly the ones queries minted
    target = result.target
    return {
        "core_size": result.core_size,
        "pool_used": len(result.pool_vertices),
        "lazy_mints": target.vertex_count - len(target.minted(0)),
    }


def _note_reduce(args, result):
    kinds = [step.kind for step in result.steps]
    return {"vertex": kinds.count("remove-vertex"), "edge": kinds.count("remove-edge")}


def _note_psi(args, result):
    return result.palette_size


def _note_query(args, result):
    return len(args[2])


def _note_verify(args, result):
    """Checks a full scan makes: k * C((k-1)N, d) * 2^d, 0 for a witness."""
    if result is not True:
        return 0
    t = args[0]
    outside = (t.k - 1) * t.N
    arity = min(t.d, outside)
    return t.k * math.comb(outside, arity) * (1 << arity)


def _note_json(args, result):
    return len(result)


def traced_calls():
    """(owner, attribute, span name, note) for every traced call.

    These are the names ``orichrome.pipeline`` calls across modules, the
    pipeline's own public stages, and the targets layer's public entry
    points.  ``bits``, ``derive_seed`` and the ``OrientedGraph`` and
    ``LazyTarget`` constructors are left out: they are O(1) per call or a
    generator whose work runs in the caller's frame, so a span would only
    add overhead; their time stays in the caller's self time.
    """
    pipeline = import_module("orichrome.pipeline")
    targets = import_module("orichrome.targets")
    return [
        (pipeline, "colour_surface_graph", "pipeline.colour_surface_graph", _note_colour),
        (pipeline, "reduce_graph", "pipeline.reduce_graph", _note_reduce),
        (pipeline, "discharge_check", "pipeline.discharge_check", None),
        (pipeline, "degeneracy_ordering", "graphs.degeneracy_ordering", None),
        (pipeline, "surface_two_dipath", "dipath.surface_two_dipath", _note_psi),
        (targets.LazyTarget, "query", "targets.lazy_query", _note_query),
        (targets, "sample_full", "targets.sample_full", None),
        (targets, "verify_full", "targets.verify_full", _note_verify),
        (targets, "build_restricted", "targets.build_restricted", None),
        (targets.FullTarget, "__init__", "targets.full_target_init", None),
        (targets.FullTarget, "to_json", "targets.to_json", _note_json),
        (targets.FullTarget, "from_json", "targets.from_json", None),
        (targets.RestrictedTarget, "realizer", "targets.realizer", None),
    ]


def install(tracer: Tracer):
    """Wrap every traced call; return a function that restores them all."""
    saved = []
    for owner, attr, name, note in traced_calls():
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(name, raw.__func__, note))
        else:
            wrapped = tracer.wrap(name, raw, note)
        saved.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall():
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)

    return uninstall


def self_times(spans, offset: int = 0) -> dict[str, float]:
    """Seconds per span name: each span's duration minus its children's.

    ``spans`` is a slice of ``Tracer.spans`` that starts at index ``offset``
    with a root span, so every parent index falls inside it.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        parent = span[3]
        if parent >= 0:
            child_ns[parent - offset] += span[2] - span[1]
    totals: dict[str, float] = {}
    for span, children in zip(spans, child_ns):
        totals[span[0]] = totals.get(span[0], 0.0) + (span[2] - span[1] - children) / 1e9
    return totals
