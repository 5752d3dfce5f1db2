"""Benchmark of the orichrome colouring pipeline and its full targets.

Run from the repository root:

    python3 bench/run.py --workload peel --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --workload all        # every workload, untraced and traced

Workloads (sizes in ``FULL``; why each exists in BENCHMARK.json):

- ``peel``: stacked triangulations and toroidal grids, coloured at genus 2.
  The core peels to empty, so ``reduce_graph`` and the replay dominate.
- ``core``: 6-regular toroidal triangulations at genus 2.  Nothing peels, so
  ``degeneracy_ordering``, pool embedding and ``surface_two_dipath`` run.
- ``targets``: sample, certify, serialise, reload and query full targets.

One process, one caller, a closed loop and no threads: each library call
starts when the previous one has returned.  Every input is derived from
``--seed``.  Each instance runs once, then instances are repeated while they
fit in ``--seconds``; an instance's time is the median of its samples.
Outputs are checked outside the timed region: the first sample of each
instance in full, later samples by comparing their ``to_json`` line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
sample twice, untraced and then with spans around the library calls (see
spans.py), reports per-layer self times and counters, and writes the spans
to ``.bench_out/``.  The last stdout line is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
when any output check failed.

End-to-end times are scaled by a reference loop timed around every sample
(see reference_loop).  bench/layers.json maps each per-layer metric to the
end-to-end metric it should move and records the baseline.  Self-test at toy
sizes: ``python3 -m pytest bench``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

from spans import Tracer, install, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

GENUS = 2
DEFAULT_SEED = 0
SETUP_REPEATS = 9
# About the median time of either reference loop on the machine the
# benchmark was defined on (2-vCPU Xeon at 2.1 GHz, Python 3.11.7); it only
# sets the scale of the reported times.
REF_SECONDS = 0.02
WORKLOADS = ("peel", "core", "targets")

FULL = {
    "stacked": (1000, 2000, 3000),
    "grids": (30, 40),
    "tori": (30, 50, 70),
    "ks": (5, 6, 8),
    "queries": 20000,
}


def load_library() -> SimpleNamespace:
    """Import orichrome's modules from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "orichrome" / "__init__.py").is_file():
        raise SystemExit(f"error: no orichrome package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    lib = SimpleNamespace(
        **{
            name: import_module(f"orichrome.{name}")
            for name in ("dipath", "generate", "graphs", "oracles", "pipeline", "targets")
        }
    )
    if not Path(lib.pipeline.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: orichrome was imported from {lib.pipeline.__file__}, not {src}")
    return lib


_REF_BIG = ((1 << 3000) - 1) // 3


def reference_loop() -> float:
    """Seconds taken by a fixed piece of pure-Python work.

    The machines this runs on are shared, and the speed at which they run
    Python drifts by tens of percent within minutes.  The loop runs before
    and after every timed sample and set-up build.  Each build is divided by
    the mean of its two loop times, and the run's summed work by the median
    of all of them; REF_SECONDS turns the ratios back into seconds.  That
    cancels most of the drift, while a change to the library still moves the
    ratio in full.  The loop mixes what the library spends its time on
    (small-int and dict work, set-bit iteration over a 3000-bit int,
    shift-and-test scans of it) and calls nothing in ``src/``.
    """
    start = time.perf_counter()
    for _ in range(4):
        masks = [0] * 256
        seen = {}
        for i in range(10000):
            j = i * 7919 % 256
            masks[j] |= 1 << i % 1000
            seen[i & 2047] = masks[j].bit_count()
        for _ in range(2):
            m = _REF_BIG
            while m:
                low = m & -m
                m ^= low
        min((u for u in range(3000) if _REF_BIG >> u & 1), key=lambda u: (u * 7919 % 3001, u))
    return time.perf_counter() - start


_MASK64 = (1 << 64) - 1


def target_reference_loop() -> float:
    """reference_loop for the targets workload, whose hot code differs.

    It mixes 64-bit multiply-xor-shift draws setting bits of 500-bit rows
    (sampling), pairwise ANDs of 134-bit masks (verification) and bit
    packing into a bytearray (serialisation).
    """
    start = time.perf_counter()
    x = 0
    rows = [0] * 500
    for i in range(14000):
        x = (x + 0x9E3779B97F4A7C15) & _MASK64
        z = ((x ^ x >> 30) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ z >> 27) * 0x94D049BB133111EB) & _MASK64
        if (z ^ z >> 31) & 1:
            rows[i % 500] |= 1 << i % 499
    masks = [row & ((1 << 134) - 1) for row in rows[:225]]
    full = (1 << 134) - 1
    for j1 in range(225):
        p1 = masks[j1]
        for j2 in range(j1 + 1, 225):
            p2 = masks[j2]
            if not (full ^ p1) & (full ^ p2) or not p1 & p2:
                x += 1
    packed = bytearray(70000 // 8)
    for idx in range(70000):
        if rows[idx % 500] >> idx % 499 & 1:
            packed[idx >> 3] |= 1 << (idx & 7)
    return time.perf_counter() - start


def derive(seed: int, label: str) -> int:
    """Instance seed: independent of the library's own RNG."""
    return int.from_bytes(hashlib.sha256(f"{seed}/{label}".encode()).digest()[:8], "big")


# -- instances ------------------------------------------------------------------


@dataclass
class Instance:
    """One input and what to do with it.

    ``run(timed)`` makes the library calls, each through ``timed(phase, fn)``,
    and returns the output; ``check(output)`` lists what is wrong with it;
    ``line(output)`` is the output's ``to_json`` text for the digest and
    ``size(output)`` its vertex count.  ``slope_phase`` names the phase whose
    time enters the slope, or None.
    """

    label: str
    slope_phase: str | None
    run: Callable
    check: Callable
    line: Callable
    size: Callable


def check_colour(lib, g, result) -> list[str]:
    problems = []
    if not result.valid:
        problems.append("result is not valid")
    if not lib.oracles.validate_homomorphism(g, result.target.to_oriented_graph(), result.mapping):
        problems.append("mapping is not a homomorphism into the target")
    if result.psi_colours is not None:
        psi = {i: result.psi_colours[v] for i, v in enumerate(result.core_vertices)}
        if not lib.dipath.is_valid_two_dipath(result.core, psi):
            problems.append("psi is not a 2-dipath colouring of the core")
    return problems


def colour_instance(lib, label: str, g, in_slope: bool) -> Instance:
    def run(timed):
        return timed("colour", lambda: lib.pipeline.colour_surface_graph(g, GENUS))

    return Instance(
        label,
        "colour" if in_slope else None,
        run,
        lambda result: check_colour(lib, g, result),
        lambda result: result.to_json(),
        lambda result: g.n,
    )


def torus_triangulation(lib, r: int):
    """r x r toroidal grid plus one diagonal per square: 6-regular, Euler genus 2."""
    edges = []
    for i in range(r):
        for j in range(r):
            v = i * r + j
            right, down = i * r + (j + 1) % r, (i + 1) % r * r + j
            diagonal = (i + 1) % r * r + (j + 1) % r
            edges += [(v, right), (v, down), (v, diagonal)]
    return lib.graphs.SimpleGraph(r * r, edges)


def peel_instances(lib, seed: int, scale: dict) -> list[Instance]:
    gen = lib.generate
    out = []
    for n in scale["stacked"]:
        label = f"stacked-{n}"
        tri = gen.stacked_triangulation(n, derive(seed, label))
        g = gen.random_orientation(tri, derive(seed, label + "/orient"))
        out.append(colour_instance(lib, label, g, True))
    for r in scale["grids"]:
        label = f"grid-{r}x{r}"
        out.append(colour_instance(lib, label, gen.toroidal_grid(r, r, derive(seed, label)), False))
    return out


def core_instances(lib, seed: int, scale: dict) -> list[Instance]:
    out = []
    for r in scale["tori"]:
        label = f"torus-{r}x{r}"
        g = lib.generate.random_orientation(torus_triangulation(lib, r), derive(seed, label))
        out.append(colour_instance(lib, label, g, True))
    return out


def raw_queries(seed: int, k: int, count: int) -> list[tuple[int, int, int, int, int]]:
    """(class, draw, draw, sign, sign) per query; draws pick vertices once N is known."""
    rnd = random.Random(seed)
    return [
        (rnd.randrange(1, k), rnd.getrandbits(32), rnd.getrandbits(32), rnd.choice((1, -1)), rnd.choice((1, -1)))
        for _ in range(count)
    ]


def concrete_queries(raw, k: int, N: int) -> list[tuple[int, dict[int, int]]]:
    """Two distinct vertices outside the queried class, with their signs."""
    outside = (k - 1) * N
    stream = []
    for c, d1, d2, s1, s2 in raw:
        i1 = d1 % outside
        i2 = d2 % (outside - 1)
        i2 += i2 >= i1
        u1, u2 = (i if i < (c - 1) * N else i + N for i in (i1, i2))
        stream.append((c, {u1: s1, u2: s2}))
    return stream


def check_target(out) -> list[str]:
    problems = []
    if not out.sampled.certified:
        problems.append("sample_full returned an uncertified target")
    if out.verdict is not True:
        problems.append(f"verify_full rejected the reloaded copy: {out.verdict}")
    if out.loaded.to_json() != out.text:
        problems.append("to_json/from_json round trip is not byte-identical")
    if out.rebuilt.to_oriented_graph().arcs() != out.arcs:
        problems.append("FullTarget built from the arc list differs from the sample")
    for (c, constraints), x in zip(out.stream, out.answers):
        if out.restricted.class_of(x) != c or any(
            out.restricted.orientation(x, u) != sign for u, sign in constraints.items()
        ):
            problems.append(f"realizer answer {x} breaks class {c} constraints {constraints}")
            break
    return problems


def target_instance(lib, seed: int, k: int, queries: int) -> Instance:
    label = f"full-{k}-2"
    raw = raw_queries(derive(seed, label + "/queries"), k, queries)
    targets = lib.targets

    def run(timed):
        sampled = timed("write", lambda: targets.sample_full(k, 2, seed=derive(seed, label)))
        text = timed("write", lambda: sampled.to_json())
        copy = timed("check", lambda: targets.FullTarget.from_json(text))
        copy.certified = False
        verdict = timed("check", lambda: targets.verify_full(copy))
        arcs = sampled.to_oriented_graph().arcs()
        stream = concrete_queries(raw, k, sampled.N)
        loaded = timed("load", lambda: targets.FullTarget.from_json(text))
        rebuilt = timed("load", lambda: targets.FullTarget(k, 2, sampled.N, arcs))
        restricted = timed("load", lambda: targets.build_restricted(loaded, k - 1))
        answers = timed("realize", lambda: [restricted.realizer(c, con) for c, con in stream])
        return SimpleNamespace(
            sampled=sampled, text=text, verdict=verdict, arcs=arcs, stream=stream,
            loaded=loaded, rebuilt=rebuilt, restricted=restricted, answers=answers,
        )

    return Instance(
        label, "write", run, check_target, lambda out: out.text, lambda out: out.sampled.vertex_count
    )


def target_instances(lib, seed: int, scale: dict) -> list[Instance]:
    return [target_instance(lib, seed, k, scale["queries"]) for k in scale["ks"]]


BUILDERS = {"peel": peel_instances, "core": core_instances, "targets": target_instances}
REFERENCES = {"peel": reference_loop, "core": reference_loop, "targets": target_reference_loop}


# -- measuring ------------------------------------------------------------------


class Outcome:
    """Operations attempted and failed; a failure prints its reasons to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {label}: {problem}", file=sys.stderr)


@dataclass
class Record:
    """One instance's samples in this run: phase seconds, the reference-loop
    time around each untraced sample, and the span ranges of traced ones."""

    instance: Instance
    samples: list[dict[str, float]] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)
    traced: list[tuple[int, int]] = field(default_factory=list)
    line: str | None = None
    size: int = 0
    cost: float = 0.0

    def time(self, phase: str | None = None) -> float:
        """Median over untraced samples of one phase, or of the whole sample."""
        return statistics.median(
            sum(p.values()) if phase is None else p.get(phase, 0.0) for p in self.samples
        )


def sample(instance: Instance, tracer: Tracer | None = None):
    phases: dict[str, float] = {}

    def timed(phase, fn):
        start = time.perf_counter()
        out = fn() if tracer is None else tracer.call("bench." + phase, fn)
        phases[phase] = phases.get(phase, 0.0) + time.perf_counter() - start
        return out

    gc.collect()
    return phases, instance.run(timed)


def check_output(record: Record, output, outcome: Outcome) -> None:
    line = record.instance.line(output)
    if record.line is None:
        record.line = line
        record.size = record.instance.size(output)
        problems = record.instance.check(output)
    else:
        problems = [] if line == record.line else ["to_json differs from the first sample"]
    outcome.record(record.instance.label, problems)


def run_once(record: Record, outcome: Outcome, tracer: Tracer | None, reference) -> None:
    start = time.perf_counter()
    before = reference()
    phases, output = sample(record.instance)
    record.samples.append(phases)
    record.refs.append((before + reference()) / 2)
    check_output(record, output, outcome)
    if tracer is not None:
        uninstall = install(tracer)
        offset = len(tracer.spans)
        try:
            _, output = sample(record.instance, tracer)
        finally:
            uninstall()
        record.traced.append((offset, len(tracer.spans)))
        check_output(record, output, outcome)
    record.cost = time.perf_counter() - start


def measure(instances, seconds: float, outcome: Outcome, tracer: Tracer | None, reference) -> list[Record]:
    """Every instance once, then repeats of whichever still fit in the time.

    ``reference`` is the workload's reference loop, run around every sample.
    """
    deadline = time.perf_counter() + seconds
    records = [Record(inst) for inst in instances]
    for record in records:
        run_once(record, outcome, tracer, reference)
    while True:
        ran = False
        for record in records:
            if time.perf_counter() + record.cost <= deadline:
                run_once(record, outcome, tracer, reference)
                ran = True
        if not ran:
            return records


def digest(records: list[Record]) -> str:
    return hashlib.sha256("\n".join(r.line for r in records).encode()).hexdigest()


# -- metrics --------------------------------------------------------------------


def loglog_slope(points) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def end_to_end_metrics(records: list[Record], setup_s: float, ref_s: float) -> dict[str, float]:
    """``setup_s`` is already at reference speed; ``ref_s`` is the run's median reference_loop time."""
    slope_points = [
        (r.size, r.time(r.instance.slope_phase)) for r in records if r.instance.slope_phase
    ]
    return {
        "setup_s": setup_s,
        "work_s": sum(r.time() for r in records) * REF_SECONDS / ref_s,
        "slope": loglog_slope(slope_points),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(lib, records: list[Record], tracer: Tracer, names) -> dict[str, float]:
    """Self times averaged over traced samples; counts from each first traced sample."""
    m = dict.fromkeys(names, 0.0)
    realize_s = 0.0
    arity = lib.pipeline.surface_parameters(GENUS).fullness_arity
    for record in records:
        for offset, end in record.traced:
            spans = tracer.spans[offset:end]
            for name, seconds in self_times(spans, offset).items():
                key = "bench.self_s" if name.startswith("bench.") else name + ".self_s"
                m[key] += seconds / len(record.traced)
            roots = sum(s[2] - s[1] for s in spans if s[3] < 0)
            m["trace.traced_s"] += roots / 1e9 / len(record.traced)
        m["trace.untraced_s"] += statistics.fmean(sum(p.values()) for p in record.samples)

        offset, end = record.traced[0]
        spans = tracer.spans[offset:end]
        for name, start, stop, parent, note in spans:
            if name == "pipeline.colour_surface_graph":
                m["pipeline.core_size"] += note["core_size"]
                m["pipeline.pool_used"] = max(m["pipeline.pool_used"], note["pool_used"])
                m["targets.lazy_mints"] += note["lazy_mints"]
            elif name == "pipeline.reduce_graph":
                m["pipeline.reduce_steps.vertex"] += note["vertex"]
                m["pipeline.reduce_steps.edge"] += note["edge"]
            elif name == "dipath.surface_two_dipath":
                m["dipath.psi_palette"] = max(m["dipath.psi_palette"], note)
            elif name == "targets.lazy_query":
                m["targets.lazy_query.calls"] += 1
                m["targets.lazy_max_constraints"] = max(m["targets.lazy_max_constraints"], note)
                m["targets.lazy_over_arity"] += note > arity
            elif name == "targets.verify_full":
                m["targets.verify_checks"] += note
                m["targets.sample_attempts"] += spans[parent - offset][0] == "targets.sample_full"
            elif name == "targets.to_json":
                m["targets.json_bytes"] += note
            elif name == "targets.realizer":
                m["targets.realizer.calls"] += 1

        m["targets.certify_s"] += record.time("write")
        m["targets.verify_s"] += record.time("check")
        m["targets.load_s"] += record.time("load")
        realize_s += record.time("realize")

    m["trace.overhead_s"] = m["trace.traced_s"] - m["trace.untraced_s"]
    calls = m["targets.lazy_query.calls"]
    m["targets.lazy_reuse_ratio"] = (calls - m["targets.lazy_mints"]) / calls if calls else 0.0
    verify = m["targets.verify_full.self_s"]
    m["targets.verify_checks_per_s"] = m["targets.verify_checks"] / verify if verify else 0.0
    m["targets.realize_per_s"] = m["targets.realizer.calls"] / realize_s if realize_s else 0.0
    return m


def write_trace(tracer: Tracer, workload: str, seed: int) -> Path:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    fields = ("name", "start_ns", "end_ns", "parent", "note")
    with path.open("w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(dict(zip(fields, span)), separators=(",", ":")) + "\n")
    return path


# -- entry point ----------------------------------------------------------------


def metric_specs() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: dict = FULL):
    """Set up, measure and check one workload.

    Returns (outcome, metrics, notes, digest): ``metrics`` holds the
    end-to-end metrics untraced and the per-layer metrics traced; ``notes``
    are extra report lines.
    """
    lib = load_library()
    build, reference = BUILDERS[workload], REFERENCES[workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        before = reference()
        start = time.perf_counter()
        instances = build(lib, seed, scale)
        elapsed = time.perf_counter() - start
        setups.append(elapsed / ((before + reference()) / 2))

    outcome = Outcome()
    tracer = Tracer() if trace else None
    records = measure(instances, seconds, outcome, tracer, reference)
    sha = digest(records)
    notes = [f"sha256 of to_json lines: {sha}"]
    if scale is FULL and seed == DEFAULT_SEED:
        expected = json.loads((BENCH / "digests.json").read_text())[workload]
        outcome.record("digest", [] if sha == expected else [f"digest {sha} != recorded {expected}"])

    specs = metric_specs()
    if trace:
        names = [m["name"] for m in specs["per_layer"]]
        metrics = layer_metrics(lib, records, tracer, names)
        params = lib.pipeline.surface_parameters(GENUS)
        notes.append(
            f"pool used {metrics['pipeline.pool_used']:.0f} of {params.reserved_capacity} reserved slots"
        )
        notes.append(
            f"largest lazy-target constraint set {metrics['targets.lazy_max_constraints']:.0f}"
            f" against fullness arity {params.fullness_arity}"
            + (" -- ABOVE THE ARITY" if metrics["targets.lazy_over_arity"] else "")
        )
        notes.append(f"spans written to {write_trace(tracer, workload, seed).relative_to(ROOT)}")
    else:
        ref_s = statistics.median(x for r in records for x in r.refs)
        metrics = end_to_end_metrics(records, REF_SECONDS * statistics.median(setups), ref_s)
        notes.append(
            f"measured work {sum(r.time() for r in records):.4f} s; reference loop median"
            f" {ref_s:.5f} s, nominal {REF_SECONDS} s"
        )
    notes.append(f"failed_ops {outcome.failed} of {outcome.attempted} operations")
    return outcome, metrics, notes, sha


def report(workload: str, trace: bool, outcome: Outcome, metrics: dict, notes: list[str]) -> dict:
    specs = metric_specs()["per_layer" if trace else "end_to_end"]
    print(f"# {workload} ({'traced, per layer' if trace else 'untraced, end to end'})")
    for spec in specs:
        print(f"{spec['name']:<36} {metrics[spec['name']]:>16.6f} {spec['unit']}")
    for note in notes:
        print(f"# {note}")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in specs},
    }


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            status |= subprocess.run(cmd, check=False).returncode != 0
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        outcome, metrics, notes, _ = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    result = report(args.workload, bool(args.trace), outcome, metrics, notes)
    print(json.dumps(result, separators=(",", ":")))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
