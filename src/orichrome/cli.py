"""Command-line front end.

stdout carries machine-readable data only (canonical JSON or CSV); stderr
carries diagnostics.  Exit codes: 0 success, 1 bad input, a bad command line
or a broken invariant (or the reader closed stdout early, which prints
nothing), 2 resource cap or budget refused the work, 3 the asserted genus was
detected to be impossible for the input graph; each package error class
declares its own status as ``exit_status``.
"""

from __future__ import annotations

import argparse
import os
import sys

from .acceptance import run_all
from .bounds import bounds_table
from .errors import OrichromeError, PreconditionViolated
from .generate import _TOURNAMENT_CAP, GEN_KINDS, generate
from .graphs import canonical_json, graph_from_json, graph_to_json, parse_edge_list, serialize_edge_list
from .oracles import exact_oriented_chromatic, exact_two_dipath
from .pipeline import colour_surface_graph
from .targets import (
    FullTarget,
    RestrictedTarget,
    failure_probability_bound,
    minimal_full_N,
    sample_full,
    verify_full,
)


def _emit(obj) -> None:
    sys.stdout.write(canonical_json(obj) + "\n")


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    return int(os.environ.get("ORICHROME_SEED", "0"))


def _read_graph(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return graph_from_json(text)
    return parse_edge_list(text)


# -- subcommand bodies ---------------------------------------------------------


def _cmd_solve(args) -> int:
    g = _read_graph(args.input)
    if args.which == "chio":
        res = exact_oriented_chromatic(g, k_max=args.k_max)
        if res is None:
            _emit({"which": "chio", "value": None, "k_max": args.k_max})
            return 0
        report = {
            "which": "chio",
            "value": res.value,
            "witness": {str(v): c for v, c in res.witness.items()},
            "target_arcs": res.target.arcs(),
        }
    else:
        res = exact_two_dipath(g)
        report = {
            "which": "chi2",
            "value": res.value,
            "witness": {str(v): c for v, c in res.witness.items()},
        }
    _emit(report)
    return 0


def _cmd_full(args) -> int:
    if args.action == "sample":
        seed = _resolve_seed(args.seed)
        t = sample_full(args.k, args.d, seed=seed)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(t.to_json() + "\n")
        _emit(
            {
                "action": "sample",
                "k": t.k,
                "d": t.d,
                "N": t.N,
                "certified": t.certified,
                "failure_bound": failure_probability_bound(t.k, t.d, t.N),
                "out": args.out,
            }
        )
        return 0
    if args.action == "verify":
        with open(args.target, "r", encoding="utf-8") as fh:
            t = FullTarget.from_json(fh.read())
        res = verify_full(t)
        witness = None if res is True else res.to_dict()
        _emit({"action": "verify", "verified": res is True, "witness": witness})
        return 0
    n = minimal_full_N(args.k, args.d, n_cap=args.n_cap)
    _emit({"action": "minimal", "k": args.k, "d": args.d, "n_cap": args.n_cap, "N": n})
    return 0


def _cmd_colour(args) -> int:
    if args.free_classes is not None and not args.target_file:
        raise PreconditionViolated("--free-classes needs --target-file")
    g = _read_graph(args.input)
    target = None
    if args.target_file:
        with open(args.target_file, "r", encoding="utf-8") as fh:
            base = FullTarget.from_json(fh.read())
        free = args.free_classes if args.free_classes is not None else base.k - 1
        target = RestrictedTarget(base, free)
    res = colour_surface_graph(g, args.g, target=target)
    sys.stdout.write(res.to_json() + "\n")
    return 0


def _cmd_bounds(args) -> int:
    sys.stdout.write(bounds_table(args.g_min, args.g_max))
    return 0


def _cmd_gen(args) -> int:
    params = {}
    for key in ("n", "rows", "cols", "density"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    g = generate(args.kind, seed=_resolve_seed(args.seed), **params)
    if args.format == "json":
        sys.stdout.write(graph_to_json(g) + "\n")
    else:
        sys.stdout.write(serialize_edge_list(g))
    return 0


def _cmd_selftest(args) -> int:
    results = run_all(_resolve_seed(args.seed))
    return 0 if all(r.passed for r in results) else 1


# -- parser ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a bad command line, the code for a refused budget
    here; raise instead, so main reports it as bad input with exit 1."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _add_seed(p) -> None:
    p.add_argument("--seed", type=int, default=None, help="RNG seed (fallback: ORICHROME_SEED)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="orichrome",
        description="Oriented colouring toolkit: exact solvers, target samplers, surface pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="exact oriented or distance-2 chromatic number")
    p.add_argument("which", choices=("chio", "chi2"))
    p.add_argument("input", help="graph file (edge list or JSON)")
    p.add_argument("--k-max", type=int, default=_TOURNAMENT_CAP, dest="k_max")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("full", help="sample, verify, or minimize multipartite targets")
    act = p.add_subparsers(dest="action", required=True)
    ps = act.add_parser("sample")
    ps.add_argument("k", type=int)
    ps.add_argument("d", type=int)
    ps.add_argument("--out", default=None, help="write the certified target here")
    _add_seed(ps)
    pv = act.add_parser("verify")
    pv.add_argument("target", help="target JSON file")
    pm = act.add_parser("minimal")
    pm.add_argument("k", type=int)
    pm.add_argument("d", type=int)
    pm.add_argument("--n-cap", type=int, default=6, dest="n_cap")
    p.set_defaults(fn=_cmd_full)

    p = sub.add_parser("colour", help="surface colouring pipeline")
    p.add_argument("input", help="graph file (edge list or JSON)")
    p.add_argument("--g", type=int, required=True, help="asserted Euler genus bound")
    p.add_argument("--target-file", default=None, help="use a stored target instead of lazy")
    p.add_argument("--free-classes", type=int, default=None)
    p.set_defaults(fn=_cmd_colour)

    p = sub.add_parser("bounds", help="CSV table of genus bounds")
    p.add_argument("g_min", type=int)
    p.add_argument("g_max", type=int)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("gen", help="emit a generated graph")
    p.add_argument("kind", choices=GEN_KINDS)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--cols", type=int, default=None)
    p.add_argument("--density", type=float, default=None)
    p.add_argument("--format", choices=("edges", "json"), default="edges")
    _add_seed(p)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    _add_seed(p)
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    try:
        status = args.fn(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at shutdown
        return status
    except BrokenPipeError:
        # the reader closed stdout: as in the SIGPIPE note of the signal
        # docs, point it at devnull so the exit flush stays quiet, and exit 1
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except OrichromeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_status
    except (OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
