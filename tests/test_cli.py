import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import orichrome
import orichrome.errors
import orichrome.rng
from orichrome import (
    OrientedGraph,
    SimpleGraph,
    random_orientation,
    random_tournament,
    serialize_edge_list,
    toroidal_grid,
)
from orichrome.cli import main

from conftest import cyclic_k44_target

# the package exports the function generate under the submodule's name
generate_module = importlib.import_module("orichrome.generate")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def path_file(tmp_path):
    f = tmp_path / "path.og"
    f.write_text("3 2\n0 1\n1 2\n")
    return str(f)


@pytest.fixture
def hexagon_file(tmp_path, hub_hexagon):
    f = tmp_path / "hex.og"
    f.write_text(serialize_edge_list(hub_hexagon))
    return str(f)


# -- solve -------------------------------------------------------------------


def test_solve_chi2_path(capsys, path_file):
    code, out, _ = run(capsys, "solve", "chi2", path_file)
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 3
    assert len(data["witness"]) == 3


def test_solve_chio_hexagon(capsys, hexagon_file):
    code, out, _ = run(capsys, "solve", "chio", hexagon_file)
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 4


def test_solve_cap_exit(capsys, path_file):
    code, _, err = run(capsys, "solve", "chio", path_file, "--k-max", "8")
    assert code == 2
    assert "CapExceeded" in err


def test_solve_parse_error_exit(capsys, tmp_path):
    bad = tmp_path / "bad.og"
    bad.write_text("not a graph\n")
    code, _, err = run(capsys, "solve", "chio", str(bad))
    assert code == 1
    assert "ParseError" in err


@pytest.mark.parametrize("k_max, value", [("-1", None), ("0", 0)])
def test_solve_chio_empty_graph_respects_k_max(capsys, tmp_path, k_max, value):
    f = tmp_path / "empty.og"
    f.write_text("0 0\n")
    code, out, _ = run(capsys, "solve", "chio", str(f), "--k-max", k_max)
    assert code == 0
    assert json.loads(out)["value"] == value


def test_solve_missing_file_exit(capsys):
    code, _, _ = run(capsys, "solve", "chio", "/nonexistent/zzz.og")
    assert code == 1


# -- full --------------------------------------------------------------------


def test_full_minimal_arity_1(capsys):
    code, out, _ = run(capsys, "full", "minimal", "2", "1")
    assert code == 0
    assert json.loads(out)["N"] == 2


def test_full_minimal_small_cap_finds_nothing(capsys):
    code, out, _ = run(capsys, "full", "minimal", "2", "2", "--n-cap", "4")
    assert code == 0
    assert json.loads(out)["N"] is None


def test_full_minimal_budget_exit(capsys):
    code, _, err = run(capsys, "full", "minimal", "2", "2")
    assert code == 2
    assert "BudgetExceeded" in err


@pytest.mark.parametrize("k, d", [("2", "0"), ("0", "2"), ("-1", "1")])
def test_full_minimal_refuses_k_or_d_below_1(capsys, k, d):
    # refused before the scan, not by math.comb's ValueError or a vacuous N = 1
    code, out, err = run(capsys, "full", "minimal", k, d)
    assert (code, out) == (1, "")
    assert err == "error: DomainError: need k, d >= 1\n"


def test_full_sample_verify_round_trip(capsys, tmp_path):
    target_file = tmp_path / "t.json"
    code, out, _ = run(capsys, "full", "sample", "5", "2", "--seed", "1", "--out", str(target_file))
    assert code == 0
    data = json.loads(out)
    assert data["N"] == 104
    assert data["certified"]

    code, out, _ = run(capsys, "full", "verify", str(target_file))
    assert code == 0
    assert json.loads(out) == {"action": "verify", "verified": True, "witness": None}


def test_full_sample_refuses_before_drawing_a_coin(capsys, monkeypatch):
    # k = 20 needs more verify checks than the budget; a coin drawn at all fails the test
    def refuse(self, count):
        raise AssertionError("sample_full drew coins for a target it cannot verify")

    monkeypatch.setattr(orichrome.rng.SplitMix64, "coin_bits", refuse)
    code, out, err = run(capsys, "full", "sample", "20", "2")
    assert (code, out) == (2, "")
    assert err == "error: BudgetExceeded: verification needs ~532170240 checks, budget 20000000\n"


def test_full_verify_failing_target(capsys, tmp_path):
    t = cyclic_k44_target(2)
    f = tmp_path / "k44d2.json"
    f.write_text(t.to_json())
    code, out, _ = run(capsys, "full", "verify", str(f))
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is False
    assert data["witness"] == {"class": 1, "vertices": [4, 6], "signs": [-1, -1]}


# nested past the depth json.loads can recurse to
DEEP_JSON = '{"n":' + "[" * 100_000


def _k44_payload(**changes):
    payload = json.loads(cyclic_k44_target(2).to_json())
    payload.update(changes)
    return {key: value for key, value in payload.items() if value is not None}


@pytest.mark.parametrize(
    "payload",
    [
        _k44_payload(k=None),
        _k44_payload(arcs="%%%%"),
        _k44_payload(arcs="AAAA"),  # 3 bytes; 28 pairs need 4
        _k44_payload(N=0),
        _k44_payload(certificate=[]),
        _k44_payload(certificate="yes"),
        _k44_payload(certificate={"verified": "false", "verifier_version": "1"}),
        _k44_payload(seed=[1, {"x": 2}]),
        '{"N":4,"arcs":"GAwnAA==","certificate":null,"d":2,"k":2}',
        DEEP_JSON,
    ],
    ids=[
        "missing-key",
        "not-base64",
        "truncated-arcs",
        "zero-class-size",
        "certificate-list",
        "certificate-string",
        "verified-string",
        "seed-list",
        "certificate-null",
        "deep-nesting",
    ],
)
def test_full_verify_malformed_target(capsys, tmp_path, payload):
    f = tmp_path / "bad.json"
    f.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    code, out, err = run(capsys, "full", "verify", str(f))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ParseError: line 1: ")


# -- colour ------------------------------------------------------------------


def test_colour_grid(capsys, tmp_path):
    f = tmp_path / "grid.og"
    f.write_text(serialize_edge_list(toroidal_grid(5, 5, seed=2)))
    code, out, _ = run(capsys, "colour", str(f), "--g", "2")
    assert code == 0
    data = json.loads(out)
    assert data["valid"] is True
    assert data["colours_used"] <= 25


def test_colour_genus_below_2_rejected(capsys, path_file):
    # the pipeline's formulas need g >= 2, so g=1 is a domain error
    code, _, err = run(capsys, "colour", path_file, "--g", "1")
    assert code == 1
    assert "DomainError" in err


def test_colour_impossible_genus_exit(capsys, tmp_path):
    f = tmp_path / "k13.og"
    f.write_text(serialize_edge_list(random_tournament(13, seed=1)))
    code, _, err = run(capsys, "colour", str(f), "--g", "2")
    assert code == 3
    assert "GenusAssumptionViolated" in err


def test_colour_with_stored_target(capsys, tmp_path):
    # replaying a single arc re-inserts two adjacent vertices, which need two
    # distinct free classes, so a 5-class sampled target with 4 free classes
    # is the smallest comfortable stored vehicle
    from orichrome import sample_full

    t = sample_full(5, 2, seed=1)
    tf = tmp_path / "t.json"
    tf.write_text(t.to_json())
    gf = tmp_path / "arc.og"
    gf.write_text(serialize_edge_list(OrientedGraph(2, [(0, 1)])))
    code, out, _ = run(capsys, "colour", str(gf), "--g", "2", "--target-file", str(tf))
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_colour_stored_target_too_small(capsys, tmp_path):
    # a 2-class target leaves a single free class: adjacent replayed vertices
    # cannot get distinct classes, and the run stops at the capacity gate
    t = cyclic_k44_target(1)
    from orichrome import verify_full

    verify_full(t)
    tf = tmp_path / "t.json"
    tf.write_text(t.to_json())
    gf = tmp_path / "arc.og"
    gf.write_text(serialize_edge_list(OrientedGraph(2, [(0, 1)])))
    code, _, err = run(capsys, "colour", str(gf), "--g", "2", "--target-file", str(tf))
    assert code == 2
    assert "CapacityExceeded" in err


def test_colour_stored_target_too_few_free_classes(capsys, tmp_path):
    # the 6x6 toroidal triangulation has no low-degree vertex, so its whole
    # core past the pool is queried by distance-2 colour, and those colours
    # run past the 4 free classes of a 5-class stored target
    from orichrome import sample_full

    r = 6
    edges = []
    for i in range(r):
        for j in range(r):
            v = i * r + j
            right, down = i * r + (j + 1) % r, (i + 1) % r * r + j
            edges += [(v, right), (v, down), (v, (i + 1) % r * r + (j + 1) % r)]
    gf = tmp_path / "torus.og"
    gf.write_text(serialize_edge_list(random_orientation(SimpleGraph(r * r, edges), 0)))
    tf = tmp_path / "t.json"
    tf.write_text(sample_full(5, 2, seed=1).to_json())
    code, out, err = run(
        capsys, "colour", str(gf), "--g", "2", "--target-file", str(tf), "--free-classes", "4"
    )
    assert code == 2
    assert out == ""
    assert "CapacityExceeded" in err


def test_colour_free_classes_needs_target_file(capsys, path_file):
    # the lazy target has no class count to restrict, so the option is refused, not ignored
    code, out, err = run(capsys, "colour", path_file, "--g", "2", "--free-classes", "3")
    assert (code, out) == (1, "")
    assert err == "error: PreconditionViolated: --free-classes needs --target-file\n"


def test_colour_empty_graph(capsys, tmp_path):
    f = tmp_path / "empty.og"
    f.write_text("0 0\n")
    code, out, _ = run(capsys, "colour", str(f), "--g", "2")
    assert code == 0
    data = json.loads(out)
    assert data["valid"] is True
    assert data["colours_used"] == 0


def test_colour_non_integer_json_refused(capsys, tmp_path):
    f = tmp_path / "float.json"
    f.write_text('{"arcs":[],"n":3.5}')
    code, out, err = run(capsys, "colour", str(f), "--g", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ParseError")


def test_colour_deeply_nested_json_refused(capsys, tmp_path):
    f = tmp_path / "deep.json"
    f.write_text(DEEP_JSON)
    code, out, err = run(capsys, "colour", str(f), "--g", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ParseError: line 1: ")


def test_colour_huge_header_refused(capsys, tmp_path):
    # two billion vertices would need about 16 GB of masks
    f = tmp_path / "huge.og"
    f.write_text("2000000000 0\n")
    code, out, err = run(capsys, "colour", str(f), "--g", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: TooLarge")


# -- bounds ------------------------------------------------------------------


def test_bounds_table(capsys):
    code, out, _ = run(capsys, "bounds", "11", "13")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("g,chi_lower")
    assert len(lines) == 4


def test_bounds_na_row(capsys):
    code, out, _ = run(capsys, "bounds", "10", "10")
    assert code == 0
    assert ",NA,NA," in out.strip().split("\n")[1]


def test_bounds_domain_exit(capsys):
    code, _, err = run(capsys, "bounds", "1", "5")
    assert code == 1
    assert "DomainError" in err


# -- gen ---------------------------------------------------------------------


def test_gen_deterministic(capsys):
    code, out1, _ = run(capsys, "gen", "random-oriented", "--n", "8", "--seed", "9")
    assert code == 0
    _, out2, _ = run(capsys, "gen", "random-oriented", "--n", "8", "--seed", "9")
    assert out1 == out2


def test_gen_json_format(capsys):
    code, out, _ = run(capsys, "gen", "toroidal-grid", "--rows", "3", "--cols", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 12
    assert len(data["arcs"]) == 24


def test_gen_env_seed_fallback(capsys, monkeypatch):
    monkeypatch.setenv("ORICHROME_SEED", "9")
    _, out_env, _ = run(capsys, "gen", "random-oriented", "--n", "8")
    monkeypatch.delenv("ORICHROME_SEED")
    _, out_flag, _ = run(capsys, "gen", "random-oriented", "--n", "8", "--seed", "9")
    assert out_env == out_flag


def test_gen_transitive(capsys):
    code, out, _ = run(capsys, "gen", "transitive-tournament", "--n", "3")
    assert code == 0
    assert out == "3 3\n0 1\n0 2\n1 2\n"


@pytest.mark.parametrize("density", ["inf", "nan", "2", "-1", "1.5"])
def test_gen_density_outside_unit_interval(capsys, density):
    code, out, err = run(capsys, "gen", "random-oriented", "--n", "4", "--density", density)
    assert code == 1
    assert out == ""
    assert err.startswith("error: DomainError: density must lie in [0, 1]")


def test_gen_density_bounds_accepted(capsys):
    _, out, _ = run(capsys, "gen", "random-oriented", "--n", "4", "--density", "0")
    assert out == "4 0\n"
    _, out, _ = run(capsys, "gen", "random-oriented", "--n", "4", "--density", "1")
    assert out.startswith("4 6\n")


def test_gen_negative_tournament_size(capsys):
    code, out, err = run(capsys, "gen", "complete-tournament", "--n", "-5")
    assert (code, out) == (1, "")
    assert err == "error: InvariantViolation: vertex count must be non-negative\n"


# every gen kind, each with a size option it needs left out
GEN_WITHOUT_SIZE = {
    "complete-tournament": ("complete-tournament",),
    "transitive-tournament": ("transitive-tournament",),
    "directed-cycle": ("directed-cycle",),
    "toroidal-grid-rows": ("toroidal-grid", "--cols", "3"),
    "toroidal-grid-cols": ("toroidal-grid", "--rows", "3"),
    "stacked-triangulation": ("stacked-triangulation",),
    "planar-sparse": ("planar-sparse",),
    "random-oriented": ("random-oriented", "--density", "0.3"),
}


@pytest.mark.parametrize("argv", GEN_WITHOUT_SIZE.values(), ids=list(GEN_WITHOUT_SIZE))
def test_gen_missing_size_option(capsys, argv):
    code, out, err = run(capsys, "gen", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


# every gen kind one vertex above the graph-file cap, and at the cap
GEN_SIZES = {
    "complete-tournament": ("--n", "{n}"),
    "transitive-tournament": ("--n", "{n}"),
    "directed-cycle": ("--n", "{n}"),
    "toroidal-grid": ("--rows", "{rows}", "--cols", "1000"),
    "stacked-triangulation": ("--n", "{n}"),
    "planar-sparse": ("--n", "{n}"),
    "random-oriented": ("--n", "{n}"),
}
GEN_BUILDERS = (
    "random_tournament",
    "transitive_tournament",
    "directed_cycle",
    "toroidal_grid",
    "toroidal_grid_graph",
    "stacked_triangulation",
    "planar_sparse_graph",
    "random_orientation",
    "random_oriented_graph",
)


@pytest.mark.parametrize("kind", GEN_SIZES)
def test_gen_refuses_oversized_before_building(capsys, monkeypatch, kind):
    # a builder called at all fails the test, so no huge graph is allocated
    def refuse(*args, **kwargs):
        raise AssertionError("a generator ran on an oversized request")

    for name in GEN_BUILDERS:
        monkeypatch.setattr(generate_module, name, refuse)
    argv = [a.format(n=1_000_001, rows=1001) for a in GEN_SIZES[kind]]
    code, out, err = run(capsys, "gen", kind, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: TooLarge: ") and "the limit is 1000000" in err


@pytest.mark.parametrize("kind", GEN_SIZES)
def test_gen_at_the_cap_reaches_the_builder(capsys, monkeypatch, kind):
    # stand-ins return a small graph: the cap itself is admitted
    for name in GEN_BUILDERS:
        monkeypatch.setattr(generate_module, name, lambda *args, **kwargs: OrientedGraph(2, [(0, 1)]))
    argv = [a.format(n=1_000_000, rows=1000) for a in GEN_SIZES[kind]]
    code, out, _ = run(capsys, "gen", kind, *argv)
    assert (code, out) == (0, "2 1\n0 1\n")


# -- command line ---------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [("colour", "g.txt", "--g", "2", "--bogus"), ()],
    ids=["unknown-option", "missing-subcommand"],
)
def test_usage_error_exit_1(capsys, argv):
    # 2 is reserved for a refused budget; a bad command line is bad input
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")


def test_exit_status_per_error_class_matches_readme():
    # README's exit-code bullets name the classes that exit 2 and 3; every
    # other package error exits 1
    statuses = {
        name: cls.exit_status
        for name, cls in inspect.getmembers(orichrome.errors, inspect.isclass)
        if issubclass(cls, orichrome.errors.OrichromeError)
    }
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("Exit codes:", 1)[1].split("\n## ", 1)[0]
    expected = dict.fromkeys(statuses, 1)
    for status, bullet in re.findall(r"^- `(\d)`(.*?)(?=^- `|\Z)", section, re.M | re.S):
        for name in re.findall(r"`([A-Z]\w+)`", bullet):
            expected[name] = int(status)
    assert statuses == expected


def test_help_exit_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: orichrome")


# -- closed stdout -------------------------------------------------------------


def test_selftest_reader_closes_stdout(tmp_path):
    # unbuffered, so the first line arrives while the later criteria still run
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(orichrome.__file__).parents[1]),
        PYTHONUNBUFFERED="1",
    )
    err = tmp_path / "stderr.txt"
    with err.open("wb") as err_file:
        proc = subprocess.Popen(
            [sys.executable, "-m", "orichrome", "selftest", "--seed", "0"],
            stdout=subprocess.PIPE,
            stderr=err_file,
            env=env,
        )
        try:
            assert proc.stdout.readline().startswith(b"criterion 1 ")
            proc.stdout.close()
            assert proc.wait(timeout=120) == 1
        finally:
            proc.kill()
    assert err.read_bytes() == b""
