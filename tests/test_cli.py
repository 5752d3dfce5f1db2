import json

import pytest

from orichrome import (
    OrientedGraph,
    cyclic_k44_target,
    random_tournament,
    serialize_edge_list,
    toroidal_grid,
)
from orichrome.cli import main


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


def test_full_verify_failing_target(capsys, tmp_path):
    t = cyclic_k44_target(2)
    f = tmp_path / "k44d2.json"
    f.write_text(t.to_json())
    code, out, _ = run(capsys, "full", "verify", str(f))
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is False
    assert data["witness"] == {"class": 1, "vertices": [4, 6], "signs": [-1, -1]}


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
    ],
    ids=["missing-key", "not-base64", "truncated-arcs", "zero-class-size"],
)
def test_full_verify_malformed_target(capsys, tmp_path, payload):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(payload))
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


def test_colour_empty_graph(capsys, tmp_path):
    f = tmp_path / "empty.og"
    f.write_text("0 0\n")
    code, out, _ = run(capsys, "colour", str(f), "--g", "2")
    assert code == 0
    data = json.loads(out)
    assert data["valid"] is True
    assert data["colours_used"] == 0


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
