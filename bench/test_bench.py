"""Self-test of the benchmark at toy sizes: python3 -m pytest bench"""

from __future__ import annotations

import json

import pytest

import run

TOY = {
    "stacked": (40, 80, 120),
    "grids": (5, 6),
    "tori": (6, 8, 10),
    "ks": (5, 6),
    "queries": 200,
}


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_prints_with_name_and_unit(workload, trace, capsys):
    outcome, metrics, notes, _ = run.run_workload(workload, 5, 0, trace, TOY)
    result = run.report(workload, trace, outcome, metrics, notes)
    printed = capsys.readouterr().out.splitlines()
    specs = run.metric_specs()["per_layer" if trace else "end_to_end"]
    for spec in specs:
        assert any(
            line.split()[0] == spec["name"] and line.split()[-1] == spec["unit"] for line in printed
        ), spec["name"]
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    assert set(result["metrics"]) == {spec["name"] for spec in specs}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    json.dumps(result)


def test_flipped_image_is_counted_as_failed(lib):
    g = lib.generate.toroidal_grid(5, 5, 1)
    instance = run.colour_instance(lib, "grid-5x5", g, False)
    _, result = run.sample(instance)
    u, v = g.arcs()[0]
    result.mapping[u], result.mapping[v] = result.mapping[v], result.mapping[u]
    outcome = run.Outcome()
    run.check_output(run.Record(instance), result, outcome)
    assert (outcome.attempted, outcome.failed) == (1, 1)


def test_traced_and_untraced_runs_give_the_same_digest():
    for workload in run.WORKLOADS:
        untraced = run.run_workload(workload, 5, 0, False, TOY)[3]
        traced = run.run_workload(workload, 5, 0, True, TOY)[3]
        assert untraced == traced, workload


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_self_times_add_up_to_the_traced_time(workload):
    _, metrics, _, _ = run.run_workload(workload, 5, 0, True, TOY)
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(metrics["trace.traced_s"], rel=1e-9)
