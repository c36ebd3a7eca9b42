"""Tests of the benchmark's own code: the checker, the metric set, the entry point.

The workload runs here use small problems of the same task kinds, so the
tests take seconds; the full workloads run only through perfbench/run.py.
"""

import dataclasses
import json
from pathlib import Path

import pytest

import worker  # first: it puts the src/ tree next to perfbench/ on sys.path

import checks
import run
import workloads
from kextdistill import cli
from kextdistill.solver import KExtProblem, fidelity_threshold

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def small_tasks(name: str, seed: int) -> list:
    """A few seconds' worth of each workload's task kinds."""
    rng = workloads.np.random.default_rng(seed)
    if name == "dense":
        deficient = workloads.reference_state(rank=5, frame=rng)
        return [
            workloads.Threshold("werner_d2_k1", KExtProblem.for_werner(d=2, gamma=-0.5, k=1)),
            workloads.UnitFidelity("rank5_f1", deficient, k=1),
        ]
    if name == "matrix-free":
        problem = KExtProblem.for_werner(d=2, gamma=-0.5, k=1, backend="iterative")
        return [workloads.Threshold("werner_d2_k1_iter", problem)]
    fig1 = cli.parse_config_text(cli.load_recipe("fig1"))
    fig1.points, fig1.n_values = 3, (1, 2)
    fig2 = cli.parse_config_text(cli.load_recipe("fig2"))
    fig2.points = 8
    return [workloads.Fig1Sweep(fig1), workloads.Fig2Ellipse(fig2), workloads.MnPThreshold(2, 0.3)]


def test_checker_counts_a_perturbed_alpha_as_failed():
    problem = KExtProblem.for_werner(d=2, gamma=-0.5, k=1)
    task = workloads.Threshold("werner_d2_k1", problem)
    result = fidelity_threshold(problem, tol_alpha=task.tol_alpha)
    assert task.outcomes(result, "")[0].check() == []
    for shift in (1e-4, -1e-4):
        bad = dataclasses.replace(result, alpha_star=result.alpha_star + shift)
        assert task.outcomes(bad, "")[0].check(), shift


def test_checker_rejects_closed_form_and_fidelity_misses():
    problem = KExtProblem.for_werner(d=2, gamma=0.0, k=1)
    alpha = fidelity_threshold(problem).alpha_star
    assert checks.check_threshold(problem, alpha, 1e-8, closed_form=0.75) == []
    assert checks.check_threshold(problem, alpha, 1e-8, closed_form=0.75 + 1e-6)
    assert checks.check_unit_fidelity(1.0 - 1e-12) == []
    assert checks.check_unit_fidelity(1.0 - 1e-6)
    assert checks.check_unit_fidelity(None)


def test_worker_counts_failures_from_a_wrong_driver(monkeypatch, tmp_path):
    monkeypatch.setattr(worker, "OUT", tmp_path)
    monkeypatch.setattr(workloads, "build", small_tasks)
    good = worker.run("dense", 0, 0.0, trace=False)
    assert good["failed"] == 0 and good["attempted"] == 2

    real = workloads.solver.fidelity_threshold

    def off_by_a_bit(problem, **kwargs):
        result = real(problem, **kwargs)
        return dataclasses.replace(result, alpha_star=result.alpha_star - 1e-3)

    monkeypatch.setattr(workloads.solver, "fidelity_threshold", off_by_a_bit)
    bad = worker.run("dense", 0, 0.0, trace=False)
    assert bad["failed"] == 1 and bad["attempted"] == 2
    assert any("not tight" in msg for msg in bad["failures"])


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_printed_with_its_unit(monkeypatch, tmp_path, name):
    monkeypatch.setattr(worker, "OUT", tmp_path)
    monkeypatch.setattr(workloads, "build", small_tasks)
    base = worker.run(name, 3, 0.0, trace=False)
    traced = worker.run(name, 3, 0.0, trace=True)
    setups = [worker.setup(name, 3)["setup_s"]]

    metrics, _ = run.end_to_end(base, setups)
    plain = run.report(run.record_of(name, 3, 0, metrics, {"untraced": base}))
    layered = run.report(
        run.record_of(name, 3, 0, run.per_layer(base, traced), {"untraced": base, "traced": traced})
    )
    for text, spec in ((plain, BENCHMARK["end_to_end"]), (layered, BENCHMARK["per_layer"])):
        result = json.loads(text.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {m["name"]: m["unit"] for m in spec} == {
            k: v["unit"] for k, v in result["metrics"].items()
        }
        for key, value in result["metrics"].items():
            assert isinstance(value["value"], (int, float)), key
            assert any(line.startswith(key + " ") for line in text.splitlines()), key


def test_workload_names_match_the_benchmark_file():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)


def test_tail_takes_the_sample_with_ten_beyond_it():
    assert run.tail([[3.0, 1.0, 2.0]]) == (3.0, "slowest task of 3, median of 1 rounds")
    assert run.tail([[3.0, 1.0], [5.0, 1.0], [4.0, 9.0]])[0] == 4.0
    value, label = run.tail([[float(i) for i in range(60)], [float(i) for i in range(60, 100)]])
    assert value == 89.0 and label == "p89.9 of 100 thresholds"


def test_refuses_to_run_without_the_package_source(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "dense", "--seed", "1"]) == 2
    assert capsys.readouterr().out == ""
