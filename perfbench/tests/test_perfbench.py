"""Tests of the benchmark itself: workloads at a tiny size, the output
checker, the tracer's wrappers, and the contract of run.py.

Run with: python -m pytest perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _pass(workload, tmp_path, tracer=None, seed=0, name="out", inputs=None):
    if inputs is None:
        inputs = workloads.make_inputs(workload, seed, size="tiny")
    out = tmp_path / name
    out.mkdir()
    return workloads.run_pass(workload, inputs, tmp_path, out, tracer)


@pytest.fixture
def sweep_threads(monkeypatch):
    monkeypatch.setenv("MIRROR_DCE_THREADS", "2")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_workload_runs_and_passes_its_checks_at_tiny_size(workload, tmp_path, sweep_threads):
    result = _pass(workload, tmp_path)
    res = check.check_pass(result.outputs, None)
    assert res.rows > 0
    assert res.bad_rows == 0, res.problems
    assert result.wall_s > 0.0 and result.cpu_s > 0.0
    if workload == "edge_sweeps":
        assert 0 < res.nan_rows < res.rows  # the failure path is taken
    else:
        assert res.nan_rows == 0


@pytest.mark.parametrize("workload", ["edge_sweeps", "exports"])
def test_inputs_follow_the_seed(workload):
    a = workloads.make_inputs(workload, 7, size="tiny")
    assert a == workloads.make_inputs(workload, 7, size="tiny")
    assert a != workloads.make_inputs(workload, 8, size="tiny")


def test_edge_sweeps_fail_a_fixed_share_of_points_for_any_seed(tmp_path, sweep_threads):
    for seed in (1, 2):
        res = check.check_pass(_pass("edge_sweeps", tmp_path, seed=seed, name=f"s{seed}").outputs, None)
        share = res.nan_rows / res.rows
        assert abs(share - workloads.EDGE_FAIL_SHARE) < 0.06, share


def _spectrum_with_failures(tmp_path):
    result = _pass("edge_sweeps", tmp_path)
    for o in result.outputs:
        for name, curve in check.curves(o).items():
            if curve["failures"]:
                return o, name
    raise AssertionError("no sweep with failed points")


def test_checker_accepts_values_within_tolerance_and_flags_a_perturbed_value(tmp_path):
    result = _pass("exports", tmp_path)
    o = next(o for o in result.outputs if o.kind == "spectrum")
    ref = check.reference_of(o)
    assert check.check_output(o, ref).bad_rows == 0
    curve = next(iter(ref["curves"].values()))
    values = curve["series"]["n_out"]["values"]
    k = max(range(len(values)), key=lambda i: values[i])
    values[k] *= 1.0 + 1e-14
    assert check.check_output(o, ref).bad_rows == 0
    values[k] *= 1.0 + 1e-9
    res = check.check_output(o, ref)
    assert res.bad_rows == 1
    assert "differ from the reference" in res.problems[0]


def test_checker_flags_a_changed_nan_mask(tmp_path):
    o, name = _spectrum_with_failures(tmp_path)
    ref = check.reference_of(o)
    series = ref["curves"][name]["series"]["n_out"]
    series["nan"] = series["nan"][1:]
    assert check.check_output(o, ref).bad_rows >= 1

    # A NaN where no failure is listed fails even without a reference.
    ds = o.parsed[0]
    finite = [i for i in range(ds.n_out.size) if not math.isnan(ds.n_out[i])]
    ds.n_out[finite[0]] = math.nan
    res = check.check_output(o, None)
    assert res.bad_rows >= 1
    assert any("NaN points differ" in p for p in res.problems)


def test_checker_flags_a_changed_failure_class(tmp_path):
    o, name = _spectrum_with_failures(tmp_path)
    ref = check.reference_of(o)
    failures = ref["curves"][name]["failures"]
    failures[next(iter(failures))] = "ConvergenceError"
    res = check.check_output(o, ref)
    assert res.bad_rows >= 1
    assert any("failure classes" in p for p in res.problems)


def test_checker_flags_a_file_that_does_not_read_back(tmp_path):
    o = next(o for o in _pass("exports", tmp_path).outputs if o.kind == "flux")
    text = o.path.read_text().splitlines()
    t, phi = text[1].split(",")
    text[1] = f"{t},{phi}0"  # same value, different bytes
    o.path.write_text("\n".join(text) + "\n")
    assert check.check_output(o, None).bad_rows == 1


def test_failure_entries_parse_around_pipes_in_messages():
    text = ("3:RealizabilityError: harmonic ratio |c_n|/a0 = 0.6 exceeds|"
            "4:ValueError: no sign change|validity:RealizabilityError: E_J(t) <= 0")
    assert check.parse_failures(text) == {
        "3": "RealizabilityError", "4": "ValueError", "validity": "RealizabilityError",
    }


def test_tracer_restores_every_binding(tmp_path):
    before = spans.installed_bindings()
    tracer = spans.Tracer()
    with tracer.installed():
        during = spans.installed_bindings()
        assert all(hasattr(v, "__wrapped__") for _, _, v in during)
        _pass("presets", tmp_path, tracer)
    assert spans.installed_bindings() == before
    assert not any(hasattr(v, "__wrapped__") for _, _, v in before)

    with pytest.raises(RuntimeError):
        with spans.Tracer().installed():
            raise RuntimeError("boom")
    assert spans.installed_bindings() == before


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_dataset_bytes_do_not_depend_on_tracing(workload, tmp_path, sweep_threads):
    inputs = workloads.make_inputs(workload, 0, size="tiny")
    plain = _pass(workload, tmp_path, name="plain", inputs=inputs)
    tracer = spans.Tracer()
    with tracer.installed():
        traced = _pass(workload, tmp_path, tracer, name="traced", inputs=inputs)
    assert [o.name for o in plain.outputs] == [o.name for o in traced.outputs]
    for a, b in zip(plain.outputs, traced.outputs):
        assert a.path.read_bytes() == b.path.read_bytes(), a.name
    agg = spans.aggregate(tracer.take())
    metrics = run._layer_metrics(agg, traced.wall_s)
    assert agg["spans"]["experiments.read"]["calls"] > 0
    if workload != "presets":
        assert metrics["cli.main.calls"] == len(traced.outputs)
    if workload == "edge_sweeps":
        assert metrics["experiments.run_sweep.points_failed"] > 0
        assert metrics["trajectories.abar_evals_per_solve"] > 0
        assert metrics["trajectories.position.calls_per_point"] == 2.0


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "presets", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
