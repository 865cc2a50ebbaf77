"""scripts/bench_pairs.py: its refusals and its exit status, with the git
export and the benchmark runs replaced by stubs."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture
def bench_pairs(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ROOT", tmp_path)
    exported = []

    def export(rev, target):
        exported.append(rev)
        target.mkdir(parents=True)
        (target / "BENCHMARK.json").write_text(json.dumps({
            "workloads": [{"name": "w"}],
            "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2}],
        }))
        return rev

    monkeypatch.setattr(module, "_export", export)
    module.exported = exported
    return module


def stub_run(bad_run=None):
    """A `_run` whose run number bad_run (counted from 0) reports a failure."""
    runs = []

    def run(copy, workload, seed):
        runs.append(copy.name)
        bad = len(runs) - 1 == bad_run
        return {"seed": seed, "correct": not bad, "failed": 0,
                "metrics": {"wall_s": 1.0}, "passes": 3, "os_threads_after_pass": 1}

    return run


def test_an_existing_record_is_never_overwritten(bench_pairs, tmp_path, monkeypatch, capsys):
    record = tmp_path / "BENCH_7.json"
    record.write_text("{}")
    monkeypatch.setattr(bench_pairs, "_run", stub_run())
    assert bench_pairs.main(["a", "b", "--n", "7"]) == 2
    assert record.read_text() == "{}"
    assert bench_pairs.exported == []
    assert "BENCH_7.json exists" in capsys.readouterr().err


def test_clean_runs_exit_0(bench_pairs, tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "_run", stub_run())
    assert bench_pairs.main(["a", "b", "--n", "8"]) == 0
    record = json.loads((tmp_path / "BENCH_8.json").read_text())
    assert len(record["workloads"]["w"]["pairs"]) == bench_pairs.PAIRS


def test_a_failed_run_is_stored_and_named_and_exits_1(
    bench_pairs, tmp_path, monkeypatch, capsys
):
    # Run 3 is the first run of pair 2, where HEAD runs first.
    monkeypatch.setattr(bench_pairs, "_run", stub_run(bad_run=2))
    assert bench_pairs.main(["a", "b", "--n", "9"]) == 1
    record = json.loads((tmp_path / "BENCH_9.json").read_text())
    assert record["workloads"]["w"]["pairs"][1]["head"]["correct"] is False
    err = capsys.readouterr().err
    assert "bench_pairs: w pair 2 head reported correct: false or failed > 0" in err
