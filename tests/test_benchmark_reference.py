"""The benchmark checks every pass against frozen reference values
(perfbench/reference/<workload>.json). A program change that moves those
values fails the benchmark; these tests show it in the suite for the
`presets` and `edge_sweeps` workloads. They load the benchmark's workload
runner and checker by path, run one pass into a temporary directory and
write nothing under the checkout."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for @dataclass
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no perfbench/__pycache__
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_presets_pass_matches_the_benchmark_reference(tmp_path):
    workloads, check = _load("workloads"), _load("check")
    out = tmp_path / "out"
    out.mkdir()
    result = workloads.run_pass("presets", workloads.make_inputs("presets", 0), tmp_path, out)
    res = check.check_pass(result.outputs, check.load_reference("presets", 0))
    assert res.rows > 0
    assert res.bad_rows == 0, res.problems


def test_edge_sweeps_pass_matches_the_benchmark_reference(tmp_path):
    # The CLI sweep path, with 18% of its points past the realizability
    # edge: the reference pins which points fail, with which class, and
    # where the NaN rows fall.
    workloads, check = _load("workloads"), _load("check")
    out = tmp_path / "out"
    out.mkdir()
    inputs = workloads.make_inputs("edge_sweeps", 0)
    result = workloads.run_pass("edge_sweeps", inputs, tmp_path, out)
    res = check.check_pass(result.outputs, check.load_reference("edge_sweeps", 0))
    assert res.rows > 0
    assert res.bad_rows == 0, res.problems
