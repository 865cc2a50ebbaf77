#!/usr/bin/env python3
"""Freeze the reference outputs that check.py compares against.

Runs one pass of each workload at the default seed and writes sampled
values, NaN positions and failure classes of every output to
``perfbench/reference/<workload>.json``. Run it only when the program's
outputs are meant to change, and say why in the change that does.

Usage: python3 perfbench/make_reference.py [WORKLOAD ...]
"""

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import workloads  # noqa: E402


def freeze(workload: str) -> Path:
    os.environ["MIRROR_DCE_THREADS"] = str(workloads.sweep_threads(workload))
    inputs = workloads.make_inputs(workload, check.DEFAULT_SEED)
    run_dir = ROOT / ".perfbench_tmp" / f"reference-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "out").mkdir(parents=True)
    try:
        result = workloads.run_pass(workload, inputs, run_dir, run_dir / "out")
        res = check.check_pass(result.outputs, None)
        if res.bad_rows:
            raise SystemExit(f"{workload}: outputs fail their own checks: {res.problems}")
        frozen = {o.name: check.reference_of(o) for o in result.outputs}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    path = check.reference_path(workload)
    path.parent.mkdir(exist_ok=True)
    body = {"workload": workload, "seed": check.DEFAULT_SEED, "inputs": inputs,
            "outputs": frozen}
    path.write_text(json.dumps(body, separators=(",", ":")) + "\n", encoding="utf-8")
    return path


if __name__ == "__main__":
    for name in sys.argv[1:] or workloads.WORKLOADS:
        print(freeze(name))
