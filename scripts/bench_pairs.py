#!/usr/bin/env python3
"""Compare the benchmark of two commits in alternating pairs of runs.

Usage:
    python3 scripts/bench_pairs.py BASE HEAD --n 6 [--workload presets ...] [--seed N]

Each commit is exported with ``git archive`` into its own directory in a
fresh temporary directory, removed at the end, so neither run sees
uncommitted files. For every workload, each of 10 pairs runs
``python3 perfbench/run.py --workload W --seed N --seconds 20 --trace 0``
in both copies, BASE first in even pairs and HEAD first in odd ones. The
seed defaults to 0, whose inputs are the checked reference inputs; another
seed checks a claim on inputs not used while writing the change.

Both commits come from the git checkout that holds this script, and
``BENCH_<n>.json`` is written at its root: the seed, per workload the runs
of every pair, then per end-to-end metric of BENCHMARK.json the median and
quartiles of each commit, the relative change of the medians, and in how
many pairs HEAD did better. The record also holds the machine's CPU count,
the thread-count variables of the environment and the OS threads each run
saw. Only the standard library is used.

Exit status: 2, before anything is exported, when ``BENCH_<n>.json``
already exists; 1, after the record is written, when any run reported
``correct: false`` or ``failed > 0`` (each such run is named on stderr);
0 otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PAIRS = 10
SECONDS = 20


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="commit measured as the baseline")
    parser.add_argument("head", help="commit measured as the change")
    parser.add_argument("--n", required=True, type=int, help="writes BENCH_<n>.json")
    parser.add_argument("--workload", action="append",
                        help="workload to compare (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default: 0)")
    return parser.parse_args(argv)


def _export(rev: str, target: Path) -> str:
    """Extract the tree of rev into target; return the full commit id."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    data = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                          check=True, capture_output=True).stdout
    target.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(target, filter="data")
    return sha


def _run(copy: Path, workload: str, seed: int) -> dict:
    """One benchmark run in copy: its printed metrics and recorded env."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=copy, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{copy.name} {workload}: {proc.stderr.strip()[-800:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (copy / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json").read_text()
    )
    env = record.get("env", {})
    return {
        "seed": seed,
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "passes": len(record.get("passes", {}).get("wall_s", [])),
        "os_threads_after_pass": env.get("os_threads_after_pass"),
    }


def _stats(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def _summary(pairs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        name = m["name"]
        base = [p["base"]["metrics"][name] for p in pairs]
        head = [p["head"]["metrics"][name] for p in pairs]
        lower = m["better"] == "lower"
        wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        sb, sh = _stats(base), _stats(head)
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "base": sb,
            "head": sh,
            "change_frac": sh["median"] / sb["median"] - 1.0 if sb["median"] else None,
            "head_better_pairs": wins,
            "pairs": len(pairs),
        }
    return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    path = ROOT / f"BENCH_{args.n}.json"
    if path.exists():
        print(f"bench_pairs: {path.name} exists; choose another --n", file=sys.stderr)
        return 2
    work = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    copies = {"base": work / "base", "head": work / "head"}
    try:
        shas = {side: _export(getattr(args, side), path) for side, path in copies.items()}
        spec = json.loads((copies["head"] / "BENCHMARK.json").read_text())
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        report = {
            "base": {"rev": args.base, "commit": shas["base"]},
            "head": {"rev": args.head, "commit": shas["head"]},
            "seed": args.seed,
            "command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                       f"--seconds {SECONDS} --trace 0",
            "machine": {
                "nproc": len(os.sched_getaffinity(0)),
                "cpu_count": os.cpu_count(),
                "python": platform.python_version(),
                "platform": platform.platform(),
                "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
            },
            "workloads": {},
        }
        for workload in workloads:
            pairs = []
            for i in range(PAIRS):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                runs = {side: _run(copies[side], workload, args.seed) for side in order}
                pairs.append({"first": order[0], **runs})
                wall = {side: round(runs[side]["metrics"]["wall_s"], 3) for side in order}
                print(f"bench_pairs: {workload} pair {i + 1}/{PAIRS} wall_s {wall}",
                      file=sys.stderr)
            report["workloads"][workload] = {
                "summary": _summary(pairs, spec["end_to_end"]),
                "pairs": pairs,
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(path)
    bad = [
        f"{workload} pair {i + 1} {side}"
        for workload, record in report["workloads"].items()
        for i, pair in enumerate(record["pairs"])
        for side in ("base", "head")
        if not pair[side]["correct"] or pair[side]["failed"] > 0
    ]
    for run in bad:
        print(f"bench_pairs: {run} reported correct: false or failed > 0", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
