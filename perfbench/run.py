#!/usr/bin/env python3
"""mirror-dce benchmark: run one workload and print its metrics.

Usage:
    python3 perfbench/run.py --workload presets|edge_sweeps|exports \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from ``src/``.
A run measures set-up time in fresh interpreters, then runs one checked
warm-up pass and measured passes until ``--seconds`` have gone by, each
into a fresh output directory under ``.perfbench_tmp/`` that is deleted
after the pass.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, measured as
spans around the calls into each module (see spans.py); the difference
between the two kinds of pass is ``trace.overhead_frac``.

Every pass is checked (see check.py). The last line of standard output is
one JSON object: ``correct``, ``attempted`` (result rows over all passes),
``failed`` (rows that failed a check) and ``metrics``. A fuller record,
with the environment and the generated inputs, goes to
``.perfbench_out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_DIR = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_PROBES = 5
MIN_PASSES = 3

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "setup_s": "s",
}

FIGURES = tuple(f"fig{i}" for i in range(1, 9))

PER_LAYER = {
    "numerics.fourier_decompose.calls": "count",
    "numerics.fourier_decompose.self_us": "us",
    "numerics.find_root.calls": "count",
    "numerics.elliptic.calls": "count",
    "trajectories.solve_acceleration_parameter.us": "us",
    "trajectories.abar_evals_per_solve": "evals/solve",
    "trajectories.position.calls_per_point": "calls/point",
    "trajectories.position.self_us": "us",
    "trajectories.proper_time.ns_per_sample": "ns",
    "circuit.trajectory_to_drive.calls": "count",
    "circuit.trajectory_to_drive.self_us": "us",
    "circuit.DriveSpectrum.init_us": "us",
    "circuit.validate.calls": "count",
    "circuit.validate.us": "us",
    "circuit.external_flux.ns_per_sample": "ns",
    "scattering.output_spectrum.calls": "count",
    "scattering.output_spectrum.us": "us",
    "scattering.output_spectrum.ns_per_omega": "ns",
    "experiments.drive_normalized_bias.calls": "count",
    "experiments.drive_normalized_bias.us": "us",
    "experiments.run_sweep.points": "count",
    "experiments.run_sweep.points_failed": "count",
    "experiments.run_sweep.us_per_point": "us",
    "experiments.run_sweep.self_s": "s",
    "experiments.write.bytes": "bytes",
    "experiments.write.ns_per_byte": "ns",
    "experiments.read.ns_per_byte": "ns",
    **{f"experiments.reproduce.{f}_s": "s" for f in FIGURES},
    "cli.main.calls": "count",
    "cli.main.self_ms": "ms",
    "process.os_threads": "count",
    "trace.overhead_frac": "ratio",
    "trace.uncovered_frac": "ratio",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="mirror-dce benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _git_rev() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "mirror_dce").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _filesystem(path: Path) -> str:
    """Type of the filesystem holding path, from /proc/self/mountinfo."""
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mountinfo", encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                mount = fields[4]
                fstype = fields[fields.index("-") + 1]
                inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, kind = mount, fstype
    except (OSError, ValueError, IndexError):
        pass
    return kind


def _environment(workload, seed, threads, os_threads) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "MIRROR_DCE_THREADS": threads,
        "os_threads_after_pass": os_threads,
        "git_rev": _git_rev(),
        "src_sha256": _src_digest(),
        "output_fs": _filesystem(TMP_DIR),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up time of SETUP_PROBES fresh interpreters."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


class _Run:
    """The passes of one run and their checks."""

    def __init__(self, workload, seed, inputs, reference, run_dir):
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.reference = reference
        self.run_dir = run_dir
        self.count = 0
        self.baseline: dict[str, tuple[str, int, int]] = {}
        self.rows = self.bad_rows = 0
        self.problems: list[str] = []

    def one(self, tracer=None):
        import check
        import workloads

        self.count += 1
        out_dir = self.run_dir / f"pass-{self.count}"
        out_dir.mkdir()
        try:
            result = workloads.run_pass(self.workload, self.inputs, self.run_dir, out_dir, tracer)
            if self.count == 1:
                res = check.check_pass(result.outputs, self.reference)
                for o in result.outputs:
                    if o.error is None:
                        self.baseline[o.name] = (
                            check.digest(o.path), check.row_count(o), check.nan_count(o)
                        )
            else:
                res = self._same_as_baseline(result.outputs)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        self.rows += res.rows
        self.bad_rows += res.bad_rows
        self.problems.extend(res.problems[: max(0, 20 - len(self.problems))])
        ok = (res.rows - res.nan_rows - res.bad_rows) / res.rows if res.rows else 0.0
        result.outputs = None  # free the parsed outputs before the next pass
        return result, max(0.0, ok)

    def _same_as_baseline(self, outputs):
        """Later passes must write byte-identical files to the first."""
        import check

        res = check.CheckResult()
        seen = set()
        for o in outputs:
            seen.add(o.name)
            digest, rows, nan_rows = self.baseline.get(o.name, ("", 1, 0))
            res.rows += rows
            if o.error is not None:
                res.fail(rows, f"{o.name}: {o.error}")
            elif check.digest(o.path) != digest:
                res.fail(rows, f"{o.name}: bytes differ from the first pass")
            else:
                res.nan_rows += nan_rows
        for name in set(self.baseline) - seen:
            res.rows += self.baseline[name][1]
            res.fail(self.baseline[name][1], f"{name}: missing output")
        return res


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _layer_metrics(agg: dict, wall: float) -> dict[str, float]:
    s = agg["spans"]

    def calls(name):
        return s[name]["calls"] if name in s else 0

    def per_call(name, key, scale):
        return s[name][key] / s[name]["calls"] * scale if calls(name) else 0.0

    def per_extra(name, scale):
        extra = s[name]["extra"] if name in s else 0
        return s[name]["total"] / extra * scale if extra else 0.0

    roots = calls("numerics.find_root")  # solves that need one (AUA's do not)
    drives = calls("circuit.trajectory_to_drive")
    points, failed = s["experiments.run_sweep"]["extra"] if "experiments.run_sweep" in s else (0, 0)
    sweep = s.get("experiments.run_sweep", {"total": 0.0, "self": 0.0})
    evals = s["numerics.find_root"]["extra"] if "numerics.find_root" in s else 0
    return {
        "numerics.fourier_decompose.calls": calls("numerics.fourier_decompose"),
        "numerics.fourier_decompose.self_us": per_call("numerics.fourier_decompose", "self", 1e6),
        "numerics.find_root.calls": calls("numerics.find_root"),
        "numerics.elliptic.calls": calls("numerics.elliptic"),
        "trajectories.solve_acceleration_parameter.us":
            per_call("trajectories.solve_acceleration_parameter", "total", 1e6),
        "trajectories.abar_evals_per_solve": evals / roots if roots else 0.0,
        "trajectories.position.calls_per_point":
            calls("trajectories.position") / drives if drives else 0.0,
        "trajectories.position.self_us": per_call("trajectories.position", "self", 1e6),
        "trajectories.proper_time.ns_per_sample": per_extra("trajectories.proper_time", 1e9),
        "circuit.trajectory_to_drive.calls": drives,
        "circuit.trajectory_to_drive.self_us": per_call("circuit.trajectory_to_drive", "self", 1e6),
        "circuit.DriveSpectrum.init_us": per_call("circuit.DriveSpectrum.init", "total", 1e6),
        "circuit.validate.calls": calls("circuit.validate"),
        "circuit.validate.us": per_call("circuit.validate", "total", 1e6),
        "circuit.external_flux.ns_per_sample": per_extra("circuit.external_flux", 1e9),
        "scattering.output_spectrum.calls": calls("scattering.output_spectrum"),
        "scattering.output_spectrum.us": per_call("scattering.output_spectrum", "total", 1e6),
        "scattering.output_spectrum.ns_per_omega": per_extra("scattering.output_spectrum", 1e9),
        "experiments.drive_normalized_bias.calls": calls("experiments.drive_normalized_bias"),
        "experiments.drive_normalized_bias.us":
            per_call("experiments.drive_normalized_bias", "total", 1e6),
        "experiments.run_sweep.points": points,
        "experiments.run_sweep.points_failed": failed,
        "experiments.run_sweep.us_per_point": sweep["total"] / points * 1e6 if points else 0.0,
        "experiments.run_sweep.self_s": sweep["self"],
        "experiments.write.bytes": s["experiments.write"]["extra"] if "experiments.write" in s else 0,
        "experiments.write.ns_per_byte": per_extra("experiments.write", 1e9),
        "experiments.read.ns_per_byte": per_extra("experiments.read", 1e9),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_ms": per_call("cli.main", "self", 1e3),
        "trace.uncovered_frac": max(0.0, wall - agg["main_covered_s"]) / wall,
    }


def _measure(run: _Run, seconds: float, traced: bool, record: dict):
    """Measured passes after the warm-up; returns the printed metrics."""
    import spans

    walls, cpus, oks = [], [], []
    traced_walls, layer, fig_s = [], [], {f: [] for f in FIGURES}
    last_spans = None
    max_threads = 0
    start = time.perf_counter()
    while True:
        enough = len(walls) >= MIN_PASSES and (not traced or len(traced_walls) >= MIN_PASSES)
        if enough and time.perf_counter() - start >= seconds:
            break
        if traced and len(traced_walls) < len(walls):
            tracer = spans.Tracer()
            before = spans.installed_bindings()
            with tracer.installed():
                result, ok = run.one(tracer)
            if spans.installed_bindings() != before:
                raise RuntimeError("a traced binding was not restored")
            last_spans = tracer.take()
            traced_walls.append(result.wall_s)
            layer.append(_layer_metrics(spans.aggregate(last_spans), result.wall_s))
            max_threads = max(max_threads, tracer.max_os_threads)
        else:
            result, ok = run.one()
            walls.append(result.wall_s)
            cpus.append(result.cpu_s)
            for fig, secs in result.fig_s.items():
                fig_s[fig].append(secs)
        oks.append(ok)
    record["passes"] = {"wall_s": walls, "cpu_s": cpus, "ok_frac": oks,
                        "traced_wall_s": traced_walls}
    if not traced:
        return {
            "wall_s": _median(walls),
            "cpu_s": _median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": _median(oks),
        }
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{run.workload}-seed{run.seed}-spans.csv"
    spans.write_spans(last_spans, spans_path)
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    metrics = {name: _median([m[name] for m in layer]) for name in layer[0]}
    for fig in FIGURES:
        metrics[f"experiments.reproduce.{fig}_s"] = _median(fig_s[fig])
    metrics["process.os_threads"] = max_threads
    metrics["trace.overhead_frac"] = _median(traced_walls) / _median(walls) - 1.0
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "mirror_dce" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'mirror_dce'}; run from the root "
              "of a mirror-dce checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import check
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    setup = _setup_seconds(args.workload, args.seed)
    threads = workloads.sweep_threads(args.workload)
    os.environ["MIRROR_DCE_THREADS"] = str(threads)
    inputs = workloads.make_inputs(args.workload, args.seed)
    reference = check.load_reference(args.workload, args.seed)
    TMP_DIR.mkdir(exist_ok=True)
    run_dir = TMP_DIR / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    record = {"inputs": inputs, "reference_checked": reference is not None,
              "setup_s_samples": setup}
    try:
        run = _Run(args.workload, args.seed, inputs, reference, run_dir)
        run.one()  # warm-up: fills caches, fully checked, not timed
        record["env"] = _environment(args.workload, args.seed, threads, spans.os_threads())
        metrics = _measure(run, args.seconds, bool(args.trace), record)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if not args.trace:
        metrics["setup_s"] = _median(setup)
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": run.bad_rows == 0,
        "attempted": run.rows,
        "failed": run.bad_rows,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record.update(result)
    record["problems"] = run.problems
    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    for problem in run.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(f"perfbench: record in {record_path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
