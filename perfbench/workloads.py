"""The benchmark's three workloads: seeded input generation and one pass.

A pass runs a workload's commands into a fresh output directory and reads
every output back. It returns the parsed outputs; checking them is the
caller's job and happens outside the timed region.

- presets: ``experiments.reproduce`` for fig1..fig8 at one sweep thread,
  the paper-reproduction path (per-point pipeline of fig5, fig6, fig8).
- edge_sweeps: ``cli.main(["sweep", ...])`` over abar and omega_d axes for
  SM, SA and AUA at ``nproc`` sweep threads, with the bias pinned by a
  config file and each range running a fixed share past the realizability
  edge, so the thread pool and the per-point failure path are both taken.
- exports: dense ``spectrum``, ``flux --periods`` and ``traj`` commands,
  each output read back: the write-and-read path, with one drive per
  command so the per-point pipeline barely runs.

Inputs depend only on the workload name, the seed and the size; grid
sizes are fixed, so the length of a pass does not depend on the seed.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from mirror_dce import cli, experiments
from mirror_dce.circuit import CircuitParams, trajectory_to_drive
from mirror_dce.trajectories import (
    TrajectoryKind,
    TrajectoryParams,
    solve_acceleration_parameter,
)

WORKLOADS = ("presets", "edge_sweeps", "exports")
SIZES = ("full", "tiny")

# Share of every edge_sweeps grid that lies past the realizability edge.
EDGE_FAIL_SHARE = 0.18

_KINDS = tuple(k.value for k in TrajectoryKind)
_TINY_FIGURES = ("fig1", "fig2", "fig4", "fig7")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def sweep_threads(workload: str) -> int:
    """MIRROR_DCE_THREADS the workload runs at."""
    return nproc() if workload == "edge_sweeps" else 1


@dataclass
class Output:
    """One output file of a pass: how to read it and what was read."""

    name: str
    kind: str            # "spectrum" | "table" | "flux"
    path: Path
    parsed: object = None
    error: str | None = None


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    outputs: list[Output]
    fig_s: dict[str, float] = field(default_factory=dict)


class _Direct:
    """Call-through used when a pass is not traced."""

    @staticmethod
    def call(name, fn, *args, extra=None):
        return fn(*args)


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def make_inputs(workload: str, seed: int, size: str = "full") -> dict:
    """JSON-serializable inputs of one workload; the same arguments always
    give the same inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    if workload == "presets":
        figures = _TINY_FIGURES if size == "tiny" else tuple(experiments.FIGURE_ALIASES)
        return {"figures": list(figures)}
    rng = random.Random(seed)
    if workload == "edge_sweeps":
        return _edge_sweep_inputs(rng, 21 if size == "tiny" else 1001)
    return _export_inputs(rng, size)


def _realizable(kind: str, abar: float, fd: float, c: CircuitParams) -> bool:
    """Whether the sweep point (abar, fd) evaluates without a domain error."""
    omega_d = 2.0 * math.pi * fd
    try:
        A = solve_acceleration_parameter(kind, abar, omega_d, c.v)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            trajectory_to_drive(TrajectoryParams(kind, A, omega_d, c.v), c)
    except ValueError:  # RealizabilityError is a ValueError
        return False
    return True


def _edge(ok, good: float, bad: float) -> float:
    """Last good value on the geometric bisection between good and bad."""
    if not ok(good) or ok(bad):
        raise RuntimeError(f"no realizability edge between {good:.6g} and {bad:.6g}")
    for _ in range(40):
        mid = math.sqrt(good * bad)
        if ok(mid):
            good = mid
        else:
            bad = mid
    return good


def _edge_sweep_inputs(rng: random.Random, points: int) -> dict:
    bias = rng.uniform(0.25, 0.45)
    temperature = round(rng.uniform(0.0, 0.05), 4)
    c = CircuitParams(EJ0_ratio=bias)
    over = EDGE_FAIL_SHARE / (1.0 - EDGE_FAIL_SHARE)
    sweeps = []
    for kind in _KINDS:
        fd = rng.uniform(12e9, 20e9)
        w = rng.uniform(5e9, 10e9)
        # Amplitude grows with abar: points above the edge fail.
        edge = _edge(lambda a: _realizable(kind, a, fd, c), 1e16, 1e21)
        lo = 0.2 * edge
        sweeps.append({
            "name": f"sweep_{kind}_abar.csv", "kind": kind, "axis": "abar",
            "min": lo, "max": edge + over * (edge - lo), "fd": fd, "w": w,
        })
        abar = rng.uniform(5e18, 2e19)
        w = rng.uniform(5e9, 10e9)
        # Amplitude shrinks with omega_d: points below the edge fail.
        edge = _edge(lambda f: _realizable(kind, abar, f, c), 1e12, 1e8)
        hi = 2.0 * edge
        sweeps.append({
            "name": f"sweep_{kind}_omega_d.csv", "kind": kind, "axis": "omega_d",
            "min": edge - over * (hi - edge), "max": hi, "abar": abar, "w": w,
        })
    return {
        "config": f"[circuit]\nej0_ratio = {bias!r}\n",
        "temperature": temperature,
        "points": points,
        "sweeps": sweeps,
    }


def _export_inputs(rng: random.Random, size: str) -> dict:
    tiny = size == "tiny"
    temperature = round(rng.uniform(0.01, 0.05), 4)
    c = CircuitParams()
    spectra = []
    for kind in _KINDS:
        fd = rng.uniform(12e9, 20e9)
        abar = rng.uniform(2e17, 8e17)
        A = solve_acceleration_parameter(kind, abar, 2.0 * math.pi * fd, c.v)
        p = TrajectoryParams(kind, A, 2.0 * math.pi * fd, c.v)
        bias = experiments.drive_normalized_bias(p, c).EJ0_ratio
        spectra.append({
            "kind": kind, "abar": abar, "fd": fd,
            "config": f"[circuit]\nej0_ratio = {bias!r}\n",
        })
    flux_pick = rng.randrange(len(spectra))
    traj_kind = rng.choice(_KINDS)
    return {
        "temperatures": [0.0, temperature],
        "spectrum_points": 300 if tiny else 50000,
        "spectra": spectra,
        "flux": {"index": flux_pick, "points": 64 if tiny else 1024,
                 "periods": 4 if tiny else 128},
        "traj": {"kind": traj_kind, "abar": spectra[0]["abar"], "fd": spectra[0]["fd"],
                 "points": 500 if tiny else 100000},
    }


def commands(workload: str, inputs: dict, run_dir: Path) -> list[tuple[str, str, list[str]]]:
    """(output name, output kind, argv with ``{out}`` for the output path)
    of a CLI workload. Config files are written into run_dir."""
    run_dir = Path(run_dir)
    if workload == "edge_sweeps":
        config = run_dir / "edge.ini"
        config.write_text(inputs["config"], encoding="utf-8")
        out = []
        for s in inputs["sweeps"]:
            argv = ["sweep", "--config", str(config), "--kind", s["kind"],
                    "--axis", s["axis"], "--min", repr(s["min"]), "--max", repr(s["max"]),
                    "--w", repr(s["w"]), "--T", repr(inputs["temperature"]),
                    "--points", str(inputs["points"]), "--out", "{out}"]
            if s["axis"] == "abar":
                argv += ["--fd", repr(s["fd"])]
            else:
                argv += ["--abar", repr(s["abar"])]
            out.append((s["name"], "spectrum", argv))
        return out
    if workload == "exports":
        out = []
        configs = []
        for i, s in enumerate(inputs["spectra"]):
            config = run_dir / f"export_{i}.ini"
            config.write_text(s["config"], encoding="utf-8")
            configs.append(config)
            for j, T in enumerate(inputs["temperatures"]):
                out.append((f"spectrum_{s['kind']}_T{j}.csv", "spectrum", [
                    "spectrum", "--config", str(config), "--kind", s["kind"],
                    "--abar", repr(s["abar"]), "--fd", repr(s["fd"]), "--T", repr(T),
                    "--nmax", "3", "--points", str(inputs["spectrum_points"]),
                    "--out", "{out}",
                ]))
        f = inputs["flux"]
        s = inputs["spectra"][f["index"]]
        out.append(("flux.csv", "flux", [
            "flux", "--config", str(configs[f["index"]]), "--kind", s["kind"],
            "--abar", repr(s["abar"]), "--fd", repr(s["fd"]), "--points", str(f["points"]),
            "--periods", str(f["periods"]), "--out", "{out}",
        ]))
        t = inputs["traj"]
        out.append(("traj.csv", "table", [
            "traj", "--kind", t["kind"], "--abar", repr(t["abar"]), "--fd", repr(t["fd"]),
            "--points", str(t["points"]), "--out", "{out}",
        ]))
        return out
    raise ValueError(f"{workload} is not a CLI workload")


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------

def read_flux_csv(path) -> tuple[list[float], list[float]]:
    """Parse the two-column ``t,phi_ext`` file of ``export_flux_waveform``.

    ``experiments.read_table`` rejects this file: the flux writer emits no
    ``# mirror-dce v1`` header line."""
    t: list[float] = []
    phi: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        if fh.readline().rstrip("\n") != "t,phi_ext":
            raise ValueError(f"{path}: expected a 't,phi_ext' header")
        for line in fh:
            a, _, b = line.rstrip("\n").partition(",")
            t.append(float(a))
            phi.append(float(b))
    return t, phi


_READERS = {
    "spectrum": experiments.read_spectrum_datasets,
    "table": experiments.read_table,
}


def _read_back(outputs: list[Output], tracer) -> None:
    for o in outputs:
        if o.error is not None:
            continue
        try:
            if o.kind == "flux":  # the benchmark's own parser, not a program layer
                o.parsed = read_flux_csv(o.path)
            else:
                o.parsed = tracer.call(
                    "experiments.read", _READERS[o.kind], o.path,
                    extra=lambda args, result: os.path.getsize(args[0]),
                )
        except (OSError, ValueError, KeyError, IndexError) as exc:
            o.error = f"read: {type(exc).__name__}: {exc}"


def run_pass(workload: str, inputs: dict, run_dir: Path, out_dir: Path,
             tracer=None) -> PassResult:
    """Run one pass into out_dir (which must exist and be empty) and read
    every output back; time it on the wall clock and in process CPU.
    A tracer (spans.Tracer) records the benchmark's own calls into the
    program as spans."""
    tracer = tracer or _Direct
    out_dir = Path(out_dir)
    fig_s: dict[str, float] = {}
    outputs: list[Output] = []
    if workload == "presets":
        t0 = time.perf_counter()
        c0 = time.process_time()
        for fig in inputs["figures"]:
            f0 = time.perf_counter()
            paths = experiments.reproduce(fig, out_dir)
            fig_s[fig] = time.perf_counter() - f0
            for p in paths:
                kind = "table" if fig in ("fig1", "fig2") else "spectrum"
                outputs.append(Output(p.name, kind, p))
        _read_back(outputs, tracer)
    else:
        cmds = commands(workload, inputs, run_dir)
        t0 = time.perf_counter()
        c0 = time.process_time()
        sink = io.StringIO()  # the CLI prints each written path
        with contextlib.redirect_stdout(sink):
            for name, kind, argv in cmds:
                path = out_dir / name
                argv = [str(path) if a == "{out}" else a for a in argv]
                rc = tracer.call("cli.main", cli.main, argv)
                outputs.append(Output(name, kind, path,
                                      error=None if rc == 0 else f"exit code {rc}"))
        _read_back(outputs, tracer)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    return PassResult(wall_s=wall, cpu_s=cpu, outputs=outputs, fig_s=fig_s)
