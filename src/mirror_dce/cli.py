"""Command-line surface: parse run configs, dispatch to the simulation
modules, emit CSV datasets and waveforms.

Commands
--------
traj       sample one worldline (t, tau, z, alpha_dir) over a period
drive      synthesized Josephson drive coefficients for a trajectory
flux       external flux waveform phi_ext(t) realizing the drive
spectrum   output photon spectrum n_out(omega) for one configuration
sweep      generic sweep over omega / omega_d / abar
params     resolve (A, omega_d) for a target average acceleration
reproduce  run a bundled preset (fig1..fig8 or their descriptive names)

Config files use INI syntax with sections [run], [trajectory], [circuit],
[physics], [output]; all frequencies in config files and flags are LINEAR
(Hz) and converted to angular internally. Unknown sections or keys are
rejected. Command-line flags override config values and get the same checks
(a number must be finite, --nmax must be >= 0); a bad value exits 1 before
anything is written, a flag the command does not read exits 2. A `sweep`
whose points all fail exits 1 and writes nothing; when only some fail, their
count goes to stderr and the exit status is 0.
"""

from __future__ import annotations

import argparse
import configparser
import math
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .circuit import CircuitParams, export_flux_waveform, trajectory_to_drive
from .experiments import (
    FIGURE_ALIASES,
    SweepAxis,
    SweepSpec,
    _fmt,
    _write_table,
    drive_coefficient_dataset,
    first_harmonic_amplitude,
    reproduce,
    run_sweep,
    select_parameters,
    write_drive_coefficients,
    write_spectrum_datasets,
)
from .trajectories import (
    TrajectoryKind,
    TrajectoryParams,
    average_acceleration,
    coordinate_period,
    directional_acceleration,
    position,
    proper_time,
    solve_acceleration_parameter,
)

__all__ = ["ConfigError", "RunConfig", "dispatch", "main", "parse_config"]

COMMANDS = ("traj", "drive", "flux", "spectrum", "sweep", "params", "reproduce")

_SECTIONS = {
    "run": {"command"},
    "trajectory": {"kind", "a", "abar_target", "fd"},
    "circuit": {"ic", "cj", "z0", "v", "fs", "ej0_ratio"},
    "physics": {"t", "nmax"},
    "output": {"path", "format"},
}


class ConfigError(ValueError):
    """Malformed run configuration."""


@dataclass
class RunConfig:
    command: str | None = None
    kind: TrajectoryKind | None = None
    A: float | None = None
    abar_target: float | None = None
    omega_d: float | None = None          # angular [rad/s]
    circuit: CircuitParams = CircuitParams()
    temperature: float = 0.0
    n_max: int = 3
    out_path: str | None = None
    out_format: str = "long"              # "long" | "split"
    points: int = 401
    periods: int = 1
    figure: str | None = None
    sweep_axis: str | None = None
    sweep_min: float | None = None
    sweep_max: float | None = None
    probe_omega: float | None = None      # angular [rad/s]


# `where` names the value in messages: "[section] key" for a config value,
# "--flag" for a command-line flag; both get the same checks.
def _parse_float(where: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{where}: must be finite, got {raw!r}")
    return value


def _parse_positive(where: str, raw: str) -> float:
    value = _parse_float(where, raw)
    if value <= 0.0:
        raise ConfigError(f"{where}: must be positive, got {raw!r}")
    return value


def _parse_angular(where: str, raw: str) -> float:
    """A positive linear frequency [Hz] as angular [rad/s]."""
    return 2.0 * math.pi * _parse_positive(where, raw)


def _parse_probe(where: str, raw: str) -> float:
    """A finite linear frequency [Hz] as angular [rad/s]."""
    return 2.0 * math.pi * _parse_float(where, raw)


def _parse_n_max(where: str, raw: str) -> int:
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: not an integer: {raw!r}") from exc
    if value < 0:
        raise ConfigError(f"{where}: must be >= 0")
    return value


def parse_config(text: str) -> RunConfig:
    """Parse an INI run configuration into a validated RunConfig.

    Unset circuit fields keep the reference defaults. Exactly one of
    `a` / `abar_target` may appear in the trajectory section."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    cfg = RunConfig()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(
                f"unknown section [{section}]; expected one of "
                + ", ".join(sorted(_SECTIONS))
            )
        for key in parser[section]:
            if key not in _SECTIONS[section]:
                raise ConfigError(
                    f"unknown key [{section}] {key}; allowed: "
                    + ", ".join(sorted(_SECTIONS[section]))
                )

    if parser.has_option("run", "command"):
        command = parser["run"]["command"].strip().lower()
        if command not in COMMANDS:
            raise ConfigError(f"[run] command: unknown command {command!r}")
        cfg.command = command

    if parser.has_section("trajectory"):
        sec = parser["trajectory"]
        if "kind" in sec:
            try:
                cfg.kind = TrajectoryKind(sec["kind"].strip().lower())
            except ValueError as exc:
                raise ConfigError(
                    f"[trajectory] kind: expected sm|sa|aua, got {sec['kind']!r}"
                ) from exc
        if "a" in sec and "abar_target" in sec:
            raise ConfigError(
                "[trajectory]: give exactly one of 'a' and 'abar_target'"
            )
        if "a" in sec:
            cfg.A = _parse_positive("[trajectory] a", sec["a"])
        if "abar_target" in sec:
            cfg.abar_target = _parse_positive(
                "[trajectory] abar_target", sec["abar_target"]
            )
        if "fd" in sec:
            cfg.omega_d = _parse_angular("[trajectory] fd", sec["fd"])

    if parser.has_section("circuit"):
        sec = parser["circuit"]
        updates = {}
        if "ic" in sec:
            updates["I_c"] = _parse_positive("[circuit] ic", sec["ic"])
        if "cj" in sec:
            updates["C_J"] = _parse_positive("[circuit] cj", sec["cj"])
        if "z0" in sec:
            updates["Z0"] = _parse_positive("[circuit] z0", sec["z0"])
        if "v" in sec:
            updates["v"] = _parse_positive("[circuit] v", sec["v"])
        if "fs" in sec:
            updates["omega_s"] = _parse_angular("[circuit] fs", sec["fs"])
        if "ej0_ratio" in sec:
            updates["EJ0_ratio"] = _parse_positive(
                "[circuit] ej0_ratio", sec["ej0_ratio"]
            )
        try:
            cfg.circuit = replace(cfg.circuit, **updates)
        except ValueError as exc:
            raise ConfigError(f"[circuit]: {exc}") from exc

    if parser.has_section("physics"):
        sec = parser["physics"]
        if "t" in sec:
            cfg.temperature = _parse_float("[physics] t", sec["t"])
            if cfg.temperature < 0.0:
                raise ConfigError("[physics] t: temperature must be >= 0")
        if "nmax" in sec:
            cfg.n_max = _parse_n_max("[physics] nmax", sec["nmax"])

    if parser.has_section("output"):
        sec = parser["output"]
        if "path" in sec:
            cfg.out_path = sec["path"].strip()
        if "format" in sec:
            fmt = sec["format"].strip().lower()
            if fmt not in ("long", "split"):
                raise ConfigError(f"[output] format: expected long|split, got {fmt!r}")
            cfg.out_format = fmt

    return cfg


def _require(value, what: str):
    if value is None:
        raise ConfigError(f"{what} is required (flag or config)")
    return value


def _resolve_trajectory(cfg: RunConfig) -> TrajectoryParams:
    kind = _require(cfg.kind, "trajectory kind (--kind)")
    omega_d = _require(cfg.omega_d, "drive frequency (--fd)")
    if (cfg.A is None) == (cfg.abar_target is None):
        raise ConfigError("give exactly one of --A and --abar")
    if cfg.A is not None:
        A = cfg.A
    else:
        A = solve_acceleration_parameter(kind, cfg.abar_target, omega_d, cfg.circuit.v)
    return TrajectoryParams(kind, A, omega_d, cfg.circuit.v)


def _cmd_traj(cfg: RunConfig, written: list[Path]) -> int:
    p = _resolve_trajectory(cfg)
    out = Path(_require(cfg.out_path, "output path (--out)"))
    t = np.arange(cfg.points) * (coordinate_period(p) / cfg.points)
    meta = {
        "kind": "worldline",
        "trajectory": p.kind.value,
        "A": _fmt(p.A),
        "omega_d": _fmt(p.omega_d),
        "v": _fmt(p.v),
        "abar": _fmt(average_acceleration(p)),
        "points": _fmt(cfg.points),
    }
    columns = (t, proper_time(p, t), position(p, t), directional_acceleration(p, t))
    written.append(_write_table(out, meta, ("t", "tau", "z", "alpha_dir"), columns))
    print(out)
    return 0


def _cmd_drive(cfg: RunConfig, written: list[Path]) -> int:
    p = _resolve_trajectory(cfg)
    out = Path(_require(cfg.out_path, "output path (--out)"))
    ds = drive_coefficient_dataset({p.kind: (p, cfg.circuit)}, n_max=cfg.n_max)
    written.append(write_drive_coefficients(ds, out))
    print(out)
    return 0


def _cmd_flux(cfg: RunConfig, written: list[Path]) -> int:
    p = _resolve_trajectory(cfg)
    out = Path(_require(cfg.out_path, "output path (--out)"))
    drive = trajectory_to_drive(p, cfg.circuit, n_max=cfg.n_max)
    export_flux_waveform(
        drive, cfg.circuit, out, samples_per_period=cfg.points, periods=cfg.periods
    )
    written.append(out)
    print(out)
    return 0


def _cmd_spectrum(cfg: RunConfig, written: list[Path]) -> int:
    p = _resolve_trajectory(cfg)
    out = Path(_require(cfg.out_path, "output path (--out)"))
    upto = max(cfg.n_max, 1)
    grid = upto * p.omega_d * np.arange(1, cfg.points + 1) / cfg.points
    spec = SweepSpec(
        figure_id="spectrum",
        axis=SweepAxis.OMEGA,
        x=grid,
        trajectories=(p.kind,),
        temperatures=(cfg.temperature,),
        n_max=cfg.n_max,
        omega_d=p.omega_d,
        A={p.kind: p.A},
        ejo_ratio={p.kind: cfg.circuit.EJ0_ratio},
    )
    datasets = run_sweep(spec, cfg.circuit)
    written.extend(
        write_spectrum_datasets(datasets, out, long_format=cfg.out_format == "long")
    )
    for path in written:
        print(path)
    return 0


def _cmd_sweep(cfg: RunConfig, written: list[Path]) -> int:
    kind = _require(cfg.kind, "trajectory kind (--kind)")
    axis = SweepAxis(_require(cfg.sweep_axis, "sweep axis (--axis)"))
    lo = _require(cfg.sweep_min, "sweep range (--min)")
    hi = _require(cfg.sweep_max, "sweep range (--max)")
    out = Path(_require(cfg.out_path, "output path (--out)"))
    if not hi > lo:
        raise ConfigError(f"--max must exceed --min, got [{lo}, {hi}]")
    grid = np.linspace(lo, hi, cfg.points)
    if axis in (SweepAxis.OMEGA, SweepAxis.OMEGA_D):
        grid = 2.0 * math.pi * grid  # flags are linear Hz
    kwargs = dict(
        figure_id="sweep",
        axis=axis,
        x=tuple(grid),
        trajectories=(kind,),
        temperatures=(cfg.temperature,),
        n_max=cfg.n_max,
        ejo_ratio={kind: cfg.circuit.EJ0_ratio},
    )
    if axis is not SweepAxis.OMEGA_D:
        kwargs["omega_d"] = _require(cfg.omega_d, "drive frequency (--fd)")
    if axis is not SweepAxis.OMEGA:
        kwargs["omega"] = _require(cfg.probe_omega, "probe frequency (--w)")
    if axis is SweepAxis.ABAR:
        if cfg.A is not None:
            raise ConfigError("an abar sweep re-solves A; give --abar bounds instead")
    elif cfg.A is not None:
        kwargs["A"] = {kind: cfg.A}
    else:
        kwargs["abar"] = _require(
            cfg.abar_target, "acceleration (--A or --abar)"
        )
    spec = SweepSpec(**kwargs)
    datasets = run_sweep(spec, cfg.circuit)
    _report_failed_points(datasets)
    written.extend(
        write_spectrum_datasets(datasets, out, long_format=cfg.out_format == "long")
    )
    for path in written:
        print(path)
    return 0


# One entry of a dataset's `failures` metadata: "<index>:<ExceptionClass>: "
# then the message, entries joined by "|" (messages may contain "|" too).
_FAILURE_ENTRY = re.compile(r"(?:^|\|)(\d+|validity):([A-Za-z_]\w*): ")


def _report_failed_points(datasets) -> None:
    """Raise when every sweep point failed; otherwise, when some did, print
    their count and exception classes to stderr."""
    total = sum(ds.x.size for ds in datasets)
    failed = sum(int(np.count_nonzero(np.isnan(ds.n_out))) for ds in datasets)
    if not failed:
        return
    entries = []  # (point index, exception class, message)
    for ds in datasets:
        text = ds.metadata.get("failures", "")
        found = list(_FAILURE_ENTRY.finditer(text))
        ends = [m.start() for m in found[1:]] + [len(text)]
        entries.extend(
            (m.group(1), m.group(2), text[m.end():end])
            for m, end in zip(found, ends)
            if m.group(1) != "validity"
        )
    if failed == total:
        index, cls, message = entries[0]
        raise ValueError(
            f"all {total} sweep points failed; the first (point {index}): {cls}: {message}"
        )
    classes = dict.fromkeys(cls for _, cls, _ in entries)
    print(
        f"mirror-dce: {failed} of {total} points failed ({', '.join(classes)})",
        file=sys.stderr,
    )


def _realized_tone_ratio(s, c: CircuitParams) -> float:
    # a_1/a_0 = |z_1| / (2 L_eff^0); below a0/8 where the bias saturates
    p = TrajectoryParams(s.kind, s.A, s.omega_d, c.v)
    return first_harmonic_amplitude(p) / (2.0 * s.L_eff0)


_PARAM_ROWS = (
    ("abar [m/s^2]", lambda s, c: f"{s.abar:.6g}"),
    ("A [m/s^2]", lambda s, c: f"{s.A:.6g}"),
    ("omega_d/2pi [GHz]", lambda s, c: f"{s.omega_d / (2e9 * math.pi):.6g}"),
    ("E_J0/E_J", lambda s, c: f"{s.ejo_ratio:.6g}"),
    ("a_1/a_0", lambda s, c: f"{_realized_tone_ratio(s, c):.6g}"),
    ("L_eff0 [mm]", lambda s, c: f"{s.L_eff0 * 1e3:.6g}"),
    ("R [mm]", lambda s, c: "-" if s.R is None else f"{s.R * 1e3:.6g}"),
    ("I_c [uA]", lambda s, c: f"{c.I_c * 1e6:.6g}"),
    ("C_J [fF]", lambda s, c: f"{c.C_J * 1e15:.6g}"),
    ("v [m/s]", lambda s, c: f"{c.v:.6g}"),
    ("Z0 [Ohm]", lambda s, c: f"{c.Z0:.6g}"),
    ("omega_s/2pi [GHz]", lambda s, c: f"{c.omega_s / (2e9 * math.pi):.6g}"),
)


def _cmd_params(cfg: RunConfig, written: list[Path]) -> int:
    kind = _require(cfg.kind, "trajectory kind (--kind)")
    abar = _require(cfg.abar_target, "target acceleration (--abar)")
    sel = select_parameters(kind, abar, cfg.circuit)
    width = max(len(r[0]) for r in _PARAM_ROWS)
    print(f"{'quantity':<{width}}  {kind.value}")
    for label, render in _PARAM_ROWS:
        print(f"{label:<{width}}  {render(sel, cfg.circuit)}")
    return 0


def _cmd_reproduce(cfg: RunConfig, written: list[Path]) -> int:
    figure = _require(cfg.figure, "figure id (fig1..fig8)")
    if figure not in FIGURE_ALIASES and figure not in FIGURE_ALIASES.values():
        raise ConfigError(
            f"unknown figure {figure!r}; expected "
            + ", ".join(FIGURE_ALIASES)
            + " or their aliases"
        )
    out_dir = Path(cfg.out_path) if cfg.out_path else Path(".")
    paths = reproduce(
        figure, out_dir, cfg.circuit, long_format=cfg.out_format == "long"
    )
    written.extend(paths)
    for path in paths:
        print(path)
    return 0


_DISPATCH = {
    "traj": _cmd_traj,
    "drive": _cmd_drive,
    "flux": _cmd_flux,
    "spectrum": _cmd_spectrum,
    "sweep": _cmd_sweep,
    "params": _cmd_params,
    "reproduce": _cmd_reproduce,
}


def dispatch(cfg: RunConfig) -> int:
    """Run the configured command. Partial outputs are removed on failure."""
    command = _require(cfg.command, "command")
    if command not in _DISPATCH:
        raise ConfigError(f"unknown command {command!r}")
    written: list[Path] = []
    try:
        return _DISPATCH[command](cfg, written)
    except BaseException:
        for path in written:
            try:
                Path(path).unlink()
            except OSError:
                pass
        raise


# Each flag: the commands that read it (the others reject it), the RunConfig
# field it sets, the parser of its text (with the checks of the config key)
# and its argparse options.
_TRAJ = "traj drive flux spectrum sweep"  # the commands that resolve a worldline
_FLAGS = (
    ("--out", f"{_TRAJ} reproduce", "out_path", None,
     dict(help="output file (or directory for reproduce)")),
    ("--kind", f"{_TRAJ} params", "kind", lambda where, raw: TrajectoryKind(raw),
     dict(choices=[k.value for k in TrajectoryKind])),
    ("--abar", f"{_TRAJ} params", "abar_target", _parse_positive,
     dict(help="target average acceleration [m/s^2]")),
    ("--A", _TRAJ, "A", _parse_positive, dict(help="acceleration parameter [m/s^2]")),
    ("--fd", _TRAJ, "omega_d", _parse_angular, dict(help="drive frequency [Hz, linear]")),
    ("--T", "spectrum sweep", "temperature", None,
     dict(type=float, help="bath temperature [K]")),
    ("--nmax", "drive flux spectrum sweep", "n_max", _parse_n_max,
     dict(help="drive harmonic truncation")),
    ("--points", "traj flux spectrum sweep", "points", None,
     dict(type=int, help="grid/sample point count")),
    ("--split", "spectrum sweep reproduce", "out_format", None,
     dict(action="store_const", const="split", help="one CSV per curve")),
    ("--periods", "flux", "periods", None, dict(type=int, help="number of drive periods")),
    ("--axis", "sweep", "sweep_axis", None, dict(choices=[a.value for a in SweepAxis])),
    ("--min", "sweep", "sweep_min", _parse_float, dict(help="axis start (Hz or m/s^2)")),
    ("--max", "sweep", "sweep_max", _parse_float, dict(help="axis end (Hz or m/s^2)")),
    ("--w", "sweep", "probe_omega", _parse_probe, dict(help="fixed probe frequency [Hz]")),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirror-dce",
        description="Relativistic mirror trajectories on a flux-driven SQUID "
        "boundary: drive synthesis and photon spectra.",
    )
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, help="INI run configuration")
        for flag, readers, _, _, options in _FLAGS:
            if name in readers.split():
                p.add_argument(flag, **options)
        if name == "reproduce":
            p.add_argument("figure", nargs="?", help="fig1..fig8 or preset name")
    return parser


def _merge_flags(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    """Apply the flags over cfg. Number flags must be finite, like config
    values; --abar, --A, --fd and --nmax get the checks of their config
    keys. The range of --T is checked in `main`, as for the config's t."""
    cfg.command = args.command or cfg.command
    for flag, _, field, parse, _ in _FLAGS:
        raw = getattr(args, flag[2:], None)
        if raw is None or (raw == "" and field == "out_path"):
            continue
        setattr(cfg, field, raw if parse is None else parse(flag, raw))
        if field in ("A", "abar_target"):  # the other one is dropped
            setattr(cfg, "abar_target" if field == "A" else "A", None)
    if getattr(args, "figure", None):
        cfg.figure = args.figure
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_help()
        return 2
    try:
        if args.config is not None:
            cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
        else:
            cfg = RunConfig()
        cfg = _merge_flags(cfg, args)
        if not 0.0 <= cfg.temperature < math.inf:
            raise ConfigError(
                f"temperature must be finite and >= 0, got {cfg.temperature!r}"
            )
        if cfg.points < 2:
            raise ConfigError("--points must be >= 2")
        return dispatch(cfg)
    except (ConfigError, ValueError, RuntimeError, OSError) as exc:
        print(f"mirror-dce: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
