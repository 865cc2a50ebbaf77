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
rejected. Command-line flags override config values. A setting is read by
one parser whichever its source (`_SETTINGS`), so every bad value, from a
flag or a config key, exits 1 before anything is written and names the flag
or the `[section] key`; a flag the command does not read exits 2, and `-h`
lists each command's flags and the values --kind and --axis accept. A
command that writes several files removes the ones it wrote when a later
write fails. A `sweep` whose points all fail exits 1 and writes nothing;
when only some fail, their count goes to stderr and the exit status is 0.
"""

from __future__ import annotations

import argparse
import configparser
import functools
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


# Each parser takes `where`, which names the value in messages ("[section]
# key" for a config value, "--flag" for a command-line flag), and the raw
# text; both sources share it, so they get the same checks and messages.
def _parse_float(where: str, raw: str, rule: str = "must be finite") -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{where}: {rule}, got {raw!r}")
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


def _parse_temperature(where: str, raw: str) -> float:
    rule = "temperature must be finite and >= 0"
    value = _parse_float(where, raw, rule)
    if value < 0.0:
        raise ConfigError(f"{where}: {rule}, got {raw!r}")
    return value


def _parse_path(where: str, raw: str) -> str:
    if not raw.strip():
        raise ConfigError(f"{where}: must not be empty")
    return raw.strip()


def _at_least(minimum: int):
    """A parser of integers >= minimum."""

    def parse(where: str, raw: str) -> int:
        try:
            value = int(raw)
        except ValueError as exc:
            raise ConfigError(f"{where}: not an integer: {raw!r}") from exc
        if value < minimum:
            raise ConfigError(f"{where}: must be >= {minimum}")
        return value

    return parse


def _one_of(values, convert=str):
    """A parser of one of values (any case), converted by convert."""

    def parse(where: str, raw: str):
        text = raw.strip().lower()
        if text not in values:
            raise ConfigError(f"{where}: expected {'|'.join(values)}, got {raw!r}")
        return convert(text)

    return parse


_KINDS = tuple(k.value for k in TrajectoryKind)
_AXES = tuple(a.value for a in SweepAxis)
_TRAJ = "traj drive flux spectrum sweep"  # the commands that resolve a worldline

# One row per setting: its config (section, key) and its flag, either may be
# None; the commands that take the flag (the others reject it); the RunConfig
# field it sets ("circuit.X" sets CircuitParams.X); the parser of its text;
# and the flag's argparse options (a metavar lists the accepted values).
_SETTINGS = (
    (("run", "command"), None, "", "command", _one_of(COMMANDS), {}),
    (("trajectory", "kind"), "--kind", f"{_TRAJ} params", "kind",
     _one_of(_KINDS, TrajectoryKind), dict(metavar="{" + ",".join(_KINDS) + "}")),
    (("trajectory", "a"), "--A", _TRAJ, "A", _parse_positive,
     dict(help="acceleration parameter [m/s^2]")),
    (("trajectory", "abar_target"), "--abar", f"{_TRAJ} params", "abar_target",
     _parse_positive, dict(help="target average acceleration [m/s^2]")),
    (("trajectory", "fd"), "--fd", _TRAJ, "omega_d", _parse_angular,
     dict(help="drive frequency [Hz, linear]")),
    (("circuit", "ic"), None, "", "circuit.I_c", _parse_positive, {}),
    (("circuit", "cj"), None, "", "circuit.C_J", _parse_positive, {}),
    (("circuit", "z0"), None, "", "circuit.Z0", _parse_positive, {}),
    (("circuit", "v"), None, "", "circuit.v", _parse_positive, {}),
    (("circuit", "fs"), None, "", "circuit.omega_s", _parse_angular, {}),
    (("circuit", "ej0_ratio"), None, "", "circuit.EJ0_ratio", _parse_positive, {}),
    (("physics", "t"), "--T", "spectrum sweep", "temperature", _parse_temperature,
     dict(help="bath temperature [K]")),
    (("physics", "nmax"), "--nmax", "drive flux spectrum sweep", "n_max", _at_least(0),
     dict(help="drive harmonic truncation")),
    (("output", "path"), "--out", f"{_TRAJ} reproduce", "out_path", _parse_path,
     dict(help="output file (or directory for reproduce)")),
    (("output", "format"), "--split", "spectrum sweep reproduce", "out_format",
     _one_of(("long", "split")), dict(action="store_const", const="split", help="a CSV per curve")),
    (None, "--points", "traj flux spectrum sweep", "points", _at_least(2),
     dict(help="grid/sample point count")),
    (None, "--periods", "flux", "periods", _at_least(1), dict(help="number of drive periods")),
    (None, "--axis", "sweep", "sweep_axis", _one_of(_AXES),
     dict(metavar="{" + ",".join(_AXES) + "}")),
    (None, "--min", "sweep", "sweep_min", _parse_positive,
     dict(help="axis start (Hz or m/s^2)")),
    (None, "--max", "sweep", "sweep_max", _parse_float, dict(help="axis end (Hz or m/s^2)")),
    (None, "--w", "sweep", "probe_omega", _parse_probe, dict(help="fixed probe frequency [Hz]")),
)


def _assign(cfg: RunConfig, where: str, field: str, value) -> None:
    owner, _, name = field.rpartition(".")
    try:
        if owner:  # "circuit"
            cfg.circuit = replace(cfg.circuit, **{name: value})
        else:
            setattr(cfg, name, value)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_config(text: str) -> RunConfig:
    """Parse an INI run configuration into a validated RunConfig.

    Unset circuit fields keep the reference defaults. Exactly one of
    `a` / `abar_target` may appear in the trajectory section."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    rows = {row[0]: row for row in _SETTINGS if row[0] is not None}
    sections = sorted({section for section, _ in rows})
    cfg = RunConfig()
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown section [{section}]; expected one of {', '.join(sections)}")
        for key, raw in parser[section].items():
            if (section, key) not in rows:
                allowed = sorted(k for s, k in rows if s == section)
                raise ConfigError(f"unknown key [{section}] {key}; allowed: " + ", ".join(allowed))
            where = f"[{section}] {key}"
            _, _, _, field, parse, _ = rows[section, key]
            _assign(cfg, where, field, parse(where, raw))
    if cfg.A is not None and cfg.abar_target is not None:
        raise ConfigError("[trajectory]: give exactly one of 'a' and 'abar_target'")
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


def _cmd_traj(cfg: RunConfig) -> list[Path]:
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
    return [_write_table(out, meta, ("t", "tau", "z", "alpha_dir"), columns)]


def _cmd_drive(cfg: RunConfig) -> list[Path]:
    p = _resolve_trajectory(cfg)
    out = Path(_require(cfg.out_path, "output path (--out)"))
    ds = drive_coefficient_dataset({p.kind: (p, cfg.circuit)}, n_max=cfg.n_max)
    return [write_drive_coefficients(ds, out)]


def _cmd_flux(cfg: RunConfig) -> list[Path]:
    p = _resolve_trajectory(cfg)
    out = Path(_require(cfg.out_path, "output path (--out)"))
    drive = trajectory_to_drive(p, cfg.circuit, n_max=cfg.n_max)
    export_flux_waveform(
        drive, cfg.circuit, out, samples_per_period=cfg.points, periods=cfg.periods
    )
    return [out]


def _cmd_spectrum(cfg: RunConfig) -> list[Path]:
    p = _resolve_trajectory(cfg)
    out = Path(_require(cfg.out_path, "output path (--out)"))
    upto = max(cfg.n_max, 1)
    grid = upto * p.omega_d * np.arange(1, cfg.points + 1) / cfg.points
    return _write_sweep(
        cfg, p.kind, SweepAxis.OMEGA, grid, out, omega_d=p.omega_d, A={p.kind: p.A}
    )


def _cmd_sweep(cfg: RunConfig) -> list[Path]:
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
    fixed = {}
    if axis is not SweepAxis.OMEGA_D:
        fixed["omega_d"] = _require(cfg.omega_d, "drive frequency (--fd)")
    if axis is not SweepAxis.OMEGA:
        fixed["omega"] = _require(cfg.probe_omega, "probe frequency (--w)")
    if cfg.A is not None:  # SweepSpec rejects a pinned A on the abar axis
        fixed["A"] = {kind: cfg.A}
    elif axis is not SweepAxis.ABAR:
        fixed["abar"] = _require(cfg.abar_target, "acceleration (--A or --abar)")
    return _write_sweep(cfg, kind, axis, grid, out, **fixed)


def _write_sweep(cfg: RunConfig, kind, axis, grid, out: Path, **fixed) -> list[Path]:
    """Run one kind's sweep at the config's T, n_max and bias; write it to out."""
    spec = SweepSpec(
        figure_id=cfg.command, axis=axis, x=grid, trajectories=(kind,),
        temperatures=(cfg.temperature,), n_max=cfg.n_max,
        ejo_ratio={kind: cfg.circuit.EJ0_ratio}, **fixed,
    )
    datasets = run_sweep(spec, cfg.circuit)
    _report_failed_points(datasets)
    return write_spectrum_datasets(datasets, out, long_format=cfg.out_format == "long")


# One entry of "|" + a dataset's `failures`: "|<index>:<ExceptionClass>: " and its message
# (messages may contain "|" too); the leading literal "|" lets the regex scan ahead fast.
_FAILURE_ENTRY = re.compile(r"\|(\d+|validity):([A-Za-z_]\w*): ")


def _report_failed_points(datasets) -> None:
    """Raise when every sweep point failed, with the first point's message; otherwise,
    when some did, print their count and exception classes (one `findall` each) to stderr."""
    total = sum(ds.x.size for ds in datasets)
    failed = sum(int(np.count_nonzero(np.isnan(ds.n_out))) for ds in datasets)
    texts = ["|" + ds.metadata.get("failures", "") for ds in datasets]
    if failed == total:
        text, first = next(
            (t, m) for t in texts for m in _FAILURE_ENTRY.finditer(t) if m[1] != "validity"
        )
        after = _FAILURE_ENTRY.search(text, first.end())
        raise ValueError(
            f"all {total} sweep points failed; the first (point {first[1]}): {first[2]}: "
            + text[first.end() : after.start() if after else None]
        )
    if failed:
        found = (entry for text in texts for entry in _FAILURE_ENTRY.findall(text))
        classes = ", ".join(dict.fromkeys(cls for index, cls in found if index != "validity"))
        print(f"mirror-dce: {failed} of {total} points failed ({classes})", file=sys.stderr)


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


def _cmd_params(cfg: RunConfig) -> list[Path]:
    kind = _require(cfg.kind, "trajectory kind (--kind)")
    abar = _require(cfg.abar_target, "target acceleration (--abar)")
    sel = select_parameters(kind, abar, cfg.circuit)
    width = max(len(r[0]) for r in _PARAM_ROWS)
    print(f"{'quantity':<{width}}  {kind.value}")
    for label, render in _PARAM_ROWS:
        print(f"{label:<{width}}  {render(sel, cfg.circuit)}")
    return []


def _cmd_reproduce(cfg: RunConfig) -> list[Path]:
    figure = _require(cfg.figure, "figure id (fig1..fig8)")
    if figure not in FIGURE_ALIASES and figure not in FIGURE_ALIASES.values():
        raise ConfigError(
            f"unknown figure {figure!r}; expected {', '.join(FIGURE_ALIASES)} or their aliases"
        )
    out_dir = Path(cfg.out_path or ".")
    return reproduce(figure, out_dir, cfg.circuit, long_format=cfg.out_format == "long")


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
    """Run the configured command and print the paths of the files it wrote."""
    command = _require(cfg.command, "command")
    if command not in _DISPATCH:
        raise ConfigError(f"unknown command {command!r}")
    for path in _DISPATCH[command](cfg):
        print(path)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and kept: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="mirror-dce",
        description="Relativistic mirror trajectories on a flux-driven SQUID "
        "boundary: drive synthesis and photon spectra.",
    )
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, help="INI run configuration")
        for _, flag, readers, _, _, options in _SETTINGS:
            if name in readers.split():
                p.add_argument(flag, **options)
        if name == "reproduce":
            p.add_argument("figure", nargs="?", help="fig1..fig8 or preset name")
    return parser


def _merge_flags(cfg: RunConfig, args: argparse.Namespace) -> RunConfig:
    """Apply the flags over cfg through their `_SETTINGS` parsers. A flag
    that sets A or abar_target drops the config's other one."""
    cfg.command = args.command or cfg.command
    given = [row for row in _SETTINGS if row[1] and getattr(args, row[1][2:], None) is not None]
    if {"A", "abar_target"} <= {field for _, _, _, field, _, _ in given}:
        raise ConfigError("give exactly one of --A and --abar")
    for _, flag, _, field, parse, _ in given:
        _assign(cfg, flag, field, parse(flag, getattr(args, flag[2:])))
        if field in ("A", "abar_target"):
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
        return dispatch(_merge_flags(cfg, args))
    except (ConfigError, ValueError, RuntimeError, OSError) as exc:
        print(f"mirror-dce: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
