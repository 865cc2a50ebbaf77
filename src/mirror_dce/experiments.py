"""Parameter selection and reproducible sweep datasets.

Two standard operating points anchor the bundled presets:

- the baseline single-tone point (drive at 18 GHz, average proper
  acceleration 9.054e17 m/s^2), where all three worldline families look
  alike, and
- the relativistic comparison point (drive at 14.6 GHz, average proper
  acceleration 2e19 m/s^2), chosen by `select_parameters` by bisecting
  the grid k * 0.1 GHz (k = 1..400) for the lowest drive frequency, shared
  by SA and AUA, whose normalized bias stays at or above E_J^0/E_J = 0.1.

Drive normalization: unless a bias ratio is pinned explicitly, presets set
E_J^0 so that the first drive harmonic satisfies |a_1 + i b_1| = a0/8, the
same relative tone strength as the baseline experiment. |z_1| and max|z|
come from the quarter-period kernel of the sweep grid (`_grid_harmonics`),
for a single point as for a whole curve. The output spectrum is independent
of this choice (the bias cancels from the first-order amplitudes); it only
affects experimental feasibility flags.

Sweeps evaluate each curve as arrays, on every axis. The first-order
spectrum depends on the drive only through |z_n|/v, and realizability only
through max|z|, |z_n| and L_eff^0, so no sweep builds a DriveSpectrum: A is
inverted for all of a curve's worldlines at once, the odd harmonics come
from a quarter period of z(t), and `_gate` evaluates the rows of the bounds
table (`circuit._BOUNDS`) over the grid's arrays. On the abar and omega_d
axes every grid point is a worldline of its own: a point that crosses an
error row fails with the text the scalar path would raise, a point that
crosses a warning row warns, and the curve's validity report is the table
at its mid point. An omega-axis curve is one worldline seen at every probe
frequency: its failure, or a spectrum domain error, is the sweep's failure
and raises, and its validity report is the table at the highest probe.
`reproduce` shares this work between the sweeps of one preset that differ
only in probe frequency or temperatures (fig5, fig6). Values agree with the
point-by-point API to rtol 1e-12 above a floor of 1e-12 of the peak.

Grid points are pure function evaluations in one serial loop, placed by
index, so results are bitwise identical across runs.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from enum import Enum
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .circuit import (
    EJ0_RATIO_FLOOR,
    CircuitParams,
    ValidityReport,
    _atomic_write,
    _check_n_max,
    _csv_chunks,
    _float_values,
    _judge,
    _Quantities,
    _report,
    effective_length,
    trajectory_to_drive,
    validate,
)
# output_spectrum and validate go uncalled here; perfbench/spans.py wraps both bindings.
from .scattering import _n_out, output_spectrum
from .trajectories import (
    SUBLUMINAL_MARGIN,
    SYNTHESIS_SAMPLES,
    TrajectoryKind,
    TrajectoryParams,
    _grid_acceleration_parameter,
    _grid_harmonics,
    average_acceleration,
    directional_acceleration,
    position,
    solve_acceleration_parameter,
)

__all__ = [
    "FIGURE_ALIASES",
    "FORMAT_HEADER",
    "DriveCoefficientDataset",
    "InfeasibleError",
    "ParameterSelection",
    "SpectrumDataset",
    "SweepAxis",
    "SweepSpec",
    "WorldlineDataset",
    "baseline_point",
    "drive_coefficient_dataset",
    "drive_normalized_bias",
    "figure_preset",
    "first_harmonic_amplitude",
    "read_spectrum_datasets",
    "read_table",
    "relativistic_point",
    "reproduce",
    "run_sweep",
    "select_parameters",
    "worldline_dataset",
    "write_drive_coefficients",
    "write_spectrum_datasets",
    "write_worldlines",
]

FORMAT_HEADER = "# mirror-dce v1"

# First-harmonic drive strength used when normalizing the bias point:
# |a_1 + i b_1| / a0 = 1/8, the baseline experiment's tone ratio.
NORMALIZED_TONE_RATIO = 0.125


class InfeasibleError(ValueError):
    """No drive frequency up to OMEGA_D_MAX reaches the target realizably."""


class SweepAxis(str, Enum):
    OMEGA = "omega"
    OMEGA_D = "omega_d"
    ABAR = "abar"


# ---------------------------------------------------------------------------
# operating points and bias normalization
# ---------------------------------------------------------------------------

def baseline_point() -> tuple[float, float]:
    """(abar [m/s^2], omega_d [rad/s]) of the baseline single-tone setup."""
    return 9.054e17, 2.0 * math.pi * 18e9


def relativistic_point() -> tuple[float, float]:
    """(abar [m/s^2], omega_d [rad/s]) of the relativistic comparison setup."""
    return 20e18, 2.0 * math.pi * 14.6e9


def first_harmonic_amplitude(p: TrajectoryParams) -> float:
    """|z_1|: magnitude of the fundamental Fourier component of z(t) [m]."""
    a, _ = _grid_harmonics(p.kind, [p.A], [p.omega_d], p.v, 1)
    return float(abs(a[0, 0]))


def _normalized_bias_ratio(z1, z_peak, c: CircuitParams):
    """The E_J^0/E_J of `drive_normalized_bias` from |z_1| and max|z| [m];
    elementwise over arrays."""
    leff_unit = effective_length(replace(c, EJ0_ratio=1.0))  # at E_J^0 = E_J
    ratio = leff_unit / (z1 / (2.0 * NORMALIZED_TONE_RATIO))
    # ceiling: E_J^0 * (1 + z_peak / L_eff^0) <= 2 E_J, i.e.
    # eta r^2 + r - 2 <= 0 with eta = z_peak / leff_unit; its positive root,
    # written without the subtraction that loses digits at small eta
    eta = z_peak / leff_unit
    cap = 4.0 * (1.0 - 1e-9) / (1.0 + np.sqrt(1.0 + 8.0 * eta * (1.0 - 1e-9)))
    return np.minimum(ratio, cap)


def drive_normalized_bias(p: TrajectoryParams, c: CircuitParams) -> CircuitParams:
    """Circuit with E_J^0 set so the synthesized first harmonic has
    |a_1 + i b_1| = NORMALIZED_TONE_RATIO * a0 = a0/8.

    Since a_1/a0 = z_1 / (2 L_eff^0), this fixes L_eff^0 = 4 z_1 and
    thereby the bias ratio. Small-amplitude trajectories would push the
    bias past the flux-tuning ceiling E_J(t) <= 2 E_J; the bias then
    saturates just below the ceiling (the realized tone ratio drops, which
    leaves the output spectrum unchanged). z_1 and max|z| come from the
    quarter-period kernel of the sweep grid, so every sweep point shares
    this bias path."""
    a, z_peak = _grid_harmonics(p.kind, [p.A], [p.omega_d], p.v, 1)
    ratio = _normalized_bias_ratio(np.abs(a[:, 0]), z_peak, c)
    return replace(c, EJ0_ratio=float(ratio[0]))


# ---------------------------------------------------------------------------
# parameter selection
# ---------------------------------------------------------------------------

_SA_AUA = (TrajectoryKind.SA, TrajectoryKind.AUA)

# The drive-frequency grid of the search: omega_d = k * OMEGA_D_RESOLUTION
# for k = 1 .. OMEGA_D_MAX / OMEGA_D_RESOLUTION (0.1 GHz steps up to 40 GHz).
OMEGA_D_RESOLUTION = 2.0 * math.pi * 0.1e9
OMEGA_D_MAX = 2.0 * math.pi * 40e9


@dataclass(frozen=True)
class ParameterSelection:
    """Resolved operating point for one worldline kind."""

    kind: TrajectoryKind
    A: float
    omega_d: float
    abar: float
    ejo_ratio: float
    L_eff0: float
    R: float | None = None  # SM oscillation amplitude [m]


def _feasible(
    kind: TrajectoryKind, abar: float, omega_d: float, c: CircuitParams
) -> bool:
    if kind is TrajectoryKind.SM:
        # Largest SM amplitude compatible with a subluminal wall anywhere up
        # to the maximum drive frequency (with a hair of margin off the bound).
        cap = (1.0 - 10.0 * SUBLUMINAL_MARGIN) * c.v / OMEGA_D_MAX
        p_cap = TrajectoryParams(TrajectoryKind.SM, cap * omega_d**2, omega_d, c.v)
        if average_acceleration(p_cap) < abar:
            return False
    A = solve_acceleration_parameter(kind, abar, omega_d, c.v)
    p = TrajectoryParams(kind, A, omega_d, c.v)
    biased = drive_normalized_bias(p, c)
    return biased.EJ0_ratio >= EJ0_RATIO_FLOOR


def select_parameters(
    kind: TrajectoryKind, abar_target: float, c: CircuitParams
) -> ParameterSelection:
    """Lowest-frequency operating point reaching the target abar.

    Lexicographic: (1) hit abar_target exactly by solving A; (2) restrict to
    drive-realizable points with E_J^0/E_J >= EJ0_RATIO_FLOOR under the
    first-harmonic normalization; (3) minimize omega_d over the grid
    k * OMEGA_D_RESOLUTION, k = 1 .. OMEGA_D_MAX / OMEGA_D_RESOLUTION. SA and
    AUA share one drive frequency, the lowest feasible for both. The grid is
    bisected, which assumes feasibility grows with omega_d."""
    kind = TrajectoryKind(kind)
    if not abar_target > 0.0:
        raise ValueError(f"abar_target must be positive, got {abar_target}")
    group = _SA_AUA if kind in _SA_AUA else (kind,)
    for member in group:
        if not _feasible(member, abar_target, OMEGA_D_MAX, c):
            raise InfeasibleError(
                f"{member.value}: abar_target={abar_target:.4g} m/s^2 is not "
                f"reachable below omega_d_max/2pi = {OMEGA_D_MAX / (2e9 * math.pi):.4g} GHz"
            )
    lo, hi = 0, round(OMEGA_D_MAX / OMEGA_D_RESOLUTION)  # lo infeasible, hi feasible
    while hi - lo > 1:
        mid = (lo + hi) // 2
        omega_d = mid * OMEGA_D_RESOLUTION
        if all(_feasible(member, abar_target, omega_d, c) for member in group):
            hi = mid
        else:
            lo = mid
    omega_d = hi * OMEGA_D_RESOLUTION

    A = solve_acceleration_parameter(kind, abar_target, omega_d, c.v)
    p = TrajectoryParams(kind, A, omega_d, c.v)
    biased = drive_normalized_bias(p, c)
    return ParameterSelection(
        kind=kind,
        A=A,
        omega_d=omega_d,
        abar=abar_target,
        ejo_ratio=biased.EJ0_ratio,
        L_eff0=effective_length(biased),
        R=p.R if kind is TrajectoryKind.SM else None,
    )


# ---------------------------------------------------------------------------
# sweep specification and execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SweepSpec:
    """One figure-class sweep: which axis varies, over which grid, for which
    worldline kinds and temperatures, and what is held fixed.

    A and ejo_ratio may pin per-kind values; otherwise A is re-solved from
    `abar` and the bias is normalized per configuration. The grid `x` is
    stored as a read-only float64 copy. Specs compare and hash by identity."""

    figure_id: str
    axis: SweepAxis
    x: np.ndarray
    trajectories: tuple[TrajectoryKind, ...]
    temperatures: tuple[float, ...] = (0.0,)
    n_max: int = 3
    omega_d: float | None = None
    omega: float | None = None
    abar: float | None = None
    A: Mapping[TrajectoryKind, float] | None = None
    ejo_ratio: Mapping[TrajectoryKind, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "axis", SweepAxis(self.axis))
        x = np.array(self.x, dtype=float)
        x.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(
            self, "trajectories", tuple(TrajectoryKind(k) for k in self.trajectories)
        )
        # + 0.0 turns -0.0 into 0.0, so the curve id reads "@0".
        object.__setattr__(
            self, "temperatures", tuple(float(t) + 0.0 for t in self.temperatures)
        )
        if x.ndim != 1 or x.size < 2:
            raise ValueError("sweep grid must be 1-D with at least 2 points")
        _check_n_max(self.n_max)
        if not self.trajectories:
            raise ValueError("sweep needs at least one trajectory kind")
        if not all(0.0 <= t < math.inf for t in self.temperatures):
            raise ValueError("temperatures must be finite and >= 0")
        if self.axis is not SweepAxis.OMEGA_D and self.omega_d is None:
            raise ValueError(f"axis {self.axis.value} requires a fixed omega_d")
        if self.axis is not SweepAxis.OMEGA and self.omega is None:
            raise ValueError(f"axis {self.axis.value} requires a fixed probe omega")
        for name, pins, rule, ok in (
            # E_J(t) = 2 E_J |cos(...)| caps the static bias at 2 E_J.
            ("ejo_ratio", self.ejo_ratio, "lie in (0, 2]", lambda r: 0.0 < r <= 2.0),
            ("A", self.A, "be positive and finite", lambda a: 0.0 < a < math.inf),
        ):
            for kind, value in (pins or {}).items():
                if not ok(value):
                    kind = TrajectoryKind(kind).value
                    raise ValueError(f"{name}[{kind}] must {rule}, got {value}")
        if self.axis is SweepAxis.ABAR:
            if self.A is not None:
                raise ValueError("an abar-axis sweep re-solves A; do not pin it")
        elif self.abar is None and self.A is None:
            raise ValueError("either abar or per-kind A must be given")


@dataclass
class SpectrumDataset:
    """One sweep curve: grid, photon numbers, and full provenance metadata.

    Metadata values are stored as their serialized strings so a write/read
    round trip is exact."""

    axis: SweepAxis
    x: np.ndarray
    n_out: np.ndarray
    metadata: dict[str, str]

    def __post_init__(self):
        self.axis = SweepAxis(self.axis)
        self.x = np.asarray(self.x, dtype=float)
        self.n_out = np.asarray(self.n_out, dtype=float)
        if self.x.shape != self.n_out.shape:
            raise ValueError("x and n_out must have matching shapes")
        finite = self.n_out[np.isfinite(self.n_out)]
        if finite.size and float(np.min(finite)) < 0.0:
            raise ValueError("n_out must be nonnegative")

    @property
    def trajectory(self) -> TrajectoryKind:
        return TrajectoryKind(self.metadata["trajectory"])

    @property
    def temperature(self) -> float:
        return float(self.metadata["temperature"])


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, Enum):
        return str(value.value)
    return str(value)


def _circuit_metadata(c: CircuitParams) -> dict[str, str]:
    return {f"circuit.{f.name}": _fmt(getattr(c, f.name)) for f in fields(c)}


def _report_metadata(report: ValidityReport) -> dict[str, str]:
    meta = {}
    warn = ";".join(ch.name for ch in report.warnings)
    fail = ";".join(ch.name for ch in report.failures)
    if warn:
        meta["validity.warnings"] = warn
    if fail:
        meta["validity.failures"] = fail
    return meta


def _synthesis_key(spec: SweepSpec, c: CircuitParams) -> tuple:
    """Everything the judged curves of a sweep depend on: the spec without
    its figure id, probe frequency and temperatures, plus the circuit."""

    def frozen(pins):
        return None if pins is None else frozenset(pins.items())

    return (
        spec.axis, spec.x.tobytes(), spec.trajectories, spec.n_max, spec.omega_d,
        spec.abar, frozen(spec.A), frozen(spec.ejo_ratio), c,
    )


# The most z(t) samples the harmonic kernel holds at once, rows x samples
# per row: 16 rows of the 1025-sample quarter period, or 496 rows of the
# 33-sample rule of SA at beta <= 3.1.
_BLOCK_SAMPLES = 16 * (SYNTHESIS_SAMPLES // 4 + 1)


class _Curve(NamedTuple):
    """One kind's worldlines: the `_n_out` weights |z_n|^2 / v^2, shape
    (n_max, ok.size), of the worldlines that pass every error row (indices
    `ok`), the other worldlines' failures as (exception class, message),
    and the bound quantities of every worldline."""

    ok: np.ndarray
    weights: np.ndarray
    failures: dict[int, tuple[type, str]]
    bounds: _Quantities


def _gate(
    kind: TrajectoryKind, spec: SweepSpec, c: CircuitParams, A: np.ndarray, wd: np.ndarray
) -> tuple[dict[int, tuple[type, str]], _Quantities, np.ndarray]:
    """Judge the worldlines with parameters A and wd (NaN A: no worldline,
    skipped) against every row of the bounds table, without a margin.

    Returns the exception class and message of each worldline that crosses
    an error row, by index; the quantities of every worldline (z_n and
    max|z| from the quarter-period kernel, `_BLOCK_SAMPLES` at a time); and
    the weights |z_n|^2 / v^2, shape (n_max, worldlines). A worldline that
    crosses a warning row warns and keeps its weights."""
    n_max = spec.n_max
    a, z_peak = _grid_harmonics(kind, A, wd, c.v, max(n_max, 1), _BLOCK_SAMPLES)
    pins = spec.ejo_ratio or {}
    if kind in pins:
        bias = float(pins[kind])
    else:
        bias = _normalized_bias_ratio(np.abs(a[:, 0]), z_peak, c)
    leff = effective_length(replace(c, EJ0_ratio=1.0)) / bias
    mag = np.abs(a[:, :n_max])
    q = _Quantities(
        ratio=mag / (2.0 * np.reshape(leff, (-1, 1))),
        A=A, omega_d=wd, c=c, bias=bias, leff=leff, z_peak=z_peak,
    )
    judged = np.flatnonzero(np.isfinite(A))
    failures = {int(judged[j]): failure for j, failure in _judge(q.at(judged)).items()}
    return failures, q, (mag**2).T * (1.0 / c.v**2)


def _grid_curve(kind: TrajectoryKind, spec: SweepSpec, c: CircuitParams) -> _Curve:
    """Judge one kind's worldlines: one per grid point on the abar and
    omega_d axes, and the single worldline of an omega-axis curve.

    A is inverted for every worldline at once. A worldline whose A or
    parameters are invalid takes its failure from the scalar API
    (`solve_acceleration_parameter`, `TrajectoryParams`), or, where that
    finds an A, goes through the grid rows with it. `_gate` judges the rest;
    no DriveSpectrum is built. On the omega axis the worldline's failure is
    the sweep's: it raises, with the class and message of the scalar path."""
    size = 1 if spec.axis is SweepAxis.OMEGA else spec.x.size
    wd = spec.x if spec.axis is SweepAxis.OMEGA_D else np.full(size, float(spec.omega_d))
    abar = spec.x if spec.axis is SweepAxis.ABAR else np.full(size, spec.abar, dtype=float)
    failures: dict[int, tuple[type, str]] = {}
    with np.errstate(all="ignore"):  # points without a worldline are NaN
        if spec.A is not None and kind in spec.A:
            A = np.full(size, float(spec.A[kind]))
        else:
            A = _grid_acceleration_parameter(kind, abar, wd, c.v)
        valid = (A > 0.0) & (A < math.inf) & (wd > 0.0) & (wd < math.inf)
        if kind is TrajectoryKind.SM:
            valid &= A / wd < c.v * (1.0 - SUBLUMINAL_MARGIN)
        for i in np.flatnonzero(~valid).tolist():
            try:
                if not math.isfinite(A[i]):
                    A[i] = solve_acceleration_parameter(kind, abar[i], wd[i], c.v)
                TrajectoryParams(kind, A[i], wd[i], c.v)
            except _POINT_ERRORS as exc:
                A[i], failures[i] = math.nan, (type(exc), str(exc))
        gated, bounds, weights = _gate(kind, spec, c, A, wd)
    failures.update(gated)
    if spec.axis is SweepAxis.OMEGA and failures:
        error, message = failures[0]
        raise error(message)
    ok = np.array([i for i in range(size) if i not in failures], dtype=int)
    return _Curve(ok, weights[:, ok], failures, bounds)


def _entry(failure: tuple[type, str]) -> str:
    """A failure as it reads in the `failures` metadata."""
    error, message = failure
    return f"{error.__name__}: {message}"


def _grid_values(omega: float, curve: _Curve, T: float) -> tuple[np.ndarray, list[str]]:
    """n_out at the fixed probe omega for every grid point, in one batch over
    the points that passed the bounds, and the `i:<message>` failures by
    point index. A spectrum domain error fails every such point."""
    vals = np.full(curve.bounds.A.size, np.nan)
    failures = curve.failures
    if curve.ok.size:
        try:
            wd = curve.bounds.omega_d[curve.ok]
            vals[curve.ok] = _n_out(np.full(curve.ok.size, omega), T, wd, curve.weights)
        except _POINT_ERRORS as exc:
            failures = {**failures, **dict.fromkeys(curve.ok.tolist(), (type(exc), str(exc)))}
    return vals, [f"{i}:{_entry(failures[i])}" for i in sorted(failures)]


def _evaluate_sweep(
    spec: SweepSpec, curves: dict[TrajectoryKind, _Curve]
) -> list[SpectrumDataset]:
    """One dataset per (trajectory, temperature) from the judged curves."""
    datasets: list[SpectrumDataset] = []
    for kind in spec.trajectories:
        curve = curves[kind]
        # The curve's validity report is the table at its mid worldline (an
        # omega-axis curve has one) and its highest probe frequency.
        mid = curve.bounds.A.size // 2
        for T in spec.temperatures:
            failures: list[str] = []
            meta: dict[str, str] = {
                "figure": spec.figure_id,
                "axis": spec.axis.value,
                "trajectory": kind.value,
                "temperature": _fmt(T),
                "n_max": _fmt(spec.n_max),
            }
            if spec.omega is not None:
                meta["omega"] = _fmt(spec.omega)
            if spec.abar is not None:
                meta["abar"] = _fmt(spec.abar)
            if spec.axis is not SweepAxis.OMEGA_D:
                meta["omega_d"] = _fmt(spec.omega_d)

            probe = float(np.max(spec.x)) if spec.axis is SweepAxis.OMEGA else float(spec.omega)
            at = curve.bounds.at(mid).updated(omega=probe, T=T)
            if spec.axis is SweepAxis.OMEGA:
                vals = _n_out(spec.x, T, at.omega_d, curve.weights)
                meta["A"] = _fmt(at.A)
                p = TrajectoryParams(kind, float(at.A), float(at.omega_d), at.c.v)
                meta["abar_realized"] = _fmt(average_acceleration(p))
            else:
                vals, failures = _grid_values(probe, curve, T)
            if mid in curve.failures:
                failures.append(f"validity:{_entry(curve.failures[mid])}")
            else:
                meta.update(_circuit_metadata(replace(at.c, EJ0_ratio=float(at.bias))))
                meta.update(_report_metadata(_report(at)))

            if failures:
                meta["failures"] = "|".join(failures)
            datasets.append(SpectrumDataset(
                axis=spec.axis, x=spec.x.copy(), n_out=np.asarray(vals), metadata=meta
            ))
    return datasets


def run_sweep(
    spec: SweepSpec, c: CircuitParams, *, _shared: dict | None = None
) -> list[SpectrumDataset]:
    """Evaluate the sweep: one dataset per (trajectory, temperature).

    Each kind's worldlines are judged once against the bounds table (see
    `_grid_curve`) and each curve evaluated from them in one batch per
    temperature; no sweep builds a drive. On the abar and omega_d axes,
    per-point domain errors (a crossed error row of the table, or a
    ValueError of the A inversion or the spectrum) are recorded in the
    metadata under `failures` and leave NaN in the curve; points are never
    dropped. An omega-axis curve is one worldline, so
    there such an error raises. Any other exception propagates.

    `_shared` is internal: a dict that `reproduce` hands to every sweep of
    one preset, so sweeps that differ only in figure id, probe frequency or
    temperatures judge their worldlines once."""
    shared = {} if _shared is None else _shared
    key = _synthesis_key(spec, c)
    if key not in shared:
        shared[key] = {kind: _grid_curve(kind, spec, c) for kind in spec.trajectories}
    return _evaluate_sweep(spec, shared[key])


# Per-point domain errors; RealizabilityError is a ValueError. Anything else
# is a programming error and propagates out of the sweep.
_POINT_ERRORS = ValueError


# ---------------------------------------------------------------------------
# worldline and drive-coefficient datasets
# ---------------------------------------------------------------------------

@dataclass
class WorldlineDataset:
    """Sampled positions and directional accelerations over one period."""

    t: np.ndarray
    z: dict[TrajectoryKind, np.ndarray]
    alpha: dict[TrajectoryKind, np.ndarray]
    metadata: dict[str, str]


def worldline_dataset(
    abar: float,
    omega_d: float,
    v: float,
    points: int = 1024,
) -> WorldlineDataset:
    """One coordinate period of z(t) and alpha(t) at matched abar, omega_d."""
    t = np.arange(points) * (2.0 * math.pi / omega_d / points)
    z: dict[TrajectoryKind, np.ndarray] = {}
    alpha: dict[TrajectoryKind, np.ndarray] = {}
    meta = {
        "kind": "worldlines",
        "abar": _fmt(abar),
        "omega_d": _fmt(omega_d),
        "v": _fmt(v),
        "points": _fmt(points),
    }
    for kind in TrajectoryKind:
        A = solve_acceleration_parameter(kind, abar, omega_d, v)
        p = TrajectoryParams(kind, A, omega_d, v)
        z[kind] = position(p, t)
        alpha[kind] = directional_acceleration(p, t)
        meta[f"A.{kind.value}"] = _fmt(A)
    return WorldlineDataset(t=t, z=z, alpha=alpha, metadata=meta)


@dataclass
class DriveCoefficientDataset:
    """Per-harmonic drive coefficients for one or more worldline kinds."""

    n: np.ndarray
    a: dict[TrajectoryKind, np.ndarray]   # [J]
    b: dict[TrajectoryKind, np.ndarray]
    metadata: dict[str, str]


def drive_coefficient_dataset(
    configs: Mapping[TrajectoryKind, tuple[TrajectoryParams, CircuitParams]],
    n_max: int = 6,
) -> DriveCoefficientDataset:
    a: dict[TrajectoryKind, np.ndarray] = {}
    b: dict[TrajectoryKind, np.ndarray] = {}
    meta: dict[str, str] = {"kind": "drive_coefficients", "n_max": _fmt(n_max)}
    for kind, (p, c) in configs.items():
        kind = TrajectoryKind(kind)
        drive = trajectory_to_drive(p, c, n_max=n_max)
        a[kind] = drive.a.copy()
        b[kind] = drive.b.copy()
        meta[f"A.{kind.value}"] = _fmt(p.A)
        meta[f"omega_d.{kind.value}"] = _fmt(p.omega_d)
        meta[f"a0.{kind.value}"] = _fmt(drive.a0)
        meta[f"EJ0_ratio.{kind.value}"] = _fmt(c.EJ0_ratio)
    return DriveCoefficientDataset(
        n=np.arange(1, n_max + 1), a=a, b=b, metadata=meta
    )


# ---------------------------------------------------------------------------
# CSV serialization
# ---------------------------------------------------------------------------

def _write_table(
    path, meta: Mapping[str, str], names: Sequence[str], columns: Sequence[np.ndarray]
) -> Path:
    """Write one `# mirror-dce v1` table: the header, one `# key=value` line
    per metadata entry, the column names, then one row per index of the
    equal-length columns. Floats carry 17 significant digits, so reading
    the file back reproduces them exactly. The rows are formatted and
    streamed to the file in fixed blocks, never held whole in memory."""
    path = Path(path)
    head = [FORMAT_HEADER, *(f"# {key}={value}" for key, value in meta.items()), ",".join(names)]
    _atomic_write(path, _csv_chunks("\n".join(head), columns))
    return path


def _text_column(values: Sequence[str], counts) -> np.ndarray:
    """values[i] repeated counts[i] times. Object dtype holds one reference
    per row where fixed-width numpy strings would copy every cell."""
    return np.repeat(np.array(values, dtype=object), counts)


@contextlib.contextmanager
def _removed_on_failure():
    """A list for the paths of a multi-file output; if the block fails,
    the files listed so far are deleted before the error propagates."""
    paths: list[Path] = []
    try:
        yield paths
    except BaseException:
        for path in paths:
            path.unlink(missing_ok=True)
        raise


def _curve_id(ds: SpectrumDataset) -> str:
    return f"{ds.metadata['trajectory']}@{ds.metadata['temperature']}"


# Keys shared by every curve in a long-format file (written un-prefixed).
_COMMON_KEYS = ("figure", "axis", "n_max", "omega", "omega_d", "abar")


def write_spectrum_datasets(
    datasets: Sequence[SpectrumDataset], path, long_format: bool = True
) -> list[Path]:
    """Serialize sweep curves to CSV.

    long_format=True writes one file with columns x,n_out,trajectory,
    temperature (per-curve metadata gets a `<trajectory>@<T>:` prefix);
    otherwise one file per (trajectory, temperature) combination with plain
    x,n_out columns. Floats carry 17 significant digits, so parsing the file
    back reproduces the dataset exactly. Curves that share a
    (trajectory, temperature) pair would merge on reading and are rejected.
    If one of the split files fails, the ones already written are removed."""
    if not datasets:
        raise ValueError("no datasets to write")
    ids = [_curve_id(ds) for ds in datasets]
    if len(set(ids)) < len(ids):
        raise ValueError(f"curves must differ in trajectory@temperature, got {ids}")
    path = Path(path)
    if not long_format:
        with _removed_on_failure() as paths:
            for ds in datasets:
                suffix = f"_{ds.metadata['trajectory']}_T{ds.metadata['temperature']}"
                target = path.with_name(path.stem + suffix + path.suffix)
                paths.append(_write_table(target, ds.metadata, ("x", "n_out"), (ds.x, ds.n_out)))
        return paths

    shared: dict[str, str] = {}
    for key in _COMMON_KEYS:
        values = {ds.metadata.get(key) for ds in datasets}
        if len(values) == 1 and None not in values:
            shared[key] = datasets[0].metadata[key]
    meta = dict(shared)
    for cid, ds in zip(ids, datasets):
        for key, value in ds.metadata.items():
            if shared.get(key) != value:
                meta[f"{cid}:{key}"] = value
    sizes = [ds.x.size for ds in datasets]
    columns = (
        np.concatenate([ds.x for ds in datasets]),
        np.concatenate([ds.n_out for ds in datasets]),
        _text_column([ds.metadata["trajectory"] for ds in datasets], sizes),
        _text_column([ds.metadata["temperature"] for ds in datasets], sizes),
    )
    return [_write_table(path, meta, ("x", "n_out", "trajectory", "temperature"), columns)]


# Bytes read at a time: bounds what the row parse holds, whatever the table's length.
_READ_BYTES = 1 << 17
# Before each block of rows, so that every cell's window (`_float_values`,
# `_text_cells`) starts inside the block's array.
_GAP = b" " * 64
_CR_AS_LF = bytes.maketrans(b"\r", b"\n")


def _line_blocks(fh) -> Iterator[bytes]:
    """The bytes of a binary file in blocks of whole lines, each ending in a
    newline. A carriage return ends a line too, as in text mode; the empty
    line it makes of a CRLF is skipped like any other."""
    rest = b""
    while data := fh.read(_READ_BYTES):
        data = rest + (data.translate(_CR_AS_LF) if b"\r" in data else data)
        cut = data.rfind(b"\n") + 1
        rest = data[cut:]
        if cut:
            yield data[:cut]
    if rest:
        yield rest + b"\n"


def _lines(blocks: Iterator[bytes]) -> Iterator[tuple[bytes, int, int]]:
    """Each line of the blocks as (block, start, end)."""
    for block in blocks:
        at = 0
        while at < len(block):
            end = block.index(b"\n", at)
            yield block, at, end
            at = end + 1


def _read_head(path, blocks: Iterator[bytes]) -> tuple[dict[str, str], list[str], bytes]:
    """The metadata and column names from the first lines of the blocks, and
    what follows the column line in its block."""
    lines = _lines(blocks)
    block, start, end = next(lines, (b"", 0, 0))
    if block[start:end].decode("utf-8") != FORMAT_HEADER:
        raise ValueError(f"{path}: not a {FORMAT_HEADER!r} file")
    meta: dict[str, str] = {}
    for block, start, end in lines:
        line = block[start:end].decode("utf-8")
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif line:
            return meta, line.split(","), block[end + 1 :]
    raise ValueError(f"{path}: missing column header")


def _row_cells(block: bytes, columns: int, row: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(data, start, end): the block after `_GAP` as uint8, and where each
    cell of its rows starts and ends in it, (rows, columns) each. Empty lines
    are skipped; ValueError names the first row (counted from row) that has
    not `columns` cells."""
    data = np.frombuffer(_GAP + block, np.uint8)
    end = np.flatnonzero((data == 44) | (data == 10))
    if not len(end):
        return data, end.reshape(0, columns), end.reshape(0, columns)
    newline = data[end] == 10
    start = np.empty_like(end)
    start[0], start[1:] = len(_GAP), end[:-1] + 1
    empty = newline & (start == end)  # an empty line: one empty cell after a newline
    empty[1:] &= newline[:-1]
    if empty.any():
        start, end, newline = start[~empty], end[~empty], newline[~empty]
    rows = np.count_nonzero(newline)
    if len(end) != rows * columns or not newline[columns - 1 :: columns].all():
        counts = np.diff(np.flatnonzero(newline), prepend=-1)
        bad = np.flatnonzero(counts != columns)[0]
        raise ValueError(f"row {row + bad + 1} has {counts[bad]} cells, not {columns}")
    return data, start.reshape(rows, columns), end.reshape(rows, columns)


def _text_cells(data: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """The cells data[start:end] as an object array of interned str. Each
    run of equal cells is decoded once: a cell of up to 64 bytes is compared
    with the one before it in a window of the widest cell, one wider starts
    a run."""
    width = end - start
    span = int(min(width.max(initial=1), 64))
    window = np.ndarray((len(data) - span + 1,), f"V{span}", data, 0, (1,))[end - span]
    if width.min(initial=span) < span:  # clear the bytes before the narrower cells
        shown = np.arange(span) >= span - np.arange(span + 1)[:, None]
        window = window.view(np.uint8).reshape(-1, span)
        window *= shown[np.minimum(width, span)]
    text = window.view(f"S{span}").ravel()
    new = np.empty(len(start), bool)
    new[:1] = True
    new[1:] = (text[1:] != text[:-1]) | (width[1:] != width[:-1]) | (width[1:] > span)
    heads = np.flatnonzero(new)
    texts = [
        sys.intern(data[a:b].tobytes().decode("utf-8"))
        for a, b in zip(start[heads].tolist(), end[heads].tolist())
    ]
    return _text_column(texts, np.diff(heads, append=len(start)))


def _read_table(
    path, text: Sequence[str]
) -> tuple[dict[str, str], list[str], dict[str, np.ndarray]]:
    """(metadata, column names, columns): the `# key=value` lines up to the
    column line, then the rows, parsed `_READ_BYTES` at a time, each block
    in one pass of numpy calls. The columns named in text hold interned str
    (object arrays, `_text_cells`), the others float64, each cell as
    np.loadtxt reads it (`_float_values`)."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        blocks = _line_blocks(fh)
        meta, names, rest = _read_head(path, blocks)
        if len(set(names)) < len(names):
            raise ValueError(f"{path}: repeated column names {names}")
        floats = [i for i, name in enumerate(names) if name not in text]
        texts = {i: [] for i, name in enumerate(names) if name in text}
        # A row per float column, sized by the rows a byte so far times the
        # bytes left: no block's floats are kept apart and joined at the end
        values = np.empty((len(floats), 0))
        rows = 0
        try:
            for block in itertools.chain([rest], blocks):
                data, start, end = _row_cells(block, len(names), rows)
                count = len(start)
                if not count:
                    continue
                if rows + count > values.shape[1]:
                    read = fh.tell()
                    room = rows + count + int((rows + count) * max(size - read, 0) / read * 1.1)
                    more = np.empty((len(floats), room - rows))
                    values = np.concatenate([values[:, :rows], more], axis=1)
                if floats:  # one kernel call for the block's float cells, column by column
                    cells = start[:, floats].T.ravel(), end[:, floats].T.ravel()
                    values[:, rows : rows + count] = _float_values(data, *cells).reshape(-1, count)
                for i, parts in texts.items():
                    parts.append(_text_cells(data, start[:, i], end[:, i]))
                rows += count
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    columns = dict(zip((names[i] for i in floats), values[:, :rows]))
    for i, parts in texts.items():
        columns[names[i]] = np.concatenate(parts) if parts else np.empty(0, object)
    return meta, names, {name: columns[name] for name in names}


def read_table(path) -> tuple[dict[str, str], dict[str, list]]:
    """Parse a dataset CSV with the `# mirror-dce v1` header into
    (metadata, columns): every file this package writes except the flux
    waveform of `export_flux_waveform`, a bare `t,phi_ext` CSV.

    Numeric columns come back as float lists, each cell as np.loadtxt
    reads it (lossless at 17 significant digits); the trajectory column
    stays as strings, each cell as written. Blank lines are skipped; CRLF
    and CR end lines as LF does. ValueError, naming the path, is raised
    for a short, long or non-numeric row, for a `# key=value` line after
    the column line and for repeated column names."""
    meta, names, rows = _read_table(path, ("trajectory",))
    return meta, {name: rows[name].tolist() for name in names}


def read_spectrum_datasets(path) -> list[SpectrumDataset]:
    """Parse CSV written by write_spectrum_datasets (either format).

    A long file gives its curves in the order written, each curve's rows
    picked by its trajectory@temperature id; a curve without rows is kept,
    since its prefixed metadata names it."""
    meta, names, rows = _read_table(path, ("trajectory", "temperature"))
    if names == ["x", "n_out"]:
        return [SpectrumDataset(_axis(path, meta), rows["x"], rows["n_out"], meta)]
    if names != ["x", "n_out", "trajectory", "temperature"]:
        raise ValueError(f"{path}: unexpected columns {names}")

    shared = {k: v for k, v in meta.items() if ":" not in k}
    curves: dict[str, dict[str, str]] = {}
    for key, value in meta.items():
        if ":" in key:
            prefix, _, name = key.partition(":")
            curves.setdefault(prefix, {})[name] = value
    # One id per run of rows of one curve, not one str per row
    trajectory, temperature = rows["trajectory"], rows["temperature"]
    change = (trajectory[1:] != trajectory[:-1]) | (temperature[1:] != temperature[:-1])
    heads = np.flatnonzero(np.concatenate([[len(trajectory) > 0], change]))
    runs = [f"{t}@{T}" for t, T in zip(trajectory[heads].tolist(), temperature[heads].tolist())]
    ids = _text_column(runs, np.diff(heads, append=len(trajectory)))
    for cid in dict.fromkeys(runs):
        curves.setdefault(cid, {})

    datasets = []
    for cid, own in curves.items():
        traj, _, temp = cid.partition("@")
        ds_meta = {**shared, **own}
        ds_meta.setdefault("trajectory", traj)
        ds_meta.setdefault("temperature", temp)
        pick = ids == cid
        curve = SpectrumDataset(_axis(path, ds_meta), rows["x"][pick], rows["n_out"][pick], ds_meta)
        datasets.append(curve)
    return datasets


def _axis(path, meta: Mapping[str, str]) -> str:
    """The curve's `axis` metadata; ValueError, naming the path, if it has none."""
    if "axis" not in meta:
        raise ValueError(f"{path}: no 'axis' in the metadata")
    return meta["axis"]


def write_worldlines(ds: WorldlineDataset, path) -> Path:
    kinds = list(ds.z)
    columns = (
        np.tile(ds.t, len(kinds)),
        np.ravel([ds.z[kind] for kind in kinds]),
        np.ravel([ds.alpha[kind] for kind in kinds]),
        _text_column([kind.value for kind in kinds], ds.t.size),
    )
    return _write_table(path, ds.metadata, ("t", "z", "alpha_dir", "trajectory"), columns)


def write_drive_coefficients(ds: DriveCoefficientDataset, path) -> Path:
    kinds = list(ds.a)
    n = np.tile(ds.n, len(kinds))
    a = np.ravel([ds.a[kind] for kind in kinds])
    b = np.ravel([ds.b[kind] for kind in kinds])
    trajectory = _text_column([kind.value for kind in kinds], ds.n.size)
    names = ("n", "a_n", "b_n", "magnitude", "trajectory")
    return _write_table(path, ds.metadata, names, (n, a, b, np.hypot(a, b), trajectory))


# ---------------------------------------------------------------------------
# figure presets
# ---------------------------------------------------------------------------

FIGURE_ALIASES = {
    "fig1": "worldlines",
    "fig2": "fourier",
    "fig3": "nout_vs_w_T",
    "fig4": "nout_vs_w",
    "fig5": "nout_vs_wd",
    "fig6": "nout_vs_abar",
    "fig7": "compare3_w",
    "fig8": "compare3_abar",
}

_ALL = (TrajectoryKind.SM, TrajectoryKind.SA, TrajectoryKind.AUA)


def _omega_grid(omega_d: float, upto: float, points: int = 401) -> tuple[float, ...]:
    # k/points spacing never lands on an exact multiple of omega_d for the
    # grids used here, keeping clear of the degenerate sideband points.
    return tuple(upto * omega_d * k / points for k in range(1, points + 1))


def figure_preset(figure_id: str, c: CircuitParams | None = None):
    """Build the named preset. Returns a list of SweepSpec for spectrum
    figures, or a descriptor tuple for the worldline/coefficient figures."""
    if c is None:
        c = CircuitParams()
    fid = FIGURE_ALIASES.get(figure_id, figure_id)
    abar_rel, wd_rel = relativistic_point()
    abar_base, wd_base = baseline_point()

    if fid == "worldlines":
        return ("worldlines", dict(abar=1.2e19, omega_d=2.0 * math.pi * 28e9, v=c.v))

    if fid == "fourier":
        return ("fourier", _relativistic_configs(c))

    if fid == "nout_vs_w_T":
        return [
            SweepSpec(
                figure_id=fid,
                axis=SweepAxis.OMEGA,
                x=_omega_grid(wd_rel, 3.0),
                trajectories=_SA_AUA,
                temperatures=(0.0, 0.025, 0.05),
                omega_d=wd_rel,
                abar=abar_rel,
            )
        ]

    if fid == "nout_vs_w":
        wd15 = 2.0 * math.pi * 15e9
        wd5 = 2.0 * math.pi * 5e9
        pinned = {
            TrajectoryKind.SA: solve_acceleration_parameter(
                TrajectoryKind.SA, abar_rel, wd15, c.v
            ),
            TrajectoryKind.AUA: abar_rel,
        }
        return [
            SweepSpec(
                figure_id=fid,
                axis=SweepAxis.OMEGA,
                x=_omega_grid(wd, 3.0),
                trajectories=_SA_AUA,
                temperatures=(0.0, 0.025),
                omega_d=wd,
                A=pinned,
            )
            for wd in (wd15, wd5)
        ]

    if fid == "nout_vs_wd":
        ejo = {kind: cb.EJ0_ratio for kind, (_, cb) in _relativistic_configs(c).items()}
        grid = 2.0 * math.pi * np.linspace(10e9, 30e9, 401)
        return [
            SweepSpec(
                figure_id=fid,
                axis=SweepAxis.OMEGA_D,
                x=grid,
                trajectories=_SA_AUA,
                temperatures=(0.0, 0.025),
                omega=probe,
                abar=abar_rel,
                ejo_ratio=ejo,
            )
            for probe in (2.0 * math.pi * 7.3e9, 2.0 * math.pi * 9e9)
        ]

    if fid == "nout_vs_abar":
        ejo = {kind: cb.EJ0_ratio for kind, (_, cb) in _relativistic_configs(c).items()}
        grid = np.linspace(5e18, 30e18, 401)
        return [
            SweepSpec(
                figure_id=fid,
                axis=SweepAxis.ABAR,
                x=grid,
                trajectories=_SA_AUA,
                temperatures=(0.0, 0.025),
                omega_d=wd_rel,
                omega=probe * wd_rel,
                ejo_ratio=ejo,
            )
            for probe in (0.5, 1.5)
        ]

    if fid == "compare3_w":
        return [
            SweepSpec(
                figure_id=fid,
                axis=SweepAxis.OMEGA,
                x=_omega_grid(wd_base, 2.0),
                trajectories=_ALL,
                omega_d=wd_base,
                abar=abar_base,
            )
        ]

    if fid == "compare3_abar":
        return [
            SweepSpec(
                figure_id=fid,
                axis=SweepAxis.ABAR,
                x=np.linspace(1e17, 1.5e18, 401),
                trajectories=_ALL,
                omega_d=wd_base,
                omega=2.0 * math.pi * 9e9,
            )
        ]

    raise ValueError(f"unknown figure preset {figure_id!r}")


def _relativistic_configs(c: CircuitParams) -> dict[TrajectoryKind, tuple]:
    """SA and AUA at the relativistic point: {kind: (worldline, biased circuit)}."""
    abar_rel, wd_rel = relativistic_point()
    configs = {}
    for kind in _SA_AUA:
        A = solve_acceleration_parameter(kind, abar_rel, wd_rel, c.v)
        p = TrajectoryParams(kind, A, wd_rel, c.v)
        configs[kind] = (p, drive_normalized_bias(p, c))
    return configs


def reproduce(
    figure_id: str,
    out_dir,
    c: CircuitParams | None = None,
    long_format: bool = True,
) -> list[Path]:
    """Run the named preset and write its dataset(s) under out_dir. If a
    later sweep or write fails, the files already written are removed."""
    if c is None:
        c = CircuitParams()
    fid = FIGURE_ALIASES.get(figure_id, figure_id)
    preset = figure_preset(fid, c)
    canonical = {v: k for k, v in FIGURE_ALIASES.items()}[fid]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if isinstance(preset, tuple) and preset[0] == "worldlines":
        ds = worldline_dataset(**preset[1])
        ds.metadata["figure"] = fid
        return [write_worldlines(ds, out_dir / f"{canonical}_{fid}.csv")]
    if isinstance(preset, tuple) and preset[0] == "fourier":
        ds = drive_coefficient_dataset(preset[1])
        ds.metadata["figure"] = fid
        return [write_drive_coefficients(ds, out_dir / f"{canonical}_{fid}.csv")]

    shared: dict = {}  # synthesized points, shared by this preset's sweeps only
    with _removed_on_failure() as paths:
        for i, spec in enumerate(preset):
            datasets = run_sweep(spec, c, _shared=shared)
            tag = f"_{i}" if len(preset) > 1 else ""
            target = out_dir / f"{canonical}_{fid}{tag}.csv"
            paths.extend(write_spectrum_datasets(datasets, target, long_format=long_format))
    return paths
