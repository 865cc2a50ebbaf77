"""SQUID-terminated coplanar-waveguide model.

The SQUID at the end of the line acts as a flux-tunable boundary condition
equivalent to a perfect mirror placed an effective length

    L_eff(t) = (phi0 / 2 pi)^2 / (L0 * E_J(t))

behind the physical termination, where L0 = Z0/v is the line inductance per
unit length and E_J(t) the tunable Josephson energy. Modulating E_J around
its bias E_J^0 moves the effective mirror: a target trajectory z(t) maps
linearly onto delta E_J(t) = (E_J^0 / L_eff^0) z(t), and the required
external flux follows from E_J(t) = 2 E_J |cos(pi phi_ext / phi0)|.

Routines here synthesize the drive spectrum from a trajectory (the samples
of z(t) over one period, projected onto its harmonics and scaled into a
`DriveSpectrum`, the drive's one series type), reconstruct
the flux waveform, and judge the drive against the bounds of the flux-driven
SQUID mirror (Johansson et al., PRL 103, 147003 (2009)). Each bound is one
row of `_BOUNDS`: its value over arrays of point quantities (`_Quantities`),
its limit, and what crossing the limit does: raise RealizabilityError, warn
(DriveWarning, AliasingWarning), or enter the validity report only. One
evaluation of the rows (`_crossings`) serves both the errors and warnings
and the report. The scalar paths (`trajectory_to_drive`, `DriveSpectrum`,
`validate`) evaluate the rows at one point; sweeps evaluate them over a
whole grid at once.
"""

from __future__ import annotations

import math
import operator
import os
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .constants import C_LIGHT, HBAR, K_B, PHI0
from .trajectories import SYNTHESIS_SAMPLES, TrajectoryParams, position

__all__ = [
    "AliasingWarning",
    "CheckResult",
    "CircuitParams",
    "DriveSpectrum",
    "DriveWarning",
    "RealizabilityError",
    "ValidityReport",
    "effective_length",
    "export_flux_waveform",
    "external_flux",
    "fourier_decompose",
    "trajectory_to_drive",
    "validate",
]

# Hard ceiling on the relative drive depth max|delta E_J| / E_J^0; beyond
# this the flux mapping loses headroom long before E_J(t) itself goes
# negative. Per-harmonic ratios above the soft level only raise a warning.
MAX_DRIVE_DEPTH = 0.5
SOFT_HARMONIC_RATIO = 0.25
EJ0_RATIO_FLOOR = 0.1

# A drive warns when its top harmonic carries more than this share of the
# harmonic power.
ALIASING_POWER_SHARE = 0.01

# Relative margin by which sum_n |c_n| must stay below a0/2 for the
# triangle-inequality bound to settle E_J(t) > 0 without sampling; far above
# the round-off of the sampled series, so the decision never differs.
POSITIVITY_BOUND_MARGIN = 1e-9


class RealizabilityError(ValueError):
    """The requested drive cannot be produced by the flux-tuned SQUID."""


class DriveWarning(UserWarning):
    """The drive is realizable but outside the comfortably perturbative regime."""


class AliasingWarning(UserWarning):
    """The highest synthesized drive harmonic still carries significant power."""


@dataclass(frozen=True)
class CircuitParams:
    """Waveguide + SQUID constants. Defaults are the reference experimental
    values used throughout the bundled presets."""

    C_J: float = 90e-15                       # SQUID capacitance [F]
    I_c: float = 1.25e-6                      # junction critical current [A]
    Z0: float = 55.0                          # line impedance [Ohm]
    v: float = 0.4 * C_LIGHT                  # propagation speed [m/s]
    omega_s: float = 2.0 * math.pi * 37.3e9   # SQUID plasma frequency [rad/s]
    EJ0_ratio: float = 1.3                    # bias point E_J^0 / E_J
    phi0: float = PHI0                        # flux quantum h/2e [Wb]

    def __post_init__(self):
        for name in ("C_J", "I_c", "Z0", "omega_s", "phi0"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 < self.v <= C_LIGHT:
            raise ValueError(f"v must lie in (0, c], got {self.v}")
        if not 0.0 < self.EJ0_ratio <= 2.0:
            # E_J(t) = 2 E_J cos(...) caps the static bias at 2 E_J.
            raise ValueError(f"EJ0_ratio must lie in (0, 2], got {self.EJ0_ratio}")

    @property
    def E_J(self) -> float:
        """Josephson energy at zero flux bias, I_c * phi0 / 2 pi [J]."""
        return self.I_c * self.phi0 / (2.0 * math.pi)

    @property
    def E_J0(self) -> float:
        """Static bias Josephson energy [J]."""
        return self.EJ0_ratio * self.E_J

    @property
    def L0(self) -> float:
        """Line inductance per unit length Z0/v [H/m]."""
        return self.Z0 / self.v

    @property
    def C0(self) -> float:
        """Line capacitance per unit length 1/(Z0 v) [F/m]."""
        return 1.0 / (self.Z0 * self.v)


def effective_length(c: CircuitParams) -> float:
    """Static effective length L_eff^0 = (phi0/2pi)^2 / (L0 E_J^0) [m]."""
    return (c.phi0 / (2.0 * math.pi)) ** 2 / (c.L0 * c.E_J0)


@dataclass(frozen=True)
class DriveSpectrum:
    """Fourier representation of the Josephson drive E_J(t) [J]:

        E_J(t) = a0/2 + sum_n a_n cos(n omega_d t) + b_n sin(n omega_d t)

    with a0 = 2 E_J^0. Immutable after construction; construction applies
    the harmonic-ratio rows of the bounds table (|a_n|/a0, |b_n|/a0 <= 0.5,
    warning above 0.25) and requires E_J(t) to stay strictly positive.
    Positivity is proved by E_J(t) >= a0/2 - sum_n |a_n + i b_n| when that
    bound is conclusive, and checked on a sampled period otherwise; only a
    drive built directly can need the sample, since a worldline's drive
    has sum_n |z_n| <= 1.09 max|z| and passes the depth bound first."""

    a0: float
    a: np.ndarray
    b: np.ndarray
    omega_d: float

    def __post_init__(self):
        object.__setattr__(self, "a", np.atleast_1d(np.asarray(self.a, dtype=float)))
        object.__setattr__(self, "b", np.atleast_1d(np.asarray(self.b, dtype=float)))
        if self.a.shape != self.b.shape:
            raise ValueError("cosine/sine coefficient lists differ in length")
        if not self.a0 > 0.0:
            raise ValueError(f"a0 must be positive, got {self.a0}")
        if not self.omega_d > 0.0:
            raise ValueError(f"omega_d must be positive, got {self.omega_d}")
        ratio = np.maximum(np.abs(self.a), np.abs(self.b)) / self.a0
        # stacklevel 4 names the line that called DriveSpectrum(...), above
        # this method and the generated __init__.
        _enforce(_Quantities(ratio=ratio), _rows("harmonic_ratio", "perturbative_drive"), 4)
        reach = float(np.sum(self.harmonic_magnitudes))
        if not reach < 0.5 * self.a0 * (1.0 - POSITIVITY_BOUND_MARGIN) and (
            float(np.min(self.e_j(self._probe_times()))) <= 0.0
        ):
            raise RealizabilityError("E_J(t) is not strictly positive")
        self.a.setflags(write=False)
        self.b.setflags(write=False)

    def _probe_times(self) -> np.ndarray:
        """The synthesis grid's times, where an inconclusive bound probes E_J."""
        return _synthesis_grid(self.omega_d)

    @property
    def n_max(self) -> int:
        return int(self.a.size)

    @property
    def harmonic_magnitudes(self) -> np.ndarray:
        """|a_n + i b_n| for n = 1..n_max [J]."""
        return np.hypot(self.a, self.b)

    def e_j(self, t):
        """Reconstruct E_J(t) [J] at scalar or array t."""
        t = np.asarray(t, dtype=float)
        phase = np.multiply.outer(t, np.arange(1, self.n_max + 1)) * self.omega_d
        out = 0.5 * self.a0 + np.cos(phase) @ self.a + np.sin(phase) @ self.b
        return float(out) if out.ndim == 0 else out


def _check_n_max(n_max) -> None:
    """The harmonic count of every drive and sweep: an integer in
    [0, SYNTHESIS_SAMPLES/8], so the synthesis grid samples the top harmonic
    at least 8 times a period; else ValueError."""
    if not isinstance(n_max, (int, np.integer)) or not 0 <= n_max <= SYNTHESIS_SAMPLES // 8:
        raise ValueError(
            f"n_max must be an integer in [0, {SYNTHESIS_SAMPLES // 8}], got {n_max!r}"
        )


def _synthesis_grid(omega_d: float) -> np.ndarray:
    """Uniform times over one period 2 pi/omega_d: the grid on which drive
    synthesis and its depth check sample z(t), and the positivity probe
    evaluates E_J(t)."""
    return np.arange(SYNTHESIS_SAMPLES) * ((2.0 * math.pi / omega_d) / SYNTHESIS_SAMPLES)


def fourier_decompose(z, omega_d: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Trigonometric coefficients (a, b) of harmonics n = 1..n_max of a
    2*pi/omega_d-periodic signal, from its samples z on the uniform grid
    t_k = k T/N, k = 0..N-1, over one period T.

    z must be 1-d, finite, and hold at least 8*n_max samples; anything else
    raises ValueError. The projection is the composite trapezoid rule,
    spectrally accurate for smooth periodic signals. The mean of z (the
    a0/2 term) is not returned.
    """
    if not omega_d > 0.0:
        raise ValueError(f"omega_d must be positive, got {omega_d}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    vals = np.asarray(z, dtype=float)
    if vals.ndim != 1:
        raise ValueError(f"samples must be 1-d, got shape {vals.shape}")
    samples = vals.size
    if samples < 8 * n_max:
        raise ValueError(
            f"samples={samples} too small for n_max={n_max}; need at least {8 * n_max}"
        )
    if not np.all(np.isfinite(vals)):
        raise ValueError("periodic signal has non-finite samples")
    t = np.arange(samples) * ((2.0 * np.pi / omega_d) / samples)
    phase = np.multiply.outer(np.arange(1, n_max + 1), t) * omega_d
    return 2.0 * (np.cos(phase) @ vals) / samples, 2.0 * (np.sin(phase) @ vals) / samples


def trajectory_to_drive(
    p: TrajectoryParams, c: CircuitParams, n_max: int = 3
) -> DriveSpectrum:
    """Synthesize the Josephson drive realizing the centered trajectory z(t).

    The mapping is linear: a_n, b_n are (E_J^0 / L_eff^0) times the Fourier
    coefficients of z(t), and a0 = 2 E_J^0 (the trajectory is centered, so
    no DC term is generated). Applies the bounds table: the depth and
    flux-tuning rows (RealizabilityError) need only max|z| and run before
    the projection, the aliasing row (AliasingWarning) after it, the
    harmonic-ratio rows in DriveSpectrum. An n_max outside [0, 512] raises
    ValueError."""
    _check_n_max(n_max)
    leff0 = effective_length(c)
    z = position(p, _synthesis_grid(p.omega_d))
    point = _Quantities(
        omega_d=p.omega_d, c=c, bias=c.EJ0_ratio, leff=leff0, z_peak=float(np.max(np.abs(z)))
    )
    _enforce(point, _rows("drive_depth", "tuning_ceiling"))
    a, b = fourier_decompose(z, p.omega_d, n_max)
    _enforce(point.updated(ratio=np.hypot(a, b) / (2.0 * leff0)), _rows("aliasing"))
    scale = c.E_J0 / leff0
    return DriveSpectrum(a0=2.0 * c.E_J0, a=scale * a, b=scale * b, omega_d=p.omega_d)


def external_flux(d: DriveSpectrum, c: CircuitParams, t):
    """External flux phi_ext(t) [Wb] producing the drive:
    phi_ext = (phi0/pi) arccos(E_J(t) / 2 E_J). Scalar or array t."""
    scalar = np.ndim(t) == 0
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    ratio = d.e_j(t_arr) / (2.0 * c.E_J)
    bad = (ratio < 0.0) | (ratio > 1.0)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise RealizabilityError(
            f"E_J(t)/(2 E_J) = {float(ratio[i]):.6g} outside [0, 1] "
            f"at t = {float(t_arr[i]):.6g} s"
        )
    out = (c.phi0 / math.pi) * np.arccos(ratio)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str          # "pass" | "warn" | "fail"
    value: float
    limit: float
    message: str

    def __str__(self) -> str:
        return f"[{self.status:4s}] {self.name}: {self.message}"


@dataclass(frozen=True)
class ValidityReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        """True when no check failed (warnings allowed)."""
        return all(c.status != "fail" for c in self.checks)

    @property
    def warnings(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if c.status == "warn")

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if c.status == "fail")

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.checks)


@dataclass(frozen=True)
class _Quantities:
    """The point quantities the bounds table reads: arrays over the points
    of a grid, where `ratio` has shape (points, n_max) and a scalar field is
    shared by every point, or scalars at one point, where `ratio` is 1-d."""

    ratio: np.ndarray = field(default_factory=lambda: np.empty(0))  # |c_n|/a0 = |z_n|/2L_eff^0
    A: np.ndarray | float = math.nan  # worldline parameter [m/s^2]
    omega_d: np.ndarray | float = math.nan  # [rad/s]
    c: CircuitParams | None = None  # line and junction constants; the bias is `bias`
    bias: np.ndarray | float = math.nan  # E_J^0 / E_J
    leff: np.ndarray | float = math.nan  # L_eff^0 [m]
    z_peak: np.ndarray | float = math.nan  # max|z| [m]
    omega: float = 0.0  # highest probe frequency [rad/s], 0 without probes
    T: float | None = None  # bath temperature [K]

    def at(self, i) -> _Quantities:
        """Point i of a grid, or the sub-grid of an index array."""
        if self.ratio.ndim == 1:
            return self
        names = ("ratio", "A", "omega_d", "bias", "leff", "z_peak")
        return self.updated(**{n: getattr(self, n)[i] for n in names if np.ndim(getattr(self, n))})

    def updated(self, **fields) -> _Quantities:
        """`dataclasses.replace` without its __init__, for cheap point views."""
        out = object.__new__(_Quantities)
        out.__dict__.update(self.__dict__, **fields)
        return out


def _harmonic_ratio(q):
    return q.ratio.max(-1, initial=0.0)


def _top_power_share(q):
    power = q.ratio * q.ratio
    total = power.sum(-1)  # 0 only where every power is, the top one too: the share is 0
    return (power[..., -1] if power.shape[-1] else total) / (total + (total == 0.0))


_GHZ = 2e9 * math.pi

# One row per bound: its name; its value at the points of a _Quantities
# (None where it does not apply); its limit, a number or a function of the
# circuit; the test passes(value, limit); what crossing does: raise or warn
# with that class, or only give the status "fail" or "warn" in the report;
# the text of the error or warning; and the row's line in the report of
# `validate` (None: not listed). Texts and lines are functions of (point,
# value, limit). Error rows stand before warning rows (`_judge` warns only at
# points no error row failed), each in the order the scalar path meets them.
# No row bounds the SM wall speed: `TrajectoryParams` rejects a worldline that
# reaches v before it has any point quantities.
_BOUNDS = (
    ("bias_floor", lambda q: q.bias, EJ0_RATIO_FLOOR, operator.gt, "fail", None,
     lambda q, x, lim: f"E_J^0/E_J = {x:.4g} (floor {lim})"),
    ("below_plasma", lambda q: np.maximum(q.omega_d, q.omega), lambda c: c.omega_s,
     operator.lt, "fail", None,
     lambda q, x, lim: "drive fundamental and probe frequencies below the plasma frequency"),
    ("harmonics_below_plasma", lambda q: q.ratio.shape[-1] * q.omega_d, lambda c: c.omega_s,
     operator.lt, "warn", None,
     lambda q, x, lim: f"top drive harmonic at {x / _GHZ:.3g} GHz vs plasma {lim / _GHZ:.3g} GHz"),
    ("short_effective_length", lambda q: np.maximum(q.omega_d, q.omega) / q.c.v * q.leff, 0.2,
     operator.le, "warn", None,
     lambda q, x, lim: f"k_omega * L_eff^0 = {x:.3g} (first-order accuracy needs << 1)"),
    ("drive_depth", lambda q: q.z_peak / q.leff, MAX_DRIVE_DEPTH, operator.le, RealizabilityError,
     lambda q, x, lim: f"trajectory amplitude {q.z_peak:.4g} m is {x:.3g} of the effective "
     f"length {q.leff:.4g} m; exceeds the {lim} margin", None),
    ("tuning_ceiling", lambda q: q.bias * q.c.E_J * (1.0 + q.z_peak / q.leff),
     lambda c: 2.0 * c.E_J, operator.le, RealizabilityError,
     lambda q, x, lim: f"peak E_J(t) = {x:.4g} J exceeds the flux-tuning ceiling "
     f"2 E_J = {lim:.4g} J", None),
    ("harmonic_ratio", _harmonic_ratio, MAX_DRIVE_DEPTH, operator.le, RealizabilityError,
     lambda q, x, lim: f"harmonic ratio |c_n|/a0 = {x:.4g} exceeds the hard bound {lim}", None),
    ("aliasing", _top_power_share, ALIASING_POWER_SHARE, operator.le, AliasingWarning,
     lambda q, x, lim: f"harmonic n={q.ratio.shape[-1]} still carries {100.0 * x:.2f}% of the "
     "harmonic power; the requested truncation may alias", None),
    ("perturbative_drive", _harmonic_ratio, SOFT_HARMONIC_RATIO, operator.le, DriveWarning,
     lambda q, x, lim: f"harmonic ratio |c_n|/a0 = {x:.4g} exceeds {lim}; first-order "
     "treatment degrades",
     lambda q, x, lim: f"max |c_n|/a0 = {x:.3g}"),
    ("cold_input", lambda q: None if q.T is None else K_B * q.T / (HBAR * q.omega_d), 0.2,
     operator.le, "warn", None, lambda q, x, lim: f"k_B T / (hbar omega_d) = {x:.3g}"),
)


def _rows(*names: str) -> tuple:
    return tuple(row for row in _BOUNDS if row[0] in names)


def _crossings(q: _Quantities, rows):
    """Each of the rows whose value applies at q (is not None): the row, its value at
    every point of q (flat; a 1-tuple at one point), its limit and the crossing points."""
    shape = q.ratio.shape[:-1]
    for row in rows:
        value = row[1](q)
        if value is not None:
            limit = row[2](q.c) if callable(row[2]) else row[2]
            if shape:
                value = np.broadcast_to(value, shape).reshape(-1)
                yield row, value, limit, np.flatnonzero(~row[3](value, limit)).tolist()
            else:  # one point: nothing to broadcast
                yield row, (value,), limit, [] if row[3](value, limit) else [0]


def _judge(q: _Quantities, rows=_BOUNDS, stacklevel: int = 2) -> dict[int, tuple[type, str]]:
    """The error and warning rows at every point of q: by point index, the
    class and text of the first error row the point crosses. Each warning
    row warns at every other point that crosses it, `stacklevel` frames up
    as in warnings.warn. A text reads its point of a grid from lists of the
    per-point fields, taken once per call: `q.at(i)` costs more."""
    failed: dict[int, tuple[type, str]] = {}
    fields = vars(q).items() if q.ratio.ndim > 1 else ()  # a point's texts read q as it is
    lists = {n: f if n == "ratio" else f.tolist() for n, f in fields if np.ndim(f)}
    listed = [row for row in rows if row[5] is not None]  # error rows first, as in the table
    for row, value, limit, crossed in _crossings(q, listed):
        for i in [i for i in crossed if i not in failed]:
            text = row[5](q.updated(**{n: f[i] for n, f in lists.items()}), value[i], limit)
            if issubclass(row[4], Warning):
                warnings.warn(text, row[4], stacklevel=stacklevel)
            else:
                failed[i] = (row[4], text)
    return failed


def _enforce(point: _Quantities, rows, stacklevel: int = 2) -> None:
    """`_judge` at one point: raise the error it finds, else let it warn."""
    for error, text in _judge(point, rows, stacklevel + 1).values():
        raise error(text)


def _report(point: _Quantities) -> ValidityReport:
    """The listed rows of the table at one point, passing or not."""
    checks = []
    listed = [row for row in _BOUNDS if row[6] is not None]
    for row, (value,), limit, crossed in _crossings(point, listed):
        name, crossing, line = row[0], row[4], row[6]
        if not crossed:
            status = "pass"
        elif isinstance(crossing, str):
            status = crossing
        else:
            status = "warn" if issubclass(crossing, Warning) else "fail"
        message = line(point, value, limit)
        checks.append(CheckResult(name, status, float(value), float(limit), message))
    return ValidityReport(checks=tuple(checks))


def validate(
    d: DriveSpectrum,
    c: CircuitParams,
    *,
    omega_probe=None,
    temperature: float | None = None,
) -> ValidityReport:
    """Physical-validity report for the drive d on circuit c: every row of
    the bounds table with a report line, at the highest probe frequency
    and, given one, the temperature. Nothing raises."""
    probes = np.atleast_1d(np.asarray([] if omega_probe is None else omega_probe, dtype=float))
    return _report(_Quantities(
        ratio=np.maximum(np.abs(d.a), np.abs(d.b)) / d.a0, omega_d=d.omega_d, c=c,
        bias=c.EJ0_ratio, leff=effective_length(c),
        omega=float(np.max(probes)) if probes.size else 0.0, T=temperature,
    ))


def export_flux_waveform(
    d: DriveSpectrum,
    c: CircuitParams,
    path,
    samples_per_period: int = 1024,
    periods: int = 1,
) -> None:
    """Write the sampled flux waveform as two-column CSV (t [s], phi_ext [Wb])."""
    if samples_per_period < 2 or periods < 1:
        raise ValueError("need samples_per_period >= 2 and periods >= 1")
    total = samples_per_period * periods
    period = 2.0 * math.pi / d.omega_d
    t = np.arange(total) * (period / samples_per_period)
    phi = external_flux(d, c, t)
    _atomic_write(path, _csv_chunks("t,phi_ext", "%.17g,%.17g", (t, phi)))


# Rows formatted per text chunk: bounds the Python objects alive at once,
# whatever the length of the table.
_BLOCK_ROWS = 8192


def _csv_chunks(head: str, row: str, columns: Sequence[np.ndarray]) -> Iterator[str]:
    """Text of a CSV file in chunks: the head line(s), then `row % cells`
    for every index of the equal-length columns, `_BLOCK_ROWS` rows per chunk."""
    yield head + "\n"
    line = row + "\n"
    for a in range(0, len(columns[0]), _BLOCK_ROWS):
        cells = zip(*(col[a : a + _BLOCK_ROWS].tolist() for col in columns))
        yield "".join(map(line.__mod__, cells))


def _atomic_write(path, chunks: Iterable[str]) -> None:
    """Stream the text chunks into a temp file next to path, then rename it
    over path, so a failure at any chunk leaves no partial output. The file
    gets mode 0o666 less the umask, as open() would give it."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
