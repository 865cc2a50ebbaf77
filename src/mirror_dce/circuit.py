"""SQUID-terminated coplanar-waveguide model.

The SQUID at the end of the line acts as a flux-tunable boundary condition
equivalent to a perfect mirror placed an effective length

    L_eff(t) = (phi0 / 2 pi)^2 / (L0 * E_J(t))

behind the physical termination, where L0 = Z0/v is the line inductance per
unit length and E_J(t) the tunable Josephson energy. Modulating E_J around
its bias E_J^0 moves the effective mirror: a target trajectory z(t) maps
linearly onto delta E_J(t) = (E_J^0 / L_eff^0) z(t), and the required
external flux follows from E_J(t) = 2 E_J |cos(pi phi_ext / phi0)|.

Routines here synthesize the drive spectrum from a trajectory, reconstruct
the flux waveform, and check physical validity (subluminal wall, bias floor,
frequencies below the SQUID plasma resonance, perturbative drive depth,
thermal regime).
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .constants import C_LIGHT, HBAR, K_B, PHI0
from .numerics import FourierSeries, fourier_decompose
from .trajectories import (
    SYNTHESIS_SAMPLES,
    TrajectoryKind,
    TrajectoryParams,
    position,
)

__all__ = [
    "CheckResult",
    "CircuitParams",
    "DriveSpectrum",
    "DriveWarning",
    "RealizabilityError",
    "ValidityReport",
    "effective_length",
    "export_flux_waveform",
    "external_flux",
    "trajectory_to_drive",
    "validate",
]

# Hard ceiling on the relative drive depth max|delta E_J| / E_J^0; beyond
# this the flux mapping loses headroom long before E_J(t) itself goes
# negative. Per-harmonic ratios above the soft level only raise a warning.
MAX_DRIVE_DEPTH = 0.5
SOFT_HARMONIC_RATIO = 0.25
EJ0_RATIO_FLOOR = 0.1

# Relative margin by which sum_n |c_n| must stay below a0/2 for the
# triangle-inequality bound to settle E_J(t) > 0 without sampling; far above
# the round-off of the sampled series, so the decision never differs.
POSITIVITY_BOUND_MARGIN = 1e-9


class RealizabilityError(ValueError):
    """The requested drive cannot be produced by the flux-tuned SQUID."""


class DriveWarning(UserWarning):
    """The drive is realizable but outside the comfortably perturbative regime."""


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

    with a0 = 2 E_J^0. Immutable after construction; construction enforces
    the perturbative bound |a_n|/a0, |b_n|/a0 <= 0.5 (warning above 0.25)
    and that E_J(t) stays strictly positive. Positivity is proved by
    E_J(t) >= a0/2 - sum_n |a_n + i b_n| when that bound is conclusive, and
    checked on a sampled period otherwise."""

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
        if self.n_max:
            peak = float(np.max(np.concatenate([np.abs(self.a), np.abs(self.b)]))) / self.a0
            if peak > MAX_DRIVE_DEPTH:
                raise RealizabilityError(
                    f"harmonic ratio |c_n|/a0 = {peak:.4g} exceeds "
                    f"the hard bound {MAX_DRIVE_DEPTH}"
                )
            if peak > SOFT_HARMONIC_RATIO:
                warnings.warn(
                    f"harmonic ratio |c_n|/a0 = {peak:.4g} exceeds "
                    f"{SOFT_HARMONIC_RATIO}; first-order treatment degrades",
                    DriveWarning,
                    stacklevel=2,
                )
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

    def series(self) -> FourierSeries:
        return FourierSeries(a0=self.a0, a=self.a, b=self.b, omega_d=self.omega_d)

    def e_j(self, t):
        """Reconstruct E_J(t) [J] at scalar or array t."""
        return self.series().evaluate(t)


def _synthesis_grid(omega_d: float) -> np.ndarray:
    """Uniform times over one period 2 pi/omega_d: the grid on which drive
    synthesis and its depth check sample z(t), and the positivity probe
    evaluates E_J(t)."""
    return np.arange(SYNTHESIS_SAMPLES) * ((2.0 * math.pi / omega_d) / SYNTHESIS_SAMPLES)


def trajectory_to_drive(
    p: TrajectoryParams, c: CircuitParams, n_max: int = 3
) -> DriveSpectrum:
    """Synthesize the Josephson drive realizing the centered trajectory z(t).

    The mapping is linear: a_n, b_n are (E_J^0 / L_eff^0) times the Fourier
    coefficients of z(t), and a0 = 2 E_J^0 (the trajectory is centered, so
    no DC term is generated). Raises RealizabilityError when the modulation
    depth exceeds the hard margin or E_J(t) would leave (0, 2 E_J]."""
    if p.omega_d <= 0.0:
        raise ValueError("trajectory must have a positive drive frequency")
    leff0 = effective_length(c)
    scale = c.E_J0 / leff0

    z = position(p, _synthesis_grid(p.omega_d))
    # Depth check against the full (untruncated) waveform, before projecting.
    z_peak = float(np.max(np.abs(z)))
    depth = z_peak / leff0
    if depth > MAX_DRIVE_DEPTH:
        raise RealizabilityError(
            f"trajectory amplitude {z_peak:.4g} m is {depth:.3g} of the "
            f"effective length {leff0:.4g} m; exceeds the {MAX_DRIVE_DEPTH} margin"
        )
    # fourier_decompose samples the same grid, so it can take z as is.
    series = fourier_decompose(lambda t: z, p.omega_d, n_max, SYNTHESIS_SAMPLES)

    drive = DriveSpectrum(
        a0=2.0 * c.E_J0,
        a=scale * series.a,
        b=scale * series.b,
        omega_d=p.omega_d,
    )
    ej_max = c.E_J0 * (1.0 + depth)
    if ej_max > 2.0 * c.E_J:
        raise RealizabilityError(
            f"peak E_J(t) = {ej_max:.4g} J exceeds the flux-tuning ceiling "
            f"2 E_J = {2.0 * c.E_J:.4g} J"
        )
    return drive


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


def _check(name, ok, value, limit, message, warn_only=False) -> CheckResult:
    if ok:
        status = "pass"
    else:
        status = "warn" if warn_only else "fail"
    return CheckResult(name=name, status=status, value=float(value), limit=float(limit), message=message)


def validate(
    d: DriveSpectrum,
    p: TrajectoryParams,
    c: CircuitParams,
    *,
    omega_probe=None,
    temperature: float | None = None,
) -> ValidityReport:
    """Physical-validity report for a synthesized drive.

    Checks: (i) SM wall subluminal; (ii) bias floor E_J^0/E_J > 0.1;
    (iii) drive fundamental and probe frequencies below the plasma
    frequency, with a warning when the top harmonic n_max*omega_d crosses
    it; (iv) k_omega * L_eff^0 small (warn above 0.2); (v) per-harmonic
    drive ratios perturbative (warn above 0.25); (vi) thermal regime
    k_B T << hbar omega_d (warn above 0.2). Report-valued: nothing raises.
    """
    checks: list[CheckResult] = []
    leff0 = effective_length(c)
    probes = (
        np.atleast_1d(np.asarray(omega_probe, dtype=float))
        if omega_probe is not None
        else np.empty(0)
    )

    if p.kind is TrajectoryKind.SM:
        wall = p.A / p.omega_d
        checks.append(
            _check(
                "subluminal",
                wall < p.v,
                wall / p.v,
                1.0,
                f"SM wall speed is {wall / p.v:.3g} of the effective light speed",
            )
        )
    else:
        checks.append(
            _check(
                "subluminal",
                True,
                0.0,
                1.0,
                f"{p.kind.value} worldlines are subluminal by construction",
            )
        )

    checks.append(
        _check(
            "bias_floor",
            c.EJ0_ratio > EJ0_RATIO_FLOOR,
            c.EJ0_ratio,
            EJ0_RATIO_FLOOR,
            f"E_J^0/E_J = {c.EJ0_ratio:.4g} (floor {EJ0_RATIO_FLOOR})",
        )
    )

    fund_ok = d.omega_d < c.omega_s and bool(np.all(probes < c.omega_s))
    checks.append(
        _check(
            "below_plasma",
            fund_ok,
            max(d.omega_d, float(np.max(probes)) if probes.size else 0.0),
            c.omega_s,
            "drive fundamental and probe frequencies below the plasma frequency",
        )
    )
    top = d.n_max * d.omega_d
    checks.append(
        _check(
            "harmonics_below_plasma",
            top < c.omega_s,
            top,
            c.omega_s,
            f"top drive harmonic at {top / (2e9 * math.pi):.3g} GHz vs plasma "
            f"{c.omega_s / (2e9 * math.pi):.3g} GHz",
            warn_only=True,
        )
    )

    k_peak = max(d.omega_d, float(np.max(probes)) if probes.size else 0.0) / c.v
    kl = k_peak * leff0
    checks.append(
        _check(
            "short_effective_length",
            kl <= 0.2,
            kl,
            0.2,
            f"k_omega * L_eff^0 = {kl:.3g} (first-order accuracy needs << 1)",
            warn_only=True,
        )
    )

    ratio = (
        float(np.max(np.concatenate([np.abs(d.a), np.abs(d.b)]))) / d.a0
        if d.n_max
        else 0.0
    )
    checks.append(
        _check(
            "perturbative_drive",
            ratio <= SOFT_HARMONIC_RATIO,
            ratio,
            SOFT_HARMONIC_RATIO,
            f"max |c_n|/a0 = {ratio:.3g}",
            warn_only=ratio <= MAX_DRIVE_DEPTH,
        )
    )

    if temperature is not None:
        thermal = K_B * temperature / (HBAR * d.omega_d)
        checks.append(
            _check(
                "cold_input",
                thermal <= 0.2,
                thermal,
                0.2,
                f"k_B T / (hbar omega_d) = {thermal:.3g}",
                warn_only=True,
            )
        )

    return ValidityReport(checks=tuple(checks))


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
