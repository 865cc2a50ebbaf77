"""First-order input-output scattering at the driven SQUID boundary.

An incoming mode at frequency omega reflects off the static boundary with a
pure phase R(omega) = -(1 + i k L_eff^0)/(1 - i k L_eff^0), k = omega/v.
Each drive harmonic n couples it to three sidebands, with amplitudes built
from P(w', w'') = (2 i L_eff^0 / v) sqrt(w') sqrt(w'') theta(w') theta(w''):

- down-conversion from omega - n*omega_d (only for omega > n*omega_d),
- pair creation against (n*omega_d - omega)^dagger (only for omega < n*omega_d),
- up-conversion from omega + n*omega_d.

For a thermal input at temperature T, with |R|^2 = 1, the mean output
photon number is

    n_out(w) = n_in(w) + sum_n (|z_n|^2 / v^2)
               * [ w |w - n wd| n_in(|w - n wd|) + w (n wd - w) theta(n wd - w) ]

where z_n is the n-th harmonic of the worldline. A drive gives the weights
|z_n|^2 / v^2 as (4 L^2 / (v^2 a0^2)) |a_n + i b_n|^2: with
a_n + i b_n = (E_J^0 / L_eff^0) z_n and a0 = 2 E_J^0 the bias cancels. The
up-conversion sideband is dropped (negligible occupation for
k_B T << hbar omega_d). At the degenerate points w = n wd the stimulated
factor x*n_in(x) is evaluated by its analytic limit k_B T / hbar, keeping
the spectrum continuous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import CircuitParams, DriveSpectrum, effective_length
from .constants import HBAR, K_B

__all__ = [
    "ThermalInput",
    "output_spectrum",
    "reflection",
    "thermal_occupation",
]


@dataclass(frozen=True)
class ThermalInput:
    """Thermal input field at bath temperature T [K]."""

    T: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.T < math.inf:
            raise ValueError(f"temperature must be finite and >= 0, got {self.T}")


def thermal_occupation(omega, T: float):
    """Bose-Einstein occupation 1/(exp(hbar w / k_B T) - 1); 0 at T = 0."""
    w = np.asarray(omega, dtype=float)
    if np.any(w <= 0.0):
        raise ValueError("thermal_occupation requires omega > 0")
    if T < 0.0:
        raise ValueError(f"temperature must be >= 0, got {T}")
    kt = K_B * T
    if kt == 0.0:  # includes temperatures small enough to underflow
        out = np.zeros_like(w)
    else:
        y = HBAR * w / kt
        # expm1 overflows past ~709; occupation is zero there anyway.
        out = np.where(y > 700.0, 0.0, 1.0 / np.expm1(np.minimum(y, 700.0)))
    return float(out) if np.ndim(omega) == 0 else out


def _x_times_occupation(x, T: float):
    """x * n_in(x) extended continuously to x = 0 (limit k_B T / hbar)."""
    x = np.asarray(x, dtype=float)
    kt = K_B * T
    if kt == 0.0:
        return np.zeros_like(x)
    y = HBAR * x / kt
    # Clipping below keeps the ratio exactly 1 at y = 0 without a 0/0 branch;
    # above 700 the occupation is zero to double precision.
    y_safe = np.clip(y, 1e-300, 700.0)
    frac = np.where(y > 700.0, 0.0, y_safe / np.expm1(y_safe))
    return (kt / HBAR) * frac


def reflection(omega, L_eff0: float, v: float):
    """Static-boundary reflection coefficient, a pure phase of modulus 1."""
    w = np.asarray(omega, dtype=float)
    if np.any(w <= 0.0):
        raise ValueError("reflection requires omega > 0")
    kl = w * L_eff0 / v
    out = -(1.0 + 1j * kl) / (1.0 - 1j * kl)
    return complex(out) if np.ndim(omega) == 0 else out


def output_spectrum(
    omega,
    d: DriveSpectrum,
    c: CircuitParams,
    th: ThermalInput = ThermalInput(0.0),
):
    """Mean output photon number n_out(omega) against a thermal input.

    Accepts scalar or array omega (all > 0); vectorized over the grid.
    The stimulated factor is continuous across omega = n*omega_d.
    """
    w = np.asarray(omega, dtype=float)
    out = _n_out(np.atleast_1d(w), th.T, d.omega_d, _drive_weights(d, c))
    return float(out[0]) if w.ndim == 0 else out


def _drive_weights(d: DriveSpectrum, c: CircuitParams) -> np.ndarray:
    """|z_n|^2 / v^2 of the drive as an (n_max, 1) array, computed as
    4 L_eff^0^2 / (v^2 a0^2) times |a_n + i b_n|^2."""
    leff0 = effective_length(c)
    c_sq = [float(d.a[n]) ** 2 + float(d.b[n]) ** 2 for n in range(d.n_max)]
    prefactor = 4.0 * leff0**2 / (c.v**2 * d.a0**2)
    return prefactor * np.array(c_sq, dtype=float).reshape(-1, 1)


def _n_out(w, T: float, wd, weights) -> np.ndarray:
    """The n_out formula on 1-d arrays of probe frequencies w, with drive
    frequency wd and weights |z_n|^2 / v^2 (one row per harmonic n) that
    broadcast against w."""
    if not np.all(w > 0.0):  # NaN too
        raise ValueError("output_spectrum requires omega > 0")
    if np.any(w == math.inf):
        raise ValueError("output_spectrum requires a finite omega")
    out = thermal_occupation(w, T)
    for n, weight in enumerate(weights, start=1):
        if not np.any(weight):
            continue
        detune = w - n * wd
        stimulated = w * _x_times_occupation(np.abs(detune), T)
        spontaneous = w * np.maximum(-detune, 0.0)
        out = out + weight * (stimulated + spontaneous)
    return out
