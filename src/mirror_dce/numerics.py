"""Shared numeric kernels: elliptic integrals, bracketed root finding, and
the Fourier coefficients of a periodic signal sampled over one period.

Conventions
-----------
- Elliptic integrals take the *parameter* m (not the modulus k), so the
  incomplete second kind is E(phi, m) = int_0^phi sqrt(1 - m sin^2(t)) dt.
  Any m <= 1 is supported (negative m too; the worldlines only reach
  m < 1), and phi may exceed pi/2; the periodic extension
  E(phi + pi, m) = E(phi, m) + 2 E(pi/2, m) holds (likewise for F).

All functions are pure and keep no shared state, so they are safe to call
concurrently.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy import special
from scipy.optimize import brentq

__all__ = [
    "ellip_e",
    "ellip_f",
    "find_root",
    "fourier_decompose",
]

_EPS = float(np.finfo(float).eps)


def _is_scalar(phi, m) -> bool:
    return isinstance(phi, (int, float)) and isinstance(m, (int, float))


def _parameter_error(m: float) -> ValueError:
    return ValueError(f"elliptic parameter m = {m:.6g} lies outside the domain m <= 1")


def _domain_error() -> ValueError:
    return ValueError(
        "elliptic integrand leaves the real domain: "
        "m*sin^2(theta) reaches 1 on the integration range"
    )


def _check_elliptic_domain(phi, m, strict: bool) -> None:
    # The integrands contain sqrt(1 - m sin^2 theta). With m <= 1 the float
    # product reaches 1 only where m and |sin theta| are exactly 1; F's
    # integrand is singular there, E's is 0.
    if _is_scalar(phi, m):
        # Plain floats for the scalar calls of the A inversion; decides
        # exactly as the array path below.
        if m > 1.0:
            raise _parameter_error(m)
        if strict and m == 1.0 and (
            abs(phi) >= np.pi / 2.0 or abs(float(np.sin(phi))) == 1.0
        ):
            raise _domain_error()
        return
    m_arr = np.asarray(m, dtype=float)
    if np.any(m_arr > 1.0):
        raise _parameter_error(float(np.nanmax(m_arr)))
    if strict and np.any(m_arr == 1.0):
        phi_arr = np.asarray(phi, dtype=float)
        sin_sq_one = (np.abs(phi_arr) >= np.pi / 2.0) | (np.abs(np.sin(phi_arr)) == 1.0)
        if np.any(sin_sq_one & (m_arr == 1.0)):
            raise _domain_error()


def _eval_elliptic(phi, m, second_kind: bool):
    fn = special.ellipeinc if second_kind else special.ellipkinc
    out = fn(phi, m)
    return float(out) if np.isscalar(phi) and np.isscalar(m) else out


def ellip_e(phi, m):
    """Incomplete elliptic integral of the second kind, parameter convention.

    E(phi, m) = int_0^phi sqrt(1 - m sin^2 theta) dtheta. The complete
    integral is phi = pi/2. Accepts scalars or arrays (broadcast) with
    m <= 1 (negative m always valid); any m > 1 raises ValueError, for
    scalar and array input alike.
    """
    _check_elliptic_domain(phi, m, strict=False)
    return _eval_elliptic(phi, m, second_kind=True)


def ellip_f(phi, m):
    """Incomplete elliptic integral of the first kind, parameter convention.

    F(phi, m) = int_0^phi dtheta / sqrt(1 - m sin^2 theta). Requires
    1 - m sin^2(theta) > 0 on the whole range (strict, the integrand is
    singular at equality) and m <= 1: any m > 1 raises ValueError, for
    scalar and array input alike. Negative m always valid.
    """
    _check_elliptic_domain(phi, m, strict=True)
    return _eval_elliptic(phi, m, second_kind=False)


def find_root(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12
) -> float:
    """Root of f on the bracket [lo, hi] via Brent's method.

    Requires a sign change (f(lo) * f(hi) <= 0). `tol` is relative to the
    bracket scale (floored at 1). Deterministic for a given f and bracket.
    """
    lo = float(lo)
    hi = float(hi)
    if not lo < hi:
        raise ValueError(f"invalid bracket [{lo}, {hi}]")
    flo = float(f(lo))
    fhi = float(f(hi))
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError(
            f"no sign change on bracket [{lo}, {hi}]: f(lo)={flo!r}, f(hi)={fhi!r}"
        )
    xtol = tol * max(1.0, abs(lo), abs(hi))
    return float(
        brentq(f, lo, hi, xtol=xtol, rtol=max(tol, 4.0 * _EPS), maxiter=200)
    )


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
