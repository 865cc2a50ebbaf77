"""Closed-form kinematics of the three periodic boundary worldlines.

Three worldline families share a drive frequency omega_d and an effective
light speed v:

- SM  (sinusoidal motion): z(t) = -R cos(omega_d t), with R = A / omega_d^2.
- SA  (sinusoidal acceleration): directional proper acceleration
  2 A cos(omega_d t); the position follows in closed form.
- AUA (alternating uniform acceleration): constant proper acceleration A
  whose sign flips every half period; piecewise hyperbolic in proper time.

Positions returned by `position` are centered: the mean over one coordinate
period is subtracted, so only the oscillating part remains (the raw AUA
worldline carries a static offset v^2/A that must not enter drive synthesis).

The SM and SA averages and proper periods are complete elliptic integrals,
K and E from one arithmetic-geometric mean pass (`_agm`, DLMF 19.8); their
proper times are incomplete ones (`ellip_e`, `ellip_f`: Carlson's
duplication, DLMF 19.36). `solve_acceleration_parameter` inverts the average
with Brent's method (`find_root`). All functions are pure functions of
immutable parameter values. Sweeps use array kernels: the inversion, and
the harmonics by a quadrature sized to each worldline's beta or s (SA: the
trapezoid rule, AUA: Gauss-Legendre, SM: closed form), from kept tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .constants import C_LIGHT

__all__ = [
    "SUBLUMINAL_MARGIN",
    "TrajectoryKind",
    "TrajectoryParams",
    "average_acceleration",
    "coordinate_period",
    "directional_acceleration",
    "ellip_e",
    "ellip_f",
    "find_root",
    "position",
    "proper_period",
    "proper_time",
    "relativity_estimator",
    "solve_acceleration_parameter",
]

# Reject SM wall speeds within this margin of v to stay clear of the
# elliptic singularity at R*omega_d = v.
SUBLUMINAL_MARGIN = 1e-9

# Samples of z(t) per period on which drives are synthesized.
SYNTHESIS_SAMPLES = 4096

# Relative margin inside the SM bracket ends within which the grid
# inversion leaves A to the scalar solver: over 100 times the largest
# difference between the two (6e-13).
_BRACKET_MARGIN = 1e-10

_EPS = float(np.finfo(float).eps)

# Steps of the elliptic kernels (relative error <= 4e-15 for m in [-1e6, 0.99],
# <= 1.5e-14 over [-1e12, 1 - 1e-12]) and of the grid inversion's Newton phase.
_AGM_STEPS, _CARLSON_STEPS, _NEWTON_STEPS, _WINDOW_ULP = 7, 8, 5, 64.0

# The message of the C Brent solver for a NaN value of f, which `find_root` keeps.
_NAN_VALUE = "The function value at x={} is NaN; solver cannot continue."


def _check_elliptic_domain(phi, m, strict: bool) -> None:
    # The integrands contain sqrt(1 - m sin^2 theta). With m <= 1 the float
    # product reaches 1 only where m and |sin theta| are exactly 1; F's
    # integrand is singular there, E's is 0. One reduction decides both
    # checks: the largest m, NaN ignored.
    m_arr = np.asarray(m, dtype=float)
    m_max = float(np.fmax.reduce(m_arr, axis=None, initial=-math.inf))
    if m_max > 1.0:
        raise ValueError(f"elliptic parameter m = {m_max:.6g} lies outside the domain m <= 1")
    if strict and m_max == 1.0:
        phi_arr = np.asarray(phi, dtype=float)
        sin_sq_one = (np.abs(phi_arr) >= np.pi / 2.0) | (np.abs(np.sin(phi_arr)) == 1.0)
        if np.any(sin_sq_one & (m_arr == 1.0)):
            raise ValueError(
                "elliptic integrand leaves the real domain: "
                "m*sin^2(theta) reaches 1 on the integration range"
            )


def _agm(m):
    """K(m) and E(m), m < 1, by the arithmetic-geometric mean (DLMF 19.8.1, 19.8.6),
    with c_{n+1} = c_n^2 / (4 a_{n+1}), which does not cancel. A float m stays in
    `math`: scalar solves call this 8-10 times. Past `_AGM_STEPS` steps it goes on
    while |a - b| > eps a anywhere, up to 64 steps: m = 1 never converges."""
    sqrt, pending = (math.sqrt, bool) if isinstance(m, float) else (np.sqrt, np.any)
    a, b, c_sq, total = 1.0, sqrt(1.0 - m), m, 0.5 * m
    for n in range(64):
        if n >= _AGM_STEPS and not pending(abs(a - b) > _EPS * a):
            break
        a, b, c = 0.5 * (a + b), sqrt(a * b), c_sq / (2.0 * (a + b))
        c_sq = c * c
        total += 2.0**n * c_sq
    return 0.5 * math.pi / a, 0.5 * math.pi / a * (1.0 - total)


def _carlson(x, y):
    """R_F(x, y, 1) and R_D(x, y, 1), x, y >= 0, by duplication and Carlson's
    fifth-order series (Numer. Algorithms 10, 13-26 (1995))."""
    z, rd_sum, scale = 1.0, 0.0, 1.0
    for _ in range(_CARLSON_STEPS):
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = sx * (sy + sz) + sy * sz
        rd_sum, scale = rd_sum + scale / (sz * (z + lam)), 0.25 * scale
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
    mean = (x + y + z) / 3.0
    dx, dy = 1.0 - x / mean, 1.0 - y / mean
    e2, e3 = dx * dy - (dx + dy) * (dx + dy), -dx * dy * (dx + dy)
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / np.sqrt(mean)
    mean = (x + y + 3.0 * z) / 5.0
    dx, dy = 1.0 - x / mean, 1.0 - y / mean
    xy, dz = dx * dy, -(dx + dy) / 3.0
    zz = dz * dz
    e2, e3, e4, e5 = xy - 6.0 * zz, (3.0 * xy - 8.0 * zz) * dz, 3.0 * (xy - zz) * zz, xy * zz * dz
    series = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
              - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
    return rf, scale * series / (mean * np.sqrt(mean)) + 3.0 * rd_sum


def _eval_elliptic(phi, m, second_kind: bool):
    # phi = n pi + p, |p| <= pi/2: n pi adds 2n complete integrals, p = +-pi/2
    # is one. 1 - m sin^2 p is written c^2 + (1 - m) s^2, which does not
    # cancel near m = 1.
    scalar = np.isscalar(phi) and np.isscalar(m)
    phi, m = np.asarray(phi, dtype=float), np.asarray(m, dtype=float)
    n = (phi / math.pi + 0.5) // 1.0  # floor; NaN for NaN and inf
    p = phi - n * math.pi
    k, e = _agm(m)
    if second_kind:  # E(1) = 1, which no AGM pass reaches
        k = np.where(m == 1.0, 1.0, e)
    s, c = np.sin(p), np.cos(p)
    rf, rd = _carlson(c * c, c * c + (1.0 - m) * s * s)
    part = s * rf - (m / 3.0) * (s * s * s) * rd if second_kind else s * rf
    out = 2.0 * n * k + np.where(abs(p) == 0.5 * math.pi, np.copysign(k, p), part)
    return float(out) if scalar else out


def ellip_e(phi, m):
    """Incomplete elliptic integral of the second kind in the parameter
    convention (m, not the modulus k):
    E(phi, m) = int_0^phi sqrt(1 - m sin^2 theta) dtheta.

    Scalars or arrays (broadcast). Any m <= 1 is valid (negative m too; the
    worldlines only reach m < 1); any m > 1 raises ValueError. phi may
    exceed pi/2, with the periodic extension
    E(phi + pi, m) = E(phi, m) + 2 E(pi/2, m).
    """
    _check_elliptic_domain(phi, m, strict=False)
    return _eval_elliptic(phi, m, second_kind=True)


def ellip_f(phi, m):
    """Incomplete elliptic integral of the first kind in the parameter
    convention: F(phi, m) = int_0^phi dtheta / sqrt(1 - m sin^2 theta).

    As `ellip_e` (m <= 1, periodic extension in phi), and strict: an
    integrand that is singular on the range (m sin^2 theta = 1) raises
    ValueError.
    """
    _check_elliptic_domain(phi, m, strict=True)
    return _eval_elliptic(phi, m, second_kind=False)


def find_root(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12
) -> float:
    """Root of f on the bracket [lo, hi] via Brent's method.

    Requires a sign change: f(lo) and f(hi) of opposite signs, or one of them
    zero. `tol` is relative to the bracket scale (floored at 1). The loop
    follows the C Brent solver `brentq` step for step, with xtol = tol *
    max(1, |lo|, |hi|), rtol = max(tol, 4 eps) and 200 iterations, so it
    returns brentq's float from the same evaluations of f. A NaN value of f
    raises ValueError; no convergence in 200 iterations raises RuntimeError.
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
    for x, fx in ((lo, flo), (hi, fhi)):
        if math.isnan(fx):
            raise ValueError(_NAN_VALUE.format(x))
    if (flo < 0.0) == (fhi < 0.0):
        raise ValueError(
            f"no sign change on bracket [{lo}, {hi}]: f(lo)={flo!r}, f(hi)={fhi!r}"
        )
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    xtol = tol * max(1.0, abs(lo), abs(hi))
    rtol = max(tol, 4.0 * _EPS)
    # pre: the previous iterate; cur: the best one; blk: the far end of the
    # current bracket. spre/scur: the step before last and the last step.
    xpre, fpre, xcur, fcur = lo, flo, hi, fhi
    xblk = fblk = spre = scur = 0.0
    for _ in range(200):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise ValueError(_NAN_VALUE.format(xcur))
    raise RuntimeError("Failed to converge after 200 iterations.")


class TrajectoryKind(str, Enum):
    SM = "sm"
    SA = "sa"
    AUA = "aua"


@dataclass(frozen=True)
class TrajectoryParams:
    """One worldline: kind, characteristic acceleration parameter A [m/s^2]
    (R*omega_d^2 for SM, the acceleration amplitude alpha for SA, the
    constant magnitude a for AUA), drive frequency omega_d [rad/s], and
    effective light speed v [m/s]."""

    kind: TrajectoryKind
    A: float
    omega_d: float
    v: float

    def __post_init__(self):
        object.__setattr__(self, "kind", TrajectoryKind(self.kind))
        if not 0.0 < self.A < math.inf:
            raise ValueError(f"A must be positive and finite, got {self.A}")
        if not 0.0 < self.omega_d < math.inf:
            raise ValueError(f"omega_d must be positive and finite, got {self.omega_d}")
        if not 0.0 < self.v <= C_LIGHT:
            raise ValueError(f"v must lie in (0, c], got {self.v}")
        if self.kind is TrajectoryKind.SM:
            wall_speed = self.A / self.omega_d  # R * omega_d
            if wall_speed >= self.v * (1.0 - SUBLUMINAL_MARGIN):
                raise ValueError(
                    f"SM wall speed R*omega_d = {wall_speed:.6g} m/s reaches the "
                    f"effective light speed v = {self.v:.6g} m/s"
                )

    @property
    def R(self) -> float:
        """SM oscillation amplitude A / omega_d^2 [m]."""
        if self.kind is not TrajectoryKind.SM:
            raise ValueError(f"R is only defined for SM, not {self.kind.value}")
        return self.A / self.omega_d**2


def coordinate_period(p: TrajectoryParams) -> float:
    return 2.0 * math.pi / p.omega_d


def _sa_velocity_ratio(A, omega_d, v):
    # Peak |dz/dt| / v for SA is beta / sqrt(1 + beta^2) with this beta.
    return 2.0 * A / (v * omega_d)


def _aua_segment_sinh(A, omega_d, v):
    # sinh(A tau_p / 4v); fixed by requiring the coordinate period 2 pi/omega_d.
    return A * math.pi / (2.0 * v * omega_d)


def proper_period(p: TrajectoryParams) -> float:
    """Proper time elapsed over one coordinate period."""
    if p.kind is TrajectoryKind.SM:
        return 4.0 * _agm((p.R * p.omega_d / p.v) ** 2)[1] / p.omega_d
    if p.kind is TrajectoryKind.SA:
        return 4.0 * _agm(-(_sa_velocity_ratio(p.A, p.omega_d, p.v) ** 2))[0] / p.omega_d
    s = _aua_segment_sinh(p.A, p.omega_d, p.v)
    return (4.0 * p.v / p.A) * math.asinh(s)


def _aua_segment_index(p: TrajectoryParams, t):
    return np.floor(2.0 * np.asarray(t, dtype=float) / coordinate_period(p) + 0.5)


def _raw_position(p: TrajectoryParams, t):
    t = np.asarray(t, dtype=float)
    w = p.omega_d
    if p.kind is TrajectoryKind.SM:
        return -(p.A / w**2) * np.cos(w * t)
    if p.kind is TrajectoryKind.SA:
        beta = _sa_velocity_ratio(p.A, p.omega_d, p.v)
        return -(p.v / w) * np.arcsin(beta * np.cos(w * t) / np.sqrt(1.0 + beta**2))
    # AUA: per segment n, sinh((A/v)(tau - n tau_p/2)) = A t / v - 2 n s,
    # so the position is closed-form in coordinate time.
    s = _aua_segment_sinh(p.A, p.omega_d, p.v)
    n = _aua_segment_index(p, t)
    xi = p.A * t / p.v - 2.0 * n * s
    sign = np.where(np.mod(n, 2.0) == 0.0, 1.0, -1.0)
    return sign * (p.v**2 / p.A) * (np.hypot(1.0, xi) + (sign - 1.0) * math.hypot(1.0, s))


def _period_mean(p: TrajectoryParams) -> float:
    """Mean of the raw position over one coordinate period (closed form)."""
    if p.kind is TrajectoryKind.AUA:
        s = _aua_segment_sinh(p.A, p.omega_d, p.v)
        return (p.v**2 / p.A) * math.hypot(1.0, s)
    return 0.0  # SM and SA oscillate symmetrically about zero


def position(p: TrajectoryParams, t):
    """Centered boundary position z(t) [m]; accepts scalar or array t."""
    out = _raw_position(p, t) - _period_mean(p)
    return float(out) if np.ndim(t) == 0 else out


def directional_acceleration(p: TrajectoryParams, t):
    """Signed proper acceleration [m/s^2]: magnitude of the proper
    acceleration times the sign of the spatial 4-acceleration component."""
    t = np.asarray(t, dtype=float)
    w = p.omega_d
    if p.kind is TrajectoryKind.SM:
        x_sq = (p.R * w / p.v) ** 2
        out = p.A * np.cos(w * t) / (1.0 - x_sq * np.sin(w * t) ** 2) ** 1.5
    elif p.kind is TrajectoryKind.SA:
        out = 2.0 * p.A * np.cos(w * t)
    else:
        n = _aua_segment_index(p, t)
        out = np.where(np.mod(n, 2.0) == 0.0, p.A, -p.A)
    return float(out) if out.ndim == 0 else out


def proper_time(p: TrajectoryParams, t):
    """Proper time tau(t) [s] along the worldline, with tau(0) = 0."""
    t_arr = np.asarray(t, dtype=float)
    w = p.omega_d
    if p.kind is TrajectoryKind.SM:
        m = (p.R * w / p.v) ** 2
        out = ellip_e(w * t_arr, m) / w
    elif p.kind is TrajectoryKind.SA:
        beta = _sa_velocity_ratio(p.A, p.omega_d, p.v)
        out = ellip_f(w * t_arr, -(beta**2)) / w
    else:
        s = _aua_segment_sinh(p.A, p.omega_d, p.v)
        tau_p = proper_period(p)
        n = _aua_segment_index(p, t_arr)
        xi = p.A * t_arr / p.v - 2.0 * n * s
        out = n * tau_p / 2.0 + (p.v / p.A) * np.arcsinh(xi)
    out = np.asarray(out)
    return float(out) if np.ndim(t) == 0 else out


def average_acceleration(p: TrajectoryParams) -> float:
    """Proper-time average of the proper acceleration over one period [m/s^2].

    Closed forms, with the complete integrals E(m) and K(m):
      SM:  v w atanh(R w / v) / E((R w / v)^2)
      SA:  v w asinh(2 A / (v w)) / K(-(2 A / (v w))^2)
      AUA: A (the magnitude is constant)
    """
    w = p.omega_d
    if p.kind is TrajectoryKind.SM:
        x = p.R * w / p.v
        return p.v * w * math.atanh(x) / _agm(x**2)[1]
    if p.kind is TrajectoryKind.SA:
        beta = _sa_velocity_ratio(p.A, p.omega_d, p.v)
        return p.v * w * math.asinh(beta) / _agm(-(beta**2))[0]
    return p.A


def solve_acceleration_parameter(
    kind: TrajectoryKind, abar_target: float, omega_d: float, v: float
) -> float:
    """Invert average_acceleration: the A for which the worldline of the
    given kind reaches the target time-averaged proper acceleration.

    The average is monotone increasing in A at fixed omega_d, so a bracketed
    root find converges. For SM the bracket in R*omega_d/v stays inside the
    subluminal bound, and a target above the average at its end raises
    ValueError. For SA abar/A lies in (4/pi, 2), so the root lies in
    [abar/2.05, abar]; a target whose beta^2 overflows raises ValueError."""
    kind = TrajectoryKind(kind)
    if not 0.0 < abar_target < math.inf:
        raise ValueError(f"abar_target must be positive and finite, got {abar_target}")
    if not omega_d > 0.0 or not 0.0 < v <= C_LIGHT:
        raise ValueError("omega_d must be positive and v in (0, c]")
    abar_target, omega_d = float(abar_target), float(omega_d)  # numpy's beta^2 would be inf
    if kind is TrajectoryKind.AUA:
        return abar_target

    def abar_of(a_param: float) -> float:
        return average_acceleration(TrajectoryParams(kind, a_param, omega_d, v))

    if kind is TrajectoryKind.SM:
        # Parametrize by the velocity ratio x = R*omega_d/v in (0, 1), keeping
        # the bracket strictly inside the subluminal rejection margin.
        def mismatch(x: float) -> float:
            return abar_of(x * v * omega_d) - abar_target

        x_hi = 1.0 - 16.0 * SUBLUMINAL_MARGIN
        if mismatch(x_hi) < 0.0:
            raise ValueError(
                f"abar_target={abar_target:.4g} m/s^2 exceeds the subluminal "
                f"ceiling {abar_of(x_hi * v * omega_d):.4g} m/s^2 at this omega_d"
            )
        x = find_root(mismatch, 1e-12, x_hi, tol=1e-13)
        return x * v * omega_d

    # SA: abar/A lies in (4/pi, 2), so A lies in (abar/2.05, abar).
    try:
        return find_root(lambda a: abar_of(a) - abar_target, abar_target / 2.05, abar_target, 1e-13)
    except OverflowError:  # beta^2 past the float range
        raise ValueError(f"abar_target={abar_target:.4g} m/s^2 is past the SA range") from None


def _grid_acceleration_parameter(kind, abar, omega_d, v: float):
    """`solve_acceleration_parameter` over arrays abar, omega_d (broadcast).

    Inverts the closed-form average in one variable: x = R omega_d / v
    (abar = v omega_d atanh(x) / E(x^2)) for SM and beta = 2 A / (v omega_d)
    (abar = v omega_d asinh(beta) / K(-beta^2)) for SA; AUA has A = abar.
    Newton steps (for SM in atanh(x), where it is nearly linear) come within
    a few ulp of the root; bisection narrows +-`_WINDOW_ULP` ulp about them,
    or the whole bracket where that misses the root, to adjacent floats. NaN
    where the scalar solver raises, and for SM within `_BRACKET_MARGIN`
    (relative) of its bracket ends."""
    kind = TrajectoryKind(kind)
    abar, omega_d = np.broadcast_arrays(
        np.asarray(abar, dtype=float), np.asarray(omega_d, dtype=float)
    )
    out = np.full(abar.shape, np.nan)
    ok = (abar > 0.0) & (abar < math.inf) & (omega_d > 0.0) & (omega_d < math.inf)
    if kind is TrajectoryKind.SA:  # the scalar solve raises where beta^2 overflows
        with np.errstate(over="ignore"):
            ok &= _sa_velocity_ratio(abar, omega_d, v) ** 2 < math.inf
    if kind is TrajectoryKind.AUA:
        out[ok] = abar[ok]
        return out
    r = abar[ok] / (v * omega_d[ok])
    # Newton's seed: f(t) runs from 2t/pi at small t to t at large t (t = beta, atanh(x)).
    x = 0.5 * math.pi * r / (1.0 + (0.5 * math.pi - 1.0) * np.tanh(r))
    if kind is TrajectoryKind.SA:
        # abar / A lies in (4/pi, 2), so beta lies in (r, (pi/2) r).
        f = lambda b: np.arcsinh(b) / _agm(-(b**2))[0]
        lo, hi, scale = r, 1.6 * r, 0.5

        def newton(b):  # by dK/dm = (E - (1 - m) K) / (2 m (1 - m))
            (k, e), s, asinh_b = _agm(-(b**2)), 1.0 + b**2, np.arcsinh(b)
            return b - (asinh_b / k - r) * k**2 / (k / np.sqrt(s) + asinh_b * (k - e / s) / b)
    else:  # on the scalar solver's bracket
        f = lambda x: np.arctanh(x) / _agm(x**2)[1]
        lo, hi, scale = 1e-12, 1.0 - 16.0 * SUBLUMINAL_MARGIN, 1.0
        inside = (r > f(lo) * (1.0 + _BRACKET_MARGIN)) & (r < f(hi) * (1.0 - _BRACKET_MARGIN))
        r, x = np.where(inside, r, np.nan), np.where(inside, np.tanh(x), np.nan)

        def newton(x):  # in u = atanh(x), f = u / E(tanh^2 u); by dE/dm = (E - K) / (2 m)
            (k, e), u = _agm(x**2), np.arctanh(x)
            return np.tanh(u - (u / e - r) * e**2 / (e - u * (e - k) * (1.0 - x**2) / x))
    for _ in range(_NEWTON_STEPS):
        x = np.clip(newton(x), lo, hi)
    width = _WINDOW_ULP * np.spacing(x)
    w_lo, w_hi = np.maximum(x - width, lo), np.minimum(x + width, hi)
    held = (f(w_lo) < r) & (f(w_hi) >= r)
    # Bisect to adjacent floats, in the window where it holds the root.
    lo = np.where(held, w_lo, np.where(np.isnan(r), np.nan, lo))
    hi = np.where(held, w_hi, hi)
    while not np.all(((x := 0.5 * (lo + hi)) == lo) | (x == hi) | np.isnan(x)):
        below = f(x) < r
        lo, hi = np.where(below, x, lo), np.where(below, hi, x)
    out[ok] = scale * x * v * omega_d[ok]
    return out


# The rules of `_grid_harmonics`, in powers of two: SA samples a period
# (trapezoid, 128 to 2^16) and AUA Gauss-Legendre nodes on the quarter (32 to
# 1024). Each takes beta (SA: N >= 40/asinh(1/beta)) or s (AUA: nodes >=
# 10 sqrt(s)) up to its bound, the last one the rest; harmonic n needs 8n
# samples or 2n nodes.
# (The bounds are computed in `math`: a first numpy sinh at import would add
# 0.4 MB of resident library code.)
_SA_SIZES, _AUA_SIZES = [128 << k for k in range(10)], [32 << k for k in range(6)]
_RULES = {
    TrajectoryKind.SA: (
        np.array(_SA_SIZES), np.array([1.0 / math.sinh(40.0 / n) for n in _SA_SIZES[:-1]] + [math.inf]), 8
    ),
    TrajectoryKind.AUA: (
        np.array(_AUA_SIZES), np.array([(0.1 * n) ** 2 for n in _AUA_SIZES[:-1]] + [math.inf]), 2
    ),
}

# Floats of weighted basis kept over all rules: 2.1 MB, the 256 odd
# harmonics of the 4096-sample trapezoid. Rows past it are built per call.
# The nodes, phases and weights of all 16 rules add 0.85 MB.
_KEPT_BASIS = 256 * (SYNTHESIS_SAMPLES // 4 + 1)

_tables: dict = {}  # (kind, size) -> [nodes, (m, c), weights, basis], built on first use


def _gauss_legendre(size: int):
    """Nodes (ascending) and weights of the size-point Gauss-Legendre rule on
    [-1, 1], size even: Newton's method on the three-term recurrence from
    Tricomi's estimate of the positive nodes, mirrored."""
    x = np.cos(math.pi * (np.arange(size // 2) + 0.75) / (size + 0.5))
    for _ in range(100):
        p_prev, p = np.ones_like(x), x
        for k in range(2, size + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = size * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= _EPS:
            break
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    return np.concatenate((-x, x[::-1])), np.concatenate((w, w[::-1]))


def _table(kind: TrajectoryKind, size: int, n_odd: int):
    """Nodes and weighted basis rows of the first n_odd odd harmonics of one
    rule, nodes kept and basis kept within `_KEPT_BASIS`.
    SA, size samples a period: (cos theta_k,) at theta_k = 2 pi k/size,
    k = 0..size/4, and (8/size) cos(n theta_k), end weights halved.
    AUA, size nodes u_j on [0, 1]: (u_j^2, u_j^2 - 1), and w_j cos(n pi u_j/2)."""
    entry = _tables.get((kind, size))
    if entry is None:
        if kind is TrajectoryKind.SA:
            k = np.arange(size // 4 + 1)
            weight = np.full(k.size, 8.0 / size)
            weight[[0, -1]] *= 0.5
            nodes, phase = (np.cos(k * (2.0 * math.pi / size)),), (k, 2.0 * math.pi / size)
        else:
            x, weight = _gauss_legendre(size)
            u = 0.5 * (1.0 + x)
            nodes, phase = (u * u, -(0.5 * (1.0 - x)) * (0.5 * (3.0 + x))), (u, 0.5 * math.pi)
        entry = _tables[(kind, size)] = [nodes, phase, weight, np.empty((0, weight.size))]
    nodes, (m, c), weight, basis = entry
    if len(basis) < n_odd:
        basis = weight * np.cos(np.multiply.outer(np.arange(1, 2 * n_odd, 2), m) * c)
        kept = sum(e[3].size for key, e in _tables.items() if key != (kind, size))
        if kept + basis.size <= _KEPT_BASIS:
            entry[3] = basis
    return nodes, basis[:n_odd]


def _dots(z, basis):
    # One dot product per (row, harmonic): no other row enters a row's a_n.
    return np.matmul(z[:, None, None, :], basis[:, :, None])[:, :, 0, 0]


def _grid_harmonics(kind, A, omega_d, v: float, n_max: int, block: int | None = None):
    """Cosine coefficients z_n (rows, n_max) and peaks max|z| (rows,) of the
    worldlines of one kind at parameter arrays A, omega_d.

    The worldlines flip sign every half period, so only the odd
    a_n = (4/pi) int_0^{pi/2} z cos(n theta) dtheta (theta = omega_d t) are
    nonzero. SM is closed form: -R times the 4096-sample trapezoid's
    coefficients of cos theta. SA and AUA rows take a rule sized from the
    row's own beta or s (Trefethen & Weideman, SIAM Rev. 56, 385 (2014)):

    - SA: z = -(v/omega_d) asin(kappa cos theta) is periodic and analytic
      within asinh(1/beta) of the real axis, where the trapezoid rule with N
      samples a period errs by about exp(-N asinh(1/beta)). N is a power of
      two >= 40/asinh(1/beta) (about 40 beta at large beta), at least 128.
    - AUA: z = (v^2/A)(sqrt(1 + s^2 u^2) - sqrt(1 + s^2)), u = 2 theta/pi,
      is analytic on the quarter, with the acceleration jump at its end u = 1:
      Gauss-Legendre, a power of two >= 10 sqrt(s) nodes, at least 32. z is
      written without a power of s, so no finite s overflows it.

    Harmonic n takes the larger of its row's rule and 8n samples (2n nodes),
    within 2^16 samples or 1024 nodes (`_RULES`), so raising n_max only adds
    harmonics. Rows are grouped by rule, and each a_n is one dot product of
    the row's samples with a kept basis (`_table`): no other row, no n_max
    and no `block` (the most rows x samples at once; default all) enters
    it. The peaks are closed forms, at theta = 0: (v/omega_d) asin(kappa)
    for SA, (v^2/A) s^2/(1 + sqrt(1 + s^2)) for AUA."""
    kind = TrajectoryKind(kind)
    A, w = np.asarray(A, dtype=float), np.asarray(omega_d, dtype=float)
    a = np.zeros((A.size, n_max))
    if kind is TrajectoryKind.SM:
        R = A / w**2
        (cos_theta,), basis = _table(TrajectoryKind.SA, SYNTHESIS_SAMPLES, (n_max + 1) // 2)
        a[:, ::2] = -R[:, None] * _dots(cos_theta[None, :], basis)
        return a, R
    if kind is TrajectoryKind.SA:
        beta = _sa_velocity_ratio(A, w, v)
        kappa = beta / np.sqrt(1.0 + beta**2)
        peak, size_by = (v / w) * np.arcsin(kappa), beta

        def samples(rows, cos_theta):
            return -(v / w[rows, None]) * np.arcsin(kappa[rows, None] * cos_theta)
    else:
        # z = (v^2/A) s p (u^2 - 1) / (sqrt(q^2 + p^2 u^2) + sqrt(q^2 + p^2))
        # with p = min(s, 1) and q = min(1/s, 1): no power of s.
        s = _aua_segment_sinh(A, w, v)
        p, q = np.minimum(s, 1.0), np.minimum(1.0 / s, 1.0)
        scale, p_sq, q_sq = (v**2 / A) * s * p, p * p, q * q
        root = np.sqrt(q_sq + p_sq)
        peak, size_by = scale / (q + root), s

        def samples(rows, u_sq, u_sq_m1):
            den = np.sqrt(q_sq[rows, None] + p_sq[rows, None] * u_sq) + root[rows, None]
            return scale[rows, None] * u_sq_m1 / den
    sizes, bounds, per_n = _RULES[kind]
    rule = np.searchsorted(bounds, np.fmax(size_by, 0.0))  # NaN rows: the first rule
    first = np.minimum(np.searchsorted(sizes, per_n * np.arange(1, n_max + 1, 2)), sizes.size - 1)
    for r in np.flatnonzero(np.bincount(rule)).tolist():
        rows, use = np.flatnonzero(rule == r), np.maximum(first, r)
        for k in sorted(set(use.tolist())):  # np.unique would import numpy.ma (0.5 MB)
            cols = np.flatnonzero(use == k)
            nodes, basis = _table(kind, int(sizes[k]), int(cols[-1]) + 1)
            step = rows.size if block is None else max(1, block // nodes[0].size)
            for start in range(0, rows.size, step):
                part = rows[start : start + step]
                a[part[:, None], 2 * cols] = _dots(samples(part, *nodes), basis[cols])
    return a, peak


def relativity_estimator(p: TrajectoryParams) -> float:
    """Dimensionless measure of how relativistic the motion is: the average
    acceleration times one period, in units of the effective light speed.
    Values of order 1 or above mark significantly relativistic worldlines."""
    return average_acceleration(p) * coordinate_period(p) / p.v
