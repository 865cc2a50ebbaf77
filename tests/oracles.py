"""Independent numerical oracles shared by the test modules.

Everything here deliberately avoids the closed forms under test: averages
come from adaptive quadrature with finite-difference velocities, elliptic
values from direct integration of the defining integrands, and the
negative-parameter route from the imaginary-modulus transformation.

`scatter_amplitudes` spells out the first-order sideband amplitudes one
by one; `output_spectrum` sums their squares in closed form.

`grid_acceleration_parameter_bisected` is the grid inversion as plain
bisection on scipy's complete elliptic integrals, the package's own
kernels left out.

`grid_harmonics_per_row` is the quarter-period trapezoid rule of the
harmonic kernel before it sized its rules per worldline: each SM or SA
worldline sampled on its own times k T/N through `_raw_position`, projected
on an `np.cos` basis.

`harmonics_integral` gives the odd cosine coefficients z_n as 30-digit
mpmath integrals over the quarter period (`mpmath.quad`, split toward the
branch point next to theta = 0); `aua_harmonics_quadrature` gives AUA's in
double precision by composite Gauss-Legendre (numpy's `leggauss`) on the
same split.

`integrate` (adaptive Simpson) interprets its tolerance relative to the
magnitude of the integral, floored at 1, so the default 1e-12 behaves as a
relative target for O(1) integrals and an absolute one for tiny ones.
"""

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from mirror_dce.circuit import CircuitParams, DriveSpectrum, effective_length
from mirror_dce.scattering import reflection
from mirror_dce.trajectories import (
    _BRACKET_MARGIN,
    SUBLUMINAL_MARGIN,
    TrajectoryKind,
    TrajectoryParams,
    _raw_position,
    coordinate_period,
    directional_acceleration,
    ellip_e,
    ellip_f,
    position,
)


class ConvergenceError(RuntimeError):
    """An iterative routine exhausted its budget without converging."""


@dataclass(frozen=True)
class Quadrature:
    """Adaptive-quadrature settings.

    abs_tol is the tolerance on the integral estimate (scaled by the
    integral's own magnitude, floored at 1); max_subdivisions bounds the
    interval-halving depth.
    """

    abs_tol: float = 1e-12
    max_subdivisions: int = 48

    def __post_init__(self):
        if not self.abs_tol > 0.0:
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")
        if self.max_subdivisions < 1:
            raise ValueError(
                f"max_subdivisions must be >= 1, got {self.max_subdivisions}"
            )


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    q: Quadrature | None = None,
) -> float:
    """Adaptive Simpson quadrature of f over [a, b].

    The tolerance scales with the magnitude of the integral (estimated from
    the first subdivision level, so cancellation in the total does not mask
    large contributions); splits until the local Richardson error estimate
    meets it, raising ConvergenceError if the halving depth exceeds
    q.max_subdivisions anywhere.
    """
    if q is None:
        q = Quadrature()
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0

    def eval_at(x: float) -> float:
        y = float(f(x))
        if not np.isfinite(y):
            raise ValueError(f"integrand is not finite at x={x!r}: {y!r}")
        return y

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    mid = 0.5 * (a + b)
    fa, fm, fb = eval_at(a), eval_at(mid), eval_at(b)
    f_lq = eval_at(0.5 * (a + mid))
    f_rq = eval_at(0.5 * (mid + b))
    whole = simpson(a, b, fa, fm, fb)
    s_left = simpson(a, mid, fa, f_lq, fm)
    s_right = simpson(mid, b, fm, f_rq, fb)
    scale = max(abs(whole), abs(s_left) + abs(s_right))
    if scale == 0.0:
        return 0.0
    tol = q.abs_tol * scale

    def recurse(x0, x2, f0, f1, f2, s, fl, fr, s_l, s_r, tol, depth):
        s2 = s_l + s_r
        err = s2 - s
        if abs(err) <= 15.0 * tol:
            return s2 + err / 15.0
        if depth <= 0:
            raise ConvergenceError(
                f"quadrature did not converge on [{x0}, {x2}] "
                f"after {q.max_subdivisions} subdivisions"
            )
        x1 = 0.5 * (x0 + x2)
        half = 0.5 * tol
        return expand(x0, x1, f0, fl, f1, s_l, half, depth - 1) + expand(
            x1, x2, f1, fr, f2, s_r, half, depth - 1
        )

    def expand(x0, x2, f0, f1, f2, s, tol, depth):
        x1 = 0.5 * (x0 + x2)
        fl = eval_at(0.5 * (x0 + x1))
        fr = eval_at(0.5 * (x1 + x2))
        s_l = simpson(x0, x1, f0, fl, f1)
        s_r = simpson(x1, x2, f1, fr, f2)
        return recurse(x0, x2, f0, f1, f2, s, fl, fr, s_l, s_r, tol, depth)

    return recurse(
        a, b, fa, fm, fb, whole, f_lq, f_rq, s_left, s_right, tol, q.max_subdivisions
    )


def velocity_fd(p: TrajectoryParams, t: float, rel_step: float = 1e-7) -> float:
    """Central-difference boundary velocity dz/dt."""
    h = rel_step * coordinate_period(p)
    return (position(p, t + h) - position(p, t - h)) / (2.0 * h)


def abar_quadrature(p: TrajectoryParams, tol: float = 1e-9) -> float:
    """Proper-time average of |alpha| over one period, by direct quadrature.

    Uses dtau/dt = sqrt(1 - (dz/dt)^2 / v^2) with finite-difference
    velocities, independent of the closed-form elliptic expressions."""
    t_p = coordinate_period(p)
    q = Quadrature(abs_tol=tol, max_subdivisions=44)

    def dtau_dt(t: float) -> float:
        ratio = velocity_fd(p, t) / p.v
        return math.sqrt(max(0.0, 1.0 - ratio * ratio))

    numerator = integrate(
        lambda t: abs(directional_acceleration(p, t)) * dtau_dt(t), 0.0, t_p, q
    )
    denominator = integrate(dtau_dt, 0.0, t_p, q)
    return numerator / denominator


def period_mean_quadrature(raw_position, t_p: float, tol: float = 1e-10) -> float:
    q = Quadrature(abs_tol=tol, max_subdivisions=44)
    return integrate(raw_position, 0.0, t_p, q) / t_p


def ellip_e_quad(phi: float, m: float, tol: float = 1e-12) -> float:
    q = Quadrature(abs_tol=tol, max_subdivisions=48)
    return integrate(lambda th: math.sqrt(1.0 - m * math.sin(th) ** 2), 0.0, phi, q)


def ellip_f_quad(phi: float, m: float, tol: float = 1e-12) -> float:
    q = Quadrature(abs_tol=tol, max_subdivisions=48)
    return integrate(
        lambda th: 1.0 / math.sqrt(1.0 - m * math.sin(th) ** 2), 0.0, phi, q
    )


def _imag_modulus_angle(phi: float, mu: float) -> float:
    s = math.sqrt(1.0 + mu) * math.sin(phi) / math.sqrt(1.0 + mu * math.sin(phi) ** 2)
    return math.asin(min(1.0, s))


def ellip_f_imag_modulus(phi: float, mu: float) -> float:
    """F(phi, -mu) for mu > 0 via the imaginary-modulus transformation,
    routed through the positive-parameter branch (phi in [0, pi/2])."""
    m1 = mu / (1.0 + mu)
    theta = _imag_modulus_angle(phi, mu)
    return ellip_f(theta, m1) / math.sqrt(1.0 + mu)


def ellip_e_imag_modulus(phi: float, mu: float) -> float:
    """E(phi, -mu) for mu > 0 via the imaginary-modulus transformation."""
    m1 = mu / (1.0 + mu)
    theta = _imag_modulus_angle(phi, mu)
    correction = (
        m1
        * math.sin(theta)
        * math.cos(theta)
        / math.sqrt(1.0 - m1 * math.sin(theta) ** 2)
    )
    return math.sqrt(1.0 + mu) * (ellip_e(theta, m1) - correction)


def grid_acceleration_parameter_bisected(kind, abar, omega_d, v: float):
    """The grid inversion by plain bisection down to adjacent floats, on
    scipy's complete elliptic integrals: x = R omega_d / v solves
    atanh(x) / E(x^2) = abar / (v omega_d) for SM, beta = 2 A / (v omega_d)
    solves asinh(beta) / K(-beta^2) = abar / (v omega_d) for SA; AUA has
    A = abar. NaN where the scalar solver raises, and for SM near its
    bracket ends."""
    kind = TrajectoryKind(kind)
    abar, omega_d = np.broadcast_arrays(
        np.asarray(abar, dtype=float), np.asarray(omega_d, dtype=float)
    )
    out = np.full(abar.shape, np.nan)
    ok = (abar > 0.0) & (abar < math.inf) & (omega_d > 0.0) & (omega_d < math.inf)
    if kind is TrajectoryKind.AUA:
        out[ok] = abar[ok]
        return out
    r = abar[ok] / (v * omega_d[ok])
    if kind is TrajectoryKind.SA:
        f = lambda b: np.arcsinh(b) / special.ellipk(-(b**2))
        lo, hi, scale = r, 1.6 * r, 0.5
    else:
        f = lambda x: np.arctanh(x) / special.ellipe(x**2)
        lo, hi, scale = 1e-12, 1.0 - 16.0 * SUBLUMINAL_MARGIN, 1.0
        inside = (r > f(lo) * (1.0 + _BRACKET_MARGIN)) & (r < f(hi) * (1.0 - _BRACKET_MARGIN))
        r = np.where(inside, r, np.nan)
    lo, hi = np.broadcast_arrays(np.where(np.isnan(r), np.nan, lo), hi)
    while True:
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi) | np.isnan(mid)):
            break
        below = f(mid) < r
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    out[ok] = scale * mid * v * omega_d[ok]
    return out


def grid_harmonics_per_row(kind, A, omega_d, v: float, n_max: int, samples: int = 4096):
    """Odd cosine coefficients z_n (rows, n_max; 0 elsewhere) and max|z|
    (rows,) of each SM or SA worldline (A[i], omega_d[i]) by the trapezoid
    rule over its first quarter period: z sampled at t_k = k T/N,
    k = 0..N/4, from `_raw_position`, against cos(n 2 pi k/N) with halved
    end weights."""
    k = np.arange(samples // 4 + 1)
    basis = np.cos(np.multiply.outer(k, np.arange(1, n_max + 1, 2)) * (2.0 * math.pi / samples))
    basis[[0, -1]] *= 0.5
    a, peaks = np.zeros((len(A), n_max)), np.empty(len(A))
    for i, (A_i, w) in enumerate(zip(A, omega_d)):
        p = TrajectoryParams(kind, float(A_i), float(w), v)
        z = _raw_position(p, k * (coordinate_period(p) / samples))
        a[i, ::2] = (8.0 / samples) * (z @ basis)
        peaks[i] = np.max(np.abs(z))
    return a, peaks


def _split_toward_zero(scale: float, end: float) -> list[float]:
    """0, scale, 2 scale, 4 scale, ... < end, end: pieces on which an
    integrand with a branch point at distance `scale` from 0 is analytic
    well beyond each piece."""
    points, x = [0.0], scale
    while x < end:
        points.append(x)
        x *= 2.0
    return points + [end]


@functools.lru_cache(maxsize=None)
def harmonics_integral(kind, A: float, omega_d: float, v: float, n_max: int = 5, dps: int = 30):
    """(a_1..a_n_max, max|z|) of the centered worldline, as floats of the
    30-digit integrals a_n = (4/pi) int_0^{pi/2} z(theta) cos(n theta)
    dtheta, theta = omega_d t (even n: 0), and |z(0)|. Each piece of the
    quarter period is one `mpmath.quad` (tanh-sinh); the pieces double away
    from theta = 0, next to which z has its branch point: at asinh(1/beta)
    for SA, at (pi/2)/s for AUA. z is evaluated once per node for all n."""
    import mpmath

    kind = TrajectoryKind(kind)
    with mpmath.workdps(dps):
        A, w, v = mpmath.mpf(A), mpmath.mpf(omega_d), mpmath.mpf(v)
        quarter = mpmath.pi / 2
        if kind is TrajectoryKind.SM:
            z = lambda th: -(A / w**2) * mpmath.cos(th)
            points = [0, quarter]
        elif kind is TrajectoryKind.SA:
            beta = 2 * A / (v * w)
            kappa = beta / mpmath.sqrt(1 + beta**2)
            z = lambda th: -(v / w) * mpmath.asin(kappa * mpmath.cos(th))
            points = _split_toward_zero(mpmath.asinh(1 / beta), quarter)
        else:
            s = A * mpmath.pi / (2 * v * w)

            def z(th):  # (v^2/A)(sqrt(1 + s^2 u^2) - sqrt(1 + s^2)), u = theta/quarter
                u = th / quarter
                return (v**2 / A) * s**2 * (u * u - 1) / (
                    mpmath.sqrt(1 + (s * u) ** 2) + mpmath.sqrt(1 + s**2)
                )

            points = _split_toward_zero(quarter / s, quarter)
        z = functools.lru_cache(maxsize=None)(z)
        a = [
            float(4 / mpmath.pi * mpmath.quad(lambda th: z(th) * mpmath.cos(n * th), points))
            if n % 2 else 0.0
            for n in range(1, n_max + 1)
        ]
        return tuple(a), float(abs(z(mpmath.mpf(0))))


@functools.lru_cache(maxsize=None)
def _gauss_legendre_48():
    from mpmath import mp
    from mpmath.calculus.quadrature import GaussLegendre

    return np.array(GaussLegendre(mp).calc_nodes(5, 120), dtype=float).T


def aua_harmonics_quadrature(A, omega_d, v: float, n_max: int):
    """Odd cosine coefficients z_n (rows, n_max; 0 elsewhere) and max|z|
    (rows,) of AUA worldlines in double precision: composite 48-point
    Gauss-Legendre in u = 4t/T over [0, 1], on the pieces of
    `_split_toward_zero` at 1/s, with z = (v^2/A)(xi - s)(xi + s) /
    (hypot(1, xi) + hypot(1, s)), xi = s u. The peak is |z(0)|. The rule is
    mpmath's, rounded: numpy's `leggauss` weights are off by up to 1.3e-12
    relative at 48 nodes, which puts a_n off by 4e-15."""
    x, weight = _gauss_legendre_48()
    n = np.arange(1, n_max + 1, 2)
    a, peaks = np.zeros((len(A), n_max)), np.empty(len(A))
    for i, (A_i, w) in enumerate(zip(A, omega_d)):
        A_i, w = float(A_i), float(w)
        s = A_i * math.pi / (2.0 * v * w)
        z_of = lambda xi: (v**2 / A_i) * (xi - s) * (xi + s) / (np.hypot(1.0, xi) + np.hypot(1.0, s))
        points = _split_toward_zero(1.0 / s, 1.0)
        for lo, hi in zip(points, points[1:]):
            u = lo + (hi - lo) * 0.5 * (1.0 + x)
            a[i, ::2] += (hi - lo) * (np.cos(np.multiply.outer(n, u) * (0.5 * math.pi)) @ (weight * z_of(s * u)))
        peaks[i] = abs(z_of(0.0))
    return a, peaks


@dataclass(frozen=True)
class ConversionAmplitude:
    """First-order sideband amplitudes for one drive harmonic n."""

    n: int
    down: complex   # coefficient of a_in(omega - n*omega_d)
    conj: complex   # coefficient of a_in(n*omega_d - omega)^dagger
    up: complex     # coefficient of a_in(omega + n*omega_d)


@dataclass(frozen=True)
class ScatterAmplitudes:
    """Output-mode decomposition at one probe frequency."""

    omega: float
    r: complex
    conv: tuple[ConversionAmplitude, ...]


def scatter_amplitudes(
    omega: float, d: DriveSpectrum, c: CircuitParams
) -> ScatterAmplitudes:
    """First-order output amplitudes at probe frequency omega.

    Harmonics with zero coefficients are skipped. The up-conversion line
    keeps the literal form with P in both quadratures; n_out drops that
    sideband, so it never depends on it.
    """
    w = float(omega)
    if not w > 0.0:
        raise ValueError("scatter_amplitudes requires omega > 0")
    leff0 = effective_length(c)
    v = c.v
    wd = d.omega_d

    def p_factor(w1: float, w2: float) -> complex:
        if w1 <= 0.0 or w2 <= 0.0:
            return 0.0 + 0.0j
        return 2j * leff0 / v * math.sqrt(w1) * math.sqrt(w2)

    k_w = w / v
    conv = []
    for n in range(1, d.n_max + 1):
        an = float(d.a[n - 1]) / d.a0
        bn = float(d.b[n - 1]) / d.a0
        if an == 0.0 and bn == 0.0:
            continue
        w_down = w - n * wd
        w_conj = n * wd - w
        w_up = w + n * wd

        p_down = p_factor(w, w_down)
        down = (an * p_down - 1j * bn * p_down.conjugate()) * np.exp(
            1j * (k_w + abs(w_down) / v) * leff0
        )
        p_conj = p_factor(w, w_conj)
        conj = (an * p_conj.conjugate() - 1j * bn * p_conj) * np.exp(
            1j * (k_w - abs(w_conj) / v) * leff0
        )
        p_up = p_factor(w, w_up)
        up = (an * p_up - 1j * bn * p_up) * np.exp(1j * (k_w + w_up / v) * leff0)
        conv.append(
            ConversionAmplitude(n=n, down=complex(down), conj=complex(conj), up=complex(up))
        )

    return ScatterAmplitudes(
        omega=w, r=reflection(w, leff0, v), conv=tuple(conv)
    )

