import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mirror_dce import experiments, trajectories
from mirror_dce.circuit import fourier_decompose
from mirror_dce.experiments import first_harmonic_amplitude, reproduce
from mirror_dce.trajectories import (
    TrajectoryKind,
    TrajectoryParams,
    average_acceleration,
    coordinate_period,
    directional_acceleration,
    find_root,
    position,
    proper_period,
    proper_time,
    relativity_estimator,
    solve_acceleration_parameter,
)
from mirror_dce.trajectories import (
    _grid_acceleration_parameter,
    _grid_harmonics,
    _period_mean,
    _raw_position,
)
from oracles import (
    abar_quadrature,
    grid_acceleration_parameter_bisected,
    grid_harmonics_per_row,
    period_mean_quadrature,
    velocity_fd,
)

TWO_PI = 2.0 * math.pi
V = 0.4 * 2.99792458e8


def params(kind, A, fd, v=V):
    return TrajectoryParams(TrajectoryKind(kind), A, TWO_PI * fd, v)


class TestParamsValidation:
    def test_positive_fields_required(self):
        with pytest.raises(ValueError):
            params("sa", -1.0, 10e9)
        with pytest.raises(ValueError):
            TrajectoryParams(TrajectoryKind.SA, 1e18, -1.0, V)
        with pytest.raises(ValueError):
            TrajectoryParams(TrajectoryKind.SA, 1e18, 1e10, 2.0 * 2.99792458e8)
        with pytest.raises(ValueError, match="A must be positive and finite"):
            params("aua", math.inf, 10e9)
        with pytest.raises(ValueError, match="omega_d must be positive and finite"):
            TrajectoryParams(TrajectoryKind.AUA, 1e18, math.inf, V)

    def test_sm_superluminal_rejected(self):
        wd = TWO_PI * 18e9
        R = 1.01 * V / wd
        with pytest.raises(ValueError, match="light speed"):
            TrajectoryParams(TrajectoryKind.SM, R * wd**2, wd, V)

    def test_sm_at_margin_rejected_but_below_ok(self):
        wd = TWO_PI * 18e9
        with pytest.raises(ValueError):
            TrajectoryParams(TrajectoryKind.SM, V * wd, wd, V)
        p = TrajectoryParams(TrajectoryKind.SM, 0.95 * V * wd, wd, V)
        assert p.R == pytest.approx(0.95 * V / wd)

    def test_R_only_for_sm(self):
        with pytest.raises(ValueError, match="SM"):
            _ = params("sa", 1e18, 10e9).R


class TestPosition:
    def test_sm_starts_at_minus_R(self, sm_baseline):
        assert position(sm_baseline, 0.0) == pytest.approx(-sm_baseline.R, rel=1e-12, abs=0.0)

    def test_sa_zero_crossing_at_quarter_period(self, sa_comparison):
        t = math.pi / (2.0 * sa_comparison.omega_d)
        amp = abs(position(sa_comparison, 0.0))
        assert abs(position(sa_comparison, t)) < 1e-12 * amp

    def test_aua_start_is_raw_offset_minus_mean(self, aua_comparison):
        p = aua_comparison
        raw0 = v_sq_over_a = p.v**2 / p.A
        assert _raw_position(p, 0.0) == pytest.approx(raw0, rel=1e-12, abs=0.0)
        mean = period_mean_quadrature(
            lambda t: _raw_position(p, t), coordinate_period(p)
        )
        assert _period_mean(p) == pytest.approx(mean, rel=1e-9)
        assert position(p, 0.0) == pytest.approx(v_sq_over_a - mean, rel=1e-9)

    @pytest.mark.parametrize("kind", ["sm", "sa", "aua"])
    def test_centered_mean_is_zero(self, kind):
        p = params(kind, 20e18 if kind != "sm" else 9e17, 14.6e9)
        mean = period_mean_quadrature(
            lambda t: position(p, t), coordinate_period(p)
        )
        amp = abs(position(p, 0.0))
        assert abs(mean) < 1e-9 * amp

    @pytest.mark.parametrize("kind", ["sm", "sa", "aua"])
    def test_periodicity(self, kind):
        p = params(kind, 20e18 if kind != "sm" else 9e17, 14.6e9)
        t = np.linspace(0.0, coordinate_period(p), 257)
        z0 = position(p, t)
        z1 = position(p, t + coordinate_period(p))
        np.testing.assert_allclose(z1, z0, rtol=1e-9, atol=1e-9 * np.max(np.abs(z0)))

    @pytest.mark.parametrize("kind", ["sm", "sa", "aua"])
    def test_subluminal_speed_everywhere(self, kind):
        A = {"sm": 9.054e17, "sa": 13.725e18, "aua": 20e18}[kind]
        fd = {"sm": 18e9, "sa": 14.6e9, "aua": 14.6e9}[kind]
        p = params(kind, A, fd)
        t = np.linspace(0.0, coordinate_period(p), 10_000)
        speeds = np.array([abs(velocity_fd(p, ti)) for ti in t[:: 40]])
        assert np.all(speeds < p.v)
        # denser sweep with coarser differences
        h = coordinate_period(p) * 1e-5
        speeds_dense = np.abs(position(p, t + h) - position(p, t - h)) / (2 * h)
        assert np.all(speeds_dense < p.v)


class TestDirectionalAcceleration:
    def test_sm_peak_value(self, sm_baseline):
        assert directional_acceleration(sm_baseline, 0.0) == pytest.approx(
            sm_baseline.A, rel=1e-12
        )

    def test_sa_peak_value(self, sa_comparison):
        assert directional_acceleration(sa_comparison, 0.0) == pytest.approx(
            2.0 * sa_comparison.A, rel=1e-12
        )

    def test_aua_constant_magnitude_alternating_sign(self, aua_comparison):
        p = aua_comparison
        t = np.linspace(0.0, 2.0 * coordinate_period(p), 1001)
        alpha = directional_acceleration(p, t)
        np.testing.assert_allclose(np.abs(alpha), p.A, rtol=1e-14)
        assert set(np.unique(np.sign(alpha))) == {-1.0, 1.0}
        # sign flips at quarter and three-quarter period
        tp = coordinate_period(p)
        assert directional_acceleration(p, 0.1 * tp) > 0
        assert directional_acceleration(p, 0.4 * tp) < 0
        assert directional_acceleration(p, 0.6 * tp) < 0
        assert directional_acceleration(p, 0.9 * tp) > 0

    def test_sm_double_peaks_when_relativistic(self):
        wd = TWO_PI * 18e9

        def count_maxima(x_ratio):
            p = TrajectoryParams(TrajectoryKind.SM, x_ratio * V * wd, wd, V)
            t = np.linspace(0.0, coordinate_period(p), 4096, endpoint=False)
            a = np.abs(directional_acceleration(p, t))
            interior = (a[1:-1] > a[:-2]) & (a[1:-1] > a[2:])
            wrap = (a[0] > a[-1]) & (a[0] > a[1]), (a[-1] > a[-2]) & (a[-1] > a[0])
            return int(np.sum(interior)) + sum(wrap)

        assert count_maxima(0.3) == 2
        assert count_maxima(0.5) == 2
        assert count_maxima(0.95) > 2

    def test_matches_second_derivative_of_position(self, sa_comparison):
        # alpha = gamma^3 * d2z/dt2 for 1D motion
        p = sa_comparison
        for frac in (0.13, 0.37, 0.81):
            t = frac * coordinate_period(p)
            h = 1e-6 * coordinate_period(p)
            acc = (position(p, t + h) - 2 * position(p, t) + position(p, t - h)) / h**2
            gamma = 1.0 / math.sqrt(1.0 - (velocity_fd(p, t) / p.v) ** 2)
            assert directional_acceleration(p, t) == pytest.approx(
                gamma**3 * acc, rel=1e-4
            )


class TestProperTime:
    @pytest.mark.parametrize("kind", ["sm", "sa", "aua"])
    def test_starts_at_zero(self, kind):
        p = params(kind, 1e18, 10e9)
        assert proper_time(p, 0.0) == 0.0

    def test_sm_nonrelativistic_limit(self):
        wd = TWO_PI * 18e9
        p = TrajectoryParams(TrajectoryKind.SM, 1e-6 * V * wd, wd, V)
        for t in (0.3 / wd, 2.0 / wd, 11.0 / wd):
            assert proper_time(p, t) == pytest.approx(t, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("kind", ["sm", "sa", "aua"])
    def test_strictly_increasing_with_unit_bounded_rate(self, kind):
        A = {"sm": 9.054e17, "sa": 13.725e18, "aua": 20e18}[kind]
        fd = {"sm": 18e9, "sa": 14.6e9, "aua": 14.6e9}[kind]
        p = params(kind, A, fd)
        t = np.linspace(0.0, 2.0 * coordinate_period(p), 2001)
        tau = proper_time(p, t)
        dtau = np.diff(tau)
        dt = np.diff(t)
        assert np.all(dtau > 0.0)
        assert np.all(dtau <= dt * (1.0 + 1e-12))

    @pytest.mark.parametrize("kind", ["sm", "sa", "aua"])
    def test_one_period_matches_closed_form_proper_period(self, kind):
        A = {"sm": 9.054e17, "sa": 13.725e18, "aua": 20e18}[kind]
        fd = {"sm": 18e9, "sa": 14.6e9, "aua": 14.6e9}[kind]
        p = params(kind, A, fd)
        assert proper_time(p, coordinate_period(p)) == pytest.approx(
            proper_period(p), rel=1e-12, abs=0.0
        )

    def test_aua_proper_period_against_numeric_inversion(self, aua_comparison):
        # invert tau(t) numerically: the closed-form proper period must map
        # back to exactly one coordinate period
        p = aua_comparison
        tau_p = proper_period(p)
        t_p = coordinate_period(p)
        t_star = find_root(
            lambda t: proper_time(p, t) - tau_p, 0.5 * t_p, 2.0 * t_p, tol=1e-13
        )
        assert t_star == pytest.approx(t_p, rel=1e-10, abs=0.0)

    def test_aua_closed_form_value(self, aua_comparison):
        p = aua_comparison
        expected = (4.0 * p.v / p.A) * math.asinh(
            p.A * math.pi / (2.0 * p.v * p.omega_d)
        )
        assert proper_period(p) == pytest.approx(expected, rel=1e-14, abs=0.0)


class TestAverageAcceleration:
    def test_sm_baseline_value(self, sm_baseline):
        assert average_acceleration(sm_baseline) == pytest.approx(9.054e17, rel=0.01)

    def test_sa_comparison_value(self, sa_comparison):
        assert average_acceleration(sa_comparison) == pytest.approx(20e18, rel=0.01)

    def test_aua_exact(self, aua_comparison):
        assert average_acceleration(aua_comparison) == aua_comparison.A

    @pytest.mark.parametrize(
        "kind,A,fd",
        [
            ("sm", 9.054e17, 18e9),
            ("sm", 5e18, 25e9),
            ("sa", 13.725e18, 14.6e9),
            ("sa", 1e18, 8e9),
            ("aua", 20e18, 14.6e9),
        ],
    )
    def test_closed_form_matches_quadrature_oracle(self, kind, A, fd):
        p = params(kind, A, fd)
        assert average_acceleration(p) == pytest.approx(
            abar_quadrature(p), rel=1e-6
        )

    def test_complete_integrals_come_from_one_agm_pass(self, monkeypatch):
        # Averages and proper periods take K and E from `_agm` alone: no
        # incomplete integral and no domain check, and the same floats as
        # ellip_e/ellip_f at phi = pi/2 and 2 pi. SM reaches x = 1 - 2e-9,
        # next to the subluminal margin; SA reaches beta = 1e6.
        wd = TWO_PI * 18e9
        x = np.concatenate([np.geomspace(1e-8, 0.5, 40), 1.0 - np.geomspace(0.5, 2e-9, 40)])
        beta = np.geomspace(1e-8, 1e6, 80)
        worldlines = [params("sm", xi * V * wd, 18e9) for xi in x.tolist()]
        worldlines += [params("sa", 0.5 * b * V * wd, 18e9) for b in beta.tolist()]
        calls = []
        for name in ("ellip_e", "ellip_f", "_check_elliptic_domain"):
            original = getattr(trajectories, name)
            monkeypatch.setattr(
                trajectories, name,
                lambda *args, f=original, n=name, **kw: calls.append(n) or f(*args, **kw),
            )
        got = [(average_acceleration(p), proper_period(p)) for p in worldlines]
        assert calls == []
        monkeypatch.undo()
        ellip_e, ellip_f = trajectories.ellip_e, trajectories.ellip_f
        for p, (abar, tau_p) in zip(worldlines, got):
            w = p.omega_d
            if p.kind is TrajectoryKind.SM:
                xi = p.R * w / p.v
                assert abar == p.v * w * math.atanh(xi) / ellip_e(math.pi / 2.0, xi**2)
                assert tau_p == ellip_e(2.0 * math.pi, (p.R * w / p.v) ** 2) / w
            else:
                b = trajectories._sa_velocity_ratio(p.A, w, p.v)
                assert abar == p.v * w * math.asinh(b) / ellip_f(math.pi / 2.0, -(b**2))
                assert tau_p == ellip_f(2.0 * math.pi, -(b**2)) / w


    @pytest.mark.parametrize("beta", [1e12, 1e20, 1e42, 1e154])
    def test_agm_converges_for_large_sa_beta(self, beta):
        # Seven fixed AGM steps left K(-beta^2) 1.4e-9 off at beta = 1e12 and
        # 6.4e-3 at 1e42, and the SA ratio past 2 from beta = 4e42 on.
        mpmath = pytest.importorskip("mpmath")
        m = -(beta**2)
        with mpmath.workdps(40):
            want = mpmath.ellipk(mpmath.mpf(m))
            for k in (trajectories._agm(m)[0], trajectories._agm(np.array([m, -1.0]))[0][0]):
                assert abs(float(k / want - 1)) <= 4e-15
                assert 4.0 / math.pi < 2.0 * math.asinh(beta) / (beta * k) < 2.0

    def test_scalar_agm_makes_no_numpy_call(self, monkeypatch):
        # Scalar solves call `_agm` 8-10 times; a numpy call in each pass
        # nearly doubles their time. The SA worldline (beta = 2.6e15) takes
        # the steps past the fixed seven.
        worldlines = [params("sm", 9.054e17, 18e9), params("sa", 1e30, 1e6)]

        def numpy_called(*args, **kwargs):
            raise AssertionError("numpy call on the scalar AGM path")

        monkeypatch.setattr(np, "sqrt", numpy_called)
        monkeypatch.setattr(np, "any", numpy_called)
        got = [(average_acceleration(p), proper_period(p)) for p in worldlines]
        monkeypatch.undo()
        assert got == [(average_acceleration(p), proper_period(p)) for p in worldlines]


class TestSolveAccelerationParameter:
    def test_aua_identity(self):
        assert solve_acceleration_parameter(TrajectoryKind.AUA, 3.3e18, 1e11, V) == 3.3e18

    def test_sa_comparison_point(self):
        alpha = solve_acceleration_parameter(
            TrajectoryKind.SA, 20e18, TWO_PI * 14.6e9, V
        )
        assert alpha == pytest.approx(13.725e18, rel=0.01)

    def test_sm_baseline_point(self):
        A = solve_acceleration_parameter(TrajectoryKind.SM, 9.054e17, TWO_PI * 18e9, V)
        R = A / (TWO_PI * 18e9) ** 2
        assert R == pytest.approx(0.11e-3, rel=0.01)

    @pytest.mark.parametrize("kind", ["sm", "sa", "aua"])
    @pytest.mark.parametrize("target", [5e17, 4e18, 22e18])
    def test_round_trip_identity(self, kind, target):
        wd = TWO_PI * 16e9
        A = solve_acceleration_parameter(TrajectoryKind(kind), target, wd, V)
        p = TrajectoryParams(TrajectoryKind(kind), A, wd, V)
        assert average_acceleration(p) == pytest.approx(target, rel=1e-6)

    def test_sa_solve_past_the_float_range_of_beta_squared_raises_value_error(self):
        # At 1 GHz, abar = 1e175 m/s^2 puts beta near 1e165; beta^2 overflowed
        # as an OverflowError that the CLI did not catch.
        with pytest.raises(ValueError, match="past the SA range"):
            solve_acceleration_parameter(TrajectoryKind.SA, 1e175, TWO_PI * 1e9, V)

    @pytest.mark.parametrize("abar", [1e25, 1e30])
    def test_sa_solve_at_large_beta_matches_a_40_digit_root(self, abar):
        # beta = 1.4e10 and 1.4e15 at 1 MHz, where seven fixed AGM steps left
        # A 3.2e-11 and 1.1e-7 off.
        mpmath = pytest.importorskip("mpmath")
        wd = TWO_PI * 1e6
        A = solve_acceleration_parameter(TrajectoryKind.SA, abar, wd, V)
        with mpmath.workdps(40):
            def excess(ratio):  # abar(A) / abar - 1 at A = ratio * abar
                b = 2 * ratio * abar / (mpmath.mpf(V) * wd)
                return V * wd * mpmath.asinh(b) / mpmath.ellipk(-(b**2)) / abar - 1

            want = mpmath.findroot(excess, mpmath.mpf(A) / abar) * abar
            assert abs(float(A / want - 1)) <= 1e-13

    @pytest.mark.parametrize("kind", ["sm", "sa", "aua"])
    def test_infinite_target_rejected(self, kind):
        with pytest.raises(ValueError, match="abar_target must be positive and finite"):
            solve_acceleration_parameter(TrajectoryKind(kind), math.inf, TWO_PI * 14.6e9, V)

    def test_sm_unreachable_target_raises(self):
        # the subluminal margin caps atanh(x); far beyond it must fail loudly
        with pytest.raises(ValueError, match="ceiling"):
            solve_acceleration_parameter(TrajectoryKind.SM, 1e25, TWO_PI * 1e9, V)

    @given(
        kind=st.sampled_from([TrajectoryKind.SA, TrajectoryKind.SM]),
        target=st.floats(1e17, 3e19),
        fd=st.floats(8e9, 35e9),
    )
    def test_monotone_inversion_property(self, kind, target, fd):
        wd = TWO_PI * fd
        A = solve_acceleration_parameter(kind, target, wd, V)
        p = TrajectoryParams(kind, A, wd, V)
        assert average_acceleration(p) == pytest.approx(target, rel=1e-8)

    @given(
        log_A=st.floats(3.0, 25.0),
        log_fd=st.floats(6.0, 12.0),
    )
    def test_sa_average_over_A_lies_between_4_over_pi_and_2(self, log_A, log_fd):
        # The SA solve brackets A by [abar/2.05, abar] on this invariant.
        # beta spans 3e-18 to 3e10; as beta -> 0 the ratio reaches 4/pi to
        # round-off.
        A = 10.0**log_A
        ratio = average_acceleration(params("sa", A, 10.0**log_fd)) / A
        assert 4.0 / math.pi * (1.0 - 8.0 * np.finfo(float).eps) < ratio < 2.0


class TestLimitsAndEstimators:
    def test_sa_reduces_to_sm_at_low_acceleration(self):
        wd = TWO_PI * 12e9
        alpha = 1e-3 * V * wd
        sa = TrajectoryParams(TrajectoryKind.SA, alpha, wd, V)
        sm = TrajectoryParams(TrajectoryKind.SM, 2.0 * alpha, wd, V)  # R = 2a/w^2
        t = np.linspace(0.0, coordinate_period(sa), 512)
        z_sa = position(sa, t)
        z_sm = position(sm, t)
        amp = float(np.max(np.abs(z_sm)))
        assert np.max(np.abs(z_sa - z_sm)) < 1e-3 * amp

    def test_relativity_estimator_baseline(self, sm_baseline):
        assert relativity_estimator(sm_baseline) == pytest.approx(0.419, rel=0.01)

    def test_relativity_estimator_small_acceleration(self):
        p = params("aua", 1e6, 10e9)
        assert relativity_estimator(p) < 1e-9

    def test_relativity_estimator_aua_comparison(self, aua_comparison):
        # direct arithmetic: abar * t_p / v = 2e19 * (1/14.6GHz) / 0.4c
        expected = 20e18 * (1.0 / 14.6e9) / V
        assert relativity_estimator(aua_comparison) == pytest.approx(expected, rel=1e-12)
        assert relativity_estimator(aua_comparison) == pytest.approx(11.42, rel=1e-3)


def _aua_trapezoid_a1(A, omega_d, v, samples):
    """a_1 of the centered AUA worldline by the full-period trapezoid rule,
    from samples of the raw position computed with 40 significant digits
    (the float `position` loses digits to the centering of slow
    worldlines)."""
    with localcontext() as ctx:
        ctx.prec = 40
        pi = Decimal("3.141592653589793238462643383279502884197")
        A, w, v = Decimal(A), Decimal(omega_d), Decimal(v)
        period = 2 * pi / w
        s = A * pi / (2 * v * w)
        mean = (v * v / A) * (1 + s * s).sqrt()
        total = Decimal(0)
        for k in range(samples):
            t = k * period / samples
            n = int((2 * t / period + Decimal("0.5")).to_integral_value(rounding="ROUND_FLOOR"))
            xi = A * t / v - 2 * n * s
            sign = 1 if n % 2 == 0 else -1
            raw = sign * (v * v / A) * ((1 + xi * xi).sqrt() + (sign - 1) * (1 + s * s).sqrt())
            total += (raw - mean) * Decimal(math.cos(TWO_PI * k / samples))
        return float(2 * total / samples)


class TestGridKernels:
    """The array kernels of whole-grid sweeps against the scalar APIs."""

    @pytest.mark.parametrize("kind", list(TrajectoryKind))
    def test_grid_harmonics_match_the_dense_projection(self, kind):
        # Odd a_n within a few ulps of max|a_n| of the dense projection: both
        # are rounded sums of 1025 or 4096 terms, and against a 40-digit
        # trapezoid the grid's a_n are off by up to 1.8e-15 max|a_n| (SM at
        # 1e17 m/s^2, 14.6 GHz), so the bound is 4e-15, not 1e-15. The
        # sine and even cosine coefficients vanish by symmetry.
        omega_d = TWO_PI * 14.6e9
        A = np.array([
            solve_acceleration_parameter(kind, abar, omega_d, V)
            for abar in np.linspace(5e18, 30e18, 6)
        ])
        a, peaks = _grid_harmonics(kind, A, np.full(A.size, omega_d), V, 6)
        assert a.shape == (A.size, 6) and np.all(a[:, 1::2] == 0.0)
        for row, peak, A_i in zip(a, peaks, A):
            p = TrajectoryParams(kind, A_i, omega_d, V)
            dense_a, dense_b = fourier_decompose(
                position(p, np.arange(4096) * ((2.0 * np.pi / omega_d) / 4096)), omega_d, 6
            )
            scale = float(np.max(np.abs(dense_a)))
            np.testing.assert_allclose(row[::2], dense_a[::2], rtol=0, atol=4e-15 * scale)
            assert np.max(np.abs(dense_b)) <= 1e-15 * scale
            assert np.max(np.abs(dense_a[1::2])) <= 1e-15 * scale
            z = position(p, np.arange(4096) * (coordinate_period(p) / 4096))
            assert peak == pytest.approx(float(np.max(np.abs(z))), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("n_max", range(1, 7))
    @pytest.mark.parametrize("kind", list(TrajectoryKind))
    def test_grid_harmonics_match_the_per_row_kernel(self, kind, n_max):
        # The shared phase table against each worldline sampled on its own
        # times: odd a_n within 4e-15 max|a_n| (both are rounded sums of 1025
        # terms), max|z| within 1e-15. The grid spans abar 1e16-8e19 m/s^2 and
        # f_d 2-40 GHz, with slow AUA at 1e16 m/s^2 and 18 GHz; SM worldlines
        # past the light speed are left out.
        f_d = np.append(np.geomspace(2e9, 40e9, 5), 18e9)
        abar, f_d = np.meshgrid(np.geomspace(1e16, 8e19, 9), f_d)
        A = _grid_acceleration_parameter(kind, abar.ravel(), TWO_PI * f_d.ravel(), V)
        keep = np.isfinite(A)
        A, omega_d = A[keep], TWO_PI * f_d.ravel()[keep]
        assert A.size >= (30 if kind is TrajectoryKind.SM else 54)
        a, peaks = _grid_harmonics(kind, A, omega_d, V, n_max)
        want_a, want_peaks = grid_harmonics_per_row(kind, A, omega_d, V, n_max)
        assert a.shape == want_a.shape and np.all(a[:, 1::2] == 0.0)
        scale = np.max(np.abs(want_a), axis=1, keepdims=True)
        assert np.all(np.abs(a - want_a) <= 4e-15 * scale)
        np.testing.assert_allclose(peaks, want_peaks, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("kind", list(TrajectoryKind))
    def test_a_rows_harmonics_depend_on_that_row_alone(self, kind):
        # A scalar bias (one row, n_max = 1) and a sweep's (16-row blocks,
        # any n_max) must agree exactly, whatever table an earlier call kept.
        omega_d = TWO_PI * 14.6e9
        A = _grid_acceleration_parameter(kind, np.linspace(5e18, 30e18, 9), omega_d, V)
        wide, wide_peaks = _grid_harmonics(kind, A, np.full(A.size, omega_d), V, 12)
        for i in range(A.size):
            for n_max in (1, 3, 6):
                a, peak = _grid_harmonics(kind, A[i : i + 1], [omega_d], V, n_max)
                assert np.array_equal(a[0], wide[i, :n_max]) and peak[0] == wide_peaks[i]

    def test_the_kept_phase_table_stays_bounded(self):
        _grid_harmonics("sa", [1e19], [TWO_PI * 14.6e9], V, 6)
        _grid_harmonics("sa", [1e19], [TWO_PI * 14.6e9], V, 1001)
        assert trajectories._phase[2].shape[0] <= 4096 // 16

    def test_slow_aua_harmonics_keep_their_digits(self):
        omega_d = TWO_PI * 18e9
        (a,), _ = _grid_harmonics("aua", [1e17], [omega_d], V, 1)
        want = _aua_trapezoid_a1(1e17, omega_d, V, 4096)
        # abs=0: pytest.approx's default 1e-12 absolute tolerance would
        # admit a relative error of 1e-7 at |z_1| ~ 1e-5 m.
        assert a[0] == pytest.approx(want, rel=1e-15, abs=0.0)
        # Bias normalization takes |z_1| from the same kernel.
        p = TrajectoryParams(TrajectoryKind.AUA, 1e17, omega_d, V)
        assert first_harmonic_amplitude(p) == pytest.approx(abs(want), rel=1e-15, abs=0.0)

    @staticmethod
    def inversion_grid(axis):
        """A grid of abar at 18 GHz, or of omega_d at abar = 2e19 m/s^2."""
        if axis == "abar":
            abar = np.linspace(1e17, 30e18, 201)
            return abar, np.full(abar.size, TWO_PI * 18e9)
        omega_d = TWO_PI * np.linspace(10e9, 30e9, 201)
        return np.full(omega_d.size, 2e19), omega_d

    @pytest.mark.parametrize(
        "kind, axis, rtol",
        [("sa", "abar", 1e-13), ("sa", "omega_d", 1e-13),
         ("sm", "abar", 1e-12), ("sm", "omega_d", 1e-12), ("aua", "abar", 0.0)],
    )
    def test_grid_inversion_matches_the_scalar_solver(self, kind, axis, rtol):
        # find_root's SM x-tolerance is absolute (1e-13), so SM differs by up to
        # 5.8e-13 where x = R omega_d / v is small.
        abar, omega_d = self.inversion_grid(axis)
        got = _grid_acceleration_parameter(kind, abar, omega_d, V)
        want = [solve_acceleration_parameter(kind, a, w, V) for a, w in zip(abar, omega_d)]
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0)

    def test_grid_inversion_marks_what_the_scalar_solver_rejects(self):
        omega_d = TWO_PI * 18e9
        abar = np.array([1e18, 2e20, -1.0, math.inf])
        got = _grid_acceleration_parameter("sm", abar, omega_d, V)
        assert np.isfinite(got[0]) and np.all(np.isnan(got[1:]))
        for bad in abar[1:]:
            with pytest.raises(ValueError):
                solve_acceleration_parameter("sm", float(bad), omega_d, V)

    @pytest.mark.parametrize("whole_bracket", [False, True])
    @pytest.mark.parametrize(
        "kind, axis", [("sa", "abar"), ("sa", "omega_d"), ("sm", "abar"), ("sm", "omega_d")]
    )
    def test_grid_inversion_matches_bisection_on_scipy_kernels(
        self, monkeypatch, kind, axis, whole_bracket
    ):
        # Within 4 ulp of bisecting the whole bracket with scipy's K and E.
        # Without Newton steps no window holds the root, and every point is
        # bisected over its whole bracket.
        if whole_bracket:
            monkeypatch.setattr(trajectories, "_NEWTON_STEPS", 0)
        abar, omega_d = self.inversion_grid(axis)
        got = _grid_acceleration_parameter(kind, abar, omega_d, V)
        want = grid_acceleration_parameter_bisected(kind, abar, omega_d, V)
        assert np.all(np.abs(got - want) <= 4.0 * np.spacing(want))

    def test_grid_inversion_takes_at_most_16_kernel_calls(self, monkeypatch, tmp_path):
        # One kernel call is one AGM pass over the grid (Newton steps, the
        # window check, bisection and SM's bracket check), on the presets'
        # sweep grids. Bisecting the whole bracket takes 52 or more.
        calls, per_inversion = [0], []
        agm, invert = trajectories._agm, experiments._grid_acceleration_parameter

        def counted_agm(*args):
            calls[0] += 1
            return agm(*args)

        def counted_invert(kind, *args):
            calls[0] = 0
            out = invert(kind, *args)
            per_inversion.append((TrajectoryKind(kind), calls[0]))
            return out

        monkeypatch.setattr(trajectories, "_agm", counted_agm)
        monkeypatch.setattr(experiments, "_grid_acceleration_parameter", counted_invert)
        for figure in ("fig5", "fig6", "fig8"):
            reproduce(figure, tmp_path)
        assert {kind for kind, _ in per_inversion} == set(TrajectoryKind)
        for kind, n in per_inversion:
            assert n <= (0 if kind is TrajectoryKind.AUA else 16), kind
