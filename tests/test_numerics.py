import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special
from scipy.optimize import brentq

import mirror_dce
from mirror_dce.circuit import fourier_decompose
from mirror_dce.trajectories import ellip_e, ellip_f, find_root
from oracles import (
    ConvergenceError,
    Quadrature,
    ellip_e_imag_modulus,
    ellip_e_quad,
    ellip_f_imag_modulus,
    ellip_f_quad,
    integrate,
)


class TestEllipticIntegrals:
    def test_second_kind_zero_parameter_identities(self):
        assert ellip_e(math.pi / 2, 0.0) == pytest.approx(math.pi / 2, rel=1e-14, abs=0.0)
        assert ellip_e(0.7, 0.0) == pytest.approx(0.7, rel=1e-14, abs=0.0)

    def test_first_kind_zero_parameter_and_empty_interval(self):
        assert ellip_f(math.pi / 2, 0.0) == pytest.approx(math.pi / 2, rel=1e-14, abs=0.0)
        assert ellip_f(0.0, -3.7) == 0.0
        assert ellip_f(0.0, 0.42) == 0.0

    def test_complete_second_kind_half_parameter(self):
        # frozen from the quadrature oracle
        assert ellip_e(math.pi / 2, 0.5) == pytest.approx(1.3506438810476755, rel=1e-12)
        assert ellip_e_quad(math.pi / 2, 0.5) == pytest.approx(
            1.3506438810476755, rel=1e-10
        )

    def test_complete_first_kind_negative_parameter(self):
        assert ellip_f(math.pi / 2, -1.0) == pytest.approx(1.3110287771460596, rel=1e-12)
        assert ellip_f_quad(math.pi / 2, -1.0) == pytest.approx(
            1.3110287771460596, rel=1e-10
        )

    @pytest.mark.parametrize("m", [-10.0, -1.0, 0.0, 0.5, 0.99])
    @pytest.mark.parametrize("phi", [0.05, 0.4, 1.0, math.pi / 2])
    def test_agree_with_defining_integral(self, phi, m):
        assert ellip_e(phi, m) == pytest.approx(ellip_e_quad(phi, m), rel=1e-9)
        assert ellip_f(phi, m) == pytest.approx(ellip_f_quad(phi, m), rel=1e-9)

    @pytest.mark.parametrize("mu", [0.25, 1.0, 6.22671, 25.0])
    @pytest.mark.parametrize("phi", [0.3, 1.1, math.pi / 2])
    def test_negative_parameter_routes_agree(self, phi, mu):
        # native negative-m evaluation vs the imaginary-modulus
        # transformation vs direct quadrature
        f_native = ellip_f(phi, -mu)
        e_native = ellip_e(phi, -mu)
        assert f_native == pytest.approx(ellip_f_imag_modulus(phi, mu), rel=1e-12, abs=0.0)
        assert e_native == pytest.approx(ellip_e_imag_modulus(phi, mu), rel=1e-12, abs=0.0)
        assert f_native == pytest.approx(ellip_f_quad(phi, -mu), rel=1e-9)
        assert e_native == pytest.approx(ellip_e_quad(phi, -mu), rel=1e-9)

    @given(
        phi=st.floats(0.01, math.pi / 2),
        m=st.floats(-8.0, 0.999),
    )
    def test_ordering_against_arc_length(self, phi, m):
        # F stretches the angle for m > 0 and shrinks it for m < 0; E reversed
        # (allow ulp-level slack: at |m| ~ 1e-16 the difference underflows).
        slack = 1e-12 * phi
        if m > 0.0:
            assert ellip_f(phi, m) >= phi - slack
            assert ellip_e(phi, m) <= phi + slack
        elif m < 0.0:
            assert ellip_f(phi, m) <= phi + slack
            assert ellip_e(phi, m) >= phi - slack

    @pytest.mark.parametrize("m", [-2.5, 0.6])
    @pytest.mark.parametrize("phi", [0.3, 2.0, 5.0])
    def test_periodic_extension(self, phi, m):
        assert ellip_e(phi + math.pi, m) == pytest.approx(
            ellip_e(phi, m) + 2.0 * ellip_e(math.pi / 2, m), rel=1e-12
        )
        assert ellip_f(phi + math.pi, m) == pytest.approx(
            ellip_f(phi, m) + 2.0 * ellip_f(math.pi / 2, m), rel=1e-12
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="domain"):
            ellip_e(math.pi / 2, 1.5)
        with pytest.raises(ValueError, match="domain"):
            ellip_f(math.pi / 2, 1.0)  # singular endpoint
        with pytest.raises(ValueError, match="domain"):
            ellip_f(1.0, 2.0)
        with pytest.raises(ValueError, match="domain"):
            ellip_f(math.pi / 2 - 1e-9, 1.0)  # sin^2 rounds to 1
        assert math.isfinite(ellip_f(1.2, 1.0))
        assert ellip_e(math.pi / 2, 1.0) == 1.0

    @pytest.mark.parametrize(
        "phi, m", [(math.pi / 2, 0.64), (2.0 * math.pi, -3.0), (0.7, 1.5), (-0.4, 0.3)]
    )
    def test_scalar_and_array_paths_agree(self, phi, m):
        # (0.7, 1.5) keeps m sin^2(phi) < 1, but m > 1 lies outside the
        # supported domain: there the two paths must raise the same error.
        for fn in (ellip_e, ellip_f):
            if m > 1.0:
                with pytest.raises(ValueError) as scalar:
                    fn(phi, m)
                with pytest.raises(ValueError) as array:
                    fn(np.array(phi), np.array(m))
                assert str(scalar.value) == str(array.value)
            else:
                assert fn(phi, m) == fn(np.array(phi), np.array(m))[()]

    def test_scalar_and_array_domain_errors_agree(self):
        # The last two cases keep m sin^2(theta) < 1, but any m > 1 is
        # outside the supported domain: an error, never scipy's NaN.
        for fn, phi, m in (
            (ellip_e, math.pi / 2, 1.5), (ellip_f, 1.2, 1.25),
            (ellip_e, 0.7, 1.5), (ellip_f, 0.3, 2.0),
            (ellip_f, math.pi / 2 - 1e-9, 1.0),
        ):
            with pytest.raises(ValueError) as scalar:
                fn(phi, m)
            with pytest.raises(ValueError) as array:
                fn(np.array([phi]), np.array([m]))
            assert str(scalar.value) == str(array.value)
        with pytest.raises(ValueError, match=r"^elliptic parameter m = 2 lies outside"):
            ellip_f(np.array([0.3, 0.3]), np.array([0.5, 2.0]))
        assert np.all(np.isfinite(ellip_f(np.array([1.2, 0.3]), np.array([1.0, 1.0]))))
        assert ellip_e(np.array([math.pi / 2]), np.array([1.0]))[0] == 1.0

    @pytest.mark.parametrize(
        "fn, oracle", [(ellip_e, special.ellipeinc), (ellip_f, special.ellipkinc)]
    )
    def test_match_scipy_over_the_worldlines_parameter_range(self, fn, oracle):
        # m spans the SA parameters -beta^2 down to -1e6 and the SM x^2 up to
        # 1 - 1e-8; phi covers two periods each way. Near m = 1 the AGM's E
        # cancels, so the bound there is looser.
        rng = np.random.default_rng(19)
        m = np.concatenate([
            -np.geomspace(1e6, 1e-8, 20000),
            rng.uniform(-1.0, 0.99, 20000),
            1.0 - np.geomspace(1e-2, 1e-8, 20000),
        ])
        phi = rng.uniform(-4.0 * np.pi, 4.0 * np.pi, m.size)
        want = oracle(phi, m)
        got = fn(phi, m)
        rel = np.abs(got / want - 1.0)
        assert np.max(rel[m <= 0.99]) <= 5e-15
        assert np.max(rel[m > 0.99]) <= 2e-14
        # Scalars take the array path and come back as Python floats.
        for i in rng.choice(m.size, 300, replace=False).tolist():
            scalar = fn(float(phi[i]), float(m[i]))
            assert type(scalar) is float and scalar == got[i]
            assert abs(scalar / want[i] - 1.0) <= (5e-15 if m[i] <= 0.99 else 2e-14)

    @pytest.mark.parametrize("n_half", [-4, -1, 1, 2, 4])
    def test_whole_half_periods_take_the_complete_values(self, n_half):
        # phi = n pi/2 gives n complete integrals from the AGM. The oracle is
        # scipy's complete ellipe/ellipk: its ellipkinc(pi/2, 1 - 1e-8) is
        # 5.8e-14 off an mpmath value, the AGM's 2e-16.
        m = np.concatenate([-np.geomspace(1e6, 1e-8, 200), np.linspace(0.0, 1.0 - 1e-8, 200)])
        phi = n_half * (np.pi / 2.0)
        for fn, oracle in ((ellip_e, special.ellipe), (ellip_f, special.ellipk)):
            rel = np.abs(fn(phi, m) / (n_half * oracle(m)) - 1.0)
            assert np.max(rel[m <= 0.99]) <= 5e-15 and np.max(rel) <= 2e-14
            for mi in m[::37].tolist():
                assert fn(phi, mi) == fn(np.array([phi]), np.array([mi]))[0]

    def test_nan_in_nan_out(self):
        for fn in (ellip_e, ellip_f):
            assert math.isnan(fn(math.nan, 0.5)) and math.isnan(fn(0.3, math.nan))
            got = fn(np.array([math.nan, 0.3, 0.3]), np.array([0.5, math.nan, 0.5]))
            assert np.isnan(got[:2]).all() and np.isfinite(got[2])


class TestIntegrate:
    def test_sine_over_half_period(self):
        assert integrate(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-10)

    def test_zero_integrand(self):
        assert integrate(lambda t: 0.0, 0.0, 1.0) == 0.0

    def test_cosine_squared_full_period(self):
        val = integrate(lambda t: math.cos(t) ** 2, 0.0, 2.0 * math.pi)
        assert val == pytest.approx(math.pi, abs=1e-10)

    def test_empty_interval(self):
        assert integrate(math.exp, 1.0, 1.0) == 0.0

    def test_kinked_integrand(self):
        val = integrate(lambda t: abs(math.cos(t)), 0.0, 2.0 * math.pi)
        assert val == pytest.approx(4.0, rel=1e-10)

    def test_non_convergence_raises(self):
        q = Quadrature(abs_tol=1e-14, max_subdivisions=3)
        with pytest.raises(ConvergenceError):
            integrate(lambda t: math.sin(40.0 * t) ** 2, 0.0, 10.0, q)

    def test_non_finite_integrand_raises(self):
        with pytest.raises(ValueError, match="finite"):
            integrate(lambda t: math.inf if t == 0.0 else 1.0 / t, 0.0, 1.0)

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            Quadrature(abs_tol=0.0)
        with pytest.raises(ValueError):
            Quadrature(max_subdivisions=0)

    @given(st.floats(0.1, 3.0), st.floats(-2.0, 2.0))
    def test_exponential_antiderivative(self, width, a):
        val = integrate(math.exp, a, a + width)
        assert val == pytest.approx(math.exp(a + width) - math.exp(a), rel=1e-10)


class TestFindRoot:
    def test_quadratic(self):
        assert find_root(lambda x: x * x - 4.0, 0.0, 10.0) == pytest.approx(2.0, abs=1e-10)

    def test_identity(self):
        assert find_root(lambda x: x, -1.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_cosine_fixed_point(self):
        # oracle: iterate cos to its fixed point
        x = 0.5
        for _ in range(200):
            x = math.cos(x)
        root = find_root(lambda t: math.cos(t) - t, 0.0, 1.0)
        assert root == pytest.approx(x, abs=1e-10)
        assert root == pytest.approx(0.7390851332151607, abs=1e-10)

    def test_no_sign_change_raises(self):
        with pytest.raises(ValueError, match="sign change"):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)
        # f(lo) * f(hi) underflows to 0 here; the signs still agree
        with pytest.raises(ValueError, match="sign change"):
            find_root(lambda x: 1e-200, 0.0, 1.0)

    def test_bad_bracket_raises(self):
        with pytest.raises(ValueError, match="bracket"):
            find_root(lambda x: x, 1.0, -1.0)

    def test_endpoint_roots(self):
        assert find_root(lambda x: x - 1.0, 1.0, 2.0) == 1.0
        assert find_root(lambda x: x - 2.0, 1.0, 2.0) == 2.0

    @given(
        root=st.floats(-5.0, 5.0),
        scale=st.floats(0.01, 100.0),
        cubic=st.booleans(),
    )
    def test_invariant_under_monotone_rescaling(self, root, scale, cubic):
        def f(x):
            y = x - root
            return scale * (y**3 + y) if cubic else scale * y

        found = find_root(f, root - 3.0, root + 4.0, tol=1e-12)
        assert found == pytest.approx(root, abs=1e-9 * max(1.0, abs(root)))

    @given(
        root=st.floats(-1e6, 1e6),
        left=st.floats(1e-3, 1e3),
        right=st.floats(1e-3, 1e3),
        shape=st.sampled_from(["cubic", "tanh", "exp", "sine"]),
        tol=st.sampled_from([1e-8, 1e-12, 1e-13]),
    )
    def test_matches_scipy_brentq_bit_for_bit(self, root, left, right, shape, tol):
        # The same float as scipy's brentq with find_root's tolerances, from
        # exactly brentq's evaluations (the end values are not redone). Each
        # g has the sign of y, so the one root is at x = root.
        g = {
            "cubic": lambda y: y**3 - 0.5 * y * abs(y) + 0.1 * y,
            "tanh": lambda y: math.tanh(0.3 * y) - 0.1 * math.tanh(y),
            "exp": lambda y: math.expm1(min(y, 50.0)),
            "sine": lambda y: y + 0.9 * math.sin(3.0 * y),
        }[shape]
        calls = [0]

        def f(x):
            calls[0] += 1
            return g(x - root)

        lo, hi = root - left, root + right
        found = find_root(f, lo, hi, tol=tol)
        expected, info = brentq(
            lambda x: g(x - root), lo, hi,
            xtol=tol * max(1.0, abs(lo), abs(hi)), rtol=max(tol, 4.0 * np.finfo(float).eps),
            maxiter=200, full_output=True,
        )
        assert found.hex() == expected.hex()
        assert calls[0] == info.function_calls

    def test_non_convergence_raises_like_brentq(self):
        # a step at 1e-200 bisected from [-1, 1] needs far more than 200 steps
        def step(x):
            return -1.0 if x < 1e-200 else 1.0

        with pytest.raises(RuntimeError, match="200 iterations"):
            find_root(step, -1.0, 1.0, tol=1e-300)
        with pytest.raises(RuntimeError):
            brentq(step, -1.0, 1.0, xtol=1e-300, maxiter=200)

    @pytest.mark.parametrize("at", ["lo", "hi", "interior"])
    def test_nan_value_raises(self, at):
        def f(x):
            nan = {"lo": x == -1.0, "hi": x == 2.0, "interior": -1.0 < x < 2.0}[at]
            return math.nan if nan else x

        with pytest.raises(ValueError, match="is NaN"):
            find_root(f, -1.0, 2.0)

    def test_non_positive_tol_raises(self):
        with pytest.raises(ValueError, match="tol"):
            find_root(lambda x: x, -1.0, 2.0, tol=0.0)

    def test_package_import_leaves_scipy_optimize_out(self):
        src = str(Path(mirror_dce.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "import sys, mirror_dce.cli, mirror_dce.experiments; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


class TestFourierDecompose:
    WD = 2.0 * math.pi * 3.0e9

    def grid(self, samples=4096):
        """The sample times fourier_decompose assumes: one period, uniform."""
        return np.arange(samples) * ((2.0 * np.pi / self.WD) / samples)

    def test_pure_cosine(self):
        z = np.cos(self.WD * self.grid())
        a, b = fourier_decompose(z, self.WD, n_max=4)
        assert a[0] == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(a[1:])) < 1e-10
        assert np.max(np.abs(b)) < 1e-10
        assert abs(2.0 * np.mean(z)) < 1e-10

    def test_pure_second_harmonic_sine(self):
        a, b = fourier_decompose(np.sin(2.0 * self.WD * self.grid()), self.WD, n_max=4)
        assert b[1] == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(a)) < 1e-10
        assert abs(b[0]) < 1e-10
        assert np.max(np.abs(b[2:])) < 1e-10

    def test_square_wave_classical_series(self):
        # sign(sin) with the jump samples snapped to 0 keeps the sampled
        # wave exactly odd; otherwise one misrounded sample leaks O(1/N)
        # cosine terms
        s = np.sin(self.WD * self.grid())
        a, b = fourier_decompose(np.sign(np.where(np.abs(s) < 1e-9, 0.0, s)), self.WD, n_max=7)
        for n in (1, 3, 5, 7):
            assert b[n - 1] == pytest.approx(4.0 / (math.pi * n), rel=1e-4)
        for n in (2, 4, 6):
            assert abs(b[n - 1]) < 1e-12
        assert np.max(np.abs(a)) < 1e-12

    def test_band_limited_reconstruction(self):
        rng = np.random.default_rng(7)
        a_in = rng.normal(size=5)
        b_in = rng.normal(size=5)

        def signal(t):
            out = 0.3 * np.ones_like(t)
            for n in range(1, 6):
                out = out + a_in[n - 1] * np.cos(n * self.WD * t)
                out = out + b_in[n - 1] * np.sin(n * self.WD * t)
            return out

        z = signal(self.grid())
        a, b = fourier_decompose(z, self.WD, n_max=5)
        a0 = 2.0 * float(np.mean(z))
        assert a0 == pytest.approx(0.6, abs=1e-10)
        np.testing.assert_allclose(a, a_in, atol=1e-10)
        np.testing.assert_allclose(b, b_in, atol=1e-10)

        t = np.linspace(0.0, 2.0 * math.pi / self.WD, 257)
        phase = np.multiply.outer(t, np.arange(1, 6)) * self.WD
        amplitude = float(np.max(np.abs(signal(t))))
        np.testing.assert_allclose(
            0.5 * a0 + np.cos(phase) @ a + np.sin(phase) @ b, signal(t),
            atol=1e-6 * amplitude,
        )

    def test_parseval_on_sample_grid(self):
        t = self.grid()
        z = 1.2 * np.cos(self.WD * t) - 0.4 * np.sin(3.0 * self.WD * t) + 0.1
        a, b = fourier_decompose(z, self.WD, n_max=5)
        a0 = 2.0 * float(np.mean(z))
        signal_power = float(np.mean(z**2))
        series_power = a0**2 / 4.0 + float(np.sum(a**2 + b**2)) / 2.0
        assert series_power == pytest.approx(signal_power, rel=1e-10)

    def test_samples_must_be_finite_and_1d(self):
        z = np.cos(self.WD * self.grid(64))
        with pytest.raises(ValueError, match="1-d"):
            fourier_decompose(z.reshape(8, 8), self.WD, n_max=2)
        with pytest.raises(ValueError, match="1-d"):
            fourier_decompose(1.0, self.WD, n_max=0)
        for bad in (np.nan, np.inf):
            z[5] = bad
            with pytest.raises(ValueError, match="non-finite"):
                fourier_decompose(z, self.WD, n_max=2)

    def test_sample_count_precondition(self):
        with pytest.raises(ValueError, match="samples"):
            fourier_decompose(np.zeros(32), self.WD, n_max=8)

    def test_no_harmonics_requested(self):
        z = np.full(4096, 2.0)
        a, b = fourier_decompose(z, self.WD, n_max=0)
        assert a.shape == b.shape == (0,)
        assert 2.0 * float(np.mean(z)) == pytest.approx(4.0)

    def test_coefficients_are_the_plain_projection(self):
        # The cos/sin projection, bit for bit: the fig2 coefficients, and
        # their round-off where symmetry makes them 0 (here every b_n),
        # depend on it.
        t = self.grid(512)
        z = np.exp(np.cos(self.WD * t))
        a, b = fourier_decompose(z, self.WD, n_max=3)
        phase = np.multiply.outer(np.arange(1, 4), t) * self.WD
        np.testing.assert_array_equal(a, 2.0 * (np.cos(phase) @ z) / 512)
        np.testing.assert_array_equal(b, 2.0 * (np.sin(phase) @ z) / 512)
