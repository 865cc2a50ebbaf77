import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mirror_dce.circuit import DriveSpectrum, effective_length
from mirror_dce.constants import HBAR, K_B
from mirror_dce.scattering import (
    ThermalInput,
    output_spectrum,
    reflection,
    thermal_occupation,
)
from oracles import scatter_amplitudes

TWO_PI = 2.0 * math.pi


def single_tone(c, omega_d, ratio=0.125):
    a0 = 2.0 * c.E_J0
    return DriveSpectrum(a0=a0, a=[ratio * a0], b=[0.0], omega_d=omega_d)


class TestThermalOccupation:
    def test_zero_temperature(self):
        assert thermal_occupation(TWO_PI * 5e9, 0.0) == 0.0

    def test_log_two_point(self):
        # hbar w = k_B T ln 2  ->  occupation exactly 1
        T = 0.05
        w = math.log(2.0) * K_B * T / HBAR
        assert thermal_occupation(w, T) == pytest.approx(1.0, rel=1e-12)

    def test_nine_gigahertz_at_fifty_millikelvin(self):
        assert thermal_occupation(TWO_PI * 9e9, 0.05) == pytest.approx(
            1.7715944914102955e-4, rel=1e-10, abs=0.0
        )

    def test_monotone_in_temperature(self):
        w = TWO_PI * 9e9
        values = [thermal_occupation(w, T) for T in (0.0, 0.01, 0.025, 0.05, 0.1)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            thermal_occupation(0.0, 0.05)

    def test_extreme_ratio_underflows_to_zero(self):
        assert thermal_occupation(1e15, 1e-6) == 0.0

    @pytest.mark.parametrize("T", [-0.01, math.nan, math.inf])
    def test_thermal_input_rejects_negative_and_non_finite(self, T):
        with pytest.raises(ValueError, match="finite and >= 0"):
            ThermalInput(T)


class TestReflection:
    def test_unit_modulus_across_six_decades(self):
        L = 0.44e-3
        v = 0.4 * 2.99792458e8
        w = TWO_PI * np.logspace(4, 11, 200)
        assert np.max(np.abs(np.abs(reflection(w, L, v)) - 1.0)) < 1e-14

    def test_low_frequency_limit(self):
        assert reflection(1e-6, 0.44e-3, 1e8) == pytest.approx(-1.0 + 0.0j, abs=1e-9)

    def test_phase_expansion_for_short_effective_length(self):
        v = 0.4 * 2.99792458e8
        L = 0.44e-3
        w = 1e-3 * v / L  # k L = 1e-3
        kl = w * L / v
        expected = math.pi - 2.0 * kl + 2.0 * kl**3 / 3.0
        assert abs(cmath.phase(reflection(w, L, v))) == pytest.approx(
            expected, abs=1e-12
        )


class TestScatterAmplitudes:
    def test_no_harmonics_gives_bare_reflection(self, reference_circuit):
        c = reference_circuit
        d = DriveSpectrum(a0=2.0 * c.E_J0, a=[0.0], b=[0.0], omega_d=TWO_PI * 18e9)
        amp = scatter_amplitudes(TWO_PI * 9e9, d, c)
        assert amp.conv == ()
        assert amp.r == reflection(TWO_PI * 9e9, effective_length(c), c.v)

    def test_degenerate_point_kills_down_and_conj(self, reference_circuit):
        d = single_tone(reference_circuit, TWO_PI * 18e9)
        amp = scatter_amplitudes(d.omega_d, d, reference_circuit)
        (entry,) = amp.conv
        assert entry.down == 0.0
        assert entry.conj == 0.0
        assert entry.up != 0.0

    def test_heaviside_structure(self, reference_circuit):
        d = single_tone(reference_circuit, TWO_PI * 18e9)
        below = scatter_amplitudes(0.4 * d.omega_d, d, reference_circuit).conv[0]
        above = scatter_amplitudes(1.6 * d.omega_d, d, reference_circuit).conv[0]
        assert below.conj != 0.0 and below.down == 0.0
        assert above.conj == 0.0 and above.down != 0.0

    def test_pair_creation_magnitude_single_tone(self, reference_circuit):
        c = reference_circuit
        d = single_tone(c, TWO_PI * 18e9)
        w = 0.35 * d.omega_d
        leff0 = effective_length(c)
        expected = (
            2.0 * leff0 / c.v * 0.125 * math.sqrt(w * (d.omega_d - w))
        )
        (entry,) = scatter_amplitudes(w, d, c).conv
        assert abs(entry.conj) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_up_conversion_does_not_touch_spectrum(self, reference_circuit):
        c = reference_circuit
        a0 = 2.0 * c.E_J0
        d = DriveSpectrum(
            a0=a0, a=[0.1 * a0], b=[0.05 * a0], omega_d=TWO_PI * 18e9
        )
        w = 0.6 * d.omega_d
        entry = scatter_amplitudes(w, d, c).conv[0]
        # n_out never references the up-conversion sideband
        assert output_spectrum(w, d, c) == pytest.approx(
            abs(entry.conj) ** 2, rel=1e-12, abs=0.0
        )


class TestOutputSpectrum:
    def test_cold_undriven_circuit_is_dark(self, reference_circuit):
        c = reference_circuit
        d = DriveSpectrum(a0=2.0 * c.E_J0, a=[0.0], b=[0.0], omega_d=TWO_PI * 18e9)
        w = np.linspace(0.1, 2.0, 64) * d.omega_d
        np.testing.assert_array_equal(output_spectrum(w, d, c), 0.0)

    def test_single_tone_peak_location_and_value(self, reference_circuit):
        c = reference_circuit
        d = single_tone(c, TWO_PI * 18e9)
        w = d.omega_d * np.arange(1, 400) / 400.0
        n = output_spectrum(w, d, c)
        assert np.argmax(n) == 199  # w = omega_d / 2
        delta_leff = effective_length(c) / 4.0
        assert n[199] == pytest.approx(
            (delta_leff * d.omega_d / (2.0 * c.v)) ** 2, rel=1e-9
        )

    def test_matches_pair_creation_amplitudes(self, reference_circuit):
        c = reference_circuit
        a0 = 2.0 * c.E_J0
        d = DriveSpectrum(
            a0=a0,
            a=[0.12 * a0, 0.0, 0.01 * a0],
            b=[0.0, 0.02 * a0, 0.004 * a0],
            omega_d=TWO_PI * 14.6e9,
        )
        for w in np.linspace(0.07, 2.93, 41) * d.omega_d:
            oracle = sum(
                abs(entry.conj) ** 2 for entry in scatter_amplitudes(w, d, c).conv
            )
            assert output_spectrum(w, d, c) == pytest.approx(oracle, rel=1e-9, abs=0.0)

    def test_symmetric_about_half_drive_frequency(self, reference_circuit):
        c = reference_circuit
        d = single_tone(c, TWO_PI * 18e9)
        delta = np.linspace(0.01, 0.45, 40) * d.omega_d
        left = output_spectrum(d.omega_d / 2.0 - delta, d, c)
        right = output_spectrum(d.omega_d / 2.0 + delta, d, c)
        np.testing.assert_allclose(left, right, rtol=1e-12)

    def test_thermal_floor_adds_monotonically(self, reference_circuit):
        c = reference_circuit
        d = single_tone(c, TWO_PI * 18e9)
        w = d.omega_d * np.arange(1, 120) / 60.0
        cold = output_spectrum(w, d, c, ThermalInput(0.0))
        warm = output_spectrum(w, d, c, ThermalInput(0.025))
        hot = output_spectrum(w, d, c, ThermalInput(0.05))
        assert np.all(warm > cold)
        assert np.all(hot > warm)

    def test_continuous_across_degenerate_point(self, reference_circuit):
        # the approach rate to the limit is ~ hbar*omega_d*eps/(2 k_B T)
        c = reference_circuit
        d = single_tone(c, TWO_PI * 18e9)
        th = ThermalInput(0.025)
        at = output_spectrum(d.omega_d, d, c, th)
        rate = HBAR * d.omega_d / (K_B * th.T)
        for eps in (1e-8, 1e-9, 1e-10):
            left = output_spectrum(d.omega_d * (1.0 - eps), d, c, th)
            right = output_spectrum(d.omega_d * (1.0 + eps), d, c, th)
            window = max(1e-12, 2.0 * rate * eps)
            assert left == pytest.approx(at, rel=window)
            assert right == pytest.approx(at, rel=window)
        # spec window: limits within 1e-6 relative on a fine enough grid
        assert output_spectrum(d.omega_d * (1.0 - 1e-8), d, c, th) == pytest.approx(
            at, rel=1e-6
        )

    @given(w_frac=st.floats(0.05, 2.8), T=st.floats(0.0, 0.08))
    def test_nonnegative(self, reference_circuit, w_frac, T):
        c = reference_circuit
        d = single_tone(c, TWO_PI * 14.6e9)
        assert output_spectrum(w_frac * d.omega_d, d, c, ThermalInput(T)) >= 0.0

    def test_rejects_nonpositive_frequency(self, reference_circuit):
        d = single_tone(reference_circuit, TWO_PI * 18e9)
        with pytest.raises(ValueError):
            output_spectrum(0.0, d, reference_circuit)

    def test_vectorized_equals_scalar_bitwise(self, reference_circuit):
        c = reference_circuit
        d = single_tone(c, TWO_PI * 18e9)
        th = ThermalInput(0.025)
        w = d.omega_d * np.linspace(0.08, 1.9, 37)
        batch = output_spectrum(w, d, c, th)
        for i, wi in enumerate(w):
            assert output_spectrum(float(wi), d, c, th) == batch[i]

