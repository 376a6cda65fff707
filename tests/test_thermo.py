"""Internal energies, heat capacities and the naive comparison pipeline."""

import math

import numpy as np
import pytest

from qbm import (InvalidGrid, SpectralConfig, discretize, exact_curves,
                 exact_point, extended_bose_einstein, heat_capacity_exact,
                 incomplete_frequency, internal_energy_hamiltonian,
                 naive_curves, reduced_hamiltonian_at)
from qbm.gibbs import ReducedHamiltonian
from qbm.spectral import OMEGA_S, ModeList

CFG = SpectralConfig(gamma=0.5, cutoff=20.0)


def _energy_z(omega_bar, temps):
    """U_Z of a pairing-free H^R with eigenfrequency omega_bar."""
    h = ReducedHamiltonian(omega=omega_bar, pairing=0.0)
    return exact_curves(h, temps, omega_bar)[1]


class TestInternalEnergy:
    def test_zero_point(self):
        h = ReducedHamiltonian(omega=0.9, pairing=0.0)
        m = extended_bose_einstein(h, 1e-9)
        assert internal_energy_hamiltonian(h, m) == pytest.approx(0.45, rel=1e-8)

    def test_hand_value(self):
        (u_z,) = _energy_z(1.0, [10.0])
        assert u_z == pytest.approx(0.5 / np.tanh(0.05), rel=1e-12)
        assert u_z == pytest.approx(10.00833, abs=5e-6)

    def test_equipartition(self):
        assert _energy_z(1.0, [1000.0])[0] == pytest.approx(1000.0, rel=1e-3)

    def test_derivative_mode_matches_closed_form(self):
        # U_Z = -d ln Z_S^r / d beta, with ln Z_S^r = ln[(1/2) csch(beta wbar/2)]
        def ln_z(beta):
            x = beta * 0.9 / 2
            return -x - np.log1p(-np.exp(-2 * x))

        temps = (0.3, 1.0, 7.0)
        for t, u_z in zip(temps, _energy_z(0.9, temps)):
            beta, step = 1 / t, 1e-5 / t
            deriv = -(ln_z(beta + step) - ln_z(beta - step)) / (2 * step)
            assert deriv == pytest.approx(u_z, rel=1e-6)

    def test_two_definitions_agree(self):
        for gamma in (0.1, 0.5, 1.0, 2.0, 3.0):
            cfg = SpectralConfig(gamma, 20.0)
            h = reduced_hamiltonian_at(cfg, 1.0)
            temps = (0.05, 0.2, 1.0, 5.0, 10.0)
            _, energies_z, _, _, _ = exact_curves(h, temps, h.eigenfrequency)
            for t, u_z in zip(temps, energies_z):
                m = extended_bose_einstein(h, t)
                u_h = internal_energy_hamiltonian(h, m)
                assert abs(u_h - u_z) / u_z < 1e-8


class TestHeatCapacity:
    def test_hand_value(self):
        assert heat_capacity_exact(1.0, 0.5) == pytest.approx(
            1.0 / np.sinh(1.0)**2, rel=1e-12)

    def test_bounds_and_monotonicity(self):
        temps = np.geomspace(0.05, 50, 80)
        vals = [heat_capacity_exact(1.0, t) for t in temps]
        assert all(0 < c < 1 for c in vals)
        assert np.all(np.diff(vals) > 0)

    def test_classical_plateau(self):
        assert 0.9999 <= heat_capacity_exact(1.0, 50.0) <= 1.0

    def test_low_temperature_asymptote(self):
        # at wbar/T = 12 the closed form sits within 5% of (wbar/T)^2 e^{-wbar/T}
        wbar, t = 1.0, 1.0 / 12.0
        exact = heat_capacity_exact(wbar, t)
        asymptote = (wbar / t)**2 * np.exp(-wbar / t)
        assert abs(exact - asymptote) / exact < 0.05


class TestIncompleteModes:
    def test_real_pairing_drop_imaginary_equals_exact(self):
        h = ReducedHamiltonian(omega=1.0, pairing=0.4)
        freq = incomplete_frequency("drop-imaginary", h)
        for t in (0.1, 1.0, 5.0):
            assert heat_capacity_exact(freq, t) == pytest.approx(
                heat_capacity_exact(h.eigenfrequency, t), rel=1e-12)

    def test_drop_pairing_uses_bare_frequency(self):
        h = ReducedHamiltonian(omega=0.8, pairing=0.3)
        freq = incomplete_frequency("drop-pairing", h)
        assert heat_capacity_exact(freq, 2.0) == pytest.approx(
            heat_capacity_exact(1.0, 2.0), rel=1e-12)

    def test_unknown_mode_raises(self):
        h = ReducedHamiltonian(omega=0.8, pairing=0.3)
        with pytest.raises(InvalidGrid, match="unknown incomplete mode 'exact'"):
            incomplete_frequency("exact", h)

    def test_weak_coupling_collapse(self):
        # both incomplete modes track the exact curve at gamma = 0.1 (absolute
        # scale 1% of the classical plateau; the relative measure blows up
        # where every capacity is exponentially small)
        h = reduced_hamiltonian_at(SpectralConfig(0.1, 20.0), 5.0)
        for t in np.geomspace(0.05, 3.0, 30):
            c_exact = heat_capacity_exact(h.eigenfrequency, t)
            for mode in ("drop-imaginary", "drop-pairing"):
                c_mode = heat_capacity_exact(incomplete_frequency(mode, h), t)
                assert abs(c_mode - c_exact) <= 0.01 * max(c_exact, 0.1)

    def test_strong_coupling_separation(self):
        h = reduced_hamiltonian_at(SpectralConfig(3.0, 20.0), 5.0)
        freq = incomplete_frequency("drop-pairing", h)
        deviations = []
        for t in np.geomspace(0.05, 0.5, 20):
            c_exact = heat_capacity_exact(h.eigenfrequency, t)
            c_drop = heat_capacity_exact(freq, t)
            if c_exact > 1e-6:
                deviations.append(abs(c_drop - c_exact) / c_exact)
        assert max(deviations) > 0.05


class TestExactCurves:
    """The grid evaluation against the scalar path, point by point."""

    TEMPS = (1e-3, 0.05, 1.0, 1e3)

    @pytest.mark.parametrize("gamma", [0.1, 1.0, 3.0])
    @pytest.mark.parametrize("mode", ["drop-imaginary", "drop-pairing"])
    def test_matches_scalar_path(self, gamma, mode):
        cfg = SpectralConfig(gamma, 20.0)
        h = reduced_hamiltonian_at(cfg, 5.0)
        wbar = h.eigenfrequency
        freq = wbar if mode == "drop-imaginary" else OMEGA_S
        curves = exact_curves(h, self.TEMPS, freq)
        for i, t in enumerate(self.TEMPS):
            u_h, u_z, c, c_freq, z = (float(col[i]) for col in curves)
            point = exact_point(cfg, t, h)
            scalar_u_h = internal_energy_hamiltonian(h, extended_bose_einstein(h, t))
            scalar_u_z = 0.5 * wbar / math.tanh(min(wbar / (2 * t), 350.0))
            for got, want in ((u_h, scalar_u_h), (u_h, point.internal_energy),
                              (u_z, scalar_u_z), (u_z, point.internal_energy),
                              (c, heat_capacity_exact(wbar, t)),
                              (c, point.heat_capacity),
                              (c_freq, heat_capacity_exact(
                                  incomplete_frequency(mode, h), t)),
                              (z, point.z_reduced)):
                assert got == pytest.approx(want, rel=1e-14, abs=0.0)
        # past x = w/2T = 350 the capacity and Z^R are exactly zero on both paths
        assert wbar / (2 * self.TEMPS[0]) > 350.0
        assert curves[2][0] == curves[3][0] == heat_capacity_exact(wbar, 1e-3) == 0.0
        assert curves[4][0] == exact_point(cfg, 1e-3, h).z_reduced == 0.0
        assert curves[1][0] == 0.5 * wbar / math.tanh(350.0)


class TestNaivePipeline:
    def test_decoupled_equals_single_oscillator(self):
        modes = ModeList(frequencies=np.array([2.0, 3.0]),
                         couplings=np.array([0.0, 0.0]))
        beta = 0.7
        (u,), (c,) = naive_curves(modes, [beta])
        x = beta / 2
        assert u == pytest.approx(0.5 / np.tanh(x), rel=1e-12)
        assert c == pytest.approx((x / np.sinh(x))**2, rel=1e-12)

    def test_derivative_consistency(self):
        modes = discretize(CFG, 200, 200.0)
        t = 0.4
        h = 1e-4 * t
        (u_plus, u_minus, _), (_, _, c) = naive_curves(
            modes, [1 / (t + h), 1 / (t - h), 1 / t], counterterm=True)
        assert c == pytest.approx((u_plus - u_minus) / (2 * h), rel=1e-5)

    def test_weak_coupling_close_to_exact_without_sign_change(self):
        cfg = SpectralConfig(0.1, 20.0)
        modes = discretize(cfg, 400, 200.0)
        h = reduced_hamiltonian_at(cfg, 1.0)
        diffs = []
        temps = np.geomspace(0.05, 3.0, 25)
        _, capacities = naive_curves(modes, 1 / temps, counterterm=True)
        for t, c_naive in zip(temps, capacities):
            c_exact = heat_capacity_exact(h.eigenfrequency, t)
            assert c_naive > 0
            diffs.append(abs(c_naive - c_exact))
        assert max(diffs) < 0.05

