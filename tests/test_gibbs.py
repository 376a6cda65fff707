"""Reduced Hamiltonian, Bogoliubov frame and position representation."""

import mpmath
import numpy as np
import pytest

from qbm import (BranchAmbiguity, Moments, SpectralConfig,
                 UnstableReducedPotential, ZeroTemperature, bogoliubov,
                 extended_bose_einstein, matsubara_moments, position_form,
                 quasiparticle_occupation, reduced_hamiltonian)
from qbm.gibbs import ReducedHamiltonian

THERMAL = Moments(occupation=1 / (np.e - 1), squeezing=0j)


def random_hamiltonians(count, seed=13):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        omega = 0.6 + rng.random()
        delta = (0.8 * omega * rng.random()
                 * np.exp(2j * np.pi * rng.random()))
        out.append(ReducedHamiltonian(omega=omega, pairing=delta))
    return out


class TestReducedHamiltonian:
    def test_thermal_gives_unit_frequency(self):
        h = reduced_hamiltonian(THERMAL, 1.0)
        assert h.omega == pytest.approx(1.0, rel=1e-12)
        assert h.pairing == 0

    @pytest.mark.parametrize("temperature", [0.1, 0.03, 0.01])
    def test_thermal_frequency_as_temperature_goes_to_zero(self, temperature):
        # n = 1/expm1(1/T) falls below the rounding of x - 1/2 near x = 1/2
        m = Moments(occupation=1 / np.expm1(1 / temperature), squeezing=0j)
        h = reduced_hamiltonian(m, temperature)
        assert h.omega == pytest.approx(1.0, rel=1e-14)

    def test_zero_temperature_edge(self):
        with pytest.raises(ZeroTemperature):
            reduced_hamiltonian(Moments(occupation=0.0, squeezing=0j), 1.0)

    def test_branch_ambiguity_surfaced(self):
        bad = Moments(occupation=0.1, squeezing=0.65 + 0j)
        with pytest.raises(BranchAmbiguity):
            reduced_hamiltonian(bad, 1.0)

    def test_unstable_guard(self):
        with pytest.raises(UnstableReducedPotential):
            ReducedHamiltonian(omega=0.5, pairing=0.6 + 0j)

    @pytest.mark.parametrize("gamma", [1e-4, 1e-2, 0.3, 1.0, 3.0])
    def test_matches_mpmath_at_both_temperature_ends(self, gamma):
        # L = ln((x + 1/2)/(x - 1/2)) cancels as x -> infinity (high T) and
        # x -> 1/2 (low T); the closed form must keep full relative accuracy
        # on the moments it is given
        with mpmath.workdps(50):
            for temp in (0.02, 0.05, 0.2, 1.0, 10.0, 1e3, 1e5):
                m = matsubara_moments(SpectralConfig(gamma, 20.0), 1.0 / temp)
                h = reduced_hamiltonian(m, temp)
                n, s = mpmath.mpf(m.occupation), mpmath.mpc(m.squeezing)
                x = mpmath.sqrt((n + 0.5)**2 - abs(s)**2)
                scale = mpmath.log((x + 0.5) / (x - 0.5)) / x * temp
                omega, pairing = (n + 0.5) * scale, -mpmath.conj(s) * scale
                assert abs(h.omega - omega) <= 1e-14 * omega
                assert abs(h.pairing - pairing) <= 1e-14 * abs(pairing)

    def test_coupling_trend_at_high_temperature(self):
        # stronger coupling lowers omega_r and raises |Delta_r|
        vals = []
        for gamma in (0.5, 1.5, 3.0):
            m = matsubara_moments(SpectralConfig(gamma, 20.0), 0.1)
            h = reduced_hamiltonian(m, 10.0)
            vals.append((h.omega, abs(h.pairing)))
        omegas, deltas = zip(*vals)
        assert omegas[0] > omegas[1] > omegas[2]
        assert deltas[0] < deltas[1] < deltas[2]


class TestBogoliubov:
    def test_declared_zero_pairing_limit(self):
        frame = bogoliubov(ReducedHamiltonian(omega=1.0, pairing=0j))
        assert frame.u == 1.0 and frame.v == 0.0
        assert frame.eigenfrequency == 1.0

    def test_hand_evaluation(self):
        frame = bogoliubov(ReducedHamiltonian(omega=1.0, pairing=0.6 + 0j))
        assert frame.eigenfrequency == pytest.approx(0.8, rel=1e-12)
        assert abs(frame.u)**2 - abs(frame.v)**2 == pytest.approx(1.0, abs=1e-12)

    def test_normalization_random(self):
        for h in random_hamiltonians(50):
            frame = bogoliubov(h)
            assert abs(frame.u)**2 - abs(frame.v)**2 == pytest.approx(1.0,
                                                                      abs=1e-10)

    @pytest.mark.parametrize("ratio", [1e-2, 1e-4, 1e-5, 1e-6, 1e-7])
    def test_normalization_weak_pairing(self, ratio):
        # omega - wbar = |pairing|^2 / (omega + wbar) is far below rounding
        # of omega here, so it must not be formed as a difference
        for omega in (0.3, 1.0, 7.0):
            pairing = ratio * omega * np.exp(0.4j)
            frame = bogoliubov(ReducedHamiltonian(omega=omega, pairing=pairing))
            assert abs(abs(frame.u)**2 - abs(frame.v)**2 - 1.0) <= 1e-12
            assert np.angle(frame.u) == pytest.approx(-0.4, abs=1e-12)

    def test_phase_covariance(self):
        # rotating the pairing phase rotates arg(u) oppositely, leaves the
        # moduli and the eigenfrequency unchanged, and preserves the
        # diagonalizing combination u* v = pairing / (2 wbar)
        h0 = ReducedHamiltonian(omega=1.0, pairing=0.4 + 0j)
        theta = 0.73
        h1 = ReducedHamiltonian(omega=1.0, pairing=h0.pairing * np.exp(1j * theta))
        f0, f1 = bogoliubov(h0), bogoliubov(h1)
        assert np.angle(f1.u) - np.angle(f0.u) == pytest.approx(-theta, rel=1e-10)
        assert abs(f1.u) == pytest.approx(abs(f0.u), rel=1e-12)
        assert abs(f1.v) == pytest.approx(abs(f0.v), rel=1e-12)
        assert f1.eigenfrequency == pytest.approx(f0.eigenfrequency, rel=1e-12)
        for h, f in ((h0, f0), (h1, f1)):
            assert np.conj(f.u) * f.v == pytest.approx(
                h.pairing / (2 * f.eigenfrequency), abs=1e-12)


class TestExtendedBoseEinstein:
    def test_plain_limit(self):
        m = extended_bose_einstein(ReducedHamiltonian(omega=1.0, pairing=0j), 10.0)
        assert m.occupation == pytest.approx(1 / (np.exp(0.1) - 1), rel=1e-10)
        assert m.squeezing == 0

    def test_ground_state_squeezed_edge(self):
        h = ReducedHamiltonian(omega=1.0, pairing=0.6 + 0j)
        m = extended_bose_einstein(h, 1e-8)
        assert m.occupation + 0.5 == pytest.approx(0.625, rel=1e-9)
        assert abs(m.squeezing) == pytest.approx(0.375, rel=1e-9)
        edge = m.occupation * (m.occupation + 1)
        assert abs(m.squeezing)**2 == pytest.approx(edge, rel=1e-6)

    def test_round_trip_with_reduced_hamiltonian(self):
        for temperature in (0.5, 2.0, 10.0):
            for gamma in (0.1, 0.5, 2.0):
                m = matsubara_moments(SpectralConfig(gamma, 20.0),
                                      1.0 / temperature)
                h = reduced_hamiltonian(m, temperature)
                back = extended_bose_einstein(h, temperature)
                assert back.occupation == pytest.approx(m.occupation, rel=1e-8)
                assert back.squeezing.real == pytest.approx(m.squeezing.real,
                                                            rel=1e-8)
                assert back.squeezing.imag == pytest.approx(m.squeezing.imag,
                                                            abs=1e-10)


class TestQuasiparticleOccupation:
    def test_no_squeezing(self):
        m = Moments(occupation=9.50833, squeezing=0j)
        assert quasiparticle_occupation(m) == pytest.approx(9.50833, rel=1e-12)

    def test_ground_state_hand_value(self):
        m = Moments(occupation=0.125, squeezing=0.375 + 0j)
        assert quasiparticle_occupation(m) == pytest.approx(0.0, abs=1e-12)

    def test_bose_consistency(self):
        for temperature in (1.0, 2.0, 10.0):
            m = matsubara_moments(SpectralConfig(0.5, 20.0), 1.0 / temperature)
            h = reduced_hamiltonian(m, temperature)
            family = extended_bose_einstein(h, temperature)
            n_c = quasiparticle_occupation(family)
            n_be = 1 / np.expm1(h.eigenfrequency / temperature)
            assert n_c == pytest.approx(n_be, abs=1e-10)

    def test_branch_guard(self):
        with pytest.raises(BranchAmbiguity):
            quasiparticle_occupation(Moments(occupation=0.1, squeezing=0.7 + 0j))


class TestPositionForm:
    def test_no_pairing(self):
        form = position_form(ReducedHamiltonian(omega=0.8, pairing=0j))
        assert form.mass_eff == pytest.approx(1.0 / 0.8, rel=1e-12)
        assert form.cross == 0.0
        assert form.harmonic == pytest.approx(0.64, rel=1e-12)

    def test_imaginary_pairing_coefficients(self):
        form = position_form(ReducedHamiltonian(omega=1.0, pairing=0.3j))
        assert form.cross == pytest.approx(0.3, rel=1e-12)
        assert form.harmonic == pytest.approx(1.0, rel=1e-12)
        assert form.mass_eff == pytest.approx(1.0, rel=1e-12)

    def test_eigenfrequency_matches_bogoliubov(self):
        for h in random_hamiltonians(40, seed=17):
            form = position_form(h)
            assert form.eigenfrequency == pytest.approx(h.eigenfrequency,
                                                        abs=1e-10)


class TestCoordinateTransform:
    def test_identity_limit(self):
        form = position_form(ReducedHamiltonian(omega=1.0, pairing=0j))
        np.testing.assert_allclose(form.transform, np.eye(2), atol=1e-14)

    def test_determinant_one(self):
        for h in random_hamiltonians(40, seed=19):
            form = position_form(h)
            assert np.linalg.det(form.transform) == pytest.approx(1.0, abs=1e-10)

    def test_diagonalizes_quadratic_form(self):
        for h in random_hamiltonians(40, seed=23):
            form = position_form(h)
            g = form.form_matrix()
            c_inv = np.linalg.inv(form.transform)
            g_bar = c_inv.T @ g @ c_inv
            target = np.diag([form.mass_eff * h.eigenfrequency**2,
                              1.0 / form.mass_eff])
            np.testing.assert_allclose(g_bar, target, atol=1e-10)
