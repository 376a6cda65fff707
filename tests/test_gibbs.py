"""Reduced Hamiltonian, Bogoliubov frame and position representation."""

from dataclasses import fields

import mpmath
import numpy as np
import pytest

from qbm import (BranchAmbiguity, ModeList, Moments, SpectralConfig,
                 UnstableReducedPotential, ZeroTemperature, bogoliubov,
                 exact_point, extended_bose_einstein, fock_oracle,
                 matsubara_moments, moments_from_modes, moments_to_kernel,
                 oracle_moments, quasiparticle_occupation, reduced_hamiltonian,
                 reduced_partition)
from qbm.gibbs import ReducedHamiltonian

THERMAL = Moments(occupation=1 / (np.e - 1), squeezing=0.0)


def random_hamiltonians(count, seed=13):
    """Stable Hamiltonians with real pairings of both signs, |Delta| < 0.8 omega."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        omega = 0.6 + rng.random()
        delta = 0.8 * omega * (2 * rng.random() - 1)
        out.append(ReducedHamiltonian(omega=omega, pairing=delta))
    return out


# The total Hamiltonian is real in the position basis, so every route returns
# a real squeezing, a real kernel and a real pairing.
CONTINUUM = SpectralConfig(0.5, 20.0)
ONE_MODE = ModeList(frequencies=np.array([2.0]), couplings=np.array([0.3]))


def _continuum_hamiltonian():
    return reduced_hamiltonian(matsubara_moments(CONTINUUM, 1.0), 1.0)


@pytest.mark.parametrize("route", [
    lambda: matsubara_moments(CONTINUUM, 1.0),
    lambda: oracle_moments(ONE_MODE, 1.0, True),
    lambda: moments_from_modes(ONE_MODE, 1.0, True),
    lambda: fock_oracle(ONE_MODE, 1.0, 20, True, check_truncation=False).moments,
    lambda: extended_bose_einstein(_continuum_hamiltonian(), 2.0)],
    ids=["matsubara", "partial-trace", "normal-modes", "fock",
         "extended-bose-einstein"])
def test_squeezing_is_float(route):
    m = route()
    assert type(m.squeezing) is float
    kernel = moments_to_kernel(m)
    assert type(kernel.omega_s) is float and type(kernel.pi_s) is float


@pytest.mark.parametrize("temperature", [0.05, 1.0, 20.0])
def test_point_quantities_are_float(temperature):
    # the per-point layers compute on plain floats, never numpy scalars
    m = matsubara_moments(CONTINUUM, 1.0 / temperature)
    h = reduced_hamiltonian(m, temperature)
    frame = bogoliubov(h)
    thermal = extended_bose_einstein(h, 2 * temperature)
    point = exact_point(CONTINUUM, 2 * temperature, h)
    values = {"omega": h.omega, "pairing": h.pairing,
              "eigenfrequency": h.eigenfrequency, "mass_eff": h.mass_eff,
              "u": frame.u, "v": frame.v, "n": thermal.occupation,
              "s": thermal.squeezing, "z": reduced_partition(m),
              **{f.name: getattr(point, f.name) for f in fields(point)}}
    assert {k: type(v) for k, v in values.items()
            if type(v) is not float} == {}


class TestReducedHamiltonian:
    def test_thermal_gives_unit_frequency(self):
        h = reduced_hamiltonian(THERMAL, 1.0)
        assert h.omega == pytest.approx(1.0, rel=1e-12)
        assert h.pairing == 0

    @pytest.mark.parametrize("temperature", [0.1, 0.03, 0.01])
    def test_thermal_frequency_as_temperature_goes_to_zero(self, temperature):
        # n = 1/expm1(1/T) falls below the rounding of x - 1/2 near x = 1/2
        m = Moments(occupation=1 / np.expm1(1 / temperature), squeezing=0.0)
        h = reduced_hamiltonian(m, temperature)
        assert h.omega == pytest.approx(1.0, rel=1e-14)

    def test_zero_temperature_edge(self):
        with pytest.raises(ZeroTemperature):
            reduced_hamiltonian(Moments(occupation=0.0, squeezing=0.0), 1.0)

    def test_branch_ambiguity_surfaced(self):
        bad = Moments(occupation=0.1, squeezing=0.65)
        with pytest.raises(BranchAmbiguity):
            reduced_hamiltonian(bad, 1.0)

    def test_unstable_guard(self):
        with pytest.raises(UnstableReducedPotential):
            ReducedHamiltonian(omega=0.5, pairing=0.6)

    @pytest.mark.parametrize("gamma", [1e-4, 1e-2, 0.3, 1.0, 3.0])
    def test_matches_mpmath_at_both_temperature_ends(self, gamma):
        # L = ln((x + 1/2)/(x - 1/2)) cancels as x -> infinity (high T) and
        # x -> 1/2 (low T); the closed form must keep full relative accuracy
        # on the moments it is given
        with mpmath.workdps(50):
            for temp in (0.02, 0.05, 0.2, 1.0, 10.0, 1e3, 1e5):
                m = matsubara_moments(SpectralConfig(gamma, 20.0), 1.0 / temp)
                h = reduced_hamiltonian(m, temp)
                n, s = mpmath.mpf(m.occupation), mpmath.mpf(m.squeezing)
                x = mpmath.sqrt((n + 0.5)**2 - s**2)
                scale = mpmath.log((x + 0.5) / (x - 0.5)) / x * temp
                omega, pairing = (n + 0.5) * scale, -s * scale
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
        frame = bogoliubov(ReducedHamiltonian(omega=1.0, pairing=0.0))
        assert frame.u == 1.0 and frame.v == 0.0
        assert frame.eigenfrequency == 1.0

    def test_hand_evaluation(self):
        frame = bogoliubov(ReducedHamiltonian(omega=1.0, pairing=0.6))
        assert frame.eigenfrequency == pytest.approx(0.8, rel=1e-12)
        assert frame.u**2 - frame.v**2 == pytest.approx(1.0, abs=1e-12)

    def test_normalization_random(self):
        for h in random_hamiltonians(50):
            frame = bogoliubov(h)
            assert frame.u**2 - frame.v**2 == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("ratio", [1e-2, 1e-4, 1e-5, 1e-6, 1e-7])
    def test_normalization_weak_pairing(self, ratio):
        # omega - wbar = pairing^2 / (omega + wbar) is far below rounding
        # of omega here, so it must not be formed as a difference
        for omega in (0.3, 1.0, 7.0):
            for pairing in (ratio * omega, -ratio * omega):
                frame = bogoliubov(ReducedHamiltonian(omega=omega, pairing=pairing))
                assert abs(frame.u**2 - frame.v**2 - 1.0) <= 1e-12
                assert frame.u > 0
                assert frame.u * frame.v == pytest.approx(
                    pairing / (2 * frame.eigenfrequency), rel=1e-12)


class TestExtendedBoseEinstein:
    def test_plain_limit(self):
        m = extended_bose_einstein(ReducedHamiltonian(omega=1.0, pairing=0.0), 10.0)
        assert m.occupation == pytest.approx(1 / (np.exp(0.1) - 1), rel=1e-10)
        assert m.squeezing == 0

    def test_ground_state_squeezed_edge(self):
        h = ReducedHamiltonian(omega=1.0, pairing=0.6)
        m = extended_bose_einstein(h, 1e-8)
        assert m.occupation + 0.5 == pytest.approx(0.625, rel=1e-9)
        assert abs(m.squeezing) == pytest.approx(0.375, rel=1e-9)
        edge = m.occupation * (m.occupation + 1)
        assert m.squeezing**2 == pytest.approx(edge, rel=1e-6)

    def test_round_trip_with_reduced_hamiltonian(self):
        for temperature in (0.5, 2.0, 10.0):
            for gamma in (0.1, 0.5, 2.0):
                m = matsubara_moments(SpectralConfig(gamma, 20.0),
                                      1.0 / temperature)
                h = reduced_hamiltonian(m, temperature)
                back = extended_bose_einstein(h, temperature)
                assert back.occupation == pytest.approx(m.occupation, rel=1e-8)
                assert back.squeezing == pytest.approx(m.squeezing, rel=1e-8)


class TestQuasiparticleOccupation:
    def test_no_squeezing(self):
        m = Moments(occupation=9.50833, squeezing=0.0)
        assert quasiparticle_occupation(m) == pytest.approx(9.50833, rel=1e-12)

    def test_ground_state_hand_value(self):
        m = Moments(occupation=0.125, squeezing=0.375)
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
            quasiparticle_occupation(Moments(occupation=0.1, squeezing=0.7))


class TestPositionForm:
    def test_no_pairing(self):
        assert ReducedHamiltonian(omega=0.8, pairing=0.0).mass_eff == \
            pytest.approx(1.0 / 0.8, rel=1e-12)

    def test_diagonal_in_position_and_momentum(self):
        # H^R = (omega + Delta) X^2/2 + (omega - Delta) P^2/2 is already
        # diagonal: P^2/(2 M') + M' wbar^2 X^2/2 with M' = 1/(omega - Delta)
        hs = random_hamiltonians(40, seed=23)
        assert min(h.pairing for h in hs) < 0 < max(h.pairing for h in hs)
        for h in hs:
            assert h.mass_eff * h.eigenfrequency**2 == pytest.approx(
                h.omega + h.pairing, rel=1e-12)
