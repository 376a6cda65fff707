"""High-temperature limits of the continuum solution, from closed asymptotics.

With the counterterm the bare potential stays omega_S = 1, and the quadrature
variances x2 = <X^2> = n + 1/2 + s and p2 = <P^2> = n + 1/2 - s approach the
classical value T with the quantum corrections

    x2 = T + 1/(12 T) + ...,    p2 = T + (1 + gamma cutoff)/(12 T) + ...,

where 1 + gamma cutoff = 1 + 4 lambda is the curvature of the total
potential along the system coordinate (the counterterm's stiffness 4 lambda).
The renormalized eigenfrequency then approaches 1 as
1 - omega_bar = gamma cutoff/(24 T^2) + ...  Each bound below is the next
order, a fraction of the leading term times cutoff/T (1/T^2 for x2), plus
the rounding of a difference of numbers of size T (or 1).
"""

import numpy as np
import pytest

from qbm import SpectralConfig, matsubara_moments, reduced_hamiltonian

EPS = np.finfo(float).eps
BATHS = [(0.5, 20.0), (0.1, 5.0), (2.0, 1.0), (1e-3, 100.0)]
TEMPERATURES = [1e3, 1e4, 1e5]


def _quadratures(gamma, cutoff, temperature):
    m = matsubara_moments(SpectralConfig(gamma, cutoff), 1.0 / temperature)
    n, s = m.occupation, m.squeezing
    return n + 0.5 + s, n + 0.5 - s, m


@pytest.mark.parametrize("gamma,cutoff", BATHS)
@pytest.mark.parametrize("temperature", TEMPERATURES)
class TestHighTemperature:
    def test_momentum_correction(self, gamma, cutoff, temperature):
        # reads 10.977 / 10.998 / 10.9997 at T = 1e3 / 1e4 / 1e5, gamma 0.5, cutoff 20
        _, p2, _ = _quadratures(gamma, cutoff, temperature)
        leading = 1 + gamma * cutoff
        got = 12 * temperature * (p2 - temperature)
        bound = 0.25 * leading * cutoff / temperature + 48 * EPS * temperature**2
        assert abs(got - leading) <= bound

    def test_position_correction(self, gamma, cutoff, temperature):
        x2, _, _ = _quadratures(gamma, cutoff, temperature)
        got = 12 * temperature * (x2 - temperature)
        assert abs(got - 1) <= 1 / temperature**2 + 48 * EPS * temperature**2

    def test_eigenfrequency_shift(self, gamma, cutoff, temperature):
        # reads 4.157e-7 against 4.167e-7 at T = 1e3, gamma 0.5, cutoff 20
        _, _, m = _quadratures(gamma, cutoff, temperature)
        shift = 1 - reduced_hamiltonian(m, temperature).eigenfrequency
        leading = gamma * cutoff / (24 * temperature**2)
        assert abs(shift - leading) <= (0.25 * leading * cutoff / temperature
                                        + 4 * EPS)
