"""Thermodynamic observables of the reduced mode and their comparison modes.

The exact pipeline evaluates internal energy and heat capacity through the
renormalized eigenfrequency; the "incomplete" modes drop parts of the
pairing, and the "naive" pipeline differentiates ln(Z_tot/Z_E) of the
discretized model per normal mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .continuum import solve_moments
from .errors import InvalidGrid
from .finite import normal_mode_frequencies
from .gibbs import ReducedHamiltonian, extended_bose_einstein, reduced_hamiltonian
from .spectral import OMEGA_S, ModeList, SpectralConfig
from .state import Moments


@dataclass(frozen=True)
class ThermoPoint:
    """Exact-pipeline observables at one point (units: omega_S and k_B)."""

    temperature: float
    coupling: float
    internal_energy: float
    heat_capacity: float
    z_reduced: float


def internal_energy_hamiltonian(h: ReducedHamiltonian, m: Moments) -> float:
    """U_H = (1/2)[omega_r (2n + 1) + 2 Delta_r s]."""
    return float(0.5 * (h.omega * (2 * m.occupation + 1)
                        + 2 * h.pairing * m.squeezing))


def heat_capacity_exact(omega_bar: float, temperature: float) -> float:
    """C = [x csch x]^2 with x = wbar / 2T; monotone in T, bounded by 1."""
    if omega_bar <= 0 or temperature <= 0:
        raise InvalidGrid("omega_bar and temperature must be positive")
    x = omega_bar / (2 * temperature)
    if x > 350.0:
        return 0.0
    return (x / math.sinh(x))**2


def incomplete_frequency(mode: str, h: ReducedHamiltonian) -> float:
    """Frequency at which an "incomplete" mode evaluates the heat capacity.

    "drop-imaginary" replaces the eigenfrequency by
    sqrt(omega_r^2 - (Re Delta)^2), which for the real pairing is the
    eigenfrequency itself; "drop-pairing" by the bare omega_S.
    """
    if mode == "drop-imaginary":
        return h.eigenfrequency
    if mode == "drop-pairing":
        return OMEGA_S
    raise InvalidGrid(f"unknown incomplete mode {mode!r}")


def _mode_coth_sums(freqs: np.ndarray, betas: np.ndarray) -> np.ndarray:
    x = np.minimum(betas[:, None] * freqs / 2, 350.0)
    return np.sum(freqs / 2 / np.tanh(x), axis=1)


def _csch2(x: np.ndarray) -> np.ndarray:
    """[x csch x]^2 elementwise, and exactly 0 past x = 350."""
    return np.where(x <= 350.0, (x / np.sinh(np.minimum(x, 350.0)))**2, 0.0)


def _mode_csch2_sums(freqs: np.ndarray, betas: np.ndarray) -> np.ndarray:
    return np.sum(_csch2(betas[:, None] * freqs / 2), axis=1)


def naive_curves(modes: ModeList, betas,
                 counterterm: bool = False) -> tuple[list[float], list[float]]:
    """Naive U and C at each beta from one normal-mode decomposition.

    U comes from Z_S = Z_tot/Z_E as per-mode coth sums of system-plus-bath
    minus bath; C is its analytic temperature derivative.  Each sum is one
    (len(betas), modes) evaluation.
    """
    freqs = normal_mode_frequencies(modes, counterterm)
    bath = modes.frequencies
    betas = np.asarray(betas, dtype=float)
    energies = _mode_coth_sums(freqs, betas) - _mode_coth_sums(bath, betas)
    capacities = _mode_csch2_sums(freqs, betas) - _mode_csch2_sums(bath, betas)
    return energies.tolist(), capacities.tolist()


def exact_curves(h: ReducedHamiltonian, temperatures, frequency: float
                 ) -> tuple[np.ndarray, ...]:
    """U_H, U_Z, C at omega_bar, C at ``frequency`` and Z^R on a temperature grid.

    The grid form of the exact pipeline for one reduced Hamiltonian, with the
    formulas and cutoffs of the scalar functions: U_H from the extended
    Bose-Einstein moments, U_Z = (wbar/2) coth(wbar/2T) = -d ln Z_S^r/d beta,
    C = [x csch x]^2 with x = w/2T, exactly 0 past x = 350, and
    Z^R = 1/(2 sinh(wbar/2T)), exactly 0 from x = 350 on.  Each is one numpy
    pass over the grid; when ``frequency`` is omega_bar the two capacities
    are one array.
    """
    temps = np.asarray(temperatures, dtype=float)
    wbar = h.eigenfrequency
    filling = 1.0 / np.expm1(np.minimum(1.0 / temps * wbar, 700.0)) + 0.5
    n = (h.omega / wbar) * filling - 0.5
    s = -(h.pairing / wbar) * filling
    energy_h = 0.5 * (h.omega * (2 * n + 1) + 2 * h.pairing * s)
    double_t = 2 * temps
    x = wbar / double_t
    energy_z = 0.5 * wbar / np.tanh(np.minimum(x, 350.0))
    sinh = np.sinh(np.minimum(x, 350.0))
    capacity = np.where(x <= 350.0, (x / sinh)**2, 0.0)
    z_reduced = np.where(x < 350.0, 0.5 / sinh, 0.0)
    return (energy_h, energy_z, capacity, capacity if frequency == wbar
            else _csch2(frequency / double_t), z_reduced)


def reduced_hamiltonian_at(cfg: SpectralConfig,
                           t_ref: float) -> ReducedHamiltonian:
    """Solve the continuum model at ``t_ref`` and extract (omega_r, Delta_r)."""
    moments = solve_moments(cfg, 1.0 / t_ref)
    return reduced_hamiltonian(moments, t_ref)


def exact_point(cfg: SpectralConfig, temperature: float,
                h: ReducedHamiltonian) -> ThermoPoint:
    """Exact-pipeline observables at one temperature.

    Uses the closed forms in the eigenfrequency of ``h``, typically extracted
    once at a reference temperature.
    """
    m = extended_bose_einstein(h, temperature)
    wbar = h.eigenfrequency
    u = internal_energy_hamiltonian(h, m)
    c = heat_capacity_exact(wbar, temperature)
    x = wbar / (2 * temperature)
    z = 0.5 / math.sinh(x) if x < 350.0 else 0.0
    return ThermoPoint(temperature=temperature, coupling=cfg.gamma,
                       internal_energy=u, heat_capacity=c, z_reduced=z)
