"""Reservoir spectral density, Bose occupation and bath discretization.

All frequencies are measured in units of the system frequency (omega_S = 1),
with hbar = k_B = 1.  The reservoir carries a Lorentz-Drude spectral density

    J(w) = gamma * w * wc^2 / (w^2 + wc^2),

where ``gamma`` is the dimensionless coupling strength and ``wc`` the cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# qbm itself integrates nothing with this module.  It stays imported because
# the benchmark's import probe (perfbench/run.py:import_seconds) fails when
# qbm does not import it; drop the line together with that requirement.
import scipy.integrate  # noqa: F401

from .errors import InvalidGrid

OMEGA_S = 1.0


@dataclass(frozen=True)
class SpectralConfig:
    """Bath parameters: coupling strength and Lorentz-Drude cutoff.

    ``counterterm`` keeps the static bath-induced stiffness shift compensated,
    so the uncoupled oscillator frequency stays at omega_S for every coupling.
    Without it the model loses its ground state once gamma*cutoff > omega_S.
    """

    gamma: float
    cutoff: float = 20.0
    counterterm: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise InvalidGrid(
                f"coupling strength must be finite and >= 0, got {self.gamma}")
        if not (math.isfinite(self.cutoff) and self.cutoff > 0):
            raise InvalidGrid(f"cutoff must be finite and > 0, got {self.cutoff}")


@dataclass(frozen=True)
class ModeList:
    """Finite bath discretization: strictly increasing frequencies and couplings."""

    frequencies: np.ndarray
    couplings: np.ndarray

    def __post_init__(self):
        freqs = np.asarray(self.frequencies, dtype=float)
        coups = np.asarray(self.couplings, dtype=float)
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "couplings", coups)
        if freqs.ndim != 1 or coups.shape != freqs.shape:
            raise InvalidGrid("frequencies and couplings must be 1-d and equal length")
        if len(freqs) == 0:
            raise InvalidGrid("mode list must not be empty")
        if np.any(freqs <= 0):
            raise InvalidGrid("mode frequencies must be positive")
        if np.any(np.diff(freqs) <= 0):
            raise InvalidGrid("mode frequencies must be strictly increasing")

    def __len__(self) -> int:
        return len(self.frequencies)

    @property
    def counterterm_strength(self) -> float:
        """Discrete counterterm sum(V_k^2 / w_k), exact for the mode list."""
        return float(np.sum(self.couplings**2 / self.frequencies))


def eval_spectral_density(cfg: SpectralConfig, omega):
    """Lorentz-Drude J(w); vectorized over ``omega >= 0``."""
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0):
        raise InvalidGrid("spectral density is defined for omega >= 0")
    out = cfg.gamma * w * cfg.cutoff**2 / (w**2 + cfg.cutoff**2)
    return out if out.ndim else float(out)


def bose_occupation(beta: float, omega):
    """1/(exp(beta*w) - 1), overflow-safe for large arguments."""
    x = np.asarray(beta * np.asarray(omega, dtype=float))
    with np.errstate(over="ignore", divide="ignore"):
        out = 1.0 / np.expm1(np.minimum(x, 700.0))
    return out if out.ndim else float(out)


def discretize(cfg: SpectralConfig, k_c: int, omega_max: float) -> ModeList:
    """Discretize the bath into k_c modes on (0, omega_max].

    Gauss-Legendre nodes/weights (w_k, dw_k) define couplings through
    V_k^2 = J(w_k) dw_k / 2pi; the sign of V_k is taken negative, matching
    the position-coupling convention (all observables depend on V_k^2).
    """
    if k_c < 1:
        raise InvalidGrid(f"k_c must be >= 1, got {k_c}")
    if omega_max <= 0:
        raise InvalidGrid(f"omega_max must be > 0, got {omega_max}")
    xs, ws = np.polynomial.legendre.leggauss(k_c)
    nodes = 0.5 * omega_max * (xs + 1.0)
    weights = 0.5 * omega_max * ws
    j = eval_spectral_density(cfg, nodes)
    couplings = -np.sqrt(j * weights / (2 * np.pi))
    return ModeList(frequencies=nodes, couplings=couplings)

