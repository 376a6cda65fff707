"""Thermodynamic observables of the reduced mode and their comparison modes.

The exact pipeline evaluates internal energy and heat capacity through the
renormalized eigenfrequency; the "incomplete" modes drop parts of the
pairing, and the "naive" pipeline differentiates ln(Z_tot/Z_E) of the
discretized model per normal mode.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .continuum import solve_moments
from .errors import InvalidGrid, QbmError, UnstableReducedPotential
from .finite import normal_mode_frequencies
from .gibbs import ReducedHamiltonian, extended_bose_einstein, reduced_hamiltonian
from .spectral import OMEGA_S, ModeList, SpectralConfig
from .state import Moments


@dataclass(frozen=True)
class ThermoPoint:
    """One point of a thermodynamic sweep (units: omega_S and k_B)."""

    temperature: float
    coupling: float
    internal_energy: float
    heat_capacity: float
    z_reduced: float
    error: str | None = None


def internal_energy_hamiltonian(h: ReducedHamiltonian, m: Moments) -> float:
    """U_H = (1/2)[omega_r (2n + 1) + 2 Re(Delta_r s)]."""
    return float(0.5 * (h.omega * (2 * m.occupation + 1)
                        + 2 * (h.pairing * m.squeezing).real))


def internal_energy_partition(omega_bar: float, temperature: float) -> float:
    """U_Z = (wbar/2) coth(wbar / 2T) = -d/d beta of ln Z_S^r."""
    if omega_bar <= 0 or temperature <= 0:
        raise InvalidGrid("omega_bar and temperature must be positive")
    x = omega_bar / (2 * temperature)
    return float(0.5 * omega_bar / np.tanh(min(x, 350.0)))


def heat_capacity_exact(omega_bar: float, temperature: float) -> float:
    """C = [x csch x]^2 with x = wbar / 2T; monotone in T, bounded by 1."""
    if omega_bar <= 0 or temperature <= 0:
        raise InvalidGrid("omega_bar and temperature must be positive")
    x = omega_bar / (2 * temperature)
    if x > 350.0:
        return 0.0
    return float((x / np.sinh(x))**2)


def heat_capacity_incomplete(mode: str, h: ReducedHamiltonian,
                             temperature: float) -> float:
    """Heat capacity with parts of the pairing discarded.

    "drop-imaginary" replaces the eigenfrequency by
    sqrt(omega_r^2 - (Re Delta)^2); "drop-pairing" by the bare omega_S.
    """
    if mode == "drop-imaginary":
        val = h.omega**2 - h.pairing.real**2
        if val <= 0:
            raise UnstableReducedPotential(
                "omega_r^2 - (Re Delta)^2 <= 0 in drop-imaginary mode")
        freq = float(np.sqrt(val))
    elif mode == "drop-pairing":
        freq = OMEGA_S
    else:
        raise InvalidGrid(f"unknown incomplete mode {mode!r}")
    return heat_capacity_exact(freq, temperature)


def _mode_coth_sums(freqs: np.ndarray, betas: np.ndarray) -> np.ndarray:
    x = np.minimum(betas[:, None] * freqs / 2, 350.0)
    return np.sum(freqs / 2 / np.tanh(x), axis=1)


def _mode_csch2_sums(freqs: np.ndarray, betas: np.ndarray) -> np.ndarray:
    x = betas[:, None] * freqs / 2
    mask = x < 350.0
    val = np.zeros_like(x)
    val[mask] = (x[mask] / np.sinh(x[mask]))**2
    return np.sum(val, axis=1)


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
    z = float(0.5 / np.sinh(min(x, 350.0))) if x < 350.0 else 0.0
    return ThermoPoint(temperature=temperature, coupling=cfg.gamma,
                       internal_energy=u, heat_capacity=c, z_reduced=z)


_PIPELINES = ("exact", "drop-imaginary", "drop-pairing", "naive")


def sweep(axis: str, grid, cfg: SpectralConfig, pipeline: str = "exact",
          t_ref: float = 5.0, fixed_temperature: float = 1.0,
          modes: ModeList | Sequence[ModeList] | None = None
          ) -> list[ThermoPoint]:
    """Evaluate a pipeline over a strictly increasing positive grid.

    ``axis`` is "temperature" or "coupling"; ``pipeline`` one of "exact",
    "drop-imaginary", "drop-pairing", "naive".  The naive pipeline needs the
    discretized bath: one ModeList on the temperature axis, or one ModeList
    per grid coupling (each discretized at that coupling) on the coupling
    axis.  Per-point failures are recorded on the returned points instead of
    aborting the sweep.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0:
        raise InvalidGrid("sweep grid must be a nonempty 1-d array")
    if np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
        raise InvalidGrid("sweep grid must be positive and strictly increasing")
    if axis not in ("temperature", "coupling"):
        raise InvalidGrid(f"unknown sweep axis {axis!r}")
    if pipeline not in _PIPELINES:
        raise InvalidGrid(f"unknown pipeline {pipeline!r}")

    # one (coupling, temperatures, naive bath) group per coupling
    if axis == "temperature":
        if pipeline == "naive" and not isinstance(modes, ModeList):
            raise InvalidGrid("naive temperature sweep requires a ModeList")
        groups = [(cfg.gamma, [float(t) for t in grid], modes)]
    else:
        if pipeline == "naive" and (modes is None or isinstance(modes, ModeList)
                                    or len(modes) != len(grid)):
            raise InvalidGrid("naive coupling sweep requires one ModeList per "
                              "coupling, discretized at that coupling")
        baths = modes if pipeline == "naive" else [None] * len(grid)
        groups = [(float(g), [fixed_temperature], b) for g, b in zip(grid, baths)]

    points: list[ThermoPoint] = []
    for coupling, temps, bath in groups:
        if pipeline == "naive":
            points += _naive_points(bath, temps, coupling, cfg.counterterm)
            continue
        point_cfg = replace(cfg, gamma=coupling)
        try:
            h = reduced_hamiltonian_at(point_cfg, t_ref)
        except QbmError as exc:  # flags every point of this coupling
            points += [_failed_point(t, coupling, exc) for t in temps]
            continue
        for temperature in temps:
            try:
                point = exact_point(point_cfg, temperature, h=h)
                if pipeline != "exact":
                    point = replace(point, heat_capacity=heat_capacity_incomplete(
                        pipeline, h, temperature))
            except QbmError as exc:  # collected per point, not fatal
                point = _failed_point(temperature, coupling, exc)
            points.append(point)
    return points


def _naive_points(modes: ModeList, temps: list[float], coupling: float,
                  counterterm: bool) -> list[ThermoPoint]:
    try:
        energies, capacities = naive_curves(modes, [1.0 / t for t in temps],
                                            counterterm)
    except QbmError as exc:  # one decomposition serves every point
        return [_failed_point(t, coupling, exc) for t in temps]
    return [ThermoPoint(temperature=t, coupling=coupling, internal_energy=u,
                        heat_capacity=c, z_reduced=float("nan"))
            for t, u, c in zip(temps, energies, capacities)]


def _failed_point(temperature: float, coupling: float,
                  exc: QbmError) -> ThermoPoint:
    return ThermoPoint(temperature=temperature, coupling=coupling,
                       internal_energy=float("nan"), heat_capacity=float("nan"),
                       z_reduced=float("nan"),
                       error=f"{type(exc).__name__}: {exc}")
