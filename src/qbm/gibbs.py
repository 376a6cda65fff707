"""Operator-level description of the reduced state.

Converts second moments into the renormalized Hamiltonian (frequency
shift plus induced pairing) of the reduced Gibbs state, its Bogoliubov
diagonalization, the extended Bose-Einstein distribution, and the
position-momentum representation with the canonical transformation to
quasi-particle coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BranchAmbiguity, UnstableReducedPotential, ZeroTemperature
from .spectral import OMEGA_S, bose_occupation
from .state import Moments


@dataclass(frozen=True)
class ReducedHamiltonian:
    """Renormalized frequency and pairing strength of the reduced mode."""

    omega: float
    pairing: complex

    def __post_init__(self):
        if self.omega <= abs(self.pairing):
            raise UnstableReducedPotential(
                f"omega_r = {self.omega:.6g} <= |Delta_r| = "
                f"{abs(self.pairing):.6g}")

    @property
    def eigenfrequency(self) -> float:
        return float(np.sqrt(self.omega**2 - abs(self.pairing)**2))


@dataclass(frozen=True)
class BogoliubovFrame:
    """Transformation c = u a + v a^dag diagonalizing the reduced Hamiltonian."""

    u: complex
    v: complex
    eigenfrequency: float


@dataclass(frozen=True)
class PositionForm:
    """Quadratic form of the reduced Hamiltonian in position and momentum.

    H = P^2/(2 M') + (M'/2) * harmonic * X^2 + (cross/2)(XP + PX), together
    with the canonical matrix mapping (X, P) to the quasi-particle pair.
    """

    mass_eff: float
    harmonic: float
    cross: float
    transform: np.ndarray

    @property
    def eigenfrequency(self) -> float:
        return float(np.sqrt(self.harmonic - self.cross**2))

    def form_matrix(self) -> np.ndarray:
        """Symmetric matrix G with H = (1/2) (X, P) G (X, P)^T."""
        return np.array([[self.mass_eff * self.harmonic, self.cross],
                         [self.cross, 1.0 / self.mass_eff]])


def _branch_root(moments: Moments) -> float:
    """sqrt((n + 1/2)^2 - |s|^2), the supported branch of the coefficients."""
    n, s = moments.occupation, moments.squeezing
    val = (n + 0.5)**2 - abs(s)**2
    if val < 0:
        raise BranchAmbiguity(
            f"(n + 1/2)^2 - |s|^2 = {val:.3e} < 0: unsupported branch")
    return float(np.sqrt(val))


def reduced_hamiltonian(moments: Moments, temperature: float) -> ReducedHamiltonian:
    """Renormalized frequency and pairing from moments at the given temperature.

    rho = exp(-H^R/T)/Z_S with H^R = omega_r (ad a + 1/2) + (Delta_r* ad^2 +
    Delta_r a^2)/2 gives omega_r = (n + 1/2) L T/x and Delta_r = -s* L T/x,
    x = sqrt((n + 1/2)^2 - |s|^2).  L = ln((x + 1/2)/(x - 1/2)) is taken as
    log1p((x + 1/2)/z2), z2 = x^2 - 1/4 = n^2 + n - |s|^2, so it keeps its
    relative accuracy at both temperature ends.
    """
    n, s = moments.occupation, moments.squeezing
    if n <= 0 and abs(s) == 0:
        raise ZeroTemperature("vacuum moments carry no Gibbs data")
    x = _branch_root(moments)
    z2 = n**2 + n - abs(s)**2
    if z2 <= 0:
        raise ZeroTemperature(
            f"n^2 + n - |s|^2 = {z2:.3e} <= 0: zero-temperature edge")
    scale = float(np.log1p((x + 0.5) / z2)) / x * temperature
    return ReducedHamiltonian(omega=(n + 0.5) * scale,
                              pairing=-complex(s).conjugate() * scale)


def bogoliubov(h: ReducedHamiltonian) -> BogoliubovFrame:
    """Bogoliubov pair (u, v) with |u|^2 - |v|^2 = 1 diagonalizing H.

    The phase of u follows the conjugate of the pairing; the phase of v is
    fixed by u* v = pairing/(2 eigenfrequency), which is what diagonalizes
    the position-momentum quadratic form (and leaves the printed moduli
    sqrt((omega +- wbar)/(2 wbar)) unchanged).  Both moduli are written
    through omega + wbar, since omega - wbar = |pairing|^2/(omega + wbar)
    cancels at weak pairing.  The pairing -> 0 limit is (u, v) = (1, 0) by
    convention.
    """
    wbar = h.eigenfrequency
    delta = h.pairing
    if abs(delta) == 0:
        return BogoliubovFrame(u=1.0 + 0j, v=0.0 + 0j, eigenfrequency=wbar)
    u = np.conj(delta) / abs(delta) * np.sqrt((h.omega + wbar) / (2 * wbar))
    v = abs(delta) / np.sqrt(2 * wbar * (h.omega + wbar))
    return BogoliubovFrame(u=complex(u), v=complex(v), eigenfrequency=wbar)


def extended_bose_einstein(h: ReducedHamiltonian, temperature: float) -> Moments:
    """Occupation and squeezing of the thermal state of the reduced Hamiltonian.

    n + 1/2 = (omega/wbar)(n_B(wbar) + 1/2) and
    s = -(pairing*/wbar)(n_B(wbar) + 1/2); exact inverse of
    ``reduced_hamiltonian``.
    """
    if temperature <= 0:
        raise ZeroTemperature("temperature must be positive")
    wbar = h.eigenfrequency
    filling = bose_occupation(1.0 / temperature, wbar) + 0.5
    n = (h.omega / wbar) * filling - 0.5
    s = -(np.conj(h.pairing) / wbar) * filling
    return Moments(occupation=float(n), squeezing=complex(s))


def quasiparticle_occupation(moments: Moments) -> float:
    """Occupation x - 1/2 of the Bogoliubov quasi-particle.

    x = sqrt((n + 1/2)^2 - |s|^2).  The occupation is taken as
    (n^2 + n - |s|^2)/(x + 1/2), which keeps its relative accuracy as
    x -> 1/2 (cold or weakly coupled), where x - 1/2 cancels.
    """
    n, s = moments.occupation, moments.squeezing
    return (n**2 + n - abs(s)**2) / (_branch_root(moments) + 0.5)


def position_form(h: ReducedHamiltonian) -> PositionForm:
    """Position-momentum representation of the reduced Hamiltonian.

    M' = M omega_S/(omega_r - Re Delta) in the moments' unit M omega_S = 1;
    the harmonic coefficient is omega_r^2 - (Re Delta)^2 and the cross one
    Im Delta, so the form's eigenfrequency equals the Bogoliubov one.
    ``ReducedHamiltonian`` holds omega_r > |Delta| >= Re Delta, so M' > 0.
    """
    mass_eff = OMEGA_S / (h.omega - h.pairing.real)
    return PositionForm(mass_eff=float(mass_eff),
                        harmonic=float(h.omega**2 - h.pairing.real**2),
                        cross=float(h.pairing.imag),
                        transform=_coordinate_transform(bogoliubov(h), mass_eff))


def _coordinate_transform(frame: BogoliubovFrame, mass_eff: float) -> np.ndarray:
    """Canonical matrix taking (X, P) to the quasi-particle pair (Xbar, Pbar)."""
    u, v = frame.u, frame.v
    mw_bar = mass_eff * frame.eigenfrequency  # in units of M omega_S = 1
    return np.sqrt(mw_bar) * np.array([
        [(u.real + v.real) / mw_bar, (v.imag - u.imag) / mw_bar],
        [u.imag + v.imag, u.real - v.real],
    ])
