"""Operator-level description of the reduced state.

Converts second moments into the renormalized Hamiltonian (frequency
shift plus induced pairing) of the reduced Gibbs state, its Bogoliubov
diagonalization and the extended Bose-Einstein distribution.  The pairing
is real, so the Hamiltonian is already diagonal in position and momentum;
its position form is the effective mass and the eigenfrequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import BranchAmbiguity, UnstableReducedPotential, ZeroTemperature
from .spectral import OMEGA_S, bose_occupation
from .state import Moments


@dataclass(frozen=True)
class ReducedHamiltonian:
    """Renormalized frequency omega_r and real pairing Delta_r of the reduced mode.

    H^R = omega_r (a^dag a + 1/2) + Delta_r (a^dag^2 + a^2)/2.  Its
    eigenfrequency omega_bar = sqrt(omega_r^2 - Delta_r^2) is computed once,
    at construction.
    """

    omega: float
    pairing: float
    eigenfrequency: float = field(init=False, compare=False)

    def __post_init__(self):
        if self.omega <= abs(self.pairing):
            raise UnstableReducedPotential(
                f"omega_r = {self.omega:.6g} <= |Delta_r| = "
                f"{abs(self.pairing):.6g}")
        object.__setattr__(self, "eigenfrequency",
                           math.sqrt(self.omega**2 - self.pairing**2))

    @property
    def mass_eff(self) -> float:
        """Effective mass M' = M omega_S/(omega_r - Delta_r), in units M omega_S = 1.

        In position and momentum H^R = (omega_r + Delta_r) X^2/2 + (omega_r -
        Delta_r) P^2/2 = P^2/(2 M') + M' omega_bar^2 X^2/2, which is already
        diagonal.  omega_r > |Delta_r| keeps M' positive.
        """
        return OMEGA_S / (self.omega - self.pairing)


@dataclass(frozen=True)
class BogoliubovFrame:
    """Transformation c = u a + v a^dag diagonalizing the reduced Hamiltonian."""

    u: float
    v: float
    eigenfrequency: float


def _branch_root(moments: Moments) -> float:
    """sqrt((n + 1/2)^2 - s^2), the supported branch of the coefficients."""
    n, s = moments.occupation, moments.squeezing
    val = (n + 0.5)**2 - s**2
    if val < 0:
        raise BranchAmbiguity(
            f"(n + 1/2)^2 - |s|^2 = {val:.3e} < 0: unsupported branch")
    return math.sqrt(val)


def reduced_hamiltonian(moments: Moments, temperature: float) -> ReducedHamiltonian:
    """Renormalized frequency and pairing from moments at the given temperature.

    rho = exp(-H^R/T)/Z_S with H^R = omega_r (ad a + 1/2) + Delta_r (ad^2 +
    a^2)/2 gives omega_r = (n + 1/2) L T/x and Delta_r = -s L T/x,
    x = sqrt((n + 1/2)^2 - s^2).  L = ln((x + 1/2)/(x - 1/2)) is taken as
    log1p((x + 1/2)/z2), z2 = x^2 - 1/4 = n^2 + n - s^2, so it keeps its
    relative accuracy at both temperature ends.
    """
    n, s = moments.occupation, moments.squeezing
    if n <= 0 and s == 0:
        raise ZeroTemperature("vacuum moments carry no Gibbs data")
    x = _branch_root(moments)
    z2 = n**2 + n - s**2
    if z2 <= 0:
        raise ZeroTemperature(
            f"n^2 + n - |s|^2 = {z2:.3e} <= 0: zero-temperature edge")
    scale = math.log1p((x + 0.5) / z2) / x * temperature
    return ReducedHamiltonian(omega=(n + 0.5) * scale, pairing=-s * scale)


def bogoliubov(h: ReducedHamiltonian) -> BogoliubovFrame:
    """Bogoliubov pair (u, v) with u^2 - v^2 = 1 diagonalizing H.

    u = sqrt((omega + wbar)/(2 wbar)) > 0 and v = pairing/sqrt(2 wbar
    (omega + wbar)), so u v = pairing/(2 wbar).  v is written through
    omega + wbar, since omega - wbar = pairing^2/(omega + wbar) cancels at
    weak pairing.
    """
    wbar = h.eigenfrequency
    u = math.sqrt((h.omega + wbar) / (2 * wbar))
    v = h.pairing / math.sqrt(2 * wbar * (h.omega + wbar))
    return BogoliubovFrame(u=u, v=v, eigenfrequency=wbar)


def extended_bose_einstein(h: ReducedHamiltonian, temperature: float) -> Moments:
    """Occupation and squeezing of the thermal state of the reduced Hamiltonian.

    n + 1/2 = (omega/wbar)(n_B(wbar) + 1/2) and
    s = -(pairing/wbar)(n_B(wbar) + 1/2); exact inverse of
    ``reduced_hamiltonian``.
    """
    if temperature <= 0:
        raise ZeroTemperature("temperature must be positive")
    wbar = h.eigenfrequency
    filling = bose_occupation(1.0 / temperature, wbar) + 0.5
    n = (h.omega / wbar) * filling - 0.5
    s = -(h.pairing / wbar) * filling
    return Moments(occupation=float(n), squeezing=float(s))


def quasiparticle_occupation(moments: Moments) -> float:
    """Occupation x - 1/2 of the Bogoliubov quasi-particle.

    x = sqrt((n + 1/2)^2 - s^2).  The occupation is taken as
    (n^2 + n - s^2)/(x + 1/2), which keeps its relative accuracy as
    x -> 1/2 (cold or weakly coupled), where x - 1/2 cancels.
    """
    n, s = moments.occupation, moments.squeezing
    return (n**2 + n - s**2) / (_branch_root(moments) + 0.5)
