"""Reduced-state containers: coherent-state kernel and second moments.

The total Hamiltonian is real in the position basis, so the squeezing and
the kernel are real numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonNormalizable


@dataclass(frozen=True)
class GaussianKernel:
    """Scalar kernel (Omega_S, Pi_S) of the reduced coherent-state Gaussian."""

    omega_s: float
    pi_s: float


@dataclass(frozen=True)
class Moments:
    """Occupation n = <a^dag a> and squeezing s = <a a> of the reduced mode."""

    occupation: float
    squeezing: float


def moments_to_kernel(moments: Moments) -> GaussianKernel:
    """Inverse map (n, s) to (Omega_S, Pi_S).

    With d = (1 + n)^2 - s^2 > 0 the kernel has (1 - Omega_S)^2 - Pi_S^2 =
    1/d > 0, so it is normalizable.
    """
    n, s = moments.occupation, moments.squeezing
    d = (1 + n)**2 - s**2
    if d <= 0:
        raise NonNormalizable(f"(1+n)^2 - |s|^2 = {d:.3e} <= 0")
    return GaussianKernel(omega_s=1 - (1 + n) / d, pi_s=s / d)
