"""Reduced-state containers: coherent-state kernel and second moments."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonNormalizable

_IM_TOL = 1e-8
_MOMENTS_RTOL = 1e-10  # relative slack of Moments.validate


@dataclass(frozen=True)
class GaussianKernel:
    """Scalar kernel (Omega_S, Pi_S) of the reduced coherent-state Gaussian."""

    omega_s: complex
    pi_s: complex

    def validate(self) -> "GaussianKernel":
        d = (1 - self.omega_s.real)**2 - abs(self.pi_s)**2
        if d <= 0:
            raise NonNormalizable(
                f"(1-Omega_S)^2 - |Pi_S|^2 = {d:.3e} <= 0: no normalizable state")
        if abs(self.omega_s.imag) > _IM_TOL:
            raise NonNormalizable(
                f"Im Omega_S = {self.omega_s.imag:.3e} exceeds tolerance {_IM_TOL}")
        return self


@dataclass(frozen=True)
class Moments:
    """Occupation n = <a^dag a> and squeezing s = <a a> of the reduced mode."""

    occupation: float
    squeezing: complex

    def validate(self) -> "Moments":
        n, s2 = self.occupation, abs(self.squeezing)**2
        if n < -_MOMENTS_RTOL:
            raise NonNormalizable(f"occupation {n} < 0")
        bound = n * (n + 1)
        if s2 > bound + _MOMENTS_RTOL * max(bound, 1.0):
            raise NonNormalizable(
                f"|s|^2 = {s2:.6e} exceeds n(n+1) = {bound:.6e}")
        return self


def moments_to_kernel(moments: Moments) -> GaussianKernel:
    """Inverse map (n, s) to (Omega_S, Pi_S)."""
    n, s = moments.occupation, moments.squeezing
    d = (1 + n)**2 - abs(s)**2
    if d <= 0:
        raise NonNormalizable(f"(1+n)^2 - |s|^2 = {d:.3e} <= 0")
    return GaussianKernel(omega_s=1 - (1 + n) / d, pi_s=s / d)
