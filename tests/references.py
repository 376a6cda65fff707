"""Test-only references: the kernel-to-moments map and the finite-model ln Z.

``kernel_to_moments`` inverts ``qbm.moments_to_kernel``, which is the only
direction the package ships; the round-trip tests check one against the
other.  ``log_partition_total`` and ``log_partition_env`` sum
-ln[2 sinh(beta w / 2)] over the normal modes of system plus discretized
bath and over the bare bath modes; the partition-function relation and the
Fock oracle's ln Z_total are checked against them.
"""

import numpy as np

from qbm import NonNormalizable, normal_mode_frequencies
from qbm.finite import _check_beta
from qbm.state import GaussianKernel, Moments


def kernel_to_moments(kernel: GaussianKernel) -> Moments:
    """Map (Omega_S, Pi_S) to (n, s); the denominator must stay positive."""
    om, pi = kernel.omega_s, kernel.pi_s
    d = (1 - om)**2 - pi**2
    if d <= 0:
        raise NonNormalizable(f"kernel denominator {d:.3e} <= 0")
    return Moments(occupation=float((om * (1 - om) + pi**2) / d),
                   squeezing=float(pi / d))


def log_partition_total(modes, beta: float, counterterm: bool = False) -> float:
    """ln Z of the total model: -sum_j ln[2 sinh(beta Omega_j / 2)]."""
    _check_beta(beta)
    w = normal_mode_frequencies(modes, counterterm)
    return float(-np.sum(_log_2sinh_half(beta * w)))


def log_partition_env(modes, beta: float) -> float:
    """ln Z of the decoupled bath: -sum_k ln[2 sinh(beta w_k / 2)]."""
    _check_beta(beta)
    return float(-np.sum(_log_2sinh_half(beta * modes.frequencies)))


def _log_2sinh_half(x: np.ndarray) -> np.ndarray:
    # ln(2 sinh(x/2)) = x/2 + ln(1 - exp(-x)), stable for large x
    x = np.asarray(x, dtype=float)
    return x / 2 + np.log1p(-np.exp(-np.minimum(x, 700.0)))
