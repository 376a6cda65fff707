"""Independent references the benchmark checks qbm's outputs against.

Nothing here imports qbm.  The continuum reference is the closed form of the
Matsubara sums for the Drude bath with counterterm (Grabert, Schramm & Ingold,
Phys. Rep. 168, 115 (1988)): with P(nu) = nu^3 + wc nu^2 + (1 + gamma wc) nu
+ wc, the position propagator is G(nu) = (nu + wc) / P(nu), and every sum
over the Matsubara frequencies nu_m = 2 pi m / beta reduces to digamma values
at the three roots r_i of P,

    sum_{m>=1} c_i / (nu_m - r_i) summed over i = -(beta / 2 pi) sum_i c_i psi(1 - beta r_i / 2 pi),

because the residues c_i of a proper rational function with numerator degree
at most deg P - 2 sum to zero.  It is evaluated with mpmath at 30 digits.

The finite references are plain numpy: Gauss-Legendre discretization of the
Drude density, one symmetric eigendecomposition of the stiffness matrix, and
normal-mode sums for the moments and the naive heat capacity.
"""

from __future__ import annotations

import mpmath
import numpy as np

DIGITS = 30


def _polish(coeffs, root):
    """Newton-polish a double-precision root of the cubic at the working precision."""
    a3, a2, a1, a0 = coeffs
    for _ in range(4):
        p = ((a3 * root + a2) * root + a1) * root + a0
        root -= p / ((3 * a3 * root + 2 * a2) * root + a1)
    p = ((a3 * root + a2) * root + a1) * root + a0
    scale = abs(a0) + abs(a1 * root) + abs(a2 * root**2) + abs(a3 * root**3)
    if abs(p) > mpmath.mpf(10) ** (-DIGITS + 3) * scale:
        raise ArithmeticError(f"root {root} of the cubic did not converge")
    return root


def continuum_moments(gamma: float, cutoff: float, beta: float) -> tuple[float, float]:
    """(n, s) of the continuum model with counterterm, from the digamma closed form.

    x2 = (1/beta)[1 - (beta/pi) sum_i c_i psi(1 - beta r_i / 2pi)] with
    c_i = (r_i + wc) / P'(r_i), and p2 the same with d_i = ((1 + gamma wc) r_i
    + wc) / P'(r_i); then n = (x2 + p2)/2 - 1/2 and s = (x2 - p2)/2.  A complex
    pair of roots contributes twice the real part of one member's term.
    """
    with mpmath.workdps(DIGITS):
        g, wc, b = mpmath.mpf(gamma), mpmath.mpf(cutoff), mpmath.mpf(beta)
        coeffs = (mpmath.mpf(1), wc, 1 + g * wc, wc)
        terms = []  # (root, multiplicity of its real part)
        for r in np.roots([1.0, cutoff, 1.0 + gamma * cutoff, cutoff]):
            if r.imag == 0:
                terms.append((_polish(coeffs, mpmath.mpf(r.real)), 1))
            elif r.imag > 0:
                terms.append((_polish(coeffs, mpmath.mpc(complex(r))), 2))
        if sum(mult for _, mult in terms) != 3:
            raise ArithmeticError("cubic roots are neither real nor a conjugate pair")
        sx = sp = mpmath.mpf(0)
        for r, mult in terms:
            psi = mpmath.digamma(1 - b * r / (2 * mpmath.pi))
            dp = 3 * r**2 + 2 * wc * r + (1 + g * wc)
            sx += mult * mpmath.re((r + wc) / dp * psi)
            sp += mult * mpmath.re(((1 + g * wc) * r + wc) / dp * psi)
        x2 = (1 - b / mpmath.pi * sx) / b
        p2 = (1 - b / mpmath.pi * sp) / b
        return float((x2 + p2) / 2 - mpmath.mpf(1) / 2), float((x2 - p2) / 2)


def drude_modes(gamma: float, cutoff: float, k_c: int,
                omega_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on (0, omega_max] and squared couplings J dw / 2pi."""
    x, w = np.polynomial.legendre.leggauss(k_c)
    freqs = 0.5 * omega_max * (x + 1.0)
    weights = 0.5 * omega_max * w
    density = gamma * freqs * cutoff**2 / (freqs**2 + cutoff**2)
    return freqs, density * weights / (2 * np.pi)


def _normal_modes(freqs: np.ndarray, v2: np.ndarray,
                  counterterm: bool) -> tuple[np.ndarray, np.ndarray]:
    """Normal-mode frequencies and eigenvectors of system (frequency 1) plus bath.

    H = a^dag a + sum_k w_k b_k^dag b_k + sum_k V_k (a + a^dag)(b_k + b_k^dag)
    [+ lambda (a + a^dag)^2 with lambda = sum_k V_k^2 / w_k]; in mass-weighted
    coordinates the stiffness matrix is K_00 = 1 + 4 lambda, K_kk = w_k^2,
    K_0k = 2 |V_k| sqrt(w_k) (the sign of V_k does not enter any observable).
    """
    lam = float(np.sum(v2 / freqs)) if counterterm else 0.0
    k = np.diag(np.concatenate([[1.0 + 4.0 * lam], freqs**2]))
    k[0, 1:] = k[1:, 0] = 2.0 * np.sqrt(v2 * freqs)
    ev, orth = np.linalg.eigh(k)
    if ev[0] <= 0:
        raise ArithmeticError("stiffness matrix is not positive definite")
    return np.sqrt(ev), orth


def finite_moments(freqs, v2, beta: float, counterterm: bool = True) -> tuple[float, float]:
    """(n, s) of the system mode in the Gibbs state of the finite model."""
    wj, orth = _normal_modes(np.asarray(freqs, float), np.asarray(v2, float), counterterm)
    weight = orth[0]**2 / np.tanh(beta * wj / 2)
    x2 = float(np.sum(weight / (2 * wj)))
    p2 = float(np.sum(weight * wj / 2))
    return 0.5 * (x2 + p2) - 0.5, 0.5 * (x2 - p2)


def _csch2_sum(freqs: np.ndarray, temps: np.ndarray) -> np.ndarray:
    x = freqs[None, :] / (2 * temps[:, None])
    with np.errstate(over="ignore"):
        return np.sum((x / np.sinh(x))**2, axis=1)


def naive_heat_capacity(freqs, v2, temps, counterterm: bool = True) -> np.ndarray:
    """C of Z_tot / Z_E for every temperature from a single decomposition."""
    freqs, temps = np.asarray(freqs, float), np.asarray(temps, float)
    wj, _ = _normal_modes(freqs, np.asarray(v2, float), counterterm)
    return _csch2_sum(wj, temps) - _csch2_sum(freqs, temps)
