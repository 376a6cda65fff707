"""Continuum-bath solver for the reduced state at tau = beta.

The position and momentum correlators of the damped oscillator are Matsubara
sums, evaluated in closed form as digamma values at the roots of the Drude
cubic; this is exact to near machine precision.  The moments determine the
reduced Gaussian kernel through ``state.moments_to_kernel``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import polygamma, psi

from .errors import InvalidGrid, InvertedPotential
from .spectral import SpectralConfig
from .state import GaussianKernel, Moments, moments_to_kernel


# ---------------------------------------------------------------------------
# exact continuum moments (Matsubara route, digamma closed form)
# ---------------------------------------------------------------------------

# Digamma Taylor expansions are used only within a hundredth of the distance
# to the nearest pole, so twelve orders leave a remainder below 1e-18.  Past
# that radius the direct differences lose at most a few digits to cancellation.
_TAYLOR_RADIUS = 0.01
_ORDERS = np.arange(12)
_FACTORIALS = np.cumprod(np.maximum(_ORDERS, 1)).astype(float)


def _psi_taylor(z: float, s: float) -> np.ndarray:
    """Taylor coefficients in y of psi(z - s*y) about y = 0, for real z >= 1."""
    return (-s) ** _ORDERS * polygamma(_ORDERS, z) / _FACTORIALS


def _isolated_root(wc: float, a1: float, a0: float) -> float:
    """The real root of P(nu) = nu^3 + wc nu^2 + a1 nu + a0 farthest from the rest.

    All real roots lie in [-wc, 0).  Relative to the inflection point -wc/3
    the isolated root sits on the side opposite P(-wc/3), where P is concave
    (left) or convex (right), so Newton started at -wc or at 0 approaches it
    monotonically and stops once rounding stalls or reverses the step.
    """
    c = -wc / 3
    x = -wc if (c + wc) * c * c + a1 * c + a0 > 0 else 0.0
    direction = 1.0 if x < 0 else -1.0
    for _ in range(200):
        step = ((x + wc) * x * x + a1 * x + a0) / ((3 * x + 2 * wc) * x + a1)
        if step * direction >= 0 or x - step == x:
            break
        x -= step
    return x


def _digamma_sums(wc: float, a1: float, a0: float, gw2: float,
                  s: float) -> tuple[float, float]:
    """sum_i N(r_i) psi(1 - s r_i) / P'(r_i) for N = nu + wc and N = a1 nu + a0.

    r_i are the roots of P(nu) = nu^3 + wc nu^2 + a1 nu + a0 and gw2 = a1 wc
    - a0 = gamma wc^2.  Each sum is the second divided difference of N psi
    over the roots.  When all three roots lie well inside the digamma radius
    about -wc/3 it is summed as a Taylor series in the coefficients of the
    shifted cubic, which needs no roots.  Otherwise the isolated real root r0
    is split off, and the remaining pair m +- h (m real, h^2 real) enters
    through its first divided difference, taken as a series in h^2 when the
    pair nearly coincides.
    """
    c = -wc / 3
    zc = 1.0 - s * c
    p = a1 - wc * wc / 3                    # P(c + y) = y^3 + p y + q
    q = (c + wc) * c * c + a1 * c + a0
    spread = 2 * max(math.sqrt(abs(p)), (abs(q) / 2) ** (1 / 3))
    if s * spread <= _TAYLOR_RADIUS * zc:
        a = _psi_taylor(zc, s)
        hom = np.zeros(len(_ORDERS) - 2)    # complete homogeneous sums of y_i
        hom[0] = 1.0
        for j in range(2, len(hom)):
            hom[j] = -p * hom[j - 2] - (q * hom[j - 3] if j >= 3 else 0.0)
        sum_n = float(hom @ ((c + wc) * a[2:] + a[1:-1]))
        sum_q = float(hom @ ((a1 * c + a0) * a[2:] + a1 * a[1:-1]))
        return sum_n, sum_q

    r0 = _isolated_root(wc, a1, a0)
    u = gw2 / (r0 * r0 + a1)                # = r0 + wc, free of cancellation
    m = -0.5 * u                            # pair midpoint
    h2 = m * m + a0 / r0                    # pair half-separation squared
    d = r0 - m
    zm = 1.0 - s * m
    if s * s * abs(h2) <= (_TAYLOR_RADIUS * zm) ** 2:
        a = _psi_taylor(zm, s)
        powers = h2 ** np.arange(len(_ORDERS) // 2)
        mean, slope = float(a[0::2] @ powers), float(a[1::2] @ powers)
    elif h2 < 0:
        k = math.sqrt(-h2)
        w = complex(psi(complex(zm, s * k)))
        mean, slope = w.real, -w.imag / k
    else:
        k = math.sqrt(h2)
        lo, hi = float(psi(zm + s * k)), float(psi(zm - s * k))
        mean, slope = 0.5 * (lo + hi), (hi - lo) / (2 * k)
    # second divided difference over (r0, m + h, m - h)
    dd2 = (float(psi(1.0 - s * r0)) - mean - slope * d) / (d * d - h2)
    return u * dd2 + slope, -r0 * r0 * u * dd2 + a1 * slope


def matsubara_moments(cfg: SpectralConfig, beta: float) -> Moments:
    """Exact moments of the continuum model from the Matsubara sums in closed form.

    In units omega_S = 1 the position propagator at nu_m = 2 pi m / beta is
    G(nu) = (nu + wc) / P(nu) with the cubic P(nu) = nu^3 + wc nu^2 + a1 nu
    + a0: a1 = 1 + gamma wc, a0 = wc with the counterterm, a1 = 1, a0 =
    wc (1 - gamma wc) without it.  The momentum sum carries
    (a1 nu + a0) / P(nu).  Both numerators are two degrees below P, so each
    series reduces to digamma values at the roots r_i of P,

        <x^2> = (1/beta) [G(0) - (beta/pi) sum_i c_i psi(1 - beta r_i / 2 pi)],

    with c_i = (r_i + wc) / P'(r_i), and <p^2> the same with 1 in place of
    G(0) and d_i = (a1 r_i + a0) / P'(r_i) (Grabert, Schramm & Ingold,
    Phys. Rep. 168, 115 (1988); Weiss, Quantum Dissipative Systems, ch. 6).
    """
    if not (beta > 0 and math.isfinite(beta)):
        raise InvalidGrid("beta must be positive and finite")
    g, wc = cfg.gamma, cfg.cutoff
    if cfg.counterterm:
        a1, a0 = 1.0 + g * wc, wc
    else:
        if 1.0 - g * wc <= 0:
            raise InvertedPotential(
                f"static stiffness {1.0 - g * wc:.4e} <= 0 without counterterm")
        a1, a0 = 1.0, wc * (1.0 - g * wc)
    sum_n, sum_q = _digamma_sums(wc, a1, a0, g * wc * wc, beta / (2 * math.pi))
    x2 = wc / a0 / beta - sum_n / math.pi
    p2 = 1.0 / beta - sum_q / math.pi
    return Moments(occupation=float(0.5 * (x2 + p2) - 0.5),
                   squeezing=complex(0.5 * (x2 - p2)))


# ---------------------------------------------------------------------------
# public solver
# ---------------------------------------------------------------------------

def solve_kernel(cfg: SpectralConfig, beta: float) -> GaussianKernel:
    """Reduced kernel (Omega_S, Pi_S) at tau = beta for the continuum bath."""
    return moments_to_kernel(matsubara_moments(cfg, beta)).validate()


def solve_moments(cfg: SpectralConfig, beta: float) -> Moments:
    """Moments of the continuum reduced state; see ``matsubara_moments``."""
    return matsubara_moments(cfg, beta)
