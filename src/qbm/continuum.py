"""Continuum-bath solvers for the reduced kernel at tau = beta.

Three routes are provided:

* ``matsubara`` -- the position and momentum correlators of the damped
  oscillator as Matsubara sums in closed form, digamma values at the roots
  of the Drude cubic (the default; exact to near machine precision),
* ``discretize-extrapolate`` -- finite-mode Gaussian oracle on a doubling
  ladder with Richardson/Aitken extrapolation (the semantic ground truth),
* ``inverse-laplace`` -- Bromwich-line Fourier-series (de Hoog) inversion of
  a Laplace-domain kernel-matrix construction.  That construction drops
  boundary terms of the underlying imaginary-time boundary-value problem, so
  beyond leading order in the coupling it deviates from the oracle; it is
  retained for reference and validated where it is accurate.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import polygamma, psi

from .errors import Instability, InvalidGrid, InvertedPotential, NoConvergence
from .spectral import (OMEGA_S, SpectralConfig, _thermal_cauchy,
                       default_omega_max, discretize, self_energy)
from .state import GaussianKernel, Moments, kernel_to_moments, moments_to_kernel
from . import finite


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
# Laplace-domain kernel matrix (reference construction)
# ---------------------------------------------------------------------------

def _kernel_entries(cfg: SpectralConfig, beta: float, s_points: np.ndarray,
                    pv: str = "avg") -> tuple[np.ndarray, np.ndarray]:
    """Row combinations A(s), B(s) entering the kernel matrix, vectorized."""
    lam2 = 2 * cfg.counterterm_strength
    thermal = _thermal_cauchy(cfg.gamma, cfg.cutoff, beta) if cfg.gamma else None
    a = np.empty(len(s_points), dtype=complex)
    b = np.empty(len(s_points), dtype=complex)
    for i, s in enumerate(s_points):
        s = complex(s)
        if cfg.gamma == 0:
            sp_dir = sp_ref = sg_dir = sg_ref = 0.0
        else:
            sp_dir = thermal(s)
            sp_ref = thermal(-s, pv=pv)
            sg_dir = self_energy(cfg, s)
            sg_ref = self_energy(cfg, -s, pv=pv)
        a[i] = sg_dir + sp_dir + sp_ref + lam2
        b[i] = sg_ref - sp_dir - sp_ref - lam2
    return a, b


def laplace_kernel_matrix(cfg: SpectralConfig, beta: float, s: complex,
                          pv: str = "avg") -> np.ndarray:
    """2x2 Laplace-domain matrix M(s) whose inverse generates the kernel.

    M(s) = [[s + w + A, A], [B, s - w + B]] with A = Sigma(s) + Sigma'(s)
    + Sigma'(-s) and B = Sigma(-s) - Sigma'(s) - Sigma'(-s); the counterterm
    shifts A by +2*lambda and B by -2*lambda, preserving the row identities
    M00 - M01 = s + w and M11 - M10 = s - w.
    """
    a, b = _kernel_entries(cfg, beta, np.array([s], dtype=complex), pv=pv)
    a, b = complex(a[0]), complex(b[0])
    w = OMEGA_S
    return np.array([[s + w + a, a], [b, s - w + b]], dtype=complex)


def find_dominant_pole(cfg: SpectralConfig, beta: float, pv: str = "avg",
                       n_scan: int = 240) -> float:
    """Largest real root of det M(s) on (0, w + gamma*cutoff].

    The principal-value prescription defines det M on the cut; roots found in
    the 20% margin beyond the nominal window raise Instability.
    """
    window = OMEGA_S + cfg.gamma * cfg.cutoff
    hi = 1.2 * window
    grid = np.linspace(1e-3, hi, n_scan)

    def det_re(pts: np.ndarray) -> np.ndarray:
        a, b = _kernel_entries(cfg, beta, pts.astype(complex), pv=pv)
        s = pts
        return np.real((s + OMEGA_S + a) * (s - OMEGA_S + b) - a * b)

    d = det_re(grid)
    roots = []
    for i in range(len(grid) - 1):
        if d[i] == 0.0:
            roots.append(float(grid[i]))
        elif d[i] * d[i + 1] < 0:
            lo_x, hi_x, d_lo = grid[i], grid[i + 1], d[i]
            for _ in range(52):
                mid = 0.5 * (lo_x + hi_x)
                d_mid = float(det_re(np.array([mid]))[0])
                if d_lo * d_mid <= 0:
                    hi_x = mid
                else:
                    lo_x, d_lo = mid, d_mid
            roots.append(0.5 * (lo_x + hi_x))
    if not roots:
        return OMEGA_S
    top = max(roots)
    if top > 1.0001 * window:
        raise Instability(
            f"det M root at s={top:.4f} beyond the search window {window:.4f}")
    return top


# ---------------------------------------------------------------------------
# de Hoog Fourier-series inversion
# ---------------------------------------------------------------------------

def _dehoog(samples: np.ndarray, t: float, sigma0: float, period: float) -> complex:
    """Quotient-difference accelerated Fourier-series inversion.

    ``samples`` are F(sigma0 + i k pi / period) for k = 0..2M; returns the
    Pade-accelerated value of the Bromwich sum at time ``t`` (real part is
    the inverse transform of a real-valued function).
    """
    m_deg = (len(samples) - 1) // 2
    if np.max(np.abs(samples)) < 1e-300:
        return 0.0 + 0.0j
    a = np.asarray(samples, dtype=complex).copy()
    a[0] *= 0.5
    npts = 2 * m_deg + 1
    tiny = 1e-300
    e = np.zeros((npts, m_deg + 1), dtype=complex)
    q = np.zeros((npts, m_deg + 1), dtype=complex)
    den = a[0:2 * m_deg].copy()
    den[np.abs(den) < tiny] = tiny
    q[0:2 * m_deg, 1] = a[1:2 * m_deg + 1] / den
    for r in range(1, m_deg + 1):
        mr = 2 * (m_deg - r)
        e[0:mr + 1, r] = q[1:mr + 2, r] - q[0:mr + 1, r] + e[1:mr + 2, r - 1]
        if r < m_deg:
            mr2 = 2 * (m_deg - r - 1) + 1
            den = e[0:mr2 + 1, r].copy()
            den[np.abs(den) < tiny] = tiny
            q[0:mr2 + 1, r + 1] = (q[1:mr2 + 2, r] * e[1:mr2 + 2, r]
                                   / den)
    d = np.zeros(npts, dtype=complex)
    d[0] = a[0]
    d[1::2] = -q[0, 1:m_deg + 1]
    d[2::2] = -e[0, 1:m_deg + 1]
    d[~np.isfinite(d)] = 0.0
    z = np.exp(1j * np.pi * t / period)
    big_a = np.zeros(npts + 1, dtype=complex)
    big_b = np.zeros(npts + 1, dtype=complex)
    big_a[1] = d[0]
    big_b[0] = big_b[1] = 1.0
    for k in range(2, npts + 1):
        big_a[k] = big_a[k - 1] + d[k - 1] * z * big_a[k - 2]
        big_b[k] = big_b[k - 1] + d[k - 1] * z * big_b[k - 2]
    brem = (1 + (d[npts - 2] - d[npts - 1]) * z) / 2
    with np.errstate(all="ignore"):
        rem = -brem * (1 - np.sqrt(1 + d[npts - 1] * z / brem**2)) \
            if abs(brem) > tiny else 0.0
        num = big_a[npts - 1] + rem * big_a[npts - 2]
        den_val = big_b[npts - 1] + rem * big_b[npts - 2]
    if not (np.isfinite(num) and np.isfinite(den_val)) or abs(den_val) < tiny:
        num, den_val = big_a[npts - 1], big_b[npts - 1]
    return np.exp(sigma0 * t) / period * (num / den_val)


def _invert_first_row(cfg: SpectralConfig, beta: float, pv: str,
                      degree: int, t_scale: float) -> tuple[complex, complex]:
    pole = find_dominant_pole(cfg, beta, pv=pv)
    sigma0 = 1.5 * pole + 2.0 / beta
    margin = max(sigma0 - pole, 1e-3)
    period = max(t_scale * beta, 30.0 / (2 * margin))
    k = np.arange(2 * degree + 1)
    s = sigma0 + 1j * np.pi * k / period
    a, b = _kernel_entries(cfg, beta, s, pv=pv)
    det = (s + OMEGA_S + a) * (s - OMEGA_S + b) - a * b
    om = _dehoog((s - OMEGA_S + b) / det, beta, sigma0, period)
    pi = _dehoog(-a / det, beta, sigma0, period)
    return om, pi


# ---------------------------------------------------------------------------
# public solver
# ---------------------------------------------------------------------------

def solve_kernel(cfg: SpectralConfig, beta: float, method: str = "auto",
                 pv: str = "avg", degree: int = 64, t_scale: float = 2.5,
                 base_k: int = 100, validate: bool = True) -> GaussianKernel:
    """Reduced kernel (Omega_S, Pi_S) at tau = beta for the continuum bath.

    Methods: "matsubara" (default via "auto"; exact), "discretize-extrapolate"
    (finite-oracle ladder, Richardson extrapolated), "inverse-laplace"
    (Bromwich-line reference construction; approximate at strong coupling).
    """
    if beta <= 0:
        raise InvalidGrid("beta must be positive")
    if method in ("auto", "matsubara"):
        kernel = moments_to_kernel(matsubara_moments(cfg, beta))
    elif method == "discretize-extrapolate":
        kernel = _solve_discretize(cfg, beta, base_k)
    elif method == "inverse-laplace":
        om, pi = _invert_first_row(cfg, beta, pv, degree, t_scale)
        om2, pi2 = _invert_first_row(cfg, beta, pv, degree + degree // 2,
                                     t_scale)
        drift = max(abs(om.real - om2.real), abs(pi.real - pi2.real))
        if drift > 1e-6:
            raise NoConvergence(
                f"Bromwich series drift {drift:.3e} between degrees "
                f"{degree} and {degree + degree // 2}")
        kernel = GaussianKernel(omega_s=complex(om2.real),
                                pi_s=complex(pi2.real))
    else:
        raise InvalidGrid(f"unknown solve_kernel method {method!r}")
    return kernel.validate() if validate else kernel


def _solve_discretize(cfg: SpectralConfig, beta: float, base_k: int) -> GaussianKernel:
    """Finite-oracle kernels on the ladder {k, 2k, 4k}, Aitken extrapolated.

    The integration window grows with the rung (omega_max proportional to
    k_c), so node-density and window-truncation errors shrink together and
    the ladder converges monotonically to the continuum.
    """
    vals = []
    for k_c in (base_k, 2 * base_k, 4 * base_k):
        omega_max = default_omega_max(cfg) * (k_c / base_k)
        modes = discretize(cfg, k_c, omega_max)
        kern = finite.finite_kernel(modes, beta, cfg.counterterm)
        vals.append(np.array([kern.omega_s.real, kern.pi_s.real]))
    f0, f1, f2 = vals
    d1, d2 = f1 - f0, f2 - f1
    denom = d2 - d1
    safe = np.abs(denom) > 1e-14 * np.maximum(np.abs(f2), 1.0)
    extrap = np.where(safe, f2 - d2**2 / np.where(safe, denom, 1.0), f2)
    return GaussianKernel(omega_s=complex(extrap[0]), pi_s=complex(extrap[1]))


def solve_moments(cfg: SpectralConfig, beta: float, method: str = "auto",
                  **kwargs) -> Moments:
    """Moments of the continuum reduced state; see ``solve_kernel``."""
    if method in ("auto", "matsubara"):
        return matsubara_moments(cfg, beta)
    return kernel_to_moments(solve_kernel(cfg, beta, method=method, **kwargs))
