"""Reservoir spectral density, imaginary-time kernels and their Laplace transforms.

All frequencies are measured in units of the system frequency (omega_S = 1),
with hbar = k_B = 1.  The reservoir carries a Lorentz-Drude spectral density

    J(w) = gamma * w * wc^2 / (w^2 + wc^2),

where ``gamma`` is the dimensionless coupling strength and ``wc`` the cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .errors import BranchCut, DivergentKernel, InvalidGrid, PoleOnAxis

OMEGA_S = 1.0

# integration window beyond which exp(-beta*w) is below double precision
_EXP_FLOOR = 120.0


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

    @property
    def counterterm_strength(self) -> float:
        """Coefficient of (a + a^dag)^2 compensating the static bath shift."""
        if not self.counterterm:
            return 0.0
        return self.gamma * self.cutoff / 4.0


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


def kernel_g(cfg: SpectralConfig, tau: float, rtol: float = 1e-10) -> float:
    """Imaginary-time kernel int dw/2pi J(w) exp(-w*tau); diverges as tau -> 0+."""
    if tau <= 0:
        raise DivergentKernel(f"kernel_g requires tau > 0, got {tau}")
    if cfg.gamma == 0:
        return 0.0
    wc = cfg.cutoff

    def f(w):
        return cfg.gamma * w * wc**2 / (w**2 + wc**2) * np.exp(-w * tau) / (2 * np.pi)

    split = max(4 * wc, 4.0 / tau)
    val = quad(f, 0.0, split, epsabs=0.0, epsrel=rtol, limit=400, points=[wc])[0]
    val += quad(f, split, np.inf, epsabs=0.0, epsrel=rtol, limit=200)[0]
    return val


def kernel_g_prime(cfg: SpectralConfig, beta: float, tau: float,
                   rtol: float = 1e-10) -> float:
    """Thermal kernel int dw/2pi J(w) exp(-w*tau) n_B(w); finite for tau > -beta."""
    if beta <= 0:
        raise InvalidGrid("beta must be positive")
    if tau <= -beta:
        raise DivergentKernel(f"kernel_g_prime requires tau > -beta, got tau={tau}")
    if cfg.gamma == 0:
        return 0.0
    wc = cfg.cutoff

    def f(w):
        if w == 0.0:
            return cfg.gamma * wc**2 / (wc**2) / (2 * np.pi * beta)
        # exp(-w tau) n_B(w) rewritten to stay finite for tau < 0
        thermal = np.exp(-w * (tau + beta)) / (1.0 - np.exp(-beta * w))
        return (cfg.gamma * w * wc**2 / (w**2 + wc**2)
                * thermal / (2 * np.pi))

    decay = beta + tau  # effective exponential decay rate of the integrand
    split = max(4 * wc, 8.0 / decay)
    val = quad(f, 0.0, split, epsabs=0.0, epsrel=rtol, limit=400, points=[wc])[0]
    val += quad(f, split, np.inf, epsabs=0.0, epsrel=rtol, limit=200)[0]
    return val


def _on_negative_axis(s: complex) -> bool:
    return s.imag == 0.0 and s.real <= 0.0


def self_energy(cfg: SpectralConfig, s, method: str = "closed",
                pv: str | None = None):
    """Laplace transform of kernel_g: Sigma(s) = int dw/2pi J(w)/(s + w).

    Analytic on the plane cut along (-inf, 0].  Exactly on the cut a boundary
    prescription must be chosen: ``pv`` is one of "avg" (principal value),
    "upper"/"lower" (limits from Im s > 0 / Im s < 0).

    The closed form follows from partial fractions of the Lorentz-Drude shape;
    the "quad" backend integrates adaptively and serves as its cross-check.
    """
    s_arr = np.atleast_1d(np.asarray(s, dtype=complex))
    scalar = np.isscalar(s) or np.asarray(s).ndim == 0
    wc = cfg.cutoff
    if cfg.gamma == 0:
        out = np.zeros_like(s_arr)
        return complex(out[0]) if scalar else out
    out = np.empty_like(s_arr)
    for i, z in enumerate(s_arr):
        if _on_negative_axis(z):
            if pv is None:
                raise BranchCut(f"self_energy on the cut at s={z}; pass pv=...")
            if z == 0.0:
                out[i] = cfg.gamma * wc / 4.0
                continue
            w0 = -z.real
            log = np.log(w0 / wc)
            if pv == "upper":
                log += 1j * np.pi
            elif pv == "lower":
                log -= 1j * np.pi
            elif pv != "avg":
                raise InvalidGrid(f"unknown pv prescription {pv!r}")
            out[i] = cfg.gamma * wc**2 / (2 * np.pi) * (z * log + np.pi * wc / 2) / (z**2 + wc**2)
        elif method == "closed":
            if abs(z**2 + wc**2) < 1e-12 * wc**2:
                # removable point s = +-i*wc: numerator vanishes there too
                out[i] = _self_energy_quad(cfg, z)
            else:
                out[i] = (cfg.gamma * wc**2 / (2 * np.pi)
                          * (z * np.log(z / wc) + np.pi * wc / 2) / (z**2 + wc**2))
        elif method == "quad":
            out[i] = _self_energy_quad(cfg, z)
        else:
            raise InvalidGrid(f"unknown self_energy method {method!r}")
    return complex(out[0]) if scalar else out


def _self_energy_quad(cfg: SpectralConfig, z: complex, rtol: float = 1e-11) -> complex:
    wc = cfg.cutoff

    def f(w, part):
        val = cfg.gamma * w * wc**2 / (w**2 + wc**2) / (z + w) / (2 * np.pi)
        return val.real if part == 0 else val.imag

    split = max(4 * wc, 4 * abs(z), 1.0)
    pts = sorted({min(wc, 0.9 * split), min(abs(z), 0.9 * split)})
    res = 0j
    for part, unit in ((0, 1.0), (1, 1j)):
        val = quad(f, 0, split, args=(part,), epsabs=0.0, epsrel=rtol,
                   limit=500, points=pts)[0]
        val += quad(f, split, np.inf, args=(part,), epsabs=0.0, epsrel=rtol,
                    limit=300)[0]
        res += unit * val
    return res


class _ThermalCauchy:
    """Cached panel quadrature for int dw f(w)/(w + z) with f = J n_B / 2pi.

    Far from the cut the fixed Gauss-Legendre panels give near machine
    accuracy; for z close to (-inf, 0) the pole at w = -z is handled by
    subtracting f at the pole location and refining panels dyadically down
    to the pole's distance from the axis.
    """

    def __init__(self, cfg: SpectralConfig, beta: float, n_per_panel: int = 40):
        self.cfg = cfg
        self.beta = beta
        self.upper = max(15 * cfg.cutoff, _EXP_FLOOR / beta, 40.0)
        edges = [0.0]
        x = 1e-8
        while x < self.upper:
            edges.append(x)
            x *= 3.1
        edges.append(self.upper)
        edges = np.unique(edges)
        xs, ws = np.polynomial.legendre.leggauss(n_per_panel)
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[:-1] + edges[1:])
        self.nodes = (half[:, None] * xs[None, :] + mid[:, None]).ravel()
        self.weights = (half[:, None] * ws[None, :]).ravel()
        self.fvals = self.f(self.nodes)
        self._xs24, self._ws24 = np.polynomial.legendre.leggauss(24)

    def f(self, w):
        w = np.asarray(w, dtype=float)
        wc = self.cfg.cutoff
        return (self.cfg.gamma * w * wc**2 / (w**2 + wc**2)
                * bose_occupation(self.beta, w) / (2 * np.pi))

    def __call__(self, z: complex, pv: str | None = None) -> complex:
        z = complex(z)
        w0 = -z.real
        if 1e-12 < w0 < self.upper - 2.0 and abs(z.imag) < 1.5:
            return self._near_axis(z, pv)
        if _on_negative_axis(z):
            raise PoleOnAxis(f"thermal self-energy pole at w={-z.real} outside panels")
        return complex(np.sum(self.weights * self.fvals / (self.nodes + z)))

    def _near_axis(self, z: complex, pv: str | None) -> complex:
        w0, eps = -z.real, abs(z.imag)
        on_axis = eps < 1e-13
        if on_axis and pv is None:
            raise PoleOnAxis(
                f"thermal self-energy evaluated at s={z} on the cut; pass pv=...")
        pole = -z
        f0 = float(self.f(w0))
        h = min(1.0, 0.9 * w0, 0.5 * (self.upper - w0))
        edges = [0.0]
        x = 1e-8
        while x < 0.99 * (w0 - h):
            edges.append(x)
            x *= 3.1
        edges.append(w0 - h)
        d, scale = h, max(eps / 4, 1e-13)
        while d > scale:
            edges.append(w0 - d / 2)
            d /= 2
        edges.append(w0 + d)
        while d < h:
            edges.append(min(w0 + 2 * d, w0 + h))
            d *= 2
        edges.append(w0 + h)
        x = w0 + h
        while x < self.upper:
            x = min(2 * x, self.upper)
            edges.append(x)
        edges = np.unique(np.clip(np.asarray(edges), 0.0, self.upper))
        half = 0.5 * np.diff(edges)
        keep = half > 1e-16
        half, mid = half[keep], (0.5 * (edges[:-1] + edges[1:]))[keep]
        nodes = (half[:, None] * self._xs24[None, :] + mid[:, None]).ravel()
        wts = (half[:, None] * self._ws24[None, :]).ravel()
        base = np.sum(wts * (self.f(nodes) - f0) / (nodes - pole))
        if on_axis:
            log = np.log((self.upper - w0) / w0)
            if pv == "upper":
                log -= 1j * np.pi  # limit from Im s > 0: 1/(w - w0 + i0) -> PV - i pi d
            elif pv == "lower":
                log += 1j * np.pi
            elif pv != "avg":
                raise InvalidGrid(f"unknown pv prescription {pv!r}")
        else:
            log = np.log(self.upper - pole) - np.log(-pole)
        return complex(base + f0 * log)


@lru_cache(maxsize=32)
def _thermal_cauchy(gamma: float, cutoff: float, beta: float) -> _ThermalCauchy:
    return _ThermalCauchy(SpectralConfig(gamma, cutoff, counterterm=False), beta)


def thermal_self_energy(cfg: SpectralConfig, beta: float, s,
                        method: str = "nodal", pv: str | None = None):
    """Laplace transform of kernel_g_prime: Sigma'(s) = int dw/2pi J n_B /(s + w).

    Shares the cut structure of ``self_energy``.  Exactly on the negative real
    axis the ``pv`` prescription selects principal value ("avg") or the
    one-sided limits ("upper"/"lower"); without it PoleOnAxis is raised.
    """
    if beta <= 0:
        raise InvalidGrid("beta must be positive")
    s_arr = np.atleast_1d(np.asarray(s, dtype=complex))
    scalar = np.isscalar(s) or np.asarray(s).ndim == 0
    if cfg.gamma == 0:
        out = np.zeros_like(s_arr)
        return complex(out[0]) if scalar else out
    if method == "nodal":
        helper = _thermal_cauchy(cfg.gamma, cfg.cutoff, beta)
        out = np.array([helper(z, pv=pv) for z in s_arr])
    elif method == "quad":
        out = np.array([_thermal_quad(cfg, beta, z) for z in s_arr])
    else:
        raise InvalidGrid(f"unknown thermal_self_energy method {method!r}")
    return complex(out[0]) if scalar else out


def _thermal_quad(cfg: SpectralConfig, beta: float, z: complex,
                  rtol: float = 1e-11) -> complex:
    if _on_negative_axis(z):
        raise PoleOnAxis("quad backend does not evaluate on the cut")
    wc = cfg.cutoff

    def f(w, part):
        if w == 0.0:
            val = cfg.gamma / (2 * np.pi * beta * z)
        else:
            val = (cfg.gamma * w * wc**2 / (w**2 + wc**2)
                   * bose_occupation(beta, w) / (z + w) / (2 * np.pi))
        return val.real if part == 0 else val.imag

    split = max(4 * wc, 4 * abs(z), _EXP_FLOOR / beta)
    pts = sorted({min(wc, 0.9 * split), min(abs(z), 0.9 * split)})
    res = 0j
    for part, unit in ((0, 1.0), (1, 1j)):
        val = quad(f, 0, split, args=(part,), epsabs=0.0, epsrel=rtol,
                   limit=800, points=pts)[0]
        val += quad(f, split, np.inf, args=(part,), epsabs=0.0, epsrel=rtol,
                    limit=300)[0]
        res += unit * val
    return res


def discretize(cfg: SpectralConfig, k_c: int, omega_max: float,
               rule: str = "gauss-legendre") -> ModeList:
    """Discretize the bath into k_c modes on (0, omega_max].

    Quadrature nodes/weights (w_k, dw_k) of the chosen rule define couplings
    through V_k^2 = J(w_k) dw_k / 2pi; the sign of V_k is taken negative,
    matching the position-coupling convention (all observables depend on V_k^2).
    """
    if k_c < 1:
        raise InvalidGrid(f"k_c must be >= 1, got {k_c}")
    if omega_max <= 0:
        raise InvalidGrid(f"omega_max must be > 0, got {omega_max}")
    if rule == "gauss-legendre":
        xs, ws = np.polynomial.legendre.leggauss(k_c)
        nodes = 0.5 * omega_max * (xs + 1.0)
        weights = 0.5 * omega_max * ws
    elif rule == "linear":
        step = omega_max / k_c
        nodes = (np.arange(k_c) + 0.5) * step
        weights = np.full(k_c, step)
    else:
        raise InvalidGrid(f"unknown node rule {rule!r}")
    j = eval_spectral_density(cfg, nodes)
    couplings = -np.sqrt(j * weights / (2 * np.pi))
    return ModeList(frequencies=nodes, couplings=couplings)


def default_omega_max(cfg: SpectralConfig) -> float:
    """Default integration window for discretized baths."""
    return 10.0 * cfg.cutoff
