"""Laplace-domain references of the Lorentz-Drude bath, for the tests.

``kernel_g`` is the imaginary-time bath kernel and ``self_energy`` its Laplace
transform.  The closed-form self-energy is checked against quadrature of J(w)
in ``test_spectral.py``; ``test_continuum.py`` builds the Matsubara propagator
from it, which ties the Drude cubic of ``matsubara_moments`` to J(w).
"""

import numpy as np
from scipy.integrate import quad

from qbm import InvalidGrid


class DivergentKernel(ValueError):
    """kernel_g evaluated at tau <= 0, where its integral diverges."""


class BranchCut(ValueError):
    """self_energy evaluated on its cut without a boundary prescription."""


def kernel_g(cfg, tau, rtol=1e-10):
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


def _on_negative_axis(s):
    return s.imag == 0.0 and s.real <= 0.0


def self_energy(cfg, s, method="closed", pv=None):
    """Laplace transform of kernel_g: Sigma(s) = int dw/2pi J(w)/(s + w).

    Analytic on the plane cut along (-inf, 0].  Exactly on the cut a boundary
    prescription must be chosen: ``pv`` is one of "avg" (principal value),
    "upper"/"lower" (limits from Im s > 0 / Im s < 0).  The closed form
    follows from partial fractions of the Lorentz-Drude shape; the "quad"
    method integrates adaptively and serves as its cross-check.
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
            log = np.log(-z.real / wc)
            if pv == "upper":
                log += 1j * np.pi
            elif pv == "lower":
                log -= 1j * np.pi
            elif pv != "avg":
                raise InvalidGrid(f"unknown pv prescription {pv!r}")
            out[i] = (cfg.gamma * wc**2 / (2 * np.pi)
                      * (z * log + np.pi * wc / 2) / (z**2 + wc**2))
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


def _self_energy_quad(cfg, z, rtol=1e-11):
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
