"""Continuum solver: kernel maps, closed-form moments and their oracles."""

import mpmath
import numpy as np
import pytest
from scipy.special import polygamma

from qbm import (GaussianKernel, InvertedPotential, Moments, NonNormalizable,
                 SpectralConfig, discretize, finite_kernel, kernel_to_moments,
                 matsubara_moments, moments_to_kernel, solve_kernel,
                 solve_moments)

from laplace_reference import self_energy

CFG = SpectralConfig(gamma=0.5, cutoff=20.0)
FREE = SpectralConfig(gamma=0.0, cutoff=20.0)


def _discretize_extrapolate(cfg, beta, base_k=100):
    """Finite-oracle kernels on the ladder {k, 2k, 4k}, Aitken extrapolated.

    The integration window grows with the rung (omega_max = 10 cutoff per
    base_k modes), so node-density and window-truncation errors shrink
    together and the ladder converges monotonically to the continuum.
    """
    vals = []
    for rung in (1, 2, 4):
        modes = discretize(cfg, rung * base_k, 10.0 * cfg.cutoff * rung)
        kern = finite_kernel(modes, beta, cfg.counterterm)
        vals.append(np.array([kern.omega_s.real, kern.pi_s.real]))
    f0, f1, f2 = vals
    d1, d2 = f1 - f0, f2 - f1
    denom = d2 - d1
    safe = np.abs(denom) > 1e-14 * np.maximum(np.abs(f2), 1.0)
    extrap = np.where(safe, f2 - d2**2 / np.where(safe, denom, 1.0), f2)
    return GaussianKernel(omega_s=complex(extrap[0]), pi_s=complex(extrap[1]))


def _propagator_moments(cfg, beta, terms):
    """(n, s) from Matsubara sums of the propagator built from J(w) alone.

    With Sigma(s) = int dw/2pi J(w)/(s + w), the damping term at the Matsubara
    frequency nu is nu gammahat(nu) = 4 Sigma(0) - 4 Re Sigma(i nu), and the
    counterterm adds 4 Sigma(0) to the stiffness, so G(nu) = 1/(nu^2 + 1
    [+ 4 Sigma(0)] - 4 Re Sigma(i nu)).  The momentum terms are 1 - nu^2 G.
    Past the last term both series are continued as c / nu^2, with c read
    off that term.
    """
    sigma0 = self_energy(cfg, 0.0, pv="avg").real
    stiffness = 1.0 + (4 * sigma0 if cfg.counterterm else 0.0)
    nu = 2 * np.pi / beta * np.arange(1, terms + 1)
    g = 1.0 / (nu**2 + stiffness - 4 * self_energy(cfg, 1j * nu).real)
    p = 1.0 - nu**2 * g
    tail = (beta / (2 * np.pi))**2 * polygamma(1, terms + 1)
    x2 = (1.0 / (stiffness - 4 * sigma0)
          + 2 * (g.sum() + nu[-1]**2 * g[-1] * tail)) / beta
    p2 = (1.0 + 2 * (p.sum() + nu[-1]**2 * p[-1] * tail)) / beta
    return np.array([0.5 * (x2 + p2) - 0.5, 0.5 * (x2 - p2)])


class TestKernelMaps:
    def test_thermal_closed_form(self):
        m = kernel_to_moments(GaussianKernel(omega_s=np.exp(-1.0), pi_s=0j))
        assert m.occupation == pytest.approx(1 / (np.e - 1), rel=1e-12)
        assert m.squeezing == 0

    def test_vacuum(self):
        m = kernel_to_moments(GaussianKernel(omega_s=0j, pi_s=0j))
        assert m.occupation == 0 and m.squeezing == 0

    def test_inverse_closed_form(self):
        k = moments_to_kernel(Moments(occupation=1 / (np.e - 1), squeezing=0j))
        assert k.omega_s.real == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_round_trip_random_moments(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(1000):
            n = 10 ** rng.uniform(-2, 2)
            smax = np.sqrt(n * (n + 1))
            s = (0.98 * smax * rng.random()
                 * np.exp(2j * np.pi * rng.random()))
            m = Moments(occupation=n, squeezing=s)
            back = kernel_to_moments(moments_to_kernel(m))
            worst = max(worst,
                        abs(back.occupation - n) / max(n, 1.0),
                        abs(back.squeezing - s) / max(abs(s), 1.0))
        assert worst < 1e-12

    def test_non_normalizable(self):
        with pytest.raises(NonNormalizable):
            moments_to_kernel(Moments(occupation=0.1, squeezing=2.0 + 0j))
        with pytest.raises(NonNormalizable):
            kernel_to_moments(GaussianKernel(omega_s=0.5, pi_s=0.6 + 0j))

    def test_moments_invariants(self):
        with pytest.raises(NonNormalizable):
            Moments(occupation=0.5, squeezing=1.2 + 0j).validate()


class TestMatsubaraMoments:
    @pytest.mark.parametrize("beta", [0.01, 0.1, 1.0, 10.0, 100.0])
    def test_decoupled_exactness(self, beta):
        k = moments_to_kernel(matsubara_moments(FREE, beta))
        assert abs(k.omega_s - np.exp(-beta)) < 1e-8
        assert abs(k.pi_s) < 1e-10

    def test_agrees_with_discretize_extrapolate(self):
        for beta in (0.1, 0.5, 2.0):
            a = matsubara_moments(CFG, beta)
            b = kernel_to_moments(_discretize_extrapolate(CFG, beta).validate())
            assert a.occupation == pytest.approx(b.occupation, rel=1e-4)
            assert a.squeezing.real == pytest.approx(b.squeezing.real, rel=1e-3)

    @pytest.mark.parametrize("cfg", [
        CFG, SpectralConfig(0.02, 20.0, counterterm=False),
        SpectralConfig(0.9, 1.0, counterterm=False)],
        ids=["counterterm", "weak-bare", "near-unstable-bare"])
    @pytest.mark.parametrize("beta", [0.1, 1.0, 10.0])
    def test_matches_self_energy_propagator(self, cfg, beta):
        # ties the Drude cubic's coefficients to J(w); the tail error of the
        # truncated sums is second order in 1/terms, so Richardson removes it
        m = matsubara_moments(cfg, beta)
        ref = (4 * _propagator_moments(cfg, beta, 20000)
               - _propagator_moments(cfg, beta, 10000)) / 3
        assert m.occupation == pytest.approx(ref[0], rel=1e-8)
        assert m.squeezing.real == pytest.approx(ref[1], rel=1e-8)

    def test_physicality_on_grid(self):
        for gamma in (0.1, 1.0, 3.0):
            cfg = SpectralConfig(gamma, 20.0)
            for beta in (0.05, 0.5, 5.0, 20.0):
                m = matsubara_moments(cfg, beta).validate()
                assert m.occupation >= 0
                assert m.occupation * (m.occupation + 1) > abs(m.squeezing)**2

    def test_squeezing_is_real(self):
        m = matsubara_moments(CFG, 0.7)
        assert m.squeezing.imag == 0

    def test_unstable_without_counterterm(self):
        cfg = SpectralConfig(0.5, 20.0, counterterm=False)
        with pytest.raises(InvertedPotential):
            matsubara_moments(cfg, 1.0)

    def test_stable_weak_coupling_without_counterterm(self):
        cfg = SpectralConfig(0.02, 20.0, counterterm=False)
        m = matsubara_moments(cfg, 1.0).validate()
        assert m.occupation > 0


def _series_moments(gamma, cutoff, beta, counterterm=True):
    """(n, s) from the Matsubara series themselves, summed by mpmath at 30 digits.

    The terms are G(nu_m) = (nu + wc) / P(nu) and (a1 nu + a0) / P(nu) at
    nu_m = 2 pi m / beta; Euler-Maclaurin summation (``nsum`` method "e")
    handles the slow 1/m^2 tails whose scale is set by beta * cutoff.
    """
    with mpmath.workdps(30):
        g, wc, b = (mpmath.mpf(gamma), mpmath.mpf(cutoff), mpmath.mpf(beta))
        a1, a0 = ((1 + g * wc, wc) if counterterm
                  else (mpmath.mpf(1), wc * (1 - g * wc)))
        step = 2 * mpmath.pi / b

        def series(numerator):
            def term(m):
                nu = step * m
                return numerator(nu) / (((nu + wc) * nu + a1) * nu + a0)
            return mpmath.nsum(term, [1, mpmath.inf], method="e")

        x2 = (wc / a0 + 2 * series(lambda nu: nu + wc)) / b
        p2 = (1 + 2 * series(lambda nu: a1 * nu + a0)) / b
        return float((x2 + p2) / 2 - mpmath.mpf(1) / 2), float((x2 - p2) / 2)


def _double_root_gammas(cutoff):
    """Couplings in (0, 10] where the cubic P has a double root (30 digits)."""
    def disc(g):
        a1, a0 = 1 + g * cutoff, cutoff
        return (18 * cutoff * a1 * a0 - 4 * cutoff**3 * a0
                + cutoff**2 * a1**2 - 4 * a1**3 - 27 * a0**2)

    with mpmath.workdps(30):
        grid = [mpmath.mpf(10) * k / 2000 for k in range(1, 2001)]
        vals = [disc(g) for g in grid]
        return [float(mpmath.findroot(disc, (lo, hi), solver="anderson"))
                for lo, hi, v0, v1 in zip(grid, grid[1:], vals, vals[1:])
                if v0 * v1 < 0]


def _oracle_cases():
    cases = [(g, wc, t, True) for g in (0.0, 1e-3, 0.5, 10.0)
             for wc in (1e-3, 1.0, 20.0, 1e5) for t in (1e-4, 1.0, 20.0)]
    cases += [(gw / wc, wc, t, False) for gw in (0.5, 0.99)
              for wc in (1e-3, 20.0) for t in (1e-4, 1.0, 20.0)]
    return cases


class TestMatsubaraOracle:
    """Closed form against the 30-digit series: 1e-10 relative, 1e-13 (|n|+1) floor."""

    @staticmethod
    def _assert_close(gamma, cutoff, temperature, counterterm=True):
        cfg = SpectralConfig(gamma, cutoff, counterterm=counterterm)
        m = matsubara_moments(cfg, 1.0 / temperature)
        ref_n, ref_s = _series_moments(gamma, cutoff, 1.0 / temperature,
                                       counterterm)
        floor = 1e-13 * (abs(ref_n) + 1)
        assert m.squeezing.imag == 0
        assert abs(m.occupation - ref_n) <= 1e-10 * abs(ref_n) + floor
        assert abs(m.squeezing.real - ref_s) <= 1e-10 * abs(ref_s) + floor

    @pytest.mark.parametrize("gamma,cutoff,temperature,counterterm",
                             _oracle_cases())
    def test_matches_series(self, gamma, cutoff, temperature, counterterm):
        self._assert_close(gamma, cutoff, temperature, counterterm)

    @pytest.mark.parametrize("cutoff", [10.0, 1e3])
    def test_double_root_curve(self, cutoff):
        # the partial-fraction residues of the close pair diverge here
        for g in _double_root_gammas(cutoff):
            for dg in (0.0, 1e-9, -1e-9):
                for temperature in (1e-3, 1.0):
                    self._assert_close(g + dg, cutoff, temperature)

    def test_triple_root(self):
        # all three roots of P meet at -sqrt(3) for cutoff sqrt(27), gamma 8/sqrt(27)
        cutoff = np.sqrt(27.0)
        for dg in (0.0, 1e-6):
            for temperature in (1e-3, 1.0, 20.0):
                self._assert_close(8 / cutoff + dg, cutoff, temperature)


class TestSolveKernel:
    @pytest.mark.parametrize("solver", [solve_kernel, _discretize_extrapolate],
                             ids=["matsubara", "discretize-extrapolate"])
    def test_decoupled_exactness_all_methods(self, solver):
        # the production route and the finite-oracle ladder
        for beta in (0.1, 1.0, 10.0):
            k = solver(FREE, beta).validate()
            assert abs(k.omega_s - np.exp(-beta)) < 1e-8
            assert abs(k.pi_s) < 1e-10

    def test_default_method_is_exact_route(self):
        a = solve_kernel(CFG, 0.5)
        b = moments_to_kernel(matsubara_moments(CFG, 0.5))
        assert a.omega_s == b.omega_s and a.pi_s == b.pi_s

    def test_solver_output_validates(self):
        k = solve_kernel(CFG, 0.1)
        assert abs(k.omega_s.imag) < 1e-8
        m = kernel_to_moments(k)
        assert m.occupation > 9.5083  # above the decoupled occupation at T=10
        assert abs(m.squeezing) > 0

    def test_solve_moments_shortcut(self):
        a = solve_moments(CFG, 0.5)
        b = matsubara_moments(CFG, 0.5)
        assert a == b
