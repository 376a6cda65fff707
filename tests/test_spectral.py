"""Spectral density, bath kernel and self-energy, Bose occupation, discretization."""

import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import sici

from qbm import (InvalidGrid, ModeList, SpectralConfig, discretize,
                 eval_spectral_density)
from qbm.spectral import bose_occupation

from laplace_reference import BranchCut, DivergentKernel, kernel_g, self_energy

CFG = SpectralConfig(gamma=0.5, cutoff=20.0)


def trapezoid_oracle(f, lo, hi, panels=10**6):
    x = np.linspace(lo, hi, panels + 1)
    return np.trapezoid(f(x), x)


class TestSpectralConfig:
    @pytest.mark.parametrize("gamma,cutoff", [
        (float("nan"), 20.0), (float("inf"), 20.0), (-0.1, 20.0),
        (0.5, float("nan")), (0.5, float("inf")), (0.5, 0.0)])
    def test_rejects_invalid(self, gamma, cutoff):
        with pytest.raises(InvalidGrid):
            SpectralConfig(gamma, cutoff)


class TestSpectralDensity:
    def test_zero_coupling(self):
        assert eval_spectral_density(SpectralConfig(0.0, 20.0), 3.7) == 0.0

    def test_vanishes_at_origin(self):
        assert eval_spectral_density(CFG, 0.0) == 0.0

    def test_hand_value(self):
        # 0.5 * 400 / 401 at omega = 1
        assert eval_spectral_density(CFG, 1.0) == pytest.approx(0.5 * 400 / 401,
                                                                rel=1e-12)

    def test_single_interior_maximum_at_cutoff(self):
        w = np.linspace(0.01, 200.0, 20000)
        j = eval_spectral_density(CFG, w)
        assert np.all(j >= 0)
        assert abs(w[np.argmax(j)] - CFG.cutoff) < 0.02

    def test_negative_frequency_rejected(self):
        with pytest.raises(InvalidGrid):
            eval_spectral_density(CFG, -1.0)


class TestKernelG:
    def test_zero_coupling(self):
        assert kernel_g(SpectralConfig(0.0, 20.0), 0.7) == 0.0

    def test_against_trapezoid_oracle(self):
        def integrand(w):
            return eval_spectral_density(CFG, w) * np.exp(-w) / (2 * np.pi)

        oracle = trapezoid_oracle(integrand, 0.0, 300.0)
        assert kernel_g(CFG, 1.0) == pytest.approx(oracle, rel=1e-8)

    def test_closed_form_cross_check(self):
        # int_0^inf w wc^2 e^(-w tau) / (w^2 + wc^2) dw via sine/cosine integrals
        tau, wc = 0.35, CFG.cutoff
        si, ci = sici(wc * tau)
        closed = CFG.gamma * wc**2 / (2 * np.pi) * (
            -np.cos(wc * tau) * ci + np.sin(wc * tau) * (np.pi / 2 - si))
        assert kernel_g(CFG, tau) == pytest.approx(closed, rel=1e-9)

    def test_monotone_decreasing(self):
        assert kernel_g(CFG, 2.0) < kernel_g(CFG, 1.0)

    @pytest.mark.parametrize("tau", [0.0, -1.0])
    def test_divergent_domain(self, tau):
        with pytest.raises(DivergentKernel):
            kernel_g(CFG, tau)


class TestSelfEnergy:
    def test_zero_coupling(self):
        assert self_energy(SpectralConfig(0.0, 20.0), 2 + 3j) == 0

    def test_real_positive_against_quadrature(self):
        val = self_energy(CFG, 5.0)
        ref = self_energy(CFG, 5.0, method="quad")
        assert val.imag == pytest.approx(0.0, abs=1e-13)
        assert val.real > 0
        assert val == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("s", [2 + 3j, 0.3 - 1j, 40 + 0.5j, 0.05 + 0.02j])
    def test_closed_form_matches_quadrature(self, s):
        assert self_energy(CFG, s) == pytest.approx(
            self_energy(CFG, s, method="quad"), rel=1e-9)

    def test_schwarz_reflection(self):
        a = self_energy(CFG, 1 + 2j)
        b = self_energy(CFG, 1 - 2j)
        assert a == pytest.approx(np.conj(b), rel=1e-14)

    def test_decreasing_on_positive_axis(self):
        vals = [self_energy(CFG, s).real for s in (0.5, 1.0, 2.0, 5.0, 20.0)]
        assert np.all(np.diff(vals) < 0)

    def test_branch_cut_raises(self):
        with pytest.raises(BranchCut):
            self_energy(CFG, -1.0)

    def test_prescriptions_bracket_principal_value(self):
        up = self_energy(CFG, -2.0, pv="upper")
        lo = self_energy(CFG, -2.0, pv="lower")
        avg = self_energy(CFG, -2.0, pv="avg")
        assert avg == pytest.approx((up + lo) / 2, rel=1e-14)
        # one-sided limits match evaluations just off the axis
        assert up == pytest.approx(self_energy(CFG, -2.0 + 1e-9j), rel=1e-6)
        assert lo == pytest.approx(self_energy(CFG, -2.0 - 1e-9j), rel=1e-6)


class TestBoseOccupation:
    def test_matches_expm1(self):
        beta = 0.7
        w = np.geomspace(1e-3, 50.0, 40)
        np.testing.assert_allclose(bose_occupation(beta, w),
                                   1.0 / np.expm1(beta * w), rtol=1e-15)
        assert bose_occupation(beta, 2.0) == 1.0 / np.expm1(1.4)

    def test_deep_tail_is_finite_without_warning(self):
        # beta * w = 1e4 would overflow exp; the clipped value is tiny and >= 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = bose_occupation(1e4, 1.0)
            arr = bose_occupation(1.0, np.array([1e4, 1.0]))
        assert np.isfinite(val) and 0.0 <= val < 1e-300
        assert np.all(np.isfinite(arr)) and np.all(arr >= 0)


class TestDiscretize:
    def test_zero_coupling_modes(self):
        modes = discretize(SpectralConfig(0.0, 20.0), 50, 200.0)
        assert np.all(modes.couplings == 0)

    def test_coupling_sum_matches_quadrature(self):
        modes = discretize(CFG, 200, 200.0)
        target = quad(lambda w: eval_spectral_density(CFG, w) / (2 * np.pi),
                      0, 200.0, limit=400, points=[CFG.cutoff])[0]
        assert np.sum(modes.couplings**2) == pytest.approx(target, rel=1e-6)

    def test_doubling_reduces_error(self):
        # weighted sum against the window-truncated quadrature target
        target = quad(lambda w: eval_spectral_density(CFG, w)
                      / (2 * np.pi * (1 + w)), 0, 200.0, limit=400,
                      points=[CFG.cutoff])[0]

        def err(k_c):
            modes = discretize(CFG, k_c, 200.0)
            val = np.sum(modes.couplings**2 / (1 + modes.frequencies))
            return abs(val - target)

        e1, e2 = err(60), err(120)
        assert e2 < 0.5 * e1

    def test_couplings_negative_by_convention(self):
        modes = discretize(CFG, 10, 200.0)
        assert np.all(modes.couplings < 0)

    def test_invalid_grid(self):
        with pytest.raises(InvalidGrid):
            discretize(CFG, 0, 200.0)
        with pytest.raises(InvalidGrid):
            discretize(CFG, 10, -1.0)

    def test_mode_list_invariants(self):
        with pytest.raises(InvalidGrid):
            ModeList(frequencies=np.array([2.0, 1.0]),
                     couplings=np.array([0.1, 0.1]))
        with pytest.raises(InvalidGrid):
            ModeList(frequencies=np.array([1.0]), couplings=np.array([0.1, 0.2]))
