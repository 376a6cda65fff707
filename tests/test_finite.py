"""Finite-mode Gaussian machinery against hand constructions and Fock space."""

import functools
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.linalg.lapack import dgetrf, dgetrs

import qbm.finite

from qbm import (InvalidGrid, InvertedPotential, ModeList, NonNormalizable,
                 NonTraceable, SpectralConfig, TruncationError,
                 ZeroTemperature, discretize, fock_oracle,
                 gaussian_partial_trace, moments_from_modes, moments_to_kernel,
                 normal_mode_frequencies, oracle_moments, reduced_partition,
                 total_gaussian)
from qbm.finite import (TotalGaussian, _block_hamiltonian, _fock_once,
                        _normal_modes, _parity_states)
from qbm.spectral import OMEGA_S
from qbm.state import Moments
from kernel_blocks import kernel_blocks, symmetric
from references import log_partition_env, log_partition_total
from secular_reference import moments as secular_moments
from secular_reference import normal_modes as secular_reference_modes
from secular_reference import total_blocks as secular_total_blocks

ONE_MODE = ModeList(frequencies=np.array([2.0]), couplings=np.array([0.3]))
TWO_MODES = ModeList(frequencies=np.array([1.6, 2.3]),
                     couplings=np.array([0.2, -0.15]))


def random_modes(rng, k_c, coupling_scale=0.3):
    freqs = np.sort(0.8 + 2.2 * rng.random(k_c))
    coups = coupling_scale * (rng.random(k_c) - 0.5)
    return ModeList(frequencies=freqs, couplings=coups)


def dense_stiffness(modes, counterterm):
    """Mass-weighted stiffness [[a, g^T], [g, diag(w_k^2)]] as a dense matrix."""
    lam = modes.counterterm_strength if counterterm else 0.0
    k = np.diag(np.concatenate([[OMEGA_S], modes.frequencies])**2)
    k[0, 0] += 4 * OMEGA_S * lam
    k[0, 1:] = k[1:, 0] = 2 * modes.couplings * np.sqrt(OMEGA_S * modes.frequencies)
    return k


class TestTotalGaussian:
    def test_system_only(self):
        modes = ModeList(frequencies=np.array([1.0]), couplings=np.array([0.0]))
        # k_c = 0 is emulated by tracing a fully decoupled single bath mode
        omega, pi = kernel_blocks(total_gaussian(modes, beta=1.0))
        assert omega[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-12)
        assert abs(pi).max() < 1e-14

    def test_decoupled_diagonal(self):
        modes = ModeList(frequencies=np.array([2.0]), couplings=np.array([0.0]))
        omega, pi = kernel_blocks(total_gaussian(modes, beta=1.0))
        np.testing.assert_allclose(omega, np.diag([np.exp(-1), np.exp(-2)]),
                                   atol=1e-13)
        np.testing.assert_allclose(pi, 0, atol=1e-14)

    def test_symmetry_invariants(self):
        rng = np.random.default_rng(1)
        modes = random_modes(rng, 4)
        tg = total_gaussian(modes, beta=1.3, counterterm=True)
        # upper triangles only: nothing of the covariance is left below
        for comp in (tg.plus, tg.minus):
            assert comp.dtype == np.float64
            assert np.all(np.tril(comp, -1) == 0)

    def test_normal_mode_backend_handles_large_grading(self):
        # beta * Omega_max = 480: exp(-beta Omega_j) spans ~200 decades
        modes = discretize(SpectralConfig(0.5, 20.0), 120, 240.0)
        m_kern = oracle_moments(modes, 2.0, counterterm=True)
        m_corr = moments_from_modes(modes, 2.0, counterterm=True)
        assert m_kern.occupation == pytest.approx(m_corr.occupation, rel=1e-11)
        assert m_kern.squeezing == pytest.approx(m_corr.squeezing, rel=1e-9)

    def test_mild_grading_matches_normal_modes(self):
        # beta * Omega_max = 10: the mildly graded end of the route
        modes = discretize(SpectralConfig(0.5, 20.0), 100, 100.0)
        m_kern = oracle_moments(modes, 0.1, counterterm=True)
        m_corr = moments_from_modes(modes, 0.1, counterterm=True)
        assert m_kern.occupation == pytest.approx(m_corr.occupation, rel=1e-11)
        assert m_kern.squeezing == pytest.approx(m_corr.squeezing, rel=1e-11)

    @pytest.mark.parametrize("temperature", [1e3, 1e4])
    @pytest.mark.parametrize("gamma, cutoff, k_c, counterterm", [
        (0.5, 20.0, 100, True), (0.5, 20.0, 200, True),
        (0.04, 20.0, 100, False), (2.0, 10.0, 150, True)])
    def test_high_temperature_matches_normal_modes(self, gamma, cutoff, k_c,
                                                   counterterm, temperature):
        # the reduced complements 1/(1 + n +- s) are tiny here; a route through
        # 1 - Omega_S cancels and loses the squeezing
        modes = discretize(SpectralConfig(gamma, cutoff, counterterm), k_c,
                           2.0 * k_c)
        m_kern = oracle_moments(modes, 1 / temperature, counterterm)
        m_corr = moments_from_modes(modes, 1 / temperature, counterterm)
        scale = 2e-14 * (m_corr.occupation + 0.5)
        assert abs(m_kern.occupation - m_corr.occupation) <= scale
        assert abs(m_kern.squeezing - m_corr.squeezing) <= scale


def bogoliubov_total_gaussian(modes, beta, wj, orth):
    """Reference kernel blocks from the real Bogoliubov matrices.

    The normal modes c_j = At[j, i] a_i + Bt[j, i] a_i^dag with frequencies
    Omega_j = ``wj`` and stiffness eigenvectors ``orth`` give the blocks
    through Q = Bt At^-1 and (1 - Y Q)^-1 with Y = e^- Q^T e^-,
    e^- = diag exp(-beta Omega_j).  The caller passes the normal modes, so
    this checks the covariance algebra of ``total_gaussian`` against the
    Bogoliubov algebra, not one eigensolver against another.  Boltzmann
    factors below 1e-100 are set to zero, which keeps subnormal numbers out
    of the products.  Returns (Omega, Pi).
    """
    n = len(modes) + 1
    freqs = np.concatenate([[OMEGA_S], modes.frequencies])
    rt = np.sqrt(wj[None, :] / freqs[:, None])
    at = (orth * (0.5 * (rt + 1.0 / rt))).T
    bt = (orth * (0.5 * (rt - 1.0 / rt))).T
    em = np.exp(-beta * wj)
    em[em < 1e-100] = 0.0
    lu, piv, _ = dgetrf(at)
    c, _ = dgetrs(lu, piv, np.eye(n), trans=1)     # At^-T
    qt = c @ bt.T                                   # Q^T with Q = Bt At^-1
    y = em[:, None] * qt * em[None, :]
    # Q (1 - Y Q)^-1 through the transposed system
    q_iyq = np.linalg.solve(np.eye(n) - qt @ y.T, qt).T
    xi = em[:, None] * q_iyq * em[None, :]
    core = at.T - bt.T @ qt
    pi = core @ xi @ c - bt.T @ c
    xi_open = em[:, None] * q_iyq    # e^- Q (1 - YQ)^-1, right factor unscaled
    omega = (at.T * em[None, :]) @ at + pi @ (bt.T * em[None, :]) @ at \
        - core @ xi_open @ bt
    return omega, pi


# (modes, beta, counterterm): random 4-mode lists, then discretized baths at
# beta * Omega_max = 10 and 480; the uncompensated baths keep gamma * wc < 1
COVARIANCE_CASES = [
    *[pytest.param(random_modes(np.random.default_rng(seed), 4), beta, ct,
                   id=f"random4-beta{beta}-ct{int(ct)}")
      for seed, beta in ((11, 0.4), (12, 1.3), (13, 6.0))
      for ct in (False, True)],
    *[pytest.param(discretize(SpectralConfig(gamma, 20.0), k_c, omega_max),
                   beta, ct, id=f"bath{k_c}-beta{beta}-gamma{gamma}-ct{int(ct)}")
      for k_c, omega_max, beta in ((100, 100.0, 0.1), (120, 240.0, 2.0))
      for gamma, ct in ((0.5, True), (0.04, False), (0.04, True))],
]


class TestCovarianceKernel:
    """Covariance-form total kernel against the Bogoliubov reference."""

    @pytest.mark.parametrize("modes, beta, counterterm", COVARIANCE_CASES)
    def test_matches_bogoliubov_reference(self, modes, beta, counterterm):
        ref_omega, ref_pi = bogoliubov_total_gaussian(
            modes, beta, *_normal_modes(modes, counterterm, vectors="all"))
        omega, pi = kernel_blocks(total_gaussian(modes, beta, counterterm))
        np.testing.assert_allclose(omega, ref_omega, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pi, ref_pi, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("modes, beta, counterterm", COVARIANCE_CASES)
    def test_complements_positive_definite(self, modes, beta, counterterm):
        # 1 - (Omega +- Pi) = (1/2 + covariance)^-1
        tg = total_gaussian(modes, beta, counterterm)
        for comp in (tg.plus, tg.minus):
            assert np.all(np.tril(comp, -1) == 0)
            ev = np.linalg.eigvalsh(symmetric(comp))
            assert ev[0] > 0 and ev[-1] <= 2

    @pytest.mark.parametrize("counterterm", [False, True])
    def test_saturated_blocks_independent_of_beta(self, counterterm):
        # at beta * Omega_min >= 700 every coth(beta Omega_j / 2) is 1
        modes = discretize(SpectralConfig(0.04, 20.0), 60, 200.0)
        beta = 700.0 / normal_mode_frequencies(modes, counterterm)[0]
        cold = kernel_blocks(total_gaussian(modes, beta, counterterm))
        colder = kernel_blocks(total_gaussian(modes, 2 * beta, counterterm))
        np.testing.assert_allclose(colder[0], cold[0], rtol=0, atol=1e-14)
        np.testing.assert_allclose(colder[1], cold[1], rtol=0, atol=1e-14)


class TestBetaGuard:
    @pytest.mark.parametrize("beta", [np.nan, 0.0, -1.0])
    @pytest.mark.parametrize("entry", [
        total_gaussian, moments_from_modes, log_partition_total,
        log_partition_env, oracle_moments])
    def test_invalid_beta_rejected(self, entry, beta):
        with pytest.raises(InvalidGrid, match="beta must be positive"):
            entry(ONE_MODE, beta)


class TestPartialTrace:
    def test_product_state(self):
        modes = ModeList(frequencies=np.array([2.0]), couplings=np.array([0.0]))
        moments, factor = gaussian_partial_trace(total_gaussian(modes, beta=1.0))
        kernel = moments_to_kernel(moments)
        assert kernel.omega_s == pytest.approx(np.exp(-1.0), rel=1e-12)
        assert abs(kernel.pi_s) < 1e-14
        assert factor == pytest.approx(1 - np.exp(-2.0), rel=1e-12)

    def test_matches_dense_doubled_inversion(self):
        rng = np.random.default_rng(3)
        modes = random_modes(rng, 2)
        tg = total_gaussian(modes, beta=1.1)
        moments, factor = gaussian_partial_trace(tg)
        kernel = moments_to_kernel(moments)
        om, pi = kernel_blocks(tg)
        kc = 2
        mee = np.block([[om[1:, 1:], pi[1:, 1:]],
                        [pi[1:, 1:], om[1:, 1:]]])
        left = np.block([[om[0:1, 1:], pi[0:1, 1:]],
                         [pi[0:1, 1:], om[0:1, 1:]]])
        right = left.T
        red = np.array([[om[0, 0], pi[0, 0]], [pi[0, 0], om[0, 0]]]) \
            + left @ np.linalg.inv(np.eye(2 * kc) - mee) @ right
        assert kernel.omega_s == pytest.approx(red[0, 0], abs=1e-12)
        assert kernel.pi_s == pytest.approx(red[0, 1], abs=1e-12)
        assert factor == pytest.approx(
            np.sqrt(np.linalg.det(np.eye(2 * kc) - mee)), rel=1e-12)

    @staticmethod
    def _hand_built(plus_ee, minus_ee):
        # complements with a system row and column coupled weakly to a
        # hand-set bath block, stored as upper triangles
        n = plus_ee.shape[0] + 1
        plus, minus = np.full((n, n), -0.07), np.full((n, n), -0.03)
        plus[0, 0] = minus[0, 0] = 0.9
        plus[1:, 1:], minus[1:, 1:] = plus_ee, minus_ee
        return TotalGaussian(plus=np.triu(plus), minus=np.triu(minus))

    def test_singular_block_raises(self):
        # C+_EE = 1 - Omega_EE - Pi_EE is positive definite but its
        # condition number is 6e16
        tg = self._hand_built(np.diag([1e-17, 0.6]), np.diag([0.5, 0.8]))
        with pytest.raises(NonTraceable, match="singular"):
            gaussian_partial_trace(tg)

    def test_nonpositive_determinant_raises(self):
        # C+_EE has one negative eigenvalue (1 - 1.1 - 0.4 = -0.5)
        tg = self._hand_built(np.diag([-0.5, 0.6]), np.diag([0.5, 0.8]))
        with pytest.raises(NonTraceable, match="not positive definite"):
            gaussian_partial_trace(tg)

    def test_nonnormalizable_reduced_state_raises(self):
        # C+_EE is positive definite, but C+ is not: c+ = 0.9 - 0.07^2 / 0.001
        # - 0.07^2 / 0.6 < 0
        tg = self._hand_built(np.diag([0.001, 0.6]), np.diag([0.5, 0.8]))
        with pytest.raises(NonNormalizable, match="not both positive"):
            gaussian_partial_trace(tg)

    def test_indefinite_block_raises(self):
        # Omega_EE = diag(1.1, 1.2), Pi_EE = 0: both complements have two
        # negative eigenvalues, so their determinants are positive, but the
        # bath integral diverges all the same
        tg = self._hand_built(np.diag([-0.1, -0.2]), np.diag([-0.1, -0.2]))
        with pytest.raises(NonTraceable, match="not positive definite"):
            gaussian_partial_trace(tg)


class TestNormalModes:
    def test_decoupled(self):
        # zero couplings deflate exactly to the bare modes, sorted in
        modes = ModeList(frequencies=np.array([0.5, 1.5, 2.5]),
                         couplings=np.zeros(3))
        for counterterm in (False, True):
            w, orth = _normal_modes(modes, counterterm, vectors="all")
            np.testing.assert_array_equal(w, [0.5, 1.0, 1.5, 2.5])
            np.testing.assert_array_equal(orth, np.eye(4)[:, [1, 0, 2, 3]])

    def test_two_by_two_closed_form(self):
        w, orth = _normal_modes(ONE_MODE, False, vectors="all")
        k01 = 2 * 0.3 * np.sqrt(2.0)
        tr, det = 1.0 + 4.0, 1.0 * 4.0 - k01**2
        lam = np.array([tr / 2 - np.sqrt(tr**2 / 4 - det),
                        tr / 2 + np.sqrt(tr**2 / 4 - det)])
        np.testing.assert_allclose(w, np.sqrt(lam), rtol=1e-12)
        # rotation by t with tan 2t = 2 K_01 / (K_11 - K_00), up to signs
        t = 0.5 * np.arctan2(2 * k01, 4.0 - 1.0)
        rotation = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
        np.testing.assert_allclose(np.abs(orth), np.abs(rotation), atol=1e-15)

    def test_trace_sum_rule(self):
        rng = np.random.default_rng(4)
        modes = random_modes(rng, 5)
        w = normal_mode_frequencies(modes)
        assert np.sum(w**2) == pytest.approx(
            1.0 + np.sum(modes.frequencies**2), rel=1e-12)

    def test_inverted_potential(self):
        modes = ModeList(frequencies=np.array([0.5]), couplings=np.array([0.5]))
        with pytest.raises(InvertedPotential):
            normal_mode_frequencies(modes)
        with pytest.raises(InvertedPotential):
            total_gaussian(modes, 1.0)
        # counterterm restores stability for the same couplings
        normal_mode_frequencies(modes, counterterm=True)


def edge_gamma(cutoff, k_c, omega_max):
    """Coupling at which the uncompensated discretized bath loses stability.

    lambda = sum V_k^2 / w_k is linear in gamma, and the stiffness is
    positive definite iff OMEGA_S - 4 lambda > 0.
    """
    unit = discretize(SpectralConfig(1.0, cutoff), k_c, omega_max)
    return OMEGA_S / (4 * unit.counterterm_strength)


@functools.lru_cache(maxsize=None)
def secular_reference(gamma, cutoff, k_c, omega_max, counterterm):
    modes = discretize(SpectralConfig(gamma, cutoff), k_c, omega_max)
    start = normal_mode_frequencies(modes, counterterm)**2
    return modes, secular_reference_modes(modes, counterterm, start)


# (gamma, cutoff, k_c, omega_max, counterterm, beta); the third bath is the
# uncompensated one at gamma * cutoff = 0.9
REFERENCE_BATHS = [
    pytest.param(0.5, 20.0, 100, 100.0, True, 0.1, id="bath100-ct1"),
    pytest.param(0.5, 20.0, 120, 240.0, True, 2.0, id="bath120-ct1"),
    pytest.param(0.045, 20.0, 100, 200.0, False, 1.0, id="bath100-gwc0.9-ct0"),
    pytest.param(0.04, 20.0, 150, 200.0, False, 2.0, id="bath150-ct0"),
]


class TestSecularModes:
    """Arrowhead normal modes against 30-digit references and dense LAPACK."""

    @pytest.mark.parametrize("gamma, cutoff, k_c, omega_max, counterterm, beta",
                             REFERENCE_BATHS)
    def test_frequencies_match_30_digit_roots(self, gamma, cutoff, k_c,
                                              omega_max, counterterm, beta):
        modes, (roots, _) = secular_reference(gamma, cutoff, k_c, omega_max,
                                              counterterm)
        ref = np.array([float(mpmath.sqrt(x)) for x in roots])
        w = normal_mode_frequencies(modes, counterterm)
        np.testing.assert_allclose(w, ref, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("gamma, cutoff, k_c, omega_max, counterterm, beta",
                             REFERENCE_BATHS)
    def test_moments_match_30_digit_modes(self, gamma, cutoff, k_c, omega_max,
                                          counterterm, beta):
        # n and s are differences of positive sums of size about n + 1/2
        modes, (roots, weights) = secular_reference(gamma, cutoff, k_c,
                                                    omega_max, counterterm)
        n_ref, s_ref = (float(x) for x in
                        secular_moments(roots, weights, beta))
        m = moments_from_modes(modes, beta, counterterm)
        scale = 1e-13 * (n_ref + 0.5)
        assert abs(m.occupation - n_ref) <= scale
        assert abs(m.squeezing - s_ref) <= scale

    @pytest.mark.parametrize("modes, beta, counterterm", [
        pytest.param(discretize(SpectralConfig(0.5, 20.0), 30, 100.0), 2.0,
                     True, id="bath30-ct1"),
        pytest.param(random_modes(np.random.default_rng(21), 6), 0.7, False,
                     id="random6-ct0"),
    ])
    def test_total_gaussian_matches_30_digit_blocks(self, modes, beta,
                                                    counterterm):
        start = normal_mode_frequencies(modes, counterterm)**2
        omega, pi = secular_total_blocks(modes, beta, counterterm, start)
        tg_omega, tg_pi = kernel_blocks(total_gaussian(modes, beta, counterterm))
        np.testing.assert_allclose(tg_omega, omega, rtol=0, atol=1e-13)
        np.testing.assert_allclose(tg_pi, pi, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("gamma, cutoff, counterterm", [
        (0.5, 20.0, True), (1.0, 40.0, True), (0.04, 20.0, False)])
    def test_large_bath_properties(self, gamma, cutoff, counterterm):
        modes = discretize(SpectralConfig(gamma, cutoff), 400, 10 * cutoff * 4)
        k = dense_stiffness(modes, counterterm)
        w, orth = _normal_modes(modes, counterterm, vectors="all")
        n, eps, norm = len(w), np.finfo(float).eps, np.linalg.norm(k, 2)
        # LAPACK is backward stable: its eigenvalues are off by O(eps |K|)
        assert np.max(np.abs(w**2 - np.linalg.eigvalsh(k))) <= 32 * eps * norm
        assert np.max(np.abs(orth.T @ orth - np.eye(n))) <= n * eps
        assert np.max(np.abs(k @ orth - orth * w**2)) <= n * eps * norm
        assert np.all(np.diff(w) > 0)

    @pytest.mark.parametrize("kind", ["clustered", "tiny-couplings", "wide-range"])
    def test_hard_mode_lists(self, kind):
        # a cluster of poles around OMEGA_S with the outer roots far from it;
        # couplings down to 1e-150 next to zero ones; frequencies over nine
        # decades
        rng = np.random.default_rng(17)
        if kind == "clustered":
            freqs = 1.0 + np.cumsum(rng.uniform(1e-9, 1e-6, 30))
            coups = rng.normal(0, 0.05, 30)
        elif kind == "tiny-couplings":
            freqs = np.sort(rng.uniform(0.1, 5.0, 30))
            coups = rng.normal(0, 1, 30) * 10.0**rng.integers(-150, 0, 30)
            coups[::4] = 0.0
        else:
            freqs = np.sort(10.0**rng.uniform(-4, 5, 30))
            coups = 0.05 * rng.normal(0, 1, 30) * np.sqrt(freqs)
        modes = ModeList(frequencies=freqs, couplings=coups)
        for counterterm in (False, True):
            k = dense_stiffness(modes, counterterm)
            w, orth = _normal_modes(modes, counterterm, vectors="all")
            n, eps, norm = len(w), np.finfo(float).eps, np.linalg.norm(k, 2)
            assert np.max(np.abs(w**2 - np.linalg.eigvalsh(k))) <= 32 * eps * norm
            assert np.max(np.abs(orth.T @ orth - np.eye(n))) <= n * eps
            assert np.max(np.abs(k @ orth - orth * w**2)) <= n * eps * norm

    def test_some_zero_couplings(self):
        modes = ModeList(frequencies=np.array([0.5, 1.2, 1.5, 2.5]),
                         couplings=np.array([0.1, 0.0, -0.2, 0.0]))
        k = dense_stiffness(modes, False)
        w, orth = _normal_modes(modes, False, vectors="all")
        tol = 8 * np.finfo(float).eps
        norm = np.linalg.norm(k, 2)
        assert 1.2 in w and 2.5 in w
        np.testing.assert_allclose(w**2, np.linalg.eigvalsh(k), rtol=0,
                                   atol=tol * norm)
        np.testing.assert_allclose(orth.T @ orth, np.eye(5), atol=tol)
        np.testing.assert_allclose(k @ orth, orth * w**2, atol=tol * norm)
        _, system_row = _normal_modes(modes, False, vectors="system")
        np.testing.assert_array_equal(system_row, orth[0])

    def test_sweep_cap_raises(self, monkeypatch):
        modes = discretize(SpectralConfig(0.5, 20.0), 40, 100.0)
        monkeypatch.setattr(qbm.finite, "_SECULAR_SWEEPS", 1)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge in 1"):
            normal_mode_frequencies(modes, True)


class TestStabilityEdge:
    """The exact Schur-complement test on both sides of gamma * cutoff -> 1."""

    EDGE = (20.0, 100, 200.0)

    def test_just_below_the_edge(self):
        gamma = edge_gamma(*self.EDGE) * (1 - 1e-9)
        modes = discretize(SpectralConfig(gamma, 20.0), 100, 200.0)
        schur = OMEGA_S * (OMEGA_S - 4 * modes.counterterm_strength)
        assert 0 < schur < 1e-8
        w = normal_mode_frequencies(modes)
        assert np.all(np.isfinite(w)) and w[0] > 0
        # det K = schur * prod_k w_k^2: only a lowest root with its relative
        # accuracy intact satisfies it
        log_det = 2 * np.sum(np.log(w)) - 2 * np.sum(np.log(modes.frequencies))
        assert log_det == pytest.approx(np.log(schur), abs=1e-11)
        moments_from_modes(modes, 1.0)

    def test_just_above_the_edge(self):
        gamma = edge_gamma(*self.EDGE) * (1 + 1e-9)
        modes = discretize(SpectralConfig(gamma, 20.0), 100, 200.0)
        for call in (lambda: normal_mode_frequencies(modes),
                     lambda: moments_from_modes(modes, 1.0),
                     lambda: log_partition_total(modes, 1.0),
                     lambda: total_gaussian(modes, 1.0)):
            with pytest.raises(InvertedPotential,
                               match=r"Schur complement .* = -\d\.\d+e-\d+ <= 0"):
                call()
        # the counterterm makes the same couplings stable
        assert normal_mode_frequencies(modes, counterterm=True)[0] > 0


class TestPartitions:
    def test_single_mode_hand_value(self):
        modes = ModeList(frequencies=np.array([1.0]), couplings=np.array([0.0]))
        val = log_partition_env(modes, 1.0)
        assert val == pytest.approx(-np.log(2 * np.sinh(0.5)), rel=1e-12)

    def test_decoupled_factorization(self):
        modes = ModeList(frequencies=np.array([2.0, 3.5]),
                         couplings=np.array([0.0, 0.0]))
        beta = 0.8
        diff = log_partition_total(modes, beta) - log_partition_env(modes, beta)
        assert diff == pytest.approx(-np.log(2 * np.sinh(beta / 2)), rel=1e-12)

    def test_classical_limit(self):
        modes = ONE_MODE
        beta = 1e-6
        w = normal_mode_frequencies(modes)
        assert log_partition_total(modes, beta) == pytest.approx(
            -np.sum(np.log(beta * w)), rel=1e-5)

    def test_reduced_partition_thermal(self):
        n = 1 / (np.e - 1)
        z = reduced_partition(Moments(occupation=n, squeezing=0.0))
        assert z == pytest.approx(np.sqrt(np.e) / (np.e - 1), rel=1e-12)
        assert z == pytest.approx(0.5 / np.sinh(0.5), rel=1e-12)

    def test_reduced_partition_edge(self):
        with pytest.raises(ZeroTemperature):
            reduced_partition(Moments(occupation=0.0, squeezing=0.0))

    @pytest.mark.parametrize("counterterm", [False, True])
    def test_partition_relation(self, counterterm):
        """Z_S^r from moments equals Z_tot sqrt(Omega_S/det Omega) * factor."""
        for modes, beta in ((ONE_MODE, 1.0), (ModeList(
                frequencies=np.array([1.6, 2.4]),
                couplings=np.array([0.25, -0.2])), 0.9)):
            tg = total_gaussian(modes, beta, counterterm)
            moments, factor = gaussian_partial_trace(tg)
            kernel = moments_to_kernel(moments)
            z_moments = reduced_partition(moments)
            ln_z_tot = log_partition_total(modes, beta, counterterm)
            det_om = np.linalg.det(kernel_blocks(tg)[0])
            z_relation = np.exp(ln_z_tot) * np.sqrt(
                kernel.omega_s / det_om) * factor
            assert z_relation == pytest.approx(z_moments, rel=1e-8)


class TestFockOracle:
    @pytest.mark.parametrize("n_max", [0, -1, 2.5, (12, 0), (12, 2.5)])
    def test_invalid_caps_rejected(self, n_max):
        with pytest.raises(InvalidGrid, match="integers >= 1"):
            fock_oracle(ONE_MODE, 1.0, n_max, check_truncation=False)

    @pytest.mark.parametrize("beta", [0.0, -1.0, np.nan])
    def test_invalid_beta_rejected(self, beta):
        with pytest.raises(InvalidGrid, match="beta must be positive"):
            fock_oracle(ONE_MODE, beta, 10, check_truncation=False)

    def test_decoupled_bose_einstein(self):
        modes = ModeList(frequencies=np.array([2.0]), couplings=np.array([0.0]))
        res = fock_oracle(modes, 1.0, 40, check_truncation=False)
        assert res.moments.occupation == pytest.approx(1 / (np.e - 1), rel=1e-10)
        assert abs(res.moments.squeezing) < 1e-12

    @pytest.mark.parametrize("counterterm", [False, True])
    def test_matches_gaussian_machinery(self, counterterm):
        res = fock_oracle(ONE_MODE, 1.0, 50, counterterm,
                          check_truncation=False)
        m = oracle_moments(ONE_MODE, 1.0, counterterm)
        assert res.moments.occupation == pytest.approx(m.occupation, abs=1e-9)
        assert res.moments.squeezing == pytest.approx(m.squeezing, abs=1e-9)

    def test_partition_triple_agreement(self):
        res = fock_oracle(ONE_MODE, 1.0, 50, check_truncation=False)
        m = oracle_moments(ONE_MODE, 1.0)
        # moments route
        assert res.ln_z_reduced == pytest.approx(
            np.log(reduced_partition(m)), abs=1e-9)
        # determinant route
        tg = total_gaussian(ONE_MODE, 1.0)
        moments, factor = gaussian_partial_trace(tg)
        omega_s = moments_to_kernel(moments).omega_s
        ln_z = log_partition_total(ONE_MODE, 1.0) + 0.5 * np.log(
            omega_s / np.linalg.det(kernel_blocks(tg)[0])) + np.log(factor)
        assert res.ln_z_reduced == pytest.approx(ln_z, abs=1e-9)
        # total partition against normal modes
        assert res.ln_z_total == pytest.approx(
            log_partition_total(ONE_MODE, 1.0), abs=1e-9)

    def test_truncation_check_passes_when_converged(self):
        res = fock_oracle(ONE_MODE, 1.0, 44, check_truncation=True)
        assert res.truncation is not None and res.truncation < 1e-8

    def test_truncation_error_detected(self):
        # hot state: occupation ~ 4.5 makes n_max = 40 visibly insufficient
        modes = ModeList(frequencies=np.array([2.0]), couplings=np.array([0.1]))
        with pytest.raises(TruncationError):
            fock_oracle(modes, 0.2, 40, check_truncation=True)

    def test_two_bath_modes(self):
        res = fock_oracle(TWO_MODES, 1.2, (22, 14, 14), counterterm=True,
                          check_truncation=False)
        m = oracle_moments(TWO_MODES, 1.2, counterterm=True)
        assert res.moments.occupation == pytest.approx(m.occupation, abs=5e-8)
        assert res.moments.squeezing == pytest.approx(m.squeezing, abs=5e-8)


def _kron_chain(factors):
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def dense_fock(modes, beta, caps, counterterm):
    """Reference Fock oracle on the dense total space.

    Builds H with Kronecker products, the dense Gibbs state rho from its
    eigenpairs, and n, s from N and aa embedded in the total space.  Returns
    (n, s, ln_z_total, ln_z_reduced, H).
    """
    dims = [c + 1 for c in caps]
    dim = int(np.prod(dims))
    eyes = [np.eye(d) for d in dims]
    ladders = [np.diag(np.sqrt(np.arange(1.0, d)), 1) for d in dims]
    numbers = [np.diag(np.arange(float(d))) for d in dims]
    positions = [a + a.T for a in ladders]

    def embed(i, op):
        return _kron_chain([op if j == i else eyes[j] for j in range(len(dims))])

    h = OMEGA_S * embed(0, numbers[0])
    for k in range(len(modes)):
        h += modes.frequencies[k] * embed(k + 1, numbers[k + 1])
        h += modes.couplings[k] * _kron_chain(
            [positions[j] if j in (0, k + 1) else eyes[j]
             for j in range(len(dims))])
    if counterterm:
        h += modes.counterterm_strength * embed(0, positions[0] @ positions[0])
    w, u = np.linalg.eigh(h)
    p = np.exp(-beta * (w - w[0]))
    z = p.sum()
    rho = (u * p) @ u.T / z
    n = float(np.sum(embed(0, numbers[0]) * rho))
    s = float(np.sum(embed(0, ladders[0] @ ladders[0]) * rho))
    ln_z_total = (np.log(z) - beta * w[0]
                  - beta * (OMEGA_S + np.sum(modes.frequencies)) / 2)
    rest = dim // dims[0]
    rho_s = rho.reshape(dims[0], rest, dims[0], rest).trace(axis1=1, axis2=3)
    q = np.sort(np.linalg.eigvalsh(rho_s))[::-1]
    ratio = q[1] / q[0]
    return n, s, ln_z_total, np.log(np.sqrt(ratio) / (1 - ratio)), h


class TestFockBlockAssembly:
    """Parity-block Fock oracle against the dense total-space reference."""

    CASES = [(ONE_MODE, [12, 12]), (TWO_MODES, [6, 4, 4])]

    @pytest.mark.parametrize("counterterm", [False, True])
    @pytest.mark.parametrize("modes, caps", CASES)
    def test_matches_dense_reference(self, modes, caps, counterterm):
        res = _fock_once(modes, 1.2, caps, counterterm)
        n, s, ln_z_total, ln_z_reduced, _ = dense_fock(modes, 1.2, caps,
                                                       counterterm)
        assert abs(res.moments.occupation - n) < 1e-12
        assert abs(res.moments.squeezing - s) < 1e-12
        assert abs(res.ln_z_total - ln_z_total) < 1e-12
        assert abs(res.ln_z_reduced - ln_z_reduced) < 1e-12

    @pytest.mark.parametrize("counterterm", [False, True])
    @pytest.mark.parametrize("modes, caps", CASES)
    def test_blocks_match_dense_hamiltonian(self, modes, caps, counterterm):
        # n, s and both ln Z are unchanged by the sign of one coupling (the
        # bath parity (-1)^N_k flips it), so check the blocks entry by entry
        dims = [c + 1 for c in caps]
        h = dense_fock(modes, 1.2, caps, counterterm)[4]
        covered = []
        for parity in (0, 1):
            flat, _ = _parity_states(dims, parity)
            block = _block_hamiltonian(modes, dims, flat, counterterm)
            np.testing.assert_allclose(block, h[np.ix_(flat, flat)],
                                       rtol=0, atol=1e-13)
            covered.append(flat)
        assert np.array_equal(np.sort(np.concatenate(covered)),
                              np.arange(len(h)))

    def test_peak_memory_below_one_dense_matrix(self):
        # a single total-space dim x dim array would reach the bound
        dim = 15 * 11 * 11
        tracemalloc.start()
        try:
            fock_oracle(TWO_MODES, 1.2, (14, 10, 10), counterterm=True,
                        check_truncation=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < dim**2 * 8


class TestGaussianIntegralIdentity:
    """Determinant and block-inverse identities of the pairing Gaussian integral."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_determinant_identity(self, dim):
        # admissible class: Hermitian one-body block, symmetric pairing block
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 12:
            raw = 0.25 * (rng.standard_normal((dim, dim))
                          + 1j * rng.standard_normal((dim, dim)))
            theta = (raw + raw.conj().T) / 2
            pair = 0.2 * (rng.standard_normal((dim, dim))
                          + 1j * rng.standard_normal((dim, dim)))
            pair = (pair + pair.T) / 2
            doubled = np.block([[theta, pair],
                                [pair.conj(), theta.conj()]])
            if np.max(np.abs(np.linalg.eigvals(doubled))) >= 0.9:
                continue
            checked += 1
            phi = theta + pair @ np.linalg.inv(np.eye(dim) - theta.T) @ pair.conj()
            lhs = (np.linalg.det(np.eye(dim) - theta)
                   * np.linalg.det(np.eye(dim) - phi))
            rhs = np.linalg.det(np.eye(2 * dim) - doubled)
            assert lhs == pytest.approx(rhs, rel=1e-12)
            # upper-left block of the doubled inverse is (1 - Phi)^-1
            inv = np.linalg.inv(np.eye(2 * dim) - doubled)
            np.testing.assert_allclose(inv[:dim, :dim],
                                       np.linalg.inv(np.eye(dim) - phi),
                                       atol=1e-12)
