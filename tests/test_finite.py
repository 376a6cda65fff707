"""Finite-mode Gaussian machinery against hand constructions and Fock space."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg.lapack import dgetrf, dgetrs

from qbm import (InvalidGrid, InvertedPotential, ModeList, NonTraceable,
                 SpectralConfig, TruncationError, ZeroTemperature,
                 build_generator, discretize, finite_kernel, fock_oracle,
                 gaussian_partial_trace, kernel_to_moments, log_partition_env,
                 log_partition_total, moments_from_modes,
                 normal_mode_frequencies, oracle_moments, reduced_partition,
                 total_gaussian)
from qbm.finite import (TotalGaussian, _block_hamiltonian, _fock_once,
                        _parity_states, _stable_frequencies, _stiffness)
from qbm.spectral import OMEGA_S
from qbm.state import Moments

ONE_MODE = ModeList(frequencies=np.array([2.0]), couplings=np.array([0.3]))
TWO_MODES = ModeList(frequencies=np.array([1.6, 2.3]),
                     couplings=np.array([0.2, -0.15]))


def random_modes(rng, k_c, coupling_scale=0.3):
    freqs = np.sort(0.8 + 2.2 * rng.random(k_c))
    coups = coupling_scale * (rng.random(k_c) - 0.5)
    return ModeList(frequencies=freqs, couplings=coups)


class TestGenerator:
    def test_hand_construction(self):
        gen = build_generator(ONE_MODE, beta=1.0)
        np.testing.assert_allclose(gen.d, -0.5 * np.array([[1.0, 0.3],
                                                           [0.3, 2.0]]))
        np.testing.assert_allclose(gen.r, -0.5 * np.array([[0.3, 0.0],
                                                           [0.0, 0.3]]))

    def test_zero_coupling_structure(self):
        modes = ModeList(frequencies=np.array([1.5, 2.5]),
                         couplings=np.array([0.0, 0.0]))
        gen = build_generator(modes, beta=2.0)
        assert np.all(gen.r == 0)
        np.testing.assert_allclose(np.diag(gen.d), -1.0 * np.array([1, 1.5, 2.5]))


class TestTotalGaussian:
    def test_system_only(self):
        modes = ModeList(frequencies=np.array([1.0]), couplings=np.array([0.0]))
        # k_c = 0 is emulated by tracing a fully decoupled single bath mode
        tg = total_gaussian(build_generator(modes, beta=1.0))
        assert tg.omega[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-12)
        assert abs(tg.pi).max() < 1e-14

    def test_decoupled_diagonal(self):
        modes = ModeList(frequencies=np.array([2.0]), couplings=np.array([0.0]))
        tg = total_gaussian(build_generator(modes, beta=1.0))
        np.testing.assert_allclose(tg.omega, np.diag([np.exp(-1), np.exp(-2)]),
                                   atol=1e-13)
        np.testing.assert_allclose(tg.pi, 0, atol=1e-14)

    def test_symmetry_invariants(self):
        rng = np.random.default_rng(1)
        modes = random_modes(rng, 4)
        tg = total_gaussian(build_generator(modes, beta=1.3, counterterm=True))
        assert tg.omega.dtype == np.float64 and tg.pi.dtype == np.float64
        np.testing.assert_allclose(tg.omega, tg.omega.T, atol=1e-10)
        np.testing.assert_allclose(tg.pi, tg.pi.T, atol=1e-10)

    def test_normal_mode_backend_handles_large_grading(self):
        # beta * Omega_max = 480: exp(-beta Omega_j) spans ~200 decades
        modes = discretize(SpectralConfig(0.5, 20.0), 120, 240.0)
        m_kern = kernel_to_moments(finite_kernel(modes, 2.0, counterterm=True))
        m_corr = moments_from_modes(modes, 2.0, counterterm=True)
        assert m_kern.occupation == pytest.approx(m_corr.occupation, rel=1e-11)
        assert m_kern.squeezing.real == pytest.approx(m_corr.squeezing.real,
                                                      rel=1e-9)

    def test_mild_grading_matches_normal_modes(self):
        # beta * Omega_max = 10: the mildly graded end of the route
        modes = discretize(SpectralConfig(0.5, 20.0), 100, 100.0)
        m_kern = oracle_moments(modes, 0.1, counterterm=True)
        m_corr = moments_from_modes(modes, 0.1, counterterm=True)
        assert m_kern.occupation == pytest.approx(m_corr.occupation, rel=1e-11)
        assert m_kern.squeezing.real == pytest.approx(m_corr.squeezing.real,
                                                      rel=1e-11)


def bogoliubov_total_gaussian(gen):
    """Reference kernel blocks from the real Bogoliubov matrices.

    The normal modes c_j = At[j, i] a_i + Bt[j, i] a_i^dag with frequencies
    Omega_j give the blocks through Q = Bt At^-1 and (1 - Y Q)^-1 with
    Y = e^- Q^T e^-, e^- = diag exp(-beta Omega_j).  Boltzmann factors below
    1e-100 are set to zero, which keeps subnormal numbers out of the
    products.
    """
    modes, beta = gen.modes, gen.beta
    n = len(modes) + 1
    freqs = np.concatenate([[OMEGA_S], modes.frequencies])
    ev, orth = np.linalg.eigh(_stiffness(modes, gen.counterterm))
    wj = _stable_frequencies(ev)
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
    return TotalGaussian(omega=omega, pi=pi)


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
        gen = build_generator(modes, beta, counterterm)
        tg, ref = total_gaussian(gen), bogoliubov_total_gaussian(gen)
        np.testing.assert_allclose(tg.omega, ref.omega, rtol=0, atol=1e-12)
        np.testing.assert_allclose(tg.pi, ref.pi, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("modes, beta, counterterm", COVARIANCE_CASES)
    def test_complements_positive_definite(self, modes, beta, counterterm):
        # 1 - (Omega +- Pi) = (1/2 + covariance)^-1
        tg = total_gaussian(build_generator(modes, beta, counterterm))
        for block in (tg.omega + tg.pi, tg.omega - tg.pi):
            comp = np.eye(len(block)) - block
            np.testing.assert_array_equal(comp, comp.T)
            ev = np.linalg.eigvalsh(comp)
            assert ev[0] > 0 and ev[-1] <= 2

    @pytest.mark.parametrize("counterterm", [False, True])
    def test_saturated_blocks_independent_of_beta(self, counterterm):
        # at beta * Omega_min >= 700 every coth(beta Omega_j / 2) is 1
        modes = discretize(SpectralConfig(0.04, 20.0), 60, 200.0)
        beta = 700.0 / normal_mode_frequencies(modes, counterterm)[0]
        cold = total_gaussian(build_generator(modes, beta, counterterm))
        colder = total_gaussian(build_generator(modes, 2 * beta, counterterm))
        np.testing.assert_allclose(colder.omega, cold.omega, rtol=0, atol=1e-14)
        np.testing.assert_allclose(colder.pi, cold.pi, rtol=0, atol=1e-14)


class TestBetaGuard:
    @pytest.mark.parametrize("beta", [np.nan, 0.0, -1.0])
    @pytest.mark.parametrize("entry", [
        build_generator, moments_from_modes, log_partition_total,
        log_partition_env, oracle_moments])
    def test_invalid_beta_rejected(self, entry, beta):
        with pytest.raises(InvalidGrid, match="beta must be positive"):
            entry(ONE_MODE, beta)


class TestPartialTrace:
    def test_product_state(self):
        modes = ModeList(frequencies=np.array([2.0]), couplings=np.array([0.0]))
        tg = total_gaussian(build_generator(modes, beta=1.0))
        kernel, factor = gaussian_partial_trace(tg)
        assert kernel.omega_s.real == pytest.approx(np.exp(-1.0), rel=1e-12)
        assert abs(kernel.pi_s) < 1e-14
        assert factor == pytest.approx(1 - np.exp(-2.0), rel=1e-12)

    def test_matches_dense_doubled_inversion(self):
        rng = np.random.default_rng(3)
        modes = random_modes(rng, 2)
        tg = total_gaussian(build_generator(modes, beta=1.1))
        kernel, factor = gaussian_partial_trace(tg)
        om, pi = tg.omega, tg.pi
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
    def _hand_built(om_ee, pi_ee):
        # system row and column coupled weakly to a hand-set bath block
        n = om_ee.shape[0] + 1
        om, pi = np.full((n, n), 0.05), np.full((n, n), 0.02)
        om[1:, 1:], pi[1:, 1:] = om_ee, pi_ee
        return TotalGaussian(omega=om, pi=pi)

    def test_singular_block_raises(self):
        # 1 - Omega_EE - Pi_EE has a zero eigenvalue (up to rounding)
        tg = self._hand_built(np.array([[0.6, 0.0], [0.0, 0.3]]),
                              np.array([[0.4, 0.0], [0.0, 0.1]]))
        with pytest.raises(NonTraceable, match="singular"):
            gaussian_partial_trace(tg)

    def test_nonpositive_determinant_raises(self):
        # 1 - EE has one negative eigenvalue (1 - 1.1 - 0.4 = -0.5)
        tg = self._hand_built(np.array([[1.1, 0.0], [0.0, 0.3]]),
                              np.array([[0.4, 0.0], [0.0, 0.1]]))
        with pytest.raises(NonTraceable, match=r"sign -1, ln\|det\| = "):
            gaussian_partial_trace(tg)


class TestNormalModes:
    def test_decoupled(self):
        modes = ModeList(frequencies=np.array([2.0, 3.0]),
                         couplings=np.array([0.0, 0.0]))
        np.testing.assert_allclose(normal_mode_frequencies(modes),
                                   [1.0, 2.0, 3.0])

    def test_two_by_two_closed_form(self):
        w = normal_mode_frequencies(ONE_MODE)
        k01 = 2 * 0.3 * np.sqrt(2.0)
        tr, det = 1.0 + 4.0, 1.0 * 4.0 - k01**2
        lam = np.array([tr / 2 - np.sqrt(tr**2 / 4 - det),
                        tr / 2 + np.sqrt(tr**2 / 4 - det)])
        np.testing.assert_allclose(w, np.sqrt(lam), rtol=1e-12)

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
            total_gaussian(build_generator(modes, 1.0))
        # counterterm restores stability for the same couplings
        normal_mode_frequencies(modes, counterterm=True)


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
        z = reduced_partition(Moments(occupation=n, squeezing=0j))
        assert z == pytest.approx(np.sqrt(np.e) / (np.e - 1), rel=1e-12)
        assert z == pytest.approx(0.5 / np.sinh(0.5), rel=1e-12)

    def test_reduced_partition_edge(self):
        with pytest.raises(ZeroTemperature):
            reduced_partition(Moments(occupation=0.0, squeezing=0j))

    @pytest.mark.parametrize("counterterm", [False, True])
    def test_partition_relation(self, counterterm):
        """Z_S^r from moments equals Z_tot sqrt(Omega_S/det Omega) * factor."""
        for modes, beta in ((ONE_MODE, 1.0), (ModeList(
                frequencies=np.array([1.6, 2.4]),
                couplings=np.array([0.25, -0.2])), 0.9)):
            tg = total_gaussian(build_generator(modes, beta, counterterm))
            kernel, factor = gaussian_partial_trace(tg)
            z_moments = reduced_partition(kernel_to_moments(kernel))
            ln_z_tot = log_partition_total(modes, beta, counterterm)
            det_om = np.linalg.det(tg.omega)
            z_relation = np.exp(ln_z_tot) * np.sqrt(
                kernel.omega_s.real / det_om) * factor
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
        assert res.moments.squeezing.real == pytest.approx(m.squeezing.real,
                                                           abs=1e-9)

    def test_partition_triple_agreement(self):
        res = fock_oracle(ONE_MODE, 1.0, 50, check_truncation=False)
        m = oracle_moments(ONE_MODE, 1.0)
        # moments route
        assert res.ln_z_reduced == pytest.approx(
            np.log(reduced_partition(m)), abs=1e-9)
        # determinant route
        tg = total_gaussian(build_generator(ONE_MODE, 1.0))
        kernel, factor = gaussian_partial_trace(tg)
        ln_z = log_partition_total(ONE_MODE, 1.0) + 0.5 * np.log(
            kernel.omega_s.real / np.linalg.det(tg.omega)) + np.log(factor)
        assert res.ln_z_reduced == pytest.approx(ln_z, abs=1e-9)
        # total partition against normal modes
        assert res.ln_z_total == pytest.approx(
            log_partition_total(ONE_MODE, 1.0), abs=1e-9)

    def test_truncation_check_passes_when_converged(self):
        res = fock_oracle(ONE_MODE, 1.0, 44, check_truncation=True,
                          truncation_delta=8)
        assert res.truncation is not None and res.truncation < 1e-8

    def test_truncation_error_detected(self):
        # hot state: occupation ~ 4.5 makes n_max = 40 visibly insufficient
        modes = ModeList(frequencies=np.array([2.0]), couplings=np.array([0.1]))
        with pytest.raises(TruncationError):
            fock_oracle(modes, 0.2, 40, check_truncation=True,
                        truncation_delta=10)

    def test_two_bath_modes(self):
        res = fock_oracle(TWO_MODES, 1.2, (22, 14, 14), counterterm=True,
                          check_truncation=False)
        m = oracle_moments(TWO_MODES, 1.2, counterterm=True)
        assert res.moments.occupation == pytest.approx(m.occupation, abs=5e-8)
        assert res.moments.squeezing.real == pytest.approx(m.squeezing.real,
                                                           abs=5e-8)


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
