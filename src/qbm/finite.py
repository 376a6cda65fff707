"""Ground-truth computations for a bath discretized into a finite mode list.

The total Gibbs state of system plus k_c bath modes is Gaussian; its
coherent-state kernel blocks (Omega, Pi) follow in real arithmetic from the
normal-mode covariances of the quadratic Hamiltonian, and the reduced kernel
from an exact Gaussian partial trace.  A truncated Fock-space diagonalization
provides a brute-force cross-check for one or two modes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgecon, dgetrf, dgetrs, dpotrf, dpotri

from .errors import (InvalidGrid, InvertedPotential, NonTraceable,
                     TruncationError, ZeroTemperature)
from .spectral import OMEGA_S, ModeList
from .state import GaussianKernel, Moments, kernel_to_moments

# reciprocal 1-norm condition estimate below which a block counts as singular
_RCOND_FLOOR = 1e-14


def _check_beta(beta: float) -> None:
    if not beta > 0:    # also rejects NaN
        raise InvalidGrid(f"beta must be positive, got {beta}")


@dataclass(frozen=True)
class Generator:
    """Half-generator blocks (D, R) of the total Gibbs Gaussian.

    D and R follow the hand-construction convention with prefactor -beta/2:
    the Gibbs exponent in a faithful matrix representation is twice the block
    matrix [[D, R], [-R_hat, -D_tilde]].  ``total_gaussian`` does not
    exponentiate it; it evaluates the same state from the normal-mode
    covariances of ``modes`` at ``beta``.
    """

    d: np.ndarray
    r: np.ndarray
    modes: ModeList
    beta: float
    counterterm: bool


@dataclass(frozen=True)
class TotalGaussian:
    """Real kernel blocks of the total Gaussian state, system index first."""

    omega: np.ndarray
    pi: np.ndarray


def build_generator(modes: ModeList, beta: float,
                    counterterm: bool = False) -> Generator:
    """Populate the half-generator blocks for the given mode list.

    Column order of R follows the reflected layout of the second operator
    group (bath modes in reversed order, system last); the counterterm adds
    a system-frequency shift and a system-system pairing entry.
    """
    _check_beta(beta)
    kc = len(modes)
    n = kc + 1
    lam = modes.counterterm_strength if counterterm else 0.0
    d = np.zeros((n, n))
    d[0, 0] = OMEGA_S + 2 * lam
    d[0, 1:] = modes.couplings
    d[1:, 0] = modes.couplings
    d[np.arange(1, n), np.arange(1, n)] = modes.frequencies
    r = np.zeros((n, n))
    r[0, :kc] = modes.couplings[::-1]
    r[1:, kc] = modes.couplings
    r[0, kc] = 2 * lam
    scale = -beta / 2.0
    return Generator(d=scale * d, r=scale * r, modes=modes, beta=beta,
                     counterterm=counterterm)


def total_gaussian(gen: Generator) -> TotalGaussian:
    """Kernel blocks (Omega, Pi) of the total Gibbs state of ``gen``.

    With the stiffness O diag(Omega_j^2) O^T, the bare frequencies
    F = diag(1, w_k) and the normal-mode covariances
    c_j = coth(beta Omega_j / 2) / 2, the bare quadratures X, P
    (a = (X + iP)/sqrt 2) have covariances A = F^1/2 O diag(c/Omega) O^T F^1/2
    and B = F^-1/2 O diag(c Omega) O^T F^-1/2, so that
    1 + <a^dag a^T> +- <a a^T> = 1/2 + {A, B}.  The matrix form of
    ``moments_to_kernel`` then gives Omega +- Pi = 1 - (1/2 + {A, B})^-1.
    No matrix exponential is formed; large beta * Omega_max is harmless.
    """
    modes = gen.modes
    root = np.sqrt(np.concatenate([[OMEGA_S], modes.frequencies]))[:, None]
    ev, orth = np.linalg.eigh(_stiffness(modes, gen.counterterm))
    wj = _stable_frequencies(ev)
    c = 0.5 / np.tanh(gen.beta * wj / 2)
    x, p = orth * root, orth / root
    plus = _one_minus_shifted_inverse((x * (c / wj)) @ x.T)
    minus = _one_minus_shifted_inverse((p * (c * wj)) @ p.T)
    return TotalGaussian(omega=0.5 * (plus + minus), pi=0.5 * (plus - minus))


def _one_minus_shifted_inverse(cov: np.ndarray) -> np.ndarray:
    """1 - (1/2 + cov)^-1 by one Cholesky factorization; overwrites ``cov``."""
    cov[np.diag_indices_from(cov)] += 0.5    # eigenvalues now >= 1/2
    chol, info = dpotrf(cov, overwrite_a=True)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"1/2 + covariance is not positive definite (dpotrf info {info})")
    inv, _ = dpotri(chol, overwrite_c=True)   # fills the upper triangle only
    return np.eye(len(inv)) - np.triu(inv) - np.triu(inv, 1).T


def _guarded_solve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Solve a x = b from one LU of ``a``; also return sign and ln|det a|.

    Raises ``NonTraceable`` when the LAPACK 1-norm estimate of the reciprocal
    condition number is below ``_RCOND_FLOOR``.
    """
    lu, piv, info = dgetrf(a)
    rcond, _ = dgecon(lu, np.abs(a).sum(axis=0).max())
    if info > 0 or not rcond >= _RCOND_FLOOR:
        raise NonTraceable(f"1 - EE block is numerically singular "
                           f"(rcond estimate {rcond:.3e} < {_RCOND_FLOOR})")
    x, _ = dgetrs(lu, piv, b)
    diag = np.diag(lu)
    swaps = np.count_nonzero(piv != np.arange(len(piv)))
    sign = (-1.0) ** swaps * float(np.prod(np.sign(diag)))
    return x, sign, float(np.sum(np.log(np.abs(diag))))


def gaussian_partial_trace(tg: TotalGaussian) -> tuple[GaussianKernel, float]:
    """Trace out the bath indices of the total kernel.

    Returns the reduced scalar kernel and the determinant factor
    ||1 - [[Omega_EE, Pi_EE], [Pi_EE, Omega_EE]]||^(1/2) entering the
    reduced-partition-function relation.  For real blocks that 2k_c matrix
    is orthogonally similar to diag(1 - Omega_EE - Pi_EE,
    1 - Omega_EE + Pi_EE), so two k_c systems replace it.  Raises
    ``NonTraceable`` when either block is numerically singular or the
    determinant is not positive (the bath integral diverges).
    """
    om, pi = tg.omega, tg.pi
    if om.shape[0] == 1:
        return GaussianKernel(omega_s=complex(om[0, 0]),
                              pi_s=complex(pi[0, 0])), 1.0
    eye = np.eye(om.shape[0] - 1)
    u, v = om[0, 1:] + pi[0, 1:], om[0, 1:] - pi[0, 1:]
    x_plus, sign_plus, logdet_plus = _guarded_solve(
        eye - om[1:, 1:] - pi[1:, 1:], u)
    x_minus, sign_minus, logdet_minus = _guarded_solve(
        eye - om[1:, 1:] + pi[1:, 1:], v)
    sign, logdet = sign_plus * sign_minus, logdet_plus + logdet_minus
    if sign <= 0:
        raise NonTraceable(f"det(1 - EE block) is not positive: sign {sign:+.0f}, "
                           f"ln|det| = {logdet:.6e}")
    up, vm = float(u @ x_plus), float(v @ x_minus)
    return GaussianKernel(omega_s=complex(om[0, 0] + 0.5 * (up + vm)),
                          pi_s=complex(pi[0, 0] + 0.5 * (up - vm))), \
        float(np.exp(0.5 * logdet))


def finite_kernel(modes: ModeList, beta: float,
                  counterterm: bool = False) -> GaussianKernel:
    """Reduced kernel of the discretized model (generator + partial trace)."""
    gen = build_generator(modes, beta, counterterm)
    kernel, _ = gaussian_partial_trace(total_gaussian(gen))
    return kernel


def _stiffness(modes: ModeList, counterterm: bool) -> np.ndarray:
    lam = modes.counterterm_strength if counterterm else 0.0
    freqs = np.concatenate([[OMEGA_S], modes.frequencies])
    k = np.diag(freqs**2)
    k[0, 0] += 4 * OMEGA_S * lam
    coupling = 2 * modes.couplings * np.sqrt(OMEGA_S * modes.frequencies)
    k[0, 1:] = coupling
    k[1:, 0] = coupling
    return k


def _stable_frequencies(ev: np.ndarray) -> np.ndarray:
    """Square roots of ascending stiffness eigenvalues; the lowest must be > 0."""
    if ev[0] <= 0:
        raise InvertedPotential(
            f"stiffness matrix has eigenvalue {ev[0]:.6e} <= 0 "
            "(coupling too strong for the model without counterterm)")
    return np.sqrt(ev)


def normal_mode_frequencies(modes: ModeList, counterterm: bool = False) -> np.ndarray:
    """Eigenfrequencies of the coupled stiffness matrix, sorted ascending."""
    return _stable_frequencies(np.linalg.eigvalsh(_stiffness(modes, counterterm)))


def log_partition_total(modes: ModeList, beta: float,
                        counterterm: bool = False) -> float:
    """ln Z of the total model: -sum_j ln[2 sinh(beta Omega_j / 2)]."""
    _check_beta(beta)
    w = normal_mode_frequencies(modes, counterterm)
    return float(-np.sum(_log_2sinh_half(beta * w)))


def log_partition_env(modes: ModeList, beta: float) -> float:
    """ln Z of the decoupled bath: -sum_k ln[2 sinh(beta w_k / 2)]."""
    _check_beta(beta)
    return float(-np.sum(_log_2sinh_half(beta * modes.frequencies)))


def _log_2sinh_half(x: np.ndarray) -> np.ndarray:
    # ln(2 sinh(x/2)) = x/2 + ln(1 - exp(-x)), stable for large x
    x = np.asarray(x, dtype=float)
    return x / 2 + np.log1p(-np.exp(-np.minimum(x, 700.0)))


def reduced_partition(moments: Moments) -> float:
    """Reduced partition function sqrt(n^2 + n - |s|^2) of the squeezed state."""
    val = (moments.occupation**2 + moments.occupation
           - abs(moments.squeezing)**2)
    if val <= 1e-300:
        raise ZeroTemperature(
            f"n^2 + n - |s|^2 = {val:.3e} <= 0: zero-temperature edge")
    return float(np.sqrt(val))


def moments_from_modes(modes: ModeList, beta: float,
                       counterterm: bool = False) -> Moments:
    """Exact moments of the discretized model via normal-mode correlators.

    Equivalent to the Gaussian partial trace (both are exact for the finite
    model) but reduces to a single symmetric eigenproblem; used as a fast
    route and as an independent cross-check of the kernel machinery.
    """
    _check_beta(beta)
    k = _stiffness(modes, counterterm)
    ev, orth = np.linalg.eigh(k)
    wj = _stable_frequencies(ev)
    coth = 1.0 / np.tanh(np.minimum(beta * wj / 2, 350.0))
    weight = orth[0]**2 * coth
    x2 = float(np.sum(weight / (2 * wj)))
    p2 = float(np.sum(weight * wj / 2))
    n = 0.5 * (OMEGA_S * x2 + p2 / OMEGA_S) - 0.5
    s = 0.5 * (OMEGA_S * x2 - p2 / OMEGA_S)
    return Moments(occupation=n, squeezing=complex(s))


@dataclass(frozen=True)
class FockResult:
    """Brute-force oracle output: moments and partition data."""

    moments: Moments
    ln_z_total: float      # position convention, matches log_partition_total
    ln_z_reduced: float    # from the reduced density-matrix spectrum
    truncation: float | None = None


def _ladder(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def fock_oracle(modes: ModeList, beta: float, n_max,
                counterterm: bool = False, check_truncation: bool = True,
                truncation_delta: int = 10,
                truncation_tol: float = 1e-5) -> FockResult:
    """Diagonalize the truncated Fock-space Hamiltonian and trace numerically.

    ``n_max`` is a single occupation cap or one per mode (system first);
    caps are integers >= 1.  Total parity is conserved, so the Hamiltonian
    is built, diagonalized and traced over the bath in two parity blocks.
    The truncation error is estimated by re-running with every cap raised
    by ``truncation_delta``.
    """
    _check_beta(beta)
    kc = len(modes)
    if kc not in (1, 2):
        raise InvalidGrid("fock_oracle supports 1 or 2 bath modes")
    caps = [n_max] * (kc + 1) if np.isscalar(n_max) else list(n_max)
    if len(caps) != kc + 1:
        raise InvalidGrid("n_max must be scalar or one entry per mode")
    if not all(isinstance(c, (int, np.integer)) and c >= 1 for c in caps):
        raise InvalidGrid("occupation caps must be integers >= 1")
    result = _fock_once(modes, beta, caps, counterterm)
    if not check_truncation:
        return result
    bigger = _fock_once(modes, beta, [c + truncation_delta for c in caps],
                        counterterm)
    drift = max(abs(result.moments.occupation - bigger.moments.occupation),
                abs(result.moments.squeezing - bigger.moments.squeezing),
                abs(result.ln_z_reduced - bigger.ln_z_reduced))
    if drift > truncation_tol:
        raise TruncationError(
            f"n_max sensitivity {drift:.3e} exceeds {truncation_tol}")
    return FockResult(moments=bigger.moments, ln_z_total=bigger.ln_z_total,
                      ln_z_reduced=bigger.ln_z_reduced, truncation=float(drift))


def _parity_states(dims, parity: int):
    """Flat indices of the Fock states whose total occupation has ``parity``.

    They are ordered by system parity q, then system occupation, then bath
    state, so the states of each q form a contiguous (system occupation) x
    (bath state) product.  Returns the indices and, per q, the two sizes of
    that product.
    """
    bath = np.indices(dims[1:]).reshape(len(dims) - 1, -1).sum(axis=0) % 2
    flat, splits = [], []
    for q in (0, 1):
        system = np.arange(q, dims[0], 2)
        bath_states = np.flatnonzero(bath == (parity + q) % 2)
        flat.append((system[:, None] * len(bath) + bath_states).ravel())
        splits.append((len(system), len(bath_states)))
    return np.concatenate(flat), splits


def _block_hamiltonian(modes: ModeList, dims, flat: np.ndarray,
                       counterterm: bool) -> np.ndarray:
    """Truncated Hamiltonian restricted to the Fock states ``flat``.

    Each term is a coefficient times a product of small per-mode factors.
    Every combination of the factors' nonzero diagonals moves each state by a
    fixed occupation offset, so it fills one entry per row of the block.
    """
    occupations = np.unravel_index(flat, dims)
    local = np.full(int(np.prod(dims)), -1)
    local[flat] = np.arange(len(flat))
    numbers = [np.diag(np.arange(float(d))) for d in dims]
    positions = [_ladder(d) + _ladder(d).T for d in dims]
    terms = [(OMEGA_S, {0: numbers[0]})]
    for k, (freq, coupling) in enumerate(zip(modes.frequencies,
                                             modes.couplings)):
        terms.append((freq, {k + 1: numbers[k + 1]}))
        terms.append((coupling, {0: positions[0], k + 1: positions[k + 1]}))
    if counterterm:
        # the truncated square: its top diagonal entry is d - 1, not 2d - 1
        terms.append((modes.counterterm_strength,
                      {0: positions[0] @ positions[0]}))

    h = np.zeros((len(flat), len(flat)))
    for coefficient, factors in terms:
        diagonals = [[(j, offset) for offset in range(1 - dims[j], dims[j])
                      if np.any(factor.diagonal(offset))]
                     for j, factor in factors.items()]
        for combination in itertools.product(*diagonals):
            moved = list(occupations)
            inside = np.ones(len(flat), dtype=bool)
            amplitude = np.full(len(flat), float(coefficient))
            for j, offset in combination:
                moved[j] = occupations[j] + offset
                inside &= (moved[j] >= 0) & (moved[j] < dims[j])
                moved[j] = np.clip(moved[j], 0, dims[j] - 1)
                amplitude *= factors[j][occupations[j], moved[j]]
            rows = np.flatnonzero(inside)
            columns = local[np.ravel_multi_index([m[rows] for m in moved],
                                                 dims)]
            h[rows, columns] += amplitude[rows]
    return h


def _reduced_block(modes: ModeList, beta: float, dims, parity: int,
                   counterterm: bool):
    """Diagonalize one parity block and trace its Gibbs weight over the bath.

    Returns the block's ground energy e_0, its partition sum relative to e_0
    and the system matrix Tr_E of its unnormalized exp(-beta (H - e_0)).
    """
    flat, splits = _parity_states(dims, parity)
    w, u = np.linalg.eigh(_block_hamiltonian(modes, dims, flat, counterterm))
    weights = np.exp(-beta * (w - w[0]))
    u *= np.sqrt(weights)
    rho_s = np.zeros((dims[0], dims[0]))
    start = 0
    for q, (n_system, n_bath) in enumerate(splits):
        # one row per system occupation of parity q; bath states and
        # eigenvectors run along it, so the product sums over both
        rows = u[start:start + n_system * n_bath].reshape(n_system, -1)
        rho_s[q::2, q::2] = rows @ rows.T
        start += n_system * n_bath
    return w[0], float(np.sum(weights)), rho_s


def _fock_once(modes: ModeList, beta: float, caps, counterterm: bool) -> FockResult:
    # occupancy parity is conserved, so each parity block is built,
    # diagonalized and traced over the bath on its own; no total-space
    # matrix is formed
    dims = [c + 1 for c in caps]
    blocks = [_reduced_block(modes, beta, dims, parity, counterterm)
              for parity in (0, 1)]
    e0 = min(e for e, _, _ in blocks)
    z, rho_s = 0.0, np.zeros((dims[0], dims[0]))
    for e, z_block, rho_block in blocks:
        shift = np.exp(-beta * (e - e0))
        z += shift * z_block
        rho_s += shift * rho_block
    rho_s /= z
    n = float(np.arange(dims[0]) @ np.diag(rho_s))
    ladder = _ladder(dims[0])
    s = float(np.sum((ladder @ ladder) * rho_s))  # Tr(aa rho_S), rho_S symmetric
    ln_z_h = float(np.log(z) - beta * e0)
    ln_z_total = ln_z_h - beta * (OMEGA_S + float(np.sum(modes.frequencies))) / 2

    p = np.sort(np.linalg.eigvalsh(rho_s))[::-1]
    ratio = p[1] / p[0]
    ln_z_reduced = float(np.log(np.sqrt(ratio) / (1 - ratio)))
    return FockResult(moments=Moments(occupation=n, squeezing=complex(s)),
                      ln_z_total=ln_z_total, ln_z_reduced=ln_z_reduced)


def oracle_moments(modes: ModeList, beta: float,
                   counterterm: bool = False) -> Moments:
    """Moments of the discretized model through the Gaussian machinery."""
    return kernel_to_moments(finite_kernel(modes, beta, counterterm))
