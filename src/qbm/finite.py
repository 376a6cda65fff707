"""Ground-truth computations for a bath discretized into a finite mode list.

The total Gibbs state of system plus k_c bath modes is Gaussian; the
complements 1 - (Omega +- Pi) of its coherent-state kernel follow in real
arithmetic from the normal-mode covariances of the quadratic Hamiltonian,
and the reduced moments from an exact Gaussian partial trace of them.  A
truncated Fock-space diagonalization provides a brute-force cross-check for
one or two modes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpocon, dpotrf, dpotri, dpotrs

from .errors import (InvalidGrid, InvertedPotential, NonNormalizable,
                     NonTraceable, TruncationError, ZeroTemperature)
from .spectral import OMEGA_S, ModeList
from .state import Moments

# reciprocal 1-norm condition estimate below which a block counts as singular
_RCOND_FLOOR = 1e-14
# sweep cap of the secular-equation root finder; 300 random discretized
# baths (k_c = 100-400, counterterm on and off) took 5-10 sweeps
_SECULAR_SWEEPS = 40
# largest change of n, s or ln Z_red that ``fock_oracle`` accepts when its
# occupation caps are raised by _TRUNCATION_DELTA
_TRUNCATION_TOL = 1e-5
_TRUNCATION_DELTA = 10
_EPS = np.finfo(float).eps


def _check_beta(beta: float) -> None:
    if not beta > 0:    # also rejects NaN
        raise InvalidGrid(f"beta must be positive, got {beta}")


@dataclass(frozen=True)
class TotalGaussian:
    """Complements C+- = 1 - (Omega +- Pi) of the total Gibbs kernel.

    System index first.  Both are symmetric positive definite; only their
    upper triangles are stored, and the strict lower triangles are zero.
    """

    plus: np.ndarray
    minus: np.ndarray


def total_gaussian(modes: ModeList, beta: float,
                   counterterm: bool = False) -> TotalGaussian:
    """Kernel complements C+- of the total Gibbs state of system plus bath.

    With the stiffness O diag(Omega_j^2) O^T, the bare frequencies
    F = diag(1, w_k) and the normal-mode covariances
    c_j = coth(beta Omega_j / 2) / 2, the bare quadratures X, P
    (a = (X + iP)/sqrt 2) have covariances A = F^1/2 O diag(c/Omega) O^T F^1/2
    and B = F^-1/2 O diag(c Omega) O^T F^-1/2, so that
    1 + <a^dag a^T> +- <a a^T> = 1/2 + {A, B}.  The matrix form of
    ``moments_to_kernel`` then gives C+ = (1/2 + A)^-1 and C- = (1/2 + B)^-1.
    No matrix exponential is formed; large beta * Omega_max is harmless.
    """
    _check_beta(beta)
    root = np.sqrt(np.concatenate([[OMEGA_S], modes.frequencies]))[:, None]
    wj, orth = _normal_modes(modes, counterterm, vectors="all")
    c = 0.5 / np.tanh(beta * wj / 2)
    x, p = orth * root, orth / root
    return TotalGaussian(plus=_shifted_inverse((x * (c / wj)) @ x.T),
                         minus=_shifted_inverse((p * (c * wj)) @ p.T))


def _shifted_inverse(cov: np.ndarray) -> np.ndarray:
    """Upper triangle of (1/2 + cov)^-1 by one Cholesky; overwrites ``cov``.

    The strict lower triangle of the result is zero.
    """
    cov[np.diag_indices_from(cov)] += 0.5    # eigenvalues now >= 1/2
    # cov is symmetric, so its transpose is the same matrix in Fortran order
    # and LAPACK works in place
    chol, info = dpotrf(cov.T, overwrite_a=True)   # zeroes the lower triangle
    if info != 0:
        raise np.linalg.LinAlgError(
            f"1/2 + covariance is not positive definite (dpotrf info {info})")
    inv, _ = dpotri(chol, overwrite_c=True)   # fills the upper triangle only
    return inv


def gaussian_partial_trace(tg: TotalGaussian) -> tuple[Moments, float]:
    """Trace out the bath indices of the total kernel.

    Returns the reduced moments and the determinant factor
    ||1 - [[Omega_EE, Pi_EE], [Pi_EE, Omega_EE]]||^(1/2) = (det C+_EE
    det C-_EE)^(1/2) entering the reduced-partition-function relation (the
    2k_c matrix is orthogonally similar to diag(C+_EE, C-_EE)).  The reduced
    complements are the Schur complements c+- = C_SS - C_SE C_EE^-1 C_ES,
    and since C+- inverts 1/2 + covariance, c+- = 1 / (1 + n +- s).  Raises
    ``NonTraceable`` when a bath block is not positive definite (the bath
    integral diverges) or is numerically singular, and ``NonNormalizable``
    when a reduced complement is not positive.
    """
    (c_plus, logdet_plus), (c_minus, logdet_minus) = (
        _bath_schur(tg.plus), _bath_schur(tg.minus))
    if not (c_plus > 0 and c_minus > 0):
        raise NonNormalizable(f"reduced complements {c_plus:.3e}, "
                              f"{c_minus:.3e} are not both positive")
    q_plus, q_minus = 1 / c_plus, 1 / c_minus    # 1 + n +- s
    moments = Moments(occupation=0.5 * (q_plus + q_minus) - 1,
                      squeezing=0.5 * (q_plus - q_minus))
    return moments, float(np.exp(0.5 * (logdet_plus + logdet_minus)))


def _bath_schur(comp: np.ndarray) -> tuple[float, float]:
    """C_SS - C_SE C_EE^-1 C_ES and ln det C_EE of an upper-stored complement.

    C_EE is factored by one Cholesky and guarded by LAPACK's 1-norm
    reciprocal-condition estimate against ``_RCOND_FLOOR``.
    """
    bath, row = comp[1:, 1:], comp[0, 1:]
    chol, info = dpotrf(bath)                # reads the upper triangle
    if info != 0:
        raise NonTraceable(f"1 - (Omega_EE +- Pi_EE) is not positive definite "
                           f"(Cholesky fails at order {info})")
    # 1-norm of the symmetric block from its upper triangle
    size = np.abs(bath)
    norm = np.max(size.sum(axis=0) + size.sum(axis=1) - size.diagonal())
    rcond, _ = dpocon(chol, norm)
    if not rcond >= _RCOND_FLOOR:
        raise NonTraceable(f"1 - (Omega_EE +- Pi_EE) is numerically singular "
                           f"(rcond estimate {rcond:.3e} < {_RCOND_FLOOR})")
    x, _ = dpotrs(chol, row)
    return (float(comp[0, 0] - row @ x),
            2 * float(np.sum(np.log(chol.diagonal()))))


def _normal_modes(modes: ModeList, counterterm: bool,
                  vectors: str | None = None) -> tuple[np.ndarray, np.ndarray | None]:
    """Ascending normal-mode frequencies and, by ``vectors``, the orthogonal O.

    ``vectors`` is None, "system" for the system row O[0] only, or "all".

    The bath couples to the system only, so in mass-weighted coordinates the
    stiffness is the arrowhead K = [[a, g^T], [g, diag(d)]] with
    a = OMEGA_S^2 (+ 4 OMEGA_S lambda with the counterterm),
    g_k = 2 V_k sqrt(OMEGA_S w_k) and d_k = w_k^2; K = O diag(Omega_j^2) O^T.
    A bath mode with g_k^2 = 0 is the eigenpair (d_k, e_k); the other
    eigenvalues are the roots of the secular equation (``_secular_roots``).
    The eigenvectors [1; g_hat / (Omega_j^2 - d)] take the couplings g_hat of
    the arrowhead whose exact eigenvalues are the computed roots (Gu &
    Eisenstat, SIAM J. Matrix Anal. Appl. 16, 172 (1995)), so O is
    orthogonal to working accuracy.  Raises ``InvertedPotential`` when K is
    not positive definite.
    """
    lam = modes.counterterm_strength
    # K > 0 iff its Schur complement a - sum_k g_k^2 / d_k is positive, and
    # that complement is OMEGA_S (OMEGA_S - 4 lambda): OMEGA_S^2 with the
    # counterterm
    schur = OMEGA_S**2 if counterterm else OMEGA_S * (OMEGA_S - 4 * lam)
    if not schur > 0:
        raise InvertedPotential(
            f"stiffness is not positive definite: its Schur complement "
            f"OMEGA_S (OMEGA_S - 4 lambda) = {schur:.6e} <= 0 (coupling too "
            "strong for the model without counterterm)")
    a = OMEGA_S**2 + (4 * OMEGA_S * lam if counterterm else 0.0)
    g = 2 * modes.couplings * np.sqrt(OMEGA_S * modes.frequencies)
    d = modes.frequencies**2
    g2 = g**2
    live = g2 > 0
    dl = d[live]
    sigma, tau = _secular_roots(a, schur, g2[live], dl)
    w2 = np.concatenate([sigma + tau, d[~live]])
    order = np.argsort(w2)
    if vectors is None:
        return np.sqrt(w2[order]), None
    m = len(dl)
    below = dl - sigma[:, None]
    below -= tau[:, None]                     # d_k - Omega_j^2
    # g_hat_k^2 = -prod_j (d_k - Omega_j^2) / prod_{i != k} (d_k - d_i).
    # Pairing d_i with Omega_{i+1}^2 (i < k) or Omega_i^2 (i > k) along the
    # interlacing Omega_0^2 < d_0 < Omega_1^2 < ... puts every factor in
    # [0, 1), so the product cannot overflow and loses no digits to logs
    factors = np.where(np.tri(m, k=-1, dtype=bool), below[1:].T, below[:-1].T)
    gaps = dl[:, None] - dl
    np.fill_diagonal(factors, 1.0)
    np.fill_diagonal(gaps, 1.0)
    factors /= gaps
    g_hat = np.sign(g[live]) * np.sqrt(
        below[0] * -below[m] * np.prod(factors, axis=1))
    cols = np.divide(-g_hat, below, out=below)   # g_hat_k / (Omega_j^2 - d_k)
    first = 1.0 / np.sqrt(1.0 + np.einsum("ij,ij->i", cols, cols))
    if vectors == "system":
        return np.sqrt(w2[order]), np.append(first, np.zeros(len(d) - m))[order]
    cols *= first[:, None]
    orth = np.zeros((len(d) + 1, len(d) + 1))
    orth[0, :m + 1] = first
    orth[1 + np.flatnonzero(live), :m + 1] = cols.T
    dead = 1 + np.flatnonzero(~live)
    orth[dead, m + 1 + np.arange(len(dead))] = 1.0
    return np.sqrt(w2[order]), orth[:, order]


def _secular_roots(a: float, schur: float, g2: np.ndarray,
                   d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Roots sigma_j + tau_j of h(x) = a - x - sum_k g2_k / (d_k - x).

    ``d`` is positive and strictly increasing, ``g2`` positive and
    ``schur`` = a - sum_k g2_k / d_k > 0.  h falls between its poles, so
    root 0 lies in (0, d_0), root j in (d_j-1, d_j) and root m above d_m-1.
    Each root is found as its offset tau from the end sigma of its interval
    that lies nearer to it (the sign of h at the midpoint decides), so every
    difference sigma_j + tau_j - d_k keeps its relative accuracy.  A lowest
    root below d_0 / 2 comes from ``_lowest_root``.

    From a pole p_o, with offsets delta_k = d_k - p_o,
    h = r(tau) + g2_o / tau, r = a - p_o - tau - sum_{k != o} g2_k / (delta_k - tau).
    Newton runs on q = tau r + g2_o, which is smooth through the pole, from
    the secant of q through tau = 0 and the midpoint, inside a bracket that
    every evaluation narrows; a step that leaves the bracket bisects it.  A
    root stops when |h| is within its rounding-error bound (as in LAPACK
    dlaed4) or its bracket is a few ulps wide.  Raises ``LinAlgError`` after
    ``_SECULAR_SWEEPS`` sweeps.
    """
    m = len(d)
    if m == 0:
        return np.zeros(1), np.array([a])
    poles = np.concatenate([[0.0], d])
    weights = np.concatenate([[0.0], g2])
    offsets = poles - poles[:, None]          # offsets[o, k] = p_k - p_o
    np.fill_diagonal(offsets, np.inf)         # the origin's own term stays apart
    work = np.empty_like(offsets)
    # h at the midpoint of each interval (p_j, p_j+1), from its left end; from
    # the end 0 in the form schur - x (1 + sum_k g2_k / (d_k (d_k - x)))
    half = 0.5 * np.diff(poles)
    inv = np.subtract(offsets[:m], half[:, None], out=work[:m])
    np.reciprocal(inv, out=inv)
    mid = a - poles[:m] - half - inv @ weights + weights[:m] / half
    mid[0] = schur - half[0] * (1.0 + inv[0, 1:] @ (g2 / d))
    right = mid >= 0
    origin = np.arange(m + 1)
    origin[:m] += right
    offsets[:m][right] = offsets[1:][right]   # row j now belongs to root j
    lo, hi = np.zeros(m + 1), np.zeros(m + 1)
    lo[:m] = np.where(right, -half, 0.0)
    hi[:m] = np.where(right, 0.0, half)
    # twice the Weyl bound max(a, d_max) + |g| on the top root, taken as an
    # offset from d_max so that a tiny |g| does not round away
    hi[m] = 2 * (max(a - d[-1], 0.0) + np.sqrt(np.sum(g2)))
    sigma, g2o = poles[origin], weights[origin]
    c = a - sigma
    # secant of q through (0, g2_o) and the midpoint; the top root bisects
    t_mid = np.where(right, -half, half)
    step = np.append(g2o[:m] * t_mid / (g2o[:m] - t_mid * mid), 0.5 * hi[m])

    tau = np.empty(m + 1)
    first = int(not right[0])
    if first:
        tau[0] = _lowest_root(schur, g2, d, half[0])
    active, offsets, step = np.arange(first, m + 1), offsets[first:], step[first:]
    for _ in range(_SECULAR_SWEEPS):
        lo_a, hi_a, g2a = lo[active], hi[active], g2o[active]
        t = np.where((step > lo_a) & (step < hi_a), step, 0.5 * (lo_a + hi_a))
        inv = np.subtract(offsets, t[:, None], out=work[:len(t)])
        np.reciprocal(inv, out=inv)           # 1 / (delta_k - tau)
        r = c[active] - t - inv @ weights
        size = np.abs(inv, out=inv) @ weights
        dr = -1.0 - np.square(inv, out=inv) @ weights
        pole = g2a / t
        h = r + pole
        # rounding bound of h, plus |tau h'| for the rounding of tau itself
        bound = _EPS * (8 * (np.abs(c[active]) + np.abs(t) + size + np.abs(pole))
                        + np.abs(t * dr - pole))
        right = h > 0
        lo_a, hi_a = np.where(right, t, lo_a), np.where(right, hi_a, t)
        lo[active], hi[active] = lo_a, hi_a
        done = (np.abs(h) <= bound) | (
            hi_a - lo_a <= 4 * _EPS * np.maximum(np.abs(lo_a), np.abs(hi_a)))
        tau[active[done]] = t[done]
        if done.all():
            return sigma, tau
        if done.any():
            keep = ~done
            active, offsets = active[keep], offsets[keep]
            t, r, dr, g2a = t[keep], r[keep], dr[keep], g2a[keep]
        with np.errstate(divide="ignore", invalid="ignore"):
            # tau - q / q' without the cancellation of the two tau
            step = (t * t * dr - g2a) / (r + t * dr)
    raise np.linalg.LinAlgError(
        f"{len(active)} of {m + 1} secular roots did not converge in "
        f"{_SECULAR_SWEEPS} sweeps")


def _lowest_root(schur: float, g2: np.ndarray, d: np.ndarray, x: float) -> float:
    """Root below ``x`` of f = schur - x (1 + sum_k g2_k / (d_k (d_k - x))).

    This is h rewritten with its Schur complement, so the root keeps its
    relative accuracy however small it is.  f is concave and falling on
    (0, d_0), so Newton from an x where f < 0 decreases monotonically onto
    the root.
    """
    y = g2 / d
    for _ in range(_SECULAR_SWEEPS):
        inv = 1.0 / (d - x)
        u = 1.0 + y @ inv
        step = (schur - x * u) / (u + x * (y @ inv**2))
        x += step
        if step >= -4 * _EPS * x:
            return x
    raise np.linalg.LinAlgError(
        f"the lowest secular root did not converge in {_SECULAR_SWEEPS} steps")


def normal_mode_frequencies(modes: ModeList, counterterm: bool = False) -> np.ndarray:
    """Eigenfrequencies of the coupled stiffness matrix, sorted ascending."""
    return _normal_modes(modes, counterterm)[0]


def reduced_partition(moments: Moments) -> float:
    """Reduced partition function sqrt(n^2 + n - s^2) of the squeezed state."""
    val = moments.occupation**2 + moments.occupation - moments.squeezing**2
    if val <= 1e-300:
        raise ZeroTemperature(
            f"n^2 + n - |s|^2 = {val:.3e} <= 0: zero-temperature edge")
    return math.sqrt(val)


def moments_from_modes(modes: ModeList, beta: float,
                       counterterm: bool = False) -> Moments:
    """Exact moments of the discretized model via normal-mode correlators.

    Equivalent to the Gaussian partial trace (both are exact for the finite
    model) but needs only the frequencies and the system row O[0] of the
    normal modes, from the secular equation; used as a fast route and as an
    independent cross-check of the kernel machinery.
    """
    _check_beta(beta)
    wj, system_row = _normal_modes(modes, counterterm, vectors="system")
    coth = 1.0 / np.tanh(np.minimum(beta * wj / 2, 350.0))
    weight = system_row**2 * coth
    x2 = float(np.sum(weight / (2 * wj)))
    p2 = float(np.sum(weight * wj / 2))
    n = 0.5 * (OMEGA_S * x2 + p2 / OMEGA_S) - 0.5
    s = 0.5 * (OMEGA_S * x2 - p2 / OMEGA_S)
    return Moments(occupation=n, squeezing=s)


@dataclass(frozen=True)
class FockResult:
    """Brute-force oracle output: moments and partition data."""

    moments: Moments
    ln_z_total: float      # -sum_j ln[2 sinh(beta Omega_j / 2)], system + bath
    ln_z_reduced: float    # from the reduced density-matrix spectrum
    truncation: float | None = None


def _ladder(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def fock_oracle(modes: ModeList, beta: float, n_max,
                counterterm: bool = False,
                check_truncation: bool = True) -> FockResult:
    """Diagonalize the truncated Fock-space Hamiltonian and trace numerically.

    ``n_max`` is a single occupation cap or one per mode (system first);
    caps are integers >= 1.  Total parity is conserved, so the Hamiltonian
    is built, diagonalized and traced over the bath in two parity blocks.
    The truncation error is estimated by re-running with every cap raised
    by ``_TRUNCATION_DELTA``; a change above ``_TRUNCATION_TOL`` raises
    ``TruncationError``.
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
    bigger = _fock_once(modes, beta, [c + _TRUNCATION_DELTA for c in caps],
                        counterterm)
    drift = max(abs(result.moments.occupation - bigger.moments.occupation),
                abs(result.moments.squeezing - bigger.moments.squeezing),
                abs(result.ln_z_reduced - bigger.ln_z_reduced))
    if drift > _TRUNCATION_TOL:
        raise TruncationError(
            f"n_max sensitivity {drift:.3e} exceeds {_TRUNCATION_TOL}")
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
    return FockResult(moments=Moments(occupation=n, squeezing=s),
                      ln_z_total=ln_z_total, ln_z_reduced=ln_z_reduced)


def oracle_moments(modes: ModeList, beta: float,
                   counterterm: bool = False) -> Moments:
    """Moments of the discretized model through the Gaussian partial trace."""
    return gaussian_partial_trace(total_gaussian(modes, beta, counterterm))[0]
