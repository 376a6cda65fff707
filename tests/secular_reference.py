"""30-digit references for the normal modes of system plus discretized bath.

The mass-weighted stiffness is the arrowhead K = [[a, g^T], [g, diag(d)]]
with a = 1 (+ 4 lambda with the counterterm), g_k = 2 V_k sqrt(w_k) and
d_k = w_k^2 (OMEGA_S = 1).  Its eigenvalues are the roots of the secular
equation h(x) = a - x - sum_k g_k^2 / (d_k - x), and the system component of
eigenvector j is 1 / sqrt(1 + sum_k g_k^2 / (x_j - d_k)^2).  Everything here
is built in mpmath from the float inputs of a ``ModeList``; each root is
refined by Newton from a float estimate until the step is below 1e-26.
"""

import mpmath
import numpy as np

DPS = 30


def _arrowhead(modes, counterterm):
    w = [mpmath.mpf(float(x)) for x in modes.frequencies]
    v = [mpmath.mpf(float(x)) for x in modes.couplings]
    lam = mpmath.fsum(vk**2 / wk for vk, wk in zip(v, w))
    a = 1 + (4 * lam if counterterm else 0)
    g = [2 * vk * mpmath.sqrt(wk) for vk, wk in zip(v, w)]
    return a, g, [wk**2 for wk in w]


def _refine(a, g2, d, x):
    for _ in range(8):
        inv = [1 / (dk - x) for dk in d]
        h = a - x - mpmath.fsum(gk * u for gk, u in zip(g2, inv))
        slope = -1 - mpmath.fsum(gk * u * u for gk, u in zip(g2, inv))
        step = h / slope
        x -= step
        if abs(step) <= mpmath.mpf(10)**-26 * abs(x):
            return x
    raise ArithmeticError("Newton refinement of a secular root did not converge")


def normal_modes(modes, counterterm, start):
    """Stiffness eigenvalues x_j and system weights O[0, j]^2, as mpf lists.

    ``start`` holds float estimates of the ascending eigenvalues.  The
    refined roots must interlace the d_k strictly, so none is lost or found
    twice.
    """
    with mpmath.workdps(DPS):
        a, g, d = _arrowhead(modes, counterterm)
        g2 = [gk**2 for gk in g]
        roots = [_refine(a, g2, d, mpmath.mpf(float(x))) for x in start]
        bounds = [mpmath.mpf(0)] + d + [mpmath.inf]
        assert all(lo < x < hi for lo, x, hi in zip(bounds, roots, bounds[1:]))
        weights = [1 / (1 + mpmath.fsum(gk / (x - dk)**2 for gk, dk in zip(g2, d)))
                   for x in roots]
        return roots, weights


def moments(roots, weights, beta):
    """(n, s) of the system mode from the normal modes, as mpf."""
    with mpmath.workdps(DPS):
        beta = mpmath.mpf(beta)
        x2, p2 = [], []
        for x, wt in zip(roots, weights):
            omega = mpmath.sqrt(x)
            c = wt / mpmath.tanh(beta * omega / 2)
            x2.append(c / (2 * omega))
            p2.append(c * omega / 2)
        x2, p2 = mpmath.fsum(x2), mpmath.fsum(p2)
        return (x2 + p2) / 2 - mpmath.mpf(1) / 2, (x2 - p2) / 2


def total_blocks(modes, beta, counterterm, start):
    """Kernel blocks (Omega, Pi) of the total Gibbs state, as float arrays.

    From the normal modes: A = F^1/2 O diag(c/Omega) O^T F^1/2,
    B = F^-1/2 O diag(c Omega) O^T F^-1/2 with c = coth(beta Omega / 2) / 2,
    then Omega +- Pi = 1 - (1/2 + {A, B})^-1, all in 30 digits.
    """
    roots, weights = normal_modes(modes, counterterm, start)
    with mpmath.workdps(DPS):
        a, g, d = _arrowhead(modes, counterterm)
        n = len(d) + 1
        beta = mpmath.mpf(beta)
        # F^1/2 = diag(1, sqrt w_k)
        root_f = [mpmath.mpf(1)] + [mpmath.sqrt(mpmath.mpf(float(wk)))
                                    for wk in modes.frequencies]
        orth = mpmath.matrix(n, n)
        for j, (x, wt) in enumerate(zip(roots, weights)):
            orth[0, j] = mpmath.sqrt(wt)
            for k in range(1, n):
                orth[k, j] = g[k - 1] / (x - d[k - 1]) * orth[0, j]
        omegas = [mpmath.sqrt(x) for x in roots]
        c = [1 / (2 * mpmath.tanh(beta * om / 2)) for om in omegas]
        plus_minus = []
        for scale, weight in ((1, [cj / om for cj, om in zip(c, omegas)]),
                              (-1, [cj * om for cj, om in zip(c, omegas)])):
            rows = [[orth[i, j] * root_f[i]**scale for j in range(n)]
                    for i in range(n)]
            cov = mpmath.matrix(n, n)
            for i in range(n):
                for k in range(i, n):
                    cov[i, k] = cov[k, i] = mpmath.fsum(
                        rows[i][j] * weight[j] * rows[k][j] for j in range(n))
            inv = mpmath.inverse(cov + mpmath.eye(n) / 2)
            plus_minus.append(mpmath.eye(n) - inv)
        plus, minus = plus_minus
        to_float = np.vectorize(float)
        return (to_float(np.array((plus + minus).tolist())) / 2,
                to_float(np.array((plus - minus).tolist())) / 2)
