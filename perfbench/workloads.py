"""Seeded op lists, the qbm calls each op makes, and the check of every output.

An op list is a list of passes; a pass is a list of ops.  Its length follows
from ``--seconds`` through fixed nominal costs (measured on a 2-core x86 box
with one BLAS thread), never from the clock, so a run on the same seed and
seconds always does the same work.

* ``states``  -- one pass of unique (gamma, cutoff, T) point queries.
* ``figures`` -- the eight continuum figure datasets for ``FIGURE_DRAWS``
  seeded (cutoff, t_ref) configurations, repeated in whole passes.
* ``discrete`` -- discretized-bath ops of 0.5-4 s each; every pass draws its
  own parameters, so no input repeats across passes.

Ops call qbm through module attributes looked up at call time, so the tracer's
rebinding sees them.  Checks run outside the timed region and call no qbm
function.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

import reference

WORKLOADS = ("states", "figures", "discrete")

# nominal costs that size a run; they fix the work, not the measurement
STATES_OPS_PER_S = 80.0
FIGURES_PASS_S = 0.175
DISCRETE_PASS_S = 13.0
FIGURE_DRAWS = 4  # few enough that each figure op repeats ~140 times in 25 s
CONTINUUM_FIGURES = ("1a", "1b", "2a", "2b", "3a", "3b", "4a", "4b")

# Tolerances.  A check with two tiers counts a miss of the strict tier against
# ok_frac and fails the op only beyond the hard tier; every other check fails
# the op outright.
RTOL_STRICT = 1e-8      # qbm continuum moments vs the 30-digit reference
RTOL_HARD = 1e-5        # 3x the largest miss the n_terms cap causes in the ranges below
UNIT_STRICT = 1e-9      # Bogoliubov |u|^2 - |v|^2 = 1
UNIT_HARD = 1e-2        # loses digits as (omega_r - omega_bar) / omega_r -> eps at weak pairing
FLOOR = 1e-13           # n and s are differences of O(n + 1) terms
IDENTITY_RTOL = 1e-9    # extended Bose-Einstein round trip, U_H = U_Z
CZ_ATOL = 1e-6          # C_H against the central difference of U_Z
ROUTE_TOL = 1e-8        # oracle_moments against moments_from_modes
LADDER_TOL = 1e-4       # k_c = 400 rung against the continuum reference
FOCK_TOL = 1e-5         # Fock oracle against the normal-mode reference
NAIVE_TOL = 1e-4        # figure 5 C_naive against the one-eigvalsh-per-gamma sum

# the figure grids qbm documents as defaults (used to precompute references)
COUPLING_GRID = np.unique(np.concatenate([[1e-6], np.geomspace(1e-4, 0.05, 12),
                                          np.geomspace(0.06, 3.0, 48)]))
FIG2_TEMPS = np.geomspace(0.1, 20.0, 60)
FIG2_GAMMA = 0.5
FIG1_TEMP = 10.0


@dataclass(frozen=True)
class Op:
    kind: str
    params: tuple  # sorted (name, value) pairs, so ops are hashable

    def __getitem__(self, key):
        return dict(self.params)[key]


def _op(kind: str, **params) -> Op:
    return Op(kind, tuple(sorted(params.items())))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n uniform draws on [lo, hi], one per stratum of width (hi - lo) / n, shuffled."""
    strata = list(range(n))
    rng.shuffle(strata)
    return [lo + (hi - lo) * (k + rng.random()) / n for k in strata]


def _jittered_grid(rng: random.Random, side: int, xs: tuple, ys: tuple) -> list[tuple]:
    """One uniform draw in each cell of a side x side grid over xs x ys, shuffled.

    The cost of a states op follows cutoff / T (through n_terms), so its
    quantiles are set by the joint spread of the two.  A jittered grid fixes
    that spread up to one cell, so p50 and the tail move little between seeds,
    while every point stays unique.
    """
    (x0, x1), (y0, y1) = xs, ys
    cells = [(i, j) for i in range(side) for j in range(side)]
    rng.shuffle(cells)
    return [(x0 + (x1 - x0) * (i + rng.random()) / side,
             y0 + (y1 - y0) * (j + rng.random()) / side) for i, j in cells]


def build(workload: str, seed: int, seconds: float) -> list[list[Op]]:
    """The op list of one run: a list of passes."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "states":
        side = max(4, round(math.sqrt(seconds * STATES_OPS_PER_S)))
        points = _jittered_grid(rng, side, (1.0, 100.0), (math.log(1e-4), math.log(20.0)))
        gammas = _stratified(rng, len(points), math.log(1e-3), math.log(3.0))
        return [[_op("state", gamma=math.exp(g), cutoff=c, temperature=math.exp(t))
                 for g, (c, t) in zip(gammas, points)]]
    if workload == "figures":
        cutoffs = _stratified(rng, FIGURE_DRAWS, 5.0, 50.0)
        t_refs = _stratified(rng, FIGURE_DRAWS, math.log(1.0), math.log(10.0))
        one_pass = [_op("figure", figure=f, cutoff=c, t_ref=math.exp(t))
                    for c, t in zip(cutoffs, t_refs) for f in CONTINUUM_FIGURES]
        return [one_pass] * max(1, round(seconds / FIGURES_PASS_S))
    if workload == "discrete":
        return [_discrete_pass(rng) for _ in range(max(1, round(seconds / DISCRETE_PASS_S)))]
    raise ValueError(f"unknown workload {workload!r}")


def _discrete_pass(rng: random.Random) -> list[Op]:
    def ladder():
        return _op("ladder", gamma=_log_uniform(rng, 0.05, 1.0),
                   cutoff=rng.uniform(5.0, 40.0),
                   temperature=_log_uniform(rng, 0.1, 1.5))

    fig5 = _op("figure5", cutoff=rng.uniform(10.0, 30.0))
    compare = _op("oracle_compare", cutoff=rng.uniform(10.0, 30.0))
    fock1 = _op("fock1", freq=rng.uniform(1.0, 3.0), coupling=rng.uniform(0.1, 0.3),
                beta=rng.uniform(0.5, 2.0))
    fock2 = _op("fock2", freq1=rng.uniform(1.5, 2.5), freq2=rng.uniform(2.5, 3.5),
                coupling1=rng.uniform(0.05, 0.25), coupling2=rng.uniform(0.05, 0.25),
                beta=rng.uniform(1.5, 2.5))
    return [fig5, ladder(), fock1, ladder(), compare, ladder(), fock2, ladder()]


# ---------------------------------------------------------------------------
# references computed before timing
# ---------------------------------------------------------------------------

def reference_points(op: Op) -> list[tuple[float, float, float]]:
    """(gamma, cutoff, beta) continuum points whose reference an op's check needs."""
    if op.kind == "state":
        return [(op["gamma"], op["cutoff"], 1.0 / op["temperature"])]
    if op.kind == "figure" and op["figure"] in ("1a", "1b"):
        return [(float(g), op["cutoff"], 1.0 / FIG1_TEMP) for g in COUPLING_GRID]
    if op.kind == "figure" and op["figure"] in ("2a", "2b"):
        return [(FIG2_GAMMA, op["cutoff"], 1.0 / float(t)) for t in FIG2_TEMPS]
    if op.kind == "ladder":
        return [(op["gamma"], op["cutoff"], 1.0 / op["temperature"])]
    return []


class References:
    """Continuum references keyed by (gamma, cutoff, beta), computed once each."""

    def __init__(self):
        self._cache: dict = {}

    def prepare(self, passes: list[list[Op]]) -> None:
        for ops in passes:
            for op in ops:
                for point in reference_points(op):
                    self(*point)

    def __call__(self, gamma: float, cutoff: float, beta: float) -> tuple[float, float]:
        key = (float(gamma), float(cutoff), float(beta))
        if key not in self._cache:
            self._cache[key] = reference.continuum_moments(*key)
        return self._cache[key]


# ---------------------------------------------------------------------------
# the qbm calls of each op
# ---------------------------------------------------------------------------

def runners(qbm) -> dict:
    """Op kind -> callable(op) making that op's qbm calls; ``qbm`` is the package."""
    cli, continuum, finite = qbm.cli, qbm.continuum, qbm.finite
    gibbs, spectral, state, thermo = qbm.gibbs, qbm.spectral, qbm.state, qbm.thermo

    def run_state(op):
        temp = op["temperature"]
        cfg = spectral.SpectralConfig(gamma=op["gamma"], cutoff=op["cutoff"])
        m = continuum.solve_moments(cfg, 1.0 / temp)
        kernel = state.moments_to_kernel(m)
        h = gibbs.reduced_hamiltonian(m, temp)
        frame = gibbs.bogoliubov(h)
        z = finite.reduced_partition(m)
        point = thermo.exact_point(cfg, temp, h=h)  # reuses h: no second solve
        return m, kernel, h, frame, z, point

    def run_dataset(figure, **overrides):
        cfg = cli.parse_config(overrides={**overrides, "timestamp": False})
        ds = cli.run_figure(figure, cfg)
        return ds, cli.render_csv(ds, False)

    def run_compare(op):
        cfg = cli.parse_config(overrides={"cutoff": op["cutoff"], "timestamp": False})
        ds = cli.oracle_compare(cfg)
        return ds, cli.render_csv(ds, False)

    def run_ladder(op):
        cfg = spectral.SpectralConfig(gamma=op["gamma"], cutoff=op["cutoff"])
        beta = 1.0 / op["temperature"]
        rungs = []
        for k_c in (100, 200, 400):
            modes = spectral.discretize(cfg, k_c, 10.0 * op["cutoff"] * k_c / 100)
            rungs.append((k_c, finite.oracle_moments(modes, beta, True),
                          finite.moments_from_modes(modes, beta, True)))
        return rungs

    def run_fock(op, freqs, couplings, caps):
        modes = spectral.ModeList(frequencies=np.array(freqs),
                                  couplings=-np.array(couplings))
        return finite.fock_oracle(modes, op["beta"], caps, True, check_truncation=False)

    return {
        "state": run_state,
        "figure": lambda op: run_dataset(op["figure"], cutoff=op["cutoff"],
                                         t_ref=op["t_ref"]),
        "figure5": lambda op: run_dataset("5", cutoff=op["cutoff"]),
        "oracle_compare": run_compare,
        "ladder": run_ladder,
        "fock1": lambda op: run_fock(op, [op["freq"]], [op["coupling"]], 40),
        "fock2": lambda op: run_fock(op, [op["freq1"], op["freq2"]],
                                     [op["coupling1"], op["coupling2"]], (14, 10, 10)),
    }


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

class CheckFailed(Exception):
    """An output broke an exact identity or missed its reference by the hard tolerance."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * abs(b) + atol


def _tiered(within, strict: float, hard: float, name: str, detail) -> list[str]:
    """[] within ``strict``, [name] within ``hard`` only; raises beyond that."""
    if within(strict):
        return []
    if within(hard):
        return [name]
    raise CheckFailed(f"{name}: {detail}")


def _moments(n: float, s: float, ref: tuple[float, float], name: str) -> list[str]:
    rn, rs = ref
    floor = FLOOR * (abs(rn) + 1)
    return _tiered(lambda tol: _close(n, rn, tol, floor) and _close(s, rs, tol, floor),
                   RTOL_STRICT, RTOL_HARD, name, f"(n, s) = ({n!r}, {s!r}) vs {ref}")


def _ebe(omega: float, delta_abs: float, temperature: float) -> tuple[float, float]:
    """(n, |s|) of the thermal state of omega a^dag a + pairing, computed here."""
    wbar = math.sqrt(omega**2 - delta_abs**2)
    filling = 0.5 / math.tanh(min(wbar / (2 * temperature), 350.0))
    return omega / wbar * filling - 0.5, delta_abs / wbar * filling


def _heat_capacity(freq: float, temperature: float) -> float:
    x = freq / (2 * temperature)
    return (x / math.sinh(x))**2 if x < 350 else 0.0


def _check_state(op, out, refs):
    m, kernel, h, frame, z, point = out
    temp = op["temperature"]
    n, s = m.occupation, m.squeezing
    _require(s.imag == 0, "squeezing must be real")
    misses = _moments(n, s.real, refs(*reference_points(op)[0]), "solve_moments vs reference")
    d = (1 + n)**2 - abs(s)**2
    _require(_close(kernel.omega_s.real, 1 - (1 + n) / d, 1e-12, 1e-15)
             and _close(kernel.pi_s.real, s.real / d, 1e-12, 1e-15), "moments_to_kernel")
    en, es = _ebe(h.omega, abs(h.pairing), temp)
    floor = FLOOR * (abs(n) + 1)
    _require(_close(en, n, IDENTITY_RTOL, floor) and _close(es, abs(s), IDENTITY_RTOL, floor),
             "extended Bose-Einstein does not reproduce the moments")
    norm = abs(frame.u)**2 - abs(frame.v)**2
    misses += _tiered(lambda tol: _close(norm, 1.0, tol), UNIT_STRICT, UNIT_HARD,
                      "bogoliubov normalization", f"|u|^2 - |v|^2 = {norm!r}")
    _require(_close(z, math.sqrt(n * n + n - abs(s)**2), 1e-12), "reduced_partition")
    _require(0.0 <= point.heat_capacity <= 1.0, "C outside [0, 1]")
    wbar = h.eigenfrequency
    u_z = 0.5 * wbar / math.tanh(min(wbar / (2 * temp), 350.0))
    _require(_close(point.internal_energy, u_z, IDENTITY_RTOL), "U_H != U_Z")
    return misses


def _check_dataset_text(ds, text: str) -> None:
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    _require(body[0] == ",".join(ds.columns), "CSV header")
    _require(len(body) == len(ds.rows) + 1, "CSV row count")


def _check_figure(op, out, refs):
    ds, text = out
    _check_dataset_text(ds, text)
    fig, misses = ds.figure_id, []
    for row in ds.rows:
        _require(row[-1] == "", f"figure {fig} row flagged {row[-1]}")
        if fig in ("1a", "1b", "2a", "2b"):
            x = row[0]
            temp = FIG1_TEMP if fig[0] == "1" else x
            point = (x, op["cutoff"], 1 / temp) if fig[0] == "1" else (FIG2_GAMMA, op["cutoff"], 1 / x)
            rn, rs = refs(*point)
            if fig[1] == "a":
                n, s_abs = row[1:3]
            else:  # (omega_r, |Delta_r|) -> moments through extended Bose-Einstein
                n, s_abs = _ebe(row[1], row[2], temp)
            misses += _moments(n, s_abs, (rn, abs(rs)), f"figure {fig} vs reference")
            if fig == "1b":
                _require(_close(row[3], math.sqrt(row[1]**2 - row[2]**2), 1e-12), "omega_bar")
        elif fig == "3a":
            _require(_close(row[2], row[3], IDENTITY_RTOL), "U_from_H != U_from_Z")
        elif fig == "3b":
            _require(0 <= row[2] <= 1 and abs(row[2] - row[3]) <= CZ_ATOL, "C_from_H vs C_from_Z")
        else:  # 4a, 4b
            _require(0 <= row[2] <= 1 and 0 <= row[3] <= 1, "C outside [0, 1]")
            if fig == "4b":
                _require(_close(row[2], _heat_capacity(1.0, row[0]), 1e-12), "drop-pairing C")
    return misses


def _check_figure5(op, out, refs):
    ds, text = out
    _check_dataset_text(ds, text)
    meta = ds.metadata
    by_gamma: dict = {}
    for row in ds.rows:
        _require(row[-1] == "", f"figure 5 row flagged {row[-1]}")
        _require(0 <= row[3] <= 1, "C_exact outside [0, 1]")
        by_gamma.setdefault(row[1], []).append(row)
    for gamma, rows in by_gamma.items():
        freqs, v2 = reference.drude_modes(gamma, meta["cutoff"], meta["k_c"], meta["omega_max"])
        own = reference.naive_heat_capacity(freqs, v2, [r[0] for r in rows])
        off = float(np.max(np.abs(np.array([r[2] for r in rows]) - own)))
        _require(off <= NAIVE_TOL, f"C_naive off the own sum by {off:.2e} at gamma {gamma}")
    return []


def _check_compare(op, out, refs):
    ds, text = out
    _check_dataset_text(ds, text)
    top = max(ds.metadata["ladder"])
    for row in ds.rows:
        if row[-1] == "fock":
            _require(max(row[3:6]) <= FOCK_TOL, "oracle-compare Fock row")
        else:
            _require(row[-1] == "", f"oracle-compare row flagged {row[-1]}")
            if row[2] == top:
                _require(max(row[3:6]) <= LADDER_TOL, "oracle-compare top rung")
    return []


def _check_ladder(op, out, refs):
    rn, rs = refs(*reference_points(op)[0])
    for k_c, via_kernel, via_modes in out:
        _require(abs(via_kernel.occupation - via_modes.occupation) <= ROUTE_TOL
                 and abs(via_kernel.squeezing - via_modes.squeezing) <= ROUTE_TOL,
                 f"oracle_moments vs moments_from_modes at k_c = {k_c}")
    top = out[-1][2]
    _require(abs(top.occupation - rn) <= LADDER_TOL and abs(top.squeezing - rs) <= LADDER_TOL,
             "k_c = 400 rung vs continuum reference")
    return []


def _check_fock(op, out, refs):
    p = dict(op.params)
    freqs = [p[k] for k in ("freq", "freq1", "freq2") if k in p]
    couplings = [p[k] for k in ("coupling", "coupling1", "coupling2") if k in p]
    rn, rs = reference.finite_moments(freqs, np.square(couplings), p["beta"])
    m = out.moments
    _require(abs(m.occupation - rn) <= FOCK_TOL and abs(m.squeezing - rs) <= FOCK_TOL,
             "Fock oracle vs normal-mode reference")
    return []


CHECKS = {
    "state": _check_state,
    "figure": _check_figure,
    "figure5": _check_figure5,
    "oracle_compare": _check_compare,
    "ladder": _check_ladder,
    "fock1": _check_fock,
    "fock2": _check_fock,
}


def check(op: Op, out, refs: References) -> list[str]:
    """Check one op's output.

    Returns the names of the two-tier checks it missed at the strict tier
    (empty when the op is fully ok); raises CheckFailed when the op failed.
    """
    return CHECKS[op.kind](op, out, refs)
