"""Acceptance criteria, one test per criterion, each printing a verdict line.

Two criteria assert target properties that the exact solution of the model
does not possess; they are implemented faithfully at
their stated tolerances and marked as strict expected failures, with the
measured values printed for the record (see notes in the repository README).
Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict.
"""

import time

import numpy as np
import pytest

from qbm import (ModeList, SpectralConfig, bogoliubov, discretize,
                 exact_curves, extended_bose_einstein, fock_oracle,
                 heat_capacity_exact, incomplete_frequency,
                 internal_energy_hamiltonian, matsubara_moments,
                 moments_to_kernel, naive_curves, oracle_moments,
                 reduced_hamiltonian, reduced_hamiltonian_at, reduced_partition)
from qbm.cli import FIGURE_IDS, parse_config, render_csv, run_figure
from qbm.finite import gaussian_partial_trace, total_gaussian
from qbm.gibbs import ReducedHamiltonian
from kernel_blocks import kernel_blocks
from references import kernel_to_moments, log_partition_total

CUTOFF = 20.0
T_REF = 5.0


def _verdict(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:>2}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_decoupled_exactness():
    cfg = SpectralConfig(0.0, CUTOFF)
    start = time.time()
    worst_omega = worst_pi = worst_n = 0.0
    for beta in (0.1, 1.0, 10.0):
        kernel = moments_to_kernel(matsubara_moments(cfg, beta))
        moments = kernel_to_moments(kernel)
        worst_omega = max(worst_omega, abs(kernel.omega_s - np.exp(-beta)))
        worst_pi = max(worst_pi, abs(kernel.pi_s))
        worst_n = max(worst_n, abs(moments.occupation - 1 / np.expm1(beta)))
    ok = worst_omega < 1e-8 and worst_pi < 1e-10 and worst_n < 1e-8
    _verdict(1, ok, f"decoupled exactness: |dOmega|={worst_omega:.2e}, "
                    f"|Pi|={worst_pi:.2e}, |dn|={worst_n:.2e} "
                    f"({time.time()-start:.1f}s)")


def test_criterion_2_oracle_triangle():
    rng = np.random.default_rng(20260808)
    start = time.time()
    worst = 0.0
    cases = []
    for i in range(7):
        cases.append((ModeList(frequencies=np.array([rng.uniform(1.3, 3.0)]),
                               couplings=np.array([rng.uniform(-0.4, 0.4)])),
                      rng.uniform(0.8, 2.0), 60, bool(i % 2)))
    for i in range(3):
        freqs = np.sort(rng.uniform(1.2, 2.8, size=2))
        while freqs[1] - freqs[0] < 0.1:
            freqs = np.sort(rng.uniform(1.2, 2.8, size=2))
        cases.append((ModeList(frequencies=freqs,
                               couplings=rng.uniform(-0.25, 0.25, size=2)),
                      rng.uniform(1.0, 2.0), (22, 14, 14), True))
    for modes, beta, n_max, counterterm in cases:
        fock = fock_oracle(modes, beta, n_max, counterterm,
                           check_truncation=False)
        gauss = oracle_moments(modes, beta, counterterm)
        worst = max(worst,
                    abs(fock.moments.occupation - gauss.occupation),
                    abs(fock.moments.squeezing - gauss.squeezing),
                    abs(fock.ln_z_reduced - np.log(reduced_partition(gauss))))
    ok = worst < 1e-6
    _verdict(2, ok, f"oracle triangle on 10 random sets: worst "
                    f"|discrepancy|={worst:.2e} ({time.time()-start:.1f}s)")


def test_criterion_3_continuum_discrete_equivalence():
    start = time.time()
    ladder = (100, 200, 400)
    worst_final = 0.0
    monotone = True
    for gamma in (0.1, 0.5, 1.0, 2.0):
        cfg = SpectralConfig(gamma, CUTOFF)
        for temperature in (0.5, 2.0, 10.0):
            beta = 1.0 / temperature
            cont = matsubara_moments(cfg, beta)
            errs_n, errs_s = [], []
            for k_c in ladder:
                # window scales with the rung so truncation and node-density
                # errors decrease together along the ladder
                modes = discretize(cfg, k_c, 200.0 * k_c / ladder[0])
                disc = oracle_moments(modes, beta, cfg.counterterm)
                errs_n.append(abs(cont.occupation - disc.occupation)
                              / abs(disc.occupation))
                errs_s.append(abs(cont.squeezing - disc.squeezing)
                              / abs(disc.squeezing))
            worst_final = max(worst_final, errs_n[-1], errs_s[-1])
            monotone &= errs_n[0] > errs_n[1] > errs_n[2]
            monotone &= errs_s[0] > errs_s[1] > errs_s[2]
    ok = worst_final < 1e-3 and monotone
    _verdict(3, ok, f"continuum vs oracle at k_c=400: worst rel error "
                    f"{worst_final:.2e}, ladder strictly decreasing: "
                    f"{monotone} ({time.time()-start:.1f}s)")


def test_criterion_4_internal_energy_consistency():
    start = time.time()
    worst = 0.0
    for gamma in (0.1, 0.5, 1.0, 2.0):
        cfg = SpectralConfig(gamma, CUTOFF)
        for temperature in (0.5, 2.0, 10.0):
            m = matsubara_moments(cfg, 1.0 / temperature)
            h = reduced_hamiltonian(m, temperature)
            u_h = internal_energy_hamiltonian(h, m)
            (u_z,) = exact_curves(h, [temperature], h.eigenfrequency)[1]
            worst = max(worst, abs(u_h - u_z) / u_z)
    ok = worst < 1e-8
    _verdict(4, ok, f"U_H vs U_Z on the coupling-temperature grid: worst "
                    f"rel diff {worst:.2e} ({time.time()-start:.1f}s)")


@pytest.mark.xfail(strict=True, reason=(
    "The exact reduced Hamiltonian of the damped oscillator is temperature "
    "dependent, so the assumed constancy does not hold for the exact "
    "solution; measured spreads are orders of magnitude above 1e-5."))
def test_criterion_5_temperature_independence():
    cfg = SpectralConfig(0.5, CUTOFF)
    omegas, deltas = [], []
    for temperature in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
        m = matsubara_moments(cfg, 1.0 / temperature)
        h = reduced_hamiltonian(m, temperature)
        omegas.append(h.omega)
        deltas.append(abs(h.pairing))
    spread_omega = (max(omegas) - min(omegas)) / np.mean(omegas)
    spread_delta = (max(deltas) - min(deltas)) / np.mean(deltas)
    ok = spread_omega < 1e-5 and spread_delta < 1e-5
    _verdict(5, ok, f"temperature independence of (omega_r, Delta_r): "
                    f"rel spreads {spread_omega:.2e} / {spread_delta:.2e} "
                    f"(tolerance 1e-5)")


def test_criterion_6_heat_capacity_limits():
    start = time.time()
    temps = np.geomspace(0.05, 3.0, 60)
    ok = True
    details = []
    for gamma in (0.1, 0.5, 1.0, 2.0, 3.0):
        h = reduced_hamiltonian_at(SpectralConfig(gamma, CUTOFF), T_REF)
        wbar = h.eigenfrequency
        plateau = heat_capacity_exact(wbar, 50.0)
        ok &= 0.9999 <= plateau <= 1.0
        low_t = wbar / 12.0
        asym = (wbar / low_t)**2 * np.exp(-wbar / low_t)
        exact = heat_capacity_exact(wbar, low_t)
        ok &= abs(exact - asym) / exact < 0.05
        curve = [heat_capacity_exact(wbar, t) for t in temps]
        ok &= bool(np.all(np.diff(curve) > 0))
        details.append(f"g={gamma}: C(50)={plateau:.6f}")
    _verdict(6, ok, "; ".join(details) + f" ({time.time()-start:.1f}s)")


def test_criterion_7_exact_pipeline_positive():
    start = time.time()
    temps = np.geomspace(0.02, 3.0, 60)
    ok = True
    minima = {}
    for gamma in (0.1, 0.3, 0.6, 1.0, 2.0):
        cfg = SpectralConfig(gamma, CUTOFF)
        h = reduced_hamiltonian_at(cfg, T_REF)
        exact = [heat_capacity_exact(h.eigenfrequency, t) for t in temps]
        ok &= min(exact) > 0
        modes = discretize(cfg, 400, 200.0)
        _, naive = naive_curves(modes, 1 / temps, cfg.counterterm)
        minima[gamma] = min(naive)
        if gamma in (0.1, 0.3):
            ok &= minima[gamma] > 0
    detail = ", ".join(f"g={g}: min C_naive={m:+.4f}" for g, m in minima.items())
    _verdict("7a", ok, f"exact C positive everywhere; weak-coupling naive "
                       f"positive ({detail}) ({time.time()-start:.1f}s)")


@pytest.mark.xfail(strict=True, reason=(
    "The naive heat capacity of the stable (counterterm) model stays "
    "positive at every accessible coupling; the targeted negative dip is "
    "not reproduced by any thermodynamically stable configuration of this "
    "model (without the counterterm the potential is inverted for "
    "gamma*cutoff > 1 and no thermal state exists)."))
def test_criterion_7_naive_negative_heat_capacity():
    temps = np.geomspace(0.02, 3.0, 60)
    minima = {}
    for gamma in (0.6, 1.0, 2.0):
        cfg = SpectralConfig(gamma, CUTOFF)
        modes = discretize(cfg, 400, 200.0)
        minima[gamma] = min(naive_curves(modes, 1 / temps, cfg.counterterm)[1])
    ok = all(m < 0 for m in minima.values())
    detail = ", ".join(f"g={g}: min C_naive={m:+.4f}"
                       for g, m in minima.items())
    _verdict("7b", ok, f"naive negative heat capacity at strong coupling "
                       f"({detail})")


def test_criterion_8_weak_coupling_collapse():
    start = time.time()
    temps = np.geomspace(0.05, 3.0, 40)
    h_weak = reduced_hamiltonian_at(SpectralConfig(0.1, CUTOFF), T_REF)
    worst = 0.0
    for t in temps:
        c_exact = heat_capacity_exact(h_weak.eigenfrequency, t)
        for mode in ("drop-imaginary", "drop-pairing"):
            c_mode = heat_capacity_exact(incomplete_frequency(mode, h_weak), t)
            # relative measure with an absolute floor: both capacities are
            # exponentially small at the lowest temperatures
            worst = max(worst, abs(c_mode - c_exact) / max(c_exact, 0.1))
    h_strong = reduced_hamiltonian_at(SpectralConfig(3.0, CUTOFF), T_REF)
    separation = 0.0
    for t in np.geomspace(0.05, 0.5, 25):
        c_exact = heat_capacity_exact(h_strong.eigenfrequency, t)
        if c_exact > 1e-6:
            c_drop = heat_capacity_exact(
                incomplete_frequency("drop-pairing", h_strong), t)
            separation = max(separation, abs(c_drop - c_exact) / c_exact)
    ok = worst < 0.01 and separation > 0.05
    _verdict(8, ok, f"weak-coupling collapse {worst:.2%} (< 1%), "
                    f"strong-coupling separation {separation:.1%} (> 5%) "
                    f"({time.time()-start:.1f}s)")


def test_criterion_9_property_suites():
    start = time.time()
    rng = np.random.default_rng(99)
    ok = True

    # generalized Gaussian integral determinant identity (1e-12)
    worst_det = 0.0
    checked = 0
    while checked < 10:
        dim = int(rng.integers(2, 4))
        raw = 0.25 * (rng.standard_normal((dim, dim))
                      + 1j * rng.standard_normal((dim, dim)))
        theta = (raw + raw.conj().T) / 2
        pair = 0.2 * (rng.standard_normal((dim, dim))
                      + 1j * rng.standard_normal((dim, dim)))
        pair = (pair + pair.T) / 2
        doubled = np.block([[theta, pair], [pair.conj(), theta.conj()]])
        if np.max(np.abs(np.linalg.eigvals(doubled))) >= 0.9:
            continue
        checked += 1
        phi = theta + pair @ np.linalg.inv(np.eye(dim) - theta.T) @ pair.conj()
        lhs = (np.linalg.det(np.eye(dim) - theta)
               * np.linalg.det(np.eye(dim) - phi))
        rhs = np.linalg.det(np.eye(2 * dim) - doubled)
        worst_det = max(worst_det, abs(lhs - rhs) / abs(rhs))
    ok &= worst_det < 1e-12

    # Bogoliubov normalization (1e-10)
    worst_norm = 0.0
    for _ in range(200):
        omega = 0.6 + rng.random()
        delta = 0.8 * omega * (2 * rng.random() - 1)
        frame = bogoliubov(ReducedHamiltonian(omega=omega, pairing=delta))
        worst_norm = max(worst_norm, abs(frame.u**2 - frame.v**2 - 1))
    ok &= worst_norm < 1e-10

    # moments <-> kernel and moments <-> Hamiltonian round trips (1e-8)
    worst_rt = 0.0
    for temperature in (0.5, 2.0, 10.0):
        for gamma in (0.1, 0.5, 2.0):
            m = matsubara_moments(SpectralConfig(gamma, CUTOFF),
                                  1.0 / temperature)
            back = kernel_to_moments(moments_to_kernel(m))
            worst_rt = max(worst_rt,
                           abs(back.occupation - m.occupation) / m.occupation)
            h = reduced_hamiltonian(m, temperature)
            family = extended_bose_einstein(h, temperature)
            worst_rt = max(worst_rt,
                           abs(family.occupation - m.occupation) / m.occupation,
                           abs(family.squeezing - m.squeezing)
                           / max(abs(m.squeezing), 1e-6))
    ok &= worst_rt < 1e-8

    # reduced partition function three ways at k_c <= 2 (1e-6)
    worst_z = 0.0
    for modes, beta in (
            (ModeList(frequencies=np.array([2.0]),
                      couplings=np.array([0.3])), 1.0),
            (ModeList(frequencies=np.array([1.6, 2.4]),
                      couplings=np.array([0.25, -0.2])), 1.1)):
        tg = total_gaussian(modes, beta, counterterm=True)
        moments, factor = gaussian_partial_trace(tg)
        z_moments = reduced_partition(moments)
        z_rel = np.exp(log_partition_total(modes, beta, True)) * np.sqrt(
            moments_to_kernel(moments).omega_s
            / np.linalg.det(kernel_blocks(tg)[0])) * factor
        caps = 60 if len(modes) == 1 else (22, 14, 14)
        fock = fock_oracle(modes, beta, caps, counterterm=True,
                           check_truncation=False)
        worst_z = max(worst_z,
                      abs(np.log(z_moments) - np.log(z_rel)),
                      abs(np.log(z_moments) - fock.ln_z_reduced))
    ok &= worst_z < 1e-6

    _verdict(9, ok, f"property suites: det identity {worst_det:.1e}, "
                    f"normalization {worst_norm:.1e}, round trips {worst_rt:.1e}, "
                    f"Z triple {worst_z:.1e} ({time.time()-start:.1f}s)")


def test_criterion_10_figure_datasets():
    start = time.time()
    cfg = parse_config(overrides={"timestamp": False})
    ok = True
    for figure_id in FIGURE_IDS:
        ds1 = run_figure(figure_id, cfg)
        ds1.validate()
        ok &= all(len(row) == len(ds1.columns) for row in ds1.rows)
        ds2 = run_figure(figure_id, cfg)
        ok &= render_csv(ds1, False) == render_csv(ds2, False)
        if figure_id == "1a":
            first = ds1.rows[0]
            ok &= abs(first[1] - 1 / np.expm1(0.1)) < 1e-4
            ok &= first[2] < 1e-6
    _verdict(10, ok, f"all nine figure datasets: valid schemas, deterministic "
                     f"bytes, weak-coupling row matches the closed form "
                     f"({time.time()-start:.1f}s)")
