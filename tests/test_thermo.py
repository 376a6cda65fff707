"""Internal energies, heat capacities and the naive comparison pipeline."""

import numpy as np
import pytest

from qbm import (InvalidGrid, SpectralConfig, discretize, exact_point,
                 extended_bose_einstein, heat_capacity_exact,
                 heat_capacity_incomplete, internal_energy_hamiltonian,
                 internal_energy_partition, naive_curves,
                 reduced_hamiltonian_at, sweep)
from qbm import thermo
from qbm.gibbs import ReducedHamiltonian
from qbm.spectral import ModeList

CFG = SpectralConfig(gamma=0.5, cutoff=20.0)


class TestInternalEnergy:
    def test_zero_point(self):
        h = ReducedHamiltonian(omega=0.9, pairing=0j)
        m = extended_bose_einstein(h, 1e-9)
        assert internal_energy_hamiltonian(h, m) == pytest.approx(0.45, rel=1e-8)

    def test_hand_value(self):
        assert internal_energy_partition(1.0, 10.0) == pytest.approx(
            0.5 / np.tanh(0.05), rel=1e-12)
        assert internal_energy_partition(1.0, 10.0) == pytest.approx(10.00833,
                                                                     abs=5e-6)

    def test_equipartition(self):
        assert internal_energy_partition(1.0, 1000.0) == pytest.approx(
            1000.0, rel=1e-3)

    def test_derivative_mode_matches_closed_form(self):
        # U_Z = -d ln Z_S^r / d beta, with ln Z_S^r = ln[(1/2) csch(beta wbar/2)]
        def ln_z(beta):
            x = beta * 0.9 / 2
            return -x - np.log1p(-np.exp(-2 * x))

        for t in (0.3, 1.0, 7.0):
            beta, step = 1 / t, 1e-5 / t
            deriv = -(ln_z(beta + step) - ln_z(beta - step)) / (2 * step)
            assert deriv == pytest.approx(internal_energy_partition(0.9, t),
                                          rel=1e-6)

    def test_two_definitions_agree(self):
        for gamma in (0.1, 0.5, 1.0, 2.0, 3.0):
            cfg = SpectralConfig(gamma, 20.0)
            h = reduced_hamiltonian_at(cfg, 1.0)
            for t in (0.05, 0.2, 1.0, 5.0, 10.0):
                m = extended_bose_einstein(h, t)
                u_h = internal_energy_hamiltonian(h, m)
                u_z = internal_energy_partition(h.eigenfrequency, t)
                assert abs(u_h - u_z) / u_z < 1e-8


class TestHeatCapacity:
    def test_hand_value(self):
        assert heat_capacity_exact(1.0, 0.5) == pytest.approx(
            1.0 / np.sinh(1.0)**2, rel=1e-12)

    def test_bounds_and_monotonicity(self):
        temps = np.geomspace(0.05, 50, 80)
        vals = [heat_capacity_exact(1.0, t) for t in temps]
        assert all(0 < c < 1 for c in vals)
        assert np.all(np.diff(vals) > 0)

    def test_classical_plateau(self):
        assert 0.9999 <= heat_capacity_exact(1.0, 50.0) <= 1.0

    def test_low_temperature_asymptote(self):
        # at wbar/T = 12 the closed form sits within 5% of (wbar/T)^2 e^{-wbar/T}
        wbar, t = 1.0, 1.0 / 12.0
        exact = heat_capacity_exact(wbar, t)
        asymptote = (wbar / t)**2 * np.exp(-wbar / t)
        assert abs(exact - asymptote) / exact < 0.05


class TestIncompleteModes:
    def test_real_pairing_drop_imaginary_equals_exact(self):
        h = ReducedHamiltonian(omega=1.0, pairing=0.4 + 0j)
        for t in (0.1, 1.0, 5.0):
            assert heat_capacity_incomplete("drop-imaginary", h, t) == \
                pytest.approx(heat_capacity_exact(h.eigenfrequency, t), rel=1e-12)

    def test_drop_pairing_uses_bare_frequency(self):
        h = ReducedHamiltonian(omega=0.8, pairing=0.3 + 0j)
        assert heat_capacity_incomplete("drop-pairing", h, 2.0) == \
            pytest.approx(heat_capacity_exact(1.0, 2.0), rel=1e-12)

    def test_weak_coupling_collapse(self):
        # both incomplete modes track the exact curve at gamma = 0.1 (absolute
        # scale 1% of the classical plateau; the relative measure blows up
        # where every capacity is exponentially small)
        h = reduced_hamiltonian_at(SpectralConfig(0.1, 20.0), 5.0)
        for t in np.geomspace(0.05, 3.0, 30):
            c_exact = heat_capacity_exact(h.eigenfrequency, t)
            for mode in ("drop-imaginary", "drop-pairing"):
                c_mode = heat_capacity_incomplete(mode, h, t)
                assert abs(c_mode - c_exact) <= 0.01 * max(c_exact, 0.1)

    def test_strong_coupling_separation(self):
        h = reduced_hamiltonian_at(SpectralConfig(3.0, 20.0), 5.0)
        deviations = []
        for t in np.geomspace(0.05, 0.5, 20):
            c_exact = heat_capacity_exact(h.eigenfrequency, t)
            c_drop = heat_capacity_incomplete("drop-pairing", h, t)
            if c_exact > 1e-6:
                deviations.append(abs(c_drop - c_exact) / c_exact)
        assert max(deviations) > 0.05


class TestNaivePipeline:
    def test_decoupled_equals_single_oscillator(self):
        modes = ModeList(frequencies=np.array([2.0, 3.0]),
                         couplings=np.array([0.0, 0.0]))
        beta = 0.7
        (u,), (c,) = naive_curves(modes, [beta])
        x = beta / 2
        assert u == pytest.approx(0.5 / np.tanh(x), rel=1e-12)
        assert c == pytest.approx((x / np.sinh(x))**2, rel=1e-12)

    def test_derivative_consistency(self):
        modes = discretize(CFG, 200, 200.0)
        t = 0.4
        h = 1e-4 * t
        (u_plus, u_minus, _), (_, _, c) = naive_curves(
            modes, [1 / (t + h), 1 / (t - h), 1 / t], counterterm=True)
        assert c == pytest.approx((u_plus - u_minus) / (2 * h), rel=1e-5)

    def test_weak_coupling_close_to_exact_without_sign_change(self):
        cfg = SpectralConfig(0.1, 20.0)
        modes = discretize(cfg, 400, 200.0)
        h = reduced_hamiltonian_at(cfg, 1.0)
        diffs = []
        temps = np.geomspace(0.05, 3.0, 25)
        _, capacities = naive_curves(modes, 1 / temps, counterterm=True)
        for t, c_naive in zip(temps, capacities):
            c_exact = heat_capacity_exact(h.eigenfrequency, t)
            assert c_naive > 0
            diffs.append(abs(c_naive - c_exact))
        assert max(diffs) < 0.05


class TestSweep:
    def test_single_point_matches_direct_call(self):
        points = sweep("temperature", [2.0], CFG, pipeline="exact", t_ref=1.0)
        h = reduced_hamiltonian_at(CFG, 1.0)
        direct = exact_point(CFG, 2.0, h=h)
        assert len(points) == 1
        assert points[0].internal_energy == pytest.approx(
            direct.internal_energy, rel=1e-12)
        assert points[0].heat_capacity == pytest.approx(
            direct.heat_capacity, rel=1e-12)

    def test_exact_pipeline_invariants(self):
        points = sweep("temperature", np.geomspace(0.05, 3, 12), CFG,
                       pipeline="exact", t_ref=1.0)
        h = reduced_hamiltonian_at(CFG, 1.0)
        for p in points:
            assert p.error is None
            assert p.heat_capacity > 0
            assert p.internal_energy >= h.eigenfrequency / 2 - 1e-12

    def test_coupling_axis(self):
        points = sweep("coupling", [0.1, 0.5, 1.0], CFG, pipeline="exact",
                       fixed_temperature=2.0, t_ref=1.0)
        assert [p.coupling for p in points] == [0.1, 0.5, 1.0]
        assert all(p.temperature == 2.0 for p in points)

    def test_errors_collected_not_fatal(self):
        cfg = SpectralConfig(0.5, 20.0, counterterm=False)  # unstable model
        points = sweep("temperature", [1.0, 2.0], cfg, pipeline="exact")
        assert all(p.error is not None for p in points)
        assert all(np.isnan(p.heat_capacity) for p in points)

    def test_programming_errors_propagate(self, monkeypatch):
        # only QbmError becomes a row flag; anything else is a bug and raises
        def broken(*args, **kwargs):
            raise TypeError("broken")

        monkeypatch.setattr(thermo, "exact_point", broken)
        with pytest.raises(TypeError):
            sweep("temperature", [1.0, 2.0], CFG, pipeline="exact")
        monkeypatch.setattr(thermo, "reduced_hamiltonian_at", broken)
        with pytest.raises(TypeError):
            sweep("temperature", [1.0, 2.0], CFG, pipeline="exact")
        monkeypatch.setattr(thermo, "normal_mode_frequencies", broken)
        with pytest.raises(TypeError):
            sweep("temperature", [1.0, 2.0], CFG, pipeline="naive",
                  modes=discretize(CFG, 20, 100.0))

    def test_naive_sweep_matches_pointwise(self):
        modes = discretize(CFG, 60, 100.0)
        temps = [0.1, 0.5, 2.0]
        points = sweep("temperature", temps, CFG, pipeline="naive",
                       modes=modes)
        for t, p in zip(temps, points):
            (u,), (c,) = naive_curves(modes, [1 / t], counterterm=True)
            assert p.error is None
            assert p.internal_energy == u
            assert p.heat_capacity == c

    def test_naive_sweep_errors_collected(self):
        cfg = SpectralConfig(0.5, 20.0, counterterm=False)
        points = sweep("temperature", [1.0, 2.0], cfg, pipeline="naive",
                       modes=discretize(cfg, 40, 200.0))
        assert all(p.error.startswith("InvertedPotential") for p in points)
        with pytest.raises(InvalidGrid):
            sweep("temperature", [1.0], CFG, pipeline="naive")  # no ModeList

    def test_naive_coupling_sweep_discretizes_per_gamma(self):
        gammas = [0.1, 1.0]
        modes = [discretize(SpectralConfig(g, CFG.cutoff), 60, 100.0)
                 for g in gammas]
        points = sweep("coupling", gammas, CFG, pipeline="naive",
                       fixed_temperature=0.5, modes=modes)
        assert points[0].heat_capacity != points[1].heat_capacity
        for p, g, ml in zip(points, gammas, modes):
            assert p.error is None and p.coupling == g
            energies, capacities = thermo.naive_curves(ml, [2.0], True)
            assert p.internal_energy == energies[0]
            assert p.heat_capacity == capacities[0]

    def test_naive_coupling_sweep_needs_one_modelist_per_gamma(self):
        modes = discretize(CFG, 20, 100.0)
        for bad in (modes, [modes], None):
            with pytest.raises(InvalidGrid):
                sweep("coupling", [0.1, 1.0], CFG, pipeline="naive",
                      modes=bad)

    def test_grid_validation(self):
        with pytest.raises(InvalidGrid):
            sweep("temperature", [2.0, 1.0], CFG)
        with pytest.raises(InvalidGrid):
            sweep("temperature", [], CFG)
        with pytest.raises(InvalidGrid):
            sweep("pressure", [1.0], CFG)
        with pytest.raises(InvalidGrid, match="pipeline"):
            sweep("temperature", [1.0], CFG, pipeline="bogus")
        with pytest.raises(InvalidGrid, match="pipeline"):
            sweep("coupling", [0.5], CFG, pipeline="bogus")

    @pytest.mark.parametrize("counterterm", [True, False])
    def test_one_extraction_per_coupling(self, monkeypatch, counterterm):
        # a failed extraction is not retried point by point either
        calls = []
        original = thermo.reduced_hamiltonian_at

        def counting(cfg, t_ref):
            calls.append(cfg.gamma)
            return original(cfg, t_ref)

        monkeypatch.setattr(thermo, "reduced_hamiltonian_at", counting)
        cfg = SpectralConfig(0.5, 20.0, counterterm=counterterm)
        points = sweep("temperature", np.geomspace(0.1, 3, 8), cfg,
                       pipeline="drop-pairing")
        assert calls == [0.5] and len(points) == 8
        assert all((p.error is None) == counterterm for p in points)
        calls.clear()
        sweep("coupling", [0.1, 0.5, 1.0], cfg, pipeline="drop-imaginary")
        assert calls == [0.1, 0.5, 1.0]

    @pytest.mark.parametrize("pipeline", ["drop-imaginary", "drop-pairing"])
    def test_incomplete_pipelines_change_only_the_capacity(self, pipeline):
        temps = [0.2, 1.0, 3.0]
        exact = sweep("temperature", temps, CFG, pipeline="exact")
        dropped = sweep("temperature", temps, CFG, pipeline=pipeline)
        h = reduced_hamiltonian_at(CFG, 5.0)
        for t, e, d in zip(temps, exact, dropped):
            assert d.heat_capacity == heat_capacity_incomplete(pipeline, h, t)
            assert (d.internal_energy, d.z_reduced, d.error) == (
                e.internal_energy, e.z_reduced, None)
