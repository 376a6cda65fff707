"""Configuration parsing, figure datasets, serialization and the CLI."""

import json

import numpy as np
import pytest

from qbm import ConfigError
from qbm.cli import (FIGURE_IDS, RunConfig, main, oracle_compare, parse_config,
                     render_csv, render_json, run_figure)


class TestParseConfig:
    def test_documented_defaults(self):
        cfg = parse_config()
        assert cfg.gamma == 0.5
        assert cfg.cutoff == 20.0
        assert len(cfg.temperatures) == 60
        assert cfg.temperatures[0] == pytest.approx(0.05)
        assert cfg.temperatures[-1] == pytest.approx(3.0)
        assert cfg.counterterm is True

    def test_negative_gamma_names_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config(overrides={"gamma": -1.0})
        assert err.value.key == "gamma"

    def test_unknown_key_is_error(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("gamme = 0.3\n")
        with pytest.raises(ConfigError) as err:
            parse_config(str(path))
        assert err.value.key == "gamme"

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("gamma = 0.3\ncutoff = 10\n")
        cfg = parse_config(str(path), overrides={"gamma": 1.5})
        assert cfg.gamma == 1.5
        assert cfg.cutoff == 10.0

    def test_grid_specs(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("temperatures = geom:0.1:10:5\ngammas = 0.1,0.5\n")
        cfg = parse_config(str(path))
        assert len(cfg.temperatures) == 5
        assert cfg.gammas == (0.1, 0.5)

    def test_bad_method(self):
        # there is one continuum solver, so "method" is no longer a key
        with pytest.raises(ConfigError) as err:
            parse_config(overrides={"method": "matsubara"})
        assert err.value.key == "method"
        assert "unknown configuration key" in err.value.reason
        with pytest.raises(SystemExit) as stop:
            main(["--method", "matsubara", "state"])
        assert stop.value.code == 2


@pytest.fixture(scope="module")
def small_cfg():
    # light grids keep figure construction fast in unit tests
    return parse_config(overrides={
        "temperatures": "geom:0.05:3:7", "gammas": "0.1,0.5",
        "k_c": 120, "omega_max": 200.0, "timestamp": False})


class TestFigures:
    def test_all_figures_validate(self, small_cfg):
        for figure_id in FIGURE_IDS:
            ds = run_figure(figure_id, small_cfg)
            assert ds.figure_id == figure_id
            assert all(len(r) == len(ds.columns) for r in ds.rows)
            assert not any(r[-1] for r in ds.rows), f"errors in figure {figure_id}"

    def test_figure_1a_weak_coupling_row(self, small_cfg):
        ds = run_figure("1a", small_cfg)
        first = ds.rows[0]
        assert first[0] == pytest.approx(1e-6)
        assert first[1] == pytest.approx(1 / (np.exp(0.1) - 1), abs=1e-4)
        assert first[2] < 1e-6

    def test_figure_2b_tracks_temperature_drift(self, small_cfg):
        # the exact reduced Hamiltonian drifts with temperature; the dataset
        # records the drift rather than assuming constancy
        ds = run_figure("2b", small_cfg)
        omega_col = [r[1] for r in ds.rows]
        spread = (max(omega_col) - min(omega_col)) / np.mean(omega_col)
        assert spread > 1e-5

    def test_figure_3_energy_columns_agree(self, small_cfg):
        ds = run_figure("3a", small_cfg)
        for row in ds.rows:
            assert row[2] == pytest.approx(row[3], rel=1e-8)

    def test_figure_5_exact_column_positive(self, small_cfg):
        ds = run_figure("5", small_cfg)
        assert all(row[3] > 0 for row in ds.rows)

    def test_unknown_figure(self, small_cfg):
        with pytest.raises(ConfigError):
            run_figure("9z", small_cfg)


class TestSerialization:
    def test_csv_deterministic(self, small_cfg):
        ds1 = run_figure("1a", small_cfg)
        ds2 = run_figure("1a", small_cfg)
        assert render_csv(ds1, timestamp=False) == render_csv(ds2, timestamp=False)

    def test_csv_schema_header(self, small_cfg):
        text = render_csv(run_figure("2a", small_cfg), timestamp=False)
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert lines[0] == "T,n,s_abs,error"

    def test_json_round_trip(self, small_cfg):
        payload = json.loads(render_json(run_figure("2a", small_cfg),
                                         timestamp=False))
        assert payload["dataset"] == "2a"
        assert payload["columns"][0] == "T"
        assert len(payload["rows"]) == 60


class TestOracleCompare:
    def test_table(self):
        cfg = parse_config(overrides={"timestamp": False, "omega_max": 200.0})
        ds = oracle_compare(cfg, gammas=(0.0, 0.5), temperatures=(0.5,),
                            ladder=(50, 100, 200))
        by_key = {}
        for row in ds.rows:
            if row[-1] == "fock":
                assert row[3] < 1e-6 and row[4] < 1e-6 and row[5] < 1e-6
                continue
            by_key.setdefault((row[0], row[1]), []).append(row)
        for (gamma, _temp), rows in by_key.items():
            errs = [r[3] for r in rows]
            if gamma == 0.0:
                assert max(errs) < 1e-8
            else:
                assert errs[0] > errs[1] > errs[2]

    def test_continuum_failure_flags_rows(self):
        cfg = parse_config(overrides={"timestamp": False,
                                      "counterterm": False})
        ds = oracle_compare(cfg, gammas=(0.5,), temperatures=(1.0,),
                            ladder=(10, 20))
        assert [row[-1] for row in ds.rows] == ["InvertedPotential"] * 2 + ["fock"]


class TestMain:
    def test_config_error_exit_code(self, capsys):
        assert main(["--gamma", "-2", "state"]) == 2
        assert "gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--gamma", "nan"), ("--gamma", "inf"), ("--temperature", "inf"),
        ("--temperature", "nan"), ("--cutoff", "inf"), ("--t-ref", "nan"),
        ("--temperatures", "0.5,inf"), ("--gammas", "nan")])
    def test_non_finite_input_exit_code(self, capsys, flag, value):
        assert main([flag, value, "state"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_state_json(self, capsys):
        assert main(["--gamma", "0.5", "--temperature", "10",
                     "--no-timestamp", "state"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["occupation"] == pytest.approx(9.5424, abs=1e-3)
        assert payload["omega_bar"] == pytest.approx(0.9966, abs=1e-3)

    def test_figure_writes_file(self, tmp_path, capsys):
        out = tmp_path / "fig.csv"
        code = main(["--temperatures", "geom:0.5:2:3", "--gammas", "0.5",
                     "--no-timestamp", "--out", str(out), "figure", "3b"])
        assert code == 0
        text = out.read_text()
        assert text.startswith("# qbm dataset: 3b")
        assert "T,gamma,C_from_H,C_from_Z,error" in text

    def test_sweep_naive(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["--temperatures", "geom:0.2:1:3", "--kc", "80",
                     "--omega-max", "200", "--no-timestamp",
                     "--out", str(out), "sweep", "--pipeline", "naive"])
        assert code == 0
        assert "U,C" in out.read_text().splitlines()[-4]

    def test_sweep_naive_coupling_axis(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["--gammas", "0.1,0.5,1", "--kc", "80",
                     "--omega-max", "200", "--no-timestamp", "--out", str(out),
                     "sweep", "--axis", "coupling", "--pipeline", "naive"])
        assert code == 0
        rows = [l.split(",") for l in out.read_text().splitlines()
                if not l.startswith("#")][1:]
        assert [float(r[1]) for r in rows] == [0.1, 0.5, 1.0]
        assert len({r[3] for r in rows}) == 3   # one C per coupling

    def test_thermo_command(self, tmp_path):
        out = tmp_path / "thermo.csv"
        code = main(["--temperatures", "geom:0.5:2:4", "--gamma", "0.5",
                     "--no-timestamp", "--out", str(out), "thermo"])
        assert code == 0
        lines = [l for l in out.read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0] == "T,gamma,U,C,Z_reduced,error"
        assert len(lines) == 5


class TestFigureContent:
    def test_figure_1a_monotone_in_coupling(self, small_cfg):
        ds = run_figure("1a", small_cfg)
        n_col = [r[1] for r in ds.rows]
        s_col = [r[2] for r in ds.rows]
        assert n_col[-1] > n_col[0]
        assert s_col[-1] > s_col[0]

    def test_figure_1b_frequency_decreases_with_coupling(self, small_cfg):
        ds = run_figure("1b", small_cfg)
        omega_r = [r[1] for r in ds.rows]
        delta = [r[2] for r in ds.rows]
        assert omega_r[-1] < omega_r[0] <= 1.0 + 1e-9
        assert delta[-1] > delta[0]
        # weak-coupling zoom rows present below gamma = 0.05
        assert sum(1 for r in ds.rows if r[0] < 0.05) >= 10

    def test_figure_3b_capacity_grows_with_coupling(self, small_cfg):
        ds = run_figure("3b", small_cfg)
        by_gamma = {}
        for row in ds.rows:
            by_gamma.setdefault(row[1], []).append(row[2])
        gammas = sorted(by_gamma)
        mid = len(by_gamma[gammas[0]]) // 2
        assert by_gamma[gammas[-1]][mid] > by_gamma[gammas[0]][mid]

    def test_figure_5_includes_low_temperature_zoom(self, small_cfg):
        ds = run_figure("5", small_cfg)
        assert min(r[0] for r in ds.rows) < 0.05
