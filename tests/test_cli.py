"""Configuration parsing, figure datasets, serialization and the CLI."""

import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from qbm import (ConfigError, QbmError, SpectralConfig, cli, discretize,
                 exact_point, heat_capacity_exact, incomplete_frequency,
                 naive_curves, reduced_hamiltonian_at, solve_moments)
from qbm.cli import (FIGURE_IDS, RunConfig, main, oracle_compare, parse_config,
                     render_csv, render_json, run_figure)

PIPELINES = ("exact", "drop-imaginary", "drop-pairing", "naive")
UNSTABLE = SpectralConfig(0.5, 20.0, counterterm=False)


def _error_cell(compute) -> str:
    """The "Class: message" error cell of the QbmError that compute() raises."""
    with pytest.raises(QbmError) as err:
        compute()
    return f"{type(err.value).__name__}: {err.value}"


def _figure_error_cell(figure_id: str, row: list, cfg: RunConfig) -> str:
    """The error cell a failed row of a figure dataset carries."""
    if figure_id[0] in "12":  # a coupling scan at T = 10 or a T scan at gamma = 0.5
        gamma, temp = (row[0], 10.0) if figure_id[0] == "1" else (0.5, row[0])
        return _error_cell(lambda: solve_moments(cfg.spectral(gamma), 1 / temp))
    if figure_id == "5":  # the naive curve fails before the extraction
        modes = discretize(cfg.spectral(row[1]), cfg.k_c, cfg.omega_max)
        return _error_cell(lambda: naive_curves(modes, [1 / row[0]], cfg.counterterm))
    return _error_cell(lambda: reduced_hamiltonian_at(cfg.spectral(row[1]), cfg.t_ref))


def _sweep(axis="temperature", pipeline="exact", **overrides):
    cfg = parse_config(overrides={"timestamp": False, **overrides})
    return cli._sweep_dataset(cfg, f"sweep-{pipeline}", axis, pipeline)


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

    def test_zero_reference_temperature_names_t_ref(self):
        with pytest.raises(ConfigError) as err:
            parse_config(overrides={"t_ref": "0"})
        assert err.value.key == "t_ref"

    def test_linear_grid_may_start_at_zero(self):
        assert parse_config(overrides={"gammas": "lin:0:3:4"}).gammas == (
            0.0, 1.0, 2.0, 3.0)
        with pytest.raises(ConfigError) as err:  # a geometric grid may not
            parse_config(overrides={"gammas": "geom:0:3:4"})
        assert err.value.key == "gammas"
        for key in ("gammas", "temperatures"):  # the sign checks still apply
            with pytest.raises(ConfigError, match="grid values") as err:
                parse_config(overrides={key: "lin:-1:1:3"})
            assert err.value.key == key

    @pytest.mark.parametrize("key", ["temperatures", "gammas"])
    def test_empty_grid_names_key(self, key):
        # the one emptiness check every figure, thermo and sweep grid passes
        with pytest.raises(ConfigError, match="grid must be nonempty") as err:
            parse_config(overrides={key: ()})
        assert err.value.key == key

    @pytest.mark.parametrize("value", [0, 1.0, [True]])
    def test_non_boolean_is_config_error(self, value):
        with pytest.raises(ConfigError) as err:
            parse_config(overrides={"timestamp": value})
        assert err.value.key == "timestamp"

    def test_keys_coerced_to_default_types(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("k_c = 80\nout = 7\ncounterterm = no\ngammas = 1\n")
        cfg = parse_config(str(path), overrides={"cutoff": "5", "fmt": "json"})
        assert (cfg.k_c, cfg.out, cfg.counterterm, cfg.gammas) == (80, "7", False, (1.0,))
        assert (cfg.cutoff, cfg.fmt) == (5.0, "json")
        assert type(cfg.k_c) is int and type(cfg.cutoff) is float

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

    def test_figure_3b_capacity_columns_agree(self, small_cfg):
        # C_from_Z is a central difference of U_Z over T +- 1e-5 T
        rows = run_figure("3b", small_cfg).rows
        assert all(abs(row[2] - row[3]) <= 1e-6 for row in rows)

    @pytest.mark.parametrize("figure_id,mode", [("4a", "drop-imaginary"),
                                                ("4b", "drop-pairing")])
    def test_figure_4_rows_match_the_scalar_path(self, small_cfg, figure_id, mode):
        ds = run_figure(figure_id, small_cfg)
        assert ds.metadata["mode"] == mode
        for temp, gamma, c_incomplete, c_exact, error in ds.rows:
            h = reduced_hamiltonian_at(small_cfg.spectral(gamma), small_cfg.t_ref)
            assert error == "" and c_incomplete == pytest.approx(
                heat_capacity_exact(incomplete_frequency(mode, h), temp),
                rel=1e-14, abs=0.0)
            assert c_exact == pytest.approx(
                heat_capacity_exact(h.eigenfrequency, temp), rel=1e-14, abs=0.0)

    def test_figure_5_exact_column_positive(self, small_cfg):
        ds = run_figure("5", small_cfg)
        assert all(row[3] > 0 for row in ds.rows)

    def test_unknown_figure(self, small_cfg):
        with pytest.raises(ConfigError):
            run_figure("9z", small_cfg)

    @pytest.mark.parametrize("figure_id", FIGURE_IDS)
    def test_flagged_rows_keep_the_schema(self, figure_id):
        # without the counterterm the default cutoff inverts the potential
        # beyond gamma = 0.05, so rows there carry the failure's full message
        cfg = parse_config(overrides={"counterterm": False, "gammas": "0.01,0.5",
                                      "temperatures": "geom:0.5:2:3", "k_c": 40})
        ds = run_figure(figure_id, cfg)
        assert all(len(row) == len(ds.columns) for row in ds.rows)
        flagged = [row for row in ds.rows if row[-1]]
        assert flagged
        for row in flagged:
            assert row[-1].startswith("InvertedPotential: ")
            assert row[-1] == _figure_error_cell(figure_id, row, cfg)
            assert math.isnan(row[-2])

    def test_one_extraction_per_coupling(self, small_cfg, monkeypatch):
        calls = []
        original = cli.reduced_hamiltonian_at

        def counting(cfg, t_ref):
            calls.append(cfg.gamma)
            return original(cfg, t_ref)

        monkeypatch.setattr(cli, "reduced_hamiltonian_at", counting)
        for figure_id in ("3a", "3b", "4a", "4b"):
            calls.clear()
            run_figure(figure_id, small_cfg)
            assert calls == list(small_cfg.gammas)
        calls.clear()  # a failed extraction flags its rows without a retry
        ds = run_figure("3a", replace(small_cfg, counterterm=False, gammas=(0.5,)))
        assert calls == [0.5]
        assert {row[-1] for row in ds.rows} == {
            _error_cell(lambda: reduced_hamiltonian_at(UNSTABLE, small_cfg.t_ref))}

    @pytest.mark.parametrize("figure_id", ["3a", "3b", "4a", "4b"])
    def test_programming_errors_propagate(self, small_cfg, monkeypatch, figure_id):
        # only QbmError flags a coupling; a bug in the grid evaluation raises
        def broken(*args, **kwargs):
            raise TypeError("broken")

        monkeypatch.setattr(cli, "exact_curves", broken)
        with pytest.raises(TypeError, match="broken"):
            run_figure(figure_id, small_cfg)


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

    def test_gamma_echoed_only_where_every_row_uses_it(self, small_cfg):
        # likewise t_ref, which only the extracted reduced Hamiltonian reads
        datasets = {f: run_figure(f, small_cfg) for f in FIGURE_IDS}
        datasets["oracle-compare"] = oracle_compare(
            small_cfg, gammas=(0.0,), temperatures=(1.0,), ladder=(10,))
        for axis in ("temperature", "coupling"):
            for pipeline in PIPELINES:
                datasets[axis, pipeline] = cli._sweep_dataset(
                    small_cfg, f"sweep-{pipeline}", axis, pipeline)
        echoed = {key for key, ds in datasets.items() if "gamma" in ds.metadata}
        assert echoed == {"2a", "2b"} | {("temperature", p) for p in PIPELINES}
        assert datasets["2b"].metadata["gamma"] == 0.5
        for pipeline in PIPELINES:
            sweep = datasets["temperature", pipeline]
            assert {row[1] for row in sweep.rows} == {sweep.metadata["gamma"]}
        echoed = {key for key, ds in datasets.items() if "t_ref" in ds.metadata}
        assert echoed == {"3a", "3b", "4a", "4b", "5"} | {
            (axis, p) for axis in ("temperature", "coupling")
            for p in PIPELINES if p != "naive"}
        assert all(datasets[key].metadata["t_ref"] == small_cfg.t_ref
                   for key in echoed)

    def test_csv_rows_match_per_cell_formatting(self, small_cfg):
        # one %-format per dataset, built from its first row, writes the
        # bytes of formatting every cell on its own; the first row of the
        # flagged dataset is a failure
        flagged = run_figure("3a", replace(small_cfg, counterterm=False,
                                           gammas=(0.5, 0.01)))
        assert flagged.rows[0][-1].startswith("InvertedPotential: ")
        datasets = [run_figure(f, small_cfg) for f in FIGURE_IDS]
        datasets += [flagged, cli._sweep_dataset(small_cfg, "thermo"),
                     oracle_compare(small_cfg, gammas=(0.0, 0.5),
                                    temperatures=(1.0,), ladder=(10, 20))]
        datasets += [cli._sweep_dataset(small_cfg, f"sweep-{p}", axis, p)
                     for axis in ("temperature", "coupling") for p in PIPELINES]
        for ds in datasets:
            lines = render_csv(ds, timestamp=False).splitlines()
            body = lines[lines.index(",".join(ds.columns)) + 1:]
            assert body == [",".join(cli._format_value(v) for v in row)
                            for row in ds.rows], ds.figure_id

    def test_figure_rows_hold_plain_floats(self, small_cfg):
        for figure_id in FIGURE_IDS:
            for row in run_figure(figure_id, small_cfg).rows:
                assert all(type(v) is float for v in row[:-1]), figure_id

    def test_flagged_csv_reads_back(self):
        # render_csv does not quote, so a comma in an error message would
        # split its cell: every row keeps the header's width and every error
        # cell reads "Class: message"
        cfg = parse_config(overrides={
            "counterterm": False, "gammas": "0.01,0.5", "temperatures": "geom:0.5:2:3",
            "k_c": 40, "n_max": 8, "timestamp": False})
        datasets = [run_figure(f, cfg) for f in FIGURE_IDS]
        datasets.append(cli._sweep_dataset(cfg, "thermo"))
        datasets += [cli._sweep_dataset(cfg, f"sweep-{p}", axis, p)
                     for axis in ("temperature", "coupling") for p in PIPELINES]
        datasets.append(oracle_compare(cfg, ladder=(10, 20)))
        classes = {cls.__name__ for cls in QbmError.__subclasses__()}
        for ds in datasets:
            text = render_csv(ds, timestamp=False)
            header, *rows = csv.reader(
                line for line in text.splitlines() if not line.startswith("#"))
            assert all(len(row) == len(header) for row in rows), ds.figure_id
            errors = [row[-1] for row in rows if row[-1] not in ("", "fock")]
            assert errors, ds.figure_id
            for cell in errors:
                name, sep, message = cell.partition(": ")
                assert name in classes and sep and message, cell


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
        cell = _error_cell(lambda: solve_moments(UNSTABLE, 1.0))
        assert [row[-1] for row in ds.rows] == [cell] * 2 + ["fock"]


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
        assert list(payload) == [
            "gamma", "temperature", "occupation", "squeezing_re",
            "omega_s_kernel", "pi_s_kernel", "omega_r", "delta_abs",
            "omega_bar", "z_reduced", "quasiparticle_occupation", "mass_eff"]
        assert payload["occupation"] == pytest.approx(9.5424, abs=1e-3)
        assert payload["omega_bar"] == pytest.approx(0.9966, abs=1e-3)

    @pytest.mark.parametrize("gamma,temperature", [
        (0.0, 0.05), (1e-6, 0.05), (0.5, 10.0), (2.0, 0.1), (3.0, 1.0)])
    def test_state_paper_quantities(self, capsys, gamma, temperature):
        assert main(["--gamma", str(gamma), "--temperature", str(temperature),
                     "state"]) == 0
        p = json.loads(capsys.readouterr().out)
        # the squeezed thermal state: Bose-Einstein quasi-particles at omega_bar
        assert p["quasiparticle_occupation"] == pytest.approx(
            1 / math.expm1(p["omega_bar"] / temperature), rel=1e-12)
        # Delta_r = -s omega_r / (n + 1/2), and H^R = P^2/(2 mass_eff) +
        # mass_eff omega_bar^2 X^2/2 = (omega_r - Delta_r) P^2/2 +
        # (omega_r + Delta_r) X^2/2
        delta = -p["squeezing_re"] * p["omega_r"] / (p["occupation"] + 0.5)
        assert p["mass_eff"] == pytest.approx(1 / (p["omega_r"] - delta),
                                              rel=1e-12)
        assert p["mass_eff"] * p["omega_bar"]**2 == pytest.approx(
            p["omega_r"] + delta, rel=1e-12)

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

    @pytest.mark.parametrize("argv,key", [
        (["--temperatures", "2,1", "thermo"], "temperatures"),
        (["--temperatures", "1,1", "thermo"], "temperatures"),
        (["--temperatures", "2,1", "sweep"], "temperatures"),
        (["--gammas", "0,0.5", "sweep", "--axis", "coupling"], "gammas"),
        (["--gammas", "1,0.5", "sweep", "--axis", "coupling",
          "--pipeline", "naive"], "gammas")])
    def test_invalid_sweep_grid_exit_code(self, tmp_path, capsys, argv, key):
        out = tmp_path / "sweep.csv"
        assert main(["--out", str(out)] + argv) == 2
        assert f"configuration error: {key}: sweep grid" in capsys.readouterr().err
        assert not out.exists()

    def test_figures_accept_unsorted_grids(self, tmp_path):
        out = tmp_path / "fig.csv"
        assert main(["--temperatures", "2,0.5,1", "--gammas", "0.5,0.1",
                     "--out", str(out), "figure", "3a"]) == 0

    def test_no_counterterm_flags_rows(self, tmp_path, capsys):
        out = tmp_path / "thermo.csv"
        code = main(["--temperatures", "1,2", "--no-counterterm", "--no-timestamp",
                     "--out", str(out), "thermo"])
        assert code == 3
        text = out.read_text()
        assert "# counterterm: False" in text
        rows = [l for l in text.splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 2
        cell = _error_cell(lambda: reduced_hamiltonian_at(UNSTABLE, 5.0))
        assert all(row.endswith(f",nan,nan,nan,{cell}") for row in rows)

    def test_flagged_json_is_strict(self, tmp_path):
        # a flagged row's NaN values are written as null, never as NaN
        out = tmp_path / "fig.json"
        code = main(["--no-counterterm", "--format", "json", "--no-timestamp",
                     "--out", str(out), "figure", "2a"])
        assert code == 3

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        payload = json.loads(out.read_text(), parse_constant=reject)
        assert payload["rows"]
        cell = _error_cell(lambda: solve_moments(UNSTABLE, 1.0))
        assert all(row[1:] == [None, None, cell] for row in payload["rows"])

    def test_timestamp_by_default(self, tmp_path):
        out = tmp_path / "thermo.csv"
        assert main(["--temperatures", "1,2", "--out", str(out), "thermo"]) == 0
        assert "# timestamp: " in out.read_text()
        assert main(["--temperatures", "1,2", "--no-timestamp", "--out", str(out),
                     "thermo"]) == 0
        assert "# timestamp: " not in out.read_text()

    def test_oracle_compare_exits_zero_with_flags(self, tmp_path, capsys):
        # the oracle table's flags (a failed continuum solve, the Fock row's
        # "fock" label) do not turn into a failing exit code
        out = tmp_path / "oracle.csv"
        code = main(["--no-counterterm", "--n-max", "8", "--no-timestamp",
                     "--out", str(out), "oracle-compare"])
        assert code == 0
        text = out.read_text()
        cell = _error_cell(lambda: solve_moments(UNSTABLE, 2.0))
        assert text.count(f",{cell}\n") == 6 and text.endswith(",fock\n")

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


class TestSweepDataset:
    """`thermo` and `sweep`: the per-coupling rows of figures 3a-4b."""

    def test_single_point_matches_exact_point(self):
        (row,) = _sweep(temperatures="2", t_ref=1.0).rows
        cfg = SpectralConfig(0.5, 20.0)
        point = exact_point(cfg, 2.0, reduced_hamiltonian_at(cfg, 1.0))
        assert row[:2] == [2.0, 0.5] and row[-1] == ""
        for got, want in zip(row[2:5], (point.internal_energy,
                                        point.heat_capacity, point.z_reduced)):
            assert got == pytest.approx(want, rel=1e-12)

    def test_exact_pipeline_invariants(self):
        ds = _sweep(temperatures="geom:0.05:3:12", t_ref=1.0)
        wbar = reduced_hamiltonian_at(SpectralConfig(0.5, 20.0), 1.0).eigenfrequency
        assert len(ds.rows) == 12
        for _temp, _gamma, u, c, _z, error in ds.rows:
            assert error == "" and c > 0 and u >= wbar / 2 - 1e-12

    def test_coupling_axis_columns(self):
        ds = _sweep("coupling", gammas="0.1,0.5,1", temperature=2.0, t_ref=1.0)
        assert [row[1] for row in ds.rows] == [0.1, 0.5, 1.0]
        assert all(row[0] == 2.0 and row[-1] == "" for row in ds.rows)

    @pytest.mark.parametrize("axis", ["temperature", "coupling"])
    def test_naive_rows_equal_naive_curves(self, monkeypatch, axis):
        discretized = []

        def counting(scfg, k_c, omega_max):
            discretized.append(scfg.gamma)
            return discretize(scfg, k_c, omega_max)

        monkeypatch.setattr(cli, "discretize", counting)
        ds = _sweep(axis, "naive", temperatures="0.1,0.5,2", gammas="0.1,1",
                    temperature=0.5, k_c=60, omega_max=100.0)
        # one discretization per coupling, at that coupling
        assert discretized == ([0.5] if axis == "temperature" else [0.1, 1.0])
        for temp, gamma, u, c, z, error in ds.rows:
            modes = discretize(SpectralConfig(gamma, 20.0), 60, 100.0)
            (u_ref,), (c_ref,) = naive_curves(modes, [1 / temp], counterterm=True)
            assert (u, c, error) == (u_ref, c_ref, "") and math.isnan(z)
        assert len({row[3] for row in ds.rows}) == len(ds.rows)

    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_failures_flagged_with_the_full_message(self, pipeline):
        ds = _sweep(pipeline=pipeline, temperatures="1,2", counterterm=False,
                    k_c=40, omega_max=200.0)
        if pipeline == "naive":
            cell = _error_cell(lambda: naive_curves(
                discretize(UNSTABLE, 40, 200.0), [1.0], False))
        else:
            cell = _error_cell(lambda: reduced_hamiltonian_at(UNSTABLE, 5.0))
        assert cell.startswith("InvertedPotential: ")
        assert [row[-1] for row in ds.rows] == [cell] * 2
        assert all(math.isnan(v) for row in ds.rows for v in row[2:5])

    @pytest.mark.parametrize("axis", ["temperature", "coupling"])
    @pytest.mark.parametrize("name,pipeline", [
        ("exact_curves", "exact"), ("reduced_hamiltonian_at", "drop-pairing"),
        ("naive_curves", "naive")])
    def test_programming_errors_propagate(self, monkeypatch, axis, name, pipeline):
        # only QbmError becomes a row flag; anything else is a bug and raises
        def broken(*args, **kwargs):
            raise TypeError("broken")

        monkeypatch.setattr(cli, name, broken)
        with pytest.raises(TypeError, match="broken"):
            _sweep(axis, pipeline, temperatures="1,2", gammas="0.1,1",
                   k_c=20, omega_max=100.0)

    @pytest.mark.parametrize("counterterm", [True, False])
    def test_one_extraction_per_coupling(self, monkeypatch, counterterm):
        # a failed extraction is not retried row by row either
        calls = []

        def counting(scfg, t_ref):
            calls.append(scfg.gamma)
            return reduced_hamiltonian_at(scfg, t_ref)

        monkeypatch.setattr(cli, "reduced_hamiltonian_at", counting)
        ds = _sweep(pipeline="drop-pairing", temperatures="geom:0.1:3:8",
                    counterterm=counterterm)
        assert calls == [0.5] and len(ds.rows) == 8
        assert all((row[-1] == "") == counterterm for row in ds.rows)
        calls.clear()
        _sweep("coupling", "drop-imaginary", gammas="0.1,0.5,1",
               counterterm=counterterm)
        assert calls == [0.1, 0.5, 1.0]

    def test_rows_equal_the_figure_rows(self):
        # one array pass per coupling: the sweep's U and C are the figures' cells
        grid = {"gammas": "0.5", "temperatures": "geom:0.05:3:12"}
        exact = _sweep(**grid).rows
        dropped = _sweep(pipeline="drop-pairing", **grid).rows
        cfg = parse_config(overrides={"timestamp": False, **grid})
        fig_3a, fig_3b, fig_4b = (run_figure(f, cfg).rows for f in ("3a", "3b", "4b"))
        assert len(exact) == len(fig_3a) == 12
        for e, d, r3a, r3b, r4b in zip(exact, dropped, fig_3a, fig_3b, fig_4b):
            assert e[:2] == d[:2] == r3a[:2] == r3b[:2] == r4b[:2]
            assert (e[2], e[3], d[3]) == (r3a[2], r3b[2], r4b[2])

    @pytest.mark.parametrize("pipeline", ["drop-imaginary", "drop-pairing"])
    def test_incomplete_pipelines_change_only_the_capacity(self, pipeline):
        exact = _sweep(temperatures="0.2,1,3").rows
        dropped = _sweep(pipeline=pipeline, temperatures="0.2,1,3").rows
        h = reduced_hamiltonian_at(SpectralConfig(0.5, 20.0), 5.0)
        freq = incomplete_frequency(pipeline, h)
        for e, d in zip(exact, dropped):
            assert d[3] == heat_capacity_exact(freq, d[0])
            assert d[:3] + d[4:] == e[:3] + e[4:] and d[-1] == ""
