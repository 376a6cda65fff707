"""Command-line front end: figure datasets, oracle comparisons, sweeps.

Output is CSV with a '#'-prefixed metadata preamble (plus an optional JSON
sidecar); identical configurations produce byte-identical files unless the
timestamp field is enabled.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .continuum import solve_moments
from .errors import ConfigError, QbmError
from .finite import fock_oracle, oracle_moments, reduced_partition
from .gibbs import extended_bose_einstein, reduced_hamiltonian
from .spectral import ModeList, SpectralConfig, discretize
from .thermo import (ThermoPoint, heat_capacity_exact,
                     heat_capacity_incomplete, internal_energy_hamiltonian,
                     internal_energy_partition, naive_curves,
                     reduced_hamiltonian_at, sweep)

FIGURE_IDS = ("1a", "1b", "2a", "2b", "3a", "3b", "4a", "4b", "5")

_FIGURE_GAMMAS = (0.1, 0.5, 1.0, 2.0, 3.0)
_FIG5_GAMMAS = (0.1, 0.3, 0.6, 1.0, 2.0)


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters; grids are tuples so the config is hashable."""

    gamma: float = 0.5
    cutoff: float = 20.0
    temperatures: tuple = tuple(np.geomspace(0.05, 3.0, 60))
    gammas: tuple = _FIGURE_GAMMAS
    temperature: float = 1.0
    k_c: int = 400
    omega_max: float = 200.0
    n_max: int = 60
    t_ref: float = 5.0
    counterterm: bool = True
    out: str | None = None
    fmt: str = "csv"
    timestamp: bool = True

    def spectral(self, gamma: float | None = None) -> SpectralConfig:
        return SpectralConfig(gamma=self.gamma if gamma is None else gamma,
                              cutoff=self.cutoff, counterterm=self.counterterm)


@dataclass
class FigureDataset:
    """Columns, rows and config echo of one emitted dataset."""

    figure_id: str
    columns: list[str]
    rows: list[list]
    metadata: dict = field(default_factory=dict)

    def validate(self) -> "FigureDataset":
        for i, row in enumerate(self.rows):
            if len(row) != len(self.columns):
                raise ConfigError("rows", f"row {i} does not match the schema")
        return self


# ---------------------------------------------------------------------------
# configuration parsing
# ---------------------------------------------------------------------------

_GRID_KEYS = {"temperatures", "gammas"}
_FLOAT_KEYS = {"gamma", "cutoff", "temperature", "omega_max", "t_ref"}
_INT_KEYS = {"k_c", "n_max"}
_BOOL_KEYS = {"counterterm", "timestamp"}
_STR_KEYS = {"out", "fmt"}
_ALL_KEYS = _GRID_KEYS | _FLOAT_KEYS | _INT_KEYS | _BOOL_KEYS | _STR_KEYS


def _parse_grid(key: str, text: str) -> tuple:
    text = text.strip()
    try:
        if text.startswith(("geom:", "lin:")):
            kind, lo, hi, num = text.split(":")
            lo, hi, num = float(lo), float(hi), int(num)
            if num < 1 or lo <= 0 or hi <= lo:
                raise ValueError("need 0 < lo < hi and n >= 1")
            fn = np.geomspace if kind == "geom" else np.linspace
            return tuple(float(x) for x in fn(lo, hi, num))
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(key, f"bad grid spec {text!r}: {exc}") from None


def _coerce(key: str, value):
    if isinstance(value, str):
        value = value.strip()
    try:
        if key in _GRID_KEYS:
            return _parse_grid(key, value) if isinstance(value, str) else tuple(value)
        if key in _FLOAT_KEYS:
            return float(value)
        if key in _INT_KEYS:
            return int(value)
        if key in _BOOL_KEYS:
            if isinstance(value, bool):
                return value
            if value.lower() in ("true", "1", "yes"):
                return True
            if value.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {value!r}")
        return str(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(key, str(exc)) from None


def _validate(cfg: RunConfig) -> RunConfig:
    for key in sorted(_FLOAT_KEYS | _GRID_KEYS):
        values = getattr(cfg, key)
        if not all(math.isfinite(v) for v in
                   (values if key in _GRID_KEYS else (values,))):
            raise ConfigError(key, "values must be finite")
    if cfg.gamma < 0:
        raise ConfigError("gamma", "coupling strength must be >= 0")
    if cfg.cutoff <= 0:
        raise ConfigError("cutoff", "cutoff must be > 0")
    if cfg.temperature <= 0 or cfg.t_ref <= 0:
        raise ConfigError("temperature", "temperatures must be > 0")
    for key, grid in (("temperatures", cfg.temperatures), ("gammas", cfg.gammas)):
        if len(grid) == 0:
            raise ConfigError(key, "grid must be nonempty")
        if any(v <= 0 for v in grid) and key == "temperatures":
            raise ConfigError(key, "grid values must be > 0")
        if any(v < 0 for v in grid):
            raise ConfigError(key, "grid values must be >= 0")
    if cfg.k_c < 1:
        raise ConfigError("k_c", "must be >= 1")
    if cfg.omega_max <= 0:
        raise ConfigError("omega_max", "must be > 0")
    if cfg.n_max < 1:
        raise ConfigError("n_max", "must be >= 1")
    if cfg.fmt not in ("csv", "json"):
        raise ConfigError("fmt", "must be csv or json")
    return cfg


def parse_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from documented defaults, a key=value file and flags.

    Flags take precedence over the file; unknown keys are errors.
    """
    values: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError("config", f"cannot read {path}: {exc}") from None
        for lineno, line in enumerate(lines, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}", f"expected key = value, got {line!r}")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key not in _ALL_KEYS:
                raise ConfigError(key, f"unknown configuration key (line {lineno})")
            values[key] = _coerce(key, value)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _ALL_KEYS:
            raise ConfigError(key, "unknown configuration key")
        values[key] = _coerce(key, value)
    return _validate(replace(RunConfig(), **values))


# ---------------------------------------------------------------------------
# dataset construction
# ---------------------------------------------------------------------------

def _meta(cfg: RunConfig, **extra) -> dict:
    meta = {
        "version": __version__,
        "gamma": cfg.gamma,
        "cutoff": cfg.cutoff,
        "counterterm": cfg.counterterm,
        "t_ref": cfg.t_ref,
        "cross_validation_tolerance": 1e-4,
    }
    meta.update(extra)
    return meta


def _coupling_grid() -> np.ndarray:
    # reaches from the decoupled limit to gamma = 3 with a weak-coupling zoom
    grid = np.concatenate([[1e-6], np.geomspace(1e-4, 0.05, 12),
                           np.geomspace(0.06, 3.0, 48)])
    return np.unique(grid)


def run_figure(figure_id: str, cfg: RunConfig) -> FigureDataset:
    """Emit the dataset for one figure; per-point failures become row flags."""
    if figure_id not in FIGURE_IDS:
        raise ConfigError("figure", f"unknown figure id {figure_id!r}")
    builder = {
        "1a": _figure_1a, "1b": _figure_1b, "2a": _figure_2a, "2b": _figure_2b,
        "3a": _figure_3a, "3b": _figure_3b, "4a": _figure_4a, "4b": _figure_4b,
        "5": _figure_5,
    }[figure_id]
    return builder(cfg).validate()


def _figure_1a(cfg: RunConfig) -> FigureDataset:
    rows = []
    for gamma in _coupling_grid():
        try:
            m = solve_moments(cfg.spectral(gamma), 1.0 / 10.0)
            rows.append([gamma, m.occupation, abs(m.squeezing), ""])
        except QbmError as exc:
            rows.append([gamma, float("nan"), float("nan"), type(exc).__name__])
    return FigureDataset("1a", ["gamma", "n", "s_abs", "error"], rows,
                         _meta(cfg, temperature=10.0))


def _figure_1b(cfg: RunConfig) -> FigureDataset:
    rows = []
    for gamma in _coupling_grid():
        try:
            m = solve_moments(cfg.spectral(gamma), 1.0 / 10.0)
            h = reduced_hamiltonian(m, 10.0)
            rows.append([gamma, h.omega, abs(h.pairing), h.eigenfrequency, ""])
        except QbmError as exc:
            rows.append([gamma, float("nan"), float("nan"), float("nan"),
                         type(exc).__name__])
    return FigureDataset("1b", ["gamma", "omega_r", "delta_abs", "omega_bar",
                                "error"], rows, _meta(cfg, temperature=10.0))


def _fig2_grid() -> np.ndarray:
    return np.geomspace(0.1, 20.0, 60)


def _figure_2a(cfg: RunConfig) -> FigureDataset:
    rows = []
    for temp in _fig2_grid():
        try:
            m = solve_moments(cfg.spectral(0.5), 1.0 / temp)
            rows.append([temp, m.occupation, abs(m.squeezing), ""])
        except QbmError as exc:
            rows.append([temp, float("nan"), float("nan"), type(exc).__name__])
    return FigureDataset("2a", ["T", "n", "s_abs", "error"], rows,
                         _meta(cfg, gamma=0.5))


def _figure_2b(cfg: RunConfig) -> FigureDataset:
    rows = []
    for temp in _fig2_grid():
        try:
            m = solve_moments(cfg.spectral(0.5), 1.0 / temp)
            h = reduced_hamiltonian(m, temp)
            rows.append([temp, h.omega, abs(h.pairing), ""])
        except QbmError as exc:
            rows.append([temp, float("nan"), float("nan"), type(exc).__name__])
    return FigureDataset("2b", ["T", "omega_r", "delta_abs", "error"], rows,
                         _meta(cfg, gamma=0.5))


def _thermo_rows(cfg: RunConfig, gammas, columns_of) -> list:
    rows = []
    for gamma in gammas:
        try:
            h = reduced_hamiltonian_at(cfg.spectral(gamma), cfg.t_ref)
        except QbmError as exc:
            for temp in cfg.temperatures:
                rows.append([temp, gamma] + [float("nan")] * 2
                            + [type(exc).__name__])
            continue
        for temp in cfg.temperatures:
            try:
                rows.append([temp, gamma] + columns_of(h, gamma, temp) + [""])
            except QbmError as exc:
                rows.append([temp, gamma] + [float("nan")] * 2
                            + [type(exc).__name__])
    return rows


def _figure_3a(cfg: RunConfig) -> FigureDataset:
    def cols(h, gamma, temp):
        m = extended_bose_einstein(h, temp)
        return [internal_energy_hamiltonian(h, m),
                internal_energy_partition(h.eigenfrequency, temp)]

    rows = _thermo_rows(cfg, cfg.gammas, cols)
    return FigureDataset("3a", ["T", "gamma", "U_from_H", "U_from_Z", "error"],
                         rows, _meta(cfg))


def _figure_3b(cfg: RunConfig) -> FigureDataset:
    def cols(h, gamma, temp):
        c_h = heat_capacity_exact(h.eigenfrequency, temp)
        du = 1e-5 * temp
        c_z = (internal_energy_partition(h.eigenfrequency, temp + du)
               - internal_energy_partition(h.eigenfrequency, temp - du)) / (2 * du)
        return [c_h, c_z]

    rows = _thermo_rows(cfg, cfg.gammas, cols)
    return FigureDataset("3b", ["T", "gamma", "C_from_H", "C_from_Z", "error"],
                         rows, _meta(cfg))


def _figure_incomplete(cfg: RunConfig, figure_id: str, mode: str) -> FigureDataset:
    def cols(h, gamma, temp):
        return [heat_capacity_incomplete(mode, h, temp),
                heat_capacity_exact(h.eigenfrequency, temp)]

    rows = _thermo_rows(cfg, cfg.gammas, cols)
    return FigureDataset(figure_id, ["T", "gamma", "C_incomplete", "C_exact",
                                     "error"], rows, _meta(cfg, mode=mode))


def _figure_4a(cfg: RunConfig) -> FigureDataset:
    return _figure_incomplete(cfg, "4a", "drop-imaginary")


def _figure_4b(cfg: RunConfig) -> FigureDataset:
    return _figure_incomplete(cfg, "4b", "drop-pairing")


def _figure_5(cfg: RunConfig) -> FigureDataset:
    temps = np.unique(np.concatenate([np.geomspace(0.02, 0.05, 10),
                                      np.asarray(cfg.temperatures)]))
    rows = []
    for gamma in _FIG5_GAMMAS:
        scfg = cfg.spectral(gamma)
        modes = discretize(scfg, cfg.k_c, cfg.omega_max)
        try:
            h = reduced_hamiltonian_at(scfg, cfg.t_ref)
        except QbmError as exc:
            h, h_err = None, type(exc).__name__
        else:
            h_err = ""
        try:
            c_naive = naive_curves(modes, [1.0 / t for t in temps],
                                   cfg.counterterm)[1]
        except QbmError as exc:
            rows += [[temp, gamma, float("nan"), float("nan"),
                      type(exc).__name__] for temp in temps]
            continue
        for temp, c in zip(temps, c_naive):
            c_exact = (heat_capacity_exact(h.eigenfrequency, temp)
                       if h is not None else float("nan"))
            rows.append([temp, gamma, c, c_exact, h_err])
    return FigureDataset("5", ["T", "gamma", "C_naive", "C_exact", "error"],
                         rows, _meta(cfg, k_c=cfg.k_c, omega_max=cfg.omega_max))


def oracle_compare(cfg: RunConfig, gammas=(0.0, 0.5),
                   temperatures=(0.5, 10.0), ladder=(100, 200, 400)) -> FigureDataset:
    """Continuum-versus-discrete error table plus a Fock-oracle row.

    The ladder scales the integration window with the mode count so both
    node-density and window-truncation errors shrink along it.
    """
    rows = []
    for gamma in gammas:
        scfg = cfg.spectral(gamma)
        for temp in temperatures:
            beta = 1.0 / temp
            try:
                m_cont = solve_moments(scfg, beta)
                z_cont = reduced_partition(m_cont)
            except QbmError as exc:  # flags every rung of this (gamma, T)
                rows += [[gamma, temp, k_c, float("nan"), float("nan"),
                          float("nan"), type(exc).__name__] for k_c in ladder]
                continue
            for k_c in ladder:
                try:
                    omega_max = cfg.omega_max * k_c / ladder[0]
                    modes = discretize(scfg, k_c, omega_max)
                    m_disc = oracle_moments(modes, beta, cfg.counterterm)
                    rows.append([gamma, temp, k_c,
                                 abs(m_cont.occupation - m_disc.occupation),
                                 abs(m_cont.squeezing - m_disc.squeezing),
                                 abs(z_cont - reduced_partition(m_disc)), ""])
                except QbmError as exc:
                    rows.append([gamma, temp, k_c, float("nan"), float("nan"),
                                 float("nan"), type(exc).__name__])
    # brute-force cell: single bath mode, Gaussian machinery vs Fock space
    modes = ModeList(frequencies=np.array([2.0]), couplings=np.array([0.3]))
    beta = 1.0
    m_gauss = oracle_moments(modes, beta, cfg.counterterm)
    fock = fock_oracle(modes, beta, min(cfg.n_max, 40), cfg.counterterm,
                       check_truncation=False)
    rows.append([float("nan"), 1.0 / beta, 1,
                 abs(m_gauss.occupation - fock.moments.occupation),
                 abs(m_gauss.squeezing - fock.moments.squeezing),
                 abs(np.log(reduced_partition(m_gauss)) - fock.ln_z_reduced),
                 "fock"])
    ds = FigureDataset("oracle-compare",
                       ["gamma", "T", "k_c", "dn", "ds", "dz", "error"],
                       rows, _meta(cfg, ladder=list(ladder)))
    return ds.validate()


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _format_value(val) -> str:
    if isinstance(val, float):
        return f"{val:.12g}"
    return str(val)


def render_csv(ds: FigureDataset, timestamp: bool) -> str:
    lines = [f"# qbm dataset: {ds.figure_id}"]
    for key in sorted(ds.metadata):
        lines.append(f"# {key}: {_format_value(ds.metadata[key])}")
    if timestamp:
        lines.append(f"# timestamp: {time.strftime('%Y-%m-%dT%H:%M:%S')}")
    lines.append(",".join(ds.columns))
    for row in ds.rows:
        lines.append(",".join(_format_value(v) for v in row))
    return "\n".join(lines) + "\n"


def render_json(ds: FigureDataset, timestamp: bool) -> str:
    payload = {
        "dataset": ds.figure_id,
        "metadata": {k: ds.metadata[k] for k in sorted(ds.metadata)},
        "columns": ds.columns,
        "rows": ds.rows,
    }
    if timestamp:
        payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    return json.dumps(payload, indent=1, default=_format_value) + "\n"


def write_dataset(ds: FigureDataset, cfg: RunConfig, default_name: str) -> str:
    path = cfg.out or f"{default_name}.{cfg.fmt}"
    text = render_csv(ds, cfg.timestamp) if cfg.fmt == "csv" \
        else render_json(ds, cfg.timestamp)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbm",
        description="Reduced state and thermodynamics of a damped quantum "
                    "oscillator at thermal equilibrium.")
    parser.add_argument("--config", type=str, default=None,
                        help="key = value configuration file")
    parser.add_argument("--gamma", type=float, default=None)
    parser.add_argument("--temperature", type=float, default=None)
    parser.add_argument("--temperatures", type=str, default=None,
                        help="comma list or geom:lo:hi:n / lin:lo:hi:n")
    parser.add_argument("--gammas", type=str, default=None)
    parser.add_argument("--cutoff", type=float, default=None)
    parser.add_argument("--kc", dest="k_c", type=int, default=None)
    parser.add_argument("--omega-max", dest="omega_max", type=float, default=None)
    parser.add_argument("--n-max", dest="n_max", type=int, default=None)
    parser.add_argument("--t-ref", dest="t_ref", type=float, default=None)
    parser.add_argument("--no-counterterm", action="store_true",
                        help="drop the static stiffness compensation")
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--format", dest="fmt", type=str, default=None,
                        choices=("csv", "json"))
    parser.add_argument("--no-timestamp", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("state", help="moments and kernel at one (gamma, T) point")
    sub.add_parser("thermo", help="internal energy and heat capacity sweep")
    fig = sub.add_parser("figure", help="emit a figure dataset")
    fig.add_argument("figure_id", choices=FIGURE_IDS)
    sub.add_parser("oracle-compare", help="continuum-versus-oracle error table")
    swp = sub.add_parser("sweep", help="generic pipeline sweep")
    swp.add_argument("--axis", choices=("temperature", "coupling"),
                     default="temperature")
    swp.add_argument("--pipeline", default="exact",
                     choices=("exact", "drop-imaginary", "drop-pairing", "naive"))
    return parser


def _overrides_from_args(args: argparse.Namespace) -> dict:
    overrides = {key: getattr(args, key, None)
                 for key in ("gamma", "temperature", "temperatures", "gammas",
                             "cutoff", "k_c", "omega_max", "n_max", "t_ref",
                             "out", "fmt")}
    if args.no_counterterm:
        overrides["counterterm"] = False
    if args.no_timestamp:
        overrides["timestamp"] = False
    return overrides


def _cmd_state(cfg: RunConfig) -> int:
    from .state import moments_to_kernel
    m = solve_moments(cfg.spectral(), 1.0 / cfg.temperature)
    kernel = moments_to_kernel(m)
    h = reduced_hamiltonian(m, cfg.temperature)
    payload = {
        "gamma": cfg.gamma, "temperature": cfg.temperature,
        "occupation": m.occupation,
        "squeezing_re": m.squeezing.real, "squeezing_im": m.squeezing.imag,
        "omega_s_kernel": kernel.omega_s.real, "pi_s_kernel": kernel.pi_s.real,
        "omega_r": h.omega, "delta_abs": abs(h.pairing),
        "omega_bar": h.eigenfrequency,
        "z_reduced": reduced_partition(m),
    }
    text = json.dumps(payload, indent=1) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _points_dataset(points: list[ThermoPoint], name: str, cfg: RunConfig,
                    axis: str) -> FigureDataset:
    rows = [[p.temperature, p.coupling, p.internal_energy, p.heat_capacity,
             p.z_reduced, p.error or ""] for p in points]
    return FigureDataset(name, ["T", "gamma", "U", "C", "Z_reduced", "error"],
                         rows, _meta(cfg, axis=axis)).validate()


def _cmd_thermo(cfg: RunConfig) -> int:
    points = sweep("temperature", cfg.temperatures, cfg.spectral(),
                   pipeline="exact", t_ref=cfg.t_ref)
    path = write_dataset(_points_dataset(points, "thermo", cfg, "temperature"),
                         cfg, "thermo")
    print(path)
    return 3 if any(p.error for p in points) else 0


def _cmd_sweep(cfg: RunConfig, axis: str, pipeline: str) -> int:
    grid = cfg.temperatures if axis == "temperature" else cfg.gammas
    modes = None
    if pipeline == "naive" and axis == "temperature":
        modes = discretize(cfg.spectral(), cfg.k_c, cfg.omega_max)
    elif pipeline == "naive":
        modes = [discretize(cfg.spectral(g), cfg.k_c, cfg.omega_max) for g in grid]
    points = sweep(axis, grid, cfg.spectral(), pipeline=pipeline,
                   t_ref=cfg.t_ref, fixed_temperature=cfg.temperature,
                   modes=modes)
    path = write_dataset(_points_dataset(points, f"sweep-{pipeline}", cfg, axis),
                         cfg, f"sweep_{pipeline}")
    print(path)
    return 3 if any(p.error for p in points) else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, _overrides_from_args(args))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "state":
            return _cmd_state(cfg)
        if args.command == "thermo":
            return _cmd_thermo(cfg)
        if args.command == "figure":
            ds = run_figure(args.figure_id, cfg)
            print(write_dataset(ds, cfg, f"figure_{args.figure_id}"))
            return 3 if any(row[-1] for row in ds.rows) else 0
        if args.command == "oracle-compare":
            ds = oracle_compare(cfg)
            print(write_dataset(ds, cfg, "oracle_compare"))
            return 0
        if args.command == "sweep":
            return _cmd_sweep(cfg, args.axis, args.pipeline)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except QbmError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
