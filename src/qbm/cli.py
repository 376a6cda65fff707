"""Command-line front end: figure datasets, oracle comparisons, sweeps.

Output is CSV with a '#'-prefixed metadata preamble, or strict JSON in its
place with ``--format json``; identical configurations produce
byte-identical files unless the timestamp field is enabled.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
from .continuum import solve_moments
from .errors import ConfigError, QbmError
from .finite import fock_oracle, oracle_moments, reduced_partition
from .gibbs import quasiparticle_occupation, reduced_hamiltonian
from .spectral import ModeList, SpectralConfig, discretize
from .state import moments_to_kernel
from .thermo import (exact_curves, incomplete_frequency, naive_curves,
                     reduced_hamiltonian_at)

_FIGURE_GAMMAS = (0.1, 0.5, 1.0, 2.0, 3.0)
_FIG5_GAMMAS = (0.1, 0.3, 0.6, 1.0, 2.0)


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters; grids are tuples so the config is hashable."""

    gamma: float = 0.5
    cutoff: float = 20.0
    temperatures: tuple = tuple(np.geomspace(0.05, 3.0, 60).tolist())
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

_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def _parse_grid(key: str, text: str) -> tuple:
    text = text.strip()
    try:
        if text.startswith(("geom:", "lin:")):
            kind, lo, hi, num = text.split(":")
            lo, hi, num = float(lo), float(hi), int(num)
            if num < 1 or hi <= lo or (kind == "geom" and lo <= 0):
                raise ValueError("need lo < hi, n >= 1 and, for geom, lo > 0")
            fn = np.geomspace if kind == "geom" else np.linspace
            return tuple(float(x) for x in fn(lo, hi, num))
        return tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(key, f"bad grid spec {text!r}: {exc}") from None


def _coerce(key: str, value):
    """Coerce a file or flag value to the type of the key's default."""
    kind = str if key == "out" else type(_DEFAULTS[key])
    if isinstance(value, str):
        value = value.strip()
    try:
        if kind is tuple:
            return _parse_grid(key, value) if isinstance(value, str) else tuple(value)
        if kind is bool:
            if isinstance(value, bool):
                return value
            text = value.lower() if isinstance(value, str) else None
            if text in ("true", "1", "yes"):
                return True
            if text in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {value!r}")
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(key, str(exc)) from None


def _validate(cfg: RunConfig) -> RunConfig:
    for key in sorted(k for k, v in _DEFAULTS.items() if isinstance(v, (float, tuple))):
        values = getattr(cfg, key)
        if not all(math.isfinite(v) for v in
                   (values if isinstance(values, tuple) else (values,))):
            raise ConfigError(key, "values must be finite")
    if cfg.gamma < 0:
        raise ConfigError("gamma", "coupling strength must be >= 0")
    if cfg.cutoff <= 0:
        raise ConfigError("cutoff", "cutoff must be > 0")
    if cfg.temperature <= 0:
        raise ConfigError("temperature", "temperatures must be > 0")
    if cfg.t_ref <= 0:
        raise ConfigError("t_ref", "reference temperature must be > 0")
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
            if key not in _DEFAULTS:
                raise ConfigError(key, f"unknown configuration key (line {lineno})")
            values[key] = _coerce(key, value)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _DEFAULTS:
            raise ConfigError(key, "unknown configuration key")
        values[key] = _coerce(key, value)
    return _validate(replace(RunConfig(), **values))


# ---------------------------------------------------------------------------
# dataset construction
# ---------------------------------------------------------------------------

def _meta(cfg: RunConfig, **extra) -> dict:
    """Preamble keys; ``gamma`` and ``t_ref`` only where every row uses them."""
    return {"version": __version__, "cutoff": cfg.cutoff,
            "counterterm": cfg.counterterm, **extra}


def _flagged(prefix: list, width: int, values) -> list:
    """prefix + values() + [""], or width NaNs and the QbmError's "Class: message"."""
    try:
        return prefix + values() + [""]
    except QbmError as exc:
        return prefix + [float("nan")] * width + [f"{type(exc).__name__}: {exc}"]


def _once(compute):
    """compute() now; the callable returned gives its value or its QbmError."""
    try:
        value = compute()
    except QbmError as exc:
        failure = exc  # the except clause unbinds exc on exit

        def replay():
            raise failure
        return replay
    return lambda: value


# Figures 1a/1b scan the coupling at T = 10 (from the decoupled limit to
# gamma = 3, with a weak-coupling zoom), 2a/2b the temperature at gamma = 0.5.
_COUPLING_SCAN = np.unique(np.concatenate([[1e-6], np.geomspace(1e-4, 0.05, 12),
                                           np.geomspace(0.06, 3.0, 48)])).tolist()
_TEMPERATURE_SCAN = np.geomspace(0.1, 20.0, 60).tolist()


def _moment_values(m, temp: float) -> list:
    return [m.occupation, abs(m.squeezing)]


def _hamiltonian_values(m, temp: float) -> list:
    h = reduced_hamiltonian(m, temp)
    return [h.omega, abs(h.pairing), h.eigenfrequency]


def _scan_figure(cfg: RunConfig, figure_id: str, spec: tuple) -> FigureDataset:
    columns, values = spec
    by_coupling = figure_id.startswith("1")
    fixed_bath = cfg.spectral(0.5)  # every row of a temperature scan
    rows = []
    for x in _COUPLING_SCAN if by_coupling else _TEMPERATURE_SCAN:
        scfg, temp = (cfg.spectral(x), 10.0) if by_coupling else (fixed_bath, x)
        rows.append(_flagged([x], len(columns), lambda: values(
            solve_moments(scfg, 1.0 / temp), temp)))
    fixed = {"temperature": 10.0} if by_coupling else {"gamma": 0.5}
    return FigureDataset(figure_id, ["gamma" if by_coupling else "T"] + columns
                         + ["error"], rows, _meta(cfg, **fixed))


def _capacities_from_h_and_z(h, temps) -> list:
    """C from H^R in closed form, and from Z^R as a central difference of U_Z."""
    temps = np.asarray(temps)
    du = 1e-5 * temps
    # one pass over T, T + du and T - du
    _, u_z, c_h, _, _ = exact_curves(
        h, np.concatenate([temps, temps + du, temps - du]), h.eigenfrequency)
    n = len(temps)
    return [c_h[:n], (u_z[n:2 * n] - u_z[2 * n:]) / (2 * du)]


def _incomplete_figure(mode: str) -> tuple:
    """Spec of a figure 4: C at the mode's frequency beside C at omega_bar."""
    def values(h, temps) -> list:
        _, _, c_exact, c_incomplete, _ = exact_curves(
            h, temps, incomplete_frequency(mode, h))
        return [c_incomplete, c_exact]
    return ["C_incomplete", "C_exact"], values, {"mode": mode}


def _coupling_rows(cfg: RunConfig, gammas, temps, width: int, columns) -> list:
    """Rows [T, gamma, *values, error] over gammas x temps.

    ``columns(SpectralConfig, temps)`` runs once per coupling and returns
    ``width`` value columns over temps; its QbmError flags every row of that
    coupling.
    """
    rows = []
    for gamma in gammas:
        try:
            table = np.array(columns(cfg.spectral(gamma), temps), dtype=float)
        except QbmError as exc:
            failed = [float("nan")] * width + [f"{type(exc).__name__}: {exc}"]
            rows += [[temp, gamma] + failed for temp in temps]
            continue
        rows += [[temp, gamma, *values, ""]
                 for temp, values in zip(temps, table.T.tolist())]
    return rows


def _thermo_figure(cfg: RunConfig, figure_id: str, spec: tuple) -> FigureDataset:
    """Rows over cfg.gammas x cfg.temperatures from h extracted at t_ref."""
    columns, values, extra = spec
    rows = _coupling_rows(cfg, cfg.gammas, cfg.temperatures, len(columns),
                          lambda scfg, temps: values(
                              reduced_hamiltonian_at(scfg, cfg.t_ref), temps))
    return FigureDataset(figure_id, ["T", "gamma"] + columns + ["error"], rows,
                         _meta(cfg, t_ref=cfg.t_ref, **extra))


def _figure_5(cfg: RunConfig, figure_id: str, spec: None) -> FigureDataset:
    temps = np.unique(np.concatenate([np.geomspace(0.02, 0.05, 10),
                                      np.asarray(cfg.temperatures)])).tolist()
    rows = []
    for gamma in _FIG5_GAMMAS:
        scfg = cfg.spectral(gamma)
        modes = discretize(scfg, cfg.k_c, cfg.omega_max)
        try:
            h = reduced_hamiltonian_at(scfg, cfg.t_ref)
            c_exact, h_err = exact_curves(h, temps, h.eigenfrequency)[2].tolist(), ""
        except QbmError as exc:
            c_exact = [float("nan")] * len(temps)
            h_err = f"{type(exc).__name__}: {exc}"
        try:
            c_naive = naive_curves(modes, [1.0 / t for t in temps],
                                   cfg.counterterm)[1]
        except QbmError as exc:
            rows += [[temp, gamma, float("nan"), float("nan"),
                      f"{type(exc).__name__}: {exc}"] for temp in temps]
            continue
        rows += [[temp, gamma, c, c_h, h_err]
                 for temp, c, c_h in zip(temps, c_naive, c_exact)]
    return FigureDataset(figure_id, ["T", "gamma", "C_naive", "C_exact", "error"],
                         rows, _meta(cfg, k_c=cfg.k_c, omega_max=cfg.omega_max,
                                     t_ref=cfg.t_ref))


# figure id -> (builder, spec).  A scan's spec is (columns, values(moments, T)),
# a figure-3/4 spec (columns, values(h, temps) as columns, extra metadata).
# The callables here look the public qbm functions up by module-global name at
# call time.
_BUILDERS = {
    "1a": (_scan_figure, (["n", "s_abs"], _moment_values)),
    "1b": (_scan_figure, (["omega_r", "delta_abs", "omega_bar"], _hamiltonian_values)),
    "2a": (_scan_figure, (["n", "s_abs"], _moment_values)),
    "2b": (_scan_figure, (["omega_r", "delta_abs"],
                          lambda m, temp: _hamiltonian_values(m, temp)[:2])),
    "3a": (_thermo_figure, (["U_from_H", "U_from_Z"], lambda h, temps:
                            exact_curves(h, temps, h.eigenfrequency)[:2], {})),
    "3b": (_thermo_figure, (["C_from_H", "C_from_Z"], _capacities_from_h_and_z, {})),
    "4a": (_thermo_figure, _incomplete_figure("drop-imaginary")),
    "4b": (_thermo_figure, _incomplete_figure("drop-pairing")),
    "5": (_figure_5, None),
}
FIGURE_IDS = tuple(_BUILDERS)


def run_figure(figure_id: str, cfg: RunConfig) -> FigureDataset:
    """Emit the dataset for one figure; per-point failures become row flags."""
    if figure_id not in _BUILDERS:
        raise ConfigError("figure", f"unknown figure id {figure_id!r}")
    builder, spec = _BUILDERS[figure_id]
    return builder(cfg, figure_id, spec).validate()


def _ladder_errors(m_cont, z_cont: float, modes: ModeList, beta: float,
                   counterterm: bool) -> list:
    m_disc = oracle_moments(modes, beta, counterterm)
    return [abs(m_cont.occupation - m_disc.occupation),
            abs(m_cont.squeezing - m_disc.squeezing),
            abs(z_cont - reduced_partition(m_disc))]


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
            # a failed continuum solve flags every rung of this (gamma, T)
            m_cont = _once(lambda: solve_moments(scfg, beta))
            z_cont = _once(lambda: reduced_partition(m_cont()))
            for k_c in ladder:
                window = cfg.omega_max * k_c / ladder[0]
                rows.append(_flagged([gamma, temp, k_c], 3, lambda: _ladder_errors(
                    m_cont(), z_cont(), discretize(scfg, k_c, window), beta,
                    cfg.counterterm)))
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


def _sweep_dataset(cfg: RunConfig, name: str, axis: str = "temperature",
                   pipeline: str = "exact") -> FigureDataset:
    key = "temperatures" if axis == "temperature" else "gammas"
    grid = getattr(cfg, key)
    if grid[0] <= 0 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(key, "sweep grid must be positive and strictly increasing")
    gammas, temps = (((cfg.gamma,), grid) if axis == "temperature"
                     else (grid, (cfg.temperature,)))
    fixed = {"gamma": cfg.gamma} if axis == "temperature" else {}
    if pipeline == "naive":
        def columns(scfg, temps):  # one discretization and decomposition
            curves = naive_curves(discretize(scfg, cfg.k_c, cfg.omega_max),
                                  [1.0 / t for t in temps], cfg.counterterm)
            return [*curves, [float("nan")] * len(temps)]
    else:
        def columns(scfg, temps):  # one extraction and one array pass
            h = reduced_hamiltonian_at(scfg, cfg.t_ref)
            frequency = (h.eigenfrequency if pipeline == "exact"
                         else incomplete_frequency(pipeline, h))
            energy, _, _, capacity, z_reduced = exact_curves(h, temps, frequency)
            return [energy, capacity, z_reduced]
        fixed["t_ref"] = cfg.t_ref
    rows = _coupling_rows(cfg, gammas, temps, 3, columns)
    return FigureDataset(name, ["T", "gamma", "U", "C", "Z_reduced", "error"],
                         rows, _meta(cfg, axis=axis, **fixed)).validate()


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
    if ds.rows:
        # one format per dataset: a column keeps its value type in every row
        fmt = ",".join("%.12g" if isinstance(v, float) else "%s"
                       for v in ds.rows[0])
        lines += [fmt % tuple(row) for row in ds.rows]
    return "\n".join(lines) + "\n"


def render_json(ds: FigureDataset, timestamp: bool) -> str:
    """Strict JSON: a NaN or infinite value (a flagged row) is written null."""
    payload = {
        "dataset": ds.figure_id,
        "metadata": {k: ds.metadata[k] for k in sorted(ds.metadata)},
        "columns": ds.columns,
        "rows": [[None if isinstance(v, float) and not math.isfinite(v) else v
                  for v in row] for row in ds.rows],
    }
    if timestamp:
        payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    return json.dumps(payload, indent=1, default=_format_value,
                      allow_nan=False) + "\n"


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
    parser.add_argument("--no-counterterm", dest="counterterm",
                        action="store_false", default=None,
                        help="drop the static stiffness compensation")
    parser.add_argument("--out", type=str, default=None)
    parser.add_argument("--format", dest="fmt", type=str, default=None,
                        choices=("csv", "json"))
    parser.add_argument("--no-timestamp", dest="timestamp",
                        action="store_false", default=None)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("state", help="moments and kernel at one (gamma, T) point")
    sub.add_parser("thermo", help="internal energy and heat capacity sweep")
    fig = sub.add_parser("figure", help="emit a figure dataset")
    fig.add_argument("figure_id", choices=FIGURE_IDS)
    sub.add_parser("oracle-compare", help="continuum-versus-oracle error table",
                   description="Fixed grid: gammas 0 and 0.5, T 0.5 and 10, the "
                   "k_c ladder 100/200/400 with its window scaled from "
                   "--omega-max, and one Fock row capped at min(--n-max, 40).")
    swp = sub.add_parser("sweep", help="generic pipeline sweep")
    swp.add_argument("--axis", choices=("temperature", "coupling"),
                     default="temperature")
    swp.add_argument("--pipeline", default="exact",
                     choices=("exact", "drop-imaginary", "drop-pairing", "naive"))
    return parser


def _cmd_state(cfg: RunConfig) -> int:
    m = solve_moments(cfg.spectral(), 1.0 / cfg.temperature)
    kernel = moments_to_kernel(m)
    h = reduced_hamiltonian(m, cfg.temperature)
    payload = {
        "gamma": cfg.gamma, "temperature": cfg.temperature,
        "occupation": m.occupation, "squeezing_re": m.squeezing,
        "omega_s_kernel": kernel.omega_s, "pi_s_kernel": kernel.pi_s,
        "omega_r": h.omega, "delta_abs": abs(h.pairing),
        "omega_bar": h.eigenfrequency,
        "z_reduced": reduced_partition(m),
        "quasiparticle_occupation": quasiparticle_occupation(m),
        "mass_eff": h.mass_eff,
    }
    text = json.dumps(payload, indent=1) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, {f.name: getattr(args, f.name, None)
                                         for f in fields(RunConfig)})
        if args.command == "state":
            return _cmd_state(cfg)
        if args.command == "figure":
            ds, name = run_figure(args.figure_id, cfg), f"figure_{args.figure_id}"
        elif args.command == "oracle-compare":
            ds, name = oracle_compare(cfg), "oracle_compare"
        elif args.command == "thermo":
            ds, name = _sweep_dataset(cfg, "thermo"), "thermo"
        else:
            ds = _sweep_dataset(cfg, f"sweep-{args.pipeline}", args.axis, args.pipeline)
            name = f"sweep_{args.pipeline}"
        print(write_dataset(ds, cfg, name))
        # the oracle table's "fock" flag labels its Fock-space row, not a failure
        flagged = args.command != "oracle-compare" and any(r[-1] for r in ds.rows)
        return 3 if flagged else 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except QbmError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
