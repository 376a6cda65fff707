"""Self-tests of the benchmark: seeding, output format, checks, tracer, references.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import qbm  # noqa: E402
import qbm.cli  # noqa: E402
import reference  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_op_list(workload):
    assert workloads.build(workload, 7, 20) == workloads.build(workload, 7, 20)
    assert workloads.build(workload, 7, 20) != workloads.build(workload, 8, 20)


def test_states_points_are_unique():
    (ops,) = workloads.build("states", 0, 20)
    assert len(set(ops)) == len(ops)


def _bench(workload, trace, seconds=1):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", "0", "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,trace,key", [("figures", 0, "end_to_end"),
                                                ("states", 1, "per_layer")])
def test_tiny_run_prints_every_metric_with_unit(workload, trace, key):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_best_times_take_each_ops_fastest_repeat():
    a, b = workloads._op("state", k=1), workloads._op("state", k=2)
    assert worker.best_times([[a, b], [a, b]], [3.0, 5.0, 2.0, 6.0]) == [2.0, 5.0]
    assert worker.best_times([[a], [b]], [3.0, 5.0]) == [3.0, 5.0]


def test_no_result_without_qbm_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "states",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and proc.stdout == ""


def _perturb_moments(m, rel=1e-6):
    return replace(m, occupation=m.occupation * (1 + rel))


def test_perturbed_state_misses_its_check():
    op = workloads._op("state", gamma=0.3, cutoff=20.0, temperature=1.0)
    refs = workloads.References()
    out = workloads.runners(qbm)["state"](op)
    assert workloads.check(op, out, refs) == []
    bad = (_perturb_moments(out[0]),) + out[1:]
    with pytest.raises(workloads.CheckFailed):  # breaks moments_to_kernel consistency
        workloads.check(op, bad, refs)
    assert workloads._moments(out[0].occupation * (1 + 1e-6), out[0].squeezing.real,
                              refs(0.3, 20.0, 1.0), "n") == ["n"]


@pytest.mark.parametrize("figure,column", [("1a", 1), ("3a", 2)])
def test_perturbed_figure_fails_its_check(figure, column):
    op = workloads._op("figure", figure=figure, cutoff=20.0, t_ref=5.0)
    refs = workloads.References()
    ds, text = workloads.runners(qbm)["figure"](op)
    assert workloads.check(op, (ds, text), refs) == []
    ds.rows[3][column] *= 1 + 1e-6
    if figure == "1a":
        assert workloads.check(op, (ds, text), refs) == ["figure 1a vs reference"]
    else:
        with pytest.raises(workloads.CheckFailed):
            workloads.check(op, (ds, text), refs)


def test_perturbed_ladder_fails_its_check():
    op = workloads._op("ladder", gamma=0.2, cutoff=10.0, temperature=0.5)
    refs = workloads.References()
    rungs = workloads.runners(qbm)["ladder"](op)
    assert workloads.check(op, rungs, refs) == []
    k_c, via_kernel, via_modes = rungs[0]
    rungs[0] = (k_c, _perturb_moments(via_kernel), via_modes)
    with pytest.raises(workloads.CheckFailed):
        workloads.check(op, rungs, refs)


def test_tracer_sees_from_import_sites_and_restores():
    original = qbm.cli.solve_moments
    tracer = Tracer()
    tracer.install()
    try:
        assert qbm.cli.solve_moments is not original
        assert qbm.continuum.solve_moments is qbm.cli.solve_moments
        tracer.active = True
        qbm.cli.run_figure("2a", qbm.cli.parse_config(overrides={"timestamp": False}))
        tracer.active = False
    finally:
        tracer.uninstall()
    assert qbm.cli.solve_moments is original
    layer = tracer.metrics()
    assert layer["cli.run_figure.calls"] == 1
    assert layer["continuum.solve_moments.calls"] == 60
    assert layer["continuum.matsubara_moments.calls"] == 60
    assert layer["trace.top_level_spans"] == 2  # parse_config and run_figure
    assert layer["continuum.repeat_frac"] == 0.0
    assert layer["cli.self_s"] > 0 and layer["continuum.self_s"] > 0


def test_reference_weak_coupling_limit():
    beta = 2.0
    n_free = 1.0 / math.expm1(beta)
    n, s = reference.continuum_moments(1e-12, 20.0, beta)
    assert n == pytest.approx(n_free, rel=1e-9) and abs(s) < 1e-9
    freqs, v2 = np.array([3.0]), np.array([1e-14])
    n, s = reference.finite_moments(freqs, v2, beta)
    assert n == pytest.approx(n_free, rel=1e-9) and abs(s) < 1e-9


def test_reference_agrees_with_qbm_at_an_ordinary_point():
    m = qbm.solve_moments(qbm.SpectralConfig(gamma=0.5, cutoff=20.0), 1.0)
    n, s = reference.continuum_moments(0.5, 20.0, 1.0)
    assert m.occupation == pytest.approx(n, rel=1e-10)
    assert m.squeezing.real == pytest.approx(s, rel=1e-10)
