"""qbm benchmark: one command, one workload, one JSON result line.

    python3 perfbench/run.py --workload states --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout (qbm is imported from ``src/``, no
install needed).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
IMPORTTIME_PROBES = 3
RUN_LIMIT_S = 170  # every process this run starts ends before this
WARM_UP = ("import sys; sys.path.insert(0, 'src'); import qbm; "
           "qbm.solve_moments(qbm.SpectralConfig(gamma=0.5, cutoff=20.0), 1.0)")


class BenchError(Exception):
    """The benchmark could not produce a result."""


_DEADLINE = time.monotonic() + RUN_LIMIT_S


def _env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    return env


def _run(cmd: list[str]) -> subprocess.CompletedProcess:
    """Run ``cmd`` to completion; it is killed (and reaped) at the run's deadline."""
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                          timeout=max(0.1, _DEADLINE - time.monotonic()))
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:3])} ... exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return proc


def setup_seconds() -> list[float]:
    """Wall time of fresh interpreters through import qbm and one small solve."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        _run([sys.executable, "-c", WARM_UP])
        times.append(time.perf_counter() - t0)
    return times


def import_seconds() -> dict:
    """Cumulative import times of qbm, scipy.integrate and numpy (-X importtime)."""
    wanted = {"qbm": "import.qbm_s", "scipy.integrate": "import.scipy_integrate_s",
              "numpy": "import.numpy_s"}
    samples: dict = {metric: [] for metric in wanted.values()}
    for _ in range(IMPORTTIME_PROBES):
        proc = _run([sys.executable, "-X", "importtime", "-c", WARM_UP])
        seen = set()
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)", line)
            if m and m.group(3) in wanted and m.group(3) not in seen:
                seen.add(m.group(3))
                samples[wanted[m.group(3)]].append(int(m.group(2)) * 1e-6)
        if seen != set(wanted):
            raise BenchError(f"-X importtime did not report {set(wanted) - seen}")
    return {metric: statistics.median(vals) for metric, vals in samples.items()}


def worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = _run([sys.executable, str(HERE / "worker.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_sha() -> str:
    """HEAD of the checkout from .git files, without running git or leaving ROOT."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    probe = _run([sys.executable, "-c", (
        "import json, numpy, scipy\n"
        "def blas(cfg):\n"
        "    b = cfg['Build Dependencies']['blas']\n"
        "    return f\"{b.get('name')} {b.get('version')}\"\n"
        "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__,\n"
        "    'numpy_blas': blas(numpy.show_config(mode='dicts')),\n"
        "    'scipy_blas': blas(scipy.show_config(mode='dicts'))}))")])
    env = json.loads(probe.stdout)
    env.update({
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "threads": {var: "1" for var in THREAD_VARS},
        "seed": seed,
        "git_sha": _git_sha(),
        "machine": platform.machine(),
    })
    return env


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """End-to-end values (tracing off) and the details behind them."""
    setup = setup_seconds()
    res = worker(workload, seed, seconds, 0)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": res["ops_per_s"],
        "op_p50_ms": res["op_p50_ms"],
        "op_tail_ms": res["op_tail_ms"],
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_frac": res["ok"] / res["attempted"],
    }
    return values, {"setup_samples_s": setup, "runs": [res]}


def measure_traced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Per-layer values: an untraced and a traced worker on the same op list.

    A function named in BENCHMARK.json that no longer exists reads 0.
    """
    values = import_seconds()
    plain = worker(workload, seed, seconds / 2, 0)
    traced = worker(workload, seed, seconds / 2, 1)
    values.update(traced.pop("layers"))
    values["trace.overhead_frac"] = plain["ops_per_s"] / traced["ops_per_s"] - 1
    return defaultdict(int, values), {"runs": [plain, traced]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qbm" / "__init__.py").is_file():
        print(f"error: no qbm source under {ROOT / 'src'}; run from a qbm checkout",
              file=sys.stderr)
        return 2
    try:
        env = environment(args.seed)
        specs = json.loads((ROOT / "BENCHMARK.json").read_text())
        specs = specs["per_layer" if args.trace else "end_to_end"]
        measure_fn = measure_traced if args.trace else measure
        values, details = measure_fn(args.workload, args.seed, args.seconds)
    except (BenchError, OSError, KeyError, subprocess.TimeoutExpired,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    runs = details["runs"]
    checks = {k: v for run in runs for k, v in run.get("self_checks", {}).items()}
    failed = sum(run["failed"] for run in runs)
    detail = {
        "workload": args.workload, "trace": args.trace, "environment": env,
        "op_tail_pct": [run["op_tail_pct"] for run in runs],
        "samples": [run["attempted"] for run in runs],
        "tail_blocks": [run["tail_blocks"] for run in runs],
        "passes": [run["passes"] for run in runs],
        "strict_misses": [run["strict_misses"] for run in runs],
        "failures": [f for run in runs for f in run["failures"]],
        "self_checks": checks,
        **{k: v for k, v in details.items() if k != "runs"},
        **({"span_file": runs[-1]["span_file"]} if args.trace else {}),
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0 and all(checks.values()),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": failed,
        "metrics": {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
                    for spec in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
