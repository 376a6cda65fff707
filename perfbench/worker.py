"""Run one workload in this (fresh) process and print its raw measurements.

Started by ``run.py`` with one BLAS/OpenMP thread.  Prints one JSON line:
op counts, per-op latencies summary, peak RSS and, when traced, the
per-layer metrics, the tracer self-checks and the path of the span file.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (after the path set-up)
from tracer import Tracer  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"
MIN_TAIL_BEYOND = 10
TAIL_BLOCK = 400


def tail(latencies: list[float]) -> tuple[float, float]:
    """Median over blocks of each block's tail, and that tail's percentile.

    A block's tail is its highest sample with at least ten samples beyond it.
    The run is cut, in time order, into blocks of about TAIL_BLOCK ops; the
    median over blocks keeps one burst of machine jitter from setting the
    tail.  Runs shorter than two blocks are one block.
    """
    n_blocks = max(1, len(latencies) // TAIL_BLOCK)
    size = len(latencies) // n_blocks
    tails, pcts = [], []
    for b in range(n_blocks):
        block = sorted(latencies[b * size:(b + 1) * size if b < n_blocks - 1 else None])
        k = max(0, len(block) - MIN_TAIL_BEYOND - 1)
        tails.append(block[k])
        pcts.append(100.0 * (k + 1) / len(block))
    return statistics.median(tails), statistics.median(pcts)


def best_times(passes: list, latencies: list[float]) -> list[float]:
    """Each distinct op's fastest latency over the run, in first-run order.

    On ``figures`` every op repeats once a pass, and its fastest repeat is the
    time it takes when the shared host leaves its core alone; a process there
    slows by up to 40 % while the core's other hyperthread is busy.  On
    ``states`` and ``discrete`` every op runs once, so this is every latency.
    """
    best: dict = {}
    ops = (op for pass_ops in passes for op in pass_ops)
    for op, lat in zip(ops, latencies):
        best[op] = min(lat, best.get(op, lat))
    return list(best.values())


def self_checks(workload: str, layer: dict, ops_run: int) -> dict:
    """Invariants of the traced run that a missed rebinding would break."""
    checks = {"top_level_spans_equal_ops": layer["trace.top_level_spans"] == ops_run
              and layer["op.calls"] == ops_run}
    if workload == "states":
        # the only finite call on states is reduced_partition, once per op
        checks["states_no_oracle_work"] = (
            layer["finite.calls"] == layer["finite.reduced_partition.calls"] == ops_run)
        checks["states_no_repeats"] = layer["continuum.repeat_frac"] == 0.0
        checks["states_continuum_traced"] = layer["continuum.solve_moments.calls"] == ops_run
    if workload == "discrete":
        checks["discrete_finite_traced"] = layer["finite.calls"] > 0
    if workload == "figures":
        checks["figures_continuum_via_cli"] = layer["continuum.solve_moments.calls"] > 0
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import qbm
    import qbm.cli  # noqa: F401  (not imported by the package itself)
    from qbm.errors import QbmError

    passes = workloads.build(args.workload, args.seed, args.seconds)
    refs = workloads.References()
    refs.prepare(passes)
    run = workloads.runners(qbm)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        run = {kind: tracer.wrap(f"op.{kind}", fn) for kind, fn in run.items()}

    latencies, failures, misses = [], [], Counter()
    ok = 0
    gc.collect()
    for pass_ops in passes:
        if tracer:
            tracer.new_pass()
        for op in pass_ops:
            if tracer:
                tracer.current_op = len(latencies)
                tracer.active = True
            t0 = time.perf_counter()
            try:
                out, err = run[op.kind](op), None
            except QbmError as exc:
                out, err = None, exc
            latencies.append(time.perf_counter() - t0)
            if tracer:
                tracer.active = False
            if err is not None:
                failures.append(f"{op.kind} {dict(op.params)}: {type(err).__name__}: {err}")
                continue
            try:
                missed = workloads.check(op, out, refs)
            except workloads.CheckFailed as exc:
                failures.append(f"{op.kind} {dict(op.params)}: {exc}")
                continue
            misses.update(set(missed))
            ok += not missed

    attempted = len(latencies)
    best = best_times(passes, latencies)
    tail_s, tail_pct = tail(latencies)
    result = {
        "attempted": attempted,
        "failed": len(failures),
        "ok": ok,
        "strict_misses": dict(misses),
        "busy_s": sum(latencies),
        "ops_per_s": len(best) / sum(best),
        "op_p50_ms": 1e3 * statistics.median(best),
        "op_tail_ms": 1e3 * tail_s,
        "op_tail_pct": tail_pct,
        "tail_blocks": max(1, attempted // TAIL_BLOCK),
        "passes": len(passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failures": failures[:5],
    }
    if tracer:
        tracer.uninstall()
        layer = tracer.metrics()
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"trace-{args.workload}.csv.gz"
        tracer.write(span_file)
        result["layers"] = layer
        result["self_checks"] = self_checks(args.workload, layer, attempted)
        result["span_file"] = str(span_file.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
