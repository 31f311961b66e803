"""rqls benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, a table

Run from the root of a source checkout; `rqls` is imported from its `src/`.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 gives the end-to-end metrics,
--trace 1 the per-layer metrics of a separate traced run.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark is single-process, and pinning the thread
# count keeps figures comparable on a shared 2-core machine.  This must
# happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
DEFAULT_SEEDS = {"solve": 1, "studies": 2, "series": 3}


def import_program():
    """Import rqls from this checkout's src/, never from an installed copy."""
    if not (SRC / "rqls" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rqls sources at {SRC / 'rqls'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import rqls

    if Path(rqls.__file__).resolve().parent != (SRC / "rqls").resolve():
        sys.exit(f"perfbench: imported rqls from {rqls.__file__}, not from {SRC}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(workload, state=None):
    """Set up (unless a state is given) and run one round.

    Returns (state, per-call (stage, seconds, work), stage outputs, check
    results, setup seconds).
    A stage that raises fails every operation of the round, so a round
    always counts `workload.n_ops` operations.
    """
    t0 = time.perf_counter()
    if state is None:
        state = workload.setup()
    setup_s = time.perf_counter() - t0
    timings, outs = [], []
    try:
        for stage in workload.stages:
            calls = []
            for i in range(stage.calls):
                t0 = time.perf_counter()
                out = stage.run(state, i)
                dt = time.perf_counter() - t0
                timings.append((stage, dt, stage.work(state, out)))
                calls.append(out)
            outs.append(calls if stage.calls > 1 else calls[0])
        results = workload.check(state, outs)
    except Exception:  # noqa: BLE001 - a faulty program must still yield a result line
        traceback.print_exc(file=sys.stderr)
        results = [(f"{workload.name}.round", False, "raised")] * workload.n_ops
    return state, timings, outs, results, setup_s


def _metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(workload, seconds: float):
    """End-to-end metrics: set-up time, the median over setup_samples of
    the mean of setup_batch back-to-back set-ups, and each stage's median
    rate over the rounds that fit in `seconds`."""
    setups = []
    for _ in range(workload.setup_samples):
        t0 = time.perf_counter()
        for _ in range(workload.setup_batch):
            state = workload.setup()
        setups.append((time.perf_counter() - t0) / workload.setup_batch)
    rates = {stage.name: [] for stage in workload.stages}
    attempted = failed = rounds = 0
    start = time.perf_counter()
    while True:
        _, timings, _, results, _ = run_pass(workload, state)
        rounds += 1
        attempted += len(results)
        failed += sum(not ok for _, ok, _ in results)
        report_failures(results)
        for stage, dt, work in timings:
            rates[stage.name].append(work / dt)
        if time.perf_counter() - start >= seconds:
            break
    metrics = {"setup_s": _metric(statistics.median(setups), "s")}
    for i, stage_rates in enumerate(rates.values(), 1):
        metrics[f"stage{i}_rate"] = _metric(statistics.median(stage_rates) if stage_rates else 0.0, "1/s")
    metrics["peak_rss_mb"] = _metric(peak_rss_mb(), "MB")
    print(f"# {workload.name}: {rounds} rounds, {workload.setup_samples} x {workload.setup_batch} "
          "set-ups; stages "
          + ", ".join(f"stage{i} = {s.name} ({s.unit}/s)" for i, s in enumerate(workload.stages, 1)))
    return attempted, failed, metrics


def traced_run(workload, seconds: float):
    """Per-layer metrics from passes (set-up + round) with the tracer
    installed, alternating with untraced passes for the overhead.  Counts
    and self times are per traced pass."""
    from tracing import Tracer

    tracer = Tracer()
    walls = {False: [], True: []}
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        for traced in (False, True):
            with tracer.installed() if traced else contextlib.nullcontext():
                _, timings, _, results, setup_s = run_pass(workload)
            walls[traced].append(setup_s + sum(dt for _, dt, _ in timings))
            attempted += len(results)
            failed += sum(not ok for _, ok, _ in results)
            report_failures(results)
        if time.perf_counter() - start >= seconds:
            break
    n = len(walls[True])
    metrics = {}
    for name, (calls, self_s) in tracer.layer_totals().items():
        metrics[f"{name}.calls"] = _metric(calls / n, "count")
        metrics[f"{name}.self_s"] = _metric(self_s / n, "s")
    for key, value in sorted(tracer.counts.items()):
        metrics[key] = _metric(value / n, "count")
    samples = tracer.counts.get("estimator.cached_kernel.samples", 0)
    distinct = tracer.counts.get("estimator.cached_kernel.distinct", 0)
    metrics["estimator.kernel_reuse"] = _metric(1 - distinct / samples if samples else 0.0, "ratio")
    traced_wall = statistics.median(walls[True])
    untraced_wall = statistics.median(walls[False])
    metrics["trace.wall_s"] = _metric(traced_wall, "s")
    metrics["trace.untraced_wall_s"] = _metric(untraced_wall, "s")
    metrics["trace.overhead_s"] = _metric(traced_wall - untraced_wall, "s")
    below, roots = tracer.self_split()
    metrics["trace.self_coverage"] = _metric(below / sum(walls[True]), "ratio")
    metrics["trace.root_self_share"] = _metric(roots / sum(walls[True]), "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{workload.name}.csv"
    tracer.write(span_file)
    print(f"# {workload.name}: {n} traced + {n} untraced passes; spans in {span_file}")
    return attempted, failed, metrics


def report_failures(results):
    for op, ok, detail in results:
        if not ok:
            print(f"FAILED {op}: {detail}", file=sys.stderr)


def keep_metrics(metrics, spec_key):
    """Order and filter metrics by BENCHMARK.json."""
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[spec_key]]
    missing = [n for n in names if n not in metrics]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {n: metrics[n] for n in names}


def run_one(name: str, seed: int, seconds: float, trace: bool, toy: bool = False) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, toy=toy)
    if trace:
        attempted, failed, metrics = traced_run(workload, seconds)
        metrics = keep_metrics(metrics, "per_layer")
    else:
        attempted, failed, metrics = timed_run(workload, seconds)
        metrics = keep_metrics(metrics, "end_to_end")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def print_table(name, result):
    print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for key, m in result["metrics"].items():
        print(f"  {key:45s} {m['value']:>16.6g} {m['unit']}")


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS is per workload)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in DEFAULT_SEEDS:
        seed = DEFAULT_SEEDS[name] if args.seed is None else args.seed
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print_table(f"{name} (seed {seed})", result)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*DEFAULT_SEEDS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: 1 solve, 2 studies, 3 series)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be nonnegative")
    import_program()
    if args.workload == "all":
        return run_all(args)
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    result = run_one(args.workload, seed, args.seconds, bool(args.trace))
    print_table(f"{args.workload} (seed {seed})", result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
