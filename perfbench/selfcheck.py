"""Fast self-check of the benchmark (well under a minute).

    python3 perfbench/selfcheck.py

1. Runs every workload at toy size, timed and traced, and requires every
   operation to pass and every metric of BENCHMARK.json to be reported
   (end-to-end metrics nonzero).
2. Plants wrong outputs into real toy outputs and requires the output
   checks to reject each one (and to accept the unplanted outputs).
3. At full size, for three seeds, requires the solve exact bound and the
   studies RMSE upper bounds to be well below |truth|, and prints the
   bound / |truth| ratio of every solve kernel.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
from types import SimpleNamespace

import run  # first: it pins the BLAS threads before numpy loads

run.import_program()

import checks  # noqa: E402
import numpy as np  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
failures = []


def expect(cond, what):
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        failures.append(what)


def op_ok(results, prefix):
    """Whether every operation whose name starts with prefix passed."""
    hits = [ok for name, ok, _ in results if name.startswith(prefix)]
    if not hits:
        raise KeyError(f"no operation {prefix!r}")
    return all(hits)


def toy_runs():
    for name in WORKLOADS:
        for trace in (False, True):
            result = run.run_one(name, SEED, 0.0, trace, toy=True)
            values = [m["value"] for m in result["metrics"].values()]
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"toy {name} trace={int(trace)}: {result['attempted']} operations pass")
            if not trace:
                expect(all(v > 0 for v in values), f"toy {name}: every end-to-end metric > 0")


def outputs(name):
    workload = WORKLOADS[name](SEED, toy=True)
    state, _, outs, results, _ = run.run_pass(workload)
    expect(all(ok for _, ok, _ in results) and len(results) == workload.n_ops,
           f"{name}: unplanted outputs pass their checks ({workload.n_ops} operations)")
    return workload, state, outs


def raising_stage():
    """A stage that raises fails all of the round's operations, no more."""
    for name in WORKLOADS:
        workload = WORKLOADS[name](SEED, toy=True)
        workload.stages[-1] = dataclasses.replace(workload.stages[-1], run=_raise)
        results = run.run_pass(workload)[3]
        expect(len(results) == workload.n_ops and not any(ok for _, ok, _ in results),
               f"{name}: a raising stage fails all {workload.n_ops} operations of its round")


def _raise(state, i):
    raise RuntimeError("planted fault")


def _with_records(rep, recs):
    """rep with new records and the estimate they imply (a consistent,
    wrong output)."""
    z = [rec.z_hat for rec in recs]
    estimate = complex(sum(v.real for v in z) / len(z), sum(v.imag for v in z) / len(z))
    return dataclasses.replace(rep, estimate=estimate,
                               diagnostics={**rep.diagnostics, "records": recs})


def planted_solve():
    workload, state, outs = outputs("solve")
    truth = workload.truth
    bound = workload.bounds(state)["exact"]
    for factor, should_pass in ((0.999, True), (1.001, False)):
        ok = checks.check_estimate(truth + factor * bound * 1j, truth, bound)[0]
        expect(ok == should_pass,
               f"solve: estimate at {factor} x its bound is {'accepted' if should_pass else 'rejected'}")
    for i, kernel in enumerate(("exact", "pf", "rte")):
        for label, estimate in (("0", 0j), ("-truth", -truth)):
            moved = list(outs)
            moved[i] = dataclasses.replace(outs[i], estimate=estimate)
            expect(not op_ok(workload.check(state, moved), f"solve.{kernel}"),
                   f"solve: a {kernel} estimate of {label} is rejected")
    for i, kernel in enumerate(("exact", "pf")):
        recs = outs[i].diagnostics["records"]
        for label, change in (
                ("every shot negated", lambda rec: dict(shot_re=-rec.shot_re, shot_im=-rec.shot_im)),
                ("every prefactor negated", lambda rec: dict(prefactor=-rec.prefactor)),
                ("every tau the last sampled one", lambda rec: dict(
                    tau=recs[-1].tau, r=recs[-1].r,
                    prefactor=rec.prefactor * np.sign(rec.tau) * np.sign(recs[-1].tau)))):
            bad = list(outs)
            bad[i] = _with_records(outs[i], [dataclasses.replace(rec, **change(rec)) for rec in recs])
            expect(not op_ok(workload.check(state, bad), f"solve.{kernel}"),
                   f"solve: {kernel} records with {label} (estimate to match) are rejected")
    rep = outs[2]
    recs = list(rep.diagnostics["records"])
    recs[0] = dataclasses.replace(recs[0], prefactor=recs[0].prefactor * (1 + 1e-6))
    bad = list(outs)
    bad[2] = _with_records(rep, recs)
    expect(not op_ok(workload.check(state, bad), "solve.rte"),
           "solve: an RTE sample weight off by 1e-6 is rejected")
    d = state.problem.decomposition
    (c0, p0), *rest = d.terms
    wrong = dataclasses.replace(d, terms=((c0 + 1e-10, p0), *rest))
    moved_state = SimpleNamespace(**{**vars(state), "problem": dataclasses.replace(
        state.problem, decomposition=wrong)})
    expect(not op_ok(workload.check(moved_state, outs), "setup"),
           "solve: a Pauli coefficient off by 1e-10 is rejected")
    series = state.problem.series
    v = workload.instance.overlaps(checks.grid_terms(series)[1])
    expect(checks.check_series_mean(series, v, truth)[0]
           and not checks.check_series_mean(
               dataclasses.replace(series, lam=series.lam * 1.01), v, truth)[0],
           "solve: the series mean with lam off by 1% is rejected (and the real one accepted)")
    for seed in (1, 2, 3):
        full = WORKLOADS["solve"](seed)
        ratios = {k: b / abs(full.truth) for k, b in full.bounds(full.setup()).items()}
        expect(ratios["exact"] < 0.8,
               f"solve, full size, seed {seed}: exact bound / |truth| = {ratios['exact']:.2f} < 0.8 "
               f"(pf {ratios['pf']:.2f}, rte {ratios['rte']:.3g})")


def planted_studies():
    workload, state, outs = outputs("studies")
    flat = copy.deepcopy(outs)
    flat[0]["exact"]["rmse"] = [min(flat[0]["exact"]["rmse"])] * len(flat[0]["exact"]["n_s"])
    expect(not op_ok(workload.check(state, flat), "rmse_sweep.exact"),
           "studies: an exact RMSE curve that does not fall is rejected")
    high = copy.deepcopy(outs)
    name = next(iter(high[1]))
    high[1][name]["rmse"][-1] = 1e3
    expect(not op_ok(workload.check(state, high), f"rmse_sweep.{name}"),
           f"studies: a {name} RMSE above its bound is rejected")
    for out, name in ((0, "exact"), *((1, n) for n in workload.pf_policies)):
        zero = copy.deepcopy(outs)
        curve = zero[out][name]
        curve["rmse"] = [abs(workload.truth)] * len(curve["n_s"])
        expect(not op_ok(workload.check(state, zero), f"rmse_sweep.{name}"),
               f"studies: a {name} curve of estimates 0 (rmse = |truth|) is rejected")
    taus = sorted(outs[2])
    alpha = copy.deepcopy(outs)
    alpha[2][taus[-1]]["alpha_power_r"] *= 1 + 1e-9
    expect(not op_ok(workload.check(state, alpha), f"rte_single.tau={taus[-1]:g}"),
           "studies: alpha^r off by 1e-9 is rejected")
    swap = copy.deepcopy(outs)
    lo, hi = swap[2][taus[0]]["rmse"], swap[2][taus[-1]]["rmse"]
    swap[2][taus[0]]["rmse"], swap[2][taus[-1]]["rmse"] = hi, lo
    expect(not all(ok for name, ok, _ in workload.check(state, swap)
                   if name.startswith("rte_single")),
           "studies: RTE RMSE that falls as tau grows is rejected")
    for seed in (1, 2, 3):
        full = WORKLOADS["studies"](seed)
        full_state = full.setup()
        errs = full.kernel_errors(full_state)
        stat = checks.rmse_stat(full_state.problem.series, full.p["n_top"], full.p["trials"],
                                len(full.schedule), workloads.DELTA)
        worst = max(errs.values()) + stat
        expect(worst < 0.5 * abs(full.truth),
               f"studies, full size, seed {seed}: the largest RMSE upper bound at "
               f"n = {full.p['n_top']} is {worst / abs(full.truth):.2f} |truth| < 0.5 "
               f"(|kernel mean - truth|: " + ", ".join(f"{k} {v:.2g}" for k, v in sorted(errs.items()))
               + ")")


def planted_series():
    workload, state, outs = outputs("series")
    built = outs[0]
    g = built.grid
    z_max = built.trunc.z_max
    short = dataclasses.replace(
        built, grid=dataclasses.replace(
            g, z_nodes=g.z_nodes * (g.K - 1) / g.K, delta_z=2 * z_max / g.K))
    expect(not checks.check_grid(short)[0] and checks.check_grid(built)[0],
           "series: a z grid shortened to +-z_max (K-1)/K is rejected")
    expect(not op_ok(workload.check(state, [short, *outs[1:]]), "build."),
           "series: the build operation with the short grid fails")
    nodes = g.gl_nodes.copy()
    nodes[len(nodes) // 3] += 1e-9
    moved = dataclasses.replace(built, grid=dataclasses.replace(g, gl_nodes=nodes))
    expect(not op_ok(workload.check(state, [moved, *outs[1:]]), "build."),
           "series: a Gauss-Legendre node moved by 1e-9 is rejected")
    off = dataclasses.replace(built, grid=dataclasses.replace(g, J=g.J + 1))
    expect(not op_ok(workload.check(state, [off, *outs[1:]]), "build."),
           "series: a Table-1 J off by one is rejected")
    values = [v.copy() for v in outs[1]]
    budget = state.series.trunc.eps_T + state.series.eps_D
    values[0][0] = 1 / workload.points[0] - 1.01 * budget
    expect(not op_ok(workload.check(state, [outs[0], values, outs[2]]), "evaluate."),
           "series: F(x) moved past the eps_T + eps_D budget is rejected")
    series, vals = outs[2][0]
    vals = vals.copy()
    vals[-1] = 1 / workload.verify_points[0][-1] + 1.01 * (series.trunc.eps_T + series.eps_D)
    verified = [(series, vals), *outs[2][1:]]
    expect(not op_ok(workload.check(state, [outs[0], outs[1], verified]), "verify.call=0"),
           "series: a verified point past its budget is rejected")


def main() -> int:
    toy_runs()
    raising_stage()
    planted_solve()
    planted_studies()
    planted_series()
    print(f"selfcheck: {len(failures)} failed" if failures else "selfcheck: all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
