"""Command-line front-end: matrix generation, parameter tables, series
verification, resource reports, end-to-end solves, and RMSE sweeps.

Reports are JSON, curves are CSV.  Every output carries the echoed
configuration, the master seed, and the package version so a run can be
reproduced from its artifact alone.
"""

from __future__ import annotations

import csv
import json
import math
import sys

import click
import numpy as np

from . import __version__
from .estimator import (
    KernelConfig,
    Problem,
    pf_resources,
    rte_resources,
    run_solver,
)
from .experiments import (
    sweep_policies,
    hoeffding_coverage,
    log_schedule,
    rmse_sweep,
    rte_single,
    table1_rows,
)
from .fourier import build_series, fourier_params, rescale, truncation_params
from .pauli import PauliDecomposition, commutator_constant
from .randmat import conditioned_spectrum, gen_matrix
from .simulator import StateVector


def _manifest(config: dict, seed: int, threads: int) -> dict:
    return {
        "config": config,
        "master_seed": seed,
        "threads": threads,
        "version": __version__,
    }


def _write_json(out, payload: dict):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if out is None:
        click.echo(text)
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        click.echo(f"wrote {out}")


def _write_csv(out, manifest: dict, header, rows):
    fh = open(out, "w", newline="") if out else sys.stdout
    try:
        fh.write("# " + json.dumps(manifest, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if out:
            fh.close()
            click.echo(f"wrote {out}")


@click.group()
@click.option("--threads", default=1, show_default=True,
              help="Recorded in output manifests; computation is single-process.")
@click.pass_context
def main(ctx, threads):
    """Randomized quantum linear systems solver toolkit."""
    ctx.ensure_object(dict)
    ctx.obj["threads"] = threads


@main.command("gen-matrix")
@click.option("--n-qubits", default=2, show_default=True)
@click.option("--kappa", required=True, type=float)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", default=None, type=click.Path())
@click.pass_context
def gen_matrix_cmd(ctx, n_qubits, kappa, seed, out):
    """Random Hermitian matrix with condition number exactly kappa."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    art = gen_matrix(n_qubits, kappa, rng)
    config = {"command": "gen-matrix", "n_qubits": n_qubits, "kappa": kappa}
    payload = _manifest(config, seed, ctx.obj["threads"])
    payload["artifact"] = art.to_json()
    _write_json(out, payload)


@main.command("params")
@click.option("--kappa-star", required=True, type=float)
@click.option("--lam", default=1.0, show_default=True, type=float)
@click.option("--eps-t", required=True, type=float)
@click.option("--eps-d", required=True, type=float)
@click.option("--out", default=None, type=click.Path())
@click.pass_context
def params_cmd(ctx, kappa_star, lam, eps_t, eps_d, out):
    """Truncation bounds and grid sizes for the inverse-function series."""
    kt = rescale(kappa_star, lam)
    trunc = truncation_params(kt, eps_t)
    big_j, big_k = fourier_params(kt, eps_t, eps_d, trunc)
    config = {"command": "params", "kappa_star": kappa_star, "lam": lam,
              "eps_t": eps_t, "eps_d": eps_d}
    payload = _manifest(config, 0, ctx.obj["threads"])
    payload["params"] = {
        "kappa_tilde": kt, "y_max": trunc.y_max, "z_max": trunc.z_max,
        "t_max": trunc.t_max, "J": big_j, "K": big_k, "n_terms": big_j * big_k,
    }
    _write_json(out, payload)


@main.command("build-series")
@click.option("--kappa-star", required=True, type=float)
@click.option("--lam", default=1.0, show_default=True, type=float)
@click.option("--eps-t", required=True, type=float)
@click.option("--eps-d", required=True, type=float)
@click.option("--out", default=None, type=click.Path())
@click.pass_context
def build_series_cmd(ctx, kappa_star, lam, eps_t, eps_d, out):
    """Build the series and report its normalization constants."""
    series = build_series(kappa_star, lam, eps_t, eps_d)
    config = {"command": "build-series", "kappa_star": kappa_star, "lam": lam,
              "eps_t": eps_t, "eps_d": eps_d}
    payload = _manifest(config, 0, ctx.obj["threads"])
    payload["series"] = {
        "J": series.grid.J, "K": series.grid.K, "n_terms": series.n_terms,
        "kappa_tilde": series.kappa_tilde,
        "y_max": series.trunc.y_max, "z_max": series.trunc.z_max,
        "t_max": series.t_max, "t_min_abs": series.t_min_abs,
        "N_y": series.N_y, "N_z": series.N_z,
        "sum_abs_alpha": series.sum_abs_alpha(),
        "y_nodes": series.grid.y_nodes.tolist(),
        "wy_weights": series.grid.wy_weights.tolist(),
        "z_nodes": series.grid.z_nodes.tolist(),
    }
    _write_json(out, payload)


@main.command("verify-series")
@click.option("--kappa-star", required=True, type=float)
@click.option("--lam", default=1.0, show_default=True, type=float)
@click.option("--eps-t", required=True, type=float)
@click.option("--eps-d", required=True, type=float)
@click.option("--trials", default=20, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", default=None, type=click.Path())
@click.pass_context
def verify_series_cmd(ctx, kappa_star, lam, eps_t, eps_d, trials, seed, out):
    """Measure the worst scalar series error over random spectra."""
    series = build_series(kappa_star, lam, eps_t, eps_d)
    kt = series.kappa_tilde
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    xs = np.concatenate(
        [conditioned_spectrum(4, kt, rng) for _ in range(trials)]
    )
    vals = series.evaluate(xs)
    errs = np.abs(1.0 / xs - vals)
    config = {"command": "verify-series", "kappa_star": kappa_star,
              "lam": lam, "eps_t": eps_t, "eps_d": eps_d, "trials": trials,
              "eps_max": float(errs.max()), "budget": eps_t + eps_d}
    rows = [
        [x, v.real, v.imag, e] for x, v, e in zip(xs, vals, errs)
    ]
    _write_csv(out, _manifest(config, seed, ctx.obj["threads"]),
               ["x", "series_re", "series_im", "abs_error"], rows)


@main.command("table1")
@click.option("--trials", default=0, show_default=True,
              help="Series-error verification trials per row (0 = sizes only).")
@click.option("--heavy", is_flag=True,
              help="Verify the kappa=1000 rows too (hundreds of millions of terms).")
@click.option("--seed", default=0, show_default=True)
@click.option("--out", default=None, type=click.Path())
@click.pass_context
def table1_cmd(ctx, trials, heavy, seed, out):
    """Grid sizes (J, K) for the twelve (kappa, eps_F) pairs."""
    rows = table1_rows(trials=trials, heavy=heavy, master_seed=seed)
    config = {"command": "table1", "trials": trials, "heavy": heavy}
    header = ["kappa", "eps_f", "J", "K", "t_max", "eps_max"]
    _write_csv(out, _manifest(config, seed, ctx.obj["threads"]), header,
               [[r["kappa"], r["eps_f"], r["J"], r["K"], r["t_max"],
                 r.get("eps_max", "")] for r in rows])


@main.command("resources")
@click.option("--kernel", type=click.Choice(["pf", "rte"]), required=True)
@click.option("--kappa-star", required=True, type=float)
@click.option("--lam", default=1.0, show_default=True, type=float)
@click.option("--eps-t", required=True, type=float)
@click.option("--eps-d", required=True, type=float)
@click.option("--eps", default=0.1, show_default=True, type=float)
@click.option("--delta", default=0.01, show_default=True, type=float)
@click.option("--f", "f_const", default=None, type=float,
              help="Commutator constant (PF); required for --kernel pf.")
@click.option("--big-l", default=None, type=int,
              help="Number of Pauli terms (PF gate accounting).")
@click.option("--r", "r_seg", default=None, type=int,
              help="RTE segment count; default ceil(t_max).")
@click.option("--out", default=None, type=click.Path())
@click.pass_context
def resources_cmd(ctx, kernel, kappa_star, lam, eps_t, eps_d, eps, delta,
                  f_const, big_l, r_seg, out):
    """Certified sample and gate counts for a kernel at a target accuracy."""
    series = build_series(kappa_star, lam, eps_t, eps_d)
    if kernel == "pf":
        if f_const is None or big_l is None:
            raise click.UsageError("--kernel pf needs --f and --big-l")
        est = pf_resources(eps, delta, series.N_y, series.N_z, series.lam,
                           f_const, series.t_max, big_l)
    else:
        r = r_seg if r_seg is not None else math.ceil(series.t_max)
        est = rte_resources(eps, delta, series.N_y, series.N_z, series.lam,
                            series.t_max, series.t_min_abs, r)
    config = {"command": "resources", "kernel": kernel,
              "kappa_star": kappa_star, "lam": lam, "eps_t": eps_t,
              "eps_d": eps_d, "eps": eps, "delta": delta, "f": f_const,
              "big_l": big_l, "r": r_seg}
    payload = _manifest(config, 0, ctx.obj["threads"])
    payload["series"] = {"t_max": series.t_max, "t_min_abs": series.t_min_abs,
                         "N_y": series.N_y, "N_z": series.N_z}
    payload["estimate"] = est.to_json()
    _write_json(out, payload)


def _load_problem(matrix_path, n_qubits, kappa, seed, eps_t, eps_d, kappa_star):
    if matrix_path:
        with open(matrix_path) as fh:
            art = json.load(fh)
        d = PauliDecomposition.from_json(art["artifact"]["decomposition"])
        kappa_eff = art["artifact"]["kappa"]
    else:
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
        d = gen_matrix(n_qubits, kappa, rng).decomposition
        kappa_eff = kappa
    ks = kappa_star if kappa_star is not None else kappa_eff
    series = build_series(ks, d.lam, eps_t, eps_d)
    psi = StateVector.basis(d.n_qubits, 0)
    phi = StateVector.basis(d.n_qubits, 0)
    return Problem(d, psi, phi, series)


@main.command("solve")
@click.option("--matrix", "matrix_path", default=None, type=click.Path(exists=True),
              help="gen-matrix artifact; otherwise a matrix is generated.")
@click.option("--n-qubits", default=2, show_default=True)
@click.option("--kappa", default=10.0, show_default=True, type=float)
@click.option("--kappa-star", default=None, type=float)
@click.option("--eps-t", default=1e-2, show_default=True, type=float)
@click.option("--eps-d", default=1e-2, show_default=True, type=float)
@click.option("--kernel", type=click.Choice(["exact", "pf", "rte"]),
              default="exact", show_default=True)
@click.option("--r", "r_fixed", default=0, show_default=True,
              help="Fixed per-sample segment/step count.")
@click.option("--r-quad", default=0.0, show_default=True,
              help="Quadratic policy coefficient: r = ceil(c tau^2).")
@click.option("--eps-pf", default=0.0, show_default=True,
              help="Certified PF policy: per-sample error budget.")
@click.option("--n-max", default=0, show_default=True,
              help="RTE truncation order.")
@click.option("--n-samples", default=10000, show_default=True)
@click.option("--noise", type=click.Choice(["bernoulli", "gaussian", "exact"]),
              default="bernoulli", show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", default=None, type=click.Path())
@click.pass_context
def solve_cmd(ctx, matrix_path, n_qubits, kappa, kappa_star, eps_t, eps_d,
              kernel, r_fixed, r_quad, eps_pf, n_max, n_samples, noise, seed,
              out):
    """End-to-end Monte Carlo estimate of <phi|A^{-1}|psi>."""
    problem = _load_problem(matrix_path, n_qubits, kappa, seed, eps_t, eps_d,
                            kappa_star)
    f = 0.0
    if eps_pf > 0:
        f = commutator_constant(problem.unit_decomposition, loose=True)
    try:
        cfg = KernelConfig(kernel, r_fixed=r_fixed, r_quadratic=r_quad,
                           f=f, eps_pf=eps_pf, n_max=n_max)
    except ValueError as exc:
        raise click.UsageError(
            f"{exc} (r policies: --r, --r-quad, --eps-pf; "
            "--kernel rte also needs --n-max)"
        ) from exc
    report = run_solver(problem, cfg, n_samples, noise, seed)
    config = {"command": "solve", "matrix": matrix_path, "n_qubits": n_qubits,
              "kappa": kappa, "kappa_star": kappa_star, "eps_t": eps_t,
              "eps_d": eps_d, "kernel": kernel, "r": r_fixed,
              "r_quad": r_quad, "eps_pf": eps_pf, "n_max": n_max,
              "n_samples": n_samples, "noise": noise}
    payload = _manifest(config, seed, ctx.obj["threads"])
    payload["report"] = report.to_json()
    payload["report"]["diagnostics"].pop("records", None)
    _write_json(out, payload)


@main.command("rmse-sweep")
@click.option("--kappa", default=10.0, show_default=True, type=float)
@click.option("--eps-f", default=2e-2, show_default=True, type=float)
@click.option("--fixed-r", default=5, show_default=True)
@click.option("--max-samples", default=10**6, show_default=True)
@click.option("--trials", default=20, show_default=True)
@click.option("--noise", type=click.Choice(["bernoulli", "gaussian", "exact"]),
              default="gaussian", show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", default=None, type=click.Path())
@click.pass_context
def rmse_sweep_cmd(ctx, kappa, eps_f, fixed_r, max_samples, trials, noise,
                   seed, out):
    """RMSE convergence per kernel policy (exact, fixed r, adaptive r)."""
    problem = _load_problem(None, 2, kappa, seed, eps_f / 2, eps_f / 2, None)
    schedule = log_schedule(100, max_samples)
    results = rmse_sweep(problem, sweep_policies(fixed_r), schedule, trials,
                         noise, seed)
    config = {"command": "rmse-sweep", "kappa": kappa, "eps_f": eps_f,
              "fixed_r": fixed_r, "max_samples": max_samples,
              "trials": trials, "noise": noise}
    rows = [
        [name, n, r]
        for name, curve in sorted(results.items())
        for n, r in zip(curve["n_s"], curve["rmse"])
    ]
    _write_csv(out, _manifest(config, seed, ctx.obj["threads"]),
               ["policy", "n_s", "rmse"], rows)


@main.command("rte-single")
@click.option("--taus", default="1,20,50,80", show_default=True)
@click.option("--r", "r_seg", default=100, show_default=True)
@click.option("--n-max", default=20, show_default=True)
@click.option("--max-samples", default=10**5, show_default=True)
@click.option("--trials", default=20, show_default=True)
@click.option("--kappa", default=10.0, show_default=True, type=float)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", default=None, type=click.Path())
@click.pass_context
def rte_single_cmd(ctx, taus, r_seg, n_max, max_samples, trials, kappa, seed,
                   out):
    """RMSE of the RTE estimator of a single evolved overlap per tau."""
    tau_list = [float(t) for t in taus.split(",")]
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    d_unit = gen_matrix(2, kappa, rng).decomposition.rescaled()
    schedule = log_schedule(100, max_samples)
    results = rte_single(d_unit, tau_list, r_seg, schedule, trials, seed,
                         n_max=n_max)
    config = {"command": "rte-single", "taus": tau_list, "r": r_seg,
              "n_max": n_max, "max_samples": max_samples, "trials": trials,
              "kappa": kappa}
    rows = [
        [tau, n, rmse]
        for tau, curve in results.items()
        for n, rmse in zip(curve["n_s"], curve["rmse"])
    ]
    _write_csv(out, _manifest(config, seed, ctx.obj["threads"]),
               ["tau", "n_s", "rmse"], rows)


if __name__ == "__main__":
    main()
