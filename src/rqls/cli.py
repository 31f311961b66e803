"""Command-line front-end: matrix generation, parameter tables, series
verification, resource reports, end-to-end solves, and RMSE sweeps.

Reports are JSON, curves are CSV.  Every output carries the echoed
configuration (the command and its parsed options), the master seed, and
the package version so a run can be reproduced from its artifact alone.
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
    log_schedule,
    rmse_sweep,
    rte_single,
    table1_rows,
)
from .fourier import build_series, fourier_params, rescale, truncation_params
from .kernel_rte import RTEWeightOverflowError
from .pauli import PauliDecomposition, commutator_constant
from .randmat import conditioned_spectrum, gen_matrix
from .sampler import sample_rng
from .simulator import StateVector


# option ranges that hold whatever the other options are
AT_LEAST_ONE = click.IntRange(min=1)  # qubits, r, trials, term counts
NONNEGATIVE = click.IntRange(min=0)  # seeds, n_max; solve's r = 0 is unset
AT_LEAST_ONE_REAL = click.FloatRange(min=1)  # kappa, kappa_star, lam
NONNEGATIVE_REAL = click.FloatRange(min=0)  # f; r_quad = eps_pf = 0 is unset
POSITIVE_REAL = click.FloatRange(min=0, min_open=True)  # accuracy budgets
OPEN_UNIT = click.FloatRange(0, 1, min_open=True, max_open=True)  # delta


def _manifest(seed: int = 0, **results) -> dict:
    """The run's manifest: as config, the command's name and its parsed
    options (less seed and out), with results added."""
    ctx = click.get_current_context()
    options = {k: v for k, v in ctx.params.items() if k not in ("seed", "out")}
    config = {"command": ctx.info_name, **options, **results}
    return {"config": config, "master_seed": seed, "version": __version__}


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


def _bounded(options, fn, *args):
    """fn(*args), with the ValueError of a bound that ties several options
    together turned into a usage error naming them."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint=options) from None


# the options behind a series' bounds: eps_T < 3 kappa_tilde, with
# kappa_tilde = lam kappa*, and the term guard on J K
SERIES_OPTIONS = ["--eps-t", "--eps-d", "--kappa-star", "--lam"]


def _series_options(command):
    """The options that define a series: --kappa-star, --lam, --eps-t and
    --eps-d, in that order."""
    for option in reversed([
        click.option("--kappa-star", required=True, type=AT_LEAST_ONE_REAL),
        click.option("--lam", default=1.0, show_default=True, type=AT_LEAST_ONE_REAL),
        click.option("--eps-t", required=True, type=POSITIVE_REAL),
        click.option("--eps-d", required=True, type=POSITIVE_REAL),
    ]):
        command = option(command)
    return command


@click.group()
def main():
    """Randomized quantum linear systems solver toolkit."""


@main.command("gen-matrix")
@click.option("--n-qubits", default=2, show_default=True, type=AT_LEAST_ONE)
@click.option("--kappa", required=True, type=AT_LEAST_ONE_REAL)
@click.option("--seed", default=0, show_default=True, type=NONNEGATIVE)
@click.option("--out", default=None, type=click.Path())
def gen_matrix_cmd(n_qubits, kappa, seed, out):
    """Random Hermitian matrix with condition number exactly kappa."""
    rng = sample_rng(seed, 0)
    art = gen_matrix(n_qubits, kappa, rng)
    payload = _manifest(seed)
    payload["artifact"] = art.to_json()
    _write_json(out, payload)


@main.command("params")
@_series_options
@click.option("--out", default=None, type=click.Path())
def params_cmd(kappa_star, lam, eps_t, eps_d, out):
    """Truncation bounds and grid sizes for the inverse-function series."""
    kt = rescale(kappa_star, lam)
    trunc = _bounded(["--eps-t", "--kappa-star", "--lam"], truncation_params, kt, eps_t)
    big_j, big_k = fourier_params(kt, eps_t, eps_d, trunc)
    payload = _manifest()
    payload["params"] = {
        "kappa_tilde": kt, "y_max": trunc.y_max, "z_max": trunc.z_max,
        "t_max": trunc.t_max, "J": big_j, "K": big_k, "n_terms": big_j * big_k,
    }
    _write_json(out, payload)


@main.command("build-series")
@_series_options
@click.option("--out", default=None, type=click.Path())
def build_series_cmd(kappa_star, lam, eps_t, eps_d, out):
    """Build the series and report its normalization constants."""
    series = _bounded(SERIES_OPTIONS, build_series, kappa_star, lam, eps_t, eps_d)
    payload = _manifest()
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
@_series_options
@click.option("--trials", default=20, show_default=True, type=AT_LEAST_ONE)
@click.option("--seed", default=0, show_default=True, type=NONNEGATIVE)
@click.option("--out", default=None, type=click.Path())
def verify_series_cmd(kappa_star, lam, eps_t, eps_d, trials, seed, out):
    """Measure the worst scalar series error over random spectra."""
    series = _bounded(SERIES_OPTIONS, build_series, kappa_star, lam, eps_t, eps_d)
    kt = series.kappa_tilde
    rng = sample_rng(seed, 1)
    xs = np.concatenate(
        [conditioned_spectrum(4, kt, rng) for _ in range(trials)]
    )
    vals = series.evaluate(xs)
    errs = np.abs(1.0 / xs - vals)
    rows = [
        [x, v.real, v.imag, e] for x, v, e in zip(xs, vals, errs)
    ]
    manifest = _manifest(seed, eps_max=float(errs.max()), budget=eps_t + eps_d)
    _write_csv(out, manifest, ["x", "series_re", "series_im", "abs_error"], rows)


@main.command("table1")
@click.option("--trials", default=0, show_default=True, type=NONNEGATIVE,
              help="Series-error verification trials per row (0 = sizes only).")
@click.option("--heavy", is_flag=True,
              help="Verify the kappa=1000 rows too (hundreds of millions of terms).")
@click.option("--seed", default=0, show_default=True, type=NONNEGATIVE)
@click.option("--out", default=None, type=click.Path())
def table1_cmd(trials, heavy, seed, out):
    """Grid sizes (J, K) for the twelve (kappa, eps_F) pairs."""
    rows = table1_rows(trials=trials, heavy=heavy, master_seed=seed)
    header = ["kappa", "eps_f", "J", "K", "t_max", "eps_max"]
    _write_csv(out, _manifest(seed), header,
               [[r["kappa"], r["eps_f"], r["J"], r["K"], r["t_max"],
                 r.get("eps_max", "")] for r in rows])


@main.command("resources")
@click.option("--kernel", type=click.Choice(["pf", "rte"]), required=True)
@_series_options
@click.option("--eps", default=0.1, show_default=True, type=POSITIVE_REAL)
@click.option("--delta", default=0.01, show_default=True, type=OPEN_UNIT)
@click.option("--f", default=None, type=NONNEGATIVE_REAL,
              help="Commutator constant (PF); required for --kernel pf.")
@click.option("--big-l", default=None, type=AT_LEAST_ONE,
              help="Number of Pauli terms (PF gate accounting).")
@click.option("--r", default=None, type=AT_LEAST_ONE,
              help="RTE segment count; default ceil(t_max).")
@click.option("--out", default=None, type=click.Path())
def resources_cmd(kernel, kappa_star, lam, eps_t, eps_d, eps, delta,
                  f, big_l, r, out):
    """Certified sample and gate counts for a kernel at a target accuracy."""
    series = _bounded(SERIES_OPTIONS, build_series, kappa_star, lam, eps_t, eps_d)
    if kernel == "pf":
        if f is None or big_l is None:
            raise click.UsageError("--kernel pf needs --f and --big-l")
        est = pf_resources(eps, delta, series.N_y, series.N_z, series.lam,
                           f, series.t_max, big_l)
    else:
        est = _bounded(["--r", "--kappa-star", "--lam", "--eps-t"], rte_resources,
                       eps, delta, series.N_y, series.N_z, series.lam,
                       series.t_max, series.t_min_abs,
                       r if r is not None else math.ceil(series.t_max))
    payload = _manifest()
    payload["series"] = {"t_max": series.t_max, "t_min_abs": series.t_min_abs,
                         "N_y": series.N_y, "N_z": series.N_z}
    payload["estimate"] = est.to_json()
    _write_json(out, payload)


def _load_problem(options, matrix, n_qubits, kappa, seed, eps_t, eps_d, kappa_star):
    """The problem of `solve` and `rmse-sweep`; options name the command's
    options behind the series' bounds, for `_bounded`."""
    if matrix:
        with open(matrix) as fh:
            art = json.load(fh)
        d = PauliDecomposition.from_json(art["artifact"]["decomposition"])
        kappa_eff = art["artifact"]["kappa"]
    else:
        rng = sample_rng(seed, 0)
        d = gen_matrix(n_qubits, kappa, rng).decomposition
        kappa_eff = kappa
    ks = kappa_star if kappa_star is not None else kappa_eff
    series = _bounded(options, build_series, ks, d.lam, eps_t, eps_d)
    psi = StateVector.basis(d.n_qubits, 0)
    phi = StateVector.basis(d.n_qubits, 0)
    return Problem(d, psi, phi, series)


@main.command("solve")
@click.option("--matrix", default=None, type=click.Path(exists=True),
              help="gen-matrix artifact; otherwise a matrix is generated.")
@click.option("--n-qubits", default=2, show_default=True, type=AT_LEAST_ONE)
@click.option("--kappa", default=10.0, show_default=True, type=AT_LEAST_ONE_REAL)
@click.option("--kappa-star", default=None, type=AT_LEAST_ONE_REAL)
@click.option("--eps-t", default=1e-2, show_default=True, type=POSITIVE_REAL)
@click.option("--eps-d", default=1e-2, show_default=True, type=POSITIVE_REAL)
@click.option("--kernel", type=click.Choice(["exact", "pf", "rte"]),
              default="exact", show_default=True)
@click.option("--r", default=0, show_default=True, type=NONNEGATIVE,
              help="Fixed per-sample segment/step count.")
@click.option("--r-quad", default=0.0, show_default=True, type=NONNEGATIVE_REAL,
              help="Quadratic policy coefficient: r = ceil(c tau^2).")
@click.option("--eps-pf", default=0.0, show_default=True, type=NONNEGATIVE_REAL,
              help="Certified PF policy: per-sample error budget.")
@click.option("--n-max", default=0, show_default=True, type=NONNEGATIVE,
              help="RTE truncation order.")
@click.option("--n-samples", default=10000, show_default=True, type=AT_LEAST_ONE)
@click.option("--noise", type=click.Choice(["bernoulli", "gaussian", "exact"]),
              default="bernoulli", show_default=True)
@click.option("--seed", default=0, show_default=True, type=NONNEGATIVE)
@click.option("--out", default=None, type=click.Path())
def solve_cmd(matrix, n_qubits, kappa, kappa_star, eps_t, eps_d,
              kernel, r, r_quad, eps_pf, n_max, n_samples, noise, seed, out):
    """End-to-end Monte Carlo estimate of <phi|A^{-1}|psi>."""
    problem = _load_problem(["--eps-t", "--kappa-star", "--kappa"], matrix,
                            n_qubits, kappa, seed, eps_t, eps_d, kappa_star)
    f = 0.0
    if eps_pf > 0:
        f = commutator_constant(problem.unit_decomposition, loose=True)
    try:
        cfg = KernelConfig(kernel, r_fixed=r, r_quadratic=r_quad,
                           f=f, eps_pf=eps_pf, n_max=n_max)
    except ValueError as exc:
        raise click.UsageError(
            f"{exc} (r policies: --r, --r-quad, --eps-pf; "
            "--kernel rte also needs --n-max)"
        ) from exc
    try:
        report = run_solver(problem, cfg, n_samples, noise, seed)
    except RTEWeightOverflowError as exc:
        raise click.ClickException(
            f"{exc}; a larger --r or --r-quad keeps it finite"
        ) from exc
    if report.diagnostics["certified"] is False:
        click.echo(
            "warning: the spectrum of A/lam leaves the series domain "
            f"[1/kappa_tilde, 1] (kappa_tilde = {problem.series.kappa_tilde:.6g}); "
            "kappa_star is below the condition number of A, so the estimate "
            "is not certified", err=True,
        )
    payload = _manifest(seed)
    payload["report"] = report.to_json()
    payload["report"]["diagnostics"].pop("records", None)
    _write_json(out, payload)


@main.command("rmse-sweep")
@click.option("--kappa", default=10.0, show_default=True, type=AT_LEAST_ONE_REAL)
@click.option("--eps-f", default=2e-2, show_default=True, type=POSITIVE_REAL)
@click.option("--fixed-r", default=5, show_default=True, type=AT_LEAST_ONE)
@click.option("--max-samples", default=10**6, show_default=True, type=click.IntRange(min=100))
@click.option("--trials", default=20, show_default=True, type=AT_LEAST_ONE)
@click.option("--noise", type=click.Choice(["bernoulli", "gaussian", "exact"]),
              default="gaussian", show_default=True)
@click.option("--seed", default=0, show_default=True, type=NONNEGATIVE)
@click.option("--out", default=None, type=click.Path())
def rmse_sweep_cmd(kappa, eps_f, fixed_r, max_samples, trials, noise,
                   seed, out):
    """RMSE convergence per kernel policy (exact, fixed r, adaptive r)."""
    problem = _load_problem(["--eps-f", "--kappa"], None, 2, kappa, seed,
                            eps_f / 2, eps_f / 2, None)
    schedule = log_schedule(100, max_samples)
    results = rmse_sweep(problem, sweep_policies(fixed_r), schedule, trials,
                         noise, seed)
    rows = [
        [name, n, r]
        for name, curve in sorted(results.items())
        for n, r in zip(curve["n_s"], curve["rmse"])
    ]
    _write_csv(out, _manifest(seed), ["policy", "n_s", "rmse"], rows)


def _parse_taus(ctx, param, value):
    try:
        return [float(t) for t in value.split(",")]
    except ValueError:
        raise click.BadParameter(f"{value!r} is not a comma-separated list of numbers") from None


@main.command("rte-single")
@click.option("--taus", default="1,20,50,80", show_default=True, callback=_parse_taus)
@click.option("--r", default=100, show_default=True, type=AT_LEAST_ONE)
@click.option("--n-max", default=20, show_default=True, type=NONNEGATIVE)
@click.option("--max-samples", default=10**5, show_default=True, type=click.IntRange(min=100))
@click.option("--trials", default=20, show_default=True, type=AT_LEAST_ONE)
@click.option("--kappa", default=10.0, show_default=True, type=AT_LEAST_ONE_REAL)
@click.option("--seed", default=0, show_default=True, type=NONNEGATIVE)
@click.option("--out", default=None, type=click.Path())
def rte_single_cmd(taus, r, n_max, max_samples, trials, kappa, seed, out):
    """RMSE of the RTE estimator of a single evolved overlap per tau."""
    rng = sample_rng(seed, 0)
    d_unit = gen_matrix(2, kappa, rng).decomposition.rescaled()
    schedule = log_schedule(100, max_samples)
    try:
        results = rte_single(d_unit, taus, r, schedule, trials, seed,
                             n_max=n_max)
    except RTEWeightOverflowError as exc:
        raise click.ClickException(f"{exc}; a larger --r keeps it finite") from exc
    rows = [
        [tau, n, rmse]
        for tau, curve in results.items()
        for n, rmse in zip(curve["n_s"], curve["rmse"])
    ]
    _write_csv(out, _manifest(seed), ["tau", "n_s", "rmse"], rows)


if __name__ == "__main__":
    main()
