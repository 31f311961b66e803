"""Batch experiments: parameter tables, RMSE sweeps, and coverage checks.

These are the desk-scale counterparts of the headline numerical studies:
the (J, K) parameter table, the kernel-policy RMSE convergence sweep, the
single-exponential RTE variance study, and a Hoeffding coverage check of
the certified sample counts.
"""

from __future__ import annotations

import math

import numpy as np

from .estimator import (
    KernelConfig,
    Problem,
    _running_sums,
    exhaustive_mean,
    monte_carlo_mean,
    overlap_table_exact,
    overlap_table_pf,
    pf_resources,
)
from .fourier import build_series, fourier_params, truncation_params
from .kernel_rte import sample_rte_overlaps_batch, segment_model
from .pauli import PauliDecomposition
from .randmat import conditioned_spectrum
from .sampler import DRAW_BLOCK, sample_rng
from .simulator import exact_evolution

TABLE1_KAPPAS = (10, 100, 1000)
TABLE1_EPS_F = (1e-2, 1e-3, 1e-4, 1e-5)
HEAVY_KAPPA = 1000


def log_schedule(n_min: int, n_max: int):
    """Sorted unique integer sample counts, log-spaced, 10 points a decade."""
    if not 1 <= n_min <= n_max:
        raise ValueError("need 1 <= n_min <= n_max")
    n_points = max(2, int(round(10 * math.log10(n_max / n_min))) + 1)
    pts = np.unique(np.round(np.geomspace(n_min, n_max, n_points)).astype(int))
    return pts.tolist()


def table1_rows(trials: int = 0, heavy: bool = False, master_seed: int = 0):
    """Grid sizes (J, K) for the twelve (kappa, eps_F) pairs, with optional
    per-row verification of the series error at random spectra.

    Verification draws `trials` random 4-point spectra per row and records
    the worst scalar error max |1/x - F(x)|.  The kappa = 1000 rows build
    series with up to ~4e8 terms and are skipped unless heavy is set.
    """
    rows = []
    for kappa in TABLE1_KAPPAS:
        for eps_f in TABLE1_EPS_F:
            eps = eps_f / 2
            trunc = truncation_params(float(kappa), eps)
            big_j, big_k = fourier_params(float(kappa), eps, eps, trunc)
            row = {
                "kappa": kappa,
                "eps_f": eps_f,
                "J": big_j,
                "K": big_k,
                "t_max": trunc.t_max,
            }
            if trials > 0 and (kappa < HEAVY_KAPPA or heavy):
                series = build_series(float(kappa), 1.0, eps, eps)
                rng = sample_rng(master_seed, kappa, int(-math.log10(eps_f)))
                worst = 0.0
                for _ in range(trials):
                    x = conditioned_spectrum(4, float(kappa), rng)
                    worst = max(worst, float(series.inverse_error(x).max()))
                row["eps_max"] = worst
            rows.append(row)
    return rows


def sweep_policies(fixed_r: int) -> dict:
    """The four benchmark kernel policies keyed by curve name."""
    return {
        "exact": KernelConfig("exact"),
        f"fixed-r{fixed_r}": KernelConfig("pf", r_fixed=fixed_r),
        "adaptive-0.05": KernelConfig("pf", r_quadratic=0.05),
        "adaptive-0.1": KernelConfig("pf", r_quadratic=0.1),
    }


def rmse_sweep(
    problem: Problem,
    policies: dict,
    schedule,
    trials: int,
    noise_mode: str,
    master_seed: int,
) -> dict:
    """RMSE vs sample count for each kernel policy.

    Each trial is one independent Monte Carlo stream; the schedule points
    are running means of that stream, so each curve uses schedule[-1]
    samples per trial.  RMSE is against the dense-solve truth.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    truth = problem.truth()
    n_top = int(schedule[-1])
    out = {}
    for pi, (name, cfg) in enumerate(sorted(policies.items())):
        if cfg.kernel == "exact":
            table = overlap_table_exact(problem)
        else:
            table = overlap_table_pf(problem, cfg)
        sq_errs = np.zeros((trials, len(schedule)))
        for t in range(trials):
            rng = sample_rng(master_seed, pi, t)
            means = monte_carlo_mean(
                problem.series, table, n_top, noise_mode, rng, schedule
            )
            sq_errs[t] = np.abs(means - truth) ** 2
        out[name] = {
            "n_s": [int(n) for n in schedule],
            "rmse": np.sqrt(sq_errs.mean(axis=0)).tolist(),
        }
    return out


def loglog_slope(n_s, rmse) -> float:
    """Least-squares slope of log(rmse) against log(n_s)."""
    return float(np.polyfit(np.log(n_s), np.log(rmse), 1)[0])


def rte_single(
    d_unit: PauliDecomposition,
    taus,
    r: int,
    schedule,
    trials: int,
    master_seed: int,
    n_max: int = 20,
) -> dict:
    """RMSE of the alpha^r-weighted RTE estimator of Re<0|e^{-iAt}|0>.

    Exact-overlap mode: the only randomness is the LCU term sampling, so
    the curves isolate the kernel's variance prefactor.  Each trial draws
    its samples in blocks of DRAW_BLOCK from one stream, and its schedule
    points are running means of that stream.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    dim = 1 << d_unit.n_qubits
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    counts = np.asarray(schedule, dtype=np.int64)
    n_top = int(schedule[-1])
    out = {}
    for ti, tau in enumerate(taus):
        model = segment_model(float(tau), r, n_max)
        truth = float((psi.conj() @ exact_evolution(d_unit, tau) @ psi).real)
        sq_errs = np.zeros((trials, len(schedule)))
        for t in range(trials):
            rng = sample_rng(master_seed, ti, t)
            blocks = ((model.alpha_power_r * sample_rte_overlaps_batch(
                d_unit, model, r, psi, psi, min(DRAW_BLOCK, n_top - start), rng).real,)
                for start in range(0, n_top, DRAW_BLOCK))
            means = _running_sums(blocks, counts, n_top, 1)[0] / counts
            sq_errs[t] = (means - truth) ** 2
        out[float(tau)] = {
            "n_s": [int(n) for n in schedule],
            "rmse": np.sqrt(sq_errs.mean(axis=0)).tolist(),
            "alpha_power_r": model.alpha_power_r,
        }
    return out


def hoeffding_coverage(
    problem: Problem,
    f: float,
    eps: float,
    delta: float,
    runs: int,
    master_seed: int,
) -> dict:
    """Empirical failure rate of the certified PF sample count.

    Runs the solver `runs` times at the certified (r, N_S) with faithful
    Bernoulli shots and counts how often the estimate misses the
    exact-series target by more than eps/2; the guarantee is a failure
    probability at most delta.
    """
    series = problem.series
    res = pf_resources(
        eps, delta, series.N_y, series.N_z, series.lam, f, series.t_max,
        problem.decomposition.L,
    )
    if res.infeasible or res.n_s is None:
        raise ValueError("instance too hard for a desk-scale coverage check")
    cfg = KernelConfig("pf", r_fixed=res.r)
    table = overlap_table_pf(problem, cfg)
    target = exhaustive_mean(problem, KernelConfig("exact"))
    failures = 0
    for run in range(runs):
        rng = sample_rng(master_seed, run)
        mean = monte_carlo_mean(series, table, res.n_s, "bernoulli", rng)
        if abs(complex(mean) - target) > eps / 2:
            failures += 1
    return {
        "runs": runs,
        "failures": failures,
        "failure_rate": failures / runs,
        "delta": delta,
        "eps": eps,
        "n_s": res.n_s,
        "r": res.r,
        "bias_bound": res.bias_bound,
    }
