import numpy as np
import pytest

from rqls.estimator import KernelConfig, Problem
from rqls.experiments import (
    sweep_policies,
    hoeffding_coverage,
    log_schedule,
    loglog_slope,
    rmse_sweep,
    rte_single,
    table1_rows,
)
from rqls.fourier import build_series
from rqls.kernel_rte import sample_rte_overlaps_batch, segment_model
from rqls.pauli import commutator_constant
from rqls.randmat import gen_matrix
from rqls.sampler import DRAW_BLOCK, sample_rng
from rqls.simulator import StateVector, exact_evolution


def test_log_schedule_shape():
    sched = log_schedule(100, 10**5)
    assert sched[0] == 100 and sched[-1] == 10**5
    assert sched == sorted(set(sched))
    # about 10 points per decade over 3 decades
    assert 25 <= len(sched) <= 35


def test_log_schedule_validation():
    with pytest.raises(ValueError):
        log_schedule(0, 100)
    with pytest.raises(ValueError):
        log_schedule(200, 100)


def test_loglog_slope_power_law():
    n = np.array([1e2, 1e3, 1e4, 1e5])
    assert loglog_slope(n, 3.0 / np.sqrt(n)) == pytest.approx(-0.5)
    assert loglog_slope(n, 2.0 / n**2) == pytest.approx(-2.0)


def test_sweep_policies():
    pols = sweep_policies(5)
    assert set(pols) == {"exact", "fixed-r5", "adaptive-0.05", "adaptive-0.1"}
    assert pols["exact"].kernel == "exact"
    assert pols["fixed-r5"].r_fixed == 5
    assert pols["adaptive-0.1"].r_quadratic == 0.1


def test_table1_rows_sizes_only():
    rows = table1_rows()
    assert len(rows) == 12
    assert all("eps_max" not in r for r in rows)
    by_key = {(r["kappa"], r["eps_f"]): (r["J"], r["K"]) for r in rows}
    assert by_key[(10, 1e-2)] == (154, 62)
    assert by_key[(1000, 1e-5)] == (30969, 12880)


def test_rte_single_small():
    d_unit = gen_matrix(1, 4.0, np.random.default_rng(1)).decomposition.rescaled()
    out = rte_single(d_unit, [1.0], 4, [100, 1000], 2, 5, n_max=6)
    curve = out[1.0]
    assert curve["n_s"] == [100, 1000]
    assert len(curve["rmse"]) == 2
    assert curve["alpha_power_r"] <= np.exp(1.0 / 4) + 1e-9
    # more samples, smaller error on average
    assert curve["rmse"][1] < curve["rmse"][0] * 2


@pytest.mark.parametrize("trials", [0, -1])
def test_zero_trials_is_an_error_not_nan(trials):
    # the mean over an empty trial axis would be NaN for every RMSE
    d_unit = gen_matrix(1, 4.0, np.random.default_rng(1)).decomposition.rescaled()
    with pytest.raises(ValueError, match="trials"):
        rte_single(d_unit, [1.0], 4, [100], trials, 5, n_max=6)
    art = gen_matrix(1, 4.0, np.random.default_rng(1))
    psi = StateVector.basis(1, 0)
    problem = Problem(art.decomposition, psi, psi, build_series(4.0, art.lam, 5e-2, 5e-2))
    with pytest.raises(ValueError, match="trials"):
        rmse_sweep(problem, sweep_policies(3), [100], trials, "exact", 5)


def test_rte_single_means_are_one_stream_across_blocks():
    # each trial draws DRAW_BLOCK samples at a time from its stream; its
    # running means at counts on both sides of the block edge are those of
    # one cumulative sum over the concatenated draws
    d_unit = gen_matrix(1, 4.0, np.random.default_rng(1)).decomposition.rescaled()
    tau, r, n_max, trials, seed = 1.0, 3, 6, 2, 5
    n_top = DRAW_BLOCK + 500
    schedule = [1, DRAW_BLOCK, DRAW_BLOCK + 1, n_top]
    got = rte_single(d_unit, [tau], r, schedule, trials, seed, n_max=n_max)[tau]["rmse"]
    model = segment_model(tau, r, n_max)
    psi = StateVector.basis(1, 0).amplitudes
    truth = (psi.conj() @ exact_evolution(d_unit, tau) @ psi).real
    counts = np.array(schedule)
    sq_errs = []
    for t in range(trials):
        rng = sample_rng(seed, 0, t)
        vals = np.concatenate([
            sample_rte_overlaps_batch(d_unit, model, r, psi, psi, m, rng)
            for m in (DRAW_BLOCK, n_top - DRAW_BLOCK)
        ])
        means = np.cumsum(model.alpha_power_r * vals.real)[counts - 1] / counts
        sq_errs.append((means - truth) ** 2)
    want = np.sqrt(np.mean(sq_errs, axis=0))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_hoeffding_coverage_within_guarantee():
    rng = np.random.default_rng(0)
    art = gen_matrix(2, 5.0, rng)
    series = build_series(5.0, art.lam, 5e-2, 5e-2)
    f = commutator_constant(art.decomposition.rescaled())
    psi = StateVector.basis(2, 0)
    problem = Problem(art.decomposition, psi, psi, series)
    # target accuracy placed so the integer rounding of the certified r
    # leaves real slack between the bias bound and eps/2
    eps = 2 * series.N_y * series.N_z * f * series.t_max**3 / (series.lam * 6.25)
    delta = 0.1
    runs = 50
    out = hoeffding_coverage(problem, f, eps, delta, runs, master_seed=7)
    assert out["runs"] == runs
    assert out["bias_bound"] < eps / 2
    sigma = np.sqrt(delta * (1 - delta) / runs)
    assert out["failure_rate"] <= delta + 3 * sigma
