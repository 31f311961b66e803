import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from rqls.estimator import (
    KernelConfig,
    Problem,
    SampleRecord,
    exhaustive_mean,
    monte_carlo_mean,
    overlap_table_exact,
    overlap_table_pf,
    pf_bias_bound,
    pf_resources,
    rte_resources,
    run_solver,
)
from rqls.fourier import build_series
from rqls.kernel_pf import build_pf
from rqls import kernel_rte
from rqls.kernel_rte import sample_rte_overlaps_batch, segment_model
from rqls.pauli import commutator_constant, materialize, pauli_decompose
from rqls.randmat import gen_matrix
from rqls.sampler import DRAW_BLOCK, TimeSampler, sample_rng
from rqls.simulator import StateVector, exact_evolution, shots


def make_problem(kappa=10.0, eps=5e-3, seed=0, n_qubits=2, kappa_star=None):
    rng = np.random.default_rng(seed)
    art = gen_matrix(n_qubits, kappa, rng)
    series = build_series(kappa if kappa_star is None else kappa_star, art.lam, eps, eps)
    dim = 1 << n_qubits
    a = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    b = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi = StateVector(a / np.linalg.norm(a))
    phi = StateVector(b / np.linalg.norm(b))
    return Problem(art.decomposition, psi, phi, series)


@pytest.fixture(scope="module")
def problem():
    return make_problem()


def test_problem_lambda_mismatch():
    rng = np.random.default_rng(1)
    art = gen_matrix(1, 10.0, rng)
    series = build_series(10.0, art.lam + 0.5, 5e-3, 5e-3)
    with pytest.raises(ValueError):
        Problem(
            art.decomposition,
            StateVector.basis(1),
            StateVector.basis(1),
            series,
        )


def test_kernel_config_validation():
    KernelConfig("exact")
    KernelConfig("pf", r_fixed=5)
    KernelConfig("pf", f=0.3, eps_pf=0.1)
    KernelConfig("rte", r_quadratic=1.0, n_max=6)
    with pytest.raises(ValueError):
        KernelConfig("magic")
    with pytest.raises(ValueError):
        KernelConfig("pf")  # no policy
    with pytest.raises(ValueError):
        KernelConfig("pf", r_fixed=5, r_quadratic=0.1)  # two policies
    with pytest.raises(ValueError):
        KernelConfig("rte", eps_pf=0.1, n_max=4)  # certified r is pf-only
    with pytest.raises(ValueError):
        KernelConfig("rte", r_fixed=5)  # missing n_max


def test_r_for_policies():
    assert KernelConfig("exact").r_for(100.0) == 1
    assert KernelConfig("pf", r_fixed=7).r_for(3.0) == 7
    assert KernelConfig("pf", r_quadratic=0.1).r_for(10.0) == 10
    assert KernelConfig("pf", f=1.0, eps_pf=0.5).r_for(2.0) == 4
    # rte quadratic policy floors at ceil(|tau|)
    assert KernelConfig("rte", r_quadratic=0.01, n_max=4).r_for(5.0) == 5
    assert KernelConfig("rte", r_quadratic=1.0, n_max=4).r_for(-5.0) == 25


def test_sample_record_z_hat():
    rec = SampleRecord(0, 1.0, "exact", 1, 2j, 0.5, -1.0)
    assert rec.z_hat == 2j * complex(0.5, -1.0)


def test_sample_record_replace_and_asdict():
    # the benchmark's planted faults rebuild records with dataclasses.replace
    rec = SampleRecord(0, 1.0, "exact", 1, 2j, 0.5, -1.0)
    bad = dataclasses.replace(rec, shot_re=-0.5)
    assert (bad.shot_re, rec.shot_re) == (-0.5, 0.5)
    assert bad.z_hat == 2j * complex(-0.5, -1.0)
    assert dataclasses.asdict(rec) == {
        "sample_index": 0, "tau": 1.0, "kernel": "exact", "r": 1,
        "prefactor": 2j, "shot_re": 0.5, "shot_im": -1.0,
    }


def test_pf_bias_bound_values():
    assert pf_bias_bound(1.0, 1.0, 1.0, 0.0, 10.0, 3) == 0.0
    assert pf_bias_bound(2.0, 1.0, 1.0, 0.1, 10.0, 100) == pytest.approx(
        2 * 0.1 * 1000 / 10000
    )
    # quarter law: doubling r cuts the bound by 4
    b1 = pf_bias_bound(2.0, 1.5, 1.2, 0.3, 8.0, 10)
    b2 = pf_bias_bound(2.0, 1.5, 1.2, 0.3, 8.0, 20)
    assert b1 / b2 == pytest.approx(4.0)
    with pytest.raises(ValueError):
        pf_bias_bound(1.0, 1.0, 1.0, -0.1, 1.0, 1)


def test_pf_resources_basic():
    res = pf_resources(0.1, 0.05, 5.0, 1.9, 1.5, 0.2, 12.0, 4)
    assert not res.infeasible
    assert res.kernel == "pf"
    assert res.r >= 1 and res.n_s is not None and res.n_s > 1
    assert res.bias_bound < 0.1 / 2
    assert res.n_cp_per_sample == 2 * res.r * 4
    # r is the smallest integer exceeding the balance point
    r_real = math.sqrt(2 * 5.0 * 1.9 * 0.2 * 12.0**3 / (1.5 * 0.1))
    assert res.r == math.floor(r_real) + 1


def test_pf_resources_monotone_in_eps():
    kw = dict(delta=0.05, n_y=5.0, n_z=1.9, lam=1.5, f=0.2, t_max=12.0, big_l=4)
    loose = pf_resources(0.2, **kw)
    tight = pf_resources(0.02, **kw)
    assert tight.n_s > loose.n_s
    assert tight.r > loose.r


def test_pf_resources_f_zero():
    res = pf_resources(0.1, 0.05, 5.0, 1.9, 1.5, 0.0, 12.0, 4)
    assert res.r == 1 and res.bias_bound == 0.0


def test_pf_resources_r_cap():
    res = pf_resources(1e-12, 0.05, 50.0, 1.9, 1.5, 5.0, 500.0, 4, r_cap=10**6)
    assert res.infeasible and res.n_s is None


def test_pf_resources_validation():
    with pytest.raises(ValueError):
        pf_resources(0.1, 2.0, 1.0, 1.0, 1.0, 0.1, 1.0, 1)
    with pytest.raises(ValueError):
        pf_resources(0.0, 0.1, 1.0, 1.0, 1.0, 0.1, 1.0, 1)


def test_rte_resources_feasible_when_r_tames_prefactor():
    t_max = 20.0
    res = rte_resources(0.05, 0.05, 5.0, 1.9, 1.5, t_max, 0.01, int(t_max**2))
    assert not res.infeasible
    assert res.n_max is not None and res.n_max % 2 == 0
    assert res.n_s is not None
    assert res.n_cp_per_sample == int(t_max**2)


def test_rte_resources_infeasible_at_linear_r():
    # r ~ t_max leaves an e^{t_max} variance prefactor: hopeless at scale
    t_max = 5579.757
    res = rte_resources(1e-3, 0.01, 1.2e4, 2.0, 1.0, t_max, 0.01, 5580)
    assert res.infeasible and res.n_s is None
    assert res.log10_n_s == pytest.approx(2 * t_max / math.log(10), rel=0.01)


def test_rte_resources_validation():
    with pytest.raises(ValueError):
        rte_resources(0.1, 0.05, 1.0, 1.0, 1.0, 100.0, 0.01, 50)


def test_overlap_tables_elementwise_bound(problem):
    exact = overlap_table_exact(problem)
    assert np.abs(exact).max() <= 1 + 1e-9
    cfg = KernelConfig("pf", r_quadratic=0.1)
    pf = overlap_table_pf(problem, cfg)
    f = commutator_constant(problem.unit_decomposition)
    grid = problem.series.grid
    taus = np.multiply.outer(grid.y_nodes, grid.z_nodes)
    rs = np.vectorize(cfg.r_for)(taus)
    assert np.all(np.abs(exact - pf) <= f * np.abs(taus) ** 3 / rs**2 + 1e-10)


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
def test_truth_from_spectrum_matches_dense_solve(n_qubits):
    # the spectral sum against np.linalg.solve, to 1e-14 kappa |truth|
    for i, kappa in enumerate(np.linspace(2.0, 30.0, 15)):
        p = make_problem(kappa=float(kappa), eps=0.1, seed=100 * n_qubits + i, n_qubits=n_qubits)
        x = np.linalg.solve(materialize(p.decomposition), p.psi.amplitudes)
        ref = complex(p.phi.amplitudes.conj() @ x)
        assert abs(p.truth() - ref) <= 1e-14 * kappa * abs(ref)


def test_exhaustive_mean_matches_series(problem):
    # the zero-noise limit is lam^{-1} <phi|F(A/lam)|psi>, which for the
    # certified series sits within eps_F of the dense-solve truth
    mean = exhaustive_mean(problem, KernelConfig("exact"))
    assert abs(mean - problem.truth()) < 1e-2
    with pytest.raises(ValueError):
        exhaustive_mean(problem, KernelConfig("rte", r_fixed=5, n_max=4))


def test_exhaustive_mean_scalar_oracle():
    # diagonal A: the estimator mean reduces to a scalar series evaluation
    a = np.diag([1.0, -0.25])
    d = pauli_decompose(a)
    series = build_series(4.0, d.lam, 5e-3, 5e-3)
    psi = StateVector(np.array([0.6, 0.8], dtype=complex))
    problem = Problem(d, psi, psi, series)
    mean = exhaustive_mean(problem, KernelConfig("exact"))
    lam = series.lam
    expected = sum(
        abs(c) ** 2 * complex(series.evaluate(x / lam)) / lam
        for c, x in zip(psi.amplitudes, np.diag(a))
    )
    assert mean == pytest.approx(expected, abs=1e-12)


def test_pf_exhaustive_bias_within_bound(problem):
    f = commutator_constant(problem.unit_decomposition)
    r = 40
    series = problem.series
    mean_pf = exhaustive_mean(problem, KernelConfig("pf", r_fixed=r))
    mean_exact = exhaustive_mean(problem, KernelConfig("exact"))
    bound = pf_bias_bound(
        series.N_y, series.N_z, series.lam, f, series.t_max, r
    )
    assert abs(mean_pf - mean_exact) <= bound + 1e-12


def test_monte_carlo_mean_converges(problem):
    table = overlap_table_exact(problem)
    rng = np.random.default_rng(3)
    mean = monte_carlo_mean(problem.series, table, 200_000, "exact", rng)
    assert abs(complex(mean) - problem.truth()) < 0.05


def test_monte_carlo_mean_schedule(problem):
    table = overlap_table_exact(problem)
    sched = [10, 100, 1000]
    means = monte_carlo_mean(
        problem.series, table, 1000, "exact", np.random.default_rng(4), sched
    )
    assert means.shape == (3,)
    with pytest.raises(ValueError):
        monte_carlo_mean(
            problem.series, table, 100, "exact",
            np.random.default_rng(5), [10, 200],
        )
    with pytest.raises(ValueError):
        monte_carlo_mean(
            problem.series, table, 100, "laplace", np.random.default_rng(6)
        )


def unblocked_samples(series, overlap_table, n_s, noise_mode, rng):
    """The n_s estimator samples of the unblocked Monte Carlo path, drawn
    all at once: j, k, then the real and the imaginary shot noise."""
    sampler = TimeSampler(series)
    j, k = sampler.sample_batch(rng, n_s)
    omega = 1j * np.sign(series.grid.z_nodes[k])
    v = overlap_table[j, k]
    if noise_mode == "bernoulli":
        re = np.where(rng.random(n_s) < (1 + v.real) / 2, 1.0, -1.0)
        im = np.where(rng.random(n_s) < (1 + v.imag) / 2, 1.0, -1.0)
    elif noise_mode == "gaussian":
        re = v.real + rng.standard_normal(n_s)
        im = v.imag + rng.standard_normal(n_s)
    else:
        re, im = v.real, v.imag
    return sampler.weight * omega * (re + 1j * im)


def unblocked_mean(series, overlap_table, n_s, noise_mode, rng, schedule=None):
    z = unblocked_samples(series, overlap_table, n_s, noise_mode, rng)
    if schedule is None:
        return np.array(z.mean())
    counts = np.asarray(schedule, dtype=np.int64)
    return np.cumsum(z)[counts - 1] / counts


@pytest.mark.parametrize("noise_mode", ["exact", "gaussian", "bernoulli"])
def test_monte_carlo_mean_is_unblocked_within_one_block(problem, noise_mode):
    table = overlap_table_exact(problem)
    for n_s in (1, 777, DRAW_BLOCK):
        schedule = sorted({1, min(10, n_s), n_s // 3 + 1, n_s})
        for sched in (None, schedule):
            got = monte_carlo_mean(problem.series, table, n_s, noise_mode,
                                   np.random.default_rng(n_s), sched)
            want = unblocked_mean(problem.series, table, n_s, noise_mode,
                                  np.random.default_rng(n_s), sched)
            assert np.array_equal(got, want)


@pytest.mark.parametrize("noise_mode", ["exact", "bernoulli"])
def test_monte_carlo_mean_blocks_form_one_stream(problem, noise_mode):
    # the blocked stream is the unblocked samples of each block, in order;
    # its running means at counts on both sides of block edges are those
    # of the concatenated stream
    table = overlap_table_exact(problem)
    n_s = 2 * DRAW_BLOCK + 123
    rng = np.random.default_rng(8)
    z = np.concatenate([
        unblocked_samples(problem.series, table, min(DRAW_BLOCK, n_s - i), noise_mode, rng)
        for i in range(0, n_s, DRAW_BLOCK)
    ])
    schedule = [1, DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1, 2 * DRAW_BLOCK,
                2 * DRAW_BLOCK + 1, n_s]
    got = monte_carlo_mean(problem.series, table, n_s, noise_mode,
                           np.random.default_rng(8), schedule)
    counts = np.array(schedule)
    assert np.array_equal(got, np.cumsum(z)[counts - 1] / counts)
    mean = monte_carlo_mean(problem.series, table, n_s, noise_mode, np.random.default_rng(8))
    assert abs(complex(mean) - z.mean()) <= 1e-12 * np.abs(z).max()


def test_monte_carlo_mean_memory_is_one_block(problem):
    # the peak is the split table plus a fixed number of block-sized
    # temporaries, the same at 50,000 and at 500,000 samples
    table = overlap_table_exact(problem)
    block_bytes = 8 * DRAW_BLOCK
    for sched in (None, [100, 1000, 10_000, 50_000]):
        peaks = []
        for n_s in (50_000, 500_000):
            tracemalloc.start()
            try:
                monte_carlo_mean(problem.series, table, n_s, "bernoulli",
                                 np.random.default_rng(1), sched)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= table.nbytes + 32 * block_bytes, peaks
        assert peaks[1] <= 1.1 * peaks[0], peaks


def test_run_solver_exact_kernel(problem):
    report = run_solver(
        problem, KernelConfig("exact"), 4000, "exact", master_seed=0
    )
    assert report.n_samples == 4000
    assert report.truth is not None
    assert report.abs_error < 0.2
    assert report.diagnostics["kernel_cache_size"] > 0


def test_run_solver_deterministic_in_seed(problem):
    cfg = KernelConfig("pf", r_quadratic=0.1)
    a = run_solver(problem, cfg, 200, "bernoulli", master_seed=9)
    b = run_solver(problem, cfg, 200, "bernoulli", master_seed=9)
    assert a.estimate == b.estimate
    c = run_solver(problem, cfg, 200, "bernoulli", master_seed=10)
    assert c.estimate != a.estimate


def test_run_solver_keeps_records(problem):
    report = run_solver(
        problem, KernelConfig("exact"), 50, "exact", 1, keep_records=True
    )
    recs = report.diagnostics["records"]
    assert len(recs) == 50
    est = sum(r.z_hat for r in recs) / 50
    assert est == pytest.approx(report.estimate, abs=1e-12)


def test_run_solver_rte_kernel(problem):
    cfg = KernelConfig("rte", r_quadratic=1.0, n_max=6)
    report = run_solver(problem, cfg, 300, "exact", master_seed=2)
    assert np.isfinite(report.estimate.real)
    assert report.kernel == "rte"


def test_run_solver_identity_matrix():
    # A = I: <phi|A^{-1}|psi> is just the overlap
    d = pauli_decompose(np.eye(2))
    series = build_series(1.0, d.lam, 5e-3, 5e-3)
    psi = StateVector(np.array([1.0, 0.0], dtype=complex))
    problem = Problem(d, psi, psi, series)
    report = run_solver(problem, KernelConfig("exact"), 4000, "exact", 0)
    # per-sample weight N_y N_z ~ 3, so the standard error is ~ 0.05
    assert abs(report.estimate - 1.0) < 0.2
    assert abs(exhaustive_mean(problem, KernelConfig("exact")) - 1.0) < 1e-2


def test_run_solver_and_monte_carlo_mean_reject_no_samples(problem):
    with pytest.raises(ValueError, match="n_s"):
        run_solver(problem, KernelConfig("exact"), 0, "exact", 0)
    table = overlap_table_exact(problem)
    with pytest.raises(ValueError, match="n_s"):
        monte_carlo_mean(problem.series, table, 0, "exact", np.random.default_rng(0))


def test_every_draw_is_one_sample_batch_call_per_block(monkeypatch, problem):
    # size is read as the third positional argument (self, rng, size), as
    # the benchmark's draw counter reads it: DRAW_BLOCK per block, then the
    # remainder
    sizes = []
    sample_batch = TimeSampler.sample_batch
    monkeypatch.setattr(TimeSampler, "sample_batch",
                        lambda *args: sizes.append(args[2]) or sample_batch(*args))
    n_s = 2 * DRAW_BLOCK + 123
    table = overlap_table_exact(problem)
    monte_carlo_mean(problem.series, table, n_s, "exact", np.random.default_rng(0))
    assert sizes == [DRAW_BLOCK, DRAW_BLOCK, 123]
    sizes.clear()
    run_solver(problem, KernelConfig("exact"), n_s, "exact", 0)
    assert sizes == [DRAW_BLOCK, DRAW_BLOCK, 123]


def test_run_solver_certifies_the_spectrum():
    # kappa* below the true condition number leaves eigenvalues of A/lam
    # outside the series domain [1/kappa_tilde, 1]
    good = run_solver(make_problem(), KernelConfig("exact"), 10, "exact", 0)
    bad = run_solver(make_problem(kappa_star=3.0), KernelConfig("exact"), 10, "exact", 0)
    assert good.diagnostics["certified"] is True
    assert bad.diagnostics["certified"] is False


CHUNK_CONFIGS = [
    KernelConfig("exact"),
    KernelConfig("pf", r_quadratic=0.1),
    KernelConfig("rte", r_fixed=1, n_max=2),
]


@pytest.mark.parametrize("config", CHUNK_CONFIGS, ids=lambda c: c.kernel)
def test_run_solver_chunks_are_keyed_streams(config):
    # chunk c draws from the stream (master_seed, c), so a longer run
    # starts with the records of a shorter one
    small = make_problem(kappa=2.0, eps=5e-2)
    n = 2 * DRAW_BLOCK
    short = run_solver(small, config, n, "bernoulli", 4, keep_records=True)
    longer = run_solver(small, config, n + 3, "bernoulli", 4, keep_records=True)
    assert longer.diagnostics["records"][:n] == short.diagnostics["records"]
    assert [rec.sample_index for rec in longer.diagnostics["records"]] == list(range(n + 3))


@pytest.mark.parametrize("noise_mode", ["exact", "gaussian"])
def test_run_solver_exact_kernel_chunks_are_monte_carlo_means(problem, noise_mode):
    # chunk c consumes the stream (seed, c) as monte_carlo_mean does a
    # single block: j, k, then the shots
    n = DRAW_BLOCK + 100
    report = run_solver(problem, KernelConfig("exact"), n, noise_mode, 6)
    table = overlap_table_exact(problem)
    want = (DRAW_BLOCK * monte_carlo_mean(problem.series, table, DRAW_BLOCK, noise_mode,
                                          sample_rng(6, 0))
            + 100 * monte_carlo_mean(problem.series, table, 100, noise_mode,
                                     sample_rng(6, 1))) / n
    assert abs(report.estimate - complex(want)) <= 1e-12 * TimeSampler(problem.series).weight


def test_run_solver_rte_draws_pair_by_pair():
    # the documented order: j, k, then each distinct pair's kernel samples
    # in ascending flat index, each pair's samples in chunk order
    small = make_problem(kappa=2.0, eps=5e-2)
    config = KernelConfig("rte", r_fixed=2, n_max=4)
    n = 2000
    recs = run_solver(small, config, n, "exact", 3, keep_records=True).diagnostics["records"]
    sampler = TimeSampler(small.series)
    grid = small.series.grid
    rng = sample_rng(3, 0)
    j, k = sampler.sample_batch(rng, n)
    tau, omega = grid.y_nodes[j] * grid.z_nodes[k], 1j * np.sign(grid.z_nodes[k])
    flat = j * grid.K + k
    want = np.empty(n, dtype=complex)
    for pair in np.unique(flat):
        at = np.flatnonzero(flat == pair)
        model = segment_model(tau[at[0]], 2, 4)
        want[at] = model.alpha_power_r * sample_rte_overlaps_batch(
            small.unit_decomposition, model, 2, small.psi.amplitudes,
            small.phi.amplitudes, len(at), rng)
    want *= sampler.weight * omega
    got = np.array([rec.z_hat for rec in recs])
    assert len(np.unique(flat)) < n // 2  # pairs repeat
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("group_draws, n_groups", [(None, 1), (2000, 10)])
def test_run_solver_rte_mixed_r_matches_pair_by_pair_oracle(monkeypatch, group_draws,
                                                            n_groups):
    # mixed r in one chunk: one frame fold per group of pairs (the whole
    # chunk at the default bound, 10 groups at the bytes of 2000 draws with
    # a code and a table row each), sorted by r, gives each sample bit for
    # bit what a fold of its pair alone gives
    if group_draws is not None:
        monkeypatch.setattr(kernel_rte, "FOLD_GROUP_BYTES", group_draws * (8 + 16 * 4))
    groups = []
    fold_group = kernel_rte._fold_group
    monkeypatch.setattr(kernel_rte, "_fold_group",
                        lambda *args: groups.append(1) or fold_group(*args))
    small = make_problem(kappa=2.0, eps=5e-2)
    config = KernelConfig("rte", r_quadratic=0.02, n_max=4)
    n = 2000
    recs = run_solver(small, config, n, "exact", 3, keep_records=True).diagnostics["records"]
    assert len(groups) == n_groups
    sampler = TimeSampler(small.series)
    grid = small.series.grid
    rng = sample_rng(3, 0)
    j, k = sampler.sample_batch(rng, n)
    tau, omega = grid.y_nodes[j] * grid.z_nodes[k], 1j * np.sign(grid.z_nodes[k])
    flat = j * grid.K + k
    rs = config.r_for(tau)
    want = np.empty(n, dtype=complex)
    for pair in np.unique(flat):
        at = np.flatnonzero(flat == pair)
        # Python scalars, as the solver passes them: alpha ** np.int64 is
        # numpy's pow, which may round apart from Python's
        r = int(rs[at[0]])
        model = segment_model(float(tau[at[0]]), r, 4)
        o = sample_rte_overlaps_batch(small.unit_decomposition, model, r,
                                      small.psi.amplitudes, small.phi.amplitudes,
                                      len(at), rng)
        # rounded in the solver's order: the unit phases are exact, then
        # weight * alpha^r, then its product with the overlap
        want[at] = (sampler.weight * model.alpha_power_r) * (omega[at] * o)
    assert len(set(rs.tolist())) > 40 and np.bincount(np.unique(flat, return_inverse=True)[1]).max() > 1
    assert [rec.r for rec in recs] == rs.tolist()
    assert [rec.z_hat for rec in recs] == want.tolist()


@pytest.mark.parametrize("config", CHUNK_CONFIGS[:2], ids=lambda c: c.kernel)
def test_run_solver_exact_shots_are_dense_overlaps(problem, config):
    report = run_solver(problem, config, 300, "exact", 5, keep_records=True)
    d = problem.unit_decomposition
    psi, phi = problem.psi.amplitudes, problem.phi.amplitudes
    for rec in report.diagnostics["records"]:
        if config.kernel == "exact":
            u = exact_evolution(d, rec.tau)
        else:
            u = build_pf(d, rec.tau, rec.r).dense_unitary
        v = phi.conj() @ u @ psi
        assert abs(rec.shot_re - v.real) <= 1e-12 and abs(rec.shot_im - v.imag) <= 1e-12
        assert rec.r == config.r_for(rec.tau)


@pytest.mark.parametrize("config", CHUNK_CONFIGS[:2], ids=lambda c: c.kernel)
def test_run_solver_bernoulli_mean_within_hoeffding(problem, config):
    # each part of a sample lies in [-w, w]; two chunks and a partial one
    n, delta = 2 * DRAW_BLOCK + 500, 1e-6
    report = run_solver(problem, config, n, "bernoulli", 11)
    w = TimeSampler(problem.series).weight
    half_width = w * math.sqrt(2 * math.log(4 / delta) / n)
    mean = exhaustive_mean(problem, config)
    assert abs(report.estimate.real - mean.real) <= half_width
    assert abs(report.estimate.imag - mean.imag) <= half_width


def test_run_solver_rte_prefactor_carries_phase_and_weight(problem):
    config = KernelConfig("rte", r_fixed=3, n_max=4)
    report = run_solver(problem, config, 200, "bernoulli", 1, keep_records=True)
    w = TimeSampler(problem.series).weight
    for rec in report.diagnostics["records"]:
        alpha_r = segment_model(rec.tau, rec.r, config.n_max).alpha_power_r
        unit = rec.prefactor / (1j * np.sign(rec.tau) * w * alpha_r)
        assert min(abs(unit - 1j ** q) for q in range(4)) <= 1e-12
        assert abs(rec.shot_re) == 1 and abs(rec.shot_im) == 1


def test_shots_reject_non_unitary_overlaps():
    with pytest.raises(ValueError, match="non-unitary"):
        shots(np.array([0.5, 1.01]), "bernoulli", np.random.default_rng(0))


@pytest.mark.parametrize("noise_mode", ["exact", "gaussian", "bernoulli"])
@pytest.mark.parametrize("bad", [1.01, 1.01j])
def test_monte_carlo_mean_rejects_non_unitary_table(problem, noise_mode, bad):
    # a Bernoulli shot of Re > 1 would be a certain +1, so every noise mode
    # checks the drawn table entries as run_solver checks its overlaps
    table = np.full_like(overlap_table_exact(problem), bad)
    with pytest.raises(ValueError, match="non-unitary"):
        monte_carlo_mean(problem.series, table, 100, noise_mode, np.random.default_rng(0))
