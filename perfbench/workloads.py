"""The three workloads: inputs from the seed, timed set-up, stages, checks.

A workload is built from a seed (inputs, untimed), then `setup()` turns the
benchmark's matrix into a ready series and `Problem` (timed as setup_s), and
each round runs the same stages on the same inputs.  Stage k's rate is its
work (in the paper's own cost units) divided by its wall time; the rates are
the end-to-end metrics stage1_rate..stage3_rate.  `check()` tests every
operation of a round against the bounds in checks.py.

Program functions are looked up on their modules at call time
(`estimator.run_solver`, not a bound name), so the traced run's patches
apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np
from rqls import estimator, experiments, fourier, pauli, simulator

import checks
from instances import make_instance, rte_alpha, strang_overlaps, stream, uniform_domain_points

DELTA = 1e-9  # failure probability of each statistical check


@dataclass(frozen=True)
class Stage:
    """A timed step of a round.  `run(state, i)` is called for
    i = 0 .. calls - 1, each call timed on its own; the stage's output is
    the list of call outputs when calls > 1."""

    name: str
    unit: str  # the work unit of the stage's rate
    run: Callable  # (state, call index) -> output
    work: Callable  # (state, call output) -> work done, in `unit`
    calls: int = 1


def _master_seed(seed: int, key: int) -> int:
    return int(stream(seed, key).integers(2**62))


def _problem(instance_matrix, kappa_tilde, eps):
    """Matrix -> Pauli decomposition -> certified series -> Problem, as
    `rqls solve` does, with kappa_star = kappa_tilde / lam."""
    d = pauli.pauli_decompose(instance_matrix)
    series = fourier.build_series(kappa_tilde / d.lam, d.lam, eps, eps)
    f = pauli.commutator_constant(d.rescaled())
    psi = simulator.StateVector.basis(d.n_qubits, 0)
    return SimpleNamespace(problem=estimator.Problem(d, psi, psi, series), f=f)


# ---------------------------------------------------------------------------

class Solve:
    """One instance at the `rqls solve` defaults (eps_T = eps_D = 1e-2,
    Bernoulli shots), solved once per kernel by the per-sample loop."""

    name = "solve"
    setup_batch, setup_samples = 10, 15
    full = dict(kappa_tilde=20.0, eps=1e-2, n_exact=3000, n_pf=250, pf_c=1.0,
                n_rte=8, rte_c=0.25, rte_nmax=6)
    toy = dict(kappa_tilde=4.0, eps=1e-2, n_exact=100, n_pf=30, pf_c=1.0,
               n_rte=3, rte_c=0.25, rte_nmax=6)

    def __init__(self, seed: int, toy: bool = False):
        self.p = p = self.toy if toy else self.full
        self.instance = make_instance(stream(seed, 0), p["kappa_tilde"])
        self.truth = self.instance.truth()
        self.configs = {
            "exact": estimator.KernelConfig("exact"),
            "pf": estimator.KernelConfig("pf", r_quadratic=p["pf_c"]),
            "rte": estimator.KernelConfig("rte", r_quadratic=p["rte_c"], n_max=p["rte_nmax"]),
        }
        self.r_policy = {
            "exact": lambda tau: np.ones(len(tau), dtype=np.int64),
            "pf": lambda tau: checks.quadratic_r(tau, p["pf_c"], rte=False),
            "rte": lambda tau: checks.quadratic_r(tau, p["rte_c"], rte=True),
        }
        self.seeds = {k: _master_seed(seed, 10 + i) for i, k in enumerate(self.configs)}
        self.n_ops = 1 + len(self.configs)
        self.stages = [
            Stage("exact", "samples", lambda s, i: self._solve(s, "exact", p["n_exact"]),
                  lambda s, rep: rep.n_samples),
            Stage("pf", "samples", lambda s, i: self._solve(s, "pf", p["n_pf"]),
                  lambda s, rep: rep.n_samples),
            Stage("rte", "segments", lambda s, i: self._solve(s, "rte", p["n_rte"]),
                  lambda s, rep: sum(rec.r for rec in rep.diagnostics["records"])),
        ]

    def setup(self):
        return _problem(self.instance.matrix, self.p["kappa_tilde"], self.p["eps"])

    def _solve(self, state, kernel, n_s):
        return estimator.run_solver(
            state.problem, self.configs[kernel], n_s, "bernoulli", self.seeds[kernel],
            keep_records=True,
        )

    def bounds(self, state):
        """Certified |estimate - truth| bound per kernel."""
        series = state.problem.series
        _, tau = checks.grid_terms(series)
        p = self.p
        r_pf = self.r_policy["pf"](tau)
        r_rte = self.r_policy["rte"](tau)
        return {
            "exact": checks.solve_bound(series, p["n_exact"], 0.0, 1.0, DELTA),
            "pf": checks.solve_bound(series, p["n_pf"], checks.pf_bias(series, state.f, r_pf),
                                     1.0, DELTA),
            "rte": checks.solve_bound(
                series, p["n_rte"], checks.rte_bias(series, r_rte, p["rte_nmax"]),
                checks.rte_max_alpha_r(series, r_rte, p["rte_nmax"]), DELTA),
        }

    def check(self, state, outs):
        """Per kernel: the estimate within its certified bound of the truth,
        the per-sample records consistent with it, and (exact, pf) the shots
        unbiased for overlaps the benchmark computes itself."""
        series = state.problem.series
        bounds = self.bounds(state)
        terms = _unit_terms(state, self.instance)
        n_max = self.p["rte_nmax"]
        results = [_check_setup(state, self.instance, self.truth)]
        for stage, rep in zip(self.stages, outs):
            kernel = stage.name
            parts = [checks.check_estimate(rep.estimate, self.truth, bounds[kernel]),
                     checks.check_records(
                         rep, series, self.r_policy[kernel],
                         (lambda tau, r: rte_alpha(tau / r, n_max) ** r) if kernel == "rte" else None,
                         DELTA)]
            recs = rep.diagnostics["records"]
            tau = np.array([rec.tau for rec in recs])
            if kernel == "exact":
                parts.append(checks.check_shots(rep, self.instance.overlaps(tau), DELTA))
            elif kernel == "pf":
                r = np.array([rec.r for rec in recs])
                parts.append(checks.check_shots(rep, strang_overlaps(terms, tau, r), DELTA))
            results.append((f"solve.{kernel}", all(ok for ok, _ in parts),
                            "; ".join(d for _, d in parts)))
        return results


def _unit_terms(state, instance):
    """The program's Pauli terms (checked against the matrix by
    _check_setup) divided by the benchmark's own Pauli weight."""
    return [(c / instance.lam, p.to_text()) for c, p in state.problem.decomposition.terms]


def _check_setup(state, instance, truth):
    """The decomposition rebuilds the matrix, and the series applied exactly
    is within its budget of the truth."""
    series = state.problem.series
    _, tau = checks.grid_terms(series)
    parts = [checks.check_decomposition(state.problem.decomposition, instance.matrix, instance.lam),
             checks.check_series_mean(series, instance.overlaps(tau), truth)]
    return ("setup", all(ok for ok, _ in parts), "; ".join(d for _, d in parts))


# ---------------------------------------------------------------------------

class Studies:
    """The batched paths behind the paper's figures: an RMSE sweep over the
    exact, fixed-r PF and quadratic-r PF policies (Gaussian shots), and the
    single-overlap RTE variance study at the criterion-6 shape."""

    name = "studies"
    setup_batch, setup_samples = 10, 15
    full = dict(kappa_tilde=4.0, eps=1e-1, fixed_r=5, pf_c=0.1, n_top=50_000, trials=20,
                taus=(1.0, 20.0, 50.0, 80.0), rte_r=100, rte_nmax=20, rte_top=2000,
                rte_trials=2, slope=(-0.7, -0.3))
    toy = dict(kappa_tilde=4.0, eps=5e-2, fixed_r=2, pf_c=0.1, n_top=5000, trials=8,
               taus=(1.0, 20.0), rte_r=40, rte_nmax=10, rte_top=500,
               rte_trials=2, slope=(-0.8, -0.2))

    def __init__(self, seed: int, toy: bool = False):
        self.p = p = self.toy if toy else self.full
        self.instance = make_instance(stream(seed, 0), p["kappa_tilde"])
        self.truth = self.instance.truth()
        self.schedule = experiments.log_schedule(100, p["n_top"])
        self.rte_schedule = experiments.log_schedule(100, p["rte_top"])
        self.pf_policies = {
            f"fixed-r{p['fixed_r']}": estimator.KernelConfig("pf", r_fixed=p["fixed_r"]),
            f"adaptive-{p['pf_c']}": estimator.KernelConfig("pf", r_quadratic=p["pf_c"]),
        }
        self.pf_r = {
            f"fixed-r{p['fixed_r']}": lambda tau: np.full(len(tau), p["fixed_r"], dtype=np.int64),
            f"adaptive-{p['pf_c']}": lambda tau: checks.quadratic_r(tau, p["pf_c"], rte=False),
        }
        self.seeds = [_master_seed(seed, 10 + i) for i in range(3)]
        self.n_ops = 2 + len(self.pf_policies) + len(p["taus"])
        self.stages = [
            Stage("sweep_exact", "samples", self._sweep_exact,
                  lambda s, out: p["trials"] * p["n_top"]),
            Stage("sweep_pf", "grid_pairs", self._sweep_pf,
                  lambda s, out: len(out) * s.problem.series.n_terms),
            Stage("rte_single", "samples", self._rte_single,
                  lambda s, out: len(p["taus"]) * p["rte_trials"] * p["rte_top"]),
        ]

    def setup(self):
        state = _problem(self.instance.matrix, self.p["kappa_tilde"], self.p["eps"])
        state.d_unit = state.problem.decomposition.rescaled()
        return state

    def _sweep_exact(self, state, i):
        return experiments.rmse_sweep(
            state.problem, {"exact": estimator.KernelConfig("exact")}, self.schedule,
            self.p["trials"], "gaussian", self.seeds[0])

    def _sweep_pf(self, state, i):
        return experiments.rmse_sweep(
            state.problem, self.pf_policies, self.schedule, self.p["trials"], "gaussian",
            self.seeds[1])

    def _rte_single(self, state, i):
        p = self.p
        return experiments.rte_single(
            state.d_unit, p["taus"], p["rte_r"], self.rte_schedule, p["rte_trials"],
            self.seeds[2], n_max=p["rte_nmax"])

    def kernel_errors(self, state):
        """|kernel mean - truth| per policy, each kernel mean computed by the
        benchmark over the whole grid (exact: eigendecomposition; pf: its own
        Strang products)."""
        series = state.problem.series
        _, tau = checks.grid_terms(series)
        terms = _unit_terms(state, self.instance)
        v = {"exact": self.instance.overlaps(tau)}
        v.update({name: strang_overlaps(terms, tau, r_of(tau)) for name, r_of in self.pf_r.items()})
        return {name: abs(checks.kernel_mean(series, vals) - self.truth) for name, vals in v.items()}

    def check(self, state, outs):
        """Each RMSE curve within the Monte Carlo bound of |kernel mean -
        truth| (the exact one also falling as n^-1/2); each RTE curve with
        the right alpha^r, within its bound, and not below the previous
        tau's."""
        p = self.p
        series = state.problem.series
        centers = self.kernel_errors(state)
        points = len(self.schedule)
        results = [_check_setup(state, self.instance, self.truth)]
        for out in outs[:2]:
            for name, curve in sorted(out.items()):
                def stat(n):
                    return checks.rmse_stat(series, n, p["trials"], points, DELTA)
                c = centers[name]
                ok, detail = checks.check_rmse_curve(
                    curve["n_s"], curve["rmse"], lambda n: max(0.0, c - stat(n)),
                    lambda n: c + stat(n), p["slope"] if name == "exact" else None)
                results.append((f"rmse_sweep.{name}", ok,
                                f"{detail}; |kernel mean - truth| {c:.3g}"))
        taus = sorted(outs[2])
        tops = [outs[2][t]["rmse"][-1] for t in taus]
        for i, t in enumerate(taus):
            curve = outs[2][t]
            ok_a, d_a = checks.check_alpha_r(curve["alpha_power_r"], t, p["rte_r"], p["rte_nmax"])
            alpha_r = float(rte_alpha(t / p["rte_r"], p["rte_nmax"])) ** p["rte_r"]
            ok_b, d_b = checks.check_rmse_curve(
                curve["n_s"], curve["rmse"], lambda n: 0.0,
                lambda n: checks.rte_rmse_bound(alpha_r, t, p["rte_r"], p["rte_nmax"], n,
                                                p["rte_trials"], len(self.rte_schedule), DELTA))
            ok_c = i == 0 or tops[i] >= tops[i - 1]
            d_c = "rmse >= previous tau" if ok_c else f"rmse {tops[i]:.3g} < {tops[i - 1]:.3g} at the previous tau"
            results.append((f"rte_single.tau={t:g}", ok_a and ok_b and ok_c,
                            f"{d_a}; {d_b}; {d_c}"))
        return results


# ---------------------------------------------------------------------------

class Series:
    """The `fourier` layer alone: a kappa = 1000 Table-1 build, evaluation of
    a kappa = 100 series at random points of its domain, and
    `rqls verify-series` at kappa = 10 (build, then 80 points)."""

    name = "series"
    setup_batch, setup_samples = 3, 9
    full = dict(build=(1000, 1e-2), evaluate=(100, 1e-3), points=6,
                verify=(10, 1e-2), verify_calls=6, verify_points=80)
    toy = dict(build=(10, 1e-2), evaluate=(10, 1e-3), points=3,
               verify=(10, 1e-2), verify_calls=2, verify_points=8)

    def __init__(self, seed: int, toy: bool = False):
        self.p = p = self.toy if toy else self.full
        self.points = uniform_domain_points(stream(seed, 0), p["evaluate"][0], p["points"])
        self.verify_points = [
            uniform_domain_points(stream(seed, 1, i), p["verify"][0], p["verify_points"])
            for i in range(p["verify_calls"])
        ]
        self.n_ops = 2 + len(self.points) + p["verify_calls"]
        self.stages = [
            Stage("build", "nodes", lambda s, i: _series(*p["build"]),
                  lambda s, series: series.grid.J),
            Stage("evaluate", "terms", lambda s, i: s.series.evaluate(self.points[i:i + 1]),
                  lambda s, vals: s.series.n_terms * len(vals), calls=len(self.points)),
            Stage("verify", "terms", self._verify,
                  lambda s, out: out[0].n_terms * len(out[1]), calls=p["verify_calls"]),
        ]

    def setup(self):
        return SimpleNamespace(series=_series(*self.p["evaluate"]))

    def _verify(self, state, i):
        series = _series(*self.p["verify"])
        return series, series.evaluate(self.verify_points[i])

    @staticmethod
    def _check_built(series, kappa, eps_f):
        """Table-1 size, Gauss-Legendre rule and z grid of a built series."""
        g = series.grid
        oks, details = zip(checks.check_table1(kappa, eps_f, g.J, g.K),
                           checks.check_gauss_legendre(g.gl_nodes, g.gl_weights),
                           checks.check_grid(series))
        return all(oks), "; ".join(details)

    def check(self, state, outs):
        built, values, verified = outs
        p = self.p
        results = [
            (f"build.kappa={p['build'][0]}", *self._check_built(built, *p["build"])),
            (f"setup.kappa={p['evaluate'][0]}", *self._check_built(state.series, *p["evaluate"])),
        ]
        budget = state.series.trunc.eps_T + state.series.eps_D
        for x, v in zip(self.points, values):
            results.append((f"evaluate.x={x:.6g}", *checks.check_inverse(x, v[0], budget)))
        for i, (series, vals) in enumerate(verified):
            ok, detail = self._check_built(series, *p["verify"])
            budget = series.trunc.eps_T + series.eps_D
            errs = np.abs(1.0 / self.verify_points[i] - vals)
            ok = ok and bool(np.all(errs <= budget))
            results.append((f"verify.call={i}", ok,
                            f"{detail}; max |1/x - F(x)| {errs.max():.3g} <= {budget:.3g}"))
        return results


def _series(kappa, eps_f):
    """The Table-1 series for (kappa, eps_F): lam = 1, eps_T = eps_D = eps_F / 2."""
    return fourier.build_series(float(kappa), 1.0, eps_f / 2, eps_f / 2)


WORKLOADS = {w.name: w for w in (Solve, Studies, Series)}
