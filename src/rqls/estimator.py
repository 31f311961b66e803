"""Monte Carlo estimator assembly, bias bounds, and sample-count requirements.

One sample draws a Fourier time, evolves under the chosen kernel, takes one
Hadamard shot for each of the real and imaginary parts, and forms
z_hat = prefactor * (re + i im).  The mean over samples estimates
lam^{-1} <phi| F(A/lam) |psi> ~ <phi| A^{-1} |psi>, with kernel bias
controlled by the bounds below and statistical error by Hoeffding.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .fourier import SQRT_2PI, FourierSeries
from .kernel_pf import build_pf, strang_unitaries, trotter_number
from .kernel_rte import (
    RTEInfeasibleError,
    choose_nmax,
    rte_bias_bound,
    sample_rte_unitary,
    segment_model,
)
from .pauli import PauliDecomposition, materialize
from .sampler import TimeSampler, sample_rng
from .simulator import StateVector, exact_evolution, hadamard_shot, spectrum

DESK_SCALE_LIMIT = 1e15
PF_R_CAP = 10**9


# ---------------------------------------------------------------------------
# problem and kernel configuration

@dataclass(frozen=True)
class Problem:
    """A linear system instance with its certified Fourier series."""

    decomposition: PauliDecomposition
    psi: StateVector
    phi: StateVector
    series: FourierSeries

    def __post_init__(self):
        if abs(self.decomposition.lam - self.series.lam) > 1e-9:
            raise ValueError("series was built with a different Pauli weight")

    @property
    def unit_decomposition(self) -> PauliDecomposition:
        return self.decomposition.rescaled()

    def truth(self) -> complex:
        """<phi|A^{-1}|psi> by dense solve."""
        a = materialize(self.decomposition)
        x = np.linalg.solve(a, self.psi.amplitudes)
        return complex(self.phi.amplitudes.conj() @ x)


@dataclass(frozen=True)
class KernelConfig:
    """Kernel choice plus its r policy.

    kernel: "exact", "pf", or "rte".  Exactly one r policy applies: a fixed
    r, the quadratic heuristic r = ceil(c tau^2), or (PF only) the
    certified r from the commutator constant f and a per-sample error
    budget eps_pf.  RTE additionally needs the truncation order n_max; the
    quadratic policy for RTE is floored at ceil(|tau|) so each segment
    stays within a unit of time.
    """

    kernel: str
    r_fixed: int = 0
    r_quadratic: float = 0.0
    f: float = 0.0
    eps_pf: float = 0.0
    n_max: int = 0

    def __post_init__(self):
        if self.kernel not in ("exact", "pf", "rte"):
            raise ValueError(f"unknown kernel {self.kernel!r}")
        n_policies = sum(
            [self.r_fixed > 0, self.r_quadratic > 0, self.eps_pf > 0]
        )
        if self.kernel != "exact" and n_policies != 1:
            raise ValueError("exactly one r policy must be set")
        if self.eps_pf > 0 and self.kernel != "pf":
            raise ValueError("certified r applies to the pf kernel only")
        if self.kernel == "rte" and self.n_max < 1:
            raise ValueError("rte kernel needs n_max >= 1")

    def r_for(self, tau: float) -> int:
        if self.kernel == "exact":
            return 1
        if self.r_fixed > 0:
            return self.r_fixed
        if self.r_quadratic > 0:
            r = max(1, math.ceil(self.r_quadratic * tau * tau))
            if self.kernel == "rte":
                r = max(r, math.ceil(abs(tau)))
            return r
        return trotter_number(self.f, tau, self.eps_pf)


# ---------------------------------------------------------------------------
# records and reports

@dataclass(frozen=True)
class SampleRecord:
    sample_index: int
    tau: float
    kernel: str
    r: int
    prefactor: complex
    shot_re: float
    shot_im: float

    @property
    def z_hat(self) -> complex:
        return self.prefactor * complex(self.shot_re, self.shot_im)


@dataclass(frozen=True)
class ResourceEstimate:
    kernel: str
    n_s: int | None  # None when beyond desk scale or infeasible
    log10_n_s: float | None
    n_cp_per_sample: int
    r: int
    n_max: int | None
    bias_bound: float
    infeasible: bool
    inputs: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "kernel": self.kernel,
            "n_s": self.n_s,
            "log10_n_s": self.log10_n_s,
            "n_cp_per_sample": self.n_cp_per_sample,
            "r": self.r,
            "n_max": self.n_max,
            "bias_bound": self.bias_bound,
            "infeasible": self.infeasible,
            "inputs": self.inputs,
        }


@dataclass(frozen=True)
class SolveReport:
    estimate: complex
    n_samples: int
    master_seed: int
    kernel: str
    noise_mode: str
    truth: complex | None
    abs_error: float | None
    wall_time: float
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "estimate": [self.estimate.real, self.estimate.imag],
            "n_samples": self.n_samples,
            "master_seed": self.master_seed,
            "kernel": self.kernel,
            "noise_mode": self.noise_mode,
            "truth": None
            if self.truth is None
            else [self.truth.real, self.truth.imag],
            "abs_error": self.abs_error,
            "wall_time": self.wall_time,
            "diagnostics": self.diagnostics,
        }


# ---------------------------------------------------------------------------
# bias bounds and resource requirements

def pf_bias_bound(
    n_y: float, n_z: float, lam: float, f: float, t_max: float, r: int
) -> float:
    """Estimator-mean offset bound for the product-formula kernel."""
    if min(n_y, n_z, lam, f, t_max) < 0 or r < 1:
        raise ValueError("arguments must be nonnegative with r >= 1")
    return n_y * n_z * f * t_max**3 / (lam * r * r)


def _log10_or_value(log_n: float):
    """(n_s, log10_n_s, infeasible) from the natural log of a real count."""
    log10_n = log_n / math.log(10)
    if log10_n > math.log10(DESK_SCALE_LIMIT):
        return None, log10_n, True
    return math.ceil(math.exp(log_n)), log10_n, False


def pf_resources(
    eps: float,
    delta: float,
    n_y: float,
    n_z: float,
    lam: float,
    f: float,
    t_max: float,
    big_l: int,
    r_cap: int = PF_R_CAP,
) -> ResourceEstimate:
    """Certified (r, N_S, N_CP) for the product-formula kernel."""
    if not 0 < delta < 1:
        raise ValueError("need 0 < delta < 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    inputs = {
        "eps": eps, "delta": delta, "n_y": n_y, "n_z": n_z, "lam": lam,
        "f": f, "t_max": t_max, "L": big_l,
    }
    r_real = math.sqrt(2 * n_y * n_z * f * t_max**3 / (lam * eps))
    r = max(1, int(math.floor(r_real)) + 1)  # smallest integer exceeding
    if r > r_cap:
        bias = pf_bias_bound(n_y, n_z, lam, f, t_max, r_cap)
        return ResourceEstimate(
            "pf", None, None, 2 * r_cap * big_l, r_cap, None, bias, True, inputs
        )
    bias = pf_bias_bound(n_y, n_z, lam, f, t_max, r)
    margin = eps / 2 - bias
    log_ns = (
        math.log(math.log(2 / delta) * 16)
        + 2 * math.log(n_y * n_z / lam)
        - 2 * math.log(margin)
    )
    n_s, log10_ns, infeasible = _log10_or_value(log_ns)
    if not infeasible:
        n_s = math.ceil(2 + math.exp(log_ns))
        log10_ns = math.log10(n_s)
    return ResourceEstimate(
        "pf", n_s, log10_ns, 2 * r * big_l, r, None, bias, infeasible, inputs
    )


def rte_resources(
    eps: float,
    delta: float,
    n_y: float,
    n_z: float,
    lam: float,
    t_max: float,
    t_min_abs: float,
    r: int,
) -> ResourceEstimate:
    """(n_max, N_S, N_CP) for the truncated-Taylor kernel at segment count r.

    N_S carries the variance amplification (e^{t_max^2/r})^2, so it is
    evaluated in log-space and reported as log10 with an infeasible flag
    whenever it exceeds desk scale.  When no truncation order can meet the
    bias budget the report is flagged infeasible and log10_n_s holds the
    log-scale prefactor of the sample count.
    """
    if not 0 < delta < 1:
        raise ValueError("need 0 < delta < 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if r < t_max:
        raise ValueError("need r >= t_max")
    inputs = {
        "eps": eps, "delta": delta, "n_y": n_y, "n_z": n_z, "lam": lam,
        "t_max": t_max, "t_min_abs": t_min_abs, "r": r,
    }
    log_amp = t_max**2 / r + math.log(n_y * n_z / lam)
    log_prefactor = math.log(math.log(2 / delta) * 16) + 2 * log_amp
    try:
        n_max = choose_nmax(t_max, t_min_abs, r, n_y, n_z, eps)
    except RTEInfeasibleError:
        return ResourceEstimate(
            "rte", None, log_prefactor / math.log(10), r, r, None,
            math.inf, True, inputs,
        )
    bias = rte_bias_bound(t_max, t_min_abs, r, n_y, n_z, n_max)
    log_ns = log_prefactor - 2 * math.log(eps / 2 - bias)
    n_s, log10_ns, infeasible = _log10_or_value(log_ns)
    if not infeasible:
        n_s = math.ceil(1 + math.exp(log_ns))
        log10_ns = math.log10(n_s)
    return ResourceEstimate(
        "rte", n_s, log10_ns, r, r, n_max, bias, infeasible, inputs
    )


# ---------------------------------------------------------------------------
# the Monte Carlo loop

def _kernel_unitary(problem, config, tau, r, rng):
    """(dense unitary, extra scalar prefactor) for one sample."""
    d = problem.unit_decomposition
    if config.kernel == "exact":
        return exact_evolution(d, tau), 1.0 + 0j
    if config.kernel == "pf":
        return build_pf(d, tau, r).dense_unitary, 1.0 + 0j
    model = segment_model(tau, r, config.n_max)
    u = sample_rte_unitary(d, model, r, rng)
    return u.dense_unitary, u.phase * model.alpha_power_r


def run_solver(
    problem: Problem,
    config: KernelConfig,
    n_s: int,
    noise_mode: str,
    master_seed: int,
    keep_records: bool = False,
    compute_truth: bool = True,
) -> SolveReport:
    """Reference per-sample Monte Carlo loop (any kernel, any noise mode).

    Deterministic kernels (exact, pf) are cached per grid index pair since
    the unitary depends on the sample only through its Fourier time.
    """
    t0 = time.perf_counter()
    sampler = TimeSampler(problem.series)
    cache = {}
    records = []
    re_parts, im_parts = [], []
    for i in range(n_s):
        rng = sample_rng(master_seed, i)
        s = sampler.sample(rng)
        r = config.r_for(s.tau)
        if config.kernel in ("exact", "pf"):
            key = (s.j, s.k)
            if key not in cache:
                cache[key] = _kernel_unitary(problem, config, s.tau, r, rng)
            unitary, extra = cache[key]
        else:
            unitary, extra = _kernel_unitary(problem, config, s.tau, r, rng)
        shot_re = hadamard_shot(
            problem.phi, unitary, problem.psi, "real", noise_mode, rng
        ).value
        shot_im = hadamard_shot(
            problem.phi, unitary, problem.psi, "imaginary", noise_mode, rng
        ).value
        prefactor = s.weight * s.omega * extra
        rec = SampleRecord(i, s.tau, config.kernel, r, prefactor, shot_re, shot_im)
        z = rec.z_hat
        re_parts.append(z.real)
        im_parts.append(z.imag)
        if keep_records:
            records.append(rec)
    estimate = complex(math.fsum(re_parts) / n_s, math.fsum(im_parts) / n_s)
    truth = abs_error = None
    if compute_truth and problem.decomposition.n_qubits <= 10:
        truth = problem.truth()
        abs_error = abs(estimate - truth)
    diagnostics = {"kernel_cache_size": len(cache)}
    if keep_records:
        diagnostics["records"] = records
    return SolveReport(
        estimate, n_s, master_seed, config.kernel, noise_mode,
        truth, abs_error, time.perf_counter() - t0, diagnostics,
    )


# ---------------------------------------------------------------------------
# vectorized paths for experiment-scale sample counts

def overlap_table_exact(problem: Problem) -> np.ndarray:
    """<phi| e^{-i (A/lam) t_jk} |psi> for every grid pair, shape (J, K)."""
    evals, evecs = spectrum(problem.unit_decomposition)
    w = (problem.phi.amplitudes.conj() @ evecs) * (
        evecs.conj().T @ problem.psi.amplitudes
    )
    t = np.multiply.outer(
        problem.series.grid.y_nodes, problem.series.grid.z_nodes
    )
    return np.exp(-1j * np.multiply.outer(t, evals)) @ w


def overlap_table_pf(problem: Problem, config: KernelConfig) -> np.ndarray:
    """Product-formula overlap for every grid pair under config's r policy."""
    if config.kernel != "pf":
        raise ValueError("config must select the pf kernel")
    grid = problem.series.grid
    taus = np.multiply.outer(grid.y_nodes, grid.z_nodes).ravel()
    rs = [config.r_for(tau) for tau in taus.tolist()]
    unitaries = strang_unitaries(problem.unit_decomposition, taus, rs)
    values = (unitaries @ problem.psi.amplitudes) @ problem.phi.amplitudes.conj()
    return values.reshape(grid.J, grid.K)


def monte_carlo_mean(
    series: FourierSeries,
    overlap_table: np.ndarray,
    n_s: int,
    noise_mode: str,
    rng: np.random.Generator,
    schedule=None,
) -> np.ndarray:
    """Vectorized estimator mean for a deterministic-kernel overlap table.

    With `schedule` (sorted sample counts <= n_s), returns the running mean
    at each count from a single stream of n_s samples; otherwise returns
    the single mean at n_s.  Matches the per-sample loop in distribution
    (not draw-for-draw: the batch path consumes randomness differently).
    """
    sampler = TimeSampler(series)
    j, k, _, omega = sampler.sample_batch(rng, n_s)
    v = overlap_table[j, k]
    if noise_mode == "bernoulli":
        re = np.where(rng.random(n_s) < (1 + v.real) / 2, 1.0, -1.0)
        im = np.where(rng.random(n_s) < (1 + v.imag) / 2, 1.0, -1.0)
    elif noise_mode == "gaussian":
        re = v.real + rng.standard_normal(n_s)
        im = v.imag + rng.standard_normal(n_s)
    elif noise_mode == "exact":
        re, im = v.real, v.imag
    else:
        raise ValueError(f"unknown noise mode {noise_mode!r}")
    z = sampler.weight * omega * (re + 1j * im)
    if schedule is None:
        return np.array(z.mean())
    cs = np.cumsum(z)
    counts = np.asarray(schedule, dtype=np.int64)
    if counts.max() > n_s or counts.min() < 1:
        raise ValueError("schedule entries must lie in [1, n_s]")
    return cs[counts - 1] / counts


def exhaustive_mean(problem: Problem, config: KernelConfig) -> complex:
    """Exact estimator mean: the series applied through the kernel.

    Sums alpha_jk <phi| U_kernel(t_jk) |psi> / lam over every grid pair;
    with the exact kernel this is lam^{-1} <phi| F(A/lam) |psi>, the
    zero-noise, infinite-sample limit of the Monte Carlo estimator.
    """
    series = problem.series
    grid = series.grid
    if config.kernel == "rte":
        raise ValueError("rte kernel is stochastic; use rte_finite_lcu directly")
    if config.kernel == "exact":
        table = overlap_table_exact(problem)
    else:
        table = overlap_table_pf(problem, config)
    amp = np.multiply.outer(grid.wy_weights / SQRT_2PI, series.z_amplitudes())
    return complex(1j * (amp * table).sum() / series.lam)
