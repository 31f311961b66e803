"""Monte Carlo estimator assembly, bias bounds, and sample-count requirements.

One sample draws a Fourier time, evolves under the chosen kernel, takes one
Hadamard shot for each of the real and imaginary parts, and forms
z_hat = prefactor * (re + i im).  The mean over samples estimates
lam^{-1} <phi| F(A/lam) |psi> ~ <phi| A^{-1} |psi>, with kernel bias
controlled by the bounds below and statistical error by Hoeffding.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .fourier import SQRT_2PI, FourierSeries
from .kernel_pf import strang_overlaps, trotter_number
from .kernel_rte import (
    RTEInfeasibleError,
    _frame_overlaps,
    choose_nmax,
    rte_bias_bound,
    segment_model,
)
from .pauli import _I_POWERS, PauliDecomposition
from .sampler import DRAW_BLOCK, TimeSampler, sample_rng
from .simulator import (
    EXACT_EVOLUTION_QUBIT_GUARD,
    StateVector,
    shots,
    spectrum,
)

DESK_SCALE_LIMIT = 1e15
PF_R_CAP = 10**9
# relative slack of the spectrum certificate: randmat puts an eigenvalue
# exactly on the edge 1/kappa, which eigh returns to within roundoff
CERTIFY_RTOL = 1e-9


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
        """<phi|A^{-1}|psi> = sum_i (phi^* v_i)(v_i^* psi) / (lam x_i), from
        the cached spectrum (x_i, v_i) of A/lam."""
        evals, w = _spectral_weights(self)
        return complex(np.sum(w / evals) / self.decomposition.lam)


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

    def r_for(self, tau):
        """r for a time tau: an int, or an int64 array elementwise when tau
        is an array."""
        t = np.asarray(tau, dtype=float)
        if self.kernel == "exact":
            r = np.ones(t.shape, dtype=np.int64)
        elif self.r_fixed > 0:
            r = np.full(t.shape, self.r_fixed, dtype=np.int64)
        elif self.r_quadratic > 0:
            r = np.maximum(1, np.ceil(self.r_quadratic * t * t)).astype(np.int64)
            if self.kernel == "rte":
                r = np.maximum(r, np.ceil(np.abs(t)).astype(np.int64))
        else:
            return trotter_number(self.f, tau, self.eps_pf)
        return int(r) if r.ndim == 0 else r


# ---------------------------------------------------------------------------
# records and reports

# slots, not frozen: a frozen dataclass sets each field through
# object.__setattr__, which costs several times the slotted stores on a
# record per sample
@dataclass(slots=True)
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
        return asdict(self)


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
# the chunked Monte Carlo estimator

def _spectral_weights(problem: Problem):
    """(x_i, (phi^* v_i)(v_i^* psi)) over the cached spectrum (x_i, v_i) of
    A/lam."""
    d = problem.unit_decomposition
    if d.n_qubits > EXACT_EVOLUTION_QUBIT_GUARD:
        raise ValueError(f"n_qubits={d.n_qubits} exceeds dense guard")
    evals, evecs = spectrum(d)
    w = (problem.phi.amplitudes.conj() @ evecs) * (
        evecs.conj().T @ problem.psi.amplitudes
    )
    return evals, w


def _exact_overlaps(problem: Problem, taus) -> np.ndarray:
    """<phi| e^{-i (A/lam) tau} |psi> for an array of taus, same shape."""
    evals, w = _spectral_weights(problem)
    return np.exp(-1j * np.multiply.outer(taus, evals)) @ w


def certify_spectrum(problem: Problem) -> bool | None:
    """Whether every eigenvalue of A/lam has 1/kappa_tilde <= |x| <= 1, the
    domain on which the series inverts x; None above the dense guard."""
    d = problem.unit_decomposition
    if d.n_qubits > EXACT_EVOLUTION_QUBIT_GUARD:
        return None
    mags = np.abs(spectrum(d)[0])
    kt = problem.series.kappa_tilde
    return bool(mags.min() * kt >= 1 - CERTIFY_RTOL and mags.max() <= 1 + CERTIFY_RTOL)


def _sample_overlaps(problem, config, taus, rs, at, rng):
    """(overlap, extra prefactor or None) of each sample of a chunk, sample
    i being at distinct grid pair at[i] of time taus[at[i]].

    exact and pf evaluate each pair once.  rte draws each pair's samples
    (in chunk order), pair by pair in the order of taus, and folds them
    together; the phase i^e and alpha^r of a sample go into its extra
    prefactor."""
    if config.kernel == "exact":
        return _exact_overlaps(problem, taus)[at], None
    d = problem.unit_decomposition
    psi, phi = problem.psi.amplitudes, problem.phi.amplitudes
    if config.kernel == "pf":
        return strang_overlaps(d, taus, rs, psi, phi)[at], None
    models = [segment_model(tau, r, config.n_max)
              for tau, r in zip(taus.tolist(), rs.tolist())]
    counts = np.bincount(at)
    alpha_r = np.array([model.alpha_power_r for model in models])
    e, raw = _frame_overlaps(d, zip(models, rs.tolist(), counts.tolist()), psi, phi, rng)
    # raw comes pair by pair, each pair's samples in chunk order
    v, extra = np.empty((2, len(at)), dtype=complex)
    by_pair = np.argsort(at, kind="stable")
    v[by_pair], extra[by_pair] = raw, _I_POWERS[e] * np.repeat(alpha_r, counts)
    return v, extra


def _blocks(sampler: TimeSampler, n_s: int, noise_mode: str, stream, overlaps):
    """The Monte Carlo loop of `run_solver` and `monte_carlo_mean`.

    Takes n_s samples in blocks of DRAW_BLOCK.  Block c draws from the
    generator stream(c), in this order: its j, then its k (one
    `TimeSampler.sample_batch` call), then whatever overlaps(j, k, rng)
    draws, then the shot noise (`simulator.shots`), real parts, then
    imaginary parts.
    overlaps returns (Re, Im) of each sample's overlap and one more value,
    which is passed on.  Yields per block (start, k, that value, shot_re,
    shot_im).
    """
    if n_s < 1:
        raise ValueError(f"n_s must be >= 1, got {n_s}")
    for c, start in enumerate(range(0, n_s, DRAW_BLOCK)):
        b = min(DRAW_BLOCK, n_s - start)
        rng = stream(c)
        j, k = sampler.sample_batch(rng, b)
        re, im, passed = overlaps(j, k, rng)
        re = shots(re, noise_mode, rng)
        yield start, k, passed, re, shots(im, noise_mode, rng)


def _running_sums(blocks, counts: np.ndarray, n_s: int, n_parts: int) -> np.ndarray:
    """Sums of the first n samples of one stream of n_s samples, for each n
    in counts: shape (n_parts, len(counts)).

    blocks yields the stream in order, each block as n_parts float arrays
    (the real and imaginary parts of complex samples, say).  Each part is
    one sequential running sum over the whole stream, carried from block
    to block and taken in place in the block's arrays.
    """
    if counts.max() > n_s or counts.min() < 1:
        raise ValueError("schedule entries must lie in [1, n_s]")
    sums = np.empty((n_parts, len(counts)))
    carry = np.zeros(n_parts)
    start = 0
    for parts in blocks:
        end = start + len(parts[0])
        inside = (counts > start) & (counts <= end)
        at = counts[inside] - start - 1
        for i, part in enumerate(parts):
            part[0] += carry[i]
            np.cumsum(part, out=part)
            carry[i] = part[-1]
            sums[i, inside] = part[at]
        start = end
    return sums


def run_solver(
    problem: Problem,
    config: KernelConfig,
    n_s: int,
    noise_mode: str,
    master_seed: int,
    keep_records: bool = False,
) -> SolveReport:
    """Chunked Monte Carlo estimate (any kernel, any noise mode).

    Samples come in the chunks of `_blocks`; chunk c draws from the stream
    keyed by (master_seed, c), so a chunk's samples do not depend on n_s.
    Each chunk consumes its randomness in this order: its j, then its k;
    for rte, the kernel draws, one distinct grid pair at a time in
    ascending flat index j K + k; then the shot noise, real parts, then
    imaginary parts.  Overlaps are computed once per distinct pair of the
    chunk, in one batched call (exact, pf); rte folds the samples of all
    the chunk's pairs together, sorted by r, in groups of consecutive pairs
    whose segment count (sum of r) is bounded by
    `kernel_rte.FOLD_GROUP_ENTRIES`, with the same results as one fold per
    pair.  truth and abs_error come from the dense spectrum up to 10 qubits.

    diagnostics: "kernel_cache_size", the number of distinct grid pairs
    evaluated (summed over chunks); "certified", whether the spectrum of
    A/lam lies in the series domain (None above the dense guard); and with
    keep_records, "records", one SampleRecord per sample.
    """
    t0 = time.perf_counter()
    sampler = TimeSampler(problem.series)
    grid = problem.series.grid

    def chunk_overlaps(j, k, rng):
        pairs, at = np.unique(j * grid.K + k, return_inverse=True)
        taus = grid.y_nodes[pairs // grid.K] * grid.z_nodes[pairs % grid.K]
        rs = config.r_for(taus)
        v, extra = _sample_overlaps(problem, config, taus, rs, at, rng)
        return v.real, v.imag, (at, taus, rs, extra)

    sums_re, sums_im, records = [], [], []
    n_pairs = 0
    for start, k, (at, taus, rs, extra), shot_re, shot_im in _blocks(
        sampler, n_s, noise_mode, lambda c: sample_rng(master_seed, c), chunk_overlaps
    ):
        n_pairs += len(taus)
        prefactor = sampler.weight * (1j * np.sign(grid.z_nodes[k]))
        if extra is not None:
            prefactor *= extra
        z = prefactor * (shot_re + 1j * shot_im)
        sums_re.append(math.fsum(z.real.tolist()))
        sums_im.append(math.fsum(z.imag.tolist()))
        if keep_records:
            records.extend(map(
                SampleRecord, range(start, start + len(k)), taus[at].tolist(),
                itertools.repeat(config.kernel), rs[at].tolist(),
                prefactor.tolist(), shot_re.tolist(), shot_im.tolist(),
            ))
    estimate = complex(math.fsum(sums_re) / n_s, math.fsum(sums_im) / n_s)
    truth = abs_error = None
    if problem.decomposition.n_qubits <= EXACT_EVOLUTION_QUBIT_GUARD:
        truth = problem.truth()
        abs_error = abs(estimate - truth)
    diagnostics = {"kernel_cache_size": n_pairs,
                   "certified": certify_spectrum(problem)}
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
    t = np.multiply.outer(
        problem.series.grid.y_nodes, problem.series.grid.z_nodes
    )
    return _exact_overlaps(problem, t)


def overlap_table_pf(problem: Problem, config: KernelConfig) -> np.ndarray:
    """Product-formula overlap for every grid pair under config's r policy."""
    if config.kernel != "pf":
        raise ValueError("config must select the pf kernel")
    grid = problem.series.grid
    taus = np.multiply.outer(grid.y_nodes, grid.z_nodes).ravel()
    values = strang_overlaps(problem.unit_decomposition, taus, config.r_for(taus),
                             problem.psi.amplitudes, problem.phi.amplitudes)
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

    With `schedule` (sample counts <= n_s), returns the running mean at
    each count from a single stream of n_s samples; otherwise returns the
    single mean at n_s.  Matches `run_solver` in distribution; within one
    block the two consume randomness alike, but run_solver starts each
    chunk on its own keyed stream.

    Runs `_blocks` with rng as the stream of every block and the table as
    the overlap source: each block draws its j, then its k, then its shot
    noise (real part, then imaginary part).  With n_s <= DRAW_BLOCK this is
    the unblocked stream.
    """
    sampler = TimeSampler(series)
    big_k = series.grid.K
    table_re = np.ascontiguousarray(overlap_table.real).ravel()
    table_im = np.ascontiguousarray(overlap_table.imag).ravel()

    def table_overlaps(j, k, _):
        flat = j * big_k + k
        return table_re[flat], table_im[flat], None

    # a sample is weight * i sign(z_k) * (re + i im) = w_k (-im + i re)
    signed_weight = sampler.weight * np.sign(series.grid.z_nodes)

    def samples():
        for _, k, _, re, im in _blocks(sampler, n_s, noise_mode, lambda c: rng,
                                       table_overlaps):
            w = signed_weight[k]
            yield np.negative(im * w, out=im), np.multiply(re, w, out=re)

    if schedule is not None:
        counts = np.asarray(schedule, dtype=np.int64)
        sums = _running_sums(samples(), counts, n_s, 2)
        return (sums[0] + 1j * sums[1]) / counts
    total = np.complex128(0)
    for z_re, z_im in samples():
        z = np.empty(len(z_re), dtype=complex)
        z.real, z.imag = z_re, z_im
        total += z.sum()
    return np.array(total / n_s)


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
