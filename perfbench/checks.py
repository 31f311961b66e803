"""Output checks: bounds the method must meet, computed apart from the program.

Each check returns (ok, detail).  A check is exact (against a value the
benchmark computes itself: the truth by dense solve, overlaps by its own
eigendecomposition or Strang products) or certified (series budget, kernel
bias, Hoeffding or DKW at a small delta), so a correct program fails one
with probability at most delta per check.
"""

from __future__ import annotations

import math

import numpy as np

from instances import pauli_matrix, rte_alpha, rte_segment_remainder

SQRT_2PI = math.sqrt(2 * math.pi)

# The paper's Table 1 grid sizes (J, K) per (kappa, eps_F).
TABLE1 = {
    (10, 1e-2): (154, 62),
    (10, 1e-3): (194, 78),
    (10, 1e-4): (232, 94),
    (10, 1e-5): (271, 110),
    (100, 1e-2): (1709, 708),
    (100, 1e-3): (2065, 856),
    (100, 1e-4): (2421, 1004),
    (100, 1e-5): (2777, 1152),
    (1000, 1e-2): (20388, 8478),
    (1000, 1e-3): (23915, 9945),
    (1000, 1e-4): (27442, 11413),
    (1000, 1e-5): (30969, 12880),
}


def hoeffding(range_half: float, n: int, delta: float) -> float:
    """Half-width t with P(|mean - E| > t) <= delta for n iid draws in
    [-range_half, range_half]."""
    return range_half * math.sqrt(2 * math.log(2 / delta) / n)


# ---------------------------------------------------------------------------
# the series grid: coefficients, kernel means and bias bounds

def grid_terms(series):
    """(signed amplitude a_jk, tau_jk), flattened, of a built series:
    a_jk = w_j / sqrt(2 pi) * dz z_k exp(-z_k^2/2) and tau_jk = y_j z_k, so
    the series applied through a kernel with overlaps v_jk is
    (i / lam) sum a_jk v_jk, and |alpha_jk| = |a_jk|."""
    g = series.grid
    amp_z = g.delta_z * g.z_nodes * np.exp(-g.z_nodes ** 2 / 2)
    amp = np.multiply.outer(g.wy_weights / SQRT_2PI, amp_z).ravel()
    tau = np.multiply.outer(g.y_nodes, g.z_nodes).ravel()
    return amp, tau


def kernel_mean(series, v: np.ndarray) -> complex:
    """The estimator's exact mean for grid overlaps v (flattened like
    grid_terms): the zero-noise, infinite-sample limit."""
    amp, _ = grid_terms(series)
    return complex(1j * (amp @ v) / series.lam)


def quadratic_r(tau: np.ndarray, c: float, rte: bool) -> np.ndarray:
    """The quadratic r policy: max(1, ceil(c tau^2)), floored at ceil|tau|
    for the RTE kernel."""
    r = np.maximum(1, np.ceil(c * tau * tau))
    if rte:
        r = np.maximum(r, np.ceil(np.abs(tau)))
    return r.astype(np.int64)


def pf_bias(series, f: float, r: np.ndarray) -> float:
    """sum |alpha| min(2, f |tau|^3 / r^2) / lam: the Strang error bound
    f tau^3 / r^2 (capped by 2 = the largest distance of two unitaries)
    weighted by the series coefficients."""
    amp, tau = grid_terms(series)
    err = np.minimum(2.0, f * np.abs(tau) ** 3 / r.astype(float) ** 2)
    return float(np.abs(amp) @ err / series.lam)


def rte_bias(series, r: np.ndarray, n_max: int) -> float:
    """sum |alpha| ((1 + d)^r - 1) / lam with d the Taylor remainder of one
    segment: || S^r - U^r || <= (1 + ||S - U||)^r - 1."""
    amp, tau = grid_terms(series)
    d = rte_segment_remainder(tau / r, n_max)
    return float(np.abs(amp) @ np.expm1(r * np.log1p(d)) / series.lam)


def rte_max_alpha_r(series, r: np.ndarray, n_max: int) -> float:
    """Largest alpha^r any grid time can draw under the r policy."""
    _, tau = grid_terms(series)
    return float(np.exp(np.max(r * np.log(rte_alpha(tau / r, n_max)))))


# ---------------------------------------------------------------------------
# solve

def check_decomposition(d, matrix: np.ndarray, lam: float):
    """sum c_l P_l, with each P_l built by Kronecker products, is the matrix,
    and lam is the benchmark's own Pauli weight."""
    rebuilt = sum(c * pauli_matrix(p.to_text()) for c, p in d.terms)
    err = float(np.abs(rebuilt - matrix).max())
    lam_err = abs(d.lam / lam - 1)
    return (err <= 1e-12 and lam_err <= 1e-12,
            f"max |sum c P - A| {err:.2g}, lam rel err {lam_err:.2g}, L = {d.L}")


def check_series_mean(series, v_exact: np.ndarray, truth: complex):
    """The series applied exactly (overlaps from the benchmark's own
    eigendecomposition) is within (eps_T + eps_D)/lam of <0|A^-1|0>."""
    budget = (series.trunc.eps_T + series.eps_D) / series.lam
    err = abs(kernel_mean(series, v_exact) - truth)
    return err <= budget, f"|F(A) - A^-1| {err:.3g} <= {budget:.3g}"


def solve_bound(series, n_s: int, bias: float, alpha_r: float, delta: float) -> float:
    """Certified distance of a Bernoulli-shot estimate from <phi|A^-1|psi>:
    series budget (eps_T + eps_D) / lam, the kernel bias, and Hoeffding on
    the real and imaginary parts (union over the two).  A sample is
    i sign(tau) N_y N_z alpha^r / lam times a power of i times
    (shot_re + i shot_im) with shots +-1, so each part lies in [-M, M],
    M = N_y N_z alpha^r / lam."""
    eps = series.trunc.eps_T + series.eps_D
    m = series.N_y * series.N_z * alpha_r / series.lam
    return eps / series.lam + bias + math.sqrt(2) * hoeffding(m, n_s, delta / 2)


def check_estimate(estimate: complex, truth: complex, bound: float):
    err = abs(estimate - truth)
    return err <= bound, f"|err| {err:.4g}, bound {bound:.4g} ({bound / abs(truth):.2f} |truth|)"


def check_records(rep, series, r_policy, alpha_r=None, delta=1e-9):
    """What run_solver's per-sample records must satisfy, exactly or at delta:

    - the estimate is the mean of the records' z_hat;
    - every tau is a grid time y_j z_k, and r is the policy's r(tau);
    - every shot is +-1 (Bernoulli);
    - the prefactor is i sign(tau) N_y N_z / lam (exact, pf), or that times
      alpha(tau/r)^r and a power of i (rte; alpha_r(tau, r) gives alpha^r);
    - the taus follow the |alpha_jk| distribution: the largest CDF gap is
      within the DKW bound sqrt(ln(2/delta) / 2n).
    """
    recs = rep.diagnostics["records"]
    n = len(recs)
    tau = np.array([rec.tau for rec in recs])
    r = np.array([rec.r for rec in recs])
    pre = np.array([rec.prefactor for rec in recs])
    shots = np.array([(rec.shot_re, rec.shot_im) for rec in recs])
    w = series.N_y * series.N_z / series.lam
    problems = []
    z = pre * (shots[:, 0] + 1j * shots[:, 1])
    mean = complex(math.fsum(z.real) / n, math.fsum(z.imag) / n)
    if n != rep.n_samples or abs(rep.estimate - mean) > 1e-12 * w:
        problems.append(f"estimate {rep.estimate:.6g} != mean of {n} records {mean:.6g}")
    amp, grid_tau = grid_terms(series)
    order = np.argsort(grid_tau)
    atoms, probs = grid_tau[order], np.abs(amp[order])
    if not np.all(np.isin(tau, atoms)):
        problems.append("tau off the grid")
    if not np.array_equal(r, r_policy(tau)):
        problems.append("r != policy r(tau)")
    if not np.all(np.abs(shots) == 1):
        problems.append("shot not +-1")
    unit = pre / (1j * np.sign(tau) * w)
    if alpha_r is not None:
        unit = unit / alpha_r(tau, r)
        unit = unit * np.exp(-0.5j * np.pi * np.round(np.angle(unit) / (np.pi / 2)))
    worst = float(np.abs(unit - 1).max())
    if worst > 1e-9:
        problems.append(f"prefactor rel err {worst:.2g}")
    cdf = np.cumsum(probs) / probs.sum()
    gap = float(np.abs(np.searchsorted(np.sort(tau), atoms, side="right") / n - cdf).max())
    dkw = math.sqrt(math.log(2 / delta) / (2 * n))
    if gap > dkw:
        problems.append(f"tau CDF gap {gap:.3g} > {dkw:.3g}")
    return not problems, "; ".join(problems) or (
        f"{n} records consistent, tau CDF gap {gap:.3g} <= {dkw:.3g}")


def check_shots(rep, v: np.ndarray, delta: float):
    """Each Bernoulli shot has mean Re v or Im v, with v the sample's overlap
    computed by the benchmark.  S = sum v (shot - v) over both parts has
    mean 0 and terms in ranges of width 2|v|, so |S| <= sqrt(2 ln(2/delta)
    sum v^2) (Hoeffding); shots of the wrong sign move S by -2 sum v^2."""
    recs = rep.diagnostics["records"]
    shots = np.array([(rec.shot_re, rec.shot_im) for rec in recs])
    parts = np.stack([v.real, v.imag], axis=1)
    s = float(np.sum(parts * (shots - parts)))
    ss = float(np.sum(parts ** 2))
    width = math.sqrt(2 * math.log(2 / delta) * ss)
    return abs(s) <= width, f"shot statistic {s:.4g}, bound {width:.4g} (wrong sign: {-2 * ss:.4g})"


# ---------------------------------------------------------------------------
# studies

def rmse_stat(series, n_s: int, trials: int, points: int, delta: float) -> float:
    """Bound on |running mean - kernel mean| for Gaussian-shot means of n_s
    samples, every trial and schedule point at once.

    Each part of a sample is w (v + g) with |v| <= 1, g standard normal and
    w = N_y N_z / lam: Hoeffding for the bounded part and the Gaussian tail
    for the normal part, each at delta over (4 parts x trials x points).
    Since RMSE is a root mean square over trials, Minkowski's inequality
    puts it within this bound of |kernel mean - truth|."""
    w = series.N_y * series.N_z / series.lam
    d = delta / (4 * trials * points)
    per_part = hoeffding(w, n_s, d) + w * math.sqrt(2 * math.log(2 / d) / n_s)
    return math.sqrt(2) * per_part


def check_rmse_curve(n_s, rmse, lo_at, hi_at, slope_range=None):
    """lo_at(n) <= rmse <= hi_at(n) at every point; optionally the log-log
    slope in range."""
    n_s = np.asarray(n_s, dtype=float)
    rmse = np.asarray(rmse, dtype=float)
    lo = np.array([lo_at(int(n)) for n in n_s])
    hi = np.array([hi_at(int(n)) for n in n_s])
    ok = bool(np.all(np.isfinite(rmse)) and np.all(lo <= rmse) and np.all(rmse <= hi))
    detail = f"worst rmse/upper {float(np.max(rmse / hi)):.3g}"
    if np.any(lo > 0):
        detail += f", worst rmse/lower {float(np.min(rmse[lo > 0] / lo[lo > 0])):.3g}"
    if slope_range is not None:
        slope = float(np.polyfit(np.log(n_s), np.log(rmse), 1)[0])
        ok = ok and slope_range[0] <= slope <= slope_range[1]
        detail += f", slope {slope:.3f} in {slope_range}"
    return ok, detail


def check_alpha_r(reported: float, tau: float, r: int, n_max: int):
    expected = float(rte_alpha(tau / r, n_max)) ** r
    rel = abs(reported / expected - 1)
    return rel <= 1e-12, f"alpha^r {reported:.6g} vs {expected:.6g} (rel {rel:.2g})"


def rte_rmse_bound(alpha_r: float, tau: float, r: int, n_max: int, n_s: int,
                   trials: int, points: int, delta: float) -> float:
    """alpha^r / sqrt(N) scaled by the Hoeffding factor at delta over all
    trials and points, plus the truncation bias of the r-segment product."""
    d = rte_segment_remainder(np.array([tau / r]), n_max)[0]
    bias = math.expm1(r * math.log1p(d))
    return hoeffding(alpha_r, n_s, delta / (trials * points)) + bias


# ---------------------------------------------------------------------------
# series

def check_table1(kappa: int, eps_f: float, j: int, k: int):
    expected = TABLE1[(kappa, eps_f)]
    return (j, k) == expected, f"(J, K) = {(j, k)}, Table 1 {expected}"


N_FREQ = 48  # frequencies k checked per Gauss-Legendre rule


def check_gauss_legendre(nodes: np.ndarray, weights: np.ndarray):
    """Positive weights summing to 2, ascending symmetric nodes, and exact
    integration of cos(kx) on [-1, 1] for sampled k up to J (and k = J)."""
    j = len(nodes)
    problems = []
    if not np.all(weights > 0):
        problems.append("nonpositive weight")
    if abs(math.fsum(weights) - 2) > 1e-12:
        problems.append(f"sum w - 2 = {math.fsum(weights) - 2:.3g}")
    if not np.all(np.diff(nodes) > 0):
        problems.append("nodes not ascending")
    if np.abs(nodes + nodes[::-1]).max() > 1e-15:
        problems.append("nodes not symmetric")
    ks = np.unique(np.linspace(1, j, min(N_FREQ, j)).astype(int))
    worst = max(abs(float(weights @ np.cos(k * nodes)) - 2 * math.sin(k) / k) for k in ks)
    if worst > 1e-12:
        problems.append(f"cos(kx) error {worst:.3g}")
    return not problems, "; ".join(problems) or f"rule ok (cos error {worst:.2g})"


def check_grid(series):
    """z grid ends at +-z_max with spacing 2 z_max/(K-1); N_y = y_max/sqrt(2pi)."""
    g = series.grid
    z_max = series.trunc.z_max
    problems = []
    if np.abs(g.z_nodes[[0, -1]] - [-z_max, z_max]).max() > 1e-12 * z_max:
        problems.append(f"z ends {g.z_nodes[[0, -1]].tolist()} != +-{z_max}")
    if abs(g.delta_z / (2 * z_max / (g.K - 1)) - 1) > 1e-14:
        problems.append(f"delta_z {g.delta_z} != 2 z_max/(K-1)")
    if len(g.z_nodes) != g.K or len(g.y_nodes) != g.J:
        problems.append("grid length mismatch")
    n_y = series.trunc.y_max / SQRT_2PI
    if abs(series.N_y / n_y - 1) > 1e-10:
        problems.append(f"N_y {series.N_y} != y_max/sqrt(2pi) {n_y}")
    return not problems, "; ".join(problems) or "grid ok"


def check_inverse(x: float, value: complex, budget: float):
    err = abs(1.0 / x - value)
    return err <= budget, f"|1/x - F(x)| {err:.3g} <= {budget:.3g} at x={x:.4g}"
