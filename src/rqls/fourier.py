"""Certified Fourier series approximation of the inverse function.

Builds the double-quadrature (Gauss-Legendre in y, trapezoid in z) series
F(x) = sum_{jk} alpha_{jk} exp(-i x t_{jk}) that approximates 1/x on the
domain [-1, -1/kt] U [1/kt, 1] to within eps_T + eps_D, together with the
normalization constants used by the importance sampler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT_2PI = math.sqrt(2.0 * math.pi)

GL_MAX_DEGREE = 10**6
SERIES_TERM_GUARD = 2**31
# (point, y) entries of one block of FourierSeries.evaluate's Horner sums
EVALUATE_BLOCK = 4096


class SeriesSizeError(ValueError):
    """Raised when the requested accuracy needs more terms than the guard."""

    def __init__(self, j: int, k: int):
        self.required_terms = j * k
        super().__init__(
            f"series would need J*K = {j}*{k} = {j * k} terms "
            f"(guard {SERIES_TERM_GUARD}); relax eps_T/eps_D"
        )


# Roots with 2 deg sin(theta) below this (x = cos theta) come from the
# recurrence; above it Stieltjes' expansion reaches double precision in at
# most 12 terms (its smallest term is about exp(-2 deg sin theta)).
GL_END_SET = 100.0


def _legendre_top(deg: int, x: np.ndarray):
    """P_deg(x) and D = P_deg(x) - P_{deg-1}(x), for 0 <= x < 1.

    The three-term recurrence written for the differences D_n, with u = 1 - x:
    n D_n = (n-1) D_{n-1} - (2n-1) u P_{n-1} and P_n = P_{n-1} + D_n.  Near
    x = 1 this keeps D (and so P') to relative accuracy, where the plain
    recurrence loses it.  Its transfer matrices I + N_n are multiplied in a
    balanced tree, storing N = M - I, so the cost is O(deg) flops in
    O(log deg) vectorized steps.  Each level writes its four products into
    fresh arrays through one shared temporary, in the same order of
    operations as the plain expressions s1 + s0 + l1 r0 + l2 r2.
    """
    u = 1.0 - x
    n = np.arange(2, deg + 1, dtype=float)[:, None]
    a = (2 * n - 1) / n * u
    np.negative(a, out=a)
    # N_n = [[-bu, (n-1)/n], [-bu, -1/n]] acting on (P_{n-1}, D_{n-1});
    # its first column is one array until the first level combines it
    b, c, d = (n - 1) / n, a, -1 / n
    p, diff = x, -u  # P_1, D_1

    def entry(s1, s0, l1, r0, l2, r2):  # s1 + s0 + l1 r0 + l2 r2
        out = np.add(s1, s0, out=np.empty_like(tmp))
        out += np.multiply(l1, r0, out=tmp)
        out += np.multiply(l2, r2, out=tmp)
        return out

    while len(a):
        if len(a) % 2:  # apply the lowest factor to the vector
            p, diff = p + a[0] * p + b[0] * diff, diff + c[0] * p + d[0] * diff
            a, b, c, d = a[1:], b[1:], c[1:], d[1:]
        if len(a):  # (I + hi)(I + lo) = I + hi + lo + hi lo
            a1, b1, c1, d1 = (t[1::2] for t in (a, b, c, d))
            a0, b0, c0, d0 = (t[0::2] for t in (a, b, c, d))
            tmp = np.empty(a1.shape[:1] + u.shape)  # shared by the four entries
            a, b, c, d = (entry(a1, a0, a1, a0, b1, c0), entry(b1, b0, a1, b0, b1, d0),
                          entry(c1, c0, c1, a0, d1, c0), entry(d1, d0, c1, b0, d1, d0))
    return p, diff


def _end_roots(deg: int, x0: np.ndarray):
    """Roots near the guesses x0 in [0, 1) and their weights.

    P and P' at x0 come from one `_legendre_top` pass; the Legendre ODE
    (1-x^2) y'' = 2x y' - deg(deg+1) y, differentiated, gives the higher
    Taylor coefficients, and Newton runs on that polynomial in d = x - x0.
    The weight 2 / ((1 - x^2) P'(x)^2) is taken at the unrounded root, with
    1 - x^2 = (1-x0)(1+x0) - d (2 x0 + d).
    """
    p, diff = _legendre_top(deg, x0)
    s = (1.0 - x0) * (1.0 + x0)
    dp = deg * ((1.0 - x0) * p - diff) / s
    lam = deg * (deg + 1.0)
    # c[m] = P^(m)(x0) / m!; stop once a term cannot reach the root's digits
    reach = 2 * np.abs(p / dp)
    c = [p, dp]
    for k in range(deg - 1):
        c.append(((k + 1) * 2 * x0 * c[k + 1] + (k * (k + 1) - lam) / (k + 1) * c[k])
                 / ((k + 2) * s))
        if np.all(np.abs(c[-1]) * reach ** (k + 1) <= 2.0**-60 * np.abs(dp)):
            break

    def poly(d):
        f, df = c[-1], np.zeros_like(d)
        for ck in c[-2::-1]:
            df = df * d + f
            f = f * d + ck
        return f, df

    d = np.zeros_like(x0)
    for _ in range(20):
        f, df = poly(d)
        step = f / df
        d -= step
        if np.all(np.abs(step) <= 2.0**-40 * reach):
            break
    _, df = poly(d)
    return x0 + d, 2.0 / ((s - d * (2 * x0 + d)) * df * df)


def _stieltjes(deg: int, theta: np.ndarray, scale: float):
    """P_deg(cos theta) and dP/dtheta by Stieltjes' expansion (Szego 8.21.5).

    Term m is scale h_m cos((deg+m+1/2) theta - (m+1/2) pi/2) /
    (2 sin theta)^(m+1/2), h_0 = 1, h_m = h_{m-1} (m-1/2)^2 / (m (deg+m+1/2)),
    summed until the next term is below 2^-56 of the first.
    """
    sin = np.sin(theta)
    cot = np.cos(theta) / sin
    shrink = 0.5 / sin
    tail = float(shrink.max())
    amp = scale * np.sqrt(shrink)  # scale h_m (2 sin theta)^-(m+1/2)
    p = np.zeros_like(theta)
    dp = np.zeros_like(theta)
    h = 1.0
    for m in range(deg):
        a = deg + m + 0.5
        phase = a * theta - (m + 0.5) * (math.pi / 2)
        c = np.cos(phase)
        p += amp * c
        dp -= amp * (a * np.sin(phase) + (m + 0.5) * cot * c)
        ratio = (m + 0.5) ** 2 / ((m + 1) * (deg + m + 1.5))
        h *= ratio * tail
        if h <= 2.0**-56:
            break
        amp = amp * (ratio * shrink)
    return p, dp


def _interior_roots(deg: int, theta: np.ndarray):
    """Roots cos(theta) near the guesses theta, by Newton on Stieltjes'
    expansion, and their weights 2 / (dP/dtheta)^2."""
    # scale = (4/pi) prod_{j<=deg} j/(j+1/2), summed in logs: a difference
    # of lgamma values loses about 1e-10 relative at deg = 2e4
    j = np.arange(1, deg + 1, dtype=float)
    scale = 4.0 / math.pi * math.exp(-math.fsum(np.log1p(0.5 / j)))
    for _ in range(10):
        p, dp = _stieltjes(deg, theta, scale)
        step = p / dp
        theta = theta - step
        # the next step is ~cot(theta) step^2; P' moves by ~(deg step)^2
        if deg * np.abs(step).max() <= 1e-8:
            break
    # dP/dtheta at the updated theta: P'' = -cot P' - deg (deg+1) P
    dp = dp + step * (np.cos(theta) / np.sin(theta) * dp + deg * (deg + 1.0) * p)
    return np.cos(theta), 2.0 / (dp * dp)


def gauss_legendre(deg: int):
    """Nodes (ascending) and weights of the degree-`deg` Gauss-Legendre rule.

    O(deg) work.  The roots x = cos(theta) in [0, 1) start from Tricomi's
    guesses and split in two sets; the rest follow by symmetry.
    - End set, 2 deg sin(theta) < GL_END_SET (the roots nearest 1, and
      every root when deg < GL_END_SET / 2): P and P' by one pass of the
      difference-form recurrence, then Newton on the Taylor polynomial
      that the Legendre ODE supplies (`_end_roots`).
    - Interior: Newton in theta on Stieltjes' asymptotic expansion of
      P_deg(cos theta), as in Hale & Townsend (SIAM J. Sci. Comput. 35,
      A652, 2013); weight 2 / (dP/dtheta)^2 (`_interior_roots`).
    Against 40-digit mpmath roots (every root for deg <= 288; the 100
    roots nearest 1 and 60 interior roots at deg = 2065, 20,388 and
    30,969) the nodes are within 2.9e-16 absolute and the weights within
    6.3e-15 relative.
    """
    if not 1 <= deg <= GL_MAX_DEGREE:
        raise ValueError(f"degree must be in [1, {GL_MAX_DEGREE}], got {deg}")
    # the roots in [0, 1), descending; for odd deg the last one is x = 0
    k = np.arange(1, (deg + 1) // 2 + 1, dtype=float)
    phi = math.pi * (4 * k - 1) / (4 * deg + 2)
    x0 = (
        1.0
        - (deg - 1) / (8.0 * deg**3)
        - (39.0 - 28.0 / np.sin(phi) ** 2) / (384.0 * deg**4)
    ) * np.cos(phi)
    n_end = int(np.count_nonzero(2 * deg * np.sin(phi) < GL_END_SET))
    x = np.empty_like(x0)
    w = np.empty_like(x0)
    x[:n_end], w[:n_end] = _end_roots(deg, x0[:n_end])
    if n_end < len(x0):
        x[n_end:], w[n_end:] = _interior_roots(deg, np.arccos(x0[n_end:]))
    if deg % 2:
        x[-1] = 0.0
        return np.concatenate([-x[:-1], x[::-1]]), np.concatenate([w[:-1], w[::-1]])
    return np.concatenate([-x, x[::-1]]), np.concatenate([w, w[::-1]])


def rescale(kappa_star: float, lam: float) -> float:
    """Rescaled condition-number bound for A/lam."""
    if kappa_star < 1 or lam < 1:
        raise ValueError("kappa_star and lam must both be >= 1")
    return lam * kappa_star


@dataclass(frozen=True)
class TruncationParams:
    y_max: float
    z_max: float
    t_max: float
    kappa_tilde: float
    eps_T: float


def truncation_params(kappa_tilde: float, eps_T: float) -> TruncationParams:
    """Integration bounds (y_max, z_max) for truncation error <= eps_T."""
    if kappa_tilde < 1:
        raise ValueError("kappa_tilde must be >= 1")
    if not 0 < eps_T < 3 * kappa_tilde:
        raise ValueError("need 0 < eps_T < 3*kappa_tilde")
    log_term = math.log(3 * kappa_tilde / eps_T)
    z_max = math.sqrt(2 * log_term)
    y_max = kappa_tilde * z_max
    t_max = 2 * kappa_tilde * log_term
    return TruncationParams(y_max, z_max, t_max, kappa_tilde, eps_T)


def fourier_params(
    kappa_tilde: float, eps_T: float, eps_D: float, trunc: TruncationParams
):
    """Grid sizes (J, K) for discretization error <= eps_D (ceil convention)."""
    if eps_D <= 0:
        raise ValueError("eps_D must be positive")
    log_term = math.log(3 * kappa_tilde / eps_T)
    z = trunc.z_max
    k_real = 1 + (
        math.log(2)
        + z * z / 2
        + 2 * kappa_tilde * log_term
        + math.log(2 / eps_D)
        + math.log(1 + 2 / (z * SQRT_2PI))
    ) / math.pi
    big_k = max(2, math.ceil(k_real))
    j_real = (
        math.log(big_k / (big_k - 1))
        + math.log(32 * trunc.y_max * z * z / (eps_D * SQRT_2PI))
        + 3 * kappa_tilde * log_term / (2 * math.sqrt(2))
    ) / math.log(2)
    big_j = max(2, math.ceil(j_real))
    return big_j, big_k


@dataclass(frozen=True)
class QuadratureGrid:
    J: int
    K: int
    gl_nodes: np.ndarray
    gl_weights: np.ndarray
    y_nodes: np.ndarray
    wy_weights: np.ndarray
    z_nodes: np.ndarray
    delta_z: float


def _z_amplitudes(z_nodes: np.ndarray, dz: float) -> np.ndarray:
    return dz * z_nodes * np.exp(-z_nodes * z_nodes / 2)


def _sine_sums(xy: np.ndarray, amp: np.ndarray, z0: float, dz: float) -> np.ndarray:
    """sum_m amp_m sin(xy (z0 + m dz)) for each entry of xy, by Horner's rule.

    With w = exp(i xy dz) the sum is Im[exp(i xy z0) P(w)], where
    P(w) = sum_m amp_m w^m: len(amp) - 1 complex multiply-adds in place of
    the per-term sines.  numpy's vectorized complex multiply runs a block's
    tail through the same vector code, so an entry's value does not depend
    on where it sits in a block of two or more entries; a one-entry array
    takes a scalar loop that rounds differently, and no block is that short.

    acc starts on a 64-byte boundary.  numpy allocates on 16-byte ones, and
    an acc at 16 bytes past a 32-byte one made the loop 10-30% slower in
    timings on x86-64, because its vector stores straddled cache lines.
    """
    w = np.exp(1j * (xy * dz))
    raw = np.empty(16 * len(xy) + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    acc = raw[start:start + 16 * len(xy)].view(complex)
    acc[:] = amp[-1]
    for a in amp[-2::-1].tolist():
        acc *= w
        acc += a
    acc *= np.exp(1j * (xy * z0))
    return acc.imag


@dataclass(frozen=True)
class FourierSeries:
    """The built series: grid, error budget, and normalization constants.

    Coefficients are implicit: alpha_{jk} = (i/sqrt(2*pi)) * wy_j * dz *
    z_k * exp(-z_k^2/2) and t_{jk} = y_j * z_k.  The z = 0 node (odd K)
    carries an exactly-zero coefficient and is excluded from sampling but
    still counts toward the J*K term total.

    sum |alpha_jk| = N_y * N_z.  N_y = sum |wy_j| / sqrt(2*pi) equals
    y_max / sqrt(2*pi), since the Gauss-Legendre weights sum to the interval
    length.  N_z = sum_k dz |z_k| exp(-z_k^2/2) is the Riemann sum, on K
    nodes spaced dz = 2 z_max / (K - 1) from -z_max to z_max, of
    int_{-z_max}^{z_max} |z| exp(-z^2/2) dz = 2 (1 - exp(-z_max^2/2)), so
    N_z -> 2 as K grows.  Its error is O(dz^2), with leading term -dz^2/6
    for odd K (a node sits on the kink of |z| at 0, and each half-line sum
    is a trapezoid rule) and +dz^2/12 for even K (each half-line sum is a
    midpoint rule), plus end-node terms of order dz z_max exp(-z_max^2/2).
    """

    grid: QuadratureGrid
    trunc: TruncationParams
    eps_D: float
    lam: float
    N_y: float
    N_z: float
    t_min_abs: float

    @property
    def kappa_tilde(self) -> float:
        return self.trunc.kappa_tilde

    @property
    def t_max(self) -> float:
        return self.trunc.t_max

    @property
    def n_terms(self) -> int:
        return self.grid.J * self.grid.K

    def z_amplitudes(self) -> np.ndarray:
        """Signed per-k amplitude dz * z_k * exp(-z_k^2 / 2)."""
        return _z_amplitudes(self.grid.z_nodes, self.grid.delta_z)

    def sum_abs_alpha(self) -> float:
        return self.N_y * self.N_z

    def evaluate(self, x) -> np.ndarray:
        """Scalar series value F(x) = sum alpha exp(-i x t) (vectorized in x).

        The z nodes come in exact +-z_k pairs and the z amplitudes a_k are
        odd, so each pair sums to -2i a_k sin(x y_j z_k) and
        F(x) = (2/sqrt(2 pi)) sum_j wy_j sum_{z_k > 0} a_k sin(x y_j z_k).
        The positive z_k are z0 + m dz (z0 = dz for odd K, dz/2 for even K),
        so each row sum over them is a polynomial in exp(i x y_j dz), taken
        by Horner's rule (`_sine_sums`) in blocks of at most EVALUATE_BLOCK
        (point, y_j) entries: whole points when a block holds a point's J
        rows, otherwise near-equal pieces of one point's rows.  The rows are
        weighted by wy_j with one pairwise sum per point, not a BLAS
        product, so a point's value does not depend on the other points of
        the call.  The result keeps the complex dtype, with imaginary part
        exactly 0.
        """
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        y = self.grid.y_nodes
        positive = self.grid.z_nodes > 0
        amp_z = self.z_amplitudes()[positive]
        z0 = self.grid.z_nodes[positive][0]
        out = np.empty(xs.shape)
        rows = max(1, EVALUATE_BLOCK // len(y))  # points per block, or one
        for start in range(0, len(xs), rows):
            xy = np.multiply.outer(xs[start:start + rows], y).ravel()
            blocks = np.array_split(xy, -(-len(xy) // EVALUATE_BLOCK))
            sums = np.concatenate([_sine_sums(b, amp_z, z0, self.grid.delta_z) for b in blocks])
            out[start:start + rows] = (sums.reshape(-1, len(y)) * self.grid.wy_weights).sum(axis=1)
        out = (out * (2 / SQRT_2PI)).astype(complex)
        return out if np.ndim(x) else out[0]

    def inverse_error(self, x) -> np.ndarray:
        """|1/x - F(x)| on the scalar domain."""
        xs = np.asarray(x, dtype=float)
        return np.abs(1.0 / xs - self.evaluate(xs))


def build_series(
    kappa_star: float, lam: float, eps_T: float, eps_D: float
) -> FourierSeries:
    """Construct the certified series for (A/lam)^{-1} on its spectral domain."""
    kt = rescale(kappa_star, lam)
    trunc = truncation_params(kt, eps_T)
    big_j, big_k = fourier_params(kt, eps_T, eps_D, trunc)
    if big_j * big_k > SERIES_TERM_GUARD:
        raise SeriesSizeError(big_j, big_k)

    nodes, weights = gauss_legendre(big_j)
    y_nodes = trunc.y_max * (1 + nodes) / 2
    wy = (trunc.y_max / 2) * weights
    dz = 2 * trunc.z_max / (big_k - 1)
    z_nodes = dz * (np.arange(big_k) - (big_k - 1) / 2)
    grid = QuadratureGrid(big_j, big_k, nodes, weights, y_nodes, wy, z_nodes, dz)

    amp_z = _z_amplitudes(z_nodes, dz)
    n_y = float(np.abs(wy).sum() / SQRT_2PI)
    n_z = float(np.abs(amp_z).sum())
    nz_mask = z_nodes != 0
    t_min_abs = float(y_nodes.min() * np.abs(z_nodes[nz_mask]).min())
    return FourierSeries(grid, trunc, eps_D, lam, n_y, n_z, t_min_abs)

