"""Truncated-Taylor LCU kernel: segment model, unitary sampling, bias bounds.

Each of the r time segments exp(-i A tau / r) (unit Pauli weight A) is
expanded in even Taylor orders n <= n_max; one LCU term is drawn per
segment.  A drawn term is a product of n Pauli strings followed by a
Pauli rotation exp(-i theta P), where theta carries the sign of both the
segment time and the rotation term's coefficient; the n strings reduce
to one phase-free Clifford Pauli prefix, with the remaining signs (i^n,
prefix coefficient signs, product phases) folded into a single
per-sample unit-modulus scalar.  The
estimator phase * alpha^r * <phi|U|psi> is exactly unbiased for
<phi| (finite LCU)^r |psi>.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .pauli import (
    PauliDecomposition,
    PauliString,
    PhasedPauli,
    _popcount_array,
    pauli_action,
    pauli_product,
)

NMAX_UNDERFLOW_CLAMP = 150
RTE_DENSE_QUBIT_GUARD = 10


class RTEInfeasibleError(ValueError):
    """No even n_max up to the underflow clamp satisfies the bias condition."""

    def __init__(self, log_prefactor: float):
        self.log_prefactor = log_prefactor
        self.log10_prefactor = log_prefactor / math.log(10)
        super().__init__(
            "bias condition unsatisfiable up to n_max="
            f"{NMAX_UNDERFLOW_CLAMP}: log bias prefactor ~ {log_prefactor:.3g} "
            f"({self.log10_prefactor:.3g} decades)"
        )


@dataclass(frozen=True)
class RTESegmentModel:
    tau: float
    r: int
    n_max: int
    orders: np.ndarray  # even n values 0, 2, ..., n_max
    magnitudes: np.ndarray  # d_n per order
    thetas: np.ndarray  # signed rotation angle per order
    alpha: float  # one-norm of the segment LCU coefficients

    @property
    def tau_over_r(self) -> float:
        return self.tau / self.r

    @property
    def probabilities(self) -> np.ndarray:
        return self.magnitudes / self.alpha

    @property
    def alpha_power_r(self) -> float:
        return self.alpha**self.r


def segment_model(tau: float, r: int, n_max: int) -> RTESegmentModel:
    """Even-order truncated Taylor model of one segment exp(-i A tau / r)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max % 2:
        n_max += 1  # even truncation only; odd requests round up
    if n_max > NMAX_UNDERFLOW_CLAMP:
        warnings.warn(
            f"n_max={n_max} clamped to {NMAX_UNDERFLOW_CLAMP} "
            "(1/n! underflows beyond)",
            stacklevel=2,
        )
        n_max = NMAX_UNDERFLOW_CLAMP
    x = tau / r
    orders = np.arange(0, n_max + 1, 2)
    mags = np.empty(len(orders))
    thetas = np.empty(len(orders))
    term = 1.0  # |x|^n / n!
    n_prev = 0
    for i, n in enumerate(orders):
        for m in range(n_prev + 1, n + 1):
            term *= abs(x) / m
        n_prev = n
        mags[i] = term * math.sqrt(1 + (x / (n + 1)) ** 2)
        thetas[i] = math.atan(x / (n + 1))
    alpha = float(mags.sum())
    return RTESegmentModel(tau, r, int(n_max), orders, mags, thetas, alpha)


@dataclass(frozen=True)
class RTESegment:
    prefix: PauliString  # phase-free Clifford Pauli product
    rotation: PauliString
    theta: float
    order: int


@dataclass(frozen=True)
class RTEUnitary:
    segments: tuple  # (RTESegment, ...), length r
    phase: complex  # accumulated unit-modulus scalar
    n_cp: int
    dense_unitary: np.ndarray


def sample_rte_unitary(
    d: PauliDecomposition,
    model: RTESegmentModel,
    r: int,
    rng: np.random.Generator,
) -> RTEUnitary:
    """Draw one r-segment RTE unitary (d must have unit Pauli weight)."""
    if d.n_qubits > RTE_DENSE_QUBIT_GUARD:
        raise ValueError(f"n_qubits={d.n_qubits} exceeds dense guard")
    coeffs = np.array([c for c, _ in d.terms])
    p_pauli = np.abs(coeffs)
    p_pauli = p_pauli / p_pauli.sum()
    cdf_pauli = np.cumsum(p_pauli)
    cdf_n = np.cumsum(model.probabilities)
    identity = PauliString(d.n_qubits, 0, 0)
    dim = 1 << d.n_qubits

    segments = []
    rot_terms = []
    phase = complex(1.0)
    for _ in range(r):
        i_n = int(np.searchsorted(cdf_n, rng.random(), side="right"))
        n = int(model.orders[i_n])
        idx = np.searchsorted(cdf_pauli, rng.random(n + 1), side="right")
        prefix = PhasedPauli(1, identity)
        for l in idx[:-1]:
            prefix = pauli_product(prefix, PhasedPauli(1, d.terms[l][1]))
        c_rot, rot = d.terms[idx[-1]]
        seg_phase = (1, 1j, -1, -1j)[n % 4] * prefix.phase
        for l in idx[:-1]:
            if coeffs[l] < 0:
                seg_phase = -seg_phase
        phase *= seg_phase
        # the rotation coefficient's sign lives inside the rotation angle
        theta = float(model.thetas[i_n]) * (1.0 if c_rot >= 0 else -1.0)
        segments.append(RTESegment(prefix.string, rot, theta, n))
        rot_terms.append(idx[-1])
    # U = prod_s prefix_s exp(-i theta_s P_s), built right to left by row
    # gathers: P M = phase[:, None] * M[src]
    rot_src, rot_phase = d.action_tables()
    pre_src, pre_phase = pauli_action(
        d.n_qubits,
        [seg.prefix.x_mask for seg in segments],
        [seg.prefix.z_mask for seg in segments],
    )
    dense = np.eye(dim, dtype=complex)
    for i in range(r - 1, -1, -1):
        l, theta = rot_terms[i], segments[i].theta
        rotated = rot_phase[l][:, None] * dense[rot_src[l]]
        dense = math.cos(theta) * dense - 1j * math.sin(theta) * rotated
        dense = pre_phase[i][:, None] * dense[pre_src[i]]
    return RTEUnitary(tuple(segments), phase, r, dense)


def rte_finite_lcu(d: PauliDecomposition, model: RTESegmentModel) -> np.ndarray:
    """Dense matrix of the finite segment LCU: the Taylor sum of e^{-iAx}
    through order n_max + 1 (each even order n pairs with order n + 1)."""
    from .pauli import materialize

    a = materialize(d)
    x = model.tau_over_r
    dim = a.shape[0]
    out = np.eye(dim, dtype=complex)
    term = np.eye(dim, dtype=complex)
    for m in range(1, model.n_max + 2):
        term = term @ (-1j * x * a) / m
        out = out + term
    return out


def rte_unitary_to_json(u: RTEUnitary) -> dict:
    """Audit-mode description: per-segment Pauli texts and rotation angles."""
    return {
        "phase": [u.phase.real, u.phase.imag],
        "n_cp": u.n_cp,
        "segments": [
            {
                "prefix": seg.prefix.to_text(),
                "rotation": seg.rotation.to_text(),
                "theta": seg.theta,
                "order": seg.order,
            }
            for seg in u.segments
        ],
    }


def sample_rte_overlaps_batch(
    d: PauliDecomposition,
    model: RTESegmentModel,
    r: int,
    psi: np.ndarray,
    phi: np.ndarray,
    n_samples: int,
    rng: np.random.Generator,
):
    """Vectorized draw of phase * <phi|U|psi> for n_samples RTE unitaries.

    Returns a complex array; multiplying by alpha^r gives the unbiased
    estimator of <phi| (finite LCU)^r |psi>.  Same distribution as the
    per-sample path, organized for throughput: the Pauli prefixes are
    reduced symplectically and the r segment matrices are folded with
    batched pairwise products.
    """
    if d.n_qubits > RTE_DENSE_QUBIT_GUARD:
        raise ValueError(f"n_qubits={d.n_qubits} exceeds dense guard")
    dim = 1 << d.n_qubits
    coeffs = np.array([c for c, _ in d.terms])
    xs = np.array([p.x_mask for _, p in d.terms], dtype=np.int64)
    zs = np.array([p.z_mask for _, p in d.terms], dtype=np.int64)
    signs = np.sign(coeffs)
    cdf_pauli = np.cumsum(np.abs(coeffs) / np.abs(coeffs).sum())
    cdf_n = np.cumsum(model.probabilities)

    shape = (n_samples, r)
    order_idx = np.searchsorted(cdf_n, rng.random(shape), side="right")
    orders = model.orders[order_idx]
    sign_parity = (orders % 4) // 2  # i^n = (-1)^(n/2) for even n

    # draw all prefix Paulis flat, sized by the orders actually drawn
    flat_n = orders.ravel()
    ends = np.cumsum(flat_n)
    starts = ends - flat_n
    total = int(ends[-1]) if len(ends) else 0
    draw = np.searchsorted(cdf_pauli, rng.random(total), side="right")

    # per-segment coefficient-sign parity via a cumulative XOR scan
    neg = (signs[draw] < 0).astype(np.int64)
    cum_neg = np.concatenate([[0], np.cumsum(neg)])
    sign_parity = sign_parity + (cum_neg[ends] - cum_neg[starts]).reshape(shape)

    # reduce each segment's Pauli sequence to (mask pair, phase exponent of i)
    acc_x = np.zeros(n_samples * r, dtype=np.int64)
    acc_z = np.zeros(n_samples * r, dtype=np.int64)
    acc_e = np.zeros(n_samples * r, dtype=np.int64)

    def fold_in(seg_idx, bx, bz):
        ax, az = acc_x[seg_idx], acc_z[seg_idx]
        cx, cz = ax ^ bx, az ^ bz
        e = (
            _popcount_array(ax & az)
            + _popcount_array(bx & bz)
            - _popcount_array(cx & cz)
            + 2 * _popcount_array(az & bx)
        )
        acc_x[seg_idx] = cx
        acc_z[seg_idx] = cz
        acc_e[seg_idx] += e

    # n = 2 dominates; fold its two Paulis in one vectorized product
    two = np.nonzero(flat_n == 2)[0]
    if len(two):
        a, b = draw[starts[two]], draw[starts[two] + 1]
        acc_x[two] = xs[a] ^ xs[b]
        acc_z[two] = zs[a] ^ zs[b]
        acc_e[two] = (
            _popcount_array(xs[a] & zs[a])
            + _popcount_array(xs[b] & zs[b])
            - _popcount_array(acc_x[two] & acc_z[two])
            + 2 * _popcount_array(zs[a] & xs[b])
        )
    # the rare higher orders go position by position on a shrinking subset
    high = np.nonzero(flat_n >= 4)[0]
    pos = 0
    while len(high):
        d_idx = draw[starts[high] + pos]
        fold_in(high, xs[d_idx], zs[d_idx])
        pos += 1
        high = high[flat_n[high] > pos]

    acc_x = acc_x.reshape(shape)
    acc_z = acc_z.reshape(shape)
    phases = (1j ** (acc_e.reshape(shape) % 4)) * np.where(
        sign_parity % 2 == 1, -1.0, 1.0
    )

    rot_idx = np.searchsorted(cdf_pauli, rng.random(shape), side="right")
    src, phase_tab = d.action_tables()

    cos_t = np.cos(model.thetas)[order_idx]
    sin_t = np.sin(model.thetas)[order_idx] * signs[rot_idx]
    nontrivial = (acc_x != 0) | (acc_z != 0)

    # fold the segments onto psi right to left, one batched step per segment:
    # v <- prefix @ exp(-i theta P_rot) @ v
    v = np.broadcast_to(psi.astype(complex), (n_samples, dim)).copy()
    for seg in range(r - 1, -1, -1):
        rot = rot_idx[:, seg]
        pv = phase_tab[rot] * np.take_along_axis(v, src[rot], axis=1)
        v = cos_t[:, seg, None] * v - 1j * sin_t[:, seg, None] * pv
        sel = np.nonzero(nontrivial[:, seg])[0]
        if len(sel):
            pre_src, pre_phase = pauli_action(
                d.n_qubits, acc_x[sel, seg], acc_z[sel, seg]
            )
            v[sel] = pre_phase * np.take_along_axis(v[sel], pre_src, axis=1)
    return phases.prod(axis=1) * (v @ phi.conj())


def rte_bias_log(
    t_max: float, t_min_abs: float, r: int, n_y: float, n_z: float, n_max: int
) -> float:
    """Natural log of the truncation-bias upper bound (log-space safe)."""
    if r < t_max:
        raise ValueError("bound requires r >= t_max")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return (
        math.log(r * n_y * n_z / 2)
        + (t_max**2 + t_max - t_min_abs) / r
        + n_max * (1 + math.log(t_max) - math.log(r * n_max))
    )


def rte_bias_bound(
    t_max: float, t_min_abs: float, r: int, n_y: float, n_z: float, n_max: int
) -> float:
    """Truncation-bias upper bound; +inf when it overflows a float."""
    log_b = rte_bias_log(t_max, t_min_abs, r, n_y, n_z, n_max)
    if log_b > 700:
        return math.inf
    return math.exp(log_b)


def choose_nmax(
    t_max: float,
    t_min_abs: float,
    r: int,
    n_y: float,
    n_z: float,
    eps: float,
) -> int:
    """Smallest even n_max with bias bound < eps/2, else RTEInfeasibleError."""
    if r < t_max:
        raise ValueError("need r >= t_max")
    if eps <= 0:
        raise ValueError("eps must be positive")
    target = math.log(eps / 2)
    for n_max in range(2, NMAX_UNDERFLOW_CLAMP + 1, 2):
        if rte_bias_log(t_max, t_min_abs, r, n_y, n_z, n_max) < target:
            return n_max
    raise RTEInfeasibleError(
        math.log(r * n_y * n_z / 2) + (t_max**2 + t_max - t_min_abs) / r
    )
