"""Truncated-Taylor LCU kernel: segment model, unitary sampling, bias bounds.

Each of the r time segments exp(-i A tau / r) (unit Pauli weight A) is
expanded in even Taylor orders n <= n_max; one LCU term is drawn per
segment.  A drawn term is a product of n Pauli strings followed by a
Pauli rotation exp(-i theta Q), where theta carries the sign of both the
segment time and the rotation term's coefficient; the n strings reduce
to one phase-free Pauli prefix P.  Every sign (i^n, prefix coefficient
signs, the phases of all prefix products) goes into one per-sample
scalar, a power of i.  The estimator phase * alpha^r * <phi|U|psi> is
exactly unbiased for <phi| (finite LCU)^r |psi>.

Both samplers, and the RTE kernel of `estimator.run_solver`, run one
Pauli-frame fold.  Since P exp(-i theta Q) =
exp(-i theta' Q) P, with theta' = -theta when P and Q anticommute, all
prefixes move to the left: U = P_1 R_1 ... P_r R_r = i^e T R'_1 ... R'_r,
with T the XOR of every prefix string and R'_s flipped when Q_s
anticommutes with P_{s+1} ... P_r.  A sample is then one gather per
segment and one for T.  A segment is one int64 code, twice its joint
(order, rotation term) draw plus its flip bit; the fold reads the rotation
string's x mask and its coefficients times tan theta' from a row of a
table: the model's whole code table, indexed by the code, or, for a pair
with fewer draws than codes, a row of the segment's own.

One fold takes samples of different r together: sorted by r, descending,
with their segments right-aligned, the samples that still have a segment
at each step of the reverse sweep are a prefix of the batch, and the step
touches only that prefix.  The codes are packed in that sweep order, one
entry per segment, so a group's array holds exactly its sum of r.  The
overlap path folds the samples of many grid pairs at once, in groups whose
codes and table rows stay within FOLD_GROUP_BYTES.  The fold takes state
vectors only: `sample_rte_unitary` folds the dim identity columns as dim
samples that share its one draw.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .pauli import (
    _I_POWERS,
    STATEVECTOR_QUBIT_GUARD,
    PauliDecomposition,
    _popcount_array,
    _product_exponent,
    _scan,
    pauli_action,
)
from .sampler import DRAW_BLOCK, AliasTable

NMAX_UNDERFLOW_CLAMP = 150
TERM_TABLE_CACHE_SIZE = 8
# bytes of one fold group's tables: an 8-byte code per draw and 16 dim bytes
# per table row (`_fold_group`); a pair larger than this is a group of its own
FOLD_GROUP_BYTES = 1 << 21


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


class RTEWeightOverflowError(ValueError):
    """The RTE estimator weight alpha^r overflows a float."""

    def __init__(self, log10_alpha_power_r: float):
        self.log10_alpha_power_r = log10_alpha_power_r
        super().__init__(
            "RTE weight alpha^r overflows a float: "
            f"log10 alpha^r = {log10_alpha_power_r:.6g}"
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
    def log_alpha_power_r(self) -> float:
        """Natural log of alpha^r; finite where alpha^r itself overflows."""
        return self.r * math.log(self.alpha)

    @property
    def alpha_power_r(self) -> float:
        try:
            return self.alpha**self.r
        except OverflowError:
            raise RTEWeightOverflowError(self.log_alpha_power_r / math.log(10)) from None


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
class RTEUnitary:
    phase: complex  # the sample's unit-modulus scalar, a power of i
    n_cp: int
    dense_unitary: np.ndarray  # T R'_1 ... R'_r, the unitary over its phase


@dataclass(frozen=True)
class _TermTables:
    n_qubits: int
    xs: np.ndarray  # x mask per term
    zs: np.ndarray  # z mask per term
    terms: AliasTable  # term index by |c_l|
    extra: np.ndarray  # i-power a prefix string brings: 1, or 3 if c_l < 0
    sign_bit: int
    q_packed: np.ndarray  # rotation string (x, z) plus the sign of c_l
    coef: np.ndarray  # -i times the pauli_action phases


@functools.lru_cache(maxsize=TERM_TABLE_CACHE_SIZE)
def _term_tables(d: PauliDecomposition) -> _TermTables:
    """The draw and action tables of d's terms, built once per distinct
    decomposition (decompositions compare by value), read-only."""
    nq = d.n_qubits
    coeffs = np.array([c for c, _ in d.terms])
    xs, zs = np.array([(p.x_mask, p.z_mask) for _, p in d.terms], dtype=np.int64).T
    terms = AliasTable(np.abs(coeffs) / np.abs(coeffs).sum())
    extra = 1 + 2 * (coeffs < 0)  # a prefix string brings i (of i^n), -1 if c < 0
    # the symplectic form pc(Q_x & P_z) + pc(Q_z & P_x) as one popcount, with
    # Q packed as (x, z) and P as (z, x); the bit above them carries the sign
    # of Q's coefficient, so an odd count flips the sign of tan(theta)
    sign_bit = 1 << (2 * nq)
    q_packed = (xs << nq) | zs | np.where(coeffs < 0, sign_bit, 0)
    _, phase = d.action_tables()
    coef = -1j * phase
    for a in (xs, zs, extra, q_packed, coef):
        a.flags.writeable = False
    return _TermTables(nq, xs, zs, terms, extra, sign_bit, q_packed, coef)


def _code_rows(t, thetas, codes, xs, coef):
    """Write into xs and coef the fold's rows of the given segment codes
    under rotation angles thetas: code 2 (o n_terms + l) + f gets the x
    mask of Q_l and the row t.coef[l] tan(+-theta_o), with the minus sign
    where f = 1.  A row is the complex-by-float64 product that gathering
    the action row and then scaling it by the tangent forms, so it rounds
    the same.  t is the decomposition's `_term_tables`."""
    tan_pm = np.multiply.outer(np.tan(thetas), (1.0, -1.0)).ravel()  # by 2 o + f
    o, l, f = np.unravel_index(codes, (len(thetas), len(t.xs), 2))
    t.xs.take(l, out=xs)
    np.multiply(t.coef.take(l, axis=0), tan_pm.take(2 * o + f)[:, None], out=coef)


def _frames(t, model, n, rng):
    """Draw n samples of model.r segments, in blocks, and the Pauli frame of
    each; t is the decomposition's `_term_tables`.

    A block holds max(1, DRAW_BLOCK // r) samples and consumes randomness
    in two alias draws: its joint indices o n_terms + l (order o, rotation
    term l) from one joint table (sample by sample, segments in order),
    then its prefix strings in that same order.  The order and the rotation
    term of a segment are independent, so the joint table is the outer
    product of their laws; small tables indexed by the joint draw give each
    segment's prefix length, packed rotation string and cosine.  Yields per
    block (e, tx, tz, scale, code): per sample i^e, T and the product of
    cos theta; per segment (n, r) the code 2 (o n_terms + l) + f of
    `_code_rows`, f = 1 where theta' = -theta.
    """
    nq = t.n_qubits
    n_terms = len(t.xs)
    joint = AliasTable(np.multiply.outer(model.probabilities,
                                         t.terms.probabilities).ravel())
    pre_len = np.repeat(model.orders, n_terms)
    q_packed = np.tile(t.q_packed, len(model.orders))
    cos = np.repeat(np.cos(model.thetas), n_terms)
    r = model.r
    step = max(1, DRAW_BLOCK // r)
    for i in range(0, n, step):
        m = min(step, n - i)
        code = joint.draw_batch(rng, m * r).reshape(m, r)
        cut = _scan(np.add, pre_len.take(code).ravel())
        pre = t.terms.draw_batch(rng, int(cut[-1]))
        bounds = cut[::r]
        e, cx, cz = _product_exponent(t.xs[pre], t.zs[pre], bounds, t.extra[pre])
        s0, s1 = bounds[:-1], bounds[1:]
        # XOR of the prefixes after each segment
        p_scan = (cz << nq) | cx
        later = (p_scan[s1] | t.sign_bit)[:, None] ^ p_scan[cut[1:].reshape(m, r)]
        later &= q_packed.take(code)
        # cos is even, so R' = cos(theta) (I - i tan(theta') Q) and the
        # cosines leave the fold as one product per sample
        scale = cos.take(code).prod(axis=1)
        flip = _popcount_array(later)
        flip &= 1
        code <<= 1
        code |= flip
        yield e, cx[s1] ^ cx[s0], cz[s1] ^ cz[s0], scale, code


def _fold(t, codes, xs, coef, r, tx, tz, scale, states) -> np.ndarray:
    """T R'_1 ... R'_{r_i} states[i] for each sample i, states of shape (n, dim).

    The samples come sorted by r, descending; t is the decomposition's
    `_term_tables`.  codes holds sum(r) entries packed in sweep order, one
    per segment, each the index of the segment's row of xs (the x mask of
    its rotation string) and of coef (the string's action coefficients
    times tan theta', `_code_rows`): step s holds segment r_i - s of each
    sample i with r_i > s, a prefix of the batch, so step s touches only
    that prefix of the state, and a run of steps of equal prefix length a
    is one contiguous (steps x a) slice.
    The steps' row gathers and coefficients are taken in blocks of at most
    DRAW_BLOCK state entries, each block within such a run.  Row i of P_l v
    reads v[i ^ x_l], so in the flat state sample p's row i reads
    p dim + (i ^ x_l), which is (p dim + i) ^ x_l as x_l < dim.
    """
    n, dim = states.shape
    flat = np.arange(n * dim).reshape(n, dim)  # (p dim + i) per entry
    state = np.array(states, dtype=complex).ravel()  # the samples end to end
    lo = off = 0
    # steps [lo, hi) have the a samples of r >= hi active, a run of equal
    # prefix length ending at each distinct r
    for a, hi in zip(range(n, 0, -1), reversed(r.tolist())):
        if hi == lo:
            continue
        k = a * dim
        per_block = max(1, DRAW_BLOCK // k)
        head, g = state[:k], np.empty(k, dtype=complex)
        for b in range(lo, hi, per_block):
            steps = min(per_block, hi - b)
            # flat (steps x a) codes
            block = codes[off:off + steps * a]
            off += steps * a
            # the ndarray.take methods skip np.take's dispatch, which costs
            # as much as the gathers themselves on narrow steps
            rows = flat[:a] ^ xs.take(block).reshape(steps, a, 1)
            c = coef.take(block, axis=0)
            for rows_s, c_s in zip(rows.reshape(steps, k), c.reshape(steps, k)):
                # positional: take parses keywords slowly; "wrap" leaves
                # out unbuffered (the rows are in range)
                state.take(rows_s, 0, g, "wrap")
                g *= c_s
                head += g
        lo = hi
    _, t_phase = pauli_action(t.n_qubits, tx, tz)
    out = state.take(flat ^ tx[:, None])
    out *= t_phase * scale[:, None]
    return out


def _check_r(model: RTESegmentModel, r: int):
    if r != model.r:
        raise ValueError(f"r={r} differs from the model's r={model.r}")


def sample_rte_unitary(
    d: PauliDecomposition,
    model: RTESegmentModel,
    r: int,
    rng: np.random.Generator,
) -> RTEUnitary:
    """Draw one r-segment RTE unitary (d must have unit Pauli weight): the
    frame fold of a single sample, applied to the dim identity columns as
    dim samples that share the one draw.  r must be model.r."""
    _check_r(model, r)
    if d.n_qubits > STATEVECTOR_QUBIT_GUARD:
        raise ValueError(f"n_qubits={d.n_qubits} exceeds dense guard")
    t = _term_tables(d)
    e, tx, tz, scale, code = next(_frames(t, model, 1, rng))
    dim = 1 << d.n_qubits
    # a lone sample's sweep is its segments in reverse, each with a row of
    # its own; each step holds its segment once per column
    xs, coef = np.empty(r, dtype=np.int64), np.empty((r, dim), dtype=complex)
    _code_rows(t, model.thetas, code[0, ::-1], xs, coef)
    columns = _fold(t, np.repeat(np.arange(r), dim), xs, coef,
                    np.full(dim, r), np.repeat(tx, dim), np.repeat(tz, dim),
                    np.repeat(scale, dim), np.eye(dim, dtype=complex))
    return RTEUnitary(complex(_I_POWERS[e[0]]), r, columns.T)


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
    estimator of <phi| (finite LCU)^r |psi>.  Same distribution as
    `sample_rte_unitary`: the frame fold applied to psi, drawn as in
    `_frames`, with one batched rotation step per segment.  r must be
    model.r.
    """
    _check_r(model, r)
    e, raw = _frame_overlaps(d, [(model, n_samples)], psi, phi, rng)
    return _I_POWERS[e] * raw


def _frame_overlaps(d, pairs, psi, phi, rng):
    """(e, <phi| cos-scaled T R'_1 ... R'_r |psi>) per sample: the i-power
    exponent of the sample's phase, and the overlap of its unitary frame
    fold, so that the sample's phase * <phi|U|psi> is i^e times the
    overlap.

    pairs is an iterable of (model, count).  The draws are `_frames`' for
    each pair in turn, and the results come pair by pair, each pair's
    samples in draw order.  Consecutive pairs are folded together while
    their tables stay within FOLD_GROUP_BYTES: per pair, an 8-byte code per
    draw (model.r * count draws) and 16 dim bytes per row of its run of the
    fold tables (`_fold_group`).  A larger pair is a group of its own.
    """
    if d.n_qubits > STATEVECTOR_QUBIT_GUARD:
        raise ValueError(f"n_qubits={d.n_qubits} exceeds dense guard")
    t = _term_tables(d)  # once: a decomposition hashes term by term
    psi = np.asarray(psi, dtype=complex)
    conj_phi = np.conj(phi)
    row_bytes = 16 * len(psi)
    parts, group, size = [], [], 0
    for model, count in pairs:
        draws = model.r * count
        pair_size = 8 * draws + row_bytes * min(_n_codes(t, model), draws)
        if group and size + pair_size > FOLD_GROUP_BYTES:
            parts.append(_fold_group(t, group, psi, conj_phi, rng))
            group, size = [], 0
        group.append((model, count))
        size += pair_size
    parts.append(_fold_group(t, group, psi, conj_phi, rng))
    e, overlaps = zip(*parts)
    return np.concatenate(e), np.concatenate(overlaps)


def _n_codes(t, model) -> int:
    """Rows of the model's whole code table: 2 n_terms per order."""
    return 2 * len(t.xs) * len(model.orders)


def _fold_group(t, group, psi, conj_phi, rng):
    """(e, overlap) of every sample of a group of (model, count) pairs, in
    the group's order, from one fold of the group sorted by r; t is the
    decomposition's `_term_tables`.

    Each pair owns a run of rows of the group's fold tables (`_code_rows`):
    its whole code table, 2 n_terms rows per order, when it has at least as
    many draws as codes, so that its codes index the run; else one row per
    draw, so that the tables never hold more rows than the group has draws.
    Each pair is drawn by `_frames` in turn, and each block's row indices go
    straight to their slots in the packed sweep layout of `_fold`: segment
    c of sorted sample p to start[r - 1 - c] + p, step s starting at
    start[s].  While no sample of the group has a smaller r than the pair,
    every sample is active in the pair's steps, so start[s] = s a for a
    samples and the pair's slots are the strided (r x a) view of the first
    r a entries."""
    rs = np.array([model.r for model, _ in group])
    counts = np.array([count for _, count in group])
    r_sample = np.repeat(rs, counts)
    # a stable sort keeps each pair's samples together and in order
    order = np.argsort(-r_sample, kind="stable")
    col = np.empty_like(order)
    col[order] = np.arange(len(order))
    # step s holds one entry per sample of r > s
    active = np.cumsum(np.bincount(r_sample)[:0:-1])[::-1]
    start = _scan(np.add, active)
    n_codes = np.array([_n_codes(t, model) for model, _ in group])
    whole = n_codes <= rs * counts
    n_rows = np.where(whole, n_codes, rs * counts).sum()
    xs, coef = np.empty(n_rows, dtype=np.int64), np.empty((n_rows, len(psi)), dtype=complex)
    codes = np.empty(start[-1], dtype=np.int64)
    e, tx, tz = (np.empty(len(order), dtype=np.int64) for _ in range(3))
    scale = np.empty(len(order))
    a = len(order)
    i = row = 0  # the group's samples in draw order; a block's are consecutive
    for (model, count), n, w in zip(group, n_codes.tolist(), whole.tolist()):
        r = model.r
        dest = None
        strided = r == rs.min()
        if w:
            base, row = row, row + n
            _code_rows(t, model.thetas, np.arange(n), xs[base:row], coef[base:row])
        for e_b, tx_b, tz_b, scale_b, code_b in _frames(t, model, count, rng):
            p, m = col[i], len(e_b)
            e[p:p + m], tx[p:p + m], tz[p:p + m], scale[p:p + m] = e_b, tx_b, tz_b, scale_b
            if not w:  # the block's draws get rows of their own, in draw order
                base, row = row, row + code_b.size
                _code_rows(t, model.thetas, code_b.ravel(), xs[base:row], coef[base:row])
                code_b = np.arange(code_b.size).reshape(m, r)
            if strided:
                np.add(code_b[:, ::-1].T, base, out=codes[:r * a].reshape(r, a)[:, p:p + m])
            else:
                if dest is None:  # slots of the pair's first block, the largest
                    dest = np.add.outer(np.arange(m), start[r - 1::-1])
                codes[p:][dest[:m]] = code_b + base
            i += m
    out = _fold(t, codes, xs, coef, r_sample[order], tx, tz, scale,
                np.broadcast_to(psi, (len(order), len(psi))))
    # an elementwise product summed along each row rounds the same in any
    # batch, so a sample's overlap does not depend on its group
    return e[col], (out[col] * conj_phi).sum(axis=1)


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
