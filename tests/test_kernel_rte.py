import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rqls import kernel_rte
from rqls.kernel_rte import (
    NMAX_UNDERFLOW_CLAMP,
    RTEInfeasibleError,
    RTEWeightOverflowError,
    choose_nmax,
    rte_bias_bound,
    rte_bias_log,
    rte_finite_lcu,
    sample_rte_overlaps_batch,
    sample_rte_unitary,
    segment_model,
)
from rqls.pauli import (
    _I_POWERS,
    PauliDecomposition,
    PauliString,
    _popcount_array,
    pauli_action,
)
from rqls.sampler import DRAW_BLOCK, AliasTable
from rqls.simulator import exact_evolution

from oracles import enumerate_segment, random_unit_decomposition


def test_segment_model_tau_zero():
    model = segment_model(0.0, 1, 4)
    assert model.alpha == pytest.approx(1.0)
    assert model.magnitudes[0] == pytest.approx(1.0)
    assert model.thetas[0] == 0.0
    assert model.probabilities[0] == pytest.approx(1.0)


def test_segment_model_unit_ratio():
    # tau / r = 1: d_0 = sqrt(2), theta_0 = pi/4
    model = segment_model(3.0, 3, 6)
    assert model.tau_over_r == pytest.approx(1.0)
    assert model.magnitudes[0] == pytest.approx(math.sqrt(2))
    assert model.thetas[0] == pytest.approx(math.pi / 4)
    # d_2 = (1/2!) * sqrt(1 + 1/9)
    assert model.magnitudes[1] == pytest.approx(0.5 * math.sqrt(1 + 1 / 9))


def test_segment_model_negative_tau_signed_angles():
    model = segment_model(-2.0, 2, 4)
    assert model.thetas[0] == pytest.approx(math.atan(-1.0))
    assert model.magnitudes[0] == pytest.approx(math.sqrt(2))


def test_alpha_power_r_bound():
    for tau, r in [(3.0, 4), (-5.0, 7), (10.0, 12)]:
        model = segment_model(tau, r, 30)
        assert model.alpha_power_r <= math.exp(tau**2 / r) + 1e-9


def test_alpha_power_r_overflow_is_typed():
    # t_max = 5580 is the paper's; r = t_max puts tau / r = 1
    model = segment_model(5580.0, 5580, 20)
    assert model.log_alpha_power_r == pytest.approx(5580 * math.log(model.alpha))
    with pytest.raises(RTEWeightOverflowError, match=r"log10 alpha\^r = 1661\.\d") as exc:
        model.alpha_power_r
    assert isinstance(exc.value, ValueError)
    assert exc.value.log10_alpha_power_r == pytest.approx(
        model.log_alpha_power_r / math.log(10)
    )
    small = segment_model(80.0, 100, 20)
    assert small.log_alpha_power_r == pytest.approx(math.log(small.alpha_power_r))


def test_odd_nmax_rounds_up():
    assert segment_model(1.0, 1, 3).n_max == 4


def test_nmax_clamp_warns():
    with pytest.warns(UserWarning):
        model = segment_model(1.0, 1, NMAX_UNDERFLOW_CLAMP + 2)
    assert model.n_max == NMAX_UNDERFLOW_CLAMP


def test_segment_model_validation():
    with pytest.raises(ValueError):
        segment_model(1.0, 0, 2)
    with pytest.raises(ValueError):
        segment_model(1.0, 1, -2)


def test_segment_expectation_is_finite_lcu():
    d = random_unit_decomposition(1, np.random.default_rng(0))
    model = segment_model(0.8, 1, 2)
    mean = enumerate_segment(d, model)
    assert np.abs(mean - rte_finite_lcu(d, model)).max() < 1e-12


def test_two_segment_expectation_is_lcu_squared():
    d = random_unit_decomposition(1, np.random.default_rng(1))
    model = segment_model(1.2, 2, 2)
    mean = enumerate_segment(d, model)
    lcu = rte_finite_lcu(d, model)
    assert np.abs(mean @ mean - lcu @ lcu).max() < 1e-11


def test_sampled_unitary_consistency():
    d = random_unit_decomposition(2, np.random.default_rng(2))
    model = segment_model(1.5, 3, 6)
    rng = np.random.default_rng(7)
    u = sample_rte_unitary(d, model, 3, rng)
    # the whole sample phase is a power of i
    assert u.phase in (1, 1j, -1, -1j)
    assert u.n_cp == 3
    # dense factor is unitary; the segment by segment rebuild is
    # test_unitary_is_ordered_product_of_drawn_terms
    g = u.dense_unitary @ u.dense_unitary.conj().T
    assert np.abs(g - np.eye(4)).max() < 1e-10


def test_sample_mean_matches_finite_lcu_power():
    # Monte Carlo over the per-sample path, small enough for a tight check
    d = random_unit_decomposition(1, np.random.default_rng(3))
    model = segment_model(1.0, 2, 2)
    rng = np.random.default_rng(11)
    dim = 2
    acc = np.zeros((dim, dim), dtype=complex)
    n = 40_000
    for _ in range(n):
        u = sample_rte_unitary(d, model, 2, rng)
        acc += u.phase * u.dense_unitary
    mean = model.alpha_power_r * acc / n
    lcu = rte_finite_lcu(d, model)
    assert np.abs(mean - lcu @ lcu).max() < 0.02


def test_batch_matches_finite_lcu():
    d = random_unit_decomposition(2, np.random.default_rng(4))
    r = 4
    model = segment_model(1.8, r, 6)
    rng = np.random.default_rng(5)
    dim = 4
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    phi /= np.linalg.norm(phi)
    n = 200_000
    vals = sample_rte_overlaps_batch(d, model, r, psi, phi, n, rng)
    est = model.alpha_power_r * vals.mean()
    lcu = rte_finite_lcu(d, model)
    target = phi.conj() @ np.linalg.matrix_power(lcu, r) @ psi
    # |phase * overlap| <= 1 so the scaled std err is alpha^r / sqrt(n)
    tol = 4 * model.alpha_power_r / math.sqrt(n)
    assert abs(est - target) < tol


def test_batch_matches_per_sample_distribution():
    d = random_unit_decomposition(1, np.random.default_rng(6))
    model = segment_model(0.7, 2, 4)
    psi = np.array([1.0, 0.0], dtype=complex)
    vals = sample_rte_overlaps_batch(
        d, model, 2, psi, psi, 5000, np.random.default_rng(8)
    )
    assert np.all(np.abs(vals) <= 1 + 1e-9)
    acc = 0j
    rng = np.random.default_rng(9)
    for _ in range(5000):
        u = sample_rte_unitary(d, model, 2, rng)
        acc += u.phase * (psi.conj() @ u.dense_unitary @ psi)
    assert abs(vals.mean() - acc / 5000) < 4 * 2 / math.sqrt(5000)


def test_estimator_tracks_exact_evolution():
    d = random_unit_decomposition(1, np.random.default_rng(10))
    tau, r = 2.0, 8
    model = segment_model(tau, r, 10)
    psi = np.array([1.0, 0.0], dtype=complex)
    vals = sample_rte_overlaps_batch(
        d, model, r, psi, psi, 100_000, np.random.default_rng(12)
    )
    est = model.alpha_power_r * vals.mean()
    truth = psi.conj() @ exact_evolution(d, tau) @ psi
    assert abs(est - truth) < 0.05


def test_bias_log_monotone():
    args = (100.0, 0.01, 10_100, 50.0, 1.9)
    logs = [rte_bias_log(*args, n_max) for n_max in (2, 6, 10, 20)]
    assert all(a > b for a, b in zip(logs, logs[1:]))
    # larger r also shrinks the bound
    assert rte_bias_log(100.0, 0.01, 40_000, 50.0, 1.9, 10) < logs[2]


def test_bias_bound_overflow_is_inf():
    assert rte_bias_bound(5000.0, 0.01, 5000, 1e4, 2.0, 2) == math.inf


def test_bias_requires_r_at_least_tmax():
    with pytest.raises(ValueError):
        rte_bias_log(100.0, 0.01, 50, 10.0, 1.9, 4)


def test_choose_nmax_moderate():
    n = choose_nmax(100.0, 0.01, 10_000, 50.0, 1.9, 1e-3)
    assert n % 2 == 0
    assert 2 <= n <= 20
    assert rte_bias_bound(100.0, 0.01, 10_000, 50.0, 1.9, n) < 1e-3 / 2


def test_choose_nmax_easy_case():
    # gigantic eps: the smallest truncation already suffices
    assert choose_nmax(2.0, 0.01, 1000, 2.0, 1.5, 10.0) == 2


def test_choose_nmax_infeasible():
    t_max = 5580.0
    with pytest.raises(RTEInfeasibleError) as exc:
        choose_nmax(t_max, 0.01, 5580, 1e4, 2.0, 1e-3)
    # the dominant e^{t_max^2 / r} = e^{t_max} prefactor
    assert exc.value.log_prefactor == pytest.approx(t_max, rel=0.01)
    assert exc.value.log10_prefactor == pytest.approx(
        t_max / math.log(10), rel=0.01
    )


# ---------------------------------------------------------------------------
# the frame fold against the per-segment fold it replaced, draw for draw

def documented_draws(d, model, r, n, rng):
    """(order index (n, r), flat prefix terms, rotation terms (n, r)),
    drawn in the order the batch sampler documents: blocks of
    max(1, DRAW_BLOCK // r) samples, each block its (order, rotation term)
    pairs from one joint table over their product law, then its prefix
    strings."""
    coeffs = np.array([c for c, _ in d.terms])
    q = np.abs(coeffs) / np.abs(coeffs).sum()
    terms = AliasTable(q)
    joint = AliasTable(np.outer(model.probabilities, q).ravel())
    step = max(1, DRAW_BLOCK // r)
    order_idx, pre, rot = [], [], []
    for i in range(0, n, step):
        m = min(step, n - i)
        o, l = np.divmod(joint.draw_batch(rng, m * r), len(q))
        pre.append(terms.draw_batch(rng, int(model.orders[o].sum())))
        rot.append(l.reshape(m, r))
        order_idx.append(o.reshape(m, r))
    return np.concatenate(order_idx), np.concatenate(pre), np.concatenate(rot)


def per_segment_fold(d, model, r, psi, phi, order_idx, draw, rot_idx):
    """The per-segment fold: each segment's prefix strings reduced to one
    string by `fold_in`, then prefix and rotation applied right to left."""
    n_samples = order_idx.shape[0]
    dim = 1 << d.n_qubits
    coeffs = np.array([c for c, _ in d.terms])
    xs = np.array([p.x_mask for _, p in d.terms], dtype=np.int64)
    zs = np.array([p.z_mask for _, p in d.terms], dtype=np.int64)
    signs = np.sign(coeffs)
    shape = (n_samples, r)
    orders = model.orders[order_idx]
    sign_parity = (orders % 4) // 2  # i^n = (-1)^(n/2) for even n
    flat_n = orders.ravel()
    ends = np.cumsum(flat_n)
    starts = ends - flat_n
    neg = (signs[draw] < 0).astype(np.int64)
    cum_neg = np.concatenate([[0], np.cumsum(neg)])
    sign_parity = sign_parity + (cum_neg[ends] - cum_neg[starts]).reshape(shape)
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

    live = np.nonzero(flat_n > 0)[0]
    pos = 0
    while len(live):
        d_idx = draw[starts[live] + pos]
        fold_in(live, xs[d_idx], zs[d_idx])
        pos += 1
        live = live[flat_n[live] > pos]
    acc_x = acc_x.reshape(shape)
    acc_z = acc_z.reshape(shape)
    phases = (1j ** (acc_e.reshape(shape) % 4)) * np.where(
        sign_parity % 2 == 1, -1.0, 1.0
    )
    src, phase_tab = d.action_tables()
    cos_t = np.cos(model.thetas)[order_idx]
    sin_t = np.sin(model.thetas)[order_idx] * signs[rot_idx]
    v = np.broadcast_to(psi.astype(complex), (n_samples, dim)).copy()
    for seg in range(r - 1, -1, -1):
        rot = rot_idx[:, seg]
        pv = phase_tab[rot] * np.take_along_axis(v, src[rot], axis=1)
        v = cos_t[:, seg, None] * v - 1j * sin_t[:, seg, None] * pv
        pre_src, pre_phase = pauli_action(d.n_qubits, acc_x[:, seg], acc_z[:, seg])
        v = pre_phase * np.take_along_axis(v, pre_src, axis=1)
    return phases.prod(axis=1) * (v @ phi.conj())


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
@pytest.mark.parametrize("tau, r", [(1.0, 3), (20.0, 100), (80.0, 100), (5.0, 1)])
def test_frame_fold_matches_per_segment_fold(n_qubits, tau, r):
    d = random_unit_decomposition(n_qubits, np.random.default_rng(20 + n_qubits))
    model = segment_model(tau, r, 20)
    rng = np.random.default_rng(21)
    dim = 1 << n_qubits
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    phi /= np.linalg.norm(phi)
    # more samples than one draw block at r = 100
    n = 200
    got = sample_rte_overlaps_batch(d, model, r, psi, phi, n, np.random.default_rng(22))
    draws = documented_draws(d, model, r, n, np.random.default_rng(22))
    want = per_segment_fold(d, model, r, psi, phi, *draws)
    assert np.abs(got - want).max() < 1e-12


@pytest.mark.parametrize("n_qubits", [1, 2, 3])
@pytest.mark.parametrize("tau, r", [(0.7, 1), (1.5, 3), (20.0, 100)])
def test_unitary_and_overlap_samplers_agree_draw_for_draw(n_qubits, tau, r):
    # both consume _frames(t, model, 1, rng): the unitary path folds the
    # identity columns, the overlap path folds psi alone
    d = random_unit_decomposition(n_qubits, np.random.default_rng(50 + n_qubits))
    model = segment_model(tau, r, 20)
    rng = np.random.default_rng(51)
    dim = 1 << n_qubits
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    phi /= np.linalg.norm(phi)
    for seed in range(20):
        u = sample_rte_unitary(d, model, r, np.random.default_rng(seed))
        want = sample_rte_overlaps_batch(d, model, r, psi, phi, 1, np.random.default_rng(seed))
        assert abs(u.phase * (phi.conj() @ u.dense_unitary @ psi) - want[0]) < 1e-12


@st.composite
def decompositions(draw):
    n = draw(st.integers(1, 3))
    strings = draw(st.lists(st.tuples(st.integers(0, (1 << n) - 1),
                                      st.integers(0, (1 << n) - 1)),
                            min_size=1, max_size=8, unique=True))
    coeffs = draw(st.lists(st.floats(0.05, 1.0) | st.floats(-1.0, -0.05),
                           min_size=len(strings), max_size=len(strings)))
    terms = tuple((c, PauliString(n, x, z)) for c, (x, z) in zip(coeffs, strings))
    return PauliDecomposition(n, terms).rescaled()


@settings(max_examples=60, deadline=None)
@given(d=decompositions(), tau=st.floats(-6.0, 6.0), r=st.integers(1, 6),
       n_max=st.integers(0, 6), seed=st.integers(0, 2**32 - 1))
@example(d=random_unit_decomposition(1, np.random.default_rng(31)), tau=0.7, r=1, n_max=0,
         seed=0)
@example(d=random_unit_decomposition(2, np.random.default_rng(32)), tau=0.7, r=1, n_max=2,
         seed=1)
@example(d=random_unit_decomposition(3, np.random.default_rng(33)), tau=-0.7, r=1, n_max=6,
         seed=2)
def test_unitary_is_ordered_product_of_drawn_terms(d, tau, r, n_max, seed):
    """phase * U equals the product, segment by segment, of
    i^n (sign c_l P_l for each prefix string) exp(-i theta Q) as dense
    matrices, built from the documented draws (r = 1 among the examples:
    a packed sweep of one entry)."""
    model = segment_model(tau, r, n_max)
    u = sample_rte_unitary(d, model, r, np.random.default_rng(seed))
    order_idx, pre, rot = documented_draws(d, model, r, 1, np.random.default_rng(seed))
    dim = 1 << d.n_qubits
    mats = [c / abs(c) * p.to_matrix() for c, p in d.terms]
    product = np.eye(dim, dtype=complex)
    k = 0
    for o, l in zip(order_idx[0], rot[0]):
        n = int(model.orders[o])
        for m in pre[k:k + n]:
            product = product @ (1j * mats[m])
        k += n
        theta = model.thetas[o] * np.sign(d.terms[l][0])
        product = product @ (math.cos(theta) * np.eye(dim)
                             - 1j * math.sin(theta) * d.terms[l][1].to_matrix())
    assert np.abs(u.phase * u.dense_unitary - product).max() < 1e-12


@pytest.mark.parametrize("n_qubits", [1, 2, 3, 4])
@pytest.mark.parametrize("tau, r, n_max", [(1.5, 3, 20), (-20.0, 100, 20), (-0.7, 1, 6)])
def test_code_table_rows_are_two_step_products(n_qubits, tau, r, n_max):
    # the whole code table of a model: row 2 (o n_terms + l) + f is exactly
    # the action row of term l gathered and then scaled in place by
    # tan(+-theta_o), as a fold step would form it from a term and a
    # tangent: same operands, same rounding
    d = random_unit_decomposition(n_qubits, np.random.default_rng(60 + n_qubits))
    assert min(c for c, _ in d.terms) < 0
    model = segment_model(tau, r, n_max)
    t = kernel_rte._term_tables(d)
    n_orders, n_terms = len(model.orders), len(t.xs)
    n_codes = 2 * n_orders * n_terms
    xs, coef = np.empty(n_codes, dtype=np.int64), np.empty((n_codes, 1 << n_qubits), dtype=complex)
    kernel_rte._code_rows(t, model.thetas, np.arange(n_codes), xs, coef)
    tan_pm = np.stack([np.tan(model.thetas), -np.tan(model.thetas)], axis=1).ravel()
    for o in range(n_orders):
        for l in range(n_terms):
            for f in (0, 1):
                code = 2 * (o * n_terms + l) + f
                c = t.coef.take([l], axis=0)
                c *= tan_pm[[2 * o + f]].reshape(-1, 1)
                assert (coef[code] == c[0]).all(), (o, l, f)
                assert xs[code] == t.xs[l]


# ---------------------------------------------------------------------------
# fold groups: pairs of (model, r, count) folded together

GROUP_PAIRS = ((5, 3), (1, 4), (200, 1), (3, 2), (1, 1), (40, 1), (1, 30))


@pytest.mark.parametrize("group_draws, sizes", [(None, [7]), (100, [2, 1, 4])])
def test_fold_groups_match_pair_by_pair(monkeypatch, group_draws, sizes):
    # groups are bounded by the bytes of their codes and table rows: at the
    # bytes of 100 draws with a row each, the r = 200 pair (its whole code
    # table, 128 rows) is a group of its own, and r = 1 pairs sit in mixed
    # groups; every sample is bit for bit what a fold of its pair alone gives
    check_fold_groups(monkeypatch, group_draws, sizes, 2)


@pytest.mark.parametrize("group_draws, sizes", [(None, [7]), (100, [2, 1, 4])])
def test_fold_groups_match_pair_by_pair_at_four_qubits(monkeypatch, group_draws, sizes):
    # at dim 16 numpy sums each row of the final contraction pairwise, in
    # the same order in any batch
    check_fold_groups(monkeypatch, group_draws, sizes, 4)


def check_fold_groups(monkeypatch, group_draws, sizes, n_qubits):
    if group_draws is not None:
        # an 8-byte code and a 16 dim-byte table row per draw
        monkeypatch.setattr(kernel_rte, "FOLD_GROUP_BYTES",
                            group_draws * (8 + 16 * (1 << n_qubits)))
    groups = []
    fold_group = kernel_rte._fold_group
    monkeypatch.setattr(kernel_rte, "_fold_group",
                        lambda d, group, *args: groups.append(len(group))
                        or fold_group(d, group, *args))
    d = random_unit_decomposition(n_qubits, np.random.default_rng(40))
    rng = np.random.default_rng(41)
    dim = 1 << n_qubits
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    phi /= np.linalg.norm(phi)
    pairs = [(segment_model(1.5, r, 6), count) for r, count in GROUP_PAIRS]
    e, raw = kernel_rte._frame_overlaps(d, pairs, psi, phi, np.random.default_rng(42))
    assert groups == sizes
    rng = np.random.default_rng(42)
    want = np.concatenate([sample_rte_overlaps_batch(d, model, model.r, psi, phi, count, rng)
                           for model, count in pairs])
    assert (_I_POWERS[e] * raw).tolist() == want.tolist()


def test_fold_group_memory_is_its_draws():
    # one long sample and many short ones: the packed layout holds
    # 1000 + 200 draws, where a (max r) x n rectangle holds 1000 x 201
    d = random_unit_decomposition(1, np.random.default_rng(43))
    psi = np.array([1, 0], dtype=complex)
    pairs = [(segment_model(2.0, 1000, 6), 1), (segment_model(0.5, 1, 6), 200)]
    kernel_rte._frame_overlaps(d, pairs, psi, psi, np.random.default_rng(0))  # warm caches
    rectangle_bytes = 1000 * 201 * 8  # one int64 segment code per draw
    tracemalloc.start()
    try:
        kernel_rte._frame_overlaps(d, pairs, psi, psi, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rectangle_bytes / 4, peak


def test_fold_group_memory_is_bounded_in_bytes():
    # 2000 pairs of r = 100 at 4 qubits, 200,000 draws: each pair has fewer
    # draws than codes (2 x 4 orders x 256 terms), so it gets a table row of
    # 256 bytes per draw.  Counting draws alone put them in one group of
    # 51 MB of rows (58.6 MB peak); counted in bytes, a group holds 2 MB
    # (2.6 MB peak measured)
    d = random_unit_decomposition(4, np.random.default_rng(44))
    psi = np.zeros(16, dtype=complex)
    psi[0] = 1
    pairs = [(segment_model(1.0, 100, 6), 1)] * 2000
    kernel_rte._frame_overlaps(d, pairs[:5], psi, psi, np.random.default_rng(0))  # warm caches
    tracemalloc.start()
    try:
        kernel_rte._frame_overlaps(d, pairs, psi, psi, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


@pytest.mark.parametrize("sampler", ["unitary", "batch"])
def test_samplers_reject_an_r_other_than_the_models(sampler):
    # r is read from the model; a second r of 7 would draw 7 segments of
    # tau/5 each, which the caller weights by the model's alpha^5
    d = random_unit_decomposition(1, np.random.default_rng(45))
    model = segment_model(1.0, 5, 6)
    psi = np.array([1, 0], dtype=complex)
    with pytest.raises(ValueError, match="r=7 differs from the model's r=5"):
        if sampler == "unitary":
            sample_rte_unitary(d, model, 7, np.random.default_rng(0))
        else:
            sample_rte_overlaps_batch(d, model, 7, psi, psi, 10, np.random.default_rng(0))
