"""The batched Pauli engine: action tables, popcount, and Strang products
against dense oracles built from Kronecker products of text Paulis."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqls import kernel_pf
from rqls.estimator import KernelConfig, Problem, overlap_table_pf
from rqls.fourier import build_series
from rqls.kernel_pf import build_pf, step_rotations, strang_overlaps
from rqls.pauli import (
    PauliDecomposition,
    PauliString,
    _popcount_array,
    _product_exponent,
    commutator_constant,
)
from rqls.randmat import gen_matrix
from rqls.simulator import StateVector, exact_evolution

from oracles import (
    PhasedPauli,
    commutes,
    dense_from_text,
    pauli_product,
    random_unit_decomposition,
)


def oracle_strang(d, tau, r):
    """S(tau/r)^r from cos(a) I - i sin(a) P per rotation, P by Kronecker
    products, and np.linalg.matrix_power."""
    dim = 1 << d.n_qubits
    step = np.eye(dim, dtype=complex)
    for p, angle in step_rotations(d, tau / r):
        rot = math.cos(angle) * np.eye(dim) - 1j * math.sin(angle) * dense_from_text(p.to_text())
        step = step @ rot
    return np.linalg.matrix_power(step, r)


def strang_unitaries(d, taus, rs):
    """S(tau_i/r_i)^{r_i} per pair, shape (n, dim, dim): entry (i, j) is
    strang_overlaps on the basis vectors e_j and e_i, which read it off
    exactly."""
    eye = np.eye(1 << d.n_qubits)
    rows = [[strang_overlaps(d, taus, rs, e_j, e_i) for e_j in eye] for e_i in eye]
    return np.moveaxis(np.array(rows), -1, 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_strang_unitaries_match_oracle(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(3):
        d = random_unit_decomposition(n, rng)
        rs = rng.permutation(np.repeat([1, 2, 5, 1000], 3))
        taus = rng.uniform(-6.0, 6.0, size=len(rs))
        got = strang_unitaries(d, taus, rs)
        assert got.shape == (len(rs), 1 << n, 1 << n)
        for u, tau, r in zip(got, taus, rs):
            assert np.abs(u - oracle_strang(d, tau, int(r))).max() < 1e-12


def test_strang_unitaries_across_chunk_boundary():
    # one element more than a chunk holds: the tail lands in a second chunk
    d = random_unit_decomposition(1, np.random.default_rng(7))
    chunk = kernel_pf.STRANG_CHUNK_ENTRIES // (4 + 2 * (2 * d.L - 1))
    n = chunk + 1
    rng = np.random.default_rng(8)
    taus = rng.uniform(-3.0, 3.0, size=n)
    rs = rng.integers(1, 9, size=n)
    got = strang_unitaries(d, taus, rs)
    picks = np.concatenate([[0, chunk - 1, chunk], rng.integers(0, n, size=40)])
    for i in picks:
        single = strang_unitaries(d, taus[i : i + 1], rs[i : i + 1])[0]
        assert np.abs(got[i] - single).max() < 1e-14


def test_strang_unitaries_validation():
    d = random_unit_decomposition(1, np.random.default_rng(9))
    e0 = np.eye(2)[0]
    assert strang_overlaps(d, [], [], e0, e0).shape == (0,)
    with pytest.raises(ValueError):
        strang_overlaps(d, [1.0, 2.0], [3], e0, e0)
    with pytest.raises(ValueError):
        strang_overlaps(d, [1.0], [0], e0, e0)


def test_build_pf_is_single_element_batch():
    d = random_unit_decomposition(2, np.random.default_rng(10))
    plan = build_pf(d, -2.3, 7)
    assert np.array_equal(plan.dense_unitary, strang_unitaries(d, [-2.3], [7])[0])


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 4), data=st.data())
def test_product_exponent_matches_pauli_product(n, data):
    # groups of canonical strings, multiplied left to right
    string = st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))
    groups = data.draw(st.lists(st.lists(string, max_size=7), min_size=1, max_size=5))
    flat = [s for g in groups for s in g]
    x = np.array([s[0] for s in flat], dtype=np.int64)
    z = np.array([s[1] for s in flat], dtype=np.int64)
    bounds = np.cumsum([0] + [len(g) for g in groups])
    e, cx, cz = _product_exponent(x, z, bounds)
    for g, e_g, lo, hi in zip(groups, e, bounds[:-1], bounds[1:]):
        acc = PhasedPauli(1, PauliString(n, 0, 0))
        for sx, sz in g:
            acc = pauli_product(acc, PhasedPauli(1, PauliString(n, sx, sz)))
        assert acc.phase == (1, 1j, -1, -1j)[e_g]
        assert (cx[hi] ^ cx[lo], cz[hi] ^ cz[lo]) == (acc.string.x_mask, acc.string.z_mask)


def test_popcount_fallback_matches_bitwise_count(monkeypatch):
    if not hasattr(np, "bitwise_count"):
        pytest.skip("numpy without bitwise_count: the fallback is the only path")
    v = np.random.default_rng(11).integers(0, 2**62, size=1000, dtype=np.int64)
    v[:3] = [0, 1, 2**62 - 1]
    expected = np.bitwise_count(v)
    assert _popcount_array(v).dtype == np.int64  # bitwise_count gives uint8
    monkeypatch.delattr(np, "bitwise_count")
    got = _popcount_array(v)
    assert np.array_equal(got, expected)
    assert got.dtype == np.int64


def per_pair_reference(problem, config, pairs):
    d = problem.unit_decomposition
    grid = problem.series.grid
    phi, psi = problem.phi.amplitudes.conj(), problem.psi.amplitudes
    out = []
    for j, k in pairs:
        tau = float(grid.y_nodes[j] * grid.z_nodes[k])
        out.append(phi @ oracle_strang(d, tau, config.r_for(tau)) @ psi)
    return np.array(out)


def estimator_problem():
    # the test_estimator fixture: 2 qubits, kappa = 10, eps = 5e-3, seed 0
    rng = np.random.default_rng(0)
    art = gen_matrix(2, 10.0, rng)
    series = build_series(10.0, art.lam, 5e-3, 5e-3)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return Problem(art.decomposition, StateVector(a / np.linalg.norm(a)),
                   StateVector(b / np.linalg.norm(b)), series)


def criterion_7_problem():
    rng = np.random.default_rng(np.random.SeedSequence((77, 0)))
    art = gen_matrix(2, 10.0, rng)
    series = build_series(10.0, art.lam, 1e-2, 1e-2)
    psi = StateVector.basis(2, 0)
    return Problem(art.decomposition, psi, psi, series)


@pytest.mark.parametrize("make_problem", [estimator_problem, criterion_7_problem])
@pytest.mark.parametrize(
    "config", [KernelConfig("pf", r_fixed=5), KernelConfig("pf", r_quadratic=0.1)]
)
def test_overlap_table_pf_matches_per_pair_reference(make_problem, config):
    problem = make_problem()
    table = overlap_table_pf(problem, config)
    grid = problem.series.grid
    assert table.shape == (grid.J, grid.K)
    taus = np.multiply.outer(grid.y_nodes, grid.z_nodes)
    rs = np.vectorize(config.r_for)(taus)
    # every pair with r <= 1000 is eligible; keep the largest such r and a
    # random sample of the rest
    eligible = np.argwhere(rs <= 1000)
    largest = eligible[np.argmax(rs[tuple(eligible.T)])]
    rng = np.random.default_rng(12)
    picks = eligible[rng.choice(len(eligible), size=150, replace=False)]
    pairs = [tuple(largest)] + [tuple(p) for p in picks]
    ref = per_pair_reference(problem, config, pairs)
    got = np.array([table[j, k] for j, k in pairs])
    assert np.abs(got - ref).max() < 1e-12


def scalar_r(config, tau):
    """The r policies evaluated one Python float at a time."""
    if config.kernel == "exact":
        return 1
    if config.r_fixed > 0:
        return config.r_fixed
    if config.r_quadratic > 0:
        r = max(1, math.ceil(config.r_quadratic * tau * tau))
        if config.kernel == "rte":
            r = max(r, math.ceil(abs(tau)))
        return r
    if config.f == 0:
        return 1
    return max(1, math.ceil(math.sqrt(config.f * abs(tau) ** 3 / config.eps_pf)))


@pytest.mark.parametrize("make_problem", [estimator_problem, criterion_7_problem])
@pytest.mark.parametrize("config", [
    KernelConfig("exact"),
    KernelConfig("pf", r_fixed=5),
    KernelConfig("pf", r_quadratic=0.1),
    KernelConfig("rte", r_quadratic=0.01, n_max=4),
    KernelConfig("pf", f=0.37, eps_pf=1e-3),
])
def test_r_for_array_matches_scalar(make_problem, config):
    grid = make_problem().series.grid
    taus = np.multiply.outer(grid.y_nodes, grid.z_nodes)
    rs = config.r_for(taus)
    assert rs.dtype == np.int64 and rs.shape == taus.shape
    want = [scalar_r(config, float(t)) for t in taus.ravel()]
    assert rs.ravel().tolist() == want
    assert [config.r_for(float(t)) for t in taus.ravel()[::97]] == want[::97]
    assert all(type(config.r_for(float(t))) is int for t in taus.ravel()[:5])


def test_overlap_table_pf_memory_is_table_plus_one_chunk(monkeypatch):
    # peak allocation is a few copies of the (J, K) table (taus, r values,
    # the table itself) plus one chunk of products, at any grid size
    monkeypatch.setattr(kernel_pf, "STRANG_CHUNK_ENTRIES", 1 << 12)
    chunk_bytes = 8 * 16 * kernel_pf.STRANG_CHUNK_ENTRIES
    rng = np.random.default_rng(np.random.SeedSequence((77, 0)))
    art = gen_matrix(2, 10.0, rng)
    psi = StateVector.basis(2, 0)
    config = KernelConfig("pf", r_fixed=5)
    for eps in (1e-1, 1e-2):
        problem = Problem(art.decomposition, psi, psi, build_series(10.0, art.lam, eps, eps))
        tracemalloc.start()
        try:
            table = overlap_table_pf(problem, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * table.nbytes + chunk_bytes, (table.shape, peak)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4), data=st.data())
def test_commutes_with_matches_dense(n, data):
    mask = st.integers(0, (1 << n) - 1)
    a, b = (PauliString(n, data.draw(mask), data.draw(mask)) for _ in range(2))
    ma, mb = dense_from_text(a.to_text()), dense_from_text(b.to_text())
    # Pauli strings either commute or anticommute, exactly
    assert np.array_equal(ma @ mb, mb @ ma) == commutes(a, b)
    assert np.array_equal(ma @ mb, -(mb @ ma)) != commutes(a, b)


@st.composite
def small_decompositions(draw, max_qubits=3):
    n = draw(st.integers(1, max_qubits))
    mask = st.integers(0, (1 << n) - 1)
    strings = draw(st.lists(st.tuples(mask, mask), min_size=1, max_size=6, unique=True))
    coeffs = draw(st.lists(st.floats(0.05, 1.0) | st.floats(-1.0, -0.05),
                           min_size=len(strings), max_size=len(strings)))
    terms = tuple((c, PauliString(n, x, z)) for c, (x, z) in zip(coeffs, strings))
    return PauliDecomposition(n, terms).rescaled()


@settings(max_examples=80, deadline=None)
@given(d=small_decompositions(), tau=st.floats(-4.0, 4.0), r=st.integers(1, 8))
def test_pf_error_within_commutator_bound(d, tau, r):
    # the second-order product-formula bound ||S(tau/r)^r - e^{-i A tau}||_2
    # <= f |tau|^3 / r^2 that the pf bias bound and certified r rest on
    err = np.linalg.norm(build_pf(d, tau, r).dense_unitary - exact_evolution(d, tau), 2)
    assert err <= commutator_constant(d) * abs(tau) ** 3 / r**2 + 1e-12


def dense_commutator_constants(d):
    """f = sum_l ||[A_{>=l}, C_l]||/12 + ||C_l||/24, C_l = [A_{>l}, A_l], from
    Kronecker-product matrices of the terms: (spectral norm, Pauli one-norm
    sum_P |Tr(P^dag M)| / dim)."""
    dim = 1 << d.n_qubits
    basis = np.array([dense_from_text(PauliString(d.n_qubits, x, z).to_text())
                      for x in range(dim) for z in range(dim)])
    mats = [c * dense_from_text(p.to_text()) for c, p in d.terms]
    zero = np.zeros_like(mats[0])

    def comm(a, b):
        return a @ b - b @ a

    def one_norm(m):
        return np.abs(np.einsum("kij,ij->k", basis.conj(), m)).sum() / dim

    exact = loose = 0.0
    for l0 in range(len(mats)):
        inner = comm(sum(mats[l0 + 1:], zero), mats[l0])
        outer = comm(sum(mats[l0:], zero), inner)
        exact += np.linalg.norm(outer, 2) / 12 + np.linalg.norm(inner, 2) / 24
        loose += one_norm(outer) / 12 + one_norm(inner) / 24
    return exact, loose


def assert_commutator_constants(d):
    exact, loose = dense_commutator_constants(d)
    f, f_loose = commutator_constant(d), commutator_constant(d, loose=True)
    assert f == pytest.approx(exact, rel=1e-10, abs=1e-12)
    assert f_loose == pytest.approx(loose, rel=1e-10, abs=1e-12)
    assert f_loose >= f * (1 - 1e-12)


@settings(max_examples=60, deadline=None)
@given(d=small_decompositions(max_qubits=4))
def test_commutator_constant_matches_dense_nested_commutators(d):
    assert_commutator_constants(d)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_commutator_constant_of_full_decomposition_matches_dense(n):
    # every string present, so distinct pairs of the outer commutator land on
    # the same string and must be merged before the one-norm is taken
    assert_commutator_constants(random_unit_decomposition(n, np.random.default_rng(n)))


def test_commutator_constant_guard_only_for_anticommuting_sets():
    n = 9  # above COMMUTATOR_QUBIT_GUARD
    z_family = [PauliString(n, 0, 1 << q) for q in range(n)]
    z_family += [PauliString(n, 0, 3 << q) for q in range(n - 1)]
    d = PauliDecomposition(n, tuple((1.0, p) for p in z_family)).rescaled()
    assert commutator_constant(d) == 0.0
    assert commutator_constant(d, loose=True) == 0.0
    # 0.5 X + 0.5 Z on qubit 0: the same f as on one qubit
    pair = PauliDecomposition(n, ((0.5, PauliString(n, 1, 0)), (0.5, PauliString(n, 0, 1))))
    with pytest.raises(ValueError, match="guard"):
        commutator_constant(pair)
    one = PauliDecomposition(1, ((0.5, PauliString(1, 1, 0)), (0.5, PauliString(1, 0, 1))))
    f_loose = commutator_constant(pair, loose=True)
    assert math.isfinite(f_loose) and f_loose > 0
    assert f_loose == commutator_constant(one, loose=True)
