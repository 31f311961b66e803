"""The batched Pauli engine: action tables, popcount, and Strang products
against dense oracles built from Kronecker products of text Paulis."""

import math

import numpy as np
import pytest

from rqls import kernel_pf
from rqls.estimator import KernelConfig, Problem, overlap_table_pf
from rqls.fourier import build_series
from rqls.kernel_pf import build_pf, step_rotations, strang_unitaries
from rqls.pauli import _popcount_array, pauli_decompose
from rqls.randmat import gen_matrix
from rqls.simulator import StateVector

SINGLE = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_from_text(text):
    m = SINGLE[text[0]]
    for ch in text[1:]:
        m = np.kron(SINGLE[ch], m)  # leftmost char is qubit 0
    return m


def oracle_strang(d, tau, r):
    """S(tau/r)^r from cos(a) I - i sin(a) P per rotation, P by Kronecker
    products, and np.linalg.matrix_power."""
    dim = 1 << d.n_qubits
    step = np.eye(dim, dtype=complex)
    for p, angle in step_rotations(d, tau / r):
        rot = math.cos(angle) * np.eye(dim) - 1j * math.sin(angle) * dense_from_text(p.to_text())
        step = step @ rot
    return np.linalg.matrix_power(step, r)


def random_unit_decomposition(n, rng):
    dim = 1 << n
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return pauli_decompose((m + m.conj().T) / 2).rescaled()


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
    chunk = kernel_pf.STRANG_CHUNK_ENTRIES // 4
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
    assert strang_unitaries(d, [], []).shape == (0, 2, 2)
    with pytest.raises(ValueError):
        strang_unitaries(d, [1.0, 2.0], [3])
    with pytest.raises(ValueError):
        strang_unitaries(d, [1.0], [0])


def test_build_pf_is_single_element_batch():
    d = random_unit_decomposition(2, np.random.default_rng(10))
    plan = build_pf(d, -2.3, 7)
    assert np.array_equal(plan.dense_unitary, strang_unitaries(d, [-2.3], [7])[0])


def test_popcount_fallback_matches_bitwise_count(monkeypatch):
    if not hasattr(np, "bitwise_count"):
        pytest.skip("numpy without bitwise_count: the fallback is the only path")
    v = np.random.default_rng(11).integers(0, 2**62, size=1000, dtype=np.int64)
    v[:3] = [0, 1, 2**62 - 1]
    expected = np.bitwise_count(v)
    monkeypatch.delattr(np, "bitwise_count")
    got = _popcount_array(v)
    assert np.array_equal(got, expected)


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
