import numpy as np
import pytest

from rqls.pauli import PauliDecomposition, materialize, pauli_decompose
from rqls.simulator import (
    StateVector,
    exact_evolution,
    hadamard_shot,
    spectrum,
)

from oracles import random_unit_decomposition

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def test_statevector_validation():
    with pytest.raises(ValueError):
        StateVector(np.ones(3) / np.sqrt(3))
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]))
    sv = StateVector.basis(2, 3)
    assert sv.amplitudes[3] == 1.0 and np.abs(sv.amplitudes).sum() == 1.0


def test_exact_evolution_tau_zero():
    d = random_unit_decomposition(2, np.random.default_rng(0))
    assert np.abs(exact_evolution(d, 0.0) - np.eye(4)).max() < 1e-14


def test_exact_evolution_single_pauli():
    d = pauli_decompose(X).rescaled()
    tau = 0.9
    expected = np.cos(tau) * np.eye(2) - 1j * np.sin(tau) * X
    assert np.abs(exact_evolution(d, tau) - expected).max() < 1e-13


def test_exact_evolution_group_law():
    d = random_unit_decomposition(2, np.random.default_rng(1))
    u = exact_evolution(d, 0.7) @ exact_evolution(d, 1.1)
    assert np.abs(u - exact_evolution(d, 1.8)).max() < 1e-12


def exact_overlap(phi, u, psi):
    """<phi|U|psi> as read by noise-free Hadamard shots."""
    rng = np.random.default_rng(0)
    return complex(hadamard_shot(phi, u, psi, "real", "exact", rng),
                   hadamard_shot(phi, u, psi, "imaginary", "exact", rng))


def test_overlap_identity():
    psi = StateVector.basis(1, 0)
    assert exact_overlap(psi, np.eye(2), psi) == pytest.approx(1.0)
    rng = np.random.default_rng(2)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    phi = StateVector(a / np.linalg.norm(a))
    psi = StateVector(b / np.linalg.norm(b))
    u = exact_evolution(random_unit_decomposition(2, rng), 1.3)
    # conjugate symmetry <phi|U|psi> = conj(<psi|U^dag|phi>)
    assert exact_overlap(phi, u, psi) == pytest.approx(
        np.conj(exact_overlap(psi, u.conj().T, phi))
    )


def test_overlap_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        hadamard_shot(StateVector.basis(1), np.eye(4), StateVector.basis(2), "real", "exact",
                      np.random.default_rng(0))


def test_hadamard_shot_exact_mode():
    psi = StateVector.basis(1, 0)
    u = exact_evolution(pauli_decompose(Z).rescaled(), 0.4)
    rng = np.random.default_rng(3)
    re = hadamard_shot(psi, u, psi, "real", "exact", rng)
    im = hadamard_shot(psi, u, psi, "imaginary", "exact", rng)
    assert re == pytest.approx(np.cos(0.4))
    assert im == pytest.approx(-np.sin(0.4))
    assert type(re) is float and type(im) is float


def test_hadamard_shot_bernoulli_deterministic_cases():
    psi = StateVector.basis(1, 0)
    rng = np.random.default_rng(4)
    # U = I, phi = psi: real part is exactly 1, every shot returns +1
    vals = [
        hadamard_shot(psi, np.eye(2), psi, "real", "bernoulli", rng)
        for _ in range(500)
    ]
    assert set(vals) == {1.0}
    # and its imaginary part is 0: shots are +-1 with mean near 0
    ims = np.array([
        hadamard_shot(psi, np.eye(2), psi, "imaginary", "bernoulli", rng)
        for _ in range(4000)
    ])
    assert set(np.unique(ims)) <= {-1.0, 1.0}
    assert abs(ims.mean()) < 4 / np.sqrt(4000)


def test_hadamard_shot_bernoulli_unbiased():
    psi = StateVector.basis(1, 0)
    u = exact_evolution(pauli_decompose(0.5 * X + 0.5 * Z).rescaled(), 1.2)
    v = exact_overlap(psi, u, psi).real
    rng = np.random.default_rng(5)
    n = 40_000
    vals = np.array([
        hadamard_shot(psi, u, psi, "real", "bernoulli", rng)
        for _ in range(n)
    ])
    assert abs(vals.mean() - v) < 4 / np.sqrt(n)


def test_hadamard_shot_gaussian_stats():
    psi = StateVector.basis(1, 0)
    rng = np.random.default_rng(6)
    n = 40_000
    vals = np.array([
        hadamard_shot(psi, np.eye(2), psi, "real", "gaussian", rng)
        for _ in range(n)
    ])
    assert vals.mean() == pytest.approx(1.0, abs=4 / np.sqrt(n))
    assert vals.std() == pytest.approx(1.0, abs=0.03)


def test_hadamard_shot_validation():
    psi = StateVector.basis(1, 0)
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError):
        hadamard_shot(psi, np.eye(2), psi, "abs", "exact", rng)
    with pytest.raises(ValueError):
        hadamard_shot(psi, np.eye(2), psi, "real", "poisson", rng)
    with pytest.raises(ValueError):
        hadamard_shot(psi, 2 * np.eye(2), psi, "real", "exact", rng)


def test_exact_evolution_spectrum_cached_per_decomposition():
    rng = np.random.default_rng(8)
    d1 = random_unit_decomposition(2, rng)
    d2 = random_unit_decomposition(2, rng)
    u1 = exact_evolution(d1, 0.6)
    # repeated calls, also with an equal decomposition built anew, agree
    # and reuse the first call's eigendecomposition
    hits = spectrum.cache_info().hits
    assert np.array_equal(exact_evolution(d1, 0.6), u1)
    copy = PauliDecomposition(d1.n_qubits, tuple(d1.terms))
    assert copy is not d1 and np.array_equal(exact_evolution(copy, 0.6), u1)
    assert spectrum.cache_info().hits == hits + 2
    # a second decomposition gets its own spectrum, not the first one's
    u2 = exact_evolution(d2, 0.6)
    expected = np.linalg.eigh(materialize(d2))
    ref = (expected[1] * np.exp(-0.6j * expected[0])) @ expected[1].conj().T
    assert np.abs(u2 - ref).max() < 1e-13
    assert np.abs(u2 - u1).max() > 1e-3
    evals, evecs = spectrum(d2)
    assert not evals.flags.writeable and not evecs.flags.writeable
    with pytest.raises(ValueError):
        evals[0] = 0.0
