"""Dense statevector evaluation of overlaps and single-shot Hadamard tests."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .pauli import STATEVECTOR_QUBIT_GUARD, PauliDecomposition, materialize

SPECTRUM_CACHE_SIZE = 8

NOISE_MODES = ("bernoulli", "gaussian", "exact")


@dataclass(frozen=True)
class StateVector:
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        n = len(amps)
        if n & (n - 1) or n == 0:
            raise ValueError("statevector length must be a power of two")
        if abs(np.linalg.norm(amps) - 1.0) > 1e-10:
            raise ValueError("statevector is not normalized")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def basis(cls, n_qubits: int, index: int = 0) -> "StateVector":
        amps = np.zeros(1 << n_qubits, dtype=complex)
        amps[index] = 1.0
        return cls(amps)


@functools.lru_cache(maxsize=SPECTRUM_CACHE_SIZE)
def spectrum(d: PauliDecomposition):
    """Read-only (eigenvalues, eigenvectors) of materialize(d), computed
    once per distinct decomposition (decompositions compare by value)."""
    evals, evecs = np.linalg.eigh(materialize(d))
    evals.flags.writeable = False
    evecs.flags.writeable = False
    return evals, evecs


def exact_evolution(d: PauliDecomposition, tau: float) -> np.ndarray:
    """exp(-i * materialize(d) * tau) via Hermitian eigendecomposition."""
    if d.n_qubits > STATEVECTOR_QUBIT_GUARD:
        raise ValueError(f"n_qubits={d.n_qubits} exceeds dense guard")
    evals, evecs = spectrum(d)
    return (evecs * np.exp(-1j * tau * evals)) @ evecs.conj().T


def shots(v: np.ndarray, noise_mode: str, rng: np.random.Generator) -> np.ndarray:
    """One Hadamard-test shot for each real overlap part in v, elementwise.

    bernoulli: the faithful +-1 outcome with P(+1) = (1 + v)/2;
    gaussian: v plus a standard-normal draw (conservative shot surrogate),
    added in place; exact: v itself.  All three are unbiased for v.
    """
    if noise_mode not in NOISE_MODES:
        raise ValueError(f"unknown noise mode {noise_mode!r}")
    worst = np.abs(v).max()
    if worst > 1 + 1e-9:
        raise ValueError(f"|overlap part| = {worst} > 1: non-unitary kernel?")
    if noise_mode == "bernoulli":
        return np.where(rng.random(len(v)) < (1 + v) / 2, 1.0, -1.0)
    if noise_mode == "gaussian":
        v += rng.standard_normal(len(v))
    return v


def hadamard_shot(
    phi: StateVector,
    unitary: np.ndarray,
    psi: StateVector,
    part: str,
    noise_mode: str,
    rng: np.random.Generator,
) -> float:
    """One shot estimating Re or Im <phi|U|psi>: `shots` of that one part."""
    if part not in ("real", "imaginary"):
        raise ValueError(f"unknown part {part!r}")
    if unitary.shape != (len(phi.amplitudes), len(psi.amplitudes)):
        raise ValueError("dimension mismatch")
    v = complex(phi.amplitudes.conj() @ unitary @ psi.amplitudes)
    v = v.real if part == "real" else v.imag
    return float(shots(np.array([v]), noise_mode, rng)[0])
