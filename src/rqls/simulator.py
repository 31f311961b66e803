"""Dense statevector evaluation of overlaps and single-shot Hadamard tests."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .pauli import PauliDecomposition, materialize

EXACT_EVOLUTION_QUBIT_GUARD = 10
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


@dataclass(frozen=True)
class ShotOutcome:
    value: float
    part: str  # "real" or "imaginary"


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
    if d.n_qubits > EXACT_EVOLUTION_QUBIT_GUARD:
        raise ValueError(f"n_qubits={d.n_qubits} exceeds dense guard")
    evals, evecs = spectrum(d)
    return (evecs * np.exp(-1j * tau * evals)) @ evecs.conj().T


def overlap(phi: StateVector, unitary: np.ndarray, psi: StateVector) -> complex:
    """<phi| U |psi>."""
    if unitary.shape != (len(phi.amplitudes), len(psi.amplitudes)):
        raise ValueError("dimension mismatch")
    return complex(phi.amplitudes.conj() @ unitary @ psi.amplitudes)


def hadamard_shot(
    phi: StateVector,
    unitary: np.ndarray,
    psi: StateVector,
    part: str,
    noise_mode: str,
    rng: np.random.Generator,
) -> ShotOutcome:
    """One shot estimating Re or Im <phi|U|psi>.

    bernoulli: the faithful +-1 outcome with P(+1) = (1 + v)/2;
    gaussian: v plus a standard-normal draw (conservative shot surrogate);
    exact: v itself.  All three are unbiased for v.
    """
    if part not in ("real", "imaginary"):
        raise ValueError(f"unknown part {part!r}")
    if noise_mode not in NOISE_MODES:
        raise ValueError(f"unknown noise mode {noise_mode!r}")
    v = overlap(phi, unitary, psi)
    v = v.real if part == "real" else v.imag
    if abs(v) > 1 + 1e-9:
        raise ValueError(f"|overlap part| = {abs(v)} > 1: non-unitary kernel?")
    if noise_mode == "bernoulli":
        value = 1.0 if rng.random() < (1 + v) / 2 else -1.0
    elif noise_mode == "gaussian":
        value = v + rng.standard_normal()
    else:
        value = v
    return ShotOutcome(float(value), part)
