"""Scalar and dense references that several test modules check the program
against: Pauli matrices from Kronecker products, the two-string Pauli
product, the series' l1 norms by direct summation, and the exhaustive mean
of one RTE segment."""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from rqls.fourier import SQRT_2PI
from rqls.pauli import PauliString, pauli_decompose

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


def random_unit_decomposition(n, rng):
    dim = 1 << n
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return pauli_decompose((m + m.conj().T) / 2).rescaled()


@dataclass(frozen=True)
class PhasedPauli:
    """A Pauli string with an attached fourth-root-of-unity phase."""

    phase: complex
    string: PauliString

    def __post_init__(self):
        if self.phase not in (1, -1, 1j, -1j):
            raise ValueError("phase must be a fourth root of unity")


def pauli_product(a: PhasedPauli, b: PhasedPauli) -> PhasedPauli:
    """Product a*b with exact phase tracking (Aaronson and Gottesman's
    symplectic rule).

    Uses the canonical form P = i^{popcount(x&z)} X^x Z^z; the phase picked
    up by commuting Z^{a_z} past X^{b_x} is (-1)^{popcount(a_z & b_x)}.
    """
    sa, sb = a.string, b.string
    if sa.n_qubits != sb.n_qubits:
        raise ValueError("mismatched qubit counts")
    cx = sa.x_mask ^ sb.x_mask
    cz = sa.z_mask ^ sb.z_mask
    e = (
        (sa.x_mask & sa.z_mask).bit_count()
        + (sb.x_mask & sb.z_mask).bit_count()
        - (cx & cz).bit_count()
        + 2 * (sa.z_mask & sb.x_mask).bit_count()
    ) % 4
    # complex ** is inexact; use an exact lookup for i^e
    phase = a.phase * b.phase * (1, 1j, -1, -1j)[e]
    phase = {1: 1, -1: -1, 1j: 1j, -1j: -1j}[complex(round(phase.real), round(phase.imag))]
    return PhasedPauli(phase, PauliString(sa.n_qubits, cx, cz))


def commutes(a: PauliString, b: PauliString) -> bool:
    """Symplectic-form commutation check (no dense matrices)."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("mismatched qubit counts")
    s = (a.x_mask & b.z_mask).bit_count() + (a.z_mask & b.x_mask).bit_count()
    return s % 2 == 0


def normalization(series):
    """(N_y, N_z) summed from the grid: sum |wy_j| / sqrt(2 pi) and
    sum_k dz |z_k| exp(-z_k^2 / 2)."""
    grid = series.grid
    n_y = float(np.abs(grid.wy_weights).sum() / SQRT_2PI)
    n_z = float(np.abs(grid.delta_z * grid.z_nodes * np.exp(-grid.z_nodes**2 / 2)).sum())
    return n_y, n_z


def enumerate_segment(d, model):
    """alpha * E[phase * U] summed over every (order, Pauli draw) outcome of
    one segment; must reproduce the finite LCU matrix."""
    coeffs = np.array([c for c, _ in d.terms])
    p_pauli = np.abs(coeffs) / np.abs(coeffs).sum()
    mats = [p.to_matrix() for _, p in d.terms]
    dim = mats[0].shape[0]
    total = np.zeros((dim, dim), dtype=complex)
    for i_n, n in enumerate(model.orders):
        p_n = model.probabilities[i_n]
        for idx in itertools.product(range(len(mats)), repeat=int(n) + 1):
            prob = p_n * np.prod(p_pauli[list(idx)])
            prefix = np.eye(dim, dtype=complex)
            phase = (1, 1j, -1, -1j)[n % 4]
            for l in idx[:-1]:
                prefix = prefix @ mats[l]
                if coeffs[l] < 0:
                    phase = -phase
            theta = model.thetas[i_n] * (1.0 if coeffs[idx[-1]] >= 0 else -1.0)
            rot = math.cos(theta) * np.eye(dim) - 1j * math.sin(theta) * mats[idx[-1]]
            total += prob * phase * (prefix @ rot)
    return model.alpha * total
