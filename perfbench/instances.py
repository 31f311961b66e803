"""Test inputs made by the benchmark itself, apart from the program.

Every function here uses numpy only, so the inputs and the reference values
that the output checks compare against do not come from `rqls`.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

_PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def stream(seed: int, *key) -> np.random.Generator:
    """Generator keyed by (seed, *key); one key per input, so inputs do not
    shift when another input changes."""
    return np.random.default_rng(np.random.SeedSequence((seed, *key)))


def pauli_weight(a: np.ndarray) -> float:
    """sum_P |Tr(P a)| / dim over all Pauli strings, by Kronecker products."""
    dim = a.shape[0]
    n = dim.bit_length() - 1
    total = 0.0
    for text in itertools.product("IXYZ", repeat=n):
        total += abs(np.trace(pauli_matrix(text) @ a).real) / dim
    return total


def pauli_matrix(text) -> np.ndarray:
    """Dense Pauli string; character i acts on qubit i, the bit of weight
    2^i in the basis index (so the last character is the first Kronecker
    factor)."""
    return functools.reduce(np.kron, [_PAULIS[c] for c in reversed(text)])


@dataclass(frozen=True)
class Instance:
    """A Hermitian matrix with max |eig| = 1 and min |eig| = 1/kappa, and
    its Pauli weight lam."""

    matrix: np.ndarray
    kappa: float
    lam: float

    def truth(self) -> complex:
        """<0| A^{-1} |0> by dense solve."""
        e = np.zeros(self.matrix.shape[0], dtype=complex)
        e[0] = 1.0
        return complex(np.linalg.solve(self.matrix, e)[0])

    def overlaps(self, taus: np.ndarray) -> np.ndarray:
        """<0| exp(-i (A/lam) tau) |0> for each tau, by eigendecomposition."""
        evals, evecs = np.linalg.eigh(self.matrix / self.lam)
        return np.exp(-1j * np.multiply.outer(taus, evals)) @ np.abs(evecs[0]) ** 2


# Weight of |0> on the eigenvector of smallest |eigenvalue|: |<0|A^-1|0>| is
# then at least (2 W0 - 1) kappa, so a wrong estimate of 0 is far from the
# truth on every seed.
W0 = 0.9


def make_instance(rng: np.random.Generator, kappa_tilde: float, n_qubits: int = 2) -> Instance:
    """Random instance whose rescaled bound lam * kappa equals kappa_tilde.

    The eigenbasis (with |0> of weight W0 on the eigenvector of eigenvalue
    +-1/kappa), the eigenvalue signs and the interior eigenvalues come from
    rng; kappa is then found by bisection so that the Pauli weight times the
    condition number is kappa_tilde (at most, to the last bisection step).
    With kappa_star = kappa_tilde / lam the series, and so the grid (J, K),
    t_max and the sampled work, are the same for every seed: only the matrix
    and the Monte Carlo streams change.  Needs kappa_tilde >= dim, since
    lam <= dim whenever every |eig| <= 1.
    """
    dim = 1 << n_qubits
    if kappa_tilde < dim:
        raise ValueError("kappa_tilde must be at least the dimension")
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rest = g[1:, 0] / np.linalg.norm(g[1:, 0])
    g[:, 0] = np.concatenate([[math.sqrt(W0)], math.sqrt(1 - W0) * rest])
    q, r = np.linalg.qr(g)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    signs = np.where(rng.random(dim) < 0.5, -1.0, 1.0)
    fracs = rng.random(dim - 2)

    def matrix(kappa):
        mags = np.concatenate([[1.0 / kappa, 1.0], 1.0 / kappa + fracs * (1.0 - 1.0 / kappa)])
        a = (u * (mags * signs)) @ u.conj().T
        return (a + a.conj().T) / 2

    lo, hi = 1.0, float(kappa_tilde)
    for _ in range(60):
        mid = (lo + hi) / 2
        if mid * pauli_weight(matrix(mid)) <= kappa_tilde:
            lo = mid
        else:
            hi = mid
    a = matrix(lo)
    return Instance(a, lo, pauli_weight(a))


def uniform_domain_points(rng: np.random.Generator, kappa_tilde: float, n: int) -> np.ndarray:
    """The two inner edges +-1/kt, then n - 2 points uniform on
    [-1, -1/kt] U [1/kt, 1]."""
    mags = rng.uniform(1.0 / kappa_tilde, 1.0, size=n - 2)
    signs = np.where(rng.random(n - 2) < 0.5, -1.0, 1.0)
    return np.concatenate([[1.0 / kappa_tilde, -1.0 / kappa_tilde], signs * mags])


def rte_alpha(x, n_max: int):
    """One-norm of the even-order Taylor LCU of one segment exp(-i A x):
    sum over even n <= n_max of |x|^n / n! * sqrt(1 + (x / (n + 1))^2).
    Elementwise for an array x."""
    x = np.asarray(x, dtype=float)
    return sum(
        np.abs(x) ** n / math.factorial(n) * np.sqrt(1 + (x / (n + 1)) ** 2)
        for n in range(0, n_max + 1, 2)
    )


def rte_segment_remainder(x: np.ndarray, n_max: int) -> np.ndarray:
    """Bound on || S(x) - exp(-i A x) || for unit-weight A, where S is the
    Taylor sum through order n_max + 1: |x|^(n_max+2)/(n_max+2)! e^|x|."""
    ax = np.abs(x)
    return ax ** (n_max + 2) / math.factorial(n_max + 2) * np.exp(ax)


def strang_overlaps(terms, taus: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """<0| S(tau/r)^r |0> for each (tau, r), with S the symmetric Strang step
    prod_l exp(-i c_l P_l dt/2) prod_l' exp(-i c_l' P_l' dt/2) (l forward,
    l' backward) over the unit-weight terms [(c_l, Pauli text)], in the order
    given.  Batched numpy, powers by repeated squaring."""
    taus = np.asarray(taus, dtype=float)
    rs = np.asarray(rs, dtype=np.int64)
    mats = [pauli_matrix(text) for _, text in terms]
    dim = mats[0].shape[0]
    eye = np.eye(dim, dtype=complex)
    dt = taus / rs
    step = np.broadcast_to(eye, (len(taus), dim, dim)).copy()
    for c, p in [*zip((c for c, _ in terms), mats), *reversed(list(zip((c for c, _ in terms), mats)))]:
        angle = (c * dt / 2)[:, None, None]
        step = step @ (np.cos(angle) * eye - 1j * np.sin(angle) * p)
    out = np.broadcast_to(eye, step.shape).copy()
    e = rs.copy()
    while np.any(e > 0):
        odd = (e & 1).astype(bool)
        out[odd] = out[odd] @ step[odd]
        step = step @ step
        e >>= 1
    return out[:, 0, 0]
