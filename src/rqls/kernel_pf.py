"""Second-order (Strang) product-formula kernel with certified step counts.

One step over dt = tau/r is the symmetric sweep: half-angle rotations for
terms 0..L-2, a full-angle rotation for term L-1, then the mirrored half
sweep.  The two adjacent half-angles of the last term are merged, so a step
stores 2L-1 rotations; the reported non-Clifford count stays 2L per step
(2rL per sample), matching the unmerged circuit accounting.

`strang_overlaps` builds S(tau/r)^r for many (tau, r) pairs at once: the
merged step for the whole batch from one Pauli action table, then each
step raised to its own r by batched binary exponentiation, and contracts
each chunk of those products with two states as it is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import PauliDecomposition

PF_DENSE_QUBIT_GUARD = 10
# entries (steps plus rotation coefficients) of one batch held at a time
STRANG_CHUNK_ENTRIES = 1 << 20


def trotter_number(f: float, tau, eps_pf: float):
    """Smallest certified Trotter number: max(1, ceil(sqrt(f |tau|^3 / eps))).

    An int for a scalar tau, an int64 array elementwise for an array.
    """
    if f < 0:
        raise ValueError("f must be nonnegative")
    if eps_pf <= 0:
        raise ValueError("eps_pf must be positive")
    t = np.asarray(tau, dtype=float)
    r = np.maximum(1, np.ceil(np.sqrt(f * np.abs(t) ** 3 / eps_pf))).astype(np.int64)
    return int(r) if r.ndim == 0 else r


@dataclass(frozen=True)
class PFPlan:
    r: int
    rotation_sequence: tuple  # ((PauliString, angle), ...) for one step
    n_cp_per_sample: int
    dense_unitary: np.ndarray


def _step_order(big_l: int):
    """(term index, angle fraction of c_l dt) for the 2L-1 merged rotations."""
    half = list(range(big_l - 1))
    terms = half + [big_l - 1] + half[::-1]
    fractions = [0.5] * (big_l - 1) + [1.0] + [0.5] * (big_l - 1)
    return terms, fractions


def step_rotations(d: PauliDecomposition, dt: float):
    """Merged Strang rotation list for one step of length dt (unit weight d)."""
    terms, fractions = _step_order(d.L)
    return tuple(
        (d.terms[l][1], d.terms[l][0] * w * dt) for l, w in zip(terms, fractions)
    )


def _batched_power(m: np.ndarray, rs: np.ndarray) -> np.ndarray:
    """m[i]^rs[i] by binary exponentiation, squaring only the unfinished."""
    out = np.broadcast_to(np.eye(m.shape[1], dtype=complex), m.shape).copy()
    active = np.arange(len(rs))
    e = rs.copy()
    while len(active):
        odd = (e & 1) == 1
        idx = active[odd]
        out[idx] = out[idx] @ m[odd]
        e >>= 1
        keep = e > 0
        if not keep.all():
            active, e, m = active[keep], e[keep], m[keep]
        if len(active):
            m = m @ m
    return out


def _strang_inputs(d: PauliDecomposition, taus, rs):
    taus = np.asarray(taus, dtype=float)
    rs = np.asarray(rs, dtype=np.int64)
    if taus.ndim != 1 or taus.shape != rs.shape:
        raise ValueError("taus and rs must be 1-D arrays of one length")
    if np.any(rs < 1):
        raise ValueError("r must be >= 1")
    if d.n_qubits > PF_DENSE_QUBIT_GUARD:
        raise ValueError(f"n_qubits={d.n_qubits} exceeds dense guard")
    return taus, rs


def _strang_chunks(d: PauliDecomposition, taus: np.ndarray, rs: np.ndarray):
    """Yield (slice, S(tau/r)^r for the pairs in that slice), chunk by chunk.

    A chunk holds at most STRANG_CHUNK_ENTRIES entries, counting per pair
    its dim x dim step and the cos and -i sin of each of its 2L-1
    rotations.
    """
    dim = 1 << d.n_qubits
    src, phase = d.action_tables()
    phase = phase[:, :, None]
    terms, fractions = _step_order(d.L)
    # angle per (rotation, element) is (c_l w) dt, as in step_rotations
    scaled = np.array([d.terms[l][0] * w for l, w in zip(terms, fractions)])
    chunk = max(1, STRANG_CHUNK_ENTRIES // (dim * dim + 2 * len(terms)))
    for start in range(0, len(taus), chunk):
        sl = slice(start, start + chunk)
        angles = np.multiply.outer(scaled, taus[sl] / rs[sl])[:, :, None, None]
        cos, minus_i_sin = np.cos(angles), -1j * np.sin(angles)
        m = np.broadcast_to(np.eye(dim, dtype=complex), (angles.shape[1], dim, dim)).copy()
        for k in range(len(terms) - 1, -1, -1):
            l = terms[k]
            m = cos[k] * m + minus_i_sin[k] * (phase[l] * m[:, src[l]])
        yield sl, _batched_power(m, rs[sl])


def strang_overlaps(d: PauliDecomposition, taus, rs, psi, phi) -> np.ndarray:
    """<phi| S(tau_i/r_i)^{r_i} |psi> for every pair, shape (n,).

    d must have unit Pauli weight.  Each step is built from identities by
    the 2L-1 rotations cos(a) M - i sin(a) P M, applied right to left, each
    one batched row gather; the steps are then raised to their r in
    O(log max r) stacked products, one chunk of pairs at a time, and each
    chunk is contracted with psi and phi before the next is built, so
    memory stays at one chunk.
    """
    taus, rs = _strang_inputs(d, taus, rs)
    phi_conj = np.asarray(phi).conj()
    out = np.empty(len(taus), dtype=complex)
    for sl, unitaries in _strang_chunks(d, taus, rs):
        out[sl] = (unitaries @ psi) @ phi_conj
    return out


def build_pf(d: PauliDecomposition, tau: float, r: int) -> PFPlan:
    """Dense S(tau/r)^r for a unit-weight decomposition.

    Spectral error versus the exact exponential is bounded by
    f * tau^3 / r^2 with f the decomposition's commutator constant.
    """
    taus, rs = _strang_inputs(d, [tau], [r])
    (_, dense), = _strang_chunks(d, taus, rs)
    return PFPlan(r, step_rotations(d, tau / r), 2 * r * d.L, dense[0])
