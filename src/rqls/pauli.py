"""Pauli-string algebra and Pauli-basis decomposition of Hermitian matrices.

Pauli strings are stored in the symplectic (x_mask, z_mask) convention:
bit i of each mask refers to qubit i, with qubit 0 the least significant
index bit (and the leftmost character in text form).  A string with both
bits set on a qubit acts as Y there.  Internally each string corresponds
to the canonical operator i^{popcount(x & z)} X^x Z^z, which is exactly
the tensor product of {I, X, Y, Z}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

HERMITICITY_TOL = 1e-10
COEFF_PRUNE_TOL = 1e-14

_CHAR_TO_XZ = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_XZ_TO_CHAR = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_I_POWERS = np.array([1, 1j, -1, -1j])


def _popcount(v: int) -> int:
    return int(v).bit_count()


def _popcount_array(v: np.ndarray) -> np.ndarray:
    """Elementwise popcount of a nonnegative integer array."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(v)
    out = np.zeros_like(v)  # numpy < 2.0 has no bitwise_count
    w = v.copy()
    while w.any():
        out += w & 1
        w >>= 1
    return out


def pauli_action(n_qubits: int, x_masks, z_masks):
    """Row-gather tables of the canonical strings P_l = i^pc(x&z) X^x Z^z.

    Returns (src, phase), each of shape (L, 2^n): row i of P_l holds the
    single entry phase[l, i] in column src[l, i] = i ^ x_l, with phase
    i^pc(x_l & z_l) (-1)^pc(z_l & src), so (P_l M)[i] = phase[l, i] M[src[l, i]].
    """
    xs = np.asarray(x_masks, dtype=np.int64).reshape(-1, 1)
    zs = np.asarray(z_masks, dtype=np.int64).reshape(-1, 1)
    src = np.arange(1 << n_qubits) ^ xs
    signs = 1.0 - 2.0 * (_popcount_array(zs & src) & 1)
    return src, _I_POWERS[_popcount_array(xs & zs) % 4] * signs


@dataclass(frozen=True, order=True)
class PauliString:
    """An n-qubit Pauli string in symplectic mask form (no phase)."""

    n_qubits: int
    x_mask: int
    z_mask: int

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        full = (1 << self.n_qubits) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise ValueError("mask has bits beyond n_qubits")

    @classmethod
    def from_text(cls, text: str) -> "PauliString":
        """Parse a string over {I,X,Y,Z}; leftmost character is qubit 0."""
        if not text:
            raise ValueError("empty Pauli text")
        x = z = 0
        for i, ch in enumerate(text):
            try:
                xb, zb = _CHAR_TO_XZ[ch]
            except KeyError:
                raise ValueError(f"invalid Pauli character {ch!r}") from None
            x |= xb << i
            z |= zb << i
        return cls(len(text), x, z)

    def to_text(self) -> str:
        return "".join(
            _XZ_TO_CHAR[((self.x_mask >> i) & 1, (self.z_mask >> i) & 1)]
            for i in range(self.n_qubits)
        )

    @property
    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    def commutes_with(self, other: "PauliString") -> bool:
        """Symplectic-form commutation check (no dense matrices)."""
        if self.n_qubits != other.n_qubits:
            raise ValueError("mismatched qubit counts")
        s = _popcount(self.x_mask & other.z_mask) + _popcount(self.z_mask & other.x_mask)
        return s % 2 == 0

    def to_matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix of this string."""
        src, phase = pauli_action(self.n_qubits, self.x_mask, self.z_mask)
        dim = 1 << self.n_qubits
        mat = np.zeros((dim, dim), dtype=complex)
        mat[np.arange(dim), src[0]] = phase[0]
        return mat

    def __str__(self) -> str:
        return self.to_text()


@dataclass(frozen=True)
class PhasedPauli:
    """A Pauli string with an attached fourth-root-of-unity phase."""

    phase: complex
    string: PauliString

    def __post_init__(self):
        if self.phase not in (1, -1, 1j, -1j):
            raise ValueError("phase must be a fourth root of unity")

    def to_matrix(self) -> np.ndarray:
        return self.phase * self.string.to_matrix()


def pauli_product(a: PhasedPauli, b: PhasedPauli) -> PhasedPauli:
    """Product a*b with exact phase tracking.

    Uses the canonical form P = i^{popcount(x&z)} X^x Z^z; the phase picked
    up by commuting Z^{a_z} past X^{b_x} is (-1)^{popcount(a_z & b_x)}.
    """
    sa, sb = a.string, b.string
    if sa.n_qubits != sb.n_qubits:
        raise ValueError("mismatched qubit counts")
    cx = sa.x_mask ^ sb.x_mask
    cz = sa.z_mask ^ sb.z_mask
    e = (
        _popcount(sa.x_mask & sa.z_mask)
        + _popcount(sb.x_mask & sb.z_mask)
        - _popcount(cx & cz)
        + 2 * _popcount(sa.z_mask & sb.x_mask)
    ) % 4
    # complex ** is inexact; use an exact lookup for i^e
    phase = a.phase * b.phase * (1, 1j, -1, -1j)[e]
    phase = {1: 1, -1: -1, 1j: 1j, -1j: -1j}[complex(round(phase.real), round(phase.imag))]
    return PhasedPauli(phase, PauliString(sa.n_qubits, cx, cz))


@dataclass(frozen=True)
class PauliDecomposition:
    """A real linear combination of Pauli strings, A = sum_l c_l P_l.

    The term order is fixed at construction and is semantically meaningful:
    the product-formula sweep and the commutator constant both depend on it.
    """

    n_qubits: int
    terms: tuple = field(default_factory=tuple)  # tuple[(float, PauliString), ...]

    def __post_init__(self):
        seen = set()
        for c, p in self.terms:
            if p.n_qubits != self.n_qubits:
                raise ValueError("term width mismatch")
            if c == 0:
                raise ValueError("zero coefficient term")
            key = (p.x_mask, p.z_mask)
            if key in seen:
                raise ValueError("duplicate Pauli string")
            seen.add(key)

    @property
    def L(self) -> int:
        return len(self.terms)

    def action_tables(self):
        """pauli_action tables (src, phase) of the strings, in term order."""
        return pauli_action(
            self.n_qubits,
            [p.x_mask for _, p in self.terms],
            [p.z_mask for _, p in self.terms],
        )

    @property
    def lam(self) -> float:
        """Pauli weight: sum of |c_l|."""
        return float(sum(abs(c) for c, _ in self.terms))

    def rescaled(self) -> "PauliDecomposition":
        """Divide all coefficients by the Pauli weight (unit-weight copy)."""
        lam = self.lam
        return PauliDecomposition(
            self.n_qubits, tuple((c / lam, p) for c, p in self.terms)
        )

    def to_json(self) -> str:
        return json.dumps(
            [{"pauli": p.to_text(), "coeff": c} for c, p in self.terms]
        )

    @classmethod
    def from_json(cls, text: str) -> "PauliDecomposition":
        data = json.loads(text)
        if not data:
            raise ValueError("empty decomposition")
        terms = tuple(
            (float(item["coeff"]), PauliString.from_text(item["pauli"]))
            for item in data
        )
        return cls(terms[0][1].n_qubits, terms)


def pauli_decompose(a: np.ndarray, prune_tol: float = COEFF_PRUNE_TOL) -> PauliDecomposition:
    """Decompose a Hermitian matrix into the Pauli basis.

    Terms are emitted in lexicographic (x_mask, z_mask) order; coefficients
    with magnitude <= prune_tol are dropped to avoid inflating the term count
    with floating-point dust.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("input must be a square matrix")
    dim = a.shape[0]
    n = int(dim).bit_length() - 1
    if 1 << n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    scale = max(1.0, float(np.abs(a).max()))
    if np.abs(a - a.conj().T).max() > HERMITICITY_TOL * scale:
        raise ValueError("input matrix is not Hermitian within tolerance")

    rows = np.arange(dim)
    terms = []
    for x in range(dim):
        # every z for this x at once: Tr(P A) = sum_i P[i, src_i] A[src_i, i]
        src, phase = pauli_action(n, np.full(dim, x), rows)
        traces = np.sum(phase * a[src, rows], axis=1)
        for z, tr in enumerate(traces):
            c = tr.real / dim
            if abs(c) > prune_tol:
                terms.append((float(c), PauliString(n, x, z)))
    return PauliDecomposition(n, tuple(terms))


DENSE_QUBIT_GUARD = 12


def materialize(d: PauliDecomposition) -> np.ndarray:
    """Dense matrix sum_l c_l P_l (guarded against huge dimensions)."""
    if d.n_qubits > DENSE_QUBIT_GUARD:
        raise ValueError(f"n_qubits={d.n_qubits} exceeds dense guard {DENSE_QUBIT_GUARD}")
    dim = 1 << d.n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    src, phase = d.action_tables()
    rows = np.arange(dim)
    for (c, _), cols, ph in zip(d.terms, src, phase):
        out[rows, cols] += c * ph
    return out


COMMUTATOR_QUBIT_GUARD = 8


def commutator_constant(d: PauliDecomposition, loose: bool = False) -> float:
    """Prefactor of the second-order product-formula error bound.

    Expects the unit-weight decomposition; the value depends on the stored
    term order.  Returns exactly 0 when all pairs of strings commute
    (checked symplectically, without dense matrices).  With loose=True the
    spectral norms are replaced by the Pauli-basis one-norm of each nested
    commutator, which upper-bounds the exact value and has no size guard.
    """
    L = d.L
    if L <= 1:
        return 0.0
    if all(
        d.terms[i][1].commutes_with(d.terms[j][1])
        for i in range(L)
        for j in range(i + 1, L)
    ):
        return 0.0
    if loose:
        return _commutator_constant_loose(d)
    if d.n_qubits > COMMUTATOR_QUBIT_GUARD:
        raise ValueError(
            f"n_qubits={d.n_qubits} exceeds guard {COMMUTATOR_QUBIT_GUARD}; "
            "use loose=True for a one-norm fallback"
        )
    mats = [c * p.to_matrix() for c, p in d.terms]

    def comm(x, y):
        return x @ y - y @ x

    total = 0.0
    for l0 in range(L):
        tail1 = sum(mats[l0 + 1:], np.zeros_like(mats[0]))
        tail2 = sum(mats[l0:], np.zeros_like(mats[0]))
        inner = comm(tail1, mats[l0])
        total += np.linalg.norm(comm(tail2, inner), 2) / 12.0
        total += np.linalg.norm(comm(mats[l0], tail1), 2) / 24.0
    return float(total)


def _commutator_constant_loose(d: PauliDecomposition) -> float:
    # one-norm of nested commutators carried in the Pauli basis
    def scaled_terms():
        return [(c, PhasedPauli(1, p)) for c, p in d.terms]

    terms = scaled_terms()

    def comm_terms(xs, ys):
        acc = {}
        for cx, px in xs:
            for cy, py in ys:
                if px.string.commutes_with(py.string):
                    continue
                prod = pauli_product(px, py)
                # [X, Y] = XY - YX = 2 XY when anticommuting
                key = (prod.string.x_mask, prod.string.z_mask)
                acc[key] = acc.get(key, 0) + 2 * cx * cy * prod.phase
        return [
            (c, PhasedPauli(1, PauliString(d.n_qubits, k[0], k[1])))
            for k, c in acc.items()
            if abs(c) > 0
        ]

    total = 0.0
    L = d.L
    for l0 in range(L):
        head = [terms[l0]]
        tail1 = terms[l0 + 1:]
        tail2 = terms[l0:]
        inner = comm_terms(tail1, head)
        outer = comm_terms(tail2, inner)
        total += sum(abs(c) for c, _ in outer) / 12.0
        total += sum(abs(c) for c, _ in comm_terms(head, tail1)) / 24.0
    return float(total)
