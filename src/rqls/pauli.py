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


def _popcount_array(v: np.ndarray) -> np.ndarray:
    """Elementwise popcount of a nonnegative integer array, as int64.

    int64 in both branches: `np.bitwise_count` returns uint8, on which
    sign arithmetic such as 1 - 2 * pc wraps around.
    """
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(v).astype(np.int64)
    out = np.zeros(np.shape(v), dtype=np.int64)  # numpy < 2.0 has no bitwise_count
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

    def to_matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix of this string."""
        src, phase = pauli_action(self.n_qubits, self.x_mask, self.z_mask)
        dim = 1 << self.n_qubits
        mat = np.zeros((dim, dim), dtype=complex)
        mat[np.arange(dim), src[0]] = phase[0]
        return mat

    def __str__(self) -> str:
        return self.to_text()


def _scan(op, v) -> np.ndarray:
    """Scan behind a leading 0: out[k] = v[0] op ... op v[k-1]."""
    out = np.zeros(len(v) + 1, dtype=np.int64)
    op.accumulate(v, out=out[1:])
    return out


def _product_exponent(x, z, bounds, extra=0):
    """Phase exponent of ordered products of canonical Pauli strings.

    Group g is the strings k in [bounds[g], bounds[g+1]).  Their product,
    left to right, is i^e[g] times the canonical string of their XOR.  For
    two strings, P_a P_b = i^e P_{a^b} with e = pc(x_a & z_a) + pc(x_b & z_b)
    - pc((x_a^x_b) & (z_a^z_b)) + 2 pc(z_a & x_b), the last term the sign of
    moving Z^{z_a} past X^{x_b}; telescoped over a group this is
    e = sum_k pc(x_k & z_k) - pc(X & Z) + 2 sum_k pc(Z_<k & x_k), with Z_<k
    the XOR of the group's z masks before k.  `extra` adds a per-string
    exponent.  Returns (e mod 4, cx, cz)
    with cx, cz the running XORs of x and z over all groups (`_scan`).
    """
    cx, cz = _scan(np.bitwise_xor, x), _scan(np.bitwise_xor, z)
    # pc(a & x) mod 2 is linear in a, so the running XOR from before the
    # group's start comes out of the last sum as one term per group
    per = _popcount_array(x & z) + extra + 2 * (_popcount_array(cz[:-1] & x) & 1)
    acc = _scan(np.add, per)
    s0, s1 = bounds[:-1], bounds[1:]
    tx, tz = cx[s1] ^ cx[s0], cz[s1] ^ cz[s0]
    e = (acc[s1] - acc[s0] - _popcount_array(tx & tz)
         + 2 * _popcount_array(cz[s0] & tx))
    return e & 3, cx, cz


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


def pauli_decompose(a: np.ndarray) -> PauliDecomposition:
    """Decompose a Hermitian matrix into the Pauli basis.

    Terms are emitted in lexicographic (x_mask, z_mask) order; coefficients
    with magnitude <= COEFF_PRUNE_TOL are dropped to avoid inflating the
    term count with floating-point dust.
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
            if abs(c) > COEFF_PRUNE_TOL:
                terms.append((float(c), PauliString(n, x, z)))
    return PauliDecomposition(n, tuple(terms))


DENSE_QUBIT_GUARD = 12
# qubits of the dense state-vector paths: exact evolution and the spectrum,
# the Strang products and the RTE frame fold
STATEVECTOR_QUBIT_GUARD = 10


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


def _commutator_sum(n_qubits: int, a, b):
    """[A, B] of two Pauli sums, each (x, z, coef) arrays of canonical strings.

    Anticommuting pairs give [P_a, P_b] = 2 P_a P_b, with the phase from
    `_product_exponent` on groups of two; like strings are merged.
    """
    xa, za, ca = a
    xb, zb, cb = b
    ia, ib = np.nonzero(_popcount_array(xa[:, None] & zb ^ za[:, None] & xb) & 1)
    x = np.column_stack([xa[ia], xb[ib]])
    z = np.column_stack([za[ia], zb[ib]])
    e, _, _ = _product_exponent(x.ravel(), z.ravel(), np.arange(0, x.size + 1, 2))
    keys, slot = np.unique((x[:, 0] ^ x[:, 1]) << n_qubits | z[:, 0] ^ z[:, 1],
                           return_inverse=True)
    coef = np.zeros(len(keys), dtype=complex)
    np.add.at(coef, slot, 2 * ca[ia] * cb[ib] * _I_POWERS[e])
    return keys >> n_qubits, keys & ((1 << n_qubits) - 1), coef


def commutator_constant(d: PauliDecomposition, loose: bool = False) -> float:
    """Prefactor of the second-order product-formula error bound.

    f = sum_l ||[A_{>=l}, C_l]||/12 + ||C_l||/24 with C_l = [A_{>l}, A_l],
    A_l = c_l P_l.  Expects the unit-weight decomposition; the value depends
    on the stored term order.  Returns exactly 0 when all pairs of strings
    commute (checked symplectically, without dense matrices).  The norm is
    the spectral norm, or with loose=True the Pauli-basis one-norm, which
    upper-bounds it and has no size guard.
    """
    coef = np.array([c for c, _ in d.terms], dtype=complex)
    x = np.array([p.x_mask for _, p in d.terms], dtype=np.int64)
    z = np.array([p.z_mask for _, p in d.terms], dtype=np.int64)
    L = d.L
    # more than 2^n distinct strings cannot all commute, so the (L, L) test
    # never exceeds the 4^n entries of one dense matrix
    anti = L > 1 << d.n_qubits or (_popcount_array(x[:, None] & z ^ z[:, None] & x) & 1).any()
    if not anti:
        return 0.0
    if loose:
        a = (x, z, coef)
        inner, outer = np.zeros(L), np.zeros(L)
        for l0 in range(L):
            c_l = _commutator_sum(d.n_qubits, [v[l0 + 1:] for v in a], [v[l0:l0 + 1] for v in a])
            inner[l0] = np.abs(c_l[2]).sum()
            outer[l0] = np.abs(_commutator_sum(d.n_qubits, [v[l0:] for v in a], c_l)[2]).sum()
    else:
        if d.n_qubits > COMMUTATOR_QUBIT_GUARD:
            raise ValueError(
                f"n_qubits={d.n_qubits} exceeds guard {COMMUTATOR_QUBIT_GUARD}; "
                "use loose=True for a one-norm fallback"
            )
        dim = 1 << d.n_qubits
        src, phase = d.action_tables()
        terms = np.zeros((L, dim, dim), dtype=complex)
        terms[np.arange(L)[:, None], np.arange(dim), src] = coef[:, None] * phase
        tails = np.cumsum(terms[::-1], axis=0)[::-1]  # A_{>=l}
        later = np.concatenate([tails[1:], np.zeros_like(terms[:1])])  # A_{>l}
        c_l = later @ terms - terms @ later
        inner = np.linalg.norm(c_l, 2, axis=(1, 2))
        outer = np.linalg.norm(tails @ c_l - c_l @ tails, 2, axis=(1, 2))
    return float(np.sum(outer / 12.0 + inner / 24.0))
