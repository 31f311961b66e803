import itertools

import numpy as np
import pytest

from rqls.pauli import (
    PauliDecomposition,
    PauliString,
    commutator_constant,
    materialize,
    pauli_decompose,
)

from oracles import SINGLE, PhasedPauli, dense_from_text, pauli_product

X, Z = SINGLE["X"], SINGLE["Z"]


def random_hermitian(dim, rng):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (m + m.conj().T) / 2


def test_text_roundtrip():
    for text in ["I", "X", "ZZ", "XYZI", "IYXZ"]:
        assert PauliString.from_text(text).to_text() == text


def test_to_matrix_matches_kron():
    for text in ["X", "Y", "Z", "XY", "ZI", "IZ", "YYX", "XIZ"]:
        p = PauliString.from_text(text)
        assert np.allclose(p.to_matrix(), dense_from_text(text))


def test_product_table():
    x = PhasedPauli(1, PauliString.from_text("X"))
    y = PhasedPauli(1, PauliString.from_text("Y"))
    z = PhasedPauli(1, PauliString.from_text("Z"))
    xy = pauli_product(x, y)
    assert xy.phase == 1j and xy.string.to_text() == "Z"
    zz = pauli_product(z, z)
    assert zz.phase == 1 and zz.string.x_mask == zz.string.z_mask == 0


def test_product_long_chain_vs_dense():
    rng = np.random.default_rng(3)
    texts = ["".join(rng.choice(list("IXYZ"), size=2)) for _ in range(6)]
    acc = PhasedPauli(1, PauliString(2, 0, 0))
    dense = np.eye(4)
    for t in texts:
        acc = pauli_product(acc, PhasedPauli(1, PauliString.from_text(t)))
        dense = dense @ dense_from_text(t)
    assert np.allclose(acc.phase * acc.string.to_matrix(), dense, atol=1e-12)


def test_product_exhaustive_two_qubit():
    strings = [PauliString(2, x, z) for x in range(4) for z in range(4)]
    for a, b in itertools.product(strings, repeat=2):
        p = pauli_product(PhasedPauli(1, a), PhasedPauli(1, b))
        assert np.allclose(
            p.phase * p.string.to_matrix(), a.to_matrix() @ b.to_matrix()
        )


def test_product_associative():
    rng = np.random.default_rng(9)
    for _ in range(50):
        a, b, c = (
            PhasedPauli(1, PauliString(3, rng.integers(8), rng.integers(8)))
            for _ in range(3)
        )
        left = pauli_product(pauli_product(a, b), c)
        right = pauli_product(a, pauli_product(b, c))
        assert left.phase == right.phase and left.string == right.string


def test_decompose_identity():
    d = pauli_decompose(np.eye(4))
    assert d.L == 1
    c, p = d.terms[0]
    assert c == pytest.approx(1.0) and p.x_mask == p.z_mask == 0


def test_decompose_sigma_x():
    d = pauli_decompose(X)
    assert d.L == 1
    c, p = d.terms[0]
    assert c == pytest.approx(1.0) and p.to_text() == "X"


def test_materialize_half_x_half_z():
    d = pauli_decompose(np.array([[0.5, 0.5], [0.5, -0.5]]))
    assert np.allclose(materialize(d), [[0.5, 0.5], [0.5, -0.5]])


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_roundtrip_random(n):
    rng = np.random.default_rng(n)
    a = random_hermitian(1 << n, rng)
    d = pauli_decompose(a)
    assert np.abs(materialize(d) - a).max() < 1e-10


def test_lambda_bounds_spectral_norm():
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = random_hermitian(8, rng)
        d = pauli_decompose(a)
        assert d.lam >= np.abs(np.linalg.eigvalsh(a)).max() - 1e-12


def test_decompose_rejects_bad_input():
    with pytest.raises(ValueError):
        pauli_decompose(np.eye(3))
    m = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValueError):
        pauli_decompose(m)


def test_terms_lexicographic():
    rng = np.random.default_rng(5)
    d = pauli_decompose(random_hermitian(8, rng))
    keys = [(p.x_mask, p.z_mask) for _, p in d.terms]
    assert keys == sorted(keys)


def test_json_roundtrip():
    rng = np.random.default_rng(6)
    d = pauli_decompose(random_hermitian(4, rng))
    d2 = PauliDecomposition.from_json(d.to_json())
    assert d2.terms == d.terms


def test_commutator_constant_single_term():
    d = pauli_decompose(X)
    assert commutator_constant(d) == 0.0


def test_commutator_constant_commuting_family():
    a = 0.3 * dense_from_text("ZI") + 0.2 * dense_from_text("IZ") \
        + 0.5 * dense_from_text("ZZ")
    d = pauli_decompose(a).rescaled()
    assert commutator_constant(d) == 0.0


def test_commutator_constant_brute_force():
    # f for {0.5 X, 0.5 Z}: nested commutators evaluated by hand with dense
    # matrices, spectral norms from eigvalsh
    d = pauli_decompose(0.5 * X + 0.5 * Z).rescaled()
    terms = [c * p.to_matrix() for c, p in d.terms]

    def norm(m):
        return np.abs(np.linalg.eigvals(m)).max()

    def comm(a, b):
        return a @ b - b @ a

    expected = 0.0
    for l0 in range(len(terms)):
        later = sum(terms[l0 + 1 :], np.zeros((2, 2), complex))
        later_eq = sum(terms[l0:], np.zeros((2, 2), complex))
        expected += norm(comm(later_eq, comm(later, terms[l0]))) / 12
        expected += norm(comm(terms[l0], later)) / 24
    f = commutator_constant(d)
    assert f > 0
    assert f == pytest.approx(expected, rel=1e-10)


def test_commutator_constant_loose_upper_bounds_exact():
    rng = np.random.default_rng(8)
    for _ in range(5):
        d = pauli_decompose(random_hermitian(4, rng)).rescaled()
        assert commutator_constant(d, loose=True) >= commutator_constant(d)
