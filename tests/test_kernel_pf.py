import numpy as np
import pytest

from rqls.kernel_pf import PFPlan, _step_order, build_pf, trotter_number
from rqls.pauli import commutator_constant, pauli_decompose
from rqls.simulator import exact_evolution

from oracles import random_unit_decomposition


def test_trotter_number_values():
    assert trotter_number(0.0, 100.0, 1e-3) == 1
    assert trotter_number(1.0, 2.0, 0.5) == 4
    assert trotter_number(1.0, -2.0, 0.5) == 4
    assert trotter_number(0.25, 1.0, 1.0) == 1
    with pytest.raises(ValueError):
        trotter_number(-1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        trotter_number(1.0, 1.0, 0.0)


def test_step_order_structure():
    rng = np.random.default_rng(0)
    d = random_unit_decomposition(2, rng)
    dt = 0.3
    # the (string, angle) rotations of one step of length dt
    seq = tuple((d.terms[l][1], d.terms[l][0] * w * dt) for l, w in zip(*_step_order(d.L)))
    assert len(seq) == 2 * d.L - 1
    # first L-1 are half angles in term order, middle is the full angle
    for (p, ang), (c, pref) in zip(seq[: d.L - 1], d.terms[: d.L - 1]):
        assert p == pref and ang == pytest.approx(c * dt / 2)
    c_last, p_last = d.terms[-1]
    assert seq[d.L - 1] == (p_last, pytest.approx(c_last * dt))
    # mirrored tail
    assert seq[d.L :] == tuple(reversed(seq[: d.L - 1]))


def test_build_pf_counts_and_unitarity():
    rng = np.random.default_rng(1)
    d = random_unit_decomposition(2, rng)
    plan = build_pf(d, 1.7, 5)
    assert isinstance(plan, PFPlan)
    assert plan.n_cp_per_sample == 2 * 5 * d.L
    u = plan.dense_unitary
    assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-10


def test_build_pf_tau_zero_is_identity():
    d = random_unit_decomposition(1, np.random.default_rng(2))
    plan = build_pf(d, 0.0, 3)
    assert np.allclose(plan.dense_unitary, np.eye(2), atol=1e-14)


def test_build_pf_single_term_exact():
    d = pauli_decompose(np.array([[0.0, 1.0], [1.0, 0.0]])).rescaled()
    tau = 2.1
    plan = build_pf(d, tau, 1)
    assert np.abs(plan.dense_unitary - exact_evolution(d, tau)).max() < 1e-12


def test_build_pf_validation():
    d = random_unit_decomposition(1, np.random.default_rng(3))
    with pytest.raises(ValueError):
        build_pf(d, 1.0, 0)


def test_error_bounded_by_f_tau3_over_r2():
    rng = np.random.default_rng(4)
    for _ in range(20):
        d = random_unit_decomposition(2, rng)
        f = commutator_constant(d)
        tau = float(rng.uniform(0.5, 3.0)) * (1 if rng.random() < 0.5 else -1)
        r = int(rng.integers(1, 8))
        err = np.linalg.norm(
            build_pf(d, tau, r).dense_unitary - exact_evolution(d, tau), 2
        )
        assert err <= f * abs(tau) ** 3 / r**2 + 1e-12


def test_error_scales_as_r_squared():
    rng = np.random.default_rng(6)
    d = random_unit_decomposition(2, rng)
    tau = 2.0
    exact = exact_evolution(d, tau)
    rs = np.array([4, 8, 16, 32])
    errs = np.array([
        np.linalg.norm(build_pf(d, tau, int(r)).dense_unitary - exact, 2)
        for r in rs
    ])
    slope = np.polyfit(np.log(rs), np.log(errs), 1)[0]
    assert -2.3 < slope < -1.7
