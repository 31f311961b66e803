import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqls.fourier import SQRT_2PI, build_series
from rqls.sampler import AliasTable, TimeSampler, sample_rng


@pytest.fixture(scope="module")
def series():
    return build_series(10.0, 1.0, 5e-3, 5e-3)


def test_sample_rng_deterministic():
    a = sample_rng(7, 3).random(4)
    b = sample_rng(7, 3).random(4)
    assert np.array_equal(a, b)
    c = sample_rng(7, 4).random(4)
    assert not np.array_equal(a, c)


def test_sample_rng_is_keyed_by_the_whole_key():
    want = np.random.default_rng(np.random.SeedSequence((7, 3, 2))).random(4)
    assert np.array_equal(sample_rng(7, 3, 2).random(4), want)
    assert not np.array_equal(sample_rng(7, 3).random(4), want)


def test_alias_table_validation():
    with pytest.raises(ValueError):
        AliasTable([0.5, 0.6])
    with pytest.raises(ValueError):
        AliasTable([1.5, -0.5])
    with pytest.raises(ValueError):
        AliasTable([])


def test_alias_table_frequencies():
    p = np.array([0.5, 0.3, 0.15, 0.05])
    table = AliasTable(p)
    rng = np.random.default_rng(11)
    n = 200_000
    counts = np.bincount(table.draw_batch(rng, n), minlength=4)
    sigma = np.sqrt(p * (1 - p) / n)
    assert np.all(np.abs(counts / n - p) < 4 * sigma)


def worklist_alias_table(p):
    """(alias, accept) of the classic small/large worklist build, both lists
    popped from the end: the oracle for AliasTable's prefix-sum sweep."""
    n = len(p)
    scaled = p * n
    alias = np.zeros(n, dtype=np.int64)
    accept = np.ones(n)
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    while small and large:
        s = small.pop()
        l = large.pop()
        accept[s] = scaled[s]
        alias[s] = l
        scaled[l] -= 1.0 - scaled[s]
        (small if scaled[l] < 1.0 else large).append(l)
    for i in large + small:
        accept[i] = 0.0 if p[i] == 0.0 else 1.0
    return alias, accept


def assert_alias_table_is_p(p, alias, accept):
    # slot i is drawn with probability 1/n; it yields i with its accept
    # probability and its alias otherwise
    n = len(p)
    mass = accept + np.bincount(alias, weights=1 - accept, minlength=n)
    assert np.abs(mass / n - p).max() <= 1e-12
    assert accept.min() >= -1e-12 and accept.max() <= 1.0
    # a zero-probability entry keeps nothing and is no live alias
    assert (accept[p == 0] == 0).all()
    assert (p[alias[accept < 1]] > 0).all()


weight_lists = st.lists(st.floats(0.0, 1.0) | st.just(0.0), min_size=1, max_size=64)


@settings(max_examples=300, deadline=None)
@given(st.one_of(weight_lists, weight_lists.map(lambda w: w + w[::-1]),
                 st.tuples(st.floats(0.01, 1.0), st.integers(1, 64)).map(lambda t: [t[0]] * t[1]))
       .filter(lambda w: sum(w) > 0))
def test_alias_table_reconstructs_p(weights):
    # plain, mirrored (tied pairs) and uniform (all tied) weights; the
    # worklist oracle meets the same conditions
    p = np.array(weights) / sum(weights)
    table = AliasTable(p)
    assert_alias_table_is_p(p, table._alias, table._accept)
    assert_alias_table_is_p(p, *worklist_alias_table(p))


def test_alias_sweep_reproduces_worklist_on_generic_weights():
    rng = np.random.default_rng(12)
    for n in (1, 2, 3, 11, 176, 704, 5000):
        p = rng.random(n)
        p /= p.sum()
        alias, accept = worklist_alias_table(p)
        table = AliasTable(p)
        assert np.array_equal(table._alias, alias)
        assert np.abs(table._accept - accept).max() <= 1e-12


@pytest.mark.parametrize("kappa_tilde, eps", [(20.0, 1e-2), (4.0, 1e-1), (17.466, 1e-2)])
def test_alias_sweep_reproduces_worklist_on_series_tables(kappa_tilde, eps):
    # the y and z tables of the solve (J = 288) and studies (J = 44) series,
    # and one like criterion 7's; in the J = 288 and criterion-7-like y
    # tables the worklist's running residual of a heavy ends within a few
    # ulps of 1, a near tie that float64 prefix sums break the other way
    ts = TimeSampler(build_series(kappa_tilde, 1.0, eps, eps))
    for table in (ts.p_y, ts.p_z):
        p = table.probabilities
        alias, accept = worklist_alias_table(p)
        assert_alias_table_is_p(p, table._alias, table._accept)
        assert np.array_equal(table._alias, alias)
        assert np.abs(table._accept - accept).max() <= 1e-12


def test_alias_table_zero_prob_never_drawn():
    table = AliasTable([0.5, 0.0, 0.5])
    rng = np.random.default_rng(2)
    draws = table.draw_batch(rng, 50_000)
    assert not (draws == 1).any()


def test_pz_symmetric_and_zero_node(series):
    p = TimeSampler(series).p_z.probabilities
    assert np.allclose(p, p[::-1], atol=1e-15)
    z = series.grid.z_nodes
    if (z == 0).any():
        assert p[np.argmin(np.abs(z))] == 0.0


def test_py_proportional_to_weights(series):
    w = np.abs(series.grid.wy_weights)
    assert np.allclose(TimeSampler(series).p_y.probabilities, w / w.sum(), atol=1e-15)


def test_all_zero_weights_rejected(series):
    grid = dataclasses.replace(series.grid, wy_weights=np.zeros_like(series.grid.wy_weights))
    with pytest.raises(ValueError, match="all weights are zero"):
        TimeSampler(dataclasses.replace(series, grid=grid))


def test_sample_fields(series):
    # the times a sampler's (j, k) stand for: tau from the grid, within
    # t_max, never on the zero-amplitude z = 0 node
    ts = TimeSampler(series)
    j, k = ts.sample_batch(np.random.default_rng(5), 2000)
    z = series.grid.z_nodes[k]
    assert (z != 0).all()
    tau = series.grid.y_nodes[j] * z
    assert np.abs(tau).max() <= series.t_max + 1e-9
    assert ts.weight == pytest.approx(series.N_y * series.N_z / series.lam)


def test_sample_batch_matches_scalar_path(series):
    # the scalar draw is the one-draw batch, from the same stream
    ts = TimeSampler(series)
    rng = np.random.default_rng(9)
    j, k = ts.sample_batch(np.random.default_rng(9), 1)
    assert ts.sample(rng) == (int(j[0]), int(k[0]))


def test_expectation_identity(series):
    # sum_jk p_y p_z * weight * omega * exp(-i x tau) equals F(x) / lam
    ts = TimeSampler(series)
    p_y = ts.p_y.probabilities
    p_z = ts.p_z.probabilities
    y = series.grid.y_nodes
    z = series.grid.z_nodes
    omega = 1j * np.sign(z)
    for x in (0.2, -0.55, 1.0):
        t = np.multiply.outer(y, z)
        val = ts.weight * np.einsum(
            "j,k,jk->", p_y, p_z * omega, np.exp(-1j * x * t)
        )
        assert val == pytest.approx(
            complex(series.evaluate(x)) / series.lam, abs=1e-12
        )
