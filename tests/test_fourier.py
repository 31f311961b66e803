import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import roots_legendre

from rqls.fourier import (
    EVALUATE_BLOCK,
    GL_END_SET,
    SQRT_2PI,
    SeriesSizeError,
    build_series,
    fourier_params,
    gauss_legendre,
    rescale,
    truncation_params,
)

from oracles import normalization

# (kappa, eps_F) -> (J, K) for the twelve headline parameter pairs
TABLE1 = {
    (10, 1e-2): (154, 62),
    (10, 1e-3): (194, 78),
    (10, 1e-4): (232, 94),
    (10, 1e-5): (271, 110),
    (100, 1e-2): (1709, 708),
    (100, 1e-3): (2065, 856),
    (100, 1e-4): (2421, 1004),
    (100, 1e-5): (2777, 1152),
    (1000, 1e-2): (20388, 8478),
    (1000, 1e-3): (23915, 9945),
    (1000, 1e-4): (27442, 11413),
    (1000, 1e-5): (30969, 12880),
}


def test_gl_degree_one_and_two():
    n1, w1 = gauss_legendre(1)
    assert n1 == pytest.approx([0.0]) and w1 == pytest.approx([2.0])
    n2, w2 = gauss_legendre(2)
    r = 1 / math.sqrt(3)
    assert n2 == pytest.approx([-r, r], abs=1e-15)
    assert w2 == pytest.approx([1.0, 1.0], abs=1e-15)


def test_gl_integrates_monomial():
    nodes, weights = gauss_legendre(50)
    assert weights @ nodes**8 == pytest.approx(2 / 9, rel=1e-13)
    assert weights.sum() == pytest.approx(2.0, rel=1e-13)


@pytest.mark.parametrize("deg", [3, 7, 40, 201, 1000])
def test_gl_matches_scipy(deg):
    nodes, weights = gauss_legendre(deg)
    ref_n, ref_w = roots_legendre(deg)
    assert np.abs(nodes - ref_n).max() < 1e-13
    assert np.abs(weights - ref_w).max() < 1e-12


def test_gl_rejects_bad_degree():
    with pytest.raises(ValueError):
        gauss_legendre(0)


def recurrence_rule(deg):
    """Reference rule: Newton on the three-term recurrence from Tricomi's
    guesses, in long double, O(deg^2); weights 2 / ((1 - x^2) P'(x)^2)."""
    def legendre_pair(x):
        p_prev, p = np.ones_like(x), x.copy()
        for n in range(2, deg + 1):
            p_prev, p = p, ((2 * n - 1) * x * p - (n - 1) * p_prev) / n
        return p, deg * (x * p - p_prev) / (x * x - 1)

    m = (deg + 1) // 2
    k = np.arange(1, m + 1, dtype=np.longdouble)
    phi = np.pi * (4 * k - 1) / (4 * deg + 2)
    x = (1 - (deg - 1) / (8.0 * deg**3)
         - (39 - 28 / np.sin(phi) ** 2) / (384.0 * deg**4)) * np.cos(phi)
    for _ in range(10):
        p, dp = legendre_pair(x)
        x -= p / dp
    p, dp = legendre_pair(x)
    w = 2 / ((1 - x * x) * dp * dp)
    if deg % 2:
        x[-1] = 0
    inner = m - deg % 2
    nodes = np.concatenate([-x[:inner], x[::-1]])
    return nodes.astype(float), np.concatenate([w[:inner], w[::-1]]).astype(float)


def end_set_split_degrees(lo, hi, count):
    """Degrees in [lo, hi) with a root's 2 deg sin(phi) nearest GL_END_SET."""
    def gap(deg):
        k = np.arange(1, (deg + 1) // 2 + 1)
        phi = math.pi * (4 * k - 1) / (4 * deg + 2)
        return np.abs(2 * deg * np.sin(phi) / GL_END_SET - 1).min()
    return sorted(range(lo, hi), key=gap)[:count]


def test_gl_matches_recurrence_rule():
    # every degree 2..300 (all roots in the end set below 50, both sets
    # above) and the degrees up to 1000 whose roots sit nearest the split
    for deg in list(range(2, 301)) + end_set_split_degrees(301, 1000, 4):
        nodes, weights = gauss_legendre(deg)
        ref_n, ref_w = recurrence_rule(deg)
        assert np.abs(nodes - ref_n).max() < 1e-15, deg
        assert np.abs(weights / ref_w - 1).max() < 1e-13, deg


@pytest.mark.parametrize("deg", [20388, 30969])
def test_gl_table1_degrees(deg):
    nodes, weights = gauss_legendre(deg)
    assert len(nodes) == deg and np.all(weights > 0)
    assert abs(math.fsum(weights) - 2) < 1e-12
    assert np.all(np.diff(nodes) > 0)
    assert np.array_equal(nodes, -nodes[::-1])
    for k in np.unique(np.linspace(1, deg, 64).astype(int)):
        assert abs(weights @ np.cos(k * nodes) - 2 * math.sin(k) / k) < 1e-12, k


@pytest.mark.parametrize("deg", [2065, 20388])
def test_gl_end_roots_match_mpmath(deg):
    mpmath = pytest.importorskip("mpmath")
    nodes, weights = gauss_legendre(deg)
    with mpmath.workdps(40):
        def legendre(n, x):
            return mpmath.hyp2f1(-n, n + 1, 1, (1 - x) / 2, maxterms=10**6)

        for x, w in zip(nodes[-100:], weights[-100:]):
            root = mpmath.mpf(x)
            for _ in range(3):
                p, q = legendre(deg, root), legendre(deg - 1, root)
                root -= p * (1 - root * root) / (deg * (q - root * p))
            ref_w = 2 * (1 - root * root) / (deg * legendre(deg - 1, root)) ** 2
            assert abs(x - root) < 1e-15
            assert abs(w / ref_w - 1) < 1e-10


def test_rescale():
    assert rescale(10, 1.0) == 10
    assert rescale(100, 2.09) == pytest.approx(209.0)
    with pytest.raises(ValueError):
        rescale(0.5, 1.0)
    with pytest.raises(ValueError):
        rescale(10, 0.5)


def test_truncation_closed_form():
    tr = truncation_params(10.0, 5e-3)
    log_term = math.log(3 * 10 / 5e-3)
    assert tr.z_max == pytest.approx(math.sqrt(2 * log_term))
    assert tr.y_max == pytest.approx(10 * tr.z_max)
    assert tr.t_max == pytest.approx(2 * 10 * log_term)
    # spot values
    assert tr.y_max == pytest.approx(41.71, abs=0.01)
    assert tr.z_max == pytest.approx(4.171, abs=0.001)


def test_truncation_heavy_instance():
    tr = truncation_params(209.0, 1e-3)
    assert tr.t_max == pytest.approx(5579.76, abs=0.01)


@pytest.mark.parametrize("key,expected", sorted(TABLE1.items()))
def test_table1_grid_sizes(key, expected):
    kappa, eps_f = key
    eps = eps_f / 2
    tr = truncation_params(float(kappa), eps)
    assert fourier_params(float(kappa), eps, eps, tr) == expected


@pytest.fixture(scope="module")
def series_10():
    return build_series(10.0, 1.0, 5e-3, 5e-3)


def test_series_accuracy(series_10):
    x = np.concatenate([
        np.linspace(0.1, 1.0, 500),
        -np.linspace(0.1, 1.0, 500),
    ])
    err = series_10.inverse_error(x)
    assert err.max() <= 1e-2


def test_series_endpoints(series_10):
    err = series_10.inverse_error(np.array([0.1, 1.0, -0.1, -1.0]))
    assert err.max() <= 1e-2


def full_complex_sum(series, x):
    """F(x) as the plain sum of all J*K terms alpha_jk exp(-i x t_jk)."""
    grid = series.grid
    amp_z = grid.delta_z * grid.z_nodes * np.exp(-grid.z_nodes**2 / 2)
    alpha = 1j / SQRT_2PI * np.multiply.outer(grid.wy_weights, amp_z)
    t = np.multiply.outer(grid.y_nodes, grid.z_nodes)
    return np.array([(alpha * np.exp(-1j * xi * t)).sum() for xi in x])


def sine_sum(series, x):
    """F(x) as (2/sqrt(2 pi)) sum_j wy_j sum_{z_k > 0} a_k sin(x y_j z_k),
    one sine per term, a row of y at a time."""
    grid = series.grid
    positive = grid.z_nodes > 0
    z, amp_z = grid.z_nodes[positive], series.z_amplitudes()[positive]
    rows = np.array([np.sin(x * yj * z) @ amp_z for yj in grid.y_nodes])
    return 2 / SQRT_2PI * math.fsum(grid.wy_weights * rows)


@pytest.fixture(scope="module")
def series_odd_k():
    series = build_series(10.0, 1.0, 1e-2, 1e-2)
    assert (series.grid.J, series.grid.K) == (143, 57)
    return series


def test_evaluate_matches_full_complex_sum(series_10):
    x = np.array([-0.93, -0.1, 0.1, 0.37, 1.0])
    full = full_complex_sum(series_10, x)
    got = series_10.evaluate(x)
    assert got.dtype == complex and np.all(got.imag == 0)
    assert np.abs(got - full).max() <= 1e-13 * np.abs(full).max()
    assert series_10.evaluate(0.37) == got[3]


@pytest.mark.parametrize("name", ["series_10", "series_odd_k"])
def test_evaluate_matches_full_complex_sum_at_domain_ends(name, request):
    # K = 62 puts the z nodes at dz (m + 1/2), K = 57 at dz m
    series = request.getfixturevalue(name)
    kt = series.kappa_tilde
    x = np.array([-1.0, -1 / kt, 0.0, 1 / kt, 1.0, -0.93, 0.37])
    full = full_complex_sum(series, x)
    got = series.evaluate(x)
    assert got.dtype == complex and np.all(got.imag == 0)
    assert np.abs(got - full).max() <= 1e-13 * np.abs(full).max()
    assert got[2] == 0
    for xi, value in zip(x, got):
        assert series.evaluate(xi) == value


@pytest.mark.parametrize("kappa, eps", [(10.0, 5e-3), (3.0, 1e-2), (250.0, 5e-3)])
def test_evaluate_point_does_not_depend_on_its_batch(kappa, eps):
    # enough points for three Horner blocks; at kappa = 250 (J = 4586) every
    # point's row of y spans two blocks
    series = build_series(kappa, 1.0, eps, eps)
    n = 2 * max(1, EVALUATE_BLOCK // series.grid.J) + 1
    rng = np.random.default_rng(7)
    x = rng.choice([-1, 1], n) * rng.uniform(1 / kappa, 1.0, n)
    got = series.evaluate(x)
    assert got.shape == (n,) and np.all(got.imag == 0)
    for xi, value in zip(x, got):
        assert series.evaluate(xi) == value
    # Horner's rounding bound (3K/2) u N_y N_z, against one sine per term
    bound = 1.5 * series.grid.K * np.finfo(float).eps / 2 * series.sum_abs_alpha()
    for xi, value in zip(x[:3], got[:3]):
        assert abs(value.real - sine_sum(series, xi)) <= bound


def test_evaluate_memory_is_blocked():
    series = build_series(100.0, 1.0, 5e-4, 5e-4)
    grid = series.grid
    assert (grid.J, grid.K) == (2065, 856)
    series.evaluate(0.5)
    tracemalloc.start()
    try:
        series.evaluate(0.37)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one J x K/2 float64 table would be 7.07 MB
    assert peak <= 1_000_000 < grid.J * (grid.K // 2) * 8


def test_series_odd_symmetry(series_10):
    x = np.array([0.13, 0.4, 0.97])
    assert np.allclose(
        series_10.evaluate(-x), -series_10.evaluate(x), atol=1e-12
    )


def test_sum_abs_alpha_is_ny_nz(series_10):
    n_y, n_z = normalization(series_10)
    assert series_10.sum_abs_alpha() == pytest.approx(n_y * n_z, rel=1e-12)


def test_ny_closed_form(series_10):
    assert series_10.N_y == pytest.approx(series_10.trunc.y_max / SQRT_2PI, rel=1e-12)


def test_t_min_abs_positive(series_10):
    assert 0 < series_10.t_min_abs < 1
    y_min = series_10.grid.y_nodes.min()
    z = np.abs(series_10.grid.z_nodes)
    assert series_10.t_min_abs == pytest.approx(y_min * z[z > 0].min())


def test_series_size_guard():
    with pytest.raises(SeriesSizeError):
        build_series(1e6, 1.0, 1e-10, 1e-10)


def test_lambda_scaling():
    # A/lam inversion: with lam = 2 the domain shrinks by 2, grid grows
    s1 = build_series(10.0, 1.0, 5e-3, 5e-3)
    s2 = build_series(10.0, 2.0, 5e-3, 5e-3)
    assert s2.kappa_tilde == pytest.approx(20.0)
    assert s2.n_terms > s1.n_terms
    x = np.linspace(1 / 20, 1.0, 50)
    assert s2.inverse_error(x).max() <= 1e-2


@pytest.mark.parametrize("kappa, lam, eps_t, eps_d", [
    (10.0, 1.0, 5e-3, 5e-3),
    (4.0, 1.7, 1e-2, 1e-3),
    (100.0, 1.0, 1e-2, 1e-2),
    (2.0, 3.0, 0.1, 0.1),
])
def test_z_grid_ends_at_z_max(kappa, lam, eps_t, eps_d):
    # K is 62, 40 and 24 (even: the grid straddles z = 0) and 663 (odd: a
    # node on z = 0); either way it runs from -z_max to z_max in K - 1 steps
    s = build_series(kappa, lam, eps_t, eps_d)
    z_max = math.sqrt(2 * math.log(3 * kappa * lam / eps_t))
    grid = s.grid
    assert grid.z_nodes[[0, -1]] == pytest.approx([-z_max, z_max], rel=1e-13)
    assert grid.delta_z == pytest.approx(2 * z_max / (grid.K - 1), rel=1e-13)
    assert np.diff(grid.z_nodes) == pytest.approx(grid.delta_z, rel=1e-9)
    # against the series' own z_max: the ends to the rounding of one product
    z_max = s.trunc.z_max
    assert np.abs(grid.z_nodes[[0, -1]] - [-z_max, z_max]).max() <= 2 * np.spacing(z_max)
    assert grid.delta_z == 2 * z_max / (grid.K - 1)
