import math

import numpy as np
import pytest
from scipy.special import roots_legendre

from rqls.fourier import (
    SQRT_2PI,
    SeriesSizeError,
    build_series,
    fourier_params,
    gauss_legendre,
    normalization,
    rescale,
    truncation_params,
)

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


def test_series_odd_symmetry(series_10):
    x = np.array([0.13, 0.4, 0.97])
    assert np.allclose(
        series_10.evaluate(-x), -series_10.evaluate(x), atol=1e-12
    )


def test_sum_abs_alpha_is_ny_nz(series_10):
    n_y, n_z = normalization(series_10)
    assert series_10.sum_abs_alpha() == pytest.approx(n_y * n_z, rel=1e-12)


def test_ny_closed_form(series_10):
    n_y, _ = normalization(series_10)
    assert n_y == pytest.approx(series_10.trunc.y_max / SQRT_2PI, rel=1e-12)


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
    s = build_series(kappa, lam, eps_t, eps_d)
    z_max = math.sqrt(2 * math.log(3 * kappa * lam / eps_t))
    grid = s.grid
    assert grid.z_nodes[[0, -1]] == pytest.approx([-z_max, z_max], rel=1e-13)
    assert grid.delta_z == pytest.approx(2 * z_max / (grid.K - 1), rel=1e-13)
    assert np.diff(grid.z_nodes) == pytest.approx(grid.delta_z, rel=1e-9)
