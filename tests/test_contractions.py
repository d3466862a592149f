"""The scattered contraction against explicit dense matrices.

Gram matrices and translate diagonals are computed by _scatter_contract over
per-axis phase matrices.  Here the same sums are written out densely: C[p, k]
is the phase E(i x_p, xi_k) at every (point, grid node) pair, built on the
flattened node list without any tensor structure, and

    G = conj(C) diag(dvec) C^T,   G[j, j] = sum_k |C[j, k]|^2 dvec[k].
"""

import numpy as np
import pytest

from dunklpd import make_config
from dunklpd.functions import gaussian
from dunklpd.kernel import _phase_1d, kernel_nd
from dunklpd.posdef import _gram_at, _translate_diagonal
from dunklpd.quadrature import Grid, QuadratureSpec
from dunklpd.transform import INVERSE, inverse, spectral_density
from dunklpd.translation import convolve

CONFIGS = [
    (1, [0.3]),
    (1, [2.0]),
    (2, [1.0, 0.0]),
    (2, [0.3, 1.7]),
    (3, [1.0, 0.5, 0.0]),
    (3, [0.3, 0.0, 1.7]),
]
SPEC = QuadratureSpec(4.0, 10)


def _dense_phases(config, pts, nodes):
    """C[p, k] = prod_i E(i x_p,i, xi_k,i) over every (point, node) pair."""
    out = np.ones((len(pts), len(nodes)), dtype=complex)
    for i, k in enumerate(config.kappa):
        out = out * _phase_1d(k, np.multiply.outer(pts[:, i], nodes[:, i]), INVERSE)
    return out


def _points(config, rng, n=5):
    return rng.uniform(-2.5, 2.5, size=(n, config.dimension))


def _density(p):
    return np.exp(-0.3 * np.sum(p * p, axis=1)) * (1.0 + 0.4j * np.cos(p[:, 0]))


def test_dense_phases_match_kernel_nd(rng):
    config = make_config(2, [0.3, 1.7])
    pts = _points(config, rng, 3)
    nodes = Grid(config, SPEC).points()[::17]
    dense = _dense_phases(config, pts, nodes)
    want = np.array([[np.conj(kernel_nd(config, x, y)) for y in nodes] for x in pts])
    np.testing.assert_allclose(dense, want, rtol=1e-14, atol=1e-15)


@pytest.mark.parametrize("dim,kappa", CONFIGS)
def test_gram_matches_dense_product(dim, kappa, rng):
    config = make_config(dim, kappa)
    grid = Grid(config, SPEC)
    pts = _points(config, rng)
    dvec = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    c = _dense_phases(config, pts, grid.points())
    want = (c.conj() * dvec.reshape(-1)) @ c.T
    got = _gram_at(config, grid, dvec, pts)
    assert got.shape == (len(pts), len(pts))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("dim,kappa", CONFIGS)
def test_translate_diagonal_matches_dense_diagonal(dim, kappa, rng):
    config = make_config(dim, kappa)
    pts = _points(config, rng)
    got, delta = _translate_diagonal(config, SPEC, _density, pts)
    # two_pass returns the value on the doubled grid
    grid = Grid(config, SPEC.doubled())
    dvec = (config.mehta * grid.weighted(_density)).reshape(-1)
    c = _dense_phases(config, pts, grid.points())
    want = np.sum(np.abs(c) ** 2 * dvec, axis=1)
    np.testing.assert_allclose(got, want, rtol=1e-12)
    assert np.isfinite(delta)


@pytest.mark.parametrize("dim,kappa", [(1, [0.3]), (2, [1.0, 0.0])])
def test_convolve_is_the_inverse_transform_of_the_product(dim, kappa):
    config = make_config(dim, kappa)
    f, g = gaussian(1.0), gaussian(0.5)
    df = spectral_density(config, None, f)
    dg = spectral_density(config, None, g)
    x = np.linspace(-1.0, 1.0, 3 * dim).reshape(3, dim)
    got = convolve(config, None, f, g, x)
    want = inverse(config, None, lambda p: df(p) * dg(p), x)
    np.testing.assert_array_equal(got, want)
