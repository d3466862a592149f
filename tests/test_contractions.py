"""The translation sum against explicit dense matrices.

Gram matrices and translates are rows of translation._translate_at, which
_blocked_scatter contracts over per-axis phase matrices, on tensor-grid
outputs axis by axis.  Here the same sums are written out densely: C[p, k] is the
phase E(i x_p, xi_k) at every (point, grid node) pair, built on the
flattened node list without any tensor structure, and with c the config's
mehta constant

    T = c conj(C_y) diag(dvec) C_x^T,   G = T at y = x,
    G[j, j] = c sum_k |C[j, k]|^2 dvec[k].
"""

import inspect
import warnings

import numpy as np
import pytest

from dunklpd import AccuracyWarning, make_config, transform
from dunklpd.functions import gaussian, tensor_axes, tensor_points, uniform_axes
from dunklpd.kernel import _phase_1d, kernel_nd
from dunklpd.posdef import builtin_points, gram
from dunklpd.quadrature import Grid, QuadratureSpec
from dunklpd.transform import (
    INVERSE,
    _blocked_scatter,
    _transformer,
    forward,
    forward_grid,
    inverse,
    spectral_density,
)
from dunklpd.translation import _translate_at, convolve, translate

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


# every contraction reads the config from its grid, which quadrature.two_pass builds
@pytest.mark.parametrize("fn", [_blocked_scatter, _translate_at, _transformer], ids=lambda f: f.__name__)
def test_contractions_take_no_config_beside_their_grid(fn):
    params = list(inspect.signature(fn).parameters)
    assert params[0] == "grid" and "config" not in params


def _dvec(grid, rng):
    return rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)


@pytest.mark.parametrize("dim,kappa", CONFIGS)
def test_gram_matches_dense_product(dim, kappa, rng):
    config = make_config(dim, kappa)
    grid = Grid(config, SPEC)
    pts = _points(config, rng)
    dvec = _dvec(grid, rng)
    c = _dense_phases(config, pts, grid.points())
    want = config.mehta * (c.conj() * dvec.reshape(-1)) @ c.T
    got = _translate_at(grid, dvec, pts, pts)
    assert got.shape == (len(pts), len(pts))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("dim,kappa", CONFIGS)
def test_translate_diagonal_matches_dense_diagonal(dim, kappa, rng):
    config = make_config(dim, kappa)
    pts = _points(config, rng)
    grid = Grid(config, SPEC.doubled())
    vw = grid.weighted(_density)
    # entry by entry: each one-point request is a one-node grid
    got = np.array([_translate_at(grid, vw, x[None], x[None])[0, 0] for x in pts])
    c = _dense_phases(config, pts, grid.points())
    want = config.mehta * np.sum(np.abs(c) ** 2 * vw.reshape(-1), axis=1)
    np.testing.assert_allclose(got, want, rtol=1e-12)


# one shift takes the in-place branch of _blocked_scatter, several the row loop
@pytest.mark.parametrize("shifts", [1, 3])
@pytest.mark.parametrize("dim,kappa", CONFIGS)
def test_translates_match_dense_product(dim, kappa, shifts, rng):
    config = make_config(dim, kappa)
    grid = Grid(config, SPEC)
    ys = _points(config, rng, shifts)
    xs = _points(config, rng, 5)
    dvec = _dvec(grid, rng)
    cy = _dense_phases(config, ys, grid.points())
    cx = _dense_phases(config, xs, grid.points())
    want = config.mehta * (cy.conj() * dvec.reshape(-1)) @ cx.T
    got = _translate_at(grid, dvec, ys, xs)
    assert got.shape == (shifts, 5)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("dim,kappa", CONFIGS)
def test_unshifted_row_matches_dense_product(dim, kappa, rng):
    config = make_config(dim, kappa)
    grid = Grid(config, SPEC)
    xs = _points(config, rng)
    dvec = _dvec(grid, rng)
    want = _dense_phases(config, xs, grid.points()) @ dvec.reshape(-1)
    got = _blocked_scatter(grid, dvec, xs, INVERSE)
    assert got.shape == (1, len(xs))
    np.testing.assert_allclose(got[0], want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("shifts", [1, 3])
@pytest.mark.parametrize("dim,kappa", CONFIGS)
def test_point_blocks_do_not_change_translates(dim, kappa, shifts, rng, monkeypatch):
    config = make_config(dim, kappa)
    grid = Grid(config, SPEC)
    ys = _points(config, rng, shifts)
    xs = _points(config, rng, 7)
    dvec = _dvec(grid, rng)
    whole = _translate_at(grid, dvec, ys, xs)
    monkeypatch.setattr(transform, "_POINT_BLOCK", 3)
    blocked = _translate_at(grid, dvec, ys, xs)
    # blocks of 3, 3 and 1 outputs; a one-row block may take another BLAS
    # path, so the sums agree to rounding rather than bit for bit
    np.testing.assert_allclose(blocked, whole, rtol=1e-14, atol=1e-14 * np.max(np.abs(whole)))


# _blocked_scatter contracts tensor-grid outputs axis by axis; the same nodes
# in another order are a scattered set and go through _scatter_contract
@pytest.mark.parametrize("shifts", [0, 1, 3])
@pytest.mark.parametrize("dim,kappa", [c for c in CONFIGS if len(c[1]) > 1])
def test_grid_route_matches_scattered_route(dim, kappa, shifts, rng, monkeypatch):
    config = make_config(dim, kappa)
    grid = Grid(config, SPEC)
    nodes = tensor_points([np.sort(rng.uniform(-2.5, 2.5, n)) for n in (4, 5, 3)[:dim]])
    order = rng.permutation(len(nodes))
    assert tensor_axes(nodes) is not None and tensor_axes(nodes[order]) is None
    ys = _points(config, rng, shifts) if shifts else None
    dvec = _dvec(grid, rng)
    routes = []
    real = transform._grid_contract
    monkeypatch.setattr(transform, "_grid_contract", lambda *a: routes.append(a) or real(*a))
    scattered = _blocked_scatter(grid, dvec, nodes[order], INVERSE, shifts=ys)
    assert routes == []
    on_grid = _blocked_scatter(grid, dvec, nodes, INVERSE, shifts=ys)
    assert len(routes) == max(shifts, 1)
    np.testing.assert_allclose(
        on_grid[:, order], scattered, rtol=1e-13, atol=1e-13 * np.max(np.abs(scattered))
    )


def test_grid_outputs_build_phases_on_the_axes(monkeypatch):
    config = make_config(2, [1.0, 0.0])
    rows = []
    real = transform._phase_1d
    monkeypatch.setattr(transform, "_phase_1d", lambda k, z, sign: rows.append(len(z)) or real(k, z, sign))
    got = forward(config, QuadratureSpec(8.0, 48), gaussian(1.0), tensor_points(uniform_axes(2, 3.0, 30)))
    assert got.shape == (900,)
    # two axes at n and at 2n nodes, each the nonnegative half of a mirrored 30-node axis
    assert rows == [15] * 4


def _full_axis_matrices(config, rows, cols, sign):
    """Every element of every phase matrix through _phase_1d, no mirroring."""
    return [_phase_1d(k, np.multiply.outer(r, c), sign) for k, r, c in zip(config.kappa, rows, cols)]


_MIRRORED = Grid(make_config(1, [0.0]), SPEC.doubled()).axes[0]  # 20 Gauss-Legendre nodes


_ODD = uniform_axes(1, 3.0, 9)[0]  # mirrored, with an exact 0 at the centre


# mirrored rows and columns (even, odd, mixed); mirrored columns only
# (shift-like rows, a row at 0, a single row, no rows); mirrored odd rows
# only; neither (odd length, mirrored but for one ulp)
@pytest.mark.parametrize(
    "rows,cols",
    [
        (_MIRRORED, _MIRRORED[2:-2]),
        (_ODD, _ODD),
        (_ODD, _MIRRORED),
        (_MIRRORED, _ODD[1:-1]),
        (np.array([-2.5, -0.3, 0.0, 0.7, 1.1, 3.9]), _MIRRORED),
        (np.array([0.0]), _MIRRORED),
        (np.array([1.3]), _MIRRORED),
        (np.array([]), _MIRRORED),
        (np.linspace(-3.0, 3.0, 7), _MIRRORED[1:]),
        (_MIRRORED, np.append(_MIRRORED[:-1], np.nextafter(_MIRRORED[-1], np.inf))),
    ],
)
@pytest.mark.parametrize("kappa", [0.0, 0.5, 2.0, 0.3, 1.7])
@pytest.mark.parametrize("sign", [-1, 1])
def test_mirrored_build_equals_the_full_build(rows, cols, kappa, sign):
    config = make_config(1, [kappa])
    (got,) = transform._axis_matrices(config, [rows], [cols], sign)
    (want,) = _full_axis_matrices(config, [rows], [cols], sign)
    assert got.shape == want.shape and got.flags.writeable
    # compared as floats: at a row 0 a zero imaginary part may differ in sign
    np.testing.assert_array_equal(got.view(float), want.view(float))


def test_mirrored_pair_evaluates_one_quadrant(monkeypatch):
    sizes = []
    real = transform._phase_1d
    monkeypatch.setattr(transform, "_phase_1d", lambda k, z, sign: sizes.append(z.shape) or real(k, z, sign))
    (m,) = transform._axis_matrices(make_config(1, [0.5]), [_MIRRORED], [_MIRRORED], INVERSE)
    assert m.shape == (20, 20)
    assert sizes == [(10, 10)]
    (m,) = transform._axis_matrices(make_config(1, [0.5]), [_ODD], [_MIRRORED], INVERSE)
    assert m.shape == (9, 20)
    assert sizes[1:] == [(5, 10)]  # the centre 0 and the four positive nodes


_RESULT_CONFIGS = [(1, [0.5]), (2, [0.3, 1.7]), (3, [1.0, 0.5, 0.0])]


# forward at grid nodes and forward_grid's uniform outputs mirror rows and
# columns, the shifted rows of translate and gram only the columns; the
# builtin points include the origin
@pytest.mark.parametrize("dim,kappa", _RESULT_CONFIGS)
def test_results_equal_the_full_build(dim, kappa, rng, monkeypatch):
    config = make_config(dim, kappa)
    f = gaussian(1.0)
    y, x = _points(config, rng, 1)[0], _points(config, rng, 4)

    def results():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AccuracyWarning)
            return [
                forward(config, SPEC, _density, Grid(config, SPEC).points()),
                forward_grid(config, SPEC, f).values,
                translate(config, SPEC, f, y, x),
                gram(config, SPEC, f, builtin_points(dim, 4)).matrix,
            ]

    mirrored = results()
    monkeypatch.setattr(transform, "_axis_matrices", _full_axis_matrices)
    for got, want in zip(mirrored, results()):
        got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
        np.testing.assert_array_equal(got.view(float), want.view(float))


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
