"""The translation sum against explicit dense matrices.

Gram matrices and translates are rows of translation._translate_at, which
_blocked_scatter contracts over per-axis phase matrices, on tensor-grid
outputs axis by axis.  Here the same sums are written out densely: C[p, k] is the
phase E(i x_p, xi_k) at every (point, grid node) pair, built on the
flattened node list without any tensor structure, and with c the config's
mehta constant

    T = c conj(C_y) diag(dvec) C_x^T,   G = T at y = x,
    G[j, j] = c sum_k |C[j, k]|^2 dvec[k].

Each dense test runs on two summands: random complex values on every node,
which take the complex sum, and a catalog density, even by construction,
which Grid.summand folds onto the nonnegative orthant; its dense reference
still sums every node of grid.sample(f) * grid.weight_grid().
"""

import inspect
import math
import warnings

import numpy as np
import pytest

from dunklpd import AccuracyWarning, identities, make_config, posdef, quadrature, transform, translation
from dunklpd.functions import (
    DensityProduct,
    even_by_construction,
    gaussian,
    gaussian_density,
    generalized_cauchy,
    sample_on_axes,
    tensor_axes,
    tensor_points,
    uniform_axes,
)
from dunklpd.kernel import _phase_1d, kernel_nd
from dunklpd.posdef import builtin_points, gram
from dunklpd.quadrature import Grid, QuadratureSpec, Summand, integrate_with_check
from dunklpd.transform import (
    FORWARD,
    INVERSE,
    _blocked_scatter,
    _transformer,
    forward,
    forward_grid,
    inverse,
    numeric_density,
    plancherel_duality,
    spectral_density,
    tabulated_density,
)
from dunklpd.translation import _translate_at, convolve, convolve_direct, translate, translate_mass

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


SUMMANDS = ("random", "catalog")
# the folded sum is held to 1e-14 of the largest entry, the random complex one to 1e-12
_TOL = {"random": 1e-12, "catalog": 1e-14}


def _summand(grid, kind, rng):
    """(summand, dvec): what the contractions take, and the weighted density on every node."""
    if kind == "random":
        dvec = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
        return Summand(grid.axes, dvec, False), dvec
    config = grid.config
    f = DensityProduct(config, (gaussian(0.3), generalized_cauchy(config.gamma + config.dimension / 2.0 + 2.0)))
    summand = grid.summand(f)
    assert summand.folded, "a catalog density on a mirrored grid is folded"
    return summand, grid.sample(f) * grid.weight_grid()


def _with_summands(configs):
    """(dim, kappa, kind) for each config and summand: the random summand under
    the config's own id, the catalog one under that id and -folded."""
    return [
        pytest.param(dim, kappa, kind, id=f"{dim}-kappa{i}" + ("-folded" if kind == "catalog" else ""))
        for kind in SUMMANDS
        for i, (dim, kappa) in enumerate(configs)
    ]


def _close(got, want, kind):
    np.testing.assert_allclose(got, want, rtol=_TOL[kind], atol=_TOL[kind] * np.max(np.abs(want)))


@pytest.mark.parametrize("dim,kappa,kind", _with_summands(CONFIGS))
def test_gram_matches_dense_product(dim, kappa, kind, rng):
    config = make_config(dim, kappa)
    grid = Grid(config, SPEC)
    pts = _points(config, rng)
    summand, dvec = _summand(grid, kind, rng)
    c = _dense_phases(config, pts, grid.points())
    want = config.mehta * (c.conj() * dvec.reshape(-1)) @ c.T
    got = _translate_at(grid, summand, pts, pts)
    assert got.shape == (len(pts), len(pts))
    _close(got, want, kind)


@pytest.mark.parametrize("dim,kappa", CONFIGS)
def test_translate_diagonal_matches_dense_diagonal(dim, kappa, rng):
    config = make_config(dim, kappa)
    pts = _points(config, rng)
    grid = Grid(config, SPEC.doubled())
    summand = grid.summand(_density)
    vw = summand.vw
    # entry by entry: each one-point request is a one-node grid
    got = np.array([_translate_at(grid, summand, x[None], x[None])[0, 0] for x in pts])
    c = _dense_phases(config, pts, grid.points())
    want = config.mehta * np.sum(np.abs(c) ** 2 * vw.reshape(-1), axis=1)
    np.testing.assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("shifts", [1, 3])
@pytest.mark.parametrize("dim,kappa,kind", _with_summands(CONFIGS))
def test_translates_match_dense_product(dim, kappa, shifts, kind, rng):
    config = make_config(dim, kappa)
    grid = Grid(config, SPEC)
    ys = _points(config, rng, shifts)
    xs = _points(config, rng, 5)
    summand, dvec = _summand(grid, kind, rng)
    cy = _dense_phases(config, ys, grid.points())
    cx = _dense_phases(config, xs, grid.points())
    want = config.mehta * (cy.conj() * dvec.reshape(-1)) @ cx.T
    got = _translate_at(grid, summand, ys, xs)
    assert got.shape == (shifts, 5)
    _close(got, want, kind)


@pytest.mark.parametrize("dim,kappa,kind", _with_summands(CONFIGS))
def test_unshifted_row_matches_dense_product(dim, kappa, kind, rng):
    config = make_config(dim, kappa)
    grid = Grid(config, SPEC)
    xs = _points(config, rng)
    summand, dvec = _summand(grid, kind, rng)
    want = _dense_phases(config, xs, grid.points()) @ dvec.reshape(-1)
    got = _blocked_scatter(grid, summand, xs, INVERSE)
    assert got.shape == (1, len(xs))
    _close(got[0], want, kind)


@pytest.mark.parametrize("shifts", [1, 3])
@pytest.mark.parametrize("dim,kappa", CONFIGS)
def test_point_blocks_do_not_change_translates(dim, kappa, shifts, rng, monkeypatch):
    config = make_config(dim, kappa)
    grid = Grid(config, SPEC)
    ys = _points(config, rng, shifts)
    xs = _points(config, rng, 7)
    summand, _ = _summand(grid, "random", rng)
    whole = _translate_at(grid, summand, ys, xs)
    blocks = []
    real = transform._scatter_contract
    monkeypatch.setattr(transform, "_scatter_contract", lambda mats, vw: blocks.append(len(mats[0])) or real(mats, vw))
    # three outputs' rows of the complex phase matrices, of a shift's row
    # factors beside them and of the first intermediate
    n = [len(a) for a in summand.axes]
    monkeypatch.setattr(transform, "_BLOCK_BYTES", 3 * 16 * (2 * sum(n) + math.prod(n[1:])))
    blocked = _translate_at(grid, summand, ys, xs)
    # blocks of 3, 3 and 1 outputs, each contracted once per shift; a one-row
    # block may take another BLAS path, so the sums agree to rounding rather
    # than bit for bit
    assert blocks == [n for n in (3, 3, 1) for _ in range(shifts)]
    np.testing.assert_allclose(blocked, whole, rtol=1e-14, atol=1e-14 * np.max(np.abs(whole)))


# transform._BLOCK_BYTES sizes every block of scattered outputs: its phase
# matrices (8-byte entries for the real even build of a folded sum without
# shift rows, 16 otherwise), with shift rows the factors of one row beside
# them, and the first intermediate of its _scatter_contract together, in every
# dimension, on every summand layout, with or without shift rows (which are
# built once, apart from the blocks).  A separable summand contracts each axis
# alone into one sum per point, so at d >= 2 its blocks hold more points than
# a dense summand's first intermediate would let in.
@pytest.mark.parametrize("shifts", [0, 2])
@pytest.mark.parametrize("layout", ["complex", "folded", "separable"])
@pytest.mark.parametrize("dim,kappa", [(1, [0.3]), (2, [1.0, 0.0]), (3, [0.3, 0.0, 1.7])])
def test_every_point_block_fits_the_budget(dim, kappa, layout, shifts, rng, monkeypatch):
    config = make_config(dim, kappa)
    grid = Grid(config, SPEC)
    if layout == "separable":
        summand = grid.summand(gaussian(0.3))
        assert summand.axis_vw is not None
    else:
        summand, _ = _summand(grid, "catalog" if layout == "folded" else "random", rng)
    ys = _points(config, rng, shifts) if shifts else None
    xs = _points(config, rng, 200)
    whole = _blocked_scatter(grid, summand, xs, INVERSE, shifts=ys)
    budget = 4096
    monkeypatch.setattr(transform, "_BLOCK_BYTES", budget)
    # [points, phase matrix bytes, largest row factors, largest first intermediate]
    # per _axis_matrices call
    blocks = []
    real_mats, real_factors, real_contract = transform._axis_matrices, transform._row_factors, transform._scatter_contract

    def axis_matrices(config, rows, cols, sign):
        mats = real_mats(config, rows, cols, sign)
        blocks.append([len(rows[0]), sum(m.nbytes for m in mats), 0, 0])
        return mats

    def row_factors(*args):
        factors = real_factors(*args)
        if args[1] is not None:
            blocks[-1][2] = max(blocks[-1][2], sum(f.nbytes for f in factors))
        return factors

    def scatter_contract(mats, vw):
        first = len(mats[0]) * math.prod(vw.shape[1:]) * np.result_type(mats[0], vw).itemsize
        blocks[-1][3] = max(blocks[-1][3], first)
        return real_contract(mats, vw)

    monkeypatch.setattr(transform, "_axis_matrices", axis_matrices)
    monkeypatch.setattr(transform, "_row_factors", row_factors)
    monkeypatch.setattr(transform, "_scatter_contract", scatter_contract)
    blocked = _blocked_scatter(grid, summand, xs, INVERSE, shifts=ys)
    blocks = blocks[1:] if shifts else blocks  # the shift rows' build comes first
    assert len(blocks) > 1 and all(sum(block[1:]) <= budget for block in blocks), blocks
    if layout == "separable" and dim > 1:
        n = [len(a) for a in summand.axes]
        assert blocks[0][0] > budget // (16 * (2 * sum(n) + math.prod(n[1:]))), blocks
    np.testing.assert_allclose(blocked, whole, rtol=1e-13, atol=1e-13 * np.max(np.abs(whole)))


# a tensor grid whose outputs' phase matrices fit in the budget is one block,
# summed axis by axis; one past it is cut into slabs of its first axis, each
# summed axis by axis too, so the later axes keep their half build and d >= 2
# keeps the axis-by-axis cost.  Each slab holds as many first-axis nodes as fit
# beside the later axes' matrices.  At d = 1 a slab sums its rows by the same
# matrix-vector product as the one block, and the values stay bit for bit; at
# d >= 2 the first axis's matrix product is cut, which may round otherwise.
@pytest.mark.parametrize("shifts", [0, 2])
@pytest.mark.parametrize("dim,kappa,count,step", [(1, [0.3], 64, 16), (2, [0.3, 1.7], 25, 4), (3, [1.0, 0.5, 0.0], 15, 2)])
def test_a_grid_past_the_budget_is_cut_into_slabs(dim, kappa, count, step, shifts, rng, monkeypatch):
    config = make_config(dim, kappa)
    grid = Grid(config, SPEC)
    summand, _ = _summand(grid, "random", rng)
    ys = _points(config, rng, shifts) if shifts else None
    axes = uniform_axes(dim, 3.0, count)
    pts = tensor_points(axes)
    n = [len(a) for a in summand.axes]
    copies = 2 if shifts else 1  # the phase matrices and a shift's row factors
    rest = sum(len(a) * k for a, k in zip(axes[1:], n[1:]))
    fits = copies * 16 * sum(len(a) * k for a, k in zip(axes, n))
    slab = copies * 16 * (step * n[0] + rest)  # step first-axis nodes and every later axis
    assert slab < fits
    slabs, points = [], []
    real_grid = transform._grid_contract
    monkeypatch.setattr(transform, "_grid_contract", lambda m, vw: slabs.append(len(m[0])) or real_grid(m, vw))
    monkeypatch.setattr(transform, "_scatter_contract", lambda m, vw: points.append(len(m[0])))
    monkeypatch.setattr(transform, "_BLOCK_BYTES", fits)
    whole = _blocked_scatter(grid, summand, pts, INVERSE, shifts=ys)
    assert slabs == [count] * max(shifts, 1)
    slabs.clear()
    monkeypatch.setattr(transform, "_BLOCK_BYTES", slab + copies * 16 * n[0] - 1)
    cut = _blocked_scatter(grid, summand, pts, INVERSE, shifts=ys)
    assert points == []
    assert slabs == [min(step, count - s) for s in range(0, count, step) for _ in range(max(shifts, 1))]
    if dim == 1:
        np.testing.assert_array_equal(cut.view(float), whole.view(float))
    else:
        np.testing.assert_allclose(cut, whole, rtol=1e-13, atol=1e-13 * np.max(np.abs(whole)))


# _blocked_scatter contracts tensor-grid outputs axis by axis; the same nodes
# in another order are a scattered set and go through _scatter_contract
@pytest.mark.parametrize("shifts", [0, 1, 3])
@pytest.mark.parametrize("dim,kappa,kind", _with_summands([c for c in CONFIGS if len(c[1]) > 1]))
def test_grid_route_matches_scattered_route(dim, kappa, shifts, kind, rng, monkeypatch):
    config = make_config(dim, kappa)
    grid = Grid(config, SPEC)
    nodes = tensor_points([np.sort(rng.uniform(-2.5, 2.5, n)) for n in (4, 5, 3)[:dim]])
    order = rng.permutation(len(nodes))
    assert tensor_axes(nodes) is not None and tensor_axes(nodes[order]) is None
    ys = _points(config, rng, shifts) if shifts else None
    summand, _ = _summand(grid, kind, rng)
    routes = []
    real = transform._grid_contract
    monkeypatch.setattr(transform, "_grid_contract", lambda *a: routes.append(a) or real(*a))
    scattered = _blocked_scatter(grid, summand, nodes[order], INVERSE, shifts=ys)
    assert routes == []
    on_grid = _blocked_scatter(grid, summand, nodes, INVERSE, shifts=ys)
    assert len(routes) == max(shifts, 1)
    tol = 1e-13 if kind == "random" else 1e-14
    np.testing.assert_allclose(on_grid[:, order], scattered, rtol=tol, atol=tol * np.max(np.abs(scattered)))


def test_grid_outputs_build_phases_on_the_axes(monkeypatch):
    config = make_config(2, [1.0, 0.0])
    blocks = []
    real = transform._phase_1d
    monkeypatch.setattr(transform, "_phase_1d", lambda k, z, sign: blocks.append(z.shape) or real(k, z, sign))
    got = forward(config, QuadratureSpec(8.0, 48), gaussian(1.0), tensor_points(uniform_axes(2, 3.0, 30)))
    assert got.shape == (900,)
    # two axes at n and at 2n nodes: the nonnegative half of a mirrored 30-node
    # output axis against the nonnegative half of the grid axis, as the folded sum reads it
    assert blocks == [(15, 24)] * 2 + [(15, 48)] * 2


def _full_axis_matrices(config, rows, cols, sign):
    """Every element of every phase matrix through _phase_1d, no mirroring."""
    return [_phase_1d(k, np.multiply.outer(r, c), sign) for k, r, c in zip(config.kappa, rows, cols)]


_MIRRORED = Grid(make_config(1, [0.0]), SPEC.doubled()).axes[0]  # 20 Gauss-Legendre nodes


_ODD = uniform_axes(1, 3.0, 9)[0]  # mirrored, with an exact 0 at the centre


# _MIRRORED with its outermost pair of nodes moved out by one ulp: still
# mirrored, and its half one ulp from _MIRRORED's
_MIRRORED_ULP = _MIRRORED.copy()
_MIRRORED_ULP[-1] = np.nextafter(_MIRRORED[-1], np.inf)
_MIRRORED_ULP[0] = -_MIRRORED_ULP[-1]


# mirrored rows and columns (even, odd, mixed); mirrored columns only
# (shift-like rows, a row at 0, a single row, no rows); mirrored odd rows
# only; neither (odd length, mirrored but for one ulp); mirrored rows and
# columns with equal halves (symmetric) and with halves one ulp apart
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
        (_MIRRORED, _MIRRORED),
        (_MIRRORED, _MIRRORED_ULP),
    ],
)
@pytest.mark.parametrize("kappa", [0.0, 0.5, 2.0, 0.3, 1.7])
@pytest.mark.parametrize("sign", [-1, 0, 1])
def test_mirrored_build_equals_the_full_build(rows, cols, kappa, sign):
    config = make_config(1, [kappa])
    (got,) = transform._axis_matrices(config, [rows], [cols], sign)
    (want,) = _full_axis_matrices(config, [rows], [cols], sign)
    assert got.shape == want.shape and got.dtype == want.dtype and not got.flags.writeable
    # compared as floats: at a row 0 a zero imaginary part may differ in sign
    np.testing.assert_array_equal(got.view(float), want.view(float))


def test_mirrored_pair_evaluates_one_quadrant(monkeypatch):
    sizes = []
    real = transform._phase_1d
    monkeypatch.setattr(transform, "_phase_1d", lambda k, z, sign: sizes.append(z.shape) or real(k, z, sign))
    (m,) = transform._axis_matrices(make_config(1, [0.5]), [_MIRRORED], [_MIRRORED], INVERSE)
    assert m.shape == (20, 20)
    assert sizes == [(55,)]  # equal halves: the upper triangle of the 10 x 10 quadrant
    (m,) = transform._axis_matrices(make_config(1, [0.5]), [_ODD], [_MIRRORED], INVERSE)
    assert m.shape == (9, 20)
    assert sizes[1:] == [(5, 10)]  # the centre 0 and the four positive nodes
    (m,) = transform._axis_matrices(make_config(1, [0.5]), [_MIRRORED], [_MIRRORED_ULP], INVERSE)
    assert m.shape == (20, 20)
    assert sizes[2:] == [(10, 10)]  # halves one ulp apart: the whole quadrant


# _axis_matrices keeps recent matrices in transform._STORE (conftest empties it
# before each test): read-only, keyed by kappa, sign and the coordinates bit for
# bit, at most _STORE_BYTES together, least recently used out first


def _spy_on_phases(monkeypatch) -> list:
    """The argument shape of every _phase_1d evaluation from here on."""
    sizes = []
    real = transform._phase_1d
    monkeypatch.setattr(transform, "_phase_1d", lambda k, z, sign: sizes.append(z.shape) or real(k, z, sign))
    return sizes


def _store_bytes() -> int:
    return sum(m.nbytes for m in transform._STORE.values())


@pytest.mark.parametrize("sign", [-1, 0, 1])
def test_a_stored_matrix_is_the_fresh_build_and_read_only(sign, monkeypatch):
    config = make_config(2, [0.3, 1.7])
    rows, cols = [_ODD, np.array([1.3, -0.2])], [_MIRRORED, _MIRRORED[3:]]
    first = transform._axis_matrices(config, rows, cols, sign)
    sizes = _spy_on_phases(monkeypatch)
    again = transform._axis_matrices(config, [r.copy() for r in rows], [c.copy() for c in cols], sign)
    assert sizes == [] and all(a is b for a, b in zip(again, first))
    for got, want in zip(again, _full_axis_matrices(config, rows, cols, sign)):
        np.testing.assert_array_equal(got.view(float), want.view(float))
        with pytest.raises(ValueError, match="read-only"):
            got[0, 0] = 1.0


# builds of 16 x 600 complex entries, 150 KB each: 13 fit under the 2 MB cap,
# and each build past them pushes out the least recently used, which a read
# moves last: the first build, read again every fifth, stays
def test_the_store_holds_at_most_its_cap():
    config = make_config(1, [0.3])
    cols = [np.linspace(0.1, 6.0, 600)]
    build = lambda i: transform._axis_matrices(config, [np.linspace(0.0, 1.0, 16) + i], cols, INVERSE)[0]
    first, others = build(0), []
    for i in range(1, 40):
        if i % 5:
            others.append(build(i))
        else:
            assert build(0) is first
        assert _store_bytes() <= transform._STORE_BYTES
    held = transform._STORE_BYTES // first.nbytes
    assert held == 13
    assert {id(m) for m in transform._STORE.values()} == {id(first)} | {id(m) for m in others[-(held - 1) :]}


def test_a_build_over_the_cap_empties_the_store_and_is_not_kept(monkeypatch):
    config = make_config(1, [0.5])
    transform._axis_matrices(config, [np.array([0.4, 1.1])], [_MIRRORED], INVERSE)
    assert len(transform._STORE) == 1
    rows, cols = uniform_axes(1, 3.0, 301)[0], np.linspace(0.05, 5.0, 500)
    assert 301 * 500 * 16 > transform._STORE_BYTES
    (big,) = transform._axis_matrices(config, [rows], [cols], INVERSE)
    assert len(transform._STORE) == 0 and not big.flags.writeable
    (want,) = _full_axis_matrices(config, [rows], [cols], INVERSE)
    np.testing.assert_array_equal(big.view(float), want.view(float))
    sizes = _spy_on_phases(monkeypatch)
    transform._axis_matrices(config, [rows], [cols], INVERSE)
    transform._axis_matrices(config, [np.array([0.4, 1.1])], [_MIRRORED], INVERSE)
    assert sizes == [(151, 500), (2, 10)]  # neither was kept


# each part of the key tells builds apart: kappa, sign, rows, and cols one ulp off
def test_store_keys_tell_every_argument_apart(monkeypatch):
    rows, cols = np.array([0.4, 1.1, 2.5]), _MIRRORED
    transform._axis_matrices(make_config(1, [0.3]), [rows], [cols], INVERSE)
    sizes = _spy_on_phases(monkeypatch)
    transform._axis_matrices(make_config(1, [0.3]), [rows], [cols], INVERSE)
    assert sizes == []
    for kappa, sign, r, c in [
        (0.3 + 2.0**-52, INVERSE, rows, cols),
        (0.3, FORWARD, rows, cols),
        (0.3, 0, rows, cols),
        (0.3, INVERSE, np.append(rows[:-1], np.nextafter(rows[-1], np.inf)), cols),
        (0.3, INVERSE, rows, _MIRRORED_ULP),
    ]:
        sizes.clear()
        transform._axis_matrices(make_config(1, [kappa]), [r], [c], sign)
        assert sizes == [(3, 10)], (kappa, sign)


# a translate's shift rows are built apart from its outputs, so outputs on a
# mirrored mesh evaluate their nonnegative half alone: 5 of the 9 rows of
# uniform_axes(d, 3, 9) per axis, against the half grid axis of the folded summand
@pytest.mark.parametrize("dim,kappa", [(1, [0.5]), (2, [0.3, 1.7])])
def test_translate_at_mirrored_outputs_evaluates_their_half(dim, kappa, rng, monkeypatch):
    config = make_config(dim, kappa)
    grid = Grid(config, SPEC)
    summand = grid.summand(gaussian(1.0))
    ys, xs = _points(config, rng, 2), tensor_points(uniform_axes(dim, 3.0, 9))
    sizes = _spy_on_phases(monkeypatch)
    got = _translate_at(grid, summand, ys, xs)
    assert sizes == [(2, 5)] * dim + [(5, 5)] * dim
    monkeypatch.setattr(transform, "_axis_matrices", _full_axis_matrices)
    np.testing.assert_array_equal(got, _translate_at(grid, summand, ys, xs))


# at y = x the outputs' matrices are the shift rows' own: one build per axis and pass
@pytest.mark.parametrize("dim,kappa", [(1, [0.5]), (2, [0.3, 1.7])])
def test_gram_builds_its_points_matrix_once(dim, kappa, monkeypatch):
    config = make_config(dim, kappa)
    sizes = _spy_on_phases(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        gram(config, SPEC, gaussian(1.0), builtin_points(dim, 5))
    assert sizes == [(5, 5)] * dim + [(5, 10)] * dim


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
    want = inverse(config, None, DensityProduct(config, (df, dg)), x)
    np.testing.assert_array_equal(got, want)


def _convolve_inputs(config, kind):
    """(f, g) for convolve_direct: a catalog f or a sampled f that is not even."""
    g = generalized_cauchy(config.gamma + config.dimension / 2.0 + 2.0)
    if kind == "catalog":
        return gaussian(1.0), g
    fn = lambda p: np.exp(-np.sum(p * p, axis=1)) * (1.0 + 0.5 * p[:, 0])
    return sample_on_axes(config, fn, uniform_axes(config.dimension, 5.0, 21)), g


# convolve_direct's grid sum written out densely, with C_x and C_y the phases
# E(i x, xi) of the outputs and of the nodes, w the weights on the nodes:
#     c^2 conj(C_x) diag(dg(-xi) w) C_y^T (f w),
# the integral of f against the translate of the flipped g at every node
@pytest.mark.parametrize("kind", ["catalog", "sampled"])
@pytest.mark.parametrize("dim,kappa", [(1, [0.5]), (1, [0.3]), (2, [1.0, 0.0])])
def test_direct_convolution_matches_dense_double_sum(dim, kappa, kind, rng):
    config = make_config(dim, kappa)
    f, g = _convolve_inputs(config, kind)
    xs = _points(config, rng, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        got = convolve_direct(config, SPEC, f, g, xs)
    grid = Grid(config, SPEC.doubled())  # two_pass returns the doubled pass
    nodes, w = grid.points(), grid.weight_grid().reshape(-1)
    fw = (grid.sample(f) * grid.weight_grid()).reshape(-1)
    flipped = spectral_density(config, None, g)(-nodes) * w
    inner = _dense_phases(config, nodes, nodes).T @ fw
    want = config.mehta**2 * _dense_phases(config, xs, nodes).conj() @ (flipped * inner)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * np.max(np.abs(want)))


# one composite per pass, whatever the number of outputs: no translate is
# taken, and the phase matrices are built once per leg and pass
def test_direct_convolution_is_one_composite(rng, monkeypatch):
    config = make_config(2, [1.0, 0.0])
    f, g = _convolve_inputs(config, "catalog")

    def refuse(*args):
        raise AssertionError("convolve_direct took a translate")

    monkeypatch.setattr(translation, "_translate_at", refuse)
    calls = []
    real = transform._axis_matrices
    monkeypatch.setattr(transform, "_axis_matrices", lambda *a: calls.append(1) or real(*a))
    counts = []
    for n in (2, 12):
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AccuracyWarning)
            convolve_direct(config, SPEC, f, g, _points(config, rng, n))
        counts.append(len(calls))
    assert counts[0] == counts[1] == 4


# only handles even by construction are folded: a raw callable over an even
# density and a sampled handle are not, whatever their values.  Those keep
# the complex sum over every node, written out here as it was before the
# fold: the full phase matrices, conj(E_j) E per shift row.
@pytest.mark.parametrize("case", ["raw callable", "sampled"])
def test_unfolded_inputs_take_the_complex_sum(case, rng):
    config = make_config(2, [0.3, 1.7])
    grid = Grid(config, SPEC)
    f = {
        "raw callable": lambda p: gaussian(1.0).evaluate(config, p),
        "sampled": sample_on_axes(config, gaussian(1.0), uniform_axes(2, 5.0, 21)),
    }[case]
    summand = grid.summand(f)
    nodes, vw, folded, axis_vw = summand
    assert not folded and axis_vw is None and all(a is b for a, b in zip(nodes, grid.axes))
    np.testing.assert_array_equal(vw, grid.sample(f) * grid.weight_grid())
    ys, xs = _points(config, rng, 2), _points(config, rng, 5)
    mats = transform._axis_matrices(config, [np.concatenate([s, c]) for s, c in zip(ys.T, xs.T)], grid.axes, INVERSE)
    want = config.mehta * np.array([transform._scatter_contract([m[2:] * m[j].conj() for m in mats], vw) for j in (0, 1)])
    got = _translate_at(grid, summand, ys, xs)
    np.testing.assert_array_equal(got.view(float), want.view(float))
    mats = transform._axis_matrices(config, xs.T, grid.axes, FORWARD)
    want = config.mehta * transform._scatter_contract(mats, vw)
    got = _transformer(grid, f, FORWARD)(xs)
    np.testing.assert_array_equal(got.view(float), want.view(float))


# a folded Gram matrix sums A_j A_m + B_j B_m, symmetric in (j, m) factor by
# factor, and has no imaginary part.  At d >= 2 the first axis is a matrix
# product whose rows do not depend on their position, and at d = 1 the one
# axis is summed by einsum's loop rather than a BLAS matrix-vector product
# (whose rounding may depend on the row's place in its block), so the matrix
# is symmetric bit for bit at every d.
@pytest.mark.parametrize("dim,kappa", CONFIGS)
def test_folded_gram_is_real_symmetric(dim, kappa, monkeypatch):
    config = make_config(dim, kappa)
    folds = []
    real = Grid.summand

    def summand(grid, fn):
        out = real(grid, fn)
        folds.append(out.folded)
        return out

    monkeypatch.setattr(Grid, "summand", summand)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        g = gram(config, SPEC, gaussian(1.0), builtin_points(dim, 5)).matrix
    assert folds == [True, True]
    assert not np.any(g.imag)
    np.testing.assert_array_equal(g.real, g.real.T)


# a folded sum without shift rows reads only the real even part A_k, which
# _axis_matrices builds alone at sign 0; shifted rows (translates, Gram
# matrices) need B_k too, and an unfolded sum the whole complex phase, so they
# never ask for sign 0.  kernel.products.* in perfbench/tracer.py count the
# elements at _phase_1d whatever the sign.
@pytest.mark.parametrize("dim,kappa", _RESULT_CONFIGS)
def test_only_unshifted_folded_sums_read_the_even_part_alone(dim, kappa, rng, monkeypatch):
    config = make_config(dim, kappa)
    f = gaussian(1.0)
    y, x = _points(config, rng, 1)[0], _points(config, rng, 4)
    signs = []
    real = transform._phase_1d
    monkeypatch.setattr(transform, "_phase_1d", lambda k, z, sign: signs.append(sign) or real(k, z, sign))

    def signs_of(run):  # each run starts from an empty store, so it evaluates every phase it reads
        signs.clear()
        transform._STORE.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AccuracyWarning)
            run()
        assert signs
        return set(signs)

    assert signs_of(lambda: forward(config, SPEC, f, x)) == {0}
    assert signs_of(lambda: inverse(config, SPEC, spectral_density(config, SPEC, f), x)) == {0}
    assert 0 not in signs_of(lambda: translate(config, SPEC, f, y, x))
    assert 0 not in signs_of(lambda: gram(config, SPEC, f, builtin_points(dim, 4)))
    assert signs_of(lambda: forward(config, SPEC, lambda p: f.evaluate(config, p), x)) == {FORWARD}


# a folded sum is itself even, so the transform it builds answers even and the
# outer leg of a composite over it folds too: the round trips and the product
# rule read only A_k (sign 0) on both legs.  transform_double_is_parity's odd
# raw integrand is not folded on either leg and keeps the complex phases.
def test_even_composites_fold_both_legs(monkeypatch):
    config = make_config(1, [0.5])
    signs, current = {}, [None]
    checked, phase = identities._checked, transform._phase_1d

    def named(what, *args):  # each composite starts from an empty store and evaluates its own phases
        current[0] = what
        transform._STORE.clear()
        try:
            return checked(what, *args)
        finally:
            current[0] = None

    def spy(k, z, sign):
        signs.setdefault(current[0], set()).add(sign)
        return phase(k, z, sign)

    monkeypatch.setattr(identities, "_checked", named)
    monkeypatch.setattr(transform, "_phase_1d", spy)
    identities.suite_transform(config)
    identities.suite_translation(config)
    composites = [name for name in signs if name and name.startswith("inversion_round_trip_")]
    assert len(composites) == 4
    for name in composites + ["convolution_product_rule"]:
        assert signs[name] == {0}, name
    assert FORWARD in signs["transform_double_is_parity"]


def test_transforms_answer_even_when_their_sum_folds():
    config = make_config(2, [1.0, 0.0])
    grid = Grid(config, SPEC)
    raw = lambda p: gaussian(1.0).evaluate(config, p)
    assert even_by_construction(tabulated_density(config, SPEC, gaussian(1.0)))
    assert not even_by_construction(tabulated_density(config, SPEC, raw))
    assert even_by_construction(_transformer(grid, gaussian(1.0), FORWARD))
    product = DensityProduct(config, (gaussian(1.0), generalized_cauchy(4.0)))
    assert even_by_construction(_transformer(grid, product, INVERSE))
    assert not even_by_construction(_transformer(grid, raw, FORWARD))
    assert not even_by_construction(numeric_density(config, SPEC, raw))
    sampled = sample_on_axes(config, gaussian(1.0), uniform_axes(2, 5.0, 21))
    assert not even_by_construction(_transformer(grid, sampled, FORWARD))
    # a product is even only when every factor is
    assert not even_by_construction(DensityProduct(config, (gaussian(1.0), _transformer(grid, raw, FORWARD))))


# Every sum of a handle over a grid reads Grid.summand: the translate diagonal
# of bound_check, integrate_with_check, both sides of translate_mass and both
# pairings of plancherel_duality.  An even handle is sampled, or factored per
# axis when it factors (the Gaussians), and its phase matrices built, on the
# nonnegative half axes alone; a raw callable or a sampled handle on every
# node.  Each sum is run on SPEC, so its reported value is the doubled pass,
# and compared with that sum written out over every node of
# Grid(config, SPEC.doubled()).
HANDLE_SUMS = ("bound_check", "integrate_with_check", "translate_mass", "plancherel_duality")
_PAIRED = gaussian(0.7)  # plancherel_duality's g


def _spy_on_grid_axes(monkeypatch):
    """Record the axes of every grid sample (quadrature.sample_grid, behind
    Grid.sample and Grid.summand), of every answered per-axis factoring
    (quadrature.sample_factors, behind a separable Grid.summand) and the
    columns of every phase matrix."""
    seen = {"sample": [], "factors": [], "phase": []}
    sample, factors, phases = quadrature.sample_grid, quadrature.sample_factors, transform._axis_matrices

    def spy_factors(c, fn, axes):
        out = factors(c, fn, axes)
        if out is not None:
            seen["factors"].append(axes)
        return out

    spy_sample = lambda c, fn, axes: seen["sample"].append(axes) or sample(c, fn, axes)
    spy = lambda c, rows, cols, sign: seen["phase"].append(cols) or phases(c, rows, cols, sign)
    monkeypatch.setattr(quadrature, "sample_grid", spy_sample)
    monkeypatch.setattr(quadrature, "sample_factors", spy_factors)
    for module in (transform, translation, posdef):
        monkeypatch.setattr(module, "_axis_matrices", spy)
    return seen


def _run_handle_sum(name, config, f, xs, y, monkeypatch, paired=_PAIRED):
    """The sum's values: bound_check's fine diagonal (read from its two_pass),
    integrate_with_check's value, and (lhs, rhs) of the two identities, with
    paired as plancherel_duality's g."""
    if name == "bound_check":
        passes, real = [], posdef.two_pass
        monkeypatch.setattr(posdef, "two_pass", lambda *a: passes.append(real(*a)) or passes[-1])
        posdef.bound_check(config, SPEC, f, xs)
        return passes[0][0]
    if name == "integrate_with_check":
        return integrate_with_check(config, SPEC, f)[0]
    if name == "translate_mass":
        rep = translate_mass(config, SPEC, f, y)
    else:
        rep = plancherel_duality(config, SPEC, f, paired)
    return complex(rep.computed), complex(rep.expected)


def _full_grid_sum(name, config, f, xs, y):
    """The sum over every node of the doubled grid, written out densely (the
    position sum of the mass per axis, over every node of each outer axis)."""
    grid = Grid(config, SPEC.doubled())
    nodes, w = grid.points(), grid.weight_grid().reshape(-1)
    if name == "bound_check":
        dvec = spectral_density(config, SPEC, f)(nodes) * w
        return config.mehta * np.sum(np.abs(_dense_phases(config, xs, nodes)) ** 2 * dvec, axis=1)
    mass = np.sum(f.evaluate(config, nodes) * w)
    if name == "integrate_with_check":
        return mass
    if name == "translate_mass":
        dvec = spectral_density(config, SPEC, f)(nodes) * w
        columns = np.ones(len(nodes), dtype=complex)
        for k, a, w, c in zip(config.kappa, grid.axes, grid.axis_weights, nodes.T):
            columns = columns * (w @ _phase_1d(k, np.multiply.outer(a, c), INVERSE))
        return config.mehta * np.sum(_dense_phases(config, y[None], nodes)[0].conj() * dvec * columns), mass
    df, dg = spectral_density(config, SPEC, f), spectral_density(config, SPEC, _PAIRED)
    return np.sum(f.evaluate(config, nodes) * dg(nodes) * w), np.sum(df(nodes) * _PAIRED.evaluate(config, nodes) * w)


def _folded_handle_sum(name, config, f, rng, monkeypatch) -> dict:
    """Run the sum of the even handle f, check that it read the half axes alone and
    matches the sum over every node; return what the spy saw."""
    xs, y = _points(config, rng, 4), _points(config, rng, 1)[0]
    seen = _spy_on_grid_axes(monkeypatch)
    got = _run_handle_sum(name, config, f, xs, y, monkeypatch)
    assert bool(seen["phase"]) == (name in ("bound_check", "translate_mass"))
    for axes in seen["sample"] + seen["factors"] + seen["phase"]:
        assert all(np.all(a > 0.0) for a in axes), name
    monkeypatch.undo()
    want = _full_grid_sum(name, config, f, xs, y)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    return seen


# gaussian(1), its density and plancherel_duality's pairings of the two factor
# over the axes: every summand is separable and no grid is sampled
@pytest.mark.parametrize("name", HANDLE_SUMS)
@pytest.mark.parametrize("dim,kappa", CONFIGS)
def test_even_handle_sums_fold_onto_the_half_axes(dim, kappa, name, rng, monkeypatch):
    seen = _folded_handle_sum(name, make_config(dim, kappa), gaussian(1.0), rng, monkeypatch)
    assert seen["factors"] and not seen["sample"]


# the Cauchy profile and its Bessel-K density do not factor: their folded
# summands are sampled on the half axes, dense
@pytest.mark.parametrize("name", HANDLE_SUMS)
@pytest.mark.parametrize("dim,kappa", CONFIGS)
def test_dense_even_handle_sums_fold_onto_the_half_axes(dim, kappa, name, rng, monkeypatch):
    config = make_config(dim, kappa)
    f = generalized_cauchy(config.gamma + config.dimension / 2.0 + 2.0)
    seen = _folded_handle_sum(name, config, f, rng, monkeypatch)
    assert seen["sample"] and not seen["factors"]


# the unfolded contractions are the code they were before every handle sum went
# through Grid.summand, written out here, and equal it bit for bit: the
# translate diagonal on its real part (the old one summed the complex
# products conj(E) E, whose imaginary parts were rounding noise, against the
# weighted density; the new one sums |E|^2 as reals and keeps the density's
# imaginary part), the mass's contraction whole.  The integrals equal the sum
# of the unfolded summand, sample(f) * weight_grid(), bit for bit, and the old
# axis-by-axis Grid.integrate of sample(f) to rounding.
# (translate_mass takes catalog and sampled handles only)
_UNFOLDED = [(c, n) for c in ("raw callable", "sampled") for n in HANDLE_SUMS]


@pytest.mark.parametrize("case,name", [cn for cn in _UNFOLDED if cn != ("raw callable", "translate_mass")])
@pytest.mark.parametrize("dim,kappa", CONFIGS)
def test_raw_and_sampled_handle_sums_stay_unfolded(dim, kappa, case, name, rng, monkeypatch):
    config = make_config(dim, kappa)
    f = {
        "raw callable": lambda p: gaussian(1.0).evaluate(config, p),
        "sampled": sample_on_axes(config, gaussian(1.0), uniform_axes(dim, 5.0, 11)),
    }[case]
    xs, y = _points(config, rng, 4), _points(config, rng, 1)[0]
    seen = _spy_on_grid_axes(monkeypatch)
    got = _run_handle_sum(name, config, f, xs, y, monkeypatch)
    assert seen["sample"]
    for axes in seen["sample"] + seen["phase"]:
        assert all(np.any(a < 0.0) for a in axes), name
    monkeypatch.undo()
    grid = Grid(config, SPEC.doubled())
    old_integral = lambda fn: grid.integrate(grid.sample(fn))
    summed = lambda fn: np.sum(grid.sample(fn) * grid.weight_grid())
    if name == "bound_check":
        density = spectral_density(config, SPEC, f)
        mats = transform._axis_matrices(config, xs.T, grid.axes, INVERSE)
        vw = grid.sample(density) * grid.weight_grid()
        want = config.mehta * transform._scatter_contract([m.conj() * m for m in mats], vw)
        np.testing.assert_array_equal(got.real, want.real)
        np.testing.assert_allclose(got.imag, want.imag, rtol=0.0, atol=1e-15 * np.max(np.abs(want)))
        return
    if name == "integrate_with_check":
        assert got == summed(f)
        np.testing.assert_allclose(got, old_integral(f), rtol=1e-14)
        return
    if name == "translate_mass":
        vw = grid.sample(spectral_density(config, SPEC, f)) * grid.weight_grid()
        cols = transform._axis_matrices(config, [a[len(a) // 2 :] for a in grid.axes], grid.axes, 0)
        shifts = transform._axis_matrices(config, y[:, None], grid.axes, FORWARD)
        rows = [s * ((2.0 * w[len(w) // 2 :]) @ c) for s, w, c in zip(shifts, grid.axis_weights, cols)]
        assert got[0] == config.mehta * complex(transform._scatter_contract(rows, vw)[0])
        assert got[1] == complex(summed(f))
        np.testing.assert_allclose(got[1], old_integral(f), rtol=1e-14)
        return
    df, dg = spectral_density(config, SPEC, f), spectral_density(config, SPEC, _PAIRED)
    pairings = [DensityProduct(config, (f, dg)), DensityProduct(config, (df, _PAIRED))]
    assert got == tuple(complex(summed(fg)) for fg in pairings)
    np.testing.assert_allclose(got, [old_integral(fg) for fg in pairings], rtol=1e-14)


# The separable route against the dense one.  _Dense answers what its handle
# answers except axis_factors, and wraps its partner the same way, so its sums
# take the dense folded route with no switch in the package.  The routes
# differ only in rounding: exp(-t |x|^2) against prod_i exp(-t x_i^2), and
# the order of the sums.  At d = 1 the one factor is the dense summand and
# each axis is contracted by the same call, so the routes agree bit for bit.
class _Dense:
    """inner's answers, all but axis_factors; its partner is wrapped the same way."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        if name == "axis_factors":
            raise AttributeError(name)
        answer = getattr(self.inner, name)
        return (lambda config: _Dense(answer(config))) if name == "partner" else answer

    def __call__(self, points):
        return self.inner(points)


_SEPARABLE = {
    "gaussian": lambda config: gaussian(1.0),
    "gaussian_density": lambda config: gaussian_density(0.8),
    "product": lambda config: DensityProduct(config, (gaussian(0.6), gaussian_density(1.1))),
}
# translate_mass needs a handle that answers nonnegative, which a DensityProduct does not
_ROUTE_CASES = [
    (handle, name)
    for handle in _SEPARABLE
    for name in ("forward", "translate", "gram") + HANDLE_SUMS
    if (handle, name) != ("product", "translate_mass")
]


def _any_handle_sum(name, config, f, xs, y, paired, monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AccuracyWarning)
        if name == "forward":
            return forward(config, SPEC, f, xs)
        if name == "translate":
            return translate(config, SPEC, f, y, xs)
        if name == "gram":
            return gram(config, SPEC, f, builtin_points(config.dimension, 4)).matrix
        got = _run_handle_sum(name, config, f, xs, y, monkeypatch, paired)
    monkeypatch.undo()
    return got


@pytest.mark.parametrize("handle,name", _ROUTE_CASES)
@pytest.mark.parametrize("dim,kappa", [(1, [0.5]), (2, [1.0, 0.0]), (2, [0.3, 1.7]), (3, [1.0, 0.5, 0.0])])
def test_separable_sums_match_the_dense_route(dim, kappa, handle, name, rng, monkeypatch):
    config = make_config(dim, kappa)
    f = _SEPARABLE[handle](config)
    xs, y = _points(config, rng, 4), _points(config, rng, 1)[0]
    assert quadrature.sample_factors(config, f, Grid(config, SPEC).half_axes) is not None
    assert quadrature.sample_factors(config, _Dense(f), Grid(config, SPEC).half_axes) is None
    got = np.asarray(_any_handle_sum(name, config, f, xs, y, _PAIRED, monkeypatch))
    want = np.asarray(_any_handle_sum(name, config, _Dense(f), xs, y, _Dense(_PAIRED), monkeypatch))
    if dim == 1:
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * np.max(np.abs(want)))
