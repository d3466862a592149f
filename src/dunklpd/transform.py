"""Weighted integral transform on R^d with the product reflection kernel.

forward computes  F(xi) = c int f(y) E(-i xi, y) |y|^(2 kappa) dy  by tensor
Gauss-Legendre quadrature, inverse uses the conjugate kernel E(i x, y).  The
normalization c is the config's mehta constant; with it the transform is an
involution up to the sign flip x -> -x, reduces to the unitary Fourier
transform when every multiplicity vanishes, and maps the catalog pairs onto
each other exactly.

Every operator integral runs through _checked, which calls
quadrature.two_pass at the requested resolution and at doubled nodes (every
leg of a composite at once), returns the doubled value and raises an
AccuracyWarning when the difference exceeds 1e-6 relative to the result
scale.  two_pass builds the grids: a run takes one Grid per spec and reads
the config from it.  The checked operators at points, forward_grid's output
nodes included, share one body, _pointwise.

Every kernel sum contracts a weighted grid (Grid.summand) against per-axis
phase matrices, all built by _axis_matrices.  The kernel's conjugate parity
E_k(-z) = conj E_k(z) holds exactly for real z, so on an axis mirrored
exactly about 0 (every Gauss-Legendre axis, every uniform_axes axis) only
the nonnegative half is evaluated and the rest is its reversed conjugate.
When the evaluated row and column halves hold the same values (a sum read
at the nodes of its own grid), that block is symmetric, since
r_i c_j = r_j c_i exactly: its upper triangle is evaluated and transposed
below it.  The matrices are read-only, and _axis_matrices keeps the most
recent ones in a store of at most _STORE_BYTES (2 MB), keyed by kappa, sign
and the coordinates bit for bit, so a request that asks for the same matrix
again (a Gram matrix's points as shift rows and as outputs, the Gram
matrices of several densities at the same points on one grid) evaluates it
once.  A larger build empties the store and is not kept.
_blocked_scatter sums over output points: on the nodes of a tensor grid
axis by axis (_grid_contract; forward_grid passes the nodes of its output
axes), else point by point (_scatter_contract) in blocks.  One byte budget,
_BLOCK_BYTES (32 MB), sizes both from the inputs: a grid's outputs are cut
into slabs of their first axis, one slab while their phase matrices fit in
it, and any other point set into as many points as fit with their phase
matrices and their first intermediate.
_transformer (every transform, every convolution and the suites'
composites) takes its unshifted row, translation._translate_at its shifted
rows: every translate and Gram matrix.  The shift rows are built once, apart
from the outputs, so mirrored outputs keep the half build.

The same parity folds a sum whose integrand is even by construction
(functions.even_by_construction) on any grid, every axis of which is
mirrored.  Pairing each node with its mirror images cancels the odd part B
of every phase E = A + iB, so each axis of the folded summand (laid out by
Grid.summand alone, on its own axes) contracts A(x c), or
A(y c) A(x c) + B(y c) B(x c) for a shifted row: 1/2^d of the nodes in real
arithmetic (without shift rows, A alone at sign 0).  A folded sum is even
in turn: _transformer's callable answers even when it folds, as does
tabulated_density of an even f, so the outer legs of the round trips and
the product rule, and closure_suite's tabulated density, fold too.
plancherel_duality's pairings are sums of DensityProduct summands.  The
route follows each handle's answer, with no option; every other sum
(sampled handles, raw callables, their transforms) is complex over every
node.

The kernel is a product over the axes, so the sum of a folded summand
that factors over them too (the Gaussians and products of them; see
Grid.summand) separates: each axis is contracted alone, by the call its
block uses (_grid_contract or _scatter_contract), and the per-axis results
are multiplied, as an outer product on a tensor grid (Summand.contract).
At d = 1 that is the dense sum, bit for bit.  Cauchy and Bessel-K handles,
sampled handles, raw callables, _transformer's callables and products with
any of these stay dense.
"""

from __future__ import annotations

import math
import sys
import warnings
from collections import OrderedDict
from typing import Callable

import numpy as np

from .errors import AccuracyWarning, DomainError, InputError, NotInCatalogError
from .functions import (
    CATALOG_PARTNER,
    CatalogFunction,
    DensityProduct,
    SampledFunction,
    _mirror_half,
    evaluate_handle,
    even_by_construction,
    tensor_axes,
    tensor_points,
    uniform_axes,
)
from .kernel import _phase_1d
from .quadrature import Grid, QuadratureSpec, default_spec, two_pass
from .reports import IdentityReport
from .root_system import MultiplicityConfig, _in_range, _query_axes, _query_points, _real_points

_WARN_FLOOR = 1e-6

FORWARD = -1
INVERSE = +1


def _resolve_spec(config: MultiplicityConfig, quad: QuadratureSpec | None) -> QuadratureSpec:
    return quad if quad is not None else default_spec(config.dimension)


# _axis_matrices' recent builds, read-only, keyed by (kappa, sign, rows bytes,
# cols bytes), least recently used first, at most _STORE_BYTES together
_STORE_BYTES = 2 << 20
_STORE: OrderedDict = OrderedDict()


def _axis_matrices(config: MultiplicityConfig, rows, cols, sign: int) -> list:
    """Phase matrices E_k(r, sign i c) over rows[i] x cols[i], given as pts.T, grid.axes or y[:, None];
    at sign 0 the real matrices of the even part A_k(r c), the real parts of either sign bit for bit.

    Only the nonnegative half of an exactly mirrored rows[i] or cols[i] is
    evaluated; the other half is the reversed conjugate, by the parity
    E_k(-z) = conj E_k(z) of real z, which every kernel branch keeps exactly
    (kernel.py).  Since (-r) c = -(r c) in floating point, the fill equals
    the full build value for value (where r c = 0 a zero imaginary part may
    flip its sign).  Every _axis_rule axis is mirrored, and so are tensor-grid
    outputs on such axes and every uniform_axes axis, whose odd counts put an
    exact 0 at the centre; shift rows are not, and _blocked_scatter builds
    them apart from its outputs.

    When the evaluated halves of rows[i] and cols[i] are equal (np.array_equal),
    the evaluated block is symmetric: r_j c_i = r_i c_j holds exactly in
    floating point and every kernel branch is elementwise, so only its upper
    triangle is evaluated and its transpose fills the rest, value for value
    the full build.  Halves that differ anywhere, by one ulp included, take
    the full block.

    The matrices are read-only.  Each is kept in _STORE while it fits, so an
    equal request (same kappa, sign and coordinates, bit for bit) returns it
    without evaluating again.  A matrix larger than _STORE_BYTES first empties
    the store and is not kept, so the store adds nothing to the peak memory of
    the large builds.
    """
    mats = []
    for k, r, c in zip(config.kappa, rows, cols):
        r, c = np.asarray(r, dtype=float), np.asarray(c, dtype=float)
        key = (k, sign, r.tobytes(), c.tobytes())
        if key in _STORE:
            _STORE.move_to_end(key)
            mats.append(_STORE[key])
            continue
        fits = len(r) * len(c) * (8 if sign == 0 else 16) <= _STORE_BYTES
        if not fits:
            _STORE.clear()
        hr, hc = _mirror_half(r), _mirror_half(c)
        m = np.empty((len(r), len(c)), dtype=float if sign == 0 else complex)
        rh, ch, block = r[hr:], c[hc:], m[hr:, hc:]
        if np.array_equal(rh, ch):  # r_i c_j = r_j c_i: the upper triangle, transposed below it
            i, j = np.triu_indices(len(rh))
            block[i, j] = block[j, i] = _phase_1d(k, rh[i] * rh[j], sign)
        else:
            block[...] = _phase_1d(k, np.multiply.outer(rh, ch), sign)
        # column j < hc is column len(c) - 1 - j conjugated (a copy for the real
        # A_k); a centre column is skipped
        m[hr:, :hc] = m[hr:, : len(c) - hc - 1 : -1].conj()
        m[:hr] = m[: len(r) - hr - 1 : -1].conj()
        m.flags.writeable = False
        if fits:
            _STORE[key] = m
            while sum(v.nbytes for v in _STORE.values()) > _STORE_BYTES:
                _STORE.popitem(last=False)
        mats.append(m)
    return mats


def _scatter_contract(mats: list, vw: np.ndarray) -> np.ndarray:
    # out[m] = sum_k vw[k] prod_i mats[i][m, k_i].  One real axis against a
    # real summand (a folded sum) is summed by einsum's own loop, not a BLAS
    # matrix-vector product, whose rounding of a row depends on its place in
    # the matrix: so a row's sum does not, and a folded Gram matrix is
    # symmetric bit for bit at d = 1 as at d >= 2.  A complex sum keeps its
    # BLAS product and its values.  Each later axis is a batch of row-vector
    # times matrix products.
    if len(mats) == 1 and not np.iscomplexobj(mats[0]) and not np.iscomplexobj(vw):
        return np.einsum("mk,k->m", mats[0], vw)
    t = np.tensordot(mats[0], vw, axes=(1, 0))
    for a in mats[1:]:
        t = np.matmul(a[:, None, :], t.reshape(len(t), a.shape[1], -1)).reshape((len(t),) + t.shape[2:])
    return t


def _grid_contract(mats: list, vw: np.ndarray) -> np.ndarray:
    t = vw.astype(np.result_type(vw, *mats))
    for i, a in enumerate(mats):
        t = np.moveaxis(np.tensordot(a, t, axes=(1, i)), 0, i)
    return t


# the bytes of one block of _blocked_scatter's outputs: their phase matrices, with
# shift rows one row's factors, and on scattered points the first intermediate of
# _scatter_contract
_BLOCK_BYTES = 32 << 20


def _row_factors(mats: list, shift_mats: list | None, j: int, folded: bool) -> list:
    """Per-axis factors of output row j, from the phase matrices E = A + i sign B of the
    outputs and P of the shift points: conj(P_j) E, or E without shift rows.  On a
    folded summand only their real parts survive the sum over each node and its mirror
    image, A(P_j) A + B(P_j) B and A, both real; without shift rows the matrices are
    already A (sign 0) and are handed on as they are."""
    if shift_mats is None:
        return mats
    if not folded:
        return [m * p[j].conj() for m, p in zip(mats, shift_mats)]
    return [m.real * p.real[j] + m.imag * p.imag[j] for m, p in zip(mats, shift_mats)]


def _blocked_scatter(grid, summand, pts, sign, shifts=None) -> np.ndarray:
    """out[j, m] = sum_k vw[k] prod_i conj(P_i[j, k_i]) M_i[m, k_i], with M_i and P_i
    the phase matrices (sign i) of pts and of the shift points; one row, P = 1,
    without shifts.  summand is a Grid.summand, over its own axes.  The shift rows
    are built once, by their own _axis_matrices call, and each block of outputs by
    another, so mirrored outputs (grid nodes, uniform_axes meshes) keep their half
    build; at y = x (a Gram matrix) the second call finds the first's matrices in
    the store.

    The one blocking rule reads one byte budget, _BLOCK_BYTES, with entries of
    8 bytes for the real even build (a folded summand, no shift rows) and 16
    otherwise, n_i the summand's axis lengths, and the phase matrices counted
    twice with shift rows, since each row's factors (_row_factors) sit beside
    them.  Tensor-grid nodes (tensor_axes) are summed by _grid_contract in
    slabs of their first axis, contiguous runs of pts: a slab of s nodes holds
    M_1 on them and M_i on every later axis, itemsize * (s n_1 + sum_{i>=2}
    n_out_i n_i), so a grid whose M_i all fit is one block, and one past the
    budget keeps the axis-by-axis cost and the half build of its later axes.
    Any other point set goes through _scatter_contract in blocks of
    budget // (itemsize * (sum(n_i) + n_2 ... n_d)) points (at least one): a
    row of each M_i and a row of the first intermediate per point, which a
    separable summand, summed axis by axis, holds as one entry per axis.  The
    temporaries of a single numpy expression are not counted.

    A folded summand (an integrand even by construction) covers the
    nonnegative half of every axis, and each axis contracts the real factors
    of _row_factors there; without shift rows _axis_matrices builds A_k alone
    (sign 0).  The result is real, returned with zero imaginary parts.  Any
    other summand takes the complex sum over every node.

    A separable summand (Grid.summand of a handle that factors over the axes)
    is contracted axis by axis, each axis by its block's call alone, and the
    per-axis sums are multiplied (Summand.contract): as an outer product on a
    tensor grid, point by point for scattered points.  That is O(d n m) work
    for m outputs on n half nodes per axis, in place of O(n^d m).
    """
    folded = summand.folded
    q = 0 if shifts is None else len(shifts)
    out = np.empty((max(q, 1), len(pts)), dtype=complex)
    shift_mats = _axis_matrices(grid.config, shifts.T, summand.axes, sign) if q else None
    out_sign = 0 if folded and q == 0 else sign
    itemsize = 8 if out_sign == 0 else 16
    n = [len(a) for a in summand.axes]
    copies = 2 if q else 1  # M_i, and with shift rows a row's factors beside them
    axes = tensor_axes(pts)
    if axes is not None:
        rest = sum(len(a) * k for a, k in zip(axes[1:], n[1:]))
        step = max(1, (_BLOCK_BYTES // (copies * itemsize) - rest) // n[0])
        width = math.prod(len(a) for a in axes[1:])
        blocks = [
            (slice(s * width, (s + step) * width), (axes[0][s : s + step],) + axes[1:], _grid_contract, np.multiply.outer)
            for s in range(0, len(axes[0]), step)
        ]
    else:
        step = max(1, _BLOCK_BYTES // (itemsize * (copies * sum(n) + summand.row_entries())))
        spans = (slice(s, s + step) for s in range(0, len(pts), step))
        blocks = [(sl, pts[sl].T, _scatter_contract, np.multiply) for sl in spans]
    for sl, cols, contract, join in blocks:
        mats = _axis_matrices(grid.config, cols, summand.axes, out_sign)
        for j in range(max(q, 1)):
            out[j, sl] = summand.contract(_row_factors(mats, shift_mats, j, folded), contract, join).reshape(-1)
    return out


def _transformer(grid, f, sign) -> Callable:
    """Map from (N, d) output points to c sum_k f(y_k) w_k E(sign i x, y_k) on grid; `even` if folded."""
    summand = grid.summand(f)
    run = lambda pts: grid.config.mehta * _blocked_scatter(
        grid, summand, np.atleast_2d(_real_points(pts, f"in R^{grid.config.dimension}")), sign
    )[0]
    run.even = summand.folded
    return run


# operators call each other (convolve_grid -> forward_grid) and may read
# checked densities (tabulated_density, through Grid.sample), so _checked's
# warning skips those frames and lands on the first caller outside
_OPERATOR_MODULES = {f"{__package__}.{m}" for m in ("transform", "translation", "posdef", "quadrature", "functions")}


def _checked(what: str, run: Callable, config: MultiplicityConfig, *specs: QuadratureSpec):
    """two_pass(run, config, *specs)'s fine result; warns when the n/2n check moved it too far,
    and raises DomainError when it is not finite (an overflowed sum, which the check cannot see)."""
    fine, delta = two_pass(run, config, *specs)
    values = np.asarray(fine)
    if not np.all(np.isfinite(values)):
        raise DomainError(f"{what}: the result is not finite (nan or inf); the quadrature sum overflowed")
    scale = max(1.0, float(np.max(np.abs(values))) if values.size else 0.0)
    if delta > _WARN_FLOOR * scale:
        frame, level = sys._getframe(1), 2  # stacklevel 2 is _checked's caller
        while frame.f_back is not None and frame.f_globals.get("__name__") in _OPERATOR_MODULES:
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"{what}: resolution check moved the result by {delta:.3e} (scale {scale:.3e}); "
            "enlarge the quadrature radius or node count",
            AccuracyWarning,
            stacklevel=level,
        )
    return fine


def _pointwise(what: str, config: MultiplicityConfig, quad: QuadratureSpec | None, x, run):
    """run(grid, pts) checked n/2n at one point (a complex) or an (N, d) batch (an array)."""
    pts, squeeze = _query_points(config, x)
    vals = _checked(what, lambda grid: run(grid, pts), config, _resolve_spec(config, quad))
    return complex(vals[0]) if squeeze else vals


def forward(config: MultiplicityConfig, quad: QuadratureSpec | None, f, xi):
    """Transform of f at one point or an (N, d) batch of points."""
    run = lambda grid, pts: _transformer(grid, f, FORWARD)(pts)
    return _pointwise("forward transform", config, quad, xi, run)


def inverse(config: MultiplicityConfig, quad: QuadratureSpec | None, g, x):
    """Inverse transform, the conjugate-kernel integral."""
    run = lambda grid, pts: _transformer(grid, g, INVERSE)(pts)
    return _pointwise("inverse transform", config, quad, x, run)


def forward_grid(config: MultiplicityConfig, quad: QuadratureSpec | None, f, out_axes=None, sign: int = FORWARD):
    """Transform sampled on a whole output grid, returned as a handle.

    The result carries a spectral hint: transforming it again must give back
    f (up to the sign flip), so the hint evaluates f directly instead of
    stacking a second quadrature error on top.
    """
    spec = _resolve_spec(config, quad)
    if out_axes is None:
        out_axes = uniform_axes(config.dimension, spec.radius, min(2 * spec.nodes_per_axis, 257))
    out_axes = _query_axes(config, out_axes)
    run = lambda grid, pts: _transformer(grid, f, sign)(pts)
    fine = _pointwise("grid transform", config, spec, tensor_points(out_axes), run)
    flip = -1.0 if sign == FORWARD else 1.0
    hint = lambda pts: evaluate_handle(config, f, flip * _real_points(pts, f"in R^{config.dimension}"))
    return SampledFunction(out_axes, fine.reshape(tuple(len(a) for a in out_axes)), spectral_hint=hint)


def catalog_partner(f: CatalogFunction) -> CatalogFunction:
    """Exact transform partner of any catalog member (functions.CATALOG_PARTNER), unvalidated."""
    return CatalogFunction(CATALOG_PARTNER[f.kind], f.param)


def closed_form_transform(config: MultiplicityConfig, f) -> CatalogFunction:
    """The exact transform of f: its `partner` answer (a catalog member's partner, both
    validated for config), or NotInCatalogError when f gives none."""
    partner = getattr(f, "partner", None)
    if partner is None:
        raise NotInCatalogError(f"no closed-form transform for {type(f).__name__}")
    return partner(config)


def spectral_density(config: MultiplicityConfig, quad: QuadratureSpec | None, f) -> Callable:
    """Callable xi_points -> transform values, the routing hub for operators: a handle's
    `partner` answer (catalog handles) as the one-factor DensityProduct(config, (partner,)),
    whose factor Grid.sample takes down its grid route; else its `spectral_hint` (forward_grid's
    results); else one numerical transform at doubled resolution."""
    partner = getattr(f, "partner", None)
    if partner is not None:
        return DensityProduct(config, (partner(config),))
    hint = getattr(f, "spectral_hint", None)
    if hint is not None:
        return lambda pts: np.asarray(hint(np.atleast_2d(_real_points(pts, f"in R^{config.dimension}"))), dtype=complex)
    return numeric_density(config, quad, f)


def numeric_density(config: MultiplicityConfig, quad: QuadratureSpec | None, f) -> Callable:
    """Transform as a callable over (N, d) points, always by quadrature.

    Unlike spectral_density this never takes the closed-form shortcut, so
    round-trip and pair checks that must exercise the quadrature on both
    legs route through here.
    """
    return _transformer(Grid(config, _resolve_spec(config, quad).doubled()), f, FORWARD)


def tabulated_density(config: MultiplicityConfig, quad: QuadratureSpec | None, f) -> Callable:
    """Transform of f as a callable: each query is forward at quad, checked n/2n
    (numeric_density is not) and, on tensor-grid nodes such as an integration
    grid, contracted axis by axis.  Read by a checked operator it doubles twice;
    the suites' composites are one _checked call, tested against this route.
    Kept for closure_suite and for perfbench/tracer.py, which wraps it by name."""
    run = lambda pts: forward(config, quad, f, pts)
    run.even = even_by_construction(f)
    return run


def weighted_norm(config: MultiplicityConfig, quad: QuadratureSpec | None, f, p: float = 2.0) -> float:
    """L^p norm against the reflection weight, (int |f|^p h^2)^(1/p)."""
    if not _in_range(p, 1, np.inf, closed=True):
        raise InputError(f"norm order must be finite and >= 1, got {p}")
    grid = Grid(config, _resolve_spec(config, quad).doubled())
    norm = float(np.real(grid.integrate(np.abs(grid.sample(f)) ** p))) ** (1.0 / p)
    if not np.isfinite(norm):
        raise DomainError(f"weighted norm: the result is not finite ({norm}); f has nan or inf values, or |f|^p overflows")
    return norm


def plancherel_duality(config: MultiplicityConfig, quad: QuadratureSpec | None, f, g) -> IdentityReport:
    """Pairing symmetry: int (Tf) g h^2 = int f (Tg) h^2, each side a DensityProduct's Grid.summand."""
    spec = _resolve_spec(config, quad)
    df, dg = spectral_density(config, spec, f), spectral_density(config, spec, g)
    pairs = DensityProduct(config, (df, g)), DensityProduct(config, (f, dg))
    run = lambda grid: tuple(complex(grid.summand(fg).total()) for fg in pairs)
    (lhs, rhs), delta = two_pass(run, config, spec)
    return IdentityReport(
        identity_name="transform_pairing_symmetry",
        expected=lhs,
        computed=rhs,
        tolerance=1e-7,
        notes=f"resolution delta {delta:.3e}",
    )
