"""Weighted integral transform on R^d with the product reflection kernel.

forward computes  F(xi) = c int f(y) E(-i xi, y) |y|^(2 kappa) dy  by tensor
Gauss-Legendre quadrature, inverse uses the conjugate kernel E(i x, y).  The
normalization c is the config's mehta constant; with it the transform is an
involution up to the sign flip x -> -x, reduces to the unitary Fourier
transform when every multiplicity vanishes, and maps the catalog pairs onto
each other exactly.

Every operator integral runs through _checked, which calls
quadrature.two_pass at the requested resolution and at doubled nodes,
returns the doubled value and raises an AccuracyWarning when the difference
exceeds 1e-6 relative to the result scale.

Every kernel sum (transforms, convolution, translates, the translated mass,
Gram matrices, translate diagonals) contracts a weighted grid (Grid.weighted)
against per-axis phase matrices, all built by _axis_matrices, in one of two
places: _scatter_contract for scattered outputs, _grid_contract for grid
outputs.  _transformer is the one scattered transform: it weighs f on a grid
once and returns the map from output points to transform values.
"""

from __future__ import annotations

import warnings
from typing import Callable

import numpy as np

from .errors import AccuracyWarning, InputError, NotInCatalogError
from .functions import (
    BESSEL_K_PROFILE,
    GAUSSIAN,
    GAUSSIAN_DENSITY,
    GENERALIZED_CAUCHY,
    CatalogFunction,
    SampledFunction,
    evaluate_handle,
    uniform_axes,
)
from .kernel import _phase_1d
from .quadrature import Grid, QuadratureSpec, default_spec, two_pass
from .reports import IdentityReport
from .root_system import MultiplicityConfig

_WARN_FLOOR = 1e-6

FORWARD = -1
INVERSE = +1


def _resolve_spec(config: MultiplicityConfig, quad: QuadratureSpec | None) -> QuadratureSpec:
    return quad if quad is not None else default_spec(config.dimension)


def _as_points(config: MultiplicityConfig, x) -> tuple[np.ndarray, bool]:
    pts = np.asarray(x, dtype=float)
    squeeze = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.ndim != 2 or pts.shape[1] != config.dimension:
        raise InputError(f"expected points in R^{config.dimension}, got shape {np.shape(x)}")
    if not np.all(np.isfinite(pts)):
        raise InputError("points must be finite")
    return pts, squeeze


def _axis_matrices(config: MultiplicityConfig, rows, cols, sign: int) -> list:
    """Phase matrices E_k(r, sign i c) over rows[i] x cols[i], given as pts.T, grid.axes or y[:, None]."""
    return [_phase_1d(k, np.multiply.outer(r, c), sign) for k, r, c in zip(config.kappa, rows, cols)]


def _scatter_contract(mats: list, vw: np.ndarray) -> np.ndarray:
    # out[m] = sum_k vw[k] prod_i mats[i][m, k_i], chunked over m
    m_total = mats[0].shape[0]
    out = np.empty(m_total, dtype=complex)
    step = {1: m_total or 1, 2: 4096, 3: 256}[len(mats)]
    for s in range(0, m_total, step):
        sl = slice(s, min(s + step, m_total))
        t = np.tensordot(mats[0][sl], vw, axes=(1, 0))
        for a in mats[1:]:
            t = np.einsum("mj,mj...->m...", a[sl], t, optimize=True)
        out[sl] = t
    return out


def _grid_contract(mats: list, vw: np.ndarray) -> np.ndarray:
    t = vw.astype(complex)
    for i, a in enumerate(mats):
        t = np.moveaxis(np.tensordot(a, t, axes=(1, i)), 0, i)
    return t


_POINT_BLOCK = 16384


def _blocked_scatter(config, grid, vw, pts, sign, axis_factors=None) -> np.ndarray:
    """Contract vw against per-axis phases at scattered points, in blocks.

    Phase matrices are (points x nodes) per axis; blocking the points keeps
    huge requests from materializing multi-GB matrices at once.
    axis_factors, when given, holds one extra (1, nodes) factor row per axis
    (translation folds the shift phases in this way).
    """
    out = np.empty(len(pts), dtype=complex)
    for s in range(0, len(pts), _POINT_BLOCK):
        sl = slice(s, min(s + _POINT_BLOCK, len(pts)))
        mats = _axis_matrices(config, pts[sl].T, grid.axes, sign)
        if axis_factors is not None:
            mats = [m * fac for m, fac in zip(mats, axis_factors)]
        out[sl] = _scatter_contract(mats, vw)
    return out


def _transformer(config, spec, f, sign) -> Callable:
    """Map from (N, d) output points to c sum_k f(y_k) w_k E(sign i x, y_k) on spec's grid."""
    grid = Grid(config, spec)
    vw = grid.weighted(f)
    return lambda pts: config.mehta * _blocked_scatter(
        config, grid, vw, np.atleast_2d(np.asarray(pts, dtype=float)), sign
    )


def _checked(what: str, run: Callable, spec: QuadratureSpec):
    """two_pass(run, spec)'s fine result; warns when the n/2n check moved it too far."""
    fine, delta = two_pass(run, spec)
    values = np.asarray(fine)
    scale = max(1.0, float(np.max(np.abs(values))) if values.size else 0.0)
    if delta > _WARN_FLOOR * scale:
        warnings.warn(
            f"{what}: resolution check moved the result by {delta:.3e} (scale {scale:.3e}); "
            "enlarge the quadrature radius or node count",
            AccuracyWarning,
            stacklevel=3,
        )
    return fine


def forward(config: MultiplicityConfig, quad: QuadratureSpec | None, f, xi):
    """Transform of f at one point or an (N, d) batch of points."""
    pts, squeeze = _as_points(config, xi)
    run = lambda sp: _transformer(config, sp, f, FORWARD)(pts)
    vals = _checked("forward transform", run, _resolve_spec(config, quad))
    return complex(vals[0]) if squeeze else vals


def inverse(config: MultiplicityConfig, quad: QuadratureSpec | None, g, x):
    """Inverse transform, the conjugate-kernel integral."""
    pts, squeeze = _as_points(config, x)
    run = lambda sp: _transformer(config, sp, g, INVERSE)(pts)
    vals = _checked("inverse transform", run, _resolve_spec(config, quad))
    return complex(vals[0]) if squeeze else vals


def forward_grid(
    config: MultiplicityConfig,
    quad: QuadratureSpec | None,
    f,
    out_axes=None,
    sign: int = FORWARD,
) -> SampledFunction:
    """Transform sampled on a whole output grid, returned as a handle.

    The result carries a spectral hint: transforming it again must give back
    f (up to the sign flip), so the hint evaluates f directly instead of
    stacking a second quadrature error on top.
    """
    spec = _resolve_spec(config, quad)
    if out_axes is None:
        out_axes = uniform_axes(config.dimension, spec.radius, min(2 * spec.nodes_per_axis, 257))
    out_axes = tuple(np.asarray(a, dtype=float) for a in out_axes)

    def run(sp):
        grid = Grid(config, sp)
        mats = _axis_matrices(config, out_axes, grid.axes, sign)
        return config.mehta * _grid_contract(mats, grid.weighted(f))

    fine = _checked("grid transform", run, spec)
    flip = -1.0 if sign == FORWARD else 1.0
    hint = lambda pts: evaluate_handle(config, f, flip * np.asarray(pts, dtype=float))
    return SampledFunction(out_axes, fine, spectral_hint=hint)


def catalog_partner(f: CatalogFunction) -> CatalogFunction:
    """Exact transform partner of any catalog member (all four are even)."""
    pair = {
        GAUSSIAN: GAUSSIAN_DENSITY,
        GAUSSIAN_DENSITY: GAUSSIAN,
        GENERALIZED_CAUCHY: BESSEL_K_PROFILE,
        BESSEL_K_PROFILE: GENERALIZED_CAUCHY,
    }
    return CatalogFunction(pair[f.kind], f.param)


def closed_form_transform(config: MultiplicityConfig, f: CatalogFunction) -> CatalogFunction:
    if not isinstance(f, CatalogFunction):
        raise NotInCatalogError(f"no closed-form transform for {type(f).__name__}")
    if f.kind == BESSEL_K_PROFILE:
        raise NotInCatalogError(
            "bessel_k_profile is the image side of the catalog; recover its source via inverse"
        )
    f.validate_for(config)
    partner = catalog_partner(f)
    partner.validate_for(config)
    return partner


def spectral_density(config: MultiplicityConfig, quad: QuadratureSpec | None, f) -> Callable:
    """Callable xi_points -> transform values, the routing hub for operators.

    Catalog handles use their exact partner, sampled handles use their hint
    when present; everything else falls back to one numerical transform at
    doubled resolution.
    """
    if isinstance(f, CatalogFunction):
        f.validate_for(config)
        partner = catalog_partner(f)
        partner.validate_for(config)
        return lambda pts: partner.evaluate(config, np.atleast_2d(np.asarray(pts, dtype=float)))
    if isinstance(f, SampledFunction) and f.spectral_hint is not None:
        hint = f.spectral_hint
        return lambda pts: np.asarray(hint(np.atleast_2d(np.asarray(pts, dtype=float))), dtype=complex)
    return numeric_density(config, quad, f)


def numeric_density(config: MultiplicityConfig, quad: QuadratureSpec | None, f) -> Callable:
    """Transform as a callable over scattered points, always by quadrature.

    Unlike spectral_density this never takes the closed-form shortcut, so
    round-trip and pair checks that must exercise the quadrature on both
    legs route through here.
    """
    return _transformer(config, _resolve_spec(config, quad).doubled(), f, FORWARD)


def tabulated_density(
    config: MultiplicityConfig,
    quad: QuadratureSpec | None,
    f,
    eval_spec: QuadratureSpec,
) -> Callable:
    """Numeric transform pretabulated on eval_spec's integration grids.

    `inverse` run with eval_spec requests the density exactly on those two
    node sets; evaluating them through forward_grid keeps the contraction
    separable, which is far cheaper than point-by-point quadrature when the
    forward and inverse legs need very different radii.  Off-grid points
    fall back to the honest scattered path, built on first use.
    """
    tables = []
    fallback = None
    for sp in (eval_spec, eval_spec.doubled()):
        grid = Grid(config, sp)
        sampled = forward_grid(config, quad, f, out_axes=grid.axes)
        tables.append((grid.points(), sampled.values.ravel()))

    def density(pts):
        nonlocal fallback
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        for nodes, vals in tables:
            if pts.shape == nodes.shape and np.array_equal(pts, nodes):
                return vals
        if fallback is None:
            fallback = numeric_density(config, quad, f)
        return fallback(pts)

    return density


def weighted_norm(config: MultiplicityConfig, quad: QuadratureSpec | None, f, p: float = 2.0) -> float:
    """L^p norm against the reflection weight, (int |f|^p h^2)^(1/p)."""
    if p < 1:
        raise InputError(f"norm order must be >= 1, got {p}")
    grid = Grid(config, _resolve_spec(config, quad).doubled())
    return float(np.real(grid.integrate(np.abs(grid.sample(f)) ** p))) ** (1.0 / p)


def plancherel_duality(config: MultiplicityConfig, quad: QuadratureSpec | None, f, g) -> IdentityReport:
    """Pairing symmetry: int (Tf) g h^2 = int f (Tg) h^2."""
    spec = _resolve_spec(config, quad)
    df = spectral_density(config, spec, f)
    dg = spectral_density(config, spec, g)

    def run(sp):
        grid = Grid(config, sp)
        pts = grid.points()
        lhs = grid.integrate(df(pts) * evaluate_handle(config, g, pts))
        rhs = grid.integrate(evaluate_handle(config, f, pts) * dg(pts))
        return complex(lhs), complex(rhs)

    (lhs, rhs), delta = two_pass(run, spec)
    return IdentityReport(
        identity_name="transform_pairing_symmetry",
        expected=lhs,
        computed=rhs,
        tolerance=1e-7,
        notes=f"resolution delta {delta:.3e}",
    )
