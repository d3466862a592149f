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

Every kernel sum contracts a weighted grid (Grid.weighted) against per-axis
phase matrices, all built by _axis_matrices: _grid_contract for grid
outputs, _blocked_scatter for scattered ones.  _transformer (forward,
inverse, convolve, numeric_density) takes _blocked_scatter's unshifted row,
translation._translate_at its shifted rows: every translate and Gram matrix.
"""

from __future__ import annotations

import sys
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
    _query_points,
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


def _blocked_scatter(config, grid, vw, pts, sign, shifts=None) -> np.ndarray:
    """out[j, m] = sum_k vw[k] prod_i conj(P_i[j, k_i]) M_i[m, k_i], with M_i and P_i
    the phase matrices (sign i) of pts and of the shift points; one row, P = 1,
    without shifts.  One _axis_matrices call per block of points builds both;
    blocking keeps huge requests from materializing multi-GB matrices at once.
    """
    q = 0 if shifts is None else len(shifts)
    out = np.empty((max(q, 1), len(pts)), dtype=complex)
    for s in range(0, len(pts), _POINT_BLOCK):
        sl = slice(s, min(s + _POINT_BLOCK, len(pts)))
        rows = pts[sl] if q == 0 else np.concatenate([shifts, pts[sl]])
        mats = _axis_matrices(config, rows.T, grid.axes, sign)
        if q == 1:  # in place: a product beside each M_i would raise the peak memory
            for m in mats:
                m[1:] *= m[0].conj()
        for j in range(max(q, 1)):
            out[j, sl] = _scatter_contract([m[j].conj() * m[q:] if q > 1 else m[q:] for m in mats], vw)
    return out


def _transformer(config, spec, f, sign) -> Callable:
    """Map from (N, d) output points to c sum_k f(y_k) w_k E(sign i x, y_k) on spec's grid."""
    grid = Grid(config, spec)
    vw = grid.weighted(f)
    return lambda pts: config.mehta * _blocked_scatter(
        config, grid, vw, np.atleast_2d(np.asarray(pts, dtype=float)), sign
    )[0]


# operators call each other (tabulated_density and convolve_grid -> forward_grid),
# so _checked's warning skips their frames and lands on the first caller outside
_OPERATOR_MODULES = {f"{__package__}.{name}" for name in ("transform", "translation", "posdef")}


def _checked(what: str, run: Callable, spec: QuadratureSpec):
    """two_pass(run, spec)'s fine result; warns when the n/2n check moved it too far."""
    fine, delta = two_pass(run, spec)
    values = np.asarray(fine)
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


def forward(config: MultiplicityConfig, quad: QuadratureSpec | None, f, xi):
    """Transform of f at one point or an (N, d) batch of points."""
    pts, squeeze = _query_points(config, xi, InputError)
    run = lambda sp: _transformer(config, sp, f, FORWARD)(pts)
    vals = _checked("forward transform", run, _resolve_spec(config, quad))
    return complex(vals[0]) if squeeze else vals


def inverse(config: MultiplicityConfig, quad: QuadratureSpec | None, g, x):
    """Inverse transform, the conjugate-kernel integral."""
    pts, squeeze = _query_points(config, x, InputError)
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
    if not 1 <= p < np.inf:
        raise InputError(f"norm order must be finite and >= 1, got {p}")
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
