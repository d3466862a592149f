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
phase matrices, all built by _axis_matrices.  The kernel's conjugate parity
E_k(-z) = conj E_k(z) holds exactly for real z, so on an axis mirrored
exactly about 0 (every Gauss-Legendre axis with an even node count, every
uniform_axes axis) only the nonnegative half is evaluated and the rest is
its reversed conjugate.
_blocked_scatter sums over output points: on the nodes of a tensor grid
axis by axis (_grid_contract, as forward_grid on its output axes), else
point by point (_scatter_contract).
_transformer (forward, inverse, convolve, numeric_density, and through
forward tabulated_density) takes its unshifted row, translation._translate_at
its shifted rows: every translate and Gram matrix.
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
    CatalogDensity,
    CatalogFunction,
    SampledFunction,
    _mirror_half,
    _query_points,
    evaluate_handle,
    tensor_axes,
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
    """Phase matrices E_k(r, sign i c) over rows[i] x cols[i], given as pts.T, grid.axes or y[:, None].

    Only the nonnegative half of an exactly mirrored rows[i] or cols[i] is
    evaluated; the other half is the reversed conjugate, by the parity
    E_k(-z) = conj E_k(z) of real z, which every kernel branch keeps exactly
    (kernel.py).  Since (-r) c = -(r c) in floating point, the fill equals
    the full build value for value (where r c = 0 a zero imaginary part may
    flip its sign).  Every even-count _axis_rule axis is mirrored, and so are
    tensor-grid outputs on such axes and every uniform_axes axis, whose odd
    counts put an exact 0 at the centre; shift rows are not and keep the
    full build.  The matrices are fresh and writable: _blocked_scatter
    scales them in place.
    """
    mats = []
    for k, r, c in zip(config.kappa, rows, cols):
        hr, hc = _mirror_half(r), _mirror_half(c)
        m = np.empty((len(r), len(c)), dtype=complex)
        m[hr:, hc:] = _phase_1d(k, np.multiply.outer(r[hr:], c[hc:]), sign)
        # column j < hc is column len(c) - 1 - j conjugated; a centre column is skipped
        m[hr:, :hc] = m[hr:, : len(c) - hc - 1 : -1].conj()
        m[:hr] = m[: len(r) - hr - 1 : -1].conj()
        mats.append(m)
    return mats


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
    without shifts.  One _axis_matrices call per block builds both.  Tensor-grid
    nodes (tensor_axes) with at most _POINT_BLOCK per axis are one block, M_i on
    the axes, summed by _grid_contract; other points go through _scatter_contract
    in blocks of _POINT_BLOCK, which keeps huge requests from materializing
    multi-GB matrices at once.
    """
    q = 0 if shifts is None else len(shifts)
    out = np.empty((max(q, 1), len(pts)), dtype=complex)
    axes = tensor_axes(pts)
    if axes is not None and max(len(a) for a in axes) <= _POINT_BLOCK:
        blocks = [(slice(None), axes, _grid_contract)]
    else:
        spans = (slice(s, s + _POINT_BLOCK) for s in range(0, len(pts), _POINT_BLOCK))
        blocks = [(sl, pts[sl].T, _scatter_contract) for sl in spans]
    for sl, cols, contract in blocks:
        rows = cols if q == 0 else [np.concatenate([s, c]) for s, c in zip(shifts.T, cols)]
        mats = _axis_matrices(config, rows, grid.axes, sign)
        if q == 1:  # in place: a product beside each M_i would raise the peak memory
            for m in mats:
                m[1:] *= m[0].conj()
        for j in range(max(q, 1)):
            out[j, sl] = contract([m[j].conj() * m[q:] if q > 1 else m[q:] for m in mats], vw).reshape(-1)
    return out


def _transformer(config, spec, f, sign) -> Callable:
    """Map from (N, d) output points to c sum_k f(y_k) w_k E(sign i x, y_k) on spec's grid."""
    grid = Grid(config, spec)
    vw = grid.weighted(f)
    return lambda pts: config.mehta * _blocked_scatter(
        config, grid, vw, np.atleast_2d(np.asarray(pts, dtype=float)), sign
    )[0]


# operators call each other (convolve_grid -> forward_grid) and read checked
# densities (tabulated_density, through Grid.sample), so _checked's warning
# skips those frames and lands on the first caller outside
_OPERATOR_MODULES = {f"{__package__}.{m}" for m in ("transform", "translation", "posdef", "quadrature", "functions")}


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
    pts, squeeze = _query_points(config, xi)
    run = lambda sp: _transformer(config, sp, f, FORWARD)(pts)
    vals = _checked("forward transform", run, _resolve_spec(config, quad))
    return complex(vals[0]) if squeeze else vals


def inverse(config: MultiplicityConfig, quad: QuadratureSpec | None, g, x):
    """Inverse transform, the conjugate-kernel integral."""
    pts, squeeze = _query_points(config, x)
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

    Catalog handles use their exact partner, returned as a CatalogDensity:
    a plain callable that still exposes the partner handle, so Grid.sample
    takes its grid route.  Sampled handles use their hint when present;
    everything else falls back to one numerical transform at doubled
    resolution.
    """
    if isinstance(f, CatalogFunction):
        f.validate_for(config)
        partner = catalog_partner(f)
        partner.validate_for(config)
        return CatalogDensity(config, partner)
    if isinstance(f, SampledFunction) and f.spectral_hint is not None:
        hint = f.spectral_hint
        return lambda pts: np.asarray(hint(np.atleast_2d(np.asarray(pts, dtype=float))), dtype=complex)
    return numeric_density(config, quad, f)


def numeric_density(config: MultiplicityConfig, quad: QuadratureSpec | None, f) -> Callable:
    """Transform as a callable over (N, d) points, always by quadrature.

    Unlike spectral_density this never takes the closed-form shortcut, so
    round-trip and pair checks that must exercise the quadrature on both
    legs route through here.
    """
    return _transformer(config, _resolve_spec(config, quad).doubled(), f, FORWARD)


def tabulated_density(config: MultiplicityConfig, quad: QuadratureSpec | None, f) -> Callable:
    """Transform of f as a callable: each query is forward at quad, checked n/2n
    (numeric_density is not) and, on tensor-grid nodes such as an integration
    grid, contracted axis by axis."""
    return lambda pts: forward(config, quad, f, pts)


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
        lhs = grid.integrate(grid.sample(df) * grid.sample(g))
        rhs = grid.integrate(grid.sample(f) * grid.sample(dg))
        return complex(lhs), complex(rhs)

    (lhs, rhs), delta = two_pass(run, spec)
    return IdentityReport(
        identity_name="transform_pairing_symmetry",
        expected=lhs,
        computed=rhs,
        tolerance=1e-7,
        notes=f"resolution delta {delta:.3e}",
    )
