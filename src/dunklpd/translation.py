"""Generalized translation and convolution built on the spectral calculus.

translate moves a function by y through the transform side: the translate's
transform is the kernel phase E(-iy, .) times the original transform.  With
zero multiplicities this is exactly f(x - y).  convolve multiplies the two
transforms and maps back, so the transform of a convolution is the product
of transforms by construction; a direct-space form (integrating f against
the translated flip of g) is provided as an independent cross-check, and
convolve_grid tabulates the convolution on the quadrature nodes as a grid
transform of the product (transform.forward_grid with the inverse sign).
_translate_at is the one translation sum, the matrix T[j, m] of translates
by y_j evaluated at x_m; posdef's Gram matrices are T at y = x.

All operators accept catalog handles, sampled handles with spectral hints,
or plain callables; the spectral density is routed through
transform.spectral_density, and the product of two densities is a
functions.DensityProduct, sampled on the grid factor by factor.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, InputError
from .functions import CatalogFunction, DensityProduct, SampledFunction, _query_points
from .quadrature import Grid, QuadratureSpec, two_pass
from .reports import IdentityReport, _sign_excess
from .root_system import MultiplicityConfig
from .transform import (
    FORWARD,
    INVERSE,
    _axis_matrices,
    _blocked_scatter,
    _pointwise,
    _resolve_spec,
    _scatter_contract,
    _transformer,
    forward_grid,
    spectral_density,
)


def _point(config: MultiplicityConfig, y) -> np.ndarray:
    pts, _ = _query_points(config, y)
    if len(pts) != 1:
        raise InputError(f"expected one shift point in R^{config.dimension}, got shape {np.shape(y)}")
    return pts[0]


def _translate_at(grid, vw, ys, xs) -> np.ndarray:
    """T[j, m] = c sum_k vw[k] E(-i ys[j], xi_k) E(i xs[m], xi_k): the translate
    by ys[j] at xs[m] of the function whose weighted density on grid is vw."""
    return grid.config.mehta * _blocked_scatter(grid, vw, xs, INVERSE, shifts=ys)


def translate(config: MultiplicityConfig, quad: QuadratureSpec | None, f, y, x):
    """Translate of f by y, evaluated at one point or an (N, d) batch."""
    spec = _resolve_spec(config, quad)
    yv = _point(config, y)
    density = spectral_density(config, spec, f)

    run = lambda grid, pts: _translate_at(grid, grid.weighted(density), yv[None], pts)[0]
    return _pointwise("translation", config, spec, x, run)


def _require_radial_nonnegative(config, f) -> None:
    if isinstance(f, CatalogFunction):
        return
    if isinstance(f, SampledFunction):
        excess, scale = _sign_excess(f.values)
        if excess > 1e-12 * scale:
            raise DomainError("mass identity needs a real nonnegative function")
        return
    raise DomainError("mass identity needs a catalog or sampled handle")


def translate_mass(
    config: MultiplicityConfig,
    quad: QuadratureSpec | None,
    f,
    y,
    tolerance: float = 1e-6,
    outer: QuadratureSpec | None = None,
) -> IdentityReport:
    """Weighted mass of the translate equals the weighted mass of f.

    The double integral is contracted axis-by-axis: the position integral of
    the phase collapses to one weighted column sum per axis, so a wide outer
    box for slowly decaying translates costs next to nothing.  `outer`
    overrides the position-space box; the spectral side keeps `quad`.
    """
    spec = _resolve_spec(config, quad)
    outer_spec = outer if outer is not None else spec
    yv = _point(config, y)
    _require_radial_nonnegative(config, f)
    density = spectral_density(config, spec, f)

    def run(gi, go):
        shifts = _axis_matrices(config, yv[:, None], gi.axes, FORWARD)
        cols = _axis_matrices(config, go.axes, gi.axes, INVERSE)
        rows = [shift * (w @ col) for shift, w, col in zip(shifts, go.axis_weights, cols)]
        lhs = config.mehta * complex(_scatter_contract(rows, gi.weighted(density))[0])
        return lhs, complex(go.integrate(go.sample(f)))

    (lhs, rhs), delta = two_pass(run, config, spec, outer_spec)
    return IdentityReport(
        identity_name="translation_preserves_weighted_mass",
        expected=rhs,
        computed=lhs,
        tolerance=tolerance,
        notes=f"shift {yv.tolist()}; resolution delta {delta:.3e}",
    )


def convolve(config: MultiplicityConfig, quad: QuadratureSpec | None, f, g, x):
    """Spectral convolution (f * g)(x): inverse transform of the product."""
    spec = _resolve_spec(config, quad)
    product = DensityProduct(config, (spectral_density(config, spec, f), spectral_density(config, spec, g)))
    run = lambda grid, pts: _transformer(grid, product, INVERSE)(pts)
    return _pointwise("convolution", config, spec, x, run)


def convolve_direct(config: MultiplicityConfig, quad: QuadratureSpec | None, f, g, x):
    """Direct-space convolution: c int f(y) (translate of flipped g to x)(y) h^2 dy.

    Same normalization as convolve; kept as an independent route for
    consistency checks, one nested quadrature slower than the spectral form.
    """
    spec = _resolve_spec(config, quad)
    dg = spectral_density(config, spec, g)

    def run(grid, pts):
        gp = grid.points()
        fvals = grid.sample(f)
        flipped = grid.weighted(lambda p: dg(-p))
        out = np.empty(len(pts), dtype=complex)
        for m, xv in enumerate(pts):
            shifted = _translate_at(grid, flipped, xv[None], gp)[0].reshape(grid.shape)
            out[m] = config.mehta * grid.integrate(fvals * shifted)
        return out

    return _pointwise("direct convolution", config, spec, x, run)


def convolve_grid(config: MultiplicityConfig, quad: QuadratureSpec | None, f, g) -> SampledFunction:
    """Convolution tabulated on the quadrature nodes, with its exact hint.

    A grid transform: forward_grid's inverse leg applied to the product of
    the two densities, contracted axis by axis.  Its spectral hint is that
    product, the exact transform of f * g.
    """
    spec = _resolve_spec(config, quad)
    product = DensityProduct(config, (spectral_density(config, spec, f), spectral_density(config, spec, g)))
    return forward_grid(config, spec, product, Grid(config, spec).axes, sign=INVERSE)
