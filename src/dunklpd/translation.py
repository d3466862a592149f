"""Generalized translation and convolution built on the spectral calculus.

translate moves a function by y through the transform side: the translate's
transform is the kernel phase E(-iy, .) times the original transform.  With
zero multiplicities this is exactly f(x - y).  Every convolution is a
transform composite on one grid.  convolve multiplies the two transforms and
maps back, so the transform of a convolution is the product of transforms by
construction; convolve_grid tabulates it on the quadrature nodes as a grid
transform of the product (transform.forward_grid with the inverse sign).
convolve_direct, the independent cross-check, integrates f against the
translated flip of g: summed over the positions first, that double sum is
f's grid transform times the flipped density, transformed forward.
_translate_at is the one translation sum, the matrix T[j, m] of translates
by y_j evaluated at x_m.  It serves translates, posdef's Gram matrices (T at
y = x) and its heat-smoothed form, and no convolution.  translate_mass
reads Grid.summand for its spectral sum and the mass of f, and the outer
grid's orthant (Grid.half_axes) for its position sum.  For a Gaussian f
both sums are separable: products over the axes of 1-D sums
(Summand.contract and Summand.total), as are the translates and Gram
matrices of a Gaussian.

All operators accept catalog handles, sampled handles with spectral hints,
or plain callables; the spectral density is routed through
transform.spectral_density, and the product of two densities is a
functions.DensityProduct, sampled on the grid factor by factor.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, InputError
from .functions import DensityProduct, SampledFunction
from .quadrature import Grid, QuadratureSpec, two_pass
from .reports import IdentityReport
from .root_system import MultiplicityConfig, _query_points
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


def _translate_at(grid, summand, ys, xs) -> np.ndarray:
    """T[j, m] = c sum_k vw[k] E(-i ys[j], xi_k) E(i xs[m], xi_k): the translate
    by ys[j] at xs[m] of the function whose weighted density on grid is the
    Grid.summand `summand`."""
    return grid.config.mehta * _blocked_scatter(grid, summand, xs, INVERSE, shifts=ys)


def translate(config: MultiplicityConfig, quad: QuadratureSpec | None, f, y, x):
    """Translate of f by y, evaluated at one point or an (N, d) batch."""
    spec = _resolve_spec(config, quad)
    yv = _point(config, y)
    density = spectral_density(config, spec, f)

    run = lambda grid, pts: _translate_at(grid, grid.summand(density), yv[None], pts)[0]
    return _pointwise("translation", config, spec, x, run)


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
    the phase collapses to one weighted column sum per axis, real and even as
    the outer axis is mirrored with even weights, sum_{x >= 0} 2 w(x) A(x xi)
    over Grid.half_axes and Grid.half_weights, so a wide outer box costs next
    to nothing.  The spectral sum and the mass of f read Grid.summand: folded
    (catalog inputs) with the shift row A(y xi), else with the complex one.
    `outer` overrides the position box; the spectral side `quad`.
    """
    spec = _resolve_spec(config, quad)
    outer_spec = outer if outer is not None else spec
    yv = _point(config, y)
    nonnegative = getattr(f, "nonnegative", None)
    if nonnegative is None:
        raise DomainError("mass identity needs a catalog or sampled handle")
    if not nonnegative:
        raise DomainError("mass identity needs a real nonnegative function")
    density = spectral_density(config, spec, f)

    def run(gi, go):
        summand = gi.summand(density)
        cols = _axis_matrices(config, go.half_axes, summand.axes, 0)
        shifts = _axis_matrices(config, yv[:, None], summand.axes, 0 if summand.folded else FORWARD)
        rows = [s * (w @ c) for s, w, c in zip(shifts, go.half_weights, cols)]
        lhs = config.mehta * complex(summand.contract(rows, _scatter_contract)[0])
        return lhs, complex(go.summand(f).total())

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
    consistency checks.  On a grid the integral is the finite double sum
    c^2 sum_y sum_xi f(y) w(y) dg(-xi) w(xi) E(-ix, xi) E(iy, xi), summed over
    y first: the inverse grid transform of f times the flipped density, then
    forward at x.  Its f leg is f's grid transform, not spectral_density(f),
    so it is one grid transform slower than convolve.
    """
    spec = _resolve_spec(config, quad)
    dg = spectral_density(config, spec, g)

    def run(grid, pts):
        leg = DensityProduct(config, (lambda p: dg(-p), _transformer(grid, f, INVERSE)))
        return _transformer(grid, leg, FORWARD)(pts)

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
