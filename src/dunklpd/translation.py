"""Generalized translation and convolution built on the spectral calculus.

translate moves a function by y through the transform side: the translate's
transform is the kernel phase E(-iy, .) times the original transform.  With
zero multiplicities this is exactly f(x - y).  convolve multiplies the two
transforms and maps back, so the transform of a convolution is the product
of transforms by construction; a direct-space form (integrating f against
the translated flip of g) is provided as an independent cross-check.

All operators accept catalog handles, sampled handles with spectral hints,
or plain callables; the spectral density is routed through
transform.spectral_density.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, InputError
from .functions import CatalogFunction, SampledFunction, evaluate_handle
from .quadrature import Grid, QuadratureSpec, two_pass
from .reports import IdentityReport
from .root_system import MultiplicityConfig
from .transform import (
    FORWARD,
    INVERSE,
    _as_points,
    _axis_matrices,
    _blocked_scatter,
    _resolve_spec,
    _scatter_contract,
    _transform_points,
    _warn_if_underresolved,
    spectral_density,
)


def _point(config: MultiplicityConfig, y) -> np.ndarray:
    arr = np.asarray(y, dtype=float).reshape(-1)
    if arr.shape != (config.dimension,):
        raise InputError(f"expected a point in R^{config.dimension}, got shape {np.shape(y)}")
    return arr


def _translate_at(config, grid, density, y, out_pts) -> np.ndarray:
    rho = np.asarray(density(grid.points()), dtype=complex).reshape(grid.shape)
    vw = rho * grid.weight_grid()
    shift_phases = _axis_matrices(config, y[:, None], grid.axes, FORWARD)
    return config.mehta * _blocked_scatter(config, grid, vw, out_pts, INVERSE, axis_factors=shift_phases)


def translate(config: MultiplicityConfig, quad: QuadratureSpec | None, f, y, x):
    """Translate of f by y, evaluated at one point or an (N, d) batch."""
    spec = _resolve_spec(config, quad)
    yv = _point(config, y)
    pts, squeeze = _as_points(config, x)
    density = spectral_density(config, spec, f)
    fine, delta = two_pass(lambda sp: _translate_at(config, Grid(config, sp), density, yv, pts), spec)
    _warn_if_underresolved("translation", fine, delta)
    return complex(fine[0]) if squeeze else fine


def _require_radial_nonnegative(config, f) -> None:
    if isinstance(f, CatalogFunction):
        return
    if isinstance(f, SampledFunction):
        vals = np.asarray(f.values)
        scale = float(np.max(np.abs(vals))) if vals.size else 0.0
        if np.max(np.abs(vals.imag)) > 1e-12 * max(1.0, scale):
            raise DomainError("mass identity needs a real nonnegative function")
        if np.min(vals.real) < -1e-12 * max(1.0, scale):
            raise DomainError("mass identity needs a nonnegative function")
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

    def run(sp_in, sp_out):
        gi = Grid(config, sp_in)
        go = Grid(config, sp_out)
        rho = np.asarray(density(gi.points()), dtype=complex).reshape(gi.shape)
        shifts = _axis_matrices(config, yv[:, None], gi.axes, FORWARD)
        cols = _axis_matrices(config, go.axes, gi.axes, INVERSE)
        rows = [shift * (w @ col) for shift, w, col in zip(shifts, go.axis_weights, cols)]
        lhs = config.mehta * complex(_scatter_contract(rows, rho * gi.weight_grid())[0])
        rhs = go.integrate(evaluate_handle(config, f, go.points()).reshape(go.shape))
        return lhs, complex(rhs)

    (lhs, rhs), delta = two_pass(run, spec, outer_spec)
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
    pts, squeeze = _as_points(config, x)
    df = spectral_density(config, spec, f)
    dg = spectral_density(config, spec, g)
    fine, delta = _transform_points(config, spec, lambda p: df(p) * dg(p), pts, INVERSE)
    _warn_if_underresolved("convolution", fine, delta)
    return complex(fine[0]) if squeeze else fine


def convolve_direct(config: MultiplicityConfig, quad: QuadratureSpec | None, f, g, x):
    """Direct-space convolution: c int f(y) (translate of flipped g to x)(y) h^2 dy.

    Same normalization as convolve; kept as an independent route for
    consistency checks, one nested quadrature slower than the spectral form.
    """
    spec = _resolve_spec(config, quad)
    pts, squeeze = _as_points(config, x)
    dg = spectral_density(config, spec, g)
    flipped = lambda p: np.asarray(dg(-np.atleast_2d(np.asarray(p, dtype=float))), dtype=complex)

    def run(sp):
        grid = Grid(config, sp)
        gp = grid.points()
        fvals = evaluate_handle(config, f, gp).reshape(grid.shape)
        out = np.empty(len(pts), dtype=complex)
        for m, xv in enumerate(pts):
            shifted = _translate_at(config, grid, flipped, xv, gp).reshape(grid.shape)
            out[m] = config.mehta * grid.integrate(fvals * shifted)
        return out

    fine, delta = two_pass(run, spec)
    _warn_if_underresolved("direct convolution", fine, delta)
    return complex(fine[0]) if squeeze else fine


def convolve_grid(config: MultiplicityConfig, quad: QuadratureSpec | None, f, g) -> SampledFunction:
    """Convolution tabulated on the quadrature nodes, with its exact hint.

    The transform of f * g is the product of the two densities, so the
    returned handle carries that product as its spectral hint.
    """
    spec = _resolve_spec(config, quad)
    grid = Grid(config, spec)
    vals = convolve(config, spec, f, g, grid.points()).reshape(grid.shape)
    df = spectral_density(config, spec, f)
    dg = spectral_density(config, spec, g)
    hint = lambda p: df(p) * dg(p)
    return SampledFunction(grid.axes, vals, spectral_hint=hint)
