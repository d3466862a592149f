"""Truncated tensor-product Gauss-Legendre quadrature on [-R, R]^d.

Each axis rule is a two-panel composite: Gauss-Legendre on [-R, 0] and on
[0, R], n/2 nodes each, so every axis is mirrored exactly about 0 and
QuadratureSpec refuses an odd n.  Splitting at the origin keeps the rule
spectrally accurate when the integrand carries the weight |y|^(2 kappa),
whose even extension has a corner at 0; a single panel across the origin
degrades to algebraic convergence.  The weight stays in the integrand
(folded into per-axis weight vectors), not in the rule itself.
Grid.summand is the summand of every kernel sum: weighted(fn), or, for an
integrand even by construction, its nonnegative orthant doubled once per
axis.

two_pass is the one place that runs a computation at n and at 2n nodes per
axis, and it builds every grid a checked computation reads: given one spec
per grid, it calls run with a Grid for each spec, then with a Grid for each
doubled spec, so a run takes grids and never a spec.  It returns the 2n
result and the largest entrywise difference as the resolution error
estimate.  Operators (transform, translation, convolution, heat-smoothed
form) and the suites' composites run it through transform._checked, which
turns that delta into an AccuracyWarning; identity reports carry it in
their notes.  integrate_with_check is two_pass over one weighted integral
of a handle or an (N, d) callable, the route of
posdef.bessel_integral_identity.  weighted_norm, numeric_density and two
suite checks integrate on the doubled grid only.  Sums are taken by numpy
pairwise summation over a fixed node ordering, so results are deterministic
run to run.

_RESOLUTION is the one table of per-dimension boxes, by use and then by d:
(radius, nodes per axis) for Grid, (extent, nodes per axis) for
functions.uniform_axes, or a node floor.  default_spec, the identity suites,
heat_kernel_mass, the certificates and the CLI's output mesh read it; it is
hand-tuned, as Gauss-Legendre needs the wider boxes and extra nodes it names.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .functions import even_by_construction, sample_grid, tensor_points
from .root_system import MultiplicityConfig

_RESOLUTION = {
    # every operator's box when the caller passes none, and every suite's
    "default": {1: (16.0, 256), 2: (12.0, 96), 3: (10.0, 48)},
    # Gaussian-type round trips, (forward leg, inverse leg): the default box, but at d=3 the forward
    # leg must resolve phases out to the far nodes of the inverse grid even at its coarse pass
    "round_trip": {1: ((16.0, 256), (16.0, 256)), 2: ((12.0, 96), (12.0, 96)), 3: ((10.0, 128), (10.0, 48))},
    # the slow-decay pair, (forward leg, inverse leg): the polynomially decaying side needs nodes
    # that resolve phases up to the other side's wide exponential-tail box; the sides swap in the pair
    "round_trip_generalized_cauchy": {
        1: ((16.0, 384), (40.0, 256)), 2: ((16.0, 320), (33.0, 128)), 3: ((10.0, 96), (20.0, 48))
    },
    "round_trip_bessel_k_profile": {
        1: ((40.0, 384), (16.0, 256)), 2: ((33.0, 320), (16.0, 128)), 3: ((20.0, 96), (10.0, 48))
    },
    # translation_exchange_pairing's translates: far outer nodes set up phases the spectral side must resolve
    "exchange_pairing": {1: (16.0, 256), 2: (12.0, 128)},
    # matern_translate_mass, (spectral box, position box): the translated profile keeps
    # its exponential tail, so the position box must be much wider than the spectral one
    "matern_translate_mass": {1: ((16.0, 384), (30.0, 256)), 2: ((12.0, 256), (28.0, 96))},
    # radial_bessel_profile_weighted_mass: the profile |x|^a K_a(|x|) decays only like e^-|x|
    "bessel_mass": {1: (30.0, 256), 2: (30.0, 128), 3: (24.0, 96)},
    # heat_kernel_mass's node floor; its radius follows t and x
    "heat_mass_nodes": {1: 160, 2: 128, 3: 96},
    # the certificates' mesh for sampling the transform, its extent capped at the caller's radius
    "certification_mesh": {1: (8.0, 641), 2: (6.0, 121), 3: (4.0, 41)},
    # the sampled sin-modulated Gaussian, the certification falsifier
    "indefinite_mesh": {1: (8.0, 1601), 2: (6.0, 181), 3: (5.0, 61)},
    # the CLI transform's output mesh when --grid is not given
    "output_mesh": {1: (8.0, 161), 2: (6.0, 41), 3: (4.0, 17)},
}


@dataclass(frozen=True)
class QuadratureSpec:
    radius: float
    nodes_per_axis: int

    def __post_init__(self):
        if not (isinstance(self.radius, (int, float, np.integer, np.floating)) and 0 < self.radius < np.inf):
            raise ConfigurationError(f"quadrature radius must be positive and finite, got {self.radius!r}")
        if not isinstance(self.nodes_per_axis, (int, np.integer)) or self.nodes_per_axis < 8 or self.nodes_per_axis % 2:
            raise ConfigurationError(f"nodes_per_axis must be an even integer >= 8, got {self.nodes_per_axis!r}")
        object.__setattr__(self, "nodes_per_axis", int(self.nodes_per_axis))  # a NumPy integer becomes an int

    def doubled(self) -> "QuadratureSpec":
        return replace(self, nodes_per_axis=2 * self.nodes_per_axis)


def default_spec(dimension: int) -> QuadratureSpec:
    if dimension not in _RESOLUTION["default"]:
        raise ConfigurationError(f"no default quadrature for dimension {dimension}")
    return QuadratureSpec(*_RESOLUTION["default"][dimension])


@lru_cache(maxsize=64)
def _unit_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre on [-1, 1], read-only: one eigensolve per node count, whatever the radius."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=64)
def _axis_rule(radius: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The two panels, each the nodes // 2 point rule: an axis mirrored exactly about 0."""
    x, w = _unit_rule(nodes // 2)
    half = radius / 2.0
    nodes_out = np.concatenate([(x - 1.0) * half, (x + 1.0) * half])
    weights_out = np.concatenate([w * half, w * half])
    nodes_out.setflags(write=False)
    weights_out.setflags(write=False)
    return nodes_out, weights_out


class Grid:
    """Tensor quadrature grid with the reflection-group weight pre-applied.

    axes[i]         node coordinates along axis i, ascending
    axis_weights[i] Gauss-Legendre weights times |y|^(2 kappa_i)
    """

    def __init__(self, config: MultiplicityConfig, spec: QuadratureSpec):
        self.config = config
        self.spec = spec
        axes = []
        axis_weights = []
        for k in config.kappa:
            nodes, weights = _axis_rule(float(spec.radius), int(spec.nodes_per_axis))
            axes.append(nodes)
            axis_weights.append(weights * np.abs(nodes) ** (2.0 * k))
        self.axes = tuple(axes)
        self.axis_weights = tuple(axis_weights)

    @property
    def dimension(self) -> int:
        return self.config.dimension

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.axes)

    def points(self) -> np.ndarray:
        """All grid nodes as an array of shape (n^d, d), C-ordered."""
        return tensor_points(self.axes)

    def sample(self, fn) -> np.ndarray:
        """A handle or an (N, d) callable evaluated on every node, shaped as the grid.

        Catalog handles and catalog densities sample from the axes with no
        (N, d) point array (functions.sample_grid); anything else is evaluated
        at the nodes of points().
        """
        return sample_grid(self.config, fn, self.axes)

    def weighted(self, fn) -> np.ndarray:
        """sample(fn) times the weight grid: the summand of every weighted integral."""
        return self.sample(fn) * self.weight_grid()

    def summand(self, fn) -> tuple[np.ndarray, bool]:
        """The summand of a kernel sum of fn over the grid, and whether it is folded.

        Folded when fn is even by construction (functions.even_by_construction),
        as every axis is mirrored exactly about 0: then weighted(fn) on the
        nonnegative orthant, doubled once per axis, which
        transform._blocked_scatter sums against the even part of the kernel.
        It is built from the half axes alone: fn by sample_grid and the weights
        as the outer product of the doubled half weight vectors, which is the
        orthant of weight_grid() times 2^d (doubling is exact).  Else
        weighted(fn), unfolded.
        """
        if not even_by_construction(fn):
            return self.weighted(fn), False
        axes = [a[len(a) // 2 :] for a in self.axes]
        weights = reduce(np.multiply.outer, [2.0 * w[len(w) // 2 :] for w in self.axis_weights])
        return sample_grid(self.config, fn, axes) * weights, True

    def weight_grid(self) -> np.ndarray:
        """Product quadrature-plus-h^2 weights, shape n^d (as the grid)."""
        w = self.axis_weights[0]
        for aw in self.axis_weights[1:]:
            w = np.multiply.outer(w, aw)
        return w

    def integrate(self, values: np.ndarray) -> float | complex:
        """Integrate gridded values against the weighted measure h^2 dy."""
        vals = np.asarray(values).reshape(self.shape)
        total = vals
        for axis in range(self.dimension - 1, -1, -1):
            total = np.tensordot(total, self.axis_weights[axis], axes=([axis], [0]))
        return complex(total) if np.iscomplexobj(vals) else float(total)


def two_pass(run: Callable, config: MultiplicityConfig, *specs: QuadratureSpec):
    """Run `run` on one Grid(config, spec) per spec and again with every spec
    doubled; return (fine, delta).

    delta is the largest entrywise |fine - coarse| (0.0 for an empty result);
    run may return a scalar, an array or a tuple of scalars.
    """
    coarse = run(*(Grid(config, s) for s in specs))
    fine = run(*(Grid(config, s.doubled()) for s in specs))
    diff = np.abs(np.subtract(fine, coarse))
    return fine, float(np.max(diff)) if diff.size else 0.0


def integrate_with_check(config, spec, integrand) -> tuple[float | complex, float]:
    """Integrate f h^2 dy at n and 2n nodes; return (value_2n, |diff|).

    `integrand` is anything Grid.sample takes: a handle (a catalog handle
    samples from the axes) or an (N, d) callable.
    """

    return two_pass(lambda grid: grid.integrate(grid.sample(integrand)), config, spec)
