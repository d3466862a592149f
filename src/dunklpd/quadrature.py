"""Truncated tensor-product Gauss-Legendre quadrature on [-R, R]^d.

Each axis rule is a two-panel composite: Gauss-Legendre on [-R, 0] and on
[0, R], n/2 nodes each, so every axis is mirrored exactly about 0 and
QuadratureSpec refuses an odd n.  Splitting at the origin keeps the rule
spectrally accurate when the integrand carries the weight |y|^(2 kappa),
whose even extension has a corner at 0; a single panel across the origin
degrades to algebraic convergence.  The weight stays in the integrand
(folded into per-axis weight vectors), not in the rule itself.
Every sum of a handle over a grid, an integral or a kernel sum, reads
Grid.summand, the one owner of the orthant fold; value arrays are summed
by Grid.integrate.  Grid.summand also owns the separable layout: an even
handle that factors over the axes (functions.sample_factors: the Gaussians,
their densities and products of such) is laid out as one weighted factor
per half axis, with no grid of n^d values, and every sum of it, by
Summand.contract against one matrix per axis or by Summand.total, is a
product of 1-D sums: O(d n) work per output in place of O(n^d).

two_pass is the one place that runs a computation at n and at 2n nodes per
axis, and it builds every grid a checked computation reads: given one spec
per grid, it calls run with a Grid for each spec, then with a Grid for each
doubled spec, so a run takes grids and never a spec.  It returns the 2n
result and the largest entrywise difference as the resolution error
estimate.  Operators (transform, translation, convolution, heat-smoothed
form) and the suites' composites run it through transform._checked, which
turns that delta into an AccuracyWarning; identity reports carry it in
their notes.  integrate_with_check is two_pass over the sum of one
summand, of a handle or an (N, d) callable, the route of
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
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigurationError
from .functions import even_by_construction, sample_factors, sample_grid, tensor_points
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
        if isinstance(self.radius, bool) or not (
            isinstance(self.radius, (int, float, np.integer, np.floating)) and 0 < self.radius < np.inf
        ):
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


class Summand(NamedTuple):
    """Grid.summand: the node axes it covers, the handle times the weights there, and the
    fold flag.  A separable summand holds no vw: axis_vw holds one weighted factor per
    axis, and vw would be their outer product.  Its sums are read through contract and
    total, which take either layout."""

    axes: tuple
    vw: np.ndarray | None
    folded: bool
    axis_vw: tuple | None = None

    def contract(self, mats: list, contraction: Callable, join=np.multiply) -> np.ndarray:
        """contraction(mats, vw), the sum over the nodes against one matrix per axis.  On
        a separable summand each axis is contracted alone, contraction([mats[i]],
        axis_vw[i]), and the results are joined: np.multiply for the rows of scattered
        points, np.multiply.outer for the axes of a tensor grid."""
        if self.axis_vw is None:
            return contraction(mats, self.vw)
        return reduce(join, (contraction([m], v) for m, v in zip(mats, self.axis_vw)))

    def total(self) -> float | complex:
        """The sum over the nodes: of vw, or the product of the per-axis sums."""
        if self.axis_vw is None:
            return self.vw.sum()
        return reduce(np.multiply, (v.sum() for v in self.axis_vw))


class Grid:
    """Tensor quadrature grid with the reflection-group weight pre-applied.

    axes[i]         node coordinates along axis i, ascending
    axis_weights[i] Gauss-Legendre weights times |y|^(2 kappa_i)
    half_axes[i]    the nonnegative half of axes[i] (every axis is mirrored, with no node at 0)
    half_weights[i] the weights there, doubled: the orthant of an even integrand
    """

    def __init__(self, config: MultiplicityConfig, spec: QuadratureSpec):
        self.config = config
        self.spec = spec
        nodes, weights = _axis_rule(float(spec.radius), int(spec.nodes_per_axis))
        self.axes = (nodes,) * config.dimension
        self.axis_weights = tuple(weights * np.abs(nodes) ** (2.0 * k) for k in config.kappa)
        self.half_axes = tuple(a[len(a) // 2 :] for a in self.axes)
        self.half_weights = tuple(2.0 * w[len(w) // 2 :] for w in self.axis_weights)

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

    def summand(self, fn) -> Summand:
        """The summand of every sum of a handle fn over the grid.

        Folded when fn is even by construction (functions.even_by_construction):
        fn on the half axes times the outer product of the half weights, the
        orthant of sample(fn) * weight_grid() times 2^d (doubling is exact),
        whose sum, or contraction against the kernel's even part
        (transform._blocked_scatter), is the sum over every node.  Else
        sample(fn) * weight_grid(), unfolded.

        A folded fn that factors over the axes (functions.sample_factors) is
        separable: axis_vw holds each factor times its half weights, and no grid
        of n^d values is built.  Its outer product is the folded vw up to
        rounding, and at d = 1 its one factor is vw bit for bit.
        """
        if not even_by_construction(fn):
            return Summand(self.axes, self.sample(fn) * self.weight_grid(), False)
        factors = sample_factors(self.config, fn, self.half_axes)
        if factors is not None:
            return Summand(self.half_axes, None, True, tuple(f * w for f, w in zip(factors, self.half_weights)))
        weights = reduce(np.multiply.outer, self.half_weights)
        return Summand(self.half_axes, sample_grid(self.config, fn, self.half_axes) * weights, True)

    def weight_grid(self) -> np.ndarray:
        """Product quadrature-plus-h^2 weights, shape n^d (as the grid)."""
        return reduce(np.multiply.outer, self.axis_weights)

    def integrate(self, values: np.ndarray) -> float | complex:
        """Integrate gridded values against the weighted measure h^2 dy."""
        total = np.asarray(values).reshape(self.shape)
        for axis in range(self.dimension - 1, -1, -1):
            total = np.tensordot(total, self.axis_weights[axis], axes=([axis], [0]))
        return complex(total) if np.iscomplexobj(total) else float(total)


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

    `integrand` is anything Grid.summand takes: a handle (a catalog handle
    samples from the axes and folds) or an (N, d) callable.
    """
    return two_pass(lambda grid: grid.summand(integrand).total(), config, spec)
