"""Truncated tensor-product Gauss-Legendre quadrature on [-R, R]^d.

Each axis rule is a two-panel composite: Gauss-Legendre on [-R, 0] and on
[0, R].  Splitting at the origin keeps the rule spectrally accurate when the
integrand carries the weight |y|^(2 kappa), whose even extension has a corner
at 0; a single panel across the origin degrades to algebraic convergence.
The weight stays in the integrand (folded into per-axis weight vectors), not
in the rule itself.

two_pass is the one place that runs a computation at n and at 2n nodes per
axis; it returns the 2n result and the largest entrywise difference as the
resolution error estimate; given one spec per grid, it doubles them all.
Operators (transform, translation, convolution, heat-smoothed form) and the
suites' composites run it through transform._checked, which turns that
delta into an AccuracyWarning; identity reports carry it in their notes.
weighted_norm, numeric_density and two suite checks integrate on the doubled
grid only.  Sums are taken by numpy pairwise summation over a fixed node
ordering, so results are deterministic run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .functions import sample_grid, tensor_points
from .root_system import MultiplicityConfig

_DEFAULTS = {1: (16.0, 256), 2: (12.0, 96), 3: (10.0, 48)}


@dataclass(frozen=True)
class QuadratureSpec:
    radius: float
    nodes_per_axis: int

    def __post_init__(self):
        if not np.isfinite(self.radius) or self.radius <= 0:
            raise ConfigurationError(f"quadrature radius must be positive, got {self.radius}")
        if not isinstance(self.nodes_per_axis, int) or self.nodes_per_axis < 8:
            raise ConfigurationError(f"nodes_per_axis must be an integer >= 8, got {self.nodes_per_axis}")

    def doubled(self) -> "QuadratureSpec":
        return replace(self, nodes_per_axis=2 * self.nodes_per_axis)


def default_spec(dimension: int) -> QuadratureSpec:
    if dimension not in _DEFAULTS:
        raise ConfigurationError(f"no default quadrature for dimension {dimension}")
    radius, nodes = _DEFAULTS[dimension]
    return QuadratureSpec(radius, nodes)


@lru_cache(maxsize=64)
def _unit_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre on [-1, 1], read-only: one eigensolve per node count, whatever the radius."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=64)
def _axis_rule(radius: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    n_neg = nodes // 2
    n_pos = nodes - n_neg
    x_neg, w_neg = _unit_rule(n_neg)
    x_pos, w_pos = _unit_rule(n_pos)
    half = radius / 2.0
    nodes_out = np.concatenate([(x_neg - 1.0) * half, (x_pos + 1.0) * half])
    weights_out = np.concatenate([w_neg * half, w_pos * half])
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
            if k == 0.0:
                axis_weights.append(weights.copy())
            else:
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


def two_pass(run: Callable, *specs: QuadratureSpec):
    """Run `run(*specs)` and again with every spec doubled; return (fine, delta).

    delta is the largest entrywise |fine - coarse| (0.0 for an empty result);
    run may return a scalar, an array or a tuple of scalars.
    """
    coarse = run(*specs)
    fine = run(*(s.doubled() for s in specs))
    diff = np.abs(np.subtract(fine, coarse))
    return fine, float(np.max(diff)) if diff.size else 0.0


def integrate_with_check(config, spec, integrand) -> tuple[float | complex, float]:
    """Integrate f(points) h^2 dy at n and 2n nodes; return (value_2n, |diff|).

    `integrand` maps an (N, d) point array to values of matching length.
    """

    def run(sp):
        grid = Grid(config, sp)
        return grid.integrate(grid.sample(integrand))

    return two_pass(run, spec)
