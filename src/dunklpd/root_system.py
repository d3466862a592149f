"""Root system data for the sign-flip reflection group Z_2^d on R^d.

The group acts by flipping coordinate signs; the positive roots are the
standard basis vectors, one per axis, each carrying a nonnegative
multiplicity kappa_i.  Everything downstream (weight, kernel, transform)
is parametrized by a MultiplicityConfig built here.

Every input is converted here, one rule per kind.  A coordinate (points,
grid axes, the kernel's x and y) goes through _real_points: anything but an
array of real numbers (None, strings, complex values, ragged rows) raises
InputError, and bools are 0 and 1; grid axes then take one finite 1-D axis
per dimension (_query_axes).  A real parameter (multiplicities,
catalog t and p, quadrature radii, grid extents, times, the norm order) goes
through _in_range; its caller raises the error it raises out of range.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, InputError

MAX_DIMENSION = 3


@dataclass(frozen=True)
class MultiplicityConfig:
    """Dimension, per-axis multiplicities, and derived constants.

    gamma        sum of the multiplicities
    lambda_index gamma + (d - 2)/2, the Hankel-type index of radial reductions
    mehta        normalization constant c = prod_i [2^(k_i+1/2) Gamma(k_i+1/2)]^(-1),
                 the reciprocal of int h^2(x) exp(-|x|^2/2) dx
    """

    dimension: int
    kappa: tuple[float, ...]
    gamma: float
    lambda_index: float
    mehta: float

    def to_json(self) -> str:
        # derived fields are recomputed on load, never serialized
        return json.dumps({"dimension": self.dimension, "kappa": list(self.kappa)})

    @staticmethod
    def from_json(text: str) -> "MultiplicityConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict) or set(data) - {"dimension", "kappa"}:
            raise ConfigurationError("config JSON must be an object with keys 'dimension' and 'kappa'")
        return make_config(data.get("dimension"), data.get("kappa"))


def make_config(dimension: int, kappa: Sequence[float]) -> MultiplicityConfig:
    if not isinstance(dimension, (int, np.integer)) or isinstance(dimension, bool):
        raise ConfigurationError(f"dimension must be an integer, got {dimension!r}")
    dimension = int(dimension)
    if dimension < 1:
        raise ConfigurationError(f"dimension must be >= 1, got {dimension}")
    if dimension > MAX_DIMENSION:
        raise ConfigurationError(
            f"dimension {dimension} unsupported: tensor quadrature is capped at d <= {MAX_DIMENSION}"
        )
    kap = tuple(kappa) if np.iterable(kappa) else None
    if kap is None or len(kap) != dimension:
        raise ConfigurationError(f"kappa must be a sequence of {dimension} multiplicities, got {kappa!r}")
    if not all(_in_range(k, 0.0, math.inf, closed=True) for k in kap):
        raise ConfigurationError(f"multiplicities must be real numbers, finite and >= 0, got {kappa!r}")
    kap = tuple(float(k) for k in kap)
    gamma = float(sum(kap))
    lam = gamma + (dimension - 2) / 2.0
    mehta = 1.0
    try:
        for k in kap:
            mehta /= 2.0 ** (k + 0.5) * math.gamma(k + 0.5)
    except OverflowError:
        mehta = 0.0
    if not mehta >= sys.float_info.min:  # from kappa 151 it is 0 and would zero every transform
        raise ConfigurationError(f"multiplicities {kap} too large: the normalization constant {mehta!r} underflows")
    return MultiplicityConfig(dimension, kap, gamma, lam, mehta)


def weight(config: MultiplicityConfig, x) -> float | np.ndarray:
    """Group-invariant weight h^2(x) = prod_i |x_i|^(2 kappa_i), with 0^0 = 1, at a single
    point of shape (d,) or a batch of shape (n, d), through the one point check."""
    pts, single = _query_points(config, x)
    out = np.ones(len(pts))
    for i, k in enumerate(config.kappa):
        if k != 0.0:
            out = out * np.abs(pts[:, i]) ** (2.0 * k)
    return float(out[0]) if single else out


def _query_points(config: MultiplicityConfig, points) -> tuple[np.ndarray, bool]:
    """Points as an (N, d) array, and whether a single point was passed: the one point
    check of handles, transforms, translates, Gram matrices, the heat kernel and the
    weight.  Past _real_points, a wrong shape or a nan or inf coordinate raises
    InputError.  Rows at stride 0 (np.broadcast_to) are one row in memory, checked once.
    """
    pts = _real_points(points, f"in R^{config.dimension}")
    squeeze = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.ndim != 2 or pts.shape[1] != config.dimension:
        raise InputError(f"expected points in R^{config.dimension}, got shape {np.shape(points)}")
    if not np.all(np.isfinite(pts[:1] if pts.strides[0] == 0 else pts)):
        raise InputError("points must be finite (found nan or inf)")
    return pts, squeeze


def _query_axes(config: MultiplicityConfig, axes) -> tuple[np.ndarray, ...]:
    """Axes as finite 1-D float arrays, one per dimension: the one axis check of the grid
    routes (catalog handles, forward_grid's output axes, sample_on_axes, sample_grid's points
    route).  Past _real_points, axes that are not a sequence (None), a count other than the
    dimension, an axis that is not 1-D or a nan or inf node raises InputError."""
    axes = tuple(_real_points(a, "on a grid axis") for a in axes) if np.iterable(axes) else None
    if axes is None or len(axes) != config.dimension or not all(a.ndim == 1 and np.all(np.isfinite(a)) for a in axes):
        raise InputError(f"expected {config.dimension} finite 1-D grid axes for points in R^{config.dimension}")
    return axes


def _real_points(points, where: str) -> np.ndarray:
    """points as a float array, bools as 0 and 1: the one conversion of a coordinate
    array.  Anything else raises InputError, whose message says where points were wanted."""
    try:
        arr = np.asarray(points)  # ragged rows raise ValueError
        if arr.dtype.kind not in "biuf":  # as floats, None is nan, 1j is 0.0 and "0.5" is 0.5
            what = {"c": "got complex values", "U": "could not convert strings to float"}.get(arr.dtype.kind)
            raise TypeError("got None" if points is None else what or f"could not convert {arr.dtype} values to float")
        return arr.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise InputError(f"expected real points {where}: {exc}") from None


def _in_range(v, low, high, closed: bool = False) -> bool:
    """Whether v is one real number in (low, high), or [low, high) when closed: a Python or
    NumPy int or float, or a 0-d array of one; not None, a string, a bool, a complex value or an array."""
    try:
        a = np.asarray(v)
    except ValueError:  # ragged rows
        return False
    return a.ndim == 0 and a.dtype.kind in "iuf" and bool(low <= a < high if closed else low < a < high)
