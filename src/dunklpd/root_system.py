"""Root system data for the sign-flip reflection group Z_2^d on R^d.

The group acts by flipping coordinate signs; the positive roots are the
standard basis vectors, one per axis, each carrying a nonnegative
multiplicity kappa_i.  Everything downstream (weight, kernel, transform)
is parametrized by a MultiplicityConfig built here.
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
    try:
        kap = tuple(float(k) for k in kappa)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"kappa must be a sequence of numbers, got {kappa!r}") from exc
    if len(kap) != dimension:
        raise ConfigurationError(f"kappa has length {len(kap)}, expected {dimension}")
    if any(not math.isfinite(k) or k < 0 for k in kap):
        raise ConfigurationError(f"multiplicities must be finite and >= 0, got {kap}")
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
    """Points as an (N, d) array, and whether a single point was passed.

    The one point check of the package (handles, transforms, translates,
    Gram matrices, the heat kernel, the weight): None, strings, complex
    numbers, ragged rows, a wrong shape or a nan or inf coordinate raise
    InputError.  Rows at stride 0 (np.broadcast_to) are one row in memory,
    checked once.
    """
    pts = _real_points(points, f"in R^{config.dimension}")
    squeeze = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.ndim != 2 or pts.shape[1] != config.dimension:
        raise InputError(f"expected points in R^{config.dimension}, got shape {np.shape(points)}")
    if not np.all(np.isfinite(pts[:1] if pts.strides[0] == 0 else pts)):
        raise InputError("points must be finite (found nan or inf)")
    return pts, squeeze


def _real_points(points, where: str) -> np.ndarray:
    """points as a float array, the conversion of _query_points and PointSet: None, strings,
    complex numbers and ragged rows raise InputError, whose message says where points were wanted."""
    try:
        if points is None or np.iscomplexobj(points):  # as floats: nan, or the real parts alone
            raise TypeError("got None" if points is None else "got complex values")
        return np.asarray(points, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"expected real points {where}: {exc}") from None


def _in_range(v, low, high, closed: bool = False) -> bool:
    """Whether v is a real number, not a bool, in (low, high), or [low, high) when closed."""
    try:
        real = not isinstance(v, (bool, np.bool_)) and not np.iscomplexobj(v)
        return real and bool(low <= v < high if closed else low < v < high)
    except TypeError:  # None, strings
        return False
