"""Function handles: the closed-form catalog and sampled tensor grids.

Catalog (all radial, positive, integrable against the weight for admissible
parameters; gamma denotes the multiplicity sum of the active config):

  gaussian(t)            exp(-t |x|^2),  t > 0
  gaussian_density(t)    (2t)^-(gamma+d/2) exp(-|x|^2 / (4t)),  t > 0
  generalized_cauchy(p)  (1 + |x|^2)^-p,  p > gamma + d/2 + 1
  bessel_k_profile(p)    (Gamma(p) 2^(p-1))^-1 |x|^a K_a(|x|),  a = p - gamma - d/2 >= 1

The transform maps gaussian(t) <-> gaussian_density(t) and
generalized_cauchy(p) <-> bessel_k_profile(p); all four are fixed under the
sign flip x -> -x, so forward and inverse agree on them.

The Bessel-K profile is evaluated once per distinct radius through
kernel._per_distinct: a symmetric tensor grid repeats radii many times over
(the 96^3 nodes of a d=3 grid have 22,863 distinct radii).  The Gaussians
and the Cauchy profile are cheap enough to evaluate per point.  A nan or
inf point raises DomainError in every handle.

Sampled functions live on a rectangular tensor grid and evaluate by
multilinear interpolation, zero outside the grid box.  CSV serialization
uses columns x1..xd, re, im with 17 significant digits and LF endings, one
row per node in C order.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import special as sps

from .errors import ConfigurationError, DomainError, InputError
from .kernel import _per_distinct
from .root_system import MultiplicityConfig

GAUSSIAN = "gaussian"
GAUSSIAN_DENSITY = "gaussian_density"
GENERALIZED_CAUCHY = "generalized_cauchy"
BESSEL_K_PROFILE = "bessel_k_profile"

CATALOG_KINDS = (GAUSSIAN, GAUSSIAN_DENSITY, GENERALIZED_CAUCHY, BESSEL_K_PROFILE)
CATALOG_PARAM = {
    GAUSSIAN: "t",
    GAUSSIAN_DENSITY: "t",
    GENERALIZED_CAUCHY: "p",
    BESSEL_K_PROFILE: "p",
}


@dataclass(frozen=True)
class CatalogFunction:
    kind: str
    param: float

    def __post_init__(self):
        if self.kind not in CATALOG_KINDS:
            raise ConfigurationError(f"unknown catalog function {self.kind!r}")
        p = float(self.param)
        if not np.isfinite(p) or p <= 0.0:
            raise ConfigurationError(
                f"{self.kind} parameter {CATALOG_PARAM[self.kind]} must be positive, got {self.param!r}"
            )

    def validate_for(self, config: MultiplicityConfig) -> None:
        """Parameter constraints that depend on the active config."""
        edge = config.gamma + config.dimension / 2.0
        if self.kind == GENERALIZED_CAUCHY and not self.param > edge + 1.0:
            raise ConfigurationError(
                f"generalized_cauchy needs p > gamma + d/2 + 1 = {edge + 1.0}, got p = {self.param}"
            )
        if self.kind == BESSEL_K_PROFILE and not self.param >= edge + 1.0:
            raise ConfigurationError(
                f"bessel_k_profile needs p >= gamma + d/2 + 1 = {edge + 1.0}, got p = {self.param}"
            )

    def evaluate(self, config: MultiplicityConfig, points: np.ndarray) -> np.ndarray:
        self.validate_for(config)
        pts, squeeze = _query_points(config, points)
        r2 = np.sum(pts * pts, axis=-1)
        if self.kind == GAUSSIAN:
            out = np.exp(-self.param * r2)
        elif self.kind == GAUSSIAN_DENSITY:
            t = self.param
            out = (2.0 * t) ** -(config.gamma + config.dimension / 2.0) * np.exp(-r2 / (4.0 * t))
        elif self.kind == GENERALIZED_CAUCHY:
            out = (1.0 + r2) ** -self.param
        else:
            out = _bessel_k_profile_values(config, self.param, np.sqrt(r2))
        return out[0] if squeeze else out

    def value_at_zero(self, config: MultiplicityConfig) -> float:
        return float(self.evaluate(config, np.zeros((1, config.dimension)))[0])


def _query_points(config: MultiplicityConfig, points, error=DomainError) -> tuple[np.ndarray, bool]:
    """Points as an (N, d) array, and whether a single point was passed.

    The one point check of the package; function values and the heat kernel
    raise DomainError, the transform, translation and Gram entry points
    pass InputError.
    """
    pts = np.asarray(points, dtype=float)
    squeeze = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.ndim != 2 or pts.shape[1] != config.dimension:
        raise error(f"expected points in R^{config.dimension}, got shape {np.shape(points)}")
    if not np.all(np.isfinite(pts)):
        raise error("points must be finite (found nan or inf)")
    return pts, squeeze


def _bessel_k_profile_values(config: MultiplicityConfig, p: float, r: np.ndarray) -> np.ndarray:
    """The bessel_k_profile(p) values at radii r, once per distinct radius."""
    alpha = p - config.gamma - config.dimension / 2.0
    norm = 1.0 / (sps.gamma(p) * 2.0 ** (p - 1.0))

    def profile(u):
        out = np.empty_like(u)
        # r^a K_a(r) -> 2^(a-1) Gamma(a) as r -> 0+, with an O(r^2) correction
        tiny = u < 1e-6
        out[tiny] = 2.0 ** (alpha - 1.0) * sps.gamma(alpha)
        rest = ~tiny
        if rest.any():
            rr = u[rest]
            if alpha == int(alpha):
                kval = sps.kn(int(alpha), rr)
            else:
                kval = sps.kv(alpha, rr)
            out[rest] = rr**alpha * kval
        return out

    return norm * _per_distinct(profile, r)


def gaussian(t: float) -> CatalogFunction:
    return CatalogFunction(GAUSSIAN, float(t))


def gaussian_density(t: float) -> CatalogFunction:
    return CatalogFunction(GAUSSIAN_DENSITY, float(t))


def generalized_cauchy(p: float) -> CatalogFunction:
    return CatalogFunction(GENERALIZED_CAUCHY, float(p))


def bessel_k_profile(p: float) -> CatalogFunction:
    return CatalogFunction(BESSEL_K_PROFILE, float(p))


@dataclass(frozen=True)
class SampledFunction:
    """Complex values on a rectangular tensor grid, zero outside the box.

    spectral_hint, when present, maps an (N, d) frequency array to exact
    values of the transform of this function; operations that need the
    spectral density use it instead of a second numerical transform.
    """

    axes: tuple[np.ndarray, ...]
    values: np.ndarray
    spectral_hint: Callable[[np.ndarray], np.ndarray] | None = field(default=None, compare=False)

    def __post_init__(self):
        if len(self.axes) == 0:
            raise InputError("sampled function needs at least one axis")
        shape = tuple(len(a) for a in self.axes)
        vals = np.asarray(self.values)
        if vals.shape != shape:
            raise InputError(f"values shape {vals.shape} does not match grid shape {shape}")
        if not np.all(np.isfinite(vals)):
            raise InputError("sampled values must be finite (found nan or inf)")
        for a in self.axes:
            if len(a) < 2 or not np.all(np.isfinite(a)) or not np.all(np.diff(a) > 0):
                raise InputError("grid axes must be finite and strictly increasing with >= 2 nodes")

    @property
    def dimension(self) -> int:
        return len(self.axes)

    def evaluate(self, config: MultiplicityConfig, points: np.ndarray) -> np.ndarray:
        if config.dimension != self.dimension:
            raise DomainError(f"sampled function has dimension {self.dimension}, config {config.dimension}")
        pts, squeeze = _query_points(config, points)
        out = _multilinear(self.axes, np.asarray(self.values, dtype=complex), pts)
        return out[0] if squeeze else out


def _multilinear(axes, values, pts):
    """Multilinear interpolation on a tensor grid, zero fill outside."""
    n = pts.shape[0]
    d = len(axes)
    inside = np.ones(n, dtype=bool)
    idx0 = []
    frac = []
    for i, ax in enumerate(axes):
        x = pts[:, i]
        inside &= (x >= ax[0]) & (x <= ax[-1])
        j = np.clip(np.searchsorted(ax, x, side="right") - 1, 0, len(ax) - 2)
        idx0.append(j)
        frac.append((x - ax[j]) / (ax[j + 1] - ax[j]))
    out = np.zeros(n, dtype=complex)
    for corner in range(1 << d):
        coeff = np.ones(n)
        index = []
        for i in range(d):
            if corner >> i & 1:
                coeff = coeff * frac[i]
                index.append(idx0[i] + 1)
            else:
                coeff = coeff * (1.0 - frac[i])
                index.append(idx0[i])
        out += coeff * values[tuple(index)]
    out[~inside] = 0.0
    return out


def evaluate_handle(config: MultiplicityConfig, fn, points: np.ndarray) -> np.ndarray:
    """Evaluate a catalog handle, a sampled handle, or a raw (N, d) callable."""
    if isinstance(fn, (CatalogFunction, SampledFunction)):
        return np.asarray(fn.evaluate(config, points))
    if callable(fn):
        return np.asarray(fn(np.atleast_2d(np.asarray(points, dtype=float))))
    raise InputError(f"not a function handle: {type(fn).__name__}")


def tensor_points(axes: Sequence[np.ndarray]) -> np.ndarray:
    """Every node of the tensor grid over `axes`, shape (N, d), C-ordered."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def sample_on_axes(
    config: MultiplicityConfig,
    fn,
    axes: Sequence[np.ndarray],
    spectral_hint=None,
) -> SampledFunction:
    """Tabulate a handle or an (N, d) -> values callable on a tensor grid."""
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    shape = tuple(len(a) for a in axes)
    vals = evaluate_handle(config, fn, tensor_points(axes))
    return SampledFunction(axes, np.asarray(vals, dtype=complex).reshape(shape), spectral_hint)


def uniform_axes(dimension: int, extent: float, count: int) -> tuple[np.ndarray, ...]:
    if count < 2:
        raise InputError("need at least 2 nodes per axis")
    extent = float(extent)
    if not np.isfinite(extent) or extent <= 0.0:
        raise InputError(f"grid extent must be finite and positive, got {extent}")
    ax = np.linspace(-extent, extent, int(count))
    return tuple(ax for _ in range(dimension))


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def sampled_to_csv(fn: SampledFunction) -> str:
    d = fn.dimension
    buf = io.StringIO()
    buf.write(",".join([f"x{i + 1}" for i in range(d)] + ["re", "im"]) + "\n")
    coords = tensor_points(fn.axes)
    flat = np.asarray(fn.values, dtype=complex).reshape(-1)
    for row in range(flat.size):
        cells = [_fmt(coords[row, i]) for i in range(d)]
        cells.append(_fmt(flat[row].real))
        cells.append(_fmt(flat[row].imag))
        buf.write(",".join(cells) + "\n")
    return buf.getvalue()


def save_sampled_csv(fn: SampledFunction, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(sampled_to_csv(fn))


def load_sampled_csv(path: str) -> SampledFunction:
    with open(path, "r") as fh:
        header = fh.readline().strip()
        if not header:
            raise InputError(f"{path}: empty CSV")
        cols = header.split(",")
        if cols[-2:] != ["re", "im"] or any(c != f"x{i + 1}" for i, c in enumerate(cols[:-2])):
            raise InputError(f"{path}: header must be x1..xd,re,im, got {header!r}")
        d = len(cols) - 2
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise InputError(f"{path}: malformed CSV body: {exc}") from exc
    if data.shape[1] != d + 2:
        raise InputError(f"{path}: rows have {data.shape[1]} fields, expected {d + 2}")
    if not np.all(np.isfinite(data)):
        raise InputError(f"{path}: every field must be finite (found nan or inf)")
    axes = [np.unique(data[:, i]) for i in range(d)]
    shape = tuple(len(a) for a in axes)
    if int(np.prod(shape)) != data.shape[0]:
        raise InputError(f"{path}: nodes do not form a full tensor grid")
    order = np.lexsort(tuple(data[:, i] for i in range(d - 1, -1, -1)))
    data = data[order]
    values = (data[:, d] + 1j * data[:, d + 1]).reshape(shape)
    return SampledFunction(tuple(axes), values)
