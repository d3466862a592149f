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

Each member is one radial profile of r^2 (CatalogFunction.profile), reached
two ways: evaluate takes r^2 from an (N, d) point array, and on_axes, the
grid route, from the outer sum of the axis squares.  On a tensor grid the
grid route builds no point array and evaluates the profile only on the
nonnegative orthant of the exactly mirrored axes (_mirror_half, the one
mirror test of the package), then fills the rest by reflection; both routes
agree bit for bit.  A constant factor that is not a finite positive float
(gaussian_density at a tiny t) raises ConfigurationError, as the parameter
edges do.  sample_grid sends catalog handles down the grid route.  Every
density is a DensityProduct of handles and (N, d) callables: the exact
partner of a catalog input (one factor, from transform.spectral_density),
the products in convolve and closure_suite, the heat-damped density;
sample_grid samples each factor on its own route and multiplies the grids.
even_by_construction reads each handle's `even` answer (catalog handles,
a DensityProduct of even factors, transforms of folded sums), which lets the
kernel sums fold onto the nonnegative orthant (quadrature.Grid.summand).
Everything else, sampled handles and raw callables, goes through
tensor_points.  The heat kernel has its own grid route (posdef.heat_kernel),
found by tensor_axes.

The Bessel-K profile is evaluated once per distinct radius through
kernel._per_distinct: a symmetric tensor grid repeats radii many times over
(the 96^3 nodes of a d=3 grid have 22,863 distinct radii).  Where r^a K_a(r)
as a product leaves the float range (large a, small r) it is the
small-argument sum instead (_small_radius_sum).  The Gaussians
and the Cauchy profile are evaluated per element of r^2.  A nan or inf
point raises InputError in every handle.

Sampled functions live on a rectangular tensor grid and evaluate by
multilinear interpolation, zero outside the grid box.  CSV serialization
uses columns x1..xd, re, im with 17 significant digits and LF endings, one
row per node in C order; loading sorts the rows and takes them only if they
are the full tensor grid (tensor_axes).  _read_csv is the one CSV reader of
the package, behind load_sampled_csv and the command line's point files.
"""

from __future__ import annotations

import functools
import io
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import special as sps

from .errors import ConfigurationError, InputError
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
    even = True  # all four are radial

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
        self._norm(config)

    def _norm(self, config: MultiplicityConfig) -> float:
        """The profile's constant factor; ConfigurationError unless a finite positive float."""
        p, c = self.param, 1.0
        try:
            with np.errstate(over="ignore"):
                if self.kind == GAUSSIAN_DENSITY:
                    c = (2.0 * p) ** -(config.gamma + config.dimension / 2.0)
                if self.kind == BESSEL_K_PROFILE:
                    c = 1.0 / (sps.gamma(p) * 2.0 ** (p - 1.0))
        except OverflowError:
            c = math.inf
        if not 0.0 < c < math.inf:
            raise ConfigurationError(
                f"{self.kind}({p}) has normalization constant {c} at gamma + d/2 = "
                f"{config.gamma + config.dimension / 2.0}; it must be a finite positive float"
            )
        return c

    def evaluate(self, config: MultiplicityConfig, points: np.ndarray) -> np.ndarray:
        self.validate_for(config)
        pts, squeeze = _query_points(config, points)
        out = self.profile(config, np.sum(pts * pts, axis=-1))
        return out[0] if squeeze else out

    def on_axes(self, config: MultiplicityConfig, axes: Sequence[np.ndarray]) -> np.ndarray:
        """Values on every node of the tensor grid over `axes`, shaped as the grid.

        r^2 is the outer sum of the axis squares, taken over the nonnegative
        half of each exactly mirrored axis (_mirror_half) and over the whole
        of any other; the mirror image fills the rest, since x^2 = (-x)^2
        holds exactly.  No (N, d) point array is built, and the result equals
        evaluate(config, tensor_points(axes)) bit for bit.
        """
        self.validate_for(config)
        axes = [np.asarray(a, dtype=float) for a in axes]
        if len(axes) != config.dimension:
            raise InputError(f"expected {config.dimension} grid axes, got {len(axes)}")
        if not all(np.all(np.isfinite(a)) for a in axes):
            raise InputError("grid axes must be finite (found nan or inf)")
        halves = [_mirror_half(a) for a in axes]
        squares = [a[h:] * a[h:] for a, h in zip(axes, halves)]
        out = self.profile(config, functools.reduce(np.add.outer, squares))
        for i, h in enumerate(halves):
            if h:  # prepend the mirror image of a[h:], less a centre 0
                mirror = np.flip(out, i)[(slice(None),) * i + (slice(h),)]
                out = np.concatenate([mirror, out], axis=i)
        return out

    def profile(self, config: MultiplicityConfig, r2: np.ndarray) -> np.ndarray:
        """The radial profile at squared radii r2 of any shape: the one body
        behind evaluate (r^2 from points) and on_axes (r^2 from axes)."""
        if self.kind == GAUSSIAN:
            return np.exp(-self.param * r2)
        if self.kind == GAUSSIAN_DENSITY:
            return self._norm(config) * np.exp(-r2 / (4.0 * self.param))
        if self.kind == GENERALIZED_CAUCHY:
            return (1.0 + r2) ** -self.param
        return self._norm(config) * _bessel_k_profile_values(config, self.param, np.sqrt(r2))


def _query_points(config: MultiplicityConfig, points) -> tuple[np.ndarray, bool]:
    """Points as an (N, d) array, and whether a single point was passed.

    The one point check of the package (handles, transforms, translates,
    Gram matrices, the heat kernel): None, strings, complex numbers, ragged
    rows, a wrong shape or a nan or inf coordinate raise InputError.  Rows
    at stride 0 (np.broadcast_to) are one row in memory, checked once.
    """
    try:
        if points is None or np.iscomplexobj(points):  # as floats: nan, or the real parts alone
            raise TypeError("got None" if points is None else "got complex values")
        pts = np.asarray(points, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"expected real points in R^{config.dimension}: {exc}") from None
    squeeze = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.ndim != 2 or pts.shape[1] != config.dimension:
        raise InputError(f"expected points in R^{config.dimension}, got shape {np.shape(points)}")
    if not np.all(np.isfinite(pts[:1] if pts.strides[0] == 0 else pts)):
        raise InputError("points must be finite (found nan or inf)")
    return pts, squeeze


def _bessel_k_profile_values(config: MultiplicityConfig, p: float, r: np.ndarray) -> np.ndarray:
    """r^a K_a(r), a = p - gamma - d/2, at radii r, once per distinct radius:
    the bessel_k_profile(p) values before the constant factor."""
    alpha = p - config.gamma - config.dimension / 2.0

    def profile(u):
        out = np.empty_like(u)
        # r^a K_a(r) -> 2^(a-1) Gamma(a) as r -> 0+, with an O(r^2) correction
        lead = 2.0 ** (alpha - 1.0) * sps.gamma(alpha)
        tiny = u < 1e-6
        out[tiny] = lead
        rr = u[~tiny]
        with np.errstate(over="ignore", invalid="ignore"):
            out[~tiny] = rr**alpha * sps.kv(alpha, rr)
        lost = ~np.isfinite(out)
        if lost.any():  # r^a underflows or K_a(r) overflows (large a, small r): the small-r sum
            out[lost] = lead * _small_radius_sum(alpha, u[lost])
        return out

    return _per_distinct(profile, r)


def _small_radius_sum(alpha: float, r: np.ndarray) -> np.ndarray:
    """r^a K_a(r) / (2^(a-1) Gamma(a)) = sum_k Gamma(a-k) / (Gamma(a) k!) (-r^2/4)^k over k < a - 1,
    up to a term of order r^(2a) (DLMF 10.27.4 with 10.25.2, or 10.31.1 at integer a).  Where the
    product form is lost the first ratio r^2 / 4(a-1) is below 1e-2, and the terms fall below 1e-17."""
    term = np.ones_like(r)
    total = term.copy()
    k = 0
    while k + 1 < alpha - 1.0 and np.max(np.abs(term)) > 1e-17:
        term = term * (-0.25 * r * r) / ((k + 1) * (alpha - 1.0 - k))
        total += term
        k += 1
    return total


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
            raise InputError(f"sampled function has dimension {self.dimension}, config {config.dimension}")
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


@dataclass(frozen=True)
class DensityProduct:
    """The pointwise product of handles and (N, d) callables under a config,
    itself a plain (N, d) callable: every density of the package.  sample_grid
    samples each factor on its own route and multiplies the grids in the
    factor order, the order in which the call multiplies the values.
    """

    config: MultiplicityConfig
    factors: tuple

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return functools.reduce(operator.mul, (evaluate_handle(self.config, f, pts) for f in self.factors))

    @property
    def even(self) -> bool:
        return all(even_by_construction(f) for f in self.factors)


def even_by_construction(fn) -> bool:
    """Whether fn is even in every coordinate by construction, whatever its values: its
    `even` answer.  Catalog handles are (all four are radial), a DensityProduct when every
    factor is, and transforms of folded sums (transform._transformer, tabulated_density of
    an even f).  Sampled handles and raw callables answer nothing: no sample is scanned."""
    return getattr(fn, "even", False) is True


def evaluate_handle(config: MultiplicityConfig, fn, points: np.ndarray) -> np.ndarray:
    """Evaluate a catalog handle, a sampled handle, or a raw (N, d) callable."""
    if isinstance(fn, (CatalogFunction, SampledFunction)):
        return np.asarray(fn.evaluate(config, points))
    if callable(fn):
        return np.asarray(fn(np.atleast_2d(np.asarray(points, dtype=float))))
    raise InputError(f"not a function handle: {type(fn).__name__}")


def sample_grid(config: MultiplicityConfig, fn, axes: Sequence[np.ndarray]) -> np.ndarray:
    """fn on every node of the tensor grid over `axes`, shaped as the grid.

    Catalog handles take CatalogFunction.on_axes, with no (N, d) point
    array, and a DensityProduct multiplies the samples of its factors, each
    taken with the product's config; sampled handles and raw callables are
    evaluated at tensor_points(axes).  Every route gives the points route's
    values bit for bit.
    """
    if isinstance(fn, DensityProduct):
        return functools.reduce(operator.mul, (sample_grid(fn.config, f, axes) for f in fn.factors))
    if isinstance(fn, CatalogFunction):
        return fn.on_axes(config, axes)
    return evaluate_handle(config, fn, tensor_points(axes)).reshape(tuple(len(a) for a in axes))


def tensor_points(axes: Sequence[np.ndarray]) -> np.ndarray:
    """Every node of the tensor grid over `axes`, shape (N, d), C-ordered.

    Each axis is written once into the (n_1, ..., n_d, d) result through a
    broadcast view.
    """
    axes = [np.asarray(a) for a in axes]
    d = len(axes)
    out = np.empty(tuple(len(a) for a in axes) + (d,), dtype=np.result_type(*axes))
    for i, a in enumerate(axes):
        out[..., i] = a.reshape((-1,) + (1,) * (d - i - 1))
    return out.reshape(-1, d)


def tensor_axes(points: np.ndarray) -> tuple[np.ndarray, ...] | None:
    """Inverse of tensor_points: the axes if `points` (N, d) are exactly the C-ordered
    nodes of the tensor grid over their distinct coordinates, else None.

    O(N d), with no sort: on such nodes column i, read at the stride of the
    later axis lengths, starts with its axis as a strictly ascending run.
    Each column is then checked against the grid its run spans.
    """
    if len(points) == 0:
        return None
    axes = ()
    for col in points.T[::-1]:
        head = col[:: math.prod(len(a) for a in axes)]
        falls = np.flatnonzero(~(head[1:] > head[:-1]))
        axes = (head[: falls[0] + 1 if falls.size else len(head)].copy(),) + axes
    shape = tuple(len(a) for a in axes)
    if math.prod(shape) != len(points):
        return None
    for i, a in enumerate(axes):
        if np.any(points[:, i].reshape(shape) != a.reshape((-1,) + (1,) * (len(axes) - i - 1))):
            return None
    return axes


def _mirror_half(a: np.ndarray) -> int:
    """h = len(a) // 2 when a is exactly mirrored, a[i] == -a[-1 - i] for every i, else 0.

    The one mirror test of the package: CatalogFunction.on_axes and
    transform._axis_matrices evaluate only a[h:] of such an axis and fill
    a[:h] from it.  At an odd length the centre a[h] is then exactly 0; it
    belongs to the evaluated half and the fill skips it.
    """
    return len(a) // 2 if np.array_equal(a, -a[::-1]) else 0


def sample_on_axes(config: MultiplicityConfig, fn, axes: Sequence[np.ndarray]) -> SampledFunction:
    """Tabulate a handle or an (N, d) -> values callable on a tensor grid."""
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    return SampledFunction(axes, np.asarray(sample_grid(config, fn, axes), dtype=complex))


def uniform_axes(dimension: int, extent: float, count: int) -> tuple[np.ndarray, ...]:
    if not (isinstance(dimension, (int, np.integer)) and dimension >= 1):
        raise InputError(f"grid dimension must be a whole number >= 1, got {dimension!r}")
    if not (isinstance(count, (int, float, np.integer, np.floating)) and float(count).is_integer() and count >= 2):
        raise InputError(f"need a whole number of at least 2 nodes per axis, got {count!r}")
    if not (isinstance(extent, (int, float, np.integer, np.floating)) and 0.0 < extent < math.inf):
        raise InputError(f"grid extent must be finite and positive, got {extent!r}")
    extent = float(extent)
    ax = np.linspace(-extent, extent, int(count))
    # within two ulp of the extent from linspace, but exactly mirrored (an
    # exact 0 at an odd centre), so the grid route and the phase matrices
    # evaluate only the nonnegative half
    ax = (ax - ax[::-1]) / 2.0
    return tuple(ax for _ in range(dimension))


def sampled_to_csv(fn: SampledFunction) -> str:
    header = ",".join([f"x{i + 1}" for i in range(fn.dimension)] + ["re", "im"])
    flat = np.asarray(fn.values, dtype=complex).reshape(-1)
    table = np.column_stack([tensor_points(fn.axes), flat.real, flat.imag])
    buf = io.StringIO()
    np.savetxt(buf, table, fmt="%.17g", delimiter=",", header=header, comments="")
    return buf.getvalue()


def save_sampled_csv(fn: SampledFunction, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(sampled_to_csv(fn))


def _read_csv(path: str) -> tuple[list, np.ndarray]:
    """The header's column names and the body of a CSV file, one row per line, every field finite."""
    with open(path, "r") as fh:
        header = fh.readline().strip()
        if not header:
            raise InputError(f"{path}: empty CSV")
        lines = fh.readlines()
        if not any(line.split("#", 1)[0].strip() for line in lines):  # loadtxt would warn and return (0, 1)
            raise InputError(f"{path}: no data rows")
        try:
            data = np.loadtxt(lines, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise InputError(f"{path}: malformed CSV body: {exc}") from exc
    cols = header.split(",")
    if data.shape[1] != len(cols):
        raise InputError(f"{path}: rows have {data.shape[1]} fields, expected {len(cols)}")
    if not np.all(np.isfinite(data)):
        raise InputError(f"{path}: every field must be finite (found nan or inf)")
    return cols, data


def load_sampled_csv(path: str) -> SampledFunction:
    cols, data = _read_csv(path)
    d = len(cols) - 2
    if d < 1 or cols[d:] != ["re", "im"] or cols[:d] != [f"x{i + 1}" for i in range(d)]:
        raise InputError(f"{path}: header must be x1..xd,re,im with d >= 1, got {','.join(cols)!r}")
    order = np.lexsort(tuple(data[:, i] for i in range(d - 1, -1, -1)))
    data = data[order]
    axes = tensor_axes(data[:, :d])
    if axes is None:
        raise InputError(f"{path}: nodes do not form a full tensor grid")
    values = (data[:, d] + 1j * data[:, d + 1]).reshape(tuple(len(a) for a in axes))
    return SampledFunction(axes, values)
