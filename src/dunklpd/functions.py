"""Function handles: the closed-form catalog and sampled tensor grids.

Catalog (all radial, positive, integrable against the weight for admissible
parameters; gamma denotes the multiplicity sum of the active config):

  gaussian(t)            exp(-t |x|^2),  t > 0
  gaussian_density(t)    (2t)^-(gamma+d/2) exp(-|x|^2 / (4t)),  t > 0
  generalized_cauchy(p)  (1 + |x|^2)^-p,  p > gamma + d/2 + 1
  bessel_k_profile(p)    (Gamma(p) 2^(p-1))^-1 |x|^a K_a(|x|),  a = p - gamma - d/2 >= 1

The transform maps gaussian(t) <-> gaussian_density(t) and
generalized_cauchy(p) <-> bessel_k_profile(p) (CATALOG_PARTNER); all four
are fixed under the sign flip x -> -x, so forward and inverse agree on them.

Each member is one radial profile of r^2 (CatalogFunction.profile), with
r^2 the coordinate squares summed in ascending order (_radius_squared, the
one r^2 of the catalog; at d <= 2 the plain sum), so permuting the
coordinates leaves it unchanged bit for bit.  It is reached two ways:
evaluate takes r^2 from an (N, d) point array, and on_axes, the grid route,
from the axis squares.  On a tensor grid the grid route builds no point
array and evaluates the profile only on the nonnegative orthant of the
exactly mirrored axes (_mirror_half, the one mirror test of the package),
then fills the rest by reflection.  At d = 3 on equal axes (every Grid,
every uniform_axes mesh) it evaluates the profile once per orbit of the
coordinate permutations on that orthant, at the C(n + 2, 3) sorted index
triples in place of its n^3 nodes (19,600 of 110,592 on a 96-node grid),
and spreads the values over the orthant (_fill_orbits); unequal axes take
the whole orthant.  Both routes agree bit for bit.  A constant factor that
is not a finite positive float (gaussian_density at a tiny t) raises
ConfigurationError, as the parameter edges do.  The heat kernel has its own grid route (posdef.heat_kernel),
found by tensor_axes.  The two Gaussians also factor over the axes
(axis_factors): exp(-t |x|^2) = prod_i exp(-t x_i^2), to rounding.

Handles answer for themselves: the operators read getattr(fn, name, None),
never a handle's type, and take the general route where it answers nothing.

  evaluate(config, points)  catalog, sampled; evaluate_handle (else it calls fn)
  on_axes(config, axes)     catalog, DensityProduct; sample_grid (else tensor_points)
  partner(config)           catalog; closed_form_transform, spectral_density, bochner_forward
  spectral_hint             forward_grid's results; spectral_density
  profile                   catalog; closure_suite's radial guard
  nonnegative               catalog (always), sampled (a sign scan); translate_mass's guard
  even                      catalog, DensityProducts of even factors, transforms of folded
                            sums; even_by_construction, so the kernel sums fold (Grid.summand)
  axis_factors(config, axes)
                            the Gaussians (the other members answer None), DensityProducts
                            whose every factor answers; sample_factors, so the folded sums of
                            such handles split into per-axis sums (Grid.summand)

Every profile is evaluated per element of r^2, as the kernel's evaluators
are: the route decides how often it runs (the mirror fill, the d = 3 orbits),
and nothing deduplicates radii by value.  At an order a with 2a an integer
up to the kernel's ladder bound (every order the identity suites use)
r^a K_a(r) is the upward recurrence from K_0 and K_1 or from the closed form
K_{1/2} (_bessel_k_ladder), the rule the kernel's sine/cosine ladder
follows; any other order is r^a times scipy's kv.  Where that product leaves
the float range (large a, small r) it is the small-argument sum instead
(_small_radius_sum).  A nan or inf point raises InputError in every handle.

Sampled functions live on a rectangular tensor grid and evaluate by
multilinear interpolation, zero outside the grid box.  CSV serialization
uses columns x1..xd, re, im with 17 significant digits and LF endings, one
row per node in C order; loading sorts the rows and takes them only if they
are the full tensor grid (tensor_axes, which compares whole slabs of the
first axis against one template).  _read_csv is the one CSV reader of
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
from .kernel import _LADDER_MAX_KAPPA
from .reports import _sign_excess
from .root_system import MultiplicityConfig, _in_range, _query_axes, _query_points, _real_points

GAUSSIAN = "gaussian"
GAUSSIAN_DENSITY = "gaussian_density"
GENERALIZED_CAUCHY = "generalized_cauchy"
BESSEL_K_PROFILE = "bessel_k_profile"

_CHECK_ROWS = 1 << 14  # tensor_axes compares whole slabs, as many at a time as fit in this many rows

CATALOG_KINDS = (GAUSSIAN, GAUSSIAN_DENSITY, GENERALIZED_CAUCHY, BESSEL_K_PROFILE)
CATALOG_PARAM = {
    GAUSSIAN: "t",
    GAUSSIAN_DENSITY: "t",
    GENERALIZED_CAUCHY: "p",
    BESSEL_K_PROFILE: "p",
}
CATALOG_PARTNER = {
    GAUSSIAN: GAUSSIAN_DENSITY,
    GAUSSIAN_DENSITY: GAUSSIAN,
    GENERALIZED_CAUCHY: BESSEL_K_PROFILE,
    BESSEL_K_PROFILE: GENERALIZED_CAUCHY,
}


@dataclass(frozen=True)
class CatalogFunction:
    kind: str
    param: float
    even = True  # all four are radial
    nonnegative = True  # and positive

    def __post_init__(self):
        if self.kind not in CATALOG_KINDS:
            raise ConfigurationError(f"unknown catalog function {self.kind!r}")
        if not _in_range(self.param, 0.0, math.inf):
            raise ConfigurationError(
                f"{self.kind} parameter {CATALOG_PARAM[self.kind]} must be positive, got {self.param!r}"
            )
        object.__setattr__(self, "param", float(self.param))

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

    def partner(self, config: MultiplicityConfig) -> "CatalogFunction":
        """The exact transform (CATALOG_PARTNER), with both handles validated for config."""
        self.validate_for(config)
        partner = CatalogFunction(CATALOG_PARTNER[self.kind], self.param)
        partner.validate_for(config)
        return partner

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
        with np.errstate(over="ignore"):  # an overflowed r^2 is inf, where every profile is 0
            r2 = _radius_squared(list((pts * pts).T))
        out = self.profile(config, r2)
        return out[0] if squeeze else out

    def _grid_axes(self, config: MultiplicityConfig, axes: Sequence[np.ndarray]) -> tuple:
        """The axes through _query_axes, for a handle valid for config."""
        self.validate_for(config)
        return _query_axes(config, axes)

    def on_axes(self, config: MultiplicityConfig, axes: Sequence[np.ndarray]) -> np.ndarray:
        """Values on every node of the tensor grid over `axes`, shaped as the grid.

        r^2 is _radius_squared of the axis squares, taken over the nonnegative
        half of each exactly mirrored axis (_mirror_half) and over the whole
        of any other; the mirror image fills the rest, since x^2 = (-x)^2
        holds exactly.  At d = 3 on one nondecreasing squared half axis (every
        Grid, every uniform_axes mesh) the profile takes one r^2 per orbit of
        the coordinate permutations, at the sorted index triples
        (_orbit_triples: C(n + 2, 3) of the n^3 orthant nodes), and
        _fill_orbits spreads them over the orthant; r^2 sums the squares in
        ascending order, so it is the same at every node of an orbit.  No
        (N, d) point array is built, and the result equals
        evaluate(config, tensor_points(axes)) bit for bit.
        """
        axes = self._grid_axes(config, axes)
        halves = [_mirror_half(a) for a in axes]
        with np.errstate(over="ignore"):
            squares = [a[h:] * a[h:] for a, h in zip(axes, halves)]
            s = squares[0]
            orbits = (
                len(squares) == 3
                and all(np.array_equal(t, s) for t in squares[1:])
                and bool(np.all(s[1:] >= s[:-1]))
            )
            if orbits:
                r2 = _radius_squared([s[i] for i in _orbit_triples(len(s))])
            else:  # the outer sum, each axis along its own dimension
                d = len(squares)
                r2 = _radius_squared([t.reshape((1,) * i + (-1,) + (1,) * (d - 1 - i)) for i, t in enumerate(squares)])
        values = self.profile(config, r2)
        out = np.empty(tuple(len(a) for a in axes), dtype=values.dtype)
        orthant_index = tuple(slice(h, None) for h in halves)
        orthant = out[orthant_index]
        if orbits:
            _fill_orbits(orthant, values)
        else:
            orthant[...] = values
        # a[:h] is the mirror image of a[h:], less a centre 0, over the part filled so far;
        # the last axis first, while the reversed copies along it are fewest
        for i in reversed(range(len(axes))):
            h = halves[i]
            if h:
                before, after = orthant_index[:i], (slice(None),) * (len(axes) - 1 - i)
                out[before + (slice(h),) + after] = np.flip(out[before + (slice(len(axes[i]) - h, None),) + after], i)
        return out

    def axis_factors(self, config: MultiplicityConfig, axes: Sequence[np.ndarray]) -> list | None:
        """The Gaussians' factors on each axis, whose outer product is on_axes' value
        up to rounding, since exp(-t |x|^2) = prod_i exp(-t x_i^2): the Gaussian part
        of the profile at the axis squares, with gaussian_density's constant on the
        first axis (gaussian's is 1).  At d = 1 the one factor is on_axes' value bit
        for bit.  None for the other members, which do not factor."""
        if self.kind not in (GAUSSIAN, GAUSSIAN_DENSITY):
            return None
        axes = self._grid_axes(config, axes)
        with np.errstate(over="ignore"):
            factors = [self._decay(a * a) for a in axes]
        factors[0] = self._norm(config) * factors[0]
        return factors

    def _decay(self, r2: np.ndarray) -> np.ndarray:
        """exp(-t r^2) for gaussian(t), exp(-r^2 / 4t) for gaussian_density(t)."""
        return np.exp(-self.param * r2) if self.kind == GAUSSIAN else np.exp(-r2 / (4.0 * self.param))

    def profile(self, config: MultiplicityConfig, r2: np.ndarray) -> np.ndarray:
        """The radial profile at squared radii r2 of any shape: the one body
        behind evaluate (r^2 from points) and on_axes (r^2 from axes)."""
        if self.kind == GAUSSIAN:
            return self._decay(r2)
        if self.kind == GAUSSIAN_DENSITY:
            return self._norm(config) * self._decay(r2)
        if self.kind == GENERALIZED_CAUCHY:
            return (1.0 + r2) ** -self.param
        return self._norm(config) * _bessel_k_profile_values(config, self.param, np.sqrt(r2))


def _bessel_k_profile_values(config: MultiplicityConfig, p: float, r: np.ndarray) -> np.ndarray:
    """r^a K_a(r), a = p - gamma - d/2, elementwise at radii r of any shape:
    the bessel_k_profile(p) values before the constant factor.  Where a >= 1 is
    a multiple of 1/2 up to kernel._LADDER_MAX_KAPPA it is _bessel_k_ladder, else
    r^a times scipy's kv; below r = 1e-6 it is the limit 2^(a-1) Gamma(a), at an
    infinite r (an overflowed r^2) the limit 0."""
    alpha = p - config.gamma - config.dimension / 2.0
    ladder = 1.0 <= alpha <= _LADDER_MAX_KAPPA and (2.0 * alpha).is_integer()
    out = np.empty_like(r)
    with np.errstate(over="ignore", invalid="ignore"):
        out[...] = _bessel_k_ladder(alpha, r) if ladder else r**alpha * sps.kv(alpha, r)
    # r^a K_a(r) -> 2^(a-1) Gamma(a) as r -> 0+, with an O(r^2) correction
    lead = 2.0 ** (alpha - 1.0) * sps.gamma(alpha)
    out[r < 1e-6] = lead
    out[r == np.inf] = 0.0  # r^a K_a(r) -> 0 as r -> inf, where the products are nan
    lost = ~np.isfinite(out)
    if lost.any():  # r^a underflows or K_a(r) overflows (large a, small r): the small-r sum
        out[lost] = lead * _small_radius_sum(alpha, r[lost])
    return out


def _bessel_k_ladder(alpha: float, r: np.ndarray) -> np.ndarray:
    """r^a K_a(r) at a >= 1 a multiple of 1/2, by the upward recurrence
    K_{v+1} = K_{v-1} + (2v/r) K_v (DLMF 10.29.1), stable since K_v grows with v.
    It is carried on g_v = r^v K_v as g_{v+1} = 2v g_v + r^2 g_{v-1}: positive
    terms, and no power of r.  It starts from K_0 and r K_1 at integer a, else
    from sqrt(r) K_{1/2} = sqrt(pi/2) e^-r and r^(3/2) K_{3/2} = sqrt(pi/2) e^-r (1 + r)
    (DLMF 10.39.2)."""
    if alpha.is_integer():
        lo, hi = sps.k0(r), r * sps.k1(r)
        order = 1.0
    else:
        lo = math.sqrt(math.pi / 2.0) * np.exp(-r)
        hi = lo * (1.0 + r)
        order = 1.5
    r2 = r * r
    while order < alpha - 0.25:
        lo, hi = hi, 2.0 * order * hi + r2 * lo
        order += 1.0
    return hi


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


def _radius_squared(squares: Sequence[np.ndarray]) -> np.ndarray:
    """|x|^2 from its coordinate squares, arrays that broadcast together, summed in
    ascending order at every point: the one r^2 of the catalog handles.  Any order of
    the coordinates gives the same bits.  At d <= 2 that is the plain sum, since a + b
    == b + a exactly; at d = 3 a sorting network picks the two smaller squares first."""
    if len(squares) < 3:
        return functools.reduce(np.add, squares)
    a, b, c = squares
    low, high = np.minimum(a, b), np.maximum(a, b)
    total = np.minimum(high, c)
    total += low
    total += np.maximum(high, c)
    return total


def _orbit_triples(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The index triples i <= j <= k < n, one per orbit of the coordinate permutations
    on an n^3 grid, ordered by k, then j, then i: (i, j, k) is entry
    k(k+1)(k+2)/6 + j(j+1)/2 + i of the C(n + 2, 3)."""
    counts = np.arange(1, n + 1)
    k = np.repeat(np.arange(n), counts * (counts + 1) // 2)
    j, i = np.tril_indices(n)  # the pairs i <= j, by j, then i: (i, j) is entry j(j+1)/2 + i
    pair = np.arange(len(k)) - k * (k + 1) * (k + 2) // 6
    return i[pair], j[pair], k


def _fill_orbits(out: np.ndarray, values: np.ndarray) -> None:
    """Write values, one per sorted index triple (_orbit_triples' order), to every node
    of the n^3 array out, shell by shell: the nodes whose largest index is k form three
    faces, out[k, :k+1, :k+1] and its two permutations, each the symmetric matrix of
    block k of values, its entry (p, q) at position max(p, q)(max(p, q)+1)/2 + min(p, q)."""
    n = len(out)
    a = np.arange(n)
    high = np.maximum.outer(a, a)
    pair = high * (high + 1) // 2 + np.minimum.outer(a, a)
    for k in range(n):
        face = values[k * (k + 1) * (k + 2) // 6 :][pair[: k + 1, : k + 1]]
        out[k, : k + 1, : k + 1] = face
        out[: k + 1, k, : k + 1] = face
        out[: k + 1, : k + 1, k] = face


def gaussian(t: float) -> CatalogFunction:
    return CatalogFunction(GAUSSIAN, t)


def gaussian_density(t: float) -> CatalogFunction:
    return CatalogFunction(GAUSSIAN_DENSITY, t)


def generalized_cauchy(p: float) -> CatalogFunction:
    return CatalogFunction(GENERALIZED_CAUCHY, p)


def bessel_k_profile(p: float) -> CatalogFunction:
    return CatalogFunction(BESSEL_K_PROFILE, p)


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
        axes = tuple(_real_points(a, "on a grid axis") for a in self.axes)
        increasing = lambda a: a.ndim == 1 and len(a) > 1 and np.all(np.isfinite(a)) and np.all(np.diff(a) > 0)
        if not axes or not all(map(increasing, axes)):
            raise InputError("a sampled function needs axes, each finite and strictly increasing with >= 2 nodes")
        try:
            vals = np.asarray(self.values, dtype=complex)
        except (TypeError, ValueError) as exc:
            raise InputError(f"sampled values must be numbers: {exc}") from None
        shape = tuple(len(a) for a in axes)
        if vals.shape != shape:
            raise InputError(f"values shape {vals.shape} does not match grid shape {shape}")
        if not np.all(np.isfinite(vals)):
            raise InputError("sampled values must be finite (found nan or inf)")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "values", vals)

    @property
    def dimension(self) -> int:
        return len(self.axes)

    def evaluate(self, config: MultiplicityConfig, points: np.ndarray) -> np.ndarray:
        if config.dimension != self.dimension:
            raise InputError(f"sampled function has dimension {self.dimension}, config {config.dimension}")
        pts, squeeze = _query_points(config, points)
        out = _multilinear(self.axes, self.values, pts)
        return out[0] if squeeze else out

    @property
    def nonnegative(self) -> bool:
        """Whether the values are real and nonnegative, to 1e-12 of their largest magnitude."""
        excess, scale = _sign_excess(self.values)
        return excess <= 1e-12 * scale


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
    itself a plain (N, d) callable: every density of the package.  on_axes
    samples each factor on its own route, with the product's config, and
    multiplies the grids in the factor order, the order of the call;
    axis_factors does the same axis by axis.
    """

    config: MultiplicityConfig
    factors: tuple

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(_real_points(points, f"in R^{self.config.dimension}"))
        return functools.reduce(operator.mul, (evaluate_handle(self.config, f, pts) for f in self.factors))

    def on_axes(self, config: MultiplicityConfig, axes: Sequence[np.ndarray]) -> np.ndarray:
        return functools.reduce(operator.mul, (sample_grid(self.config, f, axes) for f in self.factors))

    def axis_factors(self, config: MultiplicityConfig, axes: Sequence[np.ndarray]) -> list | None:
        """On each axis the product of the factors' axis factors, in the factor order,
        when every factor answers; else None."""
        each = [sample_factors(self.config, f, axes) for f in self.factors]
        if any(factors is None for factors in each):
            return None
        return [functools.reduce(operator.mul, column) for column in zip(*each)]

    @property
    def even(self) -> bool:
        return all(even_by_construction(f) for f in self.factors)


def even_by_construction(fn) -> bool:
    """Whether fn is even in every coordinate by construction, whatever its values: its
    `even` answer.  Sampled handles and raw callables answer nothing: no sample is scanned."""
    return getattr(fn, "even", False) is True


def evaluate_handle(config: MultiplicityConfig, fn, points: np.ndarray) -> np.ndarray:
    """fn at points: its `evaluate` answer (catalog and sampled handles), else fn called
    on the (N, d) array, a raw callable or a DensityProduct, which must return shape (N,)."""
    evaluate = getattr(fn, "evaluate", None)
    if evaluate is not None:
        return np.asarray(evaluate(config, points))
    if not callable(fn):
        raise InputError(f"not a function handle: {type(fn).__name__}")
    pts = np.atleast_2d(_real_points(points, f"in R^{config.dimension}"))
    out = np.asarray(fn(pts))
    if out.dtype.kind not in "biufc":
        raise InputError(f"a callable must return numbers, got {out.dtype} values")
    if out.shape != (len(pts),):
        raise InputError(f"a callable at points of shape {pts.shape} must return shape {(len(pts),)}, got {out.shape}")
    return out


def sample_grid(config: MultiplicityConfig, fn, axes: Sequence[np.ndarray]) -> np.ndarray:
    """fn on every node of the tensor grid over `axes`, shaped as the grid: its `on_axes`
    answer (catalog handles, with no (N, d) point array; a DensityProduct), else fn at
    tensor_points of the axes through _query_axes.  Every route gives the points route's
    values bit for bit."""
    on_axes = getattr(fn, "on_axes", None)
    if on_axes is not None:
        return on_axes(config, axes)
    axes = _query_axes(config, axes)
    return evaluate_handle(config, fn, tensor_points(axes)).reshape(tuple(len(a) for a in axes))


def sample_factors(config: MultiplicityConfig, fn, axes: Sequence[np.ndarray]) -> list | None:
    """fn's per-axis factors on `axes`, one array per axis whose outer product is fn on the
    tensor grid: its `axis_factors` answer, or None when it gives none (a handle that does
    not factor, a raw callable, a sampled handle)."""
    axis_factors = getattr(fn, "axis_factors", None)
    return None if axis_factors is None else axis_factors(config, axes)


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
    The rows behind one value of the first axis are the nodes of the later
    axes, so the points are checked in slabs of the first axis against one
    template, in contiguous passes over as many slabs as fit in _CHECK_ROWS
    rows (one slab of a 96^3 grid, 128 of a 128^2 one).
    """
    if len(points) == 0:
        return None
    axes = ()
    for col in points.T[::-1]:
        head = col[:: math.prod(len(a) for a in axes)]
        falls = np.flatnonzero(~(head[1:] > head[:-1]))
        axes = (head[: falls[0] + 1 if falls.size else len(head)].copy(),) + axes
    if math.prod(len(a) for a in axes) != len(points):
        return None
    slabs = points.reshape(len(axes[0]), -1, len(axes))
    template = np.empty((max(1, _CHECK_ROWS // slabs.shape[1]),) + slabs.shape[1:], dtype=points.dtype)
    if len(axes) > 1:
        template[..., 1:] = tensor_points(axes[1:])
    for j in range(0, len(slabs), len(template)):
        block = slabs[j : j + len(template)]
        expected = template[: len(block)]
        expected[..., 0] = axes[0][j : j + len(block), None]
        if not np.array_equal(block, expected):
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
    axes = _query_axes(config, axes)
    return SampledFunction(axes, sample_grid(config, fn, axes))


def uniform_axes(dimension: int, extent: float, count: int) -> tuple[np.ndarray, ...]:
    if isinstance(dimension, bool) or not (isinstance(dimension, (int, np.integer)) and dimension >= 1):
        raise InputError(f"grid dimension must be a whole number >= 1, got {dimension!r}")
    if not (isinstance(count, (int, float, np.integer, np.floating)) and float(count).is_integer() and count >= 2):
        raise InputError(f"need a whole number of at least 2 nodes per axis, got {count!r}")
    if not _in_range(extent, 0.0, math.inf):
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
    flat = fn.values.reshape(-1)
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
