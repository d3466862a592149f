"""Positive definiteness certification for the weighted translation calculus.

A function phi is positive definite here when every Gram matrix of its
translates [translate of phi by x_j, evaluated at x_l] generates a
nonnegative quadratic form; it is strictly positive definite when the form
is positive for nonzero coefficients.  translation._translate_at computes
that matrix of translates and the heat-smoothed form; bound_check contracts
only its diagonal, over the density's Grid.summand (folded for an even
phi, and a product of per-axis sums when the density factors over the
axes, as a Gaussian's does).  The certifier leans on the transform side:
the Gram form equals the weighted integral of |sum_j a_j E(-i x_j, xi)|^2
times the transform of phi, so a nonnegative transform certifies positive
definiteness, and a nonnegative transform that is not identically zero
certifies strictness (the phase functions attached to distinct points are
linearly independent).

bochner_certify and strict_pd_certify read one sample of the transform on
the certification mesh (_certificate): the strict certificate takes its
peak from the samples behind the nonnegativity report, and holds none of
them through its one Gram matrix, on the 8 builtin points.  The smaller
builtin sets are the first points of that one, so their Gram matrices are
its leading principal blocks, and Cauchy interlacing bounds their smallest
eigenvalues below by its own.

Also here: the heat kernel generated by the Gaussian catalog pair, the
heat-smoothed quadratic form that converges to the Gram form, and the
weighted-mass identity for the Matern-type profile, integrated by
quadrature.integrate_with_check on the catalog handle, whose summand
folds.  The certificates' mesh and heat_kernel_mass's node floor are
entries of quadrature._RESOLUTION.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sps

from .errors import DomainError, InputError
from .functions import (
    DensityProduct,
    bessel_k_profile,
    evaluate_handle,
    gaussian,
    sample_grid,
    tensor_axes,
    uniform_axes,
)
from .kernel import _real_1d_scaled
from .quadrature import _RESOLUTION, Grid, QuadratureSpec, integrate_with_check, two_pass
from .reports import GramReport, IdentityReport, _sign_excess
from .root_system import MultiplicityConfig, _in_range, _query_points, _real_points
from .transform import (
    FORWARD,
    INVERSE,
    _axis_matrices,
    _checked,
    _resolve_spec,
    _scatter_contract,
    forward_grid,
    spectral_density,
    tabulated_density,
)
from .translation import _translate_at

_MIN_SEPARATION = 1e-9


def _require_time(t, what: str) -> None:
    """The one time check: DomainError unless t is a real number in (0, inf), not a bool."""
    if not _in_range(t, 0, math.inf):
        raise DomainError(f"{what} must be positive and finite, got {t}")


def _pairwise_min_separation(points: np.ndarray) -> float:
    n = len(points)
    if n < 2:
        return float("inf")
    diffs = points[:, None, :] - points[None, :, :]
    dist = np.sqrt(np.sum(diffs * diffs, axis=-1))
    return float(np.min(dist[~np.eye(n, dtype=bool)]))


@dataclass(frozen=True)
class PointSet:
    points: np.ndarray
    coefficients: np.ndarray | None = None

    def __post_init__(self):
        pts = np.atleast_2d(_real_points(self.points, "as an (n, d) array"))
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise InputError(f"points must form an (n, d) array, got shape {np.shape(self.points)}")
        if not np.all(np.isfinite(pts)):
            raise InputError("points must be finite")
        if _pairwise_min_separation(pts) <= _MIN_SEPARATION:
            raise InputError(f"points must be pairwise distinct (separation > {_MIN_SEPARATION})")
        object.__setattr__(self, "points", pts)
        if self.coefficients is not None:
            try:
                coef = np.asarray(self.coefficients, dtype=complex).reshape(-1)
            except (TypeError, ValueError) as exc:
                raise InputError(f"coefficients must be numbers: {exc}") from None
            if coef.shape[0] != pts.shape[0]:
                raise InputError(f"{coef.shape[0]} coefficients for {pts.shape[0]} points")
            if not np.all(np.isfinite(coef)):
                raise InputError("coefficients must be finite")
            if np.max(np.abs(coef)) == 0.0:
                raise InputError("coefficients must not all vanish")
            object.__setattr__(self, "coefficients", coef)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]


def builtin_points(dimension: int, n: int, coefficients=None) -> PointSet:
    """n points with magnitudes 0, +-0.7, +-1.9, +-3.1, ... on the diagonal.

    The irrational-looking 1.2 gap avoids accidental lattice degeneracies;
    in d > 1 each point sits at s/sqrt(d) in every coordinate so pairwise
    distances match the d = 1 layout.
    """
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= 1 for v in (dimension, n)):
        raise InputError(f"dimension and point count must be whole numbers >= 1, got {dimension!r} and {n!r}")
    mags = [0.0]
    k = 0
    while len(mags) < n:
        s = 0.7 + 1.2 * k
        mags.extend([s, -s])
        k += 1
    mags = np.asarray(mags[:n])
    pts = np.repeat(mags[:, None], dimension, axis=1) / math.sqrt(dimension)
    return PointSet(pts, coefficients)


def _gram_on(grid, density, xs: np.ndarray) -> np.ndarray:
    """Matrix of translates [tau_{x_j} phi (x_l)] on grid, phi given by its transform."""
    return _translate_at(grid, grid.summand(density), xs, xs)


def _gram_from_density(config, spec, density, xs) -> GramReport:
    matrix, delta = two_pass(lambda grid: _gram_on(grid, density, xs), config, spec)
    return GramReport.from_matrix(matrix, quadrature_delta=delta)


def gram(config: MultiplicityConfig, quad: QuadratureSpec | None, phi, pts: PointSet) -> GramReport:
    """Gram matrix of translates of phi on the point set, with verdicts."""
    xs, _ = _query_points(config, pts.points)
    spec = _resolve_spec(config, quad)
    return _gram_from_density(config, spec, spectral_density(config, spec, phi), xs)


def quadratic_form(config: MultiplicityConfig, quad: QuadratureSpec | None, phi, pts: PointSet):
    """sum_jl a_j conj(a_l) G_jl straight from the Gram matrix."""
    if pts.coefficients is None:
        raise InputError("point set carries no coefficients")
    report = gram(config, quad, phi, pts)
    a = pts.coefficients
    return complex(a.conj() @ report.matrix @ a)


def _certification_axes(config: MultiplicityConfig, spec: QuadratureSpec) -> tuple[np.ndarray, ...]:
    """Axes of the uniform mesh on which the certificates sample the transform."""
    extent, count = _RESOLUTION["certification_mesh"][config.dimension]
    return uniform_axes(config.dimension, min(extent, spec.radius), count)


def bochner_forward(config: MultiplicityConfig, quad: QuadratureSpec | None, psi):
    """Transform of a nonnegative function; the result is certified PD.

    A handle's `partner` answer (catalog inputs) is the result; anything else
    is sampled through one numerical transform and carries the exact spectral
    hint (the transform of the result re-evaluates psi with flipped sign).
    """
    spec = _resolve_spec(config, quad)
    excess, scale = _sign_excess(Grid(config, spec).sample(psi))
    if excess > 1e-12 * scale:
        raise InputError(f"real nonnegative input required; it is off by {excess:.3e} at scale {scale:.3e}")
    partner = getattr(psi, "partner", None)
    return partner(config) if partner is not None else forward_grid(config, spec, psi)


def _certificate(config: MultiplicityConfig, spec: QuadratureSpec, phi) -> tuple[IdentityReport, float]:
    """bochner_certify's report, and the peak |transform| over the certification mesh it sampled."""
    density = spectral_density(config, spec, phi)
    axes = _certification_axes(config, spec)
    psi = np.asarray(sample_grid(config, density, axes), dtype=complex).reshape(-1)
    excess, scale = _sign_excess(psi)
    k = int(np.argmin(psi.real))
    at = [float(a[j]) for a, j in zip(axes, np.unravel_index(k, tuple(len(a) for a in axes)))]
    return IdentityReport.bound(
        "transform_nonnegativity",
        excess,
        1e-8 * scale,
        notes=(
            f"transform minimum {psi.real[k]:.6e} at xi={at}, "
            f"maximum {float(np.max(psi.real)):.6e}, max |imag| {float(np.max(np.abs(psi.imag))):.3e}"
        ),
    ), scale


def bochner_certify(config: MultiplicityConfig, quad: QuadratureSpec | None, phi) -> IdentityReport:
    """PD certificate: the transform must be real and nonnegative on a grid.

    computed is the worst violation (negative dip or imaginary residue);
    the location of the minimum goes into the notes so failures are
    actionable.
    """
    return _certificate(config, _resolve_spec(config, quad), phi)[0]


def bound_check(config: MultiplicityConfig, quad: QuadratureSpec | None, phi, xs) -> IdentityReport:
    """|phi(x)| <= phi(0) and 0 <= tau_x phi(x) <= phi(0) at every probe, to 1e-8 |phi(0)|,
    so the verdict does not change when phi is rescaled.  The translate diagonal sums
    c vw[k] prod_i |E(i x_i, xi_k)|^2, even in xi, over the (maybe folded) Grid.summand."""
    spec = _resolve_spec(config, quad)
    pts, _ = _query_points(config, xs)
    if len(pts) == 0:
        raise InputError("bound_check needs at least one probe point")
    phi0 = float(np.real(evaluate_handle(config, phi, np.zeros((1, config.dimension)))[0]))
    vals = np.abs(np.asarray(evaluate_handle(config, phi, pts), dtype=complex))
    density = spectral_density(config, spec, phi)

    def run(grid):
        summand = grid.summand(density)
        mats = _axis_matrices(config, pts.T, summand.axes, INVERSE)
        return config.mehta * summand.contract([(m.conj() * m).real for m in mats], _scatter_contract)

    diag, delta = two_pass(run, config, spec)
    diag_re = diag.real
    worst = np.max([np.max(vals - phi0), np.max(-diag_re), np.max(diag_re - phi0), np.max(np.abs(diag.imag))])
    return IdentityReport.bound(
        "translate_bounds",
        float(worst),
        1e-8 * abs(phi0),
        notes=(
            f"phi(0)={phi0:.6f}, max |phi|={float(np.max(vals)):.6f}, "
            f"diagonal range [{float(np.min(diag_re)):.3e}, {float(np.max(diag_re)):.6f}], "
            f"resolution delta {delta:.3e}"
        ),
    )


def closure_suite(config: MultiplicityConfig, quad: QuadratureSpec | None, phi1, phi2) -> list:
    """PSD reports for the convolution and (radial case, both handles answer `profile`) the product."""
    if getattr(phi1, "profile", None) is None or getattr(phi2, "profile", None) is None:
        raise DomainError("product closure is established for radial profiles; need catalog inputs")
    spec = _resolve_spec(config, quad)
    pts = builtin_points(config.dimension, 5)
    rho1 = spectral_density(config, spec, phi1)
    rho2 = spectral_density(config, spec, phi2)

    conv = _gram_from_density(config, spec, DensityProduct(config, (rho1, rho2)), pts.points)
    reports = [conv.psd_report("convolution_closure_gram_psd", "5 builtin points")]

    product = DensityProduct(config, (phi1, phi2))
    fwd = QuadratureSpec(spec.radius, max(spec.nodes_per_axis, 64))
    # nested on purpose: the Gram delta sets the PSD tolerance (delta * n), and a
    # joint delta of both legs would widen it (8.9e-9 -> 1.6e-4 at d=3)
    prod_density = tabulated_density(config, fwd, product)
    prod = _gram_from_density(config, spec, prod_density, pts.points)
    reports.append(prod.psd_report("product_closure_gram_psd", "5 builtin points"))
    return reports


def quadratic_form_heat(
    config: MultiplicityConfig,
    quad: QuadratureSpec | None,
    phi,
    pts: PointSet,
    t: float,
):
    """Heat-smoothed quadratic form, converging to the Gram form as t -> 0.

    Value: c int |sum_j a_j E(-i x_j, xi)|^2 (transform of phi)(xi)
    exp(-2 t |xi|^2) h^2 dxi.  At t = 0 the damping factor is 1 and the
    integral is exactly the Gram quadratic form.
    """
    _require_time(t, "smoothing time")
    if pts.coefficients is None:
        raise InputError("point set carries no coefficients")
    xs, _ = _query_points(config, pts.points)
    spec = _resolve_spec(config, quad)
    density = spectral_density(config, spec, phi)
    damped = DensityProduct(config, (density, gaussian(2.0 * t)))
    a = pts.coefficients

    run = lambda grid: complex(a.conj() @ _gram_on(grid, damped, xs) @ a)
    return _checked("heat-smoothed form", run, config, spec)


def heat_kernel(config: MultiplicityConfig, t: float, x, y):
    """Heat kernel c (2t)^-(gamma+d/2) e^(-(|x|^2+|y|^2)/4t) E(x/sqrt(2t), y/sqrt(2t)).

    Evaluated per axis in exponentially rescaled form, so large |x y| / t
    never overflows: the Gaussian factor combines with the kernel's leading
    growth into exp(-(|x_i| - |y_i|)^2 / 4t) exactly.  Nonnegative and
    symmetric in (x, y); with zero multiplicities it reduces to the
    classical heat kernel at machine precision.  A t so small that the
    prefactor overflows raises DomainError.

    One point (one row, or one row repeated as by np.broadcast_to) against
    the C-ordered nodes of a tensor grid (functions.tensor_axes), in either
    argument order, builds each axis factor on the axis alone and joins the
    factors by outer products, with the same values bit for bit.  A side at
    row stride 0 (one row broadcast, or np.broadcast_to) is one point without
    reading its rows, and is tried first, so past the point check the nodes
    are read once, by tensor_axes, in contiguous passes over whole slabs of
    the first axis; a repeated array in memory (np.repeat) is compared row by
    row.  Other pairs are evaluated pair by pair.
    """
    _require_time(t, "time")
    xp, x_single = _query_points(config, x)
    yp, y_single = _query_points(config, y)
    if len(xp) != len(yp) and 1 not in (len(xp), len(yp)):
        raise InputError(f"{len(xp)} points x against {len(yp)} points y; lengths must match or one be 1")
    squeeze = x_single and y_single
    xp, yp = np.broadcast_arrays(xp, yp)
    for point, nodes in sorted(((xp, yp), (yp, xp)), key=lambda pair: pair[0].strides[0] != 0):
        if len(nodes) > 1 and (point.strides[0] == 0 or np.all(point == point[0])):
            axes = tensor_axes(nodes)
            if axes is not None:
                return _heat_product(config, t, point[0], axes, np.multiply.outer).reshape(-1)
    out = _heat_product(config, t, xp.T, yp.T, np.multiply)
    return float(out[0]) if squeeze else out


def _heat_product(config: MultiplicityConfig, t, xs, ys, join) -> np.ndarray:
    """The heat kernel as the product over axes i of its factors at xs[i], ys[i].

    Axis i contributes exp(-(|x| - |y|)^2 / 4t) and exp(-|z|) E_k(x, y) at
    z = x y / 2t, both symmetric in (x, y) bit for bit.  join is np.multiply
    for pairs of points (xs, ys = xp.T, yp.T) and np.multiply.outer for one
    point xs against the tensor grid over the axes ys, whose factors are
    then built on the n_i axis values alone.  Either way every value is
    multiplied in the order ((out * e_i) * s_i), so the grid equals the
    pair-by-pair values bit for bit.  On the pair route t may hold one time per
    pair, each prefactor taken in Python floats as for one t (numpy's power
    can differ by an ulp), so each value is heat_kernel's at its t bit for bit.
    """
    power = -(config.gamma + config.dimension / 2.0)
    try:
        out = np.reshape([config.mehta * (2.0 * tv) ** power for tv in np.ravel(t).tolist()], np.shape(t))
    except OverflowError:  # at the smallest t, since the power is negative
        raise DomainError(f"heat kernel prefactor c (2t)^-(gamma+d/2) overflows at t = {np.min(t)}") from None
    for kappa, x, y in zip(config.kappa, xs, ys):
        z = x * y / (2.0 * t)
        gap = (np.abs(x) - np.abs(y)) ** 2 / (4.0 * t)
        out = join(out, np.exp(-gap)) * _real_1d_scaled(kappa, z)
    return out


def heat_kernel_mass(config: MultiplicityConfig, quad: QuadratureSpec | None, t: float, x) -> IdentityReport:
    """int heat_kernel(t, x, y) h^2(y) dy = 1, on a box wide enough for t."""
    _require_time(t, "time")
    spec = _resolve_spec(config, quad)
    pts = _query_points(config, x)[0]
    if len(pts) != 1:
        raise InputError(f"heat_kernel_mass takes one point in R^{config.dimension}, got {len(pts)}")
    x0 = pts[0]
    need = float(np.max(np.abs(x0))) + math.sqrt(4.0 * t * 46.0)
    floor = _RESOLUTION["heat_mass_nodes"][config.dimension]
    spread = QuadratureSpec(max(spec.radius, need), max(spec.nodes_per_axis, floor))

    run = lambda grid: grid.integrate(_heat_product(config, t, x0, grid.axes, np.multiply.outer))
    mass, delta = two_pass(run, config, spread)
    alt = 2.0 ** -(config.gamma + config.dimension / 2.0)
    return IdentityReport(
        identity_name="heat_kernel_weighted_mass",
        expected=1.0,
        computed=mass,
        tolerance=1e-6,
        notes=(
            f"t={t}, x={x0.tolist()}, resolution delta {delta:.3e}; "
            f"alternate (4t)-power prefactor would give mass {alt:.6f} (non-matching, kept for reference)"
        ),
    )


def bessel_integral_identity(config: MultiplicityConfig, quad: QuadratureSpec | None, p: float) -> IdentityReport:
    """Weighted mass of the unnormalized Matern profile |x|^a K_a(|x|).

    Compares the quadrature value against the two candidate closed forms
    Gamma(p) 2^(p-1) / c (matching) and Gamma(p) / (c 2^(p-1)) (printed
    elsewhere; off by 2^-(2p-2) and recorded as non-matching in the notes).
    """
    edge = config.gamma + config.dimension / 2.0 + 1.0
    if not _in_range(p, edge, math.inf, closed=True):
        raise DomainError(f"need a finite real p >= {edge}, got {p!r}")
    spec = _resolve_spec(config, quad)
    norm = sps.gamma(p) * 2.0 ** (p - 1.0)
    mass, delta = integrate_with_check(config, spec, bessel_k_profile(p))  # the handle: its summand folds
    oracle = norm / config.mehta
    alternate = sps.gamma(p) / (config.mehta * 2.0 ** (p - 1.0))
    return IdentityReport(
        identity_name="radial_bessel_profile_weighted_mass",
        expected=oracle,
        computed=norm * mass,
        tolerance=1e-5,
        notes=(
            f"p={p}; resolution delta {norm * delta:.3e}; "
            f"alternate constant {alternate:.9e} deviates by factor {alternate / oracle:.3e} (non-matching)"
        ),
    )


def kernel_independence(
    config: MultiplicityConfig,
    xs,
    xis,
    *,
    enforce_distinct: bool = True,
) -> float:
    """Smallest singular value of [E(-i x_j, xi_m)]; positive certifies
    linear independence of the point phases on the probe set."""
    xpts, _ = _query_points(config, xs)
    probes, _ = _query_points(config, xis)
    if len(xpts) == 0:
        raise InputError("need at least one point")
    if probes.shape[0] < xpts.shape[0]:
        raise InputError("need at least as many probes as points")
    if enforce_distinct and _pairwise_min_separation(xpts) <= _MIN_SEPARATION:
        raise InputError("points must be pairwise distinct")
    matrix = np.prod(_axis_matrices(config, xpts.T, probes.T, FORWARD), axis=0)
    return float(np.linalg.svd(matrix, compute_uv=False)[-1])


def strict_pd_certify(config: MultiplicityConfig, quad: QuadratureSpec | None, phi) -> IdentityReport:
    """Strict-PD certificate: nonnegative transform + transform not
    identically zero; the Gram matrix on the 8 builtin points rides along as
    a consistency probe, never as the certificate's basis.  It covers the
    builtin sets of 3 and 5 points, which are its leading principal blocks."""
    spec = _resolve_spec(config, quad)
    cert, peak = _certificate(config, spec, phi)
    if not cert.passed:
        raise InputError(f"not certified positive definite: {cert.notes}")
    phi0 = abs(complex(np.asarray(evaluate_handle(config, phi, np.zeros((1, config.dimension)))).reshape(-1)[0]))
    if peak <= 1e-10 * phi0:
        raise InputError("transform is numerically zero; nonzero function required")

    # builtin_points(d, n) is the first n of builtin_points(d, 8), so by Cauchy
    # interlacing the n = 8 matrix has the lowest floor and the largest
    # tolerance max(1e-8 lambda_max, n delta) of every smaller builtin set
    rep = gram(config, spec, phi, builtin_points(config.dimension, 8))
    return IdentityReport.bound(
        "strict_positive_definiteness_certificate",
        -rep.min_eigenvalue,
        rep.tolerance,
        notes=(
            f"transform nonnegative (min report: {cert.notes}); peak {peak:.6e}; "
            f"gram eigenvalue range n=8: [{rep.min_eigenvalue:.3e}, {rep.max_eigenvalue:.3e}]"
        ),
    )
