"""Machine-checkable identity suites over the whole calculus.

Each suite returns IdentityReport records; run_suites dispatches by name
(kernel, transform, translation, posdef, heat, all).  Reports that compare
a whole family of points are built by _compare, which reports the worst
pair; the sweep size goes into the notes.  Inequalities (bounds,
nonnegativity, symmetry residues) are built by IdentityReport.bound from
their excess.  round_trips defines the inversion round trips once, for
suite_transform and scripts/round_trip_report.py alike.  A composite (the
round trips, the double transform, the product rule) is one _checked call
over both legs' specs, the outer _transformer sampling the inner one, so it
has one delta and warns at most once, by name.  Identities whose
honest evaluation needs nested quadratures are gated to the dimensions
where they complete in reasonable time; the gates are noted here, not
silently applied.  Every suite runs on default_spec(d) and the boxes of
quadrature._RESOLUTION; none takes a quadrature argument.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .errors import InputError
from .functions import (
    DensityProduct,
    bessel_k_profile,
    evaluate_handle,
    gaussian,
    gaussian_density,
    generalized_cauchy,
    sample_on_axes,
    tensor_points,
    uniform_axes,
)
from .kernel import _kernel_pairs, dunkl_operator_1d, kernel_1d, kernel_nd, kernel_real_nd
from .posdef import (
    _heat_product,
    bessel_integral_identity,
    bochner_certify,
    bound_check,
    builtin_points,
    closure_suite,
    gram,
    heat_kernel,
    heat_kernel_mass,
    kernel_independence,
    quadratic_form_heat,
    strict_pd_certify,
)
from .quadrature import _RESOLUTION, Grid, QuadratureSpec, default_spec
from .reports import IdentityReport
from .root_system import MultiplicityConfig, make_config
from .transform import (
    FORWARD,
    INVERSE,
    _axis_matrices,
    _checked,
    _grid_contract,
    _transformer,
    forward,
    plancherel_duality,
    spectral_density,
    weighted_norm,
)
from .translation import _translate_at, convolve, convolve_direct, convolve_grid, translate, translate_mass

SUITE_NAMES = ("kernel", "transform", "translation", "posdef", "heat")


def cauchy_exponent(config: MultiplicityConfig) -> float:
    """Exponent giving the generalized Cauchy profile enough spectral decay
    for round trips at the default quadrature box."""
    if (config.dimension, tuple(config.kappa)) == (1, (0.5,)):
        return 5.0
    return float(math.ceil(config.gamma + config.dimension / 2.0 + 3.0))


def _diag(config: MultiplicityConfig, mag: float) -> np.ndarray:
    return np.full(config.dimension, mag / math.sqrt(config.dimension))


def _diag_points(config: MultiplicityConfig, mags) -> np.ndarray:
    return np.stack([_diag(config, m) for m in mags])


def _compare(name, expected, computed, tolerance, notes="", relative=True) -> IdentityReport:
    """Report on the worst (expected, computed) pair of a family: the argmax
    of the error, relative with |expected| floored at 1e-30 unless
    relative=False, the first index on ties."""
    e = np.asarray(expected, dtype=complex).reshape(-1)
    c = np.asarray(computed, dtype=complex).reshape(-1)
    err = np.abs(c - e)
    if relative:
        err = err / np.maximum(np.abs(e), 1e-30)
    k = int(np.argmax(err))
    return IdentityReport(name, complex(e[k]), complex(c[k]), tolerance, notes=notes)


def _is_classical(config: MultiplicityConfig) -> bool:
    return all(k == 0.0 for k in config.kappa)


# ---------------------------------------------------------------- kernel


def suite_kernel(config: MultiplicityConfig) -> list:
    spec = default_spec(config.dimension)
    d = config.dimension
    reports = []
    rng = np.random.default_rng(7)
    xs = rng.uniform(-3, 3, size=(40, d))
    ys = rng.uniform(-3, 3, size=(40, d))
    kern = lambda a, b: _kernel_pairs(config, a, b)
    worst = lambda v: float(np.max(np.abs(v)))

    sym = worst(kern(xs, ys) - kern(ys, xs))
    reports.append(IdentityReport.bound("kernel_argument_symmetry", sym, 1e-12, notes="40 random pairs"))

    lam = 1.7
    x20, y20 = xs[:20], ys[:20]
    scale_err = worst(kern(lam * x20, y20) - kern(x20, lam * y20))
    reports.append(IdentityReport.bound("kernel_scaling_symmetry", scale_err, 1e-12, notes="scale 1.7, 20 pairs"))

    conj_err = worst(np.conj(kern(x20, y20)) - kern(x20, -y20))
    reports.append(IdentityReport.bound("kernel_conjugation_rule", conj_err, 1e-12, notes="20 pairs"))

    big = rng.uniform(-4, 4, size=(500, 2, d))
    top = worst(kern(big[:, 0], big[:, 1]))
    notes = f"max modulus {top:.12f} over 500 pairs"
    reports.append(IdentityReport.bound("kernel_modulus_bound", top - 1.0, 1e-12, notes=notes))

    reports.append(
        IdentityReport(
            "kernel_value_at_origin",
            1.0,
            kernel_nd(config, xs[0], np.zeros(d)),
            1e-14,
        )
    )

    kap = config.kappa[0]
    z = 1e-5
    near = kernel_1d(kap, 1.0, z)
    first_order = 1.0 - 1j * z / (2.0 * kap + 1.0)
    reports.append(
        IdentityReport(
            "kernel_small_argument_continuity",
            first_order,
            near,
            1e-8,
            notes="first-order expansion at |xy| = 1e-5",
        )
    )

    worst_eig = 0.0
    xv, yv = tensor_points(([-1.1, -0.3, 0.3, 1.1], [0.5, 2.0])).T
    for kv in (0.0, 0.5, 1.0, 2.0):
        fn = lambda s, _c=make_config(1, [kv]): _kernel_pairs(_c, s[:, None], yv[:, None])
        lhs = dunkl_operator_1d(kv, fn, xv)
        rhs = -1j * yv * fn(xv)
        worst_eig = max(worst_eig, float(np.max(np.abs(lhs - rhs))))
    notes = "multiplicities {0, 1/2, 1, 2}, 8 evaluation points"
    reports.append(IdentityReport.bound("kernel_operator_eigen_relation", worst_eig, 1e-6, notes=notes))

    pairs = [
        (_diag(config, 0.5), _diag(config, 1.3)),
        (_diag(config, 1.1), _diag(config, 1.7)),
        (_diag(config, 2.0), _diag(config, 0.9)),
    ]
    if d > 1:
        u = np.zeros(d)
        u[0] = 1.5
        v = np.zeros(d)
        v[-1] = 1.2
        pairs.append((u, v))
    lhss, rhss, growth_excess = [], [], 0.0
    grid = Grid(config, spec.doubled())
    summand = grid.summand(gaussian(0.5))
    for u, v in pairs:
        # c int E(-iu, xi) E(-iv, xi) e^(-|xi|^2/2) h^2 dxi is the translate by u at -v
        lhss.append(complex(_translate_at(grid, summand, u[None], -v[None])[0, 0]))
        ev = kernel_real_nd(config, u, -v)
        rhss.append(math.exp(-0.5 * (u @ u + v @ v)) * ev)
        bound = math.exp(np.linalg.norm(u) * np.linalg.norm(v))
        growth_excess = max(growth_excess, kernel_real_nd(config, u, v) - bound)
    notes = f"{len(pairs)} argument pairs, worst case reported"
    reports.append(_compare("kernel_gaussian_pairing_formula", rhss, lhss, 1e-7, notes=notes))
    notes = "real-argument kernel against exp(|x||y|)"
    reports.append(IdentityReport.bound("kernel_exponential_growth_bound", growth_excess, 1e-12, notes=notes))
    return reports


# ------------------------------------------------------------- transform

def round_trip_specs(config: MultiplicityConfig, kind: str) -> tuple[QuadratureSpec, QuadratureSpec]:
    """Quadrature pairing (forward leg, inverse leg) for inversion checks,
    from quadrature._RESOLUTION, which says why each pair is chosen."""
    use = f"round_trip_{kind}" if kind in ("generalized_cauchy", "bessel_k_profile") else "round_trip"
    fwd, inv = _RESOLUTION[use][config.dimension]
    return QuadratureSpec(*fwd), QuadratureSpec(*inv)


def round_trips(config: MultiplicityConfig):
    """Yield one inversion_round_trip_<kind> report per catalog member: the
    transform on the forward leg of round_trip_specs, sampled and inverted on
    its inverse leg, against the function at 9 diagonal probes."""
    p = cauchy_exponent(config)
    probes = _diag_points(config, np.linspace(-1.2, 1.2, 9))
    catalog = [gaussian(1.0), gaussian_density(1.0)]
    if config.dimension <= 2:
        # the slow-decay pair needs oscillation-resolving boxes whose cost
        # grows too fast past two axes
        catalog += [generalized_cauchy(p), bessel_k_profile(p)]
    for f in catalog:
        name = f"inversion_round_trip_{f.kind}"
        run = lambda fg, ig: _transformer(ig, _transformer(fg, f, FORWARD), INVERSE)(probes)
        back = _checked(name, run, config, *round_trip_specs(config, f.kind))
        notes = f"9 probe points, worst case; parameter {f.param}"
        yield _compare(name, evaluate_handle(config, f, probes), back, 1e-6, notes=notes)


def suite_transform(config: MultiplicityConfig) -> list:
    spec = default_spec(config.dimension)
    p = cauchy_exponent(config)
    probes = _diag_points(config, np.linspace(-1.2, 1.2, 9))
    reports = list(round_trips(config))

    ts = (0.5, 1.0, 2.0)
    reports.append(
        _compare(
            "gaussian_transform_pair",
            [evaluate_handle(config, gaussian_density(t), probes) for t in ts],
            [forward(config, spec, gaussian(t), probes) for t in ts],
            1e-7,
            notes="t in {0.5, 1, 2}, 9 probes each, worst case",
        )
    )

    if _is_classical(config):
        got = forward(config, spec, gaussian(1.0), probes)
        r2 = np.sum(probes * probes, axis=-1)
        want = 2.0 ** -(config.dimension / 2.0) * np.exp(-r2 / 4.0)
        notes = "zero multiplicities, unitary closed form"
        reports.append(_compare("classical_fourier_reduction", want, got, 1e-9, notes=notes))

    fix_pts = _diag_points(config, [0.0, 0.7, 2.0])
    got = forward(config, spec, gaussian(0.5), fix_pts)
    want = evaluate_handle(config, gaussian(0.5), fix_pts)
    reports.append(_compare("selfreciprocal_gaussian_fixed_point", want, got, 1e-8, notes="t = 1/2"))

    omega = _diag_points(config, [0.5, 1.0, 2.0])
    got = forward(config, spec, generalized_cauchy(p), omega)
    want = evaluate_handle(config, bessel_k_profile(p), omega)
    notes = f"p = {p}; profile constant 1/(Gamma(p) 2^(p-1))"
    reports.append(_compare("cauchy_matern_transform_pair", want, got, 1e-5, notes=notes))

    reports.append(plancherel_duality(config, spec, gaussian(1.0), gaussian(2.0)))
    mixed = plancherel_duality(config, spec, generalized_cauchy(p), gaussian(1.0))
    reports.append(replace(mixed, identity_name="transform_pairing_symmetry_mixed"))

    # Odd test function so the sign flip is visible: even catalog entries
    # cannot distinguish parity from the identity map.
    odd = lambda pts: pts[:, 0] * np.exp(-np.sum(pts**2, axis=1))
    x0 = _diag(config, 0.4)
    fwd_leg, _ = round_trip_specs(config, "gaussian")
    run = lambda fg, grid: _transformer(grid, _transformer(fg, odd, FORWARD), FORWARD)(x0)
    twice = complex(_checked("transform_double_is_parity", run, config, fwd_leg, spec)[0])
    val = complex(odd(-x0[None, :])[0])
    notes = "odd integrand, two forward passes equal the sign flip"
    reports.append(IdentityReport("transform_double_is_parity", val, twice, 1e-6, notes=notes))

    far = _diag_points(config, [0.0, 1.0, 3.0])
    sup = np.max(np.abs(forward(config, spec, gaussian(1.0), far)))
    bound = config.mehta * weighted_norm(config, spec, gaussian(1.0), p=1.0)
    notes = f"sup {float(sup):.9f} vs weighted L1 bound {bound:.9f}"
    reports.append(IdentityReport.bound("transform_sup_bound", float(sup) - bound, 1e-10, notes=notes))

    if config.dimension >= 2:
        a = np.zeros(config.dimension)
        a[0] = 1.3
        a[1] = 0.4
        b = np.zeros(config.dimension)
        b[0] = float(np.linalg.norm(a))
        va = forward(config, spec, gaussian(1.0), a)
        vb = forward(config, spec, gaussian(1.0), b)
        reports.append(
            IdentityReport(
                "radial_profile_maps_to_radial",
                va,
                vb,
                1e-8,
                notes="two frequencies of equal norm",
            )
        )
    return reports


# ----------------------------------------------------------- translation


def suite_translation(config: MultiplicityConfig) -> list:
    spec = default_spec(config.dimension)
    d = config.dimension
    p = cauchy_exponent(config)
    reports = []
    probes = _diag_points(config, [-1.1, 0.0, 0.6, 1.4])

    same = translate(config, spec, gaussian(1.0), np.zeros(d), probes)
    truth = evaluate_handle(config, gaussian(1.0), probes)
    reports.append(_compare("translation_at_origin_identity", truth, same, 1e-7))

    if _is_classical(config):
        y = _diag(config, 0.5)
        x = _diag(config, 1.2)
        got = translate(config, spec, gaussian(1.0), y, x)
        want = complex(evaluate_handle(config, gaussian(1.0), (x - y)[None, :])[0])
        reports.append(
            IdentityReport("classical_shift_reduction", want, got, 1e-6, notes="zero multiplicities")
        )

        got = convolve(config, spec, gaussian(1.0), gaussian(1.0), np.zeros(d))
        want = config.mehta * (math.pi / 2.0) ** (d / 2.0)
        reports.append(
            IdentityReport(
                "classical_convolution_reduction", want, got, 1e-8, notes="two unit Gaussians, closed form"
            )
        )

    if d <= 2:
        y = _diag(config, 0.7)
        f, g = gaussian(1.0), gaussian_density(2.0)
        grid = Grid(config, spec)
        gp = grid.points()
        tspec = QuadratureSpec(*_RESOLUTION["exchange_pairing"][d])
        lhs_vals = translate(config, tspec, f, y, gp) * evaluate_handle(config, g, gp)
        rhs_vals = evaluate_handle(config, f, gp) * translate(config, tspec, g, -y, gp)
        lhs = complex(grid.integrate(lhs_vals.reshape(grid.shape)))
        rhs = complex(grid.integrate(rhs_vals.reshape(grid.shape)))
        reports.append(
            IdentityReport(
                "translation_exchange_pairing",
                rhs,
                lhs,
                1e-6,
                notes=f"shift {y.tolist()}; integrals on the quadrature grid",
            )
        )

    pairs = [(_diag(config, 0.9), _diag(config, 0.4)), (_diag(config, 1.3), _diag(config, -0.8))]
    lh, rh = [], []
    for x, y in pairs:
        lh.append(translate(config, spec, gaussian(1.0), y, x))
        rh.append(translate(config, spec, gaussian(1.0), -x, -y))
    reports.append(_compare("translation_point_symmetry", rh, lh, 1e-7, notes="two (x, y) pairs"))

    reports.append(translate_mass(config, spec, gaussian_density(1.0), _diag(config, 0.8)))
    if d <= 2:
        osc, wide = (QuadratureSpec(*box) for box in _RESOLUTION["matern_translate_mass"][d])
        mat = translate_mass(
            config,
            osc,
            bessel_k_profile(config.gamma + d / 2.0 + 2.0),
            _diag(config, 0.8),
            tolerance=1e-5,
            outer=wide,
        )
        reports.append(replace(mat, identity_name="matern_translate_mass"))

    rng = np.random.default_rng(11)
    sample_x = rng.uniform(-2, 2, size=(6, d))
    worst_neg = 0.0
    for y in rng.uniform(-2, 2, size=(3, d)):
        vals = translate(config, spec, gaussian_density(1.0), y, sample_x)
        worst_neg = max(worst_neg, float(np.max(-vals.real)), float(np.max(np.abs(vals.imag))))
    notes = "18 random (x, y) pairs"
    reports.append(IdentityReport.bound("translated_gaussian_density_nonnegative", worst_neg, 1e-8, notes=notes))

    x0 = _diag(config, 0.6)
    fg = convolve(config, spec, gaussian(1.0), generalized_cauchy(p), x0)
    gf = convolve(config, spec, generalized_cauchy(p), gaussian(1.0), x0)
    reports.append(IdentityReport("convolution_commutativity", fg, gf, 1e-10))

    if d == 1:
        f, g = gaussian(1.0), gaussian(2.0)
        df = spectral_density(config, spec, f)
        dg = spectral_density(config, spec, g)
        xi = _diag_points(config, [0.0, 1.1])
        product = DensityProduct(config, (df, dg))
        run = lambda cg, grid: _transformer(grid, _transformer(cg, product, INVERSE), FORWARD)(xi)
        lhs = _checked("convolution_product_rule", run, config, spec, spec)
        rhs = df(xi) * dg(xi)
        notes = "transform of the convolution vs product of transforms"
        reports.append(_compare("convolution_product_rule", rhs, lhs, 1e-6, notes=notes))

        spots = _diag_points(config, [0.3, 0.9])
        spectral = convolve(config, spec, f, generalized_cauchy(p), spots)
        direct = convolve_direct(config, spec, f, generalized_cauchy(p), spots)
        notes = "spectral vs direct-space evaluation"
        reports.append(_compare("convolution_definition_consistency", spectral, direct, 1e-5, notes=notes))

    if d <= 2:
        f, g = gaussian(1.0), gaussian_density(2.0)
        grid = Grid(config, spec)
        conv_vals = convolve_grid(config, spec, f, g).values
        lhs = math.sqrt(float(np.real(grid.integrate(np.abs(conv_vals) ** 2))))
        rhs = weighted_norm(config, spec, g, 1.0) * weighted_norm(config, spec, f, 2.0)
        notes = f"L2 of the convolution {lhs:.9f} vs product bound {rhs:.9f}"
        reports.append(IdentityReport.bound("young_convolution_bound", lhs - rhs, 1e-6, notes=notes))
    return reports


# ---------------------------------------------------------------- posdef


def _indefinite_profile(config: MultiplicityConfig):
    """Sampled sin-modulated Gaussian, the certification falsifier."""
    axes = uniform_axes(config.dimension, *_RESOLUTION["indefinite_mesh"][config.dimension])
    fn = lambda pts: np.sin(np.sum(pts * pts, axis=-1)) * np.exp(-np.sum(pts * pts, axis=-1))
    return sample_on_axes(config, fn, axes)


def suite_posdef(config: MultiplicityConfig) -> list:
    spec = default_spec(config.dimension)
    d = config.dimension
    p = cauchy_exponent(config)
    reports = []

    # the Gaussian's Gram matrices on the builtin sets it reads, built once: the PSD
    # report and a quadratic form read n = 5, the heat ladder n = 2, the SPD sweep
    # n = 8, whose floor and tolerance are those of sizes 2..8 (strict_pd_certify)
    family = {n: gram(config, spec, gaussian(1.0), builtin_points(d, n)) for n in (2, 5, 8)}
    form = lambda pts: complex(pts.coefficients.conj() @ family[pts.size].matrix @ pts.coefficients)
    reports.append(family[5].psd_report("gram_positive_semidefinite_gaussian", "5 builtin points"))
    rep = gram(config, spec, generalized_cauchy(p), builtin_points(d, 5))
    reports.append(rep.psd_report("gram_positive_semidefinite_cauchy", "5 builtin points"))

    spd_floor, spd_tol = family[8].min_eigenvalue, family[8].tolerance
    notes = f"builtin sizes 2..8; smallest eigenvalue {spd_floor:.6e} stays above {spd_tol:.1e}"
    reports.append(IdentityReport.bound("gram_strictly_positive_definite_sweep", spd_tol - spd_floor, 1e-12, notes))

    cert = bochner_certify(config, spec, gaussian(1.0))
    reports.append(replace(cert, identity_name="transform_nonnegativity_gaussian"))
    cert = bochner_certify(config, spec, generalized_cauchy(p))
    reports.append(replace(cert, identity_name="transform_nonnegativity_cauchy"))

    falsifier = bochner_certify(config, spec, _indefinite_profile(config))
    notes = f"sin-modulated Gaussian; certificate says: {falsifier.notes}"
    reports.append(
        IdentityReport.bound("certifier_rejects_indefinite_profile", float(falsifier.passed), 1e-9, notes)
    )

    reports.append(
        replace(
            bound_check(config, spec, gaussian(1.0), builtin_points(d, 7).points),
            identity_name="translate_bounds_gaussian",
        )
    )

    pts = builtin_points(d, 5, coefficients=np.array([1.0, -0.5, 0.25j, 0.7, -0.3]))
    qform = form(pts)
    density = spectral_density(config, spec, gaussian(1.0))
    grid = Grid(config, spec.doubled())
    # sum_j a_j E(-i x_j, xi) on the grid, with a_j on the diagonal of a (p,)*d tensor
    coef = np.zeros((pts.size,) * d, dtype=complex)
    coef[(np.arange(pts.size),) * d] = pts.coefficients
    mats = _axis_matrices(config, pts.points.T, grid.axes, FORWARD)
    phase_sum = _grid_contract([m.T for m in mats], coef)
    spectral = config.mehta * complex(grid.integrate(np.abs(phase_sum) ** 2 * grid.sample(density)))
    del phase_sum  # grid-sized; the checks below build larger grids of their own
    reports.append(
        IdentityReport(
            "quadratic_form_matches_spectral_integral",
            spectral,
            qform,
            1e-6,
            notes="5 points with mixed complex coefficients",
        )
    )

    two = builtin_points(d, 2, coefficients=np.array([1.0, -1.0]))
    target = form(two)
    ladder = []
    final = None
    # the gap closes linearly in t with a constant that grows with gamma + d,
    # so the last rung sits lower in higher dimension
    for t in (0.2, 0.1, 0.05, 4e-4 if d < 3 else 2e-4):
        final = quadratic_form_heat(config, spec, gaussian(1.0), two, t)
        ladder.append((t, abs(final - target)))
    reports.append(
        IdentityReport(
            "heat_smoothed_form_limit",
            target,
            final,
            5e-3,
            notes="gaps " + ", ".join(f"t={t}: {g:.4e}" for t, g in ladder),
        )
    )

    bessel_spec = QuadratureSpec(*_RESOLUTION["bessel_mass"][d])
    reports.append(bessel_integral_identity(config, bessel_spec, config.gamma + d / 2.0 + 2.0))

    xs = builtin_points(d, 3).points
    probes = _diag_points(config, np.linspace(-4.0, 4.0, 64))
    sigma = kernel_independence(config, xs, probes)
    notes = f"3 builtin points, 64 probes; smallest singular value {sigma:.6e}"
    reports.append(IdentityReport.bound("translation_phases_linearly_independent", 1e-3 - sigma, 1e-15, notes=notes))

    dup = np.vstack([xs, xs[-1:]])
    sigma_dup = kernel_independence(config, dup, probes, enforce_distinct=False)
    notes = f"duplicated last point; smallest singular value {sigma_dup:.3e}"
    reports.append(IdentityReport.bound("duplicate_point_degeneracy", sigma_dup - 1e-12, 1e-15, notes=notes))

    rep = strict_pd_certify(config, spec, gaussian(1.0))
    reports.append(replace(rep, identity_name="strict_pd_certificate_gaussian"))
    rep = strict_pd_certify(config, spec, generalized_cauchy(p))
    reports.append(replace(rep, identity_name="strict_pd_certificate_cauchy"))

    reports.extend(closure_suite(config, spec, gaussian(1.0), generalized_cauchy(p)))
    return reports


# ------------------------------------------------------------------ heat


def suite_heat(config: MultiplicityConfig) -> list:
    spec = default_spec(config.dimension)
    d = config.dimension
    reports = []

    worst = None
    cases = []
    for t in (0.25, 1.0, 4.0):
        for x in (np.zeros(d), _diag(config, 0.8)):
            rep = heat_kernel_mass(config, spec, t, x)
            cases.append(f"t={t}, |x|={float(np.linalg.norm(x)):.2f}: {rep.computed:.9f}")
            if worst is None or abs(rep.computed - 1.0) > abs(worst.computed - 1.0):
                worst = rep
    reports.append(replace(worst, notes=worst.notes + "; sweep " + "; ".join(cases)))

    # 150 random (t, x, y) with the values of rng.uniform's draws of t, x and y
    # sample by sample: 100 for every config, then 50 for the classical reduction
    u = np.random.default_rng(23).random((150, 1 + 2 * d))
    t, x, y = 0.05 + (4.0 - 0.05) * u[:, 0], -3.0 + 6.0 * u[:, 1 : 1 + d].T, -3.0 + 6.0 * u[:, 1 + d :].T
    v = _heat_product(config, t, x, y, np.multiply)
    neg = max(0.0, float(np.max(-v[:100])))
    asym = float(np.max(np.abs(v - _heat_product(config, t, y, x, np.multiply))[:100]))
    reports.append(IdentityReport.bound("heat_kernel_nonnegative", neg, 1e-15, notes="100 random (t, x, y)"))
    reports.append(IdentityReport.bound("heat_kernel_argument_symmetry", asym, 1e-12, notes="same 100 samples"))

    if _is_classical(config):
        wants = [
            (4.0 * math.pi * tv) ** (-d / 2.0) * math.exp(-float(np.sum((xv - yv) ** 2)) / (4.0 * tv))
            for tv, xv, yv in zip(t[100:].tolist(), x.T[100:], y.T[100:])
        ]
        notes = "zero multiplicities, 50 samples"
        reports.append(_compare("classical_heat_reduction", wants, v[100:], 1e-10, notes=notes, relative=False))

    t0 = 0.7
    x = _diag(config, 0.8)
    y = _diag(config, -0.3)
    via_translate = config.mehta * translate(config, spec, gaussian_density(t0), x, y)
    reports.append(
        IdentityReport(
            "heat_kernel_is_translated_gaussian_density",
            heat_kernel(config, t0, x, y),
            via_translate,
            1e-6,
            notes=f"t={t0}; closed form vs spectral translation",
        )
    )
    return reports


# ------------------------------------------------------------- dispatch


def run_suites(config: MultiplicityConfig, which: str = "all") -> list:
    table = {
        "kernel": suite_kernel,
        "transform": suite_transform,
        "translation": suite_translation,
        "posdef": suite_posdef,
        "heat": suite_heat,
    }
    if which == "all":
        out = []
        for name in SUITE_NAMES:
            out.extend(table[name](config))
        return out
    if which not in table:
        raise InputError(f"unknown suite {which!r}; choose from {('all',) + SUITE_NAMES}")
    return table[which](config)
