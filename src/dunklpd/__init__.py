"""Weighted harmonic analysis for sign-flip reflection groups on R^d.

Product-weight transforms, generalized translation and convolution, heat
kernels, and positive-definiteness certification, with every supported
identity exposed as a runnable check (see `run_suites` and the CLI).
"""

from .errors import (
    AccuracyWarning,
    ConfigurationError,
    DomainError,
    InputError,
    NotInCatalogError,
)
from .functions import (
    CatalogFunction,
    SampledFunction,
    bessel_k_profile,
    evaluate_handle,
    gaussian,
    gaussian_density,
    generalized_cauchy,
    load_sampled_csv,
    sample_on_axes,
    sampled_to_csv,
    save_sampled_csv,
    uniform_axes,
)
from .identities import cauchy_exponent, run_suites
from .kernel import (
    dunkl_operator_1d,
    kernel_1d,
    kernel_nd,
    kernel_real_1d,
    kernel_real_nd,
)
from .posdef import (
    PointSet,
    bessel_integral_identity,
    bochner_certify,
    bochner_forward,
    bound_check,
    builtin_points,
    closure_suite,
    gram,
    heat_kernel,
    heat_kernel_mass,
    kernel_independence,
    quadratic_form,
    quadratic_form_heat,
    strict_pd_certify,
)
from .quadrature import Grid, QuadratureSpec, default_spec
from .reports import GramReport, IdentityReport, reports_to_json
from .root_system import MultiplicityConfig, make_config, weight
from .transform import (
    catalog_partner,
    closed_form_transform,
    forward,
    forward_grid,
    inverse,
    numeric_density,
    plancherel_duality,
    spectral_density,
    weighted_norm,
)
from .translation import (
    convolve,
    convolve_direct,
    convolve_grid,
    translate,
    translate_mass,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyWarning",
    "CatalogFunction",
    "ConfigurationError",
    "DomainError",
    "GramReport",
    "Grid",
    "IdentityReport",
    "InputError",
    "MultiplicityConfig",
    "NotInCatalogError",
    "PointSet",
    "QuadratureSpec",
    "SampledFunction",
    "bessel_integral_identity",
    "bessel_k_profile",
    "bochner_certify",
    "bochner_forward",
    "bound_check",
    "builtin_points",
    "catalog_partner",
    "cauchy_exponent",
    "closed_form_transform",
    "closure_suite",
    "convolve",
    "convolve_direct",
    "convolve_grid",
    "default_spec",
    "dunkl_operator_1d",
    "evaluate_handle",
    "forward",
    "forward_grid",
    "gaussian",
    "gaussian_density",
    "generalized_cauchy",
    "gram",
    "heat_kernel",
    "heat_kernel_mass",
    "inverse",
    "kernel_1d",
    "kernel_independence",
    "kernel_nd",
    "kernel_real_1d",
    "kernel_real_nd",
    "load_sampled_csv",
    "make_config",
    "numeric_density",
    "plancherel_duality",
    "quadratic_form",
    "quadratic_form_heat",
    "reports_to_json",
    "run_suites",
    "sample_on_axes",
    "sampled_to_csv",
    "save_sampled_csv",
    "spectral_density",
    "strict_pd_certify",
    "translate",
    "translate_mass",
    "uniform_axes",
    "weight",
    "weighted_norm",
    "__version__",
]
