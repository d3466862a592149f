"""Operators route a handle by what it answers, never by its type.

Each capability (evaluate, on_axes, partner, spectral_hint, profile,
nonnegative) is read with getattr(fn, name, None).  A handle class defined
here, neither a CatalogFunction nor a SampledFunction, answers evaluate,
on_axes, partner and nonnegative with the values of gaussian(1), and every
reader routes it by those answers.
"""

import functools
import operator

import numpy as np
import pytest

from dunklpd import DomainError, NotInCatalogError, make_config
from dunklpd.functions import (
    DensityProduct,
    SampledFunction,
    evaluate_handle,
    gaussian,
    gaussian_density,
    sample_grid,
    tensor_points,
    uniform_axes,
)
from dunklpd.posdef import bochner_forward, closure_suite
from dunklpd.transform import closed_form_transform, spectral_density
from dunklpd.translation import translate_mass

CFG = make_config(1, [0.5])
PLANE = make_config(2, [1.0, 0.0])


class Answering:
    """gaussian(1) in disguise: its answers, and a log of the questions asked."""

    def __init__(self, nonnegative=True):
        self.inner, self.asked, self.nonnegative = gaussian(1.0), [], nonnegative

    def evaluate(self, config, points):
        self.asked.append("evaluate")
        return self.inner.evaluate(config, points)

    def on_axes(self, config, axes):
        self.asked.append("on_axes")
        return self.inner.on_axes(config, axes)

    def partner(self, config):
        self.asked.append("partner")
        return self.inner.partner(config)


def test_evaluate_handle_reads_the_evaluate_answer():
    h, pts = Answering(), np.linspace(-2.0, 2.0, 7)[:, None]
    assert evaluate_handle(CFG, h, pts).tobytes() == gaussian(1.0).evaluate(CFG, pts).tobytes()
    assert h.asked == ["evaluate"]


def test_sample_grid_reads_the_on_axes_answer():
    h, axes = Answering(), uniform_axes(2, 3.0, 9)
    assert sample_grid(PLANE, h, axes).tobytes() == gaussian(1.0).on_axes(PLANE, axes).tobytes()
    assert h.asked == ["on_axes"]


def test_the_partner_answer_is_the_exact_transform():
    h = Answering()
    assert closed_form_transform(CFG, h) == gaussian_density(1.0)
    assert spectral_density(CFG, None, h) == DensityProduct(CFG, (gaussian_density(1.0),))
    assert h.asked == ["partner", "partner"]
    # bochner_forward samples its input for the sign check, then takes the partner
    assert bochner_forward(CFG, None, h) == gaussian_density(1.0)
    assert h.asked[2:] == ["on_axes", "partner"]


def test_no_partner_answer_is_not_in_the_catalog():
    with pytest.raises(NotInCatalogError, match="no closed-form transform for function"):
        closed_form_transform(CFG, lambda p: np.exp(-p[:, 0] ** 2))


def test_the_spectral_hint_answer_is_read_from_any_handle():
    class Hinted:
        spectral_hint = staticmethod(lambda pts: np.exp(-pts[:, 0] ** 2))

    xi = np.array([[0.0], [0.5], [1.5]])
    np.testing.assert_array_equal(spectral_density(CFG, None, Hinted())(xi), np.exp(-xi[:, 0] ** 2))


def test_translate_mass_reads_the_nonnegative_answer():
    h = Answering()
    rep = translate_mass(CFG, None, h, [0.5])
    ref = translate_mass(CFG, None, gaussian(1.0), [0.5])
    assert rep.passed
    np.testing.assert_allclose([rep.computed, rep.expected], [ref.computed, ref.expected], rtol=1e-12)
    with pytest.raises(DomainError, match="needs a real nonnegative function"):
        translate_mass(CFG, None, Answering(nonnegative=False), [0.5])
    # a handle that gives no answer, as a DensityProduct of a catalog handle
    with pytest.raises(DomainError, match="needs a catalog or sampled handle"):
        translate_mass(CFG, None, DensityProduct(CFG, (gaussian(1.0),)), [0.5])


def test_sampled_handles_answer_nonnegative_from_their_values():
    axis = np.linspace(-1.0, 1.0, 5)
    assert SampledFunction((axis,), np.exp(-axis**2)).nonnegative
    assert not SampledFunction((axis,), np.exp(-axis**2) - 0.5).nonnegative
    assert not SampledFunction((axis,), np.exp(-axis**2) * (1.0 + 1e-6j)).nonnegative
    # the scan judges the excess against the largest magnitude, 1e-12 of it
    assert SampledFunction((axis,), np.array([1.0, 1.0, -1e-13, 1.0, 1.0])).nonnegative
    assert gaussian(1.0).nonnegative is True


def test_closure_suite_reads_the_profile_answer():
    # a DensityProduct of catalog handles is radial but answers no profile
    with pytest.raises(DomainError, match="radial profiles"):
        closure_suite(CFG, None, gaussian(1.0), DensityProduct(CFG, (gaussian(1.0),)))
    with pytest.raises(DomainError, match="radial profiles"):
        closure_suite(CFG, None, Answering(), gaussian(1.0))

    class Radial(Answering):
        def profile(self, config, r2):
            return self.inner.profile(config, r2)

    reports = closure_suite(CFG, None, Radial(), gaussian(1.0))
    assert [r.identity_name for r in reports] == ["convolution_closure_gram_psd", "product_closure_gram_psd"]
    assert all(r.passed for r in reports)


def test_density_product_on_axes_is_the_product_of_its_factors_samples():
    # the product of the factors' samples, in the factor order, equal to the points route bit for bit
    axes = uniform_axes(2, 3.0, 9)
    sampled = SampledFunction(axes, np.cos(tensor_points(axes)[:, 0]).reshape(9, 9) + 0.5j)
    factors = (gaussian(1.0), lambda p: np.cos(p[:, 1]) + 2.0, sampled, DensityProduct(PLANE, (gaussian(0.5),)))
    product = DensityProduct(PLANE, factors)
    old = functools.reduce(operator.mul, (sample_grid(product.config, f, axes) for f in factors))
    assert product.on_axes(PLANE, axes).tobytes() == old.tobytes()
    assert sample_grid(PLANE, product, axes).tobytes() == old.tobytes()
    assert sample_grid(PLANE, product, axes).reshape(-1).tobytes() == product(tensor_points(axes)).tobytes()
