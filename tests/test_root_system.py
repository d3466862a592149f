"""Configuration construction, normalization constants, and the weight."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dunklpd import ConfigurationError, InputError, make_config
from dunklpd.root_system import MultiplicityConfig, weight


class TestNormalizationConstant:
    # reciprocal of the weighted Gaussian mass; values frozen against
    # independent quadrature of int prod |x_i|^(2k_i) exp(-|x|^2/2) dx
    FROZEN = [
        (1, [0.0], 0.3989422804014327),
        (1, [0.5], 0.5),
        (1, [1.0], 0.3989422804014327),
        (1, [2.0], 0.1329807601338109),
        (2, [1.0, 0.0], 0.15915494309189535),
        (2, [0.5, 0.5], 0.25),
    ]

    @pytest.mark.parametrize("d,kappa,expected", FROZEN)
    def test_frozen_values(self, d, kappa, expected):
        cfg = make_config(d, kappa)
        np.testing.assert_allclose(cfg.mehta, expected, rtol=1e-13)

    def test_free_case_is_gaussian_normalizer(self):
        cfg = make_config(3, [0.0, 0.0, 0.0])
        np.testing.assert_allclose(cfg.mehta, (2.0 * math.pi) ** -1.5, rtol=1e-13)

    def test_product_over_axes(self):
        # d-dimensional constant factors over coordinates
        parts = [make_config(1, [k]).mehta for k in (0.5, 1.5)]
        cfg = make_config(2, [0.5, 1.5])
        np.testing.assert_allclose(cfg.mehta, parts[0] * parts[1], rtol=1e-13)

    @given(st.lists(st.floats(0.0, 8.0), min_size=1, max_size=3))
    def test_derived_fields(self, kappa):
        cfg = make_config(len(kappa), kappa)
        assert cfg.mehta > 0
        np.testing.assert_allclose(cfg.gamma, sum(kappa), rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            cfg.lambda_index, sum(kappa) + (len(kappa) - 2) / 2.0, rtol=0, atol=1e-12
        )


class TestValidation:
    def test_rejects_bad_dimension(self):
        with pytest.raises(ConfigurationError):
            make_config(0, [])
        with pytest.raises(ConfigurationError):
            make_config(1.0, [0.5])
        with pytest.raises(ConfigurationError):
            make_config(True, [0.5])

    def test_rejects_dimension_kappa_mismatch(self):
        with pytest.raises(ConfigurationError):
            make_config(2, [0.5])

    def test_rejects_negative_or_nonfinite_kappa(self):
        with pytest.raises(ConfigurationError):
            make_config(1, [-0.1])
        with pytest.raises(ConfigurationError):
            make_config(1, [float("nan")])
        with pytest.raises(ConfigurationError):
            make_config(1, [float("inf")])

    def test_rejects_unsupported_dimension(self):
        # tensor grids above d = 3 are out of scope by contract
        with pytest.raises(ConfigurationError):
            make_config(4, [0.0] * 4)

    def test_rejects_multiplicities_whose_constant_underflows(self):
        # the constant is 1.06e-307 at kappa 150; from 151 it underflows to 0,
        # which would zero every transform and Gram matrix, and Gamma overflows
        # from 172
        assert make_config(1, [150.0]).mehta > 0.0
        for dim, kappa in ((1, [151.0]), (1, [172.0]), (1, [1e4]), (3, [80.0, 80.0, 80.0])):
            with pytest.raises(ConfigurationError, match="too large"):
                make_config(dim, kappa)

    def test_rejects_non_numeric_kappa(self):
        with pytest.raises(ConfigurationError):
            make_config(1, ["x"])


class TestSerialization:
    def test_round_trip(self):
        cfg = make_config(2, [1.0, 0.25])
        back = MultiplicityConfig.from_json(cfg.to_json())
        assert back == cfg

    def test_json_carries_only_input_fields(self):
        data = json.loads(make_config(1, [0.5]).to_json())
        assert set(data) == {"dimension", "kappa"}

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            MultiplicityConfig.from_json("{not json")
        with pytest.raises(ConfigurationError):
            MultiplicityConfig.from_json(json.dumps({"dimension": 1, "kappa": [0.5], "extra": 1}))
        with pytest.raises(ConfigurationError):
            MultiplicityConfig.from_json(json.dumps([1, 2]))


class TestWeightAndReflections:
    def test_weight_closed_form(self, rng):
        cfg = make_config(2, [1.0, 0.5])
        pts = rng.normal(size=(40, 2))
        expected = np.abs(pts[:, 0]) ** 2.0 * np.abs(pts[:, 1]) ** 1.0
        np.testing.assert_allclose(weight(cfg, pts), expected, rtol=1e-12)

    def test_weight_is_reflection_invariant(self, rng):
        cfg = make_config(2, [0.75, 1.25])
        pts = rng.normal(size=(25, 2))
        for axis in (0, 1):
            flipped = pts.copy()
            flipped[:, axis] *= -1.0
            np.testing.assert_allclose(weight(cfg, flipped), weight(cfg, pts), rtol=1e-12)

    def test_weight_at_one_point_is_a_float(self):
        cfg = make_config(2, [1.0, 0.5])
        assert weight(cfg, [3.0, -4.0]) == 36.0 and type(weight(cfg, [3.0, -4.0])) is float
        assert weight(cfg, [[3.0, -4.0]]).tolist() == [36.0]

    # the weight takes its points through the package's one point check: a nan or inf
    # coordinate used to give nan or inf, None an IndexError and complex input a TypeError
    @pytest.mark.parametrize(
        "x,match",
        [
            ([math.nan, 1.0], "finite"),
            ([[1.0, 2.0], [math.inf, 1.0]], "finite"),
            (None, "got None"),
            ([1.0 + 1.0j, 0.0], "got complex values"),
            ("ab", "expected real points"),
            ([1.0, 2.0, 3.0], "expected points in R\\^2"),
        ],
        ids=["nan", "inf", "none", "complex", "string", "wrong_dimension"],
    )
    @pytest.mark.filterwarnings("error")
    def test_weight_refuses_what_is_not_a_finite_real_point(self, x, match):
        with pytest.raises(InputError, match=match):
            weight(make_config(2, [1.0, 0.5]), x)
