"""Joint eigenfunction kernel: frozen oracles and structural properties.

The rank-one kernel with the spectral sign convention splits into a real
even part and an odd part built from Bessel functions; the frozen values
below were produced with 40-digit arbitrary-precision arithmetic and pin
every evaluation branch (power series, trigonometric ladder, and the
generic-order branch in both its jv zone, tabulated in Chebyshev panels
sampled from scipy's jv, and its Hankel-expansion zone) and the real
kernel's ive and large-argument expansion zones.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special as sps

from dunklpd import DomainError, make_config
from dunklpd import kernel as kernel_module
from dunklpd.kernel import (
    _kernel_pairs,
    _phase_1d,
    _real_1d,
    _real_1d_scaled,
    dunkl_operator_1d,
    kernel_1d,
    kernel_nd,
    kernel_real_1d,
    kernel_real_nd,
)
from dunklpd.posdef import heat_kernel
from dunklpd.quadrature import Grid, QuadratureSpec

# (kappa, z, value) with z = x*y; covers series (|z| below cutoff), the
# half-integer cosine ladder, the integer sine ladder, and both signs
_FROZEN = [
    (0.5, 1.0, 0.7651976865579666 - 0.4400505857449335j),
    (1.5, 7.0, -0.00133794956638452363 + 0.0861192057388400344j),
    (2.0, 8.5, 0.0288976427540540982 + 0.0229560061957382887j),
    (3.0, 10.0, 0.0116913290442843668 + 0.00592437674767054865j),
]

# (kappa, z, value) on the generic-order branch (2*kappa not an integer, or
# kappa above the ladder's limit of 8).  Per kappa: the series zone
# (|z| <= 6), the jv zone (6 < |z| < max(20, (kappa+1/2)^2)), tabulated in
# Chebyshev panels, and the Hankel zone beyond it, up to |z| = 300.
_FROZEN_GENERIC = [
    (0.3, 2.5, complex(-0.24789885316949632435, -0.53673777452124051296)),
    (0.3, 5.75, complex(0.24905788706737524696, 0.39608352484748645423)),
    (0.3, 9.0, complex(-0.25736130016188228335, -0.32131126895524989145)),
    (0.3, 19.5, complex(0.32666904901423734189, -0.062399969707525115254)),
    (0.3, 20.5, complex(0.12624395162256268225, -0.30327903874430377576)),
    (0.3, 97.3, complex(-0.17333632921582913674, -0.10854849455980479087)),
    (0.3, 300.0, complex(-0.069231052698497692323, 0.12871962370025907553)),
    (1.7, 2.5, complex(0.44320237629817085702, -0.33749815920517430664)),
    (1.7, 5.75, complex(-0.10406399082513472922, 0.035203338123945040551)),
    (1.7, 9.0, complex(0.048073257127871247855, -0.014498752604286737715)),
    (1.7, 19.5, complex(-0.0052678421026482433297, 0.012280820187241427234)),
    (1.7, 20.5, complex(0.0065211967200992004293, 0.0094007099490451838772)),
    (1.7, 97.3, complex(0.00077975822855638153575, -0.00033228928550177482798)),
    (1.7, 300.0, complex(-0.000054155038950913472757, -0.00011148090323099706632)),
    (3.25, 2.5, complex(0.64600171013339216033, -0.23748857891601795803)),
    (3.25, 5.75, complex(0.024386884343095247092, -0.087201789851730644703)),
    (3.25, 9.0, complex(-0.0076845585942792341318, 0.019658417808867690279)),
    (3.25, 19.5, complex(-0.00065944057121055205802, -0.001258171432638094887)),
    (3.25, 20.5, complex(-0.0012889556515966098564, 0.000031800410706311274622)),
    (3.25, 97.3, complex(-3.5291889892129625227e-6, 7.5249060892544596972e-6)),
    (3.25, 300.0, complex(1.9438399513136281053e-7, 8.0673709202077147693e-8)),
    (8.5, 2.5, complex(0.8393304638093999509, -0.11866386148428505325)),
    (8.5, 5.75, complex(0.38056540747820519959, -0.13505896643221173481)),
    (8.5, 13.0, complex(-0.0017847345413544271191, -0.0008474891858507487676)),
    (8.5, 80.5, complex(1.2863153523635766739e-13, 5.1921956654303749195e-10)),
    (8.5, 81.5, complex(3.9414065879796537834e-10, 2.1329599157065296007e-10)),
    (8.5, 300.0, complex(-4.6764735251245958375e-15, 5.6686867709243936111e-15)),
    (12.3, 2.5, complex(0.88460307639790874005, -0.087164028421577871796)),
    (12.3, 5.75, complex(0.51591434392987461944, -0.1218300250224390235)),
    (12.3, 40.0, complex(-1.503947559205850033e-8, 1.1368878994304751727e-8)),
    (12.3, 163.5, complex(4.8776918635270414625e-16, -8.1177581903308213204e-17)),
    (12.3, 164.5, complex(2.1072793911895771082e-16, -4.1731269409639678164e-16)),
    (12.3, 300.0, complex(-7.2455056878857012975e-20, 2.7331996941417057489e-19)),
]

# (kappa, z, value) inside the jv zone, which is tabulated in Chebyshev panels
# of width 2 from z = 6 on (kernel._jv_panel): mid-panel points (7, 11, 17)
# and panel edges (8, 14, 18); 40-digit mpmath
_FROZEN_PANELS = [
    (0.3, 7.0, complex(0.43866017880068370861, -0.12193255195452350907)),
    (0.3, 8.0, complex(0.14368620231930092096, -0.41449014683056167678)),
    (0.3, 11.0, complex(-0.18051718037232577868, 0.35508877651096253196)),
    (0.3, 14.0, complex(0.21159624015141445308, -0.30366946171306199561)),
    (0.3, 17.0, complex(-0.23712086054614299563, 0.25567694398532109197)),
    (0.3, 18.0, complex(0.082130069755800558175, 0.32838156149954429657)),
    (3.25, 7.0, complex(-0.033150612620140155332, -0.011328900101421284809)),
    (3.25, 8.0, complex(-0.027766556593315516005, 0.017094303555032759953)),
    (3.25, 11.0, complex(0.0099303687752455715049, -0.002425856111284662257)),
    (3.25, 14.0, complex(-0.0043532290752350469947, -0.00015923866543189867789)),
    (3.25, 17.0, complex(0.0021499121414502007485, 0.00062930721307585473112)),
    (3.25, 18.0, complex(0.0017131358748241733201, -0.0013067637389740171072)),
]

# (kappa, z, value) at ladder orders above 2 between the series cutoff 6 and
# 2k + 2, below which the ladder's recurrence is not run: the jv panels serve
# there, since the alternating series cancels (its terms reach the hundreds
# at k = 8; it was off by 8.8e-11 at k = 6.5, z = 14.99 and by 3.0e-10 at
# k = 8, z = 17.99); 40-digit mpmath
_FROZEN_LADDER_GAP = [
    (3.0, 6.5, complex(-0.035534525973796286051, -0.024199235438196720334)),
    (3.0, 7.0, complex(-0.041101919630755365823, 0.00049348373239496115689)),
    (3.0, -7.6, complex(-0.034745465105918721359, -0.018625073939353964178)),
    (3.0, 7.99, complex(-0.02626904951103947524, 0.024072759483091561257)),
    (4.0, 6.3, complex(0.040457628517597172446, -0.077724504098605418649)),
    (4.0, 7.5, complex(-0.015359750951765981725, -0.019733054107194852111)),
    (4.0, 8.7, complex(-0.019104997243911556935, 0.0084340333794542939162)),
    (4.0, -9.4, complex(-0.011368818648807725346, -0.012435055665851543305)),
    (4.0, 9.99, complex(-0.0042581675205037127563, 0.011133776712163091008)),
    (6.5, 6.2, complex(0.2179032635932076731, -0.12095841258049407776)),
    (6.5, 8.1, complex(0.05386407105672463459, -0.053168097515540947834)),
    (6.5, 10.3, complex(-0.0030879680318341189157, -0.0062897749616440176712)),
    (6.5, -12.6, complex(-0.0021267798518177764792, -0.0026669859472602146785)),
    (6.5, 14.2, complex(0.00065482632029595497526, 0.00066106914018079452809)),
    (6.5, 14.99, complex(0.00083532318733452370429, -0.00013225156674720628921)),
    (8.0, 6.7, complex(0.2388407762713390878, -0.11191068693077272555)),
    (8.0, 9.0, complex(0.058461841696097032789, -0.046619045905233778956)),
    (8.0, 11.4, complex(0.0015959261673653217503, -0.0072503282528636785478)),
    (8.0, -13.8, complex(-0.0016553570914629941384, -0.0012194229629737321422)),
    (8.0, 16.1, complex(0.00026505664100158559918, 0.00021751862303066476674)),
    (8.0, 17.99, complex(0.00014593324477906939045, -0.0001816123954650571991)),
]

# (kappa, z, value) where Gamma(k+1/2) (z/2)^(1/2-k) is a normal float but
# the power (z/2)^(1/2-k) alone underflows (kernel._prefactor); both in the
# jv zone; 40-digit mpmath
_FROZEN_UNDERFLOW = [
    (120.3, 3000.0, complex(1.5394085749224634367e-185, 1.1771495390362725124e-184)),
    (90.3, 8000.0, complex(-6.0779401275899391941e-190, 1.8451076528742511525e-188)),
]

# (z, value) of the real-argument kernel at kappa = 1.7 (the scipy iv path)
_FROZEN_REAL_GENERIC = [
    (2.5, 2.8095539030502644601),
    (-2.5, 1.0040955077290800971),
    (5.75, 24.9805599438360834),
    (-5.75, 3.958862835975409335),
    (10.0, 765.53700061236205039),
    (-10.0, 68.095159199346456412),
    (40.0, 866504750034633.75268),
    (-40.0, 18640511989379.347724),
    (300.0, 2.4011796324310223856e126),
]

# (kappa, z, E_kappa(1, z)) of the real kernel on two ladder orders, from
# 40-digit mpmath (the Bessel I form, cross-checked against the Kummer form
# e^z 1F1(kappa; 2 kappa + 1; -2z)).  Every |z| here is past the series
# cutoff, where the kernel is exp(|z|) times the ive form.
_FROZEN_REAL_LADDER = [
    (0.5, 7.0, 3.2463300138024515232e2),
    (0.5, -7.0, 1.2554815640334245395e1),
    (0.5, 15.0, 6.6777429526812027626e5),
    (0.5, -15.0, 1.1524451327707482788e4),
    (0.5, 40.0, 2.9602170956679252663e16),
    (0.5, -40.0, 1.8737863016054718541e14),
    (0.5, 300.0, 8.944228752972006532e128),
    (0.5, -300.0, 7.4659828980977042261e125),
    (2.0, 7.0, 5.0013039398136649304e1),
    (2.0, -7.0, 7.5362863653602256088),
    (2.0, 15.0, 3.8065891181674944784e4),
    (2.0, -15.0, 2.6152138979823382267e3),
    (2.0, 40.0, 4.196937697178037982e14),
    (2.0, -40.0, 1.0619921218623362623e13),
    (2.0, 300.0, 6.4316975323763386154e125),
    (2.0, -300.0, 2.147460292516721841e123),
]

# (kappa, z, E_kappa(1, z)) of the real kernel at z = +-max(40, (kappa+1/2)^2),
# where the large-argument expansion (DLMF 10.40.1) takes over from ive, and
# at z = +-300; 40-digit mpmath, cross-checked against the Kummer form.
_FROZEN_REAL_EXPANSION = [
    (0.3, 40.0, 62869837152097220.431),
    (0.3, -40.0, 238781962396582.98614),
    (0.3, 300.0, 2.8373684648927668685e129),
    (0.3, -300.0, 1.4210562697676890241e126),
    (1.7, 40.0, 866504750034633.75268),
    (1.7, -40.0, 18640511989379.347724),
    (1.7, 300.0, 2.4011796324310223856e126),
    (1.7, -300.0, 6.8146641085193111383e123),
    (8.5, 81.0, 4.7568503832759531551e25),
    (8.5, -81.0, 2.5044289872381767631e24),
    (8.5, 300.0, 1.2478948846272041175e116),
    (8.5, -300.0, 1.7704497414396790681e114),
]


def _hankel_cutoff(kappa):
    return max(20.0, (kappa + 0.5) ** 2)


_KAPPAS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.25]),
    st.floats(0.0, 6.0),
)


class TestFrozenValues:
    @pytest.mark.parametrize("kappa,z,expected", _FROZEN)
    def test_pinned_branches(self, kappa, z, expected):
        np.testing.assert_allclose(kernel_1d(kappa, 1.0, z), expected, rtol=1e-13, atol=1e-16)

    def test_negative_argument_conjugates(self):
        for kappa, z, expected in _FROZEN:
            np.testing.assert_allclose(
                kernel_1d(kappa, 1.0, -z), np.conj(expected), rtol=1e-13, atol=1e-16
            )

    def test_free_multiplicity_is_plane_wave(self):
        for z in (-9.3, -0.4, 0.7, 3.0, 25.0):
            np.testing.assert_allclose(kernel_1d(0.0, 1.0, z), np.exp(-1j * z), rtol=1e-14)
            # cosh - sinh cancellation limits e^z to absolute accuracy for z < 0
            np.testing.assert_allclose(
                kernel_real_1d(0.0, 1.0, z), math.exp(z), rtol=1e-14, atol=math.cosh(z) * 1e-15
            )


class TestGenericBranch:
    @pytest.mark.parametrize("kappa,z,expected", _FROZEN_GENERIC)
    def test_pinned_values_both_signs(self, kappa, z, expected):
        # relative to |E|, which follows the Bessel envelope at large |z|
        # instead of passing through zero
        rtol = 5e-15 if z >= _hankel_cutoff(kappa) else 1e-13
        np.testing.assert_allclose(kernel_1d(kappa, 1.0, z), expected, rtol=rtol, atol=0)
        np.testing.assert_allclose(kernel_1d(kappa, 1.0, -z), np.conj(expected), rtol=rtol, atol=0)

    @pytest.mark.parametrize("z,expected", _FROZEN_REAL_GENERIC)
    def test_pinned_real_kernel(self, z, expected):
        np.testing.assert_allclose(kernel_real_1d(1.7, 1.0, z), expected, rtol=5e-14, atol=0)

    @pytest.mark.parametrize("kappa,z,expected", _FROZEN_REAL_LADDER)
    def test_pinned_real_kernel_ladder_orders(self, kappa, z, expected):
        np.testing.assert_allclose(kernel_real_1d(kappa, 1.0, z), expected, rtol=5e-14, atol=0)

    @pytest.mark.parametrize("kappa,z,expected", _FROZEN_REAL_EXPANSION)
    def test_pinned_real_kernel_expansion_zone(self, kappa, z, expected):
        # the expansion subtracts in its coefficients, so negative z, where
        # ive(k - 1/2) - ive(k + 1/2) cancels, is as accurate as positive z
        np.testing.assert_allclose(kernel_real_1d(kappa, 1.0, z), expected, rtol=2e-15, atol=0)

    def test_ive_expansion_seam_agrees(self):
        for kappa in (0.5, 0.3, 1.7, 8.5):
            cutoff = max(40.0, (kappa + 0.5) ** 2)
            for side in (1.0, -1.0):
                below = _real_1d_scaled(kappa, np.asarray(side * np.nextafter(cutoff, 0.0)))
                at = _real_1d_scaled(kappa, np.asarray(side * cutoff))
                np.testing.assert_allclose(below, at, rtol=2e-14, atol=0)

    @pytest.mark.parametrize("x", [-15.0, -19.0, -35.0])
    def test_real_kernel_at_kappa_zero_is_exp_far_below_zero(self, x):
        # z = 20 x = -300, -380, -700: e^z is a normal float throughout,
        # while exp(|z|) * exp(z - |z|) underflows from z ~ -372 on
        want = math.exp(20.0 * x)
        np.testing.assert_allclose(kernel_real_1d(0.0, x, 20.0), want, rtol=1e-15, atol=0)
        # the second axis contributes e^0 = 1 exactly
        got = kernel_real_nd(make_config(2, [0.0, 0.0]), [x, 1.3], [20.0, 0.0])
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)

    def test_jv_hankel_seam_is_smooth(self):
        for kappa in (0.3, 3.25, 8.5):
            cutoff = _hankel_cutoff(kappa)
            z = np.linspace(cutoff - 0.05, cutoff + 0.05, 401)
            vals = np.array([kernel_1d(kappa, 1.0, zz) for zz in z])
            steps = np.abs(np.diff(vals))
            assert np.max(steps) < 5.0 * np.median(steps)
            # one ulp apart, the two evaluators agree to the jv zone's accuracy
            below = kernel_1d(kappa, 1.0, np.nextafter(cutoff, 0.0))
            np.testing.assert_allclose(below, kernel_1d(kappa, 1.0, cutoff), rtol=1e-13, atol=0)

    # each part to 1e-13 of itself; the worst measured is 6.5e-14, the odd part
    # at k = 3, z = 7, near a zero of J_{7/2}
    @pytest.mark.parametrize("kappa,z,expected", _FROZEN_LADDER_GAP)
    def test_ladder_orders_take_the_panels_below_2k_plus_2(self, kappa, z, expected):
        got = _phase_1d(kappa, np.array([z]), -1)[0]
        np.testing.assert_allclose([got.real, got.imag], [expected.real, expected.imag], rtol=1e-13, atol=0.0)

    def test_the_ladder_runs_above_2k_plus_2_and_above_the_cutoff(self, monkeypatch):
        seen = []
        real = kernel_module._bessel_pair_generic
        monkeypatch.setattr(kernel_module, "_bessel_pair_generic", lambda k, az, odd: seen.append(az) or real(k, az, odd))
        z = np.linspace(-30.0, 30.0, 6001)
        for kappa in (0.5, 1.0, 1.5, 2.0):  # 2k + 2 <= 6: the panels are never read
            _phase_1d(kappa, z, -1)
        assert seen == []
        _phase_1d(8.0, z, -1)
        (az,) = seen
        np.testing.assert_array_equal(az, np.abs(z[(np.abs(z) > 6.0) & (np.abs(z) <= 18.0)]))

    @pytest.mark.parametrize("kappa,z,expected", _FROZEN_PANELS)
    def test_pinned_panel_values_both_signs(self, kappa, z, expected):
        np.testing.assert_allclose(kernel_1d(kappa, 1.0, z), expected, rtol=1e-13, atol=0)
        np.testing.assert_allclose(kernel_1d(kappa, 1.0, -z), np.conj(expected), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("kappa,z,expected", _FROZEN_UNDERFLOW)
    def test_pinned_values_past_the_power_underflow(self, kappa, z, expected):
        # the power alone would give 0 at the first point and denormal noise
        # (44 % off in the imaginary part) at the second
        np.testing.assert_allclose(kernel_1d(kappa, 1.0, z), expected, rtol=1e-12, atol=0)
        np.testing.assert_allclose(kernel_1d(kappa, 1.0, -z), np.conj(expected), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kappa", [0.05, 0.3, 1.7, 3.25, 8.5, 12.3])
    def test_panels_match_scipy_jv(self, kappa):
        # a dense sweep of the jv zone, every panel edge and both sides of
        # z = 6 (the series cutoff) and of the Hankel start, against scipy's
        # jv, relative to |E| = Gamma(k+1/2) (z/2)^(1/2-k) |(J_{k-1/2}, J_{k+1/2})|.
        # Against 30-digit mpmath on this sweep jv itself is off by up to
        # 7.3e-14 and the table by up to 5.0e-14 (near z = 14-15), so the two
        # differ by up to 9.5e-14; _FROZEN_PANELS pins the table alone.
        top = _hankel_cutoff(kappa)
        marks = np.concatenate((np.arange(6.0, top, 2.0), [top]))
        z = np.concatenate(
            [np.linspace(6.0, top, 4001), marks, np.nextafter(marks, 0.0), np.nextafter(marks, np.inf)]
        )
        z = np.concatenate((z, -z))
        pref = math.gamma(kappa + 0.5) * (np.abs(z) / 2.0) ** (0.5 - kappa)
        even = pref * sps.jv(kappa - 0.5, np.abs(z))
        odd = np.sign(z) * pref * sps.jv(kappa + 0.5, np.abs(z))
        err = np.abs(_phase_1d(kappa, z, -1) - (even - 1j * odd)) / np.hypot(even, odd)
        assert np.max(err) <= 2e-13

    def test_panels_are_built_for_the_arguments_seen(self):
        # at kappa 40 the jv zone is [6, 1640.25), 818 panels; arguments
        # in [6, 10] touch the panels starting at 6, 8 and 10 only
        kernel_module._jv_panel.cache_clear()
        z = np.linspace(6.0, 10.0, 500)
        first = _phase_1d(40.0, z, -1)
        assert kernel_module._jv_panel.cache_info().currsize <= 3
        np.testing.assert_array_equal(_phase_1d(40.0, z[::-1], -1), first[::-1])
        assert kernel_module._jv_panel.cache_info().currsize <= 3
        assert not kernel_module._jv_panel(40.0, 0).flags.writeable

    def test_one_pass_panels_match_elementwise(self, rng):
        # _jv_tabulated evaluates every touched panel in one Clenshaw pass, each
        # element against its own panel's coefficients; at kappa 12.3 the zone
        # [6, 163.84) has 79 panels, and every one of them is hit here, at its
        # edges and just inside them
        kappa = 12.3
        top = _hankel_cutoff(kappa)
        edges = np.arange(6.0, top, 2.0)
        inner = np.concatenate((edges[1:], np.nextafter(edges[1:], 0.0), np.nextafter(edges, np.inf)))
        a = np.sort(np.concatenate((rng.uniform(6.0, top, 2000), inner, [np.nextafter(top, 0.0)])))
        assert len(np.unique(np.searchsorted(edges, a, side="right"))) == len(edges)
        pair = kernel_module._jv_tabulated(kappa, a, odd=True)
        alone = np.concatenate([kernel_module._jv_tabulated(kappa, a[i : i + 1], True) for i in range(a.size)], axis=1)
        assert pair.shape == (2, a.size) and pair.tobytes() == alone.tobytes()
        even = kernel_module._jv_tabulated(kappa, a, odd=False)
        assert even.shape == (1, a.size) and even.tobytes() == pair[:1].tobytes()

    def test_repeated_arguments_match_elementwise_evaluation(self, rng):
        # the Bessel pair sorts |z|, repeats included, and scatters the values
        # back; the result must be bit-identical to evaluating each element alone
        base = np.concatenate((rng.uniform(0.0, 320.0, 200), [0.0, 6.0, 20.0, 81.0, 300.0]))
        z = rng.permutation(np.concatenate((base, -base, base[::3], -base[::7])))
        for kappa in (0.3, 8.5):
            for fn in (lambda zz: _phase_1d(kappa, zz, -1), lambda zz: _real_1d(kappa, zz)):
                one_by_one = np.array([fn(np.asarray(v)) for v in z])
                assert np.array_equal(fn(z), one_by_one)

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 0.3, 2.0])
    @pytest.mark.parametrize("z", [800.0, -800.0])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_real_kernel_overflow_raises(self, kappa, z):
        # the overflow must surface as DomainError alone, with no numpy
        # overflow or invalid-value warning leaking out first
        with pytest.raises(DomainError, match="heat_kernel"):
            kernel_real_1d(kappa, 1.0, z)
        with pytest.raises(DomainError, match="heat_kernel"):
            kernel_real_nd(make_config(2, [kappa, 0.5]), [1.0, 0.5], [z, 0.5])


class TestElementwise:
    """The evaluators are elementwise on arrays of any shape, repeats included:
    the result must equal evaluating each element alone, bit for bit."""

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 0.3])
    def test_scaled_real_matches_elementwise(self, kappa, rng):
        base = np.concatenate((rng.uniform(-400.0, 400.0, 60), [0.0, 6.0, -6.0, 40.0, -40.0, -300.0]))
        z = rng.permutation(np.concatenate((base, base[::2], -base[::3], [-0.0, 0.0, -0.0])))
        alone = np.array([_real_1d_scaled(kappa, np.array([v]))[0] for v in z])
        got = _real_1d_scaled(kappa, z)
        assert got.shape == z.shape and got.tobytes() == alone.tobytes()
        square = _real_1d_scaled(kappa, z[:60].reshape(6, 10))
        assert square.shape == (6, 10) and square.tobytes() == alone[:60].tobytes()
        for i in (0, 7):
            point = _real_1d_scaled(kappa, np.asarray(z[i]))
            assert point.shape == () and point.tobytes() == alone[i].tobytes()

    def test_heat_kernel_passes_distinct_arguments_to_ive(self, monkeypatch):
        # at one x, each axis of a 24^3 grid has 24 distinct z = x_i y_i / 2t
        config = make_config(3, [1.0, 0.5, 0.3])
        points = Grid(config, QuadratureSpec(10.0, 24)).points()
        sizes = []
        ive = kernel_module.sps.ive
        monkeypatch.setattr(kernel_module.sps, "ive", lambda nu, a: sizes.append(np.size(a)) or ive(nu, a))
        values = heat_kernel(config, 0.5, np.broadcast_to([1.5, -2.0, 3.0], points.shape), points)
        assert values.shape == (24**3,)
        # every axis reaches the ive zone (6 < |z| < 40), once per order
        assert len(sizes) == 2 * config.dimension
        assert 0 < max(sizes) <= 24


_SIZED_KAPPAS = [0.3, 0.5, 1.7, 2.0, 8.0, 12.3, 40.0]


class TestSizedSums:
    """The power series and the Hankel expansion sum only the terms their
    arguments need: the series the fewest whose tails stay below 1e-19 at its
    cutoff |z| = 6 (_series_terms), the Hankel zone the fewest per band
    [top 2^b, top 2^(b+1)) whose first terms left out are below 1e-18 at the
    band's bottom (_hankel_band_terms).  At every band edge the truncated sum
    must match the full-length one (_SERIES_TERMS, _HANKEL_TERMS) to 2 ulp of
    max(1, |value|)."""

    @staticmethod
    def _assert_within_two_ulp(got, want):
        tol = 2.0 * np.spacing(np.maximum(1.0, np.abs(want)))
        assert np.all(np.abs(got - want) <= tol), np.max(np.abs(got - want) / tol)

    @pytest.mark.parametrize("kappa", _SIZED_KAPPAS)
    @pytest.mark.parametrize("alternating", [True, False])
    def test_series_matches_the_full_sum_up_to_its_cutoff(self, kappa, alternating, monkeypatch):
        cutoff = kernel_module._SERIES_CUTOFF
        edge = np.array([cutoff, np.nextafter(cutoff, 0.0)])
        z = np.concatenate((np.linspace(-cutoff, cutoff, 2001), edge, -edge))
        short = kernel_module._series(kappa, z, alternating)
        monkeypatch.setattr(kernel_module, "_series_terms", lambda k: kernel_module._SERIES_TERMS)
        full = kernel_module._series(kappa, z, alternating)
        for got, want in zip(short, full):
            self._assert_within_two_ulp(got, want)

    def test_series_terms_follow_the_cutoff(self):
        assert kernel_module._series_terms(0.0) == 22
        assert kernel_module._series_terms(2.0) == 20
        assert kernel_module._series_terms(8.0) == 18  # the terms fall faster as kappa grows

    @pytest.mark.parametrize("kappa", _SIZED_KAPPAS)
    def test_each_hankel_band_matches_the_full_sum_at_its_edges(self, kappa):
        terms = kernel_module._hankel_band_terms(kappa)
        assert terms[-1] == 1 and all(a >= b for a, b in zip(terms, terms[1:]))
        assert max(terms) <= kernel_module._HANKEL_TERMS
        bottoms = _hankel_cutoff(kappa) * 2.0 ** np.arange(len(terms) + 1)
        for band, n in enumerate(terms):
            az = np.array([bottoms[band], np.nextafter(bottoms[band + 1], 0.0)])
            short = kernel_module._bessel_pair_hankel(kappa, az, True, n)
            full = kernel_module._bessel_pair_hankel(kappa, az, True, kernel_module._HANKEL_TERMS)
            for got, want in zip(short, full):
                self._assert_within_two_ulp(got, want)

    def test_hankel_bands_take_their_own_term_counts(self, monkeypatch):
        # at k = 0.3: 17 terms from 20, 8 from 40, 5 from 160
        taken = []
        real = kernel_module._bessel_pair_hankel
        spy = lambda k, az, odd, n: taken.append((az.size, n)) or real(k, az, odd, n)
        monkeypatch.setattr(kernel_module, "_bessel_pair_hankel", spy)
        _phase_1d(0.3, np.array([-30.0, 20.0, 39.0, 45.0, 170.0, 30.0]), -1)
        assert taken == [(4, 17), (1, 8), (1, 5)]  # |z| = 20, 30, 30, 39; 45; 170


class TestContiguousRelation:
    """B_k(z) = z A_{k+1}(z) / (2k + 1) holds exactly: both sides are
    sign(z) Gamma(k + 1/2) (|z|/2)^(1/2 - k) J_{k+1/2}(|z|).  The pairs of
    orders below reach every branch of the phase: the plane wave (k = 0),
    the series, both ladders, J_0 and J_1 at k = 1/2, the jv panels and the
    Hankel bands up to |z| = 2000 (A_{8.5} at k = 7.5 crosses from the ladder
    to the generic branch)."""

    @pytest.mark.parametrize("kappa", [0.0, 0.3, 0.5, 1.0, 1.7, 2.0, 7.5, 12.3, 40.0])
    def test_odd_part_is_z_times_the_next_even_part(self, kappa):
        z = np.concatenate((np.linspace(-25.0, 25.0, 40001), np.linspace(-2000.0, 2000.0, 20001)))
        odd = -_phase_1d(kappa, z, -1).imag  # E_k(x, -iy) = A_k - i B_k
        assert np.max(np.abs(odd - z * _phase_1d(kappa + 1.0, z, 0) / (2.0 * kappa + 1.0))) <= 5e-14


def _clenshaw_one_run(x, c):
    """kernel._clenshaw with one run spanning x, shaped as chebval's result."""
    out = kernel_module._clenshaw(x.reshape(-1), c.reshape(len(c), -1, 1), np.array([x.size]))
    return out.reshape(c.shape[1:] + x.shape)


class TestInPlacePolynomials:
    """_horner and _clenshaw evaluate numpy.polynomial's polyval and chebval
    in place, with the same products and sums in the same order: the values
    must be the same bit for bit, for coefficient vectors and for the (terms,
    m) blocks the kernel passes, at 1-D and 2-D arguments.  _clenshaw takes
    its arguments in runs; here one run spans them all."""

    @pytest.mark.parametrize("cols", [None, 2, 4])
    @pytest.mark.parametrize("terms", [2, 3, 25, 30])
    def test_match_numpy_polynomial(self, terms, cols, rng):
        shape = (terms,) if cols is None else (terms, cols)
        c = rng.normal(size=shape) * 10.0 ** rng.integers(-12, 3, size=shape)
        x = np.concatenate((rng.uniform(-3.0, 3.0, 396), [0.0, -0.0, 1.0, -1.0]))
        for arg in (x, x.reshape(8, 50)):
            for mine, numpys in (
                (kernel_module._horner, np.polynomial.polynomial.polyval),
                (_clenshaw_one_run, np.polynomial.chebyshev.chebval),
            ):
                got, want = mine(arg, c), numpys(arg, c)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestOneElementHorner:
    """_horner has one in-place path for every shape: a one-element argument,
    0-d included, gets the same values as polyval bit for bit on every
    coefficient block the kernel passes, and scalar kernel calls equal the
    matching entries of an array evaluation on every branch."""

    @pytest.mark.parametrize("kappa", [0.3, 0.5, 1.7, 2.0, 12.3])
    def test_matches_polyval_on_the_kernel_blocks(self, kappa):
        hankel = kernel_module._hankel_coeffs(kappa)
        blocks = [
            kernel_module._series_coeffs(kappa, True),
            kernel_module._series_coeffs(kappa, False),
            kernel_module._series_coeffs(kappa, True)[:, 0],
            hankel,
            hankel[:, :2],
            kernel_module._scaled_i_coeffs(kappa),
        ]
        for c in blocks:
            for v in (0.0, -0.0, 5e-324, 2.5e-310, 0.37, -1.9, 9.0, 1.0 / 23.0):
                for x in (np.array(v), np.array([v]), np.array([[v]])):
                    got, want = kernel_module._horner(x, c), np.polynomial.polynomial.polyval(x, c)
                    assert got.shape == want.shape and got.tobytes() == want.tobytes(), (c.shape, v, x.shape)

    # (kappa, z): the free case, the series, the ladder, the jv panels and the
    # Hankel zone of E_k(x, -iy), both signs
    _PHASE = [
        (0.0, [0.4, -7.5]),
        (0.5, [0.0, -0.0, 1e-310, 2.3, -5.9]),
        (1.5, [7.0, -30.0]),
        (0.3, [0.2, 6.5, -13.1, 19.9]),
        (0.3, [20.5, -57.0, 300.0]),
        (12.3, [3.0, 40.0, -170.0, 200.0]),
    ]
    # (kappa, z): the series, the ive zone and the far expansion of E_k(x, y)
    _REAL = [
        (0.3, [0.0, 1e-310, -2.2, 5.9, 6.1, -18.0, 39.5, 40.0, -45.0, 700.0]),
        (1.7, [-3.3, 12.0, -41.0, 90.0]),
        (8.5, [4.0, 70.0, -100.0, 300.0]),
    ]

    @pytest.mark.parametrize("kappa,zs", _PHASE)
    def test_scalar_phase_equals_the_array_entries(self, kappa, zs):
        want = _phase_1d(kappa, np.array(zs), -1)
        got = np.array([kernel_1d(kappa, 1.0, z) for z in zs])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kappa,zs", _REAL)
    def test_scalar_real_kernel_equals_the_array_entries(self, kappa, zs):
        want = _real_1d(kappa, np.array(zs))
        got = np.array([kernel_real_1d(kappa, 1.0, z) for z in zs])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kappa,zs", _REAL)
    def test_scalar_heat_kernel_equals_the_array_entries(self, kappa, zs):
        # z = x y / 2t with t = 1/2 and distinct y, so the batch is taken pair
        # by pair: the same branches
        config = make_config(1, [kappa])
        ys = 1.5 + 0.25 * np.arange(len(zs))[:, None]
        xs = np.array(zs)[:, None] / ys
        want = heat_kernel(config, 0.5, xs, ys)
        got = np.array([heat_kernel(config, 0.5, x, y) for x, y in zip(xs, ys)])
        assert got.tobytes() == want.tobytes()


class TestStructure:
    @given(_KAPPAS, st.floats(-8.0, 8.0), st.floats(-8.0, 8.0))
    def test_modulus_bounded_by_one(self, kappa, x, y):
        assert abs(kernel_1d(kappa, x, y)) <= 1.0 + 1e-12

    @given(_KAPPAS, st.floats(-6.0, 6.0), st.floats(-6.0, 6.0))
    def test_argument_symmetry(self, kappa, x, y):
        np.testing.assert_allclose(
            kernel_1d(kappa, x, y), kernel_1d(kappa, y, x), rtol=1e-13, atol=1e-15
        )

    @given(_KAPPAS, st.floats(-4.0, 4.0), st.floats(-4.0, 4.0), st.floats(0.1, 3.0))
    def test_scaling_moves_between_slots(self, kappa, x, y, a):
        np.testing.assert_allclose(
            kernel_1d(kappa, a * x, y), kernel_1d(kappa, x, a * y), rtol=1e-12, atol=1e-14
        )

    @given(_KAPPAS, st.floats(-6.0, 6.0))
    def test_value_one_at_origin(self, kappa, x):
        np.testing.assert_allclose(kernel_1d(kappa, x, 0.0), 1.0, rtol=0, atol=1e-14)

    @given(_KAPPAS, st.floats(-5.0, 5.0), st.floats(-5.0, 5.0))
    def test_conjugation_flips_sign(self, kappa, x, y):
        np.testing.assert_allclose(
            np.conj(kernel_1d(kappa, x, y)), kernel_1d(kappa, -x, y), rtol=1e-13, atol=1e-15
        )

    # transform._axis_matrices fills the negative half of a mirrored axis by
    # this parity, so it must hold exactly on every branch and at each seam:
    # series cutoff 6 or 2k + 2, Hankel start max(20, (k + 1/2)^2).  Values
    # are compared as floats, so the zero imaginary parts at z = +-0 agree.
    @pytest.mark.parametrize("sign", [-1, 1])
    @pytest.mark.parametrize("kappa", [0.0, 0.5, 2.0, 8.0, 0.3, 1.7])
    def test_conjugation_parity_is_exact(self, kappa, sign):
        seams = np.array([6.0, 2.0 * kappa + 2.0, 20.0, (kappa + 0.5) ** 2])
        z = np.concatenate(
            [np.linspace(0.0, 200.0, 4001), seams, np.nextafter(seams, 0.0), np.nextafter(seams, np.inf)]
        )
        got = _phase_1d(kappa, -z, sign)
        want = np.conj(_phase_1d(kappa, z, sign))
        np.testing.assert_array_equal(got.view(float), want.view(float))

    # sign 0 is the real even part A_k alone, which the folded sums read: each
    # branch computes only that column, and it must equal the real part of the
    # full phase at either sign bit for bit, on both sides of every seam (series
    # cutoff 6 or 2k + 2, Hankel start max(20, (k + 1/2)^2)), every panel edge
    # of the jv zone, and at z = +-0
    @pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0, 2.0, 8.0, 0.3, 1.7, 12.3])
    def test_sign_zero_is_the_real_part(self, kappa):
        top = _hankel_cutoff(kappa)
        seams = np.concatenate(([6.0, 2.0 * kappa + 2.0, top], np.arange(6.0, top, 2.0)))
        z = np.concatenate(
            [np.linspace(0.0, 400.0, 8001), seams, np.nextafter(seams, 0.0), np.nextafter(seams, np.inf), [-0.0]]
        )
        z = np.concatenate((z, -z))
        got = _phase_1d(kappa, z, 0)
        assert got.dtype == np.float64 and got.shape == z.shape
        for sign in (-1, 1):
            assert got.tobytes() == np.ascontiguousarray(_phase_1d(kappa, z, sign).real).tobytes()

    # at k = 1/2 the ladder's prefactor Gamma(1) (a/2)^0 is exactly 1: sign 0
    # takes J_0 alone, evaluates no J_1, and keeps the values of the
    # prefactor times the recurrence's J_0 bit for bit
    def test_half_integer_even_part_is_j0_alone(self, monkeypatch):
        z = np.concatenate((np.linspace(-400.0, 400.0, 8001), np.nextafter(6.0, [0.0, np.inf])))
        big = np.abs(z) > 6.0
        az = np.abs(z[big])
        want = kernel_module._prefactor(0.5, az) * kernel_module._bessel_pair_ladder(0.5, az)[0]
        full = _phase_1d(0.5, z, -1)
        monkeypatch.setattr(kernel_module.sps, "j1", lambda a: pytest.fail("sign 0 evaluated J_1"))
        got = _phase_1d(0.5, z, 0)
        assert got[big].tobytes() == want.tobytes()
        assert got.tobytes() == np.ascontiguousarray(full.real).tobytes()

    def test_series_ladder_seam_is_smooth(self):
        # the evaluator switches algorithms at a |z| cutoff; a fine sweep
        # across the seam must not show a jump above root precision
        for kappa in (0.5, 1.0, 2.5, 4.0):
            cutoff = max(6.0, 2.0 * kappa + 2.0)
            z = np.linspace(cutoff - 0.05, cutoff + 0.05, 401)
            vals = np.array([kernel_1d(kappa, 1.0, zz) for zz in z])
            steps = np.abs(np.diff(vals))
            assert np.max(steps) < 5.0 * np.median(steps) + 1e-12

    @given(st.floats(0.0, 4.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    def test_real_kernel_positive_and_growth_bounded(self, kappa, x, y):
        v = kernel_real_1d(kappa, x, y)
        assert 0.0 < v <= math.exp(abs(x) * abs(y)) * (1.0 + 1e-12)

    def test_rejects_negative_multiplicity(self):
        with pytest.raises(DomainError):
            kernel_1d(-0.5, 1.0, 1.0)

    def test_too_large_multiplicity_raises_domain_error(self):
        # the series' Gamma(m + kappa + 3/2) overflows at m = 29 from kappa = 142
        # on, the Bessel prefactor's Gamma(kappa + 1/2) from kappa = 171.1
        assert abs(kernel_1d(141.0, 1.0, 1.0)) <= 1.0
        assert math.isfinite(kernel_real_1d(141.0, 1.0, 1.0))
        for fn in (kernel_1d, kernel_real_1d):
            with pytest.raises(DomainError, match="too large"):
                fn(142.0, 1.0, 1.0)
            with pytest.raises(DomainError, match="too large"):
                fn(172.0, 1.0, 100.0)


class TestProductStructure:
    def test_nd_kernel_factors_over_axes(self, rng):
        cfg = make_config(2, [0.7, 1.3])
        for _ in range(10):
            x = rng.uniform(-3, 3, size=2)
            y = rng.uniform(-3, 3, size=2)
            expected = kernel_1d(0.7, x[0], y[0]) * kernel_1d(1.3, x[1], y[1])
            np.testing.assert_allclose(kernel_nd(cfg, x, y), expected, rtol=1e-13)

    def test_real_nd_kernel_factors_over_axes(self, rng):
        cfg = make_config(2, [0.5, 2.0])
        x = rng.uniform(-2, 2, size=2)
        y = rng.uniform(-2, 2, size=2)
        expected = kernel_real_1d(0.5, x[0], y[0]) * kernel_real_1d(2.0, x[1], y[1])
        np.testing.assert_allclose(kernel_real_nd(cfg, x, y), expected, rtol=1e-13)

    def test_dimension_mismatch(self):
        cfg = make_config(2, [0.5, 0.5])
        with pytest.raises(DomainError):
            kernel_nd(cfg, [1.0], [1.0, 2.0])


class TestOperatorEigenRelation:
    def test_kernel_is_eigenfunction(self):
        # T applied in the first slot multiplies by -i times the second slot;
        # the operator uses a finite-difference stencil, hence the loose tol
        kappa, y = 0.75, 1.4

        def f(x):
            return kernel_1d(kappa, x, y)

        for x in (0.6, 1.1, 2.3):
            got = dunkl_operator_1d(kappa, f, x)
            np.testing.assert_allclose(got, -1j * y * f(x), rtol=2e-6, atol=2e-8)

    # the free case, the series, the ladder, the jv panels and the Hankel zone
    @pytest.mark.parametrize("kappa", [0.0, 0.5, 1.5, 0.3, 12.3])
    def test_array_argument_equals_the_scalar_calls(self, kappa):
        xs = np.array([-7.3, -1.1, -0.3, 0.3, 1.1, 4.0, 25.0, 60.0])
        ys = np.array([0.5, 2.0, 1.4, -3.0, 9.0, 2.2, 1.9, -4.5])
        config = make_config(1, [kappa])
        got = dunkl_operator_1d(kappa, lambda s: _kernel_pairs(config, s[:, None], ys[:, None]), xs)
        want = [dunkl_operator_1d(kappa, lambda s, y=y: kernel_1d(kappa, s, y), x) for x, y in zip(xs.tolist(), ys)]
        assert {type(w) for w in want} == {complex}
        assert got.shape == xs.shape and got.tobytes() == np.array(want).tobytes()

    def test_zero_anywhere_in_an_array_raises(self):
        with pytest.raises(DomainError, match="undefined at x = 0"):
            dunkl_operator_1d(0.5, np.cos, np.array([0.3, 0.0, 1.0]))
        with pytest.raises(DomainError, match="undefined at x = 0"):
            dunkl_operator_1d(0.5, np.cos, -0.0)

    # a nan or inf x would come back as nan with RuntimeWarnings
    @pytest.mark.parametrize(
        "x", [math.nan, math.inf, -math.inf, np.array([0.3, math.nan, 1.0])], ids=["nan", "inf", "-inf", "array"]
    )
    @pytest.mark.filterwarnings("error")
    def test_non_finite_x_raises_before_f_is_called(self, x):
        with pytest.raises(DomainError, match="finite x"):
            dunkl_operator_1d(0.5, lambda s: pytest.fail("f was called"), x)
