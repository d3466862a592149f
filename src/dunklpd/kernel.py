"""Rank-1 Dunkl kernel for Z_2 and its tensor product over axes.

With z = x*y, the kernel at imaginary second argument splits into even and
odd parts,

  E_k(x, -iy) = A_k(z) - i B_k(z)
  A_k(z) = Gamma(k+1/2) (|z|/2)^(1/2-k) J_{k-1/2}(|z|)
  B_k(z) = sign(z) Gamma(k+1/2) (|z|/2)^(1/2-k) J_{k+1/2}(|z|).

Small arguments, |z| <= 6, go through the normalized power series; beyond
that cutoff the Bessel product form is used, with explicit sine/cosine
ladders replacing the generic Bessel routine whenever 2k is an integer and
|z| > 2k + 2 (the forward recurrence is stable there, with |z| above the
largest order).  Every other argument takes the generic branch: at a ladder
k above 2 that is 6 < |z| <= 2k + 2, where the series would cancel (its
terms reach the hundreds at k = 8).  Its jv zone, 6 < |z| < max(20, (k + 1/2)^2),
is tabulated by piecewise Chebyshev interpolation (Trefethen, Approximation
Theory and Approximation Practice, ch. 8; DLMF 3.11): panels of width 2 from
|z| = 6, the last one ending exactly at the zone's top, each of degree 24 and
interpolated from scipy's jv at its Chebyshev points.  A panel is built on
first use and cached per (k, panel), so the cost follows the arguments seen.
The panels are read in one pass: each argument takes its panel's index and
bounds, and one Clenshaw recurrence runs over all of them, each term
spreading its panels' coefficients over their runs of arguments.
The panels hold the even and odd parts themselves, not J, so they keep their
relative accuracy where J_{k-1/2}(|z|) rises steeply (|z| below k).  From the
zone's top on, J comes from the Hankel large-argument expansion
(DLMF 10.17.3).  At k = 0 the kernel is exp(-i z).

Each series sums only the terms its arguments need.  The power series
takes the fewest terms, at most 30, whose tails stay below 1e-19 at its
cutoff (22 at k = 0 and |z| <= 6).  The Hankel zone is summed in bands of
doubling |z|, [top, 2 top), [2 top, 4 top), ..., each to the fewest terms,
at most 20, whose first one left out is below 1e-18 at the band's bottom:
at k = 0.3, 17 terms from |z| = 20, 8 from 40 and 5 from 160.  Both counts
follow from the argument's value or the zone alone, never from the other
arguments of a batch, so every branch stays elementwise.

The real-argument kernel E_k(x, y) is the same pair with J replaced by the
modified Bessel I, so it grows like exp(|z|).  Its scaled form
exp(-|z|) E_k(x, y) is exp(z - |z|) at k = 0.  Otherwise it is the power
series without alternating signs below the cutoff, and past it
  Gamma(k+1/2) (a/2)^(1/2-k) e^-a (I_{k-1/2}(a) + sign(z) I_{k+1/2}(a)),  a = |z|,
with the exponentially scaled scipy.special.ive, per element, below
max(40, (k + 1/2)^2) and the large-argument expansion (DLMF 10.40.1) from
there on:
  e^-a (I_{k-1/2}(a) +- I_{k+1/2}(a))
    ~ (2 pi a)^(-1/2) sum_m (-1)^m (a_m(k-1/2) +- a_m(k+1/2)) / a^m,
24 terms, with the coefficients a_m(nu) of DLMF 10.17.1 that the Hankel
branch also uses.  Taking the difference in the coefficients avoids the
cancellation of two ive values at negative z.  E_k(x, y) is exp(|z|) times
the scaled form, or e^z at k = 0.  The ive zone is not tabulated like the jv
zone: at negative z its two values cancel to about k/a of their size, so
either way the result carries errors of some 5e-14 relative at a near 40,
and panels interpolated from those differences move the error to where the
expansion takes over (6.8e-14 one ulp below a = 40 at k = 0.3, against
5e-15 per element).

The d-dimensional kernel is the coordinatewise product.

As a function of real z = x*y the phase has the conjugate parity
A_k(-z) - i B_k(-z) = conj(A_k(z) - i B_k(z)), since A_k is even and B_k
odd (Rosler, Dunkl operators: theory and applications, LNM 1817).  Every
branch keeps it exactly in floating point: the even part is computed from
|z| or z^2, the odd part as sign(z), z/2 or sin(z) times an even function.
transform._axis_matrices relies on this to evaluate only the nonnegative
half of a mirrored axis.  transform._blocked_scatter relies on it a second
time: over an integrand even by construction on mirrored nodes the odd part
cancels in closed form, so its folded sums contract A_k alone, or
A_k(yc) A_k(xc) + B_k(yc) B_k(xc) with a shift, in real arithmetic.
_phase_1d at sign 0 returns that real even part A_k alone, bit for bit the
real part at either sign: every branch then evaluates only its even column
(cos at k = 0, the even series, the even panel column, P and Q of the lower
order in the Hankel expansion), and the ladder drops the odd order after its
recurrence, or at k = 1/2 takes J_0 alone (its prefactor is exactly 1).

Every polynomial (the power series, the Hankel and large-argument I
expansions, the jv panels) is evaluated in place by _horner and _clenshaw,
which do the products and sums of numpy.polynomial's polyval and chebval
in the same order, so the values are the same bit for bit, without two
temporaries per term.

Every evaluator is elementwise, on the arguments it is handed: the route
decides how often a value is computed (transform._axis_matrices evaluates a
symmetric block on its upper triangle and a translate's shift rows apart
from its outputs), and nothing deduplicates by value.  Only the generic pair
orders its arguments, since it reads its panels and Hankel bands as
contiguous runs of ascending |z|: one argsort, the pair on the sorted values,
and a scatter back.  One pass of the benchmark's generic-kappa workload hands
it 632,648 arguments, 628,441 of them distinct, so a search for repeats would
find almost none.  Each value depends on its own argument only, so the result
is bit-identical to evaluating every element alone.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import special as sps

from .errors import DomainError
from .root_system import MultiplicityConfig, _in_range, _real_points

_SERIES_TERMS = 30
_SERIES_TAIL = 1e-19
_SERIES_CUTOFF = 6.0
_LADDER_MAX_KAPPA = 8.0
_HANKEL_TERMS = 20
_HANKEL_TAIL = 1e-18
_HANKEL_MIN_ARG = 20.0
_I_EXPANSION_TERMS = 24
_I_EXPANSION_MIN_ARG = 40.0
_PANEL_WIDTH = 2.0
_PANEL_DEGREE = 24
_REAL_MAX_ARG = float(np.log(np.finfo(float).max))  # the real kernel's domain: exp(|z|) finite


def _check_kappa(kappa: float) -> float:
    if not _in_range(kappa, 0.0, math.inf, closed=True):
        raise DomainError(f"multiplicity must be finite and >= 0, got {kappa!r}")
    return float(kappa)


def _gamma(x: float) -> float:
    try:
        return math.gamma(x)
    except OverflowError:  # from kappa = 142 in the series, from 171.1 in the Bessel prefactor
        raise DomainError(f"multiplicity too large: Gamma({x}) overflows") from None


@lru_cache(maxsize=256)
def _series_coeffs(kappa: float, alternating: bool) -> np.ndarray:
    """Read-only (terms, 2) block: the even and the odd series of _series, as
    polynomials in (z/2)^2, with alternating signs for E_k(x, -iy)."""
    g = _gamma(kappa + 0.5)
    block = np.empty((_SERIES_TERMS, 2))
    for m in range(_SERIES_TERMS):
        fact = math.factorial(m)
        block[m] = g / (fact * _gamma(m + kappa + 0.5)), g / (fact * _gamma(m + kappa + 1.5))
    if alternating:
        block *= ((-1.0) ** np.arange(_SERIES_TERMS))[:, None]
    block.flags.writeable = False
    return block


@lru_cache(maxsize=256)
def _series_terms(kappa: float) -> int:
    """The fewest terms, at most _SERIES_TERMS, of both series of _series
    whose tails (the sums of the terms left out) are below 1e-19 at the
    cutoff |z| = 6, and so at every smaller |z|: 22 at k = 0, 20 at k = 2.
    The alternating series have the same terms up to sign.  The terms are
    taken in logs, which no kappa overflows."""
    m = np.arange(3 * _SERIES_TERMS)
    log_term = math.lgamma(kappa + 0.5) - sps.gammaln(m + 1.0) + 2.0 * m * math.log(_SERIES_CUTOFF / 2.0)
    even, odd = (np.exp(log_term - sps.gammaln(m + kappa + shift)) for shift in (0.5, 1.5))
    terms = even + _SERIES_CUTOFF / 2.0 * odd
    tails = np.cumsum(terms[::-1])[::-1][1 : _SERIES_TERMS + 1]  # entry n - 1: the terms from n on
    below = tails < _SERIES_TAIL
    return int(np.argmax(below)) + 1 if below.any() else _SERIES_TERMS


def _horner(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """numpy.polynomial.polynomial.polyval(x, c) evaluated in place: c of shape
    (terms,) or (terms, m), the result of shape c.shape[1:] + x.shape.  The same
    products and sums in the same order, so the same values bit for bit, with
    no temporaries per term."""
    shape = c.shape[1:] + x.shape
    c = c.reshape(c.shape + (1,) * x.ndim)
    out = np.multiply(x, 0, out=np.empty(shape))
    out += c[-1]
    for coef in c[-2::-1]:
        out *= x
        out += coef
    return out


def _clenshaw(x: np.ndarray, c: np.ndarray, runs: np.ndarray) -> np.ndarray:
    """numpy.polynomial.chebyshev.chebval evaluated in place, for at least two
    coefficients, one coefficient block per run of elements: c is a (terms, m,
    len(runs)) table and the 1-D x falls into consecutive runs of those
    lengths, run r evaluated against c[:, :, r].  The result, of shape (m,) +
    x.shape, equals chebval(x[e], c[:, :, r]) element by element: the same
    products and sums in the same order, so the same values bit for bit, in
    three buffers.  Each term spreads its own coefficient row over the runs,
    so the gathered coefficients never exceed one buffer."""
    shape = c.shape[1:2] + x.shape
    row = lambda j: np.repeat(c[j], runs, axis=1)
    x2 = 2 * x
    c0, c1, spare = np.empty(shape), np.empty(shape), np.empty(shape)
    c0[...] = row(-2)
    c1[...] = row(-1)
    for j in range(len(c) - 3, -1, -1):  # c0, c1 <- c[j] - c1, c0 + c1 x2
        np.multiply(c1, x2, out=spare)
        spare += c0
        np.subtract(row(j), c1, out=c0)
        c1, spare = spare, c1
    np.multiply(c1, x, out=spare)
    spare += c0
    return spare


def _bessel_pair_ladder(kappa: float, az: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(J_{k-1/2}(az), J_{k+1/2}(az)) by forward recurrence, for az above
    2k + 2 so every order stays below the argument."""
    target = kappa + 0.5
    if (round(2.0 * kappa)) % 2 == 1:
        lo, hi = sps.j0(az), sps.j1(az)
        order = 1.0
    else:
        pref = np.sqrt(2.0 / (np.pi * az))
        lo, hi = pref * np.cos(az), pref * np.sin(az)
        order = 0.5
    while order < target - 0.25:
        lo, hi = hi, (2.0 * order / az) * hi - lo
        order += 1.0
    return lo, hi


def _expansion_coeffs(nu: float, count: int) -> np.ndarray:
    """a_m(nu) of DLMF 10.17.1 for m < count: the coefficients of the
    large-argument expansions of J_nu (10.17.3) and I_nu (10.40.1)."""
    a = np.empty(count)
    a[0] = 1.0
    for m in range(1, count):
        a[m] = a[m - 1] * (4.0 * nu * nu - (2 * m - 1) ** 2) / (8.0 * m)
    return a


@lru_cache(maxsize=128)
def _hankel_coeffs(kappa: float) -> np.ndarray:
    """Columns P_lo, Q_lo, P_hi, Q_hi of DLMF 10.17.3 for the orders
    k -+ 1/2, as polynomials in 1/z^2 (Q without its leading 1/z)."""
    cols = []
    for nu in (kappa - 0.5, kappa + 0.5):
        a = _expansion_coeffs(nu, 2 * _HANKEL_TERMS)
        signs = (-1.0) ** np.arange(_HANKEL_TERMS)
        cols += [a[0::2] * signs, a[1::2] * signs]
    return np.stack(cols, axis=1)


@lru_cache(maxsize=128)
def _scaled_i_coeffs(kappa: float) -> np.ndarray:
    """Columns for sqrt(2 pi a) e^-a (I_{k-1/2}(a) + I_{k+1/2}(a)) and for
    the same with -, as polynomials in 1/a (DLMF 10.40.1)."""
    lo = _expansion_coeffs(kappa - 0.5, _I_EXPANSION_TERMS)
    hi = _expansion_coeffs(kappa + 0.5, _I_EXPANSION_TERMS)
    signs = (-1.0) ** np.arange(_I_EXPANSION_TERMS)
    return np.stack((signs * (lo + hi), signs * (lo - hi)), axis=1)


@lru_cache(maxsize=128)
def _hankel_band_terms(kappa: float) -> tuple[int, ...]:
    """Rows of _hankel_coeffs taken by band b of the Hankel zone,
    [top 2^b, top 2^(b+1)) with top = max(20, (k + 1/2)^2): the fewest whose
    first terms left out, a_m(nu) / z^m of P and Q at both orders, are below
    1e-18 at the band's bottom, and at most _HANKEL_TERMS.  The terms fall
    as z grows, so the bottom is the band's worst case.  The last band, the
    first to take one row (or the 64th), runs on to infinity."""
    a = np.maximum(*(np.abs(_expansion_coeffs(nu, 2 * _HANKEL_TERMS)) for nu in (kappa - 0.5, kappa + 0.5)))
    bottoms = _jv_top(kappa) * 2.0 ** np.arange(64.0)[:, None]
    # band b, n rows: the larger of the first P and Q terms left out
    left_out = (a * bottoms ** -np.arange(a.size)).reshape(len(bottoms), -1, 2).max(axis=2)
    fits = left_out[:, 1:] < _HANKEL_TAIL
    terms = np.where(fits.any(axis=1), fits.argmax(axis=1) + 1, _HANKEL_TERMS)
    last = int(np.argmax(terms == 1)) if terms[-1] == 1 else len(terms) - 1
    return tuple(terms[: last + 1].tolist())


def _bessel_pair_hankel(kappa: float, az: np.ndarray, odd: bool, terms: int) -> tuple[np.ndarray, ...]:
    """(J_{k-1/2}(az), J_{k+1/2}(az)) by the large-argument expansion
    J_nu(z) = sqrt(2/(pi z)) (cos(w) P - sin(w) Q), w = z - (nu/2 + 1/4) pi,
    summed to the first `terms` rows of _hankel_coeffs, or (J_{k-1/2}(az),)
    alone, from P_lo and Q_lo, unless odd.  For the order k + 1/2 the phase
    is w - pi/2, so one cos/sin of az serves both orders."""
    phi = 0.5 * math.pi * kappa
    c, s = np.cos(az), np.sin(az)
    cw = c * math.cos(phi) + s * math.sin(phi)
    sw = s * math.cos(phi) - c * math.sin(phi)
    coeffs = _hankel_coeffs(kappa)[:terms]
    p_lo, q_lo, *hi = _horner(1.0 / (az * az), coeffs if odd else coeffs[:, :2])
    amp = np.sqrt(2.0 / (np.pi * az))
    lo = amp * (cw * p_lo - sw * q_lo / az)
    if not odd:
        return (lo,)
    p_hi, q_hi = hi
    return lo, amp * (sw * p_hi + cw * q_hi / az)


def _prefactor(kappa: float, a: np.ndarray) -> np.ndarray:
    """Gamma(k+1/2) (a/2)^(1/2-k), which turns J_{k-+1/2}(a) into the
    kernel's even and odd parts and ive_{k-+1/2}(a) into its scaled form.
    Only where the power alone underflows (large k and a) is it taken in logs."""
    power = (a / 2.0) ** (0.5 - kappa)
    out = _gamma(kappa + 0.5) * power
    low = power < sys.float_info.min  # lost before Gamma(k+1/2) scales it back into range
    if np.any(low):
        out = np.where(low, np.exp(math.lgamma(kappa + 0.5) + (0.5 - kappa) * np.log(a / 2.0)), out)
    return out


def _jv_top(kappa: float) -> float:
    return max(_HANKEL_MIN_ARG, (kappa + 0.5) ** 2)


def _panel_bounds(kappa: float, index):
    """Bounds of panel index (or an array of them) of the jv zone [6, top): width 2, the last ending at top."""
    lo = _SERIES_CUTOFF + _PANEL_WIDTH * index
    return lo, np.minimum(lo + _PANEL_WIDTH, _jv_top(kappa))


@lru_cache(maxsize=4096)
def _jv_panel(kappa: float, index: int) -> np.ndarray:
    """Read-only (degree + 1, 2) Chebyshev coefficients of the kernel's even
    part and its odd part over sign(z) on one panel of the jv zone,
    interpolated from jv at the panel's Chebyshev points.  The parts, not J
    itself, are tabulated: J_nu(a) grows like a^nu below a ~ nu, so a table
    of J would lose relative accuracy there at large k."""
    lo, hi = _panel_bounds(kappa, index)

    def pair(t):
        a = 0.5 * (lo + hi) + 0.5 * (hi - lo) * t
        return (_prefactor(kappa, a) * np.stack((sps.jv(kappa - 0.5, a), sps.jv(kappa + 0.5, a)))).T

    coeffs = np.polynomial.chebyshev.chebinterpolate(pair, _PANEL_DEGREE)
    coeffs.flags.writeable = False
    return coeffs


def _jv_tabulated(kappa: float, a: np.ndarray, odd: bool) -> np.ndarray:
    """The even part from _jv_panel at ascending a in (6, top), and the odd
    part over sign(z) if odd: a (2, n) or (1, n) array.  Each element takes the
    index of its panel and its t from that panel's bounds, and one Clenshaw
    pass evaluates every element against its own panel; the touched panels
    are built on first use.  Each value depends on its own argument only, so
    it equals evaluating that element alone."""
    cols = 2 if odd else 1
    if not a.size:
        return np.empty((cols, 0))
    count = math.ceil((_jv_top(kappa) - _SERIES_CUTOFF) / _PANEL_WIDTH)
    index = np.searchsorted(_SERIES_CUTOFF + _PANEL_WIDTH * np.arange(1, count), a, side="right")
    lo, hi = _panel_bounds(kappa, index)
    t = (2.0 * a - (lo + hi)) / (hi - lo)
    starts = np.flatnonzero(np.diff(index, prepend=-1))  # a ascends, so each panel's elements are one run
    table = np.stack([_jv_panel(kappa, i)[:, :cols] for i in index[starts].tolist()], axis=-1)
    return _clenshaw(t, table, np.diff(starts, append=a.size))


def _bessel_pair_generic(kappa: float, az: np.ndarray, odd: bool) -> np.ndarray:
    """The kernel's even part and its odd part over sign(z), that is the
    prefactor times (J_{k-1/2}(az), J_{k+1/2}(az)), at a 1-D az, as a (2, n)
    array, or the (1, n) even part alone unless odd.  Below
    top = max(20, (k + 1/2)^2) they come from the Chebyshev panels of
    _jv_panel, from there on from the Hankel expansion, where no term exceeds
    1/2.  That zone is summed in bands [top, 2 top), [2 top, 4 top), ..., each
    to the fewest terms whose first one left out is below 1e-18 at the band's
    bottom (_hankel_band_terms): at k = 0.3, 17 terms from 20, 8 from 40 and 5
    from 160.  The pair runs over the arguments in ascending order, so that one
    search finds where the Hankel zone and each of its bands start, and its
    values are scattered back to az's order.  An argument's band follows from
    its value, so each value still depends on its own argument only."""
    order = np.argsort(az)
    u = az[order]
    terms = _hankel_band_terms(kappa)
    starts = np.searchsorted(u, _jv_top(kappa) * 2.0 ** np.arange(len(terms))).tolist() + [u.size]
    vals = np.empty((2 if odd else 1, u.size))
    vals[:, : starts[0]] = _jv_tabulated(kappa, u[: starts[0]], odd)
    for start, end, n in zip(starts, starts[1:], terms):
        if end > start:
            vals[:, start:end] = _bessel_pair_hankel(kappa, u[start:end], odd, n)
    vals[:, starts[0] :] *= _prefactor(kappa, u[starts[0] :])
    out = np.empty_like(vals)
    out[:, order] = vals
    return out


def _series(kappa: float, z: np.ndarray, alternating: bool, odd: bool = True) -> tuple[np.ndarray, ...]:
    """(even, odd) power series in z/2 of E_k(x, -iy) if alternating, else of
    E_k(x, y), at |z| <= 6; (even,) alone unless odd.  Both are summed to the
    fewest terms whose tails stay below 1e-19 at the cutoff (_series_terms).
    The count follows kappa alone, not the batch, so each value still
    depends on its own argument only."""
    zs = z / 2.0
    coeffs = _series_coeffs(kappa, alternating)[: _series_terms(kappa)]
    if not odd:
        return (_horner(zs * zs, coeffs[:, 0]),)
    even, odd_series = _horner(zs * zs, coeffs)
    return even, zs * odd_series


def _parts(kappa: float, z: np.ndarray, odd: bool = True) -> list:
    """[even, odd] parts of E_k(x, -iy) as functions of z = x*y, or [even]
    alone unless odd: each branch then computes the even part only."""
    z = np.asarray(z, dtype=float)
    if kappa == 0.0:
        return [np.cos(z), np.sin(z)] if odd else [np.cos(z)]
    parts = [np.empty_like(z) for _ in range(2 if odd else 1)]
    small = np.abs(z) <= _SERIES_CUTOFF
    if small.any():
        for part, vals in zip(parts, _series(kappa, z[small], True, odd)):
            part[small] = vals
    # the ladder's forward recurrence is stable once |z| exceeds 2k + 2, above every order
    # it runs through; between the cutoff and there (k > 2 only) the jv panels serve
    ladder = kappa <= _LADDER_MAX_KAPPA and (2.0 * kappa).is_integer()
    rungs = ~small & (np.abs(z) > 2.0 * kappa + 2.0) if ladder else np.zeros_like(small)
    for zone, pair in ((rungs, _ladder_parts), (~small & ~rungs, _bessel_pair_generic)):
        if zone.any():
            vals = pair(kappa, np.abs(z[zone]), odd)
            parts[0][zone] = vals[0]
            if odd:
                parts[1][zone] = np.sign(z[zone]) * vals[1]
    return parts


def _ladder_parts(kappa: float, az: np.ndarray, odd: bool) -> list:
    """The kernel's even part and its odd part over sign(z) at az > 2k + 2 for 2k an
    integer, from the ladder, or the even part alone unless odd."""
    if kappa == 0.5:  # J_0 and J_1 themselves: the prefactor Gamma(1) (a/2)^0 is exactly 1
        return [sps.j0(az), sps.j1(az)] if odd else [sps.j0(az)]
    pref = _prefactor(kappa, az)  # the recurrence needs both orders; the odd one is dropped after it
    return [pref * j for j in _bessel_pair_ladder(kappa, az)[: 2 if odd else 1]]


def _phase_1d(kappa: float, z: np.ndarray, sign: int) -> np.ndarray:
    """E_k(x, sign * i * y) on an array of products z = x*y; at sign 0 the
    real even part A_k(z) alone, the real part at either sign bit for bit."""
    if sign == 0:
        return _parts(kappa, z, odd=False)[0]
    even, odd = _parts(kappa, z)
    return even + 1j * sign * odd


def _real_1d(kappa: float, z: np.ndarray) -> np.ndarray:
    """E_k(x, y) on z = x*y; overflows to inf (or nan) past |z| ~ 710."""
    if kappa == 0.0:
        return np.exp(z)  # exp(|z|) * exp(z - |z|) underflows from z ~ -372 on
    return np.exp(np.abs(z)) * _real_1d_scaled(kappa, z)


def _real_1d_scaled(kappa: float, z: np.ndarray) -> np.ndarray:
    """exp(-|z|) * E_k(x, y) elementwise on z = x*y of any shape, safe for large
    arguments: exp(z - |z|) at k = 0, else the series, the ive form, then the
    DLMF 10.40.1 expansion, where from max(40, (k + 1/2)^2) on no term exceeds
    1/2 and the first one left out is below 1e-23."""
    z = np.asarray(z, dtype=float)
    if kappa == 0.0:
        return np.exp(z - np.abs(z))
    out = np.empty_like(z)
    az = np.abs(z)
    small = az <= _SERIES_CUTOFF
    far = az >= max(_I_EXPANSION_MIN_ARG, (kappa + 0.5) ** 2)
    mid = ~(small | far)
    if small.any():
        even, odd = _series(kappa, z[small], False)
        out[small] = np.exp(-az[small]) * (even + odd)
    if mid.any():
        a = az[mid]
        out[mid] = _prefactor(kappa, a) * (sps.ive(kappa - 0.5, a) + np.sign(z[mid]) * sps.ive(kappa + 0.5, a))
    if far.any():
        a = az[far]
        plus, minus = _horner(1.0 / a, _scaled_i_coeffs(kappa))
        out[far] = _prefactor(kappa, a) / np.sqrt(2.0 * np.pi * a) * np.where(z[far] > 0.0, plus, minus)
    return out


def _point_pair(dimension: int, x, y) -> tuple[np.ndarray, np.ndarray]:
    """x and y of the kernel functions as float arrays of shape (dimension,), their products finite."""
    xa = _real_points(x, "for the kernel's x").reshape(-1)
    ya = _real_points(y, "for the kernel's y").reshape(-1)
    if xa.shape != (dimension,) or ya.shape != (dimension,):
        raise DomainError(f"points must have shape ({dimension},), got {np.shape(x)} and {np.shape(y)}")
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 is nan, refused here
        finite = np.all(np.isfinite(xa * ya))
    if not finite:
        raise DomainError(f"coordinates and their products must be finite, got {xa} and {ya}")
    return xa, ya


def kernel_1d(kappa: float, x: float, y: float) -> complex:
    """Rank-1 kernel E_kappa(x, -iy); |value| <= 1 for real x, y."""
    k = _check_kappa(kappa)
    xa, ya = _point_pair(1, x, y)
    return complex(_phase_1d(k, xa * ya, -1)[0])


def _finite_real(val: float, z) -> float:
    if not math.isfinite(val) or np.max(np.abs(z)) > _REAL_MAX_ARG:
        raise DomainError(
            f"E_kappa(x, y) leaves the float range at x*y = {z}; evaluate the rescaled form "
            "exp(-|x y|) E_kappa(x, y) (kernel._real_1d_scaled), as heat_kernel does"
        )
    return val


def kernel_real_1d(kappa: float, x: float, y: float) -> float:
    """Rank-1 kernel at real arguments, E_kappa(x, y); positive.

    Grows like exp(|x y|), so it overflows past |x y| ~ 710; raises
    DomainError there, for every kappa and either sign of x y."""
    k = _check_kappa(kappa)
    xa, ya = _point_pair(1, x, y)
    z = xa[0] * ya[0]
    # past the overflow point exp(|z|) gives inf, and inf times an underflowed
    # scaled value gives nan; _finite_real turns either into a DomainError
    with np.errstate(over="ignore", invalid="ignore"):
        val = float(_real_1d(k, np.asarray(z)))
    return _finite_real(val, z)


def _kernel_pairs(config: MultiplicityConfig, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """E_kappa(x, -iy) at each pair of rows x = xs[j], y = ys[j] of two
    (n, d) arrays, one _phase_1d call per axis."""
    out = np.ones(len(xs), dtype=complex)
    for i, k in enumerate(config.kappa):
        out *= _phase_1d(k, xs[:, i] * ys[:, i], -1)
    return out


def kernel_nd(config: MultiplicityConfig, x, y) -> complex:
    """Product kernel E_kappa(x, -iy) = prod_i E_{kappa_i}(x_i, -i y_i)."""
    xa, ya = _point_pair(config.dimension, x, y)
    return complex(_kernel_pairs(config, xa[None], ya[None])[0])


def kernel_real_nd(config: MultiplicityConfig, x, y) -> float:
    """Product kernel at real arguments, E_kappa(x, y); raises DomainError
    where it overflows."""
    xa, ya = _point_pair(config.dimension, x, y)
    val = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i, k in enumerate(config.kappa):
            val *= float(_real_1d(k, np.asarray(xa[i] * ya[i])))
    return _finite_real(val, (xa * ya).tolist())


_DIFF_STEP = 0.01


def dunkl_operator_1d(kappa: float, f: Callable, x):
    """Rank-1 Dunkl operator T f(x) = f'(x) + kappa * (f(x) - f(-x)) / x.

    The derivative is a Richardson-extrapolated central difference with
    steps h = _DIFF_STEP and h/2 (error O(h^4)).  Satisfies the eigenrelation
    T E(., -iy)(x) = -iy E(x, -iy).  x may be an array, f then taking arrays
    of its shape; a scalar x returns a complex, an array's entry bit for bit.
    An x of 0, nan or inf anywhere raises DomainError before f is called.
    """
    k = _check_kappa(kappa)
    xv = _real_points(x, "for the operator's x")
    if np.any(xv == 0.0):
        raise DomainError("dunkl_operator_1d is undefined at x = 0 (reflection difference quotient)")
    if not np.all(np.isfinite(xv)):
        raise DomainError("dunkl_operator_1d needs a finite x (found nan or inf)")
    g = lambda s: np.asarray(f(s), dtype=complex)

    def central(step):
        return (g(xv + step) - g(xv - step)) / (2.0 * step)

    deriv = (4.0 * central(_DIFF_STEP / 2.0) - central(_DIFF_STEP)) / 3.0
    out = deriv + k * (g(xv) - g(-xv)) / xv
    return complex(out) if out.ndim == 0 else out
