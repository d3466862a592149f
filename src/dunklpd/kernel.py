"""Rank-1 Dunkl kernel for Z_2 and its tensor product over axes.

With z = x*y, the kernel at imaginary second argument splits into even and
odd parts,

  E_k(x, -iy) = A_k(z) - i B_k(z)
  A_k(z) = Gamma(k+1/2) (|z|/2)^(1/2-k) J_{k-1/2}(|z|)
  B_k(z) = sign(z) Gamma(k+1/2) (|z|/2)^(1/2-k) J_{k+1/2}(|z|).

Small arguments go through the normalized power series; beyond the cutoff
the Bessel product form is used, with explicit sine/cosine ladders replacing
the generic Bessel routine whenever 2k is an integer (the ladder is stable
there because the cutoff keeps |z| above the largest order).  Every other
order takes the generic branch, which evaluates the Bessel pair once per
distinct |z| and gathers the result back (grids are symmetric and callers
pass outer products, so |z| repeats).  There J comes from scipy below
max(20, (k + 1/2)^2) and from the Hankel large-argument expansion
(DLMF 10.17.3) from there on.  At k = 0 the kernel is exp(-i z).

The real-argument kernel E_k(x, y) is the same pair with J replaced by the
modified Bessel I, so it grows like exp(|z|).  Its scaled form
exp(-|z|) E_k(x, y) is the power series without alternating signs below
the cutoff, the exponentially scaled scipy.special.ive beyond it, and
exp(z - |z|) at k = 0; E_k(x, y) is exp(|z|) times that, or e^z at k = 0.
The d-dimensional kernel is the coordinatewise product.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import special as sps

from .errors import DomainError
from .root_system import MultiplicityConfig

_SERIES_TERMS = 30
_SERIES_CUTOFF = 6.0
_LADDER_MAX_KAPPA = 8.0
_HANKEL_TERMS = 20
_HANKEL_MIN_ARG = 20.0
_REAL_MAX_ARG = float(np.log(np.finfo(float).max))  # the real kernel's domain: exp(|z|) finite


def _check_kappa(kappa: float) -> float:
    k = float(kappa)
    if not math.isfinite(k) or k < 0.0:
        raise DomainError(f"multiplicity must be finite and >= 0, got {kappa!r}")
    return k


@lru_cache(maxsize=128)
def _series_coeffs(kappa: float) -> tuple[np.ndarray, np.ndarray]:
    g = math.gamma(kappa + 0.5)
    even = np.empty(_SERIES_TERMS)
    odd = np.empty(_SERIES_TERMS)
    for m in range(_SERIES_TERMS):
        fact = math.factorial(m)
        even[m] = g / (fact * math.gamma(m + kappa + 0.5))
        odd[m] = g / (fact * math.gamma(m + kappa + 1.5))
    return even, odd


def _bessel_pair_ladder(kappa: float, az: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(J_{k-1/2}(az), J_{k+1/2}(az)) by forward recurrence, for az above
    the series cutoff so every order stays below the argument."""
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


@lru_cache(maxsize=128)
def _hankel_coeffs(kappa: float) -> np.ndarray:
    """Columns P_lo, Q_lo, P_hi, Q_hi of DLMF 10.17.3 for the orders
    k -+ 1/2, as polynomials in 1/z^2 (Q without its leading 1/z)."""
    cols = []
    for nu in (kappa - 0.5, kappa + 0.5):
        a = np.empty(2 * _HANKEL_TERMS)
        a[0] = 1.0
        for k in range(1, a.size):
            a[k] = a[k - 1] * (4.0 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k)
        signs = (-1.0) ** np.arange(_HANKEL_TERMS)
        cols += [a[0::2] * signs, a[1::2] * signs]
    return np.stack(cols, axis=1)


def _bessel_pair_hankel(kappa: float, az: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(J_{k-1/2}(az), J_{k+1/2}(az)) by the large-argument expansion
    J_nu(z) = sqrt(2/(pi z)) (cos(w) P - sin(w) Q), w = z - (nu/2 + 1/4) pi.
    For the order k + 1/2 the phase is w - pi/2, so one cos/sin of az
    serves both orders."""
    phi = 0.5 * math.pi * kappa
    c, s = np.cos(az), np.sin(az)
    cw = c * math.cos(phi) + s * math.sin(phi)
    sw = s * math.cos(phi) - c * math.sin(phi)
    p_lo, q_lo, p_hi, q_hi = np.polynomial.polynomial.polyval(1.0 / (az * az), _hankel_coeffs(kappa))
    amp = np.sqrt(2.0 / (np.pi * az))
    return amp * (cw * p_lo - sw * q_lo / az), amp * (sw * p_hi + cw * q_hi / az)


def _bessel_pair_generic(kappa: float, az: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(J_{k-1/2}(az), J_{k+1/2}(az)), computed once per distinct argument
    (grid axes are symmetric and consumers pass outer products, so
    arguments repeat).  J switches to the Hankel expansion from
    max(20, (k + 1/2)^2) on: there no term exceeds 1/2 and the first one
    left out is below 1e-18."""
    u, back = np.unique(az, return_inverse=True)
    split = np.searchsorted(u, max(_HANKEL_MIN_ARG, (kappa + 0.5) ** 2))
    near = u[:split]
    far_lo, far_hi = _bessel_pair_hankel(kappa, u[split:])
    lo = np.concatenate((sps.jv(kappa - 0.5, near), far_lo))
    hi = np.concatenate((sps.jv(kappa + 0.5, near), far_hi))
    return lo[back], hi[back]


def _series(kappa: float, z: np.ndarray, alternating: bool) -> tuple[np.ndarray, np.ndarray]:
    """(even, odd) power series in z/2 of E_k(x, -iy) if alternating, else of E_k(x, y)."""
    ce, co = _series_coeffs(kappa)
    if alternating:
        signs = (-1.0) ** np.arange(_SERIES_TERMS)
        ce = ce * signs
        co = co * signs
    zs = z / 2.0
    q = zs * zs
    return np.polynomial.polynomial.polyval(q, ce), zs * np.polynomial.polynomial.polyval(q, co)


def _parts(kappa: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(even, odd) parts of E_k(x, -iy) as functions of z = x*y."""
    z = np.asarray(z, dtype=float)
    if kappa == 0.0:
        return np.cos(z), np.sin(z)
    even = np.empty_like(z)
    odd = np.empty_like(z)
    ladder = kappa <= _LADDER_MAX_KAPPA and (2.0 * kappa).is_integer()
    cutoff = max(_SERIES_CUTOFF, 2.0 * kappa + 2.0) if ladder else _SERIES_CUTOFF
    small = np.abs(z) <= cutoff
    if small.any():
        even[small], odd[small] = _series(kappa, z[small], alternating=True)
    big = ~small
    if big.any():
        az = np.abs(z[big])
        pref = math.gamma(kappa + 0.5) * (az / 2.0) ** (0.5 - kappa)
        lo, hi = (_bessel_pair_ladder if ladder else _bessel_pair_generic)(kappa, az)
        even[big] = pref * lo
        odd[big] = np.sign(z[big]) * pref * hi
    return even, odd


def _phase_1d(kappa: float, z: np.ndarray, sign: int) -> np.ndarray:
    """E_k(x, sign * i * y) on an array of products z = x*y."""
    even, odd = _parts(kappa, z)
    return even + 1j * sign * odd


def _real_1d(kappa: float, z: np.ndarray) -> np.ndarray:
    """E_k(x, y) on z = x*y; overflows to inf (or nan) past |z| ~ 710."""
    if kappa == 0.0:
        return np.exp(z)  # exp(|z|) * exp(z - |z|) underflows from z ~ -372 on
    return np.exp(np.abs(z)) * _real_1d_scaled(kappa, z)


def _real_1d_scaled(kappa: float, z: np.ndarray) -> np.ndarray:
    """exp(-|z|) * E_k(x, y) on z = x*y, safe for large arguments."""
    z = np.asarray(z, dtype=float)
    if kappa == 0.0:
        return np.exp(z - np.abs(z))
    out = np.empty_like(z)
    small = np.abs(z) <= _SERIES_CUTOFF
    if small.any():
        even, odd = _series(kappa, z[small], alternating=False)
        out[small] = np.exp(-np.abs(z[small])) * (even + odd)
    big = ~small
    if big.any():
        az = np.abs(z[big])
        pref = math.gamma(kappa + 0.5) * (az / 2.0) ** (0.5 - kappa)
        out[big] = pref * (sps.ive(kappa - 0.5, az) + np.sign(z[big]) * sps.ive(kappa + 0.5, az))
    return out


def _product(x: float, y: float) -> float:
    z = float(x) * float(y)
    if not math.isfinite(z):
        raise DomainError(f"x, y and x*y must be finite, got x = {x!r}, y = {y!r}")
    return z


def kernel_1d(kappa: float, x: float, y: float) -> complex:
    """Rank-1 kernel E_kappa(x, -iy); |value| <= 1 for real x, y."""
    k = _check_kappa(kappa)
    return complex(_phase_1d(k, np.asarray(_product(x, y)), -1))


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
    z = _product(x, y)
    # past the overflow point exp(|z|) gives inf, and inf times an
    # underflowed scaled value gives nan; _finite_real turns either into a
    # DomainError
    with np.errstate(over="ignore", invalid="ignore"):
        val = float(_real_1d(k, np.asarray(z)))
    return _finite_real(val, z)


def _point_pair(config: MultiplicityConfig, x, y) -> tuple[np.ndarray, np.ndarray]:
    xa = np.asarray(x, dtype=float).reshape(-1)
    ya = np.asarray(y, dtype=float).reshape(-1)
    if xa.shape != (config.dimension,) or ya.shape != (config.dimension,):
        raise DomainError(
            f"points must have shape ({config.dimension},), got {np.shape(x)} and {np.shape(y)}"
        )
    if not np.all(np.isfinite(xa * ya)):
        raise DomainError(f"coordinates and their products must be finite, got {xa} and {ya}")
    return xa, ya


def kernel_nd(config: MultiplicityConfig, x, y) -> complex:
    """Product kernel E_kappa(x, -iy) = prod_i E_{kappa_i}(x_i, -i y_i)."""
    xa, ya = _point_pair(config, x, y)
    val = complex(1.0)
    for i, k in enumerate(config.kappa):
        val *= complex(_phase_1d(k, np.asarray(xa[i] * ya[i]), -1))
    return val


def kernel_real_nd(config: MultiplicityConfig, x, y) -> float:
    """Product kernel at real arguments, E_kappa(x, y); raises DomainError
    where it overflows."""
    xa, ya = _point_pair(config, x, y)
    val = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for i, k in enumerate(config.kappa):
            val *= float(_real_1d(k, np.asarray(xa[i] * ya[i])))
    return _finite_real(val, (xa * ya).tolist())


def dunkl_operator_1d(kappa: float, f: Callable[[float], complex], x: float, h: float = 0.01) -> complex:
    """Rank-1 Dunkl operator T f(x) = f'(x) + kappa * (f(x) - f(-x)) / x.

    The derivative is a Richardson-extrapolated central difference with
    steps h and h/2 (error O(h^4)).  Satisfies the eigenrelation
    T E(., -iy)(x) = -iy E(x, -iy).
    """
    k = _check_kappa(kappa)
    xv = float(x)
    if xv == 0.0:
        raise DomainError("dunkl_operator_1d is undefined at x = 0 (reflection difference quotient)")
    if not (h > 0.0) or not math.isfinite(h):
        raise DomainError(f"step h must be positive and finite, got {h}")

    def central(step):
        return (f(xv + step) - f(xv - step)) / (2.0 * step)

    deriv = (4.0 * central(h / 2.0) - central(h)) / 3.0
    return deriv + k * (f(xv) - f(-xv)) / xv
