"""Complex special functions with explicit accuracy control.

Contents: a vectorized principal-branch log-gamma (Stirling series through
B_20 past a threshold derived from its remainder bound, recursion shifts
per element with one log for every two steps, reflection, in fixed-size
blocks so that memory stays bounded and no result depends on the array's
shape), the Hurwitz and Riemann zeta functions by Euler-Maclaurin with a
computable remainder bound, the log gamma factor of an L-function, the
Bessel function J of imaginary order 2it by its ascending series, and the
one guard on mpmath's working precision.

Gamma factors.  Every gamma factor here is a product of
Gamma_R(s + kappa) = pi^{-(s+kappa)/2} Gamma((s+kappa)/2) over a tuple of
shifts kappa_1..kappa_d (Iwaniec-Kowalski, Analytic Number Theory, 5.2),
without the constants pi^{-kappa/2}:

    gamma_factor_log(s, kappa) = log pi^{-ds/2} prod_j Gamma((s + kappa_j)/2).

The degree-2 factor pi^{-s} Gamma((s+it)/2) Gamma((s-it)/2) has shifts
(-it, it); the degree-6 tensor factor of spectral parameter t with a form
of archimedean parameters mu has the six shifts -mu_i -+ it; the degree-3
factor has the shifts -mu_i.  Products are assembled in log space; callers
that need ratios subtract logs before exponentiating, so overflow never
enters.  Equal shifts share one log_gamma evaluation: for mu = (0, 0, 0)
the six tensor shifts are three copies of (-it, it).

mpmath precision.  mpmath's working precision is process-global.  Every
evaluation in this package that sets it does so through _mp_precision,
which holds one lock for the duration, so threaded callers stay correct and
bitwise deterministic whatever the thread count.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from fractions import Fraction

import mpmath as mp
import numpy as np

__all__ = [
    "PoleError",
    "RegimeError",
    "log_gamma",
    "zeta",
    "zeta_with_error",
    "gamma_factor_log",
    "bessel_imag_order",
]


class PoleError(ValueError):
    """Evaluation requested exactly at a pole of the function."""


class RegimeError(ValueError):
    """Arguments outside the validated regime of the chosen algorithm."""


_BERNOULLI = {
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
    18: Fraction(43867, 798),
    20: Fraction(-174611, 330),
    22: Fraction(854513, 138),
    24: Fraction(-236364091, 2730),
    26: Fraction(8553103, 6),
}

# B_{2n} / ((2n)(2n-1)) for the Stirling tail, n = 1..10
_STIRLING_C = np.array(
    [float(_BERNOULLI[2 * n] / (2 * n * (2 * n - 1))) for n in range(1, 11)]
)

# Where _stirling_shifted stops recursing: the smallest |w| at which the
# remainder bound after B_20 (see its docstring) is _STIRLING_TARGET.
_STIRLING_TARGET = 1e-17
_STIRLING_MIN_ABS = (float(abs(_BERNOULLI[22]) / (22 * 21)) * 2.0**11 / _STIRLING_TARGET) ** (1 / 21)

_BLOCK = 4096  # points per pass of log_gamma, so its temporaries stay ~64 KB each

# B_{2k} / (2k)! for Euler-Maclaurin, k = 1..13
_EM_C = np.array(
    [float(_BERNOULLI[2 * k] / math.factorial(2 * k)) for k in range(1, 14)]
)
_EM_TERMS = 12  # K, the Euler-Maclaurin correction terms summed; _EM_C[K] bounds the rest

_LOG_2PI = math.log(2.0 * math.pi)


def _step_past_threshold(w: np.ndarray) -> np.ndarray:
    """Step each element of w (in place, Re w >= 1/2) by w -> w + 1 until
    |w| >= _STIRLING_MIN_ABS, and return the sum of log w over the steps.

    At most 10 steps, none where |w| is already past the threshold, on an
    active set that shrinks as elements leave it.  |w + k| grows with k on
    Re w > 0, so the steps are two at a time, log(w (w + 1)) for one log
    where w + 1 is still below the threshold, and a single log w where it
    is not.  The phases of w and w + 1 share the sign of Im w and lie in
    (-pi/2, pi/2), so their sum stays in (-pi, pi) and the principal log of
    the product is the sum of the two principal logs; the product adds one
    rounding, ~2e-16 absolute in the log.  Its temporaries end with the
    call, before the Stirling series allocates its own.
    """
    rec = np.zeros_like(w)
    active = np.flatnonzero(np.abs(w) < _STIRLING_MIN_ABS)
    while active.size:
        wa = w[active]
        up = wa + 1.0
        pair = np.abs(up) < _STIRLING_MIN_ABS
        # products out of place, then copied in: an in-place complex multiply
        # rounds differently on short arrays, and no value may depend on the
        # shape.  At most three block-sized arrays are alive at once
        np.copyto(wa, wa * up, where=pair)
        rec[active] += np.log(wa, out=wa)
        np.copyto(up, up + 1.0, where=pair)
        w[active] = up
        active = active[np.abs(up) < _STIRLING_MIN_ABS]
    return rec


def _stirling_shifted(w: np.ndarray) -> np.ndarray:
    """log Gamma on Re w >= 1/2: upward recursion into |w| >= _STIRLING_MIN_ABS
    (_step_past_threshold), then the Stirling series through B_20.

    The remainder after B_20 is at most the first omitted term times
    sec^22(ph(w)/2) (DLMF 5.11(ii)).  Re w >= 1/2 keeps |ph w| < pi/2, so the
    factor is below sec^22(pi/4) = 2^11 and

        |R(w)| <= |B_22| / (22 * 21) * 2^11 / |w|^21 = 27449 / |w|^21.

    That is _STIRLING_TARGET = 1e-17 at |w| = _STIRLING_MIN_ABS = 10.49 (the
    truncation there, against mpmath, is 5e-21), far below the rounding of
    the leading term, ~|w log w| 2^-53 ~ 3e-15 there.
    """
    w = w.copy()
    rec = _step_past_threshold(w)
    r = 1.0 / w
    r2 = r * r
    tail = np.zeros_like(w)
    for c in _STIRLING_C[::-1]:
        tail = tail * r2 + c
    tail = tail * r
    return (w - 0.5) * np.log(w) - w + 0.5 * _LOG_2PI + tail - rec


def _log_sin_pi(z: np.ndarray) -> np.ndarray:
    """log sin(pi z), overflow-free for large |Im z|.

    Factor out the exponentially large half of sin and take the log of the
    remaining 1 - e^{+-2 pi i z}, whose modulus is at most 1.
    """
    out = np.empty_like(z)
    up = z.imag >= 0
    zu = z[up]
    out[up] = 1j * np.pi / 2 - math.log(2.0) - 1j * np.pi * zu + np.log(1 - np.exp(2j * np.pi * zu))
    zd = z[~up]
    out[~up] = -1j * np.pi / 2 - math.log(2.0) + 1j * np.pi * zd + np.log(1 - np.exp(-2j * np.pi * zd))
    return out


def log_gamma(z):
    """Principal-branch log Gamma, vectorized over complex arrays.

    The result rounds at its own size, so its absolute error grows like
    |z log z| 2^-53 (measured up to 2.4 times that on |z| <= 1e6): 1.5e-11
    at z = 1 + 10^4 i, one ulp of Im log Gamma ~ 8e4 there.  exp(result)
    carries that error as a relative one.  Nonpositive integers raise
    PoleError.  On Re z < 1/2 the reflection
    formula is used, which can offset the imaginary part by a multiple of
    2 pi i relative to the continued principal branch; every consumer in
    this package exponentiates differences of these logs, where such
    offsets cancel or are irrelevant.  Points are evaluated in blocks of
    _BLOCK, each element on its own, so the result for a point does not
    depend on the shape or size of the array it arrives in.
    """
    z_arr = np.asarray(z, dtype=complex)
    zf = z_arr.reshape(-1)
    out = np.empty(zf.shape, dtype=complex)
    for lo in range(0, zf.size, _BLOCK):
        out[lo : lo + _BLOCK] = _log_gamma_block(zf[lo : lo + _BLOCK])
    return complex(out[0]) if z_arr.ndim == 0 else out.reshape(z_arr.shape)


def _log_gamma_block(z: np.ndarray) -> np.ndarray:
    poles = (z.imag == 0) & (z.real <= 0) & (z.real == np.rint(z.real))
    if np.any(poles):
        raise PoleError(f"log_gamma pole at z = {z[poles][:3]}")
    refl = z.real < 0.5
    lg = _stirling_shifted(np.where(refl, 1.0 - z, z))
    if np.any(refl):
        lg[refl] = math.log(math.pi) - _log_sin_pi(z[refl]) - lg[refl]
    return lg


def zeta_with_error(s, a=1.0):
    """Hurwitz zeta(s, a) = sum_{n>=0} (n + a)^{-s} by Euler-Maclaurin with an
    explicit remainder bound; a = 1 is the Riemann zeta function.

    With q = N - 1 + a,

    zeta(s, a) = sum_{n<N-1} (n+a)^{-s} + q^{1-s}/(s-1) + q^{-s}/2
                 + sum_{k<=K} B_{2k}/(2k)! (s)_{2k-1} q^{-s-2k+1} + R_K,
    |R_K| <= |s + 2K + 1| / (sigma + 2K + 1) * |first omitted term|.

    N grows with max |Im s| over the batch so the correction terms contract
    by ~(|s|/2 pi q)^2 ~ 1e-2 per order; K = 12 then leaves the remainder
    far below double precision.  a must be a positive real.  Returns
    (value, bound) with the shape of s.
    """
    a = float(a)
    if not a > 0.0:
        raise ValueError(f"Hurwitz parameter must be positive, got {a}")
    s_arr = np.asarray(s, dtype=complex)
    scalar = s_arr.ndim == 0
    sf = np.atleast_1d(s_arr).ravel().astype(complex)
    if np.any(sf == 1):
        raise PoleError("zeta pole at s = 1")
    K = _EM_TERMS
    if np.any(sf.real + 2 * K + 1 <= 0):
        raise RegimeError("Euler-Maclaurin remainder bound needs Re s > -(2K+1)")

    N = int(max(24, math.ceil(1.5 * (np.max(np.abs(sf.imag)) + 10.0))))
    log_n = np.log(np.arange(N - 1) + a)
    value = np.zeros_like(sf)
    for lo in range(0, sf.size, 512):
        chunk = sf[lo : lo + 512]
        value[lo : lo + 512] = np.exp(-chunk[:, None] * log_n[None, :]).sum(axis=1)

    q = N - 1 + a
    npow = np.exp(-sf * math.log(q))  # q^{-s}
    value += npow * q / (sf - 1.0) + 0.5 * npow

    poch = sf.copy()  # (s)_{2k-1}, starting at k=1
    for k in range(1, K + 1):
        term = _EM_C[k - 1] * poch * npow * q ** (1 - 2 * k)
        value += term
        poch = poch * (sf + (2 * k - 1)) * (sf + 2 * k)
    first_omitted = np.abs(_EM_C[K] * poch * npow) * q ** (-1 - 2 * K)
    bound = np.abs(sf + 2 * K + 1) / (sf.real + 2 * K + 1) * first_omitted

    value = value.reshape(s_arr.shape) if not scalar else value[0]
    bound = bound.reshape(s_arr.shape) if not scalar else float(bound[0])
    return (complex(value), bound) if scalar else (value, bound)


def zeta(s):
    return zeta_with_error(s)[0]


def gamma_factor_log(s, shifts) -> np.ndarray:
    """log of pi^{-ds/2} prod_j Gamma((s + kappa_j)/2), d = len(shifts).

    Each shift broadcasts against s, so a column of shifts (one row per t)
    against a row of s gives the factor on a (t, s) matrix.  log_gamma is
    called once per distinct shift (the tensor factor of mu = (0, 0, 0) has
    two, not six), and its result is added once per occurrence in the order
    of `shifts`, so the sum is bit-identical to one call per shift."""
    s = np.asarray(s, dtype=complex)
    out = -(0.5 * len(shifts)) * s * math.log(math.pi)
    seen: list = []  # (shift, its log_gamma) for each distinct shift so far
    for kappa in shifts:
        lg = next((v for k, v in seen if np.array_equal(k, kappa)), None)
        if lg is None:
            lg = log_gamma((s + kappa) / 2)
            seen.append((kappa, lg))
        out = out + lg
    return out


# ---------------------------------------------------------------------------
# mpmath working precision

_MP_LOCK = threading.Lock()


@contextmanager
def _mp_precision(dps: int):
    """mpmath at dps decimal digits, with the lock that serializes every
    precision change in the package held throughout."""
    with _MP_LOCK, mp.workdps(dps):
        yield


# ---------------------------------------------------------------------------
# Bessel functions of order 2it


_SERIES_CAP = 40.0  # largest 2 pi x the alternating series is allowed to digest


def bessel_imag_order(t: float, x: float) -> complex:
    """J_{2it}(2 pi x) by the ascending series, validated for 2 pi x <= 40
    (RegimeError beyond).

    Cancellation burns ~z/ln10 digits of the series at z = 2 pi x and the
    1/Gamma(1+2it) prefactor ~pi t/ln10 more, so the working precision
    scales with both.
    """
    if not x > 0:
        raise RegimeError("argument must be positive")
    z = 2 * math.pi * x
    if z > _SERIES_CAP:
        raise RegimeError(
            f"ascending series not validated for 2 pi x = {z:.2f} > {_SERIES_CAP}"
        )
    dps = 30 + int(0.45 * z) + int(2.8 * abs(t)) + 10
    with _mp_precision(dps):
        nu = mp.mpc(0, 2 * t)
        half = mp.mpf(z) / 2
        q = -half * half
        term = half**nu / mp.gamma(nu + 1)
        total = term
        kmax = max(80, int(3.5 * z))
        tiny = mp.mpf(10) ** (-(dps - 5))
        for k in range(1, kmax + 1):
            term = term * q / (k * (nu + k))
            total += term
            if abs(term) < tiny * (abs(total) + 1):
                break
        return complex(total)
