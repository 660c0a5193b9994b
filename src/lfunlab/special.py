"""Complex special functions with explicit accuracy control.

Contents: a vectorized principal-branch log-gamma (Stirling series through
B_20 past a threshold derived from its remainder bound, recursion shifts
per element with one log for every two steps, reflection, in fixed-size
blocks so that memory stays bounded and no result depends on the array's
shape), the Hurwitz and Riemann zeta functions by Euler-Maclaurin with a
computable remainder bound, and the log gamma factor of an L-function.
Everything runs in double precision.

Logarithms.  log-gamma takes every complex log as log|z| + i atan2(Im z,
Re z) from numpy's real ufuncs (_log), not as np.log of a complex array:
numpy's complex log is a scalar libm loop at ~60 ns an element on AVX-512
hardware, where the real log and arctan2 are SIMD loops at 2-5 ns, and a
log-gamma evaluation below the Stirling threshold takes about five logs.

Gamma factors.  GammaData.log gives the log of the product of Gamma_R(s +
kappa) = pi^{-(s+kappa)/2} Gamma((s+kappa)/2) over its shifts kappa_j
(Iwaniec-Kowalski, Analytic Number Theory, 5.2), without the constants
pi^{-kappa/2}.  zeta has the shift 0, a GL(3) form three, and the tensor
with a GL(2) Maass form of spectral parameter t the shifts kappa_j -+ it
(maass_tensor).  Ratios are differences of logs, so overflow never enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PoleError",
    "RegimeError",
    "log_gamma",
    "zeta",
    "zeta_with_error",
    "GammaData",
]


class PoleError(ValueError):
    """Evaluation requested exactly at a pole of the function."""


class RegimeError(ValueError):
    """Arguments outside the validated regime of the chosen algorithm."""


# B_2k as (numerator, denominator); each quotient of ints below rounds correctly
_BERNOULLI = {
    2: (1, 6),
    4: (-1, 30),
    6: (1, 42),
    8: (-1, 30),
    10: (5, 66),
    12: (-691, 2730),
    14: (7, 6),
    16: (-3617, 510),
    18: (43867, 798),
    20: (-174611, 330),
    22: (854513, 138),
    24: (-236364091, 2730),
    26: (8553103, 6),
}

# B_{2n} / ((2n)(2n-1)) for the Stirling tail, n = 1..10
_STIRLING_C = np.array(
    [_BERNOULLI[2 * n][0] / (_BERNOULLI[2 * n][1] * 2 * n * (2 * n - 1)) for n in range(1, 11)]
)

# Where _stirling_shifted stops recursing: the smallest |w| at which the
# remainder bound after B_20 (see its docstring) is _STIRLING_TARGET.
_STIRLING_TARGET = 1e-17
_STIRLING_MIN_ABS = (_BERNOULLI[22][0] / (_BERNOULLI[22][1] * 22 * 21) * 2.0**11 / _STIRLING_TARGET) ** (1 / 21)

_BLOCK = 4096  # points per pass of log_gamma, so its temporaries stay ~64 KB each

# B_{2k} / (2k)! for Euler-Maclaurin, k = 1..13
_EM_C = np.array(
    [_BERNOULLI[2 * k][0] / (_BERNOULLI[2 * k][1] * math.factorial(2 * k)) for k in range(1, 14)]
)
_EM_TERMS = 12  # K, the Euler-Maclaurin correction terms summed; _EM_C[K] bounds the rest

_LOG_2PI = math.log(2.0 * math.pi)

# |log|z|| below which 0.5 log(x^2 + y^2) is exact to rounding: x^2 + y^2
# then lies within [e^-708, e^708], inside the normal doubles
_LOG_MOD_LIMIT = 354.0


def _log(z: np.ndarray) -> np.ndarray:
    """Principal log of a complex array, log|z| + i atan2(Im z, Re z), from
    real ufuncs.

    numpy's complex log runs a scalar libm loop (~60 ns an element on
    AVX-512 hardware); the real log and arctan2 are SIMD loops at 2-5 ns,
    and each element's result does not depend on the array's length or
    stride.  log|z| is 0.5 log(x^2 + y^2), within 2^-53 and an ulp of
    log|z| wherever the sum of squares neither overflows nor loses bits to
    underflow; the elements outside that range (|z| beyond ~e^+-354, or
    z = 0) take log(hypot(x, y)) instead.  So the result agrees with np.log
    to rounding on all finite z, and on the negative real axis takes the
    branch that the sign of Im z = +-0.0 selects, as np.log does.
    Temporaries: the result and one real array.
    """
    x, y = z.real, z.imag
    out = np.empty_like(z)
    with np.errstate(over="ignore", divide="ignore"):  # the elements redone below
        mod = x * x
        mod += np.multiply(y, y, out=out.imag)
        np.log(mod, out=mod)
    mod *= 0.5
    bad = np.abs(mod, out=out.imag) >= _LOG_MOD_LIMIT
    if bad.any():
        mod[bad] = np.log(np.hypot(x[bad], y[bad]))
    out.real = mod
    np.arctan2(y, x, out=out.imag)
    return out


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
        # shape.  At most three block-sized complex arrays are alive at once,
        # and _log's one real one
        np.copyto(wa, wa * up, where=pair)
        rec[active] += _log(wa)
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
    return (w - 0.5) * _log(w) - w + 0.5 * _LOG_2PI + tail - rec


def _log_sin_pi(z: np.ndarray) -> np.ndarray:
    """log sin(pi z), overflow-free for large |Im z| and accurate near the
    poles z = n.

    Factor out the exponentially large half of sin: with s the sign of
    Im z (+1 at Im z = 0),

        log sin(pi z) = s (i pi/2 - i pi z) - log 2 + log(1 - e^{2 pi i s z}).

    The last factor is periodic, so it is taken at z' = z - rint(Re z)
    (exact), where 2 pi i s z' = a + 2ih with a = -2 pi |Im z| <= 0 and
    |h| <= pi/2, as

        1 - e^{a + 2ih} = -expm1(a) + 2 e^a sin h (sin h - i cos h),

    a sum of two terms with nonnegative real parts, so it keeps its
    relative accuracy as z' goes to 0, from two trigonometric calls.
    """
    s = np.where(z.imag >= 0, 1.0, -1.0)
    a = -2.0 * np.pi * np.abs(z.imag)
    h = np.pi * s * (z.real - np.rint(z.real))
    sin_h = np.sin(h)
    scaled = 2.0 * np.exp(a) * sin_h
    rest = np.empty_like(z)
    rest.real = scaled * sin_h - np.expm1(a)
    rest.imag = -scaled * np.cos(h)
    return s * (0.5j * np.pi - 1j * np.pi * z) - math.log(2.0) + _log(rest)


def log_gamma(z):
    """Principal-branch log Gamma, vectorized over complex arrays.

    The result rounds at its own size, so its absolute error grows like
    |z log z| 2^-53 (measured up to 2.4 times that on |z| <= 1e6): 1.5e-11
    at z = 1 + 10^4 i, one ulp of Im log Gamma ~ 8e4 there.  exp(result)
    carries that error as a relative one.  Nonpositive integers raise
    PoleError.  On Re z < 1/2 the reflection formula is used, which can
    offset the imaginary part by a multiple of 2 pi i relative to the
    continued principal branch; every consumer in this package exponentiates
    differences of these logs, where such offsets cancel or are irrelevant.
    Points are evaluated in blocks of _BLOCK, each element on its own, so
    the result for a point does not depend on the shape or size of the array
    it arrives in.  Every log inside is _log's (module docstring).
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


@dataclass(frozen=True)
class GammaData:
    """The shifts kappa_j of prod_j Gamma_R(s + kappa_j): complex numbers that
    hash and compare as a tuple, or arrays against s from maass_tensor of a
    t-array.  A non-numeric or non-finite shift raises ValueError."""

    shifts: tuple

    def __post_init__(self) -> None:
        arrays = [np.asarray(k) for k in self.shifts]
        if not all(a.dtype.kind in "biufc" and np.isfinite(a).all() for a in arrays):
            raise ValueError(f"gamma shifts must be finite numbers, got {self.shifts!r}")
        object.__setattr__(self, "shifts", tuple(k if a.ndim else complex(k) for k, a in zip(self.shifts, arrays)))

    def log(self, s, terms=None) -> np.ndarray:
        """log pi^{-ds/2} prod_j Gamma((s + kappa_j)/2), d = len(shifts), with
        the terms added in the order of the shifts.  `terms`, if given, are
        those log Gammas at s, one per shift in order, as _log_gammas(s)
        yields them, computed once by a caller that needs them too."""
        s = np.asarray(s, dtype=complex)
        return sum(self._log_gammas(s) if terms is None else terms, -(0.5 * len(self.shifts)) * s * math.log(math.pi))

    def _log_gammas(self, s):
        """log Gamma((s + kappa)/2) for each shift, one log_gamma call per
        distinct shift (two, not six, for the Maass tensor of (0, 0, 0))."""
        seen: list = []  # (shift, its log_gamma) for each distinct shift so far
        for kappa in self.shifts:
            lg = next((v for k, v in seen if np.array_equal(k, kappa)), None)
            if lg is None:
                lg = log_gamma((s + kappa) / 2)
                seen.append((kappa, lg))
            yield lg

    @property
    def rightmost_pole(self) -> float:
        """max_j -Re kappa_j, the abscissa of the factor's rightmost poles."""
        return max(-k.real for k in self.shifts)

    @property
    def conjugate_symmetric(self) -> bool:
        """Whether conj(factor(s)) = factor(conj s): conjugation-closed shifts."""
        return all(self.shifts.count(k) == self.shifts.count(k.conjugate()) for k in self.shifts)

    def maass_tensor(self, t) -> GammaData:
        """Tensor with the Maass pair -+it, t a float or an array: kappa_j -+ it
        in turn.  t is checked once here (ValueError unless numeric and
        finite); the columns, finite with it and with the checked shifts,
        skip __post_init__'s check of each one."""
        a = np.asarray(t)
        if not (a.dtype.kind in "biufc" and np.isfinite(a).all()):
            raise ValueError(f"Maass parameter t must be finite numbers, got {t!r}")
        columns = (kappa for k in self.shifts for kappa in (k - 1j * t, k + 1j * t))
        tensor = object.__new__(GammaData)
        object.__setattr__(tensor, "shifts", tuple(columns) if a.ndim else tuple(map(complex, columns)))
        return tensor
