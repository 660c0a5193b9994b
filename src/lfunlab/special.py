"""Complex special functions with explicit accuracy control.

Contents: a vectorized principal-branch log-gamma (Stirling series with
recursion shifts and reflection), Riemann zeta by Euler-Maclaurin with a
computable remainder bound, archimedean gamma-factor ratios for degree-2
and degree-6 L-factors, and Bessel functions of imaginary order 2it via
three mutually independent routes (ascending series, a cosh-kernel
Laplace integral for K, Mehler-Sonine oscillatory integrals for J).

Conventions.  The degree-2 factor is gamma(s, t) = pi^{-s}
Gamma((s+it)/2) Gamma((s-it)/2).  A degree-6 factor attached to
archimedean parameters mu = (mu1, mu2, mu3) and spectral parameter t is

    pi^{-3s} * prod_i Gamma((s - it - mu_i)/2) * Gamma((s + it - mu_i)/2)

and the degree-3 factor (no twist) is pi^{-3s/2} prod_i Gamma((s-mu_i)/2).
All products are assembled in log space; callers that need ratios subtract
logs before exponentiating, so overflow never enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np

from .quadrature import gauss_legendre_panels

__all__ = [
    "PoleError",
    "RegimeError",
    "GammaRatio",
    "log_gamma",
    "zeta",
    "zeta_with_error",
    "gamma_ratio_gl2",
    "gl2_gamma_log",
    "gl2_gamma_ratio_log",
    "gl3_gamma_log",
    "gamma_factor_gl3",
    "archimedean_gamma_log",
    "bessel_imag_order",
    "bessel_j_integral_route",
    "bessel_k_integral",
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

# B_{2k} / (2k)! for Euler-Maclaurin, k = 1..13
_EM_C = np.array(
    [float(_BERNOULLI[2 * k] / math.factorial(2 * k)) for k in range(1, 14)]
)

_LOG_2PI = math.log(2.0 * math.pi)


def _stirling_shifted(w: np.ndarray) -> np.ndarray:
    """log Gamma on Re w >= 0.5 by upward recursion into |w| >= 22 plus the
    divergent-series tail truncated at B_20 (error ~ 1e-26 at |w| = 22)."""
    w = w.copy()
    rec = np.zeros_like(w)
    small = np.abs(w) < 22.0
    while np.any(small):
        rec[small] += np.log(w[small])
        w[small] += 1.0
        small = np.abs(w) < 22.0
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

    Relative accuracy of exp(result) is ~1e-13 or better across |z| <= 1e6;
    nonpositive integers raise PoleError.  On Re z < 1/2 the reflection
    formula is used, which can offset the imaginary part by a multiple of
    2 pi i relative to the continued principal branch; every consumer in
    this package exponentiates differences of these logs, where such
    offsets cancel or are irrelevant.
    """
    z_arr = np.asarray(z, dtype=complex)
    scalar = z_arr.ndim == 0
    zf = np.atleast_1d(z_arr).ravel().astype(complex)

    poles = (zf.imag == 0) & (zf.real <= 0) & (zf.real == np.rint(zf.real))
    if np.any(poles):
        raise PoleError(f"log_gamma pole at z = {zf[poles][:3]}")

    refl = zf.real < 0.5
    work = np.where(refl, 1.0 - zf, zf)
    lg = _stirling_shifted(work)
    if np.any(refl):
        lg[refl] = math.log(math.pi) - _log_sin_pi(zf[refl]) - lg[refl]

    lg = lg.reshape(z_arr.shape) if not scalar else lg[0]
    return complex(lg) if scalar else lg


def zeta_with_error(s, terms: int = 12):
    """Riemann zeta by Euler-Maclaurin with an explicit remainder bound.

    zeta(s) = sum_{n<N} n^{-s} + N^{1-s}/(s-1) + N^{-s}/2
              + sum_{k<=K} B_{2k}/(2k)! (s)_{2k-1} N^{-s-2k+1} + R_K,
    |R_K| <= |s + 2K + 1| / (sigma + 2K + 1) * |first omitted term|.

    N grows with max |Im s| over the batch so the correction terms contract
    by ~(|s|/2 pi N)^2 ~ 1e-2 per order; K = 12 then leaves the remainder
    far below double precision.  Returns (value, bound) with input shape.
    """
    s_arr = np.asarray(s, dtype=complex)
    scalar = s_arr.ndim == 0
    sf = np.atleast_1d(s_arr).ravel().astype(complex)
    if np.any(sf == 1):
        raise PoleError("zeta pole at s = 1")
    K = int(terms)
    if np.any(sf.real + 2 * K + 1 <= 0):
        raise RegimeError("Euler-Maclaurin remainder bound needs Re s > -(2K+1)")

    N = int(max(24, math.ceil(1.5 * (np.max(np.abs(sf.imag)) + 10.0))))
    log_n = np.log(np.arange(1, N, dtype=float))
    value = np.zeros_like(sf)
    for lo in range(0, sf.size, 512):
        chunk = sf[lo : lo + 512]
        value[lo : lo + 512] = np.exp(-chunk[:, None] * log_n[None, :]).sum(axis=1)

    logN = math.log(N)
    npow = np.exp(-sf * logN)  # N^{-s}
    value += npow * N / (sf - 1.0) + 0.5 * npow

    poch = sf.copy()  # (s)_{2k-1}, starting at k=1
    for k in range(1, K + 1):
        term = _EM_C[k - 1] * poch * npow * float(N) ** (1 - 2 * k)
        value += term
        poch = poch * (sf + (2 * k - 1)) * (sf + 2 * k)
    first_omitted = np.abs(_EM_C[K] * poch * npow) * float(N) ** (-1 - 2 * K)
    bound = np.abs(sf + 2 * K + 1) / (sf.real + 2 * K + 1) * first_omitted

    value = value.reshape(s_arr.shape) if not scalar else value[0]
    bound = bound.reshape(s_arr.shape) if not scalar else float(bound[0])
    return (complex(value), bound) if scalar else (value, bound)


def zeta(s, terms: int = 12):
    return zeta_with_error(s, terms=terms)[0]


@dataclass(frozen=True)
class GammaRatio:
    value: complex
    regime: str  # "exact_quotient" or "stirling_asymptotic"


def gl2_gamma_log(s, t: float):
    """log of pi^{-s} Gamma((s+it)/2) Gamma((s-it)/2), vectorized in s."""
    s = np.asarray(s, dtype=complex)
    return -s * math.log(math.pi) + log_gamma((s + 1j * t) / 2) + log_gamma((s - 1j * t) / 2)


def gl2_gamma_ratio_log(u, t: float):
    """log of the normalized degree-2 ratio gamma(1/2 + u, t)/gamma(1/2, t)."""
    u = np.asarray(u, dtype=complex)
    return gl2_gamma_log(0.5 + u, t) - gl2_gamma_log(np.asarray(0.5 + 0j), t)


def gamma_ratio_gl2(u: complex, t: float, mode: str = "exact") -> GammaRatio:
    """The degree-2 ratio at a point, either exactly or by its large-t
    leading behavior (t / 2 pi)^u."""
    if mode == "exact":
        return GammaRatio(complex(np.exp(gl2_gamma_ratio_log(u, t))), "exact_quotient")
    if mode == "leading":
        if t <= 0:
            raise RegimeError("leading form (t/2pi)^u needs t > 0")
        return GammaRatio(complex((t / (2 * math.pi)) ** complex(u)), "stirling_asymptotic")
    raise ValueError(f"unknown mode {mode!r}")


def gl3_gamma_log(s, t: float, mu) -> np.ndarray:
    """log of the degree-6 factor pi^{-3s} prod Gamma((s -+ it - mu_i)/2)."""
    s = np.asarray(s, dtype=complex)
    out = -3.0 * s * math.log(math.pi)
    for m in mu:
        out = out + log_gamma((s - 1j * t - m) / 2) + log_gamma((s + 1j * t - m) / 2)
    return out


def gamma_factor_gl3(s, t: float, form, variant: str = "direct"):
    """Degree-6 gamma factor of a rank-3 form twisted by spectral parameter t.

    variant "direct" uses the form's own archimedean parameters, "dual" the
    contragredient's.  Any parameters are accepted; an argument on a pole
    raises PoleError (from log_gamma).  Computed as exp of the log
    assembly; extreme arguments may round to 0 or overflow, in which case
    use gl3_gamma_log directly.
    """
    return np.exp(gl3_gamma_log(s, t, _variant_mu(form, variant)))


def _variant_mu(form, variant: str):
    if variant == "direct":
        return form.mu
    if variant == "dual":
        return form.mu_dual
    raise ValueError(f"unknown variant {variant!r}")


def archimedean_gamma_log(s, mu) -> np.ndarray:
    """log of the degree-3 factor pi^{-3s/2} prod_i Gamma((s - mu_i)/2)."""
    s = np.asarray(s, dtype=complex)
    out = -1.5 * s * math.log(math.pi)
    for m in mu:
        out = out + log_gamma((s - m) / 2)
    return out


# ---------------------------------------------------------------------------
# Bessel functions of order 2it


_SERIES_CAP = 40.0  # largest 2 pi x the alternating series is allowed to digest


def _bessel_series(t: float, z: float, signed: bool) -> complex:
    """Ascending series for J (signed) or I (unsigned) of order 2it at z > 0.

    Cancellation burns ~z/ln10 digits for J and the 1/Gamma(1+2it) prefactor
    contributes ~pi t/ln10 more, so the working precision scales with both.
    """
    dps = 30 + int(0.45 * z) + int(2.8 * abs(t)) + 10
    with mp.workdps(dps):
        nu = mp.mpc(0, 2 * t)
        half = mp.mpf(z) / 2
        q = half * half
        if signed:
            q = -q
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


def bessel_k_integral(t: float, x: float, nodes_per_panel: int = 12) -> float:
    """K_{2it}(2 pi x) = int_0^inf exp(-2 pi x cosh u) cos(2 t u) du.

    Real for real t.  Double-precision composite Gauss-Legendre panels sized
    against both the cos(2tu) oscillation and the decay scale; truncated
    where the envelope falls below 1e-18 of its peak.
    """
    if x <= 0:
        raise RegimeError("argument must be positive")
    a = 2 * math.pi * x
    u_star = math.acosh(max(41.5 / a, 1.0)) + 1.5
    width = min(0.5, math.pi / (4.0 * max(abs(t), 0.5)), u_star / 6.0)
    n_panels = max(6, int(math.ceil(u_star / width)))
    u, w = gauss_legendre_panels(np.linspace(0.0, u_star, n_panels + 1), nodes_per_panel)
    vals = np.exp(-a * np.cosh(u)) * np.cos(2 * t * u)
    return float(np.dot(w, vals))


def bessel_imag_order(kind: str, t: float, x: float) -> complex:
    """Bessel function of order 2it at argument 2 pi x.

    kind "J": ascending series, validated for 2 pi x <= 40 (RegimeError
    beyond, directing to the integral representation).  kind "I": the
    modified companion by the same series without sign alternation.
    kind "K": the cosh-kernel Laplace integral, real for real t.
    """
    if x <= 0:
        raise RegimeError("argument must be positive")
    z = 2 * math.pi * x
    if kind in ("J", "I"):
        if z > _SERIES_CAP:
            raise RegimeError(
                f"ascending series not validated for 2 pi x = {z:.2f} > {_SERIES_CAP}; "
                "use bessel_j_integral_route (oscillatory integral representation)"
            )
        return _bessel_series(t, z, signed=(kind == "J"))
    if kind == "K":
        return complex(bessel_k_integral(t, x))
    raise ValueError(f"unknown kind {kind!r}")


def _mehler_sonine_integral(trig, z: float, t: float, v0: float = 3.0):
    """int_0^inf trig(z cosh zeta) cos(2 t zeta) d zeta via w = 1 + v^2.

    The substitution cosh zeta = 1 + v^2 turns the integrand into
    2 trig(z (1+v^2)) cos(2 t acosh(1+v^2)) / sqrt(v^2 + 2): bounded, smooth,
    and with zeros at v_k = sqrt(k pi / z - 1), which quadosc accelerates.
    """
    f = lambda v: (
        2 * trig(z * (1 + v * v)) * mp.cos(2 * t * mp.acosh(1 + v * v)) / mp.sqrt(v * v + 2)
    )
    head = mp.quad(f, [0, v0])
    k0 = int(mp.ceil(z * (1 + v0 * v0) / mp.pi))
    zeros = lambda k: mp.sqrt((k0 + k) * mp.pi / z - 1)
    tail = mp.quadosc(f, [v0, mp.inf], zeros=zeros)
    return head + tail


def bessel_j_integral_route(t: float, x: float) -> complex:
    """J_{2it}(2 pi x) by the Mehler-Sonine representation

        J_nu(z) = (2/pi) int_0^inf sin(z cosh zeta - nu pi/2) cosh(nu zeta) dzeta

    specialized to nu = 2it:  (2/pi) [cosh(pi t) S - i sinh(pi t) C] with
    S, C the sine/cosine cosh-kernel integrals.  Entirely independent of the
    ascending series; working precision grows with t because the cosh/sinh
    prefactors amplify the O(1) integrals up to the e^{pi t} scale of J.
    """
    if x <= 0:
        raise RegimeError("argument must be positive")
    z = 2 * math.pi * x
    dps = 40 + int(2.9 * abs(t)) + int(z / 4)
    with mp.workdps(dps):
        s_int = _mehler_sonine_integral(mp.sin, z, t)
        c_int = _mehler_sonine_integral(mp.cos, z, t)
        val = (2 / mp.pi) * (mp.cosh(mp.pi * t) * s_int - 1j * mp.sinh(mp.pi * t) * c_int)
        return complex(val)
