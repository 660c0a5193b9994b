"""Reference routes the tests compare the package against.

No pipeline calls these.  Each evaluates a quantity that `lfunlab` also
evaluates, by a route that shares none of the shortcuts of the package's
own: mpmath's Bessel functions for the transforms of the trace identity, a
high-precision sum of exact phase counts for Kloosterman sums, the
Chinese-remainder factorization of a Kloosterman sum, an adaptive
oscillatory quadrature, the dense Mellin quadrature and the Hecke
recursion.  mpmath is a test dependency only; every evaluation here that
changes its process-global working precision goes through mp_precision.
"""

from __future__ import annotations

import math
import operator
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import mpmath as mp
import numpy as np

from lfunlab import kuznetsov as kz
from lfunlab import voronoi as vo
from lfunlab.exactarith import _units, factorize, kloosterman
from lfunlab.heckegl3 import GL3Form, coefficient
from lfunlab.quadrature import gauss_legendre_panels, panel_grid
from lfunlab.special import RegimeError

# ---------------------------------------------------------------------------
# mpmath working precision

_MP_LOCK = threading.Lock()


@contextmanager
def mp_precision(dps: int):
    """mpmath at dps decimal digits, with the lock that serializes every
    precision change made here held throughout, so threaded callers stay
    correct and bitwise deterministic whatever the thread count."""
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
    with mp_precision(dps):
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


# ---------------------------------------------------------------------------
# the transforms of the trace identity (kuznetsov.bessel_transform)


def var_panel_grid(a: float, b: float, width_fn: Callable[[float], float]):
    """Variable-width composite grid; width_fn gives the local panel cap."""
    edges = [a]
    guard = 0
    while edges[-1] < b:
        step = max(width_fn(edges[-1]), 1e-7)
        edges.append(min(edges[-1] + step, b))
        guard += 1
        if guard > 2_000_000:
            raise RuntimeError("variable panel grid exceeded the edge budget")
    return gauss_legendre_panels(edges, kz._GL_NODES)


def series_plus(h: kz.SpectralTestFunction, x: float, rel_tol: float = 1e-11) -> complex:
    """Hplus by direct t-quadrature of -4 Im J_{2it}(2 pi x) h t / cosh(pi t),
    against the ascending series (validated for 2 pi x <= 40).  rel_tol sets
    where h is cut off."""
    z = 2.0 * math.pi * x
    tmax = kz._even_cutoff(h, min(rel_tol, 1e-10), growth=1.6)
    if math.pi * tmax > math.log(sys.float_info.max):
        raise RegimeError(
            f"the J-series oracle divides by cosh(pi t) in doubles, finite for t <= "
            f"{math.log(sys.float_info.max) / math.pi:.1f}, but h needs t up to {tmax:.1f}; use bessel_transform"
        )
    rate = 2.0 * (1.0 + abs(math.log(0.5 * z))) + 2.0 * math.log(2.0 + 2.0 * tmax)
    ts, ws = panel_grid(0.0, tmax, min(6.0 / rate, tmax / 30.0), kz._GL_NODES)
    ratio = np.empty(ts.size)
    for i, t in enumerate(ts):
        ratio[i] = bessel_imag_order(float(t), x).imag / math.cosh(math.pi * float(t))
    hv = np.asarray(h(ts), dtype=complex)
    return complex(-4.0 * np.sum(ws * ratio * hv * ts))


def k_times_sinh(t: float, z: float) -> float:
    """K_{2it}(z) sinh(pi t), the O(t^{-1/2}) bounded product, via mpmath.
    Computing the product inside mpmath avoids the e^{+-pi t} over/underflow
    of the separate factors."""
    dps = 30 + int(1.6 * t) + int(0.12 * z)
    with mp_precision(dps):
        val = mp.besselk(2j * mp.mpf(t), mp.mpf(z)) * mp.sinh(mp.pi * mp.mpf(t))
        return float(val.real)


def minus_series(h: kz.SpectralTestFunction, x: float, rel_tol: float = 1e-11) -> complex:
    """Hminus by direct t-quadrature of (8/pi) K_{2it}(2 pi x) sinh(pi t) h t,
    at any argument.  rel_tol sets where h is cut off."""
    z = 2.0 * math.pi * x
    tmax = kz._even_cutoff(h, min(rel_tol, 1e-10), growth=1.6)

    def width(t):
        rate = 1.0 + 2.0 * math.acosh(max(2.0 * t / z, 1.0))
        return min(6.0 / rate, tmax / 30.0)

    ts, ws = var_panel_grid(0.0, tmax, width)
    ksinh = np.asarray([k_times_sinh(float(t), z) for t in ts])
    hv = np.asarray(h(ts), dtype=complex)
    return complex((8.0 / math.pi) * np.sum(ws * ksinh * hv * ts))


def minus_direct(h: kz.SpectralTestFunction, x: float, rel_tol: float = 1e-11) -> complex:
    """Hminus by the real cosh-kernel Laplace integral for K, entirely in
    doubles.  The u-integral's absolute rounding error is amplified by
    sinh(pi t) ~ e^{pi t} against K ~ e^{-pi t}, so this route is only valid
    for narrow test functions; it raises RegimeError when its own noise
    model exceeds 1e-8 of the result."""
    z = 2.0 * math.pi * x
    tmax = kz._even_cutoff(h, min(rel_tol, 1e-10), growth=1.6)
    rate = 1.0 + 2.0 * math.acosh(max(2.0 * tmax / z, 1.0))
    ts, ws = panel_grid(0.0, tmax, min(1.4 / rate, tmax / 8.0), kz._GL_NODES)
    ustar = math.acosh(max(41.5 / z, 1.0)) + 1.5
    us, wus = panel_grid(0.0, ustar, min(0.5, math.pi / (4.0 * max(tmax, 0.5)), ustar / 6.0), kz._GL_NODES)
    env = wus * np.exp(-z * np.cosh(us))
    kvals = np.cos(2.0 * np.outer(ts, us)) @ env
    sinh_t = np.sinh(math.pi * ts)
    hv = np.asarray(h(ts), dtype=complex)
    value = complex((8.0 / math.pi) * np.sum(ws * kvals * sinh_t * hv * ts))
    noise = (8.0 / math.pi) * float(
        np.sum(ws * (1.1e-16 * np.sum(np.abs(env))) * sinh_t * np.abs(hv) * ts)
    )
    if noise > 1e-8 * (abs(value) + 1e-300):
        raise RegimeError(
            f"direct float route noise model {noise:.2e} exceeds 1e-8 of |value| = {abs(value):.2e}; "
            "use minus_series (the test function is too wide for the double-precision kernel)"
        )
    return value


# ---------------------------------------------------------------------------
# Kloosterman sums and the divisor function (exactarith)


def kloosterman_phase_counts(n: int, l: int, c: int) -> np.ndarray:
    """Exact integer histogram over phases: counts[k] = #{d : d*l + dbar*n == k mod c}.

    This is the sum S(n, l; c) before any floating evaluation; two sums with
    equal histograms are exactly equal.
    """
    c, units, inv = _units(c)
    phase = ((l % c) * units + (n % c) * inv) % c
    return np.bincount(phase, minlength=c)


_EXACT_PHASE_DPS = 40  # working digits of the exact-phase oracle's root-of-unity sum


def kloosterman_exact_phase(n: int, l: int, c: int) -> complex:
    """S(n, l; c) by exact phase counting, then a high-precision evaluation
    of the resulting combination of c-th roots of unity.  It runs in an
    mpmath context of its own, so the process-global precision that
    mp_precision guards is never touched."""
    counts = kloosterman_phase_counts(n, l, c)
    ctx = mp.MPContext()
    ctx.dps = _EXACT_PHASE_DPS
    acc = ctx.mpc(0)
    for k in np.flatnonzero(counts):
        acc += int(counts[k]) * ctx.expjpi(ctx.mpf(2 * int(k)) / c)
    return complex(acc)


def kloosterman_factored(n: int, l: int, c: int) -> complex:
    """S(n, l; c) assembled from prime-power blocks by twisted multiplicativity:

        S(n, l; q*r) = S(n*rbar^2, l; q) * S(n*qbar^2, l; r),  gcd(q, r) = 1,

    applied across the full factorization.  Each block still runs the direct
    enumeration, so agreement with kloosterman() genuinely exercises the
    Chinese-remainder structure whenever c has two or more prime factors.
    c may be any integer type; ValueError unless c >= 1.
    """
    c = operator.index(c)
    if c < 1:
        raise ValueError(f"modulus must be positive, got {c}")
    blocks = [p**e for p, e in factorize(c)] if c > 1 else [1]
    value = 1 + 0j
    for q in blocks:
        r = c // q
        rbar = pow(r, -1, q) if q > 1 else 0
        value *= kloosterman((n * rbar * rbar) % q, l, q)
    return value


def triple_divisor(m: int) -> int:
    """Number of ordered triples (a, b, c) with a*b*c = m."""
    out = 1
    for _, e in factorize(m):
        out *= (e + 1) * (e + 2) // 2
    return out


# ---------------------------------------------------------------------------
# adaptive oscillatory quadrature


class UnboundedPhaseError(ValueError):
    """Oscillatory phase derivative is unbounded (or absurd) on the support."""


@dataclass(frozen=True)
class TransformResult:
    value: complex
    abs_error_estimate: float


def _phase_velocity_scan(phase: Callable, a: float, b: float, samples: int = 4096) -> float:
    xs = np.linspace(a, b, samples + 1)
    ph = np.asarray(phase(xs), dtype=float)
    if not np.all(np.isfinite(ph)):
        raise UnboundedPhaseError("phase is not finite everywhere on the support")
    slopes = np.abs(np.diff(ph)) / ((b - a) / samples)
    vmax = float(slopes.max())
    if vmax > 1e8:
        raise UnboundedPhaseError(f"phase velocity ~{vmax:.2e} cycles/unit is out of range")
    return vmax


_OSC_NODES = 10  # Gauss-Legendre nodes per oscillatory panel
_OSC_NODES_PER_PERIOD = 8  # least nodes per period of the fastest oscillation
_OSC_REFINEMENTS = 12  # most panel halvings


def oscillatory_integral(
    amplitude: Callable,
    phase: Callable,
    support: tuple[float, float],
    *,
    tol: float = 1e-9,
) -> TransformResult:
    """integral over the support of amplitude(x) * e(phase(x)) dx, e(z) = exp(2 pi i z).

    Panel width is capped so each period of the fastest local oscillation
    receives at least _OSC_NODES_PER_PERIOD nodes, then panels halve, at
    most _OSC_REFINEMENTS times, until two passes agree to tol (relative);
    the last inter-pass change is the error estimate, empirical and not a
    rigorous enclosure.
    """
    a, b = float(support[0]), float(support[1])
    if not a < b:
        raise ValueError(f"empty support [{a}, {b}]")
    vmax = _phase_velocity_scan(phase, a, b)

    def f(x):
        return np.asarray(amplitude(x), dtype=complex) * np.exp(2j * np.pi * np.asarray(phase(x)))

    width = min((b - a) / 8.0, _OSC_NODES / (_OSC_NODES_PER_PERIOD * max(vmax, 1e-12)))
    prev = None
    delta = math.inf
    for _ in range(_OSC_REFINEMENTS):
        x, w = panel_grid(a, b, width, _OSC_NODES)
        cur = complex(np.dot(w, f(x)))
        if prev is not None:
            delta = abs(cur - prev)
            if delta <= tol * (abs(cur) + 1.0):
                return TransformResult(cur, delta)
        prev = cur
        width /= 2.0
    return TransformResult(prev, delta)


# ---------------------------------------------------------------------------
# Mellin transform (voronoi) and the Hecke recursion (heckegl3)


def mellin_transform(phi: Callable, s):
    """int_0^inf phi(x) x^{s-1} dx for compactly supported smooth phi.

    Entire in s; decays faster than any power of |Im s| (but for the
    exp-ramp bumps only sub-exponentially, roughly exp(-c sqrt(Im s)) --
    tests pin the measured profile).  Scalar s gives a complex scalar, an
    array gives an array.  Computed by dense Gauss-Legendre quadrature
    (voronoi._mellin_dense): the independent check of the contour kernels'
    FFT line (voronoi._mellin_line).
    """
    vals = vo._mellin_dense(phi, vo._support_of(phi), np.atleast_1d(np.asarray(s, dtype=complex)))
    return complex(vals[0]) if np.isscalar(s) or np.asarray(s).ndim == 0 else vals


def hecke_relation_residual(form: GL3Form, p: int, i: int, j: int) -> float:
    """Gap in the degree-lowering Hecke recursion at (p^i, p^j)."""
    lhs = coefficient(form, p, 1) * coefficient(form, p**i, p**j)
    rhs = coefficient(form, p ** (i + 1), p**j)
    if i >= 1:
        rhs += coefficient(form, p ** (i - 1), p ** (j + 1))
    if j >= 1:
        rhs += coefficient(form, p**i, p ** (j - 1))
    return abs(lhs - rhs)
