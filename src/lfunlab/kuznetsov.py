"""Rank-2 spectral trace identity: test-function weights, the oscillatory
Bessel transforms on its geometric side, and controlled evaluations of both
sides.

For an even test function h the identity pairs a spectral average over the
even discrete spectrum plus the continuous series,

    sum_j' h(t_j) conj(a_j(n)) a_j(l)
      + (1/4 pi) int h(r) w(r) conj(eta(n, 1/2 + ir)) eta(l, 1/2 + ir) dr,

with a geometric expansion

    (1/2) delta(n, l) H
      + sum_{c >= 1} (1/2c) [ S(n, l; c) Hplus(2 sqrt(nl)/c)
                            + S(-n, l; c) Hminus(2 sqrt(nl)/c) ],

where S(n, l; c) is the Kloosterman sum, H = (1/pi) int h(t) tanh(pi t) t dt,
and the two transforms (all integrals over the whole real line) are

    Hplus(x)  = 2i int J_{2it}(2 pi x) h(t) t / cosh(pi t) dt,
    Hminus(x) = (4/pi) int K_{2it}(2 pi x) sinh(pi t) h(t) t dt
              = 2i int I_{2it}(2 pi x) h(t) t / cosh(pi t) dt.

The I-Bessel form of Hminus follows from K_nu = pi (I_{-nu} - I_nu) /
(2 sin pi nu) and makes the two transforms exact mirrors (J <-> I), so they
share evaluation machinery.  Three cross-validating routes exist:

* "series": direct quadrature in t against the ascending-series Bessel
  values (mpmath underneath).  The J-series is validated for 2 pi x <= 40;
  the K-route for Hminus has no argument cap.  Slow but route-independent.
* "shifted": the t-line moved to Im t = -shift.  Crossing the zeros of
  cosh(pi t) at t = -i(2k+1)/2 leaves explicit residue terms, so

      Hplus(x) = 2i int_{Im t = -shift} J_{2it}(2 pi x) h(t) t / cosh(pi t) dt
                 + 2 sum_{0 <= k < shift - 1/2} (-1)^k (2k+1)
                       h(-i(2k+1)/2) J_{2k+1}(2 pi x),

  and identically for Hminus with I in place of J.  On the shifted line the
  integrand is O(1) and everything evaluates in doubles through a log-split
  ascending series, which is what makes large Kloosterman-sum truncations
  affordable; float cancellation caps this route at 2 pi x <= 22.  The
  residue terms dominate as x -> 0 (they are ~ x h(-i/2)), while the line
  integral alone is O(x^{2 shift}).
* "kernel" (Hplus only): exchanging the order of integration in the
  Mehler-Sonine representation gives

      Hplus(x) = int_0^inf cos(2 pi x cosh z) P(z) dz,
      P(z) = (8/pi) int_0^inf h(t) t tanh(pi t) cos(2tz) dt,

  with P computed once per test function.  The tanh pole at t = i/2 gives P
  an e^{-z} tail (coefficient ~ |h(i/2)|), so the oscillatory integral is
  truncated where a van der Corput bound falls below the requested absolute
  tolerance.  No such route is offered for Hminus: its companion kernel
  grows like e^{(pi T)^2/4} against the e^{-2 pi x cosh u} factor and is
  numerically useless in doubles beyond very narrow test functions.

The module also evaluates the smoothed diagonal weights that arise when the
identity is applied against approximate-functional-equation sums: see
`diagonal_weight`.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import mpmath as mp
import numpy as np

from .afe import (
    FixtureCoverageError,
    MaassFixture,
    WeightSpec,
    gl2_afe_weight_grid,
    rankin_selberg_afe_weight_grid,
)
from .exactarith import kloosterman
from .heckegl3 import GL3Form
from .quadrature import NonDecayError, gauss_legendre_panels
from .special import RegimeError, bessel_imag_order, log_gamma, zeta_with_error
from .util import LRUCache, ordered_parallel_map

__all__ = [
    "SpectralTestFunction",
    "KuznetsovReport",
    "KuznetsovTruncation",
    "gaussian_test_function",
    "delta_weight",
    "continuous_weight",
    "bessel_transform",
    "bessel_transform_split",
    "geometric_side",
    "continuous_side",
    "kuznetsov_residual",
    "diagonal_weight",
    "DIAGONAL_VARIANTS",
]

_LN2 = math.log(2.0)
_FLOAT_SERIES_CAP = 22.0  # 2 pi x beyond which the double-precision series route loses too many digits
_SERIES_ROUTE_CAP = 40.0  # validation cap of the mpmath J/I ascending series
_GL_NODES = 12

# mpmath precision is process-global state; serialize all mpmath-backed
# evaluations so the threaded Kloosterman sum stays correct and bitwise
# deterministic regardless of thread count.
_MP_LOCK = threading.Lock()


# ---------------------------------------------------------------------------
# grids


def _panel_grid(a: float, b: float, width: float):
    """Composite Gauss-Legendre grid on [a, b] with panels <= width."""
    n_panels = max(1, int(math.ceil((b - a) / width)))
    return gauss_legendre_panels(np.linspace(a, b, n_panels + 1), _GL_NODES)


def _var_panel_grid(a: float, b: float, width_fn: Callable[[float], float]):
    """Variable-width composite grid; width_fn gives the local panel cap."""
    edges = [a]
    guard = 0
    while edges[-1] < b:
        step = max(width_fn(edges[-1]), 1e-7)
        edges.append(min(edges[-1] + step, b))
        guard += 1
        if guard > 2_000_000:
            raise RuntimeError("variable panel grid exceeded the edge budget")
    return gauss_legendre_panels(edges, _GL_NODES)


# ---------------------------------------------------------------------------
# test functions


@dataclass(frozen=True)
class SpectralTestFunction:
    """Even test function h(t) entering the spectral sum formula.

    `evaluator` must accept real numpy arrays (vectorized) and, whenever the
    shifted-contour routes are to be used, complex scalars as well.  The two
    analytic hypotheses of the formula are *declared*: `decay_exponent` is a
    theta > 2 with h(t) = O((1+|t|)^{-theta}), and `holomorphy_width` is a
    sigma > 1/2 such that h is holomorphic on |Im t| <= sigma.  Evenness and
    the decay envelope are spot-checked on samples at construction; the
    declarations themselves are trusted (they cannot be verified from finitely
    many samples).
    """

    evaluator: Callable
    decay_exponent: float = 4.0
    holomorphy_width: float = math.inf
    label: str = "test-function"

    def __post_init__(self) -> None:
        if not self.decay_exponent > 2.0:
            raise ValueError("decay exponent must exceed 2 for the geometric expansion to converge")
        if not self.holomorphy_width > 0.5:
            raise ValueError("holomorphy width must exceed 1/2")
        ts = np.array([0.37, 1.21, 2.83, 4.09])
        plus = np.asarray(self.evaluator(ts), dtype=complex)
        minus = np.asarray(self.evaluator(-ts), dtype=complex)
        scale = float(np.max(np.abs(plus))) + 1e-300
        if float(np.max(np.abs(plus - minus))) > 1e-9 * scale:
            raise ValueError("evaluator is not even on sample points")
        # the envelope |h| (1+t)^theta may rise before the decay wins (it
        # peaks near t ~ width sqrt(theta/2) for a width-w Gaussian), so
        # compare the start of a geometric scan against its far end
        probe = np.minimum(6.0 * 2.0 ** np.arange(14), 1.0e5)
        env = np.abs(np.asarray(self.evaluator(probe), dtype=complex)) * (1.0 + probe) ** self.decay_exponent
        if env[-1] > 4.0 * env[0] + 1e-12 * scale:
            raise ValueError(
                "declared decay exponent is not visible on samples: "
                f"|h(t)| (1+t)^{self.decay_exponent} grew from {env[0]:.3e} to {env[-1]:.3e}"
            )

    def __call__(self, t):
        return self.evaluator(t)


def gaussian_test_function(width: float) -> SpectralTestFunction:
    """h(t) = exp(-(t/width)^2): entire, even, superpolynomially decaying."""
    if width <= 0:
        raise ValueError("width must be positive")
    w = float(width)

    def ev(t):
        return np.exp(-((np.asarray(t) / w) ** 2))

    return SpectralTestFunction(
        evaluator=ev, decay_exponent=6.0, holomorphy_width=math.inf, label=f"gaussian-width-{w:g}"
    )


def _check_testfn(h) -> SpectralTestFunction:
    if not isinstance(h, SpectralTestFunction):
        raise TypeError("expected a SpectralTestFunction")
    return h


def _even_cutoff(h, tol: float, growth: float = 1.6, t_floor: float = 6.0) -> float:
    """Smallest scanned t beyond which |h(t)| (1+t)^growth stays below
    tol * scale, by a geometric scan; NonDecayError if never reached."""
    ref = np.array([0.0, 0.7, 1.6, 3.1])
    scale = float(np.max(np.abs(np.asarray(h(ref), dtype=complex)))) + 1e-300
    t = t_floor
    while t <= 1.0e5:
        probe = np.array([t, 1.37 * t, 1.93 * t])
        env = np.abs(np.asarray(h(probe), dtype=complex)) * (1.0 + probe) ** growth
        if np.all(env <= tol * scale):
            return float(1.93 * t)
        t *= 1.4
    raise NonDecayError(
        f"test function {getattr(h, 'label', '?')!r} shows no decay below {tol:.1e} of its scale by t = 1e5"
    )


# ---------------------------------------------------------------------------
# diagonal and continuous weights


def delta_weight(h, *, rel_tol: float = 1e-13) -> float:
    """Weight of the diagonal term: (1/pi) int_R h(t) tanh(pi t) t dt.

    The integrand is even, so this is (2/pi) int_0^inf.  The truncation point
    comes from a decay scan of h (NonDecayError when h fails to decay)."""
    _check_testfn(h)
    tmax = _even_cutoff(h, rel_tol, growth=1.2)
    ts, ws = _panel_grid(0.0, tmax, width=0.25)
    vals = np.asarray(h(ts), dtype=complex)
    total = (2.0 / math.pi) * np.sum(ws * vals * np.tanh(math.pi * ts) * ts)
    return float(total.real)


def continuous_weight(r):
    """Harmonic weight of the continuous series,

        w(r) = 4 pi |pi^{1/2+ir}|^2 / (|Gamma(1/2+ir)|^2 |zeta(1+2ir)|^2 cosh(pi r)).

    At r = 0 the zeta pole makes the weight vanish; that removable limit is
    returned exactly as 0.  Scalar or ndarray input."""
    r_arr = np.asarray(r, dtype=float)
    scalar = r_arr.ndim == 0
    rf = np.atleast_1d(r_arr).astype(float).ravel()
    out = np.zeros_like(rf)
    mask = rf != 0.0
    if np.any(mask):
        rm = rf[mask]
        lg = log_gamma(0.5 + 1j * rm)
        zv, _ = zeta_with_error(1.0 + 2j * rm)
        zv = np.atleast_1d(zv)
        out[mask] = 4.0 * math.pi * math.pi / (np.exp(2.0 * lg.real) * np.abs(zv) ** 2 * np.cosh(math.pi * rm))
    out = out.reshape(r_arr.shape) if not scalar else out
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# double-precision ascending series for J/I of complex order


def _bessel_series_float(nu: np.ndarray, z: float, signed: bool) -> np.ndarray:
    """J_nu(z) (signed) or I_nu(z) (unsigned) for an array of complex orders,
    by the log-split ascending series

        B_nu(z) = exp(nu log(z/2) - logGamma(nu+1)) * sum_k c_k,
        c_0 = 1,  c_k = c_{k-1} * (-+ z^2/4) / (k (nu + k)).

    Valid in doubles for z <= _FLOAT_SERIES_CAP; orders must stay away from
    negative integers (they do: shifted-line orders have positive real part,
    residue orders are positive odd integers)."""
    if z > _FLOAT_SERIES_CAP:
        raise RegimeError(
            f"double-precision ascending series loses too many digits at 2 pi x = {z:.2f} > "
            f"{_FLOAT_SERIES_CAP}; use the mpmath series or kernel route"
        )
    nu = np.asarray(nu, dtype=complex)
    q = (-0.25 if signed else 0.25) * z * z
    series = np.ones_like(nu)
    term = np.ones_like(nu)
    for k in range(1, 200):
        term = term * (q / (k * (nu + k)))
        series = series + term
        if float(np.max(np.abs(term))) <= 1e-17 * float(np.max(np.abs(series))):
            break
    return np.exp(nu * math.log(0.5 * z) - log_gamma(nu + 1.0)) * series


# ---------------------------------------------------------------------------
# shifted-contour route


@dataclass(frozen=True)
class _ShiftedPlan:
    """Precomputed x-independent data for the shifted-line evaluation of one
    test function: grid, orders, log-Gamma and log-cosh values, h samples on
    the line, and h at the crossed poles."""

    shift: float
    ys: np.ndarray
    ws: np.ndarray
    nu: np.ndarray
    lgam: np.ndarray
    logcosh: np.ndarray
    pref: np.ndarray  # h(y - i shift) * (y - i shift)
    h_at_poles: tuple


def _validate_shift(h: SpectralTestFunction, shift: float) -> None:
    if not shift > 0.5:
        raise ValueError("shift must exceed 1/2 (below that the line move gains nothing)")
    if abs(shift % 1.0 - 0.5) < 1e-9:
        raise ValueError("shift must avoid the half-integer pole heights of 1/cosh(pi t)")
    if not h.holomorphy_width > shift:
        raise ValueError(
            f"test function declares holomorphy width {h.holomorphy_width}, "
            f"insufficient for a contour shift to Im t = -{shift}"
        )


def _build_shifted_plan(h: SpectralTestFunction, shift: float, z_min: float, rel_tol: float) -> _ShiftedPlan:
    _validate_shift(h, shift)

    def on_line(y):
        y = np.asarray(y, dtype=float)
        return np.asarray([complex(h.evaluator(complex(v, -shift))) for v in np.atleast_1d(y)])

    ref = np.abs(on_line(np.array([0.0, 0.7, 1.9]))) * np.array([1.0, 1.7, 2.9])
    scale = float(np.max(ref)) + 1e-300
    ymax, t = None, 6.0
    while t <= 1.0e5:
        probe = np.array([t, 1.37 * t, 1.93 * t])
        env = np.abs(on_line(probe)) * (1.0 + probe)
        if np.all(env <= rel_tol * scale):
            ymax = float(1.93 * t)
            break
        t *= 1.4
    if ymax is None:
        raise NonDecayError("test function does not decay on the shifted line")

    rate = (
        2.0 * abs(math.log(max(z_min, 1e-9) / 2.0))
        + 2.0 * math.log(3.0 + 2.0 * shift + 2.0 * ymax)
        + 4.0 * shift
    )
    width = 1.4 / rate

    k_count = int(math.ceil(shift - 0.5 - 1e-12))
    poles = tuple(complex(h.evaluator(complex(0.0, -(2 * k + 1) / 2.0))) for k in range(k_count))

    def assemble(w):
        ys, ws = _panel_grid(-ymax, ymax, width=w)
        tvals = ys - 1j * shift
        nu = 2.0 * shift + 2j * ys
        lgam = log_gamma(nu + 1.0)
        arg = math.pi * (np.abs(ys) - 1j * shift * np.where(ys >= 0.0, 1.0, -1.0))
        logcosh = arg + np.log(1.0 + np.exp(-2.0 * arg)) - _LN2
        pref = np.asarray([complex(h.evaluator(complex(t))) for t in tvals]) * tvals
        return _ShiftedPlan(shift, ys, ws, nu, lgam, logcosh, pref, poles)

    plan = assemble(width)
    probe_z = max(z_min, 1e-3)
    for _ in range(6):
        finer = assemble(width / 2.0)
        a = _shifted_line_value(plan, probe_z, "J")
        b = _shifted_line_value(finer, probe_z, "J")
        res = _shifted_residues(plan, probe_z, "J")
        if abs(a - b) <= max(rel_tol, 1e-13) * (abs(b) + abs(res) + 1e-300):
            return finer
        width /= 2.0
        plan = finer
    return plan


def _shifted_line_value(plan: _ShiftedPlan, z: float, kind: str) -> complex:
    amp = np.exp(plan.nu * math.log(0.5 * z) - plan.lgam - plan.logcosh)
    q = (-0.25 if kind == "J" else 0.25) * z * z
    series = np.ones_like(plan.nu)
    term = np.ones_like(plan.nu)
    for k in range(1, 200):
        term = term * (q / (k * (plan.nu + k)))
        series = series + term
        if float(np.max(np.abs(term))) <= 1e-17 * max(1.0, float(np.max(np.abs(series)))):
            break
    return complex(2j * np.sum(plan.ws * amp * series * plan.pref))


def _shifted_residues(plan: _ShiftedPlan, z: float, kind: str) -> complex:
    if not plan.h_at_poles:
        return 0j
    orders = np.array([2 * k + 1 for k in range(len(plan.h_at_poles))], dtype=complex)
    bess = _bessel_series_float(orders, z, signed=(kind == "J"))
    total = 0j
    for k, hk in enumerate(plan.h_at_poles):
        total += 2.0 * ((-1.0) ** k) * (2 * k + 1) * hk * bess[k]
    return complex(total)


def _shifted_value(plan: _ShiftedPlan, z: float, kind: str) -> complex:
    return _shifted_line_value(plan, z, kind) + _shifted_residues(plan, z, kind)


# ---------------------------------------------------------------------------
# mpmath series routes


def _series_plus(h: SpectralTestFunction, x: float, rel_tol: float) -> complex:
    """Hplus by direct t-quadrature of -4 Im J_{2it}(2 pi x) h t / cosh(pi t)."""
    z = 2.0 * math.pi * x
    tmax = _even_cutoff(h, min(rel_tol, 1e-10), growth=1.6)
    rate = 2.0 * (1.0 + abs(math.log(0.5 * z))) + 2.0 * math.log(2.0 + 2.0 * tmax)
    ts, ws = _panel_grid(0.0, tmax, width=max(min(6.0 / rate, tmax / 30.0), 0.02))
    ratio = np.empty(ts.size)
    with _MP_LOCK:
        for i, t in enumerate(ts):
            ratio[i] = bessel_imag_order("J", float(t), x).imag / math.cosh(math.pi * float(t))
    hv = np.asarray(h(ts), dtype=complex)
    return complex(-4.0 * np.sum(ws * ratio * hv * ts))


def _k_times_sinh(t: float, z: float) -> float:
    """K_{2it}(z) sinh(pi t), the O(t^{-1/2}) bounded product, via mpmath.
    Computing the product inside mpmath avoids the e^{+-pi t} over/underflow
    of the separate factors."""
    dps = 30 + int(1.6 * t) + int(0.12 * z)
    with _MP_LOCK, mp.workdps(dps):
        val = mp.besselk(2j * mp.mpf(t), mp.mpf(z)) * mp.sinh(mp.pi * mp.mpf(t))
        return float(val.real)


def _minus_series(h: SpectralTestFunction, x: float, rel_tol: float) -> complex:
    """Hminus by direct t-quadrature of (8/pi) K_{2it}(2 pi x) sinh(pi t) h t."""
    z = 2.0 * math.pi * x
    tmax = _even_cutoff(h, min(rel_tol, 1e-10), growth=1.6)

    def width(t):
        rate = 1.0 + 2.0 * math.acosh(max(2.0 * t / z, 1.0))
        return max(min(6.0 / rate, tmax / 30.0), 0.02)

    ts, ws = _var_panel_grid(0.0, tmax, width)
    ksinh = np.asarray([_k_times_sinh(float(t), z) for t in ts])
    hv = np.asarray(h(ts), dtype=complex)
    return complex((8.0 / math.pi) * np.sum(ws * ksinh * hv * ts))


def _minus_direct(h: SpectralTestFunction, x: float, rel_tol: float) -> complex:
    """Hminus by the real cosh-kernel Laplace integral for K, entirely in
    doubles.  The u-integral's absolute rounding error is amplified by
    sinh(pi t) ~ e^{pi t} against K ~ e^{-pi t}, so this route is only valid
    for narrow test functions; it raises RegimeError when its own noise
    model exceeds 1e-8 of the result.  Kept as an independent oracle."""
    z = 2.0 * math.pi * x
    tmax = _even_cutoff(h, min(rel_tol, 1e-10), growth=1.6)
    rate = 1.0 + 2.0 * math.acosh(max(2.0 * tmax / z, 1.0))
    ts, ws = _panel_grid(0.0, tmax, width=max(1.4 / rate, 0.02))
    ustar = math.acosh(max(41.5 / z, 1.0)) + 1.5
    us, wus = _panel_grid(0.0, ustar, width=min(0.5, math.pi / (4.0 * max(tmax, 0.5)), ustar / 6.0))
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
            "use route='series' (the test function is too wide for the double-precision kernel)"
        )
    return value


# ---------------------------------------------------------------------------
# cosine-kernel route for Hplus


@dataclass(frozen=True)
class _PlusProfile:
    """Samples of f(t) = h(t) t tanh(pi t) folded with quadrature weights,
    plus the measured e^{-z} tail coefficient of its half-cosine transform
    P(z) = (8/pi) int_0^inf f(t) cos(2tz) dt."""

    ts: np.ndarray
    fw: np.ndarray  # quadrature weights * f(ts)
    tail_coeff: float
    scale: float

    def transform(self, zs: np.ndarray) -> np.ndarray:
        out = np.empty(zs.size)
        for lo in range(0, zs.size, 4096):
            blk = zs[lo : lo + 4096]
            out[lo : lo + 4096] = np.cos(2.0 * np.outer(blk, self.ts)) @ self.fw
        return (8.0 / math.pi) * out


_ZETA_HARD_CAP = 18.0  # truncation ceiling of the cosh-kernel integral


def _profile_from_samples(ts: np.ndarray, ws: np.ndarray, fvals: np.ndarray) -> _PlusProfile:
    prof = _PlusProfile(ts=ts, fw=ws * fvals, tail_coeff=0.0, scale=1.0)
    bulk = prof.transform(np.linspace(0.0, 3.0, 25))
    scale = float(np.max(np.abs(bulk))) + 1e-300
    window = np.linspace(10.0, 14.0, 17)
    tail = prof.transform(window)
    coeff = 4.0 * float(np.max(np.abs(tail) * np.exp(window))) + 1e-14 * scale
    return _PlusProfile(ts=ts, fw=prof.fw, tail_coeff=coeff, scale=scale)


def _plus_profile(h: SpectralTestFunction, rel_tol: float) -> _PlusProfile:
    tmax = _even_cutoff(h, min(rel_tol, 1e-11), growth=1.2)
    ts, ws = _panel_grid(0.0, tmax, width=min(tmax / 48.0, 8.0 / (2.0 * _ZETA_HARD_CAP)))
    hv = np.asarray(h(ts), dtype=complex).real
    return _profile_from_samples(ts, ws, hv * ts * np.tanh(math.pi * ts))


def _kernel_plus_from_profile(prof: _PlusProfile, x: float, abs_tol: float) -> complex:
    z_grid_cap = None
    c1 = prof.tail_coeff
    for z1 in np.arange(5.0, _ZETA_HARD_CAP + 0.01, 0.25):
        bound = c1 * min(math.exp(-z1), 5.0 * math.exp(-2.0 * z1) / (2.0 * math.pi * x))
        if bound <= abs_tol:
            z_grid_cap = float(z1)
            break
    if z_grid_cap is None:
        raise RegimeError(
            f"cosh-kernel truncation bound stuck above abs_tol = {abs_tol:.1e} "
            f"(tail coefficient {c1:.2e}); loosen abs_tol"
        )
    t_band = float(prof.ts[-1])

    def width(zeta):
        osc = 2.0 * math.pi * x * max(math.sinh(zeta), 0.2) + 2.0 * t_band
        return min(0.35, 8.0 / osc)

    zs, wz = _var_panel_grid(0.0, z_grid_cap, width)
    pvals = prof.transform(zs)
    return complex(np.sum(wz * np.cos(2.0 * math.pi * x * np.cosh(zs)) * pvals))


_PROFILE_CACHE = LRUCache(maxsize=8)  # keyed on (test function, digits of rel_tol)


def _kernel_plus(h: SpectralTestFunction, x: float, abs_tol: float, rel_tol: float) -> complex:
    key = (h, round(-math.log10(max(rel_tol, 1e-15))))
    prof = _PROFILE_CACHE.get_or_build(key, lambda: _plus_profile(h, rel_tol))
    return _kernel_plus_from_profile(prof, x, abs_tol)


# ---------------------------------------------------------------------------
# transform dispatcher


def _norm_sign(sign) -> str:
    if sign in ("+", "plus", 1, +1):
        return "+"
    if sign in ("-", "minus", -1):
        return "-"
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


def bessel_transform(
    h,
    sign,
    x: float,
    *,
    route: str = "auto",
    shift: float = 2.0,
    rel_tol: float = 1e-11,
    abs_tol: float = 1e-9,
) -> complex:
    """Hplus (sign '+') or Hminus (sign '-') of the test function at x > 0.

    Routes: "series" (direct t-quadrature against mpmath Bessel values; the
    J-series is capped at 2 pi x <= 40, the K-route is uncapped), "shifted"
    (contour moved to Im t = -shift, double precision, 2 pi x <= 22, needs a
    complex-capable evaluator), "kernel" (sign '+' only: the cosine-kernel
    double integral, any argument, absolute accuracy abs_tol), "direct"
    (sign '-' only: double-precision Laplace-kernel oracle for narrow test
    functions), or "auto"."""
    h = _check_testfn(h)
    if not x > 0:
        raise ValueError("argument x must be positive")
    sgn = _norm_sign(sign)
    z = 2.0 * math.pi * x
    can_shift = h.holomorphy_width > shift

    if route == "auto":
        if z <= _FLOAT_SERIES_CAP and can_shift:
            route = "shifted"
        elif sgn == "+":
            route = "series" if z <= _SERIES_ROUTE_CAP else "kernel"
        else:
            route = "series"

    if route == "shifted":
        if z > _FLOAT_SERIES_CAP:
            raise RegimeError(
                f"shifted route is limited to 2 pi x <= {_FLOAT_SERIES_CAP} "
                f"(got {z:.2f}); use 'series' or 'kernel'"
            )
        plan = _build_shifted_plan(h, shift, z, rel_tol)
        return _shifted_value(plan, z, "J" if sgn == "+" else "I")
    if route == "series":
        return _series_plus(h, x, rel_tol) if sgn == "+" else _minus_series(h, x, rel_tol)
    if route == "kernel":
        if sgn == "-":
            raise ValueError(
                "no kernel route exists for the minus transform: its companion kernel grows "
                "like e^{(pi T)^2/4} against the Laplace factor and cancels catastrophically"
            )
        return _kernel_plus(h, x, abs_tol, rel_tol)
    if route == "direct":
        if sgn == "+":
            raise ValueError("route 'direct' applies to the minus transform only")
        return _minus_direct(h, x, rel_tol)
    raise ValueError(f"unknown route {route!r}")


def bessel_transform_split(h, x: float, *, shift: float = 2.0, rel_tol: float = 1e-11):
    """The two pieces of the shifted-contour evaluation of Hplus; their sum
    is Hplus(x).

    The residue sum from the crossed cosh poles is

        2 sum_{0 <= k < shift - 1/2} (-1)^k (2k+1) h(-(2k+1)i/2) J_{2k+1}(2 pi x),

    which behaves like 2 pi x h(-i/2) only as x -> 0.  The line integral
    over Im t = -shift is O(x^{2 shift}), but its constant carries
    |h(y - i shift)|, which can be large: for the width-1 Gaussian at
    x = 0.2 the line piece exceeds the residues (1.17 against 0.81 in
    absolute value)."""
    h = _check_testfn(h)
    if not x > 0:
        raise ValueError("argument x must be positive")
    z = 2.0 * math.pi * x
    plan = _build_shifted_plan(h, shift, z, rel_tol)
    return _shifted_line_value(plan, z, "J"), _shifted_residues(plan, z, "J")


# ---------------------------------------------------------------------------
# geometric side


def _divisor_counts(limit: int) -> np.ndarray:
    d = np.zeros(limit + 1, dtype=np.int64)
    for i in range(1, limit + 1):
        d[i::i] += 1
    return d


def _geometric_terms(n: int, l: int, h: SpectralTestFunction, c_max: int, *, threads: int = 4, shift: float = 2.0):
    """(delta_term, kloosterman_term, tail_estimate) of the geometric side,
    the c-sum truncated at c_max.

    The tail estimate combines the Weil bound |S(n,l;c)| <= d(c) sqrt((n,l,c)) sqrt(c)
    with an empirical small-argument envelope of the transforms anchored at
    x0 = 2 sqrt(nl)/c_max (power-law fit against x0/2, clamped to [1, 4],
    safety factor 3 — the leading residue term of the shifted route makes
    the true decay at least linear), explicit terms out to 64 c_max, and an
    integral remainder with d(c) <= 6 c^{1/3} beyond."""
    if n < 1 or l < 1:
        raise ValueError("indices n, l must be positive integers")
    if c_max < 1:
        raise ValueError("c_max must be at least 1")
    h = _check_testfn(h)

    root = 2.0 * math.sqrt(float(n) * float(l))
    xs = root / np.arange(1, c_max + 1, dtype=float)
    z_min = 2.0 * math.pi * float(xs[-1])
    plan = _build_shifted_plan(h, shift, z_min, 1e-11) if h.holomorphy_width > shift else None

    def transforms(x: float):
        z = 2.0 * math.pi * x
        if plan is not None and z <= _FLOAT_SERIES_CAP:
            return _shifted_value(plan, z, "J"), _shifted_value(plan, z, "I")
        if z <= _SERIES_ROUTE_CAP:
            hp = _series_plus(h, x, 1e-11)
        else:
            hp = _kernel_plus(h, x, 1e-10, 1e-11)
        return hp, _minus_series(h, x, 1e-11)

    def one_c(c: int):
        hp, hm = transforms(float(root / c))
        s_plus = kloosterman(n, l, c).real
        s_minus = kloosterman(-n, l, c).real
        return (s_plus * hp + s_minus * hm) / (2.0 * c)

    terms = ordered_parallel_map(one_c, range(1, c_max + 1), threads=threads)
    kloost = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    delta = 0.5 * delta_weight(h) if n == l else 0.0

    x0 = float(xs[-1])
    hp0, hm0 = transforms(x0)
    hp1, hm1 = transforms(x0 / 2.0)
    b0 = abs(hp0) + abs(hm0)
    b1 = abs(hp1) + abs(hm1)
    if b0 <= 0.0:
        tail = 0.0
    else:
        p = math.log(b0 / max(b1, 1e-300)) / _LN2 if b1 > 0 else 4.0
        p = min(max(p, 1.0), 4.0)
        horizon = 64 * c_max
        d = _divisor_counts(horizon)
        cs = np.arange(c_max + 1, horizon + 1)
        g = np.gcd(cs, math.gcd(n, l)).astype(float)
        bounds = 3.0 * b0 * (root / cs / x0) ** p
        tail = float(np.sum(d[c_max + 1 :] * np.sqrt(g) * np.sqrt(cs) / (2.0 * cs) * bounds))
        rem_pref = 9.0 * math.sqrt(float(math.gcd(n, l))) * b0 * (root / x0) ** p
        tail += rem_pref * float(horizon) ** (5.0 / 6.0 - p) / (p - 5.0 / 6.0)
    return delta, kloost, tail


def geometric_side(n: int, l: int, h, c_max: int, *, threads: int = 4) -> complex:
    """Diagonal term plus the Kloosterman sum truncated at c <= c_max:

        (1/2) delta(n,l) H + sum_{c<=c_max} (1/2c) [S(n,l;c) Hplus + S(-n,l;c) Hminus],

    transforms evaluated at 2 sqrt(nl)/c.  Route selection per c is automatic
    (shifted double-precision where valid, mpmath series / kernel fallbacks).
    """
    delta, kloost, _ = _geometric_terms(n, l, h, c_max, threads=threads)
    return complex(delta + kloost)


# ---------------------------------------------------------------------------
# continuous side


def _eta_profile(n: int, rs: np.ndarray) -> np.ndarray:
    """eta(n, 1/2 + ir) = sum_{ad=n} (a/d)^{ir} on the grid; real because the
    divisor pairs (a, d) <-> (d, a) conjugate each other."""
    out = np.zeros_like(rs)
    logn = math.log(n)
    for d in range(1, n + 1):
        if n % d == 0:
            out += np.cos(rs * (logn - 2.0 * math.log(d)))
    return out


def continuous_side(n: int, l: int, h, r_max: float, *, rel_tol: float = 1e-12) -> complex:
    """Continuous-series term (1/4 pi) int_{|r| <= r_max} h w(r)
    conj(eta(n, 1/2+ir)) eta(l, 1/2+ir) dr.

    All factors are even in r and eta is real, so the value is real for
    real-valued h; it is returned as complex for uniformity."""
    if n < 1 or l < 1:
        raise ValueError("indices n, l must be positive integers")
    if not r_max > 0:
        raise ValueError("r_max must be positive")
    h = _check_testfn(h)
    rc = min(float(r_max), _even_cutoff(h, rel_tol, growth=1.5, t_floor=4.0))
    rs, ws = _panel_grid(0.0, rc, width=0.2)
    hv = np.asarray(h(rs), dtype=complex)
    om = continuous_weight(rs)
    integrand = hv * om * _eta_profile(n, rs) * _eta_profile(l, rs)
    return complex(np.sum(ws * integrand) / (2.0 * math.pi))


# ---------------------------------------------------------------------------
# full identity bookkeeping


@dataclass(frozen=True)
class KuznetsovTruncation:
    """Truncation bookkeeping: the Kloosterman cutoff, the continuous-series
    cutoff, how many discrete fixtures entered, and the estimated size of the
    dropped c > c_max geometric tail."""

    c_max: int
    r_max: float
    spectral_count: int
    geometric_tail: float

    def to_dict(self) -> dict:
        return {
            "c_max": self.c_max,
            "r_max": self.r_max,
            "spectral_count": self.spectral_count,
            "geometric_tail": self.geometric_tail,
        }


def _complex_dict(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


@dataclass(frozen=True)
class KuznetsovReport:
    """One evaluation of the trace identity at (n, l): geometric pieces,
    continuous term, discrete term from the supplied fixtures, and the
    residual delta + kloosterman - continuous - discrete, which measures the
    part of the discrete spectrum the fixtures do not cover (plus truncation
    error)."""

    delta_term: float
    kloosterman_term: complex
    continuous_term: complex
    discrete_term: complex
    residual: complex
    truncation: KuznetsovTruncation
    normalization_note: str

    def to_dict(self) -> dict:
        return {
            "delta_term": self.delta_term,
            "kloosterman_term": _complex_dict(self.kloosterman_term),
            "continuous_term": _complex_dict(self.continuous_term),
            "discrete_term": _complex_dict(self.discrete_term),
            "residual": _complex_dict(self.residual),
            "truncation": self.truncation.to_dict(),
            "normalization_note": self.normalization_note,
        }


def kuznetsov_residual(
    n: int,
    l: int,
    h,
    fixtures: Sequence[MaassFixture],
    c_max: int,
    r_max: float,
    *,
    threads: int = 4,
) -> KuznetsovReport:
    """Assemble both sides of the trace identity and report the residual.

    The discrete term is sum_j h(t_j) conj(a_j(n)) a_j(l) with a_j taken from
    each fixture's coefficient array under the fixture's *declared*
    normalization (recorded in the report's normalization note, never
    rescaled here).  An empty fixture list is valid bookkeeping: the residual
    then estimates the whole discrete spectrum's contribution."""
    h = _check_testfn(h)
    delta, kloost, tail = _geometric_terms(n, l, h, c_max, threads=threads)
    cont = continuous_side(n, l, h, r_max)
    discrete = 0j
    sources = []
    for fx in fixtures:
        coeffs = fx.coeff_array()
        if coeffs.size - 1 < max(n, l):
            raise FixtureCoverageError(
                f"fixture {fx.source!r} carries coefficients up to {coeffs.size - 1}, "
                f"but indices (n, l) = ({n}, {l}) were requested"
            )
        discrete += complex(h(fx.t)) * np.conj(coeffs[n]) * coeffs[l]
        sources.append(fx.source)
    residual = delta + kloost - cont - discrete
    note = "no fixtures supplied" if not sources else "fixture conventions: " + "; ".join(sorted(set(sources)))
    return KuznetsovReport(
        delta_term=float(delta),
        kloosterman_term=complex(kloost),
        continuous_term=complex(cont),
        discrete_term=complex(discrete),
        residual=complex(residual),
        truncation=KuznetsovTruncation(
            c_max=int(c_max), r_max=float(r_max), spectral_count=len(fixtures), geometric_tail=float(tail)
        ),
        normalization_note=note,
    )


# ---------------------------------------------------------------------------
# smoothed diagonal weights (trace identity against AFE sums)


DIAGONAL_VARIANTS = ("direct", "dual", "direct_plus", "direct_minus", "dual_plus", "dual_minus")

_UV_CACHE = LRUCache(maxsize=32)  # one weight array per (kind, spec, y, t-grid, gamma data)
_DEFAULT_WEIGHT_SPEC = WeightSpec()


def uv_cache_stats() -> dict:
    """Hit/miss counters of the shared degree-2 / tensor weight cache, one
    count per weight array (all t of one grid at one y), not per t."""
    return {"hits": _UV_CACHE.hits, "misses": _UV_CACHE.misses}


def _cached_gl2(spec: WeightSpec, y: float, ts: np.ndarray) -> np.ndarray:
    key = ("gl2", spec, y, ts.tobytes())
    return _UV_CACHE.get_or_build(key, lambda: gl2_afe_weight_grid(spec, [y], ts)[:, 0])


def _cached_rs(spec: WeightSpec, form: GL3Form, variant: str, y: float, ts: np.ndarray) -> np.ndarray:
    # the weight reads form.mu or form.mu_dual (by variant) and normalizes by
    # form.mu, so a self-dual form's two variants share one entry
    mu_used = form.mu if variant == "direct" else form.mu_dual
    key = ("rs", spec, y, ts.tobytes(), tuple(mu_used), tuple(form.mu))
    return _UV_CACHE.get_or_build(key, lambda: rankin_selberg_afe_weight_grid(spec, [y], ts, form, variant)[:, 0])


def _diag_samples(
    ts: np.ndarray, width_T: float, y_gl2: float, y_rs: float, form: GL3Form, variant: str, spec: WeightSpec
) -> np.ndarray:
    gauss = np.exp(-((ts / width_T) ** 2))
    return gauss * _cached_gl2(spec, y_gl2, ts) * _cached_rs(spec, form, variant, y_rs, ts)


def diagonal_weight(
    T: float,
    l: int,
    n: int,
    m: int,
    form: GL3Form,
    variant: str,
    x: float | None = None,
    *,
    weight_spec: WeightSpec | None = None,
    rel_tol: float = 1e-11,
    resolution_factor: float = 1.0,
) -> complex:
    """Smoothed diagonal weights pairing the Gaussian e^{-t^2/T^2} with the
    degree-2 AFE weight at n (plain variants) or l (Bessel variants) and the
    tensor AFE weight at m^2 n:

      "direct"        (1/pi) int e^{-t^2/T^2} U(n,t) V(m^2 n, t) tanh(pi t) t dt
      "dual"          same with the mirror tensor weight
      "direct_plus"   2i  int J_{2it}(2 pi x) e^{-t^2/T^2} U(l,t) V(m^2 n,t) t / cosh(pi t) dt
      "direct_minus"  (4/pi) int K_{2it}(2 pi x) sinh(pi t) e^{-t^2/T^2} U(l,t) V(m^2 n,t) t dt
      "dual_plus"/"dual_minus"  the mirror-weight twins.

    Each weight is evaluated for all t of the grid on one shared contour
    grid, and the array is cached module-wide (a 32-entry LRU) keyed on the
    weight kind, the weight parameters, y, the t-grid and the gamma data
    the weight reads (for the tensor weight: the mu it carries and form.mu,
    its normalization), so repeated evaluations on the same grid are cheap
    and a self-dual form's "dual" reuses "direct"'s arrays (see
    uv_cache_stats).  x is required exactly for the
    Bessel variants.  Evenness of the weights in t is relied upon (the
    integrals run over t >= 0 doubled); the test-suite verifies it."""
    if variant not in DIAGONAL_VARIANTS:
        raise ValueError(f"variant must be one of {DIAGONAL_VARIANTS}, got {variant!r}")
    if not T > 0:
        raise ValueError("width T must be positive")
    if min(l, n, m) < 1:
        raise ValueError("indices l, n, m must be positive integers")
    spec = weight_spec if weight_spec is not None else _DEFAULT_WEIGHT_SPEC
    bessel = variant.endswith("plus") or variant.endswith("minus")
    if bessel and (x is None or not x > 0):
        raise ValueError("Bessel variants require a positive argument x")
    if not bessel and x is not None:
        raise ValueError("plain variants take no argument x")
    rs_variant = "direct" if variant.startswith("direct") else "dual"
    y_gl2 = float(l if bessel else n)
    y_rs = float(m * m * n)

    tmax = 8.0 * T
    if not bessel:
        width = min(max(T / 6.0, 1e-4), 1.5) / resolution_factor
        ts, ws = _panel_grid(0.0, tmax, width=width)
        fv = _diag_samples(ts, T, y_gl2, y_rs, form, rs_variant, spec)
        return complex((2.0 / math.pi) * np.sum(ws * fv * np.tanh(math.pi * ts) * ts))

    if variant.endswith("plus"):
        width = min(max(T / 6.0, 1e-4), 8.0 / (2.0 * _ZETA_HARD_CAP)) / resolution_factor
        ts, ws = _panel_grid(0.0, tmax, width=width)
        fv = _diag_samples(ts, T, y_gl2, y_rs, form, rs_variant, spec)
        base = ts * np.tanh(math.pi * ts)
        re_prof = _profile_from_samples(ts, ws, fv.real * base)
        out = _kernel_plus_from_profile(re_prof, float(x), abs_tol=1e-9 * re_prof.scale)
        if float(np.max(np.abs(fv.imag))) > 1e-12 * (float(np.max(np.abs(fv.real))) + 1e-300):
            im_prof = _profile_from_samples(ts, ws, fv.imag * base)
            out += 1j * _kernel_plus_from_profile(im_prof, float(x), abs_tol=1e-9 * im_prof.scale)
        return complex(out)

    z = 2.0 * math.pi * float(x)

    def width_fn(t):
        rate = 1.0 + 2.0 * math.acosh(max(2.0 * t / z, 1.0))
        return max(min(1.4 / rate, max(T / 6.0, 1e-4)), 1e-4) / resolution_factor

    ts, ws = _var_panel_grid(0.0, tmax, width_fn)
    fv = _diag_samples(ts, T, y_gl2, y_rs, form, rs_variant, spec)
    ksinh = np.asarray([_k_times_sinh(float(t), z) for t in ts])
    return complex((8.0 / math.pi) * np.sum(ws * ksinh * fv * ts))
