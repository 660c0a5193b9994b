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
(2 sin pi nu) and makes the two transforms exact mirrors (J <-> I).

One route evaluates both transforms, "kernel".  By DLMF 10.32.7 and the
Mehler-Sonine integral, exchanging the t- and zeta-integrals gives

    Hplus(x)  = int_0^inf cos(z cosh zeta) P(zeta) dzeta,
    Hminus(x) = int_0^inf cos(z sinh zeta) P(zeta) dzeta,     z = 2 pi x,
    P(zeta)   = (8/pi) int_0^inf h(t) t tanh(pi t) cos(2 t zeta) dt,

with one profile P for both.  The tanh pole at t = i/2 leaves P an e^{-zeta}
tail, so on the real zeta-line both integrals oscillate for a long way.
Moved to the contour 0 -> i theta -> inf + i theta, the kernels decay like
e^{-z sin(theta) sinh u} and e^{-z sin(theta) cosh u}, and one node set
serves every argument: the geometric side evaluates all its c at once as a
blocked exp(i outer(z, cosh or sinh zeta)) @ (weights * P) product, the
row of each z = z1/c with c <= c_max/2 squared from the row of z/2.  theta
comes from the samples of h themselves: the largest theta <= 1/2 at which
P(zeta + i theta) grows by at most a factor 10, so no decay rate has to be
declared.  Wide or slowly decaying h give a small theta and a long contour.

Two routes remain as cross-check oracles; neither uses P or the contour:

* "series": direct quadrature in t against the ascending-series Bessel
  values (mpmath underneath).  The J-series is validated for 2 pi x <= 40
  and for cutoffs t with cosh(pi t) finite in doubles; the K-route for
  Hminus has no argument cap.
* "direct" (Hminus only): the real Laplace integral for K_{2it} in doubles,
  for narrow test functions only; it raises RegimeError where its own noise
  model exceeds 1e-8 of the value.

The module also evaluates the smoothed diagonal weights that arise when the
identity is applied against approximate-functional-equation sums: see
`diagonal_weight`.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import mpmath as mp
import numpy as np

from .afe import _U_MU, FixtureCoverageError, MaassFixture, WeightSpec, _weight_rows
from .chebyshev import _Interpolant, _interpolate_log1p
from .exactarith import kloosterman_sums
from .heckegl3 import GL3Form
from .quadrature import NonDecayError, _row_blocks, gauss_legendre_panels, panel_grid
from .special import RegimeError, _mp_precision, bessel_imag_order, log_gamma, zeta_with_error

__all__ = [
    "SpectralTestFunction",
    "KuznetsovReport",
    "KuznetsovTruncation",
    "gaussian_test_function",
    "delta_weight",
    "continuous_weight",
    "bessel_transform",
    "geometric_side",
    "continuous_side",
    "kuznetsov_residual",
    "diagonal_weight",
    "DIAGONAL_VARIANTS",
]

_LN2 = math.log(2.0)
_GL_NODES = 12
_EPS = sys.float_info.epsilon
_AMP_CUT = -math.log(_EPS)  # kernels below e^{-_AMP_CUT} of their peak are dropped from the contour


# ---------------------------------------------------------------------------
# grids


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

    `evaluator` must accept real numpy arrays (vectorized); no evaluation
    route needs complex input.  The two analytic hypotheses of the formula
    are *declared*: `decay_exponent` is a theta > 2 with
    h(t) = O((1+|t|)^{-theta}), and `holomorphy_width` is a sigma > 1/2 such
    that h is holomorphic on |Im t| <= sigma; neither selects a route.  Evenness and
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
    if not width > 0:
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
    """Smallest t of the geometric scan t_floor 1.4^k at which |h| (1+t)^growth
    lies below tol * scale on all three probes t, 1.37 t and 1.93 t;
    NonDecayError if never reached."""
    ref = np.array([0.0, 0.7, 1.6, 3.1])
    scale = float(np.max(np.abs(np.asarray(h(ref), dtype=complex)))) + 1e-300
    t = t_floor
    while t <= 1.0e5:
        probe = np.array([t, 1.37 * t, 1.93 * t])
        env = np.abs(np.asarray(h(probe), dtype=complex)) * (1.0 + probe) ** growth
        if np.all(env <= tol * scale):
            return float(t)
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
    ts, ws = panel_grid(0.0, tmax, 0.25, _GL_NODES)
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
# mpmath series routes


def _series_plus(h: SpectralTestFunction, x: float, rel_tol: float) -> complex:
    """Hplus by direct t-quadrature of -4 Im J_{2it}(2 pi x) h t / cosh(pi t)."""
    z = 2.0 * math.pi * x
    tmax = _even_cutoff(h, min(rel_tol, 1e-10), growth=1.6)
    if math.pi * tmax > math.log(sys.float_info.max):
        raise RegimeError(
            f"the J-series oracle divides by cosh(pi t) in doubles, finite for t <= "
            f"{math.log(sys.float_info.max) / math.pi:.1f}, but h needs t up to {tmax:.1f}; use route='kernel'"
        )
    rate = 2.0 * (1.0 + abs(math.log(0.5 * z))) + 2.0 * math.log(2.0 + 2.0 * tmax)
    ts, ws = panel_grid(0.0, tmax, max(min(6.0 / rate, tmax / 30.0), 0.02), _GL_NODES)
    ratio = np.empty(ts.size)
    for i, t in enumerate(ts):
        ratio[i] = bessel_imag_order(float(t), x).imag / math.cosh(math.pi * float(t))
    hv = np.asarray(h(ts), dtype=complex)
    return complex(-4.0 * np.sum(ws * ratio * hv * ts))


def _k_times_sinh(t: float, z: float) -> float:
    """K_{2it}(z) sinh(pi t), the O(t^{-1/2}) bounded product, via mpmath.
    Computing the product inside mpmath avoids the e^{+-pi t} over/underflow
    of the separate factors."""
    dps = 30 + int(1.6 * t) + int(0.12 * z)
    with _mp_precision(dps):
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
    ts, ws = panel_grid(0.0, tmax, max(1.4 / rate, 0.02), _GL_NODES)
    ustar = math.acosh(max(41.5 / z, 1.0)) + 1.5
    us, wus = panel_grid(0.0, ustar, min(0.5, math.pi / (4.0 * max(tmax, 0.5)), ustar / 6.0), _GL_NODES)
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
# zeta-contour route for both transforms


@dataclass(frozen=True)
class _Profile:
    """Samples of f(t) = h(t) t tanh(pi t) times their quadrature weights, as
    (real part, imaginary part) columns, for the half-cosine transform
    P(zeta) = (8/pi) int_0^inf f(t) cos(2 t zeta) dt, and the contour height
    theta they allow.  Samples whose weight on Im zeta = theta lies below the
    double-precision floor are dropped, so ts[-1] is the band P oscillates in."""

    ts: np.ndarray
    fw: np.ndarray  # shape (len(ts), 2)
    theta: float


def _profile_from_samples(ts: np.ndarray, ws: np.ndarray, hvals: np.ndarray) -> _Profile:
    """The profile of the samples hvals = h(ts) on the grid (ts, ws)."""
    fw = ws * np.asarray(hvals, dtype=complex) * ts * np.tanh(math.pi * ts)
    mag = np.abs(fw)
    base = float(np.sum(mag))

    def growth(theta: float) -> float:
        return float(np.sum(mag * np.exp(2.0 * theta * ts)))

    # the largest theta <= 1/2 at which |P(zeta + i theta)| can exceed the
    # profile's own scale by at most one digit: sum |fw| e^{2 theta t} <= 10 sum |fw|
    theta = 0.5
    if growth(theta) > 10.0 * base:
        lo, hi = 0.0, theta
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if growth(mid) <= 10.0 * base else (lo, mid)
        theta = lo
    tail = np.cumsum((mag * np.exp(2.0 * theta * ts))[::-1])[::-1]
    keep = int(np.count_nonzero(tail > _EPS * base))
    return _Profile(ts=ts[:keep], fw=np.stack([fw.real, fw.imag], axis=1)[:keep], theta=theta)


def _contour_length(theta: float, z_min: float) -> float:
    """U with cosh U = 1 + _AMP_CUT / (z_min sin theta).  On Im zeta = theta
    |e^{i z cosh zeta}| = e^{-z sin(theta) sinh u} falls from 1 at u = 0, and
    |e^{i z sinh zeta}| = e^{-z sin(theta) cosh u} from e^{-z sin theta}; past
    u = U both lie e^{-_AMP_CUT} below those peaks for every z >= z_min."""
    return math.acosh(1.0 + _AMP_CUT / (z_min * math.sin(theta)))


def _resolved_profile(build: Callable[[float], _Profile], width: float, z_min: float) -> _Profile:
    """build(width) samples the profile on panels <= width; the width is
    halved until 12-node panels resolve cos(2 t zeta), whose rate in t is
    |2 zeta| <= 2 |U + i theta|, along the whole contour of the samples' theta."""
    while True:
        prof = build(width)
        if width * abs(complex(_contour_length(prof.theta, z_min), prof.theta)) <= 4.0:
            return prof
        width /= 2.0


def _contour_transforms(prof: _Profile, zs: np.ndarray):
    """(Hplus, Hminus) at every z = 2 pi x in zs, as complex arrays, from

        Hplus  = Re int e^{i z cosh zeta} P(zeta) dzeta,
        Hminus = Re int e^{i z sinh zeta} P(zeta) dzeta

    along 0 -> i theta -> U + i theta, for each column of P (real and
    imaginary part of h) on its own.  Where the kernels lie within
    e^{-_AMP_CUT} of their peak on Im zeta = theta, their exponents change at
    most at the rate z |sinh zeta| <= _AMP_CUT / sin(theta) + z sin(theta)
    (Hplus) or z |cosh zeta| <= _AMP_CUT / sin(theta) + z (Hminus), and P at
    2 ts[-1]: one node set, as long as the smallest z and as fine as the
    largest z need, serves every argument.  On the vertical leg the Hminus
    integrand i e^{-z sin v} P(iv) is imaginary, so only Hplus takes it."""
    zs = np.asarray(zs, dtype=float)
    theta, ts, fw = prof.theta, prof.ts, prof.fw
    s = math.sin(theta)
    z_max = float(np.max(zs))
    band = 2.0 * float(ts[-1]) if ts.size else 0.0
    # 12-node panels spanning at most 8 units of the integrand's exponent
    u_end = _contour_length(theta, float(np.min(zs)))
    us, wu = panel_grid(0.0, u_end, 8.0 / (_AMP_CUT / s + z_max + band), _GL_NODES)
    vs, wv = panel_grid(0.0, theta, 8.0 / (z_max * s + band), _GL_NODES)

    # P(u + i theta) = (8/pi) sum fw [cos(2tu) cosh(2t theta) - i sin(2tu) sinh(2t theta)]
    ch = fw * np.cosh(2.0 * theta * ts)[:, None]
    sh = fw * np.sinh(2.0 * theta * ts)[:, None]
    p_h = np.empty((us.size, 2), dtype=complex)
    for rows in _row_blocks(us.size, ts.size):
        arg = 2.0 * np.outer(us[rows], ts)
        p_h[rows] = np.cos(arg) @ ch - 1j * (np.sin(arg) @ sh)
    p_v = np.empty((vs.size, 2))
    for rows in _row_blocks(vs.size, ts.size):
        p_v[rows] = np.cosh(2.0 * np.outer(vs[rows], ts)) @ fw

    zeta = us + 1j * theta
    plus_nodes = np.concatenate([np.cosh(zeta), np.cos(vs)])
    plus_w = (8.0 / math.pi) * np.concatenate([wu[:, None] * p_h, 1j * wv[:, None] * p_v])
    minus_w = (8.0 / math.pi) * wu[:, None] * p_h
    return _exp_product(zs, plus_nodes, plus_w), _exp_product(zs, np.sinh(zeta), minus_w)


def _exp_product(zs: np.ndarray, nodes: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Re(exp(i outer(zs, nodes)) @ w), column 0 + i column 1, through one
    phase buffer of about _ROW_ELEMENTS entries.

    e^{i 2z nu} = (e^{i z nu})^2, and fl(2z nu) = 2 fl(z nu) in doubles, so
    an argument whose half is also an argument takes its row from the
    half's row by one complex square instead of one exp per node.  The
    arguments fall into chains z, 2z, 4z, ...; each chain's smallest member
    is exponentiated, and the chain is walked up by squaring in place, a
    block of chains at a time.  After k squarings the phase error is about
    (k + 1) eps |z nu|, against eps |z nu| for the direct exp: comparable,
    as the phase itself rounds at eps |z nu|."""
    zs = np.asarray(zs, dtype=float)
    u, where = np.unique(zs, return_inverse=True)
    half = np.minimum(np.searchsorted(u, 0.5 * u), u.size - 1)
    has_half = (u[half] == 0.5 * u) & (half != np.arange(u.size))  # z = 0 is its own half
    child = np.full(u.size + 1, -1)  # child[-1] = -1 ends every chain
    child[half[has_half]] = np.flatnonzero(has_half)
    levels = [np.flatnonzero(~has_half)]
    while (child[levels[-1]] >= 0).any():
        levels.append(child[levels[-1]])
    length = (np.array(levels) >= 0).sum(axis=0)
    order = np.argsort(-length, kind="stable")  # the chains alive at each level come first
    levels = [level[order] for level in levels]

    blocks = _row_blocks(order.size, nodes.size)  # blocks of chains, one row each live
    phase = np.empty((blocks[0].stop, nodes.size), dtype=complex)
    inodes = 1j * nodes
    rows = np.empty((u.size, 2))
    for chains in blocks:
        first = levels[0][chains]
        p = phase[: first.size]
        np.multiply.outer(u[first], inodes, out=p)
        np.exp(p, out=p)
        rows[first] = (p @ w).real
        for level in levels[1:]:
            members = level[chains]
            members = members[members >= 0]
            if not members.size:
                break
            p = phase[: members.size]
            np.multiply(p, p, out=p)
            rows[members] = (p @ w).real
    out = rows[where]
    return out[:, 0] + 1j * out[:, 1]


def _kernel_transforms(h: SpectralTestFunction, zs: np.ndarray, rel_tol: float):
    """(Hplus, Hminus) of h at every z = 2 pi x in zs on one contour."""
    t_max = _even_cutoff(h, min(rel_tol, 1e-11), growth=1.2)

    def sample(width: float) -> _Profile:
        ts, ws = panel_grid(0.0, t_max, width, _GL_NODES)
        return _profile_from_samples(ts, ws, h(ts))

    # tanh(pi t) has poles at t = +-i/2: 12-node panels up to 1/2 wide resolve it
    prof = _resolved_profile(sample, min(t_max / 48.0, 0.5), float(np.min(zs)))
    return _contour_transforms(prof, zs)


# ---------------------------------------------------------------------------
# transform dispatcher


def bessel_transform(h, sign, x: float, *, route: str = "kernel", rel_tol: float = 1e-11) -> complex:
    """Hplus (sign '+') or Hminus (sign '-') of the test function at x > 0.

    Routes: "kernel" (the default: both transforms as integrals of the
    profile P along a zeta-contour, double precision, any argument),
    "series" (the cross-check oracle: direct t-quadrature against mpmath
    Bessel values; the J-series is capped at 2 pi x <= 40, the K-route is
    uncapped) and "direct" (sign '-' only: a double-precision Laplace-kernel
    oracle for narrow test functions).  rel_tol sets where h is cut off."""
    h = _check_testfn(h)
    if not x > 0:
        raise ValueError("argument x must be positive")
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    if route == "kernel":
        hp, hm = _kernel_transforms(h, np.array([2.0 * math.pi * x]), rel_tol)
        return complex((hp if sign == "+" else hm)[0])
    if route == "series":
        return _series_plus(h, x, rel_tol) if sign == "+" else _minus_series(h, x, rel_tol)
    if route == "direct":
        if sign == "+":
            raise ValueError("route 'direct' applies to the minus transform only")
        return _minus_direct(h, x, rel_tol)
    raise ValueError(f"unknown route {route!r}")


# ---------------------------------------------------------------------------
# geometric side


def _divisor_counts(limit: int) -> np.ndarray:
    """d(m) for 0 <= m <= limit, d(0) = 0.  The divisors of m pair up as
    (i, m/i), and the sieve visits each pair at its smaller member, so i only
    runs to sqrt(limit): 2 for each multiple m = i k, k > i, and 1 at i^2."""
    d = np.zeros(limit + 1, dtype=np.int64)
    for i in range(1, math.isqrt(limit) + 1):
        d[i * i] += 1
        d[i * (i + 1) :: i] += 2
    return d


def _geometric_terms(n: int, l: int, h: SpectralTestFunction, c_max: int):
    """(delta_term, kloosterman_term, tail_estimate) of the geometric side,
    the c-sum truncated at c_max.

    All transforms, at x = 2 sqrt(nl)/c for c <= c_max and at x0/2 for the
    tail fit, come from one contour, and every z = 2 pi x whose half is also
    an argument (c <= c_max/2, and c_max itself) takes its exponentials from
    that half's by squaring (_exp_product).  All S(+-n, l; c) come from one
    batched call (exactarith.kloosterman_sums); no thread is started.
    The tail estimate combines the Weil bound |S(n,l;c)| <= d(c) sqrt((n,l,c)) sqrt(c)
    with an empirical small-argument envelope of the transforms anchored at
    x0 = 2 sqrt(nl)/c_max (power-law fit against x0/2, clamped to [1, 4],
    safety factor 3 — the tanh pole at t = -i/2 gives both transforms the
    leading term 2 pi x h(-i/2) as x -> 0, so the true decay is at least
    linear), explicit terms out to 64 c_max, and an integral remainder with
    d(c) <= 6 c^{1/3} beyond."""
    if n < 1 or l < 1:
        raise ValueError("indices n, l must be positive integers")
    if c_max < 1:
        raise ValueError("c_max must be at least 1")
    h = _check_testfn(h)

    root = 2.0 * math.sqrt(float(n) * float(l))
    xs = root / np.arange(1, c_max + 1, dtype=float)
    x0 = float(xs[-1])
    hp, hm = _kernel_transforms(h, 2.0 * math.pi * np.append(xs, 0.5 * x0), 1e-11)

    s_plus, s_minus = kloosterman_sums(n, l, c_max)
    terms = (s_plus * hp[:c_max] + s_minus * hm[:c_max]) / (2.0 * np.arange(1, c_max + 1))
    kloost = complex(math.fsum(terms.real), math.fsum(terms.imag))
    delta = 0.5 * delta_weight(h) if n == l else 0.0

    b0 = abs(hp[c_max - 1]) + abs(hm[c_max - 1])
    b1 = abs(hp[c_max]) + abs(hm[c_max])
    if b0 <= 0.0:
        tail = 0.0
    else:
        p = math.log(b0 / max(b1, 1e-300)) / _LN2 if b1 > 0 else 4.0
        p = min(max(p, 1.0), 4.0)
        horizon = 64 * c_max
        # d(c) sqrt(gcd(n, l, c)) sqrt(c) / 2c times the envelope, built in
        # one array so that no more than three horizon-long arrays are live
        cs = np.arange(c_max + 1, horizon + 1)
        terms = np.sqrt(np.gcd(cs, math.gcd(n, l)).astype(float))
        terms *= _divisor_counts(horizon)[c_max + 1 :]
        terms *= np.sqrt(cs)
        terms /= 2.0 * cs
        terms *= 3.0 * b0 * (root / cs / x0) ** p
        tail = float(np.sum(terms))
        rem_pref = 9.0 * math.sqrt(float(math.gcd(n, l))) * b0 * (root / x0) ** p
        tail += rem_pref * float(horizon) ** (5.0 / 6.0 - p) / (p - 5.0 / 6.0)
    return delta, kloost, tail


def geometric_side(n: int, l: int, h, c_max: int, *, threads: int = 4) -> complex:
    """Diagonal term plus the Kloosterman sum truncated at c <= c_max:

        (1/2) delta(n,l) H + sum_{c<=c_max} (1/2c) [S(n,l;c) Hplus + S(-n,l;c) Hminus],

    transforms evaluated at 2 sqrt(nl)/c, all on one zeta-contour (see
    bessel_transform's "kernel" route), and the Kloosterman sums in one
    batched call.  `threads` is accepted and unused: nothing here runs in
    a thread.
    """
    delta, kloost, _ = _geometric_terms(n, l, h, c_max)
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
    rs, ws = panel_grid(0.0, rc, 0.2, _GL_NODES)
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
    then estimates the whole discrete spectrum's contribution.  `threads` is
    accepted and unused: no part of the identity runs in a thread."""
    h = _check_testfn(h)
    delta, kloost, tail = _geometric_terms(n, l, h, c_max)
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

_DIAG_TOP = 8.0  # the t-range [0, 8T]: e^{-t^2/T^2} < e^{-64} past it

_DEFAULT_WEIGHT_SPEC = WeightSpec()


def uv_cache_stats() -> dict:
    """Hit/miss counters of the shared degree-2 / tensor weight cache, one
    count per weight interpolant (all t of [0, 8T] at one y), not per t."""
    info = _cached_weight.cache_info()
    return {"hits": info.hits, "misses": info.misses}


# the weight reads nothing of a form but its gamma data, so a self-dual
# form's two tensor variants share one entry
@functools.lru_cache(maxsize=32)
def _cached_weight(spec: WeightSpec, y: float, top: float, mu: tuple, mu_norm: tuple) -> _Interpolant:
    """W(y, .) on [0, top] as a piecewise Chebyshev interpolant in log(1 + t),
    to the spec's tail_tolerance, of rows from the one contour grid sized
    for top, so that the rows differ only where W does."""

    def rows(ts: np.ndarray) -> tuple:
        return _weight_rows(spec, y, ts, mu, mu_norm, top)

    return _interpolate_log1p(rows, top, spec.tail_tolerance, f"AFE weight at y = {y}")


def _diag_samples(
    ts: np.ndarray, width_T: float, y_gl2: float, y_rs: float, form: GL3Form, variant: str, spec: WeightSpec
) -> np.ndarray:
    gauss = np.exp(-((ts / width_T) ** 2))
    mu = form.mu if variant == "direct" else form.mu_dual
    top = _DIAG_TOP * width_T
    u = _cached_weight(spec, y_gl2, top, _U_MU, _U_MU)
    v = _cached_weight(spec, y_rs, top, tuple(mu), tuple(form.mu))
    return gauss * u(ts) * v(ts)


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

    Each weight is a piecewise Chebyshev interpolant in log(1 + t) on
    [0, 8T] (_cached_weight: a few dozen contour rows per piece, all from
    one contour grid, with a reported error), and every t-grid is evaluated
    from it.  The interpolant is cached module-wide (_cached_weight's
    32-entry functools.lru_cache) keyed on the weight parameters, y, 8T and
    the gamma data the weight reads: the mu it carries and the mu that
    normalizes it ((0,) by (0,) for U, form.mu or form.mu_dual by form.mu
    for V), as tuples.  So any resolution_factor and every panel halving of
    the Bessel variants reuse it, and a self-dual form's "dual" reuses
    "direct"'s (see uv_cache_stats).  Threads may share the cache: it stays
    coherent, and two that miss the same key at once both build it.  x is
    required exactly for the Bessel variants, which take bessel_transform's
    "kernel" route with the weighted Gaussian as h, sampled on the t-grid
    (its panels halved until they resolve the contour).  Evenness of the
    weights in t is relied upon (the integrals run over t >= 0 doubled);
    the test-suite verifies it."""
    if variant not in DIAGONAL_VARIANTS:
        raise ValueError(f"variant must be one of {DIAGONAL_VARIANTS}, got {variant!r}")
    if not T > 0:
        raise ValueError("width T must be positive")
    if min(l, n, m) < 1:
        raise ValueError("indices l, n, m must be positive integers")
    if not resolution_factor > 0:
        raise ValueError(f"resolution_factor must be positive, got {resolution_factor}")
    spec = weight_spec if weight_spec is not None else _DEFAULT_WEIGHT_SPEC
    bessel = variant.endswith("plus") or variant.endswith("minus")
    if bessel and (x is None or not x > 0):
        raise ValueError("Bessel variants require a positive argument x")
    if not bessel and x is not None:
        raise ValueError("plain variants take no argument x")
    rs_variant = "direct" if variant.startswith("direct") else "dual"
    y_gl2 = float(l if bessel else n)
    y_rs = float(m * m * n)

    tmax = _DIAG_TOP * T
    if not bessel:
        width = min(max(T / 6.0, 1e-4), 1.5) / resolution_factor
        ts, ws = panel_grid(0.0, tmax, width, _GL_NODES)
        fv = _diag_samples(ts, T, y_gl2, y_rs, form, rs_variant, spec)
        return complex((2.0 / math.pi) * np.sum(ws * fv * np.tanh(math.pi * ts) * ts))

    z = 2.0 * math.pi * float(x)

    def sample(width: float) -> _Profile:
        ts, ws = panel_grid(0.0, tmax, width, _GL_NODES)
        return _profile_from_samples(ts, ws, _diag_samples(ts, T, y_gl2, y_rs, form, rs_variant, spec))

    prof = _resolved_profile(sample, min(max(T / 6.0, 1e-4), 0.5) / resolution_factor, z)
    hp, hm = _contour_transforms(prof, np.array([z]))
    return complex((hp if variant.endswith("plus") else hm)[0])
