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

Both transforms are evaluated the same way.  By DLMF 10.32.7 and the
Mehler-Sonine integral, exchanging the t- and zeta-integrals gives

    Hplus(x)  = int_0^inf cos(z cosh zeta) P(zeta) dzeta,
    Hminus(x) = int_0^inf cos(z sinh zeta) P(zeta) dzeta,     z = 2 pi x,
    P(zeta)   = (8/pi) int_0^inf h(t) t tanh(pi t) cos(2 t zeta) dt,

with one profile P for both.  The tanh pole at t = i/2 leaves P an e^{-zeta}
tail, so on the real zeta-line both integrals oscillate for a long way.
Moved to the contour 0 -> i theta -> inf + i theta, the kernels decay like
e^{-z sin(theta) sinh u} and e^{-z sin(theta) cosh u}, and one node set
serves every z of a range [z_min, z_max].  The nodes of the leg
Im zeta = theta lie on equal panels, u = mid_p + half x_q, so the phase of
P there splits as e^{2itu} = e^{2it mid_p} e^{2it half x_q}: one
(panels x samples) table of exponentials times a (samples x 12) table
(_contour).  Each transform at z is then Re sum e^{i z nu} (weights * P)
over the nodes nu = cosh or sinh zeta, a block of arguments at a time,
and each block drops the nodes whose kernel lies more than e^{-_AMP_CUT}
below the largest one at the block's smallest z (_exp_product).  The
geometric side evaluates the transforms only at the nodes of a Chebyshev
interpolant of both in log z (chebyshev._interpolate_log1p), and reads
each z = z1/c, with the error it reports, from that interpolant.  theta
comes from the samples of h themselves: the largest theta <= 1/2 at which
P(zeta + i theta) grows by at most a factor 10, so no decay rate has to be
declared.  Wide or slowly decaying h give a small theta and a long contour.

The test suite checks both transforms against routes that use neither P
nor the contour: direct quadrature in t against mpmath's Bessel values, and
for Hminus also the real Laplace integral for K_{2it} in doubles.

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

import numpy as np

from .afe import _GAMMA_U, FixtureCoverageError, MaassFixture, WeightSpec, _weight_rows
from .chebyshev import _Interpolant, _interpolate_log1p
from .exactarith import _check_positive_integers, kloosterman_sums
from .heckegl3 import GL3Form
from .quadrature import NonDecayError, _legendre_rule, _panel_edges, _row_blocks, gauss_legendre_panels, panel_grid
from .special import GammaData, log_gamma, zeta_with_error

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

_GL_NODES = 12
_EPS = sys.float_info.epsilon
_AMP_CUT = -math.log(_EPS)  # kernels below e^{-_AMP_CUT} of their peak are dropped from the contour
_H_CUT = 1e-11  # h is dropped from the transforms where it falls below this share of its scale
_DELTA_REL_TOL = 1e-13  # delta_weight cuts h where |h| (1 + t)^1.2 falls below this share of its scale
_CONTINUOUS_REL_TOL = 1e-12  # continuous_side cuts h where |h| (1 + t)^1.5 falls below this share


# ---------------------------------------------------------------------------
# test functions


@dataclass(frozen=True)
class SpectralTestFunction:
    """Even test function h(t) entering the spectral sum formula.

    `evaluator` must accept real numpy arrays (vectorized); no evaluation
    needs complex input.  The two analytic hypotheses of the formula are
    *declared*: `decay_exponent` is a theta > 2 with
    h(t) = O((1+|t|)^{-theta}), and `holomorphy_width` is a sigma > 1/2 such
    that h is holomorphic on |Im t| <= sigma; the geometric tail bound rests
    on sigma > 1/2 (_geometric_terms), and no evaluation reads either value:
    the cutoffs and the contour come from samples of h.  Evenness and the decay
    envelope are spot-checked on samples at construction; the declarations
    themselves are trusted (they cannot be verified from finitely many
    samples).
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
    """Smallest t of the geometric scan t_floor 1.4^k in [1e-5, 1e5] at which
    |h| (1+t)^growth lies below tol * scale on all three probes t, 1.37 t and
    1.93 t, scanning down from t_floor while they pass (so that a grid sized
    from t resolves a narrow h) and up while they fail; NonDecayError if never reached."""
    ref = np.array([0.0, 0.7, 1.6, 3.1])
    scale = float(np.max(np.abs(np.asarray(h(ref), dtype=complex)))) + 1e-300

    def passes(t: float) -> bool:
        probe = np.array([t, 1.37 * t, 1.93 * t])
        env = np.abs(np.asarray(h(probe), dtype=complex)) * (1.0 + probe) ** growth
        return bool(np.all(env <= tol * scale))

    t = t_floor
    if passes(t):
        while t / 1.4 >= 1e-5 and passes(t / 1.4):
            t /= 1.4
        return float(t)
    while (t := t * 1.4) <= 1.0e5:
        if passes(t):
            return float(t)
    raise NonDecayError(
        f"test function {getattr(h, 'label', '?')!r} shows no decay below {tol:.1e} of its scale by t = 1e5"
    )


# ---------------------------------------------------------------------------
# diagonal and continuous weights


def delta_weight(h) -> float:
    """Weight of the diagonal term: (1/pi) int_R h(t) tanh(pi t) t dt.

    The integrand is even, so this is (2/pi) int_0^inf.  The truncation point
    comes from a decay scan of h (NonDecayError when h fails to decay)."""
    _check_testfn(h)
    tmax = _even_cutoff(h, _DELTA_REL_TOL, growth=1.2)
    ts, ws = panel_grid(0.0, tmax, min(0.25, tmax / 8.0), _GL_NODES)
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
# zeta-contour evaluation of both transforms


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


def _resolved_profile(f: Callable, t_max: float, width: float, z_min: float) -> _Profile:
    """The profile of the samples f(ts) of h on [0, t_max], on panels <= width;
    the width is halved until 12-node panels resolve cos(2 t zeta), whose rate
    in t is |2 zeta| <= 2 |U + i theta|, along the whole contour of the
    samples' theta."""
    while True:
        ts, ws = panel_grid(0.0, t_max, width, _GL_NODES)
        prof = _profile_from_samples(ts, ws, f(ts))
        if width * abs(complex(_contour_length(prof.theta, z_min), prof.theta)) <= 4.0:
            return prof
        width /= 2.0


def _contour(prof: _Profile, z_min: float, z_max: float) -> tuple:
    """(Hplus, Hminus) as (nodes, w) pairs, each transform at z the
    _exp_product of z, nodes and w, from

        Hplus  = Re int e^{i z cosh zeta} P(zeta) dzeta,
        Hminus = Re int e^{i z sinh zeta} P(zeta) dzeta

    along 0 -> i theta -> U + i theta, for each column of P (real and
    imaginary part of h) on its own, for every z = 2 pi x in
    [z_min, z_max].  Where the kernels lie within e^{-_AMP_CUT} of their
    peak on Im zeta = theta, their exponents change at most at the rate
    z |sinh zeta| <= _AMP_CUT / sin(theta) + z sin(theta) (Hplus) or
    z |cosh zeta| <= _AMP_CUT / sin(theta) + z (Hminus), and P at
    2 ts[-1]: one node set, as long as z_min and as fine as z_max need.

    The u-nodes lie on equal panels, u = mid_p + half x_q, so
    P(u + i theta) = (8/pi) sum_t fw [cos(2tu) cosh(2t theta) -
    i sin(2tu) sinh(2t theta)] takes cos(2tu) and sin(2tu) from the
    product e^{2itu} = e^{2it mid_p} e^{2it half x_q}: a
    (panels x samples) table of exponentials times a (samples x 12)
    table, with no trigonometric call per (node, sample) entry.  Both
    tables go in blocks of samples and of panels of about _ROW_ELEMENTS
    entries, one real product per block on the interleaved real and
    imaginary parts.  An empty profile (h = 0) gives zero weights.  On
    the vertical leg the Hminus integrand i e^{-z sin v} P(iv) is
    imaginary, so only Hplus takes it."""
    theta, ts, fw = prof.theta, prof.ts, prof.fw
    s = math.sin(theta)
    band = 2.0 * float(ts[-1]) if ts.size else 0.0
    # 12-node panels spanning at most 8 units of the integrand's exponent
    edges = _panel_edges(0.0, _contour_length(theta, z_min), 8.0 / (_AMP_CUT / s + z_max + band))
    us, wu = gauss_legendre_panels(edges, _GL_NODES)
    vs, wv = panel_grid(0.0, theta, 8.0 / (z_max * s + band), _GL_NODES)

    mids, phase = 0.5 * (edges[1:] + edges[:-1]), 2j * ts
    offsets = (0.5 * (edges[-1] - edges[0]) / mids.size) * _legendre_rule(_GL_NODES)[0]
    ch = fw * np.cosh(2.0 * theta * ts)[:, None]
    sh = fw * np.sinh(2.0 * theta * ts)[:, None]
    # sums[p, :, q] = sum_t (cos(2tu) ch, sin(2tu) sh) at u = mid_p + half x_q,
    # in real products: OpenBLAS hands a complex one of this size to a second
    # thread, and on a 2-core x86 machine that hand-off stalled about one
    # fresh process in 15 by up to 0.2 s
    sums = np.zeros((mids.size, 2, _GL_NODES, 2))
    for cols in _row_blocks(ts.size, sums[0].size):
        b = np.exp(2j * np.outer(ts[cols], offsets))[:, :, None]
        # rows 2t and 2t + 1 take Re and Im of a = e^{2it mid_p}:
        # cos = Re(ab) = Re a Re b - Im a Im b, sin = Im(ab) = Re a Im b + Im a Re b
        split = np.empty((b.shape[0], 2, 2, _GL_NODES, 2))
        np.multiply(b.real, ch[cols, None], out=split[:, 0, 0])
        np.multiply(b.imag, sh[cols, None], out=split[:, 0, 1])
        np.multiply(b.imag, -ch[cols, None], out=split[:, 1, 0])
        np.multiply(b.real, sh[cols, None], out=split[:, 1, 1])
        split = split.reshape(-1, sums[0].size)
        for rows in _row_blocks(mids.size, b.shape[0]):
            a = np.multiply.outer(mids[rows], phase[cols])
            np.exp(a, out=a)
            sums[rows] += (a.view(float) @ split).reshape(-1, 2, _GL_NODES, 2)
    p_h = (sums[:, 0] - 1j * sums[:, 1]).reshape(-1, 2)
    p_v = np.empty((vs.size, 2))
    for rows in _row_blocks(vs.size, ts.size):
        p_v[rows] = np.cosh(2.0 * np.outer(vs[rows], ts)) @ fw

    zeta = us + 1j * theta
    plus_nodes = np.concatenate([np.cosh(zeta), np.cos(vs)])
    plus_w = (8.0 / math.pi) * np.concatenate([wu[:, None] * p_h, 1j * wv[:, None] * p_v])
    minus_w = (8.0 / math.pi) * wu[:, None] * p_h
    return (plus_nodes, plus_w), (np.sinh(zeta), minus_w)


def _exp_product(zs: np.ndarray, nodes: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Re(exp(i outer(zs, nodes)) @ w), column 0 + i column 1, a block of
    about _ROW_ELEMENTS (argument, node) entries at a time, so that no
    (arguments x nodes) matrix is built.  |e^{i z nu}| = e^{-z Im nu}, so a
    node lies e^{-z (Im nu - min Im nu)} below the largest kernel; each
    block keeps only the nodes within e^{-_AMP_CUT} of it at the block's
    smallest z (the rule _contour_length applies at z_min), which drops at
    most e^{-_AMP_CUT} sum |w| from any argument's sum."""
    zs = np.asarray(zs, dtype=float)
    depth = nodes.imag - np.min(nodes.imag)
    inodes = 1j * nodes
    rows = np.empty((zs.size, 2))
    for block in _row_blocks(zs.size, nodes.size):
        keep = np.min(zs[block]) * depth <= _AMP_CUT
        p = np.multiply.outer(zs[block], inodes[keep])
        np.exp(p, out=p)
        rows[block] = (p @ w[keep]).real
    return rows[:, 0] + 1j * rows[:, 1]


def _kernel_contour(h: SpectralTestFunction, z_min: float, z_max: float) -> tuple:
    """The contour of h's transforms for every z = 2 pi x in [z_min, z_max],
    from the samples of h up to where |h| (1 + t)^1.2 stays below _H_CUT of
    its scale."""
    t_max = _even_cutoff(h, _H_CUT, growth=1.2)
    # tanh(pi t) has poles at t = +-i/2: 12-node panels up to 1/2 wide resolve it
    return _contour(_resolved_profile(h, t_max, min(t_max / 48.0, 0.5), z_min), z_min, z_max)


# ---------------------------------------------------------------------------
# one transform at one argument


def bessel_transform(h, sign, x: float) -> complex:
    """Hplus (sign '+') or Hminus (sign '-') of the test function at x > 0,
    as an integral of the profile P along a zeta-contour, in double
    precision, at any finite argument.

    h enters up to the cutoff where |h| (1 + t)^1.2 falls below
    _H_CUT = 1e-11 of its scale (_even_cutoff).  That is a cut on h, not a
    relative accuracy of the transform: where the transform is small against
    h, the dropped tail is a larger share of it.  For h(t) = exp(-(t/w)^2)
    the transform is proportional to w^3, and at w = 1e-3, x = 0.3 both
    transforms are 2.4e-11 relative off the full integral."""
    h = _check_testfn(h)
    if not x > 0:
        raise ValueError("argument x must be positive")
    if not math.isfinite(x):
        raise ValueError(f"argument x must be finite, got {x}")
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    z = 2.0 * math.pi * x
    plus, minus = _kernel_contour(h, z, z)
    return complex(_exp_product(np.array([z]), *(plus if sign == "+" else minus))[0])


# ---------------------------------------------------------------------------
# geometric side


_DIVISOR_SUM_ERROR = 0.961  # |D(x) - x log x - (2 gamma - 1) x| <= 0.961 sqrt(x) for x >= 1 (_geometric_terms)


def _divisor_summatory(x: int) -> int:
    """D(x) = sum_{c <= x} d(c) by the hyperbola method: 2 sum_{k <= sqrt x} floor(x / k) - floor(sqrt x)^2."""
    r = math.isqrt(x)
    return 2 * sum(x // k for k in range(1, r + 1)) - r * r


def _tail_bracket(c_max: int) -> float:
    """3 (log C + 1 + 2 gamma) / sqrt(C) + 1.5 * 0.961 / C - D(C) / C^{3/2} >= sum_{c > C} d(c) c^{-3/2},
    C = c_max: partial summation, -D(C) C^{-3/2} + (3/2) int_C^inf D(x) x^{-5/2} dx, with the bound on D(x)."""
    c = float(c_max)
    main = 3.0 * (math.log(c) + 1.0 + 2.0 * np.euler_gamma) / math.sqrt(c)
    return main + 1.5 * _DIVISOR_SUM_ERROR / c - _divisor_summatory(c_max) / c**1.5


def _geometric_terms(n: int, l: int, h: SpectralTestFunction, c_max: int):
    """(delta_term, kloosterman_term, tail_estimate) of the geometric side,
    the c-sum truncated at C = c_max.

    The transforms at z = 2 pi x, x = 2 sqrt(nl)/c, c <= C, are read from one
    interpolant of (Hplus, Hminus) in 1 + t = z / z_min
    (chebyshev._interpolate_log1p, to 1e-11) whose nodes are evaluated on one
    contour for [z_min, z_max] = [z(max(C, 2)), z(1)].  All S(+-n, l; c)
    come from one batched call (exactarith.kloosterman_sums), which builds
    each from its prime-power blocks and sums each distinct block once.

    The tail estimate bounds sum_{c > C} (|S(n,l;c) Hplus| + |S(-n,l;c)
    Hminus|) / 2c by 1.5 b0 C sqrt(g) _tail_bracket(C), g = gcd(n, l), from
      - Weil's bound |S(+-n, l; c)| <= d(c) sqrt(g) sqrt(c) (Weil, Proc. Nat.
        Acad. Sci. USA 34 (1948), for prime c; Estermann, Mathematika 8
        (1961), for every c);
      - |Hplus(x)| + |Hminus(x)| <= 3 b0 x / x0 for x <= x0 = 2 sqrt(nl)/C,
        b0 that sum at x0.  The exponent 1 is derived: the tanh pole at
        t = -i/2 gives both transforms the leading term 2 pi x h(-i/2) as
        x -> 0, for h holomorphic on |Im t| <= holomorphy_width > 1/2.  The
        3 is a safety factor;
      - partial summation against |D(x) - x log x - (2 gamma - 1) x| <=
        0.961 sqrt(x) for x >= 1 (Berkane, Bordelles and Ramare, Math.
        Comp. 81 (2012), 1025-1051).
    The interpolation error carried into the c-sum, sum_c (|S(n,l;c)| +
    |S(-n,l;c)|) / 2c times its reported error, is added."""
    _check_positive_integers(n=n, l=l, c_max=c_max)
    h = _check_testfn(h)

    # first, so that the contour is not held through the sums' larger working arrays
    s_plus, s_minus = kloosterman_sums(n, l, c_max)
    root = 2.0 * math.sqrt(float(n) * float(l))
    zs = 2.0 * math.pi * (root / np.arange(1, c_max + 1, dtype=float))
    z_min, z_max = 2.0 * math.pi * (root / max(c_max, 2)), float(zs[0])
    sides = _kernel_contour(h, z_min, z_max)
    # floors eps sum (1 + z |nu|) |w| over the nodes nu: the phase z nu rounds at eps |z nu|, |e^{i z nu}| <= 1
    mass = [np.abs(w).sum(axis=1) for _, w in sides]
    floor = _EPS * np.array([[np.sum(m), np.sum(np.abs(nodes) * m)] for (nodes, _), m in zip(sides, mass)])

    def rows(ts: np.ndarray) -> tuple:
        z = z_min * (1.0 + ts)
        return np.stack([_exp_product(z, *side) for side in sides], axis=1), floor[:, 0] + np.outer(z, floor[:, 1])

    transforms = _interpolate_log1p(rows, z_max / z_min - 1.0, 1e-11, f"Bessel transforms of {h.label}")
    ts = zs / z_min - 1.0
    hp, hm = transforms(ts).T

    two_c = 2.0 * np.arange(1, c_max + 1)
    terms = (s_plus * hp + s_minus * hm) / two_c
    kloost = complex(math.fsum(terms.real), math.fsum(terms.imag))
    delta = 0.5 * delta_weight(h) if n == l else 0.0
    carried = float(np.sum((np.abs(s_plus) + np.abs(s_minus)) / two_c * transforms.error(ts)))
    b0 = abs(hp[-1]) + abs(hm[-1])
    tail = 1.5 * b0 * c_max * math.sqrt(math.gcd(n, l)) * _tail_bracket(c_max)
    return delta, kloost, tail + carried


def geometric_side(n: int, l: int, h, c_max: int) -> complex:
    """Diagonal term plus the Kloosterman sum truncated at c <= c_max:

        (1/2) delta(n,l) H + sum_{c<=c_max} (1/2c) [S(n,l;c) Hplus + S(-n,l;c) Hminus],

    transforms evaluated at 2 sqrt(nl)/c, read from an interpolant in log x
    whose nodes are evaluated on one zeta-contour (as in bessel_transform),
    and the Kloosterman sums in one batched call.
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


def continuous_side(n: int, l: int, h, r_max: float) -> complex:
    """Continuous-series term (1/4 pi) int_{|r| <= r_max} h w(r)
    conj(eta(n, 1/2+ir)) eta(l, 1/2+ir) dr.

    All factors are even in r and eta is real, so the value is real for
    real-valued h; it is returned as complex for uniformity."""
    _check_positive_integers(n=n, l=l)
    if not r_max > 0:
        raise ValueError("r_max must be positive")
    h = _check_testfn(h)
    rc = min(float(r_max), _even_cutoff(h, _CONTINUOUS_REL_TOL, growth=1.5, t_floor=4.0))
    rs, ws = panel_grid(0.0, rc, min(0.2, rc / 8.0), _GL_NODES)
    hv = np.asarray(h(rs), dtype=complex)
    om = continuous_weight(rs)
    integrand = hv * om * _eta_profile(n, rs) * _eta_profile(l, rs)
    return complex(np.sum(ws * integrand) / (2.0 * math.pi))


# ---------------------------------------------------------------------------
# full identity bookkeeping


@dataclass(frozen=True)
class KuznetsovTruncation:
    """Truncation bookkeeping: the Kloosterman cutoff, the continuous-series
    cutoff, how many discrete fixtures entered, and a bound on the dropped
    c > c_max geometric tail plus the interpolation error carried into the
    kept terms.  The tail part is closed-form: Weil's bound on the
    Kloosterman sums, the transforms' linear small-argument envelope and a
    divisor-sum bound by partial summation (_geometric_terms)."""

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
    accepted and unused (no part of the identity runs in a thread); it stays
    because perfbench/workloads.py passes it."""
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

_WEIGHT_SPEC = WeightSpec()  # the AFE weights' parameters


def uv_cache_stats() -> dict:
    """Hit/miss counters of the shared degree-2 / tensor weight cache, one
    count per weight interpolant (all t of [0, 8T] at one y), not per t."""
    info = _cached_weight.cache_info()
    return {"hits": info.hits, "misses": info.misses}


# the weight reads nothing of a form but its gamma data, so a self-dual
# form's two tensor variants share one entry
@functools.lru_cache(maxsize=32)
def _cached_weight(spec: WeightSpec, y: float, top: float, gamma: GammaData, norm: GammaData) -> _Interpolant:
    """W(y, .) on [0, top] as a piecewise Chebyshev interpolant in log(1 + t),
    to the spec's tail_tolerance, of rows from the one contour grid sized
    for top, so that the rows differ only where W does."""

    def rows(ts: np.ndarray) -> tuple:
        return _weight_rows(spec, y, ts, gamma, norm, top)

    return _interpolate_log1p(rows, top, spec.tail_tolerance, f"AFE weight at y = {y}")


def _diag_samples(
    ts: np.ndarray, width_T: float, y_gl2: float, y_rs: float, form: GL3Form, variant: str, spec: WeightSpec
) -> np.ndarray:
    gauss = np.exp(-((ts / width_T) ** 2))
    gamma = form.gamma if variant == "direct" else form.gamma_dual
    top = _DIAG_TOP * width_T
    u = _cached_weight(spec, y_gl2, top, _GAMMA_U, _GAMMA_U)
    v = _cached_weight(spec, y_rs, top, gamma, form.gamma)
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
    [0, 8T] (_cached_weight: 17 to 65 contour rows per piece, 113 for
    each of U and V at T = 20, all from one contour grid), and every t-grid
    is evaluated from it, for the default WeightSpec().  Each piece reports
    as its error the gap of its half-size interpolant times that gap's
    contraction from the quarter-size one's, capped at 1, plus its rounding
    allowance (chebyshev._interpolate_log1p).  The interpolant is cached
    module-wide (_cached_weight's 32-entry functools.lru_cache) keyed on the
    weight parameters, y, 8T and the two GammaData the weight reads: the
    data it carries and the data that normalizes it (_GAMMA_U by itself for
    U, form.gamma or form.gamma_dual by form.gamma for V), equal when their
    shifts are.  So any resolution_factor and every panel halving of the
    Bessel variants reuse it, and a self-dual form's "dual" reuses
    "direct"'s (see uv_cache_stats).  Threads may share the cache: it stays
    coherent, and two that miss the same key at once both build it.  x is
    required exactly for the Bessel variants, which are evaluated as
    bessel_transform evaluates them, with the weighted Gaussian as h,
    sampled on the t-grid (its panels halved until they resolve the
    contour).  Evenness of the weights in t is relied upon (the integrals
    run over t >= 0 doubled); the test-suite verifies it."""
    if variant not in DIAGONAL_VARIANTS:
        raise ValueError(f"variant must be one of {DIAGONAL_VARIANTS}, got {variant!r}")
    if not 0 < T < math.inf:
        raise ValueError(f"width T must be positive and finite, got {T}")
    _check_positive_integers(l=l, n=n, m=m)
    if not 0 < resolution_factor < math.inf:
        raise ValueError(f"resolution_factor must be positive and finite, got {resolution_factor}")
    bessel = variant.endswith("plus") or variant.endswith("minus")
    if bessel and (x is None or not x > 0):
        raise ValueError("Bessel variants require a positive argument x")
    if bessel and not math.isfinite(x):
        raise ValueError(f"argument x must be finite, got {x}")
    if not bessel and x is not None:
        raise ValueError("plain variants take no argument x")
    rs_variant = "direct" if variant.startswith("direct") else "dual"
    y_gl2 = float(l if bessel else n)
    y_rs = float(m * m * n)

    tmax = _DIAG_TOP * T
    if not bessel:
        width = min(max(T / 6.0, 1e-4), 1.5) / resolution_factor
        ts, ws = panel_grid(0.0, tmax, width, _GL_NODES)
        fv = _diag_samples(ts, T, y_gl2, y_rs, form, rs_variant, _WEIGHT_SPEC)
        return complex((2.0 / math.pi) * np.sum(ws * fv * np.tanh(math.pi * ts) * ts))

    z = 2.0 * math.pi * float(x)

    def samples(ts: np.ndarray) -> np.ndarray:
        return _diag_samples(ts, T, y_gl2, y_rs, form, rs_variant, _WEIGHT_SPEC)

    prof = _resolved_profile(samples, tmax, min(max(T / 6.0, 1e-4), 0.5) / resolution_factor, z)
    plus, minus = _contour(prof, z, z)
    return complex(_exp_product(np.array([z]), *(plus if variant.endswith("plus") else minus))[0])
