"""Rank-3 Voronoi transform and the dual-sum identity it feeds.

The transform takes a smooth compactly supported test function phi through
a Mellin-Barnes integral with a six-gamma quotient,

    Phi_k(x) = int_{Re s = sigma} (pi^3 x)^{-s}
               prod_i Gamma((1+s+2k+a_i)/2) / prod_i Gamma((-s-a_i)/2)
               phitilde(-s-k) ds,         k in {0, 1},

a BARE line integral (no 1/(2 pi i); the i from ds = i dv is kept), where
(a_1, a_2, a_3) are the form's spherical parameters and phitilde(s) =
int phi(x) x^{s-1} dx.  Substituting s = 2w - 1 gives the equivalent form

    Phi_k(x) = 2 pi^3 x int_{Re w = (1+sigma)/2} (pi^3 x)^{-2w}
               prod_i Gamma(w+k+a_i/2) / prod_i Gamma(1/2-w-a_i/2)
               phitilde(-2w+1-k) dw,

implemented as an independent route and cross-checked as a dual-
representation oracle.  The two orders combine into

    Phi^0(x) = Phi_0(x) + (pi^{-3} c^3 n / (m1^2 m2 i)) Phi_1(x),
    Phi^1(x) = Phi_0(x) - (pi^{-3} c^3 n / (m1^2 m2 i)) Phi_1(x),

and the summation identity reads, for gcd(a, c) = 1 with a abar = 1 (c),

    sum_{m>0} A(n, m) e(m abar / c) phi(m)
      = (c pi^{-5/2} / 4i) sum_{m1 | cn} sum_{m2>0} A(m1, m2)/(m1 m2)
            [ S(n a,  m2; n c / m1) Phi^0(m2 m1^2 / (c^3 n))
            + S(n a, -m2; n c / m1) Phi^1(m2 m1^2 / (c^3 n)) ].

Far tail.  For x large against the reciprocal support scale both orders
follow from the standard Stirling analysis of the kernel (cf. Ivic 1997;
Blomer, Amer. J. Math. 2012).  For the degenerate form (all a_i = 0),
reflection and duplication turn the order-k six-gamma quotient into

    pi^{-3/2} 2^{-3k-3s} Gamma(1+k+s)^3 (-sin^3(pi s/2)),

and -sin^3(t) = (sin(3t) - 3 sin(t))/4.  The sin(3 pi s/2)/4 part carries
the oscillation; the 3 sin(pi s/2) part gives only e^{-c (xy)^{1/3}}-small
terms.  The inverse-factorial expansion

    Gamma(1+k+s)^3 = 2 pi 3^{1/2-3s-beta} sum_j A_j Gamma(3s+beta-j),
    beta = 3k + 2,   A = (1, -1/3, 2/9, -14/81, 8/243, ...),

has the same A_j for k = 0 and k = 1, because the k = 1 product is the
k = 0 product at s+1.  Each Gamma(3s+beta-j) inverts to
e^{+-6i (pi^3 xy)^{1/3}}, which gives the rung ladder

    Phi_k(x) ~ 2 pi^4 x i (pi^3 x)^k sum_{J>=1} r_J int phi(y)
               sin(6 pi (xy)^{1/3} - pi (3-J)/2 + k pi/2) (pi^3 x y)^{-J/3} dy,
    r_J = A_{J-1} 6^{3-J} / (18 sqrt(3 pi)).

Rung 1 is the classical leading term -2/sqrt(3 pi) sin(6 pi (xy)^{1/3}),
and order 1 is pi^3 x times the order-0 sum turned by a quarter period, so
one set of rung integrals serves both orders (_tail_asymptotic).  For other
spherical forms rung 1 is unchanged (sum a_i = 0), but A_1 becomes
-1/3 + 3 sum a_i^2 / 2, so the later rungs hold for the degenerate form only.

Degenerate-form main term.  The identity above is stated for cuspidal
coefficients, whose twisted Dirichlet series D(s) = sum_m A(n, m)
e(m abar / c) m^{-s} is entire.  The triple-divisor form is polar: its
D(s) has a pole at s = 1 (order up to three), and the contour shift that
produces the dual sum picks up its residue, so

    LHS = Res_{s=1}[ phitilde(s) D(s) ] + dual sum.

For that form and n = 1 the series factors exactly over residue classes
into Hurwitz zetas, D(s) = c^{-3s} sum_{r1,r2,r3 mod c} e(abar r1 r2 r3/c)
prod_i zeta_H(s, r_i/c), and polar_main_term computes the residue by a
small positively oriented circle around s = 1.  Cuspidal forms get a zero
main term and the classical identity back.

Contour mechanics.  Each transform order is one quadrature.contour_kernel,
stopped by the double-precision floor of its Mellin factor.  The
integrand's modulus grows like |v|^{(3 + 6 sigma + 6 k + 2 sum_i Re a_i)/2}
against the test function's Mellin decay, so the height it needs depends
on the abscissa: public evaluators honor the spec's sigma exactly, and the
double-sum verifier uses the modulus-neutral abscissa (_neutral_abscissa).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exactarith import kloosterman, mod_inverse
from .heckegl3 import GL3Form, coefficient_block
from .quadrature import contour_kernel, gauss_legendre_panels
from .special import PoleError, RegimeError, log_gamma
from .util import ordered_parallel_map

__all__ = [
    "VoronoiKernelSpec",
    "TruncationRecord",
    "VoronoiSides",
    "mellin_transform",
    "voronoi_kernel",
    "voronoi_kernel_with_error",
    "voronoi_kernel_batch",
    "combined_kernel",
    "voronoi_kernel_asymptotic",
    "polar_main_term",
    "voronoi_sides",
    "voronoi_residual_profile",
]

# Inverse-factorial coefficients A_j of Gamma(1+k+s)^3 (module docstring)
# and the ladder rungs r_J = A_{J-1} 6^{3-J} / (18 sqrt(3 pi)), J = 1..5.
# The last rung only sizes the truncation allowance of the first four.
_STIRLING_A = (1.0, -1.0 / 3.0, 2.0 / 9.0, -14.0 / 81.0, 8.0 / 243.0)
_RUNGS = tuple(
    a * 6.0 ** (2 - j) / (18.0 * math.sqrt(3.0 * math.pi)) for j, a in enumerate(_STIRLING_A)
)
_MAX_RUNGS = len(_RUNGS) - 1

_MELLIN_CHUNK = 512  # contour points per block in the Mellin matrix product


def _support_of(phi, support):
    if support is None:
        support = getattr(phi, "support", None)
    if support is None:
        raise ValueError(
            "test function carries no .support attribute; pass support=(lo, hi)"
        )
    lo, hi = float(support[0]), float(support[1])
    if not 0.0 < lo < hi:
        raise ValueError(f"support must satisfy 0 < lo < hi, got ({lo}, {hi})")
    return lo, hi


def _mellin_evaluator(phi: Callable, support: tuple) -> Callable:
    """Batched phitilde(s) = int phi(x) x^{s-1} dx on a cached node grid.

    The grid is rebuilt whenever a batch needs more height than it was
    sized for: panel width tracks the fastest x^{i Im s} oscillation at the
    left end of the support (period 2 pi lo / |Im s|), with a floor fine
    enough to resolve the bump itself.  Evaluation is chunked so the
    (contour nodes) x (grid nodes) phase matrix stays memory-bounded.
    """
    lo, hi = support
    lnc = 0.5 * (math.log(lo) + math.log(hi))
    state: dict = {"H": -1.0}

    def at(s):
        s = np.atleast_1d(np.asarray(s, dtype=complex))
        H = float(np.max(np.abs(s.imag))) if s.size else 1.0
        if H > state["H"]:
            Hb = max(16.0, 1.5 * H)
            # 12-node panels spanning <= 1.8 periods of the fastest x^{i Im s}
            width = min((hi - lo) / 16.0, 2.0 * math.pi * 1.8 * lo / Hb)
            n_panels = max(1, int(math.ceil((hi - lo) / width)))
            x, w = gauss_legendre_panels(np.linspace(lo, hi, n_panels + 1), 12)
            # center the log phases: the grid-side argument stays below
            # half the log-width of the support, keeping the phase rounding
            # (~1e-16 per radian) from swamping cancellation at big heights
            state.update(
                H=Hb, lnx=np.log(x) - lnc, wphi=w * np.asarray(phi(x), dtype=complex)
            )
        out = np.empty(s.shape, dtype=complex)
        for i in range(0, s.size, _MELLIN_CHUNK):
            blk = s[i : i + _MELLIN_CHUNK]
            out[i : i + _MELLIN_CHUNK] = (
                np.exp(np.outer(blk - 1.0, state["lnx"])) @ state["wphi"]
            )
        return out * np.exp((s - 1.0) * lnc)

    return at


def mellin_transform(phi: Callable, s, support: tuple | None = None):
    """int_0^inf phi(x) x^{s-1} dx for compactly supported smooth phi.

    Entire in s; decays faster than any power of |Im s| (but for the
    exp-ramp bumps only sub-exponentially, roughly exp(-c sqrt(Im s)) --
    tests pin the measured profile).  Scalar s gives a complex scalar, an
    array gives an array.
    """
    sup = _support_of(phi, support)
    vals = _mellin_evaluator(phi, sup)(s)
    return complex(vals[0]) if np.isscalar(s) or np.asarray(s).ndim == 0 else vals


@dataclass(frozen=True)
class VoronoiKernelSpec:
    """Form parameters, test function, and contour abscissa for the transform.

    The form must be spherical (maass_type): its alpha, beta, gamma are the
    a_i of the six-gamma quotient, and other forms raise ValueError.
    The test function must be smooth, real-valued, and compactly supported
    in (0, inf), advertising its support via a .support attribute (a
    SmoothBump does).  sigma must stay right of the rightmost pole of the
    numerator gammas, sigma > max_i(-1 - Re a_i); when omitted it defaults
    to that bound plus one half.
    """

    form: GL3Form
    test_function: Callable
    sigma: float | None = None

    def __post_init__(self) -> None:
        if not self.form.maass_type:
            raise ValueError(
                f"form {self.form.label!r} carries no spherical parameters; the "
                "Voronoi kernel is implemented for spherical forms only"
            )
        _support_of(self.test_function, None)
        bound = self.pole_bound()
        if self.sigma is None:
            object.__setattr__(self, "sigma", bound + 0.5)
        if not self.sigma > bound:
            raise PoleError(
                f"contour abscissa {self.sigma} is not right of the numerator "
                f"gamma poles (needs sigma > {bound})"
            )

    def spherical(self) -> tuple:
        return (complex(self.form.alpha), complex(self.form.beta), complex(self.form.gamma))

    def pole_bound(self, k: int = 0) -> float:
        return max(-1.0 - 2 * k - z.real for z in self.spherical())

    @property
    def support(self) -> tuple:
        return _support_of(self.test_function, None)


@dataclass(frozen=True)
class TruncationRecord:
    m2_cutoff: int
    tail_estimate: float


@dataclass(frozen=True)
class VoronoiSides:
    lhs: complex
    rhs: complex
    truncation: TruncationRecord
    main_term: complex = 0j  # polar-form residue included in rhs; 0 for cuspidal

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)


def _phi_contour_kernel(
    spec: VoronoiKernelSpec,
    k: int,
    route: str,
    max_abs_ln_y: float,
    abscissa: float | None = None,
):
    """Contour kernel whose .apply gives (1/2 pi i) int y^{-u} K(u) du.

    route "direct": u on the s-line, y = pi^3 x, K = six-gamma quotient
    times phitilde(-u-k); route "shifted": the s = 2w-1 substitution, u on
    the w-line, y = (pi^3 x)^2.  Callers restore the bare-integral
    normalization (2 pi i) and the shifted route's 2 pi^3 x prefactor.
    `abscissa` overrides the spec's sigma (in s-coordinates) -- the value
    is abscissa-independent in the pole-free half-plane for order k, which
    the dual-route and contour-shift tests verify.
    """
    if k not in (0, 1):
        raise ValueError(f"kernel order k must be 0 or 1, got {k}")
    abg = spec.spherical()
    sigma_s = spec.sigma if abscissa is None else float(abscissa)
    if not sigma_s > spec.pole_bound(k):
        raise PoleError(
            f"abscissa {sigma_s} is not right of the order-{k} numerator poles"
        )
    mell = _mellin_evaluator(spec.test_function, spec.support)
    lo, hi = spec.support
    symmetric = all(abs(z.imag) < 1e-12 for z in abg)

    if route == "direct":
        sigma = sigma_s
        mell_re = -sigma_s - k

        def quot_log_mag(u):
            num = sum(log_gamma((1.0 + u + 2 * k + z) / 2.0) for z in abg)
            den = sum(log_gamma((-u - z) / 2.0) for z in abg)
            return num - den

        def kfunc(u):
            return np.exp(quot_log_mag(u)) * mell(-u - k)

    elif route == "shifted":
        sigma = (1.0 + sigma_s) / 2.0
        mell_re = -2.0 * sigma + 1.0 - k

        def quot_log_mag(u):
            num = sum(log_gamma(u + k + z / 2.0) for z in abg)
            den = sum(log_gamma(0.5 - u - z / 2.0) for z in abg)
            return num - den

        def kfunc(u):
            return np.exp(quot_log_mag(u)) * mell(-2.0 * u + 1.0 - k)

    else:
        raise ValueError(f"unknown route {route!r}")

    # double-precision floor of the Mellin factor: phase arguments of size
    # (height) x (centered log half-width) round at ~1e-16 per radian, on
    # top of the plain summation rounding of the unsigned mass
    mell_mass = abs(complex(mell(np.array([complex(mell_re, 0.0)]))[0]))
    half_ln = 0.5 * (math.log(hi) - math.log(lo))
    mell_rate = 2.0 if route == "shifted" else 1.0  # Mellin height per unit contour height

    def kfloor(u):
        h = np.abs(np.imag(np.atleast_1d(u))) * mell_rate
        return (
            2e-16
            * max(mell_mass, 1e-300)
            * (1.0 + h * half_ln)
            * np.exp(np.real(quot_log_mag(u)))
        )

    # oscillation budget (radians per unit height): y^{-iv} itself, the
    # Mellin factor's phase speed (doubled on the shifted route, bounded by
    # the larger |log| end of the support), and the gamma-quotient phase
    # drifting like (3/2) ln v across the realistic height range
    osc = (
        max_abs_ln_y
        + mell_rate * max(abs(math.log(lo)), abs(math.log(hi)))
        + 12.0
    )
    # 12-node panels spanning <= 9 radians (~1.4 periods) of the fastest phase
    return contour_kernel(
        kfunc, sigma, width=min(0.5, 9.0 / osc), tol=1e-11, symmetric=symmetric,
        height=512.0, cap=6000.0, kfloor=kfloor,
    )


def voronoi_kernel_with_error(
    spec: VoronoiKernelSpec, k: int, x: float, route: str = "direct"
) -> tuple:
    """(value, truncation error estimate) for the order-k transform at x."""
    if x <= 0:
        raise ValueError("transform argument must be positive")
    y = math.pi**3 * x
    if route == "direct":
        kern = _phi_contour_kernel(spec, k, route, abs(math.log(y)))
        scale = 2.0 * math.pi
        val = scale * 1j * complex(kern.apply(np.array([y]))[0])
        err = scale * kern.tail_estimate * y ** (-kern.sigma)
        return val, err
    if route == "shifted":
        # 2 pi^3 x times the bare w-integral; the substitution halves the
        # contour height and doubles the log-argument speed.
        kern = _phi_contour_kernel(spec, k, route, 2.0 * abs(math.log(y)))
        scale = 4.0 * math.pi * y
        val = scale * 1j * complex(kern.apply(np.array([y * y]))[0])
        err = scale * kern.tail_estimate * (y * y) ** (-kern.sigma)
        return val, err
    raise ValueError(f"unknown route {route!r}")


def voronoi_kernel(spec: VoronoiKernelSpec, k: int, x: float, route: str = "direct") -> complex:
    """The order-k Mellin-Barnes transform at x > 0 (bare-ds normalization).

    route selects the contour parametrization; both evaluate the same
    analytic object and agree to quadrature accuracy, which tests pin.
    Evaluation honors spec.sigma exactly.
    """
    return voronoi_kernel_with_error(spec, k, x, route)[0]


def voronoi_kernel_batch(
    spec: VoronoiKernelSpec,
    k: int,
    xs,
    route: str = "direct",
    _abscissa: float | None = None,
) -> np.ndarray:
    """Order-k transform on an array of arguments sharing one contour grid."""
    xs = np.asarray(xs, dtype=float)
    if np.any(xs <= 0):
        raise ValueError("transform arguments must be positive")
    ys = math.pi**3 * xs
    lnys = np.abs(np.log(ys))
    if route == "direct":
        kern = _phi_contour_kernel(spec, k, route, float(np.max(lnys)), _abscissa)
        return 2j * math.pi * kern.apply(ys)
    if route == "shifted":
        kern = _phi_contour_kernel(spec, k, route, 2.0 * float(np.max(lnys)), _abscissa)
        return 4j * math.pi * ys * kern.apply(ys * ys)
    raise ValueError(f"unknown route {route!r}")


def combined_kernel(
    spec: VoronoiKernelSpec, variant: int, x: float, c: int, n: int, m1: int, m2: int
) -> complex:
    """Phi_0(x) +/- (pi^{-3} c^3 n / (m1^2 m2 i)) Phi_1(x); variant 0 is +."""
    if variant not in (0, 1):
        raise ValueError(f"variant must be 0 or 1, got {variant}")
    phi0 = voronoi_kernel(spec, 0, x)
    phi1 = voronoi_kernel(spec, 1, x)
    mix = (c**3 * n) / (math.pi**3 * m1**2 * m2 * 1j)
    return phi0 + mix * phi1 if variant == 0 else phi0 - mix * phi1


def voronoi_kernel_asymptotic(spec: VoronoiKernelSpec, x: float, order: int = 1) -> complex:
    """Large-argument oscillatory expansion of the order-0 transform.

    Valid once x times the support scale is large; `order` counts the rungs
    J = 1..order of the derived ladder (module docstring), each weighted by
    (pi^3 x y)^{-J/3}, so the relative defect of order K scales like
    (x*support)^{-K/3}.  Order 1 is the leading term and holds for every
    spherical form; orders 2..4 are derived for the degenerate form and
    raise ValueError for others.
    """
    if x <= 0:
        raise ValueError("transform argument must be positive")
    lo, _ = spec.support
    if x * lo <= 1.0:
        raise RegimeError(
            f"asymptotic expansion needs x * support scale >> 1, got {x * lo:.3g}"
        )
    if not 1 <= order <= _MAX_RUNGS:
        raise ValueError(f"order must lie in 1..{_MAX_RUNGS}, got {order}")
    if order >= 2 and any(abs(z) > 1e-12 for z in spec.spherical()):
        raise ValueError(
            "ladder rungs beyond the first are derived for the degenerate form "
            "(all spherical parameters zero) only"
        )
    phi0, _, _, _ = _tail_asymptotic(spec, np.array([float(x)]), rungs=order)
    return complex(phi0[0])


def _neutral_abscissa(spec: VoronoiKernelSpec, k: int) -> float:
    """Contour where the six-gamma quotient's modulus is height-neutral.

    |quotient(sigma+iv)| ~ |v|^{(3+6 sigma+6k+2 sum Re a_i)/2}, so the
    exponent vanishes at sigma = -(1+2k)/2 - sum(Re a_i)/3; clamped half a
    unit right of the order-k poles when that point is out of range.
    """
    s = sum(z.real for z in spec.spherical())
    return max(-(1.0 + 2 * k) / 2.0 - s / 3.0, spec.pole_bound(k) + 0.5)


def polar_main_term(
    form: GL3Form,
    n: int,
    a: int,
    c: int,
    phi: Callable,
    support: tuple | None = None,
) -> complex:
    """Residue at s = 1 of phitilde(s) times the twisted coefficient series.

    Cuspidal forms return 0: their twisted series is entire and the dual-sum
    identity needs no correction.  For the polar (triple-divisor) form the
    series D(s) = sum_m A(1, m) e(m abar / c) m^{-s} factors over residue
    classes mod c into products of Hurwitz zetas (see the module docstring),
    and the residue is computed as a 64-node trapezoid integral over the
    circle |s - 1| = 1/2 — spectrally accurate since the integrand is
    analytic on an annulus around that circle.  Only the first coefficient
    row factors this way, so twist rows n > 1 are rejected.

    The result is real for real test functions (the polar parts of the
    class series depend only on gcd(r, c), pairing conjugate twists), but
    is returned as the complex value the quadrature produces.
    """
    if not form.polar:
        return 0j
    if n != 1:
        raise ValueError(
            "polar main term is implemented for twist row n = 1 only"
        )
    import mpmath

    lo, hi = _support_of(phi, support)
    abar = int(mod_inverse(a, c).value)
    mell = _mellin_evaluator(phi, (lo, hi))

    rho, nodes = 0.5, 64
    theta = 2.0 * math.pi * np.arange(nodes) / nodes
    s_circle = 1.0 + rho * np.exp(1j * theta)
    with mpmath.workdps(20):
        zh = np.array(
            [
                [complex(mpmath.zeta(complex(s), r / c)) for s in s_circle]
                for r in range(1, c + 1)
            ]
        )
    # pair sums over r1 r2 = t (c), then the twisted triple contraction
    pair = np.zeros((c, nodes), dtype=complex)
    for r1 in range(1, c + 1):
        for r2 in range(1, c + 1):
            pair[(r1 * r2) % c] += zh[r1 - 1] * zh[r2 - 1]
    series = np.zeros(nodes, dtype=complex)
    for t in range(c):
        for r3 in range(1, c + 1):
            twist = np.exp(2j * math.pi * ((abar * t * r3) % c) / c)
            series += twist * pair[t] * zh[r3 - 1]
    series *= np.exp(-3.0 * s_circle * math.log(c))
    integrand = np.asarray(mell(s_circle), dtype=complex) * series
    return complex(rho * np.mean(integrand * np.exp(1j * theta)))


# Beyond this multiple of the reciprocal support scale the residual profile
# evaluates the transforms by the derived ladder.  At the seam its four
# rungs agree with the exact kernels to about 1e-9 relative, within the
# kernels' own error estimates, and the fifth rung is about 1e-11 relative.
_TAIL_XLO = 3.0e3
_TAIL_ELEMENTS = 1 << 16  # (x, y) entries per row chunk of a ladder block


def _tail_asymptotic(spec: VoronoiKernelSpec, xs: np.ndarray, rungs: int = _MAX_RUNGS):
    """Both transforms on an ascending grid via the derived rung ladder.

    Used for x * support_lo >= _TAIL_XLO, where exact contour kernels are
    expensive (their height budget grows with ln x).  Evaluates in geometric
    blocks so each block's quadrature grid is sized by its own fastest
    phase.  The rung integrals M_J = int phi(y) e^{6 pi i (xy)^{1/3}}
    (pi^3 x y)^{-J/3} dy serve both orders.  Returns (order0, order1,
    allow0, allow1): each allowance is |rung rungs+1| plus the rounding
    floor of the n-node sums, eps (sqrt(n) + theta/sqrt(n)) times the
    absolute mass, theta the largest phase (rounded to eps theta per node).
    """
    lo, hi = spec.support
    phi = spec.test_function
    vals = np.empty((2, xs.size), dtype=complex)
    allow = np.empty((2, xs.size))
    eps = np.finfo(float).eps
    start = 0
    while start < xs.size:
        stop = int(np.searchsorted(xs, 2.0 * xs[start], side="right"))
        stop = max(stop, min(start + 512, xs.size))
        stop = min(stop, start + 2048)  # bound the phase-matrix footprint
        blk = xs[start:stop]
        # 12-node panels spanning <= 1.4 periods of the fastest oscillation
        # (a pure phase then integrates to rounding; 1.8 periods leave 2e-13),
        # floored fine enough to resolve the bump's exp ramps even when the
        # phase is slow (the ramps, not the oscillation, set the bandwidth
        # near the lower end of the ladder regime)
        freq = blk[-1] ** (1.0 / 3.0) * lo ** (-2.0 / 3.0)
        width = min((hi - lo) / 48.0, 1.4 / freq)
        n_panels = max(1, int(math.ceil((hi - lo) / width)))
        y, w = gauss_legendre_panels(np.linspace(lo, hi, n_panels + 1), 12)
        wphi = w * np.asarray(phi(y), dtype=float)
        rung = np.empty((rungs + 1, blk.size), dtype=complex)
        mass = np.empty(blk.size)  # int |phi| (pi^3 x y)^{-1/3} dy
        # a few rows at a time and in place, for the reason given at
        # ContourKernel.apply: a row's sums do not depend on the others
        step = max(1, _TAIL_ELEMENTS // y.size)
        for i in range(0, blk.size, step):
            xy_cbrt = np.outer(blk[i : i + step], y)
            np.cbrt(xy_cbrt, out=xy_cbrt)
            amp = 6j * math.pi * xy_cbrt
            np.exp(amp, out=amp)
            inv = np.multiply(xy_cbrt, math.pi, out=xy_cbrt)
            np.divide(1.0, inv, out=inv)  # (pi^3 x y)^{-1/3}
            for j in range(rungs + 1):
                amp *= inv
                rung[j, i : i + step] = amp @ wphi
            mass[i : i + step] = inv @ np.abs(wphi)
        theta = 6.0 * math.pi * np.cbrt(blk * hi)
        floor = eps * (math.sqrt(y.size) + theta / math.sqrt(y.size)) * mass
        floor *= sum(abs(r) for r in _RUNGS[:rungs])
        for k in (0, 1):
            # sin(t + pi (J - 3 + k)/2) = Im[i^{J-3+k} e^{it}], J = j + 1
            acc = sum(
                _RUNGS[j] * ((1, 1j, -1, -1j)[(j - 2 + k) % 4] * rung[j]).imag
                for j in range(rungs)
            )
            scale = 2.0 * math.pi**4 * blk * (math.pi**3 * blk) ** k
            vals[k, start:stop] = scale * 1j * acc
            allow[k, start:stop] = scale * (abs(_RUNGS[rungs]) * np.abs(rung[rungs]) + floor)
        start = stop
    return vals[0], vals[1], allow[0], allow[1]


def voronoi_residual_profile(
    form: GL3Form,
    n: int,
    a: int,
    c: int,
    phi: Callable,
    m2_cutoffs: Sequence[int],
    threads: int = 4,
) -> list:
    """voronoi_sides at several m2 cutoffs, sharing one pair of kernels.

    The transforms dominate the cost and depend on the cutoff only through
    the largest argument, so the profile computes them once at the largest
    cutoff and assembles each truncation from partial sums.  Transform
    arguments below the ladder regime (x * support_lo < _TAIL_XLO) use
    exact contour kernels at the modulus-neutral abscissae; the degenerate
    form's far tail uses _tail_asymptotic.  For the polar form the dual side
    includes the residue term from polar_main_term.  Returns one
    VoronoiSides per cutoff, in the given order.
    """
    if n < 1 or c < 1:
        raise ValueError("need n >= 1 and c >= 1")
    cutoffs = [int(m) for m in m2_cutoffs]
    if not cutoffs or min(cutoffs) < 4:
        raise ValueError("m2 cutoffs must all be at least 4")
    abar = int(mod_inverse(a, c).value)  # raises NotCoprimeError unless gcd = 1
    spec = VoronoiKernelSpec(form=form, test_function=phi)
    lo, hi = spec.support
    top = max(cutoffs)

    # left side: finitely many integer samples inside the support
    ms = np.arange(max(1, int(math.floor(lo))), int(math.ceil(hi)) + 1)
    row = coefficient_block(form, n, int(ms[-1]))
    phases = np.exp(2j * math.pi * abar * ms / c)
    lhs = complex(np.sum(row[ms] * phases * np.asarray(phi(ms.astype(float)), dtype=complex)))

    polar = polar_main_term(form, n, a, c, phi, (lo, hi)) if form.polar else 0j

    # right side: exact contour kernels (one per order, modulus-neutral
    # abscissae) cover arguments up to the ladder regime; beyond that the
    # derived rung ladder takes over
    cn = c * n
    m1s = [d for d in range(1, cn + 1) if cn % d == 0]
    m2s = np.arange(1, top + 1)
    # the ladder's later rungs are derived for the parameter-free degenerate
    # form; other forms keep exact contour kernels for every argument
    degenerate = all(abs(z) < 1e-12 for z in spec.spherical())
    x_exact = _TAIL_XLO / lo if degenerate else math.inf
    exact_lns = []
    for m1 in m1s:
        if degenerate:
            m2_edge = min(top, max(1, int(x_exact * c**3 * n / (m1 * m1))))
        else:
            m2_edge = top
        for m2 in (1, m2_edge):
            exact_lns.append(abs(math.log(math.pi**3 * m1 * m1 * m2 / (c**3 * n))))
    max_ln = max(exact_lns)
    kerns = ordered_parallel_map(
        lambda k: _phi_contour_kernel(spec, k, "direct", max_ln, _neutral_abscissa(spec, k)),
        (0, 1),
        threads=min(threads, 2),
    )

    def block(m1: int):
        q, rem = divmod(n * c, m1)
        if rem:  # unreachable for true divisors; guards corrupted input
            raise ValueError(f"modulus n c / m1 must be integral, got remainder {rem}")
        xs = m2s * m1 * m1 / (c**3 * n)
        n_exact = int(np.searchsorted(xs, x_exact, side="right"))
        phi0 = np.empty(top, dtype=complex)
        phi1 = np.empty(top, dtype=complex)
        err0 = np.zeros(top)
        err1 = np.zeros(top)
        if n_exact:
            ys = math.pi**3 * xs[:n_exact]
            phi0[:n_exact] = 2j * math.pi * kerns[0].apply(ys)
            phi1[:n_exact] = 2j * math.pi * kerns[1].apply(ys)
            err0[:n_exact] = 2.0 * math.pi * kerns[0].tail_estimate * ys ** (-kerns[0].sigma)
            err1[:n_exact] = 2.0 * math.pi * kerns[1].tail_estimate * ys ** (-kerns[1].sigma)
        if n_exact < top:
            (phi0[n_exact:], phi1[n_exact:], err0[n_exact:], err1[n_exact:]) = _tail_asymptotic(
                spec, xs[n_exact:]
            )
        mixmag = (c**3 * n) / (math.pi**3 * m1 * m1 * m2s)
        mix = mixmag / 1j
        coeffs = coefficient_block(form, m1, top)[1:]
        table_p = np.array([kloosterman(n * a, r, q) for r in range(q)])
        table_m = np.array([kloosterman(n * a, -r, q) for r in range(q)])
        res = m2s % q
        s_plus, s_minus = table_p[res], table_m[res]
        base = coeffs / (m1 * m2s)
        terms = base * (s_plus * (phi0 + mix * phi1) + s_minus * (phi0 - mix * phi1))
        errs = np.abs(base) * (np.abs(s_plus) + np.abs(s_minus)) * (err0 + mixmag * err1)
        return terms, errs

    blocks = ordered_parallel_map(block, m1s, threads=threads)
    pref = c * math.pi ** (-2.5) / 4j
    out = []
    for cut in cutoffs:
        rhs = polar + pref * sum(np.sum(b[:cut]) for b, _ in blocks)
        last_dyad = sum(float(np.sum(np.abs(b[cut // 2 : cut]))) for b, _ in blocks)
        quad_err = sum(float(np.sum(e[:cut])) for _, e in blocks)
        tail = abs(pref) * (2.0 * last_dyad + quad_err)
        out.append(
            VoronoiSides(
                lhs=lhs,
                rhs=complex(rhs),
                truncation=TruncationRecord(cut, tail),
                main_term=polar,
            )
        )
    return out


def voronoi_sides(
    form: GL3Form,
    n: int,
    a: int,
    c: int,
    phi: Callable,
    m2_cutoff: int,
    threads: int = 4,
) -> VoronoiSides:
    """Both sides of the dual-sum identity with the twist e(m abar / c).

    LHS: sum over the integers in phi's support of A(n, m) e(m abar / c)
    phi(m), exact coefficients.  RHS: the m1 | cn, m2 <= m2_cutoff double
    sum with prefactor c pi^{-5/2} / (4i), plus the polar residue term for
    the degenerate form (polar_main_term; zero for cuspidal forms).  The
    tail estimate is twice the mass of the last included dyadic m2 block
    (empirical bound on the super-polynomially decaying remainder) plus
    the accumulated transform quadrature allowances.
    """
    return voronoi_residual_profile(form, n, a, c, phi, [m2_cutoff], threads=threads)[0]
