"""Rank-3 Voronoi transform and the dual-sum identity it feeds.

The transform takes a smooth compactly supported test function phi through
a Mellin-Barnes integral with a six-gamma quotient,

    Phi_k(x) = int_{Re s = sigma} (pi^3 x)^{-s}
               prod_i Gamma((1+s+2k+a_i)/2) / prod_i Gamma((-s-a_i)/2)
               phitilde(-s-k) ds,         k in {0, 1},

a BARE line integral (no 1/(2 pi i); the i from ds = i dv is kept), where
a_i are the shifts of the form's gamma_dual (its gamma has the shifts -a_i)
and phitilde(s) = int phi(x) x^{s-1} dx.  The two orders combine into

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

The rung integrals are Fourier transforms.  With u = y^{1/3} and
omega = 6 pi x^{1/3},

    int phi(y) e^{6 pi i (xy)^{1/3}} (pi^3 x y)^{-J/3} dy
      = (pi x^{1/3})^{-J} int 3 u^{2-J} phi(u^3) e^{i omega u} du,

and 3 u^{2-J} phi(u^3) is fixed and compactly supported, so one FFT per
rung gives the integral at every x, on the line engine that also gives the
Mellin factor below (_ladder_rungs).  The residual profile takes the
degenerate form's transforms from the ladder past x * support_lo =
_TAIL_XLO = 1e3 (x = 20 for smooth_bump(50, 100)), where both orders agree
with the exact kernels to 2e-11 relative, inside the ladder's allowance
plus the kernels' error; the exact kernels serve the arguments up to it.

Degenerate-form main term.  The identity above is stated for cuspidal
coefficients, whose twisted Dirichlet series D(s) = sum_m A(n, m)
e(m abar / c) m^{-s} is entire.  The triple-divisor form is polar: its
D(s) has a pole at s = 1 (order up to three), and the contour shift that
produces the dual sum picks up its residue, so

    LHS = Res_{s=1}[ phitilde(s) D(s) ] + dual sum.

For that form and n = 1 the series factors exactly over residue classes
into Hurwitz zetas, D(s) = c^{-3s} sum_{r1,r2,r3 mod c} e(abar r1 r2 r3/c)
prod_i zeta_H(s, r_i/c), and polar_main_term computes the residue by a
small positively oriented circle around s = 1, with the Hurwitz zetas
from special.zeta_with_error.  Cuspidal forms get a zero main term and the
classical identity back.

Contour mechanics.  Each transform order is one row of a
quadrature.contour_kernel call, stopped by the double-precision floor of
its Mellin factor.  The integrand's modulus grows like
|v|^{(3 + 6 sigma + 6 k + 2 sum_i Re a_i)/2} against the test function's
Mellin decay, so the height it needs depends on the abscissa.  One rule
places it: every order-k kernel runs on the line where that exponent
vanishes or on the line half a unit right of the order-k numerator poles,
whichever lies further right (_neutral_abscissa).  The panels depend on
the arguments' range and the support, not on the abscissa, so both orders
share one call and one grid of heights v, each row evaluating its own
order at sigma_k + iv (_phi_contour_kernels), and each order stops at its
own height.  The call returns one kernel for both orders, whose apply
shares each argument's phases between them, and _kernel_values moves each
row from the kernel's abscissa to its own.

The Mellin factor comes from one FFT per line (_mellin_line).  On the line
Re s = re_s, phitilde is e^{s ln c} times the Fourier transform of the
compactly supported G(tau) = phi(c e^tau) e^{re_s tau}, c = sqrt(lo hi), so
one zero-padded FFT of G's trapezoid samples gives it on a uniform grid of
heights, and 12-point Lagrange interpolation gives it at the contour nodes,
in time near-linear in the node count (Booker 2006 takes the same step).
Order k needs it on re_s = -sigma_k - k.  Both orders of the degenerate
form, and of every tempered spherical form, sit on the same line,
re_s = 1/2, so they share the FFT and its values at each node.  The
same engine serves the far-tail rungs: _line_grid places the samples and
sizes the FFT, and _line_stencil interpolates, from the whole line for the
Mellin factor and from the few FFT entries their frequencies reach for the
rungs.  The sample step, padding and stencil are derived from the contour
cap and the double-precision target (see _LINE_RATE).  Each kernel's noise
floor, which its integrand returns next to K from the same six-gamma
quotient, keeps the model of the dense quadrature it replaced, 2e-16
times the mass int |G| times (1 + |v| h), h = ln(hi / lo) / 2, and the line
sits inside it: its sums round at about 1e-16 of the mass, and a node v,
itself rounded at 1e-16 |v|, moves the phase of F by up to 1e-16 |v| h.
The dense Gauss-Legendre quadrature (_mellin_dense) gives the polar main
term's Mellin factor on its small circle, and the tests check the line
against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exactarith import _check_positive_integers, kloosterman, mod_inverse
from .heckegl3 import GL3Form, coefficient_block, coefficient_row, mobius_unfold
from .quadrature import ContourKernel, contour_kernel, panel_grid
from .special import GammaData, PoleError, RegimeError, zeta_with_error

__all__ = [
    "VoronoiKernelSpec",
    "TruncationRecord",
    "VoronoiSides",
    "voronoi_kernel",
    "voronoi_kernel_asymptotic",
    "polar_main_term",
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

# Height cap of the contour kernels (NonDecayError beyond it); it also
# sizes the FFT Mellin line's sample step.
_CONTOUR_CAP = 6000.0

# The FFT line (_line_grid, _line_stencil), shared by the Mellin factor
# (_mellin_line) and the far-tail rungs (_ladder_rungs).  Its trapezoid sum
# at step dtau is exactly sum_m F(v + 2 pi m / dtau) (Poisson summation; the
# sampled function is smooth with compact support).  With pi / dtau twice
# the cap, every contour node |v| <= cap and its stencil lie on the FFT
# grid, and the nearest alias sits beyond 3 cap, where phitilde is far below
# its value at the cap.  The rungs' frequencies 6 pi x^{1/3} must lie on
# the grid too; past it they raise ValueError.
_LINE_RATE = 2.0 * _CONTOUR_CAP / math.pi  # trapezoid samples per unit of tau
# F is entire of exponential type h, so |F^(p)| <= h^p mass, and p-point
# Lagrange interpolation at spacing dv errs by at most
# max|omega_p| / p! (h dv)^p mass, where max|omega_p| / p! = 5.5e-5 on the
# central interval (at its midpoint) for p = 12.  Zero-padding the FFT to
# _LINE_PAD times the support's sample span gives h dv <= pi / _LINE_PAD, so
# the interpolation error is at most _LINE_INTERP = 4.4e-17 of the mass.
_LINE_STENCIL = 12
_LINE_PAD = 32
_LINE_INTERP = (
    math.prod(abs(_LINE_STENCIL / 2 - 0.5 - n) for n in range(_LINE_STENCIL))
    / math.factorial(_LINE_STENCIL)
    * (math.pi / _LINE_PAD) ** _LINE_STENCIL
)
# Points per block of the line's interpolation.  Each block holds a few
# (points, stencil) arrays of ~0.4 MB, where whole node sets of 10^4-10^5
# points took ~25 MB per call.
_LINE_BLOCK = 4096

# Panels per support that resolve a bump's exp ramps where no phase is
# faster: the width floor of _mellin_dense's Gauss-Legendre grid.  At 48,
# smooth_bump(50, 100)'s transform at s = 0.5 meets a 0.01-wide 16-node
# reference to 2e-16 of the mass; 16 panels leave 1.5e-12.
_BUMP_PANELS = 48


def _support_of(phi):
    support = getattr(phi, "support", None)
    if support is None:
        raise ValueError("test function carries no .support attribute")
    lo, hi = float(support[0]), float(support[1])
    if not 0.0 < lo < hi < math.inf:
        raise ValueError(f"support must satisfy 0 < lo < hi < inf, got ({lo}, {hi})")
    return lo, hi


def _line_grid(h: float) -> tuple:
    """The FFT line for a function supported on |tau| <= h: the trapezoid
    node indices j (tau = j dtau), the step dtau = 1 / _LINE_RATE, the padded
    FFT size, and the spacing dv of its frequency grid.  An index j < 0 goes
    to the sample slot j % size, so FFT entry k holds F(k dv) unshifted."""
    dtau = 1.0 / _LINE_RATE
    j = np.arange(-int(h / dtau), int(h / dtau) + 1)
    size = 1 << math.ceil(math.log2(2.0 * _LINE_PAD * h / dtau))
    return j, dtau, size, 2.0 * math.pi / (size * dtau)


def _line_stencil(f: np.ndarray, k0: int, dv: float, center: float, re_s: float = 0.0) -> Callable:
    """v -> F(v) e^{(re_s + iv) center}, from f[..., i] = F((k0 + i) dv).

    _LINE_STENCIL-point Lagrange interpolation, in blocks of _LINE_BLOCK
    points, each point on its own, so a value does not depend on the array
    it comes in.  f may stack several F on one grid (leading axes); the
    result then carries those axes before v's.  A v whose stencil leaves f
    raises ValueError.
    """
    p = _LINE_STENCIL
    m = np.arange(p)
    # c_m = 1 / prod_{n != m} (m - n) on the stencil 0 .. p-1
    c = np.array([(-1.0) ** (p - 1 - i) / (math.factorial(i) * math.factorial(p - 1 - i)) for i in m])
    rows, n = f.shape[:-1], f.shape[-1]

    def at_block(v):
        # the fraction comes from v / dv itself: adding the grid offset
        # first would round it at ~1e-11 of a grid step
        t = v / dv
        k = np.floor(t)
        first = k.astype(np.int64) - (k0 + p // 2 - 1)
        if v.size and (first.min() < 0 or first.max() + p > n):
            bad = v[(first < 0) | (first + p > n)][0]
            raise ValueError(
                f"v = {float(bad):.6g} lies beyond the FFT line's grid "
                f"({(k0 + p // 2 - 1) * dv:.6g} <= v < {(k0 + n - p // 2) * dv:.6g})"
            )
        # Lagrange basis c_m prod_{n != m} (x - n) from prefix and suffix products
        d = (t - k + (p // 2 - 1))[..., None] - m
        left = np.ones_like(d)
        right = np.ones_like(d)
        np.cumprod(d[..., :-1], axis=-1, out=left[..., 1:])
        np.cumprod(d[..., :0:-1], axis=-1, out=right[..., -2::-1])
        weights = left * right * c
        idx = first[..., None] + m
        vals = np.empty(rows + v.shape, dtype=complex)
        for r in np.ndindex(rows):
            vals[r] = np.einsum("...m,...m->...", weights, f[r][idx])
        return vals * np.exp((re_s + 1j * v) * center)

    def at(v):
        v = np.asarray(v, dtype=float)
        vf = v.reshape(-1)
        out = np.empty(rows + vf.shape, dtype=complex)
        for i in range(0, vf.size, _LINE_BLOCK):
            out[..., i : i + _LINE_BLOCK] = at_block(vf[i : i + _LINE_BLOCK])
        return out.reshape(rows + v.shape)

    return at


def _mellin_line(phi: Callable, support: tuple, re_s: float) -> Callable:
    """phitilde(re_s + iv) as a function of real v, from one zero-padded FFT.

    phitilde(s) = e^{s ln c} F(v), F(v) = int_{|tau| <= h} G(tau) e^{iv tau}
    dtau, with c = sqrt(lo hi), h = ln(hi / lo) / 2 and G(tau) =
    phi(e^{ln c + tau}) e^{re_s tau}.  The FFT of G's trapezoid samples
    gives F on a uniform v-grid, and _line_stencil gives it between grid
    points.  A |v| whose stencil leaves the grid raises ValueError.
    """
    lo, hi = support
    lnc = 0.5 * (math.log(lo) + math.log(hi))
    h = 0.5 * (math.log(hi) - math.log(lo))
    j, dtau, size, dv = _line_grid(h)
    tau = j * dtau
    samples = np.zeros(size, dtype=complex)
    samples[j % size] = np.asarray(phi(np.exp(lnc + tau)), dtype=complex) * np.exp(re_s * tau) * dtau
    # after the shift, entry size/2 + k holds F(k dv), k = -size/2 .. size/2 - 1
    f = np.fft.fftshift(np.fft.ifft(samples)) * size
    return _line_stencil(f, -(size // 2), dv, lnc, re_s)


def _mellin_dense(phi: Callable, support: tuple, s: np.ndarray) -> np.ndarray:
    """phitilde(s) by Gauss-Legendre quadrature on one grid sized for the
    largest |Im s|: the independent check of _mellin_line.

    Panel width tracks the fastest x^{i Im s} oscillation at the left end of
    the support (period 2 pi lo / |Im s|), with a floor fine enough to
    resolve the bump itself.
    """
    lo, hi = support
    lnc = 0.5 * (math.log(lo) + math.log(hi))
    Hb = max(16.0, 1.5 * float(np.max(np.abs(s.imag)))) if s.size else 16.0
    # 12-node panels spanning <= 1.8 periods of the fastest x^{i Im s}
    x, w = panel_grid(lo, hi, min((hi - lo) / _BUMP_PANELS, 2.0 * math.pi * 1.8 * lo / Hb), 12)
    # center the log phases: the grid-side argument stays below half the
    # log-width of the support, keeping the phase rounding (~1e-16 per
    # radian) from swamping cancellation at big heights
    lnx = np.log(x) - lnc
    wphi = w * np.asarray(phi(x), dtype=complex)
    return (np.exp(np.outer(s - 1.0, lnx)) @ wphi) * np.exp((s - 1.0) * lnc)


@dataclass(frozen=True)
class VoronoiKernelSpec:
    """Form and test function for the transform.

    The abscissae, the rung ladder and the order-1 kernel assume spherical
    gamma data, so other forms raise ValueError.
    The test function must be smooth, real-valued, and compactly supported
    in (0, inf), advertising its support via a .support attribute (a
    SmoothBump does).
    """

    form: GL3Form
    test_function: Callable

    def __post_init__(self) -> None:
        if not self.form.spherical:
            raise ValueError(
                f"form {self.form.label!r} carries no spherical parameters; the "
                "Voronoi kernel is implemented for spherical forms only"
            )
        _support_of(self.test_function)

    @property
    def support(self) -> tuple:
        return _support_of(self.test_function)

    @property
    def degenerate(self) -> bool:
        """All spherical parameters zero: the ladder's later rungs hold."""
        return all(abs(z) < 1e-12 for z in self.form.gamma.shifts)


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


def _gamma_quotient_log(u, k: int, gamma: GammaData, gamma_dual: GammaData) -> np.ndarray:
    """log of the quotient of the Gamma_R products of a form's gamma_dual at
    1 + 2k + u and of its gamma at -u, with their pi powers added back."""
    return (
        gamma_dual.log(1.0 + 2 * k + u)
        - gamma.log(-u)
        + 0.5 * len(gamma.shifts) * (1.0 + 2 * k + 2 * u) * math.log(math.pi)
    )


def _conjugate_duals(gamma: GammaData, gamma_dual: GammaData) -> bool:
    """Whether gamma_dual's shifts are the conjugates of gamma's, as a
    multiset.  For spherical data (gamma_dual = -gamma) this says that
    gamma's shifts are closed under kappa -> -conj(kappa), as every
    tempered form's are."""
    conj = [k.conjugate() for k in gamma.shifts]
    return len(conj) == len(gamma_dual.shifts) and all(
        conj.count(k) == gamma_dual.shifts.count(k) for k in gamma_dual.shifts
    )


def _gamma_quotient_log_symmetric(v, k: int, gamma_dual: GammaData) -> np.ndarray:
    """_gamma_quotient_log at u = -1/2 - k + iv for gamma data whose gamma
    shifts are the conjugates of gamma_dual's (_conjugate_duals).  There
    -conj(u) = 1 + 2k + u, so gamma.log(-u) = conj(gamma_dual.log(1 + 2k +
    u)): the quotient's log is the numerator's minus its conjugate, with the
    pi powers, and one log_gamma call per distinct shift serves both
    products.  The pi powers come to pi^{i d v}, d = len(shifts), so the
    log is purely imaginary: the quotient has modulus 1 on this line."""
    num = gamma_dual.log(0.5 + k + 1j * v)  # 1 + 2k + u
    return 1j * (2.0 * num.imag + len(gamma_dual.shifts) * v * math.log(math.pi))


def _phi_contour_kernels(spec: VoronoiKernelSpec, abscissae: dict, max_abs_ln_y: float) -> ContourKernel:
    """The contour kernel whose row k, moved to its own line by
    _kernel_values, gives (1/2 pi i) int y^{-s} K_k(s) ds, one row per order
    k of `abscissae` (order -> sigma_k), in that order.

    K_k is the order-k six-gamma quotient times phitilde(-s-k) on the line
    Re s = sigma_k, and y = pi^3 x; _kernel_values restores the
    bare-integral normalization.  The orders are the rows of one
    contour_kernel call: the grid depends on width, height and cap, not on
    sigma, so it is laid out once.  Row k evaluates K_k at sigma_k + iv on
    the node v; the kernel's sigma is that of the first order.  The Mellin
    factor of order k lies on Re s = -sigma_k - k; orders on one line share
    its FFT and its values at each segment's nodes.  A row on the symmetric
    line sigma_k = -1/2 - k, of a form whose gamma_dual shifts are the
    conjugates of its gamma's (every tempered spherical form; D3 on both
    rows), takes the quotient's denominator as the conjugate of its
    numerator (_gamma_quotient_log_symmetric): one log_gamma call per
    distinct shift, not two.  Every other row, and other gamma data (real
    spherical parameters off that line, or shifts not closed under
    kappa -> -conj(kappa)), keeps _gamma_quotient_log.  Each order must be 0
    or 1, and each sigma_k half a unit right of the order-k numerator poles
    (_neutral_abscissa keeps that margin): the value does not depend on the
    line right of the poles, but panels near a pole lose digits their error
    estimate does not see.
    """
    orders = list(abscissae)
    sigmas = [float(abscissae[k]) for k in orders]
    for k, sigma in zip(orders, sigmas):
        if k not in (0, 1):
            raise ValueError(f"kernel order k must be 0 or 1, got {k}")
        bound = spec.form.gamma_dual.rightmost_pole - 1.0 - 2 * k  # order-k numerator poles
        if not sigma >= bound + 0.5:
            raise PoleError(
                f"abscissa {sigma} is not half a unit right of the order-{k} "
                f"numerator poles (needs sigma >= {bound + 0.5})"
            )
    lo, hi = spec.support
    lines = {}
    for k, sigma in zip(orders, sigmas):
        if -sigma - k not in lines:
            lines[-sigma - k] = _mellin_line(spec.test_function, spec.support, -sigma - k)
    # the Mellin factor's values at a piece's nodes on one line, kept for
    # the piece's other rows: contour_kernel evaluates every row on a piece
    # before the next piece
    line_values = {}

    # K and its double-precision floor share the gamma quotient.  The floor
    # of the Mellin factor (module docstring): the rounding of the unsigned
    # mass, plus a phase of (height) x (log half-width) rounded at ~1e-16
    # per radian
    mell_mass = {re_s: abs(complex(line(0.0))) for re_s, line in lines.items()}
    half_ln = 0.5 * (math.log(hi) - math.log(lo))

    gamma, gamma_dual = spec.form.gamma, spec.form.gamma_dual
    conjugate = _conjugate_duals(gamma, gamma_dual)
    on_line = [conjugate and sigma == -0.5 - k for k, sigma in zip(orders, sigmas)]

    def kfunc(u, rows):
        v = np.imag(u)
        value = np.empty((rows.size, v.size), dtype=complex)
        floor = np.empty((rows.size, v.size))
        for i, row in enumerate(rows.astype(int)):
            k, sigma = orders[row], sigmas[row]
            key = (-sigma - k, float(v[0]), v.size)
            if key not in line_values:
                line_values.clear()
                line_values[key] = lines[key[0]](-v)  # phitilde(-u - k)
            if on_line[row]:
                quotient = _gamma_quotient_log_symmetric(v, k, gamma_dual)
            else:
                quotient = _gamma_quotient_log(sigma + 1j * v, k, gamma, gamma_dual)
            size = np.exp(np.real(quotient))
            np.exp(quotient, out=value[i])
            value[i] *= line_values[key]
            floor[i] = 2e-16 * max(mell_mass[key[0]], 1e-300) * (1.0 + np.abs(v) * half_ln) * size
        return value, floor

    # oscillation budget (radians per unit height): y^{-iv} itself, the
    # Mellin factor's phase speed (bounded by the larger |log| end of the
    # support), and 12 for the gamma quotient, whose phase speed is 3 ln(v/2)
    # (measured for D3, both orders: 12.02 at v = 110, 16.64 at 512, 20.72
    # at 2,000, within 1.1e-5 of it).  So 12 falls short past v ~ 110, but
    # does not bind yet: for D3, panels 0.9 to 0.6 times this wide move
    # order 0 at x = 40 by at most 3e-12
    osc = max_abs_ln_y + max(abs(math.log(lo)), abs(math.log(hi))) + 12.0
    # 12-node panels spanning <= 9 radians (~1.4 periods) of the fastest phase
    return contour_kernel(
        kfunc, sigmas[0], np.arange(len(orders)), width=min(0.5, 9.0 / osc), tol=1e-11,
        symmetric=spec.form.gamma.conjugate_symmetric, height=512.0, cap=_CONTOUR_CAP,
    )


def _kernel_values(kern: ContourKernel, abscissae: dict, xs: np.ndarray) -> tuple:
    """The rows of a built _phi_contour_kernels kernel at the arguments xs:
    row k moved from the kernel's sigma to its own sigma_k (abscissae, in
    order) by the factor y^{sigma - sigma_k}, y = pi^3 x, as the
    bare-integral values 2 pi i y^{sigma - sigma_k} apply(y), and their
    error allowances 2 pi tail_k y^{-sigma_k}; each of shape (rows, xs.size)."""
    ys = math.pi**3 * xs
    sigmas = np.array([float(sigma) for sigma in abscissae.values()])[:, None]
    values = 2j * math.pi * kern.apply(ys) * ys ** (kern.sigma - sigmas)
    return values, 2.0 * math.pi * kern.tail_estimate[:, None] * ys ** (-sigmas)


def voronoi_kernel(spec: VoronoiKernelSpec, k: int, x):
    """(value, error estimate) of the order-k transform at x > 0.

    Bare-ds normalization, on the contour of _neutral_abscissa(spec, k).  A
    scalar x gives (complex, float); an array gives two arrays, evaluated on
    one contour grid sized for the largest |ln(pi^3 x)|.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all((xs > 0) & (xs < math.inf)):
        raise ValueError("argument x must be positive and finite")
    abscissae = {k: _neutral_abscissa(spec, k)}
    kern = _phi_contour_kernels(spec, abscissae, float(np.max(np.abs(np.log(math.pi**3 * xs)))))
    (vals,), (errs,) = _kernel_values(kern, abscissae, xs)
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return complex(vals[0]), float(errs[0])
    return vals, errs


def voronoi_kernel_asymptotic(spec: VoronoiKernelSpec, x: float, order: int = 1) -> complex:
    """Large-argument oscillatory expansion of the order-0 transform.

    Valid once x times the support scale is large; `order` counts the rungs
    J = 1..order of the derived ladder (module docstring), each weighted by
    (pi^3 x y)^{-J/3}, so the relative defect of order K scales like
    (x*support)^{-K/3}.  Order 1 is the leading term and holds for every
    spherical form; orders 2..4 are derived for the degenerate form and
    raise ValueError for others.
    """
    if not 0 < x < math.inf:
        raise ValueError("argument x must be positive and finite")
    lo, _ = spec.support
    if x * lo <= 1.0:
        raise RegimeError(
            f"asymptotic expansion needs x * support scale >> 1, got {x * lo:.3g}"
        )
    if not 1 <= order <= _MAX_RUNGS:
        raise ValueError(f"order must lie in 1..{_MAX_RUNGS}, got {order}")
    if order >= 2 and not spec.degenerate:
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
    g = spec.form.gamma_dual
    return max(-(1.0 + 2 * k) / 2.0 - sum(z.real for z in g.shifts) / 3.0, g.rightmost_pole - 1.0 - 2 * k + 0.5)


def polar_main_term(
    form: GL3Form,
    n: int,
    a: int,
    c: int,
    phi: Callable,
) -> complex:
    """Residue at s = 1 of phitilde(s) times the twisted coefficient series.

    Cuspidal forms return 0: their twisted series is entire and the dual-sum
    identity needs no correction.  For the polar (triple-divisor) form the
    series D(s) = sum_m A(1, m) e(m abar / c) m^{-s} factors over residue
    classes mod c into products of Hurwitz zetas (see the module docstring),
    and the residue is computed as a 64-node trapezoid integral over the
    circle |s - 1| = 1/2 — spectrally accurate since the integrand is
    analytic on an annulus around that circle.  The c Hurwitz zetas
    zeta(s, r / c) come in doubles from special.zeta_with_error, whose
    remainder bound there is below 1e-30; against mpmath they differ by at
    most 2e-14 relative (r / c = 1/3), rounding.  Only the first coefficient
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
    lo, hi = _support_of(phi)
    abar = mod_inverse(a, c)

    rho, nodes = 0.5, 64
    theta = 2.0 * math.pi * np.arange(nodes) / nodes
    s_circle = 1.0 + rho * np.exp(1j * theta)
    zh = np.array([zeta_with_error(s_circle, r / c)[0] for r in range(1, c + 1)])
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
    integrand = _mellin_dense(phi, (lo, hi), s_circle) * series
    return complex(rho * np.mean(integrand * np.exp(1j * theta)))


# Beyond this multiple of the reciprocal support scale the residual profile
# evaluates the transforms by the derived ladder; the exact kernels take
# the rest.  For D3 and smooth_bump(50, 100) the seam sits at x = 20.  At
# x = 20, 21, 30, 45 and 61 the four rungs agree with the exact kernels to
# 6e-14 - 2.0e-11 relative (both orders), |ladder - kernel| is at most 0.43
# of the ladder's allowance plus the kernel's reported error, and the
# allowance is 1.4 - 1.9 times that error.  Further left the allowance
# grows against the kernel's error: 1.2 - 5.7 times it on [10, 20) (median
# 2.2), and 5.4 - 30 times on [5, 10) (median 7.3), where the difference
# reaches 0.98 of the sum.  Each step left would trade the kernels' error
# for a looser tail estimate, so 1e3 is the floor.
_TAIL_XLO = 1.0e3


def _ladder_rungs(spec: VoronoiKernelSpec, xs: np.ndarray, rungs: int) -> tuple:
    """The rung integrals M_J(x) = int phi(y) e^{6 pi i (xy)^{1/3}}
    (pi^3 x y)^{-J/3} dy for J = 1..rungs, as rows, and their rounding floor.

    With u = y^{1/3} and omega = 6 pi x^{1/3}, each rung is a Fourier
    transform of a fixed function with compact support,

        M_J(x) = (pi x^{1/3})^{-J} int 3 u^{2-J} phi(u^3) e^{i omega u} du,

    so one real-input FFT of its trapezoid samples on [lo^{1/3}, hi^{1/3}]
    (_line_grid about the center u_c, half-width h) gives it for every x.
    Only the FFT entries that the frequencies and their stencils reach are
    kept.  The floor bounds each rung's error by its mass, at most the rung-1
    mass int |phi| (pi^3 x y)^{-1/3} dy = (pi x^{1/3})^{-1} int |phi|
    y^{-1/3} dy (pi^3 x y > 1 in the ladder's regime), times the sum of
      - _LINE_INTERP, the interpolation bound;
      - eps log2(size), the FFT sums, each a log2(size)-stage butterfly whose
        partial sums are bounded by the mass and round at eps per stage;
      - eps theta, theta = omega hi^{1/3} the largest phase: omega itself
        rounds at about eps omega, which moves the center phase omega u_c
        by eps omega u_c against |F| <= mass, and the stencil position by
        eps omega against |F'| <= h mass.
    A frequency whose stencil leaves the FFT grid raises ValueError.
    """
    lo, hi = spec.support
    ua, ub = float(np.cbrt(lo)), float(np.cbrt(hi))
    uc, h = 0.5 * (ua + ub), 0.5 * (ub - ua)
    j, du, size, dw = _line_grid(h)
    u = uc + j * du
    g = 3.0 * np.asarray(spec.test_function(u**3), dtype=float) * du  # 3 phi(u^3) du
    # numpy's cbrt rounds strided input differently from contiguous input
    cx = np.cbrt(np.ascontiguousarray(xs, dtype=float))
    omega = 6.0 * math.pi * cx
    # the rfft holds F(k dw) for k = 0 .. size/2 (conjugated: g is real)
    p, top = _LINE_STENCIL, size // 2 + 1
    k0 = min(max(0, int(np.floor(omega.min() / dw)) - (p // 2 - 1)), top)
    k1 = min(max(k0, int(np.floor(omega.max() / dw)) + p // 2 + 1), top)
    samples = np.zeros(size)
    f = np.empty((rungs, k1 - k0), dtype=complex)
    for J in range(1, rungs + 1):
        samples[j % size] = g * u ** (2 - J)
        f[J - 1] = np.fft.rfft(samples)[k0:k1].conj()
    rung = _line_stencil(f, k0, dw, uc)(omega)
    rung *= (math.pi * cx) ** -np.arange(1.0, rungs + 1.0)[:, None]
    mass = float(np.sum(np.abs(g * u))) / (math.pi * cx)
    eps = np.finfo(float).eps
    floor = (_LINE_INTERP + eps * (math.log2(size) + omega * ub)) * mass
    return rung, floor


def _tail_asymptotic(spec: VoronoiKernelSpec, xs: np.ndarray, rungs: int = _MAX_RUNGS):
    """Both transforms at the arguments xs via the derived rung ladder.

    The residual profile uses it for x * support_lo > _TAIL_XLO, where
    exact contour kernels cost more (their height budget grows with ln x)
    and the ladder is as accurate as they are (_TAIL_XLO's comment).  The
    rung integrals M_J (_ladder_rungs, one FFT each for every x) serve both
    orders.
    Returns (order0, order1, allow0, allow1): each allowance is the scaled
    |rung rungs+1|, the truncation, plus the rungs' rounding floor weighted
    by sum |r_J|.
    """
    rung, floor = _ladder_rungs(spec, xs, rungs + 1)
    floor = floor * sum(abs(r) for r in _RUNGS[:rungs])
    vals, allow = [], []
    for k in (0, 1):
        # sin(t + pi (J - 3 + k)/2) = Im[i^{J-3+k} e^{it}], J = j + 1
        acc = sum(
            _RUNGS[j] * ((1, 1j, -1, -1j)[(j - 2 + k) % 4] * rung[j]).imag
            for j in range(rungs)
        )
        scale = 2.0 * math.pi**4 * xs * (math.pi**3 * xs) ** k
        vals.append(scale * 1j * acc)
        allow.append(scale * (abs(_RUNGS[rungs]) * np.abs(rung[rungs]) + floor))
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
    """Both sides of the dual-sum identity with the twist e(m abar / c), at
    each of several m2 cutoffs.

    LHS: sum over the integers in phi's support of A(n, m) e(m abar / c)
    phi(m), exact coefficients.  RHS: the m1 | cn, m2 <= cutoff double sum
    with prefactor c pi^{-5/2} / (4i), plus the polar residue term for the
    degenerate form (polar_main_term; zero for cuspidal forms).  The tail
    estimate is twice the mass of the last included dyadic m2 block
    (empirical bound on the super-polynomially decaying remainder) plus the
    accumulated transform quadrature allowances.

    The transforms dominate the cost and depend on the cutoff only through
    the largest argument, so the profile computes them once at the largest
    cutoff and assembles each truncation from partial sums.  The m1 blocks'
    arguments x = m1^2 m2 / (c^3 n) coincide in part (for c = 3, m1 = 3
    repeats every ninth argument of m1 = 1), so each distinct x is
    evaluated once: up to the seam x * support_lo = _TAIL_XLO by one exact
    contour kernel with a row per order (_phi_contour_kernels), applied
    once, and the degenerate form's far tail past it by one
    _tail_asymptotic call.  At the benchmark's configuration (c = 3,
    smooth_bump(50, 100), cutoff 2^14) the kernel serves the 540 distinct
    x <= 20 and the ladder the other 30,408.  Each block takes its values
    by index, and its coefficients from the one row that serves every m1
    (mobius_unfold).
    Returns one VoronoiSides per cutoff, in the given order.

    `threads` is accepted and unused: the profile runs in the caller's
    thread, and only BLAS threads ContourKernel.apply's products on its own.
    It stays because perfbench/workloads.py passes it.
    """
    _check_positive_integers(n=n, c=c)
    cutoffs = list(m2_cutoffs)
    for m2_cutoff in cutoffs:
        _check_positive_integers(m2_cutoff=m2_cutoff)
    cutoffs = [int(m) for m in cutoffs]
    if not cutoffs or min(cutoffs) < 4:
        raise ValueError("m2 cutoffs must all be at least 4")
    abar = mod_inverse(a, c)  # raises NotCoprimeError unless gcd = 1
    spec = VoronoiKernelSpec(form=form, test_function=phi)
    lo, hi = spec.support
    top = max(cutoffs)

    # left side: finitely many integer samples inside the support
    ms = np.arange(max(1, int(math.floor(lo))), int(math.ceil(hi)) + 1)
    row = coefficient_block(form, n, int(ms[-1]))
    phases = np.exp(2j * math.pi * abar * ms / c)
    lhs = complex(np.sum(row[ms] * phases * np.asarray(phi(ms.astype(float)), dtype=complex)))

    polar = polar_main_term(form, n, a, c, phi) if form.polar else 0j

    # right side: exact contour kernels (modulus-neutral abscissae) cover
    # the arguments up to the ladder regime; beyond that the derived rung
    # ladder takes over for the degenerate form.  Other forms keep exact
    # contour kernels for every argument
    cn = c * n
    m1s = [d for d in range(1, cn + 1) if cn % d == 0]
    m2s = np.arange(1, top + 1)
    x_exact = _TAIL_XLO / lo if spec.degenerate else math.inf
    xs, where = np.unique(np.concatenate([m2s * m1 * m1 / (c**3 * n) for m1 in m1s]), return_inverse=True)
    n_exact = int(np.searchsorted(xs, x_exact, side="right"))
    # both orders' transform values and allowances, one row per order
    transforms = np.empty((2, xs.size), dtype=complex)
    err = np.zeros((2, xs.size))
    if n_exact:
        max_ln = float(np.max(np.abs(np.log(math.pi**3 * xs[[0, n_exact - 1]]))))
        abscissae = {k: _neutral_abscissa(spec, k) for k in (0, 1)}
        kern = _phi_contour_kernels(spec, abscissae, max_ln)
        transforms[:, :n_exact], err[:, :n_exact] = _kernel_values(kern, abscissae, xs[:n_exact])
    if n_exact < xs.size:
        far = slice(n_exact, None)
        transforms[0, far], transforms[1, far], err[0, far], err[1, far] = _tail_asymptotic(spec, xs[far])

    coefficients = coefficient_row(form, top)
    blocks = []
    for i, m1 in enumerate(m1s):
        q = cn // m1
        at = where[i * top : (i + 1) * top]
        mixmag = (c**3 * n) / (math.pi**3 * m1 * m1 * m2s)
        mix = mixmag / 1j
        coeffs = mobius_unfold(form, m1, coefficients)[1:]
        table_p = np.array([kloosterman(n * a, r, q) for r in range(q)])
        table_m = np.array([kloosterman(n * a, -r, q) for r in range(q)])
        res = m2s % q
        s_plus, s_minus = table_p[res], table_m[res]
        base = coeffs / (m1 * m2s)
        p0, p1 = transforms[:, at]
        terms = base * (s_plus * (p0 + mix * p1) + s_minus * (p0 - mix * p1))
        errs = np.abs(base) * (np.abs(s_plus) + np.abs(s_minus)) * (err[0, at] + mixmag * err[1, at])
        blocks.append((terms, errs))
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
