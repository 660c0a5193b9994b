"""Smoothed approximate-functional-equation weights and central values.

Central L-values on Re s = 1/2 are reached through the standard contour
device: insert the even damper G(u) = (cos pi u / A)^{-A} (holomorphic on
|Re u| < A/2, G(0) = 1, decaying like e^{-pi |Im u|} on vertical lines),
integrate the completed L-function against G(u)/u, and fold the u -> -u
reflection through the functional equation.  The result expresses the
central value as one or two rapidly convergent coefficient sums against
weight functions

    U(y, t)  = (1/2 pi i) int y^{-u} G(u) gamma2(1/2+u, t)/gamma2(1/2, t) du/u,
    V12(y,t) = same shape with the degree-6 tensor factor and the damper
               raised to the third power (exponent -3A),

which are ~ 1 for y well below the analytic conductor and collapse like
(1 + y/t)^{-A} (resp. (1 + y/t^3)^{-A}) beyond it.  All contour integrals
go through quadrature.contour_kernel, so that a whole vector of y values
costs one matrix-vector product, and a whole vector of t values costs one
contour grid: the gamma ratio is evaluated on a (t, u) matrix, one block
of rows at a time (gl2_afe_weight_grid, rankin_selberg_afe_weight_grid).

The degree-2 specialization with divisor-sum coefficients eta(l, r) =
sum_{ad=l} (a/d)^{ir} reproduces |zeta(1/2 + ir)|^2.  Unlike the cuspidal
case this Dirichlet series has poles (at s = 1 -+ ir), and the cosine
damper does not vanish there; the exact identity therefore carries a
residue correction of size ~ e^{-pi r} which this module computes by a
small numerical contour circle instead of dropping it, keeping the
evaluator honest at modest r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .heckegl3 import GL3Form, PolarFormError, coefficient_block, coefficient_row
from .quadrature import ContourKernel, NonDecayError, contour_kernel
from .special import (
    PoleError,
    archimedean_gamma_log,
    gl2_gamma_log,
    gl2_gamma_ratio_log,
    gl3_gamma_log,
    zeta,
)

__all__ = [
    "WeightSpec",
    "MaassFixture",
    "FixtureCoverageError",
    "cosine_power_damper",
    "gl2_afe_weight",
    "gl2_afe_weight_batch",
    "gl2_afe_weight_grid",
    "rankin_selberg_afe_weight",
    "rankin_selberg_afe_weight_batch",
    "rankin_selberg_afe_weight_grid",
    "central_value_gl2",
    "zeta_square_afe",
    "eisenstein_coefficients",
    "central_value_rs",
    "central_value_rs_eisenstein",
    "gl3_critical_value",
]


@dataclass(frozen=True)
class WeightSpec:
    """Damper exponent, contour abscissa, and truncation tolerance."""

    A: int = 16
    sigma_u: float = 0.5
    tail_tolerance: float = 1e-10

    def __post_init__(self) -> None:
        if self.A < 4 or self.A % 2:
            raise ValueError(f"A must be an even integer >= 4, got {self.A}")
        if not 0 < self.sigma_u < self.A / 2:
            raise ValueError("sigma_u must sit inside the damper's pole-free strip")
        if self.tail_tolerance <= 0:
            raise ValueError("tail_tolerance must be positive")


@dataclass(frozen=True)
class MaassFixture:
    """Spectral parameter and Hecke coefficients of one even cusp form.

    coeffs[0] is ignored (index by n); the normalization convention is the
    provider's and is recorded in `source`, not enforced here.
    """

    t: float
    coeffs: Sequence
    source: str
    parity: str = "even"

    def __post_init__(self) -> None:
        if self.t <= 0:
            raise ValueError("spectral parameter must be positive")
        if self.parity != "even":
            raise ValueError("only even forms enter the averages; got " + self.parity)

    def coeff_array(self) -> np.ndarray:
        a = np.asarray(self.coeffs, dtype=complex)
        if a.ndim != 1 or a.size < 1:
            raise ValueError("coeffs must be a one-dimensional sequence")
        return a


class FixtureCoverageError(ValueError):
    """Fixture does not carry coefficients up to the required cutoff."""


def cosine_power_damper(spec: WeightSpec, u, kind: str = "gl2"):
    """(cos(pi u / A))^{-A} for the degree-2 weights, exponent -3A for the
    degree-6 tensor weights.  Even, 1 at u = 0, poles at Re u = A/2 mod A."""
    if kind == "gl2":
        power = -float(spec.A)
    elif kind == "rs":
        power = -3.0 * spec.A
    else:
        raise ValueError(f"unknown damper kind {kind!r}")
    u = np.asarray(u, dtype=complex)
    c = np.cos(np.pi * u / spec.A)
    if np.any(np.abs(c) < 1e-12):
        raise PoleError("damper evaluated at (or too near) a cosine zero")
    out = np.exp(power * np.log(c))
    return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# weight kernels on quadrature.contour_kernel

_HEIGHT_CAP = 400.0


def _panel_width(osc: float) -> float:
    """12-node panels spanning <= 6 radians of the fastest phase."""
    return min(0.5, 6.0 / max(1.0, osc))


def _is_real_tuple(mu) -> bool:
    return all(abs(complex(m).imag) < 1e-12 for m in mu)


def _gl2_kernel(spec: WeightSpec, ts, max_abs_ln_y: float) -> Iterator[ContourKernel]:
    """The U-kernels of the t in ts (a float or an array), in order, from
    one contour grid."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    tmax = float(np.max(np.abs(ts)))

    def kfunc(u, t):
        return cosine_power_damper(spec, u, "gl2") * np.exp(gl2_gamma_ratio_log(u, t[:, None])) / u

    # damper decay e^{-pi v} sets the height scale; gamma ratio is neutral
    # below v ~ t and decays beyond.  Its phase speed ~ log t adds to the
    # y^{-iv} oscillation when sizing panels.  The largest |t| sizes both.
    vmax0 = (40.0 + spec.A * math.log(2.0) + 0.5 * math.log(2.0 + tmax)) / math.pi
    osc = max_abs_ln_y + math.log(2.0 + tmax)
    return contour_kernel(
        kfunc, spec.sigma_u, width=_panel_width(osc), tol=spec.tail_tolerance,
        symmetric=True, height=vmax0, cap=_HEIGHT_CAP, rows=ts,
    )


def _rs_kernel(
    spec: WeightSpec, ts, form: GL3Form, variant: str, max_abs_ln_y: float
) -> Iterator[ContourKernel]:
    """The tensor kernels of the t in ts, as _gl2_kernel."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    tmax = float(np.max(np.abs(ts)))
    mu = form.mu if variant == "direct" else form.mu_dual
    # Gamma((1/2 + u -+ it - mu_i)/2) has poles at Re u = Re mu_i - 1/2 - 2k;
    # every one must lie left of the line Re u = sigma_u
    if any(complex(m).real >= 0.5 + spec.sigma_u for m in mu):
        raise PoleError(
            f"gamma data {tuple(mu)} of {form.label!r} put a pole of the tensor weight's gamma factor "
            f"on or right of its contour Re u = {spec.sigma_u}"
        )

    def kfunc(u, t):
        t = t[:, None]
        denom = gl3_gamma_log(np.asarray(0.5 + 0j), t, form.mu)
        ratio = np.exp(gl3_gamma_log(0.5 + u, t, mu) - denom)
        return cosine_power_damper(spec, u, "rs") * ratio / u

    symmetric = _is_real_tuple(mu)
    vmax0 = (40.0 + 3 * spec.A * math.log(2.0) + 1.5 * math.log(2.0 + tmax)) / (3 * math.pi)
    osc = max_abs_ln_y + 3.0 * math.log(2.0 + tmax) + 3.0 * max(abs(complex(m)) ** 0.5 for m in mu)
    return contour_kernel(
        kfunc, spec.sigma_u, width=_panel_width(osc), tol=spec.tail_tolerance,
        symmetric=symmetric, height=vmax0, cap=_HEIGHT_CAP, rows=ts,
    )


def gl2_afe_weight(spec: WeightSpec, y: float, t: float) -> complex:
    """Degree-2 smoothing weight U(y, t); ~ 1 for y << t, decaying past
    y ~ t.  The damper's order-A pole at Re u = A/2 caps the decay rate:
    the local dyadic exponent approaches A/2 from below like
    A/2 - (A-1)/log y, which tests pin against measurement."""
    return complex(gl2_afe_weight_grid(spec, [y], [t])[0, 0])


def gl2_afe_weight_batch(spec: WeightSpec, ys, t: float) -> np.ndarray:
    return gl2_afe_weight_grid(spec, ys, [t])[0]


def gl2_afe_weight_grid(spec: WeightSpec, ys, ts) -> np.ndarray:
    """U(y, t) as a (len(ts), len(ys)) array from one contour grid sized for
    the largest |t| and |log y|.  Each row stops growing on its own; a row
    agrees with gl2_afe_weight_batch at its t to within the spec's
    tail_tolerance of the kernels' mass (the two grids differ in height and
    panel width)."""
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    kernels = _gl2_kernel(spec, ts, float(np.max(np.abs(np.log(ys)))))
    return np.array([k.apply(ys) for k in kernels])


def rankin_selberg_afe_weight(
    spec: WeightSpec, y: float, t: float, form: GL3Form, variant: str = "direct"
) -> complex:
    """Degree-6 tensor smoothing weight; variant "direct" carries the form's
    own gamma data, "dual" the contragredient's, both normalized by the
    direct factor at 1/2."""
    return complex(rankin_selberg_afe_weight_grid(spec, [y], [t], form, variant)[0, 0])


def rankin_selberg_afe_weight_batch(
    spec: WeightSpec, ys, t: float, form: GL3Form, variant: str = "direct"
) -> np.ndarray:
    return rankin_selberg_afe_weight_grid(spec, ys, [t], form, variant)[0]


def rankin_selberg_afe_weight_grid(
    spec: WeightSpec, ys, ts, form: GL3Form, variant: str = "direct"
) -> np.ndarray:
    """The tensor weight on a (len(ts), len(ys)) grid, as gl2_afe_weight_grid."""
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    kernels = _rs_kernel(spec, ts, form, variant, float(np.max(np.abs(np.log(ys)))))
    return np.array([k.apply(ys) for k in kernels])


# ---------------------------------------------------------------------------
# degree-2 central values


def _gl2_cutoff(t: float) -> int:
    return int(math.ceil(10.0 * (1.0 + abs(t))))


def _adaptive_cutoff(build: Callable, start: int, tol: float, metric: Callable | None = None):
    """Smallest dyadic extension of `start` at which an estimated absolute
    tail (weight magnitude folded through `metric`) drops below tol; returns
    the cutoff together with a kernel resolved for arguments up to it.

    Matters at small spectral parameter, where the conductor-scale heuristic
    behind `start` underestimates how slowly the weight dies.
    """
    if metric is None:
        metric = lambda mag, L: mag * L
    L = int(start)
    for _ in range(30):
        kern = build(math.log(max(L, 2)))
        mag = abs(complex(kern.apply(np.array([float(L)]))[0]))
        if metric(mag, L) <= tol:
            return L, kern
        L *= 2
    raise NonDecayError("AFE weight refuses to decay; cutoff probe exhausted")


def central_value_gl2(fixture: MaassFixture, spec: WeightSpec, l_cutoff: int | None = None) -> float:
    """Central value of a degree-2 L-function from its coefficient fixture:
    2 sum a(l) l^{-1/2} U(l, t).  Real for self-dual (even) data."""
    t = fixture.t
    a = fixture.coeff_array()
    if l_cutoff is not None:
        L = int(l_cutoff)
        kern = next(_gl2_kernel(spec, t, math.log(max(L, 2))))
    else:
        L, kern = _adaptive_cutoff(
            lambda maxln: next(_gl2_kernel(spec, t, maxln)),
            _gl2_cutoff(t),
            max(spec.tail_tolerance, 1e-13),
        )
    if a.size - 1 < L:
        raise FixtureCoverageError(
            f"fixture {fixture.source!r} carries a(l) for l <= {a.size - 1}, "
            f"but the decay envelope at t = {t} requires l <= {L}"
        )
    ls = np.arange(1, L + 1, dtype=float)
    u_vals = kern.apply(ls)
    total = 2.0 * np.sum(a[1 : L + 1] * ls**-0.5 * u_vals)
    return float(total.real)


def eisenstein_coefficients(N: int, r: float) -> np.ndarray:
    """eta(l, r) = sum_{ad = l} (a/d)^{ir} for l <= N; real by the (a, d)
    <-> (d, a) pairing.  Index 0 unused."""
    phases = np.exp(1j * r * np.log(np.arange(1, N + 1, dtype=float)))
    eta = np.zeros(N + 1, dtype=complex)
    for a in range(1, N + 1):
        k = N // a
        eta[a * np.arange(1, k + 1)] += phases[a - 1] * np.conj(phases[:k])
    return eta.real.astype(float)


def _zeta_polar_correction(r: float, spec: WeightSpec) -> float:
    """Residue terms of the divisor-coefficient degree-2 identity.

    The completed series Lambda(1/2 + u) = gamma2(1/2+u, r) zeta(1/2+u+ir)
    zeta(1/2+u-ir) has poles at u = 1/2 -+ ir that the damper only
    suppresses by e^{-pi r}.  The exact identity reads

        |zeta(1/2 + ir)|^2 = 2 sum_l eta(l) l^{-1/2} U(l, r) - R / gamma2(1/2, r)

    with R twice the sum of the right-half-plane residues of
    Lambda(1/2+u) G(u)/u (the mirror poles contribute equally).  Each
    residue is computed by a small quadrature circle, which also handles
    the merged double pole at r = 0 without a special case.
    """

    def integrand(u):
        z = (
            np.exp(gl2_gamma_log(0.5 + u, r))
            * zeta(0.5 + u + 1j * r)
            * zeta(0.5 + u - 1j * r)
            * cosine_power_damper(spec, u, "gl2")
            / u
        )
        return z

    centers: list[complex]
    if abs(r) <= 0.25:
        centers = [0.5 + 0j]
        radius = abs(r) + 0.2
    else:
        centers = [0.5 + 1j * r, 0.5 - 1j * r]
        radius = 0.2
    total = 0j
    nodes = 256
    theta = 2.0 * np.pi * (np.arange(nodes) + 0.5) / nodes
    ring = radius * np.exp(1j * theta)
    for c in centers:
        u = c + ring
        total += np.sum(integrand(u) * ring) / nodes  # (1/2pi i) oint = mean of f(u)(u-c)
    denom = complex(np.exp(gl2_gamma_log(np.asarray(0.5 + 0j), r)))
    return float((2.0 * total / denom).real)


def zeta_square_afe(r: float, spec: WeightSpec) -> float:
    """|zeta(1/2 + ir)|^2 through the divisor-coefficient identity, polar
    correction included."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    L, kern = _adaptive_cutoff(
        lambda maxln: next(_gl2_kernel(spec, r, maxln)),
        _gl2_cutoff(r),
        max(spec.tail_tolerance, 1e-13),
    )
    eta = eisenstein_coefficients(L, r)
    ls = np.arange(1, L + 1, dtype=float)
    u_vals = kern.apply(ls)
    main = 2.0 * float(np.sum(eta[1:] * ls**-0.5 * u_vals).real)
    return main - _zeta_polar_correction(r, spec)


# ---------------------------------------------------------------------------
# tensor central values


def _rs_double_sum(form: GL3Form, coeffs: np.ndarray, t: float, spec: WeightSpec, cutoff: int) -> complex:
    """sum_{m^2 n <= cutoff} conj(a(n)) [ A(m,n) V1 + A(n,m) V2 ] (m^2 n)^{-1/2}."""
    total = 0j
    # one kernel per variant, shared by every m-row
    max_ln = math.log(float(cutoff)) if cutoff > 1 else 1.0
    kern1 = next(_rs_kernel(spec, t, form, "direct", max_ln))
    kern2 = next(_rs_kernel(spec, t, form, "dual", max_ln))
    m = 1
    while m * m <= cutoff:
        n_max = cutoff // (m * m)
        ns = np.arange(1, n_max + 1, dtype=float)
        ys = (m * m) * ns
        a_conj = np.conj(coeffs[1 : n_max + 1])
        direct = coefficient_block(form, m, n_max)[1:]
        swapped = coefficient_block(form, m, n_max, transpose=True)[1:]
        inv_sqrt = ys**-0.5
        total += np.sum(a_conj * direct * inv_sqrt * kern1.apply(ys))
        total += np.sum(a_conj * swapped * inv_sqrt * kern2.apply(ys))
        m += 1
    return complex(total)


def _rs_cutoff(t: float) -> int:
    return int(math.ceil(10.0 * (1.0 + abs(t)) ** 3))


def _rs_adaptive_cutoff(form: GL3Form, t: float, spec: WeightSpec) -> int:
    # Tail of sum_{m^2 n > C} d(n) d_3(m^2 n) (m^2 n)^{-1/2} |V(m^2 n)|, with
    # the weight locked at its boundary value: ~ |V(C)| sqrt(C) log^2 C up to
    # the decay margin.  Large archimedean parameters (the discriminant-form
    # lift reaches -12) push genuine decay out to C ~ 1e4, so the target is
    # an absolute tail small against unit-scale values rather than the raw
    # weight floor used on the degree-2 side.
    C, _ = _adaptive_cutoff(
        lambda maxln: next(_rs_kernel(spec, t, form, "direct", maxln)),
        _rs_cutoff(t),
        max(1e3 * spec.tail_tolerance, 3e-6),
        metric=lambda mag, L: mag * math.sqrt(L) * (1.0 + math.log(L)) ** 2 / 2.0,
    )
    return C


def central_value_rs(
    form: GL3Form, fixture: MaassFixture, spec: WeightSpec, cutoff: int | None = None
) -> complex:
    """Central value of the degree-6 tensor L-function from the two double
    sums against V1/V2.  Real to quadrature accuracy for self-dual data."""
    t = fixture.t
    C = int(cutoff) if cutoff is not None else _rs_adaptive_cutoff(form, t, spec)
    a = fixture.coeff_array()
    if a.size - 1 < C:
        raise FixtureCoverageError(
            f"fixture {fixture.source!r} carries a(n) for n <= {a.size - 1}, "
            f"but the tensor decay envelope at t = {t} requires n <= {C}"
        )
    return _rs_double_sum(form, a, t, spec, C)


def central_value_rs_eisenstein(form: GL3Form, r: float, spec: WeightSpec) -> complex:
    """Tensor central value against the real-analytic continuous-series
    surrogate: coefficients eta(n, r).  Factorizes as the product of the two
    degree-3 values at 1/2 -+ ir, which tests verify independently."""
    if form.polar:
        raise PolarFormError(
            "the degenerate triple-divisor form has a polar standard L-function; "
            "the continuous surrogate identity does not apply"
        )
    C = _rs_adaptive_cutoff(form, abs(r), spec)
    eta = eisenstein_coefficients(C, r).astype(complex)
    return _rs_double_sum(form, eta, abs(r), spec, C)


# ---------------------------------------------------------------------------
# degree-3 values on the critical line


def gl3_critical_value(form: GL3Form, s0: complex, spec: WeightSpec) -> complex:
    """L(s0, form) on Re s0 = 1/2 by the smoothed functional-equation pair

        L(s0) = sum_m A(1,m) m^{-s0} Va(m) + sum_m A(m,1) m^{-(1-s0)} Vb(m),

    Va(m) = (1/2 pi i) int G(u)/u (G3(s0+u)/G3(s0)) m^{-u} du and Vb the
    mirror with dual parameters at 1 - s0, both over the same damper.  The
    coefficient cutoff doubles until the trailing dyadic block falls below
    the spec tolerance relative to the accumulated value.
    """
    s0 = complex(s0)
    if abs(s0.real - 0.5) > 1e-12:
        raise ValueError("s0 must lie on the critical line")
    if form.polar:
        raise PolarFormError("polar standard L-function: the entire-completion AFE does not apply")

    # deeper abscissa = faster coefficient decay, but it must clear the
    # damper's first pole at Re u = A/2
    sigma = min(3.0, 0.45 * spec.A)
    denom = complex(archimedean_gamma_log(np.asarray(s0), form.mu))

    def ka(u):
        return (
            cosine_power_damper(spec, u, "gl2")
            / u
            * np.exp(archimedean_gamma_log(s0 + u, form.mu) - denom)
        )

    def kb(u):
        return (
            cosine_power_damper(spec, u, "gl2")
            / u
            * np.exp(archimedean_gamma_log(1 - s0 + u, form.mu_dual) - denom)
        )

    osc_extra = 1.5 * math.log(2.0 + abs(s0)) + 3.0 * max(
        abs(complex(m)) ** 0.5 for m in tuple(form.mu) + tuple(form.mu_dual)
    )
    # the damper pole at Re u = A/2 caps the reachable coefficient decay at
    # m^{-A/2}, so the convergence goal must loosen for small A
    tol_rel = max(spec.tail_tolerance, 10.0 ** (-min(8.0, 0.75 * spec.A)))
    M = 64
    value = 0j
    prev_block = math.inf
    while True:
        width = _panel_width(math.log(M) + osc_extra)
        kern_a = contour_kernel(
            ka, sigma, width=width, tol=spec.tail_tolerance, symmetric=False, height=8.0, cap=_HEIGHT_CAP
        )
        kern_b = contour_kernel(
            kb, sigma, width=width, tol=spec.tail_tolerance, symmetric=False, height=8.0, cap=_HEIGHT_CAP
        )
        row = coefficient_row(form, M)
        col = coefficient_row(form, M, dual=True)
        ms = np.arange(1, M + 1, dtype=float)
        va = kern_a.apply(ms)
        vb = kern_b.apply(ms)
        term_a = row[1:] * np.exp(-s0 * np.log(ms)) * va
        term_b = col[1:] * np.exp(-(1 - s0) * np.log(ms)) * vb
        value = complex(np.sum(term_a) + np.sum(term_b))
        block = float(np.sum(np.abs(term_a[M // 2 :])) + np.sum(np.abs(term_b[M // 2 :])))
        scale = max(abs(value), 1e-3)
        good = block <= tol_rel * scale
        if good and (block <= prev_block or block <= 0.01 * tol_rel * scale):
            return value
        prev_block = block
        M *= 2
        if M > 2**20:
            raise NonDecayError("critical-line coefficient sum refuses to converge")
