"""Smoothed approximate-functional-equation weights and central values.

Central L-values on Re s = 1/2 are reached through the standard contour
device: insert the even damper G(u) = (cos pi u / A)^{-A} (holomorphic on
|Re u| < A/2, G(0) = 1, decaying like e^{-pi |Im u|} on vertical lines),
integrate the completed L-function against G(u)/u, and fold the u -> -u
reflection through the functional equation.  The result expresses the
central value as one or two rapidly convergent coefficient sums against
one kind of weight function.  For gamma data g of degree r, gamma_g(s, t)
is the factor of g.maass_tensor(t) (special.GammaData), and

    W(y, t) = (1/2 pi i) int y^{-u} G(u)^r gamma_g(1/2+u, t)/gamma_n(1/2, t) du/u,

n the normalizing gamma data.  The degree-2 weight U is the case r = 1,
g = n = _GAMMA_U, zeta's shift 0; the degree-6 tensor weights V1/V2 are
r = 3 with the form's gamma (direct) or gamma_dual (dual), both normalized
by its gamma.  They are ~ 1 for y well below the analytic conductor and
collapse like (1 + y/t^r)^{-A} beyond it.  One builder (_weight_kernel)
sizes every such contour from r: damper exponent -rA, start height,
oscillation budget, conjugate symmetry, and the pole guard.  All go
through quadrature.contour_kernel, one call per kernel with one row per t,
so that a whole vector of y values costs one matrix-vector product, and a
whole vector of t values costs one contour grid: the gamma ratio is
evaluated on a (t, u) matrix against its normalization at 1/2 computed once
per t-grid (gl2_afe_weight_grid, rankin_selberg_afe_weight_grid).  The
single-t callers build a one-row kernel.  A caller that needs one weight on
many t-grids over one range [0, top] (kuznetsov.diagonal_weight) builds it
once instead, as a piecewise Chebyshev interpolant in log(1 + t)
(chebyshev) through a few dozen rows per piece, all from the contour grid
sized for top and against one normalization computed for all of them, with
their rounding floors (_weight_rows), and evaluates every grid from that.

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
from typing import Callable, Sequence

import numpy as np

from .exactarith import _check_positive_integers
from .heckegl3 import GL3Form, PolarFormError, coefficient_row, mobius_unfold
from .quadrature import ContourKernel, NonDecayError, contour_kernel
from .special import GammaData, PoleError, zeta

__all__ = [
    "WeightSpec",
    "MaassFixture",
    "FixtureCoverageError",
    "cosine_power_damper",
    "gl2_afe_weight_grid",
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
        if not self.tail_tolerance > 0:
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
        if not 0 < self.t < math.inf:
            raise ValueError(f"spectral parameter must be positive and finite, got {self.t}")
        if self.parity != "even":
            raise ValueError("only even forms enter the averages; got " + self.parity)

    def coeff_array(self) -> np.ndarray:
        a = np.asarray(self.coeffs, dtype=complex)
        if a.ndim != 1 or a.size < 1:
            raise ValueError("coeffs must be a one-dimensional sequence")
        return a


class FixtureCoverageError(ValueError):
    """Fixture does not carry coefficients up to the required cutoff."""


def cosine_power_damper(spec: WeightSpec, u, r: int = 1):
    """G(u)^r = (cos(pi u / A))^{-rA}: r = 1 for the degree-2 weight, r = 3
    for the degree-6 tensor weights.  Even, 1 at u = 0, poles at Re u = A/2
    mod A."""
    power = -float(r * spec.A)
    u = np.asarray(u, dtype=complex)
    c = np.cos(np.pi * u / spec.A)
    if np.any(np.abs(c) < 1e-12):
        raise PoleError("damper evaluated at (or too near) a cosine zero")
    out = np.exp(power * np.log(c))
    return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# weight kernels on quadrature.contour_kernel

_HEIGHT_CAP = 400.0
_EPS = float(np.finfo(float).eps)


def _panel_width(osc: float) -> float:
    """12-node panels spanning <= 6 radians of the fastest phase."""
    return min(0.5, 6.0 / max(1.0, osc))


def _shift_osc(*data: GammaData) -> float:
    """A contour's phase budget for large shifts: 3 max |kappa|^{1/2}."""
    return 3.0 * max(abs(k) for g in data for k in g.shifts) ** 0.5


_GAMMA_U = GammaData((0,))  # zeta's Gamma_R(s); U's factor is its Maass tensor


_HALF = np.asarray(0.5 + 0j)  # the point s = 1/2 of the normalization


def _distinct(ts) -> np.ndarray:
    """The sorted distinct t of ts, from a sort and a comparison of
    neighbours: np.unique gives the same set, but its first call in a
    process imports numpy.ma."""
    grid = np.sort(np.ravel(ts))
    return grid[np.concatenate(([True], grid[1:] != grid[:-1]))]


def _weight_norm(norm: GammaData, ts, terms=None) -> Callable:
    """log gamma_n(1/2, t) for the gamma data n = norm, evaluated once on
    the distinct t of ts (_distinct) and looked up as a column for the rows
    of each call that contour_kernel makes to kfunc.  `terms`, if given,
    are the log Gammas of norm.maass_tensor(_distinct(ts)) at 1/2, one per
    shift (_weight_rows has them already)."""
    grid = _distinct(ts)
    vals = norm.maass_tensor(grid).log(_HALF, terms)
    return lambda t: vals[np.searchsorted(grid, t), None]


def _weight_kernel(
    spec: WeightSpec, ts, gamma, norm, max_abs_ln_y: float, t_top: float | None = None, norm_terms=None
) -> ContourKernel:
    """The kernel of W(., t) with gamma data `gamma` for the t in ts (a float
    or an array), one row per t, normalized by log gamma_n(1/2, t) for the
    gamma data n = norm (_weight_norm, once for all of ts, from norm_terms
    if the caller has them).  The degree r
    of gamma sets the damper power and the contour's size.  The grid is
    sized for |t| up to t_top (None: the largest |t| of ts), so that calls
    for different t with one t_top share the grid and give each t one row.
    The kernel holds len(ts) x nodes complex weights (at most 64 x 420,
    430 kB, on the perfbench diagonal_weight round); each kfunc call stays
    within quadrature._ROW_ELEMENTS (row, node) entries."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    tmax = float(np.max(np.abs(ts)))
    if t_top is not None:
        if not tmax <= t_top:
            raise ValueError(f"|t| = {tmax} lies past the grid's top {t_top}")
        tmax = float(t_top)
    r = len(gamma.shifts)
    # Gamma_R(1/2 + u + kappa -+ it) has its rightmost poles at
    # Re u = rightmost_pole - 1/2, which must lie left of the line Re u = sigma_u
    if not gamma.rightmost_pole - 0.5 < spec.sigma_u:
        raise PoleError(
            f"gamma data {gamma.shifts} put a pole of the weight's gamma factor "
            f"on or right of its contour Re u = {spec.sigma_u}"
        )
    log_norm = _weight_norm(norm, ts, norm_terms)

    def kfunc(u, t):
        ratio = np.exp(gamma.maass_tensor(t[:, None]).log(0.5 + u) - log_norm(t))
        return cosine_power_damper(spec, u, r) * ratio / u

    # damper decay e^{-r pi v} sets the height scale; the gamma ratio is
    # neutral below v ~ t and decays beyond.  Its phase speed ~ r log t adds
    # to the y^{-iv} oscillation when sizing panels.  The largest |t| sizes
    # both.
    vmax0 = (40.0 + r * spec.A * math.log(2.0) + 0.5 * r * math.log(2.0 + tmax)) / (r * math.pi)
    osc = max_abs_ln_y + r * math.log(2.0 + tmax) + _shift_osc(gamma)
    return contour_kernel(
        kfunc, spec.sigma_u, ts, width=_panel_width(osc), tol=spec.tail_tolerance,
        symmetric=gamma.conjugate_symmetric and norm.conjugate_symmetric, height=vmax0, cap=_HEIGHT_CAP,
    )


def _weight_grid(spec: WeightSpec, ys, ts, gamma, norm, t_top: float | None = None) -> np.ndarray:
    """W(y, t) as a (len(ts), len(ys)) array from one contour grid sized for
    the largest |log y| and for |t| up to t_top (default: the largest |t|);
    ValueError, before the build, for a non-finite t."""
    ts = np.asarray(ts, dtype=float)
    if not np.all(np.isfinite(ts)):
        raise ValueError(f"t must be finite, got {ts[~np.isfinite(ts)][0]}")
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    return _weight_kernel(spec, ts, gamma, norm, float(np.max(np.abs(np.log(ys)))), t_top).apply(ys)


def _weight_rows(spec: WeightSpec, y: float, ts, gamma, norm, t_top: float) -> tuple[np.ndarray, np.ndarray]:
    """W(y, t) for the t of ts from the one contour grid sized for t_top, and
    each value's rounding floor.  A row sums the terms w y^{-u} of its
    kernel; each carries the rounding of its phase v ln y (radians) and of
    the gamma quotient's exponent, whose 4r log Gamma terms are at most the
    sum G of their sizes at u = 0, where the row's mass sits.  So the floor
    is eps sum |w| (1 + |v ln y| + G) y^{-sigma}, doubled for a symmetric
    kernel.  The log Gammas at 1/2 that give G are evaluated once on the
    distinct t, and their norm part also gives the kernel's normalization."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    ln_y = math.log(y)
    grid = _distinct(ts)
    terms = list(GammaData(gamma.shifts + norm.shifts).maass_tensor(grid)._log_gammas(_HALF))
    size = sum(map(np.abs, terms))[np.searchsorted(grid, ts)]
    kern = _weight_kernel(spec, ts, gamma, norm, abs(ln_y), t_top, terms[2 * len(gamma.shifts) :])
    # phase-weighted masses and masses, row by row so as not to copy the kernel
    phase = 1.0 + np.abs(kern.v * ln_y)
    masses = np.array([(a @ phase, a.sum()) for a in map(np.abs, kern.w)])
    scale = (2.0 if kern.symmetric else 1.0) * y ** (-kern.sigma)
    return kern.apply([y])[:, 0], _EPS * (scale * masses[:, 0] + size * (scale * masses[:, 1]))


def gl2_afe_weight_grid(spec: WeightSpec, ys, ts) -> np.ndarray:
    """Degree-2 smoothing weight U(y, t) as a (len(ts), len(ys)) array; ~ 1
    for y << t, decaying past y ~ t.  The damper's order-A pole at
    Re u = A/2 caps the decay rate: the local dyadic exponent approaches A/2
    from below like A/2 - (A-1)/log y, which tests pin against measurement.
    Each row stops growing on its own; a row agrees with the single-t grid
    at its t to within the spec's tail_tolerance of the kernels' mass (the
    two grids differ in height and panel width)."""
    return _weight_grid(spec, ys, ts, _GAMMA_U, _GAMMA_U)


def rankin_selberg_afe_weight_grid(
    spec: WeightSpec, ys, ts, form: GL3Form, variant: str = "direct"
) -> np.ndarray:
    """Degree-6 tensor smoothing weight on a (len(ts), len(ys)) grid, as
    gl2_afe_weight_grid; variant "direct" carries the form's own gamma data,
    "dual" the contragredient's, both normalized by the direct factor at
    1/2."""
    gamma = form.gamma if variant == "direct" else form.gamma_dual
    return _weight_grid(spec, ys, ts, gamma, form.gamma)


# ---------------------------------------------------------------------------
# degree-2 central values


def _gl2_cutoff(t: float) -> int:
    return int(math.ceil(10.0 * (1.0 + abs(t))))


def _adaptive_cutoff(build: Callable, start: int, tol: float, metric: Callable | None = None):
    """Smallest dyadic extension of `start` at which an estimated absolute
    tail (weight magnitude folded through `metric`) drops below tol; returns
    the cutoff together with a one-row kernel resolved for arguments up to
    it.

    Matters at small spectral parameter, where the conductor-scale heuristic
    behind `start` underestimates how slowly the weight dies.
    """
    if metric is None:
        metric = lambda mag, L: mag * L
    L = int(start)
    for _ in range(30):
        kern = build(math.log(max(L, 2)))
        mag = abs(complex(kern.apply(np.array([float(L)]))[0, 0]))
        if metric(mag, L) <= tol:
            return L, kern
        L *= 2
    raise NonDecayError("AFE weight refuses to decay; cutoff probe exhausted")


def central_value_gl2(fixture: MaassFixture, spec: WeightSpec, l_cutoff: int | None = None) -> float:
    """Central value of a degree-2 L-function from its coefficient fixture:
    2 sum a(l) l^{-1/2} U(l, t).  Real for self-dual (even) data."""
    t = fixture.t
    a = fixture.coeff_array()
    build = lambda maxln: _weight_kernel(spec, t, _GAMMA_U, _GAMMA_U, maxln)
    if l_cutoff is not None:
        _check_positive_integers(l_cutoff=l_cutoff)
        L = int(l_cutoff)
        kern = build(math.log(max(L, 2)))
    else:
        L, kern = _adaptive_cutoff(build, _gl2_cutoff(t), max(spec.tail_tolerance, 1e-13))
    if a.size - 1 < L:
        raise FixtureCoverageError(
            f"fixture {fixture.source!r} carries a(l) for l <= {a.size - 1}, "
            f"but the decay envelope at t = {t} requires l <= {L}"
        )
    ls = np.arange(1, L + 1, dtype=float)
    u_vals = kern.apply(ls)[0]
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
    the merged double pole at r = 0 without a special case.  The integrand
    carries the normalized ratio, so the result is R / gamma2(1/2, r).
    """

    gamma = _GAMMA_U.maass_tensor(r)
    at_half = gamma.log(np.asarray(0.5 + 0j))

    def integrand(u):
        return (
            np.exp(gamma.log(0.5 + u) - at_half)
            * zeta(0.5 + u + 1j * r)
            * zeta(0.5 + u - 1j * r)
            * cosine_power_damper(spec, u)
            / u
        )

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
    return float((2.0 * total).real)


def zeta_square_afe(r: float, spec: WeightSpec) -> float:
    """|zeta(1/2 + ir)|^2 through the divisor-coefficient identity, polar
    correction included."""
    if not 0 <= r < math.inf:
        raise ValueError(f"r must be nonnegative and finite, got {r}")
    L, kern = _adaptive_cutoff(
        lambda maxln: _weight_kernel(spec, r, _GAMMA_U, _GAMMA_U, maxln),
        _gl2_cutoff(r),
        max(spec.tail_tolerance, 1e-13),
    )
    eta = eisenstein_coefficients(L, r)
    ls = np.arange(1, L + 1, dtype=float)
    u_vals = kern.apply(ls)[0]
    main = 2.0 * float(np.sum(eta[1:] * ls**-0.5 * u_vals).real)
    return main - _zeta_polar_correction(r, spec)


# ---------------------------------------------------------------------------
# tensor central values


def _rs_double_sum(
    form: GL3Form, coeffs: np.ndarray, t: float, spec: WeightSpec, cutoff: int, kern1: ContourKernel
) -> complex:
    """sum_{m^2 n <= cutoff} conj(a(n)) [ A(m,n) V1 + A(n,m) V2 ] (m^2 n)^{-1/2},
    with kern1 V1's kernel for the cutoff, as the cutoff probe builds it."""
    total = 0j
    # one kernel per variant, and one coefficient row per orientation
    # unfolded at each m, shared by every m-row: entries n <= n_max of a
    # row do not depend on its length
    kern2 = _weight_kernel(spec, t, form.gamma_dual, form.gamma, math.log(max(cutoff, 2)))
    row = coefficient_row(form, cutoff)
    col = coefficient_row(form, cutoff, dual=True)
    m = 1
    while m * m <= cutoff:
        n_max = cutoff // (m * m)
        ns = np.arange(1, n_max + 1, dtype=float)
        ys = (m * m) * ns
        a_conj = np.conj(coeffs[1 : n_max + 1])
        direct = mobius_unfold(form, m, row[: n_max + 1])[1:]
        swapped = mobius_unfold(form, m, col[: n_max + 1], transpose=True)[1:]
        inv_sqrt = ys**-0.5
        total += np.sum(a_conj * direct * inv_sqrt * kern1.apply(ys)[0])
        total += np.sum(a_conj * swapped * inv_sqrt * kern2.apply(ys)[0])
        m += 1
    return complex(total)


def _rs_cutoff(t: float) -> int:
    return int(math.ceil(10.0 * (1.0 + abs(t)) ** 3))


def _rs_adaptive_cutoff(form: GL3Form, t: float, spec: WeightSpec) -> tuple[int, ContourKernel]:
    # Tail of sum_{m^2 n > C} d(n) d_3(m^2 n) (m^2 n)^{-1/2} |V(m^2 n)|, with
    # the weight locked at its boundary value: ~ |V(C)| sqrt(C) log^2 C up to
    # the decay margin.  Large gamma shifts (the discriminant-form lift
    # reaches 12) push genuine decay out to C ~ 1e4, so the target is
    # an absolute tail small against unit-scale values rather than the raw
    # weight floor used on the degree-2 side.
    return _adaptive_cutoff(
        lambda maxln: _weight_kernel(spec, t, form.gamma, form.gamma, maxln),
        _rs_cutoff(t),
        max(1e3 * spec.tail_tolerance, 3e-6),
        metric=lambda mag, L: mag * math.sqrt(L) * (1.0 + math.log(L)) ** 2 / 2.0,
    )


def central_value_rs(
    form: GL3Form, fixture: MaassFixture, spec: WeightSpec, cutoff: int | None = None
) -> complex:
    """Central value of the degree-6 tensor L-function from the two double
    sums against V1/V2.  Real to quadrature accuracy for self-dual data."""
    t = fixture.t
    if cutoff is None:
        C, kern = _rs_adaptive_cutoff(form, t, spec)
    else:
        _check_positive_integers(cutoff=cutoff)
        C = int(cutoff)
        kern = _weight_kernel(spec, t, form.gamma, form.gamma, math.log(max(C, 2)))
    a = fixture.coeff_array()
    if a.size - 1 < C:
        raise FixtureCoverageError(
            f"fixture {fixture.source!r} carries a(n) for n <= {a.size - 1}, "
            f"but the tensor decay envelope at t = {t} requires n <= {C}"
        )
    return _rs_double_sum(form, a, t, spec, C, kern)


def central_value_rs_eisenstein(form: GL3Form, r: float, spec: WeightSpec) -> complex:
    """Tensor central value against the real-analytic continuous-series
    surrogate: coefficients eta(n, r).  Factorizes as the product of the two
    degree-3 values at 1/2 -+ ir, which tests verify independently."""
    if not math.isfinite(r):
        raise ValueError(f"r must be finite, got {r}")
    if form.polar:
        raise PolarFormError(
            "the degenerate triple-divisor form has a polar standard L-function; "
            "the continuous surrogate identity does not apply"
        )
    C, kern = _rs_adaptive_cutoff(form, abs(r), spec)
    eta = eisenstein_coefficients(C, r).astype(complex)
    return _rs_double_sum(form, eta, abs(r), spec, C, kern)


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
    if not (math.isfinite(s0.real) and math.isfinite(s0.imag)):
        raise ValueError(f"s0 must be finite, got {s0}")
    if abs(s0.real - 0.5) > 1e-12:
        raise ValueError("s0 must lie on the critical line")
    return _gl3_afe_value(form, s0, spec)


def _gl3_afe_value(form: GL3Form, s0: complex, spec: WeightSpec) -> complex:
    """gl3_critical_value's functional-equation pair at any s0, with no
    critical-line check: the pair is an identity wherever L(s, form) is
    entire, and at s0 = 1 it is checked against the Petersson norm."""
    if form.polar:
        raise PolarFormError("polar standard L-function: the entire-completion AFE does not apply")

    # deeper abscissa = faster coefficient decay, but it must clear the
    # damper's first pole at Re u = A/2
    sigma = min(3.0, 0.45 * spec.A)
    denom = complex(form.gamma.log(s0))

    # row 0 of the kernel integrates Va's integrand, row 1 Vb's
    pair = ((s0, form.gamma), (1 - s0, form.gamma_dual))

    def kfunc(u, rows):
        damped = cosine_power_damper(spec, u) / u
        return np.stack([damped * np.exp(pair[i][1].log(pair[i][0] + u) - denom) for i in rows])

    osc_extra = 1.5 * math.log(2.0 + abs(s0)) + _shift_osc(form.gamma, form.gamma_dual)
    # the damper pole at Re u = A/2 caps the reachable coefficient decay at
    # m^{-A/2}, so the convergence goal must loosen for small A
    tol_rel = max(spec.tail_tolerance, 10.0 ** (-min(8.0, 0.75 * spec.A)))
    M = 64
    value = 0j
    prev_block = math.inf
    while True:
        width = _panel_width(math.log(M) + osc_extra)
        kern = contour_kernel(
            kfunc, sigma, np.arange(2), width=width, tol=spec.tail_tolerance, symmetric=False,
            height=8.0, cap=_HEIGHT_CAP,
        )
        row = coefficient_row(form, M)
        col = coefficient_row(form, M, dual=True)
        ms = np.arange(1, M + 1, dtype=float)
        va, vb = kern.apply(ms)
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
