"""Numeric integration engines with self-reported error estimates.

Four families: vertical-line (Mellin-Barnes) integrals, oscillatory
integrals with panel sizes tied to the local phase velocity, the one-point
stationary-phase main term, and smooth compactly supported bump
constructions (including an exact dyadic partition of unity and a
Poisson-summation residual checker).  `gauss_legendre_panels` is the one
composite Gauss-Legendre grid under all of them and under the rest of the
package.

Vertical-line integrals (1/2 pi i) int_{(sigma)} y^{-u} K(u) du go through
`contour_kernel`: it discretizes the line once, growing the height until
the outermost panels' mass falls below a relative tolerance or below the
caller's evaluation noise floor, and the returned ContourKernel evaluates
a whole batch of y as one matrix-vector product.  Its tail_estimate is
that edge mass plus the accumulated noise floor.  oscillatory_integral
returns a TransformResult whose abs_error_estimate is the observed change
under one further refinement level.  Both estimates are empirical, not
rigorous enclosures; the test suite checks their honesty against closed
forms and refinement.

Throughout, e(z) means exp(2 pi i z), and line integrals carry the measure
(1/2 pi i) ds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "TransformResult",
    "SmoothBump",
    "NonDecayError",
    "UnboundedPhaseError",
    "StationaryPointError",
    "unit_phase",
    "ContourKernel",
    "contour_kernel",
    "oscillatory_integral",
    "stationary_phase_main_term",
    "smooth_bump",
    "dyadic_window",
    "dyadic_partition_value",
    "poisson_residual",
    "CubicSpline1D",
    "gauss_legendre_panels",
]


class NonDecayError(RuntimeError):
    """Tail contributions of a truncated integral are not shrinking."""


class UnboundedPhaseError(ValueError):
    """Oscillatory phase derivative is unbounded (or absurd) on the support."""


class StationaryPointError(ValueError):
    """Stationary point missing from the support, or degenerate."""


@dataclass(frozen=True)
class TransformResult:
    value: complex
    abs_error_estimate: float
    evaluations: int


def unit_phase(z):
    """e(z) = exp(2 pi i z)."""
    return np.exp(2j * np.pi * np.asarray(z))


@functools.lru_cache(maxsize=8)
def _legendre_rule(nodes: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]."""
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    xs.flags.writeable = False
    ws.flags.writeable = False
    return xs, ws


def gauss_legendre_panels(edges, nodes: int):
    """Composite Gauss-Legendre nodes/weights over consecutive panels.

    `edges` lists the increasing panel boundaries; each panel carries
    `nodes` points.  Returns flat (x, w) arrays, panel by panel.
    """
    edges = np.asarray(edges, dtype=float)
    xs, ws = _legendre_rule(nodes)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * xs[None, :]).ravel()
    w = (half[:, None] * np.broadcast_to(ws, (edges.size - 1, nodes))).ravel()
    return x, w


def _segment(g: Callable, a: float, b: float, panel_width: float, nodes: int = 10):
    n = max(1, int(math.ceil((b - a) / panel_width)))
    x, w = gauss_legendre_panels(np.linspace(a, b, n + 1), nodes)
    return complex(np.dot(w, g(x))), x.size


_CONTOUR_NODES = 12  # Gauss-Legendre nodes per contour panel
_APPLY_ELEMENTS = 1 << 21  # entries (32 MB complex) per block of the (y, v) phase matrix


@dataclass(frozen=True)
class ContourKernel:
    """(1/2 pi i) int_{(sigma)} y^{-u} K(u) du on the nodes u = sigma + iv.

    w holds the quadrature weight times K(u) / (2 pi).  A symmetric kernel
    (K(conj u) = conj K(u)) keeps only v >= 0 and adds the mirror half as
    twice the real part.  tail_estimate is in the units of w: times
    y^{-sigma} it is the absolute error allowance at y.
    """

    sigma: float
    v: np.ndarray
    w: np.ndarray
    symmetric: bool
    tail_estimate: float

    def apply(self, y) -> np.ndarray:
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if np.any(y <= 0):
            raise ValueError("weight arguments must be positive")
        block = max(1, _APPLY_ELEMENTS // max(self.v.size, 1))
        vals = np.concatenate(
            [
                np.exp(-1j * np.outer(np.log(y[i : i + block]), self.v)) @ self.w
                for i in range(0, max(y.size, 1), block)
            ]
        )
        if self.symmetric:
            vals = 2.0 * vals.real + 0j
        return vals * y ** (-self.sigma)


def contour_kernel(
    kfunc: Callable,
    sigma: float,
    *,
    width: float,
    tol: float,
    symmetric: bool,
    height: float,
    cap: float,
    kfloor: Callable | None = None,
) -> ContourKernel:
    """Discretize (1/2 pi i) int_{(sigma)} y^{-u} K(u) du for a batch of y.

    The grid starts on |v| <= height (v >= 0 only when `symmetric`), in
    panels no wider than `width`, which the caller sizes against the
    fastest phase of y^{-iv} K(sigma + iv) over its batch.  It then grows in
    segments of ratio 1.6, up to `cap`, keeping the nodes already evaluated,
    until the outermost panels' absolute mass drops below tol of the total
    or below three times the evaluation noise floor that the optional
    kfloor(u) reports for K (past that point extending integrates rounding
    noise, not signal).  tail_estimate adds that edge mass to the
    root-sum-square of the floor over all nodes; NonDecayError when the cap
    arrives first.
    """
    vs: list = []
    ws: list = []
    total = 0.0
    noise_sq = 0.0
    v_lo, v_hi = 0.0, float(height)
    while True:
        edge = 0.0
        edge_floor = 0.0
        for sign in (1,) if symmetric else (1, -1):
            a, b = (v_lo, v_hi) if sign == 1 else (-v_hi, -v_lo)
            n_panels = max(1, int(math.ceil((b - a) / width)))
            x, gw = gauss_legendre_panels(np.linspace(a, b, n_panels + 1), _CONTOUR_NODES)
            u = sigma + 1j * x
            w = gw * kfunc(u) / (2.0 * math.pi)
            vs.append(x)
            ws.append(w)
            absw = np.abs(w)
            total += float(np.sum(absw))
            out = slice(-_CONTOUR_NODES, None) if sign == 1 else slice(None, _CONTOUR_NODES)
            edge += float(np.sum(absw[out]))
            if kfloor is not None:
                fl = np.abs(gw) * np.asarray(kfloor(u), dtype=float) / (2.0 * math.pi)
                noise_sq += float(np.sum(fl * fl))
                edge_floor += float(np.sum(fl[out]))
        if total == 0.0 or edge <= tol * total or edge <= 3.0 * edge_floor:
            tail = edge + math.sqrt(noise_sq)
            return ContourKernel(sigma, np.concatenate(vs), np.concatenate(ws), symmetric, tail)
        if v_hi >= cap:
            raise NonDecayError(
                f"contour kernel mass at height {v_hi:.0f} still above both the "
                f"decay target and the noise floor"
            )
        v_lo, v_hi = v_hi, min(1.6 * v_hi, float(cap))


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


def oscillatory_integral(
    amplitude: Callable,
    phase: Callable,
    support: tuple[float, float],
    *,
    tol: float = 1e-9,
    min_nodes_per_period: int = 8,
    max_refinements: int = 12,
    nodes: int = 10,
) -> TransformResult:
    """integral over the support of amplitude(x) * e(phase(x)) dx.

    Panel width is capped so each period of the fastest local oscillation
    receives at least `min_nodes_per_period` nodes, then panels halve until
    two passes agree to tol (relative); the last inter-pass change is the
    error estimate.
    """
    a, b = float(support[0]), float(support[1])
    if not a < b:
        raise ValueError(f"empty support [{a}, {b}]")
    vmax = _phase_velocity_scan(phase, a, b)

    def f(x):
        return np.asarray(amplitude(x), dtype=complex) * unit_phase(phase(x))

    width = min((b - a) / 8.0, nodes / (min_nodes_per_period * max(vmax, 1e-12)))
    evals = 0
    prev = None
    delta = math.inf
    for _ in range(max_refinements):
        cur, n = _segment(f, a, b, width, nodes)
        evals += n
        if prev is not None:
            delta = abs(cur - prev)
            if delta <= tol * (abs(cur) + 1.0):
                return TransformResult(cur, delta, evals)
        prev = cur
        width /= 2.0
    return TransformResult(prev, delta, evals)


def stationary_phase_main_term(
    amplitude: Callable,
    phase: Callable,
    phase_second_derivative,
    stationary_point: float,
    support: tuple[float, float] | None = None,
) -> complex:
    """Leading term of the oscillatory integral at an interior critical point:

        amplitude(y0) * e(phase(y0) + 1/8) / sqrt(phase''(y0)),

    with the conjugate phase offset e(-1/8) when the second derivative is
    negative.  The sanity check on Fresnel: phase x^2 gives e(1/8)/sqrt(2)
    for unit amplitude over the whole line.
    """
    y0 = float(stationary_point)
    if support is None:
        support = getattr(amplitude, "support", None)
    if support is not None:
        a, b = support
        if not a < y0 < b:
            raise StationaryPointError(f"stationary point {y0} outside ({a}, {b})")
    dd = phase_second_derivative(y0) if callable(phase_second_derivative) else float(phase_second_derivative)
    if not math.isfinite(dd) or abs(dd) < 1e-140:
        raise StationaryPointError(f"degenerate second derivative {dd} at {y0}")
    amp = complex(np.asarray(amplitude(np.array([y0])), dtype=complex)[0])
    ph0 = float(np.atleast_1d(np.asarray(phase(np.array([y0])), dtype=float))[0])
    offset = 0.125 if dd > 0 else -0.125
    return amp * complex(unit_phase(ph0 + offset)) / math.sqrt(abs(dd))


_TINY = 1e-300


def _ramp(x: np.ndarray) -> np.ndarray:
    """C-infinity monotone ramp: 0 for x <= 0, 1 for x >= 1."""
    x = np.asarray(x, dtype=float)
    up = np.where(x > 0, np.exp(-1.0 / np.maximum(x, _TINY)), 0.0)
    down = np.where(x < 1, np.exp(-1.0 / np.maximum(1.0 - x, _TINY)), 0.0)
    return up / (up + down)


@dataclass(frozen=True)
class SmoothBump:
    """A smooth [0, 1]-valued function: 0 outside `support`, 1 on `plateau`."""

    support: tuple[float, float]
    plateau: tuple[float, float]
    evaluator: Callable

    def __call__(self, x):
        return self.evaluator(x)


def smooth_bump(a: float, b: float, plateau_fraction: float = 0.5) -> SmoothBump:
    """Bump supported on [a, b], identically 1 on the central fraction."""
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    if not 0.0 < plateau_fraction < 1.0:
        raise ValueError("plateau_fraction must lie strictly between 0 and 1")
    r = 0.5 * (1.0 - plateau_fraction) * (b - a)

    def ev(x):
        x = np.asarray(x, dtype=float)
        return np.minimum(_ramp((x - a) / r), _ramp((b - x) / r))

    return SmoothBump(support=(a, b), plateau=(a + r, b - r), evaluator=ev)


def dyadic_window() -> SmoothBump:
    """The window g with sum over integers u of g(x / 2^u) = 1 for all x > 0.

    g(x) = ramp(x - 1) - ramp(x/2 - 1): the sum telescopes to 1.  Support
    [1, 4], peak value 1 exactly at x = 2.
    """

    def ev(x):
        x = np.asarray(x, dtype=float)
        return _ramp(x - 1.0) - _ramp(x / 2.0 - 1.0)

    return SmoothBump(support=(1.0, 4.0), plateau=(2.0, 2.0), evaluator=ev)


def dyadic_partition_value(x) -> np.ndarray:
    """sum over u in Z of g(x / 2^u) for the standard dyadic window (== 1)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x <= 0):
        raise ValueError("dyadic partition lives on x > 0")
    g = dyadic_window()
    out = np.zeros_like(x)
    lo = np.floor(np.log2(x)).astype(int) - 2
    for shift in range(0, 5):
        out += g(x / np.exp2(lo + shift))
    return out


def poisson_residual(f, k_max: int, support: tuple[float, float] | None = None) -> float:
    """| sum_{n in Z} f(n)  -  sum_{|k| <= k_max} int f(x) e(-k x) dx |.

    f must be smooth and compactly supported (a SmoothBump or anything with
    a .support attribute, else pass `support`); the gap decays faster than
    any power of k_max.
    """
    if support is None:
        support = getattr(f, "support", None)
        if support is None:
            raise ValueError("need the support of f")
    a, b = support
    ns = np.arange(math.ceil(a), math.floor(b) + 1)
    lhs = float(np.sum(np.asarray(f(ns.astype(float)), dtype=float))) if ns.size else 0.0

    zero_mode = oscillatory_integral(f, lambda x: np.zeros_like(np.asarray(x, float)), (a, b)).value
    rhs = complex(zero_mode)
    for k in range(1, k_max + 1):
        mode = oscillatory_integral(f, lambda x, k=k: -k * np.asarray(x, float), (a, b)).value
        rhs += mode + np.conj(mode)  # f real: the -k and +k modes are conjugate
    return abs(lhs - rhs)


class CubicSpline1D:
    """Plain cubic spline on a strictly increasing grid.

    Natural boundary conditions by default; pass end derivatives d0/dn for a
    clamped fit.  Values may be real or complex.  Evaluation outside the grid
    clamps to the end polynomials (callers control their own truncation).
    """

    def __init__(self, x, y, d0: float | None = None, dn: float | None = None):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y)
        if x.ndim != 1 or x.size < 3 or np.any(np.diff(x) <= 0):
            raise ValueError("need a strictly increasing grid of >= 3 points")
        n = x.size
        h = np.diff(x)
        dtype = complex if np.iscomplexobj(y) else float
        y = y.astype(dtype)

        # tridiagonal system for the second derivatives M_i
        diag = np.empty(n, dtype=float)
        lower = np.empty(n - 1, dtype=float)
        upper = np.empty(n - 1, dtype=float)
        rhs = np.empty(n, dtype=dtype)
        slope = np.diff(y) / h
        diag[1:-1] = 2.0 * (h[:-1] + h[1:])
        lower[:-1] = h[:-1]
        upper[1:] = h[1:]
        rhs[1:-1] = 6.0 * (slope[1:] - slope[:-1])
        if d0 is None:
            diag[0], upper[0], rhs[0] = 1.0, 0.0, 0.0
        else:
            diag[0], upper[0], rhs[0] = 2.0 * h[0], h[0], 6.0 * (slope[0] - d0)
        if dn is None:
            diag[-1], lower[-1], rhs[-1] = 1.0, 0.0, 0.0
        else:
            diag[-1], lower[-1], rhs[-1] = 2.0 * h[-1], h[-1], 6.0 * (dn - slope[-1])

        # Thomas elimination
        c = upper.copy()
        d = rhs.copy()
        b = diag.copy()
        for i in range(1, n):
            w = lower[i - 1] / b[i - 1]
            b[i] -= w * c[i - 1]
            d[i] -= w * d[i - 1]
        m = np.empty(n, dtype=dtype)
        m[-1] = d[-1] / b[-1]
        for i in range(n - 2, -1, -1):
            m[i] = (d[i] - c[i] * m[i + 1]) / b[i]

        self.x, self.y, self.h, self.m = x, y, h, m

    def __call__(self, xq):
        xq_arr = np.atleast_1d(np.asarray(xq, dtype=float))
        i = np.clip(np.searchsorted(self.x, xq_arr) - 1, 0, self.x.size - 2)
        hi = self.h[i]
        t = xq_arr - self.x[i]
        s = self.x[i + 1] - xq_arr
        out = (
            self.m[i] * s**3 / (6 * hi)
            + self.m[i + 1] * t**3 / (6 * hi)
            + (self.y[i] / hi - self.m[i] * hi / 6) * s
            + (self.y[i + 1] / hi - self.m[i + 1] * hi / 6) * t
        )
        return out[0] if np.ndim(xq) == 0 else out
