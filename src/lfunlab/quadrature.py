"""Numeric integration engines with self-reported error estimates.

Two families: vertical-line (Mellin-Barnes) integrals, and smooth
compactly supported bumps to integrate against.  `gauss_legendre_panels`
is the one composite Gauss-Legendre grid under both and under the rest of
the package; `panel_grid` lays it on an interval in panels no wider than a
given width.

Vertical-line integrals (1/2 pi i) int_{(sigma)} y^{-u} K(u) du go through
`contour_kernel`: it discretizes the line once, growing the height until
the outermost panels' mass falls below a relative tolerance or below the
caller's evaluation noise floor, and the returned ContourKernel evaluates
a whole batch of y at once.  The panels of each piece of the grid are
equally spaced and carry the same Legendre offsets, so the phase y^{-iv}
factors in two levels, by run of panels and by panel within the run: on a
piece of P panels an argument costs about 2 sqrt(P) + 12 exponentials, not
one per panel or per node, and the rest is one matrix product
(ContourKernel).  Its tail_estimate is that edge mass plus the accumulated
noise floor.  The integrand is a family K(u, r) indexed by a row parameter
r (the spectral parameter t of the AFE weights, the order of a Voronoi
transform), one call for all its rows: the rows share one grid, each
segment is evaluated for them in calls of a bounded size and written into
the (rows, nodes) weights, each row stops by the same rule applied to its
own masses and is zero past its stop, and the one ContourKernel's apply
shares the phases of an argument among all rows and returns one row of
values per row.  The estimate is empirical, not a rigorous enclosure; the
test suite checks its honesty against closed forms.

Throughout, line integrals carry the measure (1/2 pi i) ds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "SmoothBump",
    "NonDecayError",
    "ContourKernel",
    "contour_kernel",
    "smooth_bump",
    "gauss_legendre_panels",
    "panel_grid",
]


class NonDecayError(RuntimeError):
    """Tail contributions of a truncated integral are not shrinking."""


_NEWTON_STEPS = 20  # cap on _legendre_rule's Newton iterations; 3 or 4 suffice


def _legendre(x: np.ndarray, n: int) -> tuple:
    """P_n(x) and P_n'(x) by the three-term recurrence
    (k + 1) P_{k+1} = (2k + 1) x P_k - k P_{k-1} and P_{k+1}' = (k + 1) P_k + x P_k'."""
    p0, p1, d1 = np.ones_like(x), x, np.ones_like(x)
    for k in range(1, n):
        p0, p1, d1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1), (k + 1) * p1 + x * d1
    return p1, d1


@functools.lru_cache(maxsize=8)
def _legendre_rule(nodes: int):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], nodes ascending.

    Newton's iteration on P_n (_legendre) from the guesses
    cos(pi (k - 1/4) / (n + 1/2)) runs until its steps fall below 1e-10;
    convergence is quadratic, so the last step leaves each node at the
    rounding of its root.  The weight 2 / ((1 - x^2) P_n'(x)^2) moves at the
    relative rate -2x / (1 - x^2) with its node, which near +-1 magnifies
    the node's rounding; the weight is taken with the first-order
    correction for the node's offset -P_n / P_n' from the root, which keeps
    it within ~n ulps of the exact weight.  The rule is symmetrized.
    """
    if nodes < 1:
        raise ValueError(f"need at least one node, got {nodes}")
    x = np.cos(math.pi * (np.arange(nodes, 0, -1) - 0.25) / (nodes + 0.5))
    for _ in range(_NEWTON_STEPS):
        p, dp = _legendre(x, nodes)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-10:
            break
    else:
        raise ArithmeticError(f"Newton's iteration for the {nodes}-point Legendre rule did not converge")
    p, dp = _legendre(x, nodes)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp - 2.0 * x * p * dp)
    xs = 0.5 * (x - x[::-1])
    ws = 0.5 * (w + w[::-1])
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


def _panel_edges(a: float, b: float, width: float) -> np.ndarray:
    """Edges of the fewest equal panels of [a, b] no wider than `width`."""
    if not width > 0:
        raise ValueError(f"panel width must be positive, got {width}")
    return np.linspace(a, b, max(1, int(math.ceil((b - a) / width))) + 1)


def panel_grid(a: float, b: float, width: float, nodes: int):
    """Composite Gauss-Legendre grid on [a, b]: equal panels no wider than
    `width`, `nodes` points each."""
    return gauss_legendre_panels(_panel_edges(a, b, width), nodes)


_CONTOUR_NODES = 12  # Gauss-Legendre nodes per contour panel
_APPLY_ELEMENTS = 1 << 15  # (row, y, a, q) partial sums of apply's j-sum (512 KB complex) per block of arguments
_ROW_ELEMENTS = 1 << 13  # (row, node) entries per kfunc call, or per block of a row-batched product


def _row_blocks(n_rows: int, n_cols: int) -> list:
    """Row slices of an (n_rows, n_cols) product of about _ROW_ELEMENTS entries each."""
    step = max(1, _ROW_ELEMENTS // max(n_cols, 1))
    return [slice(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


def _panel_split(panels: int) -> tuple[int, int]:
    """(A, B) for writing the panel index p = j A + a, 0 <= a < A, j < B:
    A = ceil(sqrt(P)) and B = ceil(P / A), which minimizes the A + B
    exponentials per argument that apply spends on a piece of P panels."""
    a = math.isqrt(panels - 1) + 1
    return a, -(-panels // a)


def _piece(half: float, mids: np.ndarray) -> tuple:
    """A piece's entry in ContourKernel.panels: (half, mids, rates), rates
    the frequencies of the piece's E_a, R_j and O_q in that order.  One
    grid's pieces serve every kernel built on it, so the rates are worked
    out once per piece, not once per kernel."""
    a, b = _panel_split(mids.size)
    xs, _ = _legendre_rule(_CONTOUR_NODES)
    rates = [mids[0] + (2.0 * half) * np.arange(a), (2.0 * half * a) * np.arange(b), half * xs]
    return half, mids, np.concatenate(rates)


@dataclass(frozen=True)
class ContourKernel:
    """(1/2 pi i) int_{(sigma)} y^{-u} K(u, r) du on the nodes u = sigma + iv,
    one row per row parameter r of contour_kernel.

    w, of shape (rows, nodes), holds the quadrature weight times
    K(u, r) / (2 pi), each row zero past its own stop.  A symmetric kernel
    (K(conj u) = conj K(u)) keeps only v >= 0 and adds the mirror half as
    twice the real part.  tail_estimate holds one value per row, in the
    units of w: times y^{-sigma} it is the row's absolute error allowance at
    y.  apply(y) returns shape (rows, y.size).

    panels records the grid's geometry, one (half, mids, rates) triple per
    piece of equal panels (_piece), in the order of v: a piece holds the
    nodes mid + half x_q of each of its panel mids, x_q the _CONTOUR_NODES
    Legendre nodes.  The mids are equally spaced, mid_p = mid_0 + 2 h p with
    h = half, so with p = j A + a (_panel_split) and t = ln y the phase
    y^{-iv} is a product of three factors,

        E_a = e^{-i (mid_0 + 2 h a) t},  R_j = e^{-i 2 h A j t},  O_q = e^{-i h x_q t},

    and apply sums y^{-sigma} sum_a E_a sum_q O_q sum_j R_j w[j A + a, q].
    In the order of v each row's weights on the piece already form the
    (B, A nodes) matrix of the j-sum, so that sum is one (y, B) x
    (B, A nodes) product per row on a view of w (a short last row of panels
    adds its own rank-one term), and the a- and q-sums are batched products
    with E and O.  Per piece an argument costs A + B + _CONTOUR_NODES
    exponentials, about 2 sqrt(P) for P panels, shared by all rows, and
    per row as many multiply-adds as a dense sum over the nodes.
    The arguments go in blocks of _APPLY_ELEMENTS (row, y, a, q) partial
    sums.
    """

    sigma: float
    v: np.ndarray
    w: np.ndarray
    symmetric: bool
    tail_estimate: np.ndarray
    panels: tuple
    # (per piece: the slices of its E, R and O in the rates of all pieces,
    # its full rows of w as a (rows, A nodes) view, its short last row),
    # the rates of all pieces, the widest row in nodes
    _layout: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = _CONTOUR_NODES
        pieces = []
        start = at = width = 0
        for _, mids, rates in self.panels:
            a = _panel_split(mids.size)[0]
            w = self.w[:, start : start + mids.size * nodes]
            start += w.shape[1]
            full = (mids.size // a) * a * nodes
            end = at + rates.size
            e, r, o = slice(at, at + a), slice(at + a, end - nodes), slice(end - nodes, end)
            pieces.append((e, r, o, w[:, :full].reshape(w.shape[0], -1, a * nodes), w[:, full:]))
            at, width = end, max(width, a * nodes)
        rates = np.concatenate([rates for *_, rates in self.panels])
        object.__setattr__(self, "_layout", (tuple(pieces), rates, width))

    def apply(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=float).ravel()
        if not np.all(y > 0):
            raise ValueError("weight arguments must be positive")
        ln_y = np.log(y)
        pieces, rates, width = self._layout
        rows = self.w.shape[0]
        block = max(1, _APPLY_ELEMENTS // (rows * width))
        vals = np.zeros((rows, y.size), dtype=complex)
        for i in range(0, y.size, block):
            t = ln_y[i : i + block]
            phase = np.exp(-1j * np.multiply.outer(t, rates))
            for e, r, o, w, rest in pieces:
                runs = phase[:, r]
                part = runs[:, : w.shape[1]] @ w
                if rest.shape[1]:
                    part[:, :, : rest.shape[1]] += runs[:, -1:] * rest[:, None, :]
                part = phase[:, None, e] @ part.reshape(rows, t.size, -1, _CONTOUR_NODES) @ phase[:, o, None]
                vals[:, i : i + t.size] += part[..., 0, 0]
        if self.symmetric:
            vals = 2.0 * vals.real + 0j
        return vals * y ** (-self.sigma)


def contour_kernel(
    kfunc: Callable,
    sigma: float,
    rows,
    *,
    width: float,
    tol: float,
    symmetric: bool,
    height: float,
    cap: float,
) -> ContourKernel:
    """Discretize (1/2 pi i) int_{(sigma)} y^{-u} K(u, r) du for a batch of
    y and each row parameter r of the 1-D array `rows`.

    The grid starts on |v| <= height (v >= 0 only when `symmetric`), in
    panels no wider than `width`, which the caller sizes against the
    fastest phase of y^{-iv} K(sigma + iv, r) over its batch and its rows.
    It then grows in segments of ratio 1.6, up to `cap`, keeping the nodes
    already evaluated.  A row stops taking segments once its outermost
    panels' absolute mass drops below tol of its total or below three times
    the evaluation noise floor of its K (past that point extending
    integrates rounding noise, not signal).  kfunc(u, r) returns K(u, r)
    for a sub-array r of `rows`, shape (r.size, u.size), or the pair
    (K, floor) of that shape when it reports the floor, so that both can
    share their work.  No call sees more than _ROW_ELEMENTS (row, node)
    entries unless a single row does, which bounds the temporaries.

    The result is one ContourKernel whose w row i belongs to rows[i].  Each
    row ends at its own height, with its own tail_estimate (its edge mass
    plus the root-sum-square of its floor over all nodes), and is zero past
    its stop; its values do not depend on the other rows, so cut to its own
    length it is the row of a kernel built for that row alone.
    NonDecayError, naming the parameter of a row, when the cap arrives
    before that row stops.
    """
    params = np.atleast_1d(np.asarray(rows))
    active = np.arange(params.size)
    total = np.zeros(params.size)
    noise_sq = np.zeros(params.size)
    tails = np.zeros(params.size)
    vs, panels = [], []  # the nodes and the geometry of each piece, in order
    columns: list = []  # the weights, one (rows, nodes) array per segment

    def weights(u, gw, out, idx):
        # gw K(u, r) / 2 pi on the rows r = params[idx], their masses and
        # floors added up; the call's temporaries end with it
        result = kfunc(u, params[idx])
        value, floor = result if isinstance(result, tuple) else (result, None)
        w = gw * value / (2.0 * math.pi)
        absw = np.abs(w)
        total[idx] += absw.sum(axis=1)
        edge[idx] += absw[:, out].sum(axis=1)
        if floor is not None:
            fl = np.abs(gw) * np.asarray(floor, dtype=float) / (2.0 * math.pi)
            noise_sq[idx] += (fl * fl).sum(axis=1)
            edge_floor[idx] += fl[:, out].sum(axis=1)
        return w

    v_hi = 0.0
    while True:
        v_lo, v_hi = v_hi, (min(1.6 * v_hi, float(cap)) if columns else float(height))
        pieces = []  # (nodes, weights, outermost panel) per half-line
        for sign in (1,) if symmetric else (1, -1):
            a, b = (v_lo, v_hi) if sign == 1 else (-v_hi, -v_lo)
            edges = _panel_edges(a, b, width)
            x, gw = gauss_legendre_panels(edges, _CONTOUR_NODES)
            vs.append(x)
            panels.append(_piece(0.5 * (b - a) / (edges.size - 1), 0.5 * (edges[1:] + edges[:-1])))
            pieces.append((x, gw, slice(-_CONTOUR_NODES, None) if sign == 1 else slice(None, _CONTOUR_NODES)))
        edge = np.zeros(params.size)
        edge_floor = np.zeros(params.size)
        nodes = sum(x.size for x, _, _ in pieces)
        seg = None
        at = 0
        for x, gw, out in pieces:
            cols = slice(at, at + x.size)
            at += x.size
            for block in _row_blocks(active.size, x.size):
                idx = active[block]
                w = weights(sigma + 1j * x, gw, out, idx)
                if seg is None:  # allocated past the first call's temporaries
                    seg = np.zeros((params.size, nodes), dtype=complex)
                seg[idx, cols] = w
                del w  # seg holds it, and the next call gets the memory
        columns.append(seg)
        e, t = edge[active], total[active]
        done = (t == 0.0) | (e <= tol * t) | (e <= 3.0 * edge_floor[active])
        tails[active[done]] = e[done] + np.sqrt(noise_sq[active[done]])
        active = active[~done]
        if active.size == 0:
            break
        if v_hi >= cap:
            raise NonDecayError(
                f"contour kernel mass at height {v_hi:.0f} still above both the "
                f"decay target and the noise floor for row parameter {params[active[0]]}"
            )
    return ContourKernel(sigma, np.concatenate(vs), np.concatenate(columns, axis=1), symmetric, tails, tuple(panels))


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


_PLATEAU_FRACTION = 0.5  # share of a bump's support on which it is identically 1


def smooth_bump(a: float, b: float) -> SmoothBump:
    """Bump supported on [a, b], identically 1 on the central _PLATEAU_FRACTION."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"support ends must be finite, got [{a}, {b}]")
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    r = 0.5 * (1.0 - _PLATEAU_FRACTION) * (b - a)

    def ev(x):
        x = np.asarray(x, dtype=float)
        return np.minimum(_ramp((x - a) / r), _ramp((b - x) / r))

    return SmoothBump(support=(a, b), plateau=(a + r, b - r), evaluator=ev)
