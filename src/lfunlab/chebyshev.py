"""Piecewise Chebyshev interpolation in s = log(1 + t) on [0, top].

A function that is analytic near the real t-axis and varies on the scale
of t itself is polynomial-like in s = log(1 + t) on any piece spanning a
bounded factor in 1 + t.  So [0, top] is cut by a fixed geometric rule,
pieces 0, 7, 63, 511, ... (a factor of at most 8 in 1 + t each, the last
cut at top), and each piece carries the polynomial through its values at
Chebyshev-Lobatto points in s, evaluated by the second barycentric formula
(Berrut & Trefethen, Barycentric Lagrange Interpolation, SIAM Review 46,
2004).  The point sets of n, n/2 and n/4 intervals nest, so the gaps of
the coarser two interpolants, each checked at the points the next finer set
adds, cost no extra evaluation, and a doubling evaluates only the new
points.  The interpolants of a function analytic near the piece converge
geometrically (Trefethen, Approximation Theory and Approximation Practice,
Thm 8.2), so the ratio r of the two gaps extrapolates the n-interval error
from the n/2 one's gap: a piece is kept at n intervals once gap(n/2) r is
within tol, one doubling before gap(n/2) itself would be (cf. Aurentz &
Trefethen, Chopping a Chebyshev series, ACM TOMS 43, 2017).  The AFE weights
W(y, t) of `afe` are such functions: they read t only through gamma
quotients; so are `kuznetsov`'s Bessel transforms in 1 + t = z / z_min,
built as two columns of one interpolant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quadrature import NonDecayError, _row_blocks

_PIECE_RATIO = 8.0  # a piece spans at most this factor in 1 + t
_CHEB_START = 8  # the first build has twice as many intervals, checked through its interpolants on 8 and 4
_CHEB_MAX = 512  # most intervals per piece; past it the build raises


def _piece_edges(top: float) -> np.ndarray:
    """0, 7, 63, 511, ... (each 8 (1 + the last) - 1), the last cut at top."""
    edges = [0.0]
    while edges[-1] < top:
        edges.append(min(_PIECE_RATIO * (1.0 + edges[-1]) - 1.0, top))
    return np.array(edges)


def _lobatto_ts(mid: float, half: float, k: np.ndarray, n: int) -> np.ndarray:
    """t at the Chebyshev-Lobatto points s = mid + half cos(pi k / n)."""
    return np.expm1(mid + half * np.cos(math.pi * k / n))


def _lebesgue(n: int) -> float:
    """A bound on the Lebesgue constant of n Chebyshev-Lobatto intervals,
    1 + (2/pi) log(n + 1) (Trefethen, Approximation Theory and
    Approximation Practice, Thm 15.2): the interpolant of data off by at
    most e is off by at most that times e."""
    return 1.0 + (2.0 / math.pi) * math.log(n + 1.0)


def _barycentric(xs: np.ndarray, values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The polynomial through (xs, values) at x, by the second barycentric
    form; xs are the n + 1 Chebyshev-Lobatto points in the order of
    cos(pi j / n), with weights (-1)^j, halved at both ends; values of shape
    (n + 1, k) give one polynomial per column.  At a node it returns that
    node's value exactly."""
    w = np.where(np.arange(xs.size) % 2, -1.0, 1.0)
    w[[0, -1]] *= 0.5
    # real @ complex has no BLAS path in numpy; real @ (real, imag) does
    cols = values.reshape(xs.size, -1)
    k = cols.shape[1]
    parts = np.concatenate([cols.real, cols.imag], axis=1)
    out = np.empty((x.size, k), dtype=complex)
    for rows in _row_blocks(x.size, xs.size):  # blocks of (x, node) entries
        d = x[rows, None] - xs
        hit = d == 0.0
        c = w / np.where(hit, 1.0, d)
        num = c @ parts
        out[rows] = (num[:, :k] + 1j * num[:, k:]) / c.sum(axis=1)[:, None]
        at, node = np.nonzero(hit)
        out[rows][at] = cols[node]
    return out.reshape(x.shape + values.shape[1:])


@dataclass(frozen=True)
class _Piece:
    """The interpolant on one piece: the nodes t and their x = (log(1 + t) -
    mid) / half in [-1, 1], the values there, and the error it reports (see
    _interpolate_log1p)."""

    mid: float
    half: float
    ts: np.ndarray
    xs: np.ndarray
    values: np.ndarray
    error: float


@dataclass(frozen=True)
class _Interpolant:
    """f(t) for 0 <= t <= edges[-1], one _Piece per interval of edges;
    rows counts the evaluations of f the build took."""

    edges: np.ndarray
    pieces: tuple
    rows: int

    def _piece_index(self, ts: np.ndarray) -> np.ndarray:
        if ts.size and not (np.min(ts) >= 0.0 and np.max(ts) <= self.edges[-1]):
            raise ValueError(f"t outside the interpolant's range [0, {self.edges[-1]}]")
        return np.minimum(np.searchsorted(self.edges, ts, side="right") - 1, len(self.pieces) - 1)

    def __call__(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        where = self._piece_index(ts)
        out = np.empty(ts.shape + self.pieces[0].values.shape[1:], dtype=complex)
        for k, p in enumerate(self.pieces):
            sel = where == k
            out[sel] = _barycentric(p.xs, p.values, (np.log1p(ts[sel]) - p.mid) / p.half)
        return out

    def error(self, ts) -> np.ndarray:
        """The reported interpolation error at each t: its piece's error, for all columns."""
        return np.array([p.error for p in self.pieces])[self._piece_index(np.asarray(ts, dtype=float))]


def _interpolate_log1p(rows: Callable, top: float, tol: float, label: str) -> _Interpolant:
    """f on [0, top] from rows(ts) -> (f(ts), floor(ts)), floor each value's
    rounding floor; f(ts) has shape (len(ts),) or (len(ts), k), k functions
    on the same nodes, checked together against the largest of them.  A
    piece of n intervals (points numbered 0..n) has two gaps, the largest
    |interpolant - f| of
      - gap(n/2): the interpolant on the even-numbered points at the odd ones;
      - gap(n/4): the interpolant on the points = 0 mod 4 at those = 2 mod 4.
    Under geometric convergence the n-interval error is about gap(n/2) r^2,
    r = gap(n/2) / gap(n/4); the piece takes one factor only,
    pred = gap(n/2) min(1, r), so where the gaps do not contract pred is
    gap(n/2) itself.  The piece stops once pred is within tol of the
    largest |f| on it, or within what the values' floor F allows
    ((1 + Lebesgue constant of n/2) F), and keeps pred + (1 + Lebesgue
    constant of n) F as its error.  Otherwise it doubles, evaluating only
    the new odd-numbered points.  The first build has 2 _CHEB_START
    intervals per piece, all pieces' points in one call of rows (neighbours
    share their common end), and each doubling is one call for all pieces
    still open; NonDecayError, naming label, past _CHEB_MAX.  Gaps that
    contract only algebraically, as at a singularity on the piece, leave
    pred no margin over the n-interval error, and between the nodes that
    error can exceed it: the rule is meant for functions analytic near the
    piece."""
    edges = _piece_edges(top)
    s = np.log1p(edges)
    mids, halves = 0.5 * (s[1:] + s[:-1]), 0.5 * (s[1:] - s[:-1])

    def x_of(k: int, t: np.ndarray) -> np.ndarray:
        return (np.log1p(t) - mids[k]) / halves[k]

    n = 2 * _CHEB_START  # intervals per piece
    ts = [_lobatto_ts(m, h, np.arange(n + 1), n) for m, h in zip(mids, halves)]
    for k, t in enumerate(ts):  # the ends exactly, so that neighbours share them
        t[0], t[-1] = edges[k + 1], edges[k]
    first = np.sort(np.concatenate([ts[0]] + [t[:-1] for t in ts[1:]]))  # each shared end once
    built, built_floors = rows(first)
    at = [np.searchsorted(first, t) for t in ts]
    values, floors = [built[i] for i in at], [float(np.max(built_floors[i])) for i in at]
    count = first.size
    errors = [math.inf] * len(ts)
    pending = list(range(len(ts)))
    while True:
        for k in list(pending):
            x, f = x_of(k, ts[k]), values[k]
            gap = float(np.max(np.abs(_barycentric(x[0::2], f[0::2], x[1::2]) - f[1::2])))
            coarse = float(np.max(np.abs(_barycentric(x[0::4], f[0::4], x[2::4]) - f[2::4])))
            pred = gap if gap >= coarse else gap * (gap / coarse)  # gap min(1, r), r = gap / coarse; no division by a coarse gap of 0
            errors[k] = pred + (1.0 + _lebesgue(n)) * floors[k]
            if pred <= tol * float(np.max(np.abs(f))) + (1.0 + _lebesgue(n // 2)) * floors[k]:
                pending.remove(k)
        if not pending:
            break
        if 2 * n > _CHEB_MAX:
            k = pending[0]
            raise NonDecayError(
                f"{label} still off by {errors[k]:.2e} between interpolants in "
                f"log(1 + t) on [{edges[k]}, {edges[k + 1]}] at {n} Chebyshev intervals"
            )
        n *= 2
        odd = np.arange(1, n, 2)
        new = [_lobatto_ts(mids[k], halves[k], odd, n) for k in pending]
        got, got_floors = (np.split(a, len(pending)) for a in rows(np.concatenate(new)))
        count += odd.size * len(pending)
        for k, t_new, f_new, fl_new in zip(pending, new, got, got_floors):
            t2, f2 = np.empty(n + 1), np.empty((n + 1,) + f_new.shape[1:], dtype=complex)
            t2[0::2], t2[1::2], f2[0::2], f2[1::2] = ts[k], t_new, values[k], f_new
            ts[k], values[k], floors[k] = t2, f2, max(floors[k], float(np.max(fl_new)))
    pieces = tuple(_Piece(mids[k], halves[k], ts[k], x_of(k, ts[k]), values[k], errors[k]) for k in range(len(ts)))
    return _Interpolant(edges, pieces, count)
