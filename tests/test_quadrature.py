import math

import mpmath as mp
import numpy as np
import pytest

from lfunlab import quadrature
from lfunlab.quadrature import (
    NonDecayError,
    contour_kernel,
    gauss_legendre_panels,
    panel_grid,
    smooth_bump,
)
from lfunlab.special import log_gamma
from oracles import UnboundedPhaseError, oscillatory_integral


def damper(u, A=16):
    return np.cos(np.pi * u / A) ** (-A)


def line_kernel(f, sigma, **kw):
    # the one-row kernel of a single integrand f(u)
    return contour_kernel(lambda u, r: f(u)[None], sigma, [0.0], **kw)


def gamma_kernel(sigma):
    # Cahen-Mellin: (1/2 pi i) int Gamma(s) y^{-s} ds = e^{-y} on any sigma > 0;
    # built on the full line so that the imaginary parts must cancel
    return line_kernel(
        lambda s: np.exp(log_gamma(s)), sigma, width=0.5, tol=1e-13, symmetric=False, height=8.0, cap=512.0
    )


class TestLineIntegral:
    """(1/2 pi i) int_{(sigma)} y^{-u} K(u) du through contour_kernel."""

    def test_cahen_mellin_batch(self):
        ys = np.array([0.05, 0.5, 1.0, 2.7, 9.0])
        kern = gamma_kernel(2.0)
        vals = kern.apply(ys)
        assert vals.shape == (1, ys.size)
        assert np.all(np.abs(vals.imag) < 1e-12)
        np.testing.assert_allclose(vals[0].real, np.exp(-ys), rtol=1e-10)
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="weight arguments"):
                kern.apply(np.array([1.0, bad]))

    def test_zero_integrand(self):
        kern = line_kernel(
            lambda s: np.zeros_like(s), 1.0, width=0.5, tol=1e-10, symmetric=False, height=8.0, cap=512.0
        )
        assert np.all(kern.apply(np.array([0.5, 1.0, 3.0])) == 0)
        assert np.array_equal(kern.tail_estimate, [0.0])
        assert np.all(np.abs(kern.v) <= 8.0)  # first segment only, no growth

    def test_damper_residue_jump(self):
        # even damper / u: the value at y = 1 on (1/2) is 1/2, and moving the
        # line across the simple pole at 0 (residue y^0 G(0) = 1) drops the
        # value by exactly 1 at every y
        ys = np.array([0.3, 1.0, 4.0])

        def build(sigma):
            return line_kernel(
                lambda s: damper(s) / s, sigma, width=0.5, tol=1e-12, symmetric=True, height=8.0, cap=512.0
            )

        right = build(0.5).apply(ys)[0]
        left = build(-0.5).apply(ys)[0]
        assert right[1].real == pytest.approx(0.5, abs=1e-9)
        np.testing.assert_allclose((right - left).real, 1.0, atol=1e-9)

    def test_contour_stability(self):
        y = np.array([2.7])
        a, b = gamma_kernel(2.0), gamma_kernel(3.0)
        va, vb = a.apply(y)[0, 0], b.apply(y)[0, 0]
        allowance = a.tail_estimate[0] * y[0] ** -2.0 + b.tail_estimate[0] * y[0] ** -3.0
        assert abs(va - vb) <= 10 * allowance + 1e-12
        assert va.real == pytest.approx(math.exp(-y[0]), rel=1e-9)

    def test_error_estimate_honest(self):
        # the allowance tail_estimate * y^{-sigma} covers the observed error
        ys = np.array([0.5, 1.0, 9.0])
        kern = gamma_kernel(2.0)
        err = np.abs(kern.apply(ys)[0] - np.exp(-ys))
        assert np.all(err <= kern.tail_estimate[0] * ys**-2.0 + 1e-13)

    def test_apply_blocks_match_dense_product(self, monkeypatch):
        # apply factors the phase by row of panels and by panel within the
        # row; blocks of three arguments, the last one short, give the dense
        # product.  Checked on a full-line kernel grown over several
        # segments, on a kernel of two rows, the first of which stops below
        # the other and is zero past its stop, and on pieces of 1 panel, of
        # prime counts with a short last row, of a square and of a full
        # non-square count
        full = gamma_kernel(2.0)
        assert len(full.panels) >= 6  # both half-lines of >= 3 segments
        pair = contour_kernel(
            gaussian_rows, 0.5, np.array([1.0, 0.01]), width=0.5, tol=1e-12, symmetric=True, height=4.0,
            cap=512.0,
        )
        first, slowest = (v.size for v, _, _ in cut_rows(pair))
        assert first < slowest == pair.v.size
        odd = panel_kernel([1, 13, 16, 23, 12, 7])
        ys = np.linspace(0.05, 9.0, 41)
        for kern in (full, pair, odd):
            dense = kern.w @ np.exp(-1j * np.outer(kern.v, np.log(ys)))
            if kern.symmetric:
                dense = 2.0 * dense.real
            dense = dense * ys ** (-kern.sigma)
            widest = max(quadrature._panel_split(mids.size)[0] for _, mids, _ in kern.panels)
            monkeypatch.setattr(quadrature, "_APPLY_ELEMENTS", 3 * kern.w.shape[0] * widest * 12)
            np.testing.assert_allclose(kern.apply(ys)[0], dense[0], rtol=1e-13, atol=1e-15 * _mass(kern)[0])
            # the slower row's values at y < 1 cancel to ~1e-15 of terms of
            # size mass y^{-sigma}: every row against the scaled yardstick
            assert_matches_dense_rows(kern, ys)
            assert kern.apply(np.array([])).shape == (kern.w.shape[0], 0)

    def test_apply_one_argument_matches_batch(self):
        # an argument's value does not depend on the batch around it beyond
        # rounding: the products see other shapes, not other data
        ys = np.geomspace(0.01, 50.0, 97)
        for kern in (gamma_kernel(2.0), panel_kernel([1, 13, 16, 23, 12, 7])):
            batch = kern.apply(ys)[0]
            mass = _mass(kern)[0] * ys ** (-kern.sigma)
            for i in range(ys.size):
                assert abs(kern.apply(ys[i : i + 1])[0, 0] - batch[i]) <= 1e-15 * mass[i]

    def test_panel_split_minimizes_exponentials(self):
        # A + B exponentials per argument; no split p = j A' + a does better
        for p in range(1, 2001):
            a, b = quadrature._panel_split(p)
            assert (b - 1) * a < p <= a * b
            assert a + b == min(k + -(-p // k) for k in range(1, p + 1))

    def test_non_decay_flagged(self):
        with pytest.raises(NonDecayError):
            line_kernel(
                lambda s: 1.0 / (1.0 + 0.001 * s * s), 1.0, width=0.5, tol=1e-10, symmetric=False,
                height=8.0, cap=64.0,
            )


def _mass(kern):
    # sum |w|, one per row
    return np.sum(np.abs(kern.w), axis=-1)


def assert_matches_dense_rows(kern, ys):
    # apply against the dense sum of w e^{-iv ln y}, row by row.  Both round
    # each phase at about |v ln y| 2^-53, so beyond 1e-13 of the value the
    # yardstick is 1e-15 of the row's mass over the whole line (the mirror
    # half included), times 1 + |ln y|, at y^{-sigma}
    dense = kern.w @ np.exp(-1j * np.outer(kern.v, np.log(ys)))
    mass = _mass(kern)[..., None]
    if kern.symmetric:
        dense, mass = 2.0 * dense.real, 2.0 * mass
    scale = ys ** (-kern.sigma)
    err = np.abs(kern.apply(ys) - dense * scale)
    assert np.all(err <= 1e-13 * np.abs(dense * scale) + 1e-15 * mass * (1.0 + np.abs(np.log(ys))) * scale)


def cut_rows(kern, nodes=12):
    # each row of a kernel as (v, w, tail_estimate), cut after the piece of
    # its last nonzero weight: the length at which it stopped
    ends = np.cumsum([mids.size * nodes for _, mids, _ in kern.panels])
    for w, tail in zip(kern.w, kern.tail_estimate, strict=True):
        n = ends[int(np.searchsorted(ends, np.flatnonzero(w)[-1] + 1))]
        yield kern.v[:n], w[:n], tail


def panel_kernel(counts, seed=0):
    # pieces of unit-width panels, in the given counts, laid end to end
    # from v = 0, with random weights: apply must not depend on the integrand
    edges = np.concatenate([[0.0], np.cumsum(counts, dtype=float)])
    panels, vs = [], []
    for a, b, count in zip(edges, edges[1:], counts):
        grid = np.linspace(a, b, count + 1)
        vs.append(gauss_legendre_panels(grid, 12)[0])
        panels.append(quadrature._piece(0.5 * (b - a) / count, 0.5 * (grid[1:] + grid[:-1])))
    v = np.concatenate(vs)
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((1, v.size)) + 1j * rng.standard_normal((1, v.size))
    return quadrature.ContourKernel(0.5, v, w, False, np.zeros(1), tuple(panels))


def gaussian_rows(u, r):
    # |exp(r u^2)| = e^{r (sigma^2 - v^2)}: row r decays at its own rate in v
    return np.exp(r[:, None] * u * u)


def _outer_mass(v, w, symmetric, nodes=12):
    # mass on the outermost panel(s): top of the upper half-line, and the
    # bottom of the lower one when the kernel keeps both
    order = np.argsort(v)
    absw = np.abs(w)
    edge = float(np.sum(absw[order[-nodes:]]))
    return edge if symmetric else edge + float(np.sum(absw[order[:nodes]]))


class TestRowBatches:
    """contour_kernel over a batch of rows: one grid, one kernel, per-row
    stopping."""

    RATES = np.array([1.0, 0.05, 0.2, 0.01])

    def build(self, rows, symmetric, cap=512.0, kfunc=gaussian_rows):
        return contour_kernel(
            kfunc, 0.5, rows, width=0.5, tol=1e-12, symmetric=symmetric, height=4.0, cap=cap
        )

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_each_row_equals_its_own_kernel(self, symmetric, monkeypatch):
        # a row, cut to its own length, is bit-identical to the one-row
        # kernel on the same grid, and zero past it: the other rows change
        # neither its nodes nor its stop.  kfunc calls of three rows on the
        # first segment's 96 upper nodes, the last one short, and no call
        # past _ROW_ELEMENTS entries unless it holds one row
        monkeypatch.setattr(quadrature, "_ROW_ELEMENTS", 3 * 8 * 12)  # 8 panels in the first segment
        calls = []

        def recording(u, r):
            calls.append((r.size, u.size))
            return gaussian_rows(u, r)

        kern = self.build(self.RATES, symmetric, kfunc=recording)
        assert calls[:2] == [(3, 96), (1, 96)]
        assert all(rows * nodes <= 3 * 96 or rows == 1 for rows, nodes in calls)
        for i, r in enumerate(self.RATES):
            alone = self.build(np.array([r]), symmetric)
            n = alone.v.size
            assert np.array_equal(kern.v[:n], alone.v)
            assert np.array_equal(kern.w[i, :n], alone.w[0])
            assert np.all(kern.w[i, n:] == 0)
            assert kern.tail_estimate[i] == alone.tail_estimate[0]
        # slower decay needs more height, and a finished row takes no more segments
        heights = [float(np.max(np.abs(v))) for v, _, _ in cut_rows(kern)]
        assert heights[0] < heights[2] < heights[1] < heights[3]

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_block_apply_matches_dense_rows(self, symmetric):
        # apply against each row's dense sum of w e^{-iv ln y} to rounding:
        # rows that stop at different heights
        rates = np.array([1.0, 0.05, 0.2, 0.01, 0.5])
        ys = np.geomspace(0.05, 900.0, 23)
        kern = self.build(rates, symmetric)
        assert np.any(kern.w[:, -1] == 0)  # a row that stops below the top
        assert_matches_dense_rows(kern, ys)  # measured <= 0.1 of the yardstick

    def test_row_mass_does_not_move_other_stops(self):
        # 1/cos(u) decays like e^{-v}, so a stop rule that compared a row's
        # edge with another row's total would move these rows, whose masses
        # lie 15 decades apart; each stops where it stops alone
        def scaled(u, a):
            return a[:, None] / np.cos(u)

        scales = np.array([1.0, 1e12, 1e-3, 1e6])
        rows = cut_rows(self.build(scales, True, kfunc=scaled))
        for a, (v, w, _) in zip(scales, rows, strict=True):
            alone = self.build(np.array([a]), True, kfunc=scaled)
            assert np.array_equal(v, alone.v)
            assert np.array_equal(w, alone.w[0])

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_stopping_rule_per_row(self, symmetric):
        for v, w, tail in cut_rows(self.build(self.RATES, symmetric)):
            edge = _outer_mass(v, w, symmetric)
            assert edge <= 1e-12 * float(np.sum(np.abs(w)))
            assert tail == pytest.approx(edge, rel=1e-12)

    def test_values_match_closed_form(self):
        # (1/2 pi i) int_{(sigma)} y^{-u} e^{r u^2} du = e^{-(ln y)^2 / 4r} / (2 sqrt(pi r))
        ys = np.array([0.5, 1.0, 3.0])
        kern = self.build(self.RATES, True)
        for r, values in zip(self.RATES, kern.apply(ys), strict=True):
            exact = np.exp(-np.log(ys) ** 2 / (4 * r)) / (2 * math.sqrt(math.pi * r))
            # rounding sits at the scale of the kernel's mass, the y = 1 value
            np.testing.assert_allclose(values.real, exact, rtol=1e-10, atol=1e-12 * exact[1])

    def test_row_at_cap_is_named(self):
        with pytest.raises(NonDecayError, match=r"row parameter 0\.001"):
            self.build(np.array([1.0, 0.001, 0.5]), True, cap=64.0)


class TestOscillatoryIntegral:
    def test_zero_phase_plain_integral(self):
        bump = smooth_bump(1.0, 3.0)
        res = oscillatory_integral(bump, lambda x: np.zeros_like(np.asarray(x, float)), bump.support)
        xs = np.linspace(1.0, 3.0, 200001)
        ref = np.trapezoid(bump(xs), xs)
        assert res.value.real == pytest.approx(ref, abs=1e-9)

    def test_linear_phase_nonstationary_decay(self):
        bump = smooth_bump(0.0, 1.0)

        def mag(K):
            res = oscillatory_integral(bump, lambda x: K * np.asarray(x, float), bump.support)
            return abs(res.value)

        # fit the C of |I(K)| <= C/K at small K, then hold it over a decade;
        # the smooth bump actually decays super-polynomially, so the bound
        # has lots of room once K leaves the fitting range
        C = max(mag(K) * K for K in (5.0, 10.0))
        assert mag(10.0) <= mag(5.0) / 1.5
        for K in (100.0, 1000.0):
            assert mag(K) <= C / K

    def test_unbounded_phase_rejected(self):
        bump = smooth_bump(0.0, 1.0)
        with pytest.raises(UnboundedPhaseError):
            oscillatory_integral(bump, lambda x: 1e12 * np.asarray(x, float) ** 2, bump.support)


class TestSmoothBump:
    def test_plateau_and_outside(self):
        bump = smooth_bump(2.0, 6.0)
        assert bump(np.array([4.0]))[0] == pytest.approx(1.0, abs=1e-15)
        assert bump(np.array([1.99]))[0] == 0.0
        assert bump(np.array([6.01]))[0] == 0.0

    def test_range_and_monotone_shoulders(self):
        bump = smooth_bump(0.0, 1.0)
        xs = np.linspace(-0.2, 1.2, 1001)
        vals = bump(xs)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        rise = vals[(xs > 0) & (xs < 0.35)]
        assert np.all(np.diff(rise) >= -1e-12)

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            smooth_bump(3.0, 3.0)


def poisson_residual(f, k_max, support):
    """| sum_{n in Z} f(n) - sum_{|k| <= k_max} int f(x) e(-k x) dx | for a
    real f supported in `support`; for smooth f the gap decays faster than
    any power of k_max."""
    a, b = support
    ns = np.arange(math.ceil(a), math.floor(b) + 1, dtype=float)
    lhs = float(np.sum(f(ns))) if ns.size else 0.0
    rhs = complex(oscillatory_integral(f, lambda x: np.zeros_like(np.asarray(x, float)), (a, b)).value)
    for k in range(1, k_max + 1):
        mode = oscillatory_integral(f, lambda x, k=k: -k * np.asarray(x, float), (a, b)).value
        rhs += mode + np.conj(mode)  # f real: the -k and +k modes are conjugate
    return abs(lhs - rhs)


class TestPoisson:
    def test_bump_residual_small(self):
        f = smooth_bump(10.0, 20.0)
        assert poisson_residual(f, 40, f.support) <= 1e-8

    def test_zero_function(self):
        zero = lambda x: np.zeros_like(np.asarray(x, float))
        assert poisson_residual(zero, 5, (0.0, 1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_refinement(self):
        f = smooth_bump(10.0, 20.0)
        assert poisson_residual(f, 80, f.support) <= poisson_residual(f, 40, f.support) + 1e-12


def _legendre_rule_mp(n: int):
    """n-point Gauss-Legendre rule at 30 digits: Newton's iteration on the
    recurrence from double-precision nodes, w = 2 / ((1 - x^2) P_n'(x)^2)."""
    with mp.workdps(30):
        nodes, weights = [], []
        for x in np.cos(math.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5)):
            x = mp.mpf(x)
            for _ in range(40):
                p0, p1 = mp.mpf(1), x
                for k in range(1, n):
                    p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
                dp = n * (x * p1 - p0) / (x * x - 1)
                x -= p1 / dp
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
        return np.array(nodes, dtype=float), np.array(weights, dtype=float)


class TestPanels:
    @pytest.mark.parametrize("n", [4, 10, 12, 20, 64])
    def test_legendre_rule_against_leggauss_and_mpmath(self, n):
        # Newton on the three-term recurrence: the nodes are numpy's leggauss
        # nodes to 2e-16 and the 30-digit nodes to rounding; the weights are
        # within ~n ulps of the 30-digit weights (measured up to 1.08 n ulps,
        # 1.5e-14 at n = 64), where leggauss's own end weights are off by up
        # to 1.3e-12 at n = 64
        xs, ws = quadrature._legendre_rule(n)
        x_np, _ = np.polynomial.legendre.leggauss(n)
        x_mp, w_mp = _legendre_rule_mp(n)
        assert np.max(np.abs(xs - x_np)) <= 2e-16
        assert np.max(np.abs(xs - x_mp)) <= 2.0**-53
        assert np.max(np.abs(ws / w_mp - 1.0)) <= 2 * n * 2.0**-52
        assert abs(ws.sum() - 2.0) <= 2.0**-51
        assert np.array_equal(xs, -xs[::-1]) and np.array_equal(ws, ws[::-1])
        assert not xs.flags.writeable and not ws.flags.writeable

    def test_panel_weights_sum_to_length(self):
        x, w = gauss_legendre_panels(np.linspace(1.0, 4.0, 8), 10)
        assert w.sum() == pytest.approx(3.0, rel=1e-14)
        assert x.min() > 1.0 and x.max() < 4.0

    def test_nonuniform_edges_exact_to_degree_23(self):
        # the variable-width grids hand their own edges to the shared grid;
        # 12 nodes per panel integrate degree 23 exactly on every panel
        edges = np.array([-1.0, -0.9, -0.35, 0.0, 0.05, 0.6, 1.0])
        x, w = gauss_legendre_panels(edges, 12)
        assert x.size == 12 * (edges.size - 1)
        assert w.sum() == pytest.approx(2.0, rel=1e-14)
        exact = (2.3**24 - 0.3**24) / 24.0  # int_{-1}^{1} (x + 1.3)^23 dx
        assert np.dot(w, (x + 1.3) ** 23) == pytest.approx(exact, rel=1e-13)

    def test_panel_grid_is_the_equal_width_composite_grid(self):
        # equal panels no wider than the width: 2.5 / 0.3 rounds up to 9
        x, w = panel_grid(0.5, 3.0, 0.3, 12)
        ref_x, ref_w = gauss_legendre_panels(np.linspace(0.5, 3.0, 10), 12)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
        # a width past the interval still gives one panel; a width that is
        # not > 0 is an error, not one panel
        assert panel_grid(0.0, 1.0, 5.0, 10)[0].size == 10
        for width in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="panel width"):
                panel_grid(0.0, 1.0, width, 10)
