"""Tests for the rank-2 trace-identity module: test-function weights, the
two oscillatory Bessel transforms and their independent evaluation routes,
both sides of the identity, and the smoothed diagonal weights."""

import json
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import i0

from lfunlab import afe, chebyshev, quadrature
from lfunlab import kuznetsov as kz
from lfunlab.afe import (
    _GAMMA_U,
    FixtureCoverageError,
    MaassFixture,
    WeightSpec,
    _weight_grid,
    _weight_rows,
    gl2_afe_weight_grid,
    rankin_selberg_afe_weight_grid,
)
from lfunlab.exactarith import divisors, kloosterman
from lfunlab.heckegl3 import GL3Form, symmetric_square_form, triple_divisor_form
from lfunlab.quadrature import NonDecayError, panel_grid
from lfunlab.special import GammaData, PoleError, RegimeError
import oracles

# Values frozen from 30-40 digit mpmath evaluations of the defining
# integrals, computed with independent quadrature (mp.quad against
# mp.besselj / mp.besselk / mp.zeta), not with this module.
DELTA_ORACLE = {1.0: 0.2955094882098842, 10.0: 31.80450909279265, 20.0: 127.29744024707451}
OMEGA_ORACLE = {0.7: 17.488977643711356, 1.0: 26.092755784442463, 5.0: 6.4610197284118109, 20.0: 13.035704569807722}
HPLUS_ORACLE = {0.05: 0.36519443738710885, 0.5: -0.6625590166529372, 2.0: 0.33625293109301122, 3.4: -0.31791910716832024}
HMINUS_ORACLE = {0.05: 3.747226706243e-01, 0.5: 2.425583519183e-01, 2.0: 2.957167267459e-05}


def zero_test_function():
    return kz.SpectralTestFunction(
        evaluator=lambda t: np.asarray(t) * 0.0, decay_exponent=6.0, holomorphy_width=math.inf, label="zero"
    )


# ---------------------------------------------------------------------------
# test-function construction


def test_gaussian_test_function_basics():
    h = kz.gaussian_test_function(2.0)
    assert h(0.0) == pytest.approx(1.0)
    ts = np.array([0.3, 1.7, 4.2])
    assert np.allclose(h(ts), h(-ts), rtol=0, atol=0)
    assert complex(h(complex(0.0, -0.5))) == pytest.approx(math.exp(0.25 / 4.0))


def test_test_function_rejects_odd_evaluator():
    with pytest.raises(ValueError, match="not even"):
        kz.SpectralTestFunction(evaluator=lambda t: np.asarray(t) * np.exp(-np.asarray(t) ** 2))


def test_test_function_rejects_undeclared_slow_decay():
    with pytest.raises(ValueError, match="decay"):
        kz.SpectralTestFunction(evaluator=lambda t: 1.0 / (1.0 + np.asarray(t) ** 2), decay_exponent=4.0)


def test_test_function_rejects_bad_declarations():
    ev = lambda t: np.exp(-np.asarray(t) ** 2)
    with pytest.raises(ValueError, match="decay exponent"):
        kz.SpectralTestFunction(evaluator=ev, decay_exponent=2.0)
    with pytest.raises(ValueError, match="holomorphy"):
        kz.SpectralTestFunction(evaluator=ev, holomorphy_width=0.4)
    for width in (0.0, math.nan):
        with pytest.raises(ValueError, match="width"):
            kz.gaussian_test_function(width)


# ---------------------------------------------------------------------------
# diagonal and continuous weights


def test_even_cutoff_is_the_first_passing_scan_point():
    # the scan runs t = 6 * 1.4^k; the cutoff is the first t whose probes
    # pass, not a multiple of it, so the point before it fails the target
    h = kz.gaussian_test_function(2.0)

    def envelope(t):
        return float(h(np.array([t]))[0]) * (1.0 + t) ** 1.6

    for tol in (1e-10, 1e-11, 1e-12, 1e-13):
        t = kz._even_cutoff(h, tol)
        assert envelope(t) <= tol < envelope(t / 1.4)
        assert t == pytest.approx(6.0 * 1.4**2)


def test_delta_weight_zero_function():
    assert kz.delta_weight(zero_test_function()) == 0.0


def test_delta_weight_gaussian_oracle():
    v = kz.delta_weight(kz.gaussian_test_function(1.0))
    assert v == pytest.approx(DELTA_ORACLE[1.0], rel=1e-12)


def test_delta_weight_quadratic_width_scaling():
    v10 = kz.delta_weight(kz.gaussian_test_function(10.0))
    v20 = kz.delta_weight(kz.gaussian_test_function(20.0))
    assert v10 == pytest.approx(DELTA_ORACLE[10.0], rel=1e-10)
    assert v20 == pytest.approx(DELTA_ORACLE[20.0], rel=1e-10)
    # wide Gaussians weight ~ width^2 (tanh saturates): doubling -> factor 4 within 1%
    assert v20 / v10 == pytest.approx(4.0, rel=0.01)


@pytest.mark.parametrize("width", [0.02, 1e-3])
def test_narrow_test_functions_are_resolved(width):
    # h(t) = e^{-(t/w)^2} is cut where it decays, near 5 w, not at the scan's
    # start t = 6, so every t-grid sized from the cutoff resolves it.  With
    # t >= 6, delta_weight was 0.19 % off at w = 0.02 (65 % at w = 1e-3), the
    # kernel route read 2.3 times Hminus at w = 1e-3, and the direct oracle
    # was 0.25 % off at w = 0.02.
    h = kz.gaussian_test_function(width)
    f = lambda t: (2.0 / math.pi) * math.exp(-((t / width) ** 2)) * math.tanh(math.pi * t) * t
    ref, err = integrate.quad(f, 0.0, 12.0 * width, epsabs=0.0, epsrel=1e-13)
    assert abs(kz.delta_weight(h) - ref) <= 1e-13 * ref + err
    g = lambda r: math.exp(-((r / width) ** 2)) * kz.continuous_weight(r) / (2.0 * math.pi)
    ref, err = integrate.quad(g, 0.0, 12.0 * width, epsabs=0.0, epsrel=1e-13)
    assert abs(kz.continuous_side(1, 1, h, 40.0).real - ref) <= 1e-12 * ref + err

    # the transforms against mpmath's Bessel functions, integrated up to
    # bessel_transform's cutoff, where |h| falls below 1e-11 of its scale
    # (the tail past it is 2.4e-11 of the value at w = 1e-3); the plus
    # series stands for both mpmath series oracles, which size their panels
    # alike
    x, t_max = 0.3, kz._even_cutoff(h, 1e-11, growth=1.2)
    z = 2.0 * math.pi * x
    with mp.workdps(20):
        h_mp = lambda t: mp.exp(-((t / width) ** 2)) * t
        j_part = lambda t: mp.besselj(2j * t, z).imag / mp.cosh(mp.pi * t)
        k_part = lambda t: (mp.besselk(2j * t, z) * mp.sinh(mp.pi * t)).real
        plus = float(-4.0 * mp.quad(lambda t: j_part(t) * h_mp(t), [0, t_max]))
        minus = float((8.0 / mp.pi) * mp.quad(lambda t: k_part(t) * h_mp(t), [0, t_max]))
    cases = (
        (kz.bessel_transform(h, "+", x), plus),
        (oracles.series_plus(h, x), plus),
        (kz.bessel_transform(h, "-", x), minus),
        (oracles.minus_direct(h, x), minus),
    )
    for value, ref in cases:
        assert abs(value - ref) <= 1e-11 * abs(ref)


def test_continuous_weight_oracle_values():
    for r, ref in OMEGA_ORACLE.items():
        assert kz.continuous_weight(r) == pytest.approx(ref, rel=1e-10)


def test_continuous_weight_vanishes_at_zero():
    assert kz.continuous_weight(0.0) == 0.0
    arr = kz.continuous_weight(np.array([0.0, 1.0]))
    assert arr[0] == 0.0
    assert arr[1] == pytest.approx(OMEGA_ORACLE[1.0], rel=1e-10)
    assert arr.shape == (2,)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.01, max_value=80.0, allow_nan=False))
def test_continuous_weight_even_and_positive(r):
    w = kz.continuous_weight(r)
    assert w > 0.0
    assert kz.continuous_weight(-r) == pytest.approx(w, rel=1e-9)


# ---------------------------------------------------------------------------
# Bessel transforms: route cross-validation


def test_bessel_transform_zero_function():
    h = zero_test_function()
    assert kz.bessel_transform(h, "+", 1.0) == 0j
    assert kz.bessel_transform(h, "-", 1.0) == 0j


def test_plus_transform_kernel_vs_series_vs_oracle():
    # x = 0.025 .. 0.1 is where Hplus ~ 2 pi x h(-i/2) approaches zero
    h = kz.gaussian_test_function(1.0)
    for x in (0.025, 0.05, 0.1, 0.5, 2.0):
        ke = kz.bessel_transform(h, "+", x)
        se = oracles.series_plus(h, x)
        assert abs(se - ke) < 1e-13
        assert abs(ke.imag) < 1e-15
        if x in HPLUS_ORACLE:
            assert ke.real == pytest.approx(HPLUS_ORACLE[x], rel=2e-9, abs=1e-11)


def test_plus_transform_series_accurate_at_large_argument():
    # near the mpmath J-series cap (2 pi x = 21.4 < 40) the series stays on the oracle
    h = kz.gaussian_test_function(1.0)
    se = oracles.series_plus(h, 3.4)
    assert se.real == pytest.approx(HPLUS_ORACLE[3.4], rel=1e-8)


def test_plus_transform_kernel_route_dual_agreement():
    h = kz.gaussian_test_function(1.0)
    for x in (0.5, 2.0, 5.0):
        ke = kz.bessel_transform(h, "+", x)
        se = oracles.series_plus(h, x)
        assert abs(ke - se) < 3e-9  # requirement is 1e-6; routes deliver ~1e-10
        assert abs(ke - se) < 1e-6


def test_minus_transform_routes_and_oracle():
    # 2 pi x = 4 pi (x = 2) is trace_identity's c = 1; 2 pi x = 30.8 is
    # geometric_side(2, 3, ...)'s c = 1, where Hminus is only ~3e-13
    h = kz.gaussian_test_function(1.0)
    for x in (*HMINUS_ORACLE, 2.0 * math.sqrt(6.0)):
        se = oracles.minus_series(h, x)
        ke = kz.bessel_transform(h, "-", x)
        assert abs(ke - se) < min(1e-13, 1e-9 * abs(se))
        if x in HMINUS_ORACLE:
            assert se.real == pytest.approx(HMINUS_ORACLE[x], rel=1e-9)
            assert abs(se.imag) < 1e-12
        if x < 1.0:
            assert abs(oracles.minus_direct(h, x) - se) < 1e-11


TRACE_RANGE = (2.0 * math.pi * 2.0 / 800, 4.0 * math.pi)  # trace_identity's [z_min, z_max]: x = 2/c, c <= 800


def _profile(h, z_min):
    # the profile _kernel_contour builds for h
    t_max = kz._even_cutoff(h, kz._H_CUT, growth=1.2)
    return kz._resolved_profile(h, t_max, min(t_max / 48.0, 0.5), z_min)


@pytest.mark.parametrize(
    "h, z_min, z_max, samples",
    [
        (kz.gaussian_test_function(2.0), *TRACE_RANGE, 1),
        (kz.gaussian_test_function(60.0), 40.0, 40.0, quadrature._ROW_ELEMENTS + 1),  # 10,234 samples
        (zero_test_function(), 1.0, 1.0, 0),  # the empty profile
    ],
    ids=["trace", "wide", "zero"],
)
def test_contour_split_matches_dense_build(h, z_min, z_max, samples, monkeypatch):
    # _contour builds P(u + i theta) from a panel split of its phase; here
    # the same weights come from sum fw cos(2t(u + i theta)) entry by entry,
    # on the u-grid _contour lays (captured), at up to 96 of its rows
    prof = _profile(h, z_min)
    grids = []
    panels = kz.gauss_legendre_panels

    def capture(edges, nodes):
        grids.append(panels(edges, nodes))
        return grids[-1]

    monkeypatch.setattr(kz, "gauss_legendre_panels", capture)
    (_, plus_w), (_, minus_w) = kz._contour(prof, z_min, z_max)
    ((us, wu),) = grids
    if not samples:
        assert prof.ts.size == 0 and not np.any(plus_w) and not np.any(minus_w)
        return
    assert prof.ts.size >= samples
    rows = np.unique(np.linspace(0, us.size - 1, 96).astype(int))
    zeta = us[rows] + 1j * prof.theta
    dense = (8.0 / math.pi) * wu[rows, None] * (np.cos(2.0 * np.multiply.outer(zeta, prof.ts)) @ prof.fw)
    # either build rounds the phase 2tu of an entry at eps 2tu, so each row
    # is compared against its mass weighted by 1 + 2tu
    amp = np.abs(prof.fw).sum(axis=1) * np.cosh(2.0 * prof.theta * prof.ts)
    mass = (8.0 / math.pi) * wu[rows] * (amp.sum() + 2.0 * us[rows] * (amp @ prof.ts))
    for w in (minus_w, plus_w[: us.size]):
        assert np.all(np.abs(w[rows] - dense).max(axis=1) <= 8.0 * kz._EPS * mass)  # measured at most 3.3 eps


def test_exp_product_cut_matches_uncut_sum():
    # a block of arguments keeps only the nodes within e^{-_AMP_CUT} of the
    # largest kernel at its smallest z; over trace_identity's range,
    # z_max / z_min = 400, that changes no argument's sum by more than
    # e^{-_AMP_CUT} sum |w| plus the rounding floor of the two sums
    z_min, z_max = TRACE_RANGE
    zs = z_min * 400.0 ** np.linspace(0.0, 1.0, 40)
    for nodes, w in kz._kernel_contour(kz.gaussian_test_function(2.0), z_min, z_max):
        cut = kz._exp_product(zs, nodes, w)
        full = (np.exp(1j * np.multiply.outer(zs, nodes)) @ w).real
        mass = np.abs(w).sum(axis=0)
        # each sum's floor eps sum (1 + z |nu|) |w|, as _geometric_terms takes it
        floor = kz._EPS * (mass + np.outer(zs, np.abs(nodes) @ np.abs(w)))
        bound = math.exp(-kz._AMP_CUT) * mass + 2.0 * floor
        assert np.all(np.abs(cut.real - full[:, 0]) <= bound[:, 0])
        assert np.all(np.abs(cut.imag - full[:, 1]) <= bound[:, 1])
        # the nodes past the cut at z_max never enter its sum: NaN weights there change nothing
        drop = z_max * (nodes.imag - nodes.imag.min()) > kz._AMP_CUT
        assert 0 < np.count_nonzero(drop) < nodes.size
        poisoned = np.where(drop[:, None], np.nan, w)
        at_max = np.array([z_max])
        assert kz._exp_product(at_max, nodes, poisoned) == kz._exp_product(at_max, nodes, w)


def test_bessel_transform_validation():
    h = kz.gaussian_test_function(1.0)
    with pytest.raises(ValueError, match="sign"):
        kz.bessel_transform(h, "x", 1.0)
    with pytest.raises(ValueError, match="positive"):
        kz.bessel_transform(h, "+", 0.0)
    with pytest.raises(ValueError, match="x must be finite"):
        kz.bessel_transform(h, "+", math.inf)
    with pytest.raises(TypeError):
        kz.bessel_transform(lambda t: t, "+", 1.0)
    # the series oracle: h(t) = e^{-(t/40)^2} needs t up to ~240, past where
    # cosh(pi t) is finite
    with pytest.raises(RegimeError, match="J-series oracle"):
        oracles.series_plus(kz.gaussian_test_function(40.0), 0.05)


def test_trace_identity_residual_pinned_and_transforms_finite():
    # that no evaluation imports mpmath is test_packaging's subprocess test
    h = kz.gaussian_test_function(2.0)
    rep = kz.kuznetsov_residual(1, 1, h, [], 800, 40.0)
    # the residual is the dropped c > 800 tail, whose sign is not fixed (it
    # turns negative by c_max = 12,800).  Both it and the Kloosterman term
    # are pinned at the rounding level, so that a refactor of the contour
    # path that moves them by more than rounding shows here
    assert rep.kloosterman_term == pytest.approx(4.496680396124914, rel=1e-13)
    assert abs(rep.residual - 0.001929150135198121) <= 1e-13
    assert abs(rep.residual.real) < 0.02
    for z in (0.016, 4.0 * math.pi, 60.0):
        for sign in "+-":
            assert np.isfinite(kz.bessel_transform(h, sign, z / (2.0 * math.pi)).real)
    d3 = triple_divisor_form()
    for variant in ("direct_plus", "direct_minus"):
        assert np.isfinite(kz.diagonal_weight(1.0, 2, 1, 1, d3, variant, x=0.5).real)


# ---------------------------------------------------------------------------
# geometric side


def _divisor_counts(limit: int) -> np.ndarray:
    # d(m) for m <= limit, d(0) = 0: the divisors of m pair up as (i, m/i),
    # counted at the smaller member, so i runs only to sqrt(limit)
    d = np.zeros(limit + 1, dtype=np.int64)
    for i in range(1, math.isqrt(limit) + 1):
        d[i * i] += 1
        d[i * (i + 1) :: i] += 2
    return d


DIVISOR_LIMIT = 10**6


@pytest.fixture(scope="module")
def divisor_counts():
    return _divisor_counts(DIVISOR_LIMIT)


def test_divisor_summatory_matches_divisor_lists():
    # the hyperbola method's D(C) in geometric_tail, against the divisors of
    # each m from its factorization
    counts = np.cumsum([len(divisors(m)) for m in range(1, 2001)])
    assert [kz._divisor_summatory(c) for c in range(1, 2001)] == counts.tolist()


def test_divisor_sum_error_bound(divisor_counts):
    # D(x) - x log x - (2 gamma - 1) x <= 0.961 sqrt(x) at every integer x <=
    # 10^6; integers suffice because D is constant between them while the
    # main term and the bound rise.  The largest ratio to sqrt(x) up to 2 10^6
    # is 0.96069, at x = 12
    x = np.arange(1, DIVISOR_LIMIT + 1, dtype=float)
    excess = np.cumsum(divisor_counts[1:]) - x * np.log(x) - (2.0 * np.euler_gamma - 1.0) * x
    assert np.all(excess <= kz._DIVISOR_SUM_ERROR * np.sqrt(x))


@pytest.mark.parametrize("c_max", [1, 10, 100, 800])
def test_tail_bracket_bounds_the_divisor_tail(c_max, divisor_counts):
    # the closed form bounds sum_{c > C} d(c) c^{-3/2}, here summed to 10^6
    cs = np.arange(c_max + 1, DIVISOR_LIMIT + 1, dtype=float)
    assert kz._tail_bracket(c_max) >= np.sum(divisor_counts[c_max + 1 :] * cs**-1.5)


def test_geometric_side_index_symmetry():
    h = kz.gaussian_test_function(2.0)
    for (n, l) in ((1, 2), (2, 3)):
        a = kz.geometric_side(n, l, h, 30)
        b = kz.geometric_side(l, n, h, 30)
        assert abs(a - b) < 1e-10


def test_geometric_side_truncation_within_tail_estimate():
    h = kz.gaussian_test_function(2.0)
    v100 = kz.geometric_side(1, 1, h, 100)
    v200 = kz.geometric_side(1, 1, h, 200)
    tail = kz.kuznetsov_residual(1, 1, h, [], 100, 5.0).truncation.geometric_tail
    assert tail > 0.0
    assert abs(v200 - v100) < tail


def test_trace_identity_starts_no_thread(monkeypatch):
    # so its results cannot depend on a thread count
    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    rep = kz.kuznetsov_residual(1, 1, kz.gaussian_test_function(2.0), [], 200, 40.0, threads=4)
    assert np.isfinite(rep.residual.real)


def test_geometric_side_transforms_from_interpolant(monkeypatch):
    # the 800 arguments z = 4 pi / c (c <= 800) are read from an
    # interpolant in log(z / z_min) built on 161 arguments per transform (193
    # when a piece stopped only once the half-size interpolant was within
    # tol; 801 when every argument was a row); at every one of them it agrees
    # with the blocked product on the same nodes within its reported error
    applied, built = [], []
    exp_product, interpolate = kz._exp_product, kz._interpolate_log1p

    def capture(zs, nodes, w):
        applied.append((zs.size, nodes, w))
        return exp_product(zs, nodes, w)

    def keep(*args):
        built.append(interpolate(*args))
        return built[-1]

    monkeypatch.setattr(kz, "_exp_product", capture)
    monkeypatch.setattr(kz, "_interpolate_log1p", keep)
    kz._geometric_terms(1, 1, kz.gaussian_test_function(2.0), 800)
    plus, minus = applied[0::2], applied[1::2]
    assert sum(size for size, _, _ in plus) == 161
    assert sum(size for size, _, _ in minus) == 161
    (interp,) = built
    zs = 2.0 * math.pi * 2.0 / np.arange(1, 801, dtype=float)
    ts = zs / zs[-1] - 1.0
    values, error = interp(ts), interp.error(ts)
    for column, (_, nodes, w) in enumerate((plus[0], minus[0])):
        tracemalloc.start()
        try:
            direct = exp_product(zs, nodes, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * zs.size * nodes.size * 16  # no (arguments x nodes) matrix
        assert np.all(np.abs(values[:, column] - direct) <= error)  # measured at most 0.57 of it


@pytest.mark.parametrize("n, l, c_max", [(1, 1, 800), (1, 2, 30), (3, 3, 50)])
def test_geometric_side_transforms_start_at_the_last_modulus(n, l, c_max, monkeypatch):
    # no transform is taken below z(c_max) = 4 pi sqrt(nl) / c_max: the tail
    # bound reads the transforms at c_max only
    taken = []
    exp_product = kz._exp_product

    def capture(zs, nodes, w):
        taken.append(zs.min())
        return exp_product(zs, nodes, w)

    monkeypatch.setattr(kz, "_exp_product", capture)
    kz._geometric_terms(n, l, kz.gaussian_test_function(2.0), c_max)
    assert min(taken) >= 2.0 * math.pi * (2.0 * math.sqrt(n * l) / c_max)


def test_geometric_side_smallest_cutoffs():
    # c_max = 1 reads z(1) from an interpolant on [z(2), z(1)]; both cutoffs
    # agree with single transforms and the closed-form tail stays finite
    h = kz.gaussian_test_function(2.0)
    expected = 0j
    for c_max in (1, 2):
        x = 2.0 / c_max
        s_plus, s_minus = kloosterman(1, 1, c_max), kloosterman(-1, 1, c_max)
        expected += (s_plus * kz.bessel_transform(h, "+", x) + s_minus * kz.bessel_transform(h, "-", x)) / (2 * c_max)
        _, kloost, tail = kz._geometric_terms(1, 1, h, c_max)
        assert abs(kloost - expected) < 1e-11
        assert 0.0 < tail < math.inf


def test_geometric_side_validation():
    h = kz.gaussian_test_function(1.0)
    for (n, l, c_max), message in (
        ((0, 1, 10), "n must be a positive integer, got 0"),
        ((1, 1, 0), "c_max must be a positive integer, got 0"),
        ((1, 1, 2.5), "c_max must be a positive integer, got 2.5"),
        ((1.5, 1, 10), "n must be a positive integer, got 1.5"),
        ((1, 2.0, 10), "l must be a positive integer, got 2.0"),
    ):
        with pytest.raises(ValueError, match=message):
            kz.geometric_side(n, l, h, c_max)
    for (n, l), message in (((1.5, 1), "n must be a positive integer, got 1.5"), ((1, 0), "l must be")):
        with pytest.raises(ValueError, match=message):
            kz.continuous_side(n, l, h, 10.0)


# ---------------------------------------------------------------------------
# continuous side


def test_continuous_side_diagonal_real_positive():
    h = kz.gaussian_test_function(2.0)
    v = kz.continuous_side(1, 1, h, 40.0)
    assert v.imag == 0.0
    assert v.real > 0.0
    # frozen from this quadrature cross-checked against the closed geometric
    # side: residual of the full identity at c_max=200 is +2.5e-3
    assert v.real == pytest.approx(5.118653201616848, rel=1e-6)


def test_continuous_side_index_symmetry_and_offdiagonal():
    h = kz.gaussian_test_function(2.0)
    a = kz.continuous_side(1, 2, h, 40.0)
    b = kz.continuous_side(2, 1, h, 40.0)
    assert a == b  # eta profiles are real; the integrand is literally symmetric
    assert abs(a.imag) == 0.0


# ---------------------------------------------------------------------------
# full identity


def test_trace_identity_closes_without_fixtures():
    # at width 2 no discrete eigenvalue contributes visibly (the first even
    # cuspidal parameter is ~13.8, weighted e^{-47}), so geometric minus
    # continuous must vanish to truncation accuracy
    h = kz.gaussian_test_function(2.0)
    rep = kz.kuznetsov_residual(1, 1, h, [], 200, 40.0)
    assert rep.discrete_term == 0j
    assert rep.delta_term == pytest.approx(0.5 * kz.delta_weight(h), rel=1e-12)
    # the residual is the dropped c > 200 tail, of no fixed sign: pinned to
    # its value measured before the Kloosterman sums were batched
    assert rep.residual.real == pytest.approx(0.002453868898719236, rel=1e-9)
    assert abs(rep.residual.real) < 0.02
    assert rep.residual.real >= -rep.truncation.geometric_tail
    assert rep.normalization_note == "no fixtures supplied"


def test_trace_identity_report_serializes():
    h = kz.gaussian_test_function(2.0)
    rep = kz.kuznetsov_residual(2, 1, h, [], 40, 20.0)
    blob = json.dumps(rep.to_dict(), sort_keys=True)
    back = json.loads(blob)
    assert back["truncation"]["c_max"] == 40
    assert back["truncation"]["r_max"] == 20.0
    assert back["truncation"]["spectral_count"] == 0
    assert back["kloosterman_term"]["re"] == rep.kloosterman_term.real
    assert set(back) == {
        "delta_term",
        "kloosterman_term",
        "continuous_term",
        "discrete_term",
        "residual",
        "truncation",
        "normalization_note",
    }


def test_trace_identity_fixture_bookkeeping():
    h = kz.gaussian_test_function(2.0)
    fx1 = MaassFixture(t=1.5, coeffs=[0.0, 1.0, 0.8], source="stub A")
    fx2 = MaassFixture(t=2.5, coeffs=[0.0, 1.0, -0.4], source="stub B")
    reps = [kz.kuznetsov_residual(1, 1, h, fxs, 40, 20.0) for fxs in ([], [fx1], [fx1, fx2])]
    # each fixture subtracts h(t_j) |a_j(1)|^2 > 0 from the residual
    assert reps[0].residual.real > reps[1].residual.real > reps[2].residual.real
    expected = complex(h(1.5)) * 1.0 + 0j
    assert reps[1].discrete_term == pytest.approx(expected)
    assert "stub A" in reps[2].normalization_note and "stub B" in reps[2].normalization_note
    assert reps[2].truncation.spectral_count == 2


def test_trace_identity_fixture_coverage_error():
    h = kz.gaussian_test_function(2.0)
    fx = MaassFixture(t=1.5, coeffs=[0.0, 1.0], source="short stub")
    with pytest.raises(FixtureCoverageError, match="short stub"):
        kz.kuznetsov_residual(1, 2, h, [fx], 20, 10.0)


# ---------------------------------------------------------------------------
# smoothed diagonal weights


def test_diagonal_weight_validation():
    d3 = triple_divisor_form()
    with pytest.raises(ValueError, match="variant"):
        kz.diagonal_weight(1.0, 1, 1, 1, d3, "sideways")
    with pytest.raises(ValueError, match="no argument x"):
        kz.diagonal_weight(1.0, 1, 1, 1, d3, "direct", x=1.0)
    with pytest.raises(ValueError, match="require a positive argument"):
        kz.diagonal_weight(1.0, 1, 1, 1, d3, "direct_plus")
    with pytest.raises(ValueError, match="argument x must be finite, got inf"):
        kz.diagonal_weight(1.0, 1, 1, 1, d3, "direct_plus", x=math.inf)
    for T in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="width T must be positive and finite"):
            kz.diagonal_weight(T, 1, 1, 1, d3, "direct")
    with pytest.raises(ValueError, match="l must be a positive integer, got 0"):
        kz.diagonal_weight(1.0, 0, 1, 1, d3, "direct")
    with pytest.raises(ValueError, match="l must be a positive integer, got 1.5"):
        kz.diagonal_weight(1.0, 1.5, 1, 1, d3, "direct")


def test_diagonal_weight_self_dual_form_variants_coincide():
    d3 = triple_divisor_form()
    a = kz.diagonal_weight(1.0, 1, 1, 1, d3, "direct")
    b = kz.diagonal_weight(1.0, 1, 1, 1, d3, "dual")
    assert abs(a - b) <= 1e-15 * (1.0 + abs(a))
    assert abs(a.imag) < 1e-16


def test_diagonal_weight_narrow_width_limit():
    d3 = triple_divisor_form()
    v = kz.diagonal_weight(1e-3, 1, 1, 1, d3, "direct")
    assert abs(v) < 1e-7  # mass ~ sqrt(pi) T^3 / 2 as the Gaussian collapses


def test_diagonal_weight_resolution_stability():
    # "direct"'s integral (2/pi) int e^{-t^2/T^2} U V tanh(pi t) t dt on panels
    # half as wide as diagonal_weight's (1.5 at T = 20)
    d3 = triple_divisor_form()
    T = 20.0
    base = kz.diagonal_weight(T, 1, 1, 1, d3, "direct")
    ts, ws = panel_grid(0.0, kz._DIAG_TOP * T, 0.75, kz._GL_NODES)
    fv = kz._diag_samples(ts, T, 1.0, 1.0, d3, "direct", kz._WEIGHT_SPEC)
    fine = (2.0 / math.pi) * np.sum(ws * fv * np.tanh(math.pi * ts) * ts)
    assert abs(fine - base) < 1e-8 * (1.0 + abs(base))


def test_diagonal_weight_uv_cache_counts():
    d3 = triple_divisor_form()
    kz.diagonal_weight(0.5, 1, 1, 1, d3, "direct")
    before = kz.uv_cache_stats()
    kz.diagonal_weight(0.5, 1, 1, 1, d3, "direct")
    after = kz.uv_cache_stats()
    assert after["misses"] == before["misses"]
    assert after["hits"] > before["hits"]


# ---------------------------------------------------------------------------
# the weights' interpolants in log(1 + t)

# gamma data (used, normalizing) of U, D3's V, sym^2 Delta's V, a tempered
# V (non-real shifts) and the dual V of non-self-dual real shifts
OTHER = GammaData((-0.2, -0.1, 0.3))
TEMPERED = GammaData((-0.4j, 0.1j, 0.3j))
INTERPOLATED = {
    "gl2": (_GAMMA_U, _GAMMA_U),
    "d3": (GammaData((0, 0, 0)), GammaData((0, 0, 0))),
    "sym2": (GammaData((1, 11, 12)), GammaData((1, 11, 12))),
    "tempered": (TEMPERED, TEMPERED),
    "other-dual": (GammaData(tuple(-k for k in OTHER.shifts)), OTHER),
}


def _finer_offsets(rows, interp) -> list:
    """max |I - I_finer| on each piece of interp, I_finer the interpolant of
    the same piece on twice as many intervals, its new nodes taken from
    rows: at those nodes and midway between all of the finer nodes"""
    offsets = []
    for p in interp.pieces:
        n = p.ts.size - 1
        t_new = chebyshev._lobatto_ts(p.mid, p.half, np.arange(1, 2 * n, 2), 2 * n)
        xs, values = np.empty(2 * n + 1), np.empty((2 * n + 1,) + p.values.shape[1:], dtype=complex)
        xs[0::2], xs[1::2] = p.xs, (np.log1p(t_new) - p.mid) / p.half
        values[0::2], values[1::2] = p.values, rows(t_new)[0]
        probe = np.concatenate([xs[1::2], np.cos(math.pi * np.arange(1, 4 * n, 2) / (4 * n))])
        off = chebyshev._barycentric(xs, values, probe) - chebyshev._barycentric(p.xs, p.values, probe)
        offsets.append(float(np.max(np.abs(off))))
    return offsets


@pytest.mark.parametrize("top", [8.0, 40.0, 160.0])
@pytest.mark.parametrize("y", [1.0, 1e3])
@pytest.mark.parametrize("name", sorted(INTERPOLATED))
def test_weight_interpolant_error_covers_one_doubling_finer(name, y, top):
    # the error each piece reports is extrapolated from its last two gaps;
    # it must still cover the change the next doubling makes
    gamma, norm = INTERPOLATED[name]
    spec = WeightSpec()

    def rows(ts):
        return _weight_rows(spec, y, ts, gamma, norm, top)

    interp = kz._cached_weight.__wrapped__(spec, y, top, gamma, norm)
    for off, p in zip(_finer_offsets(rows, interp), interp.pieces, strict=True):
        assert off <= p.error  # measured at most 0.73 of it


def test_geometric_interpolant_error_covers_one_doubling_finer(monkeypatch):
    # the (Hplus, Hminus) interpolant of the benchmark's trace identity
    built = []
    interpolate = kz._interpolate_log1p

    def keep(rows, *args):
        built.append((rows, interpolate(rows, *args)))
        return built[-1][1]

    monkeypatch.setattr(kz, "_interpolate_log1p", keep)
    kz._geometric_terms(1, 1, kz.gaussian_test_function(2.0), 800)
    ((rows, interp),) = built
    for off, p in zip(_finer_offsets(rows, interp), interp.pieces, strict=True):
        assert off <= p.error  # measured at most 0.42 of it


def _on_one_piece(f):
    """rows of f(x), x in [-1, 1] the Chebyshev variable of the one piece
    [0, 7] of an interpolant to top 7, each value's floor eps |f|"""
    half = 0.5 * math.log(8.0)

    def rows(ts):
        values = f(np.clip((np.log1p(ts) - half) / half, -1.0, 1.0)).astype(complex)
        return values, np.finfo(float).eps * np.abs(values)

    return rows


@pytest.mark.parametrize("eps, intervals", [(1e-11, 16), (1e-9, 32)])
def test_interpolant_stop_falls_back_to_the_measured_gap(eps, intervals):
    # f = 1 + x/3 + eps T_12(x).  The 4-interval interpolant is exact at the
    # points the 8-interval one adds (there T_12 and its alias T_4 are both
    # 0), and the 8-interval one is off by sqrt(2) eps at the odd points of
    # the first build's 16.  Gaps that do not contract extrapolate nothing:
    # the piece stops where the measured gap is within tol (4/3 1e-10), at
    # the first build for eps = 1e-11 and one doubling later for 1e-9
    rows = _on_one_piece(lambda x: 1.0 + x / 3.0 + eps * np.cos(12.0 * np.arccos(x)))
    (piece,) = chebyshev._interpolate_log1p(rows, 7.0, 1e-10, "f").pieces
    assert piece.ts.size - 1 == intervals


@pytest.mark.parametrize(
    "f",
    [
        lambda x: np.sqrt(x + 1.05),  # a branch point just off the piece's end
        lambda x: np.sqrt(x + 1.005),
        lambda x: np.sqrt(x - 0.3 - 0.05j),  # just off its middle
    ],
    ids=["end-0.05", "end-0.005", "middle-0.05"],
)
def test_interpolant_error_covers_one_doubling_finer_past_a_branch_point(f):
    # gaps that contract slowly at first and then ever faster, as the
    # interpolant resolves the branch point: the reported error still covers
    # the next doubling
    rows = _on_one_piece(f)
    interp = chebyshev._interpolate_log1p(rows, 7.0, 1e-10, "f")
    ((off,), (piece,)) = _finer_offsets(rows, interp), interp.pieces
    assert off <= piece.error


def test_interpolant_error_covers_one_doubling_finer_with_zero_floors():
    # floors of 0 leave the rounding to the piece's own floor, eps max |f|:
    # for sqrt(x + 1.05) the next doubling moves the interpolant by 1.1e-15,
    # where the gaps alone estimate 5.1e-17
    values = _on_one_piece(lambda x: np.sqrt(x + 1.05))

    def rows(ts):
        return values(ts)[0], np.zeros(ts.size)

    interp = chebyshev._interpolate_log1p(rows, 7.0, 1e-10, "f")
    ((off,), (piece,)) = _finer_offsets(rows, interp), interp.pieces
    assert off <= piece.error


def test_interpolant_of_a_low_degree_polynomial_stops_at_the_first_build():
    # both gaps are rounding, or exactly 0, on every piece
    def rows(ts):
        s = np.log1p(ts)
        return (2.0 - s + 0.25 * s**2).astype(complex), np.zeros(ts.size)

    interp = chebyshev._interpolate_log1p(rows, 160.0, 1e-12, "f")
    assert interp.rows == 3 * (2 * chebyshev._CHEB_START + 1) - 2
    assert all(p.error <= 1e-14 for p in interp.pieces)


@pytest.mark.parametrize("y", [1.0, 1e3])
@pytest.mark.parametrize("name", sorted(INTERPOLATED))
def test_weight_interpolant_matches_direct_rows(name, y):
    # at random t, none of them a node, within the reported error of each
    # piece, against rows from a t-grid sized for the same top (that of
    # diagonal_weight at T = 20)
    gamma, norm = INTERPOLATED[name]
    spec, top = WeightSpec(), 160.0
    interp = kz._cached_weight(spec, y, top, gamma, norm)
    ts = np.sort(np.random.default_rng(7).uniform(0.0, top, 64))
    assert not np.isin(ts, np.concatenate([p.ts for p in interp.pieces])).any()
    direct = _weight_grid(spec, [y], ts, gamma, norm, t_top=top)[:, 0]
    off = np.abs(interp(ts) - direct)
    assert np.all(off <= interp.error(ts))  # measured: off <= 0.28 of it


def test_weight_interpolant_nodes_are_rows():
    # at a node the interpolant returns the row itself, bit for bit
    spec, gamma = WeightSpec(), INTERPOLATED["d3"][0]
    interp = kz._cached_weight(spec, 1.0, 160.0, gamma, gamma)
    nodes = interp.pieces[1].ts[1::7]
    direct = _weight_grid(spec, [1.0], nodes, gamma, gamma, t_top=160.0)[:, 0]
    assert np.array_equal(interp(nodes), direct)


def test_weight_interpolant_piece_rule():
    # pieces by a geometric rule in 1 + t, not by the range: a factor of at
    # most 8 each, the last one cut at top
    assert np.array_equal(chebyshev._piece_edges(160.0), [0.0, 7.0, 63.0, 160.0])
    assert np.array_equal(chebyshev._piece_edges(4.0), [0.0, 4.0])
    assert np.array_equal(chebyshev._piece_edges(600.0), [0.0, 7.0, 63.0, 511.0, 600.0])
    interp = kz._cached_weight(WeightSpec(), 1.0, 160.0, _GAMMA_U, _GAMMA_U)
    for piece, lo, hi in zip(interp.pieces, [0.0, 7.0, 63.0], [7.0, 63.0, 160.0], strict=True):
        assert (piece.ts[-1], piece.ts[0]) == (lo, hi)
        assert (piece.ts.size - 1) % (2 * chebyshev._CHEB_START) == 0  # doublings of the first set
    # neighbours share their common end, built once
    assert interp.rows == sum(p.ts.size for p in interp.pieces) - 2


def test_weight_interpolant_raises_past_the_interval_cap(monkeypatch):
    # D3's V at top 160 needs 64 intervals on [0, 7]; with the cap at 16 the
    # build raises after its first check, having built 17 rows per piece (the
    # three pieces share two ends)
    built = []

    def counting(*args):
        values, floors = _weight_rows(*args)
        built.append(values.size)
        return values, floors

    kz._cached_weight.cache_clear()
    monkeypatch.setattr(kz, "_weight_rows", counting)
    monkeypatch.setattr(chebyshev, "_CHEB_MAX", 16)
    gamma = INTERPOLATED["d3"][0]
    with pytest.raises(NonDecayError, match="16 Chebyshev intervals"):
        kz._cached_weight(WeightSpec(), 1.0, 160.0, gamma, gamma)
    assert built == [3 * 17 - 2]


def test_weight_interpolant_rejects_t_outside_its_range():
    interp = kz._cached_weight(WeightSpec(), 1.0, 8.0, _GAMMA_U, _GAMMA_U)
    with pytest.raises(ValueError, match="outside"):
        interp(np.array([8.5]))
    with pytest.raises(ValueError, match="past the grid's top"):
        _weight_grid(WeightSpec(), [1.0], [9.0], _GAMMA_U, _GAMMA_U, t_top=8.0)


def test_diagonal_weight_benchmark_round_builds_few_rows(monkeypatch):
    # the round of diagonal_weight(20, 1, 1, 1, D3, ...) takes contour rows
    # only at its interpolants' nodes: 113 per weight where its t-grid has
    # 1,284 nodes, and each batch of interpolant rows is one contour build
    kz._cached_weight.cache_clear()
    d3 = triple_divisor_form()
    spec = WeightSpec()
    builds = []
    build = afe.contour_kernel

    def counting_build(kfunc, sigma, rows, **kw):
        builds.append(len(rows))
        return build(kfunc, sigma, rows, **kw)

    monkeypatch.setattr(afe, "contour_kernel", counting_build)
    kz.diagonal_weight(20.0, 1, 1, 1, d3, "direct")
    kz.diagonal_weight(20.0, 1, 1, 1, d3, "dual")
    assert kz.uv_cache_stats() == {"hits": 2, "misses": 2}
    assert len(builds) <= 6 and sum(builds) == 226
    rows = [kz._cached_weight(spec, 1.0, 160.0, g, g).rows for g in (_GAMMA_U, d3.gamma)]
    assert rows == [113, 113]  # U and V: 64, 32 and 16 intervals on [0, 7], [7, 63] and [63, 160]


def test_diagonal_weight_uv_cache_keys_on_gamma_data():
    # the UV cache keys on the GammaData the weight reads: a form whose gamma
    # data differ from D3's must not be served D3's cached weights
    d3 = triple_divisor_form()
    other = GL3Form(label="other-gamma", gamma=OTHER, gamma_dual=INTERPOLATED["other-dual"][0])
    spec = WeightSpec()
    top = 8.0  # diagonal_weight's t-range at T = 1
    u = kz._cached_weight(spec, 1.0, top, _GAMMA_U, _GAMMA_U)
    for variant in ("direct", "dual"):
        gamma = other.gamma if variant == "direct" else other.gamma_dual
        gamma_d3 = d3.gamma if variant == "direct" else d3.gamma_dual
        interp = kz._cached_weight(spec, 1.0, top, gamma, other.gamma)
        # at a node, bit for bit the row of a grid sized for the same top
        node = interp.pieces[0].ts[3:4]
        assert interp(node)[0] == _weight_grid(spec, [1.0], node, gamma, other.gamma, t_top=top)[0, 0]
        # at an interior t, within the interpolant's reported error
        ts = np.array([0.3])
        assert not np.isin(ts, interp.pieces[0].ts).any()
        fresh = _weight_grid(spec, [1.0], ts, gamma, other.gamma, t_top=top)[0, 0]
        assert abs(interp(ts)[0] - fresh) <= interp.error(ts)[0]
        cached_d3 = kz._cached_weight(spec, 1.0, top, gamma_d3, d3.gamma)(ts)[0]
        assert abs(fresh - cached_d3) > 1e-2 * abs(cached_d3)  # measured 17 %
        # and the diagonal weight's samples pick the entry from the form
        gauss_u = np.exp(-(ts[0] ** 2)) * u(ts)[0]
        assert kz._diag_samples(ts, 1.0, 1.0, 1.0, other, variant, spec)[0] == gauss_u * interp(ts)[0]
        assert kz._diag_samples(ts, 1.0, 1.0, 1.0, d3, variant, spec)[0] == gauss_u * cached_d3


def test_diagonal_weight_dual_reuses_self_dual_arrays():
    # D3 is self-dual with gamma_dual == gamma, so "dual" reads the same gamma
    # data as "direct" and is served its arrays without a miss
    d3 = triple_divisor_form()
    assert d3.gamma_dual == d3.gamma
    direct = kz.diagonal_weight(0.7, 1, 1, 1, d3, "direct")
    before = kz.uv_cache_stats()
    dual = kz.diagonal_weight(0.7, 1, 1, 1, d3, "dual")
    after = kz.uv_cache_stats()
    assert dual == direct
    assert after["misses"] == before["misses"]
    assert after["hits"] == before["hits"] + 2  # one degree-2 and one tensor array
    # D3's negated data carries -0.0 shifts, and keys the same entry
    negated = GammaData(tuple(-k for k in d3.gamma.shifts))
    kz._cached_weight(WeightSpec(), 1.0, kz._DIAG_TOP * 0.7, negated, d3.gamma)
    assert kz.uv_cache_stats() == {"hits": after["hits"] + 1, "misses": after["misses"]}


def test_weight_cache_under_threads():
    # more threads than cores and a short switch interval: the shared cache
    # must stay coherent (two threads that miss one key may both build it),
    # count every lookup and keep its bound
    d3 = triple_divisor_form()
    variants = ("direct", "dual")
    serial = {v: kz.diagonal_weight(0.5, 1, 1, 1, d3, v) for v in variants}
    kz._cached_weight.cache_clear()
    threads, repeats = 4, 3
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(lambda: [(v, kz.diagonal_weight(0.5, 1, 1, 1, d3, v)) for v in variants * repeats])
                for _ in range(threads)
            ]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert all(value == serial[v] for r in results for v, value in r)
    info = kz._cached_weight.cache_info()
    assert info.hits + info.misses == 2 * threads * repeats * len(variants)  # U and V per call
    assert info.currsize <= info.maxsize == 32


def _effective_test_function(form, spec, l_index, nm_index):
    # direct rows, one t-grid per weight per evaluator call, apart from the
    # interpolants diagonal_weight evaluates
    def ev(t):
        ts = np.abs(np.atleast_1d(np.asarray(t, dtype=float)))
        u = gl2_afe_weight_grid(spec, [float(l_index)], ts)[:, 0]
        v = rankin_selberg_afe_weight_grid(spec, [float(nm_index)], ts, form, "direct")[:, 0]
        out = np.exp(-(ts**2)) * u * v
        return out.reshape(np.shape(t)) if np.ndim(t) else complex(out[0])

    return kz.SpectralTestFunction(evaluator=ev, decay_exponent=5.0, holomorphy_width=0.51, label="afe-effective")


def test_diagonal_weight_plus_matches_transform_oracle():
    d3 = triple_divisor_form()
    spec = WeightSpec()
    v = kz.diagonal_weight(1.0, 2, 1, 1, d3, "direct_plus", x=0.5)
    heff = _effective_test_function(d3, spec, 2, 1)
    ref = oracles.series_plus(heff, 0.5, 1e-9)
    assert abs(v - ref) < 1e-9 * abs(ref)  # |ref| = 3.3e-7; measured 1.4e-13 of it


def test_diagonal_weight_minus_matches_transform_oracle():
    d3 = triple_divisor_form()
    spec = WeightSpec()
    v = kz.diagonal_weight(1.0, 2, 1, 1, d3, "direct_minus", x=0.5)
    heff = _effective_test_function(d3, spec, 2, 1)
    ref = oracles.minus_series(heff, 0.5, 1e-9)
    assert abs(v - ref) < 1e-9 * abs(ref)  # |ref| = 4.7e-6; measured 2.3e-14 of it


def _direct_row_samples(memo: dict):
    # kz._diag_samples from direct rows on each t-grid, sized for the same
    # top, once per grid
    def samples(ts, width_T, y_gl2, y_rs, form, variant, spec):
        top = kz._DIAG_TOP * width_T
        gamma = form.gamma if variant == "direct" else form.gamma_dual
        key = (ts.tobytes(), width_T, y_gl2, y_rs, gamma, form.gamma, spec)
        if key not in memo:
            u = _weight_grid(spec, [y_gl2], ts, _GAMMA_U, _GAMMA_U, t_top=top)[:, 0]
            v = _weight_grid(spec, [y_rs], ts, gamma, form.gamma, t_top=top)[:, 0]
            memo[key] = np.exp(-((ts / width_T) ** 2)) * u * v
        return memo[key]

    return samples


@pytest.mark.parametrize("T", [0.5, 1.0, 20.0])
def test_diagonal_weight_variants_match_direct_rows(T, monkeypatch):
    # each variant from the interpolants against the same from direct rows,
    # within the interpolation error propagated to it.  A sample's error is
    # at most g (|U| eV + |V| eU + eU eV), g the Gaussian and eU, eV the
    # interpolants' reported errors; the plain variants weigh it with
    # (2/pi) t tanh(pi t), the Bessel variants with
    # 4 I_0(2 pi x) sqrt(t tanh(pi t) / pi), from |J_{2it}(z)|, |I_{2it}(z)|
    # <= I_0(z) / |Gamma(1 + 2it)| (term by term in the ascending series) and
    # the I-Bessel form of Hminus.
    d3 = triple_divisor_form()
    spec = WeightSpec()
    x = 0.5
    # a Bessel pair shares one profile and its contour; so do D3's direct
    # and dual twins, so each distinct contour is built once
    contours = {}
    contour = kz._contour

    def memo(prof, z_min, z_max):
        key = (prof.ts.tobytes(), prof.fw.tobytes(), prof.theta, z_min, z_max)
        if key not in contours:
            contours[key] = contour(prof, z_min, z_max)
        return contours[key]

    monkeypatch.setattr(kz, "_contour", memo)
    def arg(variant):
        return None if variant in ("direct", "dual") else x

    values = {variant: kz.diagonal_weight(T, 1, 1, 1, d3, variant, arg(variant)) for variant in kz.DIAGONAL_VARIANTS}
    ts, ws = panel_grid(0.0, kz._DIAG_TOP * T, min(max(T / 6.0, 1e-4), 1.5), 12)
    u = kz._cached_weight(spec, 1.0, kz._DIAG_TOP * T, _GAMMA_U, _GAMMA_U)
    v = kz._cached_weight(spec, 1.0, kz._DIAG_TOP * T, d3.gamma, d3.gamma)
    e_u, e_v = u.error(ts), v.error(ts)
    e_h = np.exp(-((ts / T) ** 2)) * (np.abs(u(ts)) * e_v + np.abs(v(ts)) * e_u + e_u * e_v)
    bound = {
        None: (2.0 / math.pi) * np.sum(ws * e_h * ts * np.tanh(math.pi * ts)),
        x: 4.0 * float(i0(2.0 * math.pi * x)) * np.sum(ws * e_h * np.sqrt(ts * np.tanh(math.pi * ts) / math.pi)),
    }
    monkeypatch.setattr(kz, "_diag_samples", _direct_row_samples({}))
    # D3 is self-dual: each "dual" variant is its "direct" twin, entry for entry
    for variant in ("direct", "direct_plus", "direct_minus"):
        assert values[variant.replace("direct", "dual")] == values[variant]
        direct = kz.diagonal_weight(T, 1, 1, 1, d3, variant, arg(variant))
        assert abs(values[variant] - direct) <= bound[arg(variant)]  # measured at most 3.4e-4 of it


def test_diagonal_weight_symmetric_square_finite():
    # shifts (1, 11, 12): every gamma pole lies left of the tensor weight's
    # contour Re u = 1/2, so the weight is defined and evaluates silently
    sym = symmetric_square_form(prime_cap=500)
    v = kz.diagonal_weight(1.0, 1, 1, 1, sym, "direct")
    assert np.isfinite(v.real)
    assert v.real > 0.0
    # the shift -3/2 puts the pole of Gamma((1/2 + u - 3/2)/2) at Re u = 1
    shifted = GammaData((-1.5, 0.0, 1.5))
    wrong = GL3Form(label="shifted-gamma-data", gamma=shifted, gamma_dual=shifted)
    with pytest.raises(PoleError, match="contour"):
        kz.diagonal_weight(1.0, 1, 1, 1, wrong, "direct")
