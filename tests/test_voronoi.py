"""Dual-sum identity machinery: Mellin transforms, contour kernels, ladders.

Cross-checks, in rough order: the Mellin transform's exact s = 1 area, its
scaling law, and its (windowed) sub-exponential decay profile; the contour
kernels against frozen values and against contour-shift invariance (every
quadrature node moves) within their reported error budgets; the large-argument
oscillatory expansion against exact kernels; the derived far-tail
ladder's Stirling coefficients against mpmath, its FFT rung integrals
against adaptive quadrature and a 30-digit mpmath quadrature, and both
orders at the exact/asymptotic boundary;
the degenerate form's polar residue against
a Laurent-coefficient oracle that shares no code with the Hurwitz-zeta
circle quadrature; and the full identity at small/medium truncations,
where the two sides meet through completely disjoint evaluation paths
(integer coefficient sums vs. twisted transform sums).
"""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfunlab import quadrature, special
from lfunlab import voronoi as vo
from lfunlab.exactarith import NotCoprimeError
from lfunlab.heckegl3 import GL3Form, symmetric_square_form, triple_divisor_form
from lfunlab.quadrature import gauss_legendre_panels, smooth_bump
from lfunlab.special import GammaData, PoleError, RegimeError, log_gamma
from lfunlab.voronoi import (
    _CONTOUR_CAP,
    _LINE_BLOCK,
    _RUNGS,
    _STIRLING_A,
    VoronoiKernelSpec,
    _gamma_quotient_log,
    _kernel_values,
    _ladder_rungs,
    _mellin_line,
    _neutral_abscissa,
    _phi_contour_kernels,
    _tail_asymptotic,
    polar_main_term,
    voronoi_kernel,
    voronoi_kernel_asymptotic,
    voronoi_residual_profile,
)
from oracles import mellin_transform, oscillatory_integral

D3 = triple_divisor_form()
BUMP = smooth_bump(50.0, 100.0)
UNIT_BUMP = smooth_bump(1.0, 2.0)


@pytest.fixture(scope="module")
def spec():
    return VoronoiKernelSpec(D3, BUMP)


@pytest.fixture(scope="module")
def kernel_pair(spec):
    """Both transform orders at x = 2, shared across the scalar tests."""
    return voronoi_kernel(spec, 0, 2.0)[0], voronoi_kernel(spec, 1, 2.0)[0]


# ---------------------------------------------------------------------------
# Mellin transform


def test_mellin_area_matches_direct_quadrature():
    x, w = gauss_legendre_panels(np.linspace(1.0, 2.0, 65), 12)
    area = float(np.sum(w * UNIT_BUMP(x)))
    assert mellin_transform(UNIT_BUMP, 1.0) == pytest.approx(area, rel=1e-12)
    # a wide bump at small |Im s|, where the grid's floor, not the phase,
    # sets the panel width: 0.01-wide 16-node panels as the reference (they
    # agree with 0.02-wide ones to 1e-15); measured 2.0e-16 and 2.3e-16 of
    # the mass, against 1.6e-12 and 1.0e-11 with a (hi - lo)/16 floor
    x, w = gauss_legendre_panels(np.linspace(50.0, 100.0, 5001), 16)
    for s in (0.5, 0.5 + 2j):
        weighted = w * BUMP(x) * x ** (s - 1.0)
        assert abs(mellin_transform(BUMP, s) - np.sum(weighted)) <= 1e-14 * np.sum(np.abs(weighted))


def test_mellin_scalar_and_array_shapes():
    s = np.array([1.0, 0.5 + 3j, 2.0 - 1j])
    vals = mellin_transform(UNIT_BUMP, s)
    assert vals.shape == (3,)
    assert complex(vals[0]) == pytest.approx(mellin_transform(UNIT_BUMP, 1.0), rel=1e-13)
    assert isinstance(mellin_transform(UNIT_BUMP, 1.0), complex)


@settings(max_examples=20, deadline=None)
@given(
    lam=st.floats(min_value=0.5, max_value=4.0),
    v=st.floats(min_value=-30.0, max_value=30.0),
)
def test_mellin_scaling_law(lam, v):
    # phi(x / lam) has transform lam^s phitilde(s)
    scaled = lambda x: UNIT_BUMP(np.asarray(x, dtype=float) / lam)
    scaled.support = (lam, 2.0 * lam)
    s = 0.7 + 1j * v
    lhs = mellin_transform(scaled, s)
    rhs = lam**s * mellin_transform(UNIT_BUMP, s)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_mellin_decay_pinned_at_height_40():
    # the exp-ramp bump decays sub-exponentially, not like the 1e-6 a
    # Gaussian would reach by this height; the magnitude is pinned as
    # measured and the super-polynomial *trend* is asserted below
    assert abs(mellin_transform(UNIT_BUMP, 0.5 + 40.0j)) == pytest.approx(
        2.350861e-02, rel=1e-4
    )


def test_mellin_windowed_decay_is_superpolynomial():
    # point values along a vertical line oscillate (edge-beat interference
    # between the two ramps), so the decay profile is measured on windowed
    # maxima over dyadic height windows [V, 2V]
    maxima = []
    for V in (25.0, 50.0, 100.0, 200.0, 400.0, 800.0):
        v = np.linspace(V, 2.0 * V, 48)
        maxima.append(float(np.max(np.abs(mellin_transform(UNIT_BUMP, 0.5 + 1j * v)))))
    for prev, cur in zip(maxima, maxima[1:]):
        assert cur <= 0.25 * prev  # measured ratios are all below 0.24
    exponents = [math.log(a / b) / math.log(2.0) for a, b in zip(maxima, maxima[1:])]
    assert exponents[-1] > 6.0  # beats any fixed power-6 decay by V = 400
    assert exponents[-1] > exponents[0] + 3.0  # and the decay accelerates


def test_fft_line_matches_dense_quadrature():
    # the kernels' FFT line against the dense oracle, on the kernel's line
    # up to the contour cap and on a wide support.  Each evaluation sits
    # within the kernel floor model 2e-16 mass (1 + |v| h), so they differ by at
    # most twice it (measured: at most 0.77 of that, on the wide support at
    # v = 0).  The oracle sizes its grid for the largest |v| of a call, so
    # it is called per height window: on its grid for the cap, the sums at
    # |v| < 2 round at up to 6.6e-16 mass
    for bump, windows in (
        (BUMP, ((0.0, 1000.0), (1000.0, 6000.0))),
        (smooth_bump(1.0, 100.0), ((0.0, 100.0),)),
    ):
        lo, hi = bump.support
        h = 0.5 * math.log(hi / lo)
        line = _mellin_line(bump, bump.support, 0.5)
        mass = abs(complex(line(0.0)))
        for a, b in windows:
            v = np.concatenate([np.linspace(a, b, 51), -np.linspace(a, b, 51)])
            dense = mellin_transform(bump, 0.5 + 1j * v)
            assert np.all(np.abs(line(v) - dense) <= 4e-16 * mass * (1.0 + np.abs(v) * h))
    # the grid ends past twice the cap; it never wraps around
    line = _mellin_line(BUMP, BUMP.support, 0.5)
    line(np.array([-_CONTOUR_CAP, _CONTOUR_CAP]))
    with pytest.raises(ValueError, match="beyond"):
        line(np.array([0.0, 3.0 * _CONTOUR_CAP]))


def test_fft_line_independent_of_array_shape():
    # the line is interpolated in blocks of _LINE_BLOCK points; a value does
    # not depend on the block it falls in, or on the array's shape
    line = _mellin_line(BUMP, BUMP.support, 0.5)
    v = np.linspace(-_CONTOUR_CAP, _CONTOUR_CAP, 2 * _LINE_BLOCK + 3)
    values = line(v)
    assert np.array_equal(values, np.array([line(x) for x in v]))
    assert np.array_equal(line(v[:-3].reshape(2, -1)), values[:-3].reshape(2, -1))


def test_mellin_requires_support_information():
    with pytest.raises(ValueError, match="no .support attribute"):
        mellin_transform(lambda x: x, 1.0)
    backwards = lambda x: x
    backwards.support = (2.0, 1.0)
    with pytest.raises(ValueError, match="0 < lo < hi"):
        mellin_transform(backwards, 1.0)


# ---------------------------------------------------------------------------
# kernel spec and guards


def test_abscissa_override_keeps_pole_margin(spec):
    # the neutral abscissa keeps half a unit from the order-k poles.  At 0.2
    # from them (sigma = -0.8 for order 0) the value at x = 40 is 3.9e-4
    # off while its estimate reads 1.7e-7, so an override inside the margin
    # must raise
    for k in (0, 1):
        bound = spec.form.gamma_dual.rightmost_pole - 1.0 - 2 * k
        assert _neutral_abscissa(spec, k) >= bound + 0.5
        for sigma in (bound + 0.2, bound):
            with pytest.raises(PoleError):
                _phi_contour_kernels(spec, {k: sigma}, 1.0)


def test_spec_requires_bump_support():
    with pytest.raises(ValueError):
        VoronoiKernelSpec(D3, lambda x: x)


def test_kernel_argument_guards(spec):
    with pytest.raises(ValueError):
        voronoi_kernel(spec, 2, 1.0)
    with pytest.raises(ValueError):
        voronoi_kernel(spec, 0, -1.0)
    with pytest.raises(ValueError):
        voronoi_kernel(spec, 0, np.array([1.0, -2.0]))
    for bad in (math.nan, np.array([1.0, math.nan]), math.inf):
        with pytest.raises(ValueError, match="argument x must be positive and finite"):
            voronoi_kernel(spec, 0, bad)


# ---------------------------------------------------------------------------
# kernel values


def test_kernel_pinned_values(kernel_pair):
    p0, p1 = kernel_pair
    # real bump and real spherical parameters make both orders purely
    # imaginary; values frozen from converged contour evaluations
    assert p0.imag == pytest.approx(28.230903145, rel=1e-7)
    assert p1.imag == pytest.approx(-1371.2866915, rel=1e-7)
    assert abs(p0.real) <= 1e-9 * abs(p0)
    assert abs(p1.real) <= 1e-9 * abs(p1)


@pytest.mark.parametrize(
    "abg",
    [
        (GammaData((0j, 0j, 0j)), GammaData((0j, 0j, 0j))),
        (GammaData((-0.2 - 3j, -0.2 + 3j, 0.4)), GammaData((0.2 + 3j, 0.2 - 3j, -0.4))),
        # sym^2 Delta: gamma_dual = gamma, not -gamma
        (GammaData((1, 11, 12)), GammaData((1, 11, 12))),
    ],
)
@pytest.mark.parametrize("k", [0, 1])
def test_gamma_quotient_is_the_log_gamma_sum(abg, k, monkeypatch):
    # the two Gamma_R products with their pi powers added back equal the sum
    # of the six log Gammas, the numerator's from the dual data, and
    # repeated shifts cost one call each
    gamma, gamma_dual = abg
    u = -0.5 - k + 1j * np.linspace(-300.0, 300.0, 601)
    direct = sum(log_gamma((1.0 + u + 2 * k + z) / 2.0) for z in gamma_dual.shifts) - sum(
        log_gamma((-u + z) / 2.0) for z in gamma.shifts
    )
    calls = []
    original = special.log_gamma
    monkeypatch.setattr(special, "log_gamma", lambda z: calls.append(1) or original(z))
    quotient = _gamma_quotient_log(u, k, gamma, gamma_dual)
    assert np.all(np.abs(quotient - direct) <= 1e-14 * np.maximum(1.0, np.abs(direct)))  # measured <= 1.5e-15
    assert len(calls) == len(set(gamma_dual.shifts)) + len(set(gamma.shifts))


def _spherical(mu) -> GL3Form:
    return GL3Form("mu", GammaData(tuple(-m for m in mu)), GammaData(mu), default_satake=(1 + 0j, 1 + 0j, 1 + 0j))


# D3, and a tempered spherical stub that is not self-dual
SYMMETRIC_FORMS = [D3, _spherical((1j, 2j, -3j))]


@pytest.mark.parametrize("form", SYMMETRIC_FORMS, ids=["D3", "tempered"])
@pytest.mark.parametrize("k", [0, 1])
def test_symmetric_line_quotient_is_the_two_call_quotient(form, k, monkeypatch):
    # on sigma_k = -1/2 - k, with gamma_dual's shifts the conjugates of
    # gamma's, the denominator is the conjugate of the numerator: one
    # log_gamma call per distinct shift gives the quotient, of modulus 1,
    # at every contour height up to the cap
    assert vo._conjugate_duals(form.gamma, form.gamma_dual)
    v = np.linspace(-_CONTOUR_CAP, _CONTOUR_CAP, 24001)
    two = _gamma_quotient_log(-0.5 - k + 1j * v, k, form.gamma, form.gamma_dual)
    calls = []
    original = special.log_gamma
    monkeypatch.setattr(special, "log_gamma", lambda z: calls.append(1) or original(z))
    one = vo._gamma_quotient_log_symmetric(v, k, form.gamma_dual)
    assert len(calls) == len(set(form.gamma_dual.shifts))
    assert np.all(one.real == 0.0)
    # measured 6.7e-16 (D3, k = 0) and 0 otherwise
    assert np.max(np.abs(np.exp(one) - np.exp(two))) <= 1e-15


def _log_gamma_calls_per_row(spec, abscissae, monkeypatch) -> float:
    """log_gamma calls per row evaluation while _phi_contour_kernels builds."""
    calls, rows = [], []
    original, build = special.log_gamma, vo.contour_kernel

    def counting_build(kfunc, sigma, kernel_rows, **kw):
        return build(lambda u, r: rows.append(r.size) or kfunc(u, r), sigma, kernel_rows, **kw)

    with monkeypatch.context() as m:
        m.setattr(special, "log_gamma", lambda z: calls.append(1) or original(z))
        m.setattr(vo, "contour_kernel", counting_build)
        _phi_contour_kernels(spec, abscissae, 5.0)
    return len(calls) / sum(rows)


def test_kernel_rows_take_the_one_call_quotient_only_on_the_symmetric_line(monkeypatch):
    # D3 (one distinct shift) and the tempered stub (three) on both rows'
    # symmetric lines take one call per distinct shift; off the line, and
    # for shifts not closed under kappa -> -conj(kappa) on it, the two-call
    # route takes two
    for form in SYMMETRIC_FORMS:
        spec = VoronoiKernelSpec(form, BUMP)
        distinct = len(set(form.gamma_dual.shifts))
        assert _log_gamma_calls_per_row(spec, {0: -0.5, 1: -1.5}, monkeypatch) == distinct
        assert _log_gamma_calls_per_row(spec, {0: -0.25}, monkeypatch) == 2 * distinct
        assert _log_gamma_calls_per_row(spec, {1: -1.0}, monkeypatch) == 2 * distinct
    open_form = _spherical((0.2 + 3j, 0.2 - 3j, -0.4 + 0j))
    assert not vo._conjugate_duals(open_form.gamma, open_form.gamma_dual)
    spec = VoronoiKernelSpec(open_form, BUMP)
    assert _neutral_abscissa(spec, 1) == -1.5
    assert _log_gamma_calls_per_row(spec, {1: -1.5}, monkeypatch) == 6


def test_symmetric_line_kernel_matches_two_call_kernel(monkeypatch):
    # the benchmark's pair of D3 rows, built with the one-call quotient and
    # with the two-call one forced, on the same grid: values and error
    # estimates agree to rounding (measured bit for bit)
    spec = VoronoiKernelSpec(D3, BUMP)
    abscissae = {0: -0.5, 1: -1.5}
    one = _phi_contour_kernels(spec, abscissae, 7.0)
    monkeypatch.setattr(vo, "_conjugate_duals", lambda gamma, gamma_dual: False)
    two = _phi_contour_kernels(spec, abscissae, 7.0)
    assert np.array_equal(one.v, two.v)
    assert np.max(np.abs(one.w - two.w)) <= 1e-15 * np.max(np.abs(two.w))
    xs = np.array([0.05, 1.0, 7.0, 20.0])
    (a, a_err), (b, b_err) = _kernel_values(one, abscissae, xs), _kernel_values(two, abscissae, xs)
    assert np.all(np.abs(a - b) <= 1e-13 * np.abs(b))
    assert np.allclose(a_err, b_err, rtol=1e-12, atol=0.0)


def test_kernel_apply_against_mpmath(spec):
    # apply's factored phases against a 30-digit sum of w e^{-ivt} over the
    # same nodes and weights, with t = ln y in doubles as apply takes it:
    # the order-1 kernel of the benchmark profile, sized for x <= 60
    # (5,625 panels in pieces of 824 to 2,109, each with a short last run).
    # Measured at most 6.6e-16 of the mass; the factorization by panel that
    # the two-level one replaced erred by up to 4.3e-16
    mpmath = pytest.importorskip("mpmath")
    libmp = mpmath.libmp
    kern = _phi_contour_kernels(spec, {1: _neutral_abscissa(spec, 1)}, math.log(math.pi**3 * 60.0))
    assert kern.symmetric
    ys = np.exp(np.array([0.14, 3.3, 7.5]))
    (vals,) = kern.apply(ys)
    nodes = [
        (libmp.from_float(v), libmp.from_float(w.real), libmp.from_float(w.imag))
        for v, w in zip(kern.v.tolist(), kern.w[0].tolist())
    ]
    for y, val in zip(ys, vals):
        t = libmp.from_float(float(np.log(y)))
        acc = libmp.fzero
        for v, wr, wi in nodes:  # Re w e^{-ivt}, to 100 bits
            c, s = libmp.mpf_cos_sin(libmp.mpf_mul(v, t), 100)
            acc = libmp.mpf_add(acc, libmp.mpf_add(libmp.mpf_mul(wr, c), libmp.mpf_mul(wi, s)), 100)
        scale = y ** (-kern.sigma)
        mass = float(np.sum(np.abs(kern.w))) * scale
        assert abs(val - 2.0 * libmp.to_float(acc) * scale) <= 1e-15 * mass


def test_contour_shift_invariance_within_error_budget(spec):
    # moving the abscissa 0.3 right changes every quadrature node; both
    # orders must agree within the sum of the reported error estimates
    # (measured: order 1 at x = 40 moves 9.4e-8 against a 6.3e-6 budget)
    xs = np.array([0.01, 0.5, 3.0, 40.0])
    max_ln = float(np.max(np.abs(np.log(math.pi**3 * xs))))
    for k in (0, 1):
        v1, e1 = voronoi_kernel(spec, k, xs)
        abscissae = {k: _neutral_abscissa(spec, k) + 0.3}
        (v2,), (e2,) = _kernel_values(_phi_contour_kernels(spec, abscissae, max_ln), abscissae, xs)
        assert np.all(e1 > 0.0) and np.all(e2 > 0.0)
        assert np.all(np.abs(v1 - v2) <= e1 + e2)


# ---------------------------------------------------------------------------
# large-argument expansion and far-tail ladders


def test_asymptotic_accuracy_and_order_improvement(spec):
    # x * support_lo = 1e3, 1e4, 1e5: the one-term expansion stays inside
    # 1% (the acceptance bar is 10%/3%); the second rung gains three more
    # digits at every argument
    xs = np.array([20.0, 200.0, 2000.0])
    for x, exact in zip(xs, voronoi_kernel(spec, 0, xs)[0]):
        rel1 = abs(voronoi_kernel_asymptotic(spec, x, order=1) - exact) / abs(exact)
        rel2 = abs(voronoi_kernel_asymptotic(spec, x, order=2) - exact) / abs(exact)
        assert rel1 <= 1e-2
        assert rel2 <= 1e-4
        assert rel2 < rel1
        if x == 20.0:  # all four derived rungs: measured 1.7e-11
            assert abs(voronoi_kernel_asymptotic(spec, x, order=4) - exact) <= 1e-9 * abs(exact)


def test_asymptotic_guards(spec):
    with pytest.raises(RegimeError):
        voronoi_kernel_asymptotic(spec, 0.01)
    with pytest.raises(ValueError):
        voronoi_kernel_asymptotic(spec, 20.0, order=0)
    with pytest.raises(ValueError):
        voronoi_kernel_asymptotic(spec, 20.0, order=5)
    for x in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="argument x must be positive and finite"):
            voronoi_kernel_asymptotic(spec, x)


def test_asymptotic_later_rungs_need_degenerate_form(spec):
    # A_1 = -1/3 + 3 sum a_i^2 / 2 depends on the spherical parameters, so
    # only the leading rung (independent of them, as sum a_i = 0) applies
    a = (0.3j, -0.3j, 0j)
    form = GL3Form(label="spherical", gamma=GammaData(tuple(-z for z in a)), gamma_dual=GammaData(a))
    other = VoronoiKernelSpec(form, BUMP)
    for order in (2, 3, 4):
        with pytest.raises(ValueError, match="degenerate"):
            voronoi_kernel_asymptotic(other, 20.0, order=order)
    lead = voronoi_kernel_asymptotic(spec, 20.0, order=1)
    assert voronoi_kernel_asymptotic(other, 20.0, order=1) == lead


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("s", [50, 400])
def test_stirling_coefficients_against_mpmath(k, s):
    # Gamma(1+k+s)^3 = 2 pi 3^{1/2-3s-beta} sum_j A_j Gamma(3s+beta-j),
    # beta = 3k+2: the five-term series must leave a remainder within the
    # next term's scale Gamma(3s+beta-5)/Gamma(3s+beta) (measured 0.58-0.60
    # of it); a wrong A_j would leave (3s)^{5-j} times its error
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        s, beta = mpmath.mpf(s), 3 * k + 2
        lhs = mpmath.gamma(s + 1 + k) ** 3 * mpmath.power(3, 3 * s + beta - 0.5) / (
            2 * mpmath.pi * mpmath.gamma(3 * s + beta)
        )
        series = sum(
            mpmath.mpf(a) * mpmath.rf(3 * s + beta - j, j) ** -1 for j, a in enumerate(_STIRLING_A)
        )
        scale = mpmath.rf(3 * s + beta - 5, 5) ** -1
        assert abs(lhs - series) <= scale
    # r_1 is the classical leading constant 2/sqrt(3 pi); r_J follows from A
    assert _RUNGS[0] == pytest.approx(2.0 / math.sqrt(3.0 * math.pi), rel=1e-15)
    for j, a in enumerate(_STIRLING_A):
        assert _RUNGS[j] == pytest.approx(a * 6.0 ** (2 - j) * _RUNGS[0] / 36.0, rel=1e-15)


def test_ladder_rungs_match_adaptive_quadrature(spec):
    # each rung integral int phi(y) e^{6 pi i (xy)^{1/3}} (pi^3 x y)^{-J/3} dy
    # by oscillatory_integral, assembled by the module-docstring formula;
    # the ladder's grid must agree within its allowance plus the reference's
    # own error estimate
    xs = np.array([61.0, 2000.0, 5461.0])
    lo, hi = spec.support
    ladder = _tail_asymptotic(spec, xs)
    for i, x in enumerate(xs):
        rungs = []
        for J in range(1, 5):
            amp = lambda y, J=J: BUMP(y) * (math.pi**3 * x * y) ** (-J / 3.0)
            res = oscillatory_integral(amp, lambda y: 3.0 * np.cbrt(x * y), (lo, hi), tol=1e-13)
            rungs.append(res)
        for k in (0, 1):
            scale = 2.0 * math.pi**4 * x * (math.pi**3 * x) ** k
            ref = scale * sum(
                r * (np.exp(0.5j * math.pi * (J - 3 + k)) * res.value).imag
                for J, (r, res) in enumerate(zip(_RUNGS, rungs), start=1)
            )
            ref_err = scale * sum(abs(r) * res.abs_error_estimate for r, res in zip(_RUNGS, rungs))
            assert abs(ladder[k][i] - 1j * ref) <= ladder[2 + k][i] + ref_err


def test_ladder_rung_one_against_mpmath(spec):
    # rung 1, int phi(y) e^{6 pi i (xy)^{1/3}} (pi^3 x y)^{-1/3} dy, by
    # 30-digit tanh-sinh quadrature on the bump's two ramps and its plateau,
    # in y itself: the oracle shares neither the u = y^{1/3} substitution nor
    # the FFT.  Measured at most 9.0e-17 of the mass (x = 60); the dense
    # (x, y) sums that the FFT replaced erred by 1.2e-15 to 4.2e-15
    mpmath = pytest.importorskip("mpmath")
    xs = np.array([60.0, 200.0, 606.8, 1500.0, 5461.3])
    rung, floor = _ladder_rungs(spec, xs, 1)
    y, w = gauss_legendre_panels(np.linspace(50.0, 100.0, 41), 12)
    with mpmath.workdps(30):
        r = mpmath.mpf(12.5)
        ramp = lambda t: 1 / (1 + mpmath.exp(1 / t - 1 / (1 - t)))
        pieces = (
            (50, 62.5, lambda y: ramp((y - 50) / r)),
            (62.5, 87.5, lambda y: 1),
            (87.5, 100, lambda y: ramp((100 - y) / r)),
        )
        for i, x in enumerate(xs):
            xm = mpmath.mpf(x)
            ref = complex(
                sum(
                    mpmath.quad(
                        lambda y: bump(y) * mpmath.expj(6 * mpmath.pi * mpmath.cbrt(xm * y))
                        / mpmath.cbrt(mpmath.pi**3 * xm * y),
                        mpmath.linspace(a, b, 3),
                    )
                    for a, b, bump in pieces
                )
            )
            mass = float(np.sum(w * BUMP(y) / np.cbrt(math.pi**3 * x * y)))
            assert abs(rung[0, i] - ref) <= 1e-15 * mass
            assert abs(rung[0, i] - ref) <= floor[i]


def test_ladder_independent_of_array_shape(spec):
    # the rungs are interpolated in blocks of _LINE_BLOCK points from the FFT
    # entries the array's frequencies reach; a point's values and allowances
    # do not depend on the array it comes in
    xs = np.geomspace(61.0, 5461.0, 2 * _LINE_BLOCK + 3)
    full = np.array(_tail_asymptotic(spec, xs))
    cuts = (0, 5, _LINE_BLOCK + 7, xs.size)
    parts = [np.array(_tail_asymptotic(spec, xs[a:b])) for a, b in zip(cuts, cuts[1:])]
    assert np.array_equal(np.concatenate(parts, axis=1), full)
    assert np.array_equal(np.array(_tail_asymptotic(spec, xs[::-1])), full[:, ::-1])
    for i in (0, _LINE_BLOCK - 1, _LINE_BLOCK, 2 * _LINE_BLOCK, xs.size - 1):
        assert np.array_equal(np.array(_tail_asymptotic(spec, xs[i : i + 1]))[:, 0], full[:, i])


def test_ladder_frequency_beyond_grid_raises(spec):
    # omega = 6 pi x^{1/3} past the rfft's last entry less the stencil
    # (about 1.2e4 for this support) has no grid to interpolate on
    with pytest.raises(ValueError, match="beyond"):
        _tail_asymptotic(spec, np.array([1e9]))
    with pytest.raises(ValueError, match="beyond"):
        _tail_asymptotic(spec, np.array([100.0, 1e9]))


def test_far_tail_ladders_match_exact_kernels_at_boundary(spec):
    # the residual profile switches from exact contour kernels to the
    # derived ladder at x * support_lo = 1e3, x = 20 here; both orders must
    # agree on both sides of that seam within the ladder's allowance plus
    # the exact kernel's error
    assert vo._TAIL_XLO / BUMP.support[0] == 20.0
    xs = np.array([20.0, 21.0, 30.0, 45.0, 61.0])
    ladder = _tail_asymptotic(spec, xs)
    for k in (0, 1):
        exact, err = voronoi_kernel(spec, k, xs)
        # measured at most 0.43 of the bound (x = 20, order 0)
        assert np.all(np.abs(ladder[k] - exact) <= ladder[2 + k] + err)
        # measured at most 2.0e-11 relative (x = 61, order 0)
        assert float(np.max(np.abs(ladder[k] - exact) / np.abs(exact))) <= 1e-10


# ---------------------------------------------------------------------------
# polar residue term


def test_polar_main_term_against_laurent_oracle():
    # independent oracle: for modulus 1 the twisted series is the cube of
    # the zeta function, whose Laurent data at s = 1 gives the residue as
    # int phi(y) [ln(y)^2/2 + 3 g0 ln(y) + 3 g0^2 - 3 g1] dy with g0, g1
    # the first two Stieltjes constants -- no Hurwitz zetas, no circle
    # quadrature
    mpmath = pytest.importorskip("mpmath")
    g0 = float(mpmath.euler)
    g1 = float(mpmath.stieltjes(1))
    x, w = gauss_legendre_panels(np.linspace(50.0, 100.0, 41), 12)
    ln = np.log(x)
    oracle = float(np.sum(w * BUMP(x) * (0.5 * ln**2 + 3 * g0 * ln + 3 * g0**2 - 3 * g1)))
    mt = polar_main_term(D3, 1, 1, 1, BUMP)
    assert mt.real == pytest.approx(oracle, rel=1e-13)  # measured 1.7e-16 (5.6e-13 with a coarser Mellin grid)
    assert abs(mt.imag) <= 1e-10 * abs(mt.real)


def test_polar_main_term_pinned_values():
    mt1 = polar_main_term(D3, 1, 1, 1, BUMP)
    mt3 = polar_main_term(D3, 1, 1, 3, BUMP)
    assert mt1.real == pytest.approx(673.472385157, rel=1e-9)
    assert mt3.real == pytest.approx(208.312561297, rel=1e-9)
    # real for a real test function: conjugate twist classes pair up
    assert abs(mt3.imag) <= 1e-10 * abs(mt3.real)


def test_polar_main_term_zero_for_cuspidal_forms():
    cuspidal = symmetric_square_form(prime_cap=50)
    assert polar_main_term(cuspidal, 1, 1, 3, BUMP) == 0j


def test_non_spherical_form_rejected():
    # the kernel reads alpha, beta, gamma as spherical parameters; the
    # symmetric-square lift carries none, and used to return a silently
    # wrong dual side (rhs ~ 1e-18 against lhs 0.498)
    sym2 = symmetric_square_form(prime_cap=50)
    with pytest.raises(ValueError, match="spherical"):
        VoronoiKernelSpec(sym2, BUMP)
    with pytest.raises(ValueError, match="spherical"):
        voronoi_residual_profile(sym2, 1, 1, 1, BUMP, [512])


def test_polar_main_term_guards():
    with pytest.raises(ValueError):
        polar_main_term(D3, 2, 1, 3, BUMP)
    with pytest.raises(NotCoprimeError):
        polar_main_term(D3, 1, 2, 4, BUMP)


# ---------------------------------------------------------------------------
# the identity itself


def test_identity_closes_at_modulus_one():
    sides = voronoi_residual_profile(D3, 1, 1, 1, BUMP, [4096])[0]
    assert sides.lhs.real == pytest.approx(674.1472484286, rel=1e-9)
    assert abs(sides.lhs.imag) <= 1e-9 * abs(sides.lhs)
    assert sides.main_term.real == pytest.approx(673.472385157, rel=1e-9)
    rel = abs(sides.lhs - sides.rhs) / abs(sides.lhs)
    assert rel <= 1e-5  # measured 4.1e-7
    assert abs(sides.lhs - sides.rhs) <= sides.truncation.tail_estimate


def test_identity_residual_profile_smoke():
    # the flagship configuration at reduced truncations: the dual side
    # (twisted transforms plus the polar residue) must already track the
    # coefficient side and improve with the cutoff
    prof = voronoi_residual_profile(D3, 1, 1, 3, BUMP, [2**12, 2**14])
    assert [s.truncation.m2_cutoff for s in prof] == [2**12, 2**14]
    lhs = prof[0].lhs
    assert lhs == prof[1].lhs
    assert lhs.real == pytest.approx(215.8200014827, rel=1e-9)
    assert lhs.imag == pytest.approx(4.1486864310, rel=1e-9)
    rels = [abs(s.lhs - s.rhs) / abs(s.lhs) for s in prof]
    assert rels[0] <= 2e-3  # measured 4.9e-4
    assert rels[1] <= 3e-4  # measured 8.5e-5
    assert rels[1] <= 0.5 * rels[0]
    assert prof[1].truncation.tail_estimate < prof[0].truncation.tail_estimate
    for s in prof:
        assert s.main_term.real == pytest.approx(208.312561297, rel=1e-9)
        assert abs(s.lhs - s.rhs) <= s.truncation.tail_estimate
    # the benchmark's configuration: the dual side pinned to the values of
    # the per-block, two-build profile, and the tail estimates to those of
    # the seam at x = 20 (_TAIL_XLO = 1e3), whose ladder allowances cover
    # x in (20, 60]
    pins = [
        (215.72722723854594 + 4.200760396954996j, 47.222574045325935),
        (215.83822137970364 + 4.149749147611532j, 15.675978979551433),
    ]
    for s, (rhs, tail) in zip(prof, pins):
        assert abs(s.rhs - rhs) <= 1e-12 * abs(rhs)
        assert s.truncation.tail_estimate == pytest.approx(tail, rel=1e-12)


def test_identity_starts_no_thread(monkeypatch):
    # so its results cannot depend on a thread count
    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    sides = voronoi_residual_profile(D3, 1, 1, 3, BUMP, [512], threads=4)[0]
    assert abs(sides.lhs - sides.rhs) <= sides.truncation.tail_estimate


def test_profile_transforms_each_distinct_argument_once(spec, monkeypatch):
    # c = 3: the arguments x = 9 m2 / 27 of m1 = 3 repeat those of m1 = 1 at
    # every ninth m2.  One contour_kernel call builds both orders as the
    # rows of one kernel, applied once to the 540 distinct arguments up
    # to x_exact = 1000 / 50, and one ladder takes the rest.  At arguments
    # of both blocks, exact and far-tail, the values are those of
    # voronoi_kernel on the same grid and of _tail_asymptotic
    applied, ladders, builds, applies = [], [], [], []
    kernel_values, tail_asymptotic = vo._kernel_values, vo._tail_asymptotic
    build, apply = vo.contour_kernel, quadrature.ContourKernel.apply

    def spy_kernel(kern, abscissae, xs):
        applied.append((dict(abscissae), xs, kernel_values(kern, abscissae, xs)))
        return applied[-1][2]

    def spy_ladder(spec, xs):
        ladders.append((xs, tail_asymptotic(spec, xs)))
        return ladders[-1][1]

    monkeypatch.setattr(vo, "_kernel_values", spy_kernel)
    monkeypatch.setattr(vo, "_tail_asymptotic", spy_ladder)
    monkeypatch.setattr(vo, "contour_kernel", lambda *a, **kw: builds.append(len(a[2])) or build(*a, **kw))
    monkeypatch.setattr(
        quadrature.ContourKernel, "apply", lambda kern, y: applies.append(kern.w.shape[0]) or apply(kern, y)
    )
    voronoi_residual_profile(D3, 1, 1, 3, BUMP, [2**14])
    assert builds == [2] and applies == [2]
    assert [abscissae for abscissae, _, _ in applied] == [{0: -0.5, 1: -1.5}]
    assert len(ladders) == 1
    exact_xs, tail_xs = applied[0][1], ladders[0][0]
    # m1 = 1 gives the exact arguments m2 <= 540, m1 = 3 the m2 <= 60 among
    # them; past the seam m1 = 3 repeats m1 = 1 at m2 = 61 .. 1820
    assert exact_xs.size == np.unique(exact_xs).size == 540 and exact_xs[-1] == 20.0
    assert tail_xs.size == np.unique(tail_xs).size == (16384 - 540) + (16384 - 60) - 1760 == 30408
    samples = {1: [1, 300, 540, 541, 9000, 16384], 3: [1, 30, 60, 61, 1820, 16384]}
    vals, errs = applied[0][2]
    for m1, m2s in samples.items():
        xs = np.array(m2s) * m1 * m1 / 27
        near, far = xs[xs <= 20.0], xs[xs > 20.0]
        i, j = np.searchsorted(exact_xs, near), np.searchsorted(tail_xs, far)
        assert np.array_equal(exact_xs[i], near) and np.array_equal(tail_xs[j], far)
        for k in (0, 1):
            # the grid of voronoi_kernel is sized by its extreme arguments
            direct, err = voronoi_kernel(spec, k, np.concatenate([exact_xs[[0, -1]], near]))
            # measured 0 (order 0) and 4.4e-16 (order 1)
            assert np.all(np.abs(vals[k, i] - direct[2:]) <= 1e-14 * np.abs(direct[2:]))
            assert np.all(np.abs(errs[k, i] - err[2:]) <= 1e-14 * err[2:])
            ladder = tail_asymptotic(spec, far)
            assert np.array_equal(ladders[0][1][k][j], ladder[k])
            assert np.array_equal(ladders[0][1][2 + k][j], ladder[2 + k])


@pytest.mark.parametrize("mu", [(0j, 0j, 0j), (0.2 + 0j, -0.2 + 0j, 0j)])
def test_both_orders_on_one_grid_match_single_builds(mu, monkeypatch):
    # D3's orders lie on one Mellin line, Re s = -sigma_k - k = 1/2: one FFT,
    # evaluated once per node of the longer row.  Real mu = (0.2, -0.2, 0)
    # puts sigma_0 = -0.3 half a unit right of the order-0 poles, and the
    # lines Re s = 0.3 and 1/2 differ: one FFT per order.  Either way each
    # order's row is its single-order build bit for bit, and its values,
    # moved from the kernel's sigma_0 to sigma_k, are the single build's to
    # rounding
    form = GL3Form("mu", GammaData(tuple(-m for m in mu)), GammaData(mu), default_satake=(1 + 0j, 1 + 0j, 1 + 0j))
    spec = VoronoiKernelSpec(form, BUMP)
    sigmas = {k: _neutral_abscissa(spec, k) for k in (0, 1)}
    assert sigmas[0] == pytest.approx(-0.5 if mu[0] == 0 else -0.3) and sigmas[1] == -1.5
    built, evaluated = [], []
    mellin_line = vo._mellin_line

    def counting_line(phi, support, re_s):
        built.append(re_s)
        line = mellin_line(phi, support, re_s)
        return lambda v: evaluated.append(np.size(v)) or line(v)

    monkeypatch.setattr(vo, "_mellin_line", counting_line)
    pair = _phi_contour_kernels(spec, sigmas, 5.0)
    monkeypatch.setattr(vo, "_mellin_line", mellin_line)
    assert pair.sigma == sigmas[0] and pair.w.shape[0] == 2
    xs = np.array([0.05, 1.0, 7.0])
    values, errors = _kernel_values(pair, sigmas, xs)
    lines = {-sigma - k: 0 for k, sigma in sigmas.items()}
    for k, sigma in sigmas.items():
        alone = _phi_contour_kernels(spec, {k: sigma}, 5.0)
        n = alone.v.size
        lines[-sigma - k] = max(lines[-sigma - k], n)
        assert alone.sigma == sigma
        assert np.array_equal(pair.v[:n], alone.v) and np.array_equal(pair.w[k, :n], alone.w[0])
        assert np.all(pair.w[k, n:] == 0)
        assert pair.tail_estimate[k] == alone.tail_estimate[0]
        (value,), (error,) = _kernel_values(alone, {k: sigma}, xs)
        assert np.all(np.abs(values[k] - value) <= 1e-15 * np.abs(value))
        assert np.all(np.abs(errors[k] - error) <= 1e-15 * error)
    assert built == list(lines) == ([0.5] if mu[0] == 0 else [-sigmas[0], 0.5])
    # each line's mass at v = 0, then each node of the largest grid on it once
    assert evaluated[: len(lines)] == [1] * len(lines)
    assert sum(evaluated[len(lines) :]) == sum(lines.values())


def test_identity_is_deterministic():
    a = voronoi_residual_profile(D3, 1, 1, 3, BUMP, [512])[0]
    b = voronoi_residual_profile(D3, 1, 1, 3, BUMP, [512])[0]
    assert a.lhs == b.lhs
    assert a.rhs == b.rhs
    assert a.main_term == b.main_term
    assert a.truncation == b.truncation


def test_identity_input_guards():
    with pytest.raises(ValueError):
        voronoi_residual_profile(D3, 0, 1, 3, BUMP, [64])
    with pytest.raises(ValueError):
        voronoi_residual_profile(D3, 1, 1, 3, BUMP, [2])
    with pytest.raises(NotCoprimeError):
        voronoi_residual_profile(D3, 1, 2, 4, BUMP, [64])
    with pytest.raises(ValueError, match="n must be a positive integer, got 1.5"):
        voronoi_residual_profile(D3, 1.5, 1, 3, BUMP, [16])
    with pytest.raises(ValueError, match="c must be a positive integer, got 0"):
        voronoi_residual_profile(D3, 1, 1, 0, BUMP, [16])
    with pytest.raises(ValueError, match="m2_cutoff must be a positive integer, got 16.7"):
        voronoi_residual_profile(D3, 1, 1, 3, BUMP, [64, 16.7])
