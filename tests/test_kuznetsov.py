"""Tests for the rank-2 trace-identity module: test-function weights, the
two oscillatory Bessel transforms and their independent evaluation routes,
both sides of the identity, and the smoothed diagonal weights."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfunlab import kuznetsov as kz
from lfunlab.afe import FixtureCoverageError, MaassFixture, WeightSpec, gl2_afe_weight, rankin_selberg_afe_weight
from lfunlab.heckegl3 import GL3Form, symmetric_square_form, triple_divisor_form
from lfunlab.special import PoleError, RegimeError
from lfunlab.util import LRUCache

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
    with pytest.raises(ValueError):
        kz.gaussian_test_function(0.0)


# ---------------------------------------------------------------------------
# diagonal and continuous weights


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
        se = kz.bessel_transform(h, "+", x, route="series")
        assert abs(se - ke) < 1e-13
        assert abs(ke.imag) < 1e-15
        if x in HPLUS_ORACLE:
            assert ke.real == pytest.approx(HPLUS_ORACLE[x], rel=2e-9, abs=1e-11)


def test_plus_transform_series_accurate_at_large_argument():
    # near the mpmath J-series cap (2 pi x = 21.4 < 40) the series stays on the oracle
    h = kz.gaussian_test_function(1.0)
    se = kz.bessel_transform(h, "+", 3.4, route="series")
    assert se.real == pytest.approx(HPLUS_ORACLE[3.4], rel=1e-8)


def test_plus_transform_kernel_route_dual_agreement():
    h = kz.gaussian_test_function(1.0)
    for x in (0.5, 2.0, 5.0):
        ke = kz.bessel_transform(h, "+", x, route="kernel")
        se = kz.bessel_transform(h, "+", x, route="series")
        assert abs(ke - se) < 3e-9  # requirement is 1e-6; routes deliver ~1e-10
        assert abs(ke - se) < 1e-6


def test_minus_transform_routes_and_oracle():
    # 2 pi x = 4 pi (x = 2) is trace_identity's c = 1; 2 pi x = 30.8 is
    # geometric_side(2, 3, ...)'s c = 1, where Hminus is only ~3e-13
    h = kz.gaussian_test_function(1.0)
    for x in (*HMINUS_ORACLE, 2.0 * math.sqrt(6.0)):
        se = kz.bessel_transform(h, "-", x, route="series")
        ke = kz.bessel_transform(h, "-", x)
        assert abs(ke - se) < min(1e-13, 1e-9 * abs(se))
        if x in HMINUS_ORACLE:
            assert se.real == pytest.approx(HMINUS_ORACLE[x], rel=1e-9)
            assert abs(se.imag) < 1e-12
        if x < 1.0:
            assert abs(kz.bessel_transform(h, "-", x, route="direct") - se) < 1e-11


def test_bessel_transform_validation():
    h = kz.gaussian_test_function(1.0)
    with pytest.raises(ValueError, match="sign"):
        kz.bessel_transform(h, "x", 1.0)
    with pytest.raises(ValueError, match="positive"):
        kz.bessel_transform(h, "+", 0.0)
    with pytest.raises(ValueError, match="minus transform only"):
        kz.bessel_transform(h, "+", 1.0, route="direct")
    for route in ("nope", "auto", "shifted"):
        with pytest.raises(ValueError, match="unknown route"):
            kz.bessel_transform(h, "+", 1.0, route=route)
    with pytest.raises(TypeError):
        kz.bessel_transform(lambda t: t, "+", 1.0)
    # h(t) = e^{-(t/20)^2} needs t up to ~240, past where cosh(pi t) is finite
    with pytest.raises(RegimeError, match="J-series oracle"):
        kz.bessel_transform(kz.gaussian_test_function(20.0), "+", 0.05, route="series")


def test_kernel_route_reaches_no_mpmath(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("mpmath Bessel evaluation reached")

    monkeypatch.setattr(kz, "bessel_imag_order", refuse)
    monkeypatch.setattr(kz, "_k_times_sinh", refuse)
    h = kz.gaussian_test_function(2.0)
    rep = kz.kuznetsov_residual(1, 1, h, [], 800, 40.0)
    assert 0.0 < rep.residual.real < 0.02
    for z in (0.016, 4.0 * math.pi, 60.0):
        for sign in "+-":
            assert np.isfinite(kz.bessel_transform(h, sign, z / (2.0 * math.pi)).real)
    d3 = triple_divisor_form()
    for variant in ("direct_plus", "direct_minus"):
        assert np.isfinite(kz.diagonal_weight(1.0, 2, 1, 1, d3, variant, x=0.5).real)


# ---------------------------------------------------------------------------
# geometric side


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


def test_geometric_side_thread_count_invariance():
    h = kz.gaussian_test_function(2.0)
    a = kz.geometric_side(1, 1, h, 60, threads=1)
    b = kz.geometric_side(1, 1, h, 60, threads=4)
    assert a == b  # bitwise: transforms outside the threads, ordered summation


def test_geometric_side_validation():
    h = kz.gaussian_test_function(1.0)
    with pytest.raises(ValueError):
        kz.geometric_side(0, 1, h, 10)
    with pytest.raises(ValueError):
        kz.geometric_side(1, 1, h, 0)


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
    assert 0.0 < rep.residual.real < 0.02
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
    with pytest.raises(ValueError, match="width T"):
        kz.diagonal_weight(0.0, 1, 1, 1, d3, "direct")
    with pytest.raises(ValueError, match="positive integers"):
        kz.diagonal_weight(1.0, 0, 1, 1, d3, "direct")


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
    d3 = triple_divisor_form()
    base = kz.diagonal_weight(20.0, 1, 1, 1, d3, "direct")
    fine = kz.diagonal_weight(20.0, 1, 1, 1, d3, "direct", resolution_factor=2.0)
    assert abs(fine - base) < 1e-8 * (1.0 + abs(base))


def test_diagonal_weight_uv_cache_counts():
    d3 = triple_divisor_form()
    kz.diagonal_weight(0.5, 1, 1, 1, d3, "direct")
    before = kz.uv_cache_stats()
    kz.diagonal_weight(0.5, 1, 1, 1, d3, "direct")
    after = kz.uv_cache_stats()
    assert after["misses"] == before["misses"]
    assert after["hits"] > before["hits"]


def test_diagonal_weight_uv_cache_keys_on_gamma_data():
    # the tensor weight reads form.mu / form.mu_dual, not alpha, beta, gamma:
    # a form sharing D3's (zero) alpha, beta, gamma but carrying other gamma
    # data must not be served D3's cached weights
    d3 = triple_divisor_form()
    other = GL3Form(
        label="mu-only", alpha=0j, beta=0j, gamma=0j,
        mu=(0.2, 0.1, -0.3), mu_dual=(-0.2, -0.1, 0.3), maass_type=False,
    )
    spec = WeightSpec()
    ts = np.array([0.3])
    for variant in ("direct", "dual"):
        fresh = rankin_selberg_afe_weight(spec, 1.0, 0.3, other, variant=variant)
        cached_d3 = kz._cached_rs(spec, d3, variant, 1.0, ts)[0]
        assert kz._cached_rs(spec, other, variant, 1.0, ts)[0] == fresh
        assert abs(fresh - cached_d3) > 1e-2 * abs(cached_d3)  # measured 17 %


def test_diagonal_weight_dual_reuses_self_dual_arrays():
    # D3 is self-dual with mu_dual == mu, so "dual" reads the same gamma data
    # as "direct" and is served its arrays without a miss
    d3 = triple_divisor_form()
    assert tuple(d3.mu) == tuple(d3.mu_dual)
    direct = kz.diagonal_weight(0.7, 1, 1, 1, d3, "direct")
    before = kz.uv_cache_stats()
    dual = kz.diagonal_weight(0.7, 1, 1, 1, d3, "dual")
    after = kz.uv_cache_stats()
    assert dual == direct
    assert after["misses"] == before["misses"]
    assert after["hits"] == before["hits"] + 2  # one degree-2 and one tensor array


def test_profile_cache_is_bounded():
    bound = kz._PROFILE_CACHE.maxsize
    for k in range(bound + 4):
        kz.bessel_transform(kz.gaussian_test_function(1.0 + 0.1 * k), "+", 0.7)
    assert len(kz._PROFILE_CACHE) <= bound


def test_profile_cache_keys_on_rel_tol(monkeypatch):
    # 3e-12 and 1e-12 round to the same number of digits; a profile cut for
    # the looser tolerance must not serve the tighter one
    monkeypatch.setattr(kz, "_PROFILE_CACHE", LRUCache(maxsize=8))
    h = kz.gaussian_test_function(1.0)
    kz.bessel_transform(h, "+", 1.0, rel_tol=3e-12)
    kz.bessel_transform(h, "+", 1.0, rel_tol=1e-12)
    assert (kz._PROFILE_CACHE.hits, kz._PROFILE_CACHE.misses) == (0, 2)
    kz.bessel_transform(h, "-", 1.0, rel_tol=1e-12)
    assert (kz._PROFILE_CACHE.hits, kz._PROFILE_CACHE.misses) == (1, 2)


def _effective_test_function(form, spec, l_index, nm_index):
    def ev(t):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.array(
            [
                np.exp(-float(tt) ** 2)
                * gl2_afe_weight(spec, float(l_index), abs(float(tt)))
                * rankin_selberg_afe_weight(spec, float(nm_index), abs(float(tt)), form, variant="direct")
                for tt in ts
            ]
        )
        return out.reshape(np.shape(t)) if np.ndim(t) else complex(out[0])

    return kz.SpectralTestFunction(evaluator=ev, decay_exponent=5.0, holomorphy_width=0.51, label="afe-effective")


def test_diagonal_weight_plus_matches_transform_oracle():
    d3 = triple_divisor_form()
    spec = WeightSpec()
    v = kz.diagonal_weight(1.0, 2, 1, 1, d3, "direct_plus", x=0.5, weight_spec=spec)
    heff = _effective_test_function(d3, spec, 2, 1)
    ref = kz.bessel_transform(heff, "+", 0.5, route="series", rel_tol=1e-9)
    assert abs(v - ref) < 1e-9 * (1.0 + abs(ref))


def test_diagonal_weight_minus_matches_transform_oracle():
    d3 = triple_divisor_form()
    spec = WeightSpec()
    v = kz.diagonal_weight(1.0, 2, 1, 1, d3, "direct_minus", x=0.5, weight_spec=spec)
    heff = _effective_test_function(d3, spec, 2, 1)
    ref = kz.bessel_transform(heff, "-", 0.5, route="series", rel_tol=1e-9)
    assert abs(v - ref) < 1e-9 * (1.0 + abs(ref))


def test_diagonal_weight_symmetric_square_finite():
    # mu = (-1, -11, -12): every gamma pole lies left of the tensor weight's
    # contour Re u = 1/2, so the weight is defined and evaluates silently
    sym = symmetric_square_form(prime_cap=500)
    v = kz.diagonal_weight(1.0, 1, 1, 1, sym, "direct")
    assert np.isfinite(v.real)
    assert v.real > 0.0
    # Re mu_1 = 3/2 puts the pole of Gamma((1/2 + u - mu_1)/2) at Re u = 1
    wrong = symmetric_square_form(prime_cap=500, mu=(1.5, 0.0, -1.5))
    with pytest.raises(PoleError, match="contour"):
        kz.diagonal_weight(1.0, 1, 1, 1, wrong, "direct")
