"""Smoothed functional-equation weights and central values.

Cross-checks, in rough order: the cosine damper's algebra; the degree-2
weight's flat region, decay ladder, and leading contour form; the degree-6
tensor weight's flat region and variant degeneracy; the |zeta(1/2+ir)|^2
divisor identity against the Euler-Maclaurin oracle (fully independent
path); central values on zero / continuous-series surrogate fixtures; and
the tensor factorization L(1/2, f x E_r) = L(1/2+ir, f) L(1/2-ir, f), whose
two sides share no code beyond the gamma plumbing.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfunlab import afe, quadrature
from lfunlab.afe import (
    FixtureCoverageError,
    MaassFixture,
    WeightSpec,
    _rs_adaptive_cutoff,
    central_value_gl2,
    central_value_rs,
    central_value_rs_eisenstein,
    cosine_power_damper,
    eisenstein_coefficients,
    gl2_afe_weight,
    gl2_afe_weight_batch,
    gl2_afe_weight_grid,
    gl3_critical_value,
    rankin_selberg_afe_weight,
    rankin_selberg_afe_weight_batch,
    rankin_selberg_afe_weight_grid,
    zeta_square_afe,
)
from lfunlab.heckegl3 import GL3Form, PolarFormError, symmetric_square_form, triple_divisor_form
from lfunlab.quadrature import contour_kernel
from lfunlab.special import PoleError, zeta_with_error

SPEC = WeightSpec()
D3 = triple_divisor_form()


@pytest.fixture(scope="module")
def sym2():
    return symmetric_square_form()


def _zeta_square_oracle(r: float) -> float:
    val, err = zeta_with_error(np.array([0.5 + 1j * r]))
    assert float(err[0]) < 1e-12
    return abs(complex(val[0])) ** 2


# ---------------------------------------------------------------------------
# damper


def test_weight_spec_validation():
    with pytest.raises(ValueError):
        WeightSpec(A=7)
    with pytest.raises(ValueError):
        WeightSpec(A=2)
    with pytest.raises(ValueError):
        WeightSpec(sigma_u=8.0)  # on the damper pole
    with pytest.raises(ValueError):
        WeightSpec(tail_tolerance=0.0)
    assert WeightSpec().A == 16


def test_damper_unit_at_zero():
    assert cosine_power_damper(SPEC, 0.0) == pytest.approx(1.0)
    assert cosine_power_damper(SPEC, 0.0, "rs") == pytest.approx(1.0)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-7.5, 7.5),
    st.floats(-20.0, 20.0),
)
def test_damper_even_and_tensor_is_cube(x, v):
    u = complex(x, v)
    g = cosine_power_damper(SPEC, u)
    assert g == pytest.approx(cosine_power_damper(SPEC, -u), rel=1e-12)
    f = cosine_power_damper(SPEC, u, "rs")
    assert f == pytest.approx(g**3, rel=1e-10)


def test_damper_pole_guard():
    with pytest.raises(PoleError):
        cosine_power_damper(SPEC, SPEC.A / 2.0)
    with pytest.raises(ValueError):
        cosine_power_damper(SPEC, 1.0, "unknown")


def test_damper_decays_exponentially_in_height():
    # on the imaginary axis G(iv) = cosh(pi v / A)^{-A}, which settles onto
    # the 2^A e^{-pi v} asymptote once v >> A/pi
    g5 = abs(cosine_power_damper(SPEC, 5j))
    g10 = abs(cosine_power_damper(SPEC, 10j))
    exact = (math.cosh(10 * math.pi / SPEC.A) / math.cosh(5 * math.pi / SPEC.A)) ** -SPEC.A
    assert g10 / g5 == pytest.approx(exact, rel=1e-10)
    g20 = abs(cosine_power_damper(SPEC, 20j))
    g40 = abs(cosine_power_damper(SPEC, 40j))
    assert g40 / g20 == pytest.approx(math.exp(-20 * math.pi), rel=0.05)


# ---------------------------------------------------------------------------
# degree-2 weight


def test_gl2_weight_flat_region():
    # y far below the spectral scale: weight within 1e-6 of 1
    u = gl2_afe_weight(SPEC, 0.1, 100.0)
    assert abs(u - 1.0) < 1e-6


def test_gl2_weight_far_tail():
    assert abs(gl2_afe_weight(SPEC, 5000.0, 50.0)) < 1e-10


def test_gl2_weight_matches_leading_contour_form():
    # for y ~ t the weight approaches (1/2 pi i) int (t/2 pi y)^u G(u) du/u
    # with relative defect O(1/t) from the Stirling correction
    t = 100.0
    kern = contour_kernel(
        lambda u: cosine_power_damper(SPEC, u) / u,
        SPEC.sigma_u,
        width=0.5,
        tol=SPEC.tail_tolerance,
        symmetric=True,
        height=20.0,
        cap=400.0,
    )
    lead = complex(kern.apply(np.array([2 * math.pi * t / t]))[0])
    u = gl2_afe_weight(SPEC, t, t)
    assert abs(u - lead) / abs(lead) < 5.0 / t


def test_gl2_weight_batch_matches_scalar():
    ys = [0.5, 3.0, 77.0, 1234.0]
    t = 9.0
    batch = gl2_afe_weight_batch(SPEC, ys, t)
    for y, b in zip(ys, batch):
        assert complex(b) == pytest.approx(gl2_afe_weight(SPEC, y, t), abs=1e-13)


@pytest.mark.parametrize("A,min_exp", [(8, 2.5), (16, 4.8)])
def test_gl2_weight_decay_ladder(A, min_exp):
    """Dyadic decay past y > 10t.

    The damper's order-A pole at Re u = A/2 caps the contour shift, so the
    local dyadic exponent climbs toward A/2 like A/2 - (A-1)/log y rather
    than reaching the damper exponent A itself; measured exponents at t = 7
    are 2.67 -> 3.10 (A = 8) and 5.04 -> 6.00 (A = 16) over this window.
    """
    sp = WeightSpec(A=A)
    t = 7.0
    vals = [abs(gl2_afe_weight(sp, 10 * t * 2.0**k, t)) for k in range(6)]
    exps = [math.log2(a / b) for a, b in zip(vals, vals[1:])]
    assert all(a > b for a, b in zip(vals, vals[1:]))  # strictly decreasing
    assert min(exps) > min_exp
    assert all(b > a - 0.05 for a, b in zip(exps, exps[1:]))  # rate tightens
    for k, v in enumerate(vals):
        assert v < (10 * 2.0**k) ** -2.5  # crude absolute envelope in y/t


# ---------------------------------------------------------------------------
# degree-6 tensor weight


def test_rs_weight_flat_region_and_tail():
    v = rankin_selberg_afe_weight(SPEC, 1.0, 50.0, D3)
    assert abs(v - 1.0) < 1e-3
    assert abs(rankin_selberg_afe_weight(SPEC, 1.0e6, 5.0, D3)) < 1e-8


def test_rs_weight_variants_agree_for_degenerate_form():
    # the degenerate form is self-dual with identical archimedean data, so
    # the direct and dual weights must coincide
    rng = np.random.default_rng(20260816)
    for _ in range(50):
        y = float(np.exp(rng.uniform(0.0, 10.0)))
        t = float(rng.uniform(0.5, 40.0))
        a = rankin_selberg_afe_weight(SPEC, y, t, D3, "direct")
        b = rankin_selberg_afe_weight(SPEC, y, t, D3, "dual")
        assert abs(a - b) <= 1e-12 * (1.0 + abs(a))


def test_rs_weight_batch_matches_scalar(sym2):
    ys = [2.0, 40.0, 900.0]
    t = 3.0
    batch = rankin_selberg_afe_weight_batch(SPEC, ys, t, sym2, "dual")
    for y, b in zip(ys, batch):
        assert complex(b) == pytest.approx(
            rankin_selberg_afe_weight(SPEC, y, t, sym2, "dual"), abs=1e-13
        )


# ---------------------------------------------------------------------------
# weights over a vector of t: one contour grid

T_GRID = np.linspace(0.0, 60.0, 8)
# tempered spherical parameters: non-real mu, so the tensor kernel is not
# conjugate-symmetric and keeps both half-lines
TEMPERED = GL3Form(
    label="tempered", alpha=0.4j, beta=-0.1j, gamma=-0.3j,
    mu=(0.4j, -0.1j, -0.3j), mu_dual=(-0.4j, 0.1j, 0.3j),
)
WEIGHTS = {
    "gl2": (lambda ts, ln: afe._gl2_kernel(SPEC, ts, ln), lambda ys, ts: gl2_afe_weight_grid(SPEC, ys, ts),
            lambda y, t: gl2_afe_weight(SPEC, y, t)),
}
for _form in (D3, TEMPERED):
    for _variant in ("direct", "dual"):
        WEIGHTS[f"{_form.label}-{_variant}"] = (
            lambda ts, ln, f=_form, v=_variant: afe._rs_kernel(SPEC, ts, f, v, ln),
            lambda ys, ts, f=_form, v=_variant: rankin_selberg_afe_weight_grid(SPEC, ys, ts, f, v),
            lambda y, t, f=_form, v=_variant: rankin_selberg_afe_weight(SPEC, y, t, f, v),
        )


def _allowance(kern, y):
    # the kernel's accuracy target at y: its tail_estimate plus tail_tolerance
    # of its absolute mass (the yardstick of its stopping rule), doubled for
    # a conjugate-symmetric kernel, whose mirror half is implicit
    per_half = kern.tail_estimate + SPEC.tail_tolerance * float(np.sum(np.abs(kern.w)))
    return 2.0 * per_half * y**-SPEC.sigma_u


@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_t_grid_blocking_is_bit_identical(name, monkeypatch):
    kernels, _, _ = WEIGHTS[name]
    default = list(kernels(T_GRID, 3.0))
    monkeypatch.setattr(quadrature, "_ROW_ELEMENTS", 1)  # one row per block and per call
    single = list(kernels(T_GRID, 3.0))
    for a, b in zip(default, single, strict=True):
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.w, b.w)
        assert a.tail_estimate == b.tail_estimate


@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_t_grid_matches_scalar_weights(name):
    kernels, grid, scalar = WEIGHTS[name]
    ys = np.array([1.0, 30.0, 900.0])
    values = grid(ys, T_GRID)
    assert values.shape == (T_GRID.size, ys.size)
    for t, row, kern in zip(T_GRID, values, kernels(T_GRID, math.log(900.0)), strict=True):
        for y, value in zip(ys, row):
            alone = next(kernels(t, abs(math.log(y))))
            assert abs(value - scalar(y, t)) <= _allowance(kern, y) + _allowance(alone, y)  # measured <= 3.4e-3 of it


# ---------------------------------------------------------------------------
# continuous-series coefficients and the |zeta|^2 identity


def test_eisenstein_coefficients_divisor_formula():
    r = 1.7
    eta = eisenstein_coefficients(60, r)
    assert eta.dtype == np.float64
    assert eta[1] == pytest.approx(1.0, abs=1e-14)
    for n in range(1, 61):
        direct = sum(
            (a / (n // a)) ** (1j * r) for a in range(1, n + 1) if n % a == 0
        )
        assert eta[n] == pytest.approx(direct.real, abs=1e-12)
        assert abs(direct.imag) < 1e-12
    for p in (2, 3, 5):
        assert eta[p] == pytest.approx(2 * math.cos(r * math.log(p)), abs=1e-12)


@pytest.mark.parametrize("r", [0.0, 2.0, 10.0, 30.0])
def test_zeta_square_identity_matches_euler_maclaurin(r):
    # the identity path: divisor sums against the degree-2 weight plus the
    # explicit polar correction; the oracle: Euler-Maclaurin zeta.  At r = 2
    # the correction is roughly half the main term, so agreement at 1e-9
    # exercises it at full strength.
    val = zeta_square_afe(r, SPEC)
    truth = _zeta_square_oracle(r)
    assert abs(val - truth) / truth < 1e-9


def test_zeta_square_nonnegative_and_guarded():
    for r in (0.0, 0.3, 1.0, 4.0, 17.0):
        assert zeta_square_afe(r, SPEC) > 0.0
    with pytest.raises(ValueError):
        zeta_square_afe(-1.0, SPEC)


# ---------------------------------------------------------------------------
# degree-2 central values


def test_central_value_gl2_zero_fixture():
    fx = MaassFixture(t=3.0, coeffs=(0.0,) * 2001, source="zero")
    assert central_value_gl2(fx, SPEC, l_cutoff=1500) == 0.0


def test_central_value_gl2_eisenstein_surrogate():
    # eta(l, 10) as the coefficient fixture makes the central value
    # |zeta(1/2 + 10i)|^2, checked against the Euler-Maclaurin oracle with
    # the polar correction folded in analytically: at t = 10 the residue
    # terms sit at e^{-pi r} ~ 2e-14 of the main term, below the tolerance
    eta = eisenstein_coefficients(4096, 10.0)
    fx = MaassFixture(t=10.0, coeffs=tuple(map(float, eta)), source="eta r=10")
    val = central_value_gl2(fx, SPEC)
    assert abs(val - _zeta_square_oracle(10.0)) / _zeta_square_oracle(10.0) < 1e-8


def test_central_value_gl2_truncation_stability():
    eta = eisenstein_coefficients(4096, 10.0)
    fx = MaassFixture(t=10.0, coeffs=tuple(map(float, eta)), source="eta r=10")
    a = central_value_gl2(fx, SPEC, l_cutoff=1024)
    b = central_value_gl2(fx, SPEC, l_cutoff=2048)
    assert abs(a - b) < 1e-9


def test_central_value_gl2_coverage_error_names_requirement():
    fx = MaassFixture(t=10.0, coeffs=(0.0,) * 51, source="short")
    with pytest.raises(FixtureCoverageError, match="requires l <="):
        central_value_gl2(fx, SPEC)


def test_maass_fixture_validation():
    with pytest.raises(ValueError):
        MaassFixture(t=0.0, coeffs=(0.0, 1.0), source="bad")
    with pytest.raises(ValueError):
        MaassFixture(t=1.0, coeffs=(0.0, 1.0), source="bad", parity="odd")
    with pytest.raises(ValueError):
        MaassFixture(t=1.0, coeffs=[[0.0, 1.0]], source="bad").coeff_array()


# ---------------------------------------------------------------------------
# tensor central values


def test_central_value_rs_zero_fixture(sym2):
    fx = MaassFixture(t=2.0, coeffs=(0.0,) * 501, source="zero")
    assert central_value_rs(sym2, fx, SPEC, cutoff=500) == 0.0


def test_central_value_rs_fixture_matches_eisenstein_route(sym2):
    r = 1.0
    C = _rs_adaptive_cutoff(sym2, r, SPEC)
    eta = eisenstein_coefficients(C, r)
    fx = MaassFixture(t=r, coeffs=tuple(map(float, eta)), source="eta r=1")
    a = central_value_rs(sym2, fx, SPEC)
    b = central_value_rs_eisenstein(sym2, r, SPEC)
    assert abs(a - b) <= 1e-10 * abs(b)


def test_central_value_rs_truncation_stability(sym2):
    r = 1.0
    C = _rs_adaptive_cutoff(sym2, r, SPEC)
    eta = eisenstein_coefficients(C, r)
    fx = MaassFixture(t=r, coeffs=tuple(map(float, eta)), source="eta r=1")
    full = central_value_rs(sym2, fx, SPEC, cutoff=C)
    half = central_value_rs(sym2, fx, SPEC, cutoff=C // 2)
    assert abs(full - half) / abs(full) < 1e-7


def test_central_value_rs_coverage_error(sym2):
    fx = MaassFixture(t=1.0, coeffs=(0.0,) * 101, source="short")
    with pytest.raises(FixtureCoverageError, match="requires n <="):
        central_value_rs(sym2, fx, SPEC)


def test_rs_eisenstein_factorization(sym2):
    # flagship identity: the coefficient double sum at r = 1 against the
    # product of critical-line values from the completely separate
    # degree-3 functional-equation route; measured agreement 4e-10
    both = central_value_rs_eisenstein(sym2, 1.0, SPEC)
    l_plus = gl3_critical_value(sym2, 0.5 + 1j, SPEC)
    prod = l_plus * np.conj(l_plus)
    assert abs(both - prod) / abs(prod) < 1e-6
    assert abs(both.imag) < 1e-8 * abs(both)


def test_rs_eisenstein_center_is_square(sym2):
    val = central_value_rs_eisenstein(sym2, 0.0, SPEC)
    center = gl3_critical_value(sym2, 0.5 + 0j, SPEC)
    assert val.real > 0.0
    assert abs(val - center * center) / abs(val) < 1e-6


def test_rs_eisenstein_rejects_polar_form():
    with pytest.raises(PolarFormError):
        central_value_rs_eisenstein(D3, 1.0, SPEC)


# ---------------------------------------------------------------------------
# degree-3 critical-line values


def test_gl3_value_real_at_center(sym2):
    v = gl3_critical_value(sym2, 0.5 + 0j, SPEC)
    assert abs(v.imag) < 1e-10 * abs(v)


def test_gl3_conjugate_symmetry(sym2):
    v = gl3_critical_value(sym2, 0.5 + 2j, SPEC)
    w = gl3_critical_value(sym2, 0.5 - 2j, SPEC)
    assert abs(v - np.conj(w)) / abs(v) < 1e-10


def test_gl3_weight_independence(sym2):
    v16 = gl3_critical_value(sym2, 0.5 + 2j, WeightSpec(A=16))
    v8 = gl3_critical_value(sym2, 0.5 + 2j, WeightSpec(A=8))
    assert abs(v16 - v8) / abs(v16) < 1e-7


def test_gl3_guards(sym2):
    with pytest.raises(PolarFormError):
        gl3_critical_value(D3, 0.5 + 1j, SPEC)
    with pytest.raises(ValueError):
        gl3_critical_value(sym2, 0.6 + 1j, SPEC)


def test_convexity_scale_envelopes_fitted(sym2):
    # loose fitted envelopes over the fixture suite, not theorems: degree-2
    # squares below 3 (1+r)^0.7, degree-3 moduli below 3 (1+r)^0.8
    for r in (2.0, 10.0, 30.0):
        assert zeta_square_afe(r, SPEC) < 3.0 * (1 + r) ** 0.7
    for r in (2.0, 5.0, 10.0):
        assert abs(gl3_critical_value(sym2, 0.5 + 1j * r, SPEC)) < 3.0 * (1 + r) ** 0.8
