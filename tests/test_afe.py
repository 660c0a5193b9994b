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

from lfunlab import afe, quadrature, special
from lfunlab.afe import (
    FixtureCoverageError,
    MaassFixture,
    WeightSpec,
    central_value_gl2,
    central_value_rs,
    central_value_rs_eisenstein,
    cosine_power_damper,
    eisenstein_coefficients,
    gl2_afe_weight_grid,
    gl3_critical_value,
    rankin_selberg_afe_weight_grid,
    zeta_square_afe,
)
from lfunlab.heckegl3 import GL3Form, PolarFormError, coefficient, symmetric_square_form, triple_divisor_form
from lfunlab.quadrature import contour_kernel
from lfunlab.special import GammaData, PoleError, zeta_with_error
from test_quadrature import assert_matches_dense_rows

SPEC = WeightSpec()
D3 = triple_divisor_form()
# a form that is not self-dual at all: gamma != gamma_dual, and a Satake
# triple not closed under inversion, so that A(m, n) != A(n, m)
SKEW = GL3Form("skew", GammaData((1j, 2j, -3j)), GammaData((-1j, -2j, 3j)), default_satake=(2, 0.5j, -1j))


@pytest.fixture(scope="module")
def sym2():
    return symmetric_square_form()


@pytest.fixture
def no_contour(monkeypatch):
    # any contour build fails the test: the argument checks must come first
    def build(*args, **kwargs):
        raise AssertionError("a contour was built")

    monkeypatch.setattr(afe, "contour_kernel", build)


def u_at(spec, y, t):
    # U(y, t) from the grid at one point
    return complex(gl2_afe_weight_grid(spec, [y], [t])[0, 0])


def v_at(spec, y, t, form, variant="direct"):
    return complex(rankin_selberg_afe_weight_grid(spec, [y], [t], form, variant)[0, 0])


def _eta_fixture(r: float, N: int) -> MaassFixture:
    # the continuous-series surrogate eta(., r) as a fixture cut at N
    return MaassFixture(t=r, coeffs=tuple(map(float, eisenstein_coefficients(N, r))), source=f"eta r={r}")


def _stop_and_doubled(monkeypatch, evaluate) -> tuple:
    # evaluate() with a spy on the one dyadic loop: its value, its tol, the
    # cutoff M it stopped at, and the sum at 2M from the same terms
    runs = []
    loop = afe._dyadic_sum

    def spy(terms, tol):
        cutoffs = []
        value = loop(lambda M: cutoffs.append(M) or terms(M), tol)
        runs.append((value, tol, cutoffs[-1], terms))
        return value

    monkeypatch.setattr(afe, "_dyadic_sum", spy)
    evaluate()
    ((value, tol, M, terms),) = runs
    return value, tol, M, complex(terms(2 * M)[1].sum(axis=-1).sum())


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
    for tol in (0.0, math.nan):
        with pytest.raises(ValueError, match="tail_tolerance"):
            WeightSpec(tail_tolerance=tol)
    assert WeightSpec().A == 16


def test_damper_unit_at_zero():
    assert cosine_power_damper(SPEC, 0.0) == pytest.approx(1.0)
    assert cosine_power_damper(SPEC, 0.0, 3) == pytest.approx(1.0)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-7.5, 7.5),
    st.floats(-20.0, 20.0),
)
def test_damper_even_and_tensor_is_cube(x, v):
    u = complex(x, v)
    g = cosine_power_damper(SPEC, u)
    assert g == pytest.approx(cosine_power_damper(SPEC, -u), rel=1e-12)
    f = cosine_power_damper(SPEC, u, 3)
    assert f == pytest.approx(g**3, rel=1e-10)


def test_damper_pole_guard():
    with pytest.raises(PoleError):
        cosine_power_damper(SPEC, SPEC.A / 2.0)


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
    u = u_at(SPEC, 0.1, 100.0)
    assert abs(u - 1.0) < 1e-6


def test_gl2_weight_far_tail():
    assert abs(u_at(SPEC, 5000.0, 50.0)) < 1e-10


def test_gl2_weight_matches_leading_contour_form():
    # for y ~ t the weight approaches (1/2 pi i) int (t/2 pi y)^u G(u) du/u
    # with relative defect O(1/t) from the Stirling correction
    t = 100.0
    kern = contour_kernel(
        lambda u, r: (cosine_power_damper(SPEC, u) / u)[None],
        SPEC.sigma_u,
        [0.0],
        width=0.5,
        tol=SPEC.tail_tolerance,
        symmetric=True,
        height=20.0,
        cap=400.0,
    )
    lead = complex(kern.apply(np.array([2 * math.pi * t / t]))[0, 0])
    u = u_at(SPEC, t, t)
    assert abs(u - lead) / abs(lead) < 5.0 / t


def test_gl2_weight_batch_matches_scalar():
    ys = [0.5, 3.0, 77.0, 1234.0]
    t = 9.0
    batch = gl2_afe_weight_grid(SPEC, ys, [t])[0]
    for y, b in zip(ys, batch):
        assert complex(b) == pytest.approx(u_at(SPEC, y, t), abs=1e-13)


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_weight_grids_reject_non_finite_t(t, sym2, no_contour):
    with pytest.raises(ValueError, match="t must be finite"):
        gl2_afe_weight_grid(SPEC, [1.0], [t])
    with pytest.raises(ValueError, match="t must be finite"):
        rankin_selberg_afe_weight_grid(SPEC, [1.0], [2.0, t], sym2, "dual")


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
    vals = [abs(u_at(sp, 10 * t * 2.0**k, t)) for k in range(6)]
    exps = [math.log2(a / b) for a, b in zip(vals, vals[1:])]
    assert all(a > b for a, b in zip(vals, vals[1:]))  # strictly decreasing
    assert min(exps) > min_exp
    assert all(b > a - 0.05 for a, b in zip(exps, exps[1:]))  # rate tightens
    for k, v in enumerate(vals):
        assert v < (10 * 2.0**k) ** -2.5  # crude absolute envelope in y/t


# ---------------------------------------------------------------------------
# degree-6 tensor weight


def test_rs_weight_flat_region_and_tail():
    v = v_at(SPEC, 1.0, 50.0, D3)
    assert abs(v - 1.0) < 1e-3
    assert abs(v_at(SPEC, 1.0e6, 5.0, D3)) < 1e-8


def test_rs_weight_variants_agree_for_degenerate_form():
    # the degenerate form is self-dual with identical archimedean data, so
    # the direct and dual weights must coincide
    rng = np.random.default_rng(20260816)
    for _ in range(50):
        y = float(np.exp(rng.uniform(0.0, 10.0)))
        t = float(rng.uniform(0.5, 40.0))
        a = v_at(SPEC, y, t, D3, "direct")
        b = v_at(SPEC, y, t, D3, "dual")
        assert abs(a - b) <= 1e-12 * (1.0 + abs(a))


def test_rs_weight_batch_matches_scalar(sym2):
    ys = [2.0, 40.0, 900.0]
    t = 3.0
    batch = rankin_selberg_afe_weight_grid(SPEC, ys, [t], sym2, "dual")[0]
    for y, b in zip(ys, batch):
        assert complex(b) == pytest.approx(
            v_at(SPEC, y, t, sym2, "dual"), abs=1e-13
        )


# ---------------------------------------------------------------------------
# weights over a vector of t: one contour grid

T_GRID = np.linspace(0.0, 60.0, 8)
# tempered spherical data: non-real shifts, not closed under conjugation,
# so the tensor kernel is not conjugate-symmetric and keeps both half-lines
TEMPERED = GL3Form(
    label="tempered", gamma=GammaData((-0.4j, 0.1j, 0.3j)), gamma_dual=GammaData((0.4j, -0.1j, -0.3j)),
)
# gamma data (used, normalizing) of each weight: U, then V1/V2
WEIGHTS = {"gl2": (afe._GAMMA_U, afe._GAMMA_U)}
for _form in (D3, TEMPERED):
    WEIGHTS[f"{_form.label}-direct"] = (_form.gamma, _form.gamma)
    WEIGHTS[f"{_form.label}-dual"] = (_form.gamma_dual, _form.gamma)


def _allowance(kern, y, row=0):
    # a row's accuracy target at y: its tail_estimate plus tail_tolerance of
    # its absolute mass (the yardstick of its stopping rule), doubled for a
    # conjugate-symmetric kernel, whose mirror half is implicit
    per_half = kern.tail_estimate[row] + SPEC.tail_tolerance * float(np.sum(np.abs(kern.w[row])))
    return 2.0 * per_half * y**-SPEC.sigma_u


def _kernel(ts, gamma, norm, max_abs_ln_y, t_top=None):
    # the one kernel of W(., t) for the t of ts, against their norm
    return afe._weight_kernel(SPEC, ts, gamma, norm, max_abs_ln_y, t_top)


@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_t_grid_blocking_is_bit_identical(name):
    # each row of a t-grid's kernel, cut to the length of its t's one-row
    # kernel on the same grid, is that row, and zero past it; and the
    # values of a t-grid are the single-t values bit for bit
    gamma, norm = WEIGHTS[name]
    kern = _kernel(T_GRID, gamma, norm, 3.0)
    assert kern.w.shape[0] == T_GRID.size
    for i, t in enumerate(T_GRID):
        alone = _kernel(t, gamma, norm, 3.0, t_top=60.0)
        n = alone.v.size
        assert alone.w.shape == (1, n)
        assert np.array_equal(kern.v[:n], alone.v)
        assert np.array_equal(kern.w[i, :n], alone.w[0])
        assert np.all(kern.w[i, n:] == 0)
        assert kern.tail_estimate[i] == alone.tail_estimate[0]
    ts = np.linspace(0.0, 60.0, 20)
    ys = np.array([1.0, 30.0, 900.0])
    grid = afe._weight_grid(SPEC, ys, ts, gamma, norm)
    for t, row in zip(ts, grid, strict=True):
        assert np.array_equal(row, afe._weight_grid(SPEC, ys, [t], gamma, norm, t_top=60.0)[0])


def test_normalization_at_half_once_per_t_grid(monkeypatch):
    # the gamma factor at 1/2 depends on t alone, so a t-grid evaluates it
    # once, not once per build, kfunc call and segment.  Its log_gamma
    # arguments (1/2 + kappa -+ it)/2 are the only ones with real part 1/4
    # here; the contour nodes' lie on (1/2 + sigma_u)/2.  20 t take one
    # build of 20 rows
    on_quarter = []
    original = special.log_gamma

    def counting(z):
        on_quarter.append(bool(np.all(np.real(z) == 0.25)))
        return original(z)

    builds = []
    build = afe.contour_kernel

    def counting_build(kfunc, sigma, rows, **kw):
        builds.append(len(rows))
        return build(kfunc, sigma, rows, **kw)

    monkeypatch.setattr(special, "log_gamma", counting)
    monkeypatch.setattr(afe, "contour_kernel", counting_build)
    monkeypatch.setattr(quadrature, "_ROW_ELEMENTS", 1)  # one row per kfunc call
    ts = np.linspace(0.0, 60.0, 20)
    assert afe._weight_grid(SPEC, [30.0], ts, afe._GAMMA_U, afe._GAMMA_U).shape == (ts.size, 1)
    assert sum(on_quarter) == 2 < len(on_quarter)
    assert builds == [20]
    on_quarter.clear()
    afe._weight_grid(SPEC, [30.0], ts, D3.gamma, D3.gamma)
    # one call per distinct shift: D3's six shifts kappa_i -+ it are two
    assert sum(on_quarter) == 2 * len(set(D3.gamma.shifts)) < len(on_quarter)
    on_quarter.clear()
    builds.clear()
    values, _ = afe._weight_rows(SPEC, 30.0, ts, afe._GAMMA_U, afe._GAMMA_U, 60.0)
    assert values.shape == ts.shape
    # the rounding floor's term sizes and the norm share the same two
    assert sum(on_quarter) == 2 < len(on_quarter)
    assert builds == [20]


@pytest.mark.parametrize("name", sorted(WEIGHTS))
def test_t_grid_matches_scalar_weights(name):
    gamma, norm = WEIGHTS[name]
    ys = np.array([1.0, 30.0, 900.0])
    values = afe._weight_grid(SPEC, ys, T_GRID, gamma, norm)
    assert values.shape == (T_GRID.size, ys.size)
    kern = _kernel(T_GRID, gamma, norm, math.log(900.0))
    for i, (t, row) in enumerate(zip(T_GRID, values, strict=True)):
        for y, value in zip(ys, row):
            alone = _kernel(t, gamma, norm, abs(math.log(y)))
            scalar = afe._weight_grid(SPEC, [y], [t], gamma, norm)[0, 0]
            assert abs(value - scalar) <= _allowance(kern, y, i) + _allowance(alone, y)  # measured <= 3.4e-3 of it


@pytest.mark.parametrize("name", ["gl2", "tempered-direct"])
def test_block_apply_matches_dense_rows(name):
    # a t-grid kernel's apply against each row's dense sum of w e^{-iv ln y},
    # on the symmetric U and the two-sided TEMPERED weight (rows that stop
    # at different heights: test_quadrature's TestRowBatches)
    gamma, norm = WEIGHTS[name]
    ys = np.array([0.5, 1.0, 7.0, 30.0, 900.0])
    assert_matches_dense_rows(_kernel(T_GRID, gamma, norm, math.log(900.0)), ys)  # measured <= 0.27 of the yardstick


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
    # a value does not depend on how far the table runs: the loop's
    # doublings and a fixture cut at any length agree bit for bit
    assert np.array_equal(eisenstein_coefficients(37, r), eta[:38])


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
    for r in (-1.0, math.nan, math.inf):  # inf raised OverflowError
        with pytest.raises(ValueError, match="nonnegative and finite"):
            zeta_square_afe(r, SPEC)


# ---------------------------------------------------------------------------
# degree-2 central values


def test_central_value_gl2_zero_fixture():
    fx = MaassFixture(t=3.0, coeffs=(0.0,) * 2001, source="zero")
    assert central_value_gl2(fx, SPEC) == 0.0


def test_central_value_gl2_eisenstein_surrogate():
    # eta(l, 10) as the coefficient fixture makes the central value
    # |zeta(1/2 + 10i)|^2, checked against the Euler-Maclaurin oracle with
    # the polar correction folded in analytically: at t = 10 the residue
    # terms sit at e^{-pi r} ~ 2e-14 of the main term, below the tolerance
    val = central_value_gl2(_eta_fixture(10.0, 4096), SPEC)
    assert abs(val - _zeta_square_oracle(10.0)) / _zeta_square_oracle(10.0) < 1e-8


def test_central_value_gl2_truncation_stability(monkeypatch):
    # one doubling past the loop's stop moves each degree-2 value by at most
    # the loop's bound, and by less than 1e-9: gl2 on eta(., 10) (stops at
    # l <= 1024), and |zeta|^2 at r = 2 and 30 (512 and 4096).  Measured: at
    # most 1.1e-11 of the value, 1.1e-3 of the bound
    cases = [
        (lambda: central_value_gl2(_eta_fixture(10.0, 4096), SPEC), 1024),
        (lambda: zeta_square_afe(2.0, SPEC), 512),
        (lambda: zeta_square_afe(30.0, SPEC), 4096),
    ]
    for evaluate, stop in cases:
        value, tol, M, doubled = _stop_and_doubled(monkeypatch, evaluate)
        assert M == stop and tol == 1e-8
        assert abs(doubled - value) <= tol * max(abs(value), 1e-3)
        assert abs(doubled - value) < 1e-9


def test_central_value_gl2_coverage_error_names_requirement():
    fx = MaassFixture(t=10.0, coeffs=(0.0,) * 51, source="short")
    with pytest.raises(FixtureCoverageError, match="requires l <= 64"):
        central_value_gl2(fx, SPEC)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_maass_fixture_rejects_non_finite_coefficients(bad):
    # a nan coefficient gave central_value_gl2 = nan, and an infinite one a
    # kuznetsov_residual of nan+nanj, both with no error
    with pytest.raises(ValueError, match="coeffs must be finite, got .* at index 1"):
        MaassFixture(t=3.0, coeffs=(0.0, bad) + (0.0,) * 1000, source="bad")


def test_maass_fixture_validation():
    for t in (0.0, math.nan, math.inf, -math.inf):  # inf was accepted
        with pytest.raises(ValueError, match="spectral parameter must be positive and finite"):
            MaassFixture(t=t, coeffs=(0.0, 1.0), source="bad")
    with pytest.raises(ValueError):
        MaassFixture(t=1.0, coeffs=(0.0, 1.0), source="bad", parity="odd")
    with pytest.raises(ValueError):
        MaassFixture(t=1.0, coeffs=[[0.0, 1.0]], source="bad").coeff_array()


# ---------------------------------------------------------------------------
# tensor central values


def test_central_value_rs_zero_fixture(sym2):
    fx = MaassFixture(t=2.0, coeffs=(0.0,) * 501, source="zero")
    assert central_value_rs(sym2, fx, SPEC) == 0.0


def _count_builds_and_applies(monkeypatch) -> tuple[list, list]:
    # the rows of every contour build and one entry per kernel application
    builds, applies = [], []
    build, apply = afe.contour_kernel, quadrature.ContourKernel.apply

    def counting_build(kfunc, sigma, params, **kw):
        builds.append(len(params))
        return build(kfunc, sigma, params, **kw)

    monkeypatch.setattr(afe, "contour_kernel", counting_build)
    monkeypatch.setattr(quadrature.ContourKernel, "apply", lambda kern, y: applies.append(1) or apply(kern, y))
    return builds, applies


def test_central_value_rs_fixture_matches_eisenstein_route(sym2, monkeypatch):
    # the fixture route and the Eisenstein route run the same sums through
    # the same loop, so they agree bit for bit
    r = 1.0
    fx = _eta_fixture(r, 8192)
    builds, applies = _count_builds_and_applies(monkeypatch)
    a = central_value_rs(sym2, fx, SPEC)
    # the loop forms the sums at m^2 n <= 64, 128, ..., 8,192; sym^2 Delta's
    # dual gamma data are its own, so V2 is V1 and each doubling builds one
    # one-row kernel and applies it once, on the whole (m, n) layout
    assert builds == [1] * 8 and len(applies) == 8
    assert central_value_rs_eisenstein(sym2, r, SPEC) == a


def test_central_value_rs_builds_both_kernels_when_not_self_dual(monkeypatch):
    # gamma != gamma_dual: V1 and V2 are two kernels, each applied once; a
    # zero fixture settles at the first block, 64
    builds, applies = _count_builds_and_applies(monkeypatch)
    assert central_value_rs(SKEW, MaassFixture(t=2.0, coeffs=(0.0,) * 65, source="zero"), SPEC) == 0.0
    assert builds == [1, 1] and len(applies) == 2


@pytest.mark.parametrize("name", ["sym2", "skew"])
def test_rs_flat_layout_matches_double_sum(name, sym2):
    # the terms of the tensor sum at M = 256, row by row, against the double
    # sum over m^2 n <= 256 from scalar A(m, n), A(n, m) and the public
    # weight grids, with complex coefficients c(n) (conjugated).  On SKEW
    # A(m, n) != A(n, m), so the two orientations cannot stand in for each
    # other (measured: at most 7.9e-16 relative)
    form = {"sym2": sym2, "skew": SKEW}[name]
    M, t = 256, 2.0
    c = np.random.default_rng(20261022).normal(size=(M + 1, 2)) @ np.array([1.0, 1j])
    ys, vals = afe._rs_terms(form, t, SPEC, lambda N: c[: N + 1])(M)
    pairs = [(m, n) for m in range(1, 17) for n in range(1, M // (m * m) + 1)]
    assert vals.shape == (2, len(pairs)) and sorted(ys) == sorted(m * m * n for m, n in pairs)
    grid = np.array([float(m * m * n) for m, n in pairs])
    weights = [rankin_selberg_afe_weight_grid(SPEC, grid, [t], form, v)[0] for v in ("direct", "dual")]
    for row, weight, flip in zip(vals, weights, (False, True)):
        want = sum(
            np.conj(c[n]) * coefficient(form, *((n, m) if flip else (m, n))) * w / math.sqrt(y)
            for (m, n), w, y in zip(pairs, weight, grid)
        )
        assert abs(row.sum() - want) <= 1e-13 * abs(want)


def test_dyadic_sum_forms_value_and_block_from_unsorted_arguments():
    # synthetic two-row terms y^{-2} and y^{-2}/2 over a shuffled y = 1..M:
    # the block is the mass over y in (M/2, M], about 1.5/M, so at tol 1e-4
    # of the value ~ 2.47 the loop first settles at M = 8,192.  A block read
    # as a positional tail would hold about half of all the mass and never
    # settle
    rng = np.random.default_rng(7)
    cutoffs = []

    def terms(M):
        cutoffs.append(M)
        ys = rng.permutation(np.arange(1, M + 1, dtype=float))
        return ys, np.array([1.0, 0.5])[:, None] * ys**-2.0

    value = afe._dyadic_sum(terms, 1e-4)
    assert cutoffs == [2**k for k in range(6, 14)]
    exact = 1.5 * math.fsum(y**-2.0 for y in range(1, 8193))
    assert abs(value - exact) <= 1e-14 * exact


def test_central_value_rs_truncation_stability(sym2, monkeypatch):
    # one doubling past the loop's stop moves the tensor value at r = 1 by at
    # most the loop's bound, and by less than 1e-7 of the value (measured
    # 8.5e-10 of the value, 2.8e-4 of the bound)
    value, tol, M, doubled = _stop_and_doubled(monkeypatch, lambda: central_value_rs_eisenstein(sym2, 1.0, SPEC))
    assert M == 8192 and tol == 3e-6
    assert abs(doubled - value) <= tol * max(abs(value), 1e-3)
    assert abs(doubled - value) < 1e-7 * abs(value)


def test_central_value_rs_coverage_error(sym2):
    # eta(n, 1) cut at n = 100: the loop needs the terms to 128 and says so
    # (a zero fixture would settle at its first block, 64)
    with pytest.raises(FixtureCoverageError, match="requires n <= 128"):
        central_value_rs(sym2, _eta_fixture(1.0, 100), SPEC)


def test_rs_eisenstein_factorization(sym2):
    # flagship identity: the coefficient double sum at r = 1 against the
    # product of critical-line values from the completely separate
    # degree-3 functional-equation route; measured agreement 4.9e-10
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


@pytest.mark.parametrize("r", [math.inf, -math.inf, math.nan])
def test_rs_eisenstein_rejects_non_finite_r(r, sym2, no_contour):
    with pytest.raises(ValueError, match="r must be finite"):
        central_value_rs_eisenstein(sym2, r, SPEC)


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


def test_gl3_truncation_stability(sym2, monkeypatch):
    # one doubling past the loop's stop moves L(1/2 + 2i) by at most the
    # loop's bound (measured 2.2e-13 of the value)
    value, tol, M, doubled = _stop_and_doubled(monkeypatch, lambda: gl3_critical_value(sym2, 0.5 + 2j, SPEC))
    assert M == 1024 and tol == 1e-8
    assert abs(doubled - value) <= tol * max(abs(value), 1e-3)


def test_gl3_weight_independence(sym2):
    v16 = gl3_critical_value(sym2, 0.5 + 2j, WeightSpec(A=16))
    v8 = gl3_critical_value(sym2, 0.5 + 2j, WeightSpec(A=8))
    assert abs(v16 - v8) / abs(v16) < 1e-7


def test_gl3_guards(sym2):
    with pytest.raises(PolarFormError):
        gl3_critical_value(D3, 0.5 + 1j, SPEC)
    with pytest.raises(ValueError):
        gl3_critical_value(sym2, 0.6 + 1j, SPEC)


@pytest.mark.parametrize("s0", [complex(0.5, math.inf), complex(0.5, -math.inf), complex(0.5, math.nan)])
def test_gl3_rejects_non_finite_s0(s0, sym2, no_contour):
    with pytest.raises(ValueError, match="s0 must be finite"):
        gl3_critical_value(sym2, s0, SPEC)


def test_gl3_value_at_one_matches_petersson_norm(sym2, monkeypatch):
    # L(1, sym^2 f) = (pi/2) (4 pi)^k <f, f> / Gamma(k) for the weight-k
    # eigenform f, here Delta (k = 12), with the Petersson norm
    # <Delta, Delta> = int_{SL(2,Z)\H} |Delta|^2 y^12 dx dy / y^2
    # = 1.035362056804320922347e-6 (D. Zagier, "Modular forms whose Fourier
    # coefficients involve zeta-functions of quadratic fields", Modular
    # Functions of One Variable VI, LNM 627 (1977)).  At s0 = 1 the
    # functional-equation pair sums the lift's coefficients A(1, m) and
    # A(m, 1) against weights that decay like m^{-A/2}, until a dyadic block
    # falls below 1e-8 of the value at A = 16: 1e2 tail_tolerance.  Each
    # doubling builds (Va, Vb) as the two rows of one kernel and applies it
    # once; it takes one coefficient row per orientation
    petersson = 1.035362056804320922347e-6
    ref = (math.pi / 2.0) * (4.0 * math.pi) ** 12 * petersson / math.factorial(11)
    builds, applies = _count_builds_and_applies(monkeypatch)
    rows, row = [], afe.coefficient_row
    monkeypatch.setattr(afe, "coefficient_row", lambda *a, **kw: rows.append(1) or row(*a, **kw))
    value = afe._gl3_afe_value(sym2, 1.0, SPEC)
    assert abs(value - ref) <= 1e2 * SPEC.tail_tolerance * ref  # measured 2.4e-11 of ref
    assert len(builds) > 1 and builds == [2] * len(builds)
    assert len(applies) == len(builds) and len(rows) == 2 * len(builds)


def test_convexity_scale_envelopes_fitted(sym2):
    # loose fitted envelopes over the fixture suite, not theorems: degree-2
    # squares below 3 (1+r)^0.7, degree-3 moduli below 3 (1+r)^0.8
    for r in (2.0, 10.0, 30.0):
        assert zeta_square_afe(r, SPEC) < 3.0 * (1 + r) ** 0.7
    for r in (2.0, 5.0, 10.0):
        assert abs(gl3_critical_value(sym2, 0.5 + 1j * r, SPEC)) < 3.0 * (1 + r) ** 0.8
