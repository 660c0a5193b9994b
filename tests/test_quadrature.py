import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline as SciSpline

from lfunlab import quadrature
from lfunlab.quadrature import (
    CubicSpline1D,
    NonDecayError,
    StationaryPointError,
    UnboundedPhaseError,
    dyadic_partition_value,
    contour_kernel,
    gauss_legendre_panels,
    oscillatory_integral,
    poisson_residual,
    smooth_bump,
    stationary_phase_main_term,
    unit_phase,
)
from lfunlab.special import log_gamma


def damper(u, A=16):
    return np.cos(np.pi * u / A) ** (-A)


def gamma_kernel(sigma):
    # Cahen-Mellin: (1/2 pi i) int Gamma(s) y^{-s} ds = e^{-y} on any sigma > 0;
    # built on the full line so that the imaginary parts must cancel
    return contour_kernel(
        lambda s: np.exp(log_gamma(s)), sigma, width=0.5, tol=1e-13, symmetric=False, height=8.0, cap=512.0
    )


class TestLineIntegral:
    """(1/2 pi i) int_{(sigma)} y^{-u} K(u) du through contour_kernel."""

    def test_cahen_mellin_batch(self):
        ys = np.array([0.05, 0.5, 1.0, 2.7, 9.0])
        kern = gamma_kernel(2.0)
        vals = kern.apply(ys)
        assert np.all(np.abs(vals.imag) < 1e-12)
        np.testing.assert_allclose(vals.real, np.exp(-ys), rtol=1e-10)

    def test_zero_integrand(self):
        kern = contour_kernel(
            lambda s: np.zeros_like(s), 1.0, width=0.5, tol=1e-10, symmetric=False, height=8.0, cap=512.0
        )
        assert np.all(kern.apply(np.array([0.5, 1.0, 3.0])) == 0)
        assert kern.tail_estimate == 0.0
        assert np.all(np.abs(kern.v) <= 8.0)  # first segment only, no growth

    def test_damper_residue_jump(self):
        # even damper / u: the value at y = 1 on (1/2) is 1/2, and moving the
        # line across the simple pole at 0 (residue y^0 G(0) = 1) drops the
        # value by exactly 1 at every y
        ys = np.array([0.3, 1.0, 4.0])

        def build(sigma):
            return contour_kernel(
                lambda s: damper(s) / s, sigma, width=0.5, tol=1e-12, symmetric=True, height=8.0, cap=512.0
            )

        right = build(0.5).apply(ys)
        left = build(-0.5).apply(ys)
        assert right[1].real == pytest.approx(0.5, abs=1e-9)
        np.testing.assert_allclose((right - left).real, 1.0, atol=1e-9)

    def test_contour_stability(self):
        y = np.array([2.7])
        a, b = gamma_kernel(2.0), gamma_kernel(3.0)
        va, vb = a.apply(y)[0], b.apply(y)[0]
        allowance = a.tail_estimate * y[0] ** -2.0 + b.tail_estimate * y[0] ** -3.0
        assert abs(va - vb) <= 10 * allowance + 1e-12
        assert va.real == pytest.approx(math.exp(-y[0]), rel=1e-9)

    def test_error_estimate_honest(self):
        # the allowance tail_estimate * y^{-sigma} covers the observed error
        ys = np.array([0.5, 1.0, 9.0])
        kern = gamma_kernel(2.0)
        err = np.abs(kern.apply(ys) - np.exp(-ys))
        assert np.all(err <= kern.tail_estimate * ys**-2.0 + 1e-13)

    def test_apply_blocks_match_dense_product(self, monkeypatch):
        # apply fills one reused phase buffer per block of y; blocks of
        # three arguments, the last one short, give the dense product
        kern = gamma_kernel(2.0)
        ys = np.linspace(0.05, 9.0, 41)
        dense = (np.exp(-1j * np.outer(np.log(ys), kern.v)) @ kern.w) * ys ** (-kern.sigma)
        monkeypatch.setattr(quadrature, "_APPLY_ELEMENTS", 3 * kern.v.size)
        np.testing.assert_allclose(kern.apply(ys), dense, rtol=1e-13, atol=1e-15)
        assert kern.apply(np.array([])).shape == (0,)

    def test_non_decay_flagged(self):
        with pytest.raises(NonDecayError):
            contour_kernel(
                lambda s: 1.0 / (1.0 + 0.001 * s * s), 1.0, width=0.5, tol=1e-10, symmetric=False,
                height=8.0, cap=64.0,
            )


def gaussian_rows(u, r):
    # |exp(r u^2)| = e^{r (sigma^2 - v^2)}: row r decays at its own rate in v
    return np.exp(r[:, None] * u * u)


def _outer_mass(kern, nodes=12):
    # mass on the outermost panel(s): top of the upper half-line, and the
    # bottom of the lower one when the kernel keeps both
    order = np.argsort(kern.v)
    absw = np.abs(kern.w)
    edge = float(np.sum(absw[order[-nodes:]]))
    return edge if kern.symmetric else edge + float(np.sum(absw[order[:nodes]]))


class TestRowBatches:
    """contour_kernel over a batch of rows: one grid, per-row stopping."""

    RATES = np.array([1.0, 0.05, 0.2, 0.01])

    def build(self, rows, symmetric, cap=512.0, kfunc=gaussian_rows):
        return contour_kernel(
            kfunc, 0.5, width=0.5, tol=1e-12, symmetric=symmetric, height=4.0, cap=cap, rows=rows
        )

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_each_row_equals_its_own_kernel(self, symmetric):
        # a row's kernel is bit-identical to the single-row kernel on the
        # same grid: the other rows change neither its nodes nor its stop
        kernels = list(self.build(self.RATES, symmetric))
        assert len(kernels) == self.RATES.size
        for r, kern in zip(self.RATES, kernels):
            alone = contour_kernel(
                lambda u, r=r: gaussian_rows(u, np.array([r]))[0], 0.5, width=0.5, tol=1e-12,
                symmetric=symmetric, height=4.0, cap=512.0,
            )
            assert np.array_equal(kern.v, alone.v)
            assert np.array_equal(kern.w, alone.w)
            assert kern.tail_estimate == alone.tail_estimate
        # slower decay needs more height, and a finished row takes no more segments
        heights = [float(np.max(np.abs(k.v))) for k in kernels]
        assert heights[0] < heights[2] < heights[1] < heights[3]

    def test_row_mass_does_not_move_other_stops(self):
        # 1/cos(u) decays like e^{-v}, so a stop rule that compared a row's
        # edge with another row's total would move these rows, whose masses
        # lie 15 decades apart; each stops where it stops alone
        def scaled(u, a):
            return a[:, None] / np.cos(u)

        scales = np.array([1.0, 1e12, 1e-3, 1e6])
        for a, kern in zip(scales, self.build(scales, True, kfunc=scaled)):
            alone = contour_kernel(
                lambda u, a=a: scaled(u, np.array([a]))[0], 0.5, width=0.5, tol=1e-12,
                symmetric=True, height=4.0, cap=512.0,
            )
            assert np.array_equal(kern.v, alone.v)
            assert np.array_equal(kern.w, alone.w)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_stopping_rule_per_row(self, symmetric):
        for kern in self.build(self.RATES, symmetric):
            edge = _outer_mass(kern)
            assert edge <= 1e-12 * float(np.sum(np.abs(kern.w)))
            assert kern.tail_estimate == pytest.approx(edge, rel=1e-12)

    def test_values_match_closed_form(self):
        # (1/2 pi i) int_{(sigma)} y^{-u} e^{r u^2} du = e^{-(ln y)^2 / 4r} / (2 sqrt(pi r))
        ys = np.array([0.5, 1.0, 3.0])
        for r, kern in zip(self.RATES, self.build(self.RATES, True)):
            exact = np.exp(-np.log(ys) ** 2 / (4 * r)) / (2 * math.sqrt(math.pi * r))
            # rounding sits at the scale of the kernel's mass, the y = 1 value
            np.testing.assert_allclose(kern.apply(ys).real, exact, rtol=1e-10, atol=1e-12 * exact[1])

    def test_row_at_cap_is_named(self):
        kernels = self.build(np.array([1.0, 0.001, 0.5]), True, cap=64.0)
        with pytest.raises(NonDecayError, match=r"row parameter 0\.001"):
            list(kernels)


class TestOscillatoryIntegral:
    def test_zero_phase_plain_integral(self):
        bump = smooth_bump(1.0, 3.0, 0.5)
        res = oscillatory_integral(bump, lambda x: np.zeros_like(np.asarray(x, float)), bump.support)
        xs = np.linspace(1.0, 3.0, 200001)
        ref = np.trapezoid(bump(xs), xs)
        assert res.value.real == pytest.approx(ref, abs=1e-9)

    def test_linear_phase_nonstationary_decay(self):
        bump = smooth_bump(0.0, 1.0, 0.5)

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
        bump = smooth_bump(0.0, 1.0, 0.5)
        with pytest.raises(UnboundedPhaseError):
            oscillatory_integral(bump, lambda x: 1e12 * np.asarray(x, float) ** 2, bump.support)


class TestStationaryPhase:
    @staticmethod
    def _gaussian_phase_family(lam):
        bump = smooth_bump(0.5, 1.5, 0.6)
        phase = lambda x: lam * (np.asarray(x, float) - 1.0) ** 2 / 2.0
        return bump, phase

    def test_zero_amplitude(self):
        val = stationary_phase_main_term(lambda x: np.zeros_like(x), lambda x: x, 1.0, 0.5, support=(0, 1))
        assert val == 0

    def test_main_term_accuracy_at_400(self):
        lam = 400.0
        bump, phase = self._gaussian_phase_family(lam)
        main = stationary_phase_main_term(bump, phase, lam, 1.0)
        direct = oscillatory_integral(bump, phase, bump.support).value
        assert main == pytest.approx(complex(unit_phase(0.125)) / math.sqrt(lam), rel=1e-12)
        assert abs(direct - main) / abs(main) <= 5.0 / lam

    def test_relative_error_shrinks_with_lambda(self):
        errs = []
        for lam in (100.0, 1000.0):
            bump, phase = self._gaussian_phase_family(lam)
            main = stationary_phase_main_term(bump, phase, lam, 1.0)
            direct = oscillatory_integral(bump, phase, bump.support).value
            errs.append(abs(direct - main) / abs(main))
        assert errs[1] <= 0.5 * errs[0]

    def test_outside_support_rejected(self):
        bump, phase = self._gaussian_phase_family(10.0)
        with pytest.raises(StationaryPointError):
            stationary_phase_main_term(bump, phase, 10.0, 7.0)

    def test_degenerate_rejected(self):
        bump, phase = self._gaussian_phase_family(10.0)
        with pytest.raises(StationaryPointError):
            stationary_phase_main_term(bump, phase, 0.0, 1.0)

    def test_negative_curvature_conjugate_phase(self):
        lam = 900.0
        bump = smooth_bump(0.5, 1.5, 0.6)
        phase = lambda x: -lam * (np.asarray(x, float) - 1.0) ** 2 / 2.0
        main = stationary_phase_main_term(bump, phase, -lam, 1.0)
        direct = oscillatory_integral(bump, phase, bump.support).value
        assert abs(direct - main) / abs(main) <= 5.0 / lam


class TestSmoothBump:
    def test_plateau_and_outside(self):
        bump = smooth_bump(2.0, 6.0, 0.5)
        assert bump(np.array([4.0]))[0] == pytest.approx(1.0, abs=1e-15)
        assert bump(np.array([1.99]))[0] == 0.0
        assert bump(np.array([6.01]))[0] == 0.0

    def test_range_and_monotone_shoulders(self):
        bump = smooth_bump(0.0, 1.0, 0.3)
        xs = np.linspace(-0.2, 1.2, 1001)
        vals = bump(xs)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        rise = vals[(xs > 0) & (xs < 0.35)]
        assert np.all(np.diff(rise) >= -1e-12)

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            smooth_bump(3.0, 3.0, 0.5)

    def test_dyadic_partition_of_unity(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(1.0, 1e4, 50)
        vals = dyadic_partition_value(x)
        assert np.max(np.abs(vals - 1.0)) < 1e-12


class TestPoisson:
    def test_bump_residual_small(self):
        f = smooth_bump(10.0, 20.0, 0.5)
        assert poisson_residual(f, 40) <= 1e-8

    def test_zero_function(self):
        zero = lambda x: np.zeros_like(np.asarray(x, float))
        assert poisson_residual(zero, 5, support=(0.0, 1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_refinement(self):
        f = smooth_bump(10.0, 20.0, 0.5)
        assert poisson_residual(f, 80) <= poisson_residual(f, 40) + 1e-12


class TestCubicSpline:
    def test_matches_reference_natural(self):
        x = np.linspace(0.0, 3.0, 40)
        y = np.sin(x)
        own = CubicSpline1D(x, y)
        ref = SciSpline(x, y, bc_type="natural")
        xq = np.linspace(0.05, 2.95, 500)
        assert np.max(np.abs(own(xq) - ref(xq))) < 1e-12

    def test_clamped_beats_natural_on_smooth_data(self):
        x = np.linspace(0.0, 3.0, 60)
        y = np.sin(x)
        xq = np.linspace(0.0, 3.0, 1000)
        nat = np.max(np.abs(CubicSpline1D(x, y)(xq) - np.sin(xq)))
        cla = np.max(np.abs(CubicSpline1D(x, y, d0=1.0, dn=math.cos(3.0))(xq) - np.sin(xq)))
        assert cla < nat / 10

    def test_complex_values(self):
        x = np.linspace(0.0, 2.0, 50)
        y = np.exp(1j * x)
        own = CubicSpline1D(x, y)
        xq = np.linspace(0.1, 1.9, 200)
        assert np.max(np.abs(own(xq) - np.exp(1j * xq))) < 1e-5

    def test_scalar_query(self):
        x = np.linspace(0.0, 1.0, 11)
        s = CubicSpline1D(x, x**3)
        assert np.isscalar(s(0.5)) or np.ndim(s(0.5)) == 0


class TestPanels:
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
