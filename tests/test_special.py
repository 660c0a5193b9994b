import math
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp

from lfunlab.special import (
    PoleError,
    RegimeError,
    bessel_imag_order,
    bessel_j_integral_route,
    bessel_k_integral,
    gamma_factor_gl3,
    gamma_ratio_gl2,
    gl2_gamma_ratio_log,
    log_gamma,
    zeta,
    zeta_with_error,
)

FLAT = SimpleNamespace(mu=(0, 0, 0), mu_dual=(0, 0, 0), label="flat-stub")


class TestLogGamma:
    def test_classical_values(self):
        assert log_gamma(1.0 + 0j) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma(5.0 + 0j).real == pytest.approx(math.log(24), rel=1e-13)
        assert log_gamma(0.5 + 0j).real == pytest.approx(0.5 * math.log(math.pi), rel=1e-12)

    def test_recursion_consistency(self):
        rng = np.random.default_rng(42)
        z = rng.uniform(-20, 20, 100) + 1j * rng.uniform(-40, 40, 100)
        z = z[np.abs(z.imag) > 1e-3]
        left = np.exp(log_gamma(z + 1) - log_gamma(z))
        assert np.max(np.abs(left / z - 1)) < 1e-11

    def test_against_reference_grid(self):
        rng = np.random.default_rng(1)
        z = rng.uniform(-30, 30, 500) + 1j * rng.uniform(-100, 100, 500)
        z = z[~((z.imag == 0) & (z.real <= 0))]
        ratio = np.abs(np.exp(log_gamma(z) - sp.loggamma(z)) - 1)
        assert ratio.max() < 5e-13

    def test_principal_branch_right_half(self):
        rng = np.random.default_rng(2)
        z = rng.uniform(0.5, 50, 300) + 1j * rng.uniform(-300, 300, 300)
        assert np.max(np.abs(log_gamma(z) - sp.loggamma(z))) < 1e-11

    def test_pole_rejection(self):
        for bad in (0.0 + 0j, -1.0 + 0j, -7.0 + 0j):
            with pytest.raises(PoleError):
                log_gamma(bad)


class TestZeta:
    def test_closed_forms(self):
        assert zeta(2.0 + 0j) == pytest.approx(math.pi**2 / 6, rel=1e-14)
        assert zeta(4.0 + 0j) == pytest.approx(math.pi**4 / 90, rel=1e-14)

    def test_against_mpmath_grid(self):
        rng = np.random.default_rng(3)
        s = rng.uniform(-0.5, 4, 40) + 1j * rng.uniform(-150, 150, 40)
        vals, bounds = zeta_with_error(s)
        for sv, v, b in zip(s, vals, bounds):
            ref = complex(mp.zeta(complex(sv)))
            assert abs(v - ref) <= max(1e-12 * abs(ref), b + 1e-13)

    def test_remainder_bound_honest(self):
        s = np.array([0.5 + 20j, 1.0 + 50j, 2.0 + 5j, 0.5 + 100j])
        vals, bounds = zeta_with_error(s)
        for sv, v, b in zip(s, vals, bounds):
            assert abs(v - complex(mp.zeta(complex(sv)))) <= b + 1e-13

    def test_pole(self):
        with pytest.raises(PoleError):
            zeta(1.0 + 0j)


class TestGl2GammaRatio:
    def test_identity_at_zero(self):
        for t in (0.5, 3.0, 57.0):
            assert gamma_ratio_gl2(0j, t).value == pytest.approx(1.0, abs=1e-13)

    def test_leading_form_large_t(self):
        u = 0.5 + 3j
        exact = gamma_ratio_gl2(u, 200.0).value
        lead = gamma_ratio_gl2(u, 200.0, mode="leading").value
        assert abs(exact / lead - 1) < 0.02

    def test_leading_deviation_halves_with_t(self):
        u = 0.5 + 0j
        devs = []
        for t in (100.0, 200.0, 400.0):
            exact = gamma_ratio_gl2(u, t).value
            lead = gamma_ratio_gl2(u, t, mode="leading").value
            devs.append(abs(exact / lead - 1))
        assert devs[1] < 0.6 * devs[0]
        assert devs[2] < 0.6 * devs[1]

    def test_exponential_envelope_on_line(self):
        # |ratio(1/2 + iv, t)| <= C e^{pi |u| / 2} |t|^{1/2}: fit C coarsely,
        # then check a finer grid against 1.5 * C
        def envelope_ratio(v, t):
            u = 0.5 + 1j * v
            val = abs(np.exp(gl2_gamma_ratio_log(u, t)))
            return val / (math.exp(math.pi * abs(u) / 2) * math.sqrt(t))

        coarse = max(
            envelope_ratio(v, t) for v in np.linspace(0, 30, 31) for t in (5.0, 20.0, 100.0)
        )
        fine = max(
            envelope_ratio(v, t) for v in np.linspace(0, 30, 121) for t in (5.0, 11.0, 20.0, 47.0, 100.0)
        )
        assert fine <= 1.5 * coarse


class TestGl3GammaFactor:
    def test_variants_coincide_for_flat_parameters(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            s = complex(rng.uniform(0.3, 2), rng.uniform(-5, 5))
            t = float(rng.uniform(0, 10))
            a = gamma_factor_gl3(s, t, FLAT, "direct")
            b = gamma_factor_gl3(s, t, FLAT, "dual")
            assert a == b

    def test_central_point_closed_form(self):
        val = gamma_factor_gl3(0.5 + 0j, 0.0, FLAT, "direct")
        ref = math.pi ** (-1.5) * sp.gamma(0.25) ** 6
        assert complex(val).real == pytest.approx(ref, rel=1e-12)
        assert abs(complex(val).imag) < 1e-12 * ref

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = complex(rng.uniform(0.3, 3), rng.uniform(-8, 8))
            t = float(rng.uniform(0, 20))
            a = complex(gamma_factor_gl3(s, t, FLAT, "direct"))
            b = complex(gamma_factor_gl3(np.conj(s), t, FLAT, "direct"))
            assert b == pytest.approx(np.conj(a), rel=1e-10)

    def test_parameters_outside_strip_evaluate_silently(self):
        # no pole at s = 1/2 for these mu: a finite value, and no warning
        # (the pytest configuration turns any warning into an error)
        wide = SimpleNamespace(mu=(-1, -11, -12), mu_dual=(-1, -11, -12), label="wide-stub")
        val = complex(gamma_factor_gl3(0.5 + 0j, 1.0, wide, "direct"))
        assert np.isfinite(val.real) and val.real > 0.0


class TestBessel:
    def test_j_at_zero_order_small_argument(self):
        assert bessel_imag_order("J", 0.0, 1e-8).real == pytest.approx(1.0, abs=1e-10)

    def test_j_series_against_mpmath(self):
        for t, x in [(0.0, 0.3), (1.0, 1.0), (5.0, 2.0), (10.0, 0.5), (2.5, 5.0)]:
            own = bessel_imag_order("J", t, x)
            ref = complex(mp.besselj(mp.mpc(0, 2 * t), 2 * mp.pi * x))
            assert abs(own - ref) <= 1e-10 * (1 + abs(ref))

    def test_i_series_against_mpmath(self):
        for t, x in [(1.0, 0.5), (4.0, 2.0)]:
            own = bessel_imag_order("I", t, x)
            ref = complex(mp.besseli(mp.mpc(0, 2 * t), 2 * mp.pi * x))
            assert abs(own - ref) <= 1e-10 * (1 + abs(ref))

    def test_symmetric_combination_purely_imaginary(self):
        for t, x in [(1.0, 0.7), (3.0, 2.0), (6.0, 4.0)]:
            jp = bessel_imag_order("J", t, x)
            jm = bessel_imag_order("J", -t, x)
            comb = (jp - jm) / math.cosh(math.pi * t)
            assert abs(comb.real) <= 1e-10 * (1 + abs(comb))

    def test_k_real_positive_decaying(self):
        vals = [bessel_k_integral(0.0, x) for x in (0.2, 0.5, 1.0, 2.0)]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_k_step_size_independence(self):
        a = bessel_k_integral(0.0, 1 / (2 * math.pi), nodes_per_panel=12)
        b = bessel_k_integral(0.0, 1 / (2 * math.pi), nodes_per_panel=20)
        assert abs(a - b) < 1e-10
        assert a == pytest.approx(float(mp.besselk(0, 1)), abs=1e-12)

    def test_k_against_mpmath(self):
        for t, x in [(3.0, 0.5), (10.0, 2.0), (0.5, 0.1)]:
            own = bessel_k_integral(t, x)
            ref = float(mp.besselk(mp.mpc(0, 2 * t), 2 * mp.pi * x).real)
            assert own == pytest.approx(ref, abs=1e-14 + 1e-10 * abs(ref))

    def test_series_regime_guard(self):
        with pytest.raises(RegimeError):
            bessel_imag_order("J", 1.0, 15.0)

    @pytest.mark.slow
    def test_integral_route_matches_series(self):
        for t, x in [(1.0, 1.0), (5.0, 0.5)]:
            series = bessel_imag_order("J", t, x)
            integral = bessel_j_integral_route(t, x)
            assert abs(series - integral) <= 1e-8
