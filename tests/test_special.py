import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp

from lfunlab import special
from lfunlab.special import (
    GammaData,
    PoleError,
    RegimeError,
    log_gamma,
    zeta,
    zeta_with_error,
)
from oracles import bessel_imag_order

FLAT = SimpleNamespace(gamma=GammaData((0, 0, 0)), gamma_dual=GammaData((0, 0, 0)), label="flat-stub")


def gl2_ratio(u, t):
    # the normalized degree-2 ratio gamma(1/2 + u, t) / gamma(1/2, t)
    gamma = GammaData((0,)).maass_tensor(t)
    return complex(np.exp(gamma.log(0.5 + u) - gamma.log(0.5)))


def gl2_leading(u, t):
    # large-t leading behavior of the degree-2 ratio: (t / 2 pi)^u
    return (t / (2 * math.pi)) ** complex(u)


def gl3_factor(s, t, gamma):
    # the degree-6 factor pi^{-3s} prod_i Gamma((s + kappa_i -+ it)/2)
    return complex(np.exp(gamma.maass_tensor(t).log(s)))


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

    def test_stirling_threshold_meets_its_target(self):
        # the first omitted Stirling term, B_22 / (22 * 21 w^21), times the
        # sector factor sec^22(pi/4) = 2^11 on Re w >= 1/2 (DLMF 5.11(ii))
        lead = Fraction(*special._BERNOULLI[22]) / (22 * 21) * 2**11  # exact
        threshold = special._STIRLING_MIN_ABS
        assert special._STIRLING_TARGET == 1e-17
        assert "1e-17" in special._stirling_shifted.__doc__
        assert float(lead) / threshold**21 <= special._STIRLING_TARGET * (1 + 1e-12)
        assert threshold == pytest.approx(float(lead * 10**17) ** (1 / 21), rel=1e-14)
        # the series through B_20 at the threshold, summed in 40 digits,
        # against mpmath's log Gamma: its error stays inside the bound,
        # also where Re w = 1/2 makes the sector factor nearly tight
        with mp.workdps(40):
            on_line = mp.mpc(0.5, math.sqrt(threshold**2 - 0.25))
            for w in (mp.mpc(threshold), threshold * mp.expj(math.pi / 4), on_line):
                series = (w - 0.5) * mp.log(w) - w + mp.log(2 * mp.pi) / 2
                for n in range(1, 11):
                    num, den = special._BERNOULLI[2 * n]
                    series += mp.mpf(num) / den / (2 * n * (2 * n - 1) * w ** (2 * n - 1))
                assert abs(series - mp.loggamma(w)) <= special._STIRLING_TARGET

    def test_threshold_straddle_against_mpmath(self):
        # points within 1e-9..1e-2 of |w| = threshold on either side, some
        # on Re w = 1/2, some that reach it after 1, 3 or 9 steps, and their
        # mirrors 1 - w in the reflection region
        threshold = special._STIRLING_MIN_ABS
        pts = []
        for delta in (-1e-2, -1e-6, -1e-9, 1e-9, 1e-6, 1e-2):
            r = threshold + delta
            for re in (0.5, 0.5 + 1e-9, 0.75, 3.0, r / math.sqrt(2)):
                im = math.sqrt(r * r - re * re)
                pts += [complex(re, im), complex(re, -im)]
            pts += [complex(r - steps, 0.0) for steps in (0, 1, 3, 9)]
        w = np.array(pts)
        z = np.concatenate([w, 1.0 - w])
        with mp.workdps(30):
            ref = np.array([complex(mp.loggamma(mp.mpc(x.real, x.imag))) for x in z])
        assert np.max(np.abs(log_gamma(z) - ref)) <= 1e-13  # measured 1.1e-14

    def test_paired_recursion_against_mpmath(self):
        # every |z| < threshold recurses, two steps per log: a dense grid of
        # Re z in [1/2, 10.4] (Re z = 1/2 itself included) by |Im z| up to
        # 10.4, near the threshold, with 1 to 10 steps, odd and even, and
        # the mirrors 1 - z on the reflection side away from its poles.
        # The error stays inside the rounding bound of the Stirling value
        # the recursion lands on, and the imaginary part is mpmath's, with
        # no multiple of 2 pi: no pair of logs leaves the principal branch
        threshold = special._STIRLING_MIN_ABS
        re = np.concatenate([[0.5, 0.5 + 1e-12], np.linspace(0.5, 10.4, 34)])
        im = np.concatenate([np.linspace(-10.4, 10.4, 53), [0.0, 1e-12, -1e-12]])
        w = (re[:, None] + 1j * im[None, :]).ravel()
        w = w[np.abs(w) < threshold]
        steps = np.ceil(np.sqrt(threshold**2 - w.imag**2) - w.real).astype(int)
        assert set(steps) == set(range(1, 11))
        z = np.concatenate([w, 1.0 - w])
        z = z[np.abs(z - np.minimum(np.rint(z.real), 0.0)) > 0.1]
        with mp.workdps(30):
            ref = np.array([complex(mp.loggamma(mp.mpc(x.real, x.imag))) for x in z])
        got = log_gamma(z)
        bound = 4.0 * np.maximum(np.abs(z * np.log(z)), threshold * math.log(threshold)) * 2.0**-53
        assert np.all(np.abs(got - ref) <= bound)  # measured <= 3.2 of the unit
        assert np.all(np.abs(got.imag - ref.imag) <= bound)

    def test_rounding_grows_with_abs_z(self):
        # the result rounds at its own size, so the absolute error grows
        # like |z log z| 2^-53: at z = 1 + 10^4 i it is 1.5e-11 (one ulp of
        # Im log Gamma ~ 8e4), 1.4 times that scale, and no fixed 1e-13 holds
        z = 1.0 + 1e4j
        with mp.workdps(40):
            ref = complex(mp.loggamma(mp.mpc(z.real, z.imag)))
        err = abs(log_gamma(z) - ref)
        assert err <= 4.0 * abs(z * np.log(z)) * 2.0**-53

    def test_result_independent_of_array_shape(self):
        # two full blocks and a partial one, a third of it reflected: each
        # element equals its own scalar call bit for bit, in any shape
        n = 2 * special._BLOCK + 3
        rng = np.random.default_rng(5)
        z = rng.uniform(-8.0, 14.0, n) + 1j * rng.uniform(-30.0, 30.0, n)
        z[::7] = 0.5 + 1j * rng.uniform(-12.0, 12.0, z[::7].size)
        values = log_gamma(z)
        scalars = np.array([log_gamma(complex(x)) for x in z])
        assert np.array_equal(values, scalars)
        assert np.array_equal(log_gamma(z[:-3].reshape(2, -1)), values[:-3].reshape(2, -1))
        assert np.array_equal(log_gamma(z[::-1]), values[::-1])

    def test_real_arithmetic_log_on_the_whole_range(self):
        # log|z| + i arg z from real ufuncs agrees with np.log to rounding
        # where x^2 + y^2 would overflow (|z| = 1e200) or underflow
        # (|z| = 1e-200) as well as in between, with one component tiny
        # against the other, and on the negative real axis takes the branch
        # that the sign of Im z = +-0.0 gives np.log
        phases = np.exp(1j * np.linspace(-np.pi, np.pi, 17)[1:-1])
        z = np.concatenate(
            [r * phases for r in (1e-200, 1e-155, 1e-150, 0.5, 1.0, 3.0, 1e150, 1e155, 1e200)]
            + [[1e200 + 1e-200j, 1e-200 - 1e200j, -1e-200 + 1e-300j, 1e-300 + 1e-200j]]
        )
        ref = np.log(z)
        assert np.all(np.abs(special._log(z) - ref) <= 4.0 * 2.0**-53 * np.maximum(np.abs(ref), 1.0))
        axis = np.array([-2.0 + 0.0j, complex(-2.0, -0.0), complex(-1e200, 0.0), complex(-1e-200, -0.0)])
        got, ref = special._log(axis), np.log(axis)
        assert np.array_equal(got.imag, ref.imag) and np.array_equal(np.sign(got.imag), [1, -1, 1, -1])
        assert np.all(np.abs(got.real - ref.real) <= 4.0 * 2.0**-53 * np.abs(ref.real))

    def test_log_gamma_beside_a_pole_against_mpmath(self):
        # 1e-170 off the pole at -3, sin(pi z) ~ 3e-170: the reflection
        # reduces z by its nearest integer before 1 - e^{2 pi i z} cancels,
        # and the log of that tiny factor needs the range above
        for z in (-3 + 1e-170j, -3 - 1e-170j, -3 + 1e-12j, -7.000001 + 0j):
            with mp.workdps(30):
                ref = complex(mp.loggamma(mp.mpc(z.real, z.imag)))
            assert abs(log_gamma(z) - ref) <= 4.0 * 2.0**-53 * abs(ref)


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
        with pytest.raises(PoleError):
            zeta_with_error(1.0 + 0j, 0.25)
        with pytest.raises(ValueError):
            zeta_with_error(2.0 + 0j, 0.0)


class TestHurwitzZeta:
    # the residue circle |s - 1| = 1/2 of voronoi.polar_main_term
    CIRCLE = 1.0 + 0.5 * np.exp(2j * math.pi * np.arange(64) / 64)

    def test_against_mpmath_on_residue_circle(self):
        # a = r / 3 as polar_main_term asks for them, and a = 1/2 and 5/2;
        # measured at most 3.7e-15 absolute (2.0e-14 relative, a = 1/3)
        for a in (1 / 3, 2 / 3, 1.0, 0.5, 2.5):
            vals, bounds = zeta_with_error(self.CIRCLE, a)
            with mp.workdps(30):
                ref = np.array([complex(mp.zeta(complex(s), a)) for s in self.CIRCLE])
            assert np.all(np.abs(vals - ref) <= bounds + 1e-14)

    def test_against_mpmath_grid(self):
        rng = np.random.default_rng(7)
        s = rng.uniform(-0.5, 4, 20) + 1j * rng.uniform(-60, 60, 20)
        for a in (1 / 3, 2 / 3, 2.5):
            vals, bounds = zeta_with_error(s, a)
            with mp.workdps(30):
                ref = np.array([complex(mp.zeta(complex(sv), a)) for sv in s])
            # rounding of the partial sums: measured at most 8.5e-13 (a = 1/3)
            assert np.all(np.abs(vals - ref) <= bounds + 2e-12 * np.maximum(1.0, np.abs(ref)))

    def test_closed_forms(self):
        # zeta(s, 1/2) = (2^s - 1) zeta(s) and zeta(s, a) - zeta(s, a + 1) =
        # a^{-s}; measured at most 2.9e-13 and 7.0e-13 absolute
        rng = np.random.default_rng(8)
        s = np.concatenate([self.CIRCLE, rng.uniform(-0.5, 4, 20) + 1j * rng.uniform(-60, 60, 20)])
        half = zeta_with_error(s, 0.5)[0]
        assert np.all(np.abs(half - (2.0**s - 1.0) * zeta(s)) <= 2e-12 * np.maximum(1.0, np.abs(half)))
        for a in (0.3, 1 / 3, 0.75, 1.0):
            diff = zeta_with_error(s, a)[0] - zeta_with_error(s, a + 1.0)[0]
            assert np.all(np.abs(diff - a ** (-s)) <= 2e-12 * np.maximum(1.0, np.abs(a ** (-s))))


class TestGl2GammaRatio:
    def test_identity_at_zero(self):
        for t in (0.5, 3.0, 57.0):
            assert gl2_ratio(0j, t) == pytest.approx(1.0, abs=1e-13)

    def test_leading_form_large_t(self):
        u = 0.5 + 3j
        exact = gl2_ratio(u, 200.0)
        lead = gl2_leading(u, 200.0)
        assert abs(exact / lead - 1) < 0.02

    def test_leading_deviation_halves_with_t(self):
        u = 0.5 + 0j
        devs = []
        for t in (100.0, 200.0, 400.0):
            exact = gl2_ratio(u, t)
            lead = gl2_leading(u, t)
            devs.append(abs(exact / lead - 1))
        assert devs[1] < 0.6 * devs[0]
        assert devs[2] < 0.6 * devs[1]

    def test_exponential_envelope_on_line(self):
        # |ratio(1/2 + iv, t)| <= C e^{pi |u| / 2} |t|^{1/2}: fit C coarsely,
        # then check a finer grid against 1.5 * C
        def envelope_ratio(v, t):
            u = 0.5 + 1j * v
            val = abs(gl2_ratio(u, t))
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
        # the flat form's direct and dual data agree, and the factor is even
        # in t (it pairs s - it with s + it), so the direct factor at t and
        # the dual factor at -t coincide to rounding
        rng = np.random.default_rng(4)
        for _ in range(10):
            s = complex(rng.uniform(0.3, 2), rng.uniform(-5, 5))
            t = float(rng.uniform(0, 10))
            a = gl3_factor(s, t, FLAT.gamma)
            b = gl3_factor(s, -t, FLAT.gamma_dual)
            assert b == pytest.approx(a, rel=1e-14)

    def test_central_point_closed_form(self):
        val = gl3_factor(0.5 + 0j, 0.0, FLAT.gamma)
        ref = math.pi ** (-1.5) * sp.gamma(0.25) ** 6
        assert val.real == pytest.approx(ref, rel=1e-12)
        assert abs(val.imag) < 1e-12 * ref

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = complex(rng.uniform(0.3, 3), rng.uniform(-8, 8))
            t = float(rng.uniform(0, 20))
            a = gl3_factor(s, t, FLAT.gamma)
            b = gl3_factor(np.conj(s), t, FLAT.gamma)
            assert b == pytest.approx(np.conj(a), rel=1e-10)

    def test_parameters_outside_strip_evaluate_silently(self):
        # no pole at s = 1/2 for these shifts: a finite value, and no warning
        # (the pytest configuration turns any warning into an error)
        wide = SimpleNamespace(gamma=GammaData((1, 11, 12)), gamma_dual=GammaData((1, 11, 12)), label="wide-stub")
        val = gl3_factor(0.5 + 0j, 1.0, wide.gamma)
        assert np.isfinite(val.real) and val.real > 0.0


@pytest.mark.parametrize(
    "kappa, extra", [((0, 0, 0), ()), ((-0.1, -0.1, 0.2), (0.25, 0.1 - 1j * 40.0, 0.25))]
)
def test_gamma_log_once_per_distinct_shift(kappa, extra, monkeypatch):
    # repeated shifts, as columns of t and as scalars: one log_gamma call
    # each, and the same sum bit for bit as one call per shift, in the
    # order kappa_i - it, kappa_i + it per i
    t = np.array([[0.5], [3.0], [40.0]])
    s = 0.8 + 1j * np.linspace(-20.0, 20.0, 7)
    shifts = [k for m in kappa for k in (m - 1j * t, m + 1j * t)] + list(extra)
    naive = -(0.5 * len(shifts)) * s * math.log(math.pi)
    for k in shifts:
        naive = naive + log_gamma((s + k) / 2)
    calls = []
    monkeypatch.setattr(special, "log_gamma", lambda z: calls.append(1) or log_gamma(z))
    gamma = GammaData(GammaData(kappa).maass_tensor(t).shifts + extra)
    assert np.array_equal(gamma.log(s), naive)
    assert len(calls) == 2 * len(set(kappa)) + len(set(extra))


@pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.inf), -math.inf, "0", None])
def test_non_finite_or_non_numeric_gamma_shift_rejected(bad):
    # a NaN shift used to pass, and failed only at evaluation with a
    # RuntimeWarning from log_gamma and a NonDecayError at height 400
    with pytest.raises(ValueError, match="gamma shifts must be finite numbers"):
        GammaData((bad, 0j, 0j))


@pytest.mark.parametrize("bad", [math.nan, math.inf, np.array([1.0, math.nan]), np.array([[2.0], [-math.inf]]), "1"])
def test_maass_tensor_checks_t_once(bad, monkeypatch):
    # maass_tensor checks t itself and builds its columns without
    # __post_init__'s check of each one; a non-finite or non-numeric t
    # still raises ValueError, and public GammaData still checks its shifts
    with pytest.raises(ValueError, match="Maass parameter t must be finite numbers"):
        GammaData((0, 0, 0)).maass_tensor(bad)
    checked = []
    post_init = GammaData.__post_init__
    monkeypatch.setattr(GammaData, "__post_init__", lambda self: checked.append(1) or post_init(self))
    t = np.array([[0.5], [2.0]])
    tensor = GammaData((1, 11, 12)).maass_tensor(t)
    assert checked == [1]  # the data's own construction, not the tensor's
    assert np.array_equal(tensor.log(0.8 + 1j), GammaData(tensor.shifts).log(0.8 + 1j))
    assert all(type(k) is complex for k in GammaData((0,)).maass_tensor(np.float64(3.0)).shifts)
    with pytest.raises(ValueError, match="gamma shifts must be finite numbers"):
        GammaData(tensor.shifts[:5] + (complex(math.nan, 0.0),))


def test_gamma_data_members():
    zero, sym2 = GammaData((0, 0, 0)), GammaData((1, 11, 12))
    assert zero.rightmost_pole == 0.0 and sym2.rightmost_pole == -1.0
    # negated zeros are -0.0 shifts: equal, and hash-equal
    negated = GammaData(tuple(-k for k in zero.shifts))
    assert negated == zero and hash(negated) == hash(zero)
    assert sym2.conjugate_symmetric and GammaData((0.2 + 3j, 0.2 - 3j, -0.4)).conjugate_symmetric
    assert not GammaData((-0.4j, 0.1j, 0.3j)).conjugate_symmetric
    t = np.array([[0.5], [2.0]])
    tensor = sym2.maass_tensor(t).shifts
    expected = [k + sign * 1j * t for k in (1, 11, 12) for sign in (-1, 1)]
    assert len(tensor) == 6 and all(np.array_equal(a, b) for a, b in zip(tensor, expected))
    assert sym2.maass_tensor(2.0).shifts[:2] == (1 - 2j, 1 + 2j)


# ---------------------------------------------------------------------------
# the ascending-series oracle for J_{2it} and its mpmath precision guard


class TestBessel:
    def test_j_at_zero_order_small_argument(self):
        assert bessel_imag_order(0.0, 1e-8).real == pytest.approx(1.0, abs=1e-10)

    def test_j_series_against_mpmath(self):
        for t, x in [(0.0, 0.3), (1.0, 1.0), (5.0, 0.5), (5.0, 2.0), (10.0, 0.5), (2.5, 5.0)]:
            own = bessel_imag_order(t, x)
            ref = complex(mp.besselj(mp.mpc(0, 2 * t), 2 * mp.pi * x))
            assert abs(own - ref) <= 1e-10 * (1 + abs(ref))

    def test_symmetric_combination_purely_imaginary(self):
        for t, x in [(1.0, 0.7), (3.0, 2.0), (6.0, 4.0)]:
            jp = bessel_imag_order(t, x)
            jm = bessel_imag_order(-t, x)
            comb = (jp - jm) / math.cosh(math.pi * t)
            assert abs(comb.real) <= 1e-10 * (1 + abs(comb))

    def test_series_regime_guard(self):
        with pytest.raises(RegimeError):
            bessel_imag_order(1.0, 15.0)
        for x in (0.0, -1.0, math.nan):
            with pytest.raises(RegimeError, match="positive"):
                bessel_imag_order(1.0, x)


def test_mp_precision_guard_under_threads():
    # mpmath's working precision is process-global: threads that each set
    # their own through the oracles' guard must get the serial results bit
    # for bit, and leave the default precision behind
    args = [(0.5 * k, 0.3 + 0.1 * k) for k in range(16)]
    serial = [bessel_imag_order(t, x) for t, x in args]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda a: bessel_imag_order(*a), args * 4, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial * 4
    assert mp.mp.dps == 15
