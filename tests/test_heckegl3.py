"""Tests for the rank-3 Hecke coefficient engine.

The load-bearing oracle is a table built purely from the two Hecke
recursions out of the seeds A(p,1), A(1,p) — no symmetric-function theory —
compared against the Jacobi-Trudi evaluation.  Divisor-count data and exact
tau values provide frozen integer anchors.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfunlab import heckegl3
from lfunlab.exactarith import _primes_upto, divisors
from lfunlab.heckegl3 import (
    GL3Form,
    MissingSatakeError,
    coefficient,
    coefficient_block,
    coefficient_row,
    mobius_unfold,
    ramanujan_tau_table,
    symmetric_square_form,
    triple_divisor_form,
)
from lfunlab.special import GammaData, zeta
from oracles import hecke_relation_residual, triple_divisor

D3 = triple_divisor_form()


@pytest.fixture(scope="module")
def sym2():
    return symmetric_square_form(prime_cap=2000)


def _recursion_table(a10: complex, a01: complex, deg: int) -> dict:
    """Prime-power coefficients generated from the seeds using only the two
    degree-lowering recursions (terms with negative exponents dropped)."""
    A = {(0, 0): 1 + 0j, (1, 0): complex(a10), (0, 1): complex(a01)}
    for D in range(2, deg + 1):
        A[(0, D)] = a01 * A[(0, D - 1)] - A.get((1, D - 2), 0j)
        for i in range(1, D + 1):
            j = D - i
            A[(i, j)] = (
                a10 * A[(i - 1, j)]
                - A.get((i - 2, j + 1), 0j)
                - A.get((i - 1, j - 1), 0j)
            )
    return A


# ---------------------------------------------------------------------------
# prime-power structure


def test_triple_divisor_small_prime_powers():
    p = 7
    assert coefficient(D3, p, 1) == pytest.approx(3)
    assert coefficient(D3, 1, p) == pytest.approx(3)
    assert coefficient(D3, p, p) == pytest.approx(8)
    assert coefficient(D3, p * p, p) == pytest.approx(15)
    assert coefficient(D3, 1, 1) == pytest.approx(1)


def test_recursion_oracle_matches_schur_triple_divisor():
    table = _recursion_table(3, 3, 8)
    for p in (2, 3, 5, 7, 11):
        for (i, j), want in table.items():
            got = coefficient(D3, p**i, p**j)
            assert got == pytest.approx(want, abs=1e-9)


def test_recursion_oracle_matches_schur_sym_square(sym2):
    tau = ramanujan_tau_table(2000)
    for p in (2, 3, 5, 13):
        a_p = float(tau[p]) / p**5.5
        seed = a_p * a_p - 1.0
        table = _recursion_table(seed, seed, 7)
        for (i, j), want in table.items():
            got = coefficient(sym2, p**i, p**j)
            assert got == pytest.approx(want, abs=1e-8 * max(1.0, abs(want)))


def test_hecke_closure_both_forms(sym2):
    primes = [p for p in range(2, 51) if all(p % q for q in range(2, p))]
    for form in (D3, sym2):
        for p in primes:
            for i in range(0, 7):
                for j in range(0, 7 - i):
                    assert hecke_relation_residual(form, p, i, j) <= 1e-10


def test_dual_symmetry_is_conjugation(sym2):
    # A(n, m) = conj(A(m, n)) for unitary Satake data
    for form in (D3, sym2):
        for (m, n) in [(2, 3), (4, 9), (8, 5), (12, 35), (27, 2)]:
            assert coefficient(form, n, m) == pytest.approx(
                np.conj(coefficient(form, m, n)), abs=1e-10
            )


def test_coefficient_rejects_nonpositive():
    with pytest.raises(ValueError):
        coefficient(D3, 0, 5)
    with pytest.raises(ValueError):
        coefficient(D3, 3, -1)


def test_coefficient_rejects_non_integral_arguments():
    # A(1.5, 1) came back as 3 and A(2.5, 2) as 9: the float factorized as
    # a prime of itself
    for m, n in [(1.5, 1), (2.5, 2), (1, 4.0)]:
        with pytest.raises(ValueError, match="must be a positive integer"):
            coefficient(D3, m, n)
    assert coefficient(D3, np.int64(4), np.int64(3)) == coefficient(D3, 4, 3)


# ---------------------------------------------------------------------------
# rows, blocks, tables


def test_row_matches_divisor_sieve():
    N = 10**4
    row = coefficient_row(D3, N)
    d3 = np.array([0] + [triple_divisor(m) for m in range(1, N + 1)])
    assert np.max(np.abs(row[1:].imag)) < 1e-12
    assert np.max(np.abs(row[1:].real - d3[1:])) < 1e-9


def _row_by_prime_loop(form, N, dual=False):
    """coefficient_row as one pass per prime power, every prime alike: the
    reference for the vectorized pass over the primes above sqrt(N)."""
    out = np.ones(N + 1, dtype=complex)
    out[0] = 0.0
    for p in _primes_upto(N):
        p = int(p)
        triple = form.satake_at(p)
        h = heckegl3._h_sequence(triple, int(math.log(N) / math.log(p)) + 2)
        pk, k = p, 1
        while pk <= N:
            coef = heckegl3._prime_power(triple, k, 0) if dual else complex(h[k])
            idx = np.arange(pk, N + 1, pk)
            out[idx[(idx // pk) % p != 0]] *= coef
            pk *= p
            k += 1
    return out


@pytest.mark.parametrize("dual", [False, True])
def test_row_bit_identical_to_prime_loop(dual):
    # the primes above sqrt(N) multiply in one pass; every entry keeps the
    # loop's factors, products and order, so each bit, the sign of a zero
    # included, is the loop's
    sym2 = symmetric_square_form(prime_cap=16384)
    for form in (D3, sym2):
        for N in (1, 2, 3, 4, 10, 97, 500, 16384):
            row = coefficient_row(form, N, dual=dual)
            ref = _row_by_prime_loop(form, N, dual)
            assert np.array_equal(row.view(np.int64), ref.view(np.int64)), (form.label, N)


def test_row_dual_equals_row_for_self_dual(sym2):
    for form in (D3, sym2):
        row = coefficient_row(form, 500)
        dual = coefficient_row(form, 500, dual=True)
        assert np.max(np.abs(row - dual)) < 1e-10


def test_block_matches_per_pair_assembly(sym2):
    for form in (D3, sym2):
        for m in (1, 2, 6, 12):
            block = coefficient_block(form, m, 60)
            for n in range(1, 61):
                assert block[n] == pytest.approx(coefficient(form, m, n), abs=1e-9)


def test_block_transpose_matches(sym2):
    # A(n, m) from the dual row unfolded at m, on sym^2 Delta (A symmetric)
    # and on a stub whose Satake triple (2, i/2, -i) is not closed under
    # inversion, so that A(n, m) != A(m, n)
    skew = GL3Form("skew", GammaData((1j, 2j, -3j)), GammaData((-1j, -2j, 3j)), default_satake=(2, 0.5j, -1j))
    assert coefficient(skew, 6, 1) != coefficient(skew, 1, 6)
    for form in (sym2, skew):
        block = mobius_unfold(form, 6, coefficient_row(form, 40, dual=True), transpose=True)
        for n in range(1, 41):
            assert block[n] == pytest.approx(coefficient(form, n, 6), abs=1e-9)


def test_block_is_the_row_unfolded(sym2):
    # the residual profile unfolds every m1 from one row, and the tensor
    # double sum (afe._rs_terms' flat layout) every m from the prefix
    # n <= C / m^2 of one row of length C: each unfolding must equal the
    # unfolding of a row of length n_max bit for bit, in both orientations,
    # and coefficient_block in the direct one
    for form in (D3, sym2):
        for transpose in (False, True):
            row = coefficient_row(form, 500, dual=transpose)
            for m in (1, 2, 3, 12):
                for n_max in (500, 500 // (m * m)):
                    block = mobius_unfold(form, m, coefficient_row(form, n_max, dual=transpose), transpose)
                    if not transpose:
                        assert np.array_equal(coefficient_block(form, m, n_max), block)
                    assert np.array_equal(mobius_unfold(form, m, row[: n_max + 1], transpose), block)


@given(
    m=st.integers(min_value=1, max_value=400),
    n=st.integers(min_value=1, max_value=400),
)
@settings(max_examples=60, deadline=None)
def test_mobius_unfolding_identity(m, n):
    # A(m, n) = sum_{d | gcd} mu(d) A(m/d, 1) A(1, n/d), checked per pair
    from lfunlab.exactarith import mobius

    direct = coefficient(D3, m, n)
    g = math.gcd(m, n)
    folded = sum(
        mobius(d) * coefficient(D3, m // d, 1) * coefficient(D3, 1, n // d)
        for d in divisors(g)
    )
    assert direct == pytest.approx(folded, abs=1e-9 * max(1.0, abs(folded)))


@given(n=st.integers(min_value=1, max_value=1800))
@settings(max_examples=80, deadline=None)
def test_unitary_coefficients_dominated_by_divisor_count(n):
    form = symmetric_square_form(prime_cap=2000)
    assert abs(coefficient(form, 1, n)) <= triple_divisor(n) + 1e-9


def test_bound_report_linear_ratio_cross_check():
    # sum_{n <= N} |A(m, n)| / (N m) at m = 1 is the d3 mean for D3
    N = 1000
    linear_ratio = float(np.sum(np.abs(coefficient_block(D3, 1, N)))) / N
    want = float(np.sum([triple_divisor(m) for m in range(1, N + 1)])) / N
    assert linear_ratio == pytest.approx(want, rel=1e-12)
    square_mean = sum(
        float(np.sum(np.abs(coefficient_block(D3, m, N // (m * m))) ** 2))
        for m in range(1, math.isqrt(N) + 1)
    ) / N
    assert square_mean > 0


# ---------------------------------------------------------------------------
# exact tau values


def test_tau_frozen_values():
    tau = ramanujan_tau_table(2000)
    known = {
        1: 1,
        2: -24,
        3: 252,
        4: -1472,
        5: 4830,
        6: -6048,
        7: -16744,
        8: 84480,
        9: -113643,
        10: -115920,
        11: 534612,
        12: -370944,
    }
    for n, want in known.items():
        assert int(tau[n]) == want


def test_tau_congruence_mod_691():
    tau = ramanujan_tau_table(2000)
    for n in (2, 3, 10, 101, 500, 1234, 1999):
        sigma11 = sum(d**11 for d in divisors(n))
        assert (int(tau[n]) - sigma11) % 691 == 0


def test_tau_deligne_bound_and_hecke_square():
    tau = ramanujan_tau_table(2000)
    primes = [p for p in range(2, 45) if all(p % q for q in range(2, p))]
    for p in primes:
        assert abs(int(tau[p])) < 2 * p**5.5
        if p * p <= 2000:
            assert int(tau[p * p]) == int(tau[p]) ** 2 - p**11


def test_fft_convolution_mod_p_matches_direct():
    # the limb FFT square against the direct int64 convolution, on residues
    # of the largest 20-bit prime, at sizes with and without a short FFT
    p = heckegl3._small_primes_desc(20, 1)[0]
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 1000, 3001):
        a = rng.integers(0, p, n)
        a[-1] = p - 1
        assert np.array_equal(heckegl3._convolve_mod(a, p), np.convolve(a, a)[:n] % p)


def test_tau_hecke_relations_to_24000():
    # the table of symmetric_square_form's default cap, 24,000, against the
    # Hecke relations, which fix tau from its values at primes: tau(n) =
    # tau(p^k) tau(n / p^k) for the least prime p of n, p^k || n, and
    # tau(p^{k+1}) = tau(p) tau(p^k) - p^11 tau(p^{k-1}) (k = 1:
    # tau(p^2) = tau(p)^2 - p^11)
    N = 24000
    tau = ramanujan_tau_table(N)
    least = np.zeros(N + 1, dtype=np.int64)
    for p in range(N, 1, -1):
        least[p::p] = p
    for n in range(2, N + 1):
        p = int(least[n])
        q = p
        while n % (q * p) == 0:
            q *= p
        if q < n:
            assert tau[n] == tau[q] * tau[n // q]
        elif q > p:
            assert tau[n] == tau[p] * tau[n // p] - p**11 * tau[n // (p * p)]


def test_tau_table_cap():
    with pytest.raises(ValueError):
        ramanujan_tau_table(10**6)


def test_sym_square_satake_and_seed(sym2):
    tau = ramanujan_tau_table(2000)
    for p in (2, 3, 5, 97):
        x, y, z = sym2.satake_at(p)
        assert abs(x * y * z - 1) < 1e-12
        a_p = float(tau[p]) / p**5.5
        assert coefficient(sym2, 1, p) == pytest.approx(a_p * a_p - 1.0, abs=1e-10)
    assert sym2.gamma_dual == sym2.gamma == GammaData((1, 11, 12)) and not sym2.polar and not sym2.spherical


def test_sym_square_coefficients_real(sym2):
    row = coefficient_row(sym2, 800)
    assert np.max(np.abs(row.imag)) < 1e-10


# ---------------------------------------------------------------------------
# form validation


def test_satake_product_validated():
    with pytest.raises(ValueError):
        GL3Form(
            label="bad",
            gamma=GammaData((0j, 0j, 0j)),
            gamma_dual=GammaData((0j, 0j, 0j)),
            satake={2: (2 + 0j, 1 + 0j, 1 + 0j)},
        )


def test_spherical_sum_validated():
    with pytest.raises(ValueError):
        GL3Form(
            label="bad",
            gamma=GammaData((1 + 0j, 0j, 0j)),
            gamma_dual=GammaData((-1 + 0j, 0j, 0j)),
            default_satake=(1 + 0j, 1 + 0j, 1 + 0j),
        )


def test_missing_satake_raises():
    small = symmetric_square_form(prime_cap=100)
    with pytest.raises(MissingSatakeError):
        coefficient(small, 101, 1)


def test_polar_flags():
    assert triple_divisor_form().polar
    assert triple_divisor_form().spherical


def test_gamma_data_of_wrong_degree_rejected():
    # degree-2 data used to be accepted, and the tensor weight built from it
    # was silently the degree-4 one: 3.2e-4 at y = 2, t = 1, where D3's
    # degree-6 weight is 3.3e-5
    for name in ("gamma", "gamma_dual"):
        data = {"gamma": GammaData((0j, 0j, 0j)), "gamma_dual": GammaData((0j, 0j, 0j))}
        data[name] = GammaData((0j, 0j))
        with pytest.raises(ValueError, match=f"^{name} must be GammaData of degree 3"):
            GL3Form(label="short", default_satake=(1, 1, 1), **data)
    with pytest.raises(ValueError, match="gamma must be GammaData"):
        GL3Form("tuple", (0j, 0j, 0j), GammaData((0j, 0j, 0j)), default_satake=(1, 1, 1))


# ---------------------------------------------------------------------------
# Dirichlet series of the coefficient row


def _row_series(form: GL3Form, s: complex, cutoff: int, dual: bool = False) -> complex:
    """Partial sum of sum_{m <= cutoff} A(1, m) m^{-s} (dual: A(m, 1))."""
    row = coefficient_row(form, cutoff, dual=dual)
    return complex(np.sum(row[1:] * np.arange(1, cutoff + 1, dtype=float) ** -s))


def _double_dirichlet_residual(form: GL3Form, s: float, w: float, cutoff: int) -> float:
    """Relative gap between sum_{m^2 n <= cutoff} A(m, n) m^{-s-1} n^{-w-1},
    summed block by block, and its factorization
    L(s+1, dual) L(w+1, form) / zeta(s+w+2) from the two coefficient rows."""
    lhs = 0j
    for m in range(1, math.isqrt(cutoff) + 1):
        block = coefficient_block(form, m, cutoff // (m * m))[1:]
        n = np.arange(1, block.size + 1, dtype=float)
        lhs += m ** (-s - 1) * complex(np.sum(block * n ** (-w - 1)))
    rhs = _row_series(form, s + 1, cutoff, dual=True) * _row_series(form, w + 1, cutoff)
    rhs /= complex(zeta(s + w + 2))
    return abs(lhs - rhs) / abs(rhs)


def test_double_dirichlet_residual_triple_divisor():
    # truncation tail balances at m ~ sqrt(cutoff), giving ~ N^{-(s+1)/2}
    coarse = _double_dirichlet_residual(D3, 3.0, 3.0, 10**4)
    fine = _double_dirichlet_residual(D3, 3.0, 3.0, 10**5)
    assert fine < 1e-6
    assert fine < coarse / 5


def test_double_dirichlet_residual_sym_square(sym2):
    assert _double_dirichlet_residual(sym2, 2.0, 2.0, 2000) < 1e-4


def test_dirichlet_series_triple_divisor_zeta_cubed():
    # the gap is the tail sum_{m > N} d3(m) m^{-s}, about N^{1-s} log^2 N / (2 (s-1))
    value = _row_series(D3, 2.0, 3 * 10**4)
    want = complex(zeta(2.0)) ** 3
    assert abs(value - want) / abs(want) < 2.5e-3

    value3 = _row_series(D3, 3.0, 10**4)
    want3 = complex(zeta(3.0)) ** 3
    assert abs(value3 - want3) / abs(want3) < 1e-6


def test_sym_square_euler_product_oracle(sym2):
    # independent evaluation: truncated Euler product over p <= cap
    s = 3.0
    prod = 1.0
    for p in range(2, 2001):
        if any(p % q == 0 for q in range(2, int(math.isqrt(p)) + 1)):
            continue
        local = sum(
            coefficient(sym2, 1, p**k).real * p ** (-s * k) for k in range(0, 25)
        )
        prod *= local
    assert _row_series(sym2, s, 2000).real == pytest.approx(prod, rel=1e-5)
