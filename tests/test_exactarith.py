import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfunlab import exactarith
from lfunlab.exactarith import (
    NotCoprimeError,
    _least_prime_factors,
    _primes_upto,
    _unit_inverses,
    _units,
    divisors,
    factorize,
    kloosterman,
    kloosterman_sums,
    mobius,
    mod_inverse,
    ramanujan_divisor_mu,
)
from oracles import kloosterman_exact_phase, kloosterman_factored, kloosterman_phase_counts, triple_divisor


class TestModInverse:
    def test_identity_case(self):
        assert mod_inverse(1, 2) == 1

    def test_small_scanned_values(self):
        # frozen from a brute-force scan of residues
        assert mod_inverse(2, 3) == 2
        assert mod_inverse(5, 7) == 3

    def test_negative_input_reduced(self):
        r = mod_inverse(-1, 7)
        assert (r * -1) % 7 == 1

    def test_not_coprime_rejected(self):
        with pytest.raises(NotCoprimeError):
            mod_inverse(4, 6)

    @given(st.integers(-500, 500), st.integers(1, 300))
    def test_inverse_property(self, d, c):
        if math.gcd(d, c) != 1:
            with pytest.raises(NotCoprimeError):
                mod_inverse(d, c)
        else:
            r = mod_inverse(d, c)
            assert type(r) is int
            assert 0 <= r < c
            assert (r * d) % c == 1 % c


class TestKloosterman:
    def test_modulus_one_single_term(self):
        for n, l in [(0, 0), (3, -5), (17, 2)]:
            assert kloosterman(n, l, 1) == pytest.approx(1.0)

    def test_modulus_integer_types_and_range(self):
        # a numpy integer modulus gives the int result bit for bit, on every
        # route that takes one; a modulus below 1 is rejected, not summed
        # over an empty unit group (kloosterman_factored returned 1 for it)
        for n, l, c in [(1, 1, 7), (3, -5, 12), (2, 9, 97), (1, 1, 1)]:
            assert kloosterman(n, l, np.int64(c)) == kloosterman(n, l, c)
            assert kloosterman_factored(n, l, np.int64(c)) == kloosterman_factored(n, l, c)
        inverse = mod_inverse(3, np.int64(7))
        assert type(inverse) is int and inverse == mod_inverse(3, 7) == mod_inverse(np.int64(3), 7)
        for route in (kloosterman, kloosterman_factored):
            for c in (0, -3):
                with pytest.raises(ValueError, match="positive"):
                    route(1, 1, c)

    def test_non_integral_arguments_rejected(self):
        # n and l may be zero or negative, but must be integers: a float n
        # was reduced mod c as a float, and S(1.5, 1; 3) came back as
        # -1.1e-15 - 1.732i
        assert kloosterman(np.int64(-2), 0, 5) == kloosterman(-2, 0, 5)
        for n, l in [(1.5, 1), (1, 2.5), (2.0, 1)]:
            with pytest.raises(TypeError):
                kloosterman(n, l, 3)

    def test_frozen_small_values(self):
        # frozen from direct enumeration over coprime residues
        assert kloosterman(1, 1, 2).real == pytest.approx(1.0, abs=1e-12)
        assert kloosterman(1, 1, 3).real == pytest.approx(-1.0, abs=1e-12)

    def test_real_up_to_rounding(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            c = int(rng.integers(1, 400))
            n = int(rng.integers(-50, 50))
            l = int(rng.integers(-50, 50))
            s = kloosterman(n, l, c)
            assert abs(s.imag) <= 1e-11 * (abs(s) + 1)

    def test_exact_phase_oracle_agrees(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            c = int(rng.integers(1, 101))
            n = int(rng.integers(-30, 60))
            l = int(rng.integers(-30, 60))
            # |S| is at most the number of units, phi(c) = S(0, 0; c)
            terms = ramanujan_divisor_mu(0, c)
            assert abs(kloosterman(n, l, c) - kloosterman_exact_phase(n, l, c)) <= 1e-12 * (terms + 1)

    def test_symmetry_exact_by_phase_histogram(self):
        # S(n, l; c) and S(l, n; c) enumerate the same multiset of phases
        rng = np.random.default_rng(3)
        for _ in range(60):
            c = int(rng.integers(1, 300))
            n = int(rng.integers(-40, 80))
            l = int(rng.integers(-40, 80))
            assert np.array_equal(
                kloosterman_phase_counts(n, l, c), kloosterman_phase_counts(l, n, c)
            )

    @settings(max_examples=150, deadline=None)
    @given(st.integers(-100, 200), st.integers(-100, 200), st.integers(1, 2000))
    def test_weil_bound(self, n, l, c):
        s = abs(kloosterman(n, l, c))
        g = math.gcd(math.gcd(abs(n), abs(l)), c)
        assert s <= math.sqrt(c) * math.sqrt(g) * len(divisors(c)) + 1e-9

    @settings(max_examples=100, deadline=None)
    @given(st.integers(-50, 100), st.integers(-50, 100), st.integers(1, 1000))
    def test_factored_route_matches_enumeration(self, n, l, c):
        direct = kloosterman(n, l, c)
        composed = kloosterman_factored(n, l, c)
        assert abs(direct - composed) <= 1e-9 * (c + 1)


def ramanujan_sums(a: int, c: int) -> tuple:
    # S(0, a; c) and S(a, 0; c): d and its inverse run over the same units
    return kloosterman(0, a, c), kloosterman(a, 0, c)


class TestUnitTables:
    def test_inverses_match_pow(self):
        # the array Euclid against Python's pow, integer for integer, for
        # every c <= 2000 and for a large prime, prime power and primorial;
        # c = 1 keeps its one residue 0.  Equal tables give bit-identical
        # Kloosterman sums
        for c in [*range(2, 2001), 65_537, 3**10, 2 * 3 * 5 * 7 * 11 * 13 * 17]:
            _, units, inv = _units(c)
            assert units.dtype == inv.dtype == np.int64
            assert inv.tolist() == [pow(u, -1, c) for u in units.tolist()]
        assert [a.tolist() for a in _units(1)[1:]] == [[0], [0]]

    def test_array_modulus_inverses_match_pow(self):
        # one Euclid over the units of every c <= 300 at once, each element
        # against its own modulus (c = 1 holds the unit 1, the residue 0)
        pairs = [(d, c) for c in range(1, 301) for d in range(1, c + 1) if math.gcd(d, c) == 1]
        d, c = (np.array(col, dtype=np.int64) for col in zip(*pairs))
        inv = _unit_inverses(d, c)
        assert inv.dtype == np.int64
        assert inv.tolist() == [pow(int(u), -1, int(m)) for u, m in pairs]

    def test_float_euclid_matches_int64_route(self):
        # every unit d of every c <= 3,200 (3.1 million), one block of 400
        # moduli at a time, against the int64 floor-division Euclid
        for lo in range(1, 3201, 400):
            cs = np.arange(lo, lo + 400, dtype=np.int64)
            c = np.repeat(cs, cs)
            d = np.arange(1, c.size + 1, dtype=np.int64) - np.repeat(np.cumsum(cs) - cs, cs)
            units = np.gcd(d, c) == 1
            d, c = d[units], c[units]
            inv = _unit_inverses(d, c)
            assert inv.dtype == np.int64
            assert np.array_equal(inv, _int64_inverses(d, c))
            assert np.all((d * inv) % c == 1 % c)


def _int64_inverses(units: np.ndarray, c) -> np.ndarray:
    """The array Euclid in int64 floor division, as it ran before the
    float64 steps: the reference they must reproduce."""
    steps, f0, f1 = -1, 1, 2
    while f1 <= int(np.max(c)):
        steps, f0, f1 = steps + 1, f1, f0 + f1
    r0, r1 = np.broadcast_to(c, units.shape).copy(), units.copy()
    s0, s1 = np.zeros_like(units), np.ones_like(units)
    for _ in range(steps):
        q = (r0 - 1) // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    return s1 % c


class TestKloostermanSums:
    """The batched route: every S(+-n, l; c), c <= c_max, in blocks of moduli."""

    @pytest.mark.parametrize("n, l", [(1, 1), (2, 3), (5, -7), (12, 18), (0, 1)])
    def test_matches_exact_phase_oracle(self, n, l):
        plus, minus = kloosterman_sums(n, l, 300)
        assert plus.shape == minus.shape == (300,)
        signs = [(plus, n)] + ([(minus, -n)] if n else [])  # n = 0: the same phases
        assert n or np.array_equal(plus, minus)
        for c in range(1, 301):
            for sums, m in signs:
                assert abs(sums[c - 1] - kloosterman_exact_phase(m, l, c).real) <= 1e-12

    def test_modulus_one_and_indices_divisible_by_c(self):
        for n, l in [(1, 1), (0, 0), (7, -3)]:
            plus, minus = kloosterman_sums(n, l, 1)
            assert plus.tolist() == minus.tolist() == [1.0]
        # 2520 is divisible by every c <= 10 and by 26 of the c <= 60, where
        # a sum degenerates to a Ramanujan sum (or to phi(c) when c divides
        # both indices)
        for n, l in [(2520, 1), (1, 2520), (2520, 5040)]:
            plus, minus = kloosterman_sums(n, l, 60)
            for c in range(1, 61):
                assert abs(plus[c - 1] - kloosterman_exact_phase(n, l, c).real) <= 1e-12
                assert abs(minus[c - 1] - kloosterman_exact_phase(-n, l, c).real) <= 1e-12

    @pytest.mark.parametrize("n, l", [(1, 1), (5, -7)])
    def test_value_does_not_depend_on_c_max(self, n, l):
        # block edges are fixed from c = 1, so a shorter call is a prefix bit
        # for bit, also across an edge (the first block ends near c = 256)
        for short, long in [(100, 300), (500, 800)]:
            a, b = kloosterman_sums(n, l, long), kloosterman_sums(n, l, short)
            for i in range(2):
                assert np.array_equal(a[i][:short], b[i])

    def test_memory_is_bounded_by_the_block(self):
        # at c_max = 3200 the residues d <= c/2 alone fill 20 MB of int64;
        # blocks of about 2^14 residues keep the peak near that of c_max = 800
        kloosterman_sums(1, 1, 10)
        tracemalloc.start()
        try:
            kloosterman_sums(1, 1, 3200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_rejects_c_max_below_one(self):
        for c_max in (0, -5):
            with pytest.raises(ValueError, match="c_max"):
                kloosterman_sums(1, 1, c_max)

    def test_inverts_only_the_prime_power_units(self, monkeypatch):
        # the units d <= q/2 of each prime power q <= 800 (26,759) and one
        # inverse per pair q || c (1,674); a table per modulus would hold the
        # 97,376 units d <= c/2 of every c <= 800
        sizes = []

        def spy(units, c):
            sizes.append(units.size)
            return _unit_inverses(units, c)

        monkeypatch.setattr(exactarith, "_unit_inverses", spy)
        kloosterman_sums(1, 1, 800)
        assert sum(sizes) < 30_000

    @pytest.mark.parametrize(
        "n, l",
        [(1, 1), (5, -7), (210, 330), (512, 1), (1, -729), (625 * 343, 3), (787, 2 * 797)],
    )
    def test_prime_powers_and_many_prime_factors_match_oracle(self, n, l):
        # high prime powers, moduli with four prime factors and two primes
        # near c_max, with indices divisible by p (210 and 330 by 2, 3 and 5;
        # 787 and 2 * 797 by the primes themselves) or by q (512, 729, 625
        # and 343)
        plus, minus = kloosterman_sums(n, l, 800)
        for c in [512, 729, 625, 343, 243, 210, 330, 390, 510, 570, 690, 714, 770, 780, 798, 787, 797]:
            assert abs(plus[c - 1] - kloosterman_exact_phase(n, l, c).real) <= 1e-12
            assert abs(minus[c - 1] - kloosterman_exact_phase(-n, l, c).real) <= 1e-12

    @pytest.mark.parametrize("n, l", [(1, 1), (12, 18), (0, 6), (2520, 5040), (7, -343)])
    def test_weil_bound_for_every_modulus(self, n, l):
        # |S(+-n, l; c)| <= d(c) sqrt(gcd(n, l, c)) sqrt(c) for every c <= 800
        plus, minus = kloosterman_sums(n, l, 800)
        for c in range(1, 801):
            bound = len(divisors(c)) * math.sqrt(math.gcd(n, l, c) * c)
            assert abs(plus[c - 1]) <= bound + 1e-9
            assert abs(minus[c - 1]) <= bound + 1e-9


class TestRamanujan:
    """The degenerate Kloosterman sums, which voronoi_residual_profile meets
    whenever its modulus divides m2, against the divisor-mu closed form."""

    def test_single_term(self):
        for val in ramanujan_sums(1, 1):
            assert val == pytest.approx(1.0)

    def test_frozen_values(self):
        # frozen from the divisor-mu closed form
        for a, c, want in [(1, 4, 0.0), (6, 4, -2.0)]:
            for val in ramanujan_sums(a, c):
                assert val == pytest.approx(want, abs=1e-12)

    def test_zero_argument_gives_totient(self):
        # gcd(0, c) = c, so the closed form degenerates to Euler phi
        for c, phi in [(1, 1), (2, 1), (6, 2), (10, 4), (12, 4)]:
            assert kloosterman(0, 0, c) == pytest.approx(phi, abs=1e-10)
            assert ramanujan_divisor_mu(0, c) == phi

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-300, 600), st.integers(1, 600))
    def test_matches_divisor_mu_oracle_and_integrality(self, a, c):
        for val in ramanujan_sums(a, c):
            assert abs(val - round(val.real)) <= 1e-9
            assert round(val.real) == ramanujan_divisor_mu(a, c)


def twist_identity_residual(l: int, n1: int, n2: int, m: int, c: int) -> float:
    """|LHS - RHS| of the twisted Kloosterman average identity, with
    M = m*c/n1 a positive integer:

        LHS = sum_{d mod c, (d,c)=1} e(l*d/c) * S(m*d, n2; M)
        RHS = sum_{u mod M, (u,M)=1} S(0, l + u*n1; c) * e(n2*ubar/M).

    Opening S(m*d, n2; M) and executing the d-sum gives the right side, so
    this ties `kloosterman` at modulus M to its degenerate values at c.
    """
    M = (c * m) // n1
    lhs = sum(
        np.exp(2j * np.pi * l * d / c) * kloosterman(m * d, n2, M)
        for d in range(1, c + 1)
        if math.gcd(d, c) == 1
    )
    rhs = sum(
        kloosterman(0, l + u * n1, c) * np.exp(2j * np.pi * n2 * pow(u, -1, M) / M)
        for u in range(1, M + 1)
        if math.gcd(u, M) == 1
    )
    return abs(lhs - rhs)


class TestTwistIdentity:
    def test_trivial_all_ones(self):
        assert twist_identity_residual(1, 1, 1, 1, 1) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_enumerated_cases(self):
        assert twist_identity_residual(2, 1, 3, 2, 5) <= 1e-9
        assert twist_identity_residual(1, 3, 2, 3, 4) <= 1e-9

    def test_degenerate_inner_modulus(self):
        # n1 = c*m makes M = 1 and both sides a single Ramanujan sum
        assert twist_identity_residual(5, 12, 7, 3, 4) <= 1e-10

    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(-10, 50),
        st.integers(-20, 50),
        st.integers(1, 14),
        st.integers(1, 14),
        st.data(),
    )
    def test_residual_vanishes(self, l, n2, m, c, data):
        n1 = data.draw(st.sampled_from(divisors(c * m)))
        res = twist_identity_residual(l, n1, n2, m, c)
        assert res <= 1e-9 * (c * m + 1)


class TestMultiplicativeTables:
    def test_d3_by_direct_triple_enumeration(self):
        for m in range(1, 40):
            count = sum(
                1
                for a in divisors(m)
                for b in divisors(m // a)
                if (m // a) % b == 0
            )
            assert triple_divisor(m) == count

    @given(st.integers(1, 10**6))
    def test_factorize_roundtrip(self, m):
        prod = 1
        for p, e in factorize(m):
            prod *= p**e
        assert prod == m

    def test_least_prime_factor_sieve(self):
        # against trial division for every m <= 3000, and the primes as the
        # m >= 2 that are their own least prime factor
        lpf = _least_prime_factors(3000)
        assert lpf.dtype == np.int64 and lpf[:2].tolist() == [0, 1]
        assert lpf[2:].tolist() == [factorize(m)[0][0] for m in range(2, 3001)]
        for N in [0, 1, 2, 3, 4, 24, 25, 26, 3000]:
            assert _primes_upto(N).tolist() == [m for m in range(2, N + 1) if factorize(m) == [(m, 1)]]

    def test_non_integral_arguments_rejected(self):
        # factorize(12.5) returned [(12.5, 1)] and divisors(6.5) [1.0, 6.5]
        for f in (factorize, divisors, mobius):
            for m in (12.5, 6.5, 6.0, 0, -4):
                with pytest.raises(ValueError, match="m must be a positive integer"):
                    f(m)
        assert factorize(np.int64(12)) == factorize(12) == [(2, 2), (3, 1)]
