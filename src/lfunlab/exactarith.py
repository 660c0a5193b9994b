"""Exact modular arithmetic: Kloosterman sums, factorization, and the
multiplicative functions built on it.

Notation: e(z) = exp(2*pi*i*z).  The Kloosterman sum is

    S(n, l; c) = sum_{d mod c, gcd(d,c)=1} e((d*l + dbar*n)/c),

with d*dbar == 1 (mod c).  Degenerate case n = 0 (or l = 0) gives the
Ramanujan sum S(0, a; c) = sum_{d mod c, gcd(d,c)=1} e(a*d/c), which has
the closed form sum_{d | gcd(a,c)} d * mu(c/d).

Everything here is a pure function of its integer arguments.  Phases are
reduced to integers k mod c before exponentiation, so the only floating
error is in exp(2*pi*i*k/c) and what is done with those values.  For one
modulus (`kloosterman`) that is a pairwise summation.  The batched route
(`kloosterman_sums`) builds every S(+-n, l; c), c <= c_max, from
prime-power blocks by twisted multiplicativity.  One least prime factor
sieve (`_least_prime_factors`, which also lists the primes for `heckegl3`)
splits each c into its prime powers q.  The cos(2*pi*k/q) over the units
d <= q/2 of each distinct block are summed in order of d, and each c takes
the product of its blocks' sums.  The Ramanujan sums also have their
closed form here (`ramanujan_divisor_mu`).
"""

from __future__ import annotations

import math
import operator

import numpy as np

__all__ = [
    "NotCoprimeError",
    "mod_inverse",
    "kloosterman",
    "kloosterman_sums",
    "ramanujan_divisor_mu",
    "factorize",
    "divisors",
    "mobius",
]


class NotCoprimeError(ValueError):
    """Inverse requested for a residue that shares a factor with the modulus."""


def _check_positive_integers(**values) -> None:
    """ValueError naming the first keyword argument that is not a positive integer."""
    for name, value in values.items():
        if not (isinstance(value, (int, np.integer)) and value >= 1):
            raise ValueError(f"{name} must be a positive integer, got {value!r}")


def mod_inverse(d: int, c: int) -> int:
    """Inverse of d modulo c, reduced to [0, c).

    Any integer type is accepted; raises NotCoprimeError unless gcd(d, c) = 1.
    """
    d, c = operator.index(d), operator.index(c)
    if c < 1:
        raise ValueError(f"modulus must be positive, got {c}")
    try:
        return pow(d, -1, c)
    except ValueError as exc:
        raise NotCoprimeError(f"{d} is not invertible mod {c}") from exc


def _unit_inverses(units: np.ndarray, c) -> np.ndarray:
    """Inverses of an int64 array of units, by the extended Euclidean
    algorithm run on the whole array at once.  c is one modulus > 1 or an
    int64 array of moduli >= 1 parallel to units (a unit of modulus 1 must
    be 1, the residue 0 written so that no remainder is 0).

    Each element carries two pairs (r, s) with s u = r (mod c), from (c, 0)
    and (u, 1).  The quotient (r0 - 1) // r1 keeps remainders in [1, r1], so
    for gcd(u, c) = 1 they follow Euclid's until r1 = 1, where s1 is the
    inverse, and then stay at r0 = r1 = 1, both s inverses: no element needs
    a mask once done, and no remainder or coefficient leaves [-c, c].  The
    step count is Lame's at the largest c: n division steps on (c, u), the
    last to remainder 0, need c >= F(n + 2), and the remainder 1 comes one
    step earlier.

    The steps run in float64, which is faster than int64 floor division
    and exact for c < 2^52 (a table of the units of such a c would not fit
    in memory): every r, s and q r is an integer of size at most c, and the
    quotient a / b of integers 0 <= a < 2^52 rounds to within
    (a / b) 2^-53 < 1 / b of itself, closer than any integer it is not, so
    its floor is the integer quotient.
    """
    c_top = int(np.max(c))
    steps, f0, f1 = -1, 1, 2  # F(2), F(3)
    while f1 <= c_top:
        steps, f0, f1 = steps + 1, f1, f0 + f1
    r0, r1 = np.broadcast_to(c, units.shape).astype(float), units.astype(float)
    s0, s1 = np.zeros_like(r1), np.ones_like(r1)
    q, t = np.empty_like(r1), np.empty_like(r1)
    for _ in range(steps):
        np.subtract(r0, 1.0, out=q)
        q /= r1
        np.floor(q, out=q)
        np.multiply(q, r1, out=t)
        r0 -= t
        np.multiply(q, s1, out=t)
        s0 -= t
        r0, r1, s0, s1 = r1, r0, s1, s0
    return np.remainder(s1, c, out=s1).astype(np.int64)


def _units(c) -> tuple[int, np.ndarray, np.ndarray]:
    """The modulus as a Python int (any integer type is accepted), then its
    units and their inverses as parallel int64 arrays, built on each call
    (no caller repeats a modulus enough to pay for a cache); ValueError
    unless c >= 1.

    c = 1 yields the single residue 0, which is its own inverse; that
    convention makes every downstream sum collapse to one term of phase 0.
    """
    c = operator.index(c)
    if c < 1:
        raise ValueError(f"modulus must be positive, got {c}")
    if c == 1:
        z = np.zeros(1, dtype=np.int64)
        return c, z, z
    d = np.arange(c, dtype=np.int64)
    units = d[np.gcd(d, c) == 1]
    return c, units, _unit_inverses(units, c)


def kloosterman(n: int, l: int, c: int) -> complex:
    """S(n, l; c) by direct enumeration over units mod c.

    n and l may be any integers (of any integer type), c a positive one.
    The result is real up to rounding (pairing d with its inverse conjugates
    each term), but the full complex value is returned so that the
    cancellation is visible.
    """
    n, l = operator.index(n), operator.index(l)
    c, units, inv = _units(c)
    phase = ((l % c) * units + (n % c) * inv) % c
    return complex(np.exp((2j * np.pi / c) * phase).sum())


def _least_prime_factors(N: int) -> np.ndarray:
    """lpf[m], the least prime factor of each 2 <= m <= N, as an int64 array
    of N + 1 entries (lpf[0] = 0 and lpf[1] = 1), so that m >= 2 is prime
    exactly where lpf[m] = m.  A composite m has lpf[m]^2 <= m, so writing
    p over the multiples of p^2 for the primes p <= sqrt(N), the largest
    first, leaves each composite its least prime factor and each prime
    itself."""
    lpf = np.arange(N + 1, dtype=np.int64)
    for p in _primes_upto(math.isqrt(N))[::-1].tolist() if N >= 4 else ():
        lpf[p * p :: p] = p
    return lpf


def _primes_upto(N: int) -> np.ndarray:
    """The primes <= N, ascending, from _least_prime_factors."""
    return np.flatnonzero(_least_prime_factors(N) == np.arange(N + 1))[2:]


_BLOCK_RESIDUES = 1 << 14  # laid-out terms per block of kloosterman_sums, plus at most one prime power's


def _prime_power_sums(l: int, qs, ps, units, per_q, twists) -> list:
    """[sum cos(2 pi (l d + n' dbar) / q), the same with -n'], each over the
    units d <= q/2 in order of d, one entry per key (q, n').  The prime
    powers qs ascend, ps are their primes, units their numbers of units
    d <= q/2 and per_q their numbers of keys; twists holds the keys' n',
    q by q."""
    halves = qs // 2
    q = np.repeat(qs, halves)
    d = np.arange(1, q.size + 1, dtype=np.int64) - np.repeat(np.cumsum(halves) - halves, halves)
    coprime = d % np.repeat(ps, halves) != 0
    d, q = d[coprime], q[coprime]
    dbar = _unit_inverses(d, q)
    ld = (l % q) * d % q
    # each key's terms: the units of its q, read from that q's table
    starts = np.repeat(np.cumsum(units) - units, per_q)
    counts = np.repeat(units, per_q)
    first = np.cumsum(counts) - counts
    take = np.arange(first[-1] + counts[-1]) + np.repeat(starts - first, counts)
    ld, q = ld[take], q[take]
    nd = np.repeat(twists, counts)
    nd *= dbar[take]
    del d, dbar, take  # the block's peak memory is the arrays alive at once
    scale = (2.0 * np.pi) / q
    key = np.repeat(np.arange(twists.size), counts)
    sums = []
    for sign in (np.add, np.subtract):
        k = sign(ld, nd)
        k %= q
        phase = k * scale
        del k
        sums.append(np.bincount(key, weights=np.cos(phase, out=phase), minlength=twists.size))
    return sums


def kloosterman_sums(n: int, l: int, c_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(Re S(n, l; c), Re S(-n, l; c)) for c = 1..c_max, as two float arrays.

    By twisted multiplicativity (Iwaniec and Kowalski, Analytic Number
    Theory, ch. 1), S(+-n, l; c) is the product over the prime powers
    q || c of S(+-n', l; q), n' = n (c/q)bar^2 mod q, and c = 1 is the
    empty product 1.  One least prime factor sieve splits every c <= c_max
    into its prime powers, and each distinct key (q, n') is summed once.
    S(+-n', l; q) is real: d -> q - d conjugates each term.  So for q > 2
    it is twice the sum over the units d <= q/2, the d prime to p, and q = 2
    keeps its one term d = 1.  Those units of each q are inverted by one
    array Euclid, the phases (l d +- n' dbar) mod q reduced in integers,
    and cos(2 pi k / q) summed per key by one bincount per sign, in order
    of d.  Each c then takes the product of its keys' sums, ascending in p.
    The keys are summed in blocks that close only between prime powers,
    once the terms laid out reach a multiple of _BLOCK_RESIDUES; a key's
    sum does not depend on its block, so every S is the same bit for bit
    whatever c_max it was computed under.
    """
    n, l, c_max = operator.index(n), operator.index(l), operator.index(c_max)
    if c_max < 1:
        raise ValueError(f"c_max must be at least 1, got {c_max}")
    if c_max == 1:
        return np.ones(1), np.ones(1)
    lpf = _least_prime_factors(c_max)
    # the pairs (c, q), q || c, one round per prime of c, smallest prime first
    rounds = []
    c = np.arange(2, c_max + 1, dtype=np.int64)
    rest = c.copy()
    while c.size:
        p = lpf[rest]
        q = p.copy()
        rest //= p
        more = rest % p == 0
        while more.any():
            q[more] *= p[more]
            rest[more] //= p[more]
            more = rest % p == 0
        rounds.append((c, q))
        left = rest > 1
        c, rest = c[left], rest[left]
    pair_c = np.concatenate([c for c, _ in rounds])
    pair_q = np.concatenate([q for _, q in rounds])
    rbar = _unit_inverses(pair_c // pair_q % pair_q, pair_q)
    twist = (n % pair_q) * rbar % pair_q * rbar % pair_q
    # the distinct keys (q, n'), ascending in q and then in n', by a set and
    # a dict: numpy's integer sorts would page in some 0.3 MB of code that
    # nothing else in a trace identity round runs
    codes = (pair_q * c_max + twist).tolist()
    keys = sorted(set(codes))
    rank = {code: i for i, code in enumerate(keys)}
    pair_key = np.array([rank[code] for code in codes])
    key_q, key_n = np.divmod(np.array(keys), c_max)
    # the prime powers q with their first key, number of keys and units d <= q/2
    q_first = np.flatnonzero(np.diff(key_q, prepend=0))
    qs, q_keys = key_q[q_first], np.diff(q_first, append=key_q.size)
    ps = lpf[qs]
    q_units = qs // 2 - qs // 2 // ps
    block = (np.cumsum(q_keys * q_units) - 1) // _BLOCK_RESIDUES  # a q goes with its last term
    edges = [0, *(np.flatnonzero(np.diff(block)) + 1).tolist(), qs.size]
    key_sums = np.empty((2, key_q.size))
    for lo, hi in zip(edges[:-1], edges[1:]):
        at = slice(q_first[lo], q_first[lo] + q_keys[lo:hi].sum())
        key_sums[:, at] = _prime_power_sums(l, qs[lo:hi], ps[lo:hi], q_units[lo:hi], q_keys[lo:hi], key_n[at])
    key_sums[:, key_q > 2] *= 2.0
    sums = np.ones((2, c_max))
    done = 0
    for c, _ in rounds:
        sums[:, c - 1] *= key_sums[:, pair_key[done : done + c.size]]
        done += c.size
    return sums[0], sums[1]


def factorize(m: int) -> list[tuple[int, int]]:
    """Prime factorization of m >= 1 as (prime, exponent) pairs, trial division."""
    _check_positive_integers(m=m)
    out = []
    for p in (2, 3):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    p = 5
    step = 2  # alternate 5,7,11,13,... wheel over 6k+-1
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += step
        step = 6 - step
    if m > 1:
        out.append((m, 1))
    return out


def divisors(m: int) -> list[int]:
    """All positive divisors of m, ascending."""
    divs = [1]
    for p, e in factorize(m):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def mobius(m: int) -> int:
    fac = factorize(m)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def ramanujan_divisor_mu(a: int, c: int) -> int:
    """Closed-form oracle for the Ramanujan sum S(0, a; c) = kloosterman(0, a, c):
    sum_{d | gcd(a, c)} d * mu(c/d).

    gcd(0, c) = c, so a = 0 correctly returns Euler phi of c.
    """
    g = math.gcd(a, c)
    return sum(d * mobius(c // d) for d in divisors(g))
