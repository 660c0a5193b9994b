"""Exact modular arithmetic: Kloosterman sums, factorization, and the
multiplicative functions built on it.

Notation: e(z) = exp(2*pi*i*z).  The Kloosterman sum is

    S(n, l; c) = sum_{d mod c, gcd(d,c)=1} e((d*l + dbar*n)/c),

with d*dbar == 1 (mod c).  Degenerate case n = 0 (or l = 0) gives the
Ramanujan sum S(0, a; c) = sum_{d mod c, gcd(d,c)=1} e(a*d/c), which has
the closed form sum_{d | gcd(a,c)} d * mu(c/d).

Everything here is a pure function of its integer arguments.  Phases are
reduced to integers k mod c before exponentiation, so the only floating
error is in exp(2*pi*i*k/c) and the final summation: pairwise for one
modulus (`kloosterman`), and in order of d for the batched route
(`kloosterman_sums`), which takes cos(2*pi*k/c) over the units d <= c/2 of
every c <= c_max in blocks of moduli and sums them by one bincount per
block.  The Ramanujan sums also have their closed form here
(`ramanujan_divisor_mu`).
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


_BLOCK_RESIDUES = 1 << 15  # residues per block of kloosterman_sums, plus at most one modulus's


def kloosterman_sums(n: int, l: int, c_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(Re S(n, l; c), Re S(-n, l; c)) for c = 1..c_max, as two float arrays.

    S is real: d -> c - d conjugates each term.  So for c > 2 each sum is
    twice the sum over its units d < c/2, and c = 1, 2 keep their one term
    (c = 1 the residue 0, laid out as 1).  The residues 1 <= d <= max(1, c/2)
    of a block of moduli are laid out as flat arrays, the units among them
    kept, and their inverses taken by one array Euclid.  The phases
    (l d +- n dbar) mod c are reduced in integers, then cos(2 pi k / c) is
    summed per modulus by one bincount per sign, in order of d.  A block
    closes where the residues laid out from c = 1 reach a multiple of
    _BLOCK_RESIDUES, a rule that does not look at c_max, so every sum is the
    same bit for bit whatever c_max it was computed under.
    """
    n, l, c_max = operator.index(n), operator.index(l), operator.index(c_max)
    if c_max < 1:
        raise ValueError(f"c_max must be at least 1, got {c_max}")
    cs = np.arange(1, c_max + 1, dtype=np.int64)
    counts = np.maximum(cs // 2, 1)
    block = (np.cumsum(counts) - 1) // _BLOCK_RESIDUES  # a modulus goes with its last residue
    edges = [0, *(np.flatnonzero(np.diff(block)) + 1).tolist(), c_max]
    plus, minus = np.empty(c_max), np.empty(c_max)
    for lo, hi in zip(edges[:-1], edges[1:]):
        c = np.repeat(cs[lo:hi], counts[lo:hi])
        first = np.cumsum(counts[lo:hi]) - counts[lo:hi]
        d = np.arange(1, c.size + 1, dtype=np.int64) - np.repeat(first, counts[lo:hi])
        units = np.gcd(d, c) == 1
        d, c = d[units], c[units]
        ld = (l % c) * d
        nd = (n % c) * _unit_inverses(d, c)
        scale = (2.0 * np.pi) / c
        for out, k in ((plus, ld + nd), (minus, ld - nd)):
            k %= c
            out[lo:hi] = np.bincount(c - cs[lo], weights=np.cos(k * scale), minlength=hi - lo)
    plus[2:] *= 2.0
    minus[2:] *= 2.0
    return plus, minus


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
