"""Rank-3 Hecke coefficient engine.

A form is described by one Satake triple (x, y, z) per prime, normalized to
x y z = 1, plus gamma data.  The prime-power coefficient is the Schur
polynomial of the partition (a+b, a, 0):

    A(p^a, p^b) = h_{a+b} h_a - h_{a+b+1} h_{a-1},

a 2x2 Jacobi-Trudi determinant in the complete homogeneous symmetric
polynomials h_k of the triple, which obey h_k = e1 h_{k-1} - e2 h_{k-2} +
e3 h_{k-3}.  Coefficients at general (m, n) multiply across coprime prime
blocks.  The Hecke recursion

    A(p,1) A(p^i, p^j) = A(p^{i-1}, p^{j+1}) + A(p^i, p^{j-1}) + A(p^{i+1}, p^j)

(terms with negative exponents dropped) is NOT used to build anything; the
tests check the coefficients against it.  A second exact consequence used
for bulk work is the Moebius unfolding

    A(m, n) = sum_{d | gcd(m, n)} mu(d) A(m/d, 1) A(1, n/d),

which turns double sums into products of one-dimensional rows.

Two concrete instances ship: the degenerate "triple divisor" form (all
Satake triples (1,1,1); its Dirichlet coefficients are the 3-fold divisor
counts, and its L-function is polar), and the symmetric-square lift of the
discriminant cusp form, seeded by exact integer values of the tau function
computed from the 24th power of the Dedekind eta q-series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping

import numpy as np

from .exactarith import _check_positive_integers, _primes_upto, divisors, factorize, mobius
from .special import GammaData

__all__ = [
    "GL3Form",
    "MissingSatakeError",
    "PolarFormError",
    "coefficient",
    "coefficient_row",
    "coefficient_block",
    "mobius_unfold",
    "triple_divisor_form",
    "symmetric_square_form",
    "ramanujan_tau_table",
]


class MissingSatakeError(ValueError):
    """A coefficient was requested at a prime the form carries no data for."""


class PolarFormError(ValueError):
    """Operation requires a form whose standard L-function is entire."""


@dataclass(frozen=True, eq=False)
class GL3Form:
    """Rank-3 form: gamma data plus a Satake map.

    gamma / gamma_dual are the degree-3 special.GammaData of the form's
    standard L-function and of its dual's.  The form is `spherical` when
    gamma_dual = -gamma, and its shifts then sum to 0; sym^2 Delta is not.
    polar marks instances whose Dirichlet series has a pole at s = 1 (the
    triple-divisor case); central-value machinery rejects those.
    """

    label: str
    gamma: GammaData
    gamma_dual: GammaData
    satake: Mapping[int, tuple] = field(default_factory=dict)
    default_satake: tuple | None = None
    polar: bool = False

    def __post_init__(self) -> None:
        for name, data in (("gamma", self.gamma), ("gamma_dual", self.gamma_dual)):
            if not (isinstance(data, GammaData) and len(data.shifts) == 3):
                raise ValueError(f"{name} must be GammaData of degree 3, got {data!r}")
        if self.spherical and abs(sum(self.gamma.shifts)) > 1e-12:
            raise ValueError(f"spherical parameters must sum to 0, got {sum(self.gamma.shifts)}")
        for p, triple in self.satake.items():
            prod = complex(triple[0]) * complex(triple[1]) * complex(triple[2])
            if abs(prod - 1) > 1e-9:
                raise ValueError(f"Satake product at p={p} is {prod}, not 1")
        if self.default_satake is not None:
            x, y, z = (complex(v) for v in self.default_satake)
            if abs(x * y * z - 1) > 1e-12:
                raise ValueError("default Satake product must be 1")

    @property
    def spherical(self) -> bool:
        return self.gamma_dual.shifts == tuple(-k for k in self.gamma.shifts)

    def satake_at(self, p: int) -> tuple:
        triple = self.satake.get(p)
        if triple is not None:
            return triple
        if self.default_satake is not None:
            return self.default_satake
        raise MissingSatakeError(
            f"form {self.label!r} has no Satake data at prime {p}; "
            "rebuild with a larger prime cap"
        )


def _h_sequence(triple: tuple, kmax: int) -> np.ndarray:
    """Complete homogeneous symmetric polynomials h_0..h_kmax of the triple."""
    x, y, z = (complex(v) for v in triple)
    e1 = x + y + z
    e2 = x * y + y * z + z * x
    e3 = x * y * z
    h = np.zeros(kmax + 1, dtype=complex)
    h[0] = 1.0
    for k in range(1, kmax + 1):
        acc = e1 * h[k - 1]
        if k >= 2:
            acc -= e2 * h[k - 2]
        if k >= 3:
            acc += e3 * h[k - 3]
        h[k] = acc
    return h


def _prime_power(triple: tuple, a: int, b: int) -> complex:
    h = _h_sequence(triple, a + b + 1)
    low = h[a - 1] if a >= 1 else 0.0
    return complex(h[a + b] * h[a] - h[a + b + 1] * low)


def coefficient(form: GL3Form, m: int, n: int) -> complex:
    """A(m, n), assembled multiplicatively from prime-power Schur values."""
    _check_positive_integers(m=m, n=n)
    exps: dict[int, list[int]] = {}
    for p, e in factorize(m):
        exps.setdefault(p, [0, 0])[0] = e
    for p, e in factorize(n):
        exps.setdefault(p, [0, 0])[1] = e
    val = 1 + 0j
    for p, (a, b) in exps.items():
        val *= _prime_power(form.satake_at(p), a, b)
    return val


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b for complex arrays from real products, each rounded on its own
    as in a scalar complex product; numpy's complex array loops may fuse
    multiply-adds and round differently."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _linear_factors(triples: np.ndarray, dual: bool) -> np.ndarray:
    """A(1, p), or A(p, 1) when dual, for each row (x, y, z) of an (m, 3)
    array of Satake triples: h_1 = e1 h_0, or h_1 h_1 - h_2 h_0 with
    h_2 = e1 h_1 - e2 h_0, in the roundings of _h_sequence and _prime_power,
    so that each value equals theirs bit for bit."""
    x, y, z = triples.T
    h0 = np.ones_like(x)
    e1 = x + y + z
    h1 = _mul(e1, h0)
    if not dual:
        return h1
    e2 = _mul(x, y) + _mul(y, z) + _mul(z, x)
    h2 = _mul(e1, h1) - _mul(e2, h0)
    return _mul(h1, h1) - _mul(h2, h0)


def coefficient_row(form: GL3Form, N: int, dual: bool = False) -> np.ndarray:
    """A(1, n) for n = 0..N as a complex array (A(n, 1) when dual).

    Multiplicative fill: for every prime power p^k <= N, the entries with
    p-adic valuation exactly k pick up the factor A(1, p^k), prime by prime
    in increasing order.  A prime above sqrt(N) divides each n <= N at most
    once, and is the largest prime of n, so all of those primes take one
    vectorized pass at the end, n = j p for j <= N // p, with the same
    products in the same order as a pass per prime.
    """
    out = np.ones(N + 1, dtype=complex)
    out[0] = 0.0
    primes = _primes_upto(N)
    small = primes[: np.searchsorted(primes, math.isqrt(N), side="right")]
    for p in small:
        p = int(p)
        triple = form.satake_at(p)
        kmax = int(math.log(N) / math.log(p)) + 1
        h = _h_sequence(triple, kmax + 1)
        pk = p
        k = 1
        while pk <= N:
            coef = _prime_power(triple, k, 0) if dual else complex(h[k])
            idx = np.arange(pk, N + 1, pk)
            exact = idx[(idx // pk) % p != 0]
            out[exact] *= coef
            pk *= p
            k += 1
    large = primes[small.size :]
    counts = N // large
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    multiples = np.repeat(large, counts) * (np.arange(starts.size) - starts + 1)
    triples = np.array([form.satake_at(p) for p in large.tolist()], dtype=complex).reshape(-1, 3)
    out[multiples] *= np.repeat(_linear_factors(triples, dual), counts)
    return out


def mobius_unfold(form: GL3Form, m: int, row: np.ndarray, transpose: bool = False) -> np.ndarray:
    """A(m, n) for n = 0..N from row = coefficient_row(form, N), or A(n, m)
    from row = coefficient_row(form, N, dual=True) when transpose.

    Moebius unfolding: A(m, n) = sum_{d | (m, n)} mu(d) A(m/d, 1) A(1, n/d),
    so the row and scalar dual values at the divisors of m give the whole
    block, and one row serves every m.
    """
    N = row.size - 1
    out = np.zeros(N + 1, dtype=complex)
    for d in divisors(m):
        mu_d = mobius(d)
        if mu_d == 0 or d > N:
            continue
        scalar = coefficient(form, 1, m // d) if transpose else coefficient(form, m // d, 1)
        out[d :: d] += (mu_d * scalar) * row[1 : N // d + 1]
    return out


def coefficient_block(form: GL3Form, m: int, N: int, transpose: bool = False) -> np.ndarray:
    """A(m, n) for n = 0..N (A(n, m) when transpose): the multiplicative row
    unfolded at m (mobius_unfold); exact to rounding, and orders of
    magnitude faster than per-pair assembly."""
    return mobius_unfold(form, m, coefficient_row(form, N, dual=transpose), transpose)


# ---------------------------------------------------------------------------
# concrete forms


def triple_divisor_form() -> GL3Form:
    """The degenerate spherical form with every Satake triple (1, 1, 1).

    A(1, n) counts ordered factorizations n = abc; the Dirichlet series is
    zeta(s)^3, hence polar, and the central-value operations refuse it.
    """
    return GL3Form(
        label="triple-divisor",
        gamma=GammaData((0, 0, 0)),
        gamma_dual=GammaData((0, 0, 0)),
        satake={},
        default_satake=(1 + 0j, 1 + 0j, 1 + 0j),
        polar=True,
    )


def _small_primes_desc(bits: int, count: int) -> list[int]:
    out = []
    candidate = 2**bits - 1
    while len(out) < count:
        is_p = candidate > 1 and all(candidate % q for q in range(2, int(math.isqrt(candidate)) + 1))
        if is_p:
            out.append(candidate)
        candidate -= 2
    return out


_LIMB_BITS = 10  # bits per limb of a residue in _convolve_mod


def _convolve_mod(a: np.ndarray, p: int) -> np.ndarray:
    """(a * a)[:a.size] mod p, exactly, for residues 0 <= a < p <= 2^20.

    Each residue splits into two 10-bit limbs, a = lo + 2^10 hi, and the
    three limb products lo*lo, lo*hi + hi*lo and hi*hi are real-FFT
    convolutions, zero-padded past 2 a.size - 1 so that none wraps.  Their
    exact terms are integers below 2 a.size 2^20 (5e10 at a.size = 24000),
    far inside float64, so rounding recovers them; ArithmeticError if any
    sits more than 1/4 from an integer.
    """
    n = a.size
    size = 1 << (2 * n - 1).bit_length()
    mask = (1 << _LIMB_BITS) - 1
    lo, hi = np.fft.rfft(np.stack([a & mask, a >> _LIMB_BITS]).astype(float), size)
    raw = np.fft.irfft(np.stack([lo * lo, 2.0 * lo * hi, hi * hi]), size)[:, :n]
    exact = np.rint(raw)
    if np.max(np.abs(raw - exact)) > 0.25:
        raise ArithmeticError("FFT convolution rounding left 1/4 of its margin to an integer")
    low, mid, high = exact.astype(np.int64) % p
    return (low + ((mid << _LIMB_BITS) % p) + ((high << 2 * _LIMB_BITS) % p)) % p


@lru_cache(maxsize=4)
def ramanujan_tau_table(N: int) -> np.ndarray:
    """Exact tau(1..N) (index 0 unused) from the eta-power q-expansion.

    eta^3 has the sparse pentagonal-ish expansion sum (-1)^k (2k+1)
    q^{k(k+1)/2}, and its square eta^6 takes one pass over pairs of terms.
    The two squarings to eta^12 and eta^24 run modulo eight 20-bit primes,
    as exact FFT convolutions (_convolve_mod), and tau recombines by CRT,
    centered; the product of the moduli (~2^160) dwarfs |tau(n)| <= d(n)
    n^{11/2} ~ 2^90 at the permitted sizes.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    if N > 60000:
        # the limb convolutions' exact terms stay below 2 N 2^20, inside
        # float64 with room to spare for the FFT's rounding at this size
        raise ValueError("exact tau table capped at 60000")
    L = N  # coefficients of q^0..q^{L-1}; tau(n) = [q^{n-1}] eta(q)^24
    ks = np.arange(int((math.isqrt(8 * L + 1) - 1) // 2) + 2)
    tri = ks * (ks + 1) // 2
    keep = tri < L
    eta3 = np.zeros(L, dtype=np.int64)
    eta3[tri[keep]] = ((-1) ** ks[keep]) * (2 * ks[keep] + 1)

    nz = np.flatnonzero(eta3)
    vals = eta3[nz]
    eta6 = np.zeros(L, dtype=np.int64)
    idx = nz[:, None] + nz[None, :]
    prod = vals[:, None] * vals[None, :]
    mask = idx < L
    np.add.at(eta6, idx[mask], prod[mask])

    primes = _small_primes_desc(20, 8)
    residues = [_convolve_mod(_convolve_mod(eta6 % p, p), p) for p in primes]

    P = math.prod(primes)
    x = sum(res.astype(object) * ((P // p) * pow(P // p % p, -1, p)) for res, p in zip(residues, primes)) % P
    tau = np.zeros(N + 1, dtype=object)
    tau[1:] = np.where(x > P // 2, x - P, x)
    tau.setflags(write=False)
    return tau


def symmetric_square_form(prime_cap: int = 24000) -> GL3Form:
    """Symmetric-square lift of the weight-12 discriminant cusp form.

    Seeds: a_p = tau(p) / p^{11/2} (so |a_p| < 2 and a_p = 2 cos theta_p),
    giving the lift the Satake triple (e^{2 i theta_p}, 1, e^{-2 i theta_p})
    and A(1, p) = a_p^2 - 1.  The gamma shifts are (1, 11, 12): the lift's
    standard L-function has completed factor Gamma_R(s+1) Gamma_R(s+11)
    Gamma_R(s+12) and is self-dual with the same dual shifts.  They sit far
    outside the spherical strip, but every pole of the tensor AFE weight's
    gamma factor lies left of its contour, so the weight is defined.
    """
    if prime_cap < 2:
        raise ValueError("prime_cap must be at least 2")
    tau = ramanujan_tau_table(prime_cap)
    satake = {}
    for p in map(int, _primes_upto(prime_cap)):
        a_p = float(tau[p]) / p**5.5
        theta = math.acos(min(1.0, max(-1.0, a_p / 2.0)))
        rot = complex(math.cos(2 * theta), math.sin(2 * theta))
        satake[p] = (rot, 1 + 0j, rot.conjugate())
    gamma = GammaData((1, 11, 12))
    return GL3Form(
        label=f"sym2-discriminant(cap={prime_cap})",
        gamma=gamma,
        gamma_dual=gamma,
        satake=satake,
        default_satake=None,
        polar=False,
    )
