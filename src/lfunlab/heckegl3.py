"""Rank-3 Hecke coefficient engine.

A form is described by one Satake triple (x, y, z) per prime, normalized to
x y z = 1, plus archimedean data.  The prime-power coefficient is the Schur
polynomial of the partition (a+b, a, 0):

    A(p^a, p^b) = h_{a+b} h_a - h_{a+b+1} h_{a-1},

a 2x2 Jacobi-Trudi determinant in the complete homogeneous symmetric
polynomials h_k of the triple, which obey h_k = e1 h_{k-1} - e2 h_{k-2} +
e3 h_{k-3}.  Coefficients at general (m, n) multiply across coprime prime
blocks.  The Hecke recursion

    A(p,1) A(p^i, p^j) = A(p^{i-1}, p^{j+1}) + A(p^i, p^{j-1}) + A(p^{i+1}, p^j)

(terms with negative exponents dropped) is NOT used to build anything; it is
the independent closure check.  A second exact consequence used for bulk
work is the Moebius unfolding

    A(m, n) = sum_{d | gcd(m, n)} mu(d) A(m/d, 1) A(1, n/d),

which turns double sums into products of one-dimensional rows.

Two concrete instances ship: the degenerate "triple divisor" form (all
Satake triples (1,1,1); its Dirichlet coefficients are the 3-fold divisor
counts, and its L-function is polar), and the symmetric-square lift of the
discriminant cusp form, seeded by exact integer values of the tau function
computed from the 24th power of the Dedekind eta q-series.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping

import numpy as np

from .exactarith import divisors, factorize, mobius
from .quadrature import TransformResult
from .special import zeta

__all__ = [
    "GL3Form",
    "CoefficientTable",
    "MissingSatakeError",
    "PolarFormError",
    "coefficient",
    "coefficient_row",
    "coefficient_block",
    "hecke_relation_residual",
    "triple_divisor_form",
    "symmetric_square_form",
    "ramanujan_tau_table",
    "dirichlet_series_value",
    "double_dirichlet_residual",
    "coefficient_bound_report",
    "coefficient_table",
]


class MissingSatakeError(ValueError):
    """A coefficient was requested at a prime the form carries no data for."""


class PolarFormError(ValueError):
    """Operation requires a form whose standard L-function is entire."""


@dataclass(frozen=True, eq=False)
class GL3Form:
    """Rank-3 form: archimedean parameters plus a Satake map.

    mu / mu_dual are the parameters entering the gamma factors; for a
    spherical (maass_type) form mu = (alpha, beta, gamma) with zero sum and
    mu_dual = -mu.  Lifts of holomorphic forms carry their own mu as plain
    configuration, and maass_type is False.  polar marks instances whose
    Dirichlet series has a pole at s = 1 (the triple-divisor case); central
    -value machinery rejects those.
    """

    label: str
    alpha: complex
    beta: complex
    gamma: complex
    mu: tuple
    mu_dual: tuple
    satake: Mapping[int, tuple] = field(default_factory=dict)
    default_satake: tuple | None = None
    self_dual: bool = True
    maass_type: bool = True
    polar: bool = False

    def __post_init__(self) -> None:
        if self.maass_type:
            s = complex(self.alpha) + complex(self.beta) + complex(self.gamma)
            if abs(s) > 1e-12:
                raise ValueError(f"spherical parameters must sum to 0, got {s}")
        for p, triple in self.satake.items():
            prod = complex(triple[0]) * complex(triple[1]) * complex(triple[2])
            if abs(prod - 1) > 1e-9:
                raise ValueError(f"Satake product at p={p} is {prod}, not 1")
        if self.default_satake is not None:
            x, y, z = (complex(v) for v in self.default_satake)
            if abs(x * y * z - 1) > 1e-12:
                raise ValueError("default Satake product must be 1")

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
    if m < 1 or n < 1:
        raise ValueError(f"arguments must be positive, got ({m}, {n})")
    exps: dict[int, list[int]] = {}
    for p, e in factorize(m):
        exps.setdefault(p, [0, 0])[0] = e
    for p, e in factorize(n):
        exps.setdefault(p, [0, 0])[1] = e
    val = 1 + 0j
    for p, (a, b) in exps.items():
        val *= _prime_power(form.satake_at(p), a, b)
    return val


def hecke_relation_residual(form: GL3Form, p: int, i: int, j: int) -> float:
    """Gap in the degree-lowering Hecke recursion at (p^i, p^j)."""
    lhs = coefficient(form, p, 1) * coefficient(form, p**i, p**j)
    rhs = coefficient(form, p ** (i + 1), p**j)
    if i >= 1:
        rhs += coefficient(form, p ** (i - 1), p ** (j + 1))
    if j >= 1:
        rhs += coefficient(form, p**i, p ** (j - 1))
    return abs(lhs - rhs)


def _primes_upto(N: int) -> np.ndarray:
    sieve = np.ones(N + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(math.isqrt(N)) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


def coefficient_row(form: GL3Form, N: int, dual: bool = False) -> np.ndarray:
    """A(1, n) for n = 0..N as a complex array (A(n, 1) when dual).

    Multiplicative fill: for every prime power p^k <= N, the entries with
    p-adic valuation exactly k pick up the factor A(1, p^k).
    """
    out = np.ones(N + 1, dtype=complex)
    out[0] = 0.0
    for p in _primes_upto(N):
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
    return out


def coefficient_block(form: GL3Form, m: int, N: int, transpose: bool = False) -> np.ndarray:
    """A(m, n) for n = 0..N via Moebius unfolding (A(n, m) when transpose).

    Uses one multiplicative row plus scalar dual values at the divisors of m;
    exact to rounding, and orders of magnitude faster than per-pair assembly.
    """
    row = coefficient_row(form, N, dual=transpose)
    out = np.zeros(N + 1, dtype=complex)
    for d in divisors(m):
        mu_d = mobius(d)
        if mu_d == 0 or d > N:
            continue
        scalar = coefficient(form, 1, m // d) if transpose else coefficient(form, m // d, 1)
        out[d :: d] += (mu_d * scalar) * row[1 : N // d + 1]
    return out


# ---------------------------------------------------------------------------
# concrete forms


def triple_divisor_form() -> GL3Form:
    """The degenerate spherical form with every Satake triple (1, 1, 1).

    A(1, n) counts ordered factorizations n = abc; the Dirichlet series is
    zeta(s)^3, hence polar, and the central-value operations refuse it.
    """
    return GL3Form(
        label="triple-divisor",
        alpha=0j,
        beta=0j,
        gamma=0j,
        mu=(0j, 0j, 0j),
        mu_dual=(0j, 0j, 0j),
        satake={},
        default_satake=(1 + 0j, 1 + 0j, 1 + 0j),
        self_dual=True,
        maass_type=True,
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


@lru_cache(maxsize=4)
def ramanujan_tau_table(N: int) -> np.ndarray:
    """Exact tau(1..N) (index 0 unused) from the eta-power q-expansion.

    eta^3 has the sparse pentagonal-ish expansion sum (-1)^k (2k+1)
    q^{k(k+1)/2}; squaring twice with integer convolutions gives eta^12
    exactly in int64 (coefficients ~ n^{5/2}).  The final squaring would
    overflow, so it runs modulo eight 20-bit primes and recombines by CRT,
    centered; the product of the moduli (~2^160) dwarfs |tau(n)| <= d(n)
    n^{11/2} ~ 2^90 at the permitted sizes.
    """
    if N < 1:
        raise ValueError("need N >= 1")
    if N > 60000:
        # measured sup_n sum_i |c6(i) c6(n-i)| = 3.4e14 at N = 60000, a 2.7e4x
        # margin under int64; the mod-p squarings are bounded by N 2^40.
        raise ValueError("exact tau table capped at 60000 (int64 headroom in eta^12)")
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

    eta12 = np.convolve(eta6, eta6)[:L]

    primes = _small_primes_desc(20, 8)
    residues = []
    for p in primes:
        a = eta12 % p
        residues.append(np.convolve(a, a)[:L] % p)

    P = math.prod(primes)
    basis = []
    for p in primes:
        Mi = P // p
        basis.append(Mi * pow(Mi % p, -1, p))
    half = P // 2
    # tau(n) ~ n^{11/2} exceeds int64 around n ~ 2800, so keep Python ints
    tau = np.zeros(N + 1, dtype=object)
    for n in range(1, N + 1):
        x = sum(int(res[n - 1]) * b for res, b in zip(residues, basis)) % P
        if x > half:
            x -= P
        tau[n] = x
    tau.setflags(write=False)
    return tau


def symmetric_square_form(prime_cap: int = 24000, mu: tuple | None = None) -> GL3Form:
    """Symmetric-square lift of the weight-12 discriminant cusp form.

    Seeds: a_p = tau(p) / p^{11/2} (so |a_p| < 2 and a_p = 2 cos theta_p),
    giving the lift the Satake triple (e^{2 i theta_p}, 1, e^{-2 i theta_p})
    and A(1, p) = a_p^2 - 1.  The archimedean parameters default to
    (-1, -11, -12): the lift's standard L-function has completed factor
    Gamma_R(s+1) Gamma_R(s+11) Gamma_R(s+12) and is self-dual with these
    same dual parameters.  They sit far outside the spherical strip but left
    of the tensor AFE weight's contour, so the weight is defined; pass mu to
    override (parameters with a pole on or right of that contour raise
    PoleError there).
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
    params = tuple(mu) if mu is not None else (-1.0 + 0j, -11.0 + 0j, -12.0 + 0j)
    return GL3Form(
        label=f"sym2-discriminant(cap={prime_cap})",
        alpha=params[0],
        beta=params[1],
        gamma=params[2],
        mu=params,
        mu_dual=params,
        satake=satake,
        default_satake=None,
        self_dual=True,
        maass_type=False,
        polar=False,
    )


# ---------------------------------------------------------------------------
# Dirichlet series


def _row_tail_bound(N: int, sigma: float) -> float:
    """Tail of sum_{m > N} d3(m) m^{-sigma}: |A(1, m)| <= d3(m) for unitary
    Satake data.  Partial summation against the divisor mean x (log^2 x / 2
    + c1 log x + c0) gives the polynomial below; the lower-order constants
    are inflated past c1 = 3*EulerGamma - 1 to keep this an upper estimate."""
    ln = math.log(N)
    q = sigma - 1.0
    return N**-q * (0.5 * ln * ln / q + 3.0 * ln / q**2 + 8.0 / q**3)


def dirichlet_series_value(
    form: GL3Form, s: complex, cutoff: int, dual: bool = False, min_re: float = 1.1
) -> TransformResult:
    """Partial sum of the standard Dirichlet series sum A(1, m) m^{-s}
    (dual: coefficients A(m, 1)) with a divisor-growth tail estimate."""
    s = complex(s)
    if s.real < min_re:
        raise ValueError(f"Re s = {s.real} below the convergence margin {min_re}")
    if cutoff < 10:
        raise ValueError("cutoff must be at least 10")
    row = coefficient_row(form, cutoff, dual=dual)
    m = np.arange(1, cutoff + 1, dtype=float)
    value = complex(np.sum(row[1:] * np.exp(-s * np.log(m))))
    return TransformResult(value, _row_tail_bound(cutoff, s.real), cutoff)


def double_dirichlet_residual(form: GL3Form, s: complex, w: complex, cutoff: int) -> float:
    """Relative gap between the coefficient double sum and its factorization.

    LHS: sum over m^2 n <= cutoff of A(m, n) m^{-s-1} n^{-w-1}, evaluated by
    Moebius unfolding (exact rearrangement of the same finite sum).  RHS:
    L(s+1, dual) L(w+1, form) / zeta(s+w+2), each factor summed to the same
    cutoff with tail control.
    """
    s, w = complex(s), complex(w)
    if s.real < 1.0 or w.real < 1.0:
        raise ValueError("need Re s >= 1 and Re w >= 1 for comfortable convergence")
    N = int(cutoff)

    row = coefficient_row(form, N)  # A(1, n)
    n = np.arange(1, N + 1, dtype=float)
    prefix = np.concatenate(([0.0 + 0j], np.cumsum(row[1:] * np.exp(-(w + 1) * np.log(n)))))

    m_cap = int(math.isqrt(N))
    col = coefficient_row(form, m_cap, dual=True)  # A(m, 1)
    mpow = np.exp(-(s + 1) * np.log(np.arange(1, m_cap + 1, dtype=float)))

    lhs = 0j
    d = 1
    while d * d * d <= N:
        mu_d = mobius(d)
        if mu_d != 0:
            budget = N // (d * d * d)
            inner = 0j
            for m in range(1, int(math.isqrt(budget)) + 1):
                inner += col[m] * mpow[m - 1] * prefix[budget // (m * m)]
            lhs += mu_d * np.exp(-(s + w + 2) * math.log(d)) * inner
        d += 1

    lf = dirichlet_series_value(form, w + 1, N).value
    lf_dual = dirichlet_series_value(form, s + 1, min(N, 10**6), dual=True).value
    rhs = lf_dual * lf / zeta(s + w + 2)
    return abs(lhs - rhs) / abs(rhs)


@dataclass(frozen=True)
class CoefficientBoundReport:
    N: int
    square_mean_ratio: float           # sum_{m^2 n <= N} |A(m,n)|^2 / N
    linear_ratios: dict                # m -> sum_{n <= N} |A(m,n)| / (N m)


def coefficient_bound_report(form: GL3Form, N: int) -> CoefficientBoundReport:
    if N < 1:
        raise ValueError("N must be positive")
    total = 0.0
    m = 1
    while m * m <= N:
        block = coefficient_block(form, m, N // (m * m))
        total += float(np.sum(np.abs(block) ** 2))
        m += 1
    linear = {}
    for mm in range(1, 11):
        block = coefficient_block(form, mm, N)
        linear[mm] = float(np.sum(np.abs(block))) / (N * mm)
    return CoefficientBoundReport(N=N, square_mean_ratio=total / N, linear_ratios=linear)


@dataclass(frozen=True)
class CoefficientTable:
    """Immutable (m, n) -> A(m, n) map covering m^2 n <= bound."""

    bound: int
    data: Mapping[tuple, complex]

    def to_json(self) -> str:
        payload = {
            f"{m},{n}": [v.real, v.imag] for (m, n), v in sorted(self.data.items())
        }
        return json.dumps({"bound": self.bound, "coefficients": payload}, indent=0, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "CoefficientTable":
        obj = json.loads(text)
        data = {}
        for key, (re, im) in obj["coefficients"].items():
            m, n = key.split(",")
            data[(int(m), int(n))] = complex(re, im)
        return CoefficientTable(bound=int(obj["bound"]), data=data)


def coefficient_table(form: GL3Form, bound: int) -> CoefficientTable:
    data = {}
    m = 1
    while m * m <= bound:
        block = coefficient_block(form, m, bound // (m * m))
        for n in range(1, block.size):
            data[(m, n)] = complex(block[n])
        m += 1
    return CoefficientTable(bound=bound, data=data)
