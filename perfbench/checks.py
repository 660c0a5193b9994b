"""Checks of every evaluation against computations made apart from the timed path.

`references(workload)` computes what a workload's checks compare against:
scipy and mpmath quadratures of the defining integrals, brute-force
divisor and Kloosterman sums, and Bessel transforms summed on the real
t-line from ascending series.  `check` turns one
encoded evaluation into Findings: a deviation and the tolerance it must not
exceed.  Tolerances come from the accuracy the program was asked for
(rel_tol, tail_tolerance, abs_tol) or from the error it reports, plus the
reference's own error bound; none is fitted to a measured output.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import mpmath as mp
import numpy as np
from scipy import integrate
from scipy.special import i0, iv, loggamma

HERE = Path(__file__).resolve().parent
EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class Finding:
    check: str
    deviation: float
    tolerance: float
    known_fault: str = ""  # a named program fault this check may fail on
    fault_limit: float = 0.0  # the largest deviation that fault explains

    @property
    def ok(self) -> bool:
        return self.deviation <= self.tolerance

    @property
    def explained(self) -> bool:
        """A failure the named fault accounts for: counted, but not incorrect."""
        return bool(self.known_fault) and self.deviation <= self.fault_limit

    def as_dict(self) -> dict:
        out = {"check": self.check, "deviation": self.deviation, "tolerance": self.tolerance, "ok": self.ok}
        if self.known_fault and not self.ok:
            out["known_fault"] = self.known_fault
            out["fault_limit"] = self.fault_limit
        return out


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


# ---------------------------------------------------------------------------
# brute-force arithmetic


def kloosterman_brute(n: int, l: int, c: int) -> float:
    """S(n, l; c) = sum over d mod c coprime to c of cos(2 pi (n d + l dbar) / c)."""
    if c == 1:
        return 1.0
    return math.fsum(
        math.cos(2.0 * math.pi * ((n * d + l * pow(d, -1, c)) % c) / c) for d in range(1, c) if math.gcd(d, c) == 1
    )


def triple_divisor_brute(m: int) -> int:
    """Number of ordered factorizations m = abc."""
    return sum(1 for a in range(1, m + 1) if m % a == 0 for b in range(1, m // a + 1) if (m // a) % b == 0)


# ---------------------------------------------------------------------------
# Kloosterman terms: brute-force sums times Bessel transforms on the real line
#
# H+-(x) = -4 int_0^inf Im B_{2it}(2 pi x) h(t) t / cosh(pi t) dt, B = J for
# H+ and B = I for H-, with B_{2it}(z) summed from its ascending series
#     B_nu(z) = (z/2)^nu / Gamma(nu+1) sum_k (-+z^2/4)^k / (k! (nu+1)_k).
# The program's shifted route moves the line to Im t = -2 and adds residues;
# nothing of it is used here.

TRACE_WIDTH = 2.0  # trace_identity uses gaussian_test_function(2.0)
TRANSFORM_REL_TOL = 1e-11  # rel_tol of every transform inside the geometric side
SHIFTED_ROUTE_CAP = 22.0  # 2 pi x up to which the program takes the shifted route
SHIFT = 2.0  # the shifted route's line Im t = -SHIFT (its default)
T_MAX = 16.0
GRID_NODES = 16  # Gauss-Legendre nodes per unit panel; a grid of twice the panels gives the quadrature error
MP_DPS = 30
FLOAT_SHARE = 0.1  # a float series value is used where its error is at most this share of rel_tol
# The shifted route's value is line + residues, two doubles of size |R| that
# cancel down to H-.  Rounding in the pairwise sum over fewer than 2^16 line
# nodes (16 levels) and in an ascending series of at most 48 terms leaves at
# most (16 + 48) eps |R| on either piece.
CANCELLATION_ULPS = 64


def _t_grid(panels: int):
    x, w = np.polynomial.legendre.leggauss(GRID_NODES)
    edges = np.linspace(0.0, T_MAX, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return (half * x + mid).ravel(), (half * w).ravel()


_GRIDS = (_t_grid(int(T_MAX)), _t_grid(2 * int(T_MAX)))


def _series_float(z: float, ts: np.ndarray, ws: np.ndarray) -> tuple:
    """(H+, H-, rounding bound) in doubles.  Each series term comes from k
    complex products and one exp of a loggamma, so it carries at most
    (5k + 16) eps of relative rounding."""
    q = 0.25 * z * z
    log_cosh = math.pi * ts + np.log1p(np.exp(-2.0 * math.pi * ts)) - math.log(2.0)
    term = np.exp(2j * ts * math.log(0.5 * z) - loggamma(1.0 + 2j * ts) - log_cosh)
    j_sum, i_sum, rounding = term.copy(), term.copy(), 16.0 * np.abs(term)
    for k in range(1, 400):
        term = term * (q / (k * (k + 2j * ts)))
        j_sum += (-1) ** k * term
        i_sum += term
        size = np.abs(term)
        rounding += (5 * k + 16) * size
        if np.max(size) <= 1e-17 * np.max(np.abs(i_sum)):
            break
    wt = 4.0 * ws * np.exp(-((ts / TRACE_WIDTH) ** 2)) * ts
    return -float(np.sum(wt * j_sum.imag)), -float(np.sum(wt * i_sum.imag)), EPS * float(np.sum(wt * rounding))


def _series_mp(z: float, ts: np.ndarray, ws: np.ndarray) -> tuple:
    """(H+, H-) by the same sums in MP_DPS-digit arithmetic."""
    with mp.workdps(MP_DPS):
        half_z = mp.mpf(z) / 2
        q, lz, tiny = half_z * half_z, mp.log(half_z), mp.mpf(10) ** (-MP_DPS)
        hp = hm = mp.mpf(0)
        for t, w in zip(ts, ws):
            t = mp.mpf(float(t))
            term = mp.expj(2 * t * lz) / (mp.gamma(1 + 2j * t) * mp.cosh(mp.pi * t))
            j_sum = i_sum = term
            k = 0
            while abs(term) > tiny * abs(i_sum):
                k += 1
                term = term * q / (k * (k + 2j * t))
                j_sum += -term if k % 2 else term
                i_sum += term
            wt = 4 * mp.mpf(float(w)) * mp.exp(-((t / TRACE_WIDTH) ** 2)) * t
            hp -= wt * j_sum.imag
            hm -= wt * i_sum.imag
        return float(hp), float(hm)


def real_line_transforms(z: float) -> tuple:
    """(H+, H-, error bound of each) at 2 pi x = z.  Doubles where their
    rounding bound is within FLOAT_SHARE of rel_tol, else MP_DPS digits.  The
    error adds the gap between the two grids and the cut at T_MAX, where
    |B_{2it}(z)| / cosh(pi t) <= I_0(z) / sqrt(pi t) bounds the integrand."""
    (p1, m1, r1), (p2, m2, r2) = (_series_float(z, *g) for g in _GRIDS)
    rounding = max(r1, r2)
    if rounding > FLOAT_SHARE * TRANSFORM_REL_TOL * min(abs(p2), abs(m2)):
        (p1, m1), (p2, m2) = (_series_mp(z, *g) for g in _GRIDS)
        rounding *= 10.0**-MP_DPS / EPS
    cut = 2.0 * TRACE_WIDTH**2 * i0(z) * math.exp(-((T_MAX / TRACE_WIDTH) ** 2)) / math.sqrt(math.pi * T_MAX)
    return p2, m2, rounding + cut + abs(p1 - p2), rounding + cut + abs(m1 - m2)


def shifted_cancellation(z: float) -> float:
    """The size |R| of the residue sum 2 sum_k (-1)^k (2k+1) h(-(2k+1)i/2) I_{2k+1}(z)
    that the shifted route's line value for H- cancels; 0 past the route's cap."""
    if z > SHIFTED_ROUTE_CAP:
        return 0.0
    h_at_poles = (math.exp(((k + 0.5) / TRACE_WIDTH) ** 2) for k in range(int(math.ceil(SHIFT - 0.5))))
    return abs(math.fsum(2.0 * (-1) ** k * (2 * k + 1) * hk * iv(2 * k + 1, z) for k, hk in enumerate(h_at_poles)))


def kloosterman_reference(n: int, l: int, c_max: int) -> dict:
    """sum_{c <= c_max} (S(n,l;c) H+ + S(-n,l;c) H-) / (2c) at x = 2 sqrt(nl)/c,
    with its absolute mass, its error bound and the allowance for the
    shifted-route fault."""
    root = 2.0 * math.sqrt(n * l)
    total, mass, err, allowance = [], [], [], []
    for c in range(1, c_max + 1):
        z = 2.0 * math.pi * root / c
        hp, hm, ep, em = real_line_transforms(z)
        sp, sm = kloosterman_brute(n, l, c) / (2.0 * c), kloosterman_brute(-n, l, c) / (2.0 * c)
        total.append(sp * hp + sm * hm)
        mass.append(abs(sp * hp) + abs(sm * hm))
        err.append(abs(sp) * ep + abs(sm) * em)
        allowance.append(abs(sm) * CANCELLATION_ULPS * EPS * shifted_cancellation(z))
    return {"value": math.fsum(total), "mass": math.fsum(mass), "err": math.fsum(err), "allowance": math.fsum(allowance)}


# The shifted route's H- near its cap keeps only the digits that survive the
# cancellation of line and residues: at 4 pi (trace_identity, c = 1)
# 6.7033888e-3 against 6.7033891e-3, far beyond rel_tol.  The Kloosterman
# check fails on it every time; the failure is explained, and `correct` stays
# true, only while the deviation is within the cancellation allowance.
SHIFTED_HMINUS_FAULT = "shifted-route H- loses digits near its cap (CHANGES.md, FOUND)"


def _kloosterman_finding(name: str, value: complex, ref: dict) -> Finding:
    tol = TRANSFORM_REL_TOL * ref["mass"] + ref["err"]
    return Finding(
        name, abs(value - ref["value"]), tol, known_fault=SHIFTED_HMINUS_FAULT, fault_limit=tol + ref["allowance"]
    )


# ---------------------------------------------------------------------------
# trace_identity: kuznetsov_residual(1, 1, gaussian(2), [], 800, 40)

TRACE_C_MAX = 800
DELTA_REL_TOL = 1e-13  # delta_weight's default rel_tol
CONTINUOUS_REL_TOL = 1e-12  # continuous_side's default rel_tol


def _trace_references() -> dict:
    w = TRACE_WIDTH

    # delta term = (1/2) (1/pi) int_R h(t) tanh(pi t) t dt = (1/pi) int_0^inf
    def delta_f(t):
        return math.exp(-((t / w) ** 2)) * math.tanh(math.pi * t) * t

    d_val, d_err = integrate.quad(delta_f, 0.0, math.inf, epsabs=0.0, epsrel=1e-13, limit=200)

    # continuous term = (1/2 pi) int_0^inf h(r) w(r) dr with the defining weight
    # w(r) = 4 pi |pi^{1/2+ir}|^2 / (|Gamma(1/2+ir)|^2 |zeta(1+2ir)|^2 cosh(pi r))
    def cont_f(r):
        if r == 0.0:
            return 0.0  # the zeta pole makes the weight vanish
        gam = abs(complex(mp.gamma(mp.mpc(0.5, r)))) ** 2
        zet = abs(complex(mp.zeta(mp.mpc(1.0, 2.0 * r)))) ** 2
        return math.exp(-((r / w) ** 2)) * 4.0 * math.pi * math.pi / (gam * zet * math.cosh(math.pi * r))

    # h(16) = e^{-64}: the rest of the integral lies below double precision
    c_val, c_err = integrate.quad(cont_f, 0.0, 16.0, epsabs=0.0, epsrel=1e-13, limit=200)
    return {
        "delta": d_val / math.pi,
        "delta_err": d_err / math.pi,
        "continuous": c_val / (2.0 * math.pi),
        "continuous_err": c_err / (2.0 * math.pi),
        "kloosterman": kloosterman_reference(1, 1, TRACE_C_MAX),
    }


def _trace_check(name: str, v: dict, ref: dict) -> list:
    delta, kloost, cont, resid = v["delta_term"], _c(v["kloosterman_term"]), _c(v["continuous_term"]), _c(v["residual"])
    return [
        Finding(
            "delta_term vs scipy quadrature",
            abs(delta - ref["delta"]),
            DELTA_REL_TOL * abs(ref["delta"]) + ref["delta_err"],
        ),
        Finding(
            "continuous_term vs mpmath-weight quadrature",
            abs(cont - ref["continuous"]),
            CONTINUOUS_REL_TOL * abs(ref["continuous"]) + ref["continuous_err"],
        ),
        _kloosterman_finding("kloosterman_term vs brute-force S and real-line Bessel series", kloost, ref["kloosterman"]),
        Finding(
            "residual = delta + kloosterman - continuous",
            abs(resid - (delta + kloost - cont)),
            4.0 * EPS * (abs(delta) + abs(kloost) + abs(cont)),
        ),
        # no fixtures: the residual is the discrete spectrum (h(t_1) ~ e^{-22.7})
        # plus the dropped c > c_max terms, which geometric_tail bounds
        Finding("|residual| within geometric_tail", abs(resid), v["geometric_tail"]),
    ]


# ---------------------------------------------------------------------------
# diagonal_weight: diagonal_weight(20, 1, 1, 1, D3, "direct" / "dual")

DIAG_T = 20.0
DAMPER_A = 16  # WeightSpec defaults
SIGMA_U = 0.5
TAIL_TOLERANCE = 1e-10
DIAG_REL_TOL = 1e-11
_V_TOP = 40.0  # |damper| <= 2^{3A} e^{-3 pi v}; negligible past this height


def _log_gamma2(s, t: float):
    """log of pi^{-s} Gamma((s+it)/2) Gamma((s-it)/2), by scipy."""
    return -s * math.log(math.pi) + loggamma((s + 1j * t) / 2.0) + loggamma((s - 1j * t) / 2.0)


def _afe_weight_at_one(t: float, degree: int) -> tuple:
    """U(1, t) (degree 2) or V(1, t) (degree 6, all mu = 0) as the vertical-line
    integral (1/2 pi i) int_(sigma) G(u)^k gamma(1/2+u, t)/gamma(1/2, t) du/u,
    G(u) = cos(pi u / A)^{-A}.  The integrand is conjugate-symmetric, so this is
    (1/pi) Re int_0^inf.  Returns (value, quadrature error estimate)."""
    k = degree // 2  # damper power and gamma-factor multiplicity
    base = _log_gamma2(0.5 + 0j, t)

    def f(v):
        u = complex(SIGMA_U, v)
        log_damp = -k * DAMPER_A * cmath.log(cmath.cos(math.pi * u / DAMPER_A))
        return (cmath.exp(log_damp + k * (_log_gamma2(0.5 + u, t) - base)) / u).real

    val, err = integrate.quad(f, 0.0, _V_TOP, epsabs=1e-15, epsrel=1e-12, limit=400)
    return val / math.pi, err / math.pi


def _diag_references() -> dict:
    def integrand(t, absolute: bool):
        u, _ = _afe_weight_at_one(t, 2)
        v, _ = _afe_weight_at_one(t, 6)
        uv = abs(u * v) if absolute else u * v
        return math.exp(-((t / DIAG_T) ** 2)) * uv * math.tanh(math.pi * t) * t

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        # e^{-t^2/T^2} < e^{-64} past 8T
        val, err = integrate.quad(integrand, 0.0, 8.0 * DIAG_T, args=(False,), epsabs=0.0, epsrel=1e-12, limit=400)
        mass, _ = integrate.quad(integrand, 0.0, 8.0 * DIAG_T, args=(True,), epsabs=0.0, epsrel=1e-6, limit=400)
    return {"value": 2.0 / math.pi * val, "err": 2.0 / math.pi * err, "mass": 2.0 / math.pi * mass}


def _diag_check(name: str, v: dict, ref: dict) -> list:
    # each weight is truncated at tail_tolerance of its kernel mass
    tol = (2.0 * TAIL_TOLERANCE + DIAG_REL_TOL) * ref["mass"] + ref["err"]
    return [Finding(f"{name} vs scipy double integral", abs(_c(v["value"]) - ref["value"]), tol)]


# ---------------------------------------------------------------------------
# voronoi_identity: voronoi_residual_profile(D3, 1, 1, 3, bump(50, 100), [2^12, 2^14])

VORONOI_A, VORONOI_C = 1, 3
BUMP = (50.0, 100.0)


def _voronoi_references() -> dict:
    from lfunlab import quadrature

    phi = quadrature.smooth_bump(*BUMP)  # the workload's input test function
    abar = pow(VORONOI_A, -1, VORONOI_C)
    terms = []
    for m in range(int(BUMP[0]), int(BUMP[1]) + 1):
        weight = float(phi(float(m)))
        if weight != 0.0:
            phase = complex(math.cos(2.0 * math.pi * m * abar / VORONOI_C), math.sin(2.0 * math.pi * m * abar / VORONOI_C))
            terms.append(triple_divisor_brute(m) * weight * phase)
    return {
        "lhs": complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)),
        "lhs_abs": math.fsum(abs(t) for t in terms),
        "terms": len(terms),
    }


def _voronoi_check(name: str, v: dict, ref: dict) -> list:
    out = []
    cuts = v["cutoffs"]
    for s in cuts:
        m = s["m2_cutoff"]
        lhs, rhs = _c(s["lhs"]), _c(s["rhs"])
        out.append(
            Finding(f"lhs at {m} vs brute-force divisor sum", abs(lhs - ref["lhs"]), 4.0 * EPS * ref["terms"] * ref["lhs_abs"])
        )
        out.append(Finding(f"|lhs - rhs| at {m} within tail_estimate", abs(lhs - rhs), s["tail_estimate"]))
    for a, b in zip(cuts, cuts[1:]):
        # strictly smaller: the largest float below the coarser cutoff's tail
        out.append(
            Finding(
                f"tail_estimate shrinks from {a['m2_cutoff']} to {b['m2_cutoff']}",
                b["tail_estimate"],
                math.nextafter(a["tail_estimate"], 0.0),
            )
        )
    return out


_REFERENCES = {
    "trace_identity": _trace_references,
    "diagonal_weight": _diag_references,
    "voronoi_identity": _voronoi_references,
}
_CHECKS = {
    "trace_identity": _trace_check,
    "diagonal_weight": _diag_check,
    "voronoi_identity": _voronoi_check,
}


def references(workload: str) -> dict:
    src = str(HERE.parent / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    return _REFERENCES[workload]()


def check(workload: str, name: str, value: dict, ref: dict) -> list:
    return _CHECKS[workload](name, value, ref)
