"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest -q perfbench/test_checks.py

Each check must accept the reference itself and anything within half its
tolerance, and reject a value moved by twice its tolerance.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest
from scipy.special import iv

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from spans import Tracer, _union_length  # noqa: E402


def _pair(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _by_name(findings) -> dict:
    return {f.check: f for f in findings}


@pytest.fixture(scope="module")
def refs():
    return {}


def _ref(refs: dict, workload: str) -> dict:
    if workload not in refs:
        refs[workload] = checks.references(workload)
    return refs[workload]


# ---------------------------------------------------------------------------
# brute-force arithmetic


def test_kloosterman_brute_small_values():
    # S(0, 0; c) is Euler's phi; S(n, l; c) is symmetric in n and l
    assert checks.kloosterman_brute(0, 0, 12) == pytest.approx(4.0)
    assert checks.kloosterman_brute(2, 3, 7) == pytest.approx(checks.kloosterman_brute(3, 2, 7))
    direct = sum(math.cos(2 * math.pi * (d + pow(d, -1, 5)) / 5) for d in range(1, 5))
    assert checks.kloosterman_brute(1, 1, 5) == pytest.approx(direct)


def test_triple_divisor_brute_multiplicative_values():
    assert checks.triple_divisor_brute(1) == 1
    assert checks.triple_divisor_brute(7) == 3
    assert checks.triple_divisor_brute(49) == 6
    assert checks.triple_divisor_brute(84) == 6 * 3 * 3  # d3(4) d3(3) d3(7)


# ---------------------------------------------------------------------------
# each check rejects a value moved by more than its tolerance


def _trace_value(ref: dict, **moves) -> dict:
    delta = ref["delta"] + moves.get("delta", 0.0)
    cont = ref["continuous"] + moves.get("continuous", 0.0)
    kloost = ref["kloosterman"]["value"] + moves.get("kloosterman", 0.0)
    resid = delta + kloost - cont + moves.get("residual", 0.0)
    return {
        "delta_term": delta,
        "kloosterman_term": _pair(kloost),
        "continuous_term": _pair(cont),
        "residual": _pair(resid),
        "geometric_tail": moves.get("tail", 1.0),
    }


def _assert_fault_limit(finding_of, move) -> None:
    """A Kloosterman check fails past its tolerance; past its fault limit the
    named fault no longer explains the failure."""
    base = finding_of(0.0)
    assert base.ok and base.deviation == 0.0 and base.fault_limit > base.tolerance
    for scale, ok in ((0.5, True), (2.0, False), (-2.0j, False)):
        f = finding_of(move(scale * base.tolerance))
        assert f.ok is ok and (f.ok or f.explained)
    assert not finding_of(move(2.0 * base.fault_limit)).explained
    assert not finding_of(move(-2.0j * base.fault_limit)).explained


def test_trace_identity_checks(refs):
    ref = _ref(refs, "trace_identity")
    base = _by_name(checks.check("trace_identity", "kuznetsov_residual", _trace_value(ref), ref))
    assert all(f.ok for f in base.values())
    for key, name in (
        ("delta", "delta_term vs scipy quadrature"),
        ("continuous", "continuous_term vs mpmath-weight quadrature"),
        ("residual", "residual = delta + kloosterman - continuous"),
    ):
        tol = base[name].tolerance
        for scale, ok in ((0.5, True), (2.0, False), (-2.0, False)):
            found = _by_name(checks.check("trace_identity", "", _trace_value(ref, **{key: scale * tol}), ref))
            assert found[name].ok is ok, (name, scale)
    tight = _by_name(checks.check("trace_identity", "", _trace_value(ref, tail=5e-4), ref))
    assert not tight["|residual| within geometric_tail"].ok

    name = "kloosterman_term vs brute-force S and real-line Bessel series"
    _assert_fault_limit(
        lambda move: _by_name(checks.check("trace_identity", "", _trace_value(ref, kloosterman=move), ref))[name],
        lambda d: d,
    )


def test_real_line_series_float_and_mp_agree():
    # at 2 pi x = 2 pi both routes apply; each stays within the other's bound
    z = 2.0 * math.pi
    for grid in checks._GRIDS:
        p, m, rounding = checks._series_float(z, *grid)
        mp_p, mp_m = checks._series_mp(z, *grid)
        assert abs(p - mp_p) <= rounding and abs(m - mp_m) <= rounding
    hp, hm, ep, em = checks.real_line_transforms(z)
    assert ep < checks.FLOAT_SHARE * checks.TRANSFORM_REL_TOL * abs(hp)


def test_shifted_cancellation_is_the_residue_size():
    # 2 h(-i/2) I_1(z) - 6 h(-3i/2) I_3(z) for the width-2 Gaussian
    z = 4.0 * math.pi
    expected = abs(2.0 * math.exp(1 / 16) * iv(1, z) - 6.0 * math.exp(9 / 16) * iv(3, z))
    assert checks.shifted_cancellation(z) == pytest.approx(expected, rel=1e-14)
    assert checks.shifted_cancellation(checks.SHIFTED_ROUTE_CAP + 1.0) == 0.0


def test_diagonal_weight_checks(refs):
    ref = _ref(refs, "diagonal_weight")
    name = "direct vs scipy double integral"
    tol = checks.check("diagonal_weight", "direct", {"value": _pair(ref["value"])}, ref)[0].tolerance
    for scale, ok in ((0.0, True), (0.5, True), (2.0, False), (2.0j, False)):
        (f,) = checks.check("diagonal_weight", "direct", {"value": _pair(ref["value"] + scale * tol)}, ref)
        assert f.check == name and f.ok is ok


def _voronoi_value(lhs: complex, gaps=(0.5, 0.25), tails=(1.0, 0.5)) -> dict:
    return {
        "cutoffs": [
            {"m2_cutoff": m, "lhs": _pair(lhs), "rhs": _pair(lhs + g), "main_term": [0.0, 0.0], "tail_estimate": t}
            for m, g, t in zip((4096, 16384), gaps, tails)
        ]
    }


def test_voronoi_identity_checks(refs):
    ref = _ref(refs, "voronoi_identity")
    assert ref["terms"] == 49  # the integers inside the open support (50, 100)
    base = checks.check("voronoi_identity", "", _voronoi_value(ref["lhs"]), ref)
    assert all(f.ok for f in base)
    tol = _by_name(base)["lhs at 4096 vs brute-force divisor sum"].tolerance
    for scale, ok in ((0.5, True), (2.0, False), (2.0j, False)):
        found = _by_name(checks.check("voronoi_identity", "", _voronoi_value(ref["lhs"] + scale * tol), ref))
        assert found["lhs at 4096 vs brute-force divisor sum"].ok is ok
    wide = _by_name(checks.check("voronoi_identity", "", _voronoi_value(ref["lhs"], gaps=(1.5, 0.25)), ref))
    assert not wide["|lhs - rhs| at 4096 within tail_estimate"].ok
    flat = _by_name(checks.check("voronoi_identity", "", _voronoi_value(ref["lhs"], tails=(1.0, 1.0)), ref))
    assert not flat["tail_estimate shrinks from 4096 to 16384"].ok


# ---------------------------------------------------------------------------
# tracer


def test_union_length():
    assert _union_length([]) == 0.0
    assert _union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0), (3.5, 3.6)]) == pytest.approx(3.0)


def test_tracer_wraps_every_binding_and_restores():
    from lfunlab import kuznetsov, special, util

    original = special.log_gamma
    tracer = Tracer("test")
    tracer.install()
    try:
        assert kuznetsov.log_gamma is not original and special.log_gamma is not original
        kuznetsov.continuous_weight(1.5)  # calls the second name bound in kuznetsov
        util.ordered_parallel_map(lambda i: special.log_gamma(complex(i, 1.0)), range(4), threads=2)
    finally:
        tracer.uninstall()
    assert special.log_gamma is original and kuznetsov.log_gamma is original
    summary = tracer.summary()
    assert summary["functions"]["special.log_gamma"]["calls"] == 5
    assert summary["functions"]["special.log_gamma"]["count"] == 5
    (map_span,) = [s for s in tracer.spans if s[2] == "util.ordered_parallel_map"]
    items = {s[0]: s for s in tracer.spans if s[1] == map_span[0]}
    assert len(items) == 4 and all(s[3] == "test_checks" for s in items.values())
    assert sum(1 for s in tracer.spans if s[2] == "special.log_gamma" and s[1] in items) == 4

