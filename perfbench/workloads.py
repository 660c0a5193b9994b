"""The benchmark's workloads: exact inputs and the evaluations they time.

Each workload has a `setup` that builds its inputs (forms, test functions)
and an `evaluations` list of (name, call) pairs run in that order inside the
timed region.  `encode` turns a returned object into plain JSON numbers
after the timed region.  No input is random.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

THREADS = os.cpu_count() or 1  # every call that takes `threads` gets nproc


def _cplx(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


@dataclass(frozen=True)
class Workload:
    name: str
    layer: str  # the module whose public entry point the evaluations call
    setup: Callable[[], dict]
    evaluations: Callable[[dict], list]  # inputs -> [(name, zero-argument call)]
    encode: Callable[[object], dict]


# ---------------------------------------------------------------------------
# trace_identity


def _trace_setup() -> dict:
    from lfunlab import kuznetsov

    return {"kuznetsov": kuznetsov, "h": kuznetsov.gaussian_test_function(2.0)}


def _trace_evals(inp: dict) -> list:
    kz, h = inp["kuznetsov"], inp["h"]
    return [("kuznetsov_residual", lambda: kz.kuznetsov_residual(1, 1, h, [], 800, 40.0, threads=THREADS))]


def _trace_encode(report) -> dict:
    return {
        "delta_term": report.delta_term,
        "kloosterman_term": _cplx(report.kloosterman_term),
        "continuous_term": _cplx(report.continuous_term),
        "residual": _cplx(report.residual),
        "geometric_tail": report.truncation.geometric_tail,
    }


# ---------------------------------------------------------------------------
# diagonal_weight


def _diag_setup() -> dict:
    from lfunlab import heckegl3, kuznetsov

    return {"kuznetsov": kuznetsov, "form": heckegl3.triple_divisor_form()}


def _diag_evals(inp: dict) -> list:
    kz, form = inp["kuznetsov"], inp["form"]

    def run(variant: str):
        return lambda: (kz.diagonal_weight(20, 1, 1, 1, form, variant), kz.uv_cache_stats())

    return [("direct", run("direct")), ("dual", run("dual"))]


def _diag_encode(out) -> dict:
    value, stats = out
    return {"value": _cplx(value), "uv_cache": stats}


# ---------------------------------------------------------------------------
# voronoi_identity

VORONOI_CUTOFFS = (2**12, 2**14)


def _voronoi_setup() -> dict:
    from lfunlab import heckegl3, quadrature, voronoi

    return {
        "voronoi": voronoi,
        "form": heckegl3.triple_divisor_form(),
        "phi": quadrature.smooth_bump(50, 100),
    }


def _voronoi_evals(inp: dict) -> list:
    vo, form, phi = inp["voronoi"], inp["form"], inp["phi"]
    return [
        (
            "voronoi_residual_profile",
            lambda: vo.voronoi_residual_profile(form, 1, 1, 3, phi, list(VORONOI_CUTOFFS), threads=THREADS),
        )
    ]


def _voronoi_encode(sides) -> dict:
    return {
        "cutoffs": [
            {
                "m2_cutoff": s.truncation.m2_cutoff,
                "lhs": _cplx(s.lhs),
                "rhs": _cplx(s.rhs),
                "main_term": _cplx(s.main_term),
                "tail_estimate": s.truncation.tail_estimate,
            }
            for s in sides
        ]
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("trace_identity", "kuznetsov", _trace_setup, _trace_evals, _trace_encode),
        Workload("diagonal_weight", "kuznetsov", _diag_setup, _diag_evals, _diag_encode),
        Workload("voronoi_identity", "voronoi", _voronoi_setup, _voronoi_evals, _voronoi_encode),
    )
}
