"""Shared plumbing: a deterministic parallel map.  No library code calls it;
it stays because perfbench's tracer finds it by name through __all__ and
perfbench's checks call it.  Caches live with the pure function each serves
(functools.lru_cache with a literal bound), not here."""

from __future__ import annotations

from typing import Callable, Iterable

__all__ = ["ordered_parallel_map"]


def ordered_parallel_map(fn: Callable, items: Iterable, threads: int = 4) -> list:
    """map(fn, items) with results in input order regardless of scheduling.

    Threads suit the workloads here (numpy releases the interpreter lock in
    the heavy kernels); reduction order is the input order, so floating-point
    results are independent of thread timing.  The executor is imported
    here, not with the module: concurrent.futures (and the logging it
    imports) costs about 7 ms, and most importers never start a pool.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
