"""Shared plumbing: deterministic parallel mapping and a bounded cache."""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Iterable

__all__ = ["ordered_parallel_map", "LRUCache"]


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


class LRUCache:
    """Bounded map that evicts the least recently used entry, with hit and
    miss counters.  Safe to share between threads; two threads that miss
    the same key at once may both build it, and the later result is kept."""

    def __init__(self, maxsize: int):
        self.maxsize = int(maxsize)
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get_or_build(self, key, build: Callable):
        with self._lock:
            if key in self._data:
                self.hits += 1
                self._data.move_to_end(key)
                return self._data[key]
            self.misses += 1
        value = build()
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
        return value

    def __len__(self) -> int:
        return len(self._data)
