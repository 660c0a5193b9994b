"""Shared plumbing: deterministic parallel mapping, a bounded cache and
canonical JSON."""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence

__all__ = ["ordered_parallel_map", "LRUCache", "canonical_json", "config_hash"]


def ordered_parallel_map(fn: Callable, items: Iterable, threads: int = 4) -> list:
    """map(fn, items) with results in input order regardless of scheduling.

    Threads suit the workloads here (numpy releases the interpreter lock in
    the heavy kernels); reduction order is the input order, so floating-point
    results are independent of thread timing.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
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


def canonical_json(payload) -> str:
    """Deterministic JSON: sorted keys, tight separators, no NaN laundering."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_hash(payload) -> str:
    """sha256 of the canonical JSON encoding, hex digest."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
