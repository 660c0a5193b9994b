import sys
from concurrent.futures import ThreadPoolExecutor

from lfunlab.util import LRUCache


def test_lru_cache_evicts_least_recently_used():
    cache = LRUCache(maxsize=2)
    built = []

    def build(key):
        return lambda: built.append(key) or key * 10

    assert cache.get_or_build(1, build(1)) == 10
    assert cache.get_or_build(2, build(2)) == 20
    assert cache.get_or_build(1, build(1)) == 10  # hit; 2 is now the oldest
    assert cache.get_or_build(3, build(3)) == 30  # evicts 2
    assert len(cache) == 2
    assert cache.get_or_build(1, build(1)) == 10
    assert cache.get_or_build(2, build(2)) == 20  # rebuilt
    assert built == [1, 2, 3, 2]
    assert (cache.hits, cache.misses) == (2, 4)


def test_lru_cache_counts_every_lookup_under_threads():
    # more threads than cores and a short switch interval: a lost counter
    # update or an unlocked eviction would break these invariants
    cache = LRUCache(maxsize=4)
    threads, lookups = 8, 2000
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(lambda s=s: [cache.get_or_build(k % 7, lambda k=k: k % 7) for k in range(s, s + lookups)])
                for s in range(threads)
            ]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(old)
    assert all(r == [k % 7 for k in range(s, s + lookups)] for s, r in enumerate(results))
    assert cache.hits + cache.misses == threads * lookups
    assert len(cache) <= 4
