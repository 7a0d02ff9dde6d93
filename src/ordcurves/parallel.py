"""Deterministic worker-pool helper.

All enumerations in this package are pure maps over index streams, so any
worker count yields the same multiset of results; callers re-sort
canonically, making output independent of `workers`.  The worker count is
an explicit argument (the CLI's `--workers`), 1 (serial) by default.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor


def pmap(fn, items, workers=1, chunksize=64):
    """Ordered map; serial when workers <= 1, process pool otherwise."""
    items = list(items)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))
