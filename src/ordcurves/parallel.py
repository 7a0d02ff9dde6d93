"""Deterministic worker-pool helper.

All enumerations in this package are pure maps over index streams, so any
worker count yields the same multiset of results; callers re-sort
canonically, making output independent of `workers`.  The worker count is
an explicit argument (the CLI's `--workers`), 1 (serial) by default.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor


def pmap(fn, items, workers=1, chunksize=64):
    """Ordered map; serial when workers <= 1, process pool otherwise.

    The serial path consumes `items` one at a time, so a generator of tasks
    is never held in full.
    """
    if workers > 1:
        items = list(items)
        if len(items) > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(fn, items, chunksize=chunksize))
    return [fn(item) for item in items]
