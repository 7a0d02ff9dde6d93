"""Deterministic worker-pool helper.

All enumerations in this package are pure maps over index streams, so any
worker count yields the same multiset of results; callers re-sort
canonically, making output independent of `workers`.  The worker count is
an explicit argument (the CLI's `--workers`), 1 (serial) by default.  The
pool starts all of its processes at the first submit, so it never asks for
more than `os.cpu_count()` of them.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor


def pmap(fn, items, workers=1, chunksize=64):
    """Ordered map; serial when workers <= 1, process pool otherwise.

    The serial path consumes `items` one at a time, so a generator of tasks
    is never held in full.
    """
    if workers > 1:
        items = list(items)
        if len(items) > 1:
            with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
                return list(pool.map(fn, items, chunksize=chunksize))
    return [fn(item) for item in items]
