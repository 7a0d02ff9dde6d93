"""Deterministic worker-pool helper.

`pmap` is an ordered map of a pure function over a list of tasks, so any
worker count yields the same results and callers merge them canonically,
making output independent of `workers`.  The span scan's tasks are the
subtrees of its prefix tree, one per first index whose suffix of rows has
rank N, so that it can complete an N-subset: a task is one small int, the
rows and their suffix ranks travel pickled with the function, and a worker
returns the map of the kernel vectors its subtree found to their
incidences, so the incidences are computed in the workers too.  The
subtrees shrink fast with the first index and there are at most |A| of
them, so the pool hands them out one at a time (chunksize 1): in larger
chunks one worker would get them all.
The worker count is an explicit argument (the CLI's `--workers`), 1
(serial) by default.  The pool starts all of its processes at the first
submit, so it never asks for more than `os.cpu_count()` of them.
"""

from __future__ import annotations

import os


def pmap(fn, items, workers=1):
    """Ordered map; serial when workers <= 1, process pool otherwise.

    The serial path consumes `items` one at a time, so a generator of tasks
    is never held in full, and it never imports `concurrent.futures`: the
    pool's module is loaded only when a pool is asked for.
    """
    if workers > 1:
        items = list(items)
        if len(items) > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1)) as pool:
                return list(pool.map(fn, items))
    return [fn(item) for item in items]
