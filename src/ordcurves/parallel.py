"""The span scan's ordered map over its tasks.

The scan's tasks are the subtrees of its prefix tree, one per first index
whose suffix of rows has rank N, so that it can complete an N-subset; each
returns the map of the kernel vectors its subtree found to their
incidences, and the scan merges them canonically.  Every task runs in the
calling process.  A process pool does not pay here: starting one costs
more than the whole scan on small inputs, and on larger ones the first
subtree holds most of the leaves, so no split of the tasks gains.
"""

from __future__ import annotations


def pmap(fn, items):
    """Ordered map in the calling process; consumes `items` one at a time,
    so a generator of tasks is never held in full."""
    return [fn(item) for item in items]
