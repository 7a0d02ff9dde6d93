"""An ordered map in the calling process, which no package code calls.

The span scan once split its prefix tree into one task per first index and
mapped them here; it is now one walk (`linalg.spanned_vectors`).  The
module stays only because the benchmark harness under perfbench/ imports
it and traces `pmap`; it goes when the benchmark drops that traced name.
"""

from __future__ import annotations


def pmap(fn, items):
    """Ordered map in the calling process; consumes `items` one at a time,
    so a generator of tasks is never held in full."""
    return [fn(item) for item in items]
