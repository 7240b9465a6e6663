"""A fixed reference walk that measures how fast the host runs Python now.

The speed of a shared host drifts by 15-20% over tens of seconds: a fixed
pure-Python loop timed in 2 s windows for 200 s on a 2-vCPU Xeon ranged
from 7.1 to 12.0 ms.  No statistic over one run takes that out of a wall
time.  So the benchmark times `reference_walk` between its ops and reports
host-scaled times: a wall time multiplied by NOMINAL_S over the median of
the walks nearest it.  A host-scaled time is the wall time the work would
take on a host where the walk takes NOMINAL_S, about its time on that
Xeon when the host is quiet.

The walk builds and reads a tree of small objects, as lcatch does with
terms, but none of its code comes from lcatch, so a change to lcatch does
not change the walk.  This module imports nothing beyond `gc` and `time`,
so a fresh interpreter can time the walk without importing what lcatch
would import.
"""

import gc
import time

NOMINAL_S = 0.0008


class _Node:
    __slots__ = ("left", "right", "val")

    def __init__(self, left, right, val):
        self.left, self.right, self.val = left, right, val


def _tree(depth, val):
    if depth == 0:
        return _Node(None, None, val)
    return _Node(_tree(depth - 1, 2 * val), _tree(depth - 1, 2 * val + 1), val)


def _walk(node):
    if node.left is None:
        return node.val
    return (_walk(node.left) * 3 + _walk(node.right) + node.val) % 1_000_003


def _build_and_walk():
    tree = _tree(10, 1)
    _walk(tree)
    _walk(tree)


def reference_walk():
    """Seconds to build a tree of 2047 nodes and walk it twice.

    An untimed pass first brings the walk's code and memory back into the
    caches that the last op evicted, and the cyclic collector is off, so
    the timed pass depends on the speed of the host, not on what the
    workload left behind."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _build_and_walk()
        t0 = time.perf_counter()
        _build_and_walk()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
