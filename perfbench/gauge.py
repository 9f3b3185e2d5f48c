"""Machine-speed normalization of wall-clock times.

On a shared virtual machine the speed of a core drifts by 20 % or more in
phases of seconds to minutes, so the same deterministic pass can take 6 s
in one run and 9 s in the next. The gauge times a fixed pure-Python kernel
(binary-heap Dijkstra on a seeded random digraph, built here, never calling
into bulkflow) between segments of about ``SEGMENT_S`` seconds of measured
work, and scales each segment's times by ``REF_CHUNK_S`` over the mean of
the two chunk times around it. The scaled figures read as seconds on a
machine that runs one chunk in ``REF_CHUNK_S``: drift of the machine
cancels, a change of the program does not.
"""

from __future__ import annotations

import heapq
import random
import time
from typing import Callable, List, Tuple

# nominal time of one reference chunk; scaled times are seconds at it
REF_CHUNK_S = 0.03
# measured work between two reference chunks
SEGMENT_S = 0.5

_NODES = 300
_DEGREE = 6
_RUNS_PER_CHUNK = 100


class Normalizer:
    """Queues raw times and scales them once a segment is complete."""

    def __init__(self):
        rng = random.Random("perfbench:gauge")
        self._adj = [[(rng.randrange(_NODES), rng.random())
                      for _ in range(_DEGREE)] for _ in range(_NODES)]
        self.chunks: List[float] = []
        self._pending: List[Tuple[float, Callable[[float], None]]] = []
        self._pending_s = 0.0
        self._prev = self._chunk()

    def _chunk(self) -> float:
        start = time.perf_counter()
        adj = self._adj
        for run in range(_RUNS_PER_CHUNK):
            dist = [float("inf")] * _NODES
            dist[run % _NODES] = 0.0
            heap = [(0.0, run % _NODES)]
            while heap:
                d, v = heapq.heappop(heap)
                if d > dist[v]:
                    continue
                for u, w in adj[v]:
                    nd = d + w
                    if nd < dist[u]:
                        dist[u] = nd
                        heapq.heappush(heap, (nd, u))
        elapsed = time.perf_counter() - start
        self.chunks.append(elapsed)
        return elapsed

    def add(self, raw_s: float, apply: Callable[[float], None]) -> None:
        """Queue ``apply(scale)`` for a measurement of ``raw_s`` seconds."""
        self._pending.append((raw_s, apply))
        self._pending_s += raw_s
        if self._pending_s >= SEGMENT_S:
            self.flush()

    def flush(self) -> None:
        """Time a chunk and scale everything queued since the last one."""
        if not self._pending:
            return
        nxt = self._chunk()
        scale = REF_CHUNK_S / ((self._prev + nxt) / 2.0)
        self._prev = nxt
        for _raw_s, apply in self._pending:
            apply(scale)
        self._pending.clear()
        self._pending_s = 0.0
