"""A fixed reference computation that measures how fast the host runs now.

The benchmark runs on a few cores of a shared host, whose speed drifts by
tens of percent over minutes as its neighbours come and go. The reference
kernel is run between the timed parts of every pass and set-up. Dividing
their CPU time by the kernel's CPU time at that moment cancels the drift;
multiplying by REF_S turns the ratio back into seconds on the host where
REF_S was measured.

The kernel is pure Python and does not import congestlist, so no change to
the program can change it. Like the program's listing core, it enumerates
K_4 over adjacency bitmasks and counts per-node loads in a dict.
"""

from __future__ import annotations

import gc
import random
import time

# CPU seconds of one kernel() on the 2-core VM the benchmark was developed
# on: the median of its samples over the runs there
REF_S = 0.045

_N = 168
_rng = random.Random(20200710)
_ADJ = [0] * _N
for _u in range(_N):
    for _v in range(_u + 1, _N):
        if _rng.random() < 0.3:
            _ADJ[_u] |= 1 << _v
            _ADJ[_v] |= 1 << _u


def kernel() -> int:
    """List the K_4 of a fixed G(168, 0.3) and count each node's cliques."""
    cliques = set()

    def rec(prefix: list[int], cand: int) -> None:
        if len(prefix) == 4:
            cliques.add(tuple(prefix))
            return
        if cand.bit_count() < 4 - len(prefix):
            return
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            prefix.append(v)
            rec(prefix, cand & _ADJ[v])
            prefix.pop()

    rec([], (1 << _N) - 1)
    load: dict[int, int] = {}
    for c in cliques:
        for v in c:
            load[v] = load.get(v, 0) + 1
    return len(cliques)


def sample() -> float:
    """CPU seconds of one kernel run in this process.

    The collector is off while it runs: otherwise the kernel's allocations
    would trigger collections that walk whatever the program left on the
    heap, and the sample would measure that heap, not the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.process_time()
        kernel()
        return time.process_time() - t0
    finally:
        if enabled:
            gc.enable()


def probe() -> float:
    """Host speed now: the mean CPU seconds of two kernel runs."""
    return (sample() + sample()) / 2


def rescale(cpu_s: list[float], probes: list[float]) -> float:
    """The total of `cpu_s` as it would read at REF_S host speed.

    `cpu_s` are consecutive segments of work and `probes` are probe() results
    taken before, between and after them, one more than there are segments.
    Each segment is rescaled by the mean of the probes on either side, so a
    change of host speed between segments is followed.
    """
    assert len(probes) == len(cpu_s) + 1
    return sum(c * REF_S * 2 / (before + after)
               for c, before, after in zip(cpu_s, probes, probes[1:]))
