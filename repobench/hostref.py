"""Host-speed reference loop used to normalise every benchmark timing.

The benchmark host is a small shared VM whose speed drifts by a third
from one second to the next.  A fixed pure-Python loop, timed around
each job (or batch of short jobs), measures that drift; a job's
normalised seconds are ``job_s * R0 / ref_s``, i.e. what the job would
have taken on a host where the loop takes ``R0`` seconds.

The loop mixes the operations the scheduler spends its time on (dict
and list traffic, sorting, small-int arithmetic) and imports nothing
from ``repro``: a change to the program can
never change the yardstick.  Raw seconds are always reported next to
normalised ones (``host.ref_s``, ``raw.nodes_per_s``), so normalisation
never hides a change.
"""

from __future__ import annotations

import time

__all__ = ["R0", "normalise", "reference_loop"]

#: Seconds one :func:`reference_loop` takes on the reference host
#: (2-core x86-64 VM, CPython 3.11).  A constant: changing it rescales
#: every normalised timing, so it is part of the benchmark definition.
R0 = 0.008


def _work() -> int:
    # ints only: nothing the cyclic GC tracks is allocated, so the
    # loop's time does not depend on how big the program's heap is
    table: dict[int, int] = {}
    seq: list[int] = []
    acc = 0
    for i in range(16000):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
        seq.append((i * 7) % 97)
    seq.sort()
    for i, v in enumerate(seq):
        acc += table.get(v, 1) ^ i
        if acc & 1:
            acc >>= 1
    return acc


def reference_loop() -> float:
    """Wall-clock seconds of one fixed pure-Python workload."""
    started = time.perf_counter()
    _work()
    return time.perf_counter() - started


def normalise(seconds: float, ref_s: float) -> float:
    """``seconds`` measured while the loop took ``ref_s``, rescaled to
    the reference host."""
    if ref_s <= 0:
        raise ValueError(f"reference-loop time must be positive, got {ref_s}")
    return seconds * R0 / ref_s
