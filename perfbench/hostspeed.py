"""Host speed probe, which scales the benchmark's timings to one
reference speed.

The benchmark runs on a small virtual machine that shares its physical
cores with other tenants.  Its speed moves by tens of percent within
seconds and drifts as much over minutes, while the CPU time of the
process tracks its wall time (no time is stolen; each instruction just
takes longer).  A raw wall time then says more about the neighbours
than about busweaver, and two sets of runs of the same code disagree
by more than any useful bound.

So the benchmark times ``probe`` right before and right after every
timed interval and reports the interval as it would read on a host
where the probe takes ``REFERENCE_S``::

    scaled = measured * REFERENCE_S / mean(probe before, probe after)

The probe is a fixed piece of pure-Python work of the same kind as
busweaver's (dicts keyed by tuples, a sort, string building), so the
neighbours slow both alike.  It lives here, not in the program, so it
does not change when the program does.  The program must not move it
either: it runs with the garbage collector off, so the size of the
program's heap does not count, and it times only warm repeats, so the
program's cache footprint does not count.  Each scaled value is still
computed from measured times only; the as-measured wall times print
beside them.
"""

from __future__ import annotations

import gc
import time

#: About the probe's median over a benchmark run on the 2-vCPU Xeon VM
#: (2.0 GHz) the bounds were set on.  It only sets the scale: a scaled
#: time reads about like a wall time on that host.
REFERENCE_S = 2.0e-4
#: Warm repeats of the work that one probe times (about 1 ms in all).
REPEATS = 8


def _work() -> str:
    table: dict[tuple[int, int], int] = {}
    for i in range(400):
        table[i, i & 7] = table.get((i - 1, (i - 1) & 7), 0) + i
    ranked = sorted(table.values(), reverse=True)
    return "".join([str(x) for x in ranked[:100]])


def probe() -> float:
    """Seconds one warm run of the fixed work takes now: the mean of
    ``REPEATS`` runs after an untimed one."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _work()
        started = time.perf_counter()
        for _ in range(REPEATS):
            _work()
        return (time.perf_counter() - started) / REPEATS
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, at the
    reference speed."""
    return seconds * REFERENCE_S / probe_s
