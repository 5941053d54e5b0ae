"""Host-speed calibration of the benchmark's timings.

On a host whose cores are shared with other tenants, the same
pure-Python work can run 1.5-2x slower for tens of seconds at a time
(a busy sibling hyperthread, a lower clock).  Raw wall times then
measure the neighbours as much as the program.  Every timed request of
the benchmark is therefore bracketed by a short fixed calibration loop
that uses no code of the package, and the benchmark reports

    normalized seconds = raw seconds * REFERENCE_S / calibration seconds

with the calibration taken as the mean of the factors measured just
before and just after the request.  A change to the program moves the
raw seconds and leaves the calibration alone, so it shows in full; a
slow phase of the host moves both and largely cancels.

The calibration is the geometric mean of two loops: one allocates
small objects and groups them in a dict, the kind of interpreter work
the service spends its time on; the other follows a random chain
through a list far larger than a CPU cache, which slows as the
program's large netlists do when a neighbour competes for the cache.
The collector is off while they run so that each pass does exactly
the same work.
"""

from __future__ import annotations

import gc
import resource
import time

#: Objects allocated per calibration pass (~15 ms on the reference host).
CELLS = 50_000

#: Links of the random chain (~40 MB of list and ints) and the steps
#: one pass follows (~30 ms on the reference host).
CHAIN_LINKS = 1 << 20
CHAIN_STEPS = 100_000

#: Best-of-2 calibration seconds on the reference host (2-core x86 VM,
#: CPython 3.11, quiet period), as the geometric mean of the two loops.
#: Normalized times are seconds on a host that calibrates this fast.
REFERENCE_S = 0.0220

#: Calibration passes of each loop per measurement; the fastest counts.
PASSES = 2

_chain: "list[int] | None" = None


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key = key
        self.value = value


def _allocate_pass() -> int:
    cells = [_Cell(i, i * 3) for i in range(CELLS)]
    groups: dict = {}
    for cell in cells:
        groups.setdefault(cell.key & 255, []).append(cell.value)
    return sum(len(values) for values in groups.values())


def _chase_pass() -> int:
    chain = _chain
    link = 0
    for _ in range(CHAIN_STEPS):
        link = chain[link]
    return link


def _resident_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as statm:
        pages = int(statm.read().split()[1])
    return pages * resource.getpagesize() / 2**20


def prepare() -> float:
    """Build the random chain once.  Returns the MB it keeps resident,
    which a caller reporting the peak RSS of a workload subtracts."""
    global _chain
    if _chain is not None:
        return 0.0
    before = _resident_mb()
    # A full-period linear congruential step modulo a power of two
    # (multiplier 1 mod 4, odd increment): one cycle through every link
    # in a scattered order.
    _chain = [
        (link * 1664525 + 1013904223) % CHAIN_LINKS
        for link in range(CHAIN_LINKS)
    ]
    return _resident_mb() - before


def _fastest(loop, passes: int) -> float:
    best = float("inf")
    for _ in range(max(1, passes)):
        started = time.perf_counter()
        loop()
        best = min(best, time.perf_counter() - started)
    return best


def calibration_s(passes: int = PASSES) -> float:
    """Geometric mean of the fastest of ``passes`` runs of each loop."""
    prepare()
    enabled = gc.isenabled()
    gc.disable()
    try:
        allocate = _fastest(_allocate_pass, passes)
        chase = _fastest(_chase_pass, passes)
    finally:
        if enabled:
            gc.enable()
    return (allocate * chase) ** 0.5


def speed_factor() -> float:
    """``REFERENCE_S / calibration_s()``: below 1 while the host is slow."""
    return REFERENCE_S / calibration_s()


if __name__ == "__main__":
    samples = sorted(calibration_s() for _ in range(20))
    print(f"calibration_s: min {samples[0]:.6f}  median {samples[10]:.6f}")
