"""Host-speed correction: a fixed reference kernel timed between slices of the measured work.

The shared host this benchmark runs on changes speed by tens of percent, over
seconds to minutes, with other tenants' load: time is stolen from the virtual
CPUs, and what runs still contends for shared cores and caches. The same code
then reads 30% slower or faster from one run to the next, which hides any
regression smaller than that. Longer runs do not cure it, because the drift is
slower than a run.

So the measured region is cut into slices of about SLICE_S seconds, and before
and after each slice the benchmark times a reference kernel of its own: fixed,
pure-Python dict and integer work, like the simulator's inner loops, and no
code of the program. The kernel's time measures how fast the host is at that
moment. Each slice's wall and CPU time is multiplied by REFERENCE_S over the
kernel's mean time around the slice, which expresses it at the speed of a host
that runs the kernel in exactly REFERENCE_S seconds. A change to the program
moves the slices and not the kernel, so it shows in the corrected times in
full; a change in host speed moves both, and cancels. The kernel's own time is
excluded from the work. Raw (uncorrected) times are kept alongside.

Each latency is corrected by the factor of the slice it fell in, before any
median is taken. Set-up time is corrected by a few kernel calls made just
before and after set-up.
"""

from __future__ import annotations

import bisect
import resource
import statistics
from time import perf_counter

REFERENCE_S = 0.002  # nominal time of one kernel call; corrected times are expressed against it
SLICE_S = 0.05  # measured work between two kernel calls
WINDOW = 3  # kernel calls on each side of a slice averaged for its correction

_SIDE = 16
_OFFSETS = (1, -1, _SIDE, -_SIDE, _SIDE * _SIDE, -_SIDE * _SIDE)
_ROUNDS = 2
_CHECK = 315840  # the kernel's result; anything else means the kernel changed


def cpu_seconds() -> float:
    """User plus system CPU time of this process and its children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _cells() -> dict[int, int]:
    """A fixed 16^3 grid, 30% filled, keyed by linear index."""
    cells, x = {}, 12345
    for index in range(_SIDE ** 3):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        if x % 10 < 3:
            cells[index] = x % 5 + 1
    return cells


def _kernel(cells: dict[int, int], keys: list[int]) -> int:
    """Sum each filled cell's six neighbours; allocates nothing the garbage collector tracks."""
    acc = 0
    get = cells.get
    for _ in range(_ROUNDS):
        for key in keys:
            total = 0
            for offset in _OFFSETS:
                total += get(key + offset, 0)
            acc = (acc * 31 + total) & 0xFFFFF
    return acc


_CELLS = _cells()
_KEYS = list(_CELLS)


def kernel_call() -> tuple[float, float, float, float]:
    """One reference kernel call: its wall start and end, and its CPU start and end, in seconds."""
    cpu0, wall0 = cpu_seconds(), perf_counter()
    check = _kernel(_CELLS, _KEYS)
    wall1, cpu1 = perf_counter(), cpu_seconds()
    if check != _CHECK:
        raise RuntimeError(f"reference kernel returned {check}, expected {_CHECK}")
    return wall0, wall1, cpu0, cpu1


def _factors(starts: list[float], ends: list[float]) -> list[float]:
    """Correction of each slice between two kernel calls: REFERENCE_S over the mean kernel time around it."""
    times = [e - s for s, e in zip(starts, ends)]
    factors = []
    for i in range(len(times) - 1):
        window = times[max(0, i + 1 - WINDOW):i + 1 + WINDOW]
        factors.append(REFERENCE_S * len(window) / sum(window))
    return factors


class HostSpeed:
    """Probes the host between slices of work and corrects the slices' times."""

    def __init__(self):
        self.calls: list[tuple[float, float, float, float]] = []

    def probe(self) -> None:
        self.calls.append(kernel_call())

    def maybe_probe(self) -> None:
        """Probe when the current slice has reached SLICE_S seconds."""
        if perf_counter() - self.calls[-1][1] >= SLICE_S:
            self.probe()

    def totals(self) -> dict:
        """Raw and corrected wall and CPU time of the work between the first and the last probe."""
        if len(self.calls) < 2:
            raise RuntimeError("host speed needs a probe before and after the work")
        starts, ends, cpu_starts, cpu_ends = map(list, zip(*self.calls))
        walls = [s - e for e, s in zip(ends, starts[1:])]
        cpus = [s - e for e, s in zip(cpu_ends, cpu_starts[1:])]
        kernel = [e - s for s, e in zip(starts, ends)]
        return {
            "wall_s": sum(walls),
            "cpu_s": sum(cpus),
            "wall_corrected_s": sum(w * f for w, f in zip(walls, _factors(starts, ends))),
            "cpu_corrected_s": sum(c * f for c, f in zip(cpus, _factors(cpu_starts, cpu_ends))),
            "probes": len(kernel),
            "kernel_ms_mean": 1000.0 * statistics.mean(kernel),
        }

    def correct(self, samples: list[tuple[float, float]]) -> list[float]:
        """Durations, given as (perf_counter() at their end, seconds), each corrected by its slice's factor."""
        starts = [call[0] for call in self.calls]
        factors = _factors(starts, [call[1] for call in self.calls])
        return [seconds * factors[bisect.bisect_left(starts, end) - 1] for end, seconds in samples]
