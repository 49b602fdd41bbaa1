"""Host speed: a fixed reference slice, timed between operations.

The shared host this benchmark runs on changes speed more than twofold over
minutes, and the guest cannot see it: process CPU time grows with wall time,
steal time stays near zero, and a busy second vCPU does not slow the first.
So every run times a fixed slice of work, of the kinds the workloads do
(numpy calls on a few hundred entries inside a Python loop, a pure-Python
loop, Python objects built and dropped, and fresh pages touched, which are
dear in this VM and which a new interpreter takes by the thousand), evenly
through the run, and scales its times by ``REF_SLICE_S / median slice
time``.  A time then reads in reference-host seconds: what it would take on
a host that runs one slice in ``REF_SLICE_S``.  The slice never touches
mmlab, so a change to the program moves the scaled times by exactly its own
effect.

    python3 mmbench/hostspeed.py [SECONDS]

prints the median slice time on this host.
"""

from __future__ import annotations

import mmap
import statistics
import sys
import time

import numpy as np

# one slice on this 2-vCPU VM as measured on 2026-10-18
REF_SLICE_S = 0.020
# slices run for this share of the time just measured
SHARE = 0.1

_X = np.linspace(0.0, 1.0, 512)
# fresh pages per slice: 32 maps of 64 pages of 4 KiB, each unmapped before
# the next, so a slice adds 256 KiB at most to the resident set
_MAPS, _MAP_BYTES = 32, 1 << 18


def _work() -> float:
    acc = 0.0
    y = _X
    for i in range(140):
        y = np.sort(np.abs(np.sin(3.1 * y + 0.01 * i)))
        c = np.cumsum(y)
        acc += float(np.interp(0.5 * c[-1], c, _X))
    s = 0
    for i in range(25000):
        s += (i * i) % 7
    for j in range(8):
        objs = [float(i) * 1.5 for i in range(j, 2500 + j)]
        table = {i: v for i, v in enumerate(objs)}
        acc += sorted(objs, key=lambda v: -v)[0] + len(table)
    for _ in range(_MAPS):
        mem = mmap.mmap(-1, _MAP_BYTES)
        a = np.frombuffer(mem, dtype=np.uint8)
        a[::4096] = 1
        acc += float(a[::8192].sum())
        del a
        mem.close()
    return acc + s


def one_slice() -> float:
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def slices_for(seconds: float) -> list:
    """Run slices until they took ``SHARE * seconds`` in all; at least one."""
    out = [one_slice()]
    while sum(out) < SHARE * seconds:
        out.append(one_slice())
    return out


def factor(samples: list) -> float:
    """Multiply a wall time by this to read it in reference-host seconds."""
    return REF_SLICE_S / statistics.median(samples)


if __name__ == "__main__":
    span = float(sys.argv[1]) if len(sys.argv) > 1 else 2.0
    one_slice()
    got = slices_for(span / SHARE)
    print(f"{len(got)} slices, median {statistics.median(got) * 1000:.2f} ms, "
          f"factor {factor(got):.4f}")
