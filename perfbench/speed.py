"""How fast the benchmark's CPU is running, sampled while it measures.

    python3 perfbench/speed.py SAMPLES_FILE

On a shared host one CPU's speed swings by a fifth or more within
seconds and drifts over minutes, so a raw wall time says as much about
the neighbours as about the program. ``run.py`` pins itself and every
child to one CPU and starts this probe there. Every ``PERIOD_S`` the
probe times one fixed pure-Python loop and appends ``start duration`` to
SAMPLES_FILE. :func:`slowdown` turns the samples taken during an interval
into how much slower than ``REFERENCE_S`` the loop ran, and ``run.py``
divides the interval's wall time by it: a time at the reference speed.

The probe stops on SIGTERM, or by itself once its parent has gone.
"""

from __future__ import annotations

import os
import signal
import statistics
import sys
import time

REFERENCE_S = 0.0008  # the loop's time on the 2-core box the benchmark was written on
PERIOD_S = 0.025      # one loop every 25 ms: about 3 % of the CPU
WINDOW_S = 1.0        # samples are medianed per window, then the windows averaged
MIN_SAMPLES = 5       # a shorter interval is widened until it holds this many


def loop() -> int:
    total = 0
    for i in range(10000):
        total += i * i % 7
    return total


def probe(path: str) -> None:
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    parent = os.getppid()
    clock = time.perf_counter  # CLOCK_MONOTONIC, shared with the parent
    with open(path, "w", encoding="ascii", buffering=1) as handle:
        print("ready", flush=True)
        while not stopping and os.getppid() == parent:
            t0 = clock()
            loop()
            handle.write(f"{t0!r} {clock() - t0!r}\n")
            time.sleep(PERIOD_S)


def read_samples(path) -> list:
    samples = []
    with open(path, encoding="ascii") as handle:
        for line in handle:
            fields = line.split()
            if len(fields) == 2:  # the last line may still be being written
                samples.append((float(fields[0]), float(fields[1])))
    return samples


def slowdown(samples: list, t0: float, t1: float) -> float:
    """Loop time during [t0, t1] over ``REFERENCE_S``: above 1 when the CPU ran slow.

    Each ``WINDOW_S`` window contributes the median of its samples, so a
    loop preempted once does not count, weighted by its sample count, so
    the share of the interval spent fast or slow does.
    """
    inside = [s for s in samples if t0 <= s[0] <= t1]
    while len(inside) < MIN_SAMPLES:
        if len(inside) == len(samples):
            raise ValueError("the speed probe took no samples")
        t0, t1 = t0 - WINDOW_S / 4, t1 + WINDOW_S / 4
        inside = [s for s in samples if t0 <= s[0] <= t1]
    windows = {}
    for start, duration in inside:
        windows.setdefault(int((start - t0) // WINDOW_S), []).append(duration)
    weighted = sum(len(w) * statistics.median(w) for w in windows.values())
    return weighted / len(inside) / REFERENCE_S


if __name__ == "__main__":
    probe(sys.argv[1])
