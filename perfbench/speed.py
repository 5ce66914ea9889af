"""Machine-speed calibration.

The benchmark runs on a few cores of a shared host whose speed drifts: a
fixed pure-Python loop timed for a minute ran between 1.0x and 1.8x its
fastest time, in phases lasting tens of seconds, so a whole run can fall in
a slow phase and no best-of-N repeat recovers from that.  A short fixed loop
is therefore timed between calls, and each call's time is scaled to the
reference speed: the speed at which ``loop`` takes ``REFERENCE_S``.  Faster
or slower tsred code changes the call time and not the loop, so a change to
tsred moves the scaled time as it moves the raw one.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 1e-4  # the loop's time at reference speed
REPEATS = 3  # a calibration is the best of this many loops

# Sized so that the three parts of ``loop`` take about the same time.
INT_STEPS = 100
NUMPY_STEPS = 5
WALK_ROUNDS = 5

_GRID = np.linspace(0.0, 1.0, 101)
_RNG = np.random.default_rng(0)
_MASKS = [(1 << (j % 120)) | (1 << (j * 7 % 120)) | (1 << (j * 13 % 120)) for j in range(48)]
_FULL = (1 << 120) - 1


def loop() -> int:
    """Work of the three kinds tsred does, in equal parts, since a slow
    phase of the host does not slow each kind alike: int and bit arithmetic
    with list and dict indexing (the oracle), small numpy calls and RNG
    draws (FIS and fuzzy inference), and a walk that ORs masks wider than
    one machine word, as decoding on wide suites does.  In a 160 s
    recording the blend tracked each kind of tsred call as well as or
    better than any one part alone.
    Its result depends on every step, so none can be skipped."""
    acc = 0
    table = list(range(64))
    seen: dict[int, int] = {}
    for i in range(INT_STEPS):
        mask = (i * 2654435761) & 0xFFFFFFFFFFFF
        acc ^= mask >> (i & 15)
        seen[i & 63] = table[(i * 7) & 63] + acc.bit_count()
    for _ in range(NUMPY_STEPS):
        level = float(_RNG.random())
        acc += int(_RNG.integers(0, 30)) + int(np.maximum(_GRID, np.minimum(level, _GRID)).sum())
    for r in range(WALK_ROUNDS):
        covered = 0
        for j in range(48):
            covered |= _MASKS[(j + 5 * r) % 48]
            if covered == _FULL:
                break
        acc += j
    return acc + len(seen)


def calibrate() -> float:
    """The loop's time now, in seconds: the best of a few back-to-back runs,
    so an interrupt does not read as a slow machine."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        loop()
        best = min(best, time.perf_counter() - t0)
    return best


def scale(seconds: float, before: float, after: float) -> float:
    """A time measured between two calibrations, at reference speed."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
