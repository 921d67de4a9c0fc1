"""Host-speed normalisation of the benchmark's timings.

The benchmark runs on a share of a larger machine whose speed drifts: a
fixed pure-Python loop takes up to 50% longer in some seconds, and in
some runs, than in others, in CPU time as well as in wall time, and the
fleet's ticks slow down in step with it. Left raw, that drift, not the
program, sets the spread between runs.

So every timing the benchmark bounds is reported in reference-host
time: its raw wall-clock duration times ``REF_CAL_S / c``, where ``c``
is the time of a fixed calibration measured right next to it. The
calibration mixes the kinds of work a tick does: dict work keyed by
stream name, many small numpy calls, and numpy passes over an array
twice the size of a core's L2 cache. Of the loops tried, it tracked the
ticks' drift between runs most closely. It is timed in thread CPU time,
not wall time: while the main thread is descheduled (for example
because the fleet's own worker processes hold the cores), the
calibration does not slow down, so the time that contention costs stays
in the reported duration. Only the host's speed per instruction is
divided out.
"""

from __future__ import annotations

import statistics
from time import perf_counter, thread_time

import numpy as np

__all__ = ["REF_CAL_S", "Laps", "calibrate", "speed", "tick_speeds"]

#: Thread CPU seconds of one :func:`calibrate` on the reference host, a
#: 2-core Xeon VM at 2.1 GHz. A fixed constant: it only sets the scale.
REF_CAL_S = 1.6e-3
#: Ticks on each side of a tick whose calibrations set its speed.
HALF_WINDOW = 2
#: Calibrations behind a one-off speed reading.
SPEED_SAMPLES = 9

_KEYS = [f"s{i:04d}" for i in range(500)]
_SMALL = [np.arange(5.0) + i for i in range(200)]
_BLOCK = np.random.default_rng(0).random((500, 1024))  # 4 MB


def calibrate() -> float:
    """Thread CPU seconds of one fixed calibration (about 2 ms)."""
    start = thread_time()
    values = {key: float(i) for i, key in enumerate(_KEYS)}
    total = 0.0
    for key in _KEYS:
        total += values[key]
    for row in _SMALL:
        row.sum()
    (_BLOCK * 1.5 + _BLOCK).sum(axis=1)
    return thread_time() - start


def speed(samples: int = SPEED_SAMPLES) -> float:
    """The host's speed factor now: ``REF_CAL_S`` ÷ median calibration.

    Multiply a raw duration by it to get reference-host time.
    """
    return REF_CAL_S / statistics.median(calibrate() for _ in range(samples))


def tick_speeds(cals, half: int = HALF_WINDOW) -> np.ndarray:
    """Per-tick speed factors from one calibration after each tick.

    A tick's factor is ``REF_CAL_S`` over the median calibration of the
    ticks within *half* of it. The median drops a calibration that a
    garbage collection or an interrupt happened to hit, while the window
    stays short enough to follow slow spells that last a few ticks.
    """
    cals = np.asarray(cals, dtype=float)
    if cals.size == 0:
        return cals
    padded = np.pad(cals, half, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, 2 * half + 1)
    return REF_CAL_S / np.median(windows, axis=1)


class Laps:
    """Wall-clock laps of a long operation, each followed by a calibration.

    Call the instance at the end of each lap; the calibration runs
    between laps, so it is not part of any lap. :meth:`ref_s` weighs each
    lap by its speed factor, as :func:`tick_speeds` does for ticks.
    """

    def __init__(self) -> None:
        self.raw_s: list[float] = []
        self._cals: list[float] = []
        self._start = perf_counter()

    def __call__(self) -> None:
        self.raw_s.append(perf_counter() - self._start)
        self._cals.append(calibrate())
        self._start = perf_counter()

    def ref_s(self) -> float:
        """The laps' total in reference-host seconds."""
        return float(np.dot(self.raw_s, tick_speeds(self._cals)))
