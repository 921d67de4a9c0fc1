"""The fleet benchmark's workloads and the seeded feeds they serve.

A workload fixes the fleet (stream count and :class:`FleetConfig`) and
the shape of its feed; the seed only changes the feed's values. Every
stream's feed comes from one of three :mod:`repro.traces.synthetic`
families, assigned round-robin so each family makes up a third of the
fleet: AR(1), ``conflict_series`` (regime-switching) and white noise.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.parallel import ParallelConfig
from repro.serving import FleetConfig
from repro.traces.synthetic import ar1_series, conflict_series, white_noise_series

__all__ = ["MIN_TICKS", "STORM_LEVEL", "STORM_SCALE", "Workload", "WORKLOADS", "make_feed"]

#: Timed ticks floor: a p99 over 1000 ticks has 10 samples beyond it.
MIN_TICKS = 1000

#: Seeds the per-stream shape (level, spread, AR coefficient, scale),
#: which stays fixed across runs; the run's seed draws the noise. A seed
#: thus changes every value but not the kind of fleet being served.
SHAPE_SEED = 20070326

#: A storm shifts a flipped stream's level up by this much ...
STORM_LEVEL = 25.0
#: ... and scales its deviations from the warm-up mean by this factor.
STORM_SCALE = 4.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``config.min_train`` doubles as the warm-up length: the set-up
    ingests exactly that many values per stream, then trains every
    stream once. ``storm_every`` (ticks) toggles the even-numbered half
    of the fleet in and out of a shifted regime in lockstep; ``None``
    keeps the feed stationary. ``oracle_streams`` streams are replayed
    through a per-stream reference fleet (0 skips the replay).
    ``ticks_per_s`` is the tick rate measured on the reference 2-core
    machine; it turns ``--seconds`` into a tick count, so every commit
    serves the same ticks whatever its speed.
    """

    name: str
    streams: int
    config: FleetConfig
    storm_every: int | None
    oracle_streams: int
    ticks_per_s: float

    @property
    def warmup(self) -> int:
        return self.config.min_train

    @cached_property
    def stream_names(self) -> list[str]:
        return [f"s{i:04d}" for i in range(self.streams)]

    def ticks_for(self, seconds: float) -> int:
        """Timed ticks for a run of about *seconds* on the reference box."""
        return max(MIN_TICKS, math.ceil(seconds * self.ticks_per_s))

    def oracle_sample(self) -> list[int]:
        """Indices of the streams the reference fleet replays.

        Evenly spread over the fleet, so the sample mixes all three
        families and, on the storm workloads, both halves.
        """
        k = min(self.oracle_streams, self.streams)
        if k <= 1:
            return list(range(k))
        return sorted({round(j * (self.streams - 1) / (k - 1)) for j in range(k)})


def _storm_config(mode: str) -> FleetConfig:
    return FleetConfig(
        min_train=2048,
        max_memory=128,
        history_limit=2048,
        retrain_window=2048,
        auto_retrain=False,
        retrain_mode=mode,
        parallel=ParallelConfig(max_workers=os.cpu_count() or 1),
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # FleetConfig defaults (window 5, max_memory 512); 540 warm-up
        # values give 512+ training frames, so the first training
        # already fills every k-NN memory. 500 streams rather than 1000
        # keep one run near 35 s on a 2-core machine, so the dozens of
        # repeated runs a before/after comparison needs stay affordable;
        # the engine still does almost all the work.
        Workload(
            name="steady",
            streams=500,
            config=FleetConfig(min_train=540, auto_retrain=False),
            storm_every=None,
            oracle_streams=8,
            ticks_per_s=40.0,
        ),
        Workload(
            name="storm",
            streams=500,
            config=_storm_config("sync"),
            storm_every=40,
            oracle_streams=8,
            ticks_per_s=50.0,
        ),
        Workload(
            name="storm_async",
            streams=500,
            config=_storm_config("async"),
            storm_every=40,
            oracle_streams=0,
            ticks_per_s=35.0,
        ),
    )
}


def make_feed(workload: Workload, seed: int, ticks: int) -> np.ndarray:
    """The ``(streams, warmup + ticks)`` value matrix for one *seed*.

    Column ``t`` is the tick-``t`` value of every stream. The warm-up
    columns are stationary; on storm workloads the even-numbered
    streams spend every other ``storm_every``-tick block of the timed
    columns shifted by :data:`STORM_LEVEL` with deviations scaled by
    :data:`STORM_SCALE`.
    """
    shape = np.random.default_rng(SHAPE_SEED)
    rng = np.random.default_rng(seed)
    n = workload.warmup + ticks
    feed = np.empty((workload.streams, n))
    for i in range(workload.streams):
        level, std, phi, scale = shape.uniform(
            (20.0, 2.0, 0.5, 0.5), (80.0, 10.0, 0.95, 2.0)
        )
        family = i % 3
        if family == 0:
            feed[i] = level + ar1_series(n, phi=phi, std=std, seed=rng)
        elif family == 1:
            feed[i] = scale * conflict_series(n, seed=rng)
        else:
            feed[i] = level + white_noise_series(n, std=std, seed=rng)
    if workload.storm_every:
        flipped = feed[::2]
        base = flipped[:, : workload.warmup].mean(axis=1, keepdims=True)
        t = np.arange(ticks)
        cols = workload.warmup + np.nonzero((t // workload.storm_every) % 2 == 1)[0]
        flipped[:, cols] = base + STORM_LEVEL + STORM_SCALE * (flipped[:, cols] - base)
    return feed
