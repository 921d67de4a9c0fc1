"""Span collection and self-time accounting for the traced run.

The benchmark times each public fleet call itself (its own spans) and
collects the program's phase spans through the flight recorder's
listener hook. Both arrive in exit order: a span is recorded when it
ends, so every child is recorded before its parent. A span's children
are therefore the unclaimed spans that ended after it started, which is
a suffix of the unclaimed list. (The tracer stamps a span's start a few
microseconds late, after its bookkeeping; a sibling that ended before
still ends before that stamp, so only a child shorter than that
bookkeeping could be missed.) Each span is claimed by exactly one
parent, so the self times of all spans add up to the total time of the
root spans — the benchmark-timed serve time — whatever the clock
jitter.
"""

from __future__ import annotations

from time import perf_counter
from typing import NamedTuple

__all__ = ["Rec", "SpanLog", "LayerTimes", "self_times"]


class Rec(NamedTuple):
    name: str
    start: float
    duration: float
    batch: int | None
    bench: bool


class SpanLog:
    """Benchmark spans plus the program's main-process span records.

    ``on_record`` is the flight-recorder listener; records only land
    while :attr:`active` is set, so set-up spans stay out of the serve
    window. Records from worker processes (``shard`` set) run on other
    cores and are not part of the tick, so they are dropped.
    """

    def __init__(self) -> None:
        self.records: list[Rec] = []
        self.active = False

    def on_record(self, rec) -> None:
        if self.active and rec.shard is None:
            self.records.append(
                Rec(rec.name, rec.start, rec.duration, rec.batch, False)
            )

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a benchmark span *name*."""
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.records.append(Rec(name, t0, perf_counter() - t0, None, True))


class LayerTimes(NamedTuple):
    """Per-name aggregates over one list of records."""

    self_s: dict[str, float]
    total_s: dict[str, float]
    batch: dict[str, int]
    root_s: float
    bench_self_s: float


def self_times(records: list[Rec]) -> LayerTimes:
    """Self time per span name, plus the root and benchmark-glue totals.

    ``bench_self_s`` is the part of the benchmark spans no program span
    covers; with the program's self times it sums to ``root_s``.
    """
    own = [r.duration for r in records]
    unclaimed: list[int] = []
    for i, rec in enumerate(records):
        while unclaimed:
            child = records[unclaimed[-1]]
            if child.start + child.duration <= rec.start:
                break
            unclaimed.pop()
            own[i] -= child.duration
        unclaimed.append(i)
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    batch: dict[str, int] = {}
    bench_self = 0.0
    for rec, s in zip(records, own):
        self_s[rec.name] = self_s.get(rec.name, 0.0) + s
        total_s[rec.name] = total_s.get(rec.name, 0.0) + rec.duration
        if rec.batch is not None:
            batch[rec.name] = batch.get(rec.name, 0) + rec.batch
        if rec.bench:
            bench_self += s
    root_s = sum(records[i].duration for i in unclaimed)
    return LayerTimes(self_s, total_s, batch, root_s, bench_self)
