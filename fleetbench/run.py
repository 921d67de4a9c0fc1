"""Fleet benchmark: closed-loop serving ticks against ``PredictionFleet``.

Run from the repository root::

    python3 fleetbench/run.py --workload steady --seed 1 --seconds 20 --trace 0

One client in one process drives the fleet in a closed loop: each tick
waits for ``forecast_all()``, then ``ingest(values)``, then
``run_pending_retrains()``, and only then sends the next tick. The
fleet runs with ``auto_retrain=False`` so the trainer is timed as its
own call; ``ingest`` would end with that same call otherwise. Only
public API is used.

``--trace 0`` reports the end-to-end metrics, measured with telemetry
off; their timings are host-normalised (see ``fleetbench/hostspeed.py``).
``--trace 1`` reports the per-layer split: an untraced pass, then a
traced pass over the same ticks, whose span self times plus the
unattributed residual add up to the traced serve time. See
``fleetbench/README.md`` for the workloads and the metric map.

The last line of standard output is the result record
``{"correct", "attempted", "failed", "metrics"}``; the line before it
stamps the same metrics with their provenance. The exit code is 1 when
any call raised or any correctness check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import replace
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.obs import Telemetry  # noqa: E402
from repro.parallel import ParallelConfig, shutdown_persistent_pool  # noqa: E402
from repro.serving import PredictionFleet  # noqa: E402

from hostspeed import Laps, calibrate, speed, tick_speeds  # noqa: E402
from layers import SpanLog, self_times  # noqa: E402
from workloads import WORKLOADS, Workload, make_feed  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Warm-up ticks per timed lap of a set-up (see ``hostspeed.Laps``).
SETUP_LAP = 20
#: Ticks served after set-up before the timed ones: the first ticks of a
#: fresh fleet run up to three times slower while its caches fill.
WARM_TICKS = 20

#: End-to-end metrics (``--trace 0``) and their units.
E2E_UNITS = {
    "setup_s": "s",
    "stream_ticks_per_s": "1/s",
    "tick_p50_ms": "ms",
    "tick_p95_ms": "ms",
    "read_p50_ms": "ms",
    "read_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "forecast_nmse": "1",
}

#: Program span name -> per-layer metric carrying its self time.
SPAN_METRICS = {
    "tick.knn_query": "engine.knn_query_s",
    "tick.memory_learn": "engine.memory_learn_s",
    "tick.audit": "engine.audit_s",
    "tick.label_pool": "engine.label_pool_s",
    "tick.window_stack": "engine.window_stack_s",
    "tick.pool_dispatch": "engine.pool_dispatch_s",
    "tick.pca_project": "engine.pca_project_s",
    "tick.zscore": "engine.zscore_s",
    "train.label_cache": "train.label_cache_s",
    "train.relabel": "train.relabel_s",
    "train.relabel_project": "train.relabel_project_s",
    "train.labelling": "train.labelling_s",
    "train.rebuild": "train.rebuild_s",
    "train.pca_eigh": "train.pca_eigh_s",
    "train.zscore_fit": "train.zscore_fit_s",
    "train.ar_fit": "train.ar_fit_s",
    "train.integrate": "train.integrate_s",
    "train.async_wait": "train.async_wait_s",
}

#: Per-layer metrics (``--trace 1``) and their units.
LAYER_UNITS = {
    "fleet.ingest_ms_p50": "ms",
    "fleet.ingest_ms_p99": "ms",
    "fleet.ingest_s_total": "s",
    "fleet.forecast_all_s_total": "s",
    "fleet.tick_ms_p99": "ms",
    "fleet.forecast_all_ms_p99": "ms",
    "fleet.fallback_ratio": "1",
    **{metric: "s" for metric in SPAN_METRICS.values()},
    "spans.other_s": "s",
    "tick.unattributed_s": "s",
    "trace.serve_s": "s",
    "trace.overhead": "1",
    "trainer.retrain_s_total": "s",
    "trainer.retrain_ms_p99": "ms",
    "trainer.streams_retrained": "count",
    "trainer.streams_per_s": "1/s",
    "trainer.busy_ticks": "count",
    "label_cache.hit_ratio": "1",
    "async.drain_s": "s",
    "async.inflight_max": "count",
    "async.lag_ticks_p50": "ticks",
    "async.lag_ticks_p99": "ticks",
    "persist.save_s": "s",
    "persist.load_s": "s",
    "persist.bytes": "bytes",
    "persist.files": "count",
    "qa.audits": "count",
    "qa.breaches": "count",
    "qa.breach_ratio": "1",
}

#: Failure messages printed before the rest are only counted.
_MAX_REPORTED = 10


class Ledger:
    """Operations attempted and failed: raised calls plus failed checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str, *, exc: bool = False) -> None:
        self.failed += 1
        if self.failed <= _MAX_REPORTED:
            print(f"FAILED: {what}", file=sys.stderr)
            if exc:
                traceback.print_exc()

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def call(self, what: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)``, counted; ``None`` if it raised."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.fail(f"{what} raised", exc=True)
            return None


class Served(NamedTuple):
    """What one pass of timed ticks produced.

    Durations are raw wall-clock seconds; ``speeds`` and ``drain_speed``
    turn them into reference-host seconds (see ``hostspeed``).
    """

    tick_s: np.ndarray
    read_s: np.ndarray
    drain_s: float
    speeds: np.ndarray  # per served tick: host speed factor
    drain_speed: float
    values: np.ndarray  # (streams, ticks) forecast values; NaN = not served
    picked: list  # per tick: the oracle sample's Forecasts, None if raised
    retrains: int  # retrains that landed during the pass

    @property
    def ref_tick_s(self) -> np.ndarray:
        return self.tick_s * self.speeds

    @property
    def ref_read_s(self) -> np.ndarray:
        return self.read_s * self.speeds

    @property
    def ref_serve_s(self) -> float:
        return float(self.ref_tick_s.sum()) + self.drain_s * self.drain_speed


def _tick_values(workload: Workload, feed: np.ndarray, t: int) -> dict:
    return dict(zip(workload.stream_names, feed[:, t].tolist()))


def set_up(
    workload: Workload, feed: np.ndarray, telemetry=None, lap=None
) -> PredictionFleet:
    """Build a fleet, ingest the warm-up and train until every stream serves.

    *lap*, if given, is called after every ``SETUP_LAP`` warm-up ticks.
    """
    fleet = PredictionFleet(
        workload.config, streams=workload.stream_names, telemetry=telemetry
    )
    for t in range(workload.warmup):
        fleet.ingest(_tick_values(workload, feed, t))
        if lap is not None and t % SETUP_LAP == SETUP_LAP - 1:
            lap()
    fleet.run_pending_retrains()
    fleet.drain_retrains(wait=True)
    return fleet


def _timed_setups(workload, feed, ledger, repeats, telemetry=None):
    """Set up *repeats* times; returns (raw durations, reference-host
    durations, last fleet)."""
    raw, ref = [], []
    fleet = None
    for _ in range(repeats):
        # Free the previous fleet (it holds reference cycles) before
        # timing the next, so peak memory is one fleet, not garbage.
        fleet = None
        gc.collect()
        laps = Laps()
        fleet = ledger.call("set-up", set_up, workload, feed, telemetry, laps)
        laps()  # the last lap: the initial training
        raw.append(sum(laps.raw_s))
        ref.append(laps.ref_s())
        if fleet is None:
            return raw, ref, None
    ledger.check(
        fleet.metrics().n_trained == workload.streams,
        "every stream serves after set-up",
    )
    return raw, ref, fleet


def _record_tick(workload, forecasts, values, picked, sample, t) -> None:
    names = workload.stream_names
    values[:, t] = [
        fc.value if (fc := forecasts.get(name)) is not None else math.nan
        for name in names
    ]
    picked.append([forecasts.get(names[i]) for i in sample])


def serve_timed(workload, fleet, feed, ticks, ledger) -> Served:
    """The timed closed loop, telemetry off.

    After each tick, outside the timed window, a calibration reads the
    host's speed for that tick.
    """
    sample = workload.oracle_sample()
    tick_s: list[float] = []
    read_s: list[float] = []
    cals: list[float] = []
    values = np.full((workload.streams, ticks), math.nan)
    picked: list = []
    retrains_before = fleet.metrics().total_retrains
    for t in range(ticks):
        tick = _tick_values(workload, feed, workload.warmup + t)
        ledger.attempted += 3
        try:
            a = perf_counter()
            forecasts = fleet.forecast_all()
            b = perf_counter()
            fleet.ingest(tick)
            fleet.run_pending_retrains()
            c = perf_counter()
        except Exception:
            ledger.fail(f"tick {t} raised", exc=True)
            picked.append(None)
            continue
        tick_s.append(c - a)
        read_s.append(b - a)
        cals.append(calibrate())
        _record_tick(workload, forecasts, values, picked, sample, t)
    ledger.attempted += 1
    a = perf_counter()
    try:
        fleet.drain_retrains(wait=True)
    except Exception:
        ledger.fail("drain_retrains raised", exc=True)
    drain_s = perf_counter() - a
    retrains = fleet.metrics().total_retrains - retrains_before
    return Served(
        np.array(tick_s), np.array(read_s), drain_s, tick_speeds(cals), speed(),
        values, picked, retrains,
    )


def replay_reference(workload: Workload, feed: np.ndarray, ticks: int) -> list:
    """The oracle sample's forecasts from the per-stream reference fleet.

    The same values go through a fleet of only the sample streams with
    ``batched=False`` everywhere and a serial trainer: the per-stream
    loop that mirrors the paper. Returns one list of Forecasts per tick.
    """
    sample = workload.oracle_sample()
    names = [workload.stream_names[i] for i in sample]
    config = replace(workload.config, parallel=ParallelConfig(max_workers=1))
    ref = PredictionFleet(config, streams=names)
    rows = feed[sample]
    for t in range(workload.warmup):
        ref.ingest(dict(zip(names, rows[:, t].tolist())), batched=False)
    ref.run_pending_retrains(batched=False)
    out = []
    for t in range(workload.warmup, workload.warmup + ticks):
        forecasts = ref.forecast_all(batched=False)
        out.append([forecasts.get(name) for name in names])
        ref.ingest(dict(zip(names, rows[:, t].tolist())), batched=False)
        ref.run_pending_retrains(batched=False)
    return out


def check_oracle(workload, feed, ticks, served: Served, ledger) -> None:
    """Every sampled forecast must equal the reference bit for bit."""
    reference = replay_reference(workload, feed, ticks)
    for t, (got, want) in enumerate(zip(served.picked, reference)):
        if got is None:
            continue  # the tick raised, already counted
        for fc, ref in zip(got, want):
            ledger.check(
                fc is not None and ref is not None and fc == ref,
                f"tick {t}: served {fc} != reference {ref}",
            )


def check_served(workload, fleet, served: Served, ledger) -> None:
    """Every stream served a finite forecast at every timed tick; in
    async mode, everything landed and at least one storm's worth of
    retrains did."""
    ledger.check(
        bool(np.isfinite(served.values).all()),
        "every stream served a finite forecast at every tick",
    )
    if workload.config.retrain_mode != "async":
        return
    ledger.check(
        fleet.metrics().n_trained == workload.streams
        and not fleet.metrics().inflight_retrains,
        "every stream trained and nothing in flight after the final drain",
    )
    forecasts = ledger.call("forecast_all", fleet.forecast_all) or {}
    ledger.check(
        len(forecasts) == workload.streams
        and all(math.isfinite(fc.value) for fc in forecasts.values()),
        "every forecast finite after the final drain",
    )
    ledger.check(
        served.retrains >= workload.streams // 2,
        f"{served.retrains} retrains landed, fewer than one storm's worth",
    )


def _dir_size(path: Path) -> tuple[int, int]:
    files = [p for p in path.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def _untraced(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class Checkpoint(NamedTuple):
    """What one save -> load cycle measured (raw seconds)."""

    save_s: float
    load_s: float
    files: int
    size: int


def checkpoint_cycle(fleet, scratch: Path, ledger, call=_untraced):
    """Save, then load; the loaded fleet must forecast exactly like the
    saved one. *call* wraps each call (``SpanLog.call`` to trace it).
    ``None`` if a call raised."""
    target = scratch / "checkpoint"
    ledger.attempted += 2
    try:
        a = perf_counter()
        call("fleet.save", fleet.save, target)
        b = perf_counter()
        loaded = call("fleet.load", PredictionFleet.load, target)
        c = perf_counter()
    except Exception:
        ledger.fail("checkpoint cycle raised", exc=True)
        return None
    ledger.check(
        loaded.forecast_all() == fleet.forecast_all(),
        "checkpoint cycle: loaded fleet forecasts differ",
    )
    files, size = _dir_size(target)
    shutil.rmtree(target)
    return Checkpoint(b - a, c - b, files, size)


def _median(xs) -> float:
    return statistics.median(xs) if xs else math.nan


def _pct(xs, q) -> float:
    return float(np.percentile(xs, q)) if len(xs) else math.nan


def forecast_nmse(workload, feed, served: Served) -> float:
    """Mean over streams of MSE(served, next observed) / variance, over
    the timed ticks."""
    start = workload.warmup + WARM_TICKS
    values = served.values[:, WARM_TICKS:]
    observed = feed[:, start : start + values.shape[1]]
    mse = np.mean((values - observed) ** 2, axis=1)
    return float(np.mean(mse / observed.var(axis=1)))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timings(streams, setup_s, tick_s, read_s, drain_s) -> dict:
    """The timed metrics; the warm-up ticks are dropped here."""
    tick_s, read_s = tick_s[WARM_TICKS:], read_s[WARM_TICKS:]
    return {
        "setup_s": _median(setup_s),
        "stream_ticks_per_s": streams * len(tick_s) / (sum(tick_s) + drain_s),
        "tick_p50_ms": 1e3 * _pct(tick_s, 50),
        "tick_p95_ms": 1e3 * _pct(tick_s, 95),
        "tick_p99_ms": 1e3 * _pct(tick_s, 99),
        "read_p50_ms": 1e3 * _pct(read_s, 50),
        "read_p95_ms": 1e3 * _pct(read_s, 95),
        "read_p99_ms": 1e3 * _pct(read_s, 99),
    }


def run_e2e(workload, feed, ticks, ledger, scratch) -> tuple[dict, dict]:
    """The end-to-end metrics, timings in reference-host time, and the
    same timings raw."""
    raw_setup, ref_setup, fleet = _timed_setups(
        workload, feed, ledger, SETUP_REPEATS
    )
    if fleet is None:
        return {}, {}
    served = serve_timed(workload, fleet, feed, ticks, ledger)
    check_served(workload, fleet, served, ledger)
    checkpoint_cycle(fleet, scratch, ledger)
    if workload.oracle_streams:
        check_oracle(workload, feed, ticks, served, ledger)
    metrics = {
        **_timings(
            workload.streams, ref_setup, served.ref_tick_s, served.ref_read_s,
            served.drain_s * served.drain_speed,
        ),
        "peak_rss_mb": peak_rss_mb(),
        "forecast_nmse": forecast_nmse(workload, feed, served),
    }
    raw = _timings(
        workload.streams, raw_setup, served.tick_s, served.read_s,
        served.drain_s,
    )
    raw["host_speed_p50"] = float(np.median(served.speeds))
    return metrics, raw


def _qa_totals(fleet) -> tuple[int, int]:
    rows = fleet.metrics().streams
    return sum(m.audits for m in rows), sum(m.breaches for m in rows)


def _cache_counts(tel) -> tuple[float, float]:
    reg = tel.registry
    return (
        reg.counter("repro_fleet_label_cache_hits_total").value,
        reg.counter("repro_fleet_label_cache_misses_total").value,
    )


class _Trainer(NamedTuple):
    lags: list[int]
    inflight_max: int
    busy_ticks: int
    retrained: int


def serve_traced(workload, fleet, feed, ticks, ledger, log: SpanLog):
    """The same closed loop with every public call in a benchmark span.

    Between calls, outside the spans, it notes when each stream shows
    up in ``pending_retrains`` and when ``run_pending_retrains`` returns
    it (the retrain lag), and the in-flight retrain count, and
    calibrates the host's speed. A tick's time is the total of its
    benchmark spans; there is no read time.
    """
    values = np.full((workload.streams, ticks), math.nan)
    picked: list = []
    tick_s: list[float] = []
    cals: list[float] = []
    appeared: dict[str, int] = {}
    lags: list[int] = []
    inflight_max = busy = retrained = 0
    retrains_before = fleet.metrics().total_retrains
    watch_inflight = workload.config.retrain_mode == "async"

    def landed(names, t):
        for name in names:
            lags.append(t - appeared.pop(name, t))

    for t in range(ticks):
        tick = _tick_values(workload, feed, workload.warmup + t)
        ledger.attempted += 3
        first = len(log.records)
        try:
            forecasts = log.call("fleet.forecast_all", fleet.forecast_all)
            log.call("fleet.ingest", fleet.ingest, tick)
            for name in fleet.pending_retrains:
                appeared.setdefault(name, t)
            done = log.call("fleet.run_pending_retrains", fleet.run_pending_retrains)
        except Exception:
            ledger.fail(f"tick {t} raised", exc=True)
            picked.append(None)
            continue
        tick_s.append(sum(r.duration for r in log.records[first:] if r.bench))
        cals.append(calibrate())
        landed(done, t)
        retrained += len(done)
        busy += bool(done)
        if watch_inflight:
            inflight_max = max(inflight_max, fleet.metrics().inflight_retrains)
        _record_tick(workload, forecasts, values, picked, (), t)
    first = len(log.records)
    done = ledger.call(
        "drain_retrains", log.call, "fleet.drain_retrains",
        fleet.drain_retrains, wait=True,
    ) or ()
    drain_s = sum(r.duration for r in log.records[first:] if r.bench)
    drain_speed = speed()
    landed(done, ticks)
    retrained += len(done)
    served = Served(
        np.array(tick_s), np.array([]), drain_s, tick_speeds(cals), drain_speed,
        values, picked, fleet.metrics().total_retrains - retrains_before,
    )
    return served, _Trainer(lags, inflight_max, busy, retrained)


def run_traced(workload, feed, ticks, ledger, scratch) -> tuple[dict, dict]:
    """The per-layer metrics, and the traced pass's host speed."""
    _, _, fleet = _timed_setups(workload, feed, ledger, 1)
    if fleet is None:
        return {}, {}
    untraced = serve_timed(workload, fleet, feed, ticks, ledger)
    fleet = None

    log = SpanLog()
    tel = Telemetry(flight=True, flight_capacity=1)
    tel.flight.listeners.append(log.on_record)
    _, _, fleet = _timed_setups(workload, feed, ledger, 1, telemetry=tel)
    if fleet is None:
        return {}, {}
    audits0, breaches0 = _qa_totals(fleet)
    hits0, misses0 = _cache_counts(tel)
    log.active = True
    served, trainer = serve_traced(workload, fleet, feed, ticks, ledger, log)
    log.active = False
    records = list(log.records)
    audits, breaches = (x - x0 for x, x0 in zip(_qa_totals(fleet), (audits0, breaches0)))
    hits, misses = (x - x0 for x, x0 in zip(_cache_counts(tel), (hits0, misses0)))

    check_served(workload, fleet, served, ledger)
    if workload.config.retrain_mode != "async":
        ledger.check(
            np.array_equal(served.values, untraced.values),
            "traced forecasts differ from untraced ones",
        )
    cp = checkpoint_cycle(fleet, scratch, ledger, log.call) or Checkpoint(
        math.nan, math.nan, 0, 0
    )

    lt = self_times(records)
    durations = {}
    for rec in records:
        if rec.bench:
            durations.setdefault(rec.name, []).append(rec.duration)
    ingest = durations.get("fleet.ingest", [])
    retrain_calls = durations.get("fleet.run_pending_retrains", [])
    retrain_total = sum(retrain_calls) + lt.total_s.get("fleet.drain_retrains", 0.0)
    stream_ticks = workload.streams * ticks
    loop_items = lt.batch.get("tick.per_stream_loop", 0) + lt.batch.get(
        "read.per_stream_loop", 0
    )
    program_other = sum(
        (
            s
            for name, s in lt.self_s.items()
            if name not in SPAN_METRICS and not name.startswith("fleet.")
        ),
        0.0,
    )
    metrics = {
        "fleet.ingest_ms_p50": 1e3 * _pct(ingest, 50),
        "fleet.ingest_ms_p99": 1e3 * _pct(ingest, 99),
        "fleet.ingest_s_total": lt.total_s.get("fleet.ingest", 0.0),
        "fleet.forecast_all_s_total": lt.total_s.get("fleet.forecast_all", 0.0),
        # From the untraced pass, host-normalised like the end-to-end p95s.
        "fleet.tick_ms_p99": 1e3 * _pct(untraced.ref_tick_s[WARM_TICKS:], 99),
        "fleet.forecast_all_ms_p99": 1e3
        * _pct(untraced.ref_read_s[WARM_TICKS:], 99),
        "fleet.fallback_ratio": loop_items / (2 * stream_ticks),
        **{
            metric: lt.self_s.get(span, 0.0)
            for span, metric in SPAN_METRICS.items()
        },
        "spans.other_s": program_other,
        "tick.unattributed_s": lt.bench_self_s,
        "trace.serve_s": lt.root_s,
        "trace.overhead": served.ref_serve_s / untraced.ref_serve_s - 1.0,
        "trainer.retrain_s_total": retrain_total,
        "trainer.retrain_ms_p99": 1e3 * _pct(retrain_calls, 99),
        "trainer.streams_retrained": trainer.retrained,
        "trainer.streams_per_s": trainer.retrained / retrain_total,
        "trainer.busy_ticks": trainer.busy_ticks,
        "label_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "async.drain_s": lt.total_s.get("fleet.drain_retrains", 0.0),
        "async.inflight_max": trainer.inflight_max,
        "async.lag_ticks_p50": _pct(trainer.lags, 50) if trainer.lags else 0.0,
        "async.lag_ticks_p99": _pct(trainer.lags, 99) if trainer.lags else 0.0,
        "persist.save_s": cp.save_s,
        "persist.load_s": cp.load_s,
        "persist.bytes": cp.size,
        "persist.files": cp.files,
        "qa.audits": audits,
        "qa.breaches": breaches,
        "qa.breach_ratio": breaches / audits if audits else 0.0,
    }
    return metrics, {"host_speed_p50": float(np.median(served.speeds))}


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
            # Look for a repository at the root only, never above it.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _blas() -> tuple[str, int | None]:
    """BLAS vendor and version, and its live thread count if readable."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return vendor, int(fn())
    return vendor, None


def provenance(workload: Workload, seed: int, seconds: float, ticks: int) -> dict:
    vendor, threads = _blas()
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": threads,
        "workload": workload.name,
        "streams": workload.streams,
        "seed": seed,
        "seconds": seconds,
        "ticks": ticks,
    }


class Result(NamedTuple):
    metrics: dict
    attempted: int
    failed: int
    raw: dict  # raw wall-clock timings and the host speed factor


def run(workload: Workload, seed: int, ticks: int, *, trace: bool, scratch: Path) -> Result:
    """One benchmark run of *ticks* timed ticks after ``WARM_TICKS``
    untimed ones (the traced run counts both); *scratch* is created and
    removed here."""
    ledger = Ledger()
    served = WARM_TICKS + ticks
    feed = make_feed(workload, seed, served)
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            metrics, raw = run_traced(workload, feed, served, ledger, scratch)
        else:
            metrics, raw = run_e2e(workload, feed, served, ledger, scratch)
    finally:
        shutdown_persistent_pool()
        shutil.rmtree(scratch, ignore_errors=True)
    units = LAYER_UNITS if trace else E2E_UNITS
    missing = [name for name in units if name not in metrics]
    if missing:
        ledger.fail(f"metrics not measured: {', '.join(missing)}")
    return Result(
        {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
        max(ledger.attempted, 1),
        ledger.failed,
        raw,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    ticks = workload.ticks_for(args.seconds)
    scratch = ROOT / ".fleetbench" / f"run-{os.getpid()}"
    result = run(workload, args.seed, ticks, trace=bool(args.trace), scratch=scratch)
    with contextlib.suppress(OSError):
        scratch.parent.rmdir()  # only once no other run is using it
    correct = result.failed == 0

    for name, m in result.metrics.items():
        print(f"{args.workload:12s} {name:28s} {m['value']:>16.6g} {m['unit']}")
    print(
        f"{args.workload:12s} {'error_rate':28s} "
        f"{result.failed / result.attempted:>16.6g} 1 "
        f"({result.failed} of {result.attempted} operations failed)"
    )
    stamp = provenance(workload, args.seed, args.seconds, ticks)
    print(
        json.dumps(
            {
                "provenance": stamp,
                "trace": args.trace,
                "metrics": result.metrics,
                "raw": result.raw,
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": result.metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
