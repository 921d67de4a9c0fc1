"""Tests of the fleet benchmark itself, at tiny sizes.

Run from the repository root::

    python3 -m pytest fleetbench -q
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from hostspeed import REF_CAL_S, tick_speeds  # noqa: E402
from layers import Rec, self_times  # noqa: E402
from workloads import WORKLOADS, make_feed  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TICKS = 60


def tiny(name: str):
    """The named workload shrunk to 12 streams and short windows."""
    w = WORKLOADS[name]
    storm = w.storm_every is not None
    config = replace(
        w.config,
        min_train=80,
        max_memory=32,
        history_limit=160 if storm else w.config.history_limit,
        retrain_window=120 if storm else w.config.retrain_window,
    )
    return replace(
        w,
        streams=12,
        config=config,
        storm_every=10 if storm else None,
        oracle_streams=min(w.oracle_streams, 4),
    )


def _run(workload, tmp_path, *, trace: bool, seed: int = 3):
    return run.run(workload, seed, TICKS, trace=trace, scratch=tmp_path / "scratch")


def test_benchmark_workloads_are_defined():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_benchmark_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result = _run(tiny(name), tmp_path, trace=trace)
    assert result.failed == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result.metrics.items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(math.isfinite(v["value"]) for v in result.metrics.values())
    assert not (tmp_path / "scratch").exists()


def test_traced_split_adds_up_to_the_serve_time(tmp_path):
    metrics = _run(tiny("steady"), tmp_path, trace=True).metrics
    parts = [*run.SPAN_METRICS.values(), "spans.other_s", "tick.unattributed_s"]
    total = sum(metrics[m]["value"] for m in parts)
    assert total == pytest.approx(metrics["trace.serve_s"]["value"], rel=1e-9)
    assert metrics["engine.knn_query_s"]["value"] > 0


def test_oracle_fails_on_a_perturbed_reference_forecast(tmp_path, monkeypatch):
    replay = run.replay_reference

    def perturbed(*args):
        out = replay(*args)
        fc = out[5][1]
        out[5][1] = replace(fc, value=float(np.nextafter(fc.value, math.inf)))
        return out

    monkeypatch.setattr(run, "replay_reference", perturbed)
    result = _run(tiny("steady"), tmp_path, trace=False)
    assert result.failed == 1


def test_unperturbed_oracle_checks_every_sampled_tick(tmp_path):
    w = tiny("steady")
    result = _run(w, tmp_path, trace=False)
    assert result.failed == 0
    assert result.attempted > TICKS * len(w.oracle_sample())


def test_seed_changes_the_feed_but_not_the_fleet_config():
    w = tiny("storm")
    a, b = make_feed(w, 1, TICKS), make_feed(w, 2, TICKS)
    assert a.shape == b.shape
    assert not np.array_equal(a, b)
    assert np.array_equal(a, make_feed(w, 1, TICKS))
    fleets = [run.set_up(w, feed) for feed in (a, b)]
    assert fleets[0].config == fleets[1].config == w.config


def test_self_times_nest_and_sum_to_the_roots():
    records = [
        Rec("tick.a", 0.10, 0.20, 5, False),
        Rec("train.inner", 0.40, 0.10, None, False),
        Rec("train.outer", 0.35, 0.30, None, False),
        Rec("fleet.ingest", 0.0, 1.0, None, True),
        Rec("fleet.forecast_all", 1.0, 0.5, None, True),
    ]
    lt = self_times(records)
    assert lt.self_s["train.outer"] == pytest.approx(0.20)
    assert lt.self_s["fleet.ingest"] == pytest.approx(0.50)
    assert lt.self_s["fleet.forecast_all"] == pytest.approx(0.50)
    assert lt.root_s == pytest.approx(1.5)
    assert lt.bench_self_s + sum(
        s for name, s in lt.self_s.items() if not name.startswith("fleet.")
    ) == pytest.approx(lt.root_s)
    assert lt.batch == {"tick.a": 5}


def test_tick_speeds_follow_the_window_median():
    cals = np.full(12, 2 * REF_CAL_S)
    cals[5] = 100 * REF_CAL_S  # one calibration hit by a pause
    cals[9:] = REF_CAL_S  # the host doubles its speed
    speeds = tick_speeds(cals, half=2)
    assert speeds.shape == cals.shape
    assert speeds[5] == pytest.approx(0.5)
    assert speeds[0] == pytest.approx(0.5)
    assert speeds[-1] == pytest.approx(1.0)
