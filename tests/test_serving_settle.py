"""Settle-boundary parity: engine-owned tick state written back on demand.

The batched engine owns the tick state of every stream it serves and
brings the per-stream objects (predictor, classifier memory, QA,
selections, counters, pending forecast) up to date only where something
reads them. These tests interleave every kind of boundary with ticks and
check that, once settled, each object is bit-identical to what a
``batched=False`` fleet holds — and that a steady batched tick really
touches no per-stream object.
"""

import contextlib
import dataclasses
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LARConfig
from repro.core.larpredictor import Forecast
from repro.core.online import OnlineLARPredictor
from repro.core.qa import PredictionQualityAssuror
from repro.learn.knn import KNNClassifier
from repro.obs import Telemetry
from repro.parallel import ParallelConfig
from repro.serving import FleetConfig, PredictionFleet
from repro.serving.engine import BatchedTickEngine

from tests.test_serving_async import _inline_pool

_OPS = (
    "tick", "tick", "tick", "tick", "ingest_only", "subset", "forecast_one",
    "metrics", "save_load", "remove_add", "retrain", "discard",
    "partial_fit",
)


def _config(retrain_mode="sync"):
    return FleetConfig(
        lar=LARConfig(window=5),
        min_train=20,
        max_memory=24,
        history_limit=64,
        qa_threshold=0.8,
        audit_window=8,
        audit_interval=4,
        retrain_window=30,
        auto_retrain=False,
        retrain_mode=retrain_mode,
        parallel=ParallelConfig(max_workers=1),
    )


class _Feed:
    """Random walks that drift, one per stream name, seeded per name."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self._level = {}

    def __call__(self, names, t):
        out = {}
        drift = 0.5 if (t // 30) % 2 else 0.02
        for name in names:
            level = self._level.get(name, float(self._rng.normal(5.0, 1.0)))
            level += drift + 0.3 * float(self._rng.standard_normal())
            self._level[name] = level
            out[name] = level
        return out


def _objects(fleet):
    """Every per-stream object the engine writes back, through the accessor."""
    out = {}
    for name in fleet.stream_names:
        state = fleet.stream_state(name)
        qa = state.qa
        row = [
            state.ticks, dict(state.selections), state.retrain_count,
            state.pending, tuple(qa.audits), qa.audits_total,
            qa.breaches_total, tuple(qa._sq_errors), qa._sq_sum, qa._step,
            qa.retraining_due, qa.version,
        ]
        predictor = state.predictor
        if predictor is not None:
            clf = predictor._classifier
            row += [
                tuple(predictor._history),
                tuple(tuple(sq.tolist()) for sq in predictor._recent_sq),
                predictor._windows_learned,
                clf._X.tolist(), clf._y.tolist(), clf.appended_total_,
                clf.discarded_total_, dict(clf._label_counts),
                clf.classes_.tolist(),
            ]
        out[name] = row
    return out


def _apply(op, fleets, feed, t, rng, scratch):
    """Run one boundary on both fleets; return them (save_load swaps)."""
    batched, loop = fleets
    names = list(batched.stream_names)
    if op in ("tick", "ingest_only"):
        vals = feed(names, t)
        if op == "tick":
            assert batched.forecast_all() == loop.forecast_all(batched=False)
        assert batched.ingest(vals) == loop.ingest(vals, batched=False)
    elif op == "subset":
        subset = names[int(rng.integers(0, 2)) :: 2]
        assert batched.forecast_all(subset) == loop.forecast_all(
            subset, batched=False
        )
    elif op == "forecast_one":
        trained = [n for n in names if batched.is_trained(n)]
        if trained:
            name = trained[int(rng.integers(len(trained)))]
            assert batched.forecast(name) == loop.forecast(name)
    elif op == "metrics":
        assert batched.metrics() == loop.metrics()
    elif op == "save_load":
        restored = []
        for i, fleet in enumerate(fleets):
            directory = Path(scratch) / f"t{t}-{i}"
            fleet.save(directory)
            restored.append(PredictionFleet.load(directory))
            restored[-1].config = fleet.config
        return restored[0], restored[1]
    elif op == "remove_add":
        victim = names[int(rng.integers(len(names)))]
        for fleet in fleets:
            fleet.remove_stream(victim)
            fleet.add_stream(f"n{t}")
    elif op == "retrain":
        assert batched.run_pending_retrains() == loop.run_pending_retrains(
            batched=False
        )
    elif op in ("discard", "partial_fit"):
        trained = [n for n in names if batched.is_trained(n)]
        if trained:
            name = trained[int(rng.integers(len(trained)))]
            extra = rng.normal(size=(3, 2))
            for fleet in fleets:
                clf = fleet.stream_state(name).predictor._classifier
                if op == "discard":
                    if clf.n_samples_ > clf.k + 2:
                        clf.discard_oldest(2)
                else:
                    clf.partial_fit(extra, np.array([1, 2, 3]))
    return batched, loop


class TestSettleBoundaries:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        ops=st.lists(st.sampled_from(_OPS), min_size=10, max_size=40),
        retrain_mode=st.sampled_from(["sync", "async"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_settled_objects_match_per_stream_loop(
        self, seed, ops, retrain_mode
    ):
        config = _config(retrain_mode)
        names = ["a", "b", "c", "d"]
        fleets = (
            PredictionFleet(config, streams=names),
            PredictionFleet(config, streams=names),
        )
        feed = _Feed(seed)
        rng = np.random.default_rng(seed)
        pool = _inline_pool() if retrain_mode == "async" else (
            contextlib.nullcontext()
        )
        with pool, tempfile.TemporaryDirectory() as scratch:
            # Warm-up: train every stream, then serve a little.
            for t in range(config.min_train):
                _apply("ingest_only", fleets, feed, t, rng, scratch)
            fleets = _apply("retrain", fleets, feed, 0, rng, scratch)
            for t, op in enumerate(ops, start=config.min_train):
                fleets = _apply(op, fleets, feed, t, rng, scratch)
            for fleet in fleets:
                fleet.drain_retrains(wait=True)
        assert _objects(fleets[0]) == _objects(fleets[1])

    def test_settle_twice_is_idempotent(self):
        config = _config()
        names = ["a", "b", "c"]
        batched = PredictionFleet(config, streams=names)
        feed = _Feed(1)
        for t in range(config.min_train):
            batched.ingest(feed(names, t))
        batched.run_pending_retrains()
        for t in range(config.min_train, 60):
            batched.forecast_all()
            batched.ingest(feed(names, t))
        first = batched.metrics()
        assert batched.metrics() == first
        batched._settle()
        assert batched.metrics() == first


class TestNoPerStreamGlue:
    """A steady batched tick of an eligible fleet runs no per-stream
    method on the streams the engine serves, and ``prepare`` does no
    O(S) work when membership has not changed."""

    @staticmethod
    def _raiser(what):
        def raise_(*args, **kwargs):
            raise AssertionError(f"{what} called on a steady batched tick")

        return raise_

    def test_steady_ticks_touch_no_stream_objects(self, monkeypatch):
        config = FleetConfig(qa_threshold=1e9, max_memory=48)
        names = [f"s{i}" for i in range(12)]
        fleet = PredictionFleet(config, streams=names)
        feed = _Feed(3)
        for t in range(config.min_train):
            fleet.ingest(feed(names, t))
        fleet.run_pending_retrains()
        for t in range(config.min_train, config.min_train + 3):
            fleet.forecast_all()
            fleet.ingest(feed(names, t))
        assert all(fleet._engine.serves(n) for n in names)
        for cls, attr in (
            (KNNClassifier, "_resolve_backend"),
            (KNNClassifier, "_append_rows"),
            (KNNClassifier, "sync_rows"),
            (KNNClassifier, "kneighbors"),
            (OnlineLARPredictor, "observe"),
            (OnlineLARPredictor, "forecast"),
            (OnlineLARPredictor, "_tail"),
            (PredictionQualityAssuror, "record"),
            (BatchedTickEngine, "_settle_rows"),
            (BatchedTickEngine, "_try_attach"),
            (BatchedTickEngine, "fallback_reason"),
            (BatchedTickEngine, "_compact"),
        ):
            monkeypatch.setattr(cls, attr, self._raiser(attr))
        monkeypatch.setattr(
            OnlineLARPredictor, "history_length",
            property(self._raiser("history_length")),
        )
        start = config.min_train + 3
        for t in range(start, start + 20):
            fleet.forecast_all()
            fleet.ingest(feed(names, t))
            fleet.run_pending_retrains()

    def test_accessor_hands_the_row_back_for_reload(self):
        config = FleetConfig(qa_threshold=1e9, max_memory=48)
        names = ["a", "b"]
        fleet = PredictionFleet(config, streams=names)
        feed = _Feed(4)
        for t in range(config.min_train + 2):
            fleet.ingest(feed(names, t))
        assert fleet._engine.serves("a")
        fleet.stream_state("a")
        assert not fleet._engine.serves("a")
        fleet.forecast_all()
        assert fleet._engine.serves("a")


class TestFallbackGauge:
    @staticmethod
    def _gauge(fleet):
        snap = fleet.telemetry.registry.snapshot()
        return {
            dict(s["labels"])["reason"]: s["value"]
            for s in snap["repro_fleet_fallback_streams"]["series"]
        }

    def test_qa_subclass_and_warmup_streams(self):
        class CustomQA(PredictionQualityAssuror):
            pass

        config = FleetConfig(qa_threshold=50.0)
        fleet = PredictionFleet(
            config, streams=["a", "b", "c"], telemetry=Telemetry()
        )
        state = fleet.stream_state("b")
        state.qa = CustomQA(
            config.qa_threshold,
            audit_window=config.audit_window,
            audit_interval=config.audit_interval,
        )
        assert self._gauge(fleet)["warmup"] == 3
        feed = _Feed(5)
        for t in range(config.min_train + 5):
            fleet.forecast_all()
            fleet.ingest(feed(["a", "b", "c"], t))
        gauge = self._gauge(fleet)
        assert gauge["qa_policy"] == 1
        assert gauge["warmup"] == 0
        assert sum(gauge.values()) == 1

    def test_kd_tree_demoted_stream(self):
        """An ``auto`` memory that grows to the KD-tree size leaves the
        engine at the next prepare — and stays bit-identical."""
        config = FleetConfig(
            lar=LARConfig(window=5), min_train=2046, max_memory=None,
            history_limit=None, retrain_window=None, qa_threshold=1e9,
        )
        names = ["a", "b"]
        fast = PredictionFleet(config, streams=names, telemetry=Telemetry())
        loop = PredictionFleet(config, streams=names)
        feed = _Feed(6)
        for t in range(config.min_train):
            vals = feed(names, t)
            fast.ingest(vals, batched=False)
            loop.ingest(vals, batched=False)
        assert fast.metrics().n_trained == 2
        assert fast.stream_state("a").predictor.memory_size < 2048
        for t in range(config.min_train, config.min_train + 12):
            vals = feed(names, t)
            assert fast.forecast_all() == loop.forecast_all(batched=False)
            assert fast.ingest(vals) == loop.ingest(vals, batched=False)
        assert not fast._engine.serves("a")
        assert self._gauge(fast)["kd_tree"] == 2
        assert _objects(fast) == _objects(loop)


class TestForecastRecord:
    """:class:`Forecast` is a NamedTuple; pin the dataclass-era API."""

    def test_fields_immutability_equality_hash_pickle_repr(self):
        fc = Forecast(
            value=1.5, normalized_value=0.25, predictor_label=2,
            predictor_name="AR",
        )
        assert Forecast._fields == (
            "value", "normalized_value", "predictor_label", "predictor_name"
        )
        assert (fc.value, fc.normalized_value) == (1.5, 0.25)
        assert (fc.predictor_label, fc.predictor_name) == (2, "AR")
        with pytest.raises(AttributeError):
            fc.value = 2.0
        same = Forecast(1.5, 0.25, 2, "AR")
        assert fc == same and hash(fc) == hash(same)
        assert fc != Forecast(1.5, 0.25, 1, "LAST")
        assert pickle.loads(pickle.dumps(fc)) == fc
        assert repr(fc) == (
            "Forecast(value=1.5, normalized_value=0.25, predictor_label=2, "
            "predictor_name='AR')"
        )
        as_dict = {
            "value": 1.5, "normalized_value": 0.25, "predictor_label": 2,
            "predictor_name": "AR",
        }
        assert fc._asdict() == as_dict
        # The dataclass helpers keep working on the NamedTuple.
        assert dataclasses.asdict(fc) == as_dict
        assert [f.name for f in dataclasses.fields(fc)] == list(as_dict)
        moved = dataclasses.replace(fc, value=2.0)
        assert type(moved) is Forecast
        assert moved == Forecast(2.0, 0.25, 2, "AR")
