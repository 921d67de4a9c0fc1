"""Lean relabel bursts: survivor-built memories, the float64 history
store, and retrained streams swapped in under their engine row.

A retrain keeps only the last ``max_memory`` memory rows, so the
trainers build features, label counts and classifiers for those rows
alone; a stream's history lives in one float64 buffer; and a retrained
stream the batched engine serves keeps its row, reloaded in place.
None of that may change a bit: these tests pin each piece against the
slower construction it replaces and drive whole relabel storms against
the ``batched=False`` per-stream loop.
"""

import contextlib
import json
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LARConfig
from repro.core.history import HistoryBuffer
from repro.core.online import FittedParts, OnlineLARPredictor
from repro.learn.knn import KNNClassifier
from repro.parallel import ParallelConfig
from repro.serving import BatchedTrainEngine, FleetConfig, PredictionFleet
from repro.serving.engine import BatchedTickEngine

from tests.test_serving_async import _inline_pool
from tests.test_serving_settle import _objects


def _assert_same_memory(a: KNNClassifier, b: KNNClassifier) -> None:
    np.testing.assert_array_equal(a._X, b._X)
    np.testing.assert_array_equal(a._y, b._y)
    assert a.appended_total_ == b.appended_total_
    assert a.discarded_total_ == b.discarded_total_
    assert list(a._label_counts.items()) == list(b._label_counts.items())
    np.testing.assert_array_equal(a.classes_, b.classes_)


class TestSurvivorMemory:
    """``from_rows(survivors, discarded=n)`` is ``from_rows(all)`` then
    ``discard_oldest(n)``, whatever the cap is relative to the rows."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n_rows=st.integers(min_value=3, max_value=80),
        cap_offset=st.integers(min_value=-40, max_value=10),
        d=st.integers(min_value=1, max_value=4),
        alphabet=st.integers(min_value=1, max_value=5),
        precounted=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_build_then_evict(
        self, seed, n_rows, cap_offset, d, alphabet, precounted
    ):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n_rows, d))
        y = rng.integers(1, alphabet + 1, size=n_rows)
        # max_memory below, equal to, and above the row count.
        max_memory = max(3, n_rows + cap_offset)
        excess = max(n_rows - max_memory, 0)
        reference = KNNClassifier.from_rows(X, y, k=3)
        if excess:
            reference.discard_oldest(excess)
        counts = None
        if precounted:
            values, c = np.unique(y[excess:], return_counts=True)
            counts = {int(v): int(n) for v, n in zip(values, c)}
        survivor = KNNClassifier.from_rows(
            X[excess:], y[excess:], k=3, discarded=excess, label_counts=counts
        )
        _assert_same_memory(survivor, reference)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        max_memory=st.sampled_from([3, 7, 40, 200, None]),
    )
    @settings(max_examples=30, deadline=None)
    def test_parts_trim_equals_survivor_parts(self, seed, max_memory):
        """``from_fitted_parts`` trims rows past the cap itself, so a
        caller handing every frame's row gets the survivor build."""
        series = 10.0 + np.cumsum(
            np.random.default_rng(seed).standard_normal(120)
        )
        base = OnlineLARPredictor(LARConfig(window=5)).train(series)
        runner = base._runner
        rng = np.random.default_rng(seed + 1)
        n = 115
        features = rng.standard_normal((n, 2))
        labels = rng.integers(1, 4, size=n)

        def parts(lo):
            return FittedParts(
                history=series,
                norm_mean=runner.pipeline.normalizer.mean,
                norm_std=runner.pipeline.normalizer.std,
                ar_mean=runner.pool[1].mean_,
                ar_coefficients=runner.pool[1].coefficients_,
                ar_noise_variance=runner.pool[1].noise_variance_,
                features=features[lo:],
                labels=labels[lo:],
                discarded=lo,
                pca_mean=runner.pipeline.pca.mean_,
                pca_components=runner.pipeline.pca.components_,
                pca_explained_variance=runner.pipeline.pca.explained_variance_,
                pca_explained_variance_ratio=(
                    runner.pipeline.pca.explained_variance_ratio_
                ),
            )

        def build(lo):
            return OnlineLARPredictor.from_fitted_parts(
                LARConfig(window=5), parts(lo), max_memory=max_memory
            )

        keep = n if max_memory is None else min(max_memory, n)
        _assert_same_memory(build(n - keep)._classifier, build(0)._classifier)


    def test_burst_kernels_build_only_the_survivors(self):
        """Cold and relabel kernels hand back features, labels and
        counts for the last ``max_memory`` frames only; the relabel
        still returns every frame's errors and labels for the cache."""
        config = FleetConfig(lar=LARConfig(window=5), max_memory=16)
        engine = BatchedTrainEngine(config)
        rng = np.random.default_rng(2)
        histories = 10.0 + np.cumsum(rng.standard_normal((3, 90)), axis=1)
        fit = engine._compute_train_group(histories)
        assert fit.features.shape == (3, 16, 2)
        assert fit.labels.shape == (3, 16)
        np.testing.assert_array_equal(fit.counts.sum(axis=1), [16, 16, 16])
        predictors = engine.train_many(list(histories))
        tasks = [(p, h, 0, None) for p, h in zip(predictors, histories)]
        _, groups = engine._prepare_relabel_groups(tasks)
        sq, labels, counts, rows = engine._run_relabel_group(
            engine._pack_relabel_group(groups[0])
        )
        assert sq.shape == (3, 85, 3) and labels.shape == (3, 85)
        assert rows.shape == (3, 16, 2)
        np.testing.assert_array_equal(counts.sum(axis=1), [16, 16, 16])


class TestHistoryBuffer:
    """The float64 store behaves like ``deque(maxlen=...)``."""

    _op = st.one_of(
        st.tuples(st.just("append"), st.floats(-1e6, 1e6)),
        st.tuples(
            st.just("extend"),
            st.lists(st.floats(-1e6, 1e6), min_size=0, max_size=30),
        ),
        st.tuples(st.just("tail"), st.integers(min_value=0, max_value=40)),
        st.tuples(st.just("clear"), st.none()),
    )

    @given(
        maxlen=st.one_of(st.none(), st.integers(min_value=1, max_value=12)),
        initial=st.lists(st.floats(-1e6, 1e6), max_size=30),
        ops=st.lists(_op, max_size=60),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_bounded_deque(self, maxlen, initial, ops):
        buf = HistoryBuffer(initial, maxlen=maxlen)
        ref = deque(initial, maxlen=maxlen)
        for op, arg in ops:
            if op == "append":
                buf.append(arg)
                ref.append(arg)
            elif op == "extend":
                buf.extend(np.array(arg, dtype=np.float64))
                ref.extend(arg)
            elif op == "clear":
                buf.clear()
                ref.clear()
            else:
                n = min(arg, len(ref))
                assert buf.tail(arg).tolist() == list(ref)[len(ref) - n :]
            assert len(buf) == len(ref)
            assert list(buf) == list(ref)
            assert buf.values().tolist() == list(ref)

    def test_bounded_capacity_stays_fixed(self):
        """A bounded store never grows past its 2 x maxlen buffer, so
        the per-value cost stays O(1) however long the stream runs."""
        buf = HistoryBuffer(np.arange(5.0), maxlen=64)
        for v in range(5_000):
            buf.append(float(v))
        buf.extend(np.arange(100.0))
        assert buf._buf.shape[0] == 128
        assert buf.values().tolist() == [float(v) for v in range(36, 100)]

    def test_online_history_round_trips_through_npz(self, tmp_path):
        from repro.core.persistence import (
            load_online_larpredictor,
            save_online_larpredictor,
        )

        series = 10.0 + np.cumsum(np.random.default_rng(4).standard_normal(90))
        online = OnlineLARPredictor(
            LARConfig(window=5), history_limit=40
        ).train(series[:60])
        for v in series[60:]:
            online.observe(v)
        save_online_larpredictor(online, tmp_path / "o.npz")
        back = load_online_larpredictor(tmp_path / "o.npz")
        np.testing.assert_array_equal(
            back.recent_history(), online.recent_history()
        )
        assert back._history.maxlen == 40
        assert back.forecast() == online.forecast()


def _storm_config(retrain_mode="sync", **overrides):
    """Relabel-heavy geometry: max_memory well below the retrain window
    (so every retrain trims its memory), a short audit so regime flips
    breach within a few ticks."""
    base = dict(
        lar=LARConfig(window=5),
        min_train=48,
        max_memory=16,
        history_limit=96,
        retrain_window=48,
        qa_threshold=0.6,
        audit_window=8,
        audit_interval=4,
        auto_retrain=False,
        retrain_mode=retrain_mode,
        parallel=ParallelConfig(max_workers=1),
    )
    base.update(overrides)
    return FleetConfig(**base)


def _storm_feed(names, ticks, seed, every=25):
    """Half the streams flip regime (level and scale) every *every*
    ticks after warm-up; the rest stay stationary."""
    rng = np.random.default_rng(seed)
    out = np.empty((len(names), ticks))
    for i in range(len(names)):
        x = np.empty(ticks)
        level = 10.0 + i
        for t in range(ticks):
            x[t] = level + 0.8 * (x[t - 1] - level if t else 0.0)
            x[t] += rng.standard_normal()
        if i % 2 == 0:
            for start in range(48 + every, ticks, 2 * every):
                x[start : start + every] = (
                    x[start : start + every] * 3.0 + 12.0
                )
        out[i] = x
    return {name: out[i] for i, name in enumerate(names)}


def _tick(fleet, feed, t, batched):
    forecasts = fleet.forecast_all(batched=batched)
    fleet.ingest(
        {n: float(feed[n][t]) for n in fleet.stream_names}, batched=batched
    )
    # Async drains integrate in burst order, which groups differently
    # per path: the set of integrated streams is the contract.
    done = sorted(fleet.run_pending_retrains(batched=batched))
    return {n: (fc.value, fc.predictor_label) for n, fc in forecasts.items()}, done


class TestSwapUnderRow:
    @pytest.mark.parametrize("retrain_mode", ["sync", "async"])
    def test_swapped_row_equals_fresh_attach(self, retrain_mode):
        names = [f"s{i}" for i in range(6)]
        feed = _storm_feed(names, 200, seed=3)
        # Half the streams join two audit intervals later, so rows
        # swapped in one round carry different QA steps, tails and
        # memory offsets.
        fleet = PredictionFleet(_storm_config(retrain_mode), streams=names[:3])
        pool = _inline_pool() if retrain_mode == "async" else (
            contextlib.nullcontext()
        )
        swaps = 0
        with pool:
            for t in range(200):
                if t == 8:
                    for name in names[3:]:
                        fleet.add_stream(name)
                engine = fleet._engine
                if engine is not None:
                    engine.prepare()  # attach last round's initial trains
                before = None if engine is None else (
                    engine.layout,
                    {n: engine.row_of(n) for n in fleet.stream_names},
                )
                _, done = _tick(fleet, feed, t, True)
                if before is None or not done:
                    continue
                engine = fleet._engine
                retrained = [
                    n for n in done if before[1].get(n) is not None
                    and fleet._streams[n].retrain_count > 0
                ]
                if not retrained:
                    continue
                # Swapped in place: no row moved, no layout change.
                assert engine.layout == before[0]
                for name in retrained:
                    assert engine.row_of(name) == before[1][name]
                engine.prepare()  # this round's initial trains take rows
                for name in retrained:
                    row = engine.row_of(name)
                    swapped = [a[row].copy() for a in engine._row_arrays()]
                    engine.release(name)
                    engine.notice(name)
                    engine.prepare()
                    assert engine.row_of(name) == row
                    fresh = [a[row] for a in engine._row_arrays()]
                    for i, (x, y) in enumerate(zip(swapped, fresh)):
                        np.testing.assert_array_equal(x, y, err_msg=str(i))
                    swaps += 1
        assert swaps > 10

    def test_relabel_storm_never_reattaches_or_evicts(self, monkeypatch):
        """Across a 20-tick relabel storm of an eligible fleet, retrained
        streams keep their rows and their memories are built from the
        survivors: no attach, no eligibility walk, no eviction."""
        names = [f"s{i}" for i in range(8)]
        feed = _storm_feed(names, 200, seed=5, every=20)
        config = _storm_config(
            min_train=64,
            history_limit=128,
            retrain_window=64,
            min_relabel_overlap=0.25,
        )
        fleet = PredictionFleet(config, streams=names, telemetry=True)
        start = config.min_train + 20
        for t in range(start):
            _tick(fleet, feed, t, True)
        assert all(fleet._engine.serves(n) for n in names)

        def raiser(what):
            def raise_(*args, **kwargs):
                raise AssertionError(f"{what} called during a relabel storm")

            return raise_

        for cls, attr in (
            (KNNClassifier, "discard_oldest"),
            (BatchedTickEngine, "_try_attach"),
            (BatchedTickEngine, "fallback_reason"),
        ):
            monkeypatch.setattr(cls, attr, raiser(attr))
        retrains = fleet.metrics().total_retrains
        relabels = self._relabels(fleet)
        for t in range(start, start + 20):
            _tick(fleet, feed, t, True)
        assert fleet.metrics().total_retrains - retrains > 10
        assert self._relabels(fleet) - relabels > 10

    @staticmethod
    def _relabels(fleet):
        snap = fleet.telemetry.registry.snapshot()
        return sum(
            snap[name]["series"][0]["value"]
            for name in (
                "repro_fleet_label_cache_hits_total",
                "repro_fleet_label_cache_misses_total",
            )
        )


class TestRelabelStormParity:
    @pytest.mark.parametrize("retrain_mode", ["sync", "async"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_batched_storms_match_per_stream_loop(self, retrain_mode, seed):
        """Several storms of trimmed-memory relabels (and the cold fits
        between them), batched vs the per-stream loop: every forecast
        and, at the end, every settled object bit-identical."""
        names = [f"s{i}" for i in range(6)]
        ticks = 220
        feed = _storm_feed(names, ticks, seed=seed, every=20)
        config = _storm_config(retrain_mode)
        fast = PredictionFleet(config, streams=names, telemetry=True)
        loop = PredictionFleet(config, streams=names)
        pool = _inline_pool() if retrain_mode == "async" else (
            contextlib.nullcontext()
        )
        with pool:
            for t in range(ticks):
                assert _tick(fast, feed, t, True) == _tick(loop, feed, t, False)
            for fleet in (fast, loop):
                fleet.drain_retrains(wait=True)
        assert _objects(fast) == _objects(loop)
        assert fast.metrics().total_retrains > 20
        assert TestSwapUnderRow._relabels(fast) > 10


class TestSaveOverSmallerFleet:
    def test_stale_archives_are_removed_and_load_is_exact(self, tmp_path):
        names = [f"s{i}" for i in range(6)]
        feed = _storm_feed(names, 120, seed=7, every=15)
        fleet = PredictionFleet(_storm_config(), streams=names)
        for t in range(120):
            _tick(fleet, feed, t, True)
        directory = tmp_path / "fleet"
        fleet.save(directory)
        first = {p.name for p in (directory / "streams").iterdir()}
        assert len([n for n in first if n.startswith("stream_")]) == 6
        for name in names[:3]:
            fleet.remove_stream(name)
        fleet.save(directory)
        manifest = json.loads((directory / "fleet.json").read_text())
        named = set()
        for entry in manifest["streams"]:
            named.add(Path(entry["archive"]).name)
            if entry["label_cache"] is not None:
                named.add(Path(entry["label_cache"]["archive"]).name)
        assert {p.name for p in (directory / "streams").iterdir()} == named
        assert {p.name for p in directory.iterdir()} == {"fleet.json", "streams"}
        # Loading the reused directory restores exactly what a fresh
        # directory holding only the smaller fleet does.
        fleet.save(tmp_path / "fresh")
        restored = PredictionFleet.load(directory)
        reference = PredictionFleet.load(tmp_path / "fresh")
        assert restored.stream_names == fleet.stream_names
        assert _objects(restored) == _objects(reference)
        assert restored.forecast_all() == fleet.forecast_all()
