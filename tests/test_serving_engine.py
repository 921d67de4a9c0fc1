"""Bit-exactness and cost tests for the batched fleet tick engine.

The engine (:mod:`repro.serving.engine`) is an execution strategy, not a
model change: ``batched=True`` must produce *bit-identical* results to
the per-stream loop (``batched=False``) — same forecasts, same learned
labels, same QA audits, same classifier memory. These tests drive two
fleets through identical feeds, one per path, and compare everything.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LARConfig
from repro.core.online import OnlineLARPredictor
from repro.learn.knn import KNNClassifier
from repro.learn.voting import _VECTOR_VOTE_MAX_K, majority_vote
from repro.serving import FleetConfig, PredictionFleet


def _drive(config, feed_fn, ticks, *, forecast_every=1, names=None):
    """Run batched and loop fleets through the same feed, asserting parity."""
    names = names or [f"s{i}" for i in range(6)]
    batched = PredictionFleet(config, streams=names)
    loop = PredictionFleet(config, streams=names)
    for t in range(ticks):
        vals = feed_fn(t, names)
        if forecast_every and t % forecast_every == 0:
            fa = batched.forecast_all(batched=True)
            fb = loop.forecast_all(batched=False)
            assert fa == fb, f"forecast mismatch at tick {t}"
        la = batched.ingest(vals, batched=True)
        lb = loop.ingest(vals, batched=False)
        assert la == lb, f"learned-label mismatch at tick {t}"
    return batched, loop


def _assert_same_state(batched, loop):
    """Deep equality of every per-stream serving artifact."""
    assert batched.metrics() == loop.metrics()
    for name in batched.stream_names:
        sa, sb = batched._streams[name], loop._streams[name]
        assert sa.qa.audits == sb.qa.audits, name
        pa, pb = sa.predictor, sb.predictor
        assert (pa is None) == (pb is None), name
        if pa is None:
            continue
        np.testing.assert_array_equal(
            pa.recent_history(), pb.recent_history(), err_msg=name
        )
        ca, cb = pa._classifier, pb._classifier
        np.testing.assert_array_equal(ca._X, cb._X, err_msg=name)
        np.testing.assert_array_equal(ca._y, cb._y, err_msg=name)


def _walk_feed(seed=0, drift=0.05, noise=0.15):
    rng = np.random.default_rng(seed)
    state = {}

    def feed(t, names):
        for n in names:
            state[n] = (
                state.get(n, float(rng.standard_normal()))
                + noise * float(rng.standard_normal())
                + drift
            )
        return dict(state)

    return feed


class TestBatchedParity:
    def test_forecasts_labels_audits_and_memory_match(self):
        config = FleetConfig(qa_threshold=4.0)
        batched, loop = _drive(config, _walk_feed(seed=1), 160)
        _assert_same_state(batched, loop)

    def test_parity_through_drift_and_retrains(self):
        """Regime shifts force QA breaches; parity must survive the
        retrain → new predictor → engine re-attach cycle."""
        config = FleetConfig(
            max_memory=24, qa_threshold=0.5, audit_window=16,
            audit_interval=4, retrain_window=96, history_limit=256,
        )
        rng = np.random.default_rng(2)
        state = {}

        def feed(t, names):
            drift = 0.6 if (t // 80) % 2 else 0.02
            for n in names:
                state[n] = (
                    state.get(n, 0.0)
                    + 0.2 * float(rng.standard_normal()) + drift
                )
            return dict(state)

        batched, loop = _drive(config, feed, 280)
        assert batched.metrics().total_retrains > 0  # the point of the test
        _assert_same_state(batched, loop)

    def test_parity_on_constant_streams_with_exact_ties(self):
        """Constant and alternating streams produce duplicate feature
        rows, i.e. exact distance ties — where nondeterministic top-k
        selection would first diverge."""
        config = FleetConfig(qa_threshold=50.0)

        def feed(t, names):
            out = {}
            for i, n in enumerate(names):
                out[n] = 1.0 if i % 2 == 0 else float(t % 2)
            return out

        batched, loop = _drive(config, feed, 150)
        _assert_same_state(batched, loop)

    def test_ingest_without_prior_forecast(self):
        """ingest must recompute stale pendings batched, identically."""
        config = FleetConfig(qa_threshold=4.0)
        batched, loop = _drive(
            config, _walk_feed(seed=3), 140, forecast_every=0
        )
        _assert_same_state(batched, loop)

    def test_subset_forecasts_match(self):
        config = FleetConfig(qa_threshold=4.0)
        names = [f"s{i}" for i in range(6)]
        batched = PredictionFleet(config, streams=names)
        loop = PredictionFleet(config, streams=names)
        feed = _walk_feed(seed=4)
        for t in range(130):
            vals = feed(t, names)
            subset = names[t % 3 :: 2]
            assert batched.forecast_all(subset, batched=True) == (
                loop.forecast_all(subset, batched=False)
            ), t
            assert batched.ingest(vals, batched=True) == (
                loop.ingest(vals, batched=False)
            ), t
        _assert_same_state(batched, loop)

    def test_parity_with_pca_disabled(self):
        config = FleetConfig(
            lar=LARConfig(n_components=None), qa_threshold=4.0
        )
        batched, loop = _drive(config, _walk_feed(seed=5), 120)
        _assert_same_state(batched, loop)

    def test_ineligible_pool_falls_back_identically(self):
        """Extended-pool streams can't be stacked; the batched entry
        points must transparently serve them through the loop."""
        config = FleetConfig(
            lar=LARConfig(extended_pool=True), qa_threshold=4.0
        )
        batched, loop = _drive(config, _walk_feed(seed=6), 110)
        engine = batched._engine
        assert engine is not None
        assert not any(engine.serves(n) for n in batched.stream_names)
        _assert_same_state(batched, loop)

    def test_stream_add_remove_mid_serve(self):
        config = FleetConfig(qa_threshold=4.0)
        names = [f"s{i}" for i in range(5)]
        batched = PredictionFleet(config, streams=names)
        loop = PredictionFleet(config, streams=names)
        feed = _walk_feed(seed=7)
        live = list(names)
        for t in range(170):
            if t == 90:
                for fleet in (batched, loop):
                    fleet.remove_stream("s1")
                    fleet.add_stream("s9")
                live.remove("s1")
                live.append("s9")
            vals = {n: v for n, v in feed(t, live).items() if n in live}
            assert batched.forecast_all(batched=True) == (
                loop.forecast_all(batched=False)
            ), t
            assert batched.ingest(vals, batched=True) == (
                loop.ingest(vals, batched=False)
            ), t
        _assert_same_state(batched, loop)

    def test_save_load_roundtrip_continues_identically(self, tmp_path):
        config = FleetConfig(qa_threshold=4.0)
        batched, loop = _drive(config, _walk_feed(seed=8), 120)
        batched.save(tmp_path / "fleet")
        restored = PredictionFleet.load(tmp_path / "fleet")
        feed = _walk_feed(seed=9)
        names = list(restored.stream_names)
        for t in range(40):
            vals = feed(t, names)
            assert restored.forecast_all(batched=True) == (
                loop.forecast_all(batched=False)
            ), t
            assert restored.ingest(vals, batched=True) == (
                loop.ingest(vals, batched=False)
            ), t
        _assert_same_state(restored, loop)


class TestBatchedCost:
    """Per-tick cost guards: the batched path must not degenerate into
    the per-stream loop it replaces."""

    def _warm_fleet(self, n_streams=8, ticks=70):
        config = FleetConfig(qa_threshold=50.0)
        names = [f"s{i}" for i in range(n_streams)]
        fleet = PredictionFleet(config, streams=names)
        feed = _walk_feed(seed=10)
        for t in range(ticks):
            fleet.ingest(feed(t, names))
        assert fleet.metrics().n_trained == n_streams
        return fleet, feed, names

    def test_batched_forecast_makes_no_per_stream_calls(self, monkeypatch):
        fleet, feed, names = self._warm_fleet()
        calls = {"forecast": 0, "kneighbors": 0}
        orig_fc = OnlineLARPredictor.forecast
        orig_kn = KNNClassifier.kneighbors

        def counting_fc(self):
            calls["forecast"] += 1
            return orig_fc(self)

        def counting_kn(self, X):
            calls["kneighbors"] += 1
            return orig_kn(self, X)

        monkeypatch.setattr(OnlineLARPredictor, "forecast", counting_fc)
        monkeypatch.setattr(KNNClassifier, "kneighbors", counting_kn)
        out = fleet.forecast_all(batched=True)
        assert len(out) == len(names)
        assert calls == {"forecast": 0, "kneighbors": 0}

    def test_batched_ingest_makes_no_per_stream_queries(self, monkeypatch):
        fleet, feed, names = self._warm_fleet()
        fleet.forecast_all(batched=True)
        calls = {"n": 0}

        def counting(self, *a, **kw):
            calls["n"] += 1
            raise AssertionError("per-stream query on the batched path")

        monkeypatch.setattr(KNNClassifier, "kneighbors", counting)
        monkeypatch.setattr(OnlineLARPredictor, "forecast", counting)
        monkeypatch.setattr(OnlineLARPredictor, "observe", counting)
        learned = fleet.ingest(feed(99, names), batched=True)
        assert set(learned) == set(names)
        assert calls["n"] == 0

    def test_engine_memory_ring_stays_synced_incrementally(self):
        """Steady-state ticks must not trigger full memory reloads."""
        fleet, feed, names = self._warm_fleet()
        fleet.forecast_all(batched=True)
        fleet.ingest(feed(98, names), batched=True)
        engine = fleet._engine
        reloads = {"n": 0}
        orig = type(engine)._reload_memory

        def counting_reload(self, entry):
            reloads["n"] += 1
            return orig(self, entry)

        type(engine)._reload_memory = counting_reload
        try:
            for t in range(100, 110):
                fleet.forecast_all(batched=True)
                fleet.ingest(feed(t, names), batched=True)
        finally:
            type(engine)._reload_memory = orig
        assert reloads["n"] == 0


class TestGatherFree:
    """The engine's fast path (views + recycled scratch + stacked QA +
    engine-owned memory) must be bit-identical to the per-stream loop
    ("legacy" below), and must actually stop allocating in steady
    state."""

    def _drive_pair(self, ticks=120, n_streams=6, seed=3):
        config = FleetConfig(qa_threshold=4.0)
        names = [f"s{i}" for i in range(n_streams)]
        fast = PredictionFleet(config, streams=names)
        legacy = PredictionFleet(config, streams=names)
        feed = _walk_feed(seed=seed)
        for t in range(ticks):
            vals = feed(t, names)
            fa = fast.forecast_all(batched=True)
            fb = legacy.forecast_all(batched=False)
            assert fa == fb, f"forecast mismatch at tick {t}"
            la = fast.ingest(vals, batched=True)
            lb = legacy.ingest(vals, batched=False)
            assert la == lb, f"learned-label mismatch at tick {t}"
            fast.run_pending_retrains()
            legacy.run_pending_retrains(batched=False)
        return fast, legacy

    def test_legacy_mode_is_bit_identical(self):
        fast, legacy = self._drive_pair()
        _assert_same_state(fast, legacy)
        for name in fast.stream_names:
            qa_a = fast.stream_state(name).qa
            qa_b = legacy.stream_state(name).qa
            assert tuple(qa_a._sq_errors) == tuple(qa_b._sq_errors), name
            assert qa_a._sq_sum == qa_b._sq_sum, name
            assert qa_a.state_dict() == qa_b.state_dict(), name

    def test_contiguous_rows_select_as_slice(self):
        fleet = PredictionFleet(
            FleetConfig(qa_threshold=50.0), streams=["a", "b", "c"]
        )
        feed = _walk_feed(seed=5)
        for t in range(70):
            fleet.ingest(feed(t, ["a", "b", "c"]), batched=True)
        engine = fleet._engine
        full = np.arange(len(engine._rows), dtype=np.intp)
        assert engine._selector(full) == slice(0, len(engine._rows))
        gappy = np.array([0, 2], dtype=np.intp)
        assert engine._selector(gappy) is gappy

    def test_steady_state_tick_recycles_scratch(self):
        """After one warm tick, further ticks reuse the same scratch
        arrays — the allocation-free property the tentpole claims.

        ``max_memory`` bounds the memories so the mirror capacity (and
        with it the distance-kernel scratch shapes) has plateaued by
        the time the check runs.
        """
        config = FleetConfig(qa_threshold=50.0, max_memory=32)
        names = [f"s{i}" for i in range(8)]
        fleet = PredictionFleet(config, streams=names)
        feed = _walk_feed(seed=7)
        for t in range(70):
            fleet.forecast_all(batched=True)
            fleet.ingest(feed(t, names), batched=True)
        engine = fleet._engine
        before = {k: id(v) for k, v in engine._scratch.items()}
        assert before  # the warm ticks populated the scratch table
        for t in range(70, 75):
            fleet.forecast_all(batched=True)
            fleet.ingest(feed(t, names), batched=True)
        after = {k: id(v) for k, v in engine._scratch.items()}
        assert before == after

    def test_qa_ineligible_stream_falls_back(self):
        """A stream whose assuror is a subclass must stay on the
        per-stream loop — and still produce identical results."""
        from repro.core.qa import PredictionQualityAssuror

        class CustomQA(PredictionQualityAssuror):
            pass

        config = FleetConfig(qa_threshold=4.0)
        names = ["a", "b", "c"]
        fast = PredictionFleet(config, streams=names)
        loop = PredictionFleet(config, streams=names)
        for fleet in (fast, loop):
            state = fleet.stream_state("b")
            custom = CustomQA(
                config.qa_threshold,
                audit_window=config.audit_window,
                audit_interval=config.audit_interval,
                on_breach=state.qa.on_breach,
            )
            state.qa = custom
        feed = _walk_feed(seed=9)
        for t in range(120):
            vals = feed(t, names)
            fa = fast.forecast_all(batched=True)
            fb = loop.forecast_all(batched=False)
            assert fa == fb
            assert fast.ingest(vals, batched=True) == loop.ingest(
                vals, batched=False
            )
        assert not fast._engine.serves("b")
        assert fast._engine.serves("a")
        _assert_same_state(fast, loop)


def _assert_ring_consistent(fleet):
    """Every live memory row sits in the ring; only live slots are finite.

    Holds after any ``prepare`` (``forecast_all`` runs one first).
    """
    fleet._settle()
    engine = fleet._engine
    for entry in engine._rows:
        clf = entry.classifier
        lo, hi = clf.discarded_total_, clf.appended_total_
        mem_abs = engine._mem_abs[entry.row]
        live = (mem_abs >= lo) & (mem_abs < hi)
        assert int(live.sum()) == hi - lo, entry.name
        np.testing.assert_array_equal(
            np.isfinite(engine._mem_bb[entry.row]), live, err_msg=entry.name
        )


def _drive_ring(config, feed, ticks, names, *, before_tick=None):
    """``_drive`` plus ring checks: consistency and the max_memory cap."""
    batched = PredictionFleet(config, streams=names)
    loop = PredictionFleet(config, streams=names)
    widest = 0
    for t in range(ticks):
        if before_tick is not None:
            before_tick(t, batched, loop)
        vals = feed(t, names)
        fa = batched.forecast_all(batched=True)
        fb = loop.forecast_all(batched=False)
        assert fa == fb, f"forecast mismatch at tick {t}"
        if batched._engine is not None and batched._engine._rows:
            _assert_ring_consistent(batched)
            widest = max(widest, batched._engine._mem_cap)
        la = batched.ingest(vals, batched=True)
        lb = loop.ingest(vals, batched=False)
        assert la == lb, f"learned-label mismatch at tick {t}"
    _assert_same_state(batched, loop)
    return batched, loop, widest


class TestBoundedMemoryRing:
    """The engine's k-NN memory ring is capped at ``max_memory`` slots:
    a full memory overwrites the slot of the row it evicts, and dead
    slots are marked by a ``+inf`` cached norm instead of a per-read
    mask. Results must stay bit-identical to the per-stream loop."""

    @pytest.mark.parametrize("max_memory", [8, 12, 64, 100])
    def test_ring_width_reaches_exactly_max_memory(self, max_memory):
        # 8 (= 2k for the default k=3) and 64 are reached by doubling
        # alone; 12 and 100 cut a doubling short.
        config = FleetConfig(qa_threshold=50.0, max_memory=max_memory)
        names = [f"s{i}" for i in range(4)]
        _, _, widest = _drive_ring(config, _walk_feed(seed=21), 140, names)
        assert widest == max_memory

    def test_ring_doubles_below_the_cap(self):
        config = FleetConfig(qa_threshold=50.0, max_memory=None)
        names = ["a", "b"]
        fleet, _, widest = _drive_ring(config, _walk_feed(seed=22), 90, names)
        live = max(
            e.classifier.appended_total_ - e.classifier.discarded_total_
            for e in fleet._engine._rows
        )
        assert widest == fleet._engine._mem_cap
        assert widest >= live and widest & (widest - 1) == 0

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        max_memory=st.integers(min_value=3, max_value=40),
        n_streams=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=12, deadline=None)
    def test_parity_across_the_full_memory_wrap(
        self, seed, max_memory, n_streams
    ):
        """Memories wrap the ring many times over; each learn writes
        into the slot its eviction frees."""
        config = FleetConfig(
            lar=LARConfig(window=5), min_train=20, qa_threshold=50.0,
            max_memory=max_memory,
        )
        names = [f"s{i}" for i in range(n_streams)]
        fleet, _, widest = _drive_ring(
            config, _walk_feed(seed=seed), 20 + 3 * max_memory, names
        )
        assert widest == max_memory
        assert fleet.metrics().n_trained == n_streams

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=6, deadline=None)
    def test_parity_with_rows_shortened_by_retrains(self, seed):
        """A retrain's memory holds fewer rows than the ring is wide, so
        its row reloads with dead slots that later learns fill."""
        config = FleetConfig(
            max_memory=48, qa_threshold=0.5, audit_window=16,
            audit_interval=4, retrain_window=30, history_limit=256,
        )
        rng = np.random.default_rng(seed)
        state = {}
        short_rows = []

        def feed(t, names):
            drift = 0.6 if (t // 60) % 2 else 0.02
            for n in names:
                state[n] = (
                    state.get(n, 0.0)
                    + 0.2 * float(rng.standard_normal()) + drift
                )
            return dict(state)

        def note_short_rows(t, batched, loop):
            engine = batched._engine
            if engine is not None and engine._rows:
                slots, live_ratio = engine.memory_occupancy()
                short_rows.append(slots == 48 and live_ratio < 1.0)

        batched, _, widest = _drive_ring(
            config, feed, 200, [f"s{i}" for i in range(4)],
            before_tick=note_short_rows,
        )
        assert batched.metrics().total_retrains > 0
        assert widest == 48
        # Initial memories start full, so short rows come from retrains.
        assert any(short_rows)

    def test_parity_after_outside_discard_oldest(self):
        config = FleetConfig(qa_threshold=50.0, max_memory=16)

        def discard(t, batched, loop):
            if t in (80, 95):
                for fleet in (batched, loop):
                    fleet.stream_state("s1").predictor._classifier.discard_oldest(
                        10
                    )

        batched, _, widest = _drive_ring(
            config, _walk_feed(seed=23), 130, ["s0", "s1", "s2"],
            before_tick=discard,
        )
        assert widest == 16

    def test_parity_when_outside_rows_widen_the_ring(self):
        """Rows appended outside the fleet can push one memory past
        max_memory; the ring widens to hold them, the rows synced before
        the widening are reloaded, and the next learn's multi-row
        eviction leaves dead slots that are masked by their norms."""
        config = FleetConfig(qa_threshold=50.0, max_memory=12)
        extra = np.random.default_rng(24).normal(size=(30, 2))

        def append(t, batched, loop):
            if t == 80:
                for fleet in (batched, loop):
                    clf = fleet.stream_state("s2").predictor._classifier
                    clf.partial_fit(extra, np.resize(clf._y, extra.shape[0]))

        batched, _, widest = _drive_ring(
            config, _walk_feed(seed=25), 110, ["s0", "s1", "s2", "s3"],
            before_tick=append,
        )
        assert widest > 12

    def test_stream_with_its_own_max_memory_falls_back(self):
        """A memory capped differently from the fleet (e.g. restored
        from an archive of another config) would outgrow the ring."""
        config = FleetConfig(qa_threshold=50.0, max_memory=12)
        names = ["a", "b", "c"]
        fast = PredictionFleet(config, streams=names)
        loop = PredictionFleet(config, streams=names)
        feed = _walk_feed(seed=27)
        for t in range(70):
            vals = feed(t, names)
            for fleet in (fast, loop):
                fleet.ingest(vals, batched=False)
        for fleet in (fast, loop):
            fleet.stream_state("b").predictor.max_memory = 40
        for t in range(70, 120):
            vals = feed(t, names)
            assert fast.forecast_all(batched=True) == loop.forecast_all(
                batched=False
            )
            assert fast.ingest(vals, batched=True) == loop.ingest(
                vals, batched=False
            )
        assert not fast._engine.serves("b")
        assert fast._engine.serves("a")
        _assert_same_state(fast, loop)

    def test_occupancy_gauges_on_scrape(self):
        from repro.obs import Telemetry

        config = FleetConfig(qa_threshold=50.0, max_memory=12)
        names = ["a", "b", "c"]
        tel = Telemetry()
        fleet = PredictionFleet(config, streams=names, telemetry=tel)
        feed = _walk_feed(seed=26)
        for t in range(90):
            fleet.forecast_all()
            fleet.ingest(feed(t, names))
        metrics = tel.registry.snapshot()
        slots = metrics["repro_engine_memory_slots"]["series"][0]["value"]
        ratio = metrics["repro_engine_memory_live_ratio"]["series"][0]
        assert slots == 12
        assert ratio["value"] == 1.0


class TestVectorizedMajorityVote:
    def _reference(self, labels):
        """The original scalar rule: max count, then earliest first
        occurrence (== nearest neighbour among tied counts)."""
        out = np.empty(labels.shape[0], dtype=np.int64)
        for i, row in enumerate(labels):
            values, counts = np.unique(row, return_counts=True)
            best = counts.max()
            tied = values[counts == best]
            if tied.shape[0] == 1:
                out[i] = tied[0]
            else:
                first = min(
                    np.flatnonzero(row == v)[0] for v in tied
                )
                out[i] = row[first]
        return out

    def test_matches_reference_on_random_votes(self):
        rng = np.random.default_rng(11)
        for k in (1, 3, 5, 9):
            labels = rng.integers(1, 4, size=(500, k))
            np.testing.assert_array_equal(
                majority_vote(labels), self._reference(labels)
            )

    def test_large_k_fallback_matches(self):
        rng = np.random.default_rng(12)
        k = _VECTOR_VOTE_MAX_K + 3
        labels = rng.integers(1, 6, size=(40, k))
        np.testing.assert_array_equal(
            majority_vote(labels), self._reference(labels)
        )
