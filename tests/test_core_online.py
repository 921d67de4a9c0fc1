"""Unit tests for the online (incremental) LARPredictor."""

import numpy as np
import pytest

from repro.core.config import LARConfig
from repro.core.history import HistoryBuffer
from repro.core.larpredictor import LARPredictor
from repro.core.online import OnlineLARPredictor
from repro.exceptions import ConfigurationError, NotFittedError
from repro.learn.knn import KNNClassifier
from repro.traces.synthetic import ar1_series, conflict_series


@pytest.fixture
def online():
    series = conflict_series(400, seed=3)
    return OnlineLARPredictor(LARConfig(window=5)).train(series[:200]), series


class TestLifecycle:
    def test_untrained_guards(self):
        o = OnlineLARPredictor()
        with pytest.raises(NotFittedError):
            o.forecast()
        with pytest.raises(NotFittedError):
            o.observe(1.0)

    def test_train_initializes_memory(self, online):
        o, _ = online
        assert o.is_trained
        assert o.memory_size == 200 - 5  # one pair per (frame, target)
        assert o.windows_learned_online == 0

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            OnlineLARPredictor(label_smoothing=0)
        with pytest.raises(ConfigurationError):
            OnlineLARPredictor(LARConfig(k=5), max_memory=3)


class TestObserve:
    def test_memory_grows_per_observation(self, online):
        o, series = online
        before = o.memory_size
        for v in series[200:220]:
            label = o.observe(v)
            assert label in (1, 2, 3)
        assert o.memory_size == before + 20
        assert o.windows_learned_online == 20

    def test_non_finite_rejected(self, online):
        o, _ = online
        with pytest.raises(ConfigurationError):
            o.observe(float("inf"))

    def test_labels_match_offline_rule_shape(self, online):
        """Online labels must come from the same pool argmin logic."""
        o, series = online
        labels = [o.observe(v) for v in series[200:260]]
        assert set(labels).issubset({1, 2, 3})

    def test_memory_cap_applies_at_training(self):
        series = ar1_series(300, phi=0.9, seed=5)
        o = OnlineLARPredictor(LARConfig(window=5), max_memory=100)
        o.train(series[:150])  # 145 pairs, oldest 45 evicted
        assert o.memory_size == 100

    def test_memory_cap_enforced_online(self):
        series = ar1_series(300, phi=0.9, seed=6)
        o = OnlineLARPredictor(LARConfig(window=5), max_memory=150)
        o.train(series[:150])
        for v in series[150:250]:
            o.observe(v)
        assert o.memory_size == 150


class TestForecast:
    def test_forecast_fields(self, online):
        o, _ = online
        fc = o.forecast()
        assert fc.predictor_name in ("LAST", "AR", "SW_AVG")
        assert np.isfinite(fc.value)

    def test_online_learning_helps_on_novel_regime(self):
        """After a regime the initial training never saw, the online
        learner (which keeps labelling) must beat the frozen one."""
        rng = np.random.default_rng(11)
        seen = 20.0 + ar1_series(200, phi=0.9, seed=12)
        novel = 60.0 + 8.0 * np.sin(np.arange(300) / 3.0) + rng.standard_normal(300)
        stream = np.concatenate([seen[-5:], novel])

        def run(learn: bool) -> float:
            o = OnlineLARPredictor(LARConfig(window=5)).train(seen)
            errs = []
            for t in range(5, stream.size):
                fc = o.forecast()
                errs.append((fc.value - stream[t]) ** 2)
                if learn:
                    o.observe(stream[t])
                else:
                    # advance history without learning
                    o._history.append(float(stream[t]))
            # Score only the later portion, where learning had time.
            return float(np.mean(errs[100:]))

        assert run(learn=True) <= run(learn=False)

    def test_retrain_from_stored_history(self, online):
        o, series = online
        for v in series[200:260]:
            o.observe(v)
        o.retrain()
        assert o.windows_learned_online == 0
        assert o.is_trained


class _AccessCountingHistory(HistoryBuffer):
    """History store that counts every stored value it hands out.

    The store's values leave it only through :meth:`values`,
    :meth:`tail` and iteration, so the counter is a deterministic proxy
    for per-step work: any O(history) read path (a full snapshot, a
    loop over the values) shows up as the whole history length.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.touched = 0

    def values(self):
        out = super().values()
        self.touched += out.shape[0]
        return out

    def tail(self, n):
        out = super().tail(n)
        self.touched += out.shape[0]
        return out

    def __iter__(self):
        for value in super().values().tolist():
            self.touched += 1
            yield value


class TestPerStepCost:
    """Regression guard: observe/forecast work must not grow with the
    stored history length (they were O(history) per step once)."""

    @staticmethod
    def _instrumented(history_length: int):
        series = ar1_series(300, phi=0.9, seed=21)
        o = OnlineLARPredictor(LARConfig(window=5)).train(series[:200])
        rng = np.random.default_rng(22)
        pad = _AccessCountingHistory(o.recent_history())
        pad.extend(rng.normal(10.0, 2.0, size=history_length - len(pad)))
        o._history = pad
        return o, pad

    def _touches_per_step(self, history_length: int) -> int:
        o, pad = self._instrumented(history_length)
        pad.touched = 0
        o.forecast()
        o.observe(11.0)
        return pad.touched

    def test_step_touches_only_the_tail(self):
        w = 5
        touches = self._touches_per_step(10_000)
        # forecast reads w values, observe reads w + 1; give slack for
        # bounded constant-factor changes, but nothing near O(history).
        assert touches <= 4 * (w + 1)

    def test_step_cost_independent_of_history_length(self):
        assert (
            self._touches_per_step(1_000)
            == self._touches_per_step(50_000)
        )


class TestBatchOnlineParity:
    def test_first_forecast_identical_to_batch(self):
        """Before any observe call, the online predictor and a batch
        LARPredictor trained on the same series are the same machine:
        same selected predictor, same value — the shared pipeline
        contract."""
        series = conflict_series(400, seed=7)
        online = OnlineLARPredictor(LARConfig(window=5)).train(series)
        batch = LARPredictor(LARConfig(window=5)).train(series)
        fo = online.forecast()
        fb = batch.forecast(series)
        assert fo.predictor_label == fb.predictor_label
        assert fo.predictor_name == fb.predictor_name
        assert fo.value == fb.value
        assert fo.normalized_value == fb.normalized_value


class TestEviction:
    def overflowed(self):
        series = ar1_series(400, phi=0.9, seed=8)
        o = OnlineLARPredictor(LARConfig(window=5), max_memory=120)
        o.train(series[:150])  # 145 pairs -> oldest 25 evicted at train
        for v in series[150:250]:  # 100 more pairs stream in
            o.observe(v)
        return o

    def test_memory_is_newest_pairs_after_overflow(self):
        """After eviction, the classifier memory must hold exactly the
        newest max_memory (feature, label) pairs in arrival order."""
        series = ar1_series(400, phi=0.9, seed=9)
        capped = OnlineLARPredictor(LARConfig(window=5), max_memory=120)
        uncapped = OnlineLARPredictor(LARConfig(window=5))
        capped.train(series[:150])
        uncapped.train(series[:150])
        for v in series[150:250]:
            capped.observe(v)
            uncapped.observe(v)
        assert capped.memory_size == 120
        full_x = uncapped._classifier._X
        full_y = uncapped._classifier._y
        np.testing.assert_array_equal(
            capped._classifier._X, full_x[-120:]
        )
        np.testing.assert_array_equal(
            capped._classifier._y, full_y[-120:]
        )

    def test_predictions_match_fresh_fit_on_surviving_pairs(self):
        o = self.overflowed()
        clf = o._classifier
        fresh = KNNClassifier(k=o.config.k).fit(clf._X, clf._y)
        rng = np.random.default_rng(10)
        queries = rng.normal(size=(32, clf._X.shape[1]))
        for q in queries:
            assert clf.predict_one(q) == fresh.predict_one(q)


class TestHistoryLimit:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OnlineLARPredictor(LARConfig(window=5), history_limit=6)

    def test_history_bounded(self):
        series = ar1_series(400, phi=0.9, seed=11)
        o = OnlineLARPredictor(LARConfig(window=5), history_limit=100)
        o.train(series[:150])
        assert o.history_length == 100
        for v in series[150:250]:
            o.observe(v)
        assert o.history_length == 100

    def test_recent_history_tail(self):
        series = ar1_series(200, phi=0.9, seed=12)
        o = OnlineLARPredictor(LARConfig(window=5)).train(series)
        np.testing.assert_allclose(o.recent_history(10), series[-10:])
        assert o.recent_history().size == series.size
        with pytest.raises(ConfigurationError):
            o.recent_history(-1)
