"""Parity and lifecycle tests for shared-memory sharded training bursts.

Sharding is an execution strategy, never a model change: a row-sharded
burst must produce predictors (and relabel results) bit-identical to
the single-process :class:`~repro.serving.trainer.BatchedTrainEngine`,
which the trainer parity suite already pins against the per-stream
path. Three layers are covered here:

* real worker pools — sharded ``train_many``/``relabel_many`` bursts
  through actual forked processes and shared-memory arenas, compared
  field-by-field against the unsharded engine;
* a hypothesis property — *any* contiguous row partition of the
  in-process kernels (:meth:`_compute_train_group`,
  :meth:`_compute_relabel_group`, the exact functions workers run on
  their slices) reassembles to the unpartitioned bits, splice caches
  included;
* lifecycle — arenas never leak (:func:`active_segments` empty after
  every burst, including failed ones), the shard-count policy, and the
  fleet/config wiring.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import LARConfig
from repro.core.online import OnlineLARPredictor
from repro.core.relabel import CachedLabels, plan_splice
from repro.exceptions import ConfigurationError
from repro.parallel.pool_exec import ParallelConfig, shutdown_persistent_pool
from repro.parallel.shm import active_segments
from repro.serving import (
    BatchedTrainEngine,
    FleetConfig,
    PredictionFleet,
    ShardedTrainEngine,
)
from repro.serving.trainer import (
    DEFAULT_MIN_SHARD_STREAMS,
    MIN_ROWS_PER_SHARD,
    _shard_bounds,
)
from repro.traces.synthetic import ar1_series
from tests.test_serving_label_cache import _assert_results_identical
from tests.test_serving_trainer import _assert_same_model

SERIAL = ParallelConfig(max_workers=1)

# The smallest group _shard_count will actually split: two shards of
# MIN_ROWS_PER_SHARD rows each.
MIN_SHARDED_GROUP = 2 * MIN_ROWS_PER_SHARD


def _config(**overrides):
    defaults = dict(
        lar=LARConfig(window=5),
        min_train=20,
        max_memory=32,
        history_limit=256,
        parallel=SERIAL,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


def _histories(n, length=120, seed=0):
    out = []
    for i in range(n):
        base = 10.0 + 3.0 * ar1_series(length, phi=0.85, seed=seed + i)
        base[length // 2 :] += 4.0
        out.append(base)
    return out


def _partition(n_rows, cuts):
    """``[lo, hi)`` ranges covering *n_rows* split at *cuts*."""
    edges = [0, *sorted(c for c in cuts if 0 < c < n_rows), n_rows]
    return [(lo, hi) for lo, hi in zip(edges, edges[1:]) if lo < hi]


class TestShardBounds:
    def test_even_split(self):
        assert _shard_bounds(16, 2) == [(0, 8), (8, 16)]

    def test_uneven_extra_rows_go_first(self):
        assert _shard_bounds(17, 3) == [(0, 6), (6, 12), (12, 17)]

    def test_bounds_cover_exactly(self):
        for n, k in [(7, 3), (100, 7), (9, 9)]:
            bounds = _shard_bounds(n, k)
            assert bounds[0][0] == 0 and bounds[-1][1] == n
            for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
                assert hi == lo


class TestShardCountPolicy:
    def test_disabled_by_default(self):
        engine = BatchedTrainEngine(_config())
        assert engine.shards is None
        assert engine._shard_count(10_000) == 1

    def test_threshold_and_row_floor(self):
        engine = BatchedTrainEngine(_config(), shards=4, min_shard_streams=16)
        assert engine._shard_count(15) == 1  # below the stream threshold
        assert engine._shard_count(16) == 2  # 16 rows feed two shards
        assert engine._shard_count(23) == 2  # not enough rows for a third
        assert engine._shard_count(64) == 4  # capped by the config
        # with a permissive threshold the row floor still applies
        loose = BatchedTrainEngine(_config(), shards=8, min_shard_streams=1)
        assert loose._shard_count(MIN_SHARDED_GROUP - 1) == 1
        assert loose._shard_count(MIN_SHARDED_GROUP) == 2

    def test_unsupported_config_never_shards(self):
        engine = BatchedTrainEngine(
            _config(lar=LARConfig(window=5, extended_pool=True)),
            shards=4,
            min_shard_streams=1,
        )
        assert engine._shard_count(1000) == 1

    def test_engine_validates_arguments(self):
        with pytest.raises(ConfigurationError):
            BatchedTrainEngine(_config(), shards=0)
        with pytest.raises(ConfigurationError):
            BatchedTrainEngine(_config(), min_shard_streams=0)

    def test_sharded_engine_defaults(self):
        engine = ShardedTrainEngine(_config())
        assert engine.shards == (os.cpu_count() or 1)
        assert engine._min_shard_streams == MIN_SHARDED_GROUP
        explicit = ShardedTrainEngine(_config(), shards=3, min_shard_streams=99)
        assert explicit.shards == 3
        assert explicit._min_shard_streams == 99

    def test_fleet_config_validation(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(train_shards=0)
        with pytest.raises(ConfigurationError):
            FleetConfig(train_shards=1.5)
        with pytest.raises(ConfigurationError):
            FleetConfig(shard_min_streams=0)
        cfg = FleetConfig(train_shards=2, shard_min_streams=5)
        assert cfg.train_shards == 2 and cfg.shard_min_streams == 5
        assert FleetConfig().shard_min_streams == DEFAULT_MIN_SHARD_STREAMS

    def test_fleet_passes_shard_config_to_engine(self):
        fleet = PredictionFleet(
            _config(train_shards=2, shard_min_streams=7), streams=["a"]
        )
        engine = fleet._get_train_engine()
        assert engine.shards == 2
        assert engine._min_shard_streams == 7


class TestShardedTrainParity:
    """Real forked workers + shared-memory arenas vs the in-process burst."""

    def test_two_shard_burst_matches_unsharded(self):
        config = _config()
        histories = _histories(MIN_SHARDED_GROUP)
        sharded_engine = BatchedTrainEngine(
            config, shards=2, min_shard_streams=1
        )
        assert sharded_engine._shard_count(len(histories)) == 2
        sharded = sharded_engine.train_many(histories)
        plain = BatchedTrainEngine(config).train_many(histories)
        for i, (s, p) in enumerate(zip(sharded, plain)):
            _assert_same_model(s, p, f"stream {i}")
        assert active_segments() == frozenset()

    def test_uneven_rows_and_no_pca(self):
        """17 rows over 2 shards (9/8 split) on the PCA-disabled config
        — the features-alias-frames path crosses the arena too."""
        config = _config(lar=LARConfig(window=5, n_components=None))
        histories = _histories(MIN_SHARDED_GROUP + 1, seed=5)
        sharded = BatchedTrainEngine(
            config, shards=2, min_shard_streams=1
        ).train_many(histories)
        plain = BatchedTrainEngine(config).train_many(histories)
        for i, (s, p) in enumerate(zip(sharded, plain)):
            _assert_same_model(s, p, f"stream {i}")
        assert active_segments() == frozenset()

    def test_small_groups_stay_in_process(self, monkeypatch):
        """Below the threshold the sharded engine must not touch the
        pool at all."""
        from repro.serving import trainer as trainer_mod

        def _no_pool(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("small burst reached the worker pool")

        monkeypatch.setattr(trainer_mod, "persistent_pool", _no_pool)
        engine = BatchedTrainEngine(_config(), shards=2, min_shard_streams=256)
        histories = _histories(4)
        plain = BatchedTrainEngine(_config()).train_many(histories)
        for s, p in zip(engine.train_many(histories), plain):
            _assert_same_model(s, p)

    def test_failed_burst_releases_arenas(self):
        engine = BatchedTrainEngine(_config(), shards=2, min_shard_streams=1)
        histories = _histories(MIN_SHARDED_GROUP)
        histories[3][7] = np.nan
        with pytest.raises(Exception):
            engine.train_many(histories)
        assert active_segments() == frozenset()


class TestShardedRelabelParity:
    def _warm(self, engine, n, smooth=6):
        series = [
            10.0 + 3.0 * ar1_series(220, phi=0.85, seed=s) for s in range(n)
        ]
        predictors = engine.train_many([s[:80] for s in series])
        warm = engine.relabel_many(
            [(predictors[i], series[i][:80], 0, None) for i in range(n)]
        )
        tails = [CachedLabels(0, r.sq, r.labels) for r in warm]
        return series, [r.predictor for r in warm], tails

    def test_full_and_spliced_bursts_match_unsharded(self):
        config = _config(label_smoothing=6)
        n = MIN_SHARDED_GROUP
        plain_engine = BatchedTrainEngine(config)
        sharded_engine = BatchedTrainEngine(
            config, shards=2, min_shard_streams=1
        )
        series, predictors, tails = self._warm(plain_engine, n)
        # one group per geometry: a full relabel group (no cache) and a
        # spliced group where every stream advanced by the same delta
        for tasks in (
            [(predictors[i], series[i][20:100], 20, None) for i in range(n)],
            [(predictors[i], series[i][20:100], 20, tails[i]) for i in range(n)],
        ):
            sharded = sharded_engine.relabel_many(tasks)
            plain = plain_engine.relabel_many(tasks)
            for s, p in zip(sharded, plain):
                _assert_results_identical(s, p)
        assert sharded[0].reused > 0  # the spliced group really spliced
        assert active_segments() == frozenset()

    def test_sharded_splice_matches_per_stream_relabel(self):
        config = _config(label_smoothing=6)
        n = MIN_SHARDED_GROUP
        engine = BatchedTrainEngine(config, shards=2, min_shard_streams=1)
        series, predictors, tails = self._warm(engine, n)
        tasks = [
            (predictors[i], series[i][20:100], 20, tails[i]) for i in range(n)
        ]
        for result, (predictor, window, start, cached) in zip(
            engine.relabel_many(tasks), tasks
        ):
            loop = predictor.relabel(window, start=start, cached=cached)
            _assert_results_identical(result, loop)
        assert active_segments() == frozenset()


def _relabel_args(predictors, histories, plan, tails, lar):
    """The frozen-parameter tensors ``_relabel_group_tasks`` extracts."""
    runners = [p._runner for p in predictors]
    args = dict(
        histories=histories,
        norm_means=np.array(
            [r.pipeline.normalizer.mean for r in runners], dtype=np.float64
        ),
        norm_stds=np.array(
            [r.pipeline.normalizer.std for r in runners], dtype=np.float64
        ),
        ar_phi=np.stack(
            [np.ascontiguousarray(r.pool[1].coefficients_) for r in runners]
        ),
        ar_means=np.array([r.pool[1].mean_ for r in runners], dtype=np.float64),
        plan=plan,
        cached_sq=None,
        cached_labels=None,
        sw_window=runners[0].pool[2].window,
        pca_means=None,
        pca_components=None,
    )
    if lar.n_components is not None and lar.min_variance is None:
        args["pca_means"] = np.stack([r.pipeline.pca.mean_ for r in runners])
        args["pca_components"] = np.stack(
            [r.pipeline.pca.components_ for r in runners]
        )
    if plan is not None:
        args["cached_sq"] = [
            t.sq[plan.delta : plan.delta + plan.reuse] for t in tails
        ]
        args["cached_labels"] = [
            t.labels[plan.delta + plan.label_lo : plan.delta + plan.label_hi]
            for t in tails
        ]
    return args


def _slice_relabel_args(args, lo, hi):
    sliced = dict(args)
    for key in ("histories", "norm_means", "norm_stds", "ar_phi", "ar_means"):
        sliced[key] = args[key][lo:hi]
    for key in ("pca_means", "pca_components", "cached_sq", "cached_labels"):
        if args[key] is not None:
            sliced[key] = args[key][lo:hi]
    return sliced


class TestPartitionProperty:
    """Any contiguous row partition reproduces the unpartitioned bits.

    This is the exact property sharding relies on: workers run
    ``_compute_train_group`` / ``_compute_relabel_group`` on their row
    slice, so reassembling arbitrary slices must equal the full-group
    call bit-for-bit — not just the near-equal split ``_shard_bounds``
    happens to produce.
    """

    @given(
        seed=st.integers(min_value=0, max_value=50),
        cuts=st.sets(
            st.integers(min_value=1, max_value=5), min_size=1, max_size=3
        ),
        pca=st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_train_fit_is_partition_invariant(self, seed, cuts, pca):
        n = 6
        lar = LARConfig(window=5, n_components=2 if pca else None)
        engine = BatchedTrainEngine(_config(lar=lar))
        stacked = np.stack(_histories(n, length=90, seed=seed))
        full = engine._compute_train_group(stacked)
        parts = [
            engine._compute_train_group(stacked[lo:hi])
            for lo, hi in _partition(n, cuts)
        ]
        for field in full._fields:
            whole = getattr(full, field)
            pieces = [getattr(p, field) for p in parts]
            if whole is None:
                assert all(p is None for p in pieces), field
            else:
                np.testing.assert_array_equal(
                    np.concatenate(pieces, axis=0), whole, err_msg=field
                )

    @given(
        seed=st.integers(min_value=0, max_value=50),
        cuts=st.sets(
            st.integers(min_value=1, max_value=5), min_size=1, max_size=3
        ),
        spliced=st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_relabel_is_partition_invariant(self, seed, cuts, spliced):
        n = 6
        smooth = 6
        config = _config(label_smoothing=smooth)
        engine = BatchedTrainEngine(config)
        series = [
            10.0 + 3.0 * ar1_series(160, phi=0.85, seed=seed + s)
            for s in range(n)
        ]
        predictors = engine.train_many([s[:80] for s in series])
        warm = engine.relabel_many(
            [(predictors[i], series[i][:80], 0, None) for i in range(n)]
        )
        tails = [CachedLabels(0, r.sq, r.labels) for r in warm]
        predictors = [r.predictor for r in warm]
        stride = 20
        windows = np.stack([s[stride : stride + 80] for s in series])
        plan = None
        if spliced:
            plan = plan_splice(0, 75, stride, 75, smooth)
            assert plan is not None
        args = _relabel_args(
            predictors, windows, plan, tails, config.lar
        )
        full = engine._compute_relabel_group(**args)
        parts = [
            engine._compute_relabel_group(**_slice_relabel_args(args, lo, hi))
            for lo, hi in _partition(n, cuts)
        ]
        for index in range(len(full)):
            whole = full[index]
            pieces = [p[index] for p in parts]
            if whole is None:
                assert all(p is None for p in pieces), index
            else:
                np.testing.assert_array_equal(
                    np.concatenate(pieces, axis=0), whole, err_msg=str(index)
                )


class TestFleetShardedParity:
    def test_sharded_fleet_tracks_plain_fleet_through_a_storm(self):
        """A drift storm across a shardable fleet: every warm-up burst
        and QA retrain runs row-sharded, and every tick's forecasts and
        ingest reports must carry the single-process bits."""
        base = dict(
            lar=LARConfig(window=5),
            min_train=30,
            max_memory=24,
            qa_threshold=0.5,
            audit_window=16,
            audit_interval=4,
            retrain_window=96,
            history_limit=192,
            parallel=SERIAL,
        )
        names = [f"s{i}" for i in range(MIN_SHARDED_GROUP)]
        sharded = PredictionFleet(
            FleetConfig(**base, train_shards=2, shard_min_streams=1),
            streams=names,
        )
        plain = PredictionFleet(FleetConfig(**base), streams=names)
        rng = np.random.default_rng(2)
        state = {n: 0.0 for n in names}
        for t in range(140):
            drift = 0.6 if (t // 60) % 2 else 0.02
            for n in names:
                state[n] += 0.2 * float(rng.standard_normal()) + drift
            vals = dict(state)
            assert sharded.forecast_all() == plain.forecast_all(), t
            assert sharded.ingest(vals) == plain.ingest(vals), t
        assert plain.metrics().total_retrains > 0
        for name in names:
            sp = sharded.stream_state(name).predictor
            pp = plain.stream_state(name).predictor
            assert (sp is None) == (pp is None), name
            if sp is not None:
                _assert_same_model(sp, pp, name)
        assert active_segments() == frozenset()


@pytest.fixture(scope="module", autouse=True)
def _drain_pool():
    """Tear the persistent pool down after the module so later test
    modules start from a cold pool (and leaked-worker noise is local)."""
    yield
    shutdown_persistent_pool()
