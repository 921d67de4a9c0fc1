"""Asynchronous retrain pipeline: training bursts overlap the serving tick.

In synchronous mode the tick that triggers a drift storm pays for the
whole retrain burst before :meth:`~repro.serving.fleet.PredictionFleet.ingest`
returns — 500 breaching streams freeze every stream's serving until the
stacked burst completes. The paper's own semantics don't require that:
a stream ordered to retrain "keeps serving its current model" while the
order is pending (the same split Mantis and friends make between
offline fitting and online prediction). This module makes the pending
window productive: the burst runs on the persistent worker pool while
ticks keep flowing, and worst-case tick latency drops from O(burst
training time) to O(integration).

How a burst flies
-----------------
* **Submission** (``AsyncRetrainPipeline.submit``) — the fleet
  partitions the due streams exactly as the synchronous path does
  (cold refits vs. incremental relabels, windows snapshotted); the
  pipeline packages each stacked group into picklable tensors — raw
  history stacks for cold groups (split row-wise by the engine's shard
  policy), :class:`~repro.serving.trainer.RelabelGroupInputs`
  snapshots for splice groups — and dispatches them as futures via
  :func:`repro.parallel.pool_exec.submit`. Control returns to the tick
  immediately; each submitted stream's due flags clear and its QA stays
  latched until integration.
* **In flight** — the stream serves its *current* model. Every ingested
  value is also appended to the pending record's replay list
  (``note_values``), and the scheduler refuses to re-mark the stream
  due while its burst flies.
* **Drain** (each tick boundary / ``drain_retrains``) — finished
  futures are assembled into predictors (group fits through
  :meth:`~repro.serving.trainer.BatchedTrainEngine._build_group_predictors`
  / ``_finish_relabel_group``, identical to the synchronous assembly),
  the in-flight ticks are replayed through
  :meth:`~repro.core.online.OnlineLARPredictor.observe_many`, and the
  model swaps in. Because training reads only the submission snapshot
  and replay uses the same ``observe()`` path the live model would
  have taken, the integrated model is **bit-identical** to one trained
  synchronously at the submission tick and served since — the parity
  contract ``tests/test_serving_async.py`` pins with hypothesis.

Staleness and failure
---------------------
Results outlive their usefulness in three ways, all guarded at
integration: the stream was removed mid-flight, its model generation
(epoch) advanced under it, or its labelling-config fingerprint no
longer matches. Such results are dropped with a ``retrain_dropped``
event — never integrated. A :class:`BrokenProcessPool` during a burst
degrades gracefully: the pool-failure hooks fire (flight-recorder
dump), the pool is torn down, every in-flight stream is re-queued with
its original due stamp, and the fleet retrains them synchronously on
the spot — correctness never depends on the pool surviving.
"""

from __future__ import annotations

import functools
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from repro.parallel.pool_exec import (
    notify_pool_failure,
    shutdown_persistent_pool,
    submit as pool_submit,
)
from repro.serving.trainer import _shard_bounds

__all__ = ["AsyncRetrainPipeline"]


class _PendingStream:
    """Submission-time snapshot of one in-flight stream (internal)."""

    __slots__ = (
        "name", "epoch", "was_retrain", "window", "miss_reason",
        "params_fp", "config_fp", "due_at", "replay",
    )

    def __init__(self, state, window, miss_reason, params_fp, config_fp):
        self.name = state.name
        self.epoch = state.epoch
        self.was_retrain = state.predictor is not None
        self.window = window
        self.miss_reason = miss_reason
        self.params_fp = params_fp
        self.config_fp = config_fp
        self.due_at = state.due_at
        # Values the stream ingests while the burst flies, in tick
        # order — the integration replays them through observe().
        self.replay: list[float] = []


class _Burst:
    """One future plus everything needed to assemble its result."""

    __slots__ = ("kind", "future", "records", "histories", "items")

    def __init__(self, kind, future, records, histories=None, items=None):
        self.kind = kind
        self.future = future
        self.records = records
        self.histories = histories
        self.items = items


def _relabel_task(predictor, history, start, cached):
    """Per-stream relabel worker for non-stacked asynchronous bursts."""
    return predictor.relabel(history, start=start, cached=cached)


class AsyncRetrainPipeline:
    """In-flight bookkeeping for one fleet's asynchronous retrains.

    Owned by a :class:`~repro.serving.fleet.PredictionFleet` running
    with ``retrain_mode="async"`` (created lazily on the first round).
    The pipeline packages and dispatches bursts and assembles their
    results; all integration bookkeeping — staleness guards, label
    cache, QA acknowledgement, counters — stays in the fleet, shared
    with the synchronous path.
    """

    def __init__(self, fleet) -> None:
        self._fleet = fleet
        self._bursts: list[_Burst] = []
        # name -> live records, for O(1) schedule guards and O(inflight)
        # replay appends (a record can briefly coexist with a stale
        # same-named one after a remove + re-add).
        self._by_name: dict[str, list[_PendingStream]] = {}
        self._count = 0

    @property
    def inflight(self) -> int:
        """Streams currently training in flight."""
        return self._count

    def blocks(self, name: str, epoch: int) -> bool:
        """Whether scheduling *name* must wait for an in-flight result.

        Epoch-matched: a record left over for a removed-and-re-added
        stream (a different generation) never blocks the new stream.
        """
        return any(
            rec.epoch == epoch for rec in self._by_name.get(name, ())
        )

    def note_values(self, values) -> None:
        """Append this tick's values to the matching replay lists."""
        for name, records in self._by_name.items():
            value = values.get(name)
            if value is not None:
                for rec in records:
                    rec.replay.append(value)

    # -- submission ----------------------------------------------------------

    def submit(self, due, plan, *, batched: bool = True) -> None:
        """Dispatch one partitioned retrain round to the worker pool.

        Mirrors the synchronous execution shape exactly — stacked cold
        groups (row-split by the engine's shard policy), stacked
        relabel groups, per-stream fallbacks for configurations the
        stacked kernels don't cover — so every worker runs the same
        kernels on the same inputs and the drained tensors carry the
        synchronous burst's bits.
        """
        fleet = self._fleet
        cfg = fleet.config
        engine = fleet._get_train_engine()
        records = {
            name: _PendingStream(
                fleet._streams[name],
                plan.windows[name],
                plan.miss_reasons.get(name),
                plan.params_fps.get(name),
                fleet._config_fp,
            )
            for name in due
        }
        from repro.serving import shard_exec

        worker_cfg = engine._worker_config()
        if plan.cold_histories:
            if batched and engine.supported:
                self._submit_cold_groups(
                    plan, records, engine, worker_cfg, shard_exec
                )
            else:
                shared = (
                    cfg.lar, cfg.label_smoothing, cfg.max_memory,
                    cfg.history_limit,
                )
                fn = functools.partial(_train_stream_ref(), shared)
                for name, history in zip(
                    plan.cold_names, plan.cold_histories
                ):
                    self._track(_Burst(
                        "cold_single",
                        pool_submit(fn, history),
                        [records[name]],
                    ))
        if plan.inc_tasks:
            if batched and engine.relabel_supported:
                self._submit_relabel_groups(
                    plan, records, engine, worker_cfg, shard_exec
                )
            else:
                for name, task in zip(plan.inc_names, plan.inc_tasks):
                    self._track(_Burst(
                        "relabel_single",
                        pool_submit(_relabel_task, *task),
                        [records[name]],
                    ))

    def _submit_cold_groups(
        self, plan, records, engine, worker_cfg, shard_exec
    ) -> None:
        """Stacked cold refits: one future per equal-length row slice."""
        groups: dict[int, list[int]] = {}
        arrays = [
            np.ascontiguousarray(h, dtype=np.float64)
            for h in plan.cold_histories
        ]
        for index, arr in enumerate(arrays):
            groups.setdefault(arr.shape[0], []).append(index)
        for indices in groups.values():
            stack = np.stack([arrays[i] for i in indices], axis=0)
            recs = [records[plan.cold_names[i]] for i in indices]
            shards = engine._shard_count(len(indices))
            for lo, hi in _shard_bounds(len(indices), shards):
                self._track(_Burst(
                    "cold_group",
                    pool_submit(
                        shard_exec.train_group_async,
                        worker_cfg,
                        stack[lo:hi],
                    ),
                    recs[lo:hi],
                    histories=stack[lo:hi],
                ))

    def _submit_relabel_groups(
        self, plan, records, engine, worker_cfg, shard_exec
    ) -> None:
        """Stacked relabels: one future per (length, geometry) group."""
        _, groups = engine._prepare_relabel_groups(plan.inc_tasks)
        for items in groups:
            # Re-index within the group so the drained assembly writes
            # a dense [0, len(group)) output list.
            local = [
                (j, item[1], item[2], item[3], item[4])
                for j, item in enumerate(items)
            ]
            recs = [records[plan.inc_names[item[0]]] for item in items]
            self._track(_Burst(
                "relabel_group",
                pool_submit(
                    shard_exec.relabel_group_async,
                    worker_cfg,
                    engine._pack_relabel_group(local),
                ),
                recs,
                items=local,
            ))

    # -- drain ---------------------------------------------------------------

    def drain(self, *, wait: bool = False, limit: int | None = None):
        """Collect landed bursts; assemble predictors from their tensors.

        Returns ``(ready, failed)``: *ready* rows are
        ``(record, predictor, relabel_result_or_None)`` for the fleet
        to integrate; *failed* records lost their burst to a broken
        pool (hooks already notified, pool already torn down) and need
        re-queueing. With ``wait=False`` only completed futures are
        touched — the cheap tick-boundary call; ``wait=True`` blocks
        until everything lands (the flush path).

        *limit* bounds how many landed bursts a ``wait=False`` call
        assembles, so the tick-boundary drain has a fixed worst-case
        cost no matter how many futures finished at once; deferred
        bursts stay queued and are picked up on later ticks (their
        streams just replay a few more values at integration).  The
        flush path ignores it.
        """
        ready: list[tuple] = []
        failed: list[_PendingStream] = []
        keep: list[_Burst] = []
        broken = None
        assembled = 0
        for burst in self._bursts:
            if broken is not None:
                # The pool just died under an earlier burst; siblings
                # on the same pool are doomed — fail them now rather
                # than letting each one surface the same corpse.
                failed.extend(burst.records)
                continue
            if not wait and not burst.future.done():
                keep.append(burst)
                continue
            if not wait and limit is not None and assembled >= limit:
                keep.append(burst)
                continue
            try:
                value = burst.future.result()
            except BrokenProcessPool as exc:
                broken = exc
                failed.extend(burst.records)
                continue
            ready.extend(self._assemble(burst, value))
            assembled += 1
        self._bursts = keep
        if broken is not None:
            notify_pool_failure(broken)
            shutdown_persistent_pool()
            for burst in keep:
                failed.extend(burst.records)
            self._bursts = []
        for rec, _, _ in ready:
            self._release(rec)
        for rec in failed:
            self._release(rec)
        return ready, failed

    def _assemble(self, burst: _Burst, value) -> list[tuple]:
        """Build predictors from one landed burst's result tensors.

        The same assembly the synchronous path runs — group fits
        through ``_build_group_predictors``, splice tensors through
        ``_finish_relabel_group`` against the (frozen-parameter, still
        serving) submission predictors — so the models carry the
        synchronous bits before a single replay value is observed.
        """
        engine = self._fleet._get_train_engine()
        if burst.kind == "cold_group":
            predictors = engine._build_group_predictors(
                burst.histories, value
            )
            return [
                (rec, predictor, None)
                for rec, predictor in zip(burst.records, predictors)
            ]
        if burst.kind == "cold_single":
            return [(burst.records[0], value, None)]
        if burst.kind == "relabel_single":
            return [(burst.records[0], value.predictor, value)]
        out: list = [None] * len(burst.items)
        engine._finish_relabel_group(burst.items, value, out)
        return [
            (rec, result.predictor, result)
            for rec, result in zip(burst.records, out)
        ]

    def _track(self, burst: _Burst) -> None:
        self._bursts.append(burst)
        for rec in burst.records:
            self._by_name.setdefault(rec.name, []).append(rec)
            self._count += 1

    def _release(self, rec: _PendingStream) -> None:
        records = self._by_name.get(rec.name)
        if records is None:
            return
        try:
            records.remove(rec)
        except ValueError:
            return
        self._count -= 1
        if not records:
            del self._by_name[rec.name]


def _train_stream_ref():
    """The fleet's per-stream cold-train worker, imported lazily.

    Deferred so this module never imports :mod:`repro.serving.fleet` at
    import time (the fleet imports *us* lazily; a top-level back-import
    would be cycle-prone under direct-import orders).
    """
    from repro.serving.fleet import _train_stream

    return _train_stream
