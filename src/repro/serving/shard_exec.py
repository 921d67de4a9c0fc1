"""Worker-side kernels for shared-memory sharded training bursts.

Everything in this module runs inside the persistent worker pool. The
parent (:meth:`BatchedTrainEngine._train_group_sharded` /
``_relabel_group_sharded``) pickles only the tiny task records below —
a frozen config, :class:`~repro.parallel.shm.ArraySpec` descriptors,
and row bounds. Workers attach to the arenas, run the same in-process
kernel chain (:meth:`BatchedTrainEngine._compute_train_group` /
``_compute_relabel_group``) on their row slice, and memcpy the fitted
tensors into the matching rows of the output arena, so the result path
carries no pickles either.

Each worker keeps one :class:`BatchedTrainEngine` alive between tasks
(keyed by config equality): the engine's recycled scratch tensors are
exactly as valuable across a storm's bursts in a worker as they are in
the parent. Workers never shard recursively — their engines are built
with sharding off.

Each task returns a :class:`ShardResult`: the worker-measured wall
seconds, which the parent records as a ``train.shard`` span (measuring
in the parent would fold queue wait into the span on an oversubscribed
pool), plus the worker's own per-phase span records. Workers time their
kernel phases with a :class:`PhaseCollector` — a tracer-shaped buffer
whose records carry offsets from the task start, so the parent can
re-anchor them onto its own ``perf_counter()`` timebase and merge them
into the registry and flight ring under ``shard=N`` labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import NamedTuple

from repro.core.relabel import SplicePlan
from repro.obs.events import NULL_EVENT_LOG
from repro.obs.registry import NULL_REGISTRY
from repro.parallel import shm
from repro.parallel.shm import ArraySpec
from repro.serving.trainer import BatchedTrainEngine

__all__ = [
    "WorkerConfig",
    "TrainShardTask",
    "RelabelShardTask",
    "ShardResult",
    "PhaseCollector",
    "train_shard",
    "relabel_shard",
    "train_group_async",
    "relabel_group_async",
]


class ShardResult(NamedTuple):
    """What one worker task ships back to the parent.

    ``phases`` rows are ``(name, offset, duration, batch)`` — *offset*
    is seconds from the task start on the worker's clock, so the parent
    places the record at ``task_start_parent + offset`` after anchoring
    the task by its total duration.
    """

    seconds: float
    phases: tuple


class _CollectorSpan:
    """Context manager timing one worker-side phase."""

    __slots__ = ("_collector", "name", "batch", "_t0")

    def __init__(self, collector: "PhaseCollector", name: str, batch):
        self._collector = collector
        self.name = name
        self.batch = batch
        self._t0 = 0.0

    def set_batch(self, batch: int) -> None:
        self.batch = batch

    def __enter__(self) -> "_CollectorSpan":
        self._t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        now = perf_counter()
        self._collector.phases.append(
            (
                self.name,
                self._t0 - self._collector.started,
                now - self._t0,
                self.batch,
            )
        )


class PhaseCollector:
    """Tracer-shaped buffer of ``(name, offset, duration, batch)`` rows.

    Quacks enough like :class:`~repro.obs.tracing.Tracer` for the
    engine kernels' ``span()`` / ``record()`` call sites; costs one
    clock read per phase edge and one tuple append per phase.
    """

    __slots__ = ("started", "phases")

    def __init__(self, started: float) -> None:
        self.started = started
        self.phases: list = []

    def span(self, name: str, *, batch=None) -> _CollectorSpan:
        return _CollectorSpan(self, name, batch)

    def record(self, name, seconds, batch=None, *, start=None) -> None:
        offset = (
            (start - self.started)
            if start is not None
            else (perf_counter() - seconds - self.started)
        )
        self.phases.append((name, offset, seconds, batch))


class _WorkerTelemetry:
    """The telemetry shape the engine kernels see inside a worker.

    Only the tracer is live (the collector); registry and events are
    the shared null objects — a worker has no scrape surface, and the
    parent narrates dispatch/completion itself.
    """

    __slots__ = ("tracer",)

    enabled = True
    registry = NULL_REGISTRY
    events = NULL_EVENT_LOG
    flight = None

    def __init__(self, collector: PhaseCollector) -> None:
        self.tracer = collector


@dataclass(frozen=True)
class WorkerConfig:
    """The slice of a fleet config the compute kernels actually read.

    ``max_memory`` sets how many of each stream's newest memory rows
    the kernels build features for; ``history_limit`` stays behind in
    the parent — it only matters when predictors are assembled, which
    never happens in a worker.
    """

    lar: object
    label_smoothing: int
    max_memory: int | None


@dataclass(frozen=True)
class TrainShardTask:
    config: WorkerConfig
    inputs: dict[str, ArraySpec]
    outputs: dict[str, ArraySpec]
    lo: int
    hi: int


@dataclass(frozen=True)
class RelabelShardTask:
    config: WorkerConfig
    inputs: dict[str, ArraySpec]
    outputs: dict[str, ArraySpec]
    lo: int
    hi: int
    plan: SplicePlan | None
    sw_window: int


_cached_engine: tuple[WorkerConfig, BatchedTrainEngine] | None = None


def _engine(config: WorkerConfig) -> BatchedTrainEngine:
    """This worker's engine for *config* (rebuilt only when it changes)."""
    global _cached_engine
    if _cached_engine is not None and _cached_engine[0] == config:
        return _cached_engine[1]
    engine = BatchedTrainEngine(config)
    _cached_engine = (config, engine)
    return engine


def train_shard(task: TrainShardTask) -> ShardResult:
    """Train rows ``[lo, hi)`` of a stacked group in place."""
    started = perf_counter()
    engine = _engine(task.config)
    collector = PhaseCollector(started)
    engine._tel = _WorkerTelemetry(collector)
    rows = slice(task.lo, task.hi)
    try:
        return _train_shard_body(task, engine, rows, started, collector)
    finally:
        engine._tel = None


def _train_shard_body(task, engine, rows, started, collector) -> ShardResult:
    with shm.attach() as attachment:
        histories = attachment.array(task.inputs["histories"])[rows]
        fit = engine._compute_train_group(histories)
        for key, spec in task.outputs.items():
            attachment.array(spec)[rows] = getattr(fit, key)
    return ShardResult(perf_counter() - started, tuple(collector.phases))


def train_group_async(config: WorkerConfig, histories) -> object:
    """Train one pickled history stack; the asynchronous burst unit.

    Unlike :func:`train_shard` there is no arena: the asynchronous
    pipeline overlaps training with serving ticks, so the burst's
    inputs/outputs cross the pool boundary as ordinary pickles (the
    returned :class:`~repro.serving.trainer.GroupFit` is pure ndarrays).
    Runs the exact in-process kernel chain, so the fitted tensors carry
    the synchronous burst's bits; scratch-buffer aliasing inside the
    worker is safe because pickling the result copies every tensor.
    """
    return _engine(config)._compute_train_group(histories)


def relabel_group_async(config: WorkerConfig, inputs) -> tuple:
    """Relabel one packed group; the asynchronous splice-burst unit.

    *inputs* is a :class:`~repro.serving.trainer.RelabelGroupInputs`
    snapshot taken at submission time. Returns the raw
    ``(sq, labels, counts, rows)`` tuple for the parent to assemble
    into predictors at drain.
    """
    return _engine(config)._compute_relabel_group(
        inputs.histories,
        inputs.norm_means,
        inputs.norm_stds,
        inputs.ar_phi,
        inputs.ar_means,
        inputs.plan,
        inputs.cached_sq,
        inputs.cached_labels,
        inputs.sw_window,
        inputs.pca_means,
        inputs.pca_components,
    )


def relabel_shard(task: RelabelShardTask) -> ShardResult:
    """Relabel rows ``[lo, hi)`` of a grouped splice burst in place."""
    started = perf_counter()
    engine = _engine(task.config)
    collector = PhaseCollector(started)
    engine._tel = _WorkerTelemetry(collector)
    rows = slice(task.lo, task.hi)
    try:
        return _relabel_shard_body(task, engine, rows, started, collector)
    finally:
        engine._tel = None


def _relabel_shard_body(task, engine, rows, started, collector) -> ShardResult:
    with shm.attach() as attachment:

        def arr(key: str):
            return attachment.array(task.inputs[key])[rows]

        pca_means = pca_components = None
        if "pca_means" in task.inputs:
            pca_means = arr("pca_means")
            pca_components = arr("pca_components")
        cached_sq = cached_labels = None
        if task.plan is not None:
            # relabel_group takes per-stream rows; views into the
            # stacked cache slices carry the same values the parent
            # sliced out of each stream's CachedLabels tail.
            cached_sq = list(arr("cached_sq"))
            cached_labels = list(arr("cached_labels"))
        computed = engine._compute_relabel_group(
            arr("histories"),
            arr("norm_means"),
            arr("norm_stds"),
            arr("ar_phi"),
            arr("ar_means"),
            task.plan,
            cached_sq,
            cached_labels,
            task.sw_window,
            pca_means,
            pca_components,
        )
        for key, value in zip(("sq", "labels", "counts", "rows"), computed):
            attachment.array(task.outputs[key])[rows] = value
    return ShardResult(perf_counter() - started, tuple(collector.phases))
