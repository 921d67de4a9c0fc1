"""The batched fleet tick engine: one tick, a handful of NumPy ops.

:class:`~repro.serving.fleet.PredictionFleet`'s original tick loop ran
every stream through its own Python call chain — per-stream
``prepare_tail``, a single-point k-NN query, a single-frame
``predict_next`` — so a fleet tick cost N interpreter round-trips and
never touched BLAS with more than one row. This engine executes the
same tick *fleet-wide*:

* the trailing windows of all served streams live in one
  ``(n_streams, window + 1)`` matrix, rolled once per tick;
* per-stream z-score coefficients and PCA bases are stacked
  (:mod:`repro.preprocess.stacked`) so normalization is one broadcast
  and feature projection one 3-D ``matmul``;
* every stream's k-NN memory lives in a padded ``(n_streams, capacity,
  d)`` ring (laid out by absolute row index) with cached squared norms,
  so the fleet's N single-point queries become one batched distance
  computation plus one deterministic top-k selection
  (:mod:`repro.learn.topk`). The ring doubles as memories deepen but
  never grows past ``max_memory`` slots, so a full memory overwrites
  the slot of the row it evicts in place; dead slots carry a ``+inf``
  cached norm, which makes their distance ``+inf`` without a per-query
  liveness mask;
* classifier-selected predictors are dispatched *grouped by member*
  (:mod:`repro.predictors.stacked`): LAST, AR, and SW_AVG each run once
  over all streams that selected them;
* every stream's QA error window lives in one ``(n_streams,
  audit_window)`` ring, so the per-tick audits run as vectorized
  kernels (one modulo for the audit boundaries, grouped row-sums for
  the window MSEs) instead of S ``record()`` calls.

Ownership and settling
----------------------
For every stream it serves, the engine's stacked arrays are the only
copy a tick writes: the tail and a journal of the values not yet in
the predictor's history, the labelling ring, the k-NN ring, the QA
ring with its running sum, step and audit journal, and per-row deltas
of the tick, selection, and learned-window counters, plus the pending
forecast the next ingest audits. The per-stream
:class:`~repro.core.online.OnlineLARPredictor`,
:class:`~repro.learn.knn.KNNClassifier` and
:class:`~repro.core.qa.PredictionQualityAssuror` objects fall behind,
and :meth:`BatchedTickEngine.settle` brings them up to date in bulk —
bit-identical to what the per-stream loop would have left. The fleet
settles only where something reads those objects: the retrain
partition (due streams only), a retrain swapping the predictor,
``metrics()``, ``save()``, the registry collectors, ``forecast(name)``,
and every release of a row (``remove_stream``, a KD-tree demotion).

A tick touches per-stream Python only for rows that need it: audits
that breach (the QA latch, ``on_breach``, scheduling) and the streams
the engine does not serve, which keep the per-stream loop. A served
stream that retrains keeps its row: :meth:`BatchedTickEngine.swap`
reloads it in place from the new predictor. Membership changes arrive
as events — :meth:`BatchedTickEngine.notice` for a stream that trained
without a row, :meth:`BatchedTickEngine.release` for one the fleet
takes back — so :meth:`BatchedTickEngine.prepare` costs O(changes),
never a scan. Code outside the fleet that needs to read or
mutate a served stream's objects goes through
:meth:`PredictionFleet.stream_state`, which settles the stream and
hands its row back for a reload before the next tick.

Bit-exactness contract
----------------------
The engine is an execution strategy, not a model change: for every
stream it must produce bit-identical results to the per-stream loop —
same forecasts, same selected labels, same learned memory, same QA
audit history and telemetry counters. Every kernel above was chosen for
that property (elementwise broadcasts, row-wise reductions, stacked
``matmul`` whose slices hit the same BLAS calls, grouped trailing-slice
row-sums that reproduce ``np.mean``'s summation order, and a shared
lexicographic top-k rule for distance ties); the parity suites in
``tests/test_serving_engine.py``, ``tests/test_serving_settle.py`` and
``tests/test_serving_qa_stacked.py`` lock it in.

Eligibility and fallback
------------------------
A trained stream is served by the engine only when its components match
what the stacked kernels cover: the paper pool (LAST/AR/SW_AVG), a
fixed-size (or disabled) PCA, a uniform-weight
:class:`~repro.learn.knn.KNNClassifier` whose backend resolves to
``brute`` (the KD-tree path answers queries through its own traversal
order and is left per-stream; an ``auto`` memory that reaches the
KD-tree size is handed back at the next :meth:`prepare`), a memory cap
equal to the fleet's, and a plain
:class:`~repro.core.qa.PredictionQualityAssuror` with the fleet's audit
geometry. Everything else transparently falls back to the per-stream
loop, stream by stream; :meth:`BatchedTickEngine.fallback_reason`
names why.
"""

from __future__ import annotations

from collections import deque
from time import perf_counter

import numpy as np

from repro.core.larpredictor import Forecast
from repro.core.qa import AuditRecord, PredictionQualityAssuror
from repro.learn.knn import _AUTO_TREE_MAX_DIM, _AUTO_TREE_THRESHOLD, KNNClassifier
from repro.learn.topk import lexicographic_topk
from repro.learn.voting import majority_vote
from repro.predictors.stacked import (
    StackedARParams,
    ar_predict_stacked,
    is_paper_pool,
    paper_pool_predict_all_stacked,
)

__all__ = ["BatchedTickEngine", "FALLBACK_REASONS"]

_POOL_NAMES = ("LAST", "AR", "SW_AVG")
_MIN_ROW_CAPACITY = 4
# Ticks of history values a row journals before they are flushed into
# the predictor's history buffer.
_HISTORY_JOURNAL = 256

#: Why a trained stream is served per-stream instead of by the engine.
FALLBACK_REASONS = (
    "warmup", "kd_tree", "extended_pool", "qa_policy", "max_memory",
    "unsupported_config",
)


def _pow2_at_least(n: int) -> int:
    cap = 1
    while cap < n:
        cap *= 2
    return cap


class _Entry:
    """Engine-side bookkeeping for one served stream."""

    __slots__ = ("name", "state", "predictor", "classifier", "qa", "row")

    def __init__(self, name: str, state, row: int):
        self.name = name
        self.state = state
        self.predictor = state.predictor
        self.classifier = state.predictor._classifier
        self.qa = state.qa
        self.row = row


class BatchedTickEngine:
    """Stacked per-stream state + batched tick kernels for one fleet.

    Rows are handed out to streams as they are noticed (trained,
    retrained, or returned through the fleet's accessor) and taken back
    when released; :meth:`prepare`, called before every batched
    operation, attaches the noticed streams, hands back the demoted
    ones, and keeps the occupied rows dense. Between those events the
    stacked arrays own the streams' serving state (see the module
    docstring) and :meth:`settle` writes it back on demand.
    """

    def __init__(self, fleet) -> None:
        self._fleet = fleet
        cfg = fleet.config
        self._window = cfg.lar.window
        self._k = cfg.lar.k
        self._ar_order = cfg.lar.effective_ar_order
        self._smoothing = cfg.label_smoothing
        self._qa_window = cfg.audit_window
        self._qa_interval = cfg.audit_interval
        self._qa_threshold = float(cfg.qa_threshold)
        # min_variance lets each stream keep a different component
        # count, which cannot be stacked; everything else is uniform.
        self._supported = (
            cfg.lar.min_variance is None and not cfg.lar.extended_pool
        )
        self._n_features = (
            cfg.lar.n_components
            if cfg.lar.n_components is not None
            else self._window
        )
        self._entries: dict[str, _Entry] = {}
        # Row slots; released rows are None until prepare() refills or
        # compacts them.
        self._rows: list[_Entry | None] = []
        self._free: list[int] = []
        self._noticed: dict[str, None] = {}
        self._demoted: list[_Entry] = []
        #: Bumped whenever a stream gains, loses, or moves its row.
        self.layout = 0
        # Audits not yet written to their QA objects: chunks of
        # (rows, steps, window MSEs), in tick order.
        self._audit_log: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        # Per-tick scratch, keyed by call site; _buf returns the cached
        # array whenever the requested shape still matches, so the
        # steady-state tick allocates little.
        self._scratch: dict[str, np.ndarray] = {}
        # Distances are computed over every ring slot, so the ring is
        # only as wide as the live memories need: _grow_memory doubles
        # it as streams accumulate rows, but never past max_memory (the
        # most rows a memory keeps after its learn-time eviction). A
        # full memory then overwrites the slot of the row it evicts.
        # Dead slots hold a +inf cached norm (_mem_bb).
        self._mem_bound = cfg.max_memory
        self._mem_cap = self._ring_width(self._k)
        self._alloc(_MIN_ROW_CAPACITY)
        if self._supported:
            for name, state in fleet._streams.items():
                if state.predictor is not None:
                    self._noticed[name] = None

    # -- storage ------------------------------------------------------------

    def _alloc(self, row_cap: int) -> None:
        w, d, L = self._window, self._n_features, self._smoothing
        cap = self._mem_cap
        self._tails = np.empty((row_cap, w + 1), dtype=np.float64)
        self._mu = np.empty(row_cap, dtype=np.float64)
        self._sigma = np.empty(row_cap, dtype=np.float64)
        self._pmean = np.empty((row_cap, w), dtype=np.float64)
        self._pcomp = np.empty((row_cap, d, w), dtype=np.float64)
        self._ar_phi = np.empty((row_cap, self._ar_order), dtype=np.float64)
        self._ar_mu = np.empty(row_cap, dtype=np.float64)
        # Labelling ring: the last L squared pool errors, oldest first,
        # and how many of them are live.
        self._sqring = np.zeros((row_cap, L, 3), dtype=np.float64)
        self._sqn = np.zeros(row_cap, dtype=np.int64)
        # QA ring: each row holds the stream's audit window oldest-first
        # (zero-padded on the left while warming up), its live pair
        # count, step counter, running sum, and breach latch.
        self._qa_ring = np.zeros((row_cap, self._qa_window), dtype=np.float64)
        self._qa_count = np.zeros(row_cap, dtype=np.int64)
        self._qa_step = np.zeros(row_cap, dtype=np.int64)
        self._qa_sum = np.zeros(row_cap, dtype=np.float64)
        self._qa_due = np.zeros(row_cap, dtype=bool)
        # Dead ring slots flow through the batched distance computation:
        # finite features plus a +inf norm give them a +inf distance.
        self._mem_x = np.zeros((row_cap, cap, d), dtype=np.float64)
        self._mem_y = np.empty((row_cap, cap), dtype=np.int64)
        self._mem_bb = np.full((row_cap, cap), np.inf, dtype=np.float64)
        self._mem_abs = np.full((row_cap, cap), -1, dtype=np.int64)
        self._mem_lo = np.zeros(row_cap, dtype=np.int64)
        self._mem_hi = np.zeros(row_cap, dtype=np.int64)
        self._auto_tree = np.zeros(row_cap, dtype=bool)
        # Unsettled values and counter deltas.
        self._jv = np.empty((row_cap, _HISTORY_JOURNAL), dtype=np.float64)
        self._jn = np.zeros(row_cap, dtype=np.int64)
        self._dticks = np.zeros(row_cap, dtype=np.int64)
        self._dlearned = np.zeros(row_cap, dtype=np.int64)
        self._dsel = np.zeros((row_cap, 3), dtype=np.int64)
        # The forecast the next ingest audits (valid until that ingest).
        self._pend_valid = np.zeros(row_cap, dtype=bool)
        self._pend_value = np.zeros(row_cap, dtype=np.float64)
        self._pend_norm = np.zeros(row_cap, dtype=np.float64)
        self._pend_label = np.ones(row_cap, dtype=np.int64)
        # Rows whose stream state / predictor is behind the arrays.
        self._dirty = np.zeros(row_cap, dtype=bool)
        self._pdirty = np.zeros(row_cap, dtype=bool)

    def _row_arrays(self) -> tuple:
        return (self._tails, self._mu, self._sigma, self._pmean, self._pcomp,
                self._ar_phi, self._ar_mu, self._sqring, self._sqn,
                self._qa_ring, self._qa_count, self._qa_step, self._qa_sum,
                self._qa_due, self._mem_x, self._mem_y, self._mem_bb,
                self._mem_abs, self._mem_lo, self._mem_hi, self._auto_tree,
                self._jv, self._jn, self._dticks, self._dlearned,
                self._dsel,
                self._pend_valid, self._pend_value, self._pend_norm,
                self._pend_label, self._dirty, self._pdirty)

    def _grow_rows(self) -> None:
        old = self._row_arrays()
        n = len(self._rows)
        self._alloc(2 * self._tails.shape[0])
        for dst, src in zip(self._row_arrays(), old):
            dst[:n] = src[:n]

    def _ring_width(self, needed: int) -> int:
        """Ring slots for *needed* live rows: doubled, capped at max_memory.

        Only a classifier mutated outside the fleet can hold more than
        ``max_memory`` live rows; the ring then widens to hold them all.
        """
        width = _pow2_at_least(needed)
        bound = self._mem_bound
        if bound is not None and width > bound:
            width = max(bound, needed)
        return width

    def _grow_memory(self, needed: int) -> None:
        """Widen the memory ring, moving every live row to its new slot."""
        old_x, old_y, old_bb, old_abs = (
            self._mem_x, self._mem_y, self._mem_bb, self._mem_abs
        )
        cap = self._mem_cap = self._ring_width(needed)
        row_cap = self._tails.shape[0]
        self._mem_x = np.zeros((row_cap, cap, self._n_features), dtype=np.float64)
        self._mem_y = np.empty((row_cap, cap), dtype=np.int64)
        self._mem_bb = np.full((row_cap, cap), np.inf, dtype=np.float64)
        self._mem_abs = np.full((row_cap, cap), -1, dtype=np.int64)
        n = len(self._rows)
        live = (old_abs[:n] >= self._mem_lo[:n, None]) & (
            old_abs[:n] < self._mem_hi[:n, None]
        )
        r, s = np.nonzero(live)
        a = old_abs[r, s]
        slots = a % cap
        self._mem_x[r, slots] = old_x[r, s]
        self._mem_y[r, slots] = old_y[r, s]
        self._mem_bb[r, slots] = old_bb[r, s]
        self._mem_abs[r, slots] = a

    def _kill_dead(self, rows) -> None:
        """Give every slot holding a retired row a +inf cached norm."""
        dead = self._mem_abs[rows] < self._mem_lo[rows, None]
        if dead.any():
            bb = self._mem_bb[rows]
            bb[dead] = np.inf
            self._mem_bb[rows] = bb

    def memory_occupancy(self) -> tuple[int, float]:
        """``(ring slots, live rows / (attached rows x slots))``."""
        rows = [e.row for e in self._entries.values()]
        if not rows:
            return self._mem_cap, 0.0
        live = int((self._mem_hi[rows] - self._mem_lo[rows]).sum())
        return self._mem_cap, live / (len(rows) * self._mem_cap)

    def _buf(self, name: str, shape: tuple) -> np.ndarray:
        """A recycled float64 scratch array."""
        buf = self._scratch.get(name)
        if buf is None or buf.shape != shape:
            buf = np.empty(shape, dtype=np.float64)
            self._scratch[name] = buf
        return buf

    @staticmethod
    def _selector(rows: np.ndarray):
        """A basic-indexing slice when *rows* is consecutive, else *rows*.

        Slices make every gather below a zero-copy view; the returned
        selector is only ever used for reads and whole-selection writes
        (pointwise scatters keep the fancy ``rows`` array).
        """
        n = rows.shape[0]
        first = int(rows[0])
        if int(rows[n - 1]) - first == n - 1 and (
            n <= 2 or bool((rows[1:] > rows[:-1]).all())
        ):
            return slice(first, first + n)
        return rows

    @staticmethod
    def _shift_append(arr: np.ndarray, sel, rows: np.ndarray, new) -> None:
        """Roll ``arr[sel]`` one step left along axis 1, appending *new*."""
        if isinstance(sel, slice):
            view = arr[sel]
            view[:, :-1] = view[:, 1:]
            view[:, -1] = new
        else:
            arr[rows, :-1] = arr[rows, 1:]
            arr[rows, -1] = new

    # -- membership ---------------------------------------------------------

    @property
    def n_rows(self) -> int:
        """Rows in use (dense after :meth:`prepare`)."""
        return len(self._rows)

    def serves(self, name: str) -> bool:
        """Whether *name* is currently served by the batched path."""
        return name in self._entries

    def row_of(self, name: str) -> int | None:
        """*name*'s engine row, or ``None`` when it is not served."""
        entry = self._entries.get(name)
        return None if entry is None else entry.row

    def notice(self, name: str) -> None:
        """Queue *name* for (re)attachment at the next :meth:`prepare`."""
        if self._supported:
            self._noticed[name] = None

    def release(self, name: str) -> None:
        """Settle *name*'s objects and free its row (no-op if unserved)."""
        entry = self._entries.get(name)
        if entry is None:
            return
        self._settle_rows(np.array([entry.row], dtype=np.intp))
        del self._entries[name]
        self._rows[entry.row] = None
        self._free.append(entry.row)
        self.layout += 1

    def release_all(self) -> None:
        """Hand every served stream back to the per-stream objects.

        Everything is settled and re-queued, so the next batched
        operation reloads the rows from the objects — the hand-over a
        per-stream (``batched=False``) operation needs.
        """
        if not self._entries:
            return
        self.settle()
        for name in self._entries:
            self._noticed[name] = None
        self._entries.clear()
        self._rows.clear()
        self._free.clear()
        self._audit_log.clear()
        self.layout += 1

    def prepare(self) -> None:
        """Apply the membership events queued since the last call.

        Hands back demoted rows, attaches noticed streams (into freed
        rows first), and compacts whatever rows stay free — O(changes).
        """
        if self._demoted:
            for entry in self._demoted:
                if self._entries.get(entry.name) is entry:
                    self.release(entry.name)
            self._demoted.clear()
        if self._noticed:
            noticed = list(self._noticed)
            self._noticed.clear()
            attached = [
                entry
                for entry in (
                    self._try_attach(name)
                    for name in noticed
                    if name not in self._entries
                )
                if entry is not None
            ]
            if attached:
                self._load_rows(attached)
        if self._free:
            self._compact()

    def _compact(self) -> None:
        """Move the last occupied rows into the free ones below them."""
        rows = self._rows
        free = set(self._free)
        self._free.clear()
        live_n = len(rows) - len(free)
        holes = sorted(r for r in free if r < live_n)
        movers = [r for r in range(live_n, len(rows)) if rows[r] is not None]
        if movers:
            src = np.array(movers, dtype=np.intp)
            dst = np.array(holes, dtype=np.intp)
            for arr in self._row_arrays():
                arr[dst] = arr[src]
            remap = np.arange(len(rows), dtype=np.intp)
            remap[src] = dst
            self._audit_log[:] = [
                (remap[r], s, m) for r, s, m in self._audit_log
            ]
            for s, d in zip(movers, holes):
                entry = rows[s]
                entry.row = d
                rows[d] = entry
        del rows[live_n:]
        self.layout += 1

    def fallback_reason(self, state) -> str | None:
        """Why *state* would be served per-stream (``None``: it would not)."""
        predictor = state.predictor
        if predictor is None:
            return "warmup"
        cfg = self._fleet.config.lar
        if not self._supported:
            return "extended_pool" if cfg.extended_pool else "unsupported_config"
        clf = predictor._classifier
        if type(clf) is not KNNClassifier or clf.weights != "uniform":
            return "unsupported_config"
        if clf._tree is not None or clf._resolve_backend() != "brute":
            return "kd_tree"
        pool = predictor._runner.pool
        if not is_paper_pool(pool):
            return (
                "extended_pool"
                if predictor.config.extended_pool
                else "unsupported_config"
            )
        if pool[1].order != self._ar_order or pool[2].window is not None:
            return "unsupported_config"
        pca = predictor._runner.pipeline.pca
        if pca is None:
            if self._n_features != self._window:
                return "unsupported_config"
        elif pca.components_.shape != (self._n_features, self._window):
            return "unsupported_config"
        # The ring's max_memory bound holds only for memories that
        # evict at the fleet's cap.
        if predictor.max_memory != self._mem_bound:
            return "max_memory"
        # The stacked QA ring shares one geometry across rows, so a
        # stream whose assuror diverges from the fleet policy (or is a
        # subclass with its own behavior) stays on the per-stream loop.
        qa = state.qa
        if (
            type(qa) is not PredictionQualityAssuror
            or qa.audit_window != self._qa_window
            or qa.audit_interval != self._qa_interval
            or qa.threshold != self._qa_threshold
        ):
            return "qa_policy"
        return None

    def _try_attach(self, name: str) -> "_Entry | None":
        """Give *name* a row if it is eligible; the caller loads it."""
        state = self._fleet._streams.get(name)
        if state is None or self.fallback_reason(state) is not None:
            return None
        if self._free:
            self._free.sort()
            row = self._free.pop(0)
        else:
            if len(self._rows) == self._tails.shape[0]:
                self._grow_rows()
            row = len(self._rows)
            self._rows.append(None)
        entry = _Entry(name, state, row)
        self._rows[row] = entry
        self._entries[name] = entry
        self.layout += 1
        return entry

    def swap(self, names, *, params) -> list:
        """Reload the rows of *names* in place from their new predictors.

        The retrain swap: the fleet settles each row's stream state,
        installs the (re)trained predictor, acknowledges the QA, and
        hands the whole round here instead of a release/notice/attach
        round trip per stream — the rows keep their slots, the engine
        layout is unchanged, and only what a retrain replaces is
        reloaded, for all rows at once: the tail, the labelling, memory
        and QA rings, the pending flag, and for the names whose
        *params* flag is set (cold fits) the normalizer, PCA and AR
        rows too. A relabel keeps the frozen parameters bitwise, so
        its parameter rows stay as they are. The result equals a fresh
        attach of each stream.

        Returns the names that keep no row: the unserved ones (the
        caller notices them for a later attach) and any whose new
        memory would resolve to the KD-tree backend (released here).
        Every other eligibility condition is a fleet-wide property the
        old predictor already met and a predictor built from the fleet
        config shares.
        """
        rowless = []
        entries = []
        refit = []
        for name, cold in zip(names, params):
            old = self._entries.get(name)
            if old is None:
                rowless.append(name)
                continue
            state = old.state
            if state.predictor._classifier._resolve_backend() != "brute":
                self.release(name)
                rowless.append(name)
                continue
            # A fresh entry, so a demotion queued for the old memory
            # cannot hand the new one back.
            entry = _Entry(name, state, old.row)
            self._rows[old.row] = entry
            self._entries[name] = entry
            (refit if cold else entries).append(entry)
        if refit:
            self._load_rows(refit)
        if entries:
            self._load_rows(entries, params=False)
        return rowless

    def _load_rows(self, entries: list, *, params: bool = True) -> None:
        """Load streams' objects into their rows, in bulk (attach and
        swap); ``params=False`` keeps the parameter rows."""
        rows = np.array([e.row for e in entries], dtype=np.intp)
        predictors = [e.predictor for e in entries]
        if params:
            pipelines = [p._runner.pipeline for p in predictors]
            self._mu[rows] = [pl.normalizer.mean for pl in pipelines]
            self._sigma[rows] = [pl.normalizer.std for pl in pipelines]
            if pipelines[0].pca is not None:
                self._pmean[rows] = np.stack(
                    [pl.pca.mean_ for pl in pipelines]
                )
                self._pcomp[rows] = np.stack(
                    [pl.pca.components_ for pl in pipelines]
                )
            ars = [p._runner.pool[1] for p in predictors]
            self._ar_phi[rows] = np.stack([ar.coefficients_ for ar in ars])
            self._ar_mu[rows] = [ar.mean_ for ar in ars]
        w, L = self._window, self._smoothing
        self._tails[rows] = np.stack([p._tail(w + 1) for p in predictors])
        self._sqring[rows] = 0.0
        counts = [len(p._recent_sq) for p in predictors]
        self._sqn[rows] = counts
        for row, p, count in zip(rows.tolist(), predictors, counts):
            if count:
                self._sqring[row, L - count :] = np.stack(
                    list(p._recent_sq), axis=0
                )
        self._reload_qa(entries, rows)
        self._reload_memory(entries, rows)
        small = self._n_features <= _AUTO_TREE_MAX_DIM
        self._auto_tree[rows] = [
            small and e.classifier.algorithm == "auto" for e in entries
        ]
        for arr in (self._jn, self._dticks, self._dlearned, self._dsel):
            arr[rows] = 0
        self._dirty[rows] = False
        self._pdirty[rows] = False
        self._pend_valid[rows] = False
        for e in entries:
            state = e.state
            pending = state.pending
            if (
                pending is not None
                and state.pending_at == e.predictor.history_length
            ):
                row = e.row
                self._pend_valid[row] = True
                self._pend_value[row] = pending.value
                self._pend_norm[row] = pending.normalized_value
                self._pend_label[row] = pending.predictor_label

    def note_pending(self, name: str, fc: Forecast) -> None:
        """Adopt a per-stream forecast as *name*'s pending one."""
        entry = self._entries.get(name)
        if entry is None:
            return
        row = entry.row
        self._pend_valid[row] = True
        self._pend_value[row] = fc.value
        self._pend_norm[row] = fc.normalized_value
        self._pend_label[row] = fc.predictor_label

    # -- memory and QA loads --------------------------------------------------

    def _reload_memory(self, entries: list, rows: np.ndarray) -> None:
        """Load the memories of *entries* (rows *rows*) into the ring."""
        clfs = [e.classifier for e in entries]
        lo = np.array([c.discarded_total_ for c in clfs], dtype=np.int64)
        hi = np.array([c.appended_total_ for c in clfs], dtype=np.int64)
        lengths = hi - lo
        if int(lengths.max()) > self._mem_cap:
            self._grow_memory(int(lengths.max()))
        X = np.concatenate([c._X for c in clfs])
        # Absolute index of every stacked row, and its row and slot.
        offsets = np.cumsum(lengths) - lengths
        abs_idx = np.arange(X.shape[0], dtype=np.int64) + np.repeat(
            lo - offsets, lengths
        )
        owner = np.repeat(rows, lengths)
        slots = abs_idx % self._mem_cap
        self._mem_abs[rows] = -1
        self._mem_abs[owner, slots] = abs_idx
        self._mem_bb[rows] = np.inf
        self._mem_x[owner, slots] = X
        self._mem_y[owner, slots] = np.concatenate([c._y for c in clfs])
        self._mem_bb[owner, slots] = np.einsum("ij,ij->i", X, X)
        self._mem_lo[rows] = lo
        self._mem_hi[rows] = hi

    def _reload_qa(self, entries: list, rows: np.ndarray) -> None:
        """Load the QA error windows of *entries* into the stacked ring."""
        qas = [e.qa for e in entries]
        w = self._qa_window
        counts = [len(qa._sq_errors) for qa in qas]
        self._qa_ring[rows] = 0.0
        for row, qa, count in zip(rows.tolist(), qas, counts):
            if count:
                self._qa_ring[row, w - count :] = qa._sq_errors
        self._qa_count[rows] = counts
        self._qa_step[rows] = [qa._step for qa in qas]
        self._qa_sum[rows] = [qa._sq_sum for qa in qas]
        self._qa_due[rows] = [qa._retraining_due for qa in qas]

    # -- settling -------------------------------------------------------------

    def settle(self, names=None, *, predictors: bool = True) -> None:
        """Bring the per-stream objects of *names* (all when ``None``)
        up to date with the stacked state, in bulk.

        ``predictors=False`` settles the stream state, QA, and history
        but leaves each predictor's classifier memory, labelling window
        and learned count for a later settle — what a retrain partition
        needs of streams whose predictors it is about to replace.
        """
        if names is None:
            n = len(self._rows)
            stale = self._dirty[:n] | self._pdirty[:n] if predictors else (
                self._dirty[:n]
            )
            rows = [r for r in np.flatnonzero(stale).tolist()
                    if self._rows[r] is not None]
        else:
            entries = self._entries
            dirty = self._dirty
            pdirty = self._pdirty if predictors else dirty
            rows = [
                row
                for row in (entries[n].row for n in names if n in entries)
                if dirty[row] or pdirty[row]
            ]
        if rows:
            self._settle_rows(
                np.array(rows, dtype=np.intp), predictors=predictors
            )

    def _take_audits(self, rows: np.ndarray) -> dict:
        """Pop the journaled audits of *rows*: ``{row: [AuditRecord]}``."""
        log = self._audit_log
        if not log:
            return {}
        if len(log) > 1:
            log[:] = [tuple(np.concatenate(parts) for parts in zip(*log))]
        log_rows, steps, mses = log[0]
        mask = np.zeros(len(self._rows), dtype=bool)
        mask[rows] = True
        take = mask[log_rows]
        if not take.any():
            return {}
        keep = ~take
        if keep.any():
            log[0] = (log_rows[keep], steps[keep], mses[keep])
        else:
            log.clear()
        r = log_rows[take]
        order = np.argsort(r, kind="stable")
        r = r[order]
        thr = self._qa_threshold
        records = [
            AuditRecord(step, mse, mse > thr)
            for step, mse in zip(
                steps[take][order].tolist(), mses[take][order].tolist()
            )
        ]
        cuts = (np.flatnonzero(r[1:] != r[:-1]) + 1).tolist()
        starts = [0, *cuts]
        ends = [*cuts, len(records)]
        return {
            row: records[a:b]
            for row, a, b in zip(r[starts].tolist(), starts, ends)
        }

    def _settle_rows(self, rows: np.ndarray, *, predictors: bool = True) -> None:
        stale = self._dirty[rows]
        if predictors:
            stale |= self._pdirty[rows]
        rows = rows[stale]
        if not rows.size:
            return
        tel = self._fleet._tel
        t0 = perf_counter() if tel is not None else 0.0
        audits = self._take_audits(rows)
        w, L, cap = self._qa_window, self._smoothing, self._mem_cap
        jn = self._jn[rows].tolist()
        dticks = self._dticks[rows].tolist()
        dlearned = self._dlearned[rows].tolist() if predictors else None
        sqn = self._sqn[rows].tolist()
        qa_count = self._qa_count[rows].tolist()
        qa_step = self._qa_step[rows].tolist()
        qa_sum = self._qa_sum[rows].tolist()
        lo = self._mem_lo[rows].tolist()
        hi = self._mem_hi[rows].tolist()
        dsel = self._dsel[rows].tolist()
        valid = self._pend_valid[rows].tolist()
        p_value = self._pend_value[rows].tolist()
        p_norm = self._pend_norm[rows].tolist()
        p_label = self._pend_label[rows].tolist()
        for j, r in enumerate(rows.tolist()):
            entry = self._rows[r]
            predictor = entry.predictor
            state = entry.state
            if jn[j]:
                predictor._history.extend(self._jv[r, : jn[j]])
            state.ticks += dticks[j]
            if predictors:
                if dlearned[j]:
                    predictor._windows_learned += dlearned[j]
                    recent = predictor._recent_sq
                    recent.clear()
                    recent.extend(self._sqring[r, L - sqn[j] :].copy())
                clf = entry.classifier
                if hi[j] != clf._appended or lo[j] != clf._discarded:
                    slots = np.arange(max(clf._appended, lo[j]), hi[j]) % cap
                    clf.sync_rows(
                        self._mem_x[r, slots], self._mem_y[r, slots],
                        lo[j], hi[j],
                    )
            qa = entry.qa
            if qa_step[j] != qa._step:
                qa.version += qa_step[j] - qa._step
                qa._step = qa_step[j]
                qa._sq_errors = deque(
                    self._qa_ring[r, w - qa_count[j] :].tolist(), maxlen=w
                )
                qa._sq_sum = qa_sum[j]
            records = audits.get(r)
            if records:
                qa.audits.extend(records)
                qa.audits_total += len(records)
                qa.breaches_total += sum(a.breached for a in records)
            counts = dsel[j]
            if any(counts):
                selections = state.selections
                for name, c in zip(_POOL_NAMES, counts):
                    if c:
                        selections[name] = selections.get(name, 0) + c
            if valid[j]:
                label = p_label[j]
                state.pending = Forecast(
                    p_value[j], p_norm[j], label, _POOL_NAMES[label - 1]
                )
                state.pending_at = len(predictor._history)
            else:
                state.pending = None
        self._jn[rows] = 0
        self._dticks[rows] = 0
        self._dsel[rows] = 0
        self._dirty[rows] = False
        if predictors:
            self._dlearned[rows] = 0
            self._pdirty[rows] = False
        if tel is not None:
            tel.tracer.record(
                "tick.settle", perf_counter() - t0, batch=rows.size, start=t0
            )

    def _flush_history(self, rows: np.ndarray) -> None:
        """Move full history journals into the predictors' histories."""
        for r in rows.tolist():
            self._rows[r].predictor._history.extend(self._jv[r])
        self._jn[rows] = 0

    # -- batched kernels ----------------------------------------------------

    def _classify(self, sel, feats: np.ndarray) -> np.ndarray:
        """Batched k-NN majority vote: one label per selected row."""
        mem_x = self._mem_x[sel]
        n, cap = feats.shape[0], mem_x.shape[1]
        aa = self._buf("aa", (n,))
        np.einsum("ij,ij->i", feats, feats, out=aa)
        cross3 = self._buf("cross3", (n, 1, cap))
        np.matmul(feats[:, None, :], mem_x.transpose(0, 2, 1), out=cross3)
        cross = cross3[:, 0, :]
        d2 = self._buf("d2", (n, cap))
        np.add(aa[:, None], self._mem_bb[sel], out=d2)
        np.multiply(cross, 2.0, out=cross)
        np.subtract(d2, cross, out=d2)
        np.maximum(d2, 0.0, out=d2)
        _, slots = lexicographic_topk(d2, self._k, tie_keys=self._mem_abs[sel])
        neighbor_labels = np.take_along_axis(self._mem_y[sel], slots, axis=1)
        return majority_vote(neighbor_labels)

    def _features(self, sel, frames: np.ndarray) -> np.ndarray:
        """Stacked PCA projection (or the frames themselves, PCA off)."""
        if self._n_features == self._window:
            if frames.flags.c_contiguous:
                return frames
            feats = self._buf("feats_copy", frames.shape)
            np.copyto(feats, frames)
            return feats
        n = frames.shape[0]
        centered = self._buf("centered", (n, self._window))
        np.subtract(frames, self._pmean[sel], out=centered)
        comp_t = self._pcomp[sel].transpose(0, 2, 1)
        feats3 = self._buf("feats3", (n, 1, self._n_features))
        np.matmul(centered[:, None, :], comp_t, out=feats3)
        return feats3[:, 0, :]

    def _pool_dispatch(
        self, sel, frames: np.ndarray, labels: np.ndarray
    ) -> np.ndarray:
        """Run each selected pool member once over its group of rows."""
        normalized = self._buf("normalized", (frames.shape[0],))
        ar_rows = labels == 2
        if ar_rows.any():
            ar = StackedARParams(
                self._ar_phi[sel][ar_rows], self._ar_mu[sel][ar_rows]
            )
            normalized[ar_rows] = ar_predict_stacked(frames[ar_rows], ar)
        last_rows = labels == 1
        if last_rows.any():
            normalized[last_rows] = frames[last_rows][:, -1]
        sw_rows = labels == 3
        if sw_rows.any():
            normalized[sw_rows] = frames[sw_rows].mean(axis=1)
        return normalized

    def _forecast_rows(
        self, sel, n: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(values, normalized values, labels) for the *n* selected rows."""
        tel = self._fleet._tel
        tracer = tel.tracer if tel is not None else None
        mu = self._mu[sel]
        sigma = self._sigma[sel]
        if tracer is None:
            frames = self._buf("frames", (n, self._window))
            np.subtract(self._tails[sel, 1:], mu[:, None], out=frames)
            np.divide(frames, sigma[:, None], out=frames)
            feats = self._features(sel, frames)
            labels = self._classify(sel, feats)
            normalized = self._pool_dispatch(sel, frames, labels)
        else:
            t0 = perf_counter()
            frames = self._buf("frames", (n, self._window))
            np.subtract(self._tails[sel, 1:], mu[:, None], out=frames)
            np.divide(frames, sigma[:, None], out=frames)
            t1 = perf_counter()
            tracer.record("tick.zscore", t1 - t0, n, start=t0)
            feats = self._features(sel, frames)
            t2 = perf_counter()
            tracer.record("tick.pca_project", t2 - t1, n, start=t1)
            labels = self._classify(sel, feats)
            t3 = perf_counter()
            tracer.record("tick.knn_query", t3 - t2, n, start=t2)
            normalized = self._pool_dispatch(sel, frames, labels)
            tracer.record(
                "tick.pool_dispatch", perf_counter() - t3, n, start=t3
            )
        values = self._buf("values", (n,))
        np.multiply(normalized, sigma, out=values)
        np.add(values, mu, out=values)
        return values, normalized, labels

    def _order(self, rows: np.ndarray, full: bool):
        """``(processing rows, selector)`` for an item-ordered row array.

        *full* says *rows* is a permutation of every occupied row; the
        kernels then run over all rows in storage order (zero-copy
        views) and results are permuted back to item order.
        """
        if full:
            n = rows.shape[0]
            return np.arange(n, dtype=np.intp), slice(0, n)
        return rows, self._selector(rows)

    # -- fleet-facing operations --------------------------------------------

    def forecast_rows(
        self, rows: np.ndarray, *, full: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Forecast the item-ordered *rows*; each becomes its row's
        pending forecast. Returns ``(values, normalized, labels)`` in
        item order."""
        n = rows.shape[0]
        _, sel = self._order(rows, full)
        values, normalized, labels = self._forecast_rows(sel, n)
        self._pend_value[sel] = values
        self._pend_norm[sel] = normalized
        self._pend_label[sel] = labels
        self._pend_valid[sel] = True
        self._dirty[sel] = True
        if full:
            return values[rows], normalized[rows], labels[rows]
        return values.copy(), normalized.copy(), labels

    def ingest_rows(
        self, rows: np.ndarray, values: np.ndarray, *, full: bool
    ) -> tuple[np.ndarray, list[int]]:
        """Batched trained-stream ingest: audit, learn, latch breaches.

        *rows* and *values* are item-ordered. Returns the learned labels
        (item order) and the sorted item indices whose QA is latched
        due — the streams the fleet must schedule. Leaves the stacked
        state exactly where the per-stream loop in
        :meth:`PredictionFleet.ingest` leaves the objects.
        """
        fleet = self._fleet
        tracer = fleet._tel.tracer if fleet._tel is not None else None
        t0 = perf_counter() if tracer is not None else 0.0
        n = rows.shape[0]
        proc, sel = self._order(rows, full)
        if full:
            ordered = self._buf("row_values", (n,))
            ordered[rows] = values
            values = ordered
        if int(self._jn[sel].max()) >= _HISTORY_JOURNAL:
            self._flush_history(proc[self._jn[sel] >= _HISTORY_JOURNAL])
        mu = self._mu[sel]
        sigma = self._sigma[sel]

        # 1. Audit the forecast that predicted this tick. Rows without a
        # valid pending forecast get it recomputed in one batched pass,
        # exactly like the loop's inline predictor.forecast().
        pending = self._buf("pending", (n,))
        np.copyto(pending, self._pend_norm[sel])
        plabels = self._pend_label[sel].copy()
        valid = self._pend_valid[sel]
        if not valid.all():
            stale = np.flatnonzero(~valid)
            srows = proc[stale]
            _, stale_norm, stale_labels = self._forecast_rows(
                self._selector(srows), stale.size
            )
            pending[stale] = stale_norm
            plabels[stale] = stale_labels
        observed = self._buf("observed", (n,))
        np.subtract(values, mu, out=observed)
        np.divide(observed, sigma, out=observed)
        sq = self._buf("qa_sq", (n,))
        np.subtract(pending, observed, out=sq)
        if not np.isfinite(sq).all():
            self._raise_non_finite(rows, full, pending, observed)
        np.multiply(sq, sq, out=sq)
        self._record_audits(sel, proc, sq, full, rows)
        self._dsel[proc, plabels - 1] += 1
        self._pend_valid[sel] = False
        if tracer is not None:
            t1 = perf_counter()
            tracer.record("tick.audit", t1 - t0, batch=n, start=t0)

        # 2. Journal the values and advance the stacked tails.
        jn = self._jn[sel]
        self._jv[proc, jn] = values
        self._jn[sel] += 1
        self._shift_append(self._tails, sel, proc, values)
        if tracer is not None:
            t2 = perf_counter()
            tracer.record("tick.window_stack", t2 - t1, batch=n, start=t1)

        # 3. Label the completed windows: stacked pool errors, trailing
        # smoothed MSE argmin (chronological ring slices keep the
        # summation order of the per-stream deque stack).
        w = self._window
        z = self._buf("z", (n, w + 1))
        np.subtract(self._tails[sel], mu[:, None], out=z)
        np.divide(z, sigma[:, None], out=z)
        frames, targets = z[:, :w], z[:, w]
        ar = StackedARParams(self._ar_phi[sel], self._ar_mu[sel])
        errors = paper_pool_predict_all_stacked(frames, ar) - targets[:, None]
        np.multiply(errors, errors, out=errors)
        L = self._smoothing
        ring = self._sqring
        self._shift_append(ring, sel, proc, errors)
        counts = np.minimum(self._sqn[sel] + 1, L)
        self._sqn[sel] = counts
        sums = self._buf("sums", (n, 3))
        ring_sel = ring[sel]
        for count in np.unique(counts).tolist():
            grp = counts == count
            sums[grp] = ring_sel[grp, L - count :, :].sum(axis=1)
        labels = np.argmin(sums, axis=1).astype(np.int64) + 1
        if tracer is not None:
            t3 = perf_counter()
            tracer.record("tick.label_pool", t3 - t2, batch=n, start=t2)

        # 4. Learn: write the (feature, label) pair into each ring. The
        # ring must hold each memory's rows after its eviction, at most
        # max_memory: a full memory writes into the slot it evicts.
        feats = self._features(sel, frames)
        hi = self._mem_hi[sel]
        lo = self._mem_lo[sel]
        bound = self._mem_bound
        needed = int((hi - lo).max()) + 1
        if bound is not None:
            needed = min(needed, bound)
        if needed > self._mem_cap:
            self._grow_memory(needed)
        slots = hi % self._mem_cap
        self._mem_x[proc, slots] = feats
        self._mem_y[proc, slots] = labels
        self._mem_abs[proc, slots] = hi
        self._mem_bb[proc, slots] = np.einsum("ij,ij->i", feats, feats)
        hi = hi + 1
        self._mem_hi[sel] = hi
        if bound is not None:
            lo = np.maximum(lo, hi - bound)
            self._mem_lo[sel] = lo
            if self._mem_cap > bound:
                # Only a ring widened past max_memory (see _ring_width)
                # can keep an evicted row in a slot no new row overwrote.
                self._kill_dead(proc)
        auto = self._auto_tree[sel]
        if auto.any():
            grown = auto & (hi - lo >= _AUTO_TREE_THRESHOLD)
            for r in proc[grown].tolist():
                self._demoted.append(self._rows[r])
        self._dticks[sel] += 1
        self._dlearned[sel] += 1
        self._dirty[sel] = True
        self._pdirty[sel] = True
        due = np.flatnonzero(self._qa_due[sel])
        if due.size and full:
            due = np.sort(self._item_index(rows)[due])
        if tracer is not None:
            tracer.record(
                "tick.memory_learn", perf_counter() - t3, batch=n, start=t3
            )
        return (labels[rows] if full else labels), due.tolist()

    @staticmethod
    def _item_index(rows: np.ndarray) -> np.ndarray:
        """Inverse of a full item-order permutation: row -> item index."""
        inv = np.empty(rows.shape[0], dtype=np.intp)
        inv[rows] = np.arange(rows.shape[0], dtype=np.intp)
        return inv

    def _record_audits(self, sel, proc, sq, full, rows) -> None:
        """Record one (prediction, observation) pair per selected row.

        Bit-identical to ``qa.record`` per stream: the running sum
        replays the per-record subtract/add, the audit boundary is one
        modulo over the stacked step counters, and window MSEs are
        grouped trailing-slice row-sums over the ring (the summation
        order ``np.mean`` uses over the deque). Audits go to the
        journal; only breaching rows touch their QA objects.
        """
        w = self._qa_window
        ring = self._qa_ring
        qa_sum = self._qa_sum[sel]
        evicted = np.where(
            self._qa_count[sel] == w, qa_sum - ring[sel, 0], qa_sum
        )
        np.add(evicted, sq, out=evicted)
        self._qa_sum[sel] = evicted
        self._shift_append(ring, sel, proc, sq)
        counts = np.minimum(self._qa_count[sel] + 1, w)
        self._qa_count[sel] = counts
        steps = self._qa_step[sel] + 1
        self._qa_step[sel] = steps
        audited = np.flatnonzero(steps % self._qa_interval == 0)
        if not audited.size:
            return
        ring_sel = ring[sel]
        mses = np.empty(audited.size, dtype=np.float64)
        acounts = counts[audited]
        for count in np.unique(acounts).tolist():
            grp = acounts == count
            # Trailing slices of fancy-selected rows are contiguous
            # copies, so this row-sum reduces each window in the exact
            # order np.mean reduces the per-stream deque.
            mses[grp] = ring_sel[audited[grp], w - count :].sum(axis=1) / count
        arows = proc[audited]
        asteps = steps[audited]
        self._audit_log.append((arows, asteps, mses))
        breached = np.flatnonzero(mses > self._qa_threshold)
        if full and breached.size > 1:
            # Latch, call back, and narrate in item order.
            breached = breached[
                np.argsort(self._item_index(rows)[arows[breached]])
            ]
        narrated = self._note_breaches(
            arows[breached].tolist(), asteps[breached].tolist(),
            mses[breached].tolist(),
        )
        if self._fleet._tel is not None:
            self._fleet._note_audits_batch(narrated, audited.size)

    def _note_breaches(self, rows, steps, mses) -> list:
        """Latch each breaching row's QA and run its breach callback.

        Returns the ``(stream, audit)`` pairs for the fleet's telemetry.
        """
        narrated = []
        for r, step, mse in zip(rows, steps, mses):
            entry = self._rows[r]
            qa = entry.qa
            record = AuditRecord(step, mse, True)
            qa._retraining_due = True
            self._qa_due[r] = True
            if qa.on_breach is not None:
                # The callback sees the QA exactly as qa.record leaves it.
                self._dirty[r] = True
                self._settle_rows(np.array([r], dtype=np.intp))
                qa.on_breach(record)
            narrated.append((entry.name, record))
        return narrated

    def _raise_non_finite(self, rows, full, pending, observed) -> None:
        """Replay a non-finite audit exactly like the per-stream loop:
        records land in item order until the offending pair raises."""
        entries = [self._rows[r] for r in rows.tolist()]
        self.release_all()
        for i, entry in enumerate(entries):
            j = int(rows[i]) if full else i
            entry.qa.record(float(pending[j]), float(observed[j]))
        raise AssertionError("finite errors must have raised")  # pragma: no cover
