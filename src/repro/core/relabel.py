"""Incremental relabelling under frozen pipeline parameters.

A QA-ordered retrain refits *everything* — normalizer, AR, PCA — on the
stream's recent tail. But successive retrains of the same stream refit
on windows that overlap heavily, and the labelling pass (the
``(n_frames, 3)`` pool-error tensor plus the smoothed argmin) is paid
in full each time for frames that were already labelled last storm.

The labels of a frame depend on the normalizer coefficients and the AR
fit, both of which *change* with every refit window — so labels cannot
be cached across full retrains. They **can** be cached across
*incremental* retrains: a relabel keeps the frozen normalizer, AR
parameters, and PCA basis (the exact freeze contract
:meth:`~repro.core.online.OnlineLARPredictor.observe` already relies on
between retrains) and re-derives only the window-dependent products —
frames, targets, pool errors, labels, and the classifier memory. Under
frozen parameters, every per-frame quantity is a pure function of the
raw values in that frame, so the ``(sq, label)`` rows of the
overlapping prefix are bitwise reusable and only the new suffix (plus
the smoothing boundary) needs computing.

Bit-exactness contract
----------------------
A spliced relabel must be bit-identical to relabelling the whole window
from scratch under the same frozen parameters: the label-cache parity
suite (``tests/test_serving_label_cache.py``) pins it for both the
batched and the per-stream path. Two kernel choices carry the
guarantee:

* the pool-error rows are computed with explicitly position-independent
  kernels — elementwise ops plus reductions over the frame axis only —
  so a frame's ``(sq)`` row carries the same bits whether it sits in a
  244-frame batch or a 50-frame suffix. The cold trainer's stacked
  ``matmul`` AR kernel does *not* have that property (BLAS edge kernels
  vary with the row count), so the relabel path never uses it;
* label smoothing uses :func:`windowed_label_sums` — a strict
  left-to-right accumulation per frame — instead of the cold path's
  cumulative-sum trick, whose bits depend on where the window *starts*
  (``cum[hi] - cum[lo]`` folds the whole prefix into every value).
  The windowed sum of frame *i* here depends only on the squared
  errors inside its smoothing window, so sums computed in last storm's
  window coordinates equal this storm's, bit for bit.

The per-stream path calls :func:`relabel_group` with a singleton stack
(``S == 1``); the batched trainer calls it with whole geometry groups.
Position independence covers that too: kernels whose bits depend only
on the frame's own values are trivially also independent of how many
*streams* are stacked, so the two paths agree bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CachedLabels",
    "SplicePlan",
    "plan_splice",
    "windowed_label_sums",
    "relabel_group",
]


@dataclass(frozen=True)
class CachedLabels:
    """One stream's labelling products from a previous relabel.

    Attributes
    ----------
    start:
        Absolute index (in the stream's lifetime value count) of the
        first value of the window these rows were computed over. Frame
        *j* of that window starts at absolute value ``start + j``, so
        offsets between windows translate directly to frame offsets.
    sq:
        ``(n_frames, n_pool)`` squared pool errors, frame row *j* under
        the frozen parameters.
    labels:
        ``(n_frames,)`` smoothed argmin labels of those rows.
    """

    start: int
    sq: np.ndarray
    labels: np.ndarray


@dataclass(frozen=True)
class SplicePlan:
    """How a new window reuses a :class:`CachedLabels` tail.

    ``delta`` is the forward shift of the new window in frames;
    ``reuse`` is how many leading ``sq`` rows of the new window are
    served from the cache; cached *labels* are only safe where the
    smoothing window neither clips differently nor reaches into the
    fresh suffix, i.e. rows ``[label_lo, label_hi)``.
    """

    delta: int
    reuse: int
    label_lo: int
    label_hi: int


def plan_splice(
    old_start: int, n_old: int, new_start: int, n_new: int, smooth: int
) -> SplicePlan | None:
    """Geometry of reusing an ``n_old``-frame tail for a new window.

    Returns ``None`` when nothing can be reused (the new window starts
    before the cached one, or the two share no frames). The label-reuse
    bounds are conservative: a frame's cached label is reused only when
    its centered smoothing window was unclipped in both coordinate
    systems and drew exclusively on cached rows — everything outside
    that range is recomputed, which costs at most ``smooth`` extra
    frames and can never change a bit (recomputation produces the same
    sums the cache holds).
    """
    delta = new_start - old_start
    if delta < 0:
        return None
    reuse = min(n_old - delta, n_new)
    if reuse <= 0:
        return None
    half = smooth // 2
    # When the windows share their left edge the cached rows clip
    # exactly like the new ones; a shifted window clips differently, so
    # the first `half` frames are recomputed.
    label_lo = 0 if delta == 0 else min(half, reuse)
    # The last ceil(smooth/2) reusable frames either reach into the
    # fresh suffix or clipped at the old window's right edge.
    label_hi = max(label_lo, reuse - (smooth - half))
    return SplicePlan(delta, reuse, label_lo, label_hi)


def windowed_label_sums(
    sq: np.ndarray, smooth: int, lo: int, hi: int, out: np.ndarray
) -> None:
    """Centered smoothing-window sums over frames ``[lo, hi)``.

    Fills ``out[:, lo:hi]`` with, per frame *i* and pool member,
    ``sum(sq[:, max(i - smooth//2, 0) : min(i + smooth - smooth//2, n)])``
    — the same window :meth:`PredictorPool.best_labels` smooths over.
    Unlike the cumulative-sum formulation the cold training paths use,
    each sum here is accumulated strictly left-to-right over its own
    window, so the bits of ``out[:, i]`` depend only on the squared
    errors inside the window — not on where the window sits in the
    array, and not on the ``[lo, hi)`` range requested. That position
    independence is what lets a spliced relabel recompute *only* the
    boundary frames and still match a full relabel bit for bit.
    """
    n = sq.shape[1]
    half = smooth // 2
    out[:, lo:hi] = 0.0
    # d walks the smoothing window left-to-right; each pass adds the
    # window's d-th element to every requested frame in one slice op,
    # so per-frame accumulation order is ascending source index.
    for d in range(smooth):
        shift = d - half
        a = max(lo + shift, 0)
        b = min(hi + shift, n)
        if a >= b:
            continue
        out[:, a - shift : b - shift] += sq[:, a:b]


def relabel_group(
    histories: np.ndarray,
    norm_means: np.ndarray,
    norm_stds: np.ndarray,
    ar_phi: np.ndarray,
    ar_means: np.ndarray,
    *,
    window: int,
    smooth: int,
    sw_window: int | None = None,
    plan: SplicePlan | None = None,
    cached_sq: "list[np.ndarray] | None" = None,
    cached_labels: "list[np.ndarray] | None" = None,
    sums_out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Relabel an equal-geometry group of histories under frozen params.

    Parameters
    ----------
    histories:
        ``(S, T)`` raw value windows, one row per stream.
    norm_means / norm_stds / ar_phi / ar_means:
        The streams' *frozen* normalizer and AR parameters (``(S,)``,
        ``(S,)``, ``(S, p)``, ``(S,)``).
    window / smooth / sw_window:
        Frame length, label-smoothing width, and the SW_AVG member's
        window (``None`` = full frame), shared by the group.
    plan / cached_sq / cached_labels:
        One :class:`SplicePlan` shared by the group plus the cached
        rows it refers to, as per-stream sequences: ``cached_sq`` holds
        ``S`` arrays of shape ``(plan.reuse, n_pool)`` and
        ``cached_labels`` ``S`` arrays of shape
        ``(plan.label_hi - plan.label_lo,)`` (views into each stream's
        tail are fine — they are copied straight into the output
        tensors, with no intermediate stack). ``None`` means a full
        relabel (the cache-miss path — also the parity reference a
        spliced call must reproduce bitwise).
    sums_out:
        Optional ``(S, n_frames, n_pool)`` float64 scratch for the
        smoothing sums (never escapes; the batched trainer recycles
        one across bursts to skip the per-call allocation).

    Returns ``(frames, targets, sq, labels)`` stacked over the group:
    ``frames`` is the ``(S, N, window)`` sliding-window *view* of the
    z-scored histories (no copy — callers copy out the rows they keep,
    typically only the ``max_memory`` survivors), ``targets`` the
    ``(S, N)`` view of the next values, ``sq`` the *complete*
    ``(S, N, n_pool)`` squared-error tensor (spliced prefix plus fresh
    suffix — ready to cache for the next storm), and ``labels`` the
    ``(S, N)`` smoothed argmin labels.
    """
    n_streams, length = histories.shape
    w = window
    n = length - w
    z = (histories - norm_means[:, None]) / norm_stds[:, None]
    frames = np.lib.stride_tricks.sliding_window_view(z[:, :-1], w, axis=1)
    targets = z[:, w:]
    sq = np.empty((n_streams, n, 3), dtype=np.float64)
    fresh_from = 0 if plan is None else min(plan.reuse, n)
    if fresh_from:
        np.stack(cached_sq, axis=0, out=sq[:, :fresh_from])
    if fresh_from < n:
        # Only the fresh frames are materialized: the kernels below
        # then run on the same contiguous frame rows they always have.
        fresh = np.ascontiguousarray(frames[:, fresh_from:])
        suffix = sq[:, fresh_from:]
        # Pool predictions via explicitly position-independent kernels:
        # every value is produced by elementwise ops (each individually
        # rounded — no cross-element fusion) or a reduction whose only
        # input is the frame axis, so frame j's bits cannot depend on
        # how many frames share the batch. The cold trainer's stacked
        # ``matmul`` does NOT have that property (gemm edge kernels
        # change with the row count), which is why the relabel path
        # carries its own AR evaluation.
        suffix[:, :, 0] = fresh[:, :, -1]
        mu = ar_means[:, None]
        acc = np.zeros(fresh.shape[:2], dtype=np.float64)
        for lag in range(ar_phi.shape[1]):
            acc += ar_phi[:, lag, None] * (fresh[:, :, -1 - lag] - mu)
        suffix[:, :, 1] = mu + acc
        sw = fresh if sw_window is None else fresh[:, :, -sw_window:]
        np.mean(sw, axis=2, out=suffix[:, :, 2])
        # In-place error sequence: subtract, abs, square — elementwise.
        np.subtract(suffix, targets[:, fresh_from:, None], out=suffix)
        np.abs(suffix, out=suffix)
        np.multiply(suffix, suffix, out=suffix)
    labels = np.empty((n_streams, n), dtype=np.int64)
    if plan is not None and plan.label_hi > plan.label_lo:
        lo, hi = plan.label_lo, plan.label_hi
        np.stack(cached_labels, axis=0, out=labels[:, lo:hi])
        segments = ((0, lo), (hi, n))
    else:
        segments = ((0, n),)
    sums = np.empty_like(sq) if sums_out is None else sums_out
    for a, b in segments:
        if a >= b:
            continue
        windowed_label_sums(sq, smooth, a, b, sums)
        labels[:, a:b] = np.argmin(sums[:, a:b], axis=2) + 1
    return frames, targets, sq, labels
