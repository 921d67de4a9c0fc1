"""Streaming quantile digests for phase latencies (P² algorithm).

The tracer's :class:`~repro.obs.tracing.PhaseStats` keeps sums and
extrema; histograms keep fixed-bucket counts. Neither answers "what is
p99 tick latency right now?" without choosing bucket edges in advance.
:class:`P2Quantile` estimates one quantile online in O(1) memory and
O(1) time per observation using the P² algorithm (Jain & Chlamtac,
CACM 1985): five markers track the running min, max, target quantile
and its two flanking quantiles; each observation nudges marker heights
toward their desired positions with a piecewise-parabolic (falling back
to linear) adjustment.

:class:`PhaseQuantiles` bundles the three digests the serving stack
cares about (p50/p95/p99) per phase name; :class:`Tracer` feeds one per
span name so ``repro obs --quantiles`` and flight dumps can report tail
latency without a second pass over the data.

Accuracy is approximate (typically within a few percent of the true
sample quantile for smooth distributions); the first five observations
are exact, and estimates on fewer than five observations interpolate
the sorted bootstrap buffer directly.
"""

from __future__ import annotations

from bisect import insort

from repro.exceptions import ConfigurationError

__all__ = ["P2Quantile", "PhaseQuantiles", "DEFAULT_QUANTILES"]

#: The quantiles a :class:`PhaseQuantiles` bundle tracks by default.
DEFAULT_QUANTILES = (0.5, 0.95, 0.99)


class P2Quantile:
    """One streaming quantile estimate (P², Jain & Chlamtac 1985)."""

    __slots__ = ("q", "_count", "_heights", "_positions", "_d0", "_rates")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ConfigurationError(
                f"quantile must be strictly inside (0, 1), got {q!r}"
            )
        self.q = q
        self._count = 0
        # Until five observations arrive, _heights doubles as the sorted
        # bootstrap buffer; afterwards it holds the five marker heights.
        self._heights: list[float] = []
        self._positions = [0, 1, 2, 3, 4]
        # Desired marker positions are closed-form — d0 + (n - 5) * rate
        # after n observations — so the hot path never updates them.
        self._d0 = (0.0, 2.0 * q, 4.0 * q, 2.0 + 2.0 * q, 4.0)
        self._rates = (0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0)

    @property
    def count(self) -> int:
        """Observations absorbed so far."""
        return self._count

    def observe(self, value: float) -> None:
        """Absorb one observation."""
        value = float(value)
        n = self._count = self._count + 1
        h, pos = self._heights, self._positions
        if n <= 5:
            insort(h, value)
            return
        # Locate the cell the observation falls into (stretching the
        # extreme markers when it lands outside the current range) and
        # shift every marker above it one position right.
        if value < h[1]:
            if value < h[0]:
                h[0] = value
            pos[1] += 1
            pos[2] += 1
            pos[3] += 1
        elif value < h[2]:
            pos[2] += 1
            pos[3] += 1
        elif value < h[3]:
            pos[3] += 1
        elif value > h[4]:
            h[4] = value
        pos[4] += 1
        # Nudge the three interior markers toward their desired positions,
        # in order (each sees its left neighbour's move); unrolled, since
        # every traced span pays this three times.
        m = n - 5
        _, d1, d2, d3, _ = self._d0
        _, r1, r2, r3, _ = self._rates
        p = pos[1]
        d = d1 + m * r1 - p
        if (d >= 1.0 and pos[2] - p > 1) or (d <= -1.0 and pos[0] - p < -1):
            _adjust(h, pos, 1, 1 if d >= 1.0 else -1)
        p = pos[2]
        d = d2 + m * r2 - p
        if (d >= 1.0 and pos[3] - p > 1) or (d <= -1.0 and pos[1] - p < -1):
            _adjust(h, pos, 2, 1 if d >= 1.0 else -1)
        p = pos[3]
        d = d3 + m * r3 - p
        if (d >= 1.0 and pos[4] - p > 1) or (d <= -1.0 and pos[2] - p < -1):
            _adjust(h, pos, 3, 1 if d >= 1.0 else -1)

    def value(self) -> float:
        """The current quantile estimate (0.0 before any observation)."""
        n = self._count
        if n == 0:
            return 0.0
        if n <= 5:
            # Exact: interpolate the sorted bootstrap buffer.
            rank = self.q * (n - 1)
            lo = int(rank)
            hi = min(lo + 1, n - 1)
            frac = rank - lo
            return self._heights[lo] * (1.0 - frac) + self._heights[hi] * frac
        return self._heights[2]


def _adjust(h, pos, i, step):
    """Move interior marker *i* one position by *step* (P² update)."""
    candidate = _parabolic(h, pos, i, step)
    if h[i - 1] < candidate < h[i + 1]:
        h[i] = candidate
    else:
        h[i] = _linear(h, pos, i, step)
    pos[i] += step


def _parabolic(h, pos, i, step):
    """Piecewise-parabolic (P²) height prediction for marker *i*."""
    num = step / (pos[i + 1] - pos[i - 1])
    left = (pos[i] - pos[i - 1] + step) * (h[i + 1] - h[i]) / (
        pos[i + 1] - pos[i]
    )
    right = (pos[i + 1] - pos[i] - step) * (h[i] - h[i - 1]) / (
        pos[i] - pos[i - 1]
    )
    return h[i] + num * (left + right)


def _linear(h, pos, i, step):
    """Linear fallback when the parabolic prediction leaves the cell."""
    return h[i] + step * (h[i + step] - h[i]) / (pos[i + step] - pos[i])


class PhaseQuantiles:
    """A p50/p95/p99 digest bundle for one phase name."""

    __slots__ = ("_digests",)

    def __init__(self, quantiles: tuple = DEFAULT_QUANTILES) -> None:
        self._digests = tuple(P2Quantile(q) for q in quantiles)

    def observe(self, value: float) -> None:
        for digest in self._digests:
            digest.observe(value)

    @property
    def count(self) -> int:
        for digest in self._digests:
            return digest.count
        return 0

    def estimates(self) -> dict[str, float]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` current values."""
        return {_plabel(d.q): d.value() for d in self._digests}


def _plabel(q: float) -> str:
    pct = q * 100.0
    if pct == int(pct):
        return f"p{int(pct)}"
    return f"p{pct:g}".replace(".", "_")
