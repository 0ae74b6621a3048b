"""Metric instruments and the registry that owns them.

Three instrument kinds, mirroring the conventional trinity:

* :class:`Counter` -- monotonically increasing totals (cache hits,
  bytes DMA'd, audit findings);
* :class:`Gauge` -- a value that goes up and down (CQ depth, live
  deployments);
* :class:`Histogram` -- a latency/size distribution with exact
  count/sum/min/max and percentile summaries (p50/p90/p99) computed
  over a deterministically decimated sample reservoir.

Every instrument is keyed by ``name`` plus an optional label set, so
``registry.counter("rdma.verbs", op="write")`` and
``registry.counter("rdma.verbs", op="read")`` are independent series
of the same metric family.  All values are in simulated units (times
in microseconds); the registry itself is simulation-agnostic.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import Iterator, Optional, Union

#: A label key -> value mapping, normalized to a sorted tuple for keying.
LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, object]) -> LabelKey:
    # Label names are keyword names -- strings, and distinct -- so
    # sorting them sorts the pairs, with no frame per label.
    names = sorted(labels)
    return tuple(zip(names, map(str, map(labels.__getitem__, names))))


class Counter:
    """Monotonic counter; ``inc`` with a negative delta is rejected."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0
        #: ``value`` at the owning registry's last ``take_moved``.
        self.checkpointed = 0.0
        #: Enlists with that registry on the next ``inc``; None while
        #: enlisted, and for a counter no registry owns.
        self._enlist = None

    def inc(self, delta: float = 1.0) -> None:
        if delta < 0:
            raise ValueError(f"counter {self.name}: negative increment {delta}")
        self.value += delta
        enlist = self._enlist
        if enlist is not None:
            self._enlist = None
            enlist(self)

    def __repr__(self) -> str:
        return f"Counter({self.name}{dict(self.labels)}={self.value})"


class Gauge:
    """Last-write-wins value with inc/dec convenience."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, delta: float = 1.0) -> None:
        self.value += delta

    def dec(self, delta: float = 1.0) -> None:
        self.value -= delta

    def __repr__(self) -> str:
        return f"Gauge({self.name}{dict(self.labels)}={self.value})"


class Histogram:
    """Distribution summary with deterministic bounded memory.

    ``count``/``sum``/``min``/``max`` are exact over every observation.
    Percentiles are computed from a retained sample list: once it fills
    ``max_samples`` slots it is halved (every other sample kept) and the
    keep-stride doubles, so long-running workloads retain an evenly
    spaced subsample instead of growing without bound.  The scheme is
    deterministic -- two identical runs summarize identically.
    """

    kind = "histogram"

    def __init__(self, name: str, labels: LabelKey = (), max_samples: int = 4096):
        if max_samples < 2:
            raise ValueError("max_samples must be >= 2")
        self.name = name
        self.labels = labels
        self.max_samples = max_samples
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._samples: list[float] = []
        self._stride = 1

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if (self.count - 1) % self._stride == 0:
            self._samples.append(value)
            if len(self._samples) >= self.max_samples:
                self._samples = self._samples[::2]
                self._stride *= 2

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over the retained samples."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p} out of [0, 100]")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = max(0, math.ceil(p / 100.0 * len(ordered)) - 1)
        return ordered[rank]

    def summary(self) -> dict[str, float]:
        """The standard snapshot block: count/sum/min/max/mean + p50/90/99."""
        if not self.count:
            return {
                "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
                "p50": 0.0, "p90": 0.0, "p99": 0.0,
            }
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    def samples(self) -> list[float]:
        """The retained (decimated) observations, in arrival order."""
        return list(self._samples)

    def __repr__(self) -> str:
        return (
            f"Histogram({self.name}{dict(self.labels)} "
            f"count={self.count} mean={self.mean:.1f})"
        )


Metric = Union[Counter, Gauge, Histogram]

#: A series' registry key, read off the instrument.
_SERIES_KEY = attrgetter("name", "labels")


class MetricsRegistry:
    """Get-or-create home for every metric series.

    Series identity is (name, labels); asking for an existing name with
    a different instrument kind is a programming error and raises.
    """

    def __init__(self):
        self._metrics: dict[tuple[str, LabelKey], Metric] = {}
        #: Counters that moved since the last ``take_moved``, each once.
        self._moved: list[Counter] = []
        self._enlist = self._moved.append  # one bound method for all

    def counter(self, name: str, **labels: object) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str, **labels: object) -> Histogram:
        return self._get_or_create(Histogram, name, labels)

    def _get_or_create(self, cls, name: str, labels: dict) -> Metric:
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1])
            if cls is Counter:
                metric._enlist = self._enlist
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {cls.kind}"
            )
        return metric

    def get(self, name: str, **labels: object) -> Optional[Metric]:
        """Existing series or None (never creates)."""
        return self._metrics.get((name, _label_key(labels)))

    def series(self, name: str) -> list[Metric]:
        """Every series of one metric family, sorted by labels."""
        return [
            metric
            for (metric_name, _), metric in sorted(self._metrics.items())
            if metric_name == name
        ]

    def __iter__(self) -> Iterator[Metric]:
        for _key, metric in sorted(self._metrics.items()):
            yield metric

    def __len__(self) -> int:
        return len(self._metrics)

    def take_moved(self) -> list[Counter]:
        """Checkpoint: the counters that moved since the last call, in
        ``__iter__`` order (keys are unique, so the movers sorted alone
        come out as a sorted walk of everything would meet them), each
        armed to enlist again.  A counter ``drop`` retired since it
        moved is no series any more: left out, and left disarmed."""
        moved = []
        for counter in sorted(self._moved, key=_SERIES_KEY):
            if self._metrics.get(_SERIES_KEY(counter)) is counter:
                counter._enlist = self._enlist
                moved.append(counter)
        self._moved.clear()
        return moved

    def clear(self) -> None:
        self._metrics.clear()

    def drop(self, name: Optional[str] = None, **labels: object) -> int:
        """Remove every series matching ``name`` and/or a label subset.

        A series matches when its name equals ``name`` (if given) and
        its labels contain *all* of ``labels``.  Returns the number of
        series removed.  This is how the scraper retires a sandbox
        incarnation: on an epoch bump it drops the target's old-epoch
        series so pre-crash counters can't leak into post-recovery
        snapshots.
        """
        want = {(str(k), str(v)) for k, v in labels.items()}
        doomed = [
            key
            for key, metric in self._metrics.items()
            if (name is None or key[0] == name)
            and want <= set(metric.labels)
        ]
        for key in doomed:
            del self._metrics[key]
        return len(doomed)

    def snapshot(self) -> list[dict]:
        """Plain-data dump of every series (exporter substrate).

        Counters/gauges carry ``value``; histograms carry the summary
        block plus the retained samples (for lossless re-import).
        """
        rows = []
        for metric in self:
            row: dict[str, object] = {
                "type": metric.kind,
                "name": metric.name,
                "labels": dict(metric.labels),
            }
            if isinstance(metric, Histogram):
                row.update(metric.summary())
                row["samples"] = metric.samples()
                row["stride"] = metric._stride
            else:
                row["value"] = metric.value
            rows.append(row)
        return rows
