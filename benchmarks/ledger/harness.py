"""Measuring tools shared by the four ledger workloads.

Nothing here imports ``repro``: the percentile rule, best-of-k
segments, the failure ledger, the sim digest and the span recorder are
plain Python, so ``test_ledger.py`` exercises them without a testbed.

Two clocks, kept apart everywhere:

* **sim-clock** -- ``sim.now`` deltas (plus the ``cost_us`` a
  ``run_hook`` returns).  Deterministic: the k identical segments of a
  run must agree to :data:`SIM_TOLERANCE`.
* **CPU-clock** -- ``time.process_time()`` over a timed region,
  reported as the best of k identical segments, because single-shot
  totals on a shared box spread by tens of percent.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import pstats
import resource
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from rollup import roll_up

#: Relative tolerance under which two sim-clock values are "the same".
#: Identical segments start from ``sim.now == 0`` and agree bit for bit;
#: broadcasts on a long-lived testbed differ in the 13th digit because
#: ``sim.now`` has grown.
SIM_TOLERANCE = 1e-6
#: Percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10
#: wall / CPU of a timed region above which the host was busy with
#: something else and the segment is measured again.
CONTENTION_LIMIT = 1.10
MAX_RERUNS = 2


# -- timings ---------------------------------------------------------------


def percentile(values: Sequence[float], p: float) -> float:
    """Exact interpolated percentile (``p`` in 0..100) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def supported_percentile(n: int) -> float:
    """Highest ladder percentile with >= MIN_BEYOND of ``n`` samples beyond it."""
    best = PERCENTILE_LADDER[0]
    for p in PERCENTILE_LADDER:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            best = p
    return best


def summarize(values: Sequence[float]) -> dict:
    """Median + highest supported percentile + sample count."""
    if not values:
        return {"n": 0, "p50": 0.0, "tail_p": 50.0, "tail": 0.0}
    tail_p = supported_percentile(len(values))
    return {
        "n": len(values),
        "p50": percentile(values, 50.0),
        "tail_p": tail_p,
        "tail": percentile(values, tail_p),
    }


def require_percentile(values: Sequence[float], p: float, what: str) -> float:
    """``percentile`` that refuses to report an unsupported tail."""
    if supported_percentile(len(values)) < p:
        raise ValueError(
            f"{what}: p{p:g} needs {MIN_BEYOND} samples beyond it, "
            f"have {len(values)} in all"
        )
    return percentile(values, p)


def same_sim(a: float, b: float, tol: float = SIM_TOLERANCE) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# -- host clocks and segments -------------------------------------------------


class Stopwatch:
    """CPU and wall time of one ``with`` block."""

    cpu_s = 0.0
    wall_s = 0.0

    def __enter__(self) -> "Stopwatch":
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.cpu_s = time.process_time() - self._cpu0
        self.wall_s = time.perf_counter() - self._wall0



@dataclass
class Segment:
    """One set-up plus one timed region of fixed, seeded work."""

    ops: int
    cpu_s: float
    wall_s: float
    setup_s: float
    #: CPU of each slice of the timed region, when the workload can cut
    #: it (one entry per op); identical segments have identical slices.
    slice_cpu_s: Optional[list] = None
    #: Sim-clock results of the segment; identical segments must agree.
    sim: dict = field(default_factory=dict)
    #: Anything else the workload wants back (samples, counters, ...).
    extra: dict = field(default_factory=dict)

    @property
    def contention(self) -> float:
        return self.wall_s / self.cpu_s if self.cpu_s > 0 else 1.0

    @property
    def rate(self) -> float:
        return self.ops / self.cpu_s if self.cpu_s > 0 else 0.0


@dataclass
class SegmentSet:
    kept: list
    reruns: int
    discarded_contention: list

    @property
    def best_cpu_s(self) -> float:
        """CPU of the work with the host's interference taken out.

        Interference comes in bursts of a fraction of a second, so the
        finer the pieces the minimum is taken over, the steadier it is:
        where segments carry per-op slices, each op counts at its
        fastest over the k segments; otherwise the fastest whole segment
        counts.
        """
        slices = [seg.slice_cpu_s for seg in self.kept]
        if all(s is not None and len(s) == len(slices[0]) for s in slices):
            return sum(min(column) for column in zip(*slices))
        return min(seg.cpu_s for seg in self.kept)

    @property
    def best_rate(self) -> float:
        return self.kept[0].ops / self.best_cpu_s

    @property
    def rate_spread(self) -> float:
        """(fastest - slowest) / fastest over the kept segments: how
        bursty the host was."""
        rates = [seg.rate for seg in self.kept]
        return (max(rates) - min(rates)) / max(rates) if max(rates) else 0.0

    @property
    def floor_spread(self) -> float:
        """The same over the fastest third of the segments (at least
        two): how well the best-of-k is resolved.  Small when several
        segments reached the quiet floor, whatever the bursts did to
        the rest."""
        rates = sorted((seg.rate for seg in self.kept), reverse=True)
        top = rates[: max(2, len(rates) // 3)]
        return (top[0] - top[-1]) / top[0] if top[0] else 0.0

    @property
    def setup_s(self) -> float:
        """Best of the k segment set-ups (testbed build, prewarm)."""
        return min(seg.setup_s for seg in self.kept)

    @property
    def contentions(self) -> list:
        return [round(seg.contention, 4) for seg in self.kept]


def budget_gate(budget_s: float, k_min: int, k_max: int) -> Callable[[int], bool]:
    """``more(kept)`` for :func:`run_segments`: at least ``k_min``
    segments, then more until the time budget is spent, ``k_max`` at most."""
    started = time.perf_counter()

    def more(kept: int) -> bool:
        if kept >= k_max:
            return False
        return kept < k_min or time.perf_counter() - started < budget_s

    return more


def run_segments(
    one_segment: Callable[[], Segment],
    more: Callable[[int], bool],
    max_reruns: int = MAX_RERUNS,
) -> SegmentSet:
    """Repeat ``one_segment`` for as long as ``more(segments kept)`` says.

    A segment whose wall/CPU ratio exceeds :data:`CONTENTION_LIMIT` ran
    while the host was busy elsewhere: it is discarded and measured
    again, at most ``max_reruns`` times per set (after that the noisy
    segment is kept -- best-of-k still ignores it).
    """
    kept: list = []
    discarded: list = []
    while more(len(kept)):
        segment = one_segment()
        if segment.contention > CONTENTION_LIMIT and len(discarded) < max_reruns:
            discarded.append(round(segment.contention, 4))
            continue
        kept.append(segment)
    return SegmentSet(kept=kept, reruns=len(discarded), discarded_contention=discarded)


def check_repeatable(segments: Iterable[Segment]) -> list:
    """Names of sim-clock values on which identical segments disagree."""
    segments = list(segments)
    first = segments[0].sim
    bad = []
    for other in segments[1:]:
        for name, value in first.items():
            if name not in other.sim or not same_sim(value, other.sim[name]):
                bad.append(name)
    return sorted(set(bad))


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- failure ledger -----------------------------------------------------------


class FailureLedger:
    """Every attempted op ends as ok, failed (by reason) or shed (by reason).

    ``failed`` are operations that went wrong (crash at first exec,
    wrong ``r0``, failed ticket, aborted leg, unaccounted offer);
    ``shed`` are offers an admission controller refused on purpose.
    Both miss any latency limit, so both count in ``failed_share``.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed_by_reason: Counter = Counter()
        self.shed_by_reason: Counter = Counter()

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, reason: str, n: int = 1) -> None:
        self.failed_by_reason[reason] += n

    def shed(self, reason: str, n: int = 1) -> None:
        self.shed_by_reason[reason] += n

    @property
    def failed(self) -> int:
        return sum(self.failed_by_reason.values())

    @property
    def shed_total(self) -> int:
        return sum(self.shed_by_reason.values())

    @property
    def failed_share(self) -> float:
        if not self.attempted:
            return 0.0
        return (self.failed + self.shed_total) / self.attempted

    def merge(self, other: "FailureLedger") -> None:
        self.attempted += other.attempted
        self.failed_by_reason.update(other.failed_by_reason)
        self.shed_by_reason.update(other.shed_by_reason)

    def to_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": dict(sorted(self.failed_by_reason.items())),
            "shed": dict(sorted(self.shed_by_reason.items())),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FailureLedger":
        ledger = cls()
        ledger.attempted = doc["attempted"]
        ledger.failed_by_reason.update(doc["failed"])
        ledger.shed_by_reason.update(doc["shed"])
        return ledger


# -- sim digest ---------------------------------------------------------------


class Digest:
    """sha256 over a workload's ordered per-op outcomes and sim latencies.

    Floats enter at nine significant digits: bit-identical runs hash
    the same, and nothing finer than :data:`SIM_TOLERANCE` can split
    two runs the sim-clock comparison calls equal.
    """

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, *parts) -> None:
        for part in parts:
            text = f"{part:.9g}" if isinstance(part, float) else str(part)
            self._hash.update(text.encode())
            self._hash.update(b"\x1f")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


# -- spans ----------------------------------------------------------------------


class Span:
    """One blocking public call, stamped on both clocks."""

    __slots__ = (
        "sid", "name", "op", "parent", "sim0", "sim1", "cpu0", "cpu1",
        "_extra_us", "_rec",
    )

    def __init__(self, rec: "Recorder", sid: int, name: str, op, parent: Optional[int]):
        self._rec = rec
        self.sid = sid
        self.name = name
        self.op = op
        self.parent = parent
        self.sim0 = self.sim1 = self.cpu0 = self.cpu1 = self._extra_us = 0.0

    def __enter__(self) -> "Span":
        self.sim0 = self._rec.sim_now()
        self.cpu0 = time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.cpu1 = time.process_time()
        self.sim1 = self._rec.sim_now() + self._extra_us

    def add_sim(self, extra_us: float) -> None:
        """Extend the span by sim time the clock itself did not move
        (``run_hook`` returns its cost instead of sleeping it)."""
        self._extra_us += extra_us

    @property
    def sim_us(self) -> float:
        return self.sim1 - self.sim0

    @property
    def cpu_s(self) -> float:
        return self.cpu1 - self.cpu0

    def to_dict(self) -> dict:
        return {
            "id": self.sid, "name": self.name, "op": self.op,
            "parent": self.parent, "sim0": self.sim0, "sim1": self.sim1,
            "cpu0": self.cpu0, "cpu1": self.cpu1,
        }


class _NullSpan:
    """What a switched-off recorder hands out: costs one call per use."""

    sid = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass

    def add_sim(self, extra_us: float) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Recorder:
    """Keeps spans in memory; the runner writes them out at exit.

    Also marks the timed region of a segment (:meth:`timed`), which is
    where a profiler, when one is attached, is switched on -- so the
    profile covers exactly what the CPU clock covers.
    """

    def __init__(self, enabled: bool = False, profiler: Optional[cProfile.Profile] = None):
        self.enabled = enabled
        self.profiler = profiler
        self.spans: list = []
        self.sim_now: Callable[[], float] = lambda: 0.0

    @contextmanager
    def timed(self):
        """The segment's timed region: yields its :class:`Stopwatch`."""
        gc.collect()  # every timed region starts from the same heap state
        if self.profiler is not None:
            self.profiler.enable()
        try:
            with Stopwatch() as watch:
                yield watch
        finally:
            if self.profiler is not None:
                self.profiler.disable()

    def bind(self, sim) -> None:
        """Read the sim clock of ``sim`` from here on (one per testbed)."""
        self.sim_now = lambda: sim.now

    def span(self, name: str, op=None, parent=None):
        if not self.enabled:
            return _NULL_SPAN
        span = Span(
            self, len(self.spans), name, op,
            parent.sid if parent is not None else None,
        )
        self.spans.append(span)
        return span


def self_times(spans: Sequence[Span]) -> dict:
    """span id -> (self sim us, self CPU s): duration minus what child
    spans cover.  Children of one parent run one after another, so
    their cover is the sum of their durations."""
    covered_sim: Counter = Counter()
    covered_cpu: Counter = Counter()
    for span in spans:
        if span.parent is not None:
            covered_sim[span.parent] += span.sim_us
            covered_cpu[span.parent] += span.cpu_s
    return {
        span.sid: (
            span.sim_us - covered_sim[span.sid],
            span.cpu_s - covered_cpu[span.sid],
        )
        for span in spans
    }


def conservation_violations(
    spans: Sequence[Span], tol: float = SIM_TOLERANCE
) -> list:
    """Parent spans whose children do not add up to them on the sim clock.

    A trace that loses time is a bug, like a silent drop: an op's child
    spans must sum to its end-to-end sim latency.
    """
    selfs = self_times(spans)
    parents = {span.parent for span in spans if span.parent is not None}
    return [
        (span.name, span.op, selfs[span.sid][0])
        for span in spans
        if span.sid in parents
        and abs(selfs[span.sid][0]) > tol * max(1.0, abs(span.sim_us))
    ]


def span_totals(spans: Sequence[Span]) -> dict:
    """name -> {"n", "sim_us", "cpu_s"} summed over every span of that name."""
    totals: dict = {}
    for span in spans:
        row = totals.setdefault(span.name, {"n": 0, "sim_us": 0.0, "cpu_s": 0.0})
        row["n"] += 1
        row["sim_us"] += span.sim_us
        row["cpu_s"] += span.cpu_s
    return totals


# -- the rate ladder of an open-loop workload ---------------------------------------

#: serve_ladder's SLO: hotpatch-class p99, and the share of offers that
#: may be shed or fail.
SLO_HOTPATCH_P99_US = 1000.0
SLO_MAX_LOST_SHARE = 0.01
#: Tickets still queued or running when the doors close, above which a
#: rate is not being kept up with (two per worker).
BACKLOG_LIMIT = 16


def arm_meets_slo(hot_p99_us: float, lost_share: float, backlog: int) -> bool:
    """Does one rate arm meet the SLO with no backlog left growing?"""
    return (
        hot_p99_us <= SLO_HOTPATCH_P99_US
        and lost_share <= SLO_MAX_LOST_SHARE
        and backlog <= BACKLOG_LIMIT
    )


def max_rate_in_slo(arms: Sequence[tuple]) -> float:
    """Highest offered rate whose arm meets the SLO; ``arms`` holds
    (offered per sim-second, meets SLO).  A rate only counts if every
    lower rate also met it -- a ladder, not a lucky rung."""
    best = 0.0
    for offered, meets in sorted(arms):
        if not meets:
            break
        best = offered
    return best


# -- one workload part: untraced segments, or the traced trio ----------------------


@dataclass
class Config:
    """What the runner hands a workload subprocess."""

    workload: str
    part: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    #: ``more(segments kept)`` supplied by the runner when it paces this
    #: part itself (it interleaves the parts of one workload, so that
    #: each part's segments span the whole run and a slow spell of the
    #: host cannot swallow one part whole).  None: the time budget.
    gate: Optional[Callable[[int], bool]] = None

    @property
    def k_min(self) -> int:
        return 1 if self.smoke else 5

    @property
    def k_max(self) -> int:
        return 1 if self.smoke else 200


@dataclass
class Measured:
    """Segments of one part: k untraced, or 2 untraced + traced + profiled."""

    untraced: SegmentSet
    #: Resident-set high-water mark once the first segment was done:
    #: set-up plus one full pass of the work.  Later segments repeat
    #: it for timing only, and how many fit depends on the host.
    rss_mb: float = 0.0
    traced: Optional[Segment] = None
    recorder: Optional[Recorder] = None
    profiled: Optional[Segment] = None
    rollup: object = None
    #: A second span-recording segment, run only to time it.
    traced_again: Optional[Segment] = None

    @property
    def first(self) -> Segment:
        return self.untraced.kept[0]

    def every_segment(self) -> list:
        extra = (self.traced, self.traced_again, self.profiled)
        return self.untraced.kept + [seg for seg in extra if seg is not None]

    @property
    def trace_overhead_ratio(self) -> float:
        """untraced / traced ops per CPU-second, best of two each
        (>= 1 when recording spans costs)."""
        traced = [seg.rate for seg in (self.traced, self.traced_again) if seg]
        if not traced or not max(traced):
            return 0.0
        return self.untraced.best_rate / max(traced)

    def problems(self) -> list:
        """Determinism and conservation failures, as readable strings."""
        found = [
            f"sim-clock value {name} differs between identical segments"
            for name in check_repeatable(self.every_segment())
        ]
        if self.recorder is not None:
            for name, op, lost in conservation_violations(self.recorder.spans)[:5]:
                found.append(
                    f"span {name} (op {op}) loses {lost:.6g} sim-us to no child"
                )
        return found


def measure(
    cfg: Config,
    one_segment: Callable[[Recorder], Segment],
    budget_share: float = 1.0,
    after: Optional[Callable[[Recorder], None]] = None,
    recorder: Optional[Recorder] = None,
) -> Measured:
    """Run ``one_segment`` as the mode asks.

    Untraced: best of k >= 5 identical segments inside the time budget.
    Traced: two untraced segments (the reference for sim-clock equality
    and for the overhead ratio), two with spans recorded (the second
    only to time it), one under cProfile (switched on for the timed
    region only).  End-to-end numbers are only ever taken from untraced
    segments.  ``after`` runs
    once after every segment, outside its timed region (checks that are
    not part of the op).  ``recorder`` is the span recorder of the
    traced segment, for a workload that also records spans elsewhere.
    """
    off = Recorder(enabled=False)
    rss_mb = []

    def segment_with(recorder: Recorder) -> Segment:
        segment = one_segment(recorder)
        if after is not None:
            after(recorder)
        if not rss_mb:
            rss_mb.append(peak_rss_mb())
        return segment

    if not cfg.trace:
        more = cfg.gate or budget_gate(
            cfg.seconds * budget_share, cfg.k_min, cfg.k_max
        )
        untraced = run_segments(lambda: segment_with(off), more)
        return Measured(untraced, rss_mb[0])
    pair = 1 if cfg.smoke else 2
    # No reruns here: the traced pass does a fixed amount of work, so
    # that its counts (pycalls, counters) repeat to the digit.
    untraced = run_segments(
        lambda: segment_with(off), budget_gate(0.0, pair, pair), max_reruns=0
    )
    recorder = recorder or Recorder(enabled=True)
    traced = segment_with(recorder)
    traced_again = None if cfg.smoke else segment_with(Recorder(enabled=True))
    profiler = cProfile.Profile()
    profiled = segment_with(Recorder(enabled=False, profiler=profiler))
    rollup = roll_up(pstats.Stats(profiler).stats)
    return Measured(
        untraced, rss_mb[0], traced, recorder, profiled, rollup, traced_again
    )
