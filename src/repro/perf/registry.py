"""Lightweight timer/counter registry for the hot paths.

Every performance-sensitive layer (ray tracer, map oracle, caches,
benchmark drivers) reports into one process-wide :data:`perf` registry:
``perf.span("raytrace")`` accumulates wall time per named section and
``perf.count("oracle.map_cache.hit")`` bumps named counters.  Benches
snapshot the registry into ``BENCH_*.json`` artifacts so every future
perf PR has a measured baseline to beat, and tests use the counters to
assert structural properties ("exactly one raytrace per sample batch")
that wall time alone cannot pin down.

The registry is deliberately tiny: a dict of counters, a dict of span
stats and a lock.  Disable it wholesale with ``REPRO_PERF=0`` when even
microseconds matter.
"""

from __future__ import annotations

import json
import os
import resource
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List


def peak_rss_bytes() -> int:
    """Lifetime peak resident set size of this process, in bytes.

    ``ru_maxrss`` is kilobytes on Linux (bytes on macOS, where the
    kernel reports it that way); normalized here to bytes.  It is a
    high-water mark — it never decreases — which is exactly the bound
    the memory-scaling gates need.
    """
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if os.uname().sysname == "Darwin":
        return int(rss)
    return int(rss) * 1024


@dataclass
class SpanStat:
    """Accumulated statistics for one named span.

    ``peak_alloc_bytes`` / ``max_rss_bytes`` stay 0 unless the span was
    entered with ``track_memory`` set; they record the worst call
    (high-water marks, not accumulations).
    """

    calls: int = 0
    total_s: float = 0.0
    peak_alloc_bytes: int = 0
    max_rss_bytes: int = 0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.calls if self.calls else 0.0


class PerfRegistry:
    """Process-wide named timers and counters.

    Thread-safe; cheap enough to leave enabled (one ``perf_counter``
    pair and a dict update per span).  All query methods return copies,
    so callers can snapshot-and-reset without racing the hot paths.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._spans: Dict[str, SpanStat] = {}
        self._counters: Dict[str, int] = {}
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str, track_memory: bool = False) -> Iterator[None]:
        """Time a ``with`` block under ``name`` (accumulating).

        With ``track_memory`` set the span additionally records the
        peak tracemalloc allocation size reached inside the block and
        the process peak RSS at exit — the numbers the city-scale
        memory gates assert.  Tracing is started on demand (and stopped
        again if this span started it), so untracked spans pay nothing;
        tracked spans pay tracemalloc's allocation-hook overhead.
        Entering a tracked span resets tracemalloc's peak, which hides
        the peak of any tracked span around it — so the flag belongs
        on coarse, bench-level spans only, never inside product code.
        """
        if not self.enabled:
            yield
            return
        started_tracing = False
        if track_memory:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                started_tracing = True
            tracemalloc.reset_peak()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            peak_alloc = 0
            max_rss = 0
            if track_memory:
                _, peak_alloc = tracemalloc.get_traced_memory()
                if started_tracing:
                    tracemalloc.stop()
                max_rss = peak_rss_bytes()
            with self._lock:
                stat = self._spans.get(name)
                if stat is None:
                    stat = self._spans[name] = SpanStat()
                stat.calls += 1
                stat.total_s += dt
                if peak_alloc > stat.peak_alloc_bytes:
                    stat.peak_alloc_bytes = peak_alloc
                if max_rss > stat.max_rss_bytes:
                    stat.max_rss_bytes = max_rss

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the named counter."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    # -- querying ------------------------------------------------------------

    def counter(self, name: str) -> int:
        """Current value of a counter (0 if never bumped)."""
        with self._lock:
            return self._counters.get(name, 0)

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)

    def spans(self) -> Dict[str, SpanStat]:
        with self._lock:
            return {
                k: SpanStat(v.calls, v.total_s, v.peak_alloc_bytes, v.max_rss_bytes)
                for k, v in self._spans.items()
            }

    def counters_since(self, before: Dict[str, int]) -> Dict[str, int]:
        """Positive counter deltas since a ``counters()`` snapshot.

        The canonical way to attribute counter activity to one region
        of code without resetting the registry under other readers.
        """
        return {
            name: count - before.get(name, 0)
            for name, count in sorted(self.counters().items())
            if count - before.get(name, 0) > 0
        }

    def snapshot_since(self, before: Dict) -> Dict:
        """Span/counter deltas since a ``snapshot()``, snapshot-shaped.

        Spans subtract calls and total time; counters subtract values.
        Entries that did not change are dropped.
        """
        now = self.snapshot()
        before_spans = before.get("spans", {})
        spans = {}
        for name, stat in now["spans"].items():
            prior = before_spans.get(name, {"calls": 0, "total_s": 0.0})
            calls = stat["calls"] - prior["calls"]
            total = stat["total_s"] - prior["total_s"]
            if calls > 0:
                spans[name] = {
                    "calls": calls,
                    "total_s": total,
                    "mean_s": total / calls,
                }
        before_counters = before.get("counters", {})
        counters = {
            name: value - before_counters.get(name, 0)
            for name, value in now["counters"].items()
            if value - before_counters.get(name, 0) > 0
        }
        return {"spans": spans, "counters": counters}

    def snapshot(self) -> Dict:
        """JSON-ready dict of every span and counter.

        Memory fields appear only on spans that actually tracked memory
        so artifacts from untracked runs keep their historical shape.
        """
        with self._lock:
            spans: Dict[str, Dict] = {}
            for name, stat in sorted(self._spans.items()):
                entry = {
                    "calls": stat.calls,
                    "total_s": stat.total_s,
                    "mean_s": stat.mean_s,
                }
                if stat.peak_alloc_bytes > 0:
                    entry["peak_alloc_bytes"] = stat.peak_alloc_bytes
                if stat.max_rss_bytes > 0:
                    entry["max_rss_bytes"] = stat.max_rss_bytes
                spans[name] = entry
            return {
                "spans": spans,
                "counters": dict(sorted(self._counters.items())),
            }

    def report_lines(self) -> List[str]:
        """Human-readable report, spans sorted by total time."""
        snap = self.snapshot()
        lines = ["perf spans:"]
        spans = sorted(
            snap["spans"].items(), key=lambda kv: kv[1]["total_s"], reverse=True
        )
        for name, stat in spans:
            lines.append(
                f"  {name:<32s} {stat['calls']:>8d} calls  "
                f"{stat['total_s']:>9.3f} s  {stat['mean_s'] * 1e3:>8.3f} ms/call"
            )
        lines.append("perf counters:")
        for name, value in snap["counters"].items():
            lines.append(f"  {name:<32s} {value:>12d}")
        return lines

    def dump(self, path: str) -> None:
        """Write the snapshot as JSON to ``path``."""
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def reset(self) -> None:
        """Drop every span and counter."""
        with self._lock:
            self._spans.clear()
            self._counters.clear()


#: The process-wide default registry every subsystem reports into.
perf = PerfRegistry(enabled=os.environ.get("REPRO_PERF", "1") != "0")
