"""Span tracing from outside the program, and the per-layer table it feeds.

:class:`Tracer` wraps public functions and methods of each layer so
that every call records a span (name, start, end, parent span id, run
id) in memory.  A function is patched in its defining module *and* in
every loaded ``repro`` module that bound it with ``from ... import``;
methods are patched on their class.  Nothing is patched outside
:meth:`Tracer.installed`; untraced runs carry only the benchmark's
:class:`~workloads.EpochTap`.

Self time is a span's duration minus the time covered by its direct
children, so the self times of one traced call partition its wall
time exactly: every per-layer ``*_s`` metric is a self time, and the
root span's self time is the part no wrapped layer covers, and the
tracer's own fingerprinting has a span of its own.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

#: (module, function, span) — functions patched wherever they are bound.
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.flight.sampler", "localize_all_ues", "localization"),
    ("repro.localization.joint", "solve_joint_multilateration", "localization.solve"),
    ("repro.core.placement", "uncertainty_penalty_db", "placement.penalty"),
    ("repro.core.placement", "max_min_placement", "placement.maxmin"),
    ("repro.core.placement", "find_optimal_altitude", "placement.altitude"),
    ("repro.rem.streaming", "streamed_discounted_max_min_placement", "placement.streamed"),
    ("repro.rem.streaming", "interpolate_tile", "rem.tile"),
    ("repro.channel.groundtruth", "ground_truth_stack", "channel.truth"),
    ("repro.flight.sampler", "collect_snr_samples", "flight.measure"),
    ("repro.city.mac", "run_city_mac", "city.mac"),
)

#: (module, class, method, span) — methods patched on their class.
METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.rem.map", "REM", "interpolated", "rem.interpolate"),
    ("repro.sim.scenario", "Scenario", "truth_maps", "channel.truth"),
    ("repro.channel.model", "ChannelModel", "snr_db", "channel.point"),
    ("repro.channel.model", "ChannelModel", "snr_to_many", "channel.point"),
    ("repro.channel.model", "ChannelModel", "path_loss_to_many", "channel.point"),
    ("repro.trajectory.skyran", "SkyRANPlanner", "plan", "trajectory.plan"),
    ("repro.flight.uav", "UAV", "fly", "flight.fly"),
    ("repro.flight.uav", "UAV", "goto", "flight.fly"),
    ("repro.core.controller", "SkyRANController", "run_epoch", "controller.epoch"),
    ("repro.traffic.simulate", "MACSimulation", "run", "traffic.mac"),
    ("repro.events.simulate", "AttachSimulation", "run", "events"),
    ("repro.city.scenario", "CityScenario", "serving_snr_db", "city.serving_snr"),
    ("repro.city.scenario", "CityScenario", "olla_round", "city.olla"),
    ("repro.sim.scenario", "Scenario", "relative_throughput", "sim.evaluate"),
    ("repro.sim.scenario", "Scenario", "evaluate", "sim.evaluate"),
)

ROOT = "run"
#: The tracer's own work inside a traced call, kept out of every layer.
FINGERPRINT = "trace.fingerprint"


@dataclass
class Span:
    span_id: int
    parent: int
    name: str
    start: float
    end: float
    run_id: str


class Tracer:
    """In-memory span recorder over patched layer entry points."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._run_id = ""
        self._recording = False
        # REM.interpolated inputs seen in the current traced call.
        self._interpolated: Dict[tuple, object] = {}
        self.interpolate_repeats = 0

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(len(self.spans), parent, name, time.perf_counter(), 0.0, self._run_id)
        self.spans.append(span)
        self._stack.append(span.span_id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._recording:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)

        return traced

    def _wrap_interpolated(self, fn):
        """``REM.interpolated`` with a check for work already done.

        A call is a repeat when some earlier call in the same traced run
        (on this REM or on a reused copy of it) saw the same
        measurements, the same prior (by identity) and the same
        arguments: the map it returns was already computed.  The
        fingerprint is taken before the span opens, in a span of its
        own, so its cost is reported as ``trace.fingerprint_s`` and not
        charged to the caller's self time.
        """
        traced = self._wrap(fn, "rem.interpolate")
        tracer = self

        def key_of(value):
            return value if isinstance(value, (str, int, float, type(None))) else id(value)

        @functools.wraps(fn)
        def interpolated(rem, *args, **kwargs):
            if tracer._recording:
                span = tracer._open(FINGERPRINT)
                try:
                    fingerprint = (
                        hashlib.blake2b(rem.measured_values().tobytes()).digest(),
                        id(rem.prior),
                        tuple(key_of(v) for v in args),
                        tuple((k, key_of(v)) for k, v in sorted(kwargs.items())),
                    )
                    if fingerprint in tracer._interpolated:
                        tracer.interpolate_repeats += 1
                    # Holding the prior keeps its id from being reused.
                    tracer._interpolated[fingerprint] = rem.prior
                finally:
                    tracer._close(span)
            return traced(rem, *args, **kwargs)

        return interpolated

    @contextmanager
    def recording(self, run_id: str) -> Iterator[Span]:
        """Record spans for one timed call, under a root span."""
        self._run_id = run_id
        self._interpolated.clear()
        self._recording = True
        root = self._open(ROOT)
        try:
            yield root
        finally:
            self._close(root)
            self._recording = False
            self._interpolated.clear()

    # -- patching ------------------------------------------------------------

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every target for the duration of the block."""
        patched: List[tuple] = []
        try:
            for module_name, func_name, span in FUNCTIONS:
                module = _module(module_name)
                original = getattr(module, func_name, None) if module else None
                if original is None:
                    self.missing.append(f"{module_name}.{func_name}")
                    continue
                wrapper = self._wrap(original, span)
                for mod in [m for n, m in sys.modules.items() if n.startswith("repro")]:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, original))
            for module_name, cls_name, meth_name, span in METHODS:
                module = _module(module_name)
                cls = getattr(module, cls_name, None) if module else None
                original = cls.__dict__.get(meth_name) if cls is not None else None
                if original is None:
                    self.missing.append(f"{module_name}.{cls_name}.{meth_name}")
                    continue
                if span == "rem.interpolate":
                    wrapper = self._wrap_interpolated(original)
                else:
                    wrapper = self._wrap(original, span)
                setattr(cls, meth_name, wrapper)
                patched.append((cls, meth_name, original))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)


def _module(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


# -- the per-layer table --------------------------------------------------------


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time of every span: duration minus its direct children's."""
    child_time: Dict[int, float] = {}
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    return {s.span_id: (s.end - s.start) - child_time.get(s.span_id, 0.0) for s in spans}


def nesting_problems(spans: List[Span]) -> List[str]:
    """Spans that do not nest inside their parent.

    When every span nests, the self times of a traced call sum to its
    root span, so the per-layer table partitions the call's wall time.
    """
    by_id = {s.span_id: s for s in spans}
    bad = []
    for s in spans:
        if s.end < s.start:
            bad.append(f"span {s.name} ends before it starts")
        if s.parent >= 0:
            p = by_id[s.parent]
            if s.start < p.start or s.end > p.end:
                bad.append(f"span {s.name} escapes its parent {p.name}")
    return bad


#: Span name -> self-time metric.  ``controller.epoch`` self time is
#: reported as ``controller.self_s``; the root's as ``trace.unattributed_s``;
#: the tracer's fingerprinting as ``trace.fingerprint_s``.
SELF_METRICS = {
    "localization": "localization.s",
    "localization.solve": "localization.solve_s",
    "rem.interpolate": "rem.interpolate_s",
    "rem.tile": "rem.tile_s",
    "placement.penalty": "placement.penalty_s",
    "placement.maxmin": "placement.maxmin_s",
    "placement.altitude": "placement.altitude_s",
    "placement.streamed": "placement.streamed_s",
    "channel.truth": "channel.truth_s",
    "channel.point": "channel.point_s",
    "trajectory.plan": "trajectory.plan_s",
    "flight.fly": "flight.fly_s",
    "flight.measure": "flight.measure_s",
    "traffic.mac": "traffic.mac_s",
    "events": "events.self_s",
    "city.serving_snr": "city.serving_snr_s",
    "city.olla": "city.olla_s",
    "city.mac": "city.mac_s",
    "sim.evaluate": "sim.evaluate_s",
}


def layer_table(
    spans: List[Span],
    counters: Dict[str, int],
    interpolate_repeats: int,
) -> Dict[str, float]:
    """Per-layer metrics of one traced call (spans of a single run id)."""
    selfs = self_times(spans)
    totals: Dict[str, float] = {m: 0.0 for m in SELF_METRICS.values()}
    calls: Dict[str, int] = {}
    wall = unattributed = controller_self = controller_incl = fingerprint = 0.0
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.name == ROOT:
            wall += s.end - s.start
            unattributed += selfs[s.span_id]
        elif s.name == FINGERPRINT:
            fingerprint += selfs[s.span_id]
        elif s.name == "controller.epoch":
            controller_self += selfs[s.span_id]
            controller_incl += s.end - s.start
        else:
            totals[SELF_METRICS[s.name]] += selfs[s.span_id]
    named = sum(totals.values())
    out = dict(totals)
    out["controller.epoch_s"] = controller_incl
    out["controller.self_s"] = controller_self
    out["controller.epochs"] = calls.get("controller.epoch", 0)
    out["rem.interpolate_calls"] = calls.get("rem.interpolate", 0)
    n_interp = calls.get("rem.interpolate", 0)
    out["rem.interpolate_repeat_frac"] = interpolate_repeats / n_interp if n_interp else 0.0
    out["placement.penalty_calls"] = calls.get("placement.penalty", 0)
    out["channel.point_calls"] = calls.get("channel.point", 0)
    out["localization.srs_symbols"] = counters.get("loc.srs_symbols", 0)
    samples = counters.get("raytrace.samples", 0)
    out["channel.raytrace_samples"] = samples
    out["channel.traced_frac"] = (
        counters.get("raytrace.samples_traced", 0) / samples if samples else 0.0
    )
    hits = counters.get("oracle.map_cache.hit", 0)
    lookups = hits + counters.get("oracle.map_cache.miss", 0)
    out["channel.map_cache_hit_frac"] = hits / lookups if lookups else 0.0
    tti = counters.get("sched.tti", 0)
    out["traffic.tti"] = tti
    out["traffic.tti_per_s"] = tti / totals["traffic.mac_s"] if totals["traffic.mac_s"] > 0 else 0.0
    out["traffic.mac_rebuilds"] = counters.get("events.mac_rebuild", 0)
    out["events.attaches"] = counters.get("events.attaches", 0)
    out["events.replans"] = counters.get("events.trigger_replan", 0)
    out["city.rem_groups"] = counters.get("epoch.rem_groups", 0)
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = unattributed
    out["trace.fingerprint_s"] = fingerprint
    out["trace.attributed_frac"] = named / wall if wall > 0 else 0.0
    return out


def spans_as_json(spans: List[Span]) -> List[dict]:
    selfs = self_times(spans)
    return [
        {
            "id": s.span_id,
            "parent": s.parent,
            "name": s.name,
            "start": s.start,
            "end": s.end,
            "self_s": selfs[s.span_id],
            "run": s.run_id,
        }
        for s in spans
    ]
