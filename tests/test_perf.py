"""Tests for the :mod:`repro.perf` timer/counter registry."""

from __future__ import annotations

import json

from repro.perf import PerfRegistry, SpanStat, perf


def test_span_accumulates_calls_and_time():
    reg = PerfRegistry()
    for _ in range(3):
        with reg.span("work"):
            pass
    spans = reg.spans()
    assert spans["work"].calls == 3
    assert spans["work"].total_s >= 0.0
    assert spans["work"].mean_s == spans["work"].total_s / 3


def test_span_records_on_exception():
    reg = PerfRegistry()
    try:
        with reg.span("boom"):
            raise ValueError("x")
    except ValueError:
        pass
    assert reg.spans()["boom"].calls == 1


def test_counters_accumulate_and_default_to_zero():
    reg = PerfRegistry()
    assert reg.counter("never") == 0
    reg.count("hits")
    reg.count("hits", 4)
    assert reg.counter("hits") == 5
    assert reg.counters() == {"hits": 5}


def test_snapshot_is_json_ready():
    reg = PerfRegistry()
    with reg.span("a"):
        reg.count("c", 2)
    snap = reg.snapshot()
    json.dumps(snap)  # must not raise
    assert snap["spans"]["a"]["calls"] == 1
    assert snap["counters"]["c"] == 2


def test_reset_clears_everything():
    reg = PerfRegistry()
    with reg.span("a"):
        pass
    reg.count("c")
    reg.reset()
    assert reg.spans() == {}
    assert reg.counters() == {}


def test_disabled_registry_records_nothing():
    reg = PerfRegistry(enabled=False)
    with reg.span("a"):
        reg.count("c")
    assert reg.spans() == {}
    assert reg.counters() == {}


def test_dump_writes_snapshot_json(tmp_path):
    reg = PerfRegistry()
    reg.count("c", 7)
    path = tmp_path / "perf.json"
    reg.dump(str(path))
    data = json.loads(path.read_text())
    assert data["counters"]["c"] == 7


def test_report_lines_mention_spans_and_counters():
    reg = PerfRegistry()
    with reg.span("raytrace"):
        pass
    reg.count("cache.hit", 3)
    text = "\n".join(reg.report_lines())
    assert "raytrace" in text
    assert "cache.hit" in text


def test_spanstat_mean_of_empty_is_zero():
    assert SpanStat().mean_s == 0.0


def test_module_singleton_exists_and_works():
    before = perf.counter("test_perf.selfcheck")
    perf.count("test_perf.selfcheck")
    assert perf.counter("test_perf.selfcheck") == before + 1


def test_product_code_never_starts_tracemalloc(monkeypatch):
    """Memory tracing belongs to the benches that gate on it.

    A tracked span inside product code resets the tracemalloc peak of
    any span a caller wraps around it, and slows the whole call down.
    """
    import tracemalloc

    from repro.city import CityScenario
    from repro.core.config import SkyRANConfig
    from repro.sim.runner import run_simulation
    from repro.sim.scenario import Scenario

    def refuse(*_args, **_kwargs):
        raise AssertionError("product code touched tracemalloc")

    monkeypatch.setattr(tracemalloc, "start", refuse)
    monkeypatch.setattr(tracemalloc, "reset_peak", refuse)
    city = CityScenario.create(
        terrain_name="campus", cell_size_m=8.0, n_ues=12, seed=1, eval_cell_m=32.0
    )
    city.run_controller_epoch(budget_m=80.0, n_tti=5, loc_sample=2)
    run_simulation(
        Scenario.create("campus", n_ues=2, cell_size=8.0, seed=3),
        SkyRANConfig(rem_cell_size_m=16.0),
        scheme="skyran",
        n_epochs=1,
        budget_per_epoch_m=120.0,
        seed=7,
    )
