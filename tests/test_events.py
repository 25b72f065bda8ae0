"""Event-driven attach/churn control-plane tests.

Covers the deterministic event heap, the arrival-process registry, the
RACH contention primitives, the :class:`AttachSimulation` lifecycle
invariants (conservation, no starvation, replay determinism, churn,
storms, barring), the two :class:`EpochTrigger` regressions fixed
alongside (debounce re-fire, unbounded history), and the
``scheme="events"`` runner integration.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.epoch import EpochTrigger
from repro.events.arrivals import (
    available_arrival_processes,
    make_arrival_process,
)
from repro.events.heap import EventQueue
from repro.events.rach import (
    backoff_wait_s,
    barring_wait_s,
    resolve_contention,
)
from repro.events.simulate import AttachSimulation, EventConfig
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.lte.enodeb import ENodeB
from repro.lte.ue import UE

pytestmark = pytest.mark.events


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        q.push(2.0, "b")
        q.push(1.0, "a")
        q.push(3.0, "c")
        assert [q.pop().kind for _ in range(3)] == ["a", "b", "c"]

    def test_ties_pop_in_push_order(self):
        q = EventQueue()
        for kind in ("first", "second", "third"):
            q.push(1.0, kind)
        assert [q.pop().kind for _ in range(3)] == ["first", "second", "third"]

    def test_payload_never_compared(self):
        q = EventQueue()
        q.push(1.0, "a", {"unorderable": object()})
        q.push(1.0, "b", {"unorderable": object()})
        assert q.pop().kind == "a"

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-0.1, "x")

    def test_peek_and_len(self):
        q = EventQueue()
        assert q.peek_time() is None
        assert not q
        q.push(5.0, "x")
        assert q.peek_time() == 5.0
        assert len(q) == 1


class TestArrivals:
    def test_registry_names(self):
        assert set(available_arrival_processes()) >= {
            "uniform",
            "poisson",
            "stadium",
            "flash_crowd",
        }

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown arrival process"):
            make_arrival_process("nope")

    def test_unknown_params_ignored(self):
        p = make_arrival_process("uniform", burst_s=99.0)
        assert p is not None

    @pytest.mark.parametrize("name", ["uniform", "poisson", "stadium", "flash_crowd"])
    def test_times_in_window_and_sorted(self, name, rng):
        times = make_arrival_process(name).times(40, 30.0, rng)
        assert len(times) == 40
        assert np.all(times >= 0.0) and np.all(times <= 30.0)
        assert np.all(np.diff(times) >= 0.0)

    def test_uniform_draws_no_rng(self):
        rng_a = np.random.default_rng(7)
        before = rng_a.bit_generator.state
        make_arrival_process("uniform").times(10, 5.0, rng_a)
        assert rng_a.bit_generator.state == before

    def test_zero_ues(self, rng):
        assert len(make_arrival_process("poisson").times(0, 5.0, rng)) == 0

    def test_flash_crowd_is_compressed(self, rng):
        times = make_arrival_process("flash_crowd", burst_s=0.5).times(30, 60.0, rng)
        assert times.max() - times.min() <= 0.5

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            make_arrival_process("stadium", peak_frac=1.5)
        with pytest.raises(ValueError):
            make_arrival_process("flash_crowd", burst_s=0.0)
        with pytest.raises(ValueError):
            make_arrival_process("uniform").times(5, 0.0, rng)


class TestRachContention:
    def test_singletons_win(self):
        out = resolve_contention([1, 2, 3], {1: 0, 2: 1, 3: 2}, rar_window_grants=8)
        assert out.winners == (1, 2, 3)
        assert out.collided == ()
        assert out.starved == ()

    def test_same_preamble_collides(self):
        out = resolve_contention([1, 2, 3], {1: 5, 2: 5, 3: 2}, rar_window_grants=8)
        assert out.winners == (3,)
        assert out.collided == (1, 2)

    def test_rar_capacity_starves(self):
        draws = {i: i for i in range(1, 6)}
        out = resolve_contention(list(draws), draws, rar_window_grants=2)
        assert len(out.winners) == 2
        assert len(out.starved) == 3
        # Grants go in preamble-index order.
        assert out.winners == (1, 2)

    def test_everyone_collides(self):
        out = resolve_contention([4, 7], {4: 0, 7: 0}, rar_window_grants=8)
        assert out.winners == ()
        assert set(out.collided) == {4, 7}

    def test_grant_validation(self):
        with pytest.raises(ValueError):
            resolve_contention([1], {1: 0}, rar_window_grants=0)

    def test_barring_open_cell_never_waits(self, rng):
        for _ in range(20):
            assert barring_wait_s(rng, 1.0, 4.0) == 0.0

    def test_barring_wait_bounds(self, rng):
        waits = [barring_wait_s(rng, 0.01, 4.0) for _ in range(200)]
        barred = [w for w in waits if w > 0]
        assert barred, "factor 0.01 should bar most draws"
        for w in barred:
            assert 0.7 * 4.0 <= w <= 1.3 * 4.0

    def test_barring_validation(self, rng):
        with pytest.raises(ValueError):
            barring_wait_s(rng, 0.0, 4.0)
        with pytest.raises(ValueError):
            barring_wait_s(rng, 0.5, -1.0)

    def test_backoff_grows_with_attempts_and_caps(self, rng):
        assert 0.0 <= backoff_wait_s(rng, 0.01, 0) <= 0.01
        assert backoff_wait_s(rng, 0.01, 3) <= 0.01 * 8
        # Exponent caps at 8 regardless of attempt count.
        assert backoff_wait_s(rng, 0.01, 100) <= 0.01 * 256

    def test_backoff_validation(self, rng):
        with pytest.raises(ValueError):
            backoff_wait_s(rng, 0.0, 1)
        with pytest.raises(ValueError):
            backoff_wait_s(rng, 0.1, -1)


def _sim(
    n_ues: int,
    seed: int = 0,
    faults: FaultPlan = None,
    mobility=None,
    arrival_params=None,
    **cfg,
) -> AttachSimulation:
    defaults = dict(
        arrival_process="poisson",
        arrival_window_s=5.0,
        n_preambles=8,
        rar_window_grants=4,
        kpi_period_s=10.0,
    )
    defaults.update(cfg)
    enodeb = ENodeB(mobility=mobility)
    ues = [UE(ue_id=i) for i in range(1, n_ues + 1)]
    injector = FaultInjector(faults) if faults is not None else None
    return AttachSimulation(
        enodeb,
        ues,
        EventConfig(**defaults),
        seed=seed,
        arrival_params=arrival_params,
        faults=injector,
    )


class TestAttachSimulation:
    def test_everyone_attaches_in_open_cell(self):
        sim = _sim(10)
        counters = sim.run(30.0)
        assert counters["attaches"] == 10
        pop = sim.population()
        assert pop["attached"] == 10
        assert pop["waiting"] == pop["pending"] == pop["failed"] == 0
        assert len(sim.enodeb.connected_ues()) == 10

    def test_churn_detaches_and_cleans_state(self):
        mobility_forgotten = []

        class SpyModel:
            def step(self, ue, dt_s, rng):
                pass

            def forget(self, ue_id):
                mobility_forgotten.append(ue_id)

        sim = _sim(8, session_mean_s=3.0, mobility=SpyModel())
        sim.run(120.0)
        pop = sim.population()
        assert pop["detached"] > 0
        # Deregistration reached the mobility model for every detach.
        assert len(mobility_forgotten) >= pop["detached"]

    def test_storm_knocks_off_and_reattaches(self):
        plan = FaultPlan(seed=1, storm_rate_per_s=0.2, storm_burst_ues=3)
        sim = _sim(6, seed=2, faults=plan)
        counters = sim.run(60.0)
        assert counters["storm_onsets"] > 0
        assert counters["storm_knockoffs"] > 0
        # Knocked-off UEs re-ran the RACH: more attaches than arrivals.
        assert counters["attaches"] > counters["arrivals"]
        assert sum(sim.population().values()) == 6

    def test_stale_detach_is_dropped_after_storm(self):
        # With churn AND storms, a knocked-off UE's old session detach
        # must not fire against its new session: a UE that re-attached
        # after a storm stays attached until its *new* session ends.
        plan = FaultPlan(seed=3, storm_rate_per_s=0.1, storm_burst_ues=4)
        sim = _sim(6, seed=4, faults=plan, session_mean_s=40.0)
        counters = sim.run(80.0)
        # Every detach is from a live generation: detaches can never
        # exceed attaches.
        assert counters["detaches"] <= counters["attaches"]
        assert sum(sim.population().values()) == 6

    def test_barring_engages_under_overload(self):
        sim = _sim(
            20,
            arrival_process="flash_crowd",
            arrival_params={"burst_s": 0.02},
            acb_threshold=2,
            barring_factor=0.3,
            barring_time_s=0.5,
            rar_window_grants=2,
        )
        counters = sim.run(60.0)
        assert counters["barred"] > 0
        assert sim.population()["attached"] == 20  # everyone gets in eventually

    def test_collisions_happen_under_simultaneous_access(self):
        sim = _sim(
            16,
            arrival_process="flash_crowd",
            arrival_params={"burst_s": 0.004},  # within one PRACH period
            n_preambles=4,
        )
        counters = sim.run(30.0)
        assert counters["rach_collisions"] > 0
        assert sim.population()["attached"] == 16

    def test_exhausted_attempts_fail(self):
        # One preamble, everyone collides forever except lone stragglers.
        sim = _sim(
            6,
            arrival_process="flash_crowd",
            arrival_params={"burst_s": 0.004},
            n_preambles=1,
            max_attach_attempts=2,
            backoff_max_s=0.001,
        )
        counters = sim.run(30.0)
        pop = sim.population()
        assert counters["failed"] == pop["failed"]
        assert sum(pop.values()) == 6

    def test_replay_determinism(self):
        plan = FaultPlan(seed=9, storm_rate_per_s=0.1)
        a = _sim(10, seed=7, faults=plan, session_mean_s=15.0)
        b = _sim(10, seed=7, faults=plan, session_mean_s=15.0)
        assert a.run(60.0) == b.run(60.0)
        assert a.population() == b.population()

    def test_seed_changes_history(self):
        a = _sim(10, seed=1)
        b = _sim(10, seed=2)
        ca, cb = a.run(30.0), b.run(30.0)
        # Same totals, different micro-history is fine; but identical
        # runs with different seeds would mean seeds are ignored.
        assert a._arrival_times is not None and b._arrival_times is not None
        assert not np.array_equal(a._arrival_times, b._arrival_times)
        del ca, cb

    def test_kpi_callback_fires(self):
        ticks = []
        sim = _sim(4)
        sim.on_kpi = ticks.append
        sim.run(30.0)
        assert ticks == [10.0, 20.0, 30.0]

    def test_population_change_callback(self):
        changes = []
        sim = _sim(4)
        sim.on_population_change = lambda t: changes.append(
            len(sim.enodeb.connected_ues())
        )
        sim.run(30.0)
        assert changes == [1, 2, 3, 4]

    def test_duplicate_ue_ids_rejected(self):
        enodeb = ENodeB()
        ues = [UE(ue_id=1), UE(ue_id=1)]
        with pytest.raises(ValueError, match="duplicate"):
            AttachSimulation(enodeb, ues, EventConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EventConfig(rach_period_s=0.0)
        with pytest.raises(ValueError):
            EventConfig(barring_factor=0.0)
        with pytest.raises(ValueError):
            EventConfig(max_attach_attempts=0)


class TestLifecycleProperties:
    @given(
        seed=st.integers(0, 2**16),
        n_ues=st.integers(1, 24),
        process=st.sampled_from(["uniform", "poisson", "stadium", "flash_crowd"]),
        stormy=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_conservation(self, seed, n_ues, process, stormy):
        """attached + waiting + pending + detached + failed == spawned."""
        plan = (
            FaultPlan(seed=seed, storm_rate_per_s=0.1, storm_burst_ues=3)
            if stormy
            else None
        )
        sim = _sim(
            n_ues,
            seed=seed,
            faults=plan,
            arrival_process=process,
            session_mean_s=10.0,
            acb_threshold=4,
            barring_factor=0.5,
            barring_time_s=0.5,
        )
        sim.run(30.0)
        pop = sim.population()
        assert sum(pop.values()) == n_ues
        assert len(sim.enodeb.connected_ues()) == pop["attached"]

    @given(seed=st.integers(0, 2**16), n_ues=st.integers(1, 16))
    @settings(max_examples=15, deadline=None)
    def test_no_starvation_without_churn(self, seed, n_ues):
        """An open cell with enough retries eventually attaches everyone."""
        sim = _sim(n_ues, seed=seed, arrival_window_s=2.0, max_attach_attempts=50)
        sim.run(60.0)
        assert sim.population()["attached"] == n_ues

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_replay_property(self, seed):
        a = _sim(8, seed=seed, session_mean_s=5.0)
        b = _sim(8, seed=seed, session_mean_s=5.0)
        assert a.run(20.0) == b.run(20.0)


class TestEpochTriggerRegressions:
    def test_fire_clears_debounce_streak(self):
        """Regression: after a fire without reset, the streak must
        restart — the old code re-fired on every subsequent breach,
        making ``debounce`` meaningless in the event-driven loop."""
        t = EpochTrigger(margin=0.1, debounce=2)
        t.reset(100.0)
        assert t.update(50.0) is False  # breach 1 of 2
        assert t.update(50.0) is True  # fires
        assert t.update(50.0) is False  # must debounce again
        assert t.update(50.0) is True

    def test_recovery_still_clears_streak(self):
        t = EpochTrigger(margin=0.1, debounce=2)
        t.reset(100.0)
        assert t.update(50.0) is False
        assert t.update(99.0) is False  # recovered
        assert t.update(50.0) is False  # streak restarted
        assert t.update(50.0) is True

    def test_history_is_bounded(self):
        """Regression: hours of KPI ticks must not grow memory."""
        t = EpochTrigger(margin=0.1, history_maxlen=10)
        t.reset(100.0)
        for i in range(25):
            t.update(99.0, t_s=float(i))
        assert len(t.history) == 10
        assert t.history_dropped == 15
        assert t.history[0] == (15.0, 99.0)
        assert t.history[-1] == (24.0, 99.0)

    def test_reset_clears_drop_counter(self):
        t = EpochTrigger(margin=0.1, history_maxlen=2)
        t.reset(10.0)
        for i in range(5):
            t.update(9.5, t_s=float(i))
        assert t.history_dropped == 3
        t.reset(10.0)
        assert t.history_dropped == 0
        assert t.history == []

    def test_maxlen_validation(self):
        with pytest.raises(ValueError):
            EpochTrigger(history_maxlen=0)


class TestRunnerIntegration:
    @pytest.fixture(scope="class")
    def event_result(self):
        from repro.core.config import SkyRANConfig
        from repro.sim.runner import run_simulation
        from repro.sim.scenario import Scenario

        scenario = Scenario.create("campus", n_ues=3, cell_size=8.0, seed=3)
        cfg = SkyRANConfig(rem_cell_size_m=16.0, measurement_budget_m=250.0)
        return run_simulation(
            scenario,
            cfg,
            scheme="events",
            n_epochs=2,
            budget_per_epoch_m=250.0,
            seed=5,
            altitude=60.0,
            events=EventConfig(
                arrival_process="uniform", arrival_window_s=10.0, kpi_period_s=10.0
            ),
            serve_time_s=40.0,
        )

    def test_records_carry_event_fields(self, event_result):
        assert event_result.records, "at least one epoch planned"
        rec = event_result.records[0]
        assert rec.attached_ues is not None and rec.attached_ues > 0
        assert rec.attaches is not None and rec.attaches > 0
        assert rec.rach_collisions is not None
        assert rec.barred is not None

    def test_counters_and_population(self, event_result):
        assert event_result.event_counters["arrivals"] == 3
        assert sum(event_result.population.values()) == 3

    def test_event_records_carry_rem_groups(self):
        # Event-driven epochs record the controller's REM-group count
        # like `run_epochs` does: a skyran epoch over the same
        # attached UEs reports the same integer.
        from repro.core.config import SkyRANConfig
        from repro.sim.runner import run_simulation
        from repro.sim.scenario import Scenario

        cfg = SkyRANConfig(rem_cell_size_m=16.0, measurement_budget_m=250.0)
        common = dict(budget_per_epoch_m=250.0, seed=5, altitude=60.0)
        scenario = Scenario.create("campus", n_ues=3, cell_size=8.0, seed=3)
        attached = []
        result = run_simulation(
            scenario,
            cfg,
            scheme="events",
            n_epochs=2,
            events=EventConfig(
                arrival_process="uniform", arrival_window_s=10.0, kpi_period_s=10.0
            ),
            serve_time_s=40.0,
            on_epoch=lambda rec: attached.append(
                {ue.ue_id for ue in scenario.enodeb.connected_ues()}
            ),
            **common,
        )
        assert result.records
        for rec, ids in zip(result.records, attached):
            assert isinstance(rec.rem_groups, int)
            fixed = Scenario.create("campus", n_ues=3, cell_size=8.0, seed=3)
            for ue in list(fixed.enodeb.ues):
                if ue.ue_id not in ids:
                    fixed.enodeb.deregister_ue(ue.ue_id)
            (want,) = run_simulation(
                fixed, cfg, scheme="skyran", n_epochs=1, **common
            ).records
            assert rec.rem_groups == want.rem_groups == len(ids)

    def test_default_scheme_has_no_event_fields(self):
        from repro.core.config import SkyRANConfig
        from repro.sim.runner import run_simulation
        from repro.sim.scenario import Scenario

        scenario = Scenario.create("campus", n_ues=3, cell_size=8.0, seed=3)
        cfg = SkyRANConfig(rem_cell_size_m=16.0, measurement_budget_m=250.0)
        result = run_simulation(
            scenario,
            cfg,
            scheme="skyran",
            n_epochs=1,
            budget_per_epoch_m=250.0,
            seed=5,
            altitude=60.0,
        )
        rec = result.records[0]
        assert rec.attached_ues is None
        assert rec.attaches is None
        assert rec.detaches is None
        assert rec.rach_collisions is None
        assert rec.barred is None
        assert result.event_counters == {}
        assert result.population == {}
