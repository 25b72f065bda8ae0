"""Fault injection and degraded-mode control (the chaos suite).

Three guarantees are pinned here:

1. **Bit-identity off**: with no faults (or an all-zero plan) every
   epoch record equals the fault-free run exactly — the fault subsystem
   is invisible until armed.
2. **Determinism on**: the same :class:`FaultPlan` seed reproduces a
   chaos run bit-for-bit.
3. **Graceful degradation**: each fault kind, injected into the phase
   it attacks (localization / REM measurement / serving), never raises;
   every fault fired and every fallback taken shows up in the
   ``faults.*`` / ``fallback.*`` perf counters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SkyRANConfig
from repro.core.controller import SkyRANController
from repro.core.epoch import EpochTrigger
from repro.faults import FaultInjector, FaultPlan, as_injector
from repro.localization.multilateration import (
    ransac_inlier_mask,
    solve_multilateration,
)
from repro.localization.ranging import GpsRange
from repro.perf import perf
from repro.rem.idw import idw_interpolate
from repro.rem.interpolate import (
    available_interpolators,
    make_interpolator,
    register_interpolator,
)
from repro.sim.runner import RunResult, run_simulation
from repro.sim.scenario import Scenario

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def chaos_scenario() -> Scenario:
    """Small campus world shared by the chaos-matrix runs."""
    return Scenario.create("campus", n_ues=3, cell_size=8.0, seed=3)


def _cfg() -> SkyRANConfig:
    return SkyRANConfig(rem_cell_size_m=16.0, measurement_budget_m=250.0)


def _run(scenario, faults=None, scheme: str = "skyran", n_epochs: int = 2) -> RunResult:
    return run_simulation(
        scenario,
        _cfg(),
        faults,
        scheme=scheme,
        n_epochs=n_epochs,
        budget_per_epoch_m=250.0,
        seed=7,
        altitude=60.0,
    )


class _Mean:
    """An interpolator with only ``interpolate``: the measured mean everywhere."""

    def interpolate(self, grid, values, measured_mask=None, fallback=None):
        out = np.asarray(values, dtype=float).copy()
        if np.isnan(out).all():
            return np.asarray(fallback, dtype=float).copy()
        out[np.isnan(out)] = np.nanmean(out)
        return out


# -- config/plan validation -------------------------------------------------------


class TestValidation:
    def test_config_is_keyword_only(self):
        with pytest.raises(TypeError):
            SkyRANConfig(30.0)

    def test_plan_is_keyword_only(self):
        with pytest.raises(TypeError):
            FaultPlan(3)

    @pytest.mark.parametrize(
        "bad",
        [
            {"srs_drop_rate": -0.1},
            {"srs_drop_rate": 1.5},
            {"snr_corrupt_rate": 2.0},
            {"gps_blackout_duration_s": -1.0},
            {"wind_speed_mps": -2.0},
            {"tof_outlier_bias_m": -5.0},
        ],
    )
    def test_plan_rejects_bad_rates(self, bad):
        with pytest.raises(ValueError):
            FaultPlan(**bad)

    @pytest.mark.parametrize(
        "bad",
        [
            {"measurement_budget_m": -1.0},
            {"rem_cell_size_m": 0.0},
            {"reuse_radius_m": -1.0},
            {"epoch_debounce": 0},
            {"localization_max_retries": -1},
            {"min_inlier_fraction": 1.5},
            {"interpolator": "spline-of-mystery"},
        ],
    )
    def test_config_rejects_bad_values(self, bad):
        with pytest.raises(ValueError):
            SkyRANConfig(**bad)

    def test_unknown_interpolator_message_lists_known(self):
        with pytest.raises(ValueError, match="idw"):
            SkyRANConfig(interpolator="nope")

    def test_as_injector_coercion(self):
        assert as_injector(None) is None
        plan = FaultPlan(seed=1)
        inj = as_injector(plan)
        assert isinstance(inj, FaultInjector)
        assert as_injector(inj) is inj
        with pytest.raises(TypeError):
            as_injector("storm")

    def test_plan_activity_flags(self):
        assert not FaultPlan.none().active
        assert FaultPlan(srs_drop_rate=0.1).srs_active
        assert FaultPlan(wind_speed_mps=1.0).wind_active
        assert "srs_drop_rate" in FaultPlan(srs_drop_rate=0.1).describe()


# -- the chaos matrix -------------------------------------------------------------

#: Each fault kind with the phase of the epoch it attacks.
CHAOS_MATRIX = [
    ("srs_drop", "localization", FaultPlan(seed=5, srs_drop_rate=0.5)),
    ("srs_delay", "localization", FaultPlan(seed=5, srs_delay_rate=0.5, srs_delay_max_s=0.05)),
    ("tof_outlier", "localization", FaultPlan(seed=5, tof_outlier_rate=0.15)),
    ("gps_blackout", "rem", FaultPlan(seed=5, gps_blackout_rate_per_s=0.08, gps_blackout_duration_s=2.0)),
    ("snr_drop", "rem", FaultPlan(seed=5, snr_drop_rate=0.5)),
    ("snr_corrupt", "rem", FaultPlan(seed=5, snr_corrupt_rate=0.3)),
    ("wind", "serve", FaultPlan(seed=5, wind_speed_mps=1.5)),
]


class TestChaosMatrix:
    @pytest.mark.parametrize(
        "kind,phase,plan", CHAOS_MATRIX, ids=[m[0] for m in CHAOS_MATRIX]
    )
    def test_fault_kind_never_raises_and_counts(self, chaos_scenario, kind, phase, plan):
        out = _run(chaos_scenario, plan, n_epochs=1)
        assert out.total_faults > 0, f"{kind} fired no faults.* counter"
        rec = out.final
        assert np.isfinite(rec.relative_throughput)
        assert 0.0 <= rec.relative_throughput <= 1.0 + 1e-9
        assert np.isfinite(rec.flight_distance_m)
        assert rec.altitude_m == 60.0

    def test_everything_at_once(self, chaos_scenario):
        plan = FaultPlan(
            seed=11,
            srs_drop_rate=0.6,
            srs_delay_rate=0.2,
            gps_blackout_rate_per_s=0.05,
            tof_outlier_rate=0.1,
            wind_speed_mps=1.0,
            snr_drop_rate=0.3,
            snr_corrupt_rate=0.1,
        )
        out = _run(chaos_scenario, plan)
        assert len(out.records) == 2
        assert out.total_faults > 0
        for rec in out.records:
            assert np.isfinite(rec.relative_throughput)

    @pytest.mark.parametrize("scheme", ["uniform", "centroid"])
    def test_baselines_survive_chaos(self, chaos_scenario, scheme):
        plan = FaultPlan(
            seed=4, srs_drop_rate=0.5, snr_drop_rate=0.5, wind_speed_mps=1.0
        )
        out = _run(chaos_scenario, plan, scheme=scheme, n_epochs=1)
        assert out.scheme == scheme
        assert np.isfinite(out.final.relative_throughput)

    def test_starved_localization_falls_back(self, chaos_scenario):
        # Total SRS loss: the solver starves and the controller must
        # fall back (retry / reuse / blind) instead of raising.
        plan = FaultPlan(seed=2, srs_drop_rate=1.0)
        out = _run(chaos_scenario, plan, n_epochs=1)
        assert np.isfinite(out.final.relative_throughput)
        assert out.total_fallbacks > 0


# -- determinism and bit-identity -------------------------------------------------


class TestDeterminism:
    def test_same_plan_reproduces_bit_for_bit(self, chaos_scenario):
        plan = FaultPlan(seed=13, srs_drop_rate=0.4, snr_corrupt_rate=0.2, wind_speed_mps=0.8)
        a = _run(Scenario.create("campus", n_ues=3, cell_size=8.0, seed=3), plan)
        b = _run(Scenario.create("campus", n_ues=3, cell_size=8.0, seed=3), plan)
        assert a.records == b.records
        assert a.fault_counters == b.fault_counters
        assert a.fallback_counters == b.fallback_counters

    def test_zero_plan_is_bit_identical_to_no_plan(self):
        a = _run(Scenario.create("campus", n_ues=3, cell_size=8.0, seed=3), None)
        b = _run(Scenario.create("campus", n_ues=3, cell_size=8.0, seed=3), FaultPlan.none(seed=99))
        assert a.records == b.records
        assert b.fault_counters == {}

    def test_fault_free_counters_empty(self, chaos_scenario):
        out = _run(chaos_scenario, None, n_epochs=1)
        assert out.fault_counters == {}
        assert out.fallback_counters == {}

    def test_channel_streams_independent(self):
        # Raising the SNR rates must not change which SRS bursts drop.
        t = np.linspace(0.0, 5.0, 400)
        a = FaultInjector(FaultPlan(seed=21, srs_drop_rate=0.3))
        b = FaultInjector(FaultPlan(seed=21, srs_drop_rate=0.3, snr_drop_rate=0.9))
        keep_a, _ = a.srs_faults(t)
        keep_b, _ = b.srs_faults(t)
        assert np.array_equal(keep_a, keep_b)


# -- interpolator registry --------------------------------------------------------


class TestInterpolatorRegistry:
    def test_registry_lists_builtins(self):
        names = available_interpolators()
        assert "idw" in names and "kriging" in names

    def test_idw_matches_direct_call(self, chaos_scenario):
        grid = chaos_scenario.grid.coarsen(4)
        rng = np.random.default_rng(0)
        values = np.full(grid.shape, np.nan)
        idx = rng.choice(grid.num_cells, size=30, replace=False)
        values.flat[idx] = rng.normal(10.0, 5.0, 30)
        via_registry = make_interpolator("idw", power=2.0, k_neighbors=8).interpolate(
            grid, values
        )
        direct = idw_interpolate(grid, values, power=2.0, k_neighbors=8)
        assert np.array_equal(via_registry, direct)

    def test_unknown_params_filtered(self):
        interp = make_interpolator("kriging", power=2.0, k_neighbors=6)
        assert interp.k_neighbors == 6  # power silently dropped

    def test_register_and_resolve_custom(self):
        register_interpolator("mean-test", lambda **kw: _Mean())
        try:
            assert "mean-test" in available_interpolators()
            cfg = SkyRANConfig(interpolator="mean-test")
            assert cfg.interpolator == "mean-test"
        finally:
            from repro.rem.interpolate import _REGISTRY

            _REGISTRY.pop("mean-test", None)

    def test_controller_epoch_with_interpolate_only_scheme(self, chaos_scenario):
        """A registered scheme with nothing but ``interpolate`` runs an epoch."""
        register_interpolator("mean-test", lambda **kw: _Mean())
        try:
            cfg = SkyRANConfig(
                rem_cell_size_m=16.0,
                measurement_budget_m=250.0,
                interpolator="mean-test",
            )
            ctrl = SkyRANController(
                chaos_scenario.channel, chaos_scenario.enodeb, cfg, seed=7
            )
            result = ctrl.run_epoch()
        finally:
            from repro.rem.interpolate import _REGISTRY

            _REGISTRY.pop("mean-test", None)
        assert result.n_rem_groups == len(result.ue_estimates)
        assert np.isfinite(result.placement.min_snr_db)
        for snr_map in result.rem_maps.values():
            assert np.all(np.isfinite(snr_map))

    def test_measured_mask_equivalent_to_nan(self):
        grid = Scenario.create("campus", n_ues=1, cell_size=8.0, seed=0).grid.coarsen(4)
        rng = np.random.default_rng(1)
        full = rng.normal(0.0, 3.0, grid.shape)
        mask = rng.random(grid.shape) < 0.2
        nanned = np.where(mask, full, np.nan)
        interp = make_interpolator("idw")
        a = interp.interpolate(grid, nanned)
        b = interp.interpolate(grid, full, measured_mask=mask)
        assert np.array_equal(a, b)


# -- unit-level hardening ---------------------------------------------------------


class TestEpochDebounce:
    def test_single_transient_breach_suppressed(self):
        trig = EpochTrigger(margin=0.1, debounce=2)
        trig.reset(10.0)
        before = perf.counter("fallback.epoch_debounced")
        assert trig.update(1.0) is False  # first breach debounced
        assert perf.counter("fallback.epoch_debounced") == before + 1
        assert trig.update(9.5) is False  # recovery resets the streak
        assert trig.update(1.0) is False
        assert trig.update(1.0) is True  # sustained breach fires

    def test_debounce_one_is_instant(self):
        trig = EpochTrigger(margin=0.1, debounce=1)
        trig.reset(10.0)
        assert trig.update(1.0) is True

    def test_debounce_validation(self):
        with pytest.raises(ValueError):
            EpochTrigger(margin=0.1, debounce=0)


class TestRansac:
    def _make_obs(self, n_outliers: int):
        rng = np.random.default_rng(3)
        ue = np.array([50.0, 40.0, 1.5])
        t = np.linspace(0.0, 10.0, 40)
        anchors = np.column_stack(
            [20.0 + 6.0 * t, 30.0 + 2.0 * np.sin(t), np.full_like(t, 60.0)]
        )
        ranges = np.linalg.norm(anchors - ue, axis=1) + rng.normal(0.0, 0.5, len(t))
        ranges[:n_outliers] += 300.0  # gross multipath spikes
        return [
            GpsRange(t_s=float(tt), gps_xyz=a, range_m=float(r))
            for tt, a, r in zip(t, anchors, ranges)
        ], ue

    def test_mask_rejects_gross_outliers(self):
        obs, _ = self._make_obs(n_outliers=6)
        anchors = np.array([o.gps_xyz for o in obs])
        ranges = np.array([o.range_m for o in obs])
        mask = ransac_inlier_mask(anchors, ranges, iters=16, seed=1)
        assert not mask[:6].any()
        assert mask[6:].sum() >= 30

    def test_solver_recovers_with_ransac(self):
        obs, ue = self._make_obs(n_outliers=6)
        hardened = solve_multilateration(obs, ransac_iters=16)
        err_hard = np.hypot(hardened.position[0] - ue[0], hardened.position[1] - ue[1])
        assert hardened.inlier_fraction < 1.0
        assert err_hard < 10.0

    def test_default_path_untouched(self):
        obs, _ = self._make_obs(n_outliers=0)
        res = solve_multilateration(obs)
        assert res.inlier_fraction == 1.0
        assert res.quality_ok
