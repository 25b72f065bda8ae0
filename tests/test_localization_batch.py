"""Batched SRS/ToF localization kernels vs. the per-symbol oracles.

The batch kernels promise *bit-identical* results to the per-symbol /
per-fix oracles in :mod:`tests.oracles` under the documented RNG draw
schedule; these tests hold them to it, end to end: channel, Eq. 1-3
estimator, flight collection (including fault injection and quality
gating), ToF-to-GPS aggregation and MAD filtering.  The analytic
Jacobians are checked against SciPy's 3-point finite differences, the
vectorized joint residuals against the per-UE loop, and the joint
solve against the seed finite-difference solver.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize._numdiff import approx_derivative

from repro.faults import FaultInjector, FaultPlan
from repro.flight.sampler import collect_gps_ranges
from repro.flight.uav import UAV
from repro.localization.joint import (
    _flatten,
    _joint_model,
    _stack_observations,
    solve_joint_multilateration,
)
from repro.localization.multilateration import _jac, _residuals
from repro.localization.ranging import GpsRange, aggregate_tof_to_gps, mad_filter
from repro.lte.srs import (
    SRSConfig,
    _largest_prime_at_most,
    apply_channel,
    apply_channel_batch,
    make_srs_symbol,
    pack_taps,
    synthesize_srs_symbol,
)
from repro.lte.tof import (
    ToFEstimator,
    correlation_quality_batch,
    estimate_delay_samples,
    estimate_delays_batch,
)
from repro.perf import perf
from repro.sim.scenario import Scenario
from repro.trajectory.random_flight import random_flight
from tests.oracles import (
    aggregate_tof_to_gps_reference,
    collect_gps_ranges_reference,
    estimate_delay_and_quality,
    joint_residuals_reference,
    mad_filter_reference,
    solve_joint_multilateration_seed,
)

pytestmark = pytest.mark.localization

CFG = SRSConfig()

# A representative mix of per-symbol channels: LOS (single weak tap),
# NLOS (two strong excess-delay taps), and a clean no-multipath row.
TAP_SETS = [
    [(0.1, -9.0)],
    [(0.5, -3.0), (1.2, -6.0)],
    [],
    [(0.3, -4.0), (2.0, -8.0)],
    [],
    [(0.1, -9.0)],
]
DELAYS = np.array([20.4, 33.1, 5.0, 47.9, 12.25, 28.0])
SNRS = np.array([18.0, 6.0, 25.0, 3.5, 15.0, 10.0])


def _batch_vs_loop(symbol, delays, snrs, tap_sets, seed=3):
    """Run the batch kernel and the apply_channel loop off twin RNGs."""
    excess, power, mask = pack_taps(tap_sets)
    rng_a = np.random.default_rng(seed)
    rng_b = np.random.default_rng(seed)
    batched = apply_channel_batch(symbol, CFG, delays, snrs, rng_a, excess, power, mask)
    looped = np.stack(
        [
            apply_channel(symbol, CFG, d, s, rng_b, taps)
            for d, s, taps in zip(delays, snrs, tap_sets)
        ]
    )
    return batched, looped, rng_a, rng_b


class TestChannelBatch:
    def test_bit_identical_to_loop(self):
        symbol = make_srs_symbol(CFG)
        batched, looped, rng_a, rng_b = _batch_vs_loop(symbol, DELAYS, SNRS, TAP_SETS)
        assert np.array_equal(batched, looped)
        # Same draw count: the generators end in the same state, so a
        # caller interleaving other draws stays reproducible.
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_no_taps_bit_identical(self):
        symbol = make_srs_symbol(CFG)
        rng_a = np.random.default_rng(11)
        rng_b = np.random.default_rng(11)
        batched = apply_channel_batch(symbol, CFG, DELAYS, SNRS, rng_a)
        looped = np.stack(
            [apply_channel(symbol, CFG, d, s, rng_b) for d, s in zip(DELAYS, SNRS)]
        )
        assert np.array_equal(batched, looped)

    def test_dropped_symbols_consume_no_draws(self):
        # Fault-dropping symbol i from the batch must reproduce the
        # loop that never calls apply_channel for symbol i.
        symbol = make_srs_symbol(CFG)
        keep = np.array([True, False, True, True, False, True])
        kept_taps = [t for t, k in zip(TAP_SETS, keep) if k]
        batched, looped, _, _ = _batch_vs_loop(
            symbol, DELAYS[keep], SNRS[keep], kept_taps, seed=5
        )
        assert np.array_equal(batched, looped)

    def test_left_pack_enforced(self):
        symbol = make_srs_symbol(CFG)
        mask = np.array([[False, True]])  # active tap not left-packed
        with pytest.raises(ValueError, match="left-packed"):
            apply_channel_batch(
                symbol,
                CFG,
                np.array([10.0]),
                np.array([10.0]),
                np.random.default_rng(0),
                np.zeros((1, 2)),
                np.zeros((1, 2)),
                mask,
            )


class TestEstimatorBatch:
    def test_bit_identical_to_scalar(self):
        symbol = make_srs_symbol(CFG)
        batched_rx, _, _, _ = _batch_vs_loop(symbol, DELAYS, SNRS, TAP_SETS, seed=9)
        delays, qualities = estimate_delays_batch(batched_rx, symbol, 4)
        for i, row in enumerate(batched_rx):
            d, q = estimate_delay_and_quality(row, symbol, 4)
            assert delays[i] == d
            assert qualities[i] == q
            assert estimate_delay_samples(row, symbol, 4) == d

    def test_empty_batch(self):
        symbol = make_srs_symbol(CFG)
        delays, qualities = estimate_delays_batch(np.zeros((0, CFG.n_fft)), symbol)
        assert delays.shape == (0,) and qualities.shape == (0,)

    def test_shape_validation(self):
        symbol = make_srs_symbol(CFG)
        with pytest.raises(ValueError):
            estimate_delays_batch(np.zeros((2, 7), dtype=complex), symbol)
        with pytest.raises(ValueError):
            estimate_delays_batch(
                np.zeros((2, CFG.n_fft), dtype=complex), symbol, upsampling=0
            )


def correlation_quality(mag, peak, guard=None):
    """One profile through the batched quality kernel."""
    return float(correlation_quality_batch(mag[None, :], np.array([peak]), guard)[0])


class TestCorrelationQuality:
    def test_sharp_peak_guard_excludes_main_lobe(self):
        # A sinc-like peak whose main lobe spans several bins: without
        # the guard the lobe shoulders would inflate the background
        # median and depress the ratio.
        total = 4096
        mag = np.full(total, 0.01)
        peak = 137
        lobe = np.array([0.2, 0.6, 1.0, 0.6, 0.2])
        mag[peak - 2 : peak + 3] = lobe
        q = correlation_quality(mag, peak)
        assert q == pytest.approx(1.0 / 0.01)
        # Shrinking the guard to zero leaves the shoulders in the
        # background window; the ratio must not *increase*.
        assert correlation_quality(mag, peak, guard=0) <= q

    def test_flat_profile_near_one(self):
        mag = np.full(1024, 0.5)
        assert correlation_quality(mag, 10) == pytest.approx(1.0)

    def test_wraps_circularly(self):
        mag = np.full(1024, 0.01)
        mag[0] = 1.0  # peak at the wrap point
        mag[-1] = mag[1] = 0.5  # lobe shoulders straddle the boundary
        q = correlation_quality(mag, 0, guard=1)
        assert q == pytest.approx(1.0 / 0.01)


class TestSRSSymbolCache:
    def test_memoized_per_config_and_root(self):
        perf.reset()
        a = make_srs_symbol(CFG, 25)
        hits0 = perf.counters().get("srs.symbol_cache.hit", 0)
        b = make_srs_symbol(CFG, 25)
        assert b is a  # shared array, not a copy
        assert perf.counters().get("srs.symbol_cache.hit", 0) == hits0 + 1
        assert not a.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            a[0] = 0
        assert np.array_equal(a, synthesize_srs_symbol(CFG, 25))
        assert make_srs_symbol(CFG, 29) is not a

    def test_prime_search_cached(self):
        _largest_prime_at_most.cache_clear()
        assert _largest_prime_at_most(CFG.n_subcarriers) == 571
        info = _largest_prime_at_most.cache_info()
        assert info.misses == 1
        _largest_prime_at_most(CFG.n_subcarriers)
        assert _largest_prime_at_most.cache_info().hits == info.hits + 1


@pytest.fixture(scope="module")
def campus_flight():
    scenario = Scenario.create("campus", n_ues=5, seed=0)
    grid = scenario.grid
    start = np.array(
        [grid.origin_x + grid.width / 2, grid.origin_y + grid.height / 2]
    )
    fly_rng = np.random.default_rng(0)
    uav = UAV(position=np.array([start[0], start[1], 100.0]), speed_mps=3.0)
    traj = random_flight(grid, start, 20.0, 100.0, fly_rng)
    log = uav.fly(traj, fly_rng)
    estimator = ToFEstimator(scenario.enodeb.srs_config, 4)
    margin = 20.0
    bounds = (
        (grid.origin_x - margin, grid.max_x + margin),
        (grid.origin_y - margin, grid.max_y + margin),
    )
    return scenario, log, estimator, bounds


def _obs_equal(a, b):
    return len(a) == len(b) and all(
        x.range_m == y.range_m
        and x.t_s == y.t_s
        and np.array_equal(x.gps_xyz, y.gps_xyz)
        for x, y in zip(a, b)
    )


class TestCollectEquivalence:
    def _compare(self, campus_flight, **kw):
        scenario, log, estimator, _ = campus_flight
        ref_kw = dict(kw)
        if "faults" in kw:
            # Fresh injectors with the same plan: the injector draws
            # from its own streams, so each side must start cold.
            plan = kw["faults"]
            kw = dict(kw, faults=FaultInjector(plan))
            ref_kw = dict(ref_kw, faults=FaultInjector(plan))
        for ue in scenario.ues[:2]:
            a = collect_gps_ranges(
                log,
                ue,
                scenario.channel,
                scenario.enodeb,
                estimator,
                np.random.default_rng(1),
                **kw,
            )
            b = collect_gps_ranges_reference(
                log,
                ue,
                scenario.channel,
                scenario.enodeb,
                estimator,
                np.random.default_rng(1),
                resynthesize=True,
                **ref_kw,
            )
            assert _obs_equal(a, b)
            assert len(a) > 0

    def test_plain(self, campus_flight):
        self._compare(campus_flight)

    def test_quality_gated(self, campus_flight):
        self._compare(campus_flight, min_quality=3.0)

    def test_faulted(self, campus_flight):
        self._compare(
            campus_flight,
            faults=FaultPlan(seed=7, srs_drop_rate=0.1, tof_outlier_rate=0.05),
        )


def _campus_observations(campus_flight):
    scenario, log, estimator, bounds = campus_flight
    obs = {}
    for ue in scenario.ues:
        o = mad_filter(
            collect_gps_ranges(
                log,
                ue,
                scenario.channel,
                scenario.enodeb,
                estimator,
                np.random.default_rng(1),
            )
        )
        if len(o) >= 3:
            obs[ue.ue_id] = o
    assert len(obs) >= 3
    return obs, bounds


class TestJointSolver:
    def test_analytic_matches_finite_difference(self, campus_flight):
        # The Fig. 18-style acceptance check: the analytic Jacobian
        # joint solve must land within 1e-6 m of the seed
        # finite-difference solver on a real campus flight.  3-point
        # differences keep the oracle's own truncation error well
        # below that bound (2-point floors around 1e-5 m).
        obs, bounds = _campus_observations(campus_flight)
        res_a = solve_joint_multilateration(obs, bounds_xy=bounds, tol=1e-12)
        res_fd = solve_joint_multilateration_seed(
            obs, bounds_xy=bounds, jac="3-point", tol=1e-12
        )
        for u in res_a.per_ue:
            delta = np.linalg.norm(
                res_a.per_ue[u].position - res_fd.per_ue[u].position
            )
            assert delta < 1e-6
        assert res_a.offset_m == pytest.approx(res_fd.offset_m, abs=1e-6)

    def test_reference_model_matches_vectorized(self, campus_flight):
        # The vectorized residuals are the per-UE loop, bit for bit, at
        # any theta, with and without an offset prior row.
        obs, _ = _campus_observations(campus_flight)
        ue_ids = sorted(obs)
        data = {u: _stack_observations(obs[u]) for u in ue_ids}
        rng = np.random.default_rng(4)
        for prior_b, prior_w in ((0.0, 0.0), (137.0, 4.0)):
            residuals, _ = _joint_model(
                *_flatten(data, ue_ids), len(ue_ids), 1.5, prior_b, prior_w
            )
            for _ in range(5):
                theta = rng.normal(0.0, 80.0, 2 * len(ue_ids) + 1)
                want = joint_residuals_reference(
                    theta, data, ue_ids, 1.5, prior_b, prior_w
                )
                assert np.array_equal(residuals(theta), want)

    def test_joint_jacobian_matches_finite_difference(self, campus_flight):
        obs, _ = _campus_observations(campus_flight)
        ue_ids = sorted(obs)
        data = {u: _stack_observations(obs[u]) for u in ue_ids}
        rng = np.random.default_rng(5)
        for prior_b, prior_w in ((0.0, 0.0), (137.0, 4.0)):
            residuals, jacobian = _joint_model(
                *_flatten(data, ue_ids), len(ue_ids), 1.5, prior_b, prior_w
            )
            for _ in range(3):
                theta = rng.normal(0.0, 80.0, 2 * len(ue_ids) + 1)
                fd = approx_derivative(residuals, theta, method="3-point")
                np.testing.assert_allclose(jacobian(theta), fd, rtol=0, atol=1e-7)

    def test_single_ue_jac_modes_agree(self, rng):
        # The single-UE analytic Jacobian against SciPy's 3-point
        # finite differences of the same residuals.
        ue = np.array([30.0, -20.0, 1.5])
        obs = _circle_obs(ue, 100.0, 60, 50.0, 137.0, 0.5, rng)
        anchors = np.array([o.gps_xyz for o in obs])
        ranges = np.array([o.range_m for o in obs])
        for theta in ([0.0, 0.0, 100.0], [30.5, -19.0, 137.0], [-80.0, 45.0, 0.0]):
            theta = np.array(theta)
            fd = approx_derivative(
                _residuals, theta, method="3-point", args=(anchors, ranges, 1.5)
            )
            np.testing.assert_allclose(
                _jac(theta, anchors, ranges, 1.5), fd, rtol=0, atol=1e-7
            )


def _circle_obs(ue, radius, n, alt, offset, noise, rng):
    angles = np.linspace(0, 2 * np.pi, n, endpoint=False)
    anchors = np.column_stack(
        [
            ue[0] + radius * np.cos(angles),
            ue[1] + radius * np.sin(angles),
            np.full(n, alt),
        ]
    )
    d = np.linalg.norm(anchors - ue, axis=1)
    r = d + offset + rng.normal(0, noise, n)
    return [GpsRange(a, float(ri), float(i)) for i, (a, ri) in enumerate(zip(anchors, r))]


ranges_lists = st.lists(
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False), min_size=0, max_size=40
)


class TestAggregationProperties:
    @given(
        st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=0, max_size=25),
        st.lists(st.floats(-5.0, 105.0, allow_nan=False), min_size=0, max_size=60),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_vectorized_aggregate_matches_loop(self, gps_t, tof_t, pyrandom):
        gps_t = sorted(gps_t)
        gps_xyz = np.array(
            [[pyrandom.uniform(-50, 50) for _ in range(3)] for _ in gps_t]
        ).reshape(len(gps_t), 3)
        ranges = [pyrandom.uniform(50.0, 500.0) for _ in tof_t]
        fast = aggregate_tof_to_gps(gps_t, gps_xyz, tof_t, ranges)
        slow = aggregate_tof_to_gps_reference(gps_t, gps_xyz, tof_t, ranges)
        assert _obs_equal(fast, slow)

    @given(ranges_lists, st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_vectorized_mad_filter_matches_loop(self, base, seed):
        noise = np.random.default_rng(seed).normal(0, 1.0, len(base))
        obs = [
            GpsRange(np.array([float(i), 0.0, 50.0]), float(r + dn), float(i))
            for i, (r, dn) in enumerate(zip(base, noise))
        ]
        fast = mad_filter(obs)
        slow = mad_filter_reference(obs)
        assert _obs_equal(fast, slow)

    def test_aggregate_rejects_non_monotone_times(self):
        xyz = np.zeros((2, 3))
        for fn in (aggregate_tof_to_gps, aggregate_tof_to_gps_reference):
            with pytest.raises(ValueError, match="non-decreasing"):
                fn([1.0, 0.0], xyz, [0.5], [10.0])
