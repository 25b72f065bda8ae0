#!/usr/bin/env python
"""Smoke benchmark: headline figure + channel-oracle speedup, one command.

Runs two quick measurements and writes a ``BENCH_headline.json``
artifact with wall times and :mod:`repro.perf` counters:

1. **Oracle kernel speedup** — times :func:`ground_truth_stack` on a
   campus terrain with 10 UEs (serial workers) against the *seed*
   kernel (batch-wide sampling density, no ceiling pruning, per-UE
   Python loop; ``tests/oracles.py``), and checks the two agree to
   float tolerance.
2. **Headline experiment** — the paper's abstract claim in quick mode
   (SkyRAN vs Uniform vs Centroid), timed with perf counters.  Every
   scheme is driven through :func:`repro.sim.runner.run_simulation`
   (via the shared ``run_scheme`` helper), the same entrypoint the
   chaos smoke uses with faults enabled.

Usage::

    PYTHONPATH=src python scripts/bench_smoke.py [--out PATH]
        [--min-speedup X] [--skip-headline] [--repeats N]

Exit status is non-zero if results disagree or the measured speedup
falls below ``--min-speedup`` (0 = report only).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))  # the test-side oracles: tests/oracles.py

from repro.channel.groundtruth import ground_truth_stack  # noqa: E402
from repro.perf import peak_rss_bytes, perf  # noqa: E402
from repro.sim.scenario import Scenario  # noqa: E402
from tests.oracles import seed_ground_truth_stack  # noqa: E402

#: Operating altitude for the oracle measurement (a typical campus
#: optimum from the Fig. 8 reproduction).
ALTITUDE_M = 60.0


def _time_min(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_oracle(n_ues: int, repeats: int) -> dict:
    """Seed-vs-batched ground-truth stack timing on the campus terrain."""
    scenario = Scenario.create("campus", n_ues=n_ues, seed=0)
    ues = scenario.ue_positions()
    grid = scenario.eval_grid
    channel = scenario.channel

    # Warm the shadowing fields so both sides time the map kernel, not
    # one-time field synthesis.
    batched = ground_truth_stack(channel, ues, ALTITUDE_M, grid, use_cache=False)
    seed_stack = seed_ground_truth_stack(channel, ues, ALTITUDE_M, grid)

    diff = np.abs(batched - seed_stack)
    t_seed = _time_min(
        lambda: seed_ground_truth_stack(channel, ues, ALTITUDE_M, grid), repeats
    )
    perf.reset()
    t_batched = _time_min(
        lambda: ground_truth_stack(channel, ues, ALTITUDE_M, grid, use_cache=False),
        repeats,
    )
    oracle_counters = perf.counters()
    # Cached epoch re-query (what runner epochs actually pay after the
    # first truth computation).
    t_cached = _time_min(
        lambda: ground_truth_stack(channel, ues, ALTITUDE_M, grid), repeats
    )
    return {
        "terrain": "campus",
        "n_ues": n_ues,
        "altitude_m": ALTITUDE_M,
        "eval_grid_shape": list(grid.shape),
        "seed_reference_s": t_seed,
        "batched_s": t_batched,
        "cached_s": t_cached,
        "speedup": t_seed / t_batched if t_batched > 0 else float("inf"),
        "mean_abs_diff_db": float(diff.mean()),
        "p99_abs_diff_db": float(np.percentile(diff, 99)),
        "max_abs_diff_db": float(diff.max()),
        "perf_counters": oracle_counters,
    }


def bench_localization(n_ues: int, repeats: int) -> dict:
    """Batched-vs-reference localization flight on the campus scenario.

    One 20 m localization flight at 100 m altitude over the campus with
    ``n_ues`` UEs, run end to end (SRS synthesis -> channel -> Eq. 1-3
    ToF -> MAD filter -> joint multilateration) twice: through the
    per-symbol oracles of ``tests/oracles.py`` (re-synthesizing the SRS
    symbol per reception, as the seed did, and the seed joint solver
    with its per-UE-loop residuals and finite-difference Jacobian) and
    through the production batched kernels and analytic Jacobian.  The two observation sets must match exactly (the batch
    kernels are bit-identical under the documented RNG draw schedule);
    the positions agree to solver tolerance.
    """
    from repro.flight.sampler import collect_gps_ranges  # noqa: E402
    from repro.flight.uav import UAV  # noqa: E402
    from repro.localization.joint import solve_joint_multilateration  # noqa: E402
    from repro.localization.ranging import mad_filter  # noqa: E402
    from repro.lte.tof import ToFEstimator  # noqa: E402
    from repro.trajectory.random_flight import random_flight  # noqa: E402
    from tests.oracles import (  # noqa: E402
        collect_gps_ranges_reference,
        mad_filter_reference,
        solve_joint_multilateration_seed,
    )

    scenario = Scenario.create("campus", n_ues=n_ues, seed=0)
    grid = scenario.grid
    start = np.array([grid.origin_x + grid.width / 2, grid.origin_y + grid.height / 2])
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
    n_symbols = n_ues * max(2, int(log.duration_s * 100.0) + 1)

    def collect(collector, outlier_filter=mad_filter, **kw):
        rng = np.random.default_rng(1)
        obs = {}
        for ue in scenario.ues:
            o = outlier_filter(
                collector(
                    log, ue, scenario.channel, scenario.enodeb, estimator, rng, **kw
                )
            )
            if len(o) >= 3:
                obs[ue.ue_id] = o
        return obs

    def collect_reference():
        # The honest baseline: per-symbol SRS re-synthesis and channel
        # application, scalar Eq. 1-3 estimation, the mask-per-fix
        # aggregation loop, and the per-point moving-median MAD filter.
        return collect(
            collect_gps_ranges_reference,
            outlier_filter=mad_filter_reference,
            resynthesize=True,
        )

    obs_batched = collect(collect_gps_ranges)
    obs_reference = collect_reference()
    observations_identical = set(obs_batched) == set(obs_reference) and all(
        len(obs_batched[u]) == len(obs_reference[u])
        and all(
            x.range_m == y.range_m and x.t_s == y.t_s
            for x, y in zip(obs_batched[u], obs_reference[u])
        )
        for u in obs_batched
    )

    t_collect_ref = _time_min(collect_reference, repeats)
    perf.reset()
    t_collect_batched = _time_min(lambda: collect(collect_gps_ranges), repeats)
    loc_counters = perf.counters()

    res_ref = solve_joint_multilateration_seed(obs_reference, bounds_xy=bounds)
    res_batched = solve_joint_multilateration(obs_batched, bounds_xy=bounds)
    max_position_delta_m = max(
        float(np.linalg.norm(res_batched.per_ue[u].position - res_ref.per_ue[u].position))
        for u in res_batched.per_ue
    )
    t_solve_ref = _time_min(
        lambda: solve_joint_multilateration_seed(obs_reference, bounds_xy=bounds),
        repeats,
    )
    t_solve_batched = _time_min(
        lambda: solve_joint_multilateration(obs_batched, bounds_xy=bounds),
        repeats,
    )

    e2e_ref = t_collect_ref + t_solve_ref
    e2e_batched = t_collect_batched + t_solve_batched
    return {
        "terrain": "campus",
        "n_ues": n_ues,
        "flight_m": 20.0,
        "altitude_m": 100.0,
        "n_srs_symbols": n_symbols,
        "observations_identical": bool(observations_identical),
        "max_position_delta_m": max_position_delta_m,
        "collect_reference_s": t_collect_ref,
        "collect_batched_s": t_collect_batched,
        "collect_speedup": t_collect_ref / t_collect_batched
        if t_collect_batched > 0
        else float("inf"),
        "symbols_per_s_batched": n_symbols / t_collect_batched
        if t_collect_batched > 0
        else float("inf"),
        "solve_reference_s": t_solve_ref,
        "solve_batched_s": t_solve_batched,
        "solve_speedup": t_solve_ref / t_solve_batched
        if t_solve_batched > 0
        else float("inf"),
        "e2e_reference_s": e2e_ref,
        "e2e_batched_s": e2e_batched,
        "e2e_speedup": e2e_ref / e2e_batched if e2e_batched > 0 else float("inf"),
        "perf_counters": loc_counters,
    }


def bench_mac(n_ues: int, repeats: int) -> dict:
    """Vectorized TTI-batch kernel vs the per-TTI Python reference.

    Three workloads over 2000 TTIs: the full-buffer round-robin case
    (the whole-batch *slab* fast path — the honest speedup gate, since
    the per-PRB greedy schedulers cannot vectorize across TTIs), plus
    loaded Poisson round-robin and proportional-fair cases reported
    for visibility.  Each case first asserts the kernel is bit-
    identical to the reference before any timing.
    """
    from repro.traffic import (  # noqa: E402
        QueueBank,
        make_scheduler,
        make_traffic_model,
        run_tti_batch,
    )
    from repro.traffic.simulate import rate_per_prb_bytes  # noqa: E402
    from tests.oracles import run_tti_batch_reference  # noqa: E402

    n_tti = 2000
    ue_ids = tuple(range(1, n_ues + 1))
    rates = rate_per_prb_bytes(np.linspace(0.0, 25.0, n_ues))
    poisson = make_traffic_model("poisson", rate_mbps=6.0)
    offered = np.stack(
        [poisson.source(u, seed=7).offered_bytes(n_tti) for u in ue_ids]
    )
    zeros = np.zeros_like(offered)

    def run_case(sched_name, offered_arr, full_buffer, reference):
        # Fresh queue bank and scheduler per call: both carry state
        # (backlogs, PF averages) that must not leak between timings.
        queues = QueueBank(ue_ids, full_buffer=full_buffer)
        run = run_tti_batch_reference if reference else run_tti_batch
        return run(
            bytes_per_prb=rates,
            offered_bytes=offered_arr,
            scheduler=make_scheduler(sched_name),
            queues=queues,
        )

    cases = {}
    for case, sched, off, full_buffer in (
        ("full_buffer_round_robin", "round_robin", zeros, True),
        ("poisson_round_robin", "round_robin", offered, False),
        ("poisson_proportional_fair", "proportional_fair", offered, False),
    ):
        res_k = run_case(sched, off, full_buffer, False)
        res_r = run_case(sched, off, full_buffer, True)
        identical = all(
            np.array_equal(getattr(res_k, f), getattr(res_r, f))
            for f in ("grants", "served_bytes", "dropped_bytes", "backlog_end_bytes")
        )
        t_ref = _time_min(lambda: run_case(sched, off, full_buffer, True), repeats)
        perf.reset()
        t_kernel = _time_min(lambda: run_case(sched, off, full_buffer, False), repeats)
        counters = perf.counters()
        cases[case] = {
            "scheduler": sched,
            "bit_identical": bool(identical),
            "reference_s": t_ref,
            "kernel_s": t_kernel,
            "speedup": t_ref / t_kernel if t_kernel > 0 else float("inf"),
            "served_mbps": float(res_k.aggregate_served_mbps()),
            "perf_counters": counters,
        }
    return {"n_ues": n_ues, "n_tti": n_tti, "cases": cases}


def bench_city(ues_list, n_tti: int, shard_ues=None) -> dict:
    """UEs-vs-runtime/peak-memory scaling curve for the city kernels.

    One steady-state epoch (placement over unique REM cells, one-shot
    OLLA convergence, sharded MAC) per population size on the "large"
    terrain with the default half full-buffer / half CBR mix.  Each
    point records wall time, the tracemalloc peak inside the epoch and
    the process peak RSS — the numbers the ``--max-city-*`` gates
    bound.  Placement cost saturates with the REM key grid while MAC
    and serving-SNR cost grow linearly, so the curve flattens per UE
    as the population grows.
    """
    from repro.city import CityScenario, shard_size  # noqa: E402

    points = []
    for n_ues in ues_list:
        scenario = CityScenario.create(n_ues=n_ues, seed=0)
        perf.reset()
        t0 = time.perf_counter()
        with perf.span("city.epoch", track_memory=True):
            out = scenario.run_epoch(n_tti=n_tti)
        wall = time.perf_counter() - t0
        stat = perf.spans()["city.epoch"]
        mac = out["mac"]
        points.append(
            {
                "n_ues": n_ues,
                "wall_s": wall,
                "peak_alloc_bytes": stat.peak_alloc_bytes,
                "max_rss_bytes": stat.max_rss_bytes,
                "placement_rem_cells": perf.counter("city.placement_rem_cells"),
                "mac_shards": perf.counter("city.mac_shards"),
                "min_snr_db": float(out["min_snr_db"]),
                "mean_snr_db": float(out["mean_snr_db"]),
                "aggregate_served_mbps": float(out["aggregate_served_mbps"]),
                "n_full_buffer": int(scenario.population.full_buffer.sum()),
                "n_cbr": int((~scenario.population.full_buffer).sum()),
                "total_grants": int(mac.grants.sum()),
            }
        )
    return {
        "terrain": "large",
        "n_tti": n_tti,
        "shard_ues": shard_size(shard_ues),
        "olla_rounds": 4,
        "points": points,
    }


def bench_epoch(ues_list, ref_ues: int, budget_m: float, n_tti: int) -> dict:
    """Full SkyRANController epochs over city populations.

    Unlike :func:`bench_city` (steady-state placement + MAC), each
    point drives the real controller end to end — localization on a
    deduped sample, altitude search, REM seeding, trajectory planning
    over dedup waypoints, measurement flight, uncertainty-discounted
    placement — then serves the population through OLLA and the
    sharded MAC.  REM-key-deduped points run at every population size
    (work saturates at the occupied REM-key cells, so wall time and
    peak allocation stay flat); the per-UE reference (one REM per UE)
    runs once at ``ref_ues`` and anchors the ``--min-epoch-speedup``
    gate.  Peak allocation is the tracemalloc peak of a span this
    bench wraps around the whole call.
    """
    from repro.city import CityScenario  # noqa: E402

    def run_point(n_ues: int, per_ue: bool) -> dict:
        scenario = CityScenario.create(n_ues=n_ues, seed=0)
        perf.reset()
        t0 = time.perf_counter()
        with perf.span("bench.controller_epoch", track_memory=True):
            out = scenario.run_controller_epoch(
                budget_m=budget_m, n_tti=n_tti, per_ue=per_ue
            )
        wall = time.perf_counter() - t0
        stat = perf.spans()["bench.controller_epoch"]
        return {
            "n_ues": n_ues,
            "per_ue": per_ue,
            "wall_s": wall,
            "peak_alloc_bytes": stat.peak_alloc_bytes,
            "max_rss_bytes": stat.max_rss_bytes,
            "n_rem_groups": out["n_rem_groups"],
            "altitude_m": float(out["altitude_m"]),
            "min_snr_db": float(out["min_snr_db"]),
            "mean_snr_db": float(out["mean_snr_db"]),
            "aggregate_served_mbps": float(out["aggregate_served_mbps"]),
        }

    points = [run_point(n, per_ue=False) for n in ues_list]
    reference = run_point(ref_ues, per_ue=True)
    deduped_at_ref = next((p for p in points if p["n_ues"] == ref_ues), None)
    if deduped_at_ref is None:
        deduped_at_ref = run_point(ref_ues, per_ue=False)
        points.append(deduped_at_ref)
    return {
        "terrain": "large",
        "budget_m": budget_m,
        "n_tti": n_tti,
        "points": points,
        "reference": reference,
        "speedup": (
            reference["wall_s"] / deduped_at_ref["wall_s"]
            if deduped_at_ref["wall_s"] > 0
            else float("inf")
        ),
    }


def bench_fleet(n_ues: int, repeats: int) -> dict:
    """Batched fleet SINR stack vs the scalar per-(UAV, UE) loop.

    Four co-channel sky cells over the campus with ``n_ues`` UEs at
    reuse factor 2, shadowing off so the one-Tx-many-Rx ray batch
    engages.  The batched path (one ray batch per UAV via
    :func:`fleet_sinr_db_stack`) must be bit-identical to the scalar
    :func:`sinr_db` reference — one call per UE, one ray per
    (UAV, UE) pair — before any timing.
    """
    from repro.channel.interference import (  # noqa: E402
        fleet_rx_power_dbm,
        fleet_sinr_db_stack,
        reuse_carriers,
    )
    from tests.oracles import sinr_db  # noqa: E402

    scenario = Scenario.create(
        "campus", n_ues=n_ues, seed=0, channel_kwargs={"shadowing_sigma_db": 0.0}
    )
    grid = scenario.grid
    fracs = (0.25, 0.75)
    uavs = [
        np.array(
            [
                grid.origin_x + fx * grid.width,
                grid.origin_y + fy * grid.height,
                ALTITUDE_M,
            ]
        )
        for fx in fracs
        for fy in fracs
    ]
    ues = scenario.ue_positions()
    carriers = reuse_carriers(len(uavs), 2)
    serving = np.argmax(fleet_rx_power_dbm(scenario.channel, uavs, ues), axis=0)

    def batched():
        return fleet_sinr_db_stack(
            scenario.channel, uavs, ues, serving, carriers=carriers
        )

    def reference():
        return np.array(
            [
                sinr_db(scenario.channel, uavs, ue, int(serving[k]), carriers=carriers)
                for k, ue in enumerate(ues)
            ]
        )

    s_batched = batched()
    s_reference = reference()
    identical = bool(np.array_equal(s_batched, s_reference))
    t_ref = _time_min(reference, repeats)
    perf.reset()
    t_batched = _time_min(batched, repeats)
    counters = perf.counters()
    return {
        "terrain": "campus",
        "n_ues": n_ues,
        "n_uavs": len(uavs),
        "reuse_factor": 2,
        "bit_identical": identical,
        "reference_s": t_ref,
        "batched_s": t_batched,
        "speedup": t_ref / t_batched if t_batched > 0 else float("inf"),
        "mean_sinr_db": float(s_batched.mean()),
        "perf_counters": counters,
    }


def bench_headline() -> dict:
    """The headline figure in quick mode, timed with perf counters.

    Driven through the unified experiment runner (the same path the
    ``python -m repro.experiments`` CLI takes), so the bench exercises
    the registry grid expansion and point fan-out, not a bespoke loop.
    """
    from repro.experiments.registry import run_experiment

    perf.reset()
    run = run_experiment(
        "headline", quick=True, overrides={"seeds": (0, 1), "budget_m": 450.0}
    )
    return {
        "wall_time_s": run.wall_time_s,
        "points_total": len(run.params),
        "points_computed": run.computed,
        "rows": run.result["rows"],
        "paper": run.result.get("paper"),
        "perf": run.perf_delta,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "benchmarks" / "artifacts" / "BENCH_headline.json",
        help="artifact path (default benchmarks/artifacts/BENCH_headline.json)",
    )
    parser.add_argument("--ues", type=int, default=10, help="UEs in the oracle bench")
    parser.add_argument("--repeats", type=int, default=3, help="timing repeats (min taken)")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="fail if oracle speedup falls below this (0 = report only)",
    )
    parser.add_argument(
        "--skip-headline", action="store_true", help="only run the oracle bench"
    )
    parser.add_argument(
        "--loc",
        action="store_true",
        help="also run the localization bench and gate on --min-loc-speedup",
    )
    parser.add_argument(
        "--min-loc-speedup",
        type=float,
        default=2.0,
        help="with --loc, fail if the batched localization path is not at "
        "least this many times faster end-to-end (generous CI floor; "
        "0 = report only)",
    )
    parser.add_argument(
        "--mac",
        action="store_true",
        help="also run the MAC scheduler bench and gate on --min-mac-speedup",
    )
    parser.add_argument(
        "--min-mac-speedup",
        type=float,
        default=3.0,
        help="with --mac, fail if the full-buffer slab kernel is not at "
        "least this many times faster than the per-TTI reference (the "
        "only case where whole-batch vectorization applies; generous "
        "CI floor; 0 = report only)",
    )
    parser.add_argument(
        "--fleet",
        action="store_true",
        help="also run the fleet SINR-stack bench and gate on "
        "--min-fleet-speedup",
    )
    parser.add_argument(
        "--fleet-ues",
        type=int,
        default=200,
        help="UEs in the fleet SINR bench (4 co-channel cells)",
    )
    parser.add_argument(
        "--min-fleet-speedup",
        type=float,
        default=3.0,
        help="with --fleet, fail if the batched SINR stack is not at "
        "least this many times faster than the scalar per-(UAV, UE) "
        "loop (generous CI floor; 0 = report only)",
    )
    parser.add_argument(
        "--city",
        action="store_true",
        help="also run the city-scale scaling curve and gate peak memory "
        "with --max-city-alloc-mb / --max-city-rss-mb",
    )
    parser.add_argument(
        "--city-ues",
        type=str,
        default="1000,10000,100000",
        help="comma-separated population sizes for the city curve",
    )
    parser.add_argument(
        "--city-tti", type=int, default=400, help="TTIs per city MAC epoch"
    )
    parser.add_argument(
        "--max-city-alloc-mb",
        type=float,
        default=512.0,
        help="with --city, fail if the largest point's tracemalloc peak "
        "exceeds this many MB (generous CI bound; 0 = report only)",
    )
    parser.add_argument(
        "--max-city-rss-mb",
        type=float,
        default=2048.0,
        help="with --city, fail if peak RSS after the largest point "
        "exceeds this many MB (generous CI bound; 0 = report only)",
    )
    parser.add_argument(
        "--epoch",
        action="store_true",
        help="also run full controller epochs over city populations and "
        "gate with --min-epoch-speedup / --max-epoch-alloc-mb",
    )
    parser.add_argument(
        "--epoch-ues",
        type=str,
        default="1000,10000,100000",
        help="comma-separated population sizes for REM-key-deduped epoch points",
    )
    parser.add_argument(
        "--epoch-ref-ues",
        type=int,
        default=10000,
        help="population size of the per-UE reference epoch (one REM per UE)",
    )
    parser.add_argument(
        "--epoch-budget-m",
        type=float,
        default=240.0,
        help="measurement budget per controller epoch",
    )
    parser.add_argument(
        "--epoch-tti", type=int, default=100, help="TTIs served after each epoch"
    )
    parser.add_argument(
        "--min-epoch-speedup",
        type=float,
        default=3.0,
        help="with --epoch, fail if the deduped epoch is not at least "
        "this many times faster than the per-UE reference at the "
        "reference population (generous CI floor; 0 = report only)",
    )
    parser.add_argument(
        "--max-epoch-alloc-mb",
        type=float,
        default=256.0,
        help="with --epoch, fail if any deduped point's tracemalloc peak "
        "over the whole epoch call exceeds this many MB (generous CI "
        "bound; 0 = report only)",
    )
    args = parser.parse_args(argv)

    payload = {"bench": "headline_smoke"}
    oracle = bench_oracle(args.ues, args.repeats)
    payload["ground_truth_oracle"] = oracle
    print(
        f"[oracle] campus/{args.ues} UEs @ {ALTITUDE_M:.0f} m: "
        f"seed {oracle['seed_reference_s']:.3f} s -> batched {oracle['batched_s']:.3f} s "
        f"({oracle['speedup']:.2f}x, cached re-query {oracle['cached_s'] * 1e3:.1f} ms, "
        f"mean diff {oracle['mean_abs_diff_db']:.3f} dB)"
    )

    loc = None
    if args.loc:
        loc = bench_localization(args.ues, args.repeats)
        payload["localization"] = loc
        print(
            f"[localization] campus/{args.ues} UEs, 20 m flight "
            f"({loc['n_srs_symbols']} SRS symbols): "
            f"collect {loc['collect_reference_s']:.3f} s -> "
            f"{loc['collect_batched_s']:.3f} s ({loc['collect_speedup']:.2f}x, "
            f"{loc['symbols_per_s_batched']:.0f} symbols/s), "
            f"solve {loc['solve_reference_s']:.3f} s -> "
            f"{loc['solve_batched_s']:.3f} s ({loc['solve_speedup']:.2f}x), "
            f"e2e {loc['e2e_speedup']:.2f}x, "
            f"max position delta {loc['max_position_delta_m']:.2e} m"
        )

    sched = None
    if args.mac:
        sched = bench_mac(args.ues, args.repeats)
        payload["sched"] = sched
        for case, row in sched["cases"].items():
            print(
                f"[mac] {case}: reference {row['reference_s'] * 1e3:.1f} ms -> "
                f"kernel {row['kernel_s'] * 1e3:.1f} ms ({row['speedup']:.2f}x, "
                f"identical={row['bit_identical']}, "
                f"{row['served_mbps']:.1f} Mbps served)"
            )

    fleet = None
    if args.fleet:
        fleet = bench_fleet(args.fleet_ues, args.repeats)
        payload["fleet"] = fleet
        print(
            f"[fleet] campus/{fleet['n_uavs']} UAVs x {fleet['n_ues']} UEs "
            f"(reuse {fleet['reuse_factor']}): "
            f"scalar {fleet['reference_s'] * 1e3:.1f} ms -> "
            f"stack {fleet['batched_s'] * 1e3:.1f} ms "
            f"({fleet['speedup']:.2f}x, identical={fleet['bit_identical']}, "
            f"mean SINR {fleet['mean_sinr_db']:.1f} dB)"
        )

    city = None
    if args.city:
        ues_list = [int(x) for x in args.city_ues.split(",") if x.strip()]
        city = bench_city(ues_list, args.city_tti)
        payload["city"] = city
        for pt in city["points"]:
            print(
                f"[city] {pt['n_ues']:>7d} UEs: {pt['wall_s']:.2f} s, "
                f"peak alloc {pt['peak_alloc_bytes'] / 1e6:.1f} MB, "
                f"peak RSS {pt['max_rss_bytes'] / 1e6:.1f} MB, "
                f"{pt['placement_rem_cells']} REM cells, "
                f"{pt['mac_shards']} shards, "
                f"{pt['aggregate_served_mbps']:.1f} Mbps served"
            )

    epoch = None
    if args.epoch:
        ues_list = [int(x) for x in args.epoch_ues.split(",") if x.strip()]
        epoch = bench_epoch(
            ues_list, args.epoch_ref_ues, args.epoch_budget_m, args.epoch_tti
        )
        payload["epoch"] = epoch
        for pt in epoch["points"]:
            print(
                f"[epoch] {pt['n_ues']:>7d} UEs deduped: {pt['wall_s']:.2f} s, "
                f"peak alloc {pt['peak_alloc_bytes'] / 1e6:.1f} MB, "
                f"{pt['n_rem_groups']} REM groups, "
                f"min SNR {pt['min_snr_db']:.1f} dB, "
                f"{pt['aggregate_served_mbps']:.1f} Mbps served"
            )
        ref = epoch["reference"]
        print(
            f"[epoch] {ref['n_ues']:>7d} UEs per-UE reference: "
            f"{ref['wall_s']:.2f} s, "
            f"peak alloc {ref['peak_alloc_bytes'] / 1e6:.1f} MB "
            f"-> dedup speedup {epoch['speedup']:.2f}x"
        )

    if not args.skip_headline:
        headline = bench_headline()
        payload["headline"] = headline
        row = headline["rows"][0]
        print(
            f"[headline] {headline['wall_time_s']:.1f} s — "
            f"skyran {row['skyran_rel']:.3f}, uniform {row['uniform_rel']:.3f}, "
            f"centroid {row['centroid_rel']:.3f}"
        )

    payload["process_peak_rss_bytes"] = peak_rss_bytes()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    print(f"[artifact] {args.out}")

    if oracle["mean_abs_diff_db"] > 0.5:
        # The optimized kernel samples each ray at its own length
        # (the seed oversampled short rays at the batch-wide density),
        # so cells at building edges legitimately differ by a few dB;
        # a large *mean* disagreement would mean a broken kernel.
        print("FAIL: batched oracle disagrees with the seed reference", file=sys.stderr)
        return 1
    if args.min_speedup > 0 and oracle["speedup"] < args.min_speedup:
        print(
            f"FAIL: speedup {oracle['speedup']:.2f}x < required {args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    if loc is not None:
        if not loc["observations_identical"]:
            print(
                "FAIL: batched localization observations differ from the "
                "per-symbol reference",
                file=sys.stderr,
            )
            return 1
        if args.min_loc_speedup > 0 and loc["e2e_speedup"] < args.min_loc_speedup:
            print(
                f"FAIL: localization e2e speedup {loc['e2e_speedup']:.2f}x "
                f"< required {args.min_loc_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
    if sched is not None:
        mismatched = [c for c, r in sched["cases"].items() if not r["bit_identical"]]
        if mismatched:
            print(
                "FAIL: MAC kernel differs from the per-TTI reference: "
                + ", ".join(mismatched),
                file=sys.stderr,
            )
            return 1
        slab = sched["cases"]["full_buffer_round_robin"]["speedup"]
        if args.min_mac_speedup > 0 and slab < args.min_mac_speedup:
            print(
                f"FAIL: full-buffer slab speedup {slab:.2f}x "
                f"< required {args.min_mac_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
    if fleet is not None:
        if not fleet["bit_identical"]:
            print(
                "FAIL: batched fleet SINR stack differs from the scalar "
                "per-(UAV, UE) reference",
                file=sys.stderr,
            )
            return 1
        if args.min_fleet_speedup > 0 and fleet["speedup"] < args.min_fleet_speedup:
            print(
                f"FAIL: fleet SINR speedup {fleet['speedup']:.2f}x "
                f"< required {args.min_fleet_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
    if city is not None:
        worst = max(city["points"], key=lambda p: p["n_ues"])
        alloc_mb = worst["peak_alloc_bytes"] / 1e6
        rss_mb = worst["max_rss_bytes"] / 1e6
        if args.max_city_alloc_mb > 0 and alloc_mb > args.max_city_alloc_mb:
            print(
                f"FAIL: city peak allocation {alloc_mb:.1f} MB at "
                f"{worst['n_ues']} UEs > bound {args.max_city_alloc_mb:.0f} MB",
                file=sys.stderr,
            )
            return 1
        if args.max_city_rss_mb > 0 and rss_mb > args.max_city_rss_mb:
            print(
                f"FAIL: city peak RSS {rss_mb:.1f} MB at "
                f"{worst['n_ues']} UEs > bound {args.max_city_rss_mb:.0f} MB",
                file=sys.stderr,
            )
            return 1
    if epoch is not None:
        not_deduped = [
            p["n_ues"] for p in epoch["points"] if p["n_rem_groups"] >= p["n_ues"]
        ]
        if not_deduped:
            print(
                "FAIL: epoch points did not dedup REMs below one per UE: "
                + ", ".join(map(str, not_deduped)),
                file=sys.stderr,
            )
            return 1
        ref = epoch["reference"]
        if ref["n_rem_groups"] != ref["n_ues"]:
            print(
                f"FAIL: per-UE reference epoch used {ref['n_rem_groups']} REM "
                f"groups for {ref['n_ues']} UEs",
                file=sys.stderr,
            )
            return 1
        if args.min_epoch_speedup > 0 and epoch["speedup"] < args.min_epoch_speedup:
            print(
                f"FAIL: deduped epoch speedup {epoch['speedup']:.2f}x "
                f"< required {args.min_epoch_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
        worst = max(epoch["points"], key=lambda p: p["peak_alloc_bytes"])
        alloc_mb = worst["peak_alloc_bytes"] / 1e6
        if args.max_epoch_alloc_mb > 0 and alloc_mb > args.max_epoch_alloc_mb:
            print(
                f"FAIL: deduped epoch peak allocation {alloc_mb:.1f} MB at "
                f"{worst['n_ues']} UEs > bound {args.max_epoch_alloc_mb:.0f} MB",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
