"""What each benchmark metric means, and what a change to a layer should move.

``BENCHMARK.json`` at the repository root is the contract: it holds
every metric's name, unit and direction, and the end-to-end bounds.
This module holds what the contract has no room for.  ``END_TO_END``
says how each end-to-end metric (measured with tracing off) is taken.
``PER_LAYER`` gives, for each metric of the traced run, the end-to-end
metric it should move and the workloads on which it should move it, so
a later change can name its prediction before it is measured.
"""

from __future__ import annotations

ALL = ("campus_default", "serve_attach", "city_stream")
CAMPUS = ("campus_default",)
SERVE = ("serve_attach",)
CITY = ("city_stream",)

# name -> meaning
END_TO_END = {
    "setup_s": "interpreter start to workload ready (imports, scenario, configs); median of 5 fresh processes spread through the run",
    "cpu_norm_s": "CPU seconds of one simulate call at reference host speed: mean call CPU time / mean CPU time of the reference kernel run after each call, times REF_KERNEL_S",
    "peak_rss_mb": "peak resident set of the measuring process after its warm-up simulate call",
    "flight_time_s": "simulated UAV seconds per epoch (the paper's overhead metric), mean over sub-scenarios",
}

# name, moves, workloads, meaning.  The ``fidelity.*`` entries are
# simulated outcomes, not layers: a pure speed-up leaves them
# identical, so they name no end-to-end metric to move.  Nor does
# ``trace.fingerprint_s``, which is the tracer's own work.
PER_LAYER = (
    ("localization.s", "cpu_norm_s", ALL,
     "self time of localize_all_ues (ranging flight samples, SRS channel, ToF)"),
    ("localization.solve_s", "cpu_norm_s", ALL,
     "self time of solve_joint_multilateration"),
    ("localization.srs_symbols", "cpu_norm_s", ALL,
     "loc.srs_symbols counter delta: SRS symbols synthesized"),
    ("rem.interpolate_s", "cpu_norm_s", CAMPUS,
     "self time of REM.interpolated (IDW)"),
    ("rem.interpolate_calls", "cpu_norm_s", CAMPUS,
     "calls of REM.interpolated"),
    ("rem.interpolate_repeat_frac", "cpu_norm_s", CAMPUS,
     "share of REM.interpolated calls whose REM measurements, prior and arguments did not change since its previous call; "
     "0 while every workload runs a single controller epoch, so no REM is reused"),
    ("rem.tile_s", "cpu_norm_s,peak_rss_mb", CITY,
     "self time of interpolate_tile (behind REM.interpolated_tile and the streamed placement fold)"),
    ("placement.penalty_s", "cpu_norm_s", CAMPUS,
     "self time of uncertainty_penalty_db"),
    ("placement.penalty_calls", "cpu_norm_s", CAMPUS,
     "calls of uncertainty_penalty_db"),
    ("placement.maxmin_s", "cpu_norm_s", CAMPUS,
     "self time of max_min_placement"),
    ("placement.altitude_s", "cpu_norm_s", CAMPUS,
     "self time of find_optimal_altitude"),
    ("placement.streamed_s", "cpu_norm_s,peak_rss_mb", CITY,
     "self time of streamed_discounted_max_min_placement"),
    ("channel.truth_s", "cpu_norm_s", CAMPUS,
     "self time of Scenario.truth_maps and ground_truth_stack"),
    ("channel.point_s", "cpu_norm_s", SERVE + CITY,
     "self time of ChannelModel.snr_db, snr_to_many and path_loss_to_many"),
    ("channel.point_calls", "cpu_norm_s", SERVE + CITY,
     "calls of those three channel methods"),
    ("channel.raytrace_samples", "cpu_norm_s", ALL,
     "raytrace.samples counter delta"),
    ("channel.traced_frac", "cpu_norm_s", ALL,
     "raytrace.samples_traced / raytrace.samples"),
    ("channel.map_cache_hit_frac", "cpu_norm_s", ALL,
     "oracle.map_cache hit / (hit + miss)"),
    ("trajectory.plan_s", "cpu_norm_s", CAMPUS,
     "self time of SkyRANPlanner.plan"),
    ("flight.fly_s", "cpu_norm_s", CAMPUS,
     "self time of UAV.fly and UAV.goto"),
    ("flight.measure_s", "cpu_norm_s", CAMPUS,
     "self time of collect_snr_samples"),
    ("controller.epoch_s", "cpu_norm_s", ALL,
     "inclusive time of SkyRANController.run_epoch"),
    ("controller.self_s", "cpu_norm_s", ALL,
     "run_epoch time no named child covers: where spans are missing"),
    ("controller.epochs", "cpu_norm_s", ALL,
     "calls of SkyRANController.run_epoch"),
    ("traffic.mac_s", "cpu_norm_s", SERVE,
     "self time of MACSimulation.run"),
    ("traffic.tti", "cpu_norm_s", SERVE,
     "sched.tti counter delta: TTIs scheduled"),
    ("traffic.tti_per_s", "cpu_norm_s", SERVE,
     "traffic.tti / traffic.mac_s"),
    ("traffic.mac_rebuilds", "cpu_norm_s", SERVE,
     "events.mac_rebuild counter delta"),
    ("events.self_s", "cpu_norm_s", SERVE,
     "AttachSimulation.run minus its children"),
    ("events.attaches", "cpu_norm_s", SERVE,
     "events.attaches counter delta"),
    ("events.replans", "cpu_norm_s", SERVE,
     "events.trigger_replan counter delta"),
    ("city.serving_snr_s", "cpu_norm_s", CITY,
     "self time of CityScenario.serving_snr_db"),
    ("city.olla_s", "cpu_norm_s", CITY,
     "self time of CityScenario.olla_round"),
    ("city.mac_s", "cpu_norm_s", CITY,
     "self time of run_city_mac"),
    ("city.rem_groups", "cpu_norm_s,peak_rss_mb", CITY,
     "epoch.rem_groups counter delta: REM-key dedup groups"),
    ("sim.evaluate_s", "cpu_norm_s", CAMPUS + SERVE,
     "self time of Scenario.relative_throughput and Scenario.evaluate"),
    ("trace.wall_s", "cpu_norm_s", ALL,
     "wall time of the traced call (root span)"),
    ("trace.unattributed_s", "cpu_norm_s", ALL,
     "root span self time: run time outside every wrapped layer"),
    ("trace.fingerprint_s", "", ALL,
     "tracer time spent fingerprinting REM.interpolated inputs for rem.interpolate_repeat_frac"),
    ("trace.attributed_frac", "cpu_norm_s", ALL,
     "named self time / trace.wall_s (controller.self_s, trace.unattributed_s and trace.fingerprint_s excluded)"),
    ("trace.overhead_frac", "cpu_norm_s", ALL,
     "median traced wall / median untraced wall of the same call, minus 1"),
    ("fidelity.loc_error_m", "", ALL,
     "median horizontal localization error over every localized UE and epoch (first sub-scenario)"),
    ("fidelity.mean_snr_db", "", ALL,
     "true mean SNR from the chosen placement to the UEs served, mean over epochs (first sub-scenario)"),
    ("fidelity.rel_throughput", "", CAMPUS + SERVE,
     "mean over epochs of Scenario.relative_throughput at the chosen placement (first sub-scenario)"),
    ("fidelity.min_throughput_mbps", "", CAMPUS + SERVE,
     "mean over epochs of the true worst-UE throughput (first sub-scenario)"),
    ("fidelity.rem_error_db", "", CAMPUS + SERVE,
     "mean over epochs of the median REM error against ground truth (first sub-scenario)"),
    ("fidelity.served_mbps", "", SERVE + CITY,
     "aggregate served rate of the MAC (first sub-scenario)"),
    ("fidelity.attach_fail_frac", "", SERVE,
     "event-plane failed attaches / arrivals (first sub-scenario)"),
)

