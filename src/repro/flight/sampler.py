"""Measurement collection along flights.

Two samplers ride on every flight log:

* **SRS/ToF sampler** (localization flights): at 100 Hz, the eNodeB
  receives an SRS symbol from each UE over a synthetic channel whose
  delay is the true range plus a constant processing offset plus ToF
  jitter (the paper measures ~5 ns std in LOS, up to ~25 ns in NLOS)
  and NLOS multipath.  The Eq. 1-3 estimator turns the symbols back
  into ranges, which are averaged per 50 Hz GPS fix.
* **SNR sampler** (REM measurement flights): at 100 Hz the PHY reports
  the SNR to each UE — mean channel + Rician/Rayleigh fading +
  instrument noise — tagged with the *GPS* (noisy) position, which is
  what the REM grid binning actually gets to use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.model import ChannelModel
from repro.lte.enodeb import ENodeB
from repro.lte.tof import ToFEstimator
from repro.lte.ue import UE
from repro.perf import perf

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector
from repro.localization.joint import (
    JointLocalizationResult,
    solve_joint_multilateration,
)
from repro.localization.multilateration import MultilaterationResult, solve_multilateration
from repro.localization.ranging import (
    GpsRange,
    aggregate_tof_to_gps,
    mad_filter,
)
from repro.flight.uav import FlightLog

#: SRS / PHY SNR reporting rate (paper Section 3.2.1: every 10 ms).
SRS_RATE_HZ = 100.0

#: ToF jitter std in seconds for LOS and NLOS links (paper Section 4.3).
TOF_JITTER_LOS_S = 5e-9
TOF_JITTER_NLOS_S = 25e-9

#: Constant ToF processing delay of the receive chain, expressed as
#: equivalent one-way meters.  Unknown to the solver (it estimates it).
DEFAULT_PROCESSING_OFFSET_M = 137.0

#: Uplink link budget for the SRS receive path.  The SRS is sent by
#: the *UE* (LTE power class 3: 23 dBm, 0 dBi antenna) and received
#: through the UAV's 5 dBi antenna + LNA — a much hotter link than
#: the calibrated downlink, which is why ranging keeps working on UEs
#: whose downlink SNR is already marginal.
from repro.channel.linkbudget import LinkBudget

UPLINK_BUDGET = LinkBudget(
    tx_power_dbm=23.0, tx_gain_dbi=0.0, rx_gain_dbi=5.0, noise_figure_db=7.0
)

#: Multipath templates per LOS state, as (excess delay in samples,
#: power in dB) taps.  LOS keeps a weak ground bounce (excess delay
#: 2*h_ue*h_uav/d is metre-scale for UAV geometries, ~0.1 sample at
#: 15.36 MS/s); NLOS attenuates the direct path against two delayed
#: reflections, biasing the correlation peak late.  Row 0 is the LOS
#: template, row 1 NLOS, left-packed for the batch kernel.
_TAP_EXCESS = np.array([[0.1, 0.0], [0.5, 1.2]])
_TAP_POWER_DB = np.array([[-9.0, 0.0], [-3.0, -6.0]])
_TAP_MASK = np.array([[True, False], [True, True]])


def _positions_at(log: FlightLog, times: np.ndarray, which: str) -> np.ndarray:
    """Interpolate true/gps positions of a flight log at given times."""
    src = log.true_xyz if which == "true" else log.gps_xyz
    return np.column_stack(
        [np.interp(times, log.t_s, src[:, i]) for i in range(3)]
    )


def collect_gps_ranges(
    log: FlightLog,
    ue: UE,
    channel: ChannelModel,
    enodeb: ENodeB,
    estimator: ToFEstimator,
    rng: np.random.Generator,
    processing_offset_m: float = DEFAULT_PROCESSING_OFFSET_M,
    srs_rate_hz: float = SRS_RATE_HZ,
    faults: Optional["FaultInjector"] = None,
    min_quality: Optional[float] = None,
) -> List[GpsRange]:
    """SRS-derived GPS-range tuples for one UE over one flight.

    Each 10 ms SRS symbol is synthesized with the true propagation
    delay (+offset, +jitter, +NLOS multipath), received by the eNodeB
    and ranged by the Eq. 1-3 estimator; ranges are then averaged into
    the 50 Hz GPS fix stream.

    ``faults`` injects SRS burst drops/delays and ToF outlier spikes;
    ``min_quality`` (degraded-mode hardening) rejects receptions whose
    correlation peak-to-background ratio falls below it — noise-only
    bursts that would otherwise feed garbage ranges into the solver.
    Fixes flagged invalid by a GPS blackout never produce observations.

    The whole flight's receptions run through the batched channel and
    Eq. 1-3 kernels (:func:`repro.lte.srs.apply_channel_batch`,
    :func:`repro.lte.tof.estimate_delays_batch`) in one shot, in the
    batch kernel's documented RNG draw schedule.
    """
    with perf.span("loc.collect_ranges"):
        cfg = enodeb.srs_config
        n_srs = max(2, int(log.duration_s * srs_rate_hz) + 1)
        srs_times = np.linspace(log.t_s[0], log.t_s[-1], n_srs)
        if faults is not None:
            srs_keep, srs_delivered = faults.srs_faults(srs_times)
        else:
            srs_keep, srs_delivered = np.ones(n_srs, dtype=bool), srs_times
        true_pos = _positions_at(log, srs_times, "true")
        ue_xyz = ue.xyz

        dist = np.linalg.norm(true_pos - ue_xyz[None, :], axis=1)
        # One trace yields both the LOS state (jitter/multipath
        # statistics) and the path loss; uplink SNR reuses it via
        # reciprocity with the UE-class Tx power.
        path_loss, los = channel.path_loss_and_los(true_pos, ue_xyz)
        snr = UPLINK_BUDGET.snr_db(path_loss)
        jitter_std = np.where(los, TOF_JITTER_LOS_S, TOF_JITTER_NLOS_S)
        jitter_m = rng.normal(0.0, 1.0, n_srs) * jitter_std * 299_792_458.0

        known = enodeb.known_srs_symbol(ue)
        ranges = np.full(n_srs, np.nan)
        kept = np.flatnonzero(srs_keep)
        if len(kept):
            delays = (
                dist[kept] + processing_offset_m + jitter_m[kept]
            ) / cfg.meters_per_sample
            row = (~los[kept]).astype(int)  # 0 = LOS template, 1 = NLOS
            perf.count("loc.srs_symbols", len(kept))
            with perf.span("loc.srs_channel"):
                rx = enodeb.receive_srs_batch(
                    ue,
                    delays,
                    snr[kept],
                    rng,
                    _TAP_EXCESS[row],
                    _TAP_POWER_DB[row],
                    _TAP_MASK[row],
                )
            with perf.span("loc.tof_estimate"):
                kept_ranges, quality = estimator.ranges_batch_m(
                    rx, known, quality=min_quality is not None
                )
            if min_quality is not None:
                good = quality >= min_quality
                n_rejected = int((~good).sum())
                if n_rejected:
                    perf.count("fallback.srs_quality_reject", n_rejected)
                srs_keep[kept[~good]] = False
                ranges[kept[good]] = kept_ranges[good]
            else:
                ranges[kept] = kept_ranges

        if faults is not None:
            ranges[srs_keep] = faults.tof_outliers(ranges[srs_keep])
        gps_t, gps_xyz = log.t_s, log.gps_xyz
        if log.gps_valid is not None:
            gps_t, gps_xyz = gps_t[log.gps_valid], gps_xyz[log.gps_valid]
        return aggregate_tof_to_gps(
            gps_t, gps_xyz, srs_delivered[srs_keep], ranges[srs_keep]
        )


def localize_ue(
    log: FlightLog,
    ue: UE,
    channel: ChannelModel,
    enodeb: ENodeB,
    estimator: ToFEstimator,
    rng: np.random.Generator,
    ue_z: float = 1.5,
    processing_offset_m: float = DEFAULT_PROCESSING_OFFSET_M,
    mad_k: Optional[float] = 4.0,
) -> MultilaterationResult:
    """Full localization pipeline for one UE over one flight.

    Collect GPS-range tuples, MAD-filter the multipath spikes, and
    solve the offset-augmented multilateration.
    """
    obs = collect_gps_ranges(
        log, ue, channel, enodeb, estimator, rng, processing_offset_m
    )
    if mad_k is not None:
        obs = mad_filter(obs, k=mad_k)
    return solve_multilateration(obs, ue_z=ue_z)


def localize_all_ues(
    log: FlightLog,
    ues: Sequence[UE],
    channel: ChannelModel,
    enodeb: ENodeB,
    estimator: ToFEstimator,
    rng: np.random.Generator,
    ue_z: float = 1.5,
    processing_offset_m: float = DEFAULT_PROCESSING_OFFSET_M,
    mad_k: Optional[float] = 4.0,
    bounds_xy: Optional[tuple] = None,
    offset_prior: Optional[tuple] = None,
    faults: Optional["FaultInjector"] = None,
    min_quality: Optional[float] = None,
) -> JointLocalizationResult:
    """Localize every UE from one flight with a *shared* offset.

    The processing offset belongs to the eNodeB receive chain, so all
    UEs ranged during the same flight share it; the joint solve is how
    SkyRAN reaches metre-scale accuracy from a 20 m flight (Fig. 18).
    ``bounds_xy`` (the operating-area box) constrains the solve when
    given.

    Under fault injection a UE can end a flight with too few usable
    ranges to solve (< 3).  Such UEs are *skipped* — reported absent
    from ``per_ue`` with a ``fallback.ue_insufficient_ranges`` counter
    bump — rather than failing the whole flight; the controller falls
    back to its last-good estimate for them.  If no UE has enough
    observations, an empty (non-converged) result is returned.
    """
    obs_by_ue = {}
    for ue in ues:
        obs = collect_gps_ranges(
            log,
            ue,
            channel,
            enodeb,
            estimator,
            rng,
            processing_offset_m,
            faults=faults,
            min_quality=min_quality,
        )
        if mad_k is not None:
            obs = mad_filter(obs, k=mad_k)
        if len(obs) < 3:
            perf.count("fallback.ue_insufficient_ranges")
            continue
        obs_by_ue[ue.ue_id] = obs
    if not obs_by_ue:
        prior_b = float(offset_prior[0]) if offset_prior is not None else 0.0
        return JointLocalizationResult(per_ue={}, offset_m=prior_b, converged=False)
    return solve_joint_multilateration(
        obs_by_ue, ue_z=ue_z, bounds_xy=bounds_xy, offset_prior=offset_prior
    )


def collect_snr_samples(
    log: FlightLog,
    ue: UE,
    channel: ChannelModel,
    rng: np.random.Generator,
    rate_hz: float = SRS_RATE_HZ,
    faults: Optional["FaultInjector"] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-sample SNR reports for one UE along a measurement flight.

    ``faults`` injects SNR report drops/corruption; samples taken while
    GPS was blacked out are discarded (the frozen hold-last fix would
    bin them into the wrong REM cell).

    Returns
    -------
    (gps_xy, snr_db):
        ``(n, 2)`` *GPS* (noisy) horizontal positions — what the REM
        binning believes — and the ``(n,)`` SNR samples the PHY
        reported at the corresponding *true* positions.
    """
    n = max(2, int(log.duration_s * rate_hz) + 1)
    times = np.linspace(log.t_s[0], log.t_s[-1], n)
    true_pos = _positions_at(log, times, "true")
    gps_pos = _positions_at(log, times, "gps")
    snr = np.asarray(channel.sample_snr_db(true_pos, ue.xyz, rng))
    if faults is None:
        return gps_pos[:, :2], snr
    keep, snr = faults.snr_faults(snr)
    if log.gps_valid is not None:
        # A sample is only binnable if both neighbouring fixes were
        # valid (the interpolated position is trustworthy).
        valid = np.interp(times, log.t_s, log.gps_valid.astype(float)) > 0.999
        dropped = int((keep & ~valid).sum())
        if dropped:
            perf.count("fallback.snr_unbinnable", dropped)
        keep = keep & valid
    return gps_pos[keep][:, :2], snr[keep]
