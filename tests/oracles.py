"""Equivalence oracles: the slow, obviously correct twins of the kernels.

Product code under ``src/repro`` ships one implementation per kernel.
The scalar and per-item loops those kernels were derived from live
here instead, so the tests (and the smoke benches, which import this
module after putting the repo root on ``sys.path``) can hold every
production path to them:

* the SRS/ToF localization chain — per-symbol channel application and
  Eq. 1-3 estimation, the mask-per-fix ToF-to-GPS aggregation and the
  per-point moving-median MAD filter;
* the seed joint multilateration solver — per-UE-loop residuals,
  finite-difference Jacobian, the production restarts and NLOS
  trimming;
* the pure-Python per-TTI MAC replay and round-robin's scalar grants;
* the scalar per-(UAV, UE) fleet SNR/SINR loops;
* the seed ground-truth map kernel (batch-wide ray sampling, per-UE
  loop), the baseline ``scripts/bench_smoke.py`` times.

Each oracle performs the same IEEE-754 operations in the same order as
the production kernel it pins (or, for the seed solver and the seed
map kernel, documents how it differs), so "bit-identical" checks stay
exact.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import least_squares

from repro.channel.fspl import fspl_db
from repro.channel.interference import _activity, _carriers
from repro.flight.sampler import (
    DEFAULT_PROCESSING_OFFSET_M,
    SRS_RATE_HZ,
    TOF_JITTER_LOS_S,
    TOF_JITTER_NLOS_S,
    UPLINK_BUDGET,
    _positions_at,
)
from repro.localization.joint import JointLocalizationResult
from repro.localization.multilateration import MultilaterationResult
from repro.localization.ranging import GpsRange
from repro.lte.srs import apply_channel, make_srs_symbol, synthesize_srs_symbol
from repro.lte.throughput import PRB_PER_10MHZ
from repro.lte.tof import _background_guard, upsample_freq
from repro.traffic.schedulers import RoundRobinScheduler
from repro.traffic.simulate import MACBatchResult

# -- SRS / ToF localization chain ------------------------------------------------

#: Per-symbol multipath templates (excess delay in samples, power in
#: dB); the tuple form of the sampler's left-packed tap arrays.
TAPS_LOS: Tuple[Tuple[float, float], ...] = ((0.1, -9.0),)
TAPS_NLOS: Tuple[Tuple[float, float], ...] = ((0.5, -3.0), (1.2, -6.0))


def correlation_quality(
    mag: np.ndarray, peak: int, guard: Optional[int] = None
) -> float:
    """Scalar peak-to-background ratio of one correlation profile."""
    mag = np.asarray(mag)
    total = len(mag)
    guard = _background_guard(total, guard)
    if 2 * guard + 1 >= total:
        return float("inf")
    kept = mag[(peak + np.arange(guard + 1, total - guard)) % total]
    background = float(np.median(kept))
    if background <= 1e-30:
        return float("inf")
    return float(mag[peak] / background)


def estimate_delay_and_quality(
    received: np.ndarray,
    known: np.ndarray,
    upsampling: int = 4,
    refine: bool = True,
) -> tuple:
    """Per-symbol Eq. 1-3 delay (samples) plus correlation quality."""
    received = np.asarray(received, dtype=complex)
    known = np.asarray(known, dtype=complex)
    if received.shape != known.shape:
        raise ValueError(
            f"received {received.shape} and known {known.shape} must match"
        )
    product = received * np.conj(known)  # Eq. 1
    padded = upsample_freq(product, upsampling)  # Eq. 2
    mag = np.abs(np.fft.ifft(padded))
    total = len(mag)
    peak = int(np.argmax(mag))  # Eq. 3
    delta = 0.0
    if refine:
        y0 = mag[(peak - 1) % total]
        y1 = mag[peak]
        y2 = mag[(peak + 1) % total]
        denom = y0 - 2.0 * y1 + y2
        if abs(denom) > 1e-12:
            delta = float(np.clip(0.5 * (y0 - y2) / denom, -0.5, 0.5))
    pos = peak + delta
    if pos > total / 2:
        pos -= total
    return pos / upsampling, correlation_quality(mag, peak)


def range_and_quality_m(estimator, received: np.ndarray, known: np.ndarray) -> tuple:
    """``(range_m, quality)`` of one reception through ``estimator``."""
    delay, quality = estimate_delay_and_quality(received, known, estimator.upsampling)
    return delay * estimator.config.meters_per_sample, quality


def receive_srs(
    enodeb,
    ue,
    true_delay_samples: float,
    snr_db: float,
    rng: np.random.Generator,
    multipath: Sequence = (),
) -> np.ndarray:
    """One SRS reception from ``ue`` over a synthetic channel."""
    tx = make_srs_symbol(enodeb.srs_config, root=ue.srs_root)
    return apply_channel(tx, enodeb.srs_config, true_delay_samples, snr_db, rng, multipath)


def aggregate_tof_to_gps_reference(
    gps_times_s: Sequence[float],
    gps_xyz: np.ndarray,
    tof_times_s: Sequence[float],
    ranges_m: Sequence[float],
) -> List[GpsRange]:
    """Mask-per-fix loop: the O(fixes x reports) ToF-to-GPS averaging."""
    gps_times = np.asarray(gps_times_s, dtype=float)
    gps_xyz = np.asarray(gps_xyz, dtype=float)
    tof_times = np.asarray(tof_times_s, dtype=float)
    ranges = np.asarray(ranges_m, dtype=float)
    if gps_xyz.shape != (len(gps_times), 3):
        raise ValueError(
            f"gps_xyz must be ({len(gps_times)}, 3), got {gps_xyz.shape}"
        )
    if tof_times.shape != ranges.shape:
        raise ValueError("tof_times_s and ranges_m must have the same length")
    if np.any(np.diff(gps_times) < 0):
        raise ValueError("gps_times_s must be non-decreasing")
    out: List[GpsRange] = []
    for i, t in enumerate(gps_times):
        t_next = gps_times[i + 1] if i + 1 < len(gps_times) else np.inf
        mask = (tof_times >= t) & (tof_times < t_next)
        if not mask.any():
            continue
        out.append(
            GpsRange(gps_xyz=gps_xyz[i], range_m=float(ranges[mask].mean()), t_s=float(t))
        )
    return out


def mad_filter_reference(
    observations: Sequence[GpsRange],
    k: float = 4.0,
    k_pos: Optional[float] = None,
) -> List[GpsRange]:
    """Per-point moving-median loop behind the MAD range filter."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if k_pos is not None and k_pos <= 0:
        raise ValueError(f"k_pos must be positive, got {k_pos}")
    obs = list(observations)
    if len(obs) < 5:
        return obs
    r = np.array([o.range_m for o in obs])
    window = min(11, len(r) | 1)  # odd window
    half = window // 2
    trend = np.array(
        [np.median(r[max(0, i - half) : i + half + 1]) for i in range(len(r))]
    )
    resid = r - trend
    center = np.median(resid)
    mad = np.median(np.abs(resid - center))
    scale = 1.4826 * mad
    if scale <= 1e-9:
        return obs
    upper = (k_pos if k_pos is not None else k) * scale
    keep = (resid - center >= -k * scale) & (resid - center <= upper)
    return [o for o, good in zip(obs, keep) if good]


def collect_gps_ranges_reference(
    log,
    ue,
    channel,
    enodeb,
    estimator,
    rng: np.random.Generator,
    processing_offset_m: float = DEFAULT_PROCESSING_OFFSET_M,
    srs_rate_hz: float = SRS_RATE_HZ,
    faults=None,
    min_quality: Optional[float] = None,
    resynthesize: bool = False,
) -> List[GpsRange]:
    """One-reception-at-a-time twin of ``collect_gps_ranges``.

    Bit-identical to the batched collector for the same generator
    state.  ``resynthesize=True`` re-synthesizes the SRS symbol for
    every reception, as the seed code did before the symbol cache, so
    a benchmark charges this baseline the seed's per-symbol cost.
    """
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
    path_loss, los = channel.path_loss_and_los(true_pos, ue_xyz)
    snr = UPLINK_BUDGET.snr_db(path_loss)
    jitter_std = np.where(los, TOF_JITTER_LOS_S, TOF_JITTER_NLOS_S)
    jitter_m = rng.normal(0.0, 1.0, n_srs) * jitter_std * 299_792_458.0

    known = enodeb.known_srs_symbol(ue)
    ranges = np.full(n_srs, np.nan)
    for i in range(n_srs):
        if not srs_keep[i]:
            continue  # burst lost before it reached the eNodeB
        true_range = dist[i] + processing_offset_m + jitter_m[i]
        delay = true_range / cfg.meters_per_sample
        taps = TAPS_LOS if los[i] else TAPS_NLOS
        if resynthesize:
            tx = synthesize_srs_symbol(cfg, ue.srs_root)
            rx = apply_channel(tx, cfg, delay, float(snr[i]), rng, taps)
        else:
            rx = receive_srs(enodeb, ue, delay, float(snr[i]), rng, multipath=taps)
        range_m, quality = range_and_quality_m(estimator, rx, known)
        if min_quality is not None and quality < min_quality:
            srs_keep[i] = False
            continue
        ranges[i] = range_m

    if faults is not None:
        ranges[srs_keep] = faults.tof_outliers(ranges[srs_keep])
    gps_t, gps_xyz = log.t_s, log.gps_xyz
    if log.gps_valid is not None:
        gps_t, gps_xyz = gps_t[log.gps_valid], gps_xyz[log.gps_valid]
    return aggregate_tof_to_gps_reference(
        gps_t, gps_xyz, srs_delivered[srs_keep], ranges[srs_keep]
    )


# -- seed joint multilateration ------------------------------------------------------


def joint_residuals_reference(
    theta: np.ndarray,
    data: Mapping[int, Tuple[np.ndarray, np.ndarray]],
    ue_ids: Sequence[int],
    ue_z: float,
    prior_b: float = 0.0,
    prior_w: float = 0.0,
) -> np.ndarray:
    """Per-UE-loop residuals of the shared-offset joint problem.

    ``data[ue_id]`` is ``(anchors, ranges)``; ``theta`` is
    ``[x_0, y_0, ..., x_{U-1}, y_{U-1}, b]`` in ``ue_ids`` order.
    """
    b = theta[-1]
    out = []
    for i, ue_id in enumerate(ue_ids):
        anchors, ranges = data[ue_id]
        p = np.array([theta[2 * i], theta[2 * i + 1], ue_z])
        dist = np.linalg.norm(anchors - p[None, :], axis=1)
        out.append(dist + b - ranges)
    if prior_w > 0:
        out.append(np.array([np.sqrt(prior_w) * (b - prior_b)]))
    return np.concatenate(out)


def solve_joint_multilateration_seed(
    observations_by_ue: Mapping[int, Sequence[GpsRange]],
    ue_z: float = 1.5,
    huber_delta_m: float = 5.0,
    max_iter: int = 1000,
    tol: float = 1e-8,
    restarts: int = 3,
    seed: Optional[int] = 0,
    bounds_xy: Optional[tuple] = None,
    offset_prior: Optional[tuple] = None,
    jac: str = "2-point",
) -> JointLocalizationResult:
    """The joint solver as it shipped before the analytic Jacobian.

    Per-UE-loop residuals (:func:`joint_residuals_reference`) with
    SciPy's finite-difference Jacobian (``jac``: "2-point", the seed's
    choice and the timing baseline, or "3-point" for tighter
    equivalence checks), and the same restarts, bounds, offset prior
    and one-sided NLOS trimming as the production solve.
    """
    ue_ids = sorted(observations_by_ue)
    if not ue_ids:
        raise ValueError("need observations for at least one UE")
    data = {}
    for ue_id in ue_ids:
        obs = list(observations_by_ue[ue_id])
        if len(obs) < 3:
            raise ValueError(f"UE {ue_id}: need at least 3 observations, got {len(obs)}")
        data[ue_id] = (
            np.array([o.gps_xyz for o in obs], dtype=float),
            np.array([o.range_m for o in obs], dtype=float),
        )
    orig_counts = {ue_id: len(data[ue_id][1]) for ue_id in ue_ids}
    if offset_prior is not None:
        prior_b, prior_w = float(offset_prior[0]), float(offset_prior[1])
    else:
        prior_b, prior_w = 0.0, 0.0

    def residuals_over(data):
        return lambda theta: joint_residuals_reference(
            theta, data, ue_ids, ue_z, prior_b, prior_w
        )

    residuals = residuals_over(data)
    rng = np.random.default_rng(seed)
    first_anchors, _ = data[ue_ids[0]]
    spread = max(float(first_anchors[:, :2].std()), 10.0)

    if bounds_xy is not None:
        (x_lo, x_hi), (y_lo, y_hi) = bounds_xy
        lower = np.array([x_lo, y_lo] * len(ue_ids) + [-2000.0])
        upper = np.array([x_hi, y_hi] * len(ue_ids) + [2000.0])
        solver_bounds = (lower, upper)
    else:
        solver_bounds = (-np.inf, np.inf)

    def clip_theta(theta: np.ndarray) -> np.ndarray:
        if bounds_xy is None:
            return theta
        return np.clip(theta, solver_bounds[0] + 1e-6, solver_bounds[1] - 1e-6)

    def initial_theta(jitter: float) -> np.ndarray:
        theta = []
        b_guesses = []
        for ue_id in ue_ids:
            anchors, ranges = data[ue_id]
            c = anchors[:, :2].mean(axis=0) + rng.normal(0.0, jitter, 2)
            theta.extend([c[0], c[1]])
            dz = ue_z - anchors[:, 2]
            dist0 = np.sqrt(np.sum((c[None, :] - anchors[:, :2]) ** 2, axis=1) + dz * dz)
            b_guesses.append(np.median(ranges - dist0))
        theta.append(float(np.median(b_guesses)))
        return clip_theta(np.array(theta))

    def solve(fun, x0):
        return least_squares(
            fun,
            x0=x0,
            jac=jac,
            loss="huber",
            f_scale=huber_delta_m,
            max_nfev=max_iter,
            xtol=tol,
            ftol=tol,
            gtol=tol,
            bounds=solver_bounds,
        )

    best = None
    for attempt in range(max(1, restarts)):
        jitter = 0.0 if attempt == 0 else 3.0 * spread
        sol = solve(residuals, initial_theta(jitter))
        if best is None or sol.cost < best.cost:
            best = sol

    for _ in range(2):
        res = residuals(best.x)
        scale = 1.4826 * float(np.median(np.abs(res - np.median(res))))
        cut = max(2.5, 2.0 * scale)
        trimmed = {}
        trimmed_any = False
        offset = 0
        for ue_id in ue_ids:
            anchors, ranges = data[ue_id]
            keep = res[offset : offset + len(ranges)] <= cut
            offset += len(ranges)
            if keep.sum() < 3:
                keep = np.ones(len(ranges), dtype=bool)  # too few survivors
            elif not keep.all():
                trimmed_any = True
            trimmed[ue_id] = (anchors[keep], ranges[keep])
        if not trimmed_any:
            break
        data = trimmed
        residuals = residuals_over(data)
        best = solve(residuals, clip_theta(best.x))

    theta = best.x
    b = float(theta[-1])
    per_ue = {}
    for i, ue_id in enumerate(ue_ids):
        anchors, ranges = data[ue_id]
        position = np.array([theta[2 * i], theta[2 * i + 1], ue_z])
        dist = np.linalg.norm(anchors - position[None, :], axis=1)
        res = dist + b - ranges
        per_ue[ue_id] = MultilaterationResult(
            position=position,
            offset_m=b,
            residual_rms_m=float(np.sqrt(np.mean(res**2))),
            n_iter=int(best.nfev),
            converged=bool(best.success),
            inlier_fraction=len(ranges) / orig_counts[ue_id],
        )
    return JointLocalizationResult(per_ue=per_ue, offset_m=b, converged=bool(best.success))


# -- MAC -----------------------------------------------------------------------------


def round_robin_grants_reference(schedulable, n_prb: int, tti: int) -> list:
    """Scalar round-robin: equal split, remainder rotated by ``tti``."""
    n = len(schedulable)
    out = [0] * n
    idx = [i for i in range(n) if schedulable[i]]
    n_a = len(idx)
    if n_a == 0:
        return out
    base, rem = divmod(int(n_prb), n_a)
    rho = int(tti) % n_a
    for pos, i in enumerate(idx):
        out[i] = base + (1 if (pos - rho) % n_a < rem else 0)
    return out


def _scalar_grants(scheduler, schedulable, rates, n_prb, tti) -> list:
    if isinstance(scheduler, RoundRobinScheduler):
        return round_robin_grants_reference(schedulable, n_prb, tti)
    # Proportional-fair and max-min grants are scalar loops already.
    sched = np.array(schedulable, dtype=bool)
    return [int(g) for g in scheduler.grants(sched, np.asarray(rates), n_prb, tti)]


def run_tti_batch_reference(
    *,
    bytes_per_prb: np.ndarray,
    offered_bytes: np.ndarray,
    scheduler,
    queues,
    n_prb: int = PRB_PER_10MHZ,
    tti0: int = 0,
) -> MACBatchResult:
    """Pure-Python per-TTI replay of the MAC kernel's recurrence.

    Same contract as ``run_tti_batch`` (folds the batch into
    ``queues``), but every TTI admits, grants and drains one UE at a
    time in Python floats and never takes the grant-slab shortcut.
    """
    rates = np.asarray(bytes_per_prb, dtype=float)
    offered = np.asarray(offered_bytes, dtype=float)
    n, n_tti = offered.shape
    rate_list = [float(r) for r in rates]
    limit = float(queues.limit_bytes)
    grants = np.zeros((n, n_tti), dtype=np.int64)
    dropped = np.zeros((n, n_tti), dtype=float)
    served = np.zeros((n, n_tti), dtype=float)
    backlog = [float(b) for b in queues.backlog_bytes]
    for t in range(n_tti):
        avail = [0.0] * n
        schedulable = [False] * n
        for i in range(n):
            off = float(offered[i, t])
            if limit > 0:
                room = max(limit - backlog[i], 0.0)
                accepted = min(off, room)
                dropped[i, t] = off - accepted
            else:
                accepted = off
            avail[i] = backlog[i] + accepted
            schedulable[i] = avail[i] > 0.0 and rate_list[i] > 0.0
        g = _scalar_grants(scheduler, schedulable, rate_list, int(n_prb), int(tti0) + t)
        served_t = [0.0] * n
        for i in range(n):
            cap = g[i] * rate_list[i]
            served_t[i] = min(avail[i], cap)
            backlog[i] = avail[i] - served_t[i]
            grants[i, t] = g[i]
            served[i, t] = served_t[i]
        scheduler.update(np.array(served_t, dtype=float))
    backlog_end = np.array(backlog, dtype=float)
    queues.account_batch(offered, dropped, served, backlog_end)
    return MACBatchResult(
        ue_ids=queues.ue_ids,
        tti0=int(tti0),
        n_tti=int(n_tti),
        n_prb=int(n_prb),
        grants=grants,
        offered_bytes=offered,
        dropped_bytes=dropped,
        served_bytes=served,
        backlog_end_bytes=backlog_end,
    )


# -- fleet SNR / SINR ----------------------------------------------------------------


def sinr_db(
    channel,
    uav_positions: Sequence[np.ndarray],
    ue_xyz: np.ndarray,
    serving_index: int,
    activity: Optional[Sequence[float]] = None,
    carriers: Optional[Sequence[int]] = None,
) -> float:
    """SINR of one UE, one path-loss query per (UAV, UE) pair."""
    n = len(uav_positions)
    if not 0 <= serving_index < n:
        raise ValueError(f"serving_index {serving_index} out of range for {n} UAVs")
    act = _activity(n, activity)
    carr = _carriers(n, carriers)
    link = channel.link
    rx_dbm = np.array(
        [
            link.rx_power_dbm(float(channel.path_loss_db(np.asarray(p, dtype=float), ue_xyz)))
            for p in uav_positions
        ]
    )
    # dBm -> mW through the array kernel, as the batched stack does:
    # numpy's scalar ``**`` can differ from the ufunc by one ulp.
    rx_mw = 10.0 ** (rx_dbm / 10.0)
    signal_mw = rx_mw[serving_index]
    noise_mw = 10.0 ** (link.noise_floor_dbm / 10.0)
    interf_mw = 0.0
    for j in range(n):
        if j == serving_index or carr[j] != carr[serving_index]:
            continue
        interf_mw += act[j] * rx_mw[j]
    return float(10.0 * np.log10(signal_mw / (noise_mw + interf_mw)))


def fleet_sinr_db_reference(
    channel,
    uav_positions: Sequence[np.ndarray],
    ue_positions: Mapping[int, np.ndarray],
    serving: Mapping[int, int],
    activity: Optional[Sequence[float]] = None,
    carriers: Optional[Sequence[int]] = None,
) -> dict:
    """Per-UE :func:`sinr_db` over a whole fleet assignment."""
    return {
        ue_id: sinr_db(channel, uav_positions, ue_xyz, serving[ue_id], activity, carriers)
        for ue_id, ue_xyz in ue_positions.items()
    }


def per_ue_snr_db_reference(fleet) -> dict:
    """Best-cell SNR per UE of a ``FleetController``, one query per pair."""
    out = {}
    for ue in fleet.ues:
        best = -np.inf
        for ctrl in fleet.controllers:
            best = max(best, float(fleet.channel.snr_db(ctrl.uav.position, ue.xyz)))
        out[ue.ue_id] = best
    return out


def per_ue_sinr_db_reference(
    fleet,
    serving=None,
    activity=None,
    reuse_factor: Optional[int] = None,
) -> dict:
    """``FleetController.per_ue_sinr_db`` through the scalar loop."""
    serving = fleet.serving_dict() if serving is None else serving
    ue_positions = {ue.ue_id: ue.xyz for ue in fleet.ues if ue.ue_id in serving}
    return fleet_sinr_db_reference(
        fleet.channel,
        fleet.uav_positions(),
        ue_positions,
        serving,
        fleet.activity if activity is None else activity,
        fleet.carriers(reuse_factor),
    )


# -- seed ground-truth map kernel ----------------------------------------------------


def _seed_obstructed_lengths(terrain, tx_xyz, rx_xyz, step=1.0):
    """The seed ray kernel: one batch-wide sample grid, no pruning."""
    tx = np.atleast_2d(np.asarray(tx_xyz, dtype=float))
    rx = np.atleast_2d(np.asarray(rx_xyz, dtype=float))
    if rx.shape[0] == 1 and tx.shape[0] > 1:
        rx = np.broadcast_to(rx, tx.shape)
    margin = 0.02
    n = tx.shape[0]
    dist = np.linalg.norm(rx - tx, axis=1)
    horiz = np.linalg.norm((rx - tx)[:, :2], axis=1)
    max_dist = float(dist.max()) if n else 0.0
    if max_dist == 0.0:
        return np.zeros(n)
    n_steps = max(2, int(np.ceil(max_dist / step)))
    t = np.linspace(margin, 1.0 - margin, n_steps)
    chunk = max(1, int(8_000_000 // n_steps))
    out = np.empty(n, dtype=float)
    grid = terrain.grid
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        txc, rxc = tx[lo:hi], rx[lo:hi]
        xs = txc[:, None, 0] + t[None, :] * (rxc[:, 0] - txc[:, 0])[:, None]
        ys = txc[:, None, 1] + t[None, :] * (rxc[:, 1] - txc[:, 1])[:, None]
        zs = txc[:, None, 2] + t[None, :] * (rxc[:, 2] - txc[:, 2])[:, None]
        ix = np.floor((xs - grid.origin_x) / grid.cell_size).astype(int)
        iy = np.floor((ys - grid.origin_y) / grid.cell_size).astype(int)
        np.clip(ix, 0, grid.nx - 1, out=ix)
        np.clip(iy, 0, grid.ny - 1, out=iy)
        surface = terrain.heights[iy, ix]
        blocked = zs < surface
        out[lo:hi] = blocked.mean(axis=1)
    effective = np.maximum(horiz, 0.15 * dist)
    return out * effective * (1.0 - 2 * margin)


def seed_ground_truth_stack(channel, ue_positions, altitude, grid):
    """The seed map kernel: per-UE Python loop over full-map traces.

    Not bit-identical to ``ground_truth_stack``: the production kernel
    samples each ray at its own length where the seed oversampled
    short rays at the batch-wide density, so cells at building edges
    differ by a few dB (the bench gates the *mean* difference).
    """
    maps = []
    centers = grid.centers_flat()
    uav = np.column_stack([centers, np.full(len(centers), float(altitude))])
    for ue in ue_positions:
        ue = np.asarray(ue, dtype=float).reshape(3)
        dist = np.linalg.norm(uav - ue[None, :], axis=1)
        loss = fspl_db(dist, channel.freq_hz)
        obstructed = _seed_obstructed_lengths(channel.terrain, uav, ue, channel.ray_step_m)
        excess = np.where(
            obstructed > 0.0,
            np.minimum(
                channel.diffraction_db + channel.excess_db_per_m * obstructed,
                channel.excess_cap_db,
            ),
            0.0,
        )
        loss = loss + excess
        if channel.shadowing_sigma_db > 0:
            loss = loss + channel._shadowing_for(ue).at_many(uav[:, :2])
        if channel.common_sigma_db > 0:
            loss = loss + channel._common_shadowing().at_many(uav[:, :2])
        maps.append(channel.link.snr_db(loss).reshape(grid.shape))
    return np.stack(maps)
