"""The dataset factory: deterministic training tables from the simulator.

Three tables, each a ``(X, y)`` regression problem whose features the
inference adapters can recompute from controller-visible state:

``rem_residual``
    One row per unmeasured REM cell across synthetic measurement
    campaigns: ground-truth SNR maps from the channel oracle, masked by
    seeded random measurement patterns, interpolated by IDW — features
    from :func:`repro.learn.features.rem_features`, target
    ``truth - IDW`` in dB.  This is what the ``learned`` interpolator
    trains on.
``epoch_kpi``
    One row per sliding window over serving-time KPI traces: UEs churn
    position under a seeded mobility stream while the UAV holds its
    placement, and the aggregate-throughput ratio decays — features
    from :func:`repro.learn.features.trigger_features`, target the
    minimum ratio over the next ``TRIGGER_HORIZON`` samples.  This is
    what the ``learned`` epoch trigger trains on.
``sched_state``
    One row per TTI batch of a MAC simulation under varying load and
    SNR — the seed data for a future learned TTI scheduler.

Exports are versioned and deterministic: arrays go through the
byte-stable writer of :mod:`repro.learn.io`, the JSON sidecar carries
the feature schema and both fingerprints (``code_fingerprint`` of the
experiment harness and the learn-constants payload), and the file stem
embeds a content key over the generating spec — re-exporting the same
spec from the same code reproduces every byte; changing either misses
cleanly, exactly like the experiment point cache.

RNG contract: each table draws from its own lane of
``SeedSequence(seed, spawn_key=(LEARN_SPAWN_KEY, lane))`` (lane 0 =
REM masks, lane 1 = scheduler traces, lane 2 = KPI mobility); nothing
here touches global RNG state.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.learn import io as lio
from repro.learn.constants import (
    DATASET_SCHEMA,
    FEATURE_SCHEMA_VERSION,
    LEARN_SPAWN_KEY,
    REM_FEATURE_NAMES,
    REM_TARGET_NAME,
    SCHED_FEATURE_NAMES,
    SCHED_TARGET_NAME,
    TRIGGER_FEATURE_NAMES,
    TRIGGER_TARGET_NAME,
)
from repro.learn.features import rem_features, trace_to_windows
from repro.rem.idw import idw_interpolate
from repro.sim.scenario import Scenario

#: Default terrain/seed grid of the quick export.
QUICK_TERRAINS = ("campus",)
QUICK_SEEDS = (0, 1)

#: Coarse raster/REM pitches keeping the quick export under a minute.
QUICK_CELL_M = 8.0
QUICK_REM_FACTOR = 2

#: Fixed serving altitude of the synthetic campaigns.
DATASET_ALTITUDE_M = 60.0


@dataclass(frozen=True)
class Dataset:
    """One in-memory training table plus its provenance metadata."""

    table: str
    X: np.ndarray
    y: np.ndarray
    feature_names: Tuple[str, ...]
    target_name: str
    spec: Dict

    @property
    def meta(self) -> Dict:
        """The JSON-able sidecar payload (fingerprints added on export)."""
        return {
            "schema": DATASET_SCHEMA,
            "table": self.table,
            "feature_schema_version": FEATURE_SCHEMA_VERSION,
            "feature_names": list(self.feature_names),
            "target_name": self.target_name,
            "n_rows": int(len(self.y)),
            "spec": self.spec,
        }


def build_rem_residual(
    terrains: Sequence[str] = QUICK_TERRAINS,
    seeds: Sequence[int] = QUICK_SEEDS,
    n_ues: int = 4,
    cell_size_m: float = QUICK_CELL_M,
    campaigns_per_ue: int = 3,
) -> Dataset:
    """The REM-residual table: truth − IDW over masked truth maps.

    For every (terrain, seed, UE, campaign) a measured fraction is
    drawn from the lane-0 stream, truth cells are revealed at that
    rate, IDW fills the rest from the FSPL prior, and each unmeasured
    cell contributes one (features, residual) row.
    """
    rows_X, rows_y = [], []
    for terrain_name in terrains:
        for seed in seeds:
            scenario = Scenario.create(
                terrain_name, n_ues=n_ues, cell_size=cell_size_m, seed=seed
            )
            grid = scenario.channel.terrain.grid.coarsen(QUICK_REM_FACTOR)
            truth = scenario.truth_maps(DATASET_ALTITUDE_M, grid)
            rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(LEARN_SPAWN_KEY, 0))
            )
            for ue_idx, ue in enumerate(scenario.ues):
                prior_pl = scenario.channel.fspl_prior_map(
                    ue.xyz, DATASET_ALTITUDE_M, grid
                )
                prior = scenario.channel.link.snr_db(prior_pl)
                for _ in range(campaigns_per_ue):
                    frac = rng.uniform(0.03, 0.25)
                    mask = rng.random(grid.shape) < frac
                    if not mask.any() or mask.all():
                        continue
                    values = np.where(mask, truth[ue_idx], np.nan)
                    base = idw_interpolate(grid, values, fallback=prior)
                    X, missing = rem_features(grid, values, base, prior)
                    resid = truth[ue_idx][missing] - base[missing]
                    keep = np.isfinite(resid) & np.isfinite(X).all(axis=1)
                    rows_X.append(X[keep])
                    rows_y.append(resid[keep])
    X = np.concatenate(rows_X) if rows_X else np.zeros((0, len(REM_FEATURE_NAMES)))
    y = np.concatenate(rows_y) if rows_y else np.zeros(0)
    spec = {
        "terrains": list(terrains),
        "seeds": [int(s) for s in seeds],
        "n_ues": int(n_ues),
        "cell_size_m": float(cell_size_m),
        "campaigns_per_ue": int(campaigns_per_ue),
        "altitude_m": DATASET_ALTITUDE_M,
    }
    return Dataset(
        "rem_residual", X, y, REM_FEATURE_NAMES, REM_TARGET_NAME, spec
    )


def kpi_trace(
    scenario: Scenario,
    seed: int,
    n_steps: int = 64,
    move_fraction: float = 0.25,
    altitude_m: float = DATASET_ALTITUDE_M,
) -> np.ndarray:
    """One serving-time KPI-ratio trace for a scenario.

    The UAV parks over the initial UE centroid at ``altitude_m``;
    every step, ``move_fraction`` of the UEs relocate under the lane-2
    mobility stream and the aggregate mean throughput is re-measured at
    the held position.  Returns the trace normalized by its first
    sample (the epoch reference) — the unit the trigger thinks in.

    Mutates the scenario's UE positions (callers pass throwaway
    scenarios).
    """
    from repro.lte.throughput import throughput_mbps

    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(LEARN_SPAWN_KEY, 2))
    )
    centroid = np.mean([ue.xyz[:2] for ue in scenario.ues], axis=0)
    pos = np.array([centroid[0], centroid[1], altitude_m])

    def kpi() -> float:
        snrs = scenario.channel.snr_to_many(
            pos, np.array([ue.xyz for ue in scenario.ues])
        )
        return float(np.mean(throughput_mbps(snrs)))

    trace = [kpi()]
    for _ in range(n_steps):
        scenario.relocate_ues(move_fraction, rng)
        trace.append(kpi())
    ref = trace[0]
    if ref <= 0:
        return np.ones(len(trace))
    return np.asarray(trace) / ref


def build_epoch_kpi(
    terrains: Sequence[str] = QUICK_TERRAINS,
    seeds: Sequence[int] = QUICK_SEEDS,
    n_ues: int = 6,
    cell_size_m: float = QUICK_CELL_M,
    n_steps: int = 64,
    move_fraction: float = 0.25,
) -> Dataset:
    """The epoch-KPI table: window features → min ratio ahead."""
    rows_X, rows_y = [], []
    for terrain_name in terrains:
        for seed in seeds:
            scenario = Scenario.create(
                terrain_name, n_ues=n_ues, cell_size=cell_size_m, seed=seed
            )
            ratios = kpi_trace(
                scenario, seed, n_steps=n_steps, move_fraction=move_fraction
            )
            X, y = trace_to_windows(ratios)
            rows_X.append(X)
            rows_y.append(y)
    X = (
        np.concatenate(rows_X)
        if rows_X
        else np.zeros((0, len(TRIGGER_FEATURE_NAMES)))
    )
    y = np.concatenate(rows_y) if rows_y else np.zeros(0)
    spec = {
        "terrains": list(terrains),
        "seeds": [int(s) for s in seeds],
        "n_ues": int(n_ues),
        "cell_size_m": float(cell_size_m),
        "n_steps": int(n_steps),
        "move_fraction": float(move_fraction),
    }
    return Dataset(
        "epoch_kpi", X, y, TRIGGER_FEATURE_NAMES, TRIGGER_TARGET_NAME, spec
    )


def build_sched_state(
    seeds: Sequence[int] = QUICK_SEEDS,
    n_ues: int = 8,
    n_batches: int = 16,
    tti_batch: int = 200,
) -> Dataset:
    """The scheduler-state table: MAC batch summaries under load sweeps."""
    from repro.traffic.simulate import MACSimulation

    rows_X, rows_y = [], []
    for seed in seeds:
        rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(LEARN_SPAWN_KEY, 1))
        )
        for scheduler in ("round_robin", "proportional_fair"):
            sim = MACSimulation(
                range(1, n_ues + 1),
                traffic_model="poisson",
                scheduler=scheduler,
                seed=seed,
                traffic_params={"rate_mbps": 2.0},
            )
            for _ in range(n_batches):
                snrs = {
                    u: float(rng.uniform(-2.0, 22.0)) for u in sim.ue_ids
                }
                batch = sim.run(snrs, tti_batch)
                backlog = batch.total_backlog_bytes()
                backlog_mb = (
                    float(backlog) / 1e6 if np.isfinite(backlog) else 1e3
                )
                rows_X.append(
                    [
                        batch.aggregate_offered_mbps(),
                        backlog_mb,
                        batch.fairness(),
                        float(n_ues),
                        float(np.mean(list(snrs.values()))),
                    ]
                )
                rows_y.append(batch.aggregate_served_mbps())
    X = (
        np.asarray(rows_X, dtype=float)
        if rows_X
        else np.zeros((0, len(SCHED_FEATURE_NAMES)))
    )
    y = np.asarray(rows_y, dtype=float)
    spec = {
        "seeds": [int(s) for s in seeds],
        "n_ues": int(n_ues),
        "n_batches": int(n_batches),
        "tti_batch": int(tti_batch),
    }
    return Dataset(
        "sched_state", X, y, SCHED_FEATURE_NAMES, SCHED_TARGET_NAME, spec
    )


BUILDERS = {
    "rem_residual": build_rem_residual,
    "epoch_kpi": build_epoch_kpi,
    "sched_state": build_sched_state,
}


def dataset_key(table: str, spec: Dict, fingerprint: str) -> str:
    """Content key of one export: table + spec + code fingerprint."""
    from repro.experiments.artifacts import canonical_json

    payload = {
        "table": table,
        "spec": spec,
        "feature_schema_version": FEATURE_SCHEMA_VERSION,
        "fingerprint": fingerprint,
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:16]


def export_dataset(
    dataset: Dataset, out_dir: "Path | str", fingerprint: Optional[str] = None
) -> Path:
    """Write a dataset to ``<out_dir>/<table>_<key>.npz`` (+ sidecar).

    ``fingerprint`` defaults to the experiment harness's
    ``code_fingerprint()`` (which already folds in the learn
    constants), so exports invalidate exactly when cached experiment
    points do.  Returns the ``.npz`` path; both files are
    byte-deterministic.
    """
    if fingerprint is None:
        from repro.experiments.artifacts import code_fingerprint

        fingerprint = code_fingerprint()
    key = dataset_key(dataset.table, dataset.spec, fingerprint)
    out_dir = Path(out_dir)
    path = out_dir / f"{dataset.table}_{key}.npz"
    lio.save_arrays(path, {"X": dataset.X, "y": dataset.y})
    meta = dataset.meta
    meta["key"] = key
    meta["fingerprint"] = fingerprint
    lio.save_json(path.with_suffix(".json"), meta)
    return path


def load_dataset(path: "Path | str") -> Dataset:
    """Load an exported dataset (``.npz`` path) back into memory."""
    path = Path(path)
    arrays = lio.load_arrays(path)
    meta = lio.load_json(path.with_suffix(".json"))
    if meta.get("schema") != DATASET_SCHEMA:
        raise ValueError(f"{path}: not a learn dataset ({meta.get('schema')!r})")
    if meta.get("feature_schema_version") != FEATURE_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: feature schema v{meta.get('feature_schema_version')} "
            f"!= this build's v{FEATURE_SCHEMA_VERSION}"
        )
    return Dataset(
        meta["table"],
        arrays["X"],
        arrays["y"],
        tuple(meta["feature_names"]),
        meta["target_name"],
        meta["spec"],
    )
