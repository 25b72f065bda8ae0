"""The composite terrain-aware channel model.

:class:`ChannelModel` is the single oracle for "what does the radio
environment actually look like" in this reproduction.  It produces:

* **mean path loss / SNR** between any UAV position and UE position —
  free-space loss plus an obstruction excess loss proportional to the
  ray length below the terrain surface, a diffraction entry penalty,
  and a frozen correlated shadowing field per UE position;
* **measurement samples** — mean SNR plus small-scale Rician/Rayleigh
  fading and instrument noise, which is what the eNodeB PHY "reports"
  at 100 Hz during flights;
* **full-grid maps** at an altitude — the ground truth REMs of the
  evaluation.

The same object generates both the ground truth and every measurement,
so estimated REMs can in principle converge to the truth — exactly the
premise of a measurement-driven system like SkyRAN.

Because every figure funnels through this oracle, the map path is
batch-first: :meth:`path_loss_maps` computes whole ``(n_ue, ny, nx)``
stacks in chunked vectorized batches over the UE axis, memoizes per-UE
maps in an LRU cache keyed on (altitude, grid, UE position) — so UE
mobility only invalidates the maps of UEs that actually moved — and
can optionally fan the per-UE work out over a process pool
(``REPRO_NUM_WORKERS``; serial by default so results stay reproducible
run-to-run on any machine).
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.fading import sample_fading_db
from repro.channel.fspl import DEFAULT_FREQ_HZ, fspl_db, fspl_map
from repro.channel.linkbudget import LinkBudget
from repro.channel.raytrace import LinkState, obstructed_lengths, ray_profile_batch
from repro.channel.shadowing import ShadowingField
from repro.geo.grid import GridSpec
from repro.perf import perf
from repro.terrain.heightmap import Terrain

#: Environment knob for the default process-pool width of the map
#: oracle.  1 (or unset) keeps everything serial.
NUM_WORKERS_ENV = "REPRO_NUM_WORKERS"

#: Peak ray budget per UE-axis chunk of the batched map kernel (the
#: ray tracer further chunks by sample count internally).
_MAP_CHUNK_RAYS = 2_000_000


def default_num_workers() -> int:
    """Worker count from ``REPRO_NUM_WORKERS`` (serial when unset)."""
    try:
        return max(1, int(os.environ.get(NUM_WORKERS_ENV, "1")))
    except ValueError:
        return 1


# -- process-pool plumbing (module level so it pickles) -------------------------

_WORKER_MODEL: Optional["ChannelModel"] = None


def _map_worker_init(model: "ChannelModel") -> None:
    global _WORKER_MODEL
    _WORKER_MODEL = model


def _map_worker(args: tuple) -> np.ndarray:
    ue, altitude, grid = args
    assert _WORKER_MODEL is not None
    return _WORKER_MODEL._compute_path_loss_maps([ue], altitude, grid)[0]


@dataclass
class ChannelModel:
    """Terrain-aware UAV-to-UE channel.

    Parameters
    ----------
    terrain:
        Surface used for ray obstruction tests.
    freq_hz:
        Carrier frequency (2.6 GHz default).
    excess_db_per_m:
        Extra attenuation per meter of obstructed ray (vegetation and
        building interiors average; 1.2 dB/m is in the range reported
        for 2-3 GHz foliage/through-building measurements).
    diffraction_db:
        One-time penalty as soon as a ray is obstructed at all
        (knife-edge diffraction around the obstacle).
    excess_cap_db:
        Upper bound on obstruction excess loss; beyond this, energy
        arrives via reflections that the direct-ray model cannot see,
        so loss stops growing.
    shadowing_sigma_db / shadowing_correlation_m:
        Per-UE log-normal shadowing field parameters.
    common_sigma_db:
        Std of the *common* shadowing field shared by every UE.  Real
        air-to-ground links have a strong UAV-position-dependent
        component (antenna-pattern ripple against the airframe,
        ground clutter under the UAV) that hits all links from that
        position alike — it is why the paper's Fig. 1a average map
        over 20 UEs still shows one sharp sweet-spot region instead
        of averaging flat.  This common structure is exactly what
        measurement-driven REMs can exploit and location-only
        heuristics (Centroid) cannot.
    ray_step_m:
        Sampling interval for the ray tracer.
    link:
        Link budget for path-loss -> SNR conversion.
    seed:
        Base seed for the per-UE shadowing fields.
    map_cache_size:
        Maximum number of per-UE full-grid maps (and FSPL priors) kept
        in the LRU oracle cache.  The cache is keyed on (altitude,
        grid, UE position), so a moved UE simply stops hitting its old
        entry — the maps of unmoved UEs stay warm across epochs.
    """

    terrain: Terrain
    freq_hz: float = DEFAULT_FREQ_HZ
    excess_db_per_m: float = 1.2
    diffraction_db: float = 8.0
    excess_cap_db: float = 40.0
    shadowing_sigma_db: float = 3.0
    shadowing_correlation_m: float = 20.0
    common_sigma_db: float = 4.5
    ray_step_m: float = 1.0
    link: LinkBudget = field(default_factory=LinkBudget)
    seed: int = 0
    map_cache_size: int = 128
    _shadow_cache: Dict[Tuple[float, float, float], ShadowingField] = field(
        default_factory=dict, repr=False
    )
    _map_cache: "OrderedDict[tuple, np.ndarray]" = field(
        default_factory=OrderedDict, repr=False
    )

    # -- shadowing --------------------------------------------------------------

    def _shadowing_for(self, ue_xyz: np.ndarray) -> ShadowingField:
        ue = np.asarray(ue_xyz, dtype=float).reshape(3)
        key = (round(ue[0], 3), round(ue[1], 3), round(ue[2], 3))
        cached = self._shadow_cache.get(key)
        if cached is None:
            cached = ShadowingField.generate(
                self.terrain.grid,
                sigma_db=self.shadowing_sigma_db,
                correlation_m=self.shadowing_correlation_m,
                seed=self.seed,
                ue_xyz=ue,
            )
            self._shadow_cache[key] = cached
        return cached

    def _common_shadowing(self) -> ShadowingField:
        """The UAV-position-dependent field shared by every link."""
        key = ("__common__", 0.0, 0.0)
        cached = self._shadow_cache.get(key)
        if cached is None:
            cached = ShadowingField.generate(
                self.terrain.grid,
                sigma_db=self.common_sigma_db,
                correlation_m=self.shadowing_correlation_m,
                seed=self.seed + 7_777_777,
            )
            self._shadow_cache[key] = cached
        return cached

    # -- mean path loss ----------------------------------------------------------

    def _excess_db(self, obstructed: np.ndarray) -> np.ndarray:
        """Obstruction excess loss (diffraction entry + per-meter, capped)."""
        return np.where(
            obstructed > 0.0,
            np.minimum(
                self.diffraction_db + self.excess_db_per_m * obstructed,
                self.excess_cap_db,
            ),
            0.0,
        )

    def _loss_from_obstructed(
        self, uav: np.ndarray, ue: np.ndarray, obstructed: np.ndarray
    ) -> np.ndarray:
        """Mean path loss given pre-traced obstructed lengths."""
        dist = np.linalg.norm(uav - ue[None, :], axis=1)
        loss = fspl_db(dist, self.freq_hz)
        loss = loss + self._excess_db(obstructed)
        if self.shadowing_sigma_db > 0:
            shadow = self._shadowing_for(ue)
            loss = loss + shadow.at_many(uav[:, :2])
        if self.common_sigma_db > 0:
            loss = loss + self._common_shadowing().at_many(uav[:, :2])
        return loss

    def path_loss_db(self, uav_xyz: np.ndarray, ue_xyz: np.ndarray) -> np.ndarray:
        """Mean path loss from UAV position(s) to one UE, in dB.

        ``uav_xyz`` may be a single ``(3,)`` point or an ``(n, 3)``
        array; the result matches (scalar float for a single point).
        """
        single = np.asarray(uav_xyz, dtype=float).ndim == 1
        uav = np.atleast_2d(np.asarray(uav_xyz, dtype=float))
        ue = np.asarray(ue_xyz, dtype=float).reshape(3)
        obstructed = obstructed_lengths(self.terrain, uav, ue, self.ray_step_m)
        loss = self._loss_from_obstructed(uav, ue, obstructed)
        if single:
            return float(loss[0])
        return loss

    def path_loss_and_los(
        self, uav_xyz: np.ndarray, ue_xyz: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Mean path loss *and* LOS state from a single shared trace.

        The measurement paths need both (loss for the mean SNR, LOS for
        the fading/jitter statistics); calling :meth:`path_loss_db` and
        :meth:`is_los` separately would trace the same rays twice.
        """
        uav = np.atleast_2d(np.asarray(uav_xyz, dtype=float))
        ue = np.asarray(ue_xyz, dtype=float).reshape(3)
        state: LinkState = ray_profile_batch(self.terrain, uav, ue, self.ray_step_m)
        loss = self._loss_from_obstructed(uav, ue, state.obstructed_m)
        return loss, state.los

    def snr_db(self, uav_xyz: np.ndarray, ue_xyz: np.ndarray) -> np.ndarray:
        """Mean SNR (dB) from UAV position(s) to one UE."""
        return self.link.snr_db(self.path_loss_db(uav_xyz, ue_xyz))

    def is_los(self, uav_xyz: np.ndarray, ue_xyz: np.ndarray) -> np.ndarray:
        """LOS state per UAV position."""
        uav = np.atleast_2d(np.asarray(uav_xyz, dtype=float))
        ue = np.asarray(ue_xyz, dtype=float).reshape(3)
        return obstructed_lengths(self.terrain, uav, ue, self.ray_step_m) <= 0.0

    # -- full-grid maps ----------------------------------------------------------

    def path_loss_map(
        self,
        ue_xyz: np.ndarray,
        altitude: float,
        grid: Optional[GridSpec] = None,
    ) -> np.ndarray:
        """Mean path loss from every grid cell (at ``altitude``) to a UE.

        ``grid`` defaults to the terrain grid; pass a coarsened grid to
        trade resolution for speed in large scale-up runs.  This is the
        direct serial reference path — it does not touch the map cache
        (see :meth:`path_loss_maps` for the batched/cached oracle).
        """
        g = grid or self.terrain.grid
        centers = g.centers_flat()
        uav = np.column_stack([centers, np.full(len(centers), float(altitude))])
        loss = self.path_loss_db(uav, ue_xyz)
        return loss.reshape(g.shape)

    def snr_map(
        self,
        ue_xyz: np.ndarray,
        altitude: float,
        grid: Optional[GridSpec] = None,
    ) -> np.ndarray:
        """Mean SNR map over the grid at ``altitude`` for one UE."""
        return self.link.snr_db(self.path_loss_map(ue_xyz, altitude, grid))

    # -- batched / cached / parallel map oracle -----------------------------------

    def _map_key(self, kind: str, ue: np.ndarray, altitude: float, g: GridSpec) -> tuple:
        return (
            kind,
            g,
            round(float(altitude), 6),
            (round(float(ue[0]), 6), round(float(ue[1]), 6), round(float(ue[2]), 6)),
        )

    def _map_cache_get(self, key: tuple) -> Optional[np.ndarray]:
        hit = self._map_cache.get(key)
        if hit is None:
            perf.count("oracle.map_cache.miss")
            return None
        self._map_cache.move_to_end(key)
        perf.count("oracle.map_cache.hit")
        return hit

    def _map_cache_put(self, key: tuple, value: np.ndarray) -> None:
        self._map_cache[key] = value
        self._map_cache.move_to_end(key)
        while len(self._map_cache) > self.map_cache_size:
            self._map_cache.popitem(last=False)
            perf.count("oracle.map_cache.evict")

    def path_loss_maps(
        self,
        ue_positions: Sequence,
        altitude: float,
        grid: Optional[GridSpec] = None,
        *,
        workers: Optional[int] = None,
        use_cache: bool = True,
    ) -> np.ndarray:
        """Mean path loss maps for many UEs, stacked ``(n_ue, ny, nx)``.

        The multi-UE kernel: rays for whole groups of UEs are traced in
        chunked vectorized batches over the UE axis (one terrain gather
        per chunk) instead of one Python-level map loop per UE, per-UE
        results are memoized in the LRU oracle cache, and cache misses
        can optionally be computed by a process pool (``workers`` /
        ``REPRO_NUM_WORKERS``; the default 1 keeps everything in
        process).  Serial, parallel and cached paths all produce
        identical maps.
        """
        g = grid or self.terrain.grid
        ues = [np.asarray(u, dtype=float).reshape(3) for u in ue_positions]
        out = np.empty((len(ues),) + g.shape, dtype=float)
        if not ues:
            return out
        missing: List[int] = []
        for i, ue in enumerate(ues):
            cached = (
                self._map_cache_get(self._map_key("pl", ue, altitude, g))
                if use_cache
                else None
            )
            if cached is not None:
                out[i] = cached
            else:
                missing.append(i)
        if missing:
            n_workers = default_num_workers() if workers is None else max(1, workers)
            missing_ues = [ues[i] for i in missing]
            with perf.span("oracle.path_loss_maps"):
                if n_workers > 1 and len(missing_ues) > 1:
                    maps = self._parallel_path_loss_maps(
                        missing_ues, altitude, g, n_workers
                    )
                else:
                    maps = self._compute_path_loss_maps(missing_ues, altitude, g)
            for i, m in zip(missing, maps):
                out[i] = m
                if use_cache:
                    self._map_cache_put(self._map_key("pl", ues[i], altitude, g), m)
        return out

    def snr_maps(
        self,
        ue_positions: Sequence,
        altitude: float,
        grid: Optional[GridSpec] = None,
        *,
        workers: Optional[int] = None,
        use_cache: bool = True,
    ) -> np.ndarray:
        """Mean SNR maps for many UEs, stacked ``(n_ue, ny, nx)``."""
        return self.link.snr_db(
            self.path_loss_maps(
                ue_positions, altitude, grid, workers=workers, use_cache=use_cache
            )
        )

    # -- tile-streamed map oracle --------------------------------------------------

    def iter_path_loss_map_tiles(
        self,
        ue_positions: Sequence,
        altitude: float,
        grid: Optional[GridSpec] = None,
        *,
        tile_rows: int = 64,
        ue_chunk: Optional[int] = None,
    ):
        """Stream path-loss maps as ``(ue_slice, row_slice, block)`` tiles.

        Yields blocks of shape ``(k, rows, nx)`` covering ``tile_rows``
        grid rows for ``k`` UEs at a time, so a consumer folding tiles
        as they arrive holds O(tile) memory instead of the full
        ``(n_ue, ny, nx)`` stack.  Every cell value is **bit-identical**
        to the materialized :meth:`path_loss_maps` path: the ray
        tracer's per-ray sampling does not depend on batch composition,
        and the shadowing/FSPL terms are per-point lookups, so
        restricting the computation to a band of rows changes nothing
        per cell.

        ``ue_chunk`` defaults to the same ray budget the materialized
        kernel uses, applied per band.  Tiles are yielded band-major
        (all UE chunks of one band before the next band) so row-wise
        folds touch each output row over a contiguous stretch.
        """
        if tile_rows < 1:
            raise ValueError(f"tile_rows must be >= 1, got {tile_rows}")
        if ue_chunk is not None and ue_chunk < 1:
            raise ValueError(f"ue_chunk must be >= 1, got {ue_chunk}")
        g = grid or self.terrain.grid
        ues = [np.asarray(u, dtype=float).reshape(3) for u in ue_positions]
        if not ues:
            return
        ny, nx = g.shape
        centers = g.centers_flat()
        alt = float(altitude)
        for r0 in range(0, ny, tile_rows):
            r1 = min(r0 + tile_rows, ny)
            band = centers[r0 * nx : r1 * nx]
            n_cells = len(band)
            uav = np.column_stack([band, np.full(n_cells, alt)])
            chunk = ue_chunk or max(1, _MAP_CHUNK_RAYS // n_cells)
            for lo in range(0, len(ues), chunk):
                batch = ues[lo : lo + chunk]
                k = len(batch)
                with perf.span("oracle.map_tiles"):
                    tx = np.tile(uav, (k, 1))
                    rx = np.repeat(np.stack(batch), n_cells, axis=0)
                    obstructed = obstructed_lengths(
                        self.terrain, tx, rx, self.ray_step_m
                    )
                    block = np.empty((k, r1 - r0, nx), dtype=float)
                    for j, ue in enumerate(batch):
                        obs = obstructed[j * n_cells : (j + 1) * n_cells]
                        block[j] = self._loss_from_obstructed(uav, ue, obs).reshape(
                            r1 - r0, nx
                        )
                perf.count("oracle.map_tiles_yielded")
                yield slice(lo, lo + k), slice(r0, r1), block

    def iter_snr_map_tiles(
        self,
        ue_positions: Sequence,
        altitude: float,
        grid: Optional[GridSpec] = None,
        *,
        tile_rows: int = 64,
        ue_chunk: Optional[int] = None,
    ):
        """Stream SNR maps as ``(ue_slice, row_slice, block)`` tiles.

        The streamed counterpart of :meth:`snr_maps`; see
        :meth:`iter_path_loss_map_tiles` for the tiling and exactness
        contract.
        """
        for ue_sl, row_sl, block in self.iter_path_loss_map_tiles(
            ue_positions, altitude, grid, tile_rows=tile_rows, ue_chunk=ue_chunk
        ):
            yield ue_sl, row_sl, self.link.snr_db(block)

    def path_loss_to_many(
        self, uav_xyz: np.ndarray, ue_positions: Sequence
    ) -> np.ndarray:
        """Mean path loss (dB) from one UAV position to many UEs.

        The one-Tx-many-Rx kernel under :meth:`snr_to_many` and the
        fleet SINR stacks: bit-identical to calling
        :meth:`path_loss_db` once per UE.  With per-UE shadowing
        enabled each UE's frozen field must be sampled separately, so
        the method degrades to exactly that per-UE loop; with it
        disabled (the city configuration) the whole population runs
        through one vectorized ray batch.
        """
        uav = np.asarray(uav_xyz, dtype=float).reshape(3)
        ues = np.atleast_2d(np.asarray(ue_positions, dtype=float))
        if ues.shape[0] == 0:
            return np.empty(0, dtype=float)
        if self.shadowing_sigma_db > 0:
            perf.count("oracle.to_many_ue_loop", len(ues))
            return np.array(
                [float(self.path_loss_db(uav, ue)) for ue in ues], dtype=float
            )
        perf.count("oracle.to_many_batched", len(ues))
        obstructed = obstructed_lengths(
            self.terrain, uav[None, :], ues, self.ray_step_m
        )
        dist = np.linalg.norm(uav[None, :] - ues, axis=1)
        loss = fspl_db(dist, self.freq_hz)
        loss = loss + self._excess_db(obstructed)
        if self.common_sigma_db > 0:
            loss = loss + self._common_shadowing().at_many(uav[None, :2])
        return loss

    def snr_to_many(self, uav_xyz: np.ndarray, ue_positions: Sequence) -> np.ndarray:
        """Mean SNR (dB) from one UAV position to many UEs.

        The transpose of :meth:`snr_db` (one UE, many UAV positions),
        and the shape the city-scale MAC needs: the serving SNR of a
        whole population at the chosen placement.  Bit-identical to
        calling :meth:`snr_db` once per UE (see
        :meth:`path_loss_to_many` for the shadowing caveat).
        """
        loss = self.path_loss_to_many(uav_xyz, ue_positions)
        if loss.shape[0] == 0:
            return loss
        return self.link.snr_db(loss)

    # -- co-channel interference ----------------------------------------------------

    def interference_mw(
        self,
        ue_positions: Sequence,
        interferer_positions: Sequence,
        activity: Optional[Sequence[float]] = None,
    ) -> np.ndarray:
        """Aggregate co-channel downlink interference per UE, in mW.

        Sums the received power from every interfering transmitter at
        every UE, scaled by per-interferer activity factors (fraction
        of PRBs loaded; defaults to fully loaded — the conservative
        busy-hour assumption).  The accumulation visits interferers in
        ascending index order.
        """
        ues = np.atleast_2d(np.asarray(ue_positions, dtype=float))
        interferers = [
            np.asarray(p, dtype=float).reshape(3) for p in interferer_positions
        ]
        if activity is None:
            act = np.ones(len(interferers))
        else:
            act = np.asarray(list(activity), dtype=float)
            if act.shape != (len(interferers),):
                raise ValueError(
                    f"activity must have length {len(interferers)}, got {act.shape}"
                )
            if np.any((act < 0) | (act > 1)):
                raise ValueError("activity factors must be in [0, 1]")
        out = np.zeros(ues.shape[0], dtype=float)
        for j, pos in enumerate(interferers):
            rx_dbm = self.link.rx_power_dbm(self.path_loss_to_many(pos, ues))
            out += act[j] * 10.0 ** (rx_dbm / 10.0)
        return out

    def _compute_path_loss_maps(
        self, ues: Sequence[np.ndarray], altitude: float, g: GridSpec
    ) -> np.ndarray:
        """The vectorized multi-UE map kernel (no cache, no pool).

        UEs are processed in chunks along the UE axis sized so each ray
        batch stays within :data:`_MAP_CHUNK_RAYS`; within a chunk one
        ray-trace call covers every (cell, UE) pair.
        """
        centers = g.centers_flat()
        n_cells = len(centers)
        alt = float(altitude)
        uav = np.column_stack([centers, np.full(n_cells, alt)])
        out = np.empty((len(ues),) + g.shape, dtype=float)
        chunk = max(1, _MAP_CHUNK_RAYS // n_cells)
        for lo in range(0, len(ues), chunk):
            batch = ues[lo : lo + chunk]
            k = len(batch)
            tx = np.tile(uav, (k, 1))
            rx = np.repeat(np.stack(batch), n_cells, axis=0)
            obstructed = obstructed_lengths(self.terrain, tx, rx, self.ray_step_m)
            for j, ue in enumerate(batch):
                obs = obstructed[j * n_cells : (j + 1) * n_cells]
                out[lo + j] = self._loss_from_obstructed(uav, ue, obs).reshape(g.shape)
        return out

    def _parallel_path_loss_maps(
        self,
        ues: Sequence[np.ndarray],
        altitude: float,
        g: GridSpec,
        n_workers: int,
    ) -> np.ndarray:
        """Fan per-UE map computation out over a process pool.

        Workers receive a cache-stripped copy of the model once (pool
        initializer) and compute whole per-UE maps; results are
        identical to the serial kernel because the per-ray sampling of
        the tracer does not depend on batch composition.
        """
        from concurrent.futures import ProcessPoolExecutor

        bare = replace(self, _shadow_cache={}, _map_cache=OrderedDict())
        tasks = [(ue, float(altitude), g) for ue in ues]
        perf.count("oracle.parallel_batches")
        with ProcessPoolExecutor(
            max_workers=min(n_workers, len(tasks)),
            initializer=_map_worker_init,
            initargs=(bare,),
        ) as pool:
            maps = list(pool.map(_map_worker, tasks))
        return np.stack(maps)

    # -- FSPL priors --------------------------------------------------------------

    def fspl_prior_map(
        self,
        ue_xyz: np.ndarray,
        altitude: float,
        grid: Optional[GridSpec] = None,
    ) -> np.ndarray:
        """FSPL-only path loss map (the Section 3.5 REM seed), cached.

        Same LRU cache and key structure as the truth maps, so priors
        survive across epochs and only positions that actually changed
        are recomputed.
        """
        g = grid or self.terrain.grid
        ue = np.asarray(ue_xyz, dtype=float).reshape(3)
        key = self._map_key("fspl", ue, altitude, g)
        cached = self._map_cache_get(key)
        if cached is not None:
            return cached.copy()
        with perf.span("oracle.fspl_prior_map"):
            pl = fspl_map(g, ue, float(altitude), self.freq_hz)
        self._map_cache_put(key, pl)
        return pl.copy()

    # -- measurement samples -------------------------------------------------------

    def sample_snr_db(
        self,
        uav_xyz: np.ndarray,
        ue_xyz: np.ndarray,
        rng: np.random.Generator,
        measurement_noise_db: float = 0.5,
    ) -> np.ndarray:
        """Noisy per-sample SNR as the eNodeB PHY would report it.

        Mean SNR + Rician/Rayleigh small-scale fading (K keyed on the
        LOS state of each sample position) + Gaussian instrument noise.
        One ray trace serves both the mean and the LOS state.
        """
        uav = np.atleast_2d(np.asarray(uav_xyz, dtype=float))
        loss, los = self.path_loss_and_los(uav, ue_xyz)
        mean = np.atleast_1d(self.link.snr_db(loss))
        fading = sample_fading_db(los, rng)
        noise = rng.normal(0.0, measurement_noise_db, size=mean.shape)
        out = mean + fading + noise
        if np.asarray(uav_xyz).ndim == 1:
            return float(out[0])
        return out
