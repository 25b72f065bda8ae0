"""Scenario construction and the ground-truth oracle.

A scenario is one radio world: terrain + channel + UE deployment +
the LTE stack serving them.  It also owns the *oracle*: ground-truth
SNR maps (what an exhaustive measurement flight would find, Fig. 15),
the true optimal UAV position, and the relative-throughput metric
every figure reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.channel.groundtruth import ground_truth_stack
from repro.channel.model import ChannelModel
from repro.geo.grid import GridSpec
from repro.geo.points import Point3D
from repro.lte.enodeb import ENodeB
from repro.lte.throughput import throughput_mbps
from repro.lte.ue import UE, UE_ANTENNA_HEIGHT_M
from repro.mobility.models import relocate_fraction
from repro.terrain.generators import make_terrain
from repro.terrain.heightmap import Terrain

#: Surface height (m) below which a cell counts as walkable ground: UEs
#: are dropped and relocated only there, never on rooftops.
WALKABLE_CLEARANCE_M = 2.0


@dataclass(frozen=True)
class PlacementEvaluation:
    """True performance of one UAV position.

    Attributes
    ----------
    snr_db:
        True mean SNR per UE id.
    throughput_mbps:
        Full-cell throughput per UE id.
    avg_throughput_mbps / min_throughput_mbps:
        The two aggregate objectives the paper discusses.
    """

    snr_db: Dict[int, float]
    throughput_mbps: Dict[int, float]
    avg_throughput_mbps: float
    min_throughput_mbps: float


@dataclass
class Scenario:
    """One radio world with its evaluation oracle.

    Build with :meth:`create` rather than the constructor; the oracle
    caches ground-truth maps per (altitude, grid) because they are
    expensive.
    """

    terrain: Terrain
    channel: ChannelModel
    ues: List[UE]
    enodeb: ENodeB
    eval_grid: GridSpec
    _truth_cache: Dict[tuple, np.ndarray] = field(default_factory=dict, repr=False)

    #: Bound on stack-level truth cache entries (the per-UE maps
    #: underneath live in the channel's LRU oracle cache).
    _TRUTH_CACHE_MAX = 32

    # -- construction ------------------------------------------------------------

    @classmethod
    def create(
        cls,
        terrain: "Terrain | str",
        n_ues: int,
        layout: str = "uniform",
        cell_size: float = 1.0,
        eval_cell_size: Optional[float] = None,
        seed: int = 0,
        channel_kwargs: Optional[dict] = None,
        channel: Optional[ChannelModel] = None,
    ) -> "Scenario":
        """Build a scenario.

        Parameters
        ----------
        terrain:
            A :class:`Terrain` or a generator name
            (``campus``/``rural``/``nyc``/``large``/``terrain-N``).
        n_ues:
            Number of UEs to deploy (all attached to the eNodeB).
        layout:
            ``"uniform"`` — UEs uniform over walkable cells (paper
            Topology A); ``"clustered"`` — most UEs packed around one
            spot (Topology B).
        cell_size:
            Terrain raster cell size when building by name.
        eval_cell_size:
            Grid pitch for ground-truth maps (defaults to 4x the
            terrain cell — the oracle does not need 1 m pitch).
        seed:
            Seed for UE placement.
        channel_kwargs:
            Extra :class:`ChannelModel` parameters.
        channel:
            A prebuilt :class:`ChannelModel` to use instead of
            constructing one.  Lets callers (the experiment runner)
            share one channel — and its LRU map-oracle caches — across
            scenarios that differ only in UE seed/layout.  The
            scenario's terrain is taken from the channel; ``terrain``
            and ``channel_kwargs`` are ignored.
        """
        if channel is not None:
            terrain = channel.terrain
        else:
            if isinstance(terrain, str):
                terrain = make_terrain(terrain, cell_size=cell_size)
            channel = ChannelModel(terrain, **(channel_kwargs or {}))
        rng = np.random.default_rng(seed)
        positions = cls._draw_ue_positions(terrain, n_ues, layout, rng)
        enodeb = ENodeB()
        ues = []
        for i, (x, y) in enumerate(positions, start=1):
            ground = terrain.height_at(x, y)
            ue = UE(ue_id=i, srs_root=(25 + i) % 100 or 25)
            ue.move_to(x, y, ground + UE_ANTENNA_HEIGHT_M)
            enodeb.register_ue(ue)
            ues.append(ue)
        factor = max(
            1,
            int(round((eval_cell_size or 4 * terrain.grid.cell_size) / terrain.grid.cell_size)),
        )
        eval_grid = terrain.grid.coarsen(factor)
        return cls(terrain, channel, ues, enodeb, eval_grid)

    @staticmethod
    def _draw_ue_positions(
        terrain: Terrain, n_ues: int, layout: str, rng: np.random.Generator
    ) -> List[Tuple[float, float]]:
        """Drop UEs on walkable (non-rooftop) cells."""
        if n_ues < 1:
            raise ValueError(f"need at least one UE, got {n_ues}")
        iy, ix = terrain.free_cells(clearance=WALKABLE_CLEARANCE_M)
        if len(iy) == 0:
            raise ValueError("terrain has no walkable cells")
        grid = terrain.grid
        free_xy = np.column_stack(
            [
                grid.origin_x + (ix + 0.5) * grid.cell_size,
                grid.origin_y + (iy + 0.5) * grid.cell_size,
            ]
        )
        if layout == "uniform":
            picks = rng.choice(len(free_xy), size=n_ues, replace=False)
            return [tuple(free_xy[i]) for i in picks]
        if layout == "ring":
            # UEs ringing the area center (the paper's testbed: UEs
            # placed around the campus building so each experiences
            # both LOS and NLOS over a flight; the centroid then falls
            # on/near the building).
            cx = grid.origin_x + grid.width / 2
            cy = grid.origin_y + grid.height / 2
            r_min = 0.18 * min(grid.width, grid.height)
            r_max = 0.42 * min(grid.width, grid.height)
            d = np.hypot(free_xy[:, 0] - cx, free_xy[:, 1] - cy)
            band = np.flatnonzero((d >= r_min) & (d <= r_max))
            if len(band) < n_ues:
                band = np.argsort(np.abs(d - (r_min + r_max) / 2))[: 4 * n_ues]
            # Spread around the ring: pick the candidate nearest each
            # of n_ues evenly spaced bearings (jittered).
            angles = np.arctan2(free_xy[band, 1] - cy, free_xy[band, 0] - cx)
            out = []
            for i in range(n_ues):
                target = 2 * np.pi * i / n_ues + rng.uniform(-0.25, 0.25)
                target = (target + np.pi) % (2 * np.pi) - np.pi
                diff = np.abs((angles - target + np.pi) % (2 * np.pi) - np.pi)
                pick = band[int(np.argmin(diff + rng.uniform(0, 1e-3, len(diff))))]
                out.append(tuple(free_xy[pick]))
            return out
        if layout == "pockets":
            # UEs concentrated in a few road-pocket clusters (the
            # Fig. 1 deployment: "concentrated in few pockets of
            # locations/roads").
            n_pockets = 3
            centers = free_xy[rng.choice(len(free_xy), size=n_pockets, replace=False)]
            radius = 0.10 * min(grid.width, grid.height)
            out = []
            for i in range(n_ues):
                center = centers[i % n_pockets]
                d = np.hypot(*(free_xy - center).T)
                near = np.flatnonzero(d <= radius)
                if len(near) == 0:
                    near = np.argsort(d)[:20]
                out.append(tuple(free_xy[rng.choice(near)]))
            return out
        if layout == "clustered":
            # One anchor UE cluster holding ~2/3 of UEs, rest scattered.
            center = free_xy[rng.integers(len(free_xy))]
            radius = 0.12 * min(grid.width, grid.height)
            d = np.hypot(*(free_xy - center).T)
            near = np.flatnonzero(d <= radius)
            if len(near) == 0:
                near = np.argsort(d)[: max(2 * n_ues, 10)]
            n_cluster = max(1, (2 * n_ues) // 3)
            n_far = n_ues - n_cluster
            picks_near = rng.choice(near, size=min(n_cluster, len(near)), replace=False)
            far = np.setdiff1d(np.arange(len(free_xy)), near)
            picks_far = (
                rng.choice(far, size=n_far, replace=False) if n_far > 0 else np.array([], dtype=int)
            )
            picks = np.concatenate([picks_near, picks_far])
            return [tuple(free_xy[int(i)]) for i in picks]
        raise ValueError(f"unknown layout {layout!r}")

    # -- dynamics -----------------------------------------------------------------

    def relocate_ues(self, fraction: float, rng: np.random.Generator) -> Tuple[int, ...]:
        """Move ``fraction`` of the UEs to fresh walkable ground (Section 5.2).

        Draws through :func:`repro.mobility.models.relocate_fraction`
        (vetoing cells at or above :data:`WALKABLE_CLEARANCE_M`), then
        puts each moved UE's antenna back on its local ground.  Returns
        the moved UE ids.
        """
        terrain = self.terrain

        def walkable(x: float, y: float) -> bool:
            return terrain.height_at(x, y) < WALKABLE_CLEARANCE_M

        moved = relocate_fraction(self.ues, fraction, self.grid, rng, walkable)
        for ue in self.ues:
            if ue.ue_id in moved:
                x, y = ue.position.x, ue.position.y
                ue.move_to(x, y, terrain.height_at(x, y) + UE_ANTENNA_HEIGHT_M)
        return tuple(moved)

    # -- oracle -------------------------------------------------------------------

    @property
    def grid(self) -> GridSpec:
        return self.terrain.grid

    def ue_positions(self) -> List[np.ndarray]:
        return [ue.xyz for ue in self.ues]

    def truth_maps(
        self,
        altitude: float,
        grid: Optional[GridSpec] = None,
        workers: Optional[int] = None,
    ) -> np.ndarray:
        """Ground-truth SNR maps, ``(n_ue, ny, nx)``, cached.

        The stack-level cache keys on altitude, grid and the UE
        positions so repeated queries return the identical array.
        When a UE moves the stack is rebuilt, but the heavy lifting is
        per-UE memoized inside the channel's map oracle — only the
        moved UEs are actually re-traced.
        """
        g = grid or self.eval_grid
        pos_key = tuple(
            (round(ue.position.x, 2), round(ue.position.y, 2)) for ue in self.ues
        )
        key = (round(altitude, 2), g, pos_key)
        if key not in self._truth_cache:
            self._truth_cache[key] = ground_truth_stack(
                self.channel, self.ue_positions(), altitude, g, workers=workers
            )
            while len(self._truth_cache) > self._TRUTH_CACHE_MAX:
                self._truth_cache.pop(next(iter(self._truth_cache)))
        return self._truth_cache[key]

    def evaluate(self, position) -> PlacementEvaluation:
        """True performance of a UAV position (exact, not gridded)."""
        pos = position.as_array() if isinstance(position, Point3D) else np.asarray(position, dtype=float)
        snrs: Dict[int, float] = {}
        tputs: Dict[int, float] = {}
        for ue in self.ues:
            snr = float(self.channel.snr_db(pos, ue.xyz))
            snrs[ue.ue_id] = snr
            tputs[ue.ue_id] = throughput_mbps(snr)
        values = list(tputs.values())
        return PlacementEvaluation(
            snr_db=snrs,
            throughput_mbps=tputs,
            avg_throughput_mbps=float(np.mean(values)),
            min_throughput_mbps=float(np.min(values)),
        )

    def optimal_position(
        self,
        altitude: float,
        objective: str = "avg",
        grid: Optional[GridSpec] = None,
    ) -> Tuple[Point3D, float]:
        """True optimal UAV position at an altitude.

        ``objective="avg"`` maximizes mean UE throughput (what the
        figures normalize by); ``"maxmin"`` maximizes the worst UE's
        SNR (SkyRAN's own placement objective).
        """
        g = grid or self.eval_grid
        stack = self.truth_maps(altitude, g)
        if objective == "avg":
            tput = throughput_mbps(stack)
            score = tput.mean(axis=0)
        elif objective == "maxmin":
            score = stack.min(axis=0)
        else:
            raise ValueError(f"unknown objective {objective!r}")
        iy, ix = np.unravel_index(int(np.argmax(score)), score.shape)
        x, y = g.center_of(ix, iy)
        pos = Point3D(x, y, altitude)
        if objective == "avg":
            return pos, self.evaluate(pos).avg_throughput_mbps
        return pos, float(score[iy, ix])

    def relative_throughput(
        self, position, altitude: Optional[float] = None
    ) -> float:
        """Mean UE throughput at ``position`` / at the true optimum.

        The reference optimum is the position the paper's methodology
        would call optimal: the *max-min-SNR* argmax over the
        ground-truth REMs (Section 4.2 determines "the true optimal
        UAV operating point" from the exhaustively measured REM with
        the same placement criterion SkyRAN uses).  The optimum is
        searched at the same altitude as the queried position unless
        overridden, isolating horizontal placement quality ("we
        present results for UAV positioning at a given altitude").
        """
        pos = position.as_array() if isinstance(position, Point3D) else np.asarray(position, dtype=float)
        alt = float(pos[2]) if altitude is None else altitude
        opt_pos, _ = self.optimal_position(alt, "maxmin")
        best = self.evaluate(opt_pos).avg_throughput_mbps
        if best <= 0:
            return 0.0
        return self.evaluate(pos).avg_throughput_mbps / best
