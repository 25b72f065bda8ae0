"""eNodeB with a round-robin PRB scheduler.

The airborne eNodeB does three things the reproduction needs:
(1) maintain the set of attached UEs, (2) turn per-UE SNR into per-UE
MAC throughput under cell sharing (round-robin over PRBs, the OAI
default), and (3) expose the SRS receive path the localization flight
consumes.  Full-cell (unshared) throughput — what the paper's
"average throughput per UE" figures report — comes straight from
:func:`repro.lte.throughput.throughput_mbps`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (mobility uses lte.ue)
    from repro.mobility.models import MobilityModel

from repro.lte.epc import EPC
from repro.lte.linkadapt import OuterLoopLinkAdaptation
from repro.lte.srs import SRSConfig, apply_channel_batch, make_srs_symbol
from repro.lte.throughput import PRB_PER_10MHZ, throughput_mbps
from repro.lte.ue import UE, UEState


@dataclass(frozen=True)
class SchedulerResult:
    """Outcome of scheduling one TTI-batch.

    Attributes
    ----------
    prb_share:
        PRBs granted per UE id.
    throughput_mbps:
        Resulting MAC throughput per UE id (under sharing).
    """

    prb_share: Dict[int, int]
    throughput_mbps: Dict[int, float]


@dataclass
class ENodeB:
    """The airborne LTE base station.

    Attributes
    ----------
    epc:
        Core network handling attach; the eNodeB forwards attach
        requests to it.
    srs_config:
        Numerology for the SRS receive path.
    n_prb:
        PRBs in the carrier (50 for 10 MHz).
    olla:
        Optional outer-loop link adaptation attached to this cell;
        when present its per-UE state is forgotten on detach so a
        re-attached UE id starts from a zero offset.
    mobility:
        Optional mobility model moving this cell's UEs; when present
        its per-UE state (waypoints, route progress, dwell timers) is
        forgotten on detach, exactly like the OLLA offsets — detached
        and churned UEs must not leak state.
    """

    epc: EPC = field(default_factory=EPC)
    srs_config: SRSConfig = field(default_factory=SRSConfig)
    n_prb: int = PRB_PER_10MHZ
    olla: Optional[OuterLoopLinkAdaptation] = None
    mobility: Optional["MobilityModel"] = None
    _ues: Dict[int, UE] = field(default_factory=dict)

    # -- attachment ---------------------------------------------------------------

    def register_ue(self, ue: UE, provision: bool = True, now_s: float = 0.0) -> None:
        """Attach a UE to this cell (provisioning it in the EPC first)."""
        if ue.ue_id in self._ues:
            raise ValueError(f"UE id {ue.ue_id} already registered")
        if provision:
            self.epc.provision(ue.imsi)
        self.epc.attach(ue, now_s)
        self._ues[ue.ue_id] = ue

    def deregister_ue(self, ue_id: int) -> None:
        ue = self._ues.pop(ue_id, None)
        if ue is not None:
            self.epc.detach(ue)
            if self.olla is not None:
                self.olla.forget(ue_id)
            if self.mobility is not None:
                self.mobility.forget(ue_id)

    @property
    def ues(self) -> List[UE]:
        """Attached UEs, ordered by id."""
        return [self._ues[k] for k in sorted(self._ues)]

    def connected_ues(self) -> List[UE]:
        return [u for u in self.ues if u.state is UEState.CONNECTED]

    # -- scheduling ----------------------------------------------------------------

    def schedule(
        self, snr_db_per_ue: Mapping[int, float], tti: Optional[int] = None
    ) -> SchedulerResult:
        """Round-robin PRB allocation over the connected UEs.

        Each UE with a known SNR gets an equal share of the carrier.
        With a ``tti`` index, the remainder PRBs rotate over the active
        UEs (``tti mod n_active`` positions) so long-run shares are
        exactly fair — the rotation a real RR scheduler performs.  The
        legacy one-shot call (``tti=None``) keeps the old biased
        tie-break — remainder to the lowest ids — so existing artifacts
        stay byte-identical; it equals ``tti=0``.
        """
        active = [u.ue_id for u in self.connected_ues() if u.ue_id in snr_db_per_ue]
        share: Dict[int, int] = {}
        rate: Dict[int, float] = {}
        if active:
            n_a = len(active)
            base, rem = divmod(self.n_prb, n_a)
            rho = 0 if tti is None else int(tti) % n_a
            for rank, ue_id in enumerate(sorted(active)):
                prb = base + (1 if (rank - rho) % n_a < rem else 0)
                share[ue_id] = prb
                rate[ue_id] = throughput_mbps(snr_db_per_ue[ue_id], n_prb=prb)
        return SchedulerResult(prb_share=share, throughput_mbps=rate)

    def full_cell_throughput(self, snr_db_per_ue: Mapping[int, float]) -> Dict[int, float]:
        """Per-UE throughput when granted the whole carrier (paper's metric)."""
        return {
            ue_id: throughput_mbps(snr, n_prb=self.n_prb)
            for ue_id, snr in snr_db_per_ue.items()
        }

    # -- SRS receive path --------------------------------------------------------------

    def receive_srs_batch(
        self,
        ue: UE,
        delays_samples: np.ndarray,
        snrs_db: np.ndarray,
        rng: np.random.Generator,
        tap_excess: Optional[np.ndarray] = None,
        tap_power_db: Optional[np.ndarray] = None,
        tap_mask: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Receive a flight's worth of SRS symbols from one UE at once.

        The localization flight calls this with every kept 10 ms SRS
        report of one UE: one (cached) symbol synthesis and one
        :func:`repro.lte.srs.apply_channel_batch` call, with per-symbol
        tap sets as masked arrays.  The returned frequency-domain
        symbols feed the ToF estimator.
        """
        tx = make_srs_symbol(self.srs_config, root=ue.srs_root)
        return apply_channel_batch(
            tx,
            self.srs_config,
            delays_samples,
            snrs_db,
            rng,
            tap_excess,
            tap_power_db,
            tap_mask,
        )

    def known_srs_symbol(self, ue: UE) -> np.ndarray:
        """The reference symbol the correlator uses for a UE."""
        return make_srs_symbol(self.srs_config, root=ue.srs_root)
