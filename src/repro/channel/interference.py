"""Inter-cell interference for multi-UAV deployments.

A single SkyRAN UAV owns its carrier; a fleet sharing one LTE channel
does not.  This module computes per-UE SINR given every UAV's
position: the serving cell's signal over (noise + the sum of the
co-channel cells' received powers, scaled by their activity).  The
fleet controller uses it to score associations and sectorizations
honestly — two UAVs parked next to each other *hurt* each other,
which pure-SNR scoring cannot see.

:func:`fleet_rx_power_dbm` / :func:`fleet_sinr_db_stack` run one
vectorized ray batch per UAV via
:meth:`ChannelModel.path_loss_to_many` and accumulate interference
over UAV index in ascending order, so every UE's arithmetic is the
term-for-term sum a scalar per-(UAV, UE) loop would do (the tests pin
the stack to such a loop, bit for bit).

Frequency reuse: each cell carries an integer carrier index
(:func:`reuse_carriers` maps cell ``i`` to ``i % reuse_factor``); only
cells sharing the serving cell's carrier contribute interference.
``reuse_factor=1`` is the worst case (all co-channel);
``reuse_factor >= n_cells`` recovers pure-SNR operation.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.channel.linkbudget import LinkBudget
from repro.channel.model import ChannelModel


def reuse_carriers(n_cells: int, reuse_factor: int) -> np.ndarray:
    """Carrier index per cell under a simple modular reuse plan.

    Cell ``i`` transmits on carrier ``i % reuse_factor``.  With
    ``reuse_factor=1`` every cell shares one carrier (full
    interference); with ``reuse_factor >= n_cells`` every cell gets a
    private carrier and SINR degenerates to SNR.
    """
    if n_cells < 1:
        raise ValueError(f"n_cells must be >= 1, got {n_cells}")
    if reuse_factor < 1:
        raise ValueError(f"reuse_factor must be >= 1, got {reuse_factor}")
    return np.arange(n_cells) % reuse_factor


def _activity(n: int, activity: Optional[Sequence[float]]) -> np.ndarray:
    if activity is None:
        return np.ones(n)
    act = np.asarray(list(activity), dtype=float)
    if act.shape != (n,):
        raise ValueError(f"activity must have length {n}")
    if np.any((act < 0) | (act > 1)):
        raise ValueError("activity factors must be in [0, 1]")
    return act


def _carriers(n: int, carriers: Optional[Sequence[int]]) -> np.ndarray:
    if carriers is None:
        return np.zeros(n, dtype=int)
    carr = np.asarray(list(carriers), dtype=int)
    if carr.shape != (n,):
        raise ValueError(f"carriers must have length {n}")
    return carr


def fleet_rx_power_dbm(
    channel: ChannelModel,
    uav_positions: Sequence[np.ndarray],
    ue_positions: Sequence,
) -> np.ndarray:
    """Received power stack, ``(n_uav, n_ue)`` in dBm.

    One vectorized ray batch per UAV.  Row ``j`` is bit-identical to
    querying :meth:`ChannelModel.path_loss_db` per UE (the
    :meth:`path_loss_to_many` contract).
    """
    ues = np.atleast_2d(np.asarray(ue_positions, dtype=float))
    n_uav = len(uav_positions)
    out = np.empty((n_uav, ues.shape[0]), dtype=float)
    for j, pos in enumerate(uav_positions):
        out[j] = channel.link.rx_power_dbm(channel.path_loss_to_many(pos, ues))
    return out


def sinr_db_from_rx_stack(
    link: LinkBudget,
    rx_dbm: np.ndarray,
    serving: np.ndarray,
    activity: Optional[Sequence[float]] = None,
    carriers: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Per-UE SINR (dB) from a precomputed ``(n_uav, n_ue)`` rx stack.

    ``serving[k]`` is the serving UAV index of UE ``k``; ``activity``
    holds per-UAV downlink activity factors in [0, 1] (fraction of
    PRBs loaded; defaults to fully loaded interferers, the
    conservative busy-hour assumption) and ``carriers`` per-UAV
    carrier indices (only UAVs sharing the serving cell's carrier
    interfere; defaults to all co-channel).  Interference is
    accumulated over UAV index ``j`` in ascending order, with excluded
    terms (serving cell, off-carrier cells) contributed as an exact
    ``0.0``.
    """
    rx_dbm = np.asarray(rx_dbm, dtype=float)
    n_uav, n_ue = rx_dbm.shape
    serving = np.asarray(serving, dtype=int)
    if serving.shape != (n_ue,):
        raise ValueError(f"serving must have shape ({n_ue},), got {serving.shape}")
    if n_ue and (serving.min() < 0 or serving.max() >= n_uav):
        raise ValueError("serving indices out of range")
    act = _activity(n_uav, activity)
    carr = _carriers(n_uav, carriers)

    rx_mw = 10.0 ** (rx_dbm / 10.0)
    signal_mw = rx_mw[serving, np.arange(n_ue)]
    noise_mw = 10.0 ** (link.noise_floor_dbm / 10.0)
    serving_carrier = carr[serving]
    interf_mw = np.zeros(n_ue, dtype=float)
    for j in range(n_uav):
        excluded = (serving == j) | (serving_carrier != carr[j])
        interf_mw += np.where(excluded, 0.0, act[j] * rx_mw[j])
    return 10.0 * np.log10(signal_mw / (noise_mw + interf_mw))


def fleet_sinr_db_stack(
    channel: ChannelModel,
    uav_positions: Sequence[np.ndarray],
    ue_positions: Sequence,
    serving: Sequence[int],
    activity: Optional[Sequence[float]] = None,
    carriers: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Per-UE SINR (dB) of UEs served amid the rest of the fleet.

    The fleet hot path: one ray batch per UAV instead of one per
    (UAV, UE) pair; see :func:`sinr_db_from_rx_stack` for the
    arguments.
    """
    rx_dbm = fleet_rx_power_dbm(channel, uav_positions, ue_positions)
    return sinr_db_from_rx_stack(
        channel.link, rx_dbm, np.asarray(serving, dtype=int), activity, carriers
    )


def fleet_sinr_db(
    channel: ChannelModel,
    uav_positions: Sequence[np.ndarray],
    ue_positions: Dict[int, np.ndarray],
    serving: Dict[int, int],
    activity: Optional[Sequence[float]] = None,
    carriers: Optional[Sequence[int]] = None,
) -> Dict[int, float]:
    """Per-UE SINR for a whole fleet assignment (dict API).

    ``serving[ue_id]`` is the index of the UAV that serves the UE.
    Routed through :func:`fleet_sinr_db_stack`.
    """
    ue_ids = list(ue_positions.keys())
    if not ue_ids:
        return {}
    xyz = np.array([ue_positions[u] for u in ue_ids], dtype=float)
    srv = np.array([serving[u] for u in ue_ids], dtype=int)
    out = fleet_sinr_db_stack(channel, uav_positions, xyz, srv, activity, carriers)
    return {u: float(s) for u, s in zip(ue_ids, out)}


def interference_penalty_db(
    channel: ChannelModel,
    ue_positions: Sequence,
    interferer_positions: Sequence,
    activity: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Per-UE dB penalty converting an SNR map into an SINR map.

    ``SINR = SNR - penalty`` where
    ``penalty = 10·log10((noise + interference) / noise)`` — the rise
    over thermal from the fixed interferers.  Equal to the exact SINR
    up to one floating-point subtraction (``(rx - noise) - penalty``
    vs. ``rx - 10·log10(noise + interf)``), which is why the streamed
    placement fold uses it but bit-exactness claims stay at the
    channel layer.  Empty ``interferer_positions`` → exact zeros.
    """
    ues = np.atleast_2d(np.asarray(ue_positions, dtype=float))
    if len(interferer_positions) == 0:
        return np.zeros(ues.shape[0], dtype=float)
    noise_mw = 10.0 ** (channel.link.noise_floor_dbm / 10.0)
    interf_mw = channel.interference_mw(ues, interferer_positions, activity)
    return 10.0 * np.log10((noise_mw + interf_mw) / noise_mw)
