"""The benchmark's workloads: inputs from a seed, the timed call, the checked outcome.

Each workload simulates one fixed world (terrain and UE deployment,
built from ``WORLD_SEED``).  The benchmark seed drives everything
stochastic the simulation does (localization and measurement flights,
noise, planner, mobility, arrivals, traffic): a workload runs
``n_subs`` sub-scenarios with simulation seeds ``seed * n_subs + i``.
Keeping the world fixed keeps the amount of work from one seed to the
next comparable, so run-to-run spread measures the program and not the
luck of a UE layout.

``prepare`` builds everything up to the point where the simulator would
start working (scenario, configs); ``Prepared.run`` is the timed call
into the program's public entry point; ``Prepared.outcome`` turns what the
program returned (plus the :class:`EpochTap` observations) into the
simulated fidelity numbers, a digest of every simulated record, and the
list of output checks that failed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List

import numpy as np

from repro.city.scenario import CityScenario
from repro.core.config import SkyRANConfig
from repro.core.controller import SkyRANController
from repro.events.simulate import EventConfig
from repro.mobility.models import RandomWaypoint
from repro.sim.runner import run_simulation
from repro.sim.scenario import Scenario
from repro.traffic.simulate import MACSimulation

#: Fidelity numbers a sub-scenario can report; absent ones read 0 in
#: the traced table (the workload does not produce them).
FIDELITY_KEYS = (
    "flight_time_s",
    "mean_snr_db",
    "rel_throughput",
    "min_throughput_mbps",
    "rem_error_db",
    "served_mbps",
    "attach_fail_frac",
)


@dataclass
class EpochView:
    """What one controller epoch produced, seen from outside."""

    result: object
    served_xyz: np.ndarray
    channel: object
    rem_grid: object
    known_ids: frozenset


@dataclass
class EpochTap:
    """Observes controller epochs and MAC batches during a timed call.

    Installed around every iteration, traced or not: it keeps each
    :class:`~repro.core.controller.EpochResult` (which ``run_simulation``
    does not return), the positions of the UEs the epoch served, and the
    offered/served byte totals of every MAC batch.  It only copies
    references and sums two arrays per batch.
    """

    epochs: List[EpochView] = field(default_factory=list)
    offered_bytes: float = 0.0
    served_bytes: float = 0.0

    @contextmanager
    def installed(self) -> Iterator["EpochTap"]:
        run_epoch = SkyRANController.run_epoch
        mac_run = MACSimulation.run
        tap = self

        def tapped_run_epoch(ctrl, *args, **kwargs):
            result = run_epoch(ctrl, *args, **kwargs)
            xyz = np.array([ue.xyz for ue in ctrl.enodeb.connected_ues()])
            tap.epochs.append(
                EpochView(
                    result,
                    xyz,
                    ctrl.channel,
                    ctrl.rem_grid,
                    frozenset(ctrl.known_positions or ()),
                )
            )
            return result

        def tapped_mac_run(mac, *args, **kwargs):
            batch = mac_run(mac, *args, **kwargs)
            tap.offered_bytes += float(batch.offered_bytes.sum())
            tap.served_bytes += float(batch.served_bytes.sum())
            return batch

        SkyRANController.run_epoch = tapped_run_epoch
        MACSimulation.run = tapped_mac_run
        try:
            yield self
        finally:
            SkyRANController.run_epoch = run_epoch
            MACSimulation.run = mac_run


@dataclass
class Outcome:
    """Simulated result of one iteration, checked."""

    digest: str
    fidelity: Dict[str, float]
    loc_errors_m: List[float]
    problems: List[str]


@dataclass
class Prepared:
    """A sub-scenario ready to run: ``run()`` is the timed call."""

    run: Callable[[], object]
    outcome: Callable[[object, EpochTap], Outcome]


@dataclass(frozen=True)
class Workload:
    name: str
    n_subs: int
    prepare: Callable[[int], Prepared]

    def sub_seeds(self, seed: int) -> List[int]:
        return [seed * self.n_subs + i for i in range(self.n_subs)]


# -- shared outcome helpers ---------------------------------------------------


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _epoch_payload(view: EpochView) -> dict:
    res = view.result
    pos = res.placement.position
    return {
        "epoch": res.epoch_index,
        "placement": [float(pos.x), float(pos.y), float(pos.z)],
        "est_min_snr_db": float(res.placement.min_snr_db),
        "altitude_m": float(res.altitude_m),
        "loc_errors_m": sorted(
            (int(k), float(v)) for k, v in res.localization_errors_m.items()
        ),
        "flight_distance_m": float(res.flight_distance_m),
        "flight_time_s": float(res.flight_time_s),
        "n_rem_groups": res.n_rem_groups,
    }


def _epoch_fidelity(tap: EpochTap, problems: List[str]) -> tuple:
    """Flight time, true mean SNR and localization errors over tapped epochs.

    The mean SNR is the true SNR from the chosen placement to the UEs
    the epoch served, evaluated after the timed call from positions
    snapshotted when the epoch ended.  Localization errors skip UEs
    whose position the controller was handed (``known_positions``).
    """
    if not tap.epochs:
        problems.append("no controller epoch ran")
        return float("nan"), float("nan"), []
    flight, snr, errors = [], [], []
    for view in tap.epochs:
        res = view.result
        pos = res.placement.position
        grid = view.rem_grid
        if not (
            grid.origin_x <= pos.x <= grid.max_x and grid.origin_y <= pos.y <= grid.max_y
        ):
            problems.append(f"epoch {res.epoch_index} placement outside the REM grid")
        flight.append(float(res.flight_time_s))
        snr.append(float(np.mean(view.channel.snr_to_many(pos.as_array(), view.served_xyz))))
        errors.extend(
            float(v)
            for k, v in res.localization_errors_m.items()
            if k not in view.known_ids
        )
    if not errors:
        problems.append("no UE was localized")
    return float(np.mean(flight)), float(np.mean(snr)), errors


def _record_means(records, names) -> Dict[str, float]:
    out = {}
    for name, attr in names.items():
        values = [getattr(r, attr) for r in records if getattr(r, attr) is not None]
        out[name] = float(np.mean(values)) if values else float("nan")
    return out


def _finish(payload, fidelity, errors, problems) -> Outcome:
    for key, value in fidelity.items():
        if not math.isfinite(value):
            problems.append(f"{key} is not finite ({value})")
    if not all(math.isfinite(e) for e in errors):
        problems.append("a localization error is not finite")
    return Outcome(_digest(payload), fidelity, errors, problems)


#: Seed of every workload's world (terrain and UE deployment).
WORLD_SEED = 0

# -- campus_default -----------------------------------------------------------

CAMPUS_UES = 2


def _campus_default(seed: int) -> Prepared:
    scenario = Scenario.create("campus", n_ues=CAMPUS_UES, seed=WORLD_SEED)
    config = SkyRANConfig()

    def run():
        return run_simulation(
            scenario, config, scheme="skyran", n_epochs=1, seed=seed
        )

    def outcome(result, tap: EpochTap) -> Outcome:
        problems: List[str] = []
        flight, snr, errors = _epoch_fidelity(tap, problems)
        fidelity = {"flight_time_s": flight, "mean_snr_db": snr}
        fidelity.update(
            _record_means(
                result.records,
                {
                    "rel_throughput": "relative_throughput",
                    "min_throughput_mbps": "min_throughput_mbps",
                    "rem_error_db": "rem_error_db",
                },
            )
        )
        payload = {
            "records": [dataclasses.asdict(r) for r in result.records],
            "epochs": [_epoch_payload(v) for v in tap.epochs],
            "mean_snr_db": snr,
        }
        return _finish(payload, fidelity, errors, problems)

    return Prepared(run, outcome)


# -- serve_attach -------------------------------------------------------------

SERVE_UES = 8


def _serve_attach(seed: int) -> Prepared:
    scenario = Scenario.create(
        "campus", n_ues=SERVE_UES, cell_size=4.0, seed=WORLD_SEED
    )
    config = SkyRANConfig(
        rem_cell_size_m=8.0,
        measurement_budget_m=250,
        traffic_model="poisson",
        traffic_rate_mbps=1.0,
        traffic_buffer_bytes=2e6,
        scheduler="proportional_fair",
        epoch_trigger_metric="served",
    )
    events = EventConfig(arrival_process="uniform", arrival_window_s=3, kpi_period_s=1.0)
    mobility = RandomWaypoint(grid=scenario.grid)

    def run():
        return run_simulation(
            scenario,
            config,
            scheme="events",
            n_epochs=3,
            budget_per_epoch_m=250,
            altitude=60,
            serve_time_s=3,
            seed=seed,
            events=events,
            mobility=mobility,
        )

    def outcome(result, tap: EpochTap) -> Outcome:
        problems: List[str] = []
        flight, snr, errors = _epoch_fidelity(tap, problems)
        fidelity = {"flight_time_s": flight, "mean_snr_db": snr}
        fidelity.update(
            _record_means(
                result.records,
                {
                    "rel_throughput": "relative_throughput",
                    "min_throughput_mbps": "min_throughput_mbps",
                    "rem_error_db": "rem_error_db",
                    "served_mbps": "served_mbps",
                },
            )
        )
        counters = result.event_counters
        arrivals = counters.get("arrivals", 0)
        if arrivals < 1:
            problems.append("no UE arrived")
        fidelity["attach_fail_frac"] = counters.get("failed", 0) / max(arrivals, 1)
        census = sum(result.population.values())
        if census != SERVE_UES:
            problems.append(f"final census sums to {census}, not {SERVE_UES}")
        if tap.served_bytes > tap.offered_bytes:
            problems.append(
                f"served {tap.served_bytes} bytes > offered {tap.offered_bytes} bytes"
            )
        payload = {
            "records": [dataclasses.asdict(r) for r in result.records],
            "epochs": [_epoch_payload(v) for v in tap.epochs],
            "event_counters": dict(counters),
            "population": dict(result.population),
            "mac_bytes": [tap.offered_bytes, tap.served_bytes],
            "mean_snr_db": snr,
        }
        return _finish(payload, fidelity, errors, problems)

    return Prepared(run, outcome)


# -- city_stream --------------------------------------------------------------

CITY_UES = 20000
CITY_REM_KEY_M = 64.0


def _city_stream(seed: int) -> Prepared:
    city = CityScenario.create(n_ues=CITY_UES, seed=WORLD_SEED, rem_cell_m=CITY_REM_KEY_M)

    def run():
        return city.run_controller_epoch(budget_m=80, n_tti=100, loc_sample=2, seed=seed)

    def outcome(out, tap: EpochTap) -> Outcome:
        problems: List[str] = []
        flight, _, errors = _epoch_fidelity(tap, problems)
        fidelity = {
            "flight_time_s": flight,
            "mean_snr_db": float(out["mean_snr_db"]),
            "served_mbps": float(out["aggregate_served_mbps"]),
        }
        groups = out["n_rem_groups"]
        if groups is None or not 1 <= groups <= CITY_UES:
            problems.append(f"n_rem_groups {groups} outside [1, {CITY_UES}]")
        mac = out["mac"]
        cbr = ~city.population.full_buffer
        excess = mac.served_bytes[cbr] - mac.offered_bytes[cbr]
        if np.any(excess > 1e-9 * np.maximum(mac.offered_bytes[cbr], 1.0)):
            problems.append("a CBR UE was served more bytes than it offered")
        payload = {
            "epochs": [_epoch_payload(v) for v in tap.epochs],
            "n_rem_groups": groups,
            "mean_snr_db": fidelity["mean_snr_db"],
            "served_mbps": fidelity["served_mbps"],
            "served_bytes": hashlib.sha256(mac.served_bytes.tobytes()).hexdigest(),
        }
        return _finish(payload, fidelity, errors, problems)

    return Prepared(run, outcome)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("campus_default", n_subs=6, prepare=_campus_default),
        Workload("serve_attach", n_subs=16, prepare=_serve_attach),
        Workload("city_stream", n_subs=5, prepare=_city_stream),
    )
}


def summarize(outcomes: List[Outcome]) -> Dict[str, float]:
    """Fidelity over a workload's sub-scenarios, one outcome each.

    ``loc_error_m`` is the median over every localized UE of every
    epoch of every sub-scenario; the rest are means over sub-scenarios
    of values that are themselves per-epoch means.
    """
    out: Dict[str, float] = {}
    errors = [e for o in outcomes for e in o.loc_errors_m]
    out["loc_error_m"] = float(np.median(errors)) if errors else float("nan")
    for key in FIDELITY_KEYS:
        values = [o.fidelity[key] for o in outcomes if key in o.fidelity]
        out[key] = float(np.mean(values)) if values else 0.0
    return out
