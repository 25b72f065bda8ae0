"""Fig. 28 — flight time to reach a 5 dB REM, STATIC vs DYNAMIC.

The REM-accuracy counterpart of Fig. 26: cumulative flight time until
the median REM error first drops to 5 dB, NYC with six UEs, static vs
half-the-UEs-move-per-epoch dynamics.  Paper: SkyRAN roughly halves
Uniform's overhead in both modes.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.experiments.common import UAV_SPEED_MPS, config_for
from repro.experiments.placement_common import fresh_scenario
from repro.experiments.registry import register
from repro.sim.runner import overhead_to_target, run_simulation

ALTITUDE_M = 60.0
EPOCH_BUDGET_M = 300.0
MAX_EPOCHS = 8
TARGET_DB = 5.0

MODES = (("STATIC", 0.0), ("DYNAMIC", 0.5))

PAPER = "SkyRAN reaches 5 dB REMs in about half Uniform's flight time"


def _time_to_rem_target(scheme, move_fraction, seed, quick) -> float:
    scenario = fresh_scenario("nyc", 6, "uniform", seed, quick)
    records = run_simulation(
        scenario,
        config_for(quick),
        scheme=scheme,
        n_epochs=MAX_EPOCHS,
        budget_per_epoch_m=EPOCH_BUDGET_M,
        move_fraction=move_fraction,
        seed=seed,
        altitude=ALTITUDE_M,
    ).records
    # Measurement-flight time at cruise speed (see fig26 notes).
    d = overhead_to_target(
        records, metric="rem", target_rem_db=TARGET_DB, value="distance"
    )
    if d is None:
        d = records[-1].cumulative_distance_m
    return d / UAV_SPEED_MPS


def grid(quick: bool = True, seeds=(0, 1, 2)) -> List[Dict]:
    return [
        {"mode": mode, "move_fraction": frac, "scheme": scheme, "seed": int(seed)}
        for mode, frac in MODES
        for scheme in ("skyran", "uniform")
        for seed in seeds
    ]


def point(params: Dict, quick: bool = True) -> Dict:
    """Flight time to a <=5 dB REM for one (mode, scheme, seed)."""
    time_s = _time_to_rem_target(
        params["scheme"], params["move_fraction"], params["seed"], quick
    )
    return {"mode": params["mode"], "scheme": params["scheme"], "time_s": float(time_s)}


def aggregate(records: List[Dict], quick: bool = True) -> Dict:
    rows = []
    for mode, _ in MODES:
        sky = [r["time_s"] for r in records if r["mode"] == mode and r["scheme"] == "skyran"]
        uni = [r["time_s"] for r in records if r["mode"] == mode and r["scheme"] == "uniform"]
        rows.append(
            {
                "mode": mode,
                "skyran_time_min": float(np.mean(sky)) / 60.0,
                "uniform_time_min": float(np.mean(uni)) / 60.0,
            }
        )
    return {"rows": rows, "paper": PAPER}


EXPERIMENT = register(
    "fig28",
    title="Fig. 28 — overhead to 5 dB REM accuracy (NYC)",
    grid=grid,
    point=point,
    aggregate=aggregate,
)
run = EXPERIMENT.run
main = EXPERIMENT.main

if __name__ == "__main__":
    main()
