"""Fig. 27 — flight time to reach 0.9x optimal across terrains.

Same procedure as Fig. 26 (static UEs) over RURAL, NYC and LARGE.
Paper: overhead grows with terrain size/complexity, and SkyRAN stays
well under Uniform everywhere except the trivially flat RURAL case.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.experiments.common import UAV_SPEED_MPS, config_for
from repro.experiments.placement_common import fresh_scenario
from repro.experiments.registry import register
from repro.sim.runner import overhead_to_target, run_simulation

ALTITUDE_M = 60.0
MAX_EPOCHS = 8
TARGET = 0.9

#: Larger terrains get proportionally larger per-epoch budgets.
EPOCH_BUDGETS = {"rural": 250.0, "nyc": 300.0, "large": 1200.0}

PAPER = "overhead grows with terrain scale; SkyRAN below Uniform in NYC/LARGE"


def _time_to_target(terrain, scheme, seed, quick) -> float:
    scenario = fresh_scenario(terrain, 6, "uniform", seed, quick)
    records = run_simulation(
        scenario,
        config_for(quick),
        scheme=scheme,
        n_epochs=MAX_EPOCHS,
        budget_per_epoch_m=EPOCH_BUDGETS[terrain],
        move_fraction=0.0,
        seed=seed,
        altitude=ALTITUDE_M,
    ).records
    # Measurement-flight time at cruise speed (see fig26 notes).
    d = overhead_to_target(records, target_relative=TARGET, value="distance")
    if d is None:
        d = records[-1].cumulative_distance_m
    return d / UAV_SPEED_MPS


def grid(quick: bool = True, seeds=(0, 1)) -> List[Dict]:
    return [
        {"terrain": terrain, "scheme": scheme, "seed": int(seed)}
        for terrain in ("rural", "nyc", "large")
        for scheme in ("skyran", "uniform")
        for seed in seeds
    ]


def point(params: Dict, quick: bool = True) -> Dict:
    """Flight time to 0.9x optimal for one (terrain, scheme, seed)."""
    time_s = _time_to_target(params["terrain"], params["scheme"], params["seed"], quick)
    return {"terrain": params["terrain"], "scheme": params["scheme"], "time_s": float(time_s)}


def aggregate(records: List[Dict], quick: bool = True) -> Dict:
    rows = []
    for terrain in ("rural", "nyc", "large"):
        sky = [r["time_s"] for r in records if r["terrain"] == terrain and r["scheme"] == "skyran"]
        uni = [r["time_s"] for r in records if r["terrain"] == terrain and r["scheme"] == "uniform"]
        rows.append(
            {
                "terrain": terrain,
                "skyran_time_min": float(np.mean(sky)) / 60.0,
                "uniform_time_min": float(np.mean(uni)) / 60.0,
            }
        )
    return {"rows": rows, "paper": PAPER}


EXPERIMENT = register(
    "fig27",
    title="Fig. 27 — overhead to 0.9x optimal per terrain",
    grid=grid,
    point=point,
    aggregate=aggregate,
)
run = EXPERIMENT.run
main = EXPERIMENT.main

if __name__ == "__main__":
    main()
