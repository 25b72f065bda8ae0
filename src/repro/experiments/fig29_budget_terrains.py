"""Figs. 29/30 — performance at a fixed 5000 m total budget, by terrain.

Half the UEs relocate every epoch; the total measurement budget across
epochs is capped at 5000 m.  Fig. 29 reports the relative throughput
achieved within that budget; Fig. 30 the median REM error.  Paper:
parity with Uniform on flat RURAL, ~1.4x better throughput on NYC and
LARGE (and correspondingly better REMs).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.experiments.common import config_for
from repro.experiments.placement_common import fresh_scenario
from repro.experiments.registry import register
from repro.sim.runner import run_simulation

ALTITUDE_M = 60.0
TOTAL_BUDGET_M = 5000.0
N_EPOCHS = 5

TERRAINS = ("rural", "nyc", "large")

PAPER = "parity on RURAL; SkyRAN ~1.4x Uniform throughput on NYC/LARGE at 5000 m"


def run_scheme_terrain(terrain, scheme, seed, quick) -> Dict:
    """Run one scheme on one terrain under the total budget."""
    scenario = fresh_scenario(terrain, 6, "uniform", seed, quick)
    per_epoch = TOTAL_BUDGET_M / N_EPOCHS
    records = run_simulation(
        scenario,
        config_for(quick),
        scheme=scheme,
        n_epochs=N_EPOCHS,
        budget_per_epoch_m=per_epoch,
        move_fraction=0.5,
        seed=seed,
        altitude=ALTITUDE_M,
    ).records
    # Score the steady state: mean over the post-first-epoch records.
    tail = records[1:] if len(records) > 1 else records
    return {
        "relative_throughput": float(np.mean([r.relative_throughput for r in tail])),
        "rem_error_db": float(np.nanmean([r.rem_error_db for r in tail])),
    }


def grid(quick: bool = True, seeds=(0, 1)) -> List[Dict]:
    return [
        {"terrain": terrain, "scheme": scheme, "seed": int(seed)}
        for terrain in TERRAINS
        for scheme in ("skyran", "uniform")
        for seed in seeds
    ]


def point(params: Dict, quick: bool = True) -> Dict:
    """One (terrain, scheme, seed) run under the 5000 m budget.

    Shared verbatim by Fig. 30, which registers this same function —
    the artifact cache therefore serves both figures from one set of
    point computations.
    """
    out = run_scheme_terrain(params["terrain"], params["scheme"], params["seed"], quick)
    out["terrain"] = params["terrain"]
    out["scheme"] = params["scheme"]
    return out


def aggregate(records: List[Dict], quick: bool = True) -> Dict:
    rows = []
    for terrain in TERRAINS:
        sky = [r for r in records if r["terrain"] == terrain and r["scheme"] == "skyran"]
        uni = [r for r in records if r["terrain"] == terrain and r["scheme"] == "uniform"]
        sky_rel = float(np.mean([r["relative_throughput"] for r in sky]))
        uni_rel = float(np.mean([r["relative_throughput"] for r in uni]))
        rows.append(
            {
                "terrain": terrain,
                "skyran_rel": sky_rel,
                "uniform_rel": uni_rel,
                "skyran_over_uniform": sky_rel / max(uni_rel, 1e-9),
                "skyran_rem_db": float(np.mean([r["rem_error_db"] for r in sky])),
                "uniform_rem_db": float(np.mean([r["rem_error_db"] for r in uni])),
            }
        )
    return {"rows": rows, "paper": PAPER}


EXPERIMENT = register(
    "fig29",
    title="Figs. 29/30 — 5000 m budget across terrains",
    grid=grid,
    point=point,
    aggregate=aggregate,
)
run = EXPERIMENT.run
main = EXPERIMENT.main

if __name__ == "__main__":
    main()
