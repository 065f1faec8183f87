#!/usr/bin/env python3
"""How timestamp resolution bounds localization accuracy.

Sweeps the mobile clock's resolution over several decades at a fixed
3 km cell and reports the mean/median position error across 200 seeded
mobile placements. Writes the sweep to resolution_sweep.csv in the
working directory for plotting with external tools.
"""

from pathlib import Path

import numpy as np

from gsmloc import Point3, ScenarioConfig, TimingModel, hex_cell_layout, run_scenario
from gsmloc.geometry import distance

CELL_RADIUS = 3000.0
TRIALS = 200
RESOLUTIONS = [0.0, 1e-9, 1e-8, 1e-7, 1e-6]

towers = tuple(hex_cell_layout(Point3(0, 0, 0), CELL_RADIUS, n_rings=1))
rng = np.random.default_rng(777)
mobiles = [
    Point3(float(x), float(y), 0.0)
    for x, y in rng.uniform(-CELL_RADIUS / 2, CELL_RADIUS / 2, size=(TRIALS, 2))
]

print(f"{TRIALS} placements in a {CELL_RADIUS:.0f} m cell, 6 towers")
print(f"{'resolution (s)':>15} {'mean err (m)':>14} {'median err (m)':>15} {'max err (m)':>13}")
rows = ["resolution_s,mean_error_m,median_error_m,max_error_m"]
for resolution in RESOLUTIONS:
    timing = TimingModel(clock_resolution=resolution)
    errors = []
    for mobile in mobiles:
        config = ScenarioConfig(towers=towers, mobile_true_position=mobile, timing=timing)
        _, _, fix = run_scenario(config)
        errors.append(distance(fix.position, mobile))
    errors = np.array(errors)
    print(
        f"{resolution:>15.1e} {errors.mean():>14.4f} {np.median(errors):>15.4f} {errors.max():>13.4f}"
    )
    rows.append(
        f"{resolution:.1e},{errors.mean():.6f},{np.median(errors):.6f},{errors.max():.6f}"
    )

out = Path("resolution_sweep.csv")
out.write_text("\n".join(rows) + "\n")
print(f"\nwrote {out}")
print("a one-microsecond clock is two orders of magnitude off what this")
print("geometry needs: per-range quantization error is up to c*res/2 = 150 m.")
