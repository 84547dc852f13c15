#!/usr/bin/env python3
"""Sweep the level broadening Gamma and record the parallel/antiparallel
current contrast at the optimal bias V = Gamma/e.

Writes contrast_vs_gamma.csv in the working directory.
"""

import csv

import numpy as np

from fanospin.config import default_config, validate
from fanospin.readout import readout_report

gammas = np.linspace(0.1, 3.0, 30)
base = default_config()

rows = []
for gamma in gammas:
    cfg = validate(base._replace(Gamma=float(gamma), V_sd=float(gamma)))
    rep = readout_report(cfg)
    rows.append((gamma, rep.I_parallel, rep.I_antiparallel, rep.contrast,
                 rep.relative_decrease_parallel))

with open("contrast_vs_gamma.csv", "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["Gamma_meV", "I_parallel_A", "I_antiparallel_A",
                "contrast", "relative_decrease_parallel"])
    w.writerows(rows)

print(f"wrote contrast_vs_gamma.csv ({len(rows)} rows)")
best = max(rows, key=lambda r: r[3])
print(f"best contrast {best[3]:.4f} at Gamma = {best[0]:.2f} meV")
