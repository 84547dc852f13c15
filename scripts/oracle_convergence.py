#!/usr/bin/env python3
"""Convergence of the lattice-oracle transmission toward the analytic
antiresonance lineshape as the wire-level coupling weakens.

Prints a table of max deviation vs coupling ratio and writes the strongest
comparison grid to oracle_lineshape.csv.
"""

import csv

from fanospin.lattice_oracle import OracleLattice, compare_to_fano

T_HOP = 1000.0  # meV

print(f"{'tp/t':>6}  {'Gamma_eff (meV)':>16}  {'max |dT|':>10}")
for ratio in (0.3, 0.2, 0.1, 0.05, 0.01, 0.001):
    lattice = OracleLattice(hopping_t=T_HOP, site_energy_eps_d=0.0,
                            coupling_tp=ratio * T_HOP)
    dev, gamma, grid, t_oracle, t_fano = compare_to_fano(lattice, 5.0)
    print(f"{ratio:>6g}  {gamma:>16.6g}  {dev:>10.2e}")
    if ratio == 0.1:
        with open("oracle_lineshape.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["E_meV", "T_oracle", "T_fano"])
            w.writerows(zip(grid, t_oracle, t_fano))

print("wrote oracle_lineshape.csv (tp/t = 0.1)")
