"""Seeded input generation for the three workloads.

Every input is plain JSON-able data derived from the seed and the sample
config, so the same seed always yields the same inputs and the program sees
nothing but them.  Draws are stratified (temperature, broadening, mode count
and dot spin each cycle through fixed strata; only the position inside a
stratum is random; the other parameters form a Latin hypercube whose
pairing of strata is the same for every seed) so that the work mix, and
with it the timings, does not drift from seed to seed: the seed moves each
input inside its cell of the design.
Pools are ordered so that any prefix a time-bounded run reaches is itself a
balanced sample.
"""

from __future__ import annotations

import copy
import math
import random

from .reference import resonance_energy

WORKLOADS = ("cli_cold_start", "thermal_iv", "lineshape_t0")

THERMAL_TEMPERATURES_K = (0.1, 1.0, 4.0, 40.0)
GAMMA_RANGE_MEV = (0.1, 3.0)
THERMAL_GAMMA_STRATA = 16
THERMAL_BIAS_POINTS = 7             # symmetric grid, includes V = 0
LINESHAPE_GAMMA_STRATA = 16
LINESHAPE_MODE_COUNTS = (1, 2, 3)
LINESHAPE_ENERGY_POINTS = 2001
LINESHAPE_BIAS_POINTS = 81
ORACLE_HOPPING_T = 1000.0           # meV
TP_OVER_T_RANGE = (0.05, 0.3)
ORACLE_POINTS = 1001
CLI_SWEEP_POINTS = 401
CLI_IV_POINTS = 81
#: Seeded variants of each CLI command: 6 commands x 4 = 24 inputs, enough
#: for a tail percentile with 10 inputs beyond it (perfbench/stats.py).
CLI_VARIANTS = 4
CLI_GAMMA_RANGE_MEV = (0.5, 2.0)


def _strata(rng: random.Random, n: int, lo: float, hi: float,
            log: bool = False) -> list[float]:
    """One uniform (or log-uniform) draw in each of n equal strata of
    [lo, hi], in stratum order."""
    if log:
        return [math.exp(v) for v in _strata(rng, n, math.log(lo),
                                             math.log(hi))]
    return [lo + (hi - lo) * (j + rng.random()) / n for j in range(n)]


def _latin(rng: random.Random, design: random.Random, n: int, lo: float,
           hi: float) -> list[float]:
    """Stratified draws (position in the stratum from ``rng``) in an order
    from ``design``: paired with other such lists they form a Latin
    hypercube sample."""
    values = _strata(rng, n, lo, hi)
    design.shuffle(values)
    return values


def _balanced(design: random.Random, n: int, a, b) -> list:
    """n/2 copies each of a and b, in an order from ``design``."""
    values = [a, b] * (n // 2)
    design.shuffle(values)
    return values


def _bit_reversed(n: int) -> list[int]:
    """0..n-1 (n a power of two) in bit-reversed order: every prefix of
    length n / 2^k visits each of 2^k equal blocks of strata once."""
    bits = n.bit_length() - 1
    return [int(format(j, f"0{bits}b")[::-1], 2) for j in range(n)]


def _interleave(groups: list[list[dict]]) -> list[dict]:
    """Round-robin over groups, each visited in bit-reversed stratum order,
    so any prefix a time-bounded run reaches is balanced in every
    stratified dimension."""
    order = _bit_reversed(len(groups[0]))
    return [g[j] for j in order for g in groups]


def _symmetric_grid(half_width: float, n_points: int) -> list[float]:
    """Strictly increasing grid with exact mirror symmetry about 0."""
    m = n_points // 2
    pos = [half_width * k / m for k in range(1, m + 1)]
    return [-v for v in reversed(pos)] + [0.0] + pos


def _device(base: dict, J: float, beta: float) -> dict:
    """The sample config with the exchange and spin-orbit scales set."""
    cfg = copy.deepcopy(base)
    cfg.update(J=J, beta=beta, q=[0.0, 0.0])
    return cfg


def thermal_iv(seed: int, base: dict) -> list[dict]:
    """Per temperature, one device in each of THERMAL_GAMMA_STRATA
    log-strata of Gamma: a finite-T device, its bias grid of
    THERMAL_BIAS_POINTS points over +-2 Gamma, and the readout bias in the
    config.  At 40 K the coupled subband bottom sits 1-6 meV (0.3-1.7 kT)
    below the resonance, next to the bias window."""
    rng = random.Random(f"thermal_iv:{seed}")
    design = random.Random("thermal_iv")
    n = THERMAL_GAMMA_STRATA
    groups = []
    for T in THERMAL_TEMPERATURES_K:
        gammas = _strata(rng, n, *GAMMA_RANGE_MEV, log=True)
        J = _latin(rng, design, n, 3.0, 7.0)
        beta = _latin(rng, design, n, 2.0, 4.0)
        mu_off = _latin(rng, design, n, -1.0, 1.0)
        v_sd = _latin(rng, design, n, 0.5, 1.5)
        below = _latin(rng, design, n,
                       *((1.0, 6.0) if T >= 40.0 else (3.0, 10.0)))
        extra = _latin(rng, design, n, -10.0, 5.0)
        spins = _balanced(design, n, "Up", "Down")
        two_modes = _balanced(design, n, True, False)
        group = []
        for j in range(n):
            cfg = _device(base, J[j], beta[j])
            E_res = resonance_energy(cfg)
            cfg.update(Gamma=gammas[j], temperature=T, dot_spin=spins[j],
                       V_sd=gammas[j] * v_sd[j],
                       mu_source=E_res + gammas[j] * mu_off[j])
            cfg["modes"] = [{"bottom_energy": E_res - below[j],
                             "coupled": True}]
            if two_modes[j]:
                cfg["modes"].append({"bottom_energy": E_res + extra[j],
                                     "coupled": False})
            group.append({"config": cfg,
                          "V_grid": _symmetric_grid(2.0 * gammas[j],
                                                    THERMAL_BIAS_POINTS)})
        groups.append(group)
    return _interleave(groups)


def lineshape_t0(seed: int, base: dict) -> list[dict]:
    """Per mode count (1-3), one T = 0 device in each of
    LINESHAPE_GAMMA_STRATA log-strata of Gamma, with a dense energy grid of
    LINESHAPE_ENERGY_POINTS points over +-20 Gamma centred exactly on the
    resonance, a T = 0 bias grid, and a lattice-oracle coupling tp/t in
    [0.05, 0.3]."""
    rng = random.Random(f"lineshape_t0:{seed}")
    design = random.Random("lineshape_t0")
    n = LINESHAPE_GAMMA_STRATA
    half = LINESHAPE_ENERGY_POINTS // 2
    groups = []
    for n_modes in LINESHAPE_MODE_COUNTS:
        gammas = _strata(rng, n, *GAMMA_RANGE_MEV, log=True)
        J = _latin(rng, design, n, 3.0, 7.0)
        beta = _latin(rng, design, n, 2.0, 4.0)
        mu_off = _latin(rng, design, n, -1.0, 1.0)
        v_half = _latin(rng, design, n, 2.0, 4.0)
        below = _latin(rng, design, n, 2.0, 10.0)
        tp_t = _latin(rng, design, n, *TP_OVER_T_RANGE)
        spins = _balanced(design, n, "Up", "Down")
        extra = [_latin(rng, design, n, -15.0, 10.0)
                 for _ in range(n_modes - 1)]
        group = []
        for j in range(n):
            cfg = _device(base, J[j], beta[j])
            E_res = resonance_energy(cfg)
            cfg.update(Gamma=gammas[j], temperature=0.0, dot_spin=spins[j],
                       mu_source=E_res + gammas[j] * mu_off[j])
            cfg["modes"] = [{"bottom_energy": E_res - below[j],
                             "coupled": True}]
            cfg["modes"] += [{"bottom_energy": E_res + e[j], "coupled": False}
                             for e in extra]
            group.append({
                "config": cfg,
                "E_center": E_res,
                "E_step": 20.0 * gammas[j] / half,
                "E_half": half,
                "V_grid": _symmetric_grid(gammas[j] * v_half[j],
                                          LINESHAPE_BIAS_POINTS),
                "oracle": {"hopping_t": ORACLE_HOPPING_T,
                           "site_energy_eps_d": 0.0,
                           "coupling_tp": ORACLE_HOPPING_T * tp_t[j]},
            })
        groups.append(group)
    return _interleave(groups)


def cli_cold_start(seed: int, base: dict) -> list[dict]:
    """CLI_VARIANTS passes of the CLI cycle: levels, sweep, readout, oracle,
    iv at T = 0, and a config rejected for Gamma <= 0 (exit 1).  Each pass
    is one seeded variant of every command: ``set`` holds its ``--set``
    overrides of the sample config (J and beta for levels, Gamma for
    sweep and iv, Gamma and V_sd for readout), and the seed also picks the
    grids, the oracle coupling and the rejected Gamma (0 in the first
    pass, negative after).  Grid steps are
    powers of two so every node, and the resonance, is exact."""
    rng = random.Random(f"cli_cold_start:{seed}")
    E_res = resonance_energy(base)
    m = CLI_SWEEP_POINTS // 2
    n = CLI_VARIANTS
    J = _strata(rng, n, 3.0, 7.0)
    beta = _strata(rng, n, 2.0, 4.0)
    gammas = [_strata(rng, n, *CLI_GAMMA_RANGE_MEV, log=True)
              for _ in ("sweep", "readout", "iv")]
    v_sd = _strata(rng, n, 0.5, 1.5)
    pool = []
    for j in range(n):
        h = 2.0 ** -rng.choice((4, 5, 6))
        iv_half = rng.choice((2, 3, 4)) * 2.0 ** -6 * (CLI_IV_POINTS // 2)
        tp = ORACLE_HOPPING_T * rng.uniform(*TP_OVER_T_RANGE)
        bad_gamma = -round(rng.uniform(0.01, 2.0), 6) if j else 0.0
        pool += [
            {"name": "levels", "rc": 0, "args": [],
             "set": {"J": J[j], "beta": beta[j]}},
            {"name": "sweep", "rc": 0, "set": {"Gamma": gammas[0][j]},
             "args": [f"--grid={E_res - m * h!r}:{E_res + m * h!r}:"
                      f"{CLI_SWEEP_POINTS}"]},
            {"name": "readout", "rc": 0, "args": [],
             "set": {"Gamma": gammas[1][j],
                     "V_sd": gammas[1][j] * v_sd[j]}},
            {"name": "oracle", "rc": 0, "set": {},
             "args": ["--hopping-t", repr(ORACLE_HOPPING_T), "--coupling-tp",
                      repr(tp), "--points", str(ORACLE_POINTS)]},
            {"name": "iv", "rc": 0,
             "set": {"temperature": 0.0, "Gamma": gammas[2][j]},
             "args": [f"--grid={-iv_half!r}:{iv_half!r}:{CLI_IV_POINTS}"]},
            {"name": "reject", "subcommand": "iv", "rc": 1, "args": [],
             "set": {"Gamma": bad_gamma}},
        ]
    return pool


GENERATORS = {"cli_cold_start": cli_cold_start, "thermal_iv": thermal_iv,
              "lineshape_t0": lineshape_t0}


def generate(workload: str, seed: int, base: dict) -> list[dict]:
    return GENERATORS[workload](seed, base)
