"""Independent physics references the correctness gates compare against.

Nothing here calls fanospin: the resonance energy, level energies, Fano
lineshape, Landauer currents and lattice-oracle transmission are computed
from the config dict the benchmark generated, with numpy only.  Energies in
meV, biases in mV, temperatures in K, currents in A.
"""

from __future__ import annotations

import math

import numpy as np

E_CHARGE = 1.602176634e-19       # C (CODATA 2018, exact)
H_PLANCK = 6.62607015e-34        # J s (exact)
K_B_MEV = 8.617333262e-2         # meV / K
G0 = E_CHARGE ** 2 / H_PLANCK    # S, one spin-polarized mode
CURRENT_PER_MEV = G0 * 1e-3      # A per meV of transmission-weighted window
BALLISTIC_1MV_A = 3.874e-8       # G0 * 1 mV, the paper's ballistic current

#: Simpson points per min(kT, Gamma) in the finite-T reference.
POINTS_PER_SCALE = 64
#: The Fermi window is integrated to this many kT beyond the chemical
#: potentials; f_s - f_d there is below e^-50.
WINDOW_KT = 50.0


def channel_weight(cfg: dict) -> float:
    """1 when the dot spin is parallel to the (Up) wire spin, else 1/2."""
    return 1.0 if cfg["dot_spin"] == cfg.get("wire_spin", "Up") else 0.5


def resonance_energy(cfg: dict) -> float:
    """Lower spin-aligned stretched triplet: eps1 + U_C - J/4 - |beta|/2."""
    return cfg["eps1"] + cfg["U_C"] - cfg["J"] / 4.0 - abs(cfg["beta"]) / 2.0


def level_energies(cfg: dict) -> list[float]:
    """The eight two-electron eigenvalues, sorted, with multiplicity."""
    J, beta = cfg["J"], cfg["beta"]
    r = math.hypot(J, beta) / 2.0
    base = cfg["eps1"] + cfg["U_C"]
    vals = [-J / 4 + beta / 2, -J / 4 - beta / 2, J / 4 + r, J / 4 - r]
    return sorted(base + v for v in vals * 2)


def dip(E, E_res: float, Gamma: float):
    """1 - T_fano for q = 0: a Lorentzian of unit depth."""
    return Gamma ** 2 / ((np.asarray(E) - E_res) ** 2 + Gamma ** 2)


def mode_transmissions(cfg: dict, E) -> np.ndarray:
    """Per-mode transmission, shape (n_modes, len(E)), for q = 0."""
    E = np.asarray(E, dtype=float)
    E_res, Gamma, w = resonance_energy(cfg), cfg["Gamma"], channel_weight(cfg)
    rows = []
    for m in cfg["modes"]:
        t = 1.0 - w * dip(E, E_res, Gamma) if m["coupled"] else np.ones_like(E)
        rows.append(np.where(E >= m["bottom_energy"], t, 0.0))
    return np.array(rows)


def current_T0(cfg: dict, mu_s: float, mu_d: float) -> tuple[float, float]:
    """(ballistic, weighted dip deficit) in A at T = 0, closed form."""
    E_res, Gamma, w = resonance_energy(cfg), cfg["Gamma"], channel_weight(cfg)
    ball = sum(max(0.0, mu_s - m["bottom_energy"])
               - max(0.0, mu_d - m["bottom_energy"]) for m in cfg["modes"])
    bottom = next(m["bottom_energy"] for m in cfg["modes"] if m["coupled"])
    lo, hi = max(bottom, min(mu_s, mu_d)), max(mu_s, mu_d)
    deficit = 0.0
    if hi > lo:
        deficit = Gamma * (math.atan((hi - E_res) / Gamma)
                           - math.atan((lo - E_res) / Gamma))
        deficit *= 1.0 if mu_s >= mu_d else -1.0
    return CURRENT_PER_MEV * ball, CURRENT_PER_MEV * w * deficit


def _fermi_window(E, mu_s: float, mu_d: float, kT: float):
    """f_s - f_d, overflow-safe."""
    with np.errstate(over="ignore"):
        return (1.0 / (1.0 + np.exp((E - mu_s) / kT))
                - 1.0 / (1.0 + np.exp((E - mu_d) / kT)))


def _simpson(y: np.ndarray, h: float) -> float:
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum()
                            + 2.0 * y[2:-1:2].sum()))


def _window_integral(bottom: float, mu_s: float, mu_d: float, kT: float,
                     step: float, weight_fn=None) -> float:
    """integral_bottom^inf g(E) (f_s - f_d) dE by composite Simpson on a
    uniform grid that starts exactly at the subband bottom."""
    lo = max(bottom, min(mu_s, mu_d) - WINDOW_KT * kT)
    hi = max(mu_s, mu_d) + WINDOW_KT * kT
    if hi <= lo:
        return 0.0
    n = 2 * math.ceil((hi - lo) / step / 2.0) + 1      # odd point count
    E = np.linspace(lo, hi, n)
    y = _fermi_window(E, mu_s, mu_d, kT)
    if weight_fn is not None:
        y = y * weight_fn(E)
    return _simpson(y, (hi - lo) / (n - 1))


def current_finite_T(cfg: dict, mu_s: float, mu_d: float,
                     temperature: float) -> tuple[float, float]:
    """(ballistic, weighted dip deficit) in A at T > 0, each integral
    truncated at its subband bottom.  Independent of the program's
    quadrature: a fixed dense grid with POINTS_PER_SCALE points per
    min(kT, Gamma)."""
    kT = K_B_MEV * temperature
    E_res, Gamma, w = resonance_energy(cfg), cfg["Gamma"], channel_weight(cfg)
    step = min(kT, Gamma) / POINTS_PER_SCALE
    ball = sum(_window_integral(m["bottom_energy"], mu_s, mu_d, kT, step)
               for m in cfg["modes"])
    bottom = next(m["bottom_energy"] for m in cfg["modes"] if m["coupled"])
    deficit = _window_integral(bottom, mu_s, mu_d, kT, step,
                               lambda E: dip(E, E_res, Gamma))
    return CURRENT_PER_MEV * ball, CURRENT_PER_MEV * w * deficit


def oracle_transmission(E, hopping_t: float, eps_d: float,
                        coupling_tp: float) -> np.ndarray:
    """|tau|^2 of a chain with one side-coupled site, Green's-function form:
    tau = i v / (i v - tp^2 / (E - eps_d)), v = 2 t sin k."""
    E = np.asarray(E, dtype=float)
    v = np.sqrt(np.maximum(4.0 * hopping_t ** 2 - E ** 2, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma = coupling_tp ** 2 / (E - eps_d)
        t = np.abs(1j * v / (1j * v - sigma)) ** 2
    return np.where(E == eps_d, 0.0, t)
