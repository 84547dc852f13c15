"""Finite-temperature Landauer current and differential conductance.

I = (e/h) * sum_i integral dE T_i(E) [f_s(E) - f_d(E)], spin-polarized
prefactor e/h (no factor 2).  Ballistic mode contributions have a closed
form.  The current deficit carved out by the Fano dip is scaled by the
spin-channel weight, so the antiparallel deficit is half the parallel one
to machine precision.  At T = 0 the deficit is the closed form
``fano.dip_integral``; at T > 0 it is the one adaptive quadrature left.

T = 0 K (any T whose k_B T is 0 in floating point) is an exact special
case with a sharp integration window, not a small-T limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import expit

from .constants import CONSTANTS, CURRENT_PER_MEV, thermal_energy
from .config import DeviceConfig
from .dot_spectrum import (eigenlevels, target_level,
                           two_electron_hamiltonian)
from .fano import TransmissionModel, dip_integral, from_config, \
    total_transmission

QUAD_REL_TOL = 1e-8
WINDOW_PAD_KT = 10.0
WINDOW_PAD_GAMMA = 10.0


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge within its panel budget."""


@dataclass(frozen=True)
class BiasPoint:
    mu_source: float     # meV
    mu_drain: float      # meV
    temperature: float   # K

    @property
    def V_sd(self) -> float:
        """Bias in mV (numerically mu_source - mu_drain in meV)."""
        return self.mu_source - self.mu_drain


@dataclass(frozen=True)
class IVPoint:
    V_sd: float   # mV
    I: float      # A
    G_diff: float # S


@dataclass(frozen=True)
class IVCurve:
    points: tuple[IVPoint, ...]


def fermi(E, mu: float, temperature: float):
    """Fermi-Dirac occupancy; exact step (1/2 at E = mu) at T = 0.

    Overflow-safe for arbitrarily large |E - mu| / kT.
    """
    kT = thermal_energy(temperature)
    if kT == 0:
        return np.where(E < mu, 1.0, np.where(E > mu, 0.0, 0.5))[()]
    with np.errstate(over="ignore"):    # inf argument is fine for expit
        return expit(-(np.asarray(E) - mu) / kT)[()]


def _softplus_energy(mu: float, bottom: float, kT: float) -> float:
    """kT * softplus((mu - bottom)/kT), stable for any kT > 0."""
    d = mu - bottom
    x = d / kT          # may overflow to inf for subnormal kT; handled below
    if x > 0:
        return d + kT * math.log1p(math.exp(-x))
    return kT * math.log1p(math.exp(x))


def _ballistic_integral(bottom: float, bias: BiasPoint) -> float:
    """integral_bottom^inf [f_s - f_d] dE in meV, closed form."""
    mu_s, mu_d = bias.mu_source, bias.mu_drain
    kT = thermal_energy(bias.temperature)
    if kT == 0:
        return max(0.0, mu_s - bottom) - max(0.0, mu_d - bottom)
    # integral of f from bottom to inf = kT * softplus((mu - bottom)/kT)
    return _softplus_energy(mu_s, bottom, kT) - _softplus_energy(
        mu_d, bottom, kT)


def _deficit_integral(model: TransmissionModel, bias: BiasPoint) -> float:
    """integral (1 - T_fano)(E) [f_s - f_d] dE over the coupled mode, meV.

    Unit channel weight; callers scale by w.  Returned with the sign of the
    bias (negative for reverse bias).
    """
    res = model.resonance
    bottom = model.modes[model.coupled_index].bottom_energy
    mu_lo = min(bias.mu_source, bias.mu_drain)
    mu_hi = max(bias.mu_source, bias.mu_drain)
    kT = thermal_energy(bias.temperature)

    if kT == 0:
        lo = max(bottom, mu_lo)
        if lo >= mu_hi:
            return 0.0
        sign = 1.0 if bias.mu_source >= bias.mu_drain else -1.0
        return sign * dip_integral(res, lo, mu_hi)

    pad = WINDOW_PAD_KT * kT + WINDOW_PAD_GAMMA * res.Gamma
    lo = max(bottom, min(mu_lo, res.energy) - pad)
    hi = max(mu_hi, res.energy) + pad
    if lo >= hi:
        return 0.0

    def integrand(E: float) -> float:
        eps = E - res.energy
        dip = 1.0 - abs(eps + res.q * res.Gamma) ** 2 / (eps**2 + res.Gamma**2)
        return dip * float(fermi(E, bias.mu_source, bias.temperature)
                           - fermi(E, bias.mu_drain, bias.temperature))

    pts = [res.energy + k * res.Gamma
           for k in (-10.0, -3.0, -1.0, 0.0, 1.0, 3.0, 10.0)]
    pts += [bias.mu_source, bias.mu_drain]
    pts = sorted({p for p in pts if lo < p < hi}) or None
    val, err, info, *rest = quad(integrand, lo, hi, points=pts, limit=400,
                                 epsrel=QUAD_REL_TOL, epsabs=1e-14 * (hi - lo),
                                 full_output=True)
    if rest:
        raise QuadratureError(
            f"quadrature did not converge on [{lo}, {hi}]: {rest[0]}")
    return val


def current_components(bias: BiasPoint,
                       model: TransmissionModel) -> tuple[float, float]:
    """(ballistic current, dip deficit) in A; I = ballistic - deficit.

    The deficit is computed as its own integral (not by subtracting two
    currents), so weight scaling and the parallel/antiparallel ratio are
    exact.
    """
    ballistic = sum(_ballistic_integral(m.bottom_energy, bias)
                    for m in model.modes)
    deficit = model.weight * _deficit_integral(model, bias)
    return CURRENT_PER_MEV * ballistic, CURRENT_PER_MEV * deficit


def current(bias: BiasPoint, model: TransmissionModel) -> float:
    """Landauer current in amperes."""
    ballistic, deficit = current_components(bias, model)
    return ballistic - deficit


def linear_conductance(model: TransmissionModel, temperature: float,
                       mu: float) -> float:
    """dI/dV at V = 0, in S.  Exact G0 * T(mu) at T = 0, else a central
    difference with step max(kT, Gamma) / 100."""
    kT = thermal_energy(temperature)
    if kT == 0:
        return CONSTANTS.G0_spin_polarized * total_transmission(mu, model)
    h = max(kT, model.resonance.Gamma) / 100.0
    I_p = current(BiasPoint(mu + h / 2, mu - h / 2, temperature), model)
    I_m = current(BiasPoint(mu - h / 2, mu + h / 2, temperature), model)
    return (I_p - I_m) / (2.0 * h * 1e-3)


def optimal_bias(Gamma: float) -> float:
    """Best readout bias V = Gamma / e, in mV."""
    if not Gamma > 0:
        raise ValueError(f"Gamma must be > 0, got {Gamma}")
    return Gamma


def model_from_config(config: DeviceConfig,
                      orientation=None) -> TransmissionModel:
    resonance = target_level(
        eigenlevels(two_electron_hamiltonian(config), config), config)
    return from_config(config, resonance, orientation)


def iv_curve(config: DeviceConfig, V_grid) -> IVCurve:
    """Current and centered-difference differential conductance on a bias
    grid.  The bias window is split symmetrically about mu_source:
    mu_s/d = mu_source +- V/2, which makes I(-V) = -I(V) for any
    bias-independent transmission."""
    V_grid = list(V_grid)
    if not V_grid:
        raise ValueError("bias grid must be nonempty")
    if any(b <= a for a, b in zip(V_grid, V_grid[1:])):
        raise ValueError("bias grid must be strictly increasing")
    model = model_from_config(config)
    mu0, T = config.mu_source, config.temperature
    currents = [0.0 if V == 0 else
                current(BiasPoint(mu0 + V / 2, mu0 - V / 2, T), model)
                for V in V_grid]
    if len(V_grid) >= 2:
        G = np.gradient(np.asarray(currents),
                        np.asarray(V_grid, dtype=float) * 1e-3)
    else:
        G = [linear_conductance(model, T, mu0)]
    return IVCurve(points=tuple(
        IVPoint(V_sd=float(v), I=float(i), G_diff=float(g))
        for v, i, g in zip(V_grid, currents, G)))
