"""Finite-temperature Landauer current and differential conductance.

I = (e/h) * sum_i integral dE T_i(E) [f_s(E) - f_d(E)], spin-polarized
prefactor e/h (no factor 2).  Ballistic mode contributions have a closed
form.  The current deficit carved out by the Fano dip is scaled by the
spin-channel weight, so the antiparallel deficit is half the parallel one
to machine precision.  At T = 0 the deficit is the closed form
``fano.dip_integral``.

At T > 0 the deficit and the dip's share of the linear conductance are
integrated by one fixed rule: composite 16-point Gauss-Legendre on
[max(bottom, mu_lo - 40 kT), mu_hi + 40 kT], with panel breakpoints graded
geometrically (ratio 2) toward E_res from the scale Gamma and toward each
chemical potential from the scale pi kT.  The integrand's poles sit at
E_res +- i Gamma and mu + i pi kT (2n + 1); no panel is wider than its
distance to the nearest one, so the rule is exact to rounding.  The
breakpoints depend only on the sorted pair of chemical potentials, so
I(-V) = -I(V) holds exactly.

A sharp window, where every mu +- 40 kT rounds to mu (T = 0 K included),
is an exact special case evaluated in closed form, not a small-T limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import CONSTANTS, CURRENT_PER_MEV, thermal_energy
from .config import DeviceConfig, Spin
from .dot_spectrum import ResonanceSpec, target_level
from .fano import (CHANNEL_WEIGHT, SpinOrientation, TransmissionModel,
                   dip_integral, total_transmission)

#: The Fermi tails beyond this many kT from every chemical potential weigh
#: e^-40 ~ 4e-18 of the bias window and are left out.
FERMI_TAIL_KT = 40.0

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


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
    with np.errstate(over="ignore"):    # exp(inf) = inf gives f = 0
        return (1.0 / (1.0 + np.exp((np.asarray(E) - mu) / kT)))[()]


def _softplus_energy(mu: float, bottom: float, kT: float) -> float:
    """kT * softplus((mu - bottom)/kT), stable for any kT > 0."""
    d = mu - bottom
    x = d / kT          # may overflow to inf for subnormal kT; handled below
    if x > 0:
        return d + kT * math.log1p(math.exp(-x))
    return kT * math.log1p(math.exp(x))


def _sharp(kT: float, *mus: float) -> bool:
    """Every mu +- 40 kT rounds to mu, so the T = 0 closed forms are exact."""
    tail = FERMI_TAIL_KT * kT
    return kT == 0 or all(mu - tail == mu == mu + tail for mu in mus)


def _ballistic_integral(bottom: float, bias: BiasPoint) -> float:
    """integral_bottom^inf [f_s - f_d] dE in meV, closed form."""
    mu_s, mu_d = bias.mu_source, bias.mu_drain
    kT = thermal_energy(bias.temperature)
    if _sharp(kT, mu_s, mu_d):
        return max(0.0, mu_s - bottom) - max(0.0, mu_d - bottom)
    # integral of f from bottom to inf = kT * softplus((mu - bottom)/kT)
    return _softplus_energy(mu_s, bottom, kT) - _softplus_energy(
        mu_d, bottom, kT)


def _graded(center: float, scale: float, lo: float, hi: float):
    """center and center +- scale * 2^k, k = 0, 1, ..., past both of lo, hi,
    built downward by halving so that none overflows."""
    reach = max(center - lo, hi - center)
    n = max(0, math.ceil(math.log2(reach) - math.log2(scale))) + 1
    steps = math.ldexp(scale, n - 1) * np.exp2(-np.arange(n))
    return np.concatenate(([center], center - steps, center + steps))


def _graded_quadrature(integrand, lo: float, hi: float, res: ResonanceSpec,
                       mus, kT: float) -> float:
    """integral_lo^hi integrand(E) dE by composite 16-point Gauss-Legendre,
    panels graded toward E_res (scale Gamma) and each mu (scale pi kT)."""
    if lo >= hi:
        return 0.0
    edges = np.unique(np.clip(np.concatenate(
        [(lo, hi), _graded(res.energy, res.Gamma, lo, hi)]
        + [_graded(mu, math.pi * kT, lo, hi) for mu in mus]), lo, hi))
    half = 0.5 * np.diff(edges)[:, None]
    nodes = edges[:-1, None] + half * (1.0 + _GL_NODES)
    return float((half * _GL_WEIGHTS).ravel() @ integrand(nodes.ravel()))


def _dip(E, res: ResonanceSpec):
    """1 - T_fano(E - E_res), a Lorentzian as Re q = 0, on an array."""
    G = res.Gamma
    eps = E - res.energy
    return G * (G * (1.0 - abs(res.q) ** 2)) / (eps * eps + G * G)


def _fermi_window(E, mu_lo: float, mu_hi: float, kT: float):
    """f(E, mu_hi) - f(E, mu_lo) = sinh(d) / (cosh(c) + cosh(d)), with c the
    offset from the window centre and d its half-width in units of kT;
    scaled by e^-d, so nothing overflows or cancels."""
    h = 0.5 * (mu_hi - mu_lo)
    a = np.abs(E - (mu_lo + h))
    with np.errstate(over="ignore"):
        return -math.expm1(-2.0 * h / kT) / (
            np.exp((a - h) / kT) + np.exp(-(a + h) / kT) + 1.0
            + math.exp(-2.0 * h / kT))


def _deficit_integral(model: TransmissionModel, bias: BiasPoint) -> float:
    """integral (1 - T_fano)(E) [f_s - f_d] dE over the coupled mode, meV.

    Unit channel weight; callers scale by w.  Returned with the sign of the
    bias (negative for reverse bias).
    """
    res = model.resonance
    bottom = model.modes[model.coupled_index].bottom_energy
    mu_lo = min(bias.mu_source, bias.mu_drain)
    mu_hi = max(bias.mu_source, bias.mu_drain)
    sign = 1.0 if bias.mu_source >= bias.mu_drain else -1.0
    kT = thermal_energy(bias.temperature)

    if _sharp(kT, mu_lo, mu_hi):
        lo = max(bottom, mu_lo)
        if lo >= mu_hi:
            return 0.0
        return sign * dip_integral(res, lo, mu_hi)

    return sign * _graded_quadrature(
        lambda E: _dip(E, res) * _fermi_window(E, mu_lo, mu_hi, kT),
        max(bottom, mu_lo - FERMI_TAIL_KT * kT), mu_hi + FERMI_TAIL_KT * kT,
        res, (mu_lo, mu_hi), kT)


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
    """dI/dV at V = 0, in S, exactly: G0 T(mu) at T = 0, else
    G0 [sum_m f(bottom_m) - w integral_bottom^inf (1 - T_fano)(-df/dE) dE]
    on the graded rule.  A k_B T below the float spacing at mu is a step."""
    kT = thermal_energy(temperature)
    if _sharp(kT, mu):
        return CONSTANTS.G0_spin_polarized * total_transmission(mu, model)
    res = model.resonance

    def integrand(E):       # (1 - T_fano) * kT * (-df/dE)
        x = np.exp(-np.abs(E - mu) / kT)
        return _dip(E, res) * x / (1.0 + x) ** 2

    dip = _graded_quadrature(
        integrand, max(model.modes[model.coupled_index].bottom_energy,
                       mu - FERMI_TAIL_KT * kT), mu + FERMI_TAIL_KT * kT,
        res, (mu,), kT) / kT
    ballistic = sum(float(fermi(m.bottom_energy, mu, temperature))
                    for m in model.modes)
    return CONSTANTS.G0_spin_polarized * (ballistic - model.weight * dip)


def optimal_bias(Gamma: float) -> float:
    """Best readout bias V = Gamma / e, in mV."""
    if not Gamma > 0:
        raise ValueError(f"Gamma must be > 0, got {Gamma}")
    return Gamma


def model_from_config(config: DeviceConfig,
                      orientation=None) -> TransmissionModel:
    """The model of a validated config; orientation defaults by dot_spin."""
    if orientation is None:
        orientation = (SpinOrientation.PARALLEL if config.dot_spin is Spin.UP
                       else SpinOrientation.ANTIPARALLEL)
    return TransmissionModel(target_level(config), orientation,
                             tuple(config.modes))


def _bias_grid(V_grid) -> list:
    V_grid = list(V_grid)
    if not V_grid:
        raise ValueError("bias grid must be nonempty")
    if any(b <= a for a, b in zip(V_grid, V_grid[1:])):
        raise ValueError("bias grid must be strictly increasing")
    return V_grid


def _bias(config: DeviceConfig, V: float) -> BiasPoint:
    mu0 = config.mu_source
    return BiasPoint(mu0 + V / 2, mu0 - V / 2, config.temperature)


def _curve(model: TransmissionModel, config: DeviceConfig, V_grid,
           currents) -> IVCurve:
    """IVCurve with the centered-difference G_diff of ``currents``, or on a
    one-point grid the exact dI/dV = [G(mu_s) + G(mu_d)] / 2."""
    if len(V_grid) >= 2:
        G = np.gradient(np.asarray(currents),
                        np.asarray(V_grid, dtype=float) * 1e-3)
    else:
        bias = _bias(config, V_grid[0])
        G = [0.5 * (linear_conductance(model, bias.temperature,
                                       bias.mu_source)
                    + linear_conductance(model, bias.temperature,
                                         bias.mu_drain))]
    return IVCurve(points=tuple(
        IVPoint(V_sd=float(v), I=float(i), G_diff=float(g))
        for v, i, g in zip(V_grid, currents, G)))


def iv_curve(config: DeviceConfig, V_grid) -> IVCurve:
    """Current and centered-difference differential conductance on a bias
    grid.  The bias window is split symmetrically about mu_source:
    mu_s/d = mu_source +- V/2, which makes I(-V) = -I(V) for any
    bias-independent transmission.  On a one-point grid G_diff is the exact
    dI/dV = [G(mu_s) + G(mu_d)] / 2, G the linear conductance at each
    chemical potential."""
    V_grid = _bias_grid(V_grid)
    model = model_from_config(config)
    currents = [0.0 if V == 0 else current(_bias(config, V), model)
                for V in V_grid]
    return _curve(model, config, V_grid, currents)


def iv_curves(config: DeviceConfig, V_grid) -> tuple[IVCurve, IVCurve]:
    """(parallel, antiparallel) ``iv_curve``s from one model and one deficit
    integral per bias: I = ballistic - w * deficit, and w = 1/2 scales the
    deficit exactly, so each curve equals its own ``iv_curve`` bit for bit.
    """
    V_grid = _bias_grid(V_grid)
    model = model_from_config(config, SpinOrientation.PARALLEL)
    parts = [(0.0, 0.0) if V == 0 else
             current_components(_bias(config, V), model) for V in V_grid]
    return tuple(
        _curve(replace(model, orientation=o), config, V_grid,
               [ballistic - CHANNEL_WEIGHT[o] * deficit
                for ballistic, deficit in parts])
        for o in (SpinOrientation.PARALLEL, SpinOrientation.ANTIPARALLEL))
