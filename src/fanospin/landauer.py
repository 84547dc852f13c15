"""Finite-temperature Landauer current and differential conductance.

I = (e/h) * sum_i integral dE T_i(E) [f_s(E) - f_d(E)], spin-polarized
prefactor e/h (no factor 2).  Ballistic mode contributions have a closed
form.  The current deficit carved out by the Fano dip is scaled by the
spin-channel weight, so the antiparallel deficit is half the parallel one
to machine precision.  At T = 0 the deficit is the closed form
``fano.dip_integral``.

At T > 0 every deficit and every dip share of the linear conductance is a
row of one graded rule, ``_graded_rule``: composite 16-point Gauss-Legendre
on the row's [max(bottom, mu_lo - 40 kT), mu_hi + 40 kT], breakpoints graded
geometrically (ratio 2) toward E_res from the scale Gamma and toward each
chemical potential from the scale pi kT.  The integrand's poles sit at
E_res +- i Gamma and mu + i pi kT (2n + 1); no panel is wider than its
distance to the nearest one, so the rule is exact to rounding.  A row
depends only on its sorted pair of chemical potentials, so I(-V) = -I(V)
holds exactly, +V and -V share one row, and an I-V curve is one call whose
dI/dV is the exact [G(mu_s) + G(mu_d)] / 2.  ``current_components`` takes
the conductance at any mu's as further rows of its one call.

A sharp window, where every mu +- 40 kT rounds to mu (T = 0 K included),
is an exact special case evaluated in closed form, not a small-T limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import CURRENT_PER_MEV, FERMI_TAIL_KT, G0, thermal_energy
from .config import DeviceConfig, Spin
from .dot_spectrum import target_level
from .fano import (SpinOrientation, TransmissionModel, dip_integral,
                   total_transmission)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
#: Node offsets and weights on a panel of unit width, as columns.
_GL_STEPS, _GL_WEIGHTS = (_GL_NODES[:, None] + 1) / 2, _GL_WEIGHTS[:, None] / 2


@dataclass(frozen=True)
class BiasPoint:
    mu_source: float     # meV
    mu_drain: float      # meV
    temperature: float   # K


@dataclass(frozen=True)
class IVPoint:
    V_sd: float   # mV
    I: float      # A
    G_diff: float # S


@dataclass(frozen=True)
class IVCurve:
    points: tuple[IVPoint, ...]


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


def _graded_rule(model: TransmissionModel, kT: float, windows, points):
    """Unit-weight dip integrals in meV, all rows in one pass: over each
    window (mu_lo, mu_hi) of (1 - T_fano) (f_hi - f_lo), at each point mu
    of (1 - T_fano) kT (-df/dE).

    A row's breakpoints are its ends and E_res +- Gamma 2^k, mu +- pi kT 2^k
    for k < n, clipped to the row.  n comes from the widest span of the
    call; the steps past a row's own reach clip onto its ends, and zero-width
    panels are dropped, so each row sees the panels of its one-row call and
    bincount sums them in the same order: a row equals that call bit for bit.

    The Fermi factor, sinh(d) / (cosh(c) + cosh(d)) for a window of
    half-width d and 1 / (2 + 2 cosh(c)) at a point (c the offset from the
    centre, in units of kT), is scaled by e^-d, so nothing cancels.
    """
    rows = ([(lo, hi, -math.expm1((lo - hi) / kT)) for lo, hi in windows]
            + [(mu, mu, 1.0) for mu in points])     # numerator 1 - e^-2d
    res, tail, pkT = model.resonance, FERMI_TAIL_KT * kT, math.pi * kT
    bottom = model.modes[model.coupled_index].bottom_energy
    # per row: its ends, E_res, its mu's; Fermi centre, d, 1 + e^-2d, numerator
    table = np.array([(max(bottom, lo - tail), hi + tail, res.energy, lo, hi,
                       0.5 * (lo + hi), 0.5 * (hi - lo),
                       1.0 + math.exp((lo - hi) / kT), numerator)
                      for lo, hi, numerator in rows]).T
    # the span of the first five columns, from the outermost mu's
    low, high = min(r[0] for r in rows), max(r[1] for r in rows)
    span = (max(res.energy, high + tail, bottom)
            - min(res.energy, low, max(bottom, low - tail)))
    n = 1 + max(0, math.ceil(math.log2(span)
                             - math.log2(min(res.Gamma, pkT))))
    with np.errstate(over="ignore"):    # inf steps clip; e^inf gives f = 0
        steps = np.ldexp(np.array(((-res.Gamma, res.Gamma), (-pkT, pkT),
                                   (-pkT, pkT)))[:, None],
                         np.arange(n)[:, None])             # (3, n, 2)
        ladder = (table[2:5].T[..., None, None] + steps).reshape(len(rows), -1)
        edges = np.concatenate((table[:5].T, ladder), 1)
        edges = np.sort(np.minimum(np.maximum(edges, table[0, :, None]),
                                   table[1, :, None]), axis=1)
        width = edges[:, 1:] - edges[:, :-1]
        row, col = np.nonzero(width)
        width = width[row, col]
        centre, d, scale = table[5:8].take(row, 1)
        E = edges[row, col] + width * _GL_STEPS          # (16, panels)
        a, eps = np.abs(E - centre), E - res.energy
        den = (eps * eps + res.Gamma * res.Gamma) * (
            np.exp((a - d) / kT) + np.exp((a + d) / -kT) + scale)
    sums = np.bincount(row[None].repeat(16, 0).ravel(),
                       (_GL_WEIGHTS * width / den).ravel(), len(rows))
    return sums * (res.Gamma * res.Gamma * (1.0 - abs(res.q) ** 2)) * table[8]


def _integrals(model: TransmissionModel, kT: float, biases, mus):
    """(ballistic current in A, unit-weight deficit in meV) of each bias,
    signed like it, and dip share of G / G0 at each mu (None if sharp:
    G = G0 T(mu)).

    Each distinct sorted window (+V and -V share one) is evaluated once,
    its ballistic current next to its deficit: a sharp window in closed
    form, every other one, and every wide mu, as a row of one
    ``_graded_rule`` call.  -V takes the ballistic current 0.0 - I(+V) and
    the deficit 0.0 - D(+V), so a zero stays +0.0."""
    res = model.resonance
    bottom = model.modes[model.coupled_index].bottom_energy
    windows, pairs = {}, []
    rows = {}   # each graded window -> its biases' (index, negative)s
    for i, b in enumerate(biases):
        negative = b.mu_source < b.mu_drain
        window = lo, hi = ((b.mu_source, b.mu_drain) if negative
                           else (b.mu_drain, b.mu_source))
        if window not in windows:
            if not _sharp(kT, lo, hi):
                # integral of f from bottom to inf = kT softplus((mu - b)/kT)
                windows[window] = CURRENT_PER_MEV * sum([
                    _softplus_energy(hi, m.bottom_energy, kT)
                    - _softplus_energy(lo, m.bottom_energy, kT)
                    for m in model.modes]), None, None
            else:
                ballistic = CURRENT_PER_MEV * sum([
                    max(0.0, hi - m.bottom_energy)
                    - max(0.0, lo - m.bottom_energy) for m in model.modes])
                lo = max(bottom, lo)    # no dip below the coupled subband
                deficit = dip_integral(res, lo, hi) if lo < hi else 0.0
                windows[window] = ballistic, deficit, 0.0 - deficit
        ballistic, plus, minus = windows[window]
        if plus is None:
            rows.setdefault(window, []).append((i, negative))
        pairs.append((0.0 - ballistic, minus) if negative
                     else (ballistic, plus))
    smooth = [not _sharp(kT, mu) for mu in mus]
    if not (rows or any(smooth)):
        return pairs, [None] * len(mus)
    graded = _graded_rule(model, kT, list(rows), [
        mu for mu, s in zip(mus, smooth) if s]).tolist()
    for deficit, biases_of_row in zip(graded, rows.values()):
        for i, negative in biases_of_row:
            pairs[i] = pairs[i][0], 0.0 - deficit if negative else deficit
    dips = iter(graded[len(rows):])
    return pairs, [next(dips) / kT if s else None for s in smooth]


def _conductance(model: TransmissionModel, kT: float, mu: float,
                 dip) -> float:
    """The linear conductance in S from the dip share of ``_integrals``:
    G0 [sum_m f(bottom_m) - w dip], or G0 T(mu) where the window is sharp."""
    if dip is None:
        return G0 * total_transmission(mu, model)
    occupied = 0.0
    for x in ((m.bottom_energy - mu) / kT for m in model.modes):
        e = math.exp(-abs(x))           # f(bottom), with no overflow
        occupied += (e if x > 0 else 1.0) / (1.0 + e)
    return G0 * (occupied - model.weight * dip)


def current_components(bias: BiasPoint, model: TransmissionModel,
                       *mus: float) -> tuple[float, ...]:
    """(ballistic current, dip deficit) in A, I = ballistic - deficit,
    then the ``linear_conductance`` in S at each of ``mus`` at the bias
    temperature, each equal to its own call bit for bit: the deficit and
    the conductances are rows of one ``_graded_rule`` call where not sharp.

    The deficit is computed as its own integral (not by subtracting two
    currents), so weight scaling and the parallel/antiparallel ratio are
    exact.
    """
    kT = thermal_energy(bias.temperature)
    ((ballistic, deficit),), dips = _integrals(model, kT, [bias], mus)
    parts = (ballistic, model.weight * (CURRENT_PER_MEV * deficit))
    if mus:
        parts += tuple(_conductance(model, kT, mu, dip)
                       for mu, dip in zip(mus, dips))
    return parts


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
    _, (dip,) = _integrals(model, kT, [], [mu])
    return _conductance(model, kT, mu, dip)


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


def _iv_curves(config: DeviceConfig, V_grid, *models) -> tuple[IVCurve, ...]:
    """The ``iv_curve`` of each model: at T > 0 from one ``_graded_rule``
    call, a deficit per nonzero bias and G at each distinct mu."""
    V_grid = list(V_grid)
    if not V_grid or any(b <= a for a, b in zip(V_grid, V_grid[1:])):
        raise ValueError("bias grid must be nonempty and strictly increasing")
    mu0, T = config.mu_source, config.temperature
    biases = [BiasPoint(mu0 + V / 2, mu0 - V / 2, T) for V in V_grid]
    kT = thermal_energy(T)
    if kT == 0:     # closed forms: ``current`` per bias, G0 T(mu) at once
        currents = [[current(b, m) if V else 0.0
                     for V, b in zip(V_grid, biases)] for m in models]
        mu = np.array([(b.mu_source, b.mu_drain) for b in biases])
        G = [G0 * total_transmission(mu, m) for m in models]
        G_diff = [((g[:, 0] + g[:, 1]) / 2).tolist() for g in G]
    else:
        mus = sorted({mu for b in biases for mu in (b.mu_source, b.mu_drain)})
        moving = [b for V, b in zip(V_grid, biases) if V]
        pairs, dips = _integrals(models[0], kT, moving, mus)
        pairs = iter(pairs)
        parts = [next(pairs) if V else (0.0, 0.0) for V in V_grid]
        currents = [[ballistic - m.weight * (CURRENT_PER_MEV * deficit)
                     for ballistic, deficit in parts] for m in models]
        G = [dict(zip(mus, (_conductance(m, kT, mu, dip)
                            for mu, dip in zip(mus, dips)))) for m in models]
        G_diff = [[(g[b.mu_source] + g[b.mu_drain]) / 2 for b in biases]
                  for g in G]
    return tuple(IVCurve(points=tuple(
        IVPoint(V_sd=float(V), I=float(i), G_diff=float(g))
        for V, i, g in zip(V_grid, I, dIdV)))
        for I, dIdV in zip(currents, G_diff))


def iv_curve(config: DeviceConfig, V_grid) -> IVCurve:
    """Current and exact differential conductance on a strictly increasing
    bias grid.  The bias window is split symmetrically about mu_source:
    mu_s/d = mu_source +- V/2, which makes I(-V) = -I(V) for any
    bias-independent transmission.  G_diff is dI/dV = [G(mu_s) + G(mu_d)]
    / 2, G the linear conductance at each chemical potential; each point
    equals ``current`` and ``linear_conductance`` at its bias bit for bit."""
    (curve,) = _iv_curves(config, V_grid, model_from_config(config))
    return curve


def iv_curves(config: DeviceConfig, V_grid) -> tuple[IVCurve, IVCurve]:
    """(parallel, antiparallel) ``iv_curve``s from one model and one deficit
    integral per bias: I = ballistic - w * deficit, and w = 1/2 scales the
    deficit exactly, so each curve equals its own ``iv_curve`` bit for bit.
    """
    model = model_from_config(config, SpinOrientation.PARALLEL)
    return _iv_curves(config, V_grid, model, replace(
        model, orientation=SpinOrientation.ANTIPARALLEL))
