"""Finite-temperature Landauer current and differential conductance.

I = (e/h) * sum_i integral dE T_i(E) [f_s(E) - f_d(E)], spin-polarized
prefactor e/h (no factor 2).  Ballistic mode contributions have a closed
form.  The current deficit carved out by the Fano dip is scaled by the
spin-channel weight, so the antiparallel deficit is half the parallel one
to machine precision.  At T = 0 the deficit is the closed form
``fano.dip_integral``.

At T > 0 every deficit and every dip share of the linear conductance is a
row, evaluated on one of three paths.  A row depends only on its sorted
pair of chemical potentials, so I(-V) = -I(V) holds exactly, +V and -V
share one row, and an I-V curve's dI/dV is the exact [G(mu_s) + G(mu_d)] /
2.  Each row is its own computation, so a curve point equals its own
``current`` and ``linear_conductance`` calls bit for bit.

- Sharp: where every mu +- 40 kT rounds to mu (T = 0 K included), the T = 0
  closed forms are exact, not a small-T limit.
- Digamma: where the row's lowest mu lies at least 40 kT above the coupled
  subband bottom, the Fermi-window integral of the Lorentzian dip over the
  whole line is closed.  Its poles are E_res + i Gamma and the Matsubara
  poles mu + i pi kT (2n + 1); with z(mu) = 1/2 + (Gamma + i (mu - E_res))
  / (2 pi kT), a window row is (1 - |q|^2) Gamma Im[psi(z(mu_hi)) -
  psi(z(mu_lo))] and a point row (1 - |q|^2) (Gamma / 2 pi) Re psi'(z(mu))
  (Abramowitz and Stegun 6.3.5, 6.3.18, 6.4.12), on floats.
- Graded: every other row (the bottom within 40 kT) is a row of one
  ``_graded_rule`` call: composite 16-point Gauss-Legendre on the row's
  [max(bottom, mu_lo - 40 kT), mu_hi + 40 kT], breakpoints graded
  geometrically (ratio 2) toward E_res from the scale Gamma and toward each
  chemical potential from the scale pi kT, so no panel is wider than its
  distance to the nearest pole and the rule is exact to rounding.

Only the graded rule computes with arrays, so numpy is imported there, on
its first call: a curve or report whose rows are all sharp or closed runs
on floats alone.  While ``ROW_PATHS`` holds a dict, each row adds one to
the count of its path.
"""

from __future__ import annotations

import cmath
import math
from contextvars import ContextVar
from dataclasses import dataclass, replace
from functools import cache

from .constants import CURRENT_PER_MEV, FERMI_TAIL_KT, G0, thermal_energy
from .config import DeviceConfig, Spin
from .dot_spectrum import target_level
from .fano import (SpinOrientation, TransmissionModel, dip_integral,
                   total_transmission)

#: Rows of ``_graded_rule`` evaluated at once, so a long call holds the node
#: arrays (tens of kB a row) of one block, not of every row; the 121 rows of
#: the default 81-bias ``iv`` stay one block.
_BLOCK_ROWS = 128

#: The row paths the ``ROW_PATHS`` collector counts.
PATHS = ("sharp", "digamma", "graded")

#: A dict of row counts per path, which ``_integrals`` adds to while set.
ROW_PATHS: ContextVar[dict | None] = ContextVar("ROW_PATHS", default=None)

#: psi(w) - ln w + u/2 for |w| >= 10, u = 1/w, as a polynomial in v = u^2,
#: highest power first: -sum_k B_2k v^k / 2k for k = 1..8 (Abramowitz and
#: Stegun 6.3.18); the first term left out is below 4e-18 there.
_PSI_SERIES = (3617 / 8160, -1 / 12, 691 / 32760, -1 / 132, 1 / 240,
               -1 / 252, 1 / 120, -1 / 12, 0.0)

#: A closed row takes the direct slope while its real part holds at least
#: this share of its modulus, else the slope split at Re z = 1/2.
_DIRECT_SHARE = 1 / 16

#: The largest |z| a closed row takes: beyond it Re psi' ~ Re z / |z|^2
#: could fall toward the subnormal range.
_Z_MAX = 1e150


@cache
def _gauss_legendre():
    """16-point Gauss-Legendre node offsets and weights on a panel of unit
    width, as columns."""
    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(16)
    return (nodes[:, None] + 1) / 2, weights[:, None] / 2


@dataclass(frozen=True, slots=True)
class BiasPoint:
    mu_source: float     # meV
    mu_drain: float      # meV
    temperature: float   # K


@dataclass(frozen=True, slots=True)
class IVPoint:
    V_sd: float   # mV
    I: float      # A
    G_diff: float # S


@dataclass(frozen=True, slots=True)
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


def _divided(coeffs, *nodes):
    """The divided difference of a polynomial (``coeffs``, highest power
    first) on two or three ``nodes``, which may repeat, by repeated
    synthetic division: p[x0, x1] or p[x0, x1, x2]."""
    for x in nodes:
        value, quotient = 0.0, []
        for c in coeffs:
            value = value * x + c
            quotient.append(value)
        coeffs = quotient[:-1]
    return value


def _shift(x: float, y: float) -> int:
    """Recurrence steps psi(z) = psi(z + 1) - 1/z that take x + i y, and
    every point right of it, to |w| >= 10."""
    if x >= 10 or abs(y) >= 10:
        return 0
    return max(0, math.ceil(math.sqrt(100.0 - y * y) - x))


def _psi_slope(z: complex, dz: complex) -> complex:
    """(psi(z) - psi(c)) / dz for c = z - dz and Re z >= 1/2, and psi'(z) at
    dz = 0: the recurrence psi(z) = psi(z + 1) - 1/z to |w| >= 10, then
    psi(w) = ln w - u/2 + p(u^2), u = 1/w (Abramowitz and Stegun 6.3.5,
    6.3.18, 6.4.12), each term divided by dz in closed form: a recurrence
    step as 1 / ((z + k)(c + k)), the logarithms as 2 atanh(dz / (w + v))
    / dz and the series by Horner's rule on its divided difference."""
    c = z - dz
    n = _shift(z.real, min(abs(z.imag), abs(c.imag)))
    slope = 0.0
    for k in range(n):
        slope += 1 / ((z + k) * (c + k))
    w, v = z + n, c + n
    x = dz / (w + v)        # ln(w / v) = 2 atanh(x)
    if abs(x) > 0.5:
        slope += cmath.log(w / v) / dz
    else:
        slope += (2 * cmath.atanh(x) / x if x else 2) / (w + v)
    u, t = 1 / w, 1 / v
    uu, tt = u * u, t * t
    # series = p[uu, tt] and value = p(tt), Horner's rule on both with
    # (v q)[uu, tt] = uu q[uu, tt] + q(tt)
    series = value = 0.0
    for coeff in _PSI_SERIES:
        series = series * uu + value
        value = value * tt + coeff
    return slope + u * t * (0.5 - (u + t) * series)


def _psi_slope_change(b: complex, dz: complex, a: float) -> complex:
    """``_psi_slope(b + a, dz) - _psi_slope(b, dz)`` with a factor a in
    every term: the double difference [psi(A) - psi(B) - psi(C) + psi(D)]
    / dz over A = b + a, B = b, C = A - dz, D = B - dz, its series terms
    by second divided differences in v = 1/w^2."""
    A, B = b + a, b
    C, D = A - dz, B - dz
    n = _shift(b.real, min(abs(b.imag), abs(D.imag)))
    change = -a * sum([(A + D + 2 * k)
                       / ((A + k) * (B + k) * (C + k) * (D + k))
                       for k in range(n)])
    A, B, C, D = A + n, B + n, C + n, D + n
    # ln(AD / BC) / t = ln(1 + t) / t, as 2 atanh(s) / t, s = t / (2 + t)
    t = -(a / B) * (dz / C)
    s = t / (2 + t)
    log_ratio = (cmath.log(A / B * (D / C)) / t if abs(s) > 0.5
                 else (2 * cmath.atanh(s) / s if s else 2) / (2 + t))
    uA, uB, uC, uD = 1 / A, 1 / B, 1 / C, 1 / D
    vA, vB, vC, vD = uA * uA, uB * uB, uC * uC, uD * uD
    series = (uA * uB * (uA + uB)
              * (uA * uC * (uA + uC) * _divided(_PSI_SERIES, vA, vC, vB)
                 + uB * uD * (uB + uD) * _divided(_PSI_SERIES, vC, vB, vD))
              + uB * uC * (uA * (uA + uB + uC) + uD * (uB + uC + uD))
              * _divided(_PSI_SERIES, vC, vD)
              - uB * uC * (uA + uD) / 2)
    return change - log_ratio * (a / B) / C + a * series


def _tanh_slope(y: float, dy: float) -> float:
    """Re _psi_slope(1/2 + i y, i dy) = (pi/2) [tanh(pi y) - tanh(pi (y -
    dy))] / dy, from Im psi(1/2 + i y) = (pi/2) tanh(pi y) (6.3.12), with
    no overflow and no cancellation; (pi^2 / 2) sech^2(pi y) at dy = 0."""
    p, q = math.pi * y, math.pi * (y - dy)
    if p > 0 > q:
        return math.pi / 2 * (math.tanh(p) - math.tanh(q)) / dy
    slope = -math.expm1(-2 * math.pi * dy) / dy if dy else 2 * math.pi
    return (math.pi * math.exp(-2 * min(abs(p), abs(q))) * slope
            / ((1 + math.exp(-2 * abs(p))) * (1 + math.exp(-2 * abs(q)))))


def _digamma_slope(resonance, kT: float, lo: float, hi: float):
    """Re[psi(z(hi)) - psi(z(lo))] / Im[z(hi) - z(lo)], or Re psi'(z(hi))
    at lo == hi, for z(mu) = 1/2 + (Gamma + i (mu - E_res)) / (2 pi kT);
    None where |z| reaches ``_Z_MAX``.

    The direct slope holds its real part to rounding unless Gamma << 2 pi
    kT with E_res far outside the window, where the real part is a small
    share of the modulus; there the exact tanh part at Re z = 1/2 is split
    off and the rest carries Gamma / (2 pi kT) as a factor."""
    s = 2 * math.pi * kT
    a, y, dy = resonance.Gamma / s, (hi - resonance.energy) / s, (hi - lo) / s
    if not (a < _Z_MAX and -_Z_MAX < y - dy and y < _Z_MAX):
        return None
    dz = complex(0.0, dy)
    slope = _psi_slope(complex(0.5 + a, y), dz)
    if abs(slope.real) >= _DIRECT_SHARE * abs(slope):
        return slope.real
    return (_tanh_slope(y, dy)
            + _psi_slope_change(complex(0.5, y), dz, a).real)


def _graded_rule(model: TransmissionModel, kT: float, windows, points):
    """Unit-weight dip integrals in meV, all rows in one pass: over each
    window (mu_lo, mu_hi) of (1 - T_fano) (f_hi - f_lo), at each point mu
    of (1 - T_fano) kT (-df/dE).

    A row's breakpoints are its ends and E_res +- Gamma 2^k, mu +- pi kT 2^k
    for k < n, clipped to the row.  n comes from the widest span of a block
    of ``_BLOCK_ROWS`` rows, which bounds the memory of a long call; the
    steps past a row's own reach clip onto its ends, and zero-width panels
    are dropped, so each row sees the panels of its one-row call and
    bincount sums them in the same order: a row equals that call bit for bit.

    The Fermi factor, sinh(d) / (cosh(c) + cosh(d)) for a window of
    half-width d and 1 / (2 + 2 cosh(c)) at a point (c the offset from the
    centre, in units of kT), is scaled by e^-d, so nothing cancels.
    """
    import numpy as np

    rows = ([(lo, hi, -math.expm1((lo - hi) / kT)) for lo, hi in windows]
            + [(mu, mu, 1.0) for mu in points])     # numerator 1 - e^-2d
    return np.concatenate([_graded_block(model, kT, rows[i:i + _BLOCK_ROWS])
                           for i in range(0, len(rows), _BLOCK_ROWS)])


def _graded_block(model: TransmissionModel, kT: float, rows):
    """``_graded_rule`` on rows of (mu_lo, mu_hi, Fermi numerator)."""
    import numpy as np

    steps16, weights16 = _gauss_legendre()
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
        E = edges[row, col] + width * steps16          # (16, panels)
        a, eps = np.abs(E - centre), E - res.energy
        den = (eps * eps + res.Gamma * res.Gamma) * (
            np.exp((a - d) / kT) + np.exp((a + d) / -kT) + scale)
    sums = np.bincount(row[None].repeat(16, 0).ravel(),
                       (weights16 * width / den).ravel(), len(rows))
    return sums * (res.Gamma * res.Gamma * (1.0 - abs(res.q) ** 2)) * table[8]


def _integrals(model: TransmissionModel, kT: float, biases, mus):
    """(ballistic current in A, unit-weight deficit in meV) of each bias,
    signed like it, and dip share of G / G0 at each mu (None if sharp:
    G = G0 T(mu)).

    Each distinct sorted window (+V and -V share one) is evaluated once,
    its ballistic current next to its deficit, and so is each mu, as one
    row on one of three paths: a sharp row in the T = 0 closed form; a row
    whose lowest mu lies at least 40 kT above the coupled subband bottom in
    the digamma closed form; every other row as a row of one
    ``_graded_rule`` call.  -V takes the ballistic current 0.0 - I(+V) and
    the deficit 0.0 - D(+V), so a zero stays +0.0."""
    res = model.resonance
    bottom = model.modes[model.coupled_index].bottom_energy
    tail, scale = FERMI_TAIL_KT * kT, (1.0 - abs(res.q) ** 2) * res.Gamma
    windows, pairs = {}, []
    rows = {}   # each graded window -> its biases' (index, negative)s
    sharp = digamma = 0
    for i, b in enumerate(biases):
        negative = b.mu_source < b.mu_drain
        window = lo, hi = ((b.mu_source, b.mu_drain) if negative
                           else (b.mu_drain, b.mu_source))
        if window not in windows:
            if not _sharp(kT, lo, hi):
                # integral of f from bottom to inf = kT softplus((mu - b)/kT)
                ballistic = CURRENT_PER_MEV * sum([
                    _softplus_energy(hi, m.bottom_energy, kT)
                    - _softplus_energy(lo, m.bottom_energy, kT)
                    for m in model.modes])
                slope = (_digamma_slope(res, kT, lo, hi)
                         if lo - tail >= bottom else None)
                if slope is None:
                    windows[window] = ballistic, None, None
                else:
                    digamma += 1
                    deficit = scale * ((hi - lo) / (2 * math.pi * kT)) * slope
                    windows[window] = ballistic, deficit, 0.0 - deficit
            else:
                sharp += 1
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
    dips, points = [], []   # points: each graded mu's index in dips
    for mu in mus:
        dip = None
        if _sharp(kT, mu):
            sharp += 1
        elif mu - tail >= bottom and (
                slope := _digamma_slope(res, kT, mu, mu)) is not None:
            digamma += 1
            dip = scale / (2 * math.pi) * slope / kT
        else:
            points.append(len(dips))
        dips.append(dip)
    paths = ROW_PATHS.get()
    if paths is not None:
        paths["sharp"] += sharp
        paths["digamma"] += digamma
        paths["graded"] += len(rows) + len(points)
    if not (rows or points):
        return pairs, dips
    graded = _graded_rule(model, kT, list(rows),
                          [mus[j] for j in points]).tolist()
    for deficit, biases_of_row in zip(graded, rows.values()):
        for i, negative in biases_of_row:
            pairs[i] = pairs[i][0], 0.0 - deficit if negative else deficit
    for j, dip in zip(points, graded[len(rows):]):
        dips[j] = dip / kT
    return pairs, dips


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
    the conductances are rows of one ``_integrals`` pass.

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
    as a digamma or graded row.  A k_B T below the float spacing at mu is a
    step."""
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
    """The ``iv_curve`` of each model: at T = 0 from the closed forms on
    floats, at T > 0 from one ``_integrals`` pass, a deficit row per
    distinct nonzero-bias window and a dip row per distinct mu, each sharp,
    digamma (40 kT clear of the coupled subband bottom) or graded; G once at
    each distinct mu."""
    V_grid = list(V_grid)
    if not V_grid or any(b <= a for a, b in zip(V_grid, V_grid[1:])):
        raise ValueError("bias grid must be nonempty and strictly increasing")
    mu0, T = config.mu_source, config.temperature
    biases = [BiasPoint(mu0 + V / 2, mu0 - V / 2, T) for V in V_grid]
    kT = thermal_energy(T)
    mus = sorted({mu for b in biases for mu in (b.mu_source, b.mu_drain)})
    if kT == 0:     # closed forms: ``current`` per bias, G0 T(mu) per mu
        currents = [[current(b, m) if V else 0.0
                     for V, b in zip(V_grid, biases)] for m in models]
        dips = [None] * len(mus)
        if (paths := ROW_PATHS.get()) is not None:
            paths["sharp"] += len(mus)
    else:
        moving = [b for V, b in zip(V_grid, biases) if V]
        pairs, dips = _integrals(models[0], kT, moving, mus)
        pairs = iter(pairs)
        parts = [next(pairs) if V else (0.0, 0.0) for V in V_grid]
        currents = [[ballistic - m.weight * (CURRENT_PER_MEV * deficit)
                     for ballistic, deficit in parts] for m in models]
    G = (dict(zip(mus, (_conductance(m, kT, mu, dip)
                        for mu, dip in zip(mus, dips)))) for m in models)
    G_diff = [[(g[b.mu_source] + g[b.mu_drain]) / 2 for b in biases]
              for g in G]     # one model's G held at a time
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
