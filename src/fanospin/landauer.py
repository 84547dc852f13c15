"""Finite-temperature Landauer current and differential conductance.

I = (e/h) * sum_i integral dE T_i(E) [f_s(E) - f_d(E)], spin-polarized
prefactor e/h (no factor 2).  Ballistic mode contributions have a closed
form.  The current deficit carved out by the Fano dip is scaled by the
spin-channel weight, so the antiparallel deficit is half the parallel one
to machine precision.  At kT = 0 a bias window is one ``_sharp_window``
call (the open widths and ``fano.dip_integral``), and a point G0 T(mu).

At T > 0 every deficit and every dip share of the linear conductance is a
row, evaluated on one of three paths.  A row depends only on its sorted
pair of chemical potentials, so I(-V) = -I(V) holds exactly, +V and -V
share one row, and an I-V curve's dI/dV is the exact [G(mu_s) + G(mu_d)] /
2.  Each row is its own computation, so a curve point equals its own
``current`` and ``linear_conductance`` calls bit for bit.

- Sharp: at a zero-width window, or where every mu +- 40 kT rounds to mu
  and no point is on a subband bottom, the T = 0 closed forms are exact.
- Digamma: where the row's lowest mu lies at least 40 kT above the coupled
  subband bottom, the Fermi-window integral of the Lorentzian dip over the
  whole line is closed.  Its poles are E_res + i Gamma and the Matsubara
  poles mu + i pi kT (2n + 1); with z(mu) = 1/2 + (Gamma + i (mu - E_res))
  / (2 pi kT), a window row is (1 - |q|^2) Gamma Im[psi(z(mu_hi)) -
  psi(z(mu_lo))] and a point row (1 - |q|^2) (Gamma / 2 pi) Re psi'(z(mu))
  (Abramowitz and Stegun 6.3.5, 6.3.18, 6.4.12), on floats, unless Gamma
  << 2 pi kT with E_res far outside the window, where it loses digits.
- Graded: every other row is a row of one ``_graded_rule`` call:
  composite 16-point Gauss-Legendre on one piece of the row per centre
  (E_res, mu_lo, mu_hi), graded geometrically (ratio 2) toward it and
  measured from it, so no panel is wider than its distance to the nearest
  pole: exact to rounding at any window width and chemical potential.

Only the graded rule computes with arrays, so numpy is imported there, on
its first call: a curve or report whose rows are all sharp or closed runs
on floats alone.  While ``ROW_PATHS`` holds a dict, each row adds one to
the count of its path, a kT = 0 window or point to "sharp".
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from contextvars import ContextVar
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

#: A dict of row counts per path, which the rows add to while set.
ROW_PATHS: ContextVar[dict | None] = ContextVar("ROW_PATHS", default=None)

#: psi(w) - ln w + u/2 for |w| >= 10, u = 1/w, as a polynomial in v = u^2,
#: highest power first: -sum_k B_2k v^k / 2k for k = 1..8 (Abramowitz and
#: Stegun 6.3.18); the first term left out is below 4e-18 there.
_PSI_SERIES = (3617 / 8160, -1 / 12, 691 / 32760, -1 / 132, 1 / 240,
               -1 / 252, 1 / 120, -1 / 12, 0.0)

#: A row is closed only while the real part of its slope holds at least
#: this share of the modulus.  Below it (Gamma << 2 pi kT, E_res far
#: outside the window) the real part would lose digits to the imaginary
#: one, and the row goes to the graded rule.
_DIRECT_SHARE = 1 / 16

#: The largest |z| a closed row takes: beyond it Re psi' ~ Re z / |z|^2
#: could fall toward the subnormal range.
_Z_MAX = 1e150


@cache
def _gauss_legendre():
    """16-point Gauss-Legendre node offsets and weights on a unit panel."""
    import numpy as np

    nodes, weights = np.polynomial.legendre.leggauss(16)
    return (nodes + 1) / 2, weights / 2


BiasPoint = namedtuple("BiasPoint", "mu_source mu_drain temperature")  # meV, K
IVPoint = namedtuple("IVPoint", "V_sd I G_diff")    # mV, A, S


class IVCurve(namedtuple("IVCurve", "V_sd I G_diff")):
    """Columns of floats, one entry per bias: V_sd, I and G_diff; ``points``
    builds one ``IVPoint`` per bias on each access."""
    __slots__ = ()

    @property
    def points(self) -> tuple[IVPoint, ...]:
        return tuple(map(IVPoint, self.V_sd, self.I, self.G_diff))


def _open_width(lo: float, hi: float, bottom: float, kT: float) -> float:
    """The integral over E > bottom of f_hi - f_lo in meV (lo <= hi, kT >
    0): kT log1p(expm1(dx) f), dx = (hi - lo) / kT and f = 1 / (1 + e^y),
    y = (bottom - lo) / kT, with the window as a factor.  Past dx = 700 it
    is the T = 0 width plus kT [ln(1 + e^-|x_hi|) - ln(1 + e^-|x_lo|)],
    x_mu = (mu - bottom) / kT."""
    dx, y = (hi - lo) / kT, (bottom - lo) / kT
    if dx > 700:
        width = hi - (lo if lo > bottom else bottom) if hi > bottom else 0.0
        return width + kT * (math.log1p(math.exp(-abs(hi - bottom) / kT))
                             - math.log1p(math.exp(-abs(y))))
    if y > 0:   # expm1(dx) f as e^(dx - y) (1 - e^-dx) / (1 + e^-y)
        g = math.exp(dx - y) * -math.expm1(-dx) / (1.0 + math.exp(-y))
    else:
        g = math.expm1(dx) / (1.0 + math.exp(y))
    return kT * math.log1p(g)


def _sharp_window(model: TransmissionModel, lo: float, hi: float):
    """(ballistic current in A, unit-weight deficit in meV) of [lo, hi] at
    T = 0, one sharp row; lo > hi gives 0.0 - those of [hi, lo] (+0.0)."""
    if lo > hi:
        ballistic, deficit = _sharp_window(model, hi, lo)
        return 0.0 - ballistic, 0.0 - deficit
    if (paths := ROW_PATHS.get()) is not None:
        paths["sharp"] += 1
    ballistic, bottom = 0.0, model.modes[model.coupled_index].bottom_energy
    for edge, _ in model.lineshape[4]:
        ballistic += hi - (lo if lo > edge else edge) if hi > edge else 0.0
    lo = lo if lo > bottom else bottom  # no dip below the subband
    return (CURRENT_PER_MEV * ballistic,
            dip_integral(model.resonance, lo, hi) if lo < hi else 0.0)


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


def _digamma_slope(resonance, kT: float, lo: float, hi: float):
    """Re[psi(z(hi)) - psi(z(lo))] / Im[z(hi) - z(lo)], or Re psi'(z(hi))
    at lo == hi, for z(mu) = 1/2 + (Gamma + i (mu - E_res)) / (2 pi kT);
    None where |z| reaches ``_Z_MAX`` or the real part is below
    ``_DIRECT_SHARE`` of the slope's modulus."""
    s = 2 * math.pi * kT
    a, y, dy = resonance.Gamma / s, (hi - resonance.energy) / s, (hi - lo) / s
    if a < _Z_MAX and -_Z_MAX < y - dy and y < _Z_MAX:
        slope = _psi_slope(complex(0.5 + a, y), complex(0.0, dy))
        if abs(slope.real) >= _DIRECT_SHARE * abs(slope):
            return slope.real
    return None


def _graded_rule(model: TransmissionModel, kT: float, windows, points):
    """Unit-weight dip integrals in meV, all rows in one pass: over each
    window (mu_lo, mu_hi) of (1 - T_fano) (f_hi - f_lo), at each point mu
    of (1 - T_fano) kT (-df/dE).

    A row spans [max(bottom, min(mu_lo, E_res) - 40 kT), max(mu_hi, E_res)
    + 40 kT], so it reaches a dip narrower than kT outside the window, cut
    746 kT outside [mu_lo, mu_hi], where the Fermi factor is 0, and empty
    where mu_hi + 40 kT lies at or below the bottom.  Cut halfway between
    its sorted centres E_res, mu_lo and mu_hi, each piece has breakpoints
    c, c +- 2^k min(Gamma, pi kT) (k < n) about its centre c, clipped to its
    ends.  n comes from the widest piece of a block of ``_BLOCK_ROWS`` rows
    (which bounds a long call's memory); steps past a piece's ends clip to
    zero width and are dropped, so each row sees the panels of its one-row
    call and bincount sums them in the same order: bit for bit.

    The Fermi factor is numerator f(x_hi) f(-x_lo), f(x) = 1 / (1 + e^x),
    x_mu = (E - mu) / kT, with numerator 1 - e^((mu_lo - mu_hi) / kT), or 1
    at a point: each factor lies in [0, 1], so nothing cancels.
    """
    import numpy as np

    rows = ([(lo, hi, -math.expm1((lo - hi) / kT)) for lo, hi in windows]
            + [(mu, mu, 1.0) for mu in points])
    return np.concatenate([_graded_block(model, kT, rows[i:i + _BLOCK_ROWS])
                           for i in range(0, len(rows), _BLOCK_ROWS)])


def _graded_block(model: TransmissionModel, kT: float, rows):
    """``_graded_rule`` on rows of (mu_lo, mu_hi, Fermi numerator); nodes
    are offsets o from their piece's centre c, poles at E_res - c, mu - c."""
    import numpy as np

    steps16, weights16 = _gauss_legendre()
    res, tail, reach = model.resonance, FERMI_TAIL_KT * kT, 746 * kT
    E_res, scale = res.energy, min(res.Gamma, math.pi * kT)
    bottom = model.modes[model.coupled_index].bottom_energy
    table, extent = [], scale   # per piece: ends, E_res, mu_lo, mu_hi; row
    for i, (lo, hi, _) in enumerate(rows):
        if (hi - bottom) + tail <= 0:
            continue    # the row lies below the bottom, and is 0
        c0, c1, c2 = ((E_res, lo, hi) if E_res < lo else
                      (lo, hi, E_res) if E_res > hi else (lo, E_res, hi))
        h0, h1 = (c1 - c0) / 2, (c2 - c1) / 2
        for c, a, b in ((c0, -tail, h0), (c1, -h0, h1), (c2, -h1, tail)):
            # bottom and reach in c's frame; max() calls would cost more
            a = x if (x := bottom - c) > a else a
            a = x if (x := (lo - c) - reach) > a else a
            b = x if (x := (hi - c) + reach) < b else b
            if a < b:
                table += a, b, E_res - c, lo - c, hi - c, i
                extent = max(extent, b, -a)
    n = 1 + math.ceil(math.log2(extent) - math.log2(scale))
    steps = np.ldexp(scale, np.arange(n))
    ladder = np.concatenate(([-np.inf], -steps[::-1], [0], steps, [np.inf]))
    table = np.array(table, float).reshape(-1, 6).T
    lower, upper = table[:2, :, None]
    edges = np.minimum(np.maximum(ladder, lower), upper)    # still sorted
    width = edges[:, 1:] - edges[:, :-1]
    piece, col = np.nonzero(width)
    width = width[piece, col]
    e_res, e_lo, e_hi, row = table[2:].take(piece, 1)[..., None]
    o = edges[piece, col][:, None] + width[:, None] * steps16  # (panels, 16)
    with np.errstate(over="ignore"):                # e^inf gives f = 0
        eps = o - e_res
        den = ((eps * eps + res.Gamma * res.Gamma)
               * (1.0 + np.exp((o - e_hi) / kT))
               * (1.0 + np.exp((e_lo - o) / kT)))
    # sum(1) adds a panel's 16 nodes in one order whatever the panel count
    sums = np.bincount(row[:, 0].astype(np.intp),
                       (weights16 / den).sum(1) * width, len(rows))
    return (sums * (res.Gamma * res.Gamma * (1.0 - abs(res.q) ** 2))
            * np.array(rows)[:, 2])     # the Fermi numerators


def _integrals(model: TransmissionModel, kT: float, biases, mus):
    """(ballistic current in A, unit-weight deficit in meV) of each bias,
    signed like it, and dip share of G / G0 at each mu (None if sharp:
    G = G0 T(mu)), for kT > 0.

    One table maps each distinct sorted window (lo, hi), which +V and -V
    share, to its [ballistic, deficit]: each window and each mu is one row
    on one of three paths.  Sharp (zero width, or each mu +- 40 kT rounds to
    mu and no point is on a subband bottom): the T = 0 closed form
    ``_sharp_window``.  Digamma: a row whose lowest mu lies at least 40 kT
    above the coupled subband bottom, where ``_digamma_slope`` takes it.
    Graded: every other row, as a row of one ``_graded_rule`` call, which
    fills its deficit in.  A bias with mu_source < mu_drain reads its
    window's pair as 0.0 - each, so a zero stays +0.0."""
    res = model.resonance
    bottoms = [m.bottom_energy for m in model.modes]
    bottom = bottoms[model.coupled_index]
    tail, scale = FERMI_TAIL_KT * kT, (1.0 - abs(res.q) ** 2) * res.Gamma
    windows = dict.fromkeys((s, d) if s < d else (d, s) for s, d, _ in biases)
    graded, sharp, digamma = [], 0, 0   # graded: the windows still to fill
    for lo, hi in windows:
        if lo == hi or (lo - tail == lo == lo + tail
                        and hi - tail == hi == hi + tail):
            windows[lo, hi] = list(_sharp_window(model, lo, hi))
            continue
        deficit = None
        if lo - bottom >= tail and (
                slope := _digamma_slope(res, kT, lo, hi)) is not None:
            digamma += 1
            deficit = scale * ((hi - lo) / (2 * math.pi * kT)) * slope
        else:
            graded.append((lo, hi))
        windows[lo, hi] = [CURRENT_PER_MEV * sum([
            _open_width(lo, hi, b, kT) for b in bottoms]), deficit]
    dips, points = [], []   # points: each graded mu's index in dips
    for mu in mus:
        dip = None
        if mu - tail == mu == mu + tail and mu not in bottoms:
            sharp += 1
        elif mu - bottom >= tail and (
                slope := _digamma_slope(res, kT, mu, mu)) is not None:
            digamma += 1
            dip = scale / (2 * math.pi) * slope / kT
        else:
            points.append(len(dips))
        dips.append(dip)
    if (paths := ROW_PATHS.get()) is not None:
        paths["sharp"] += sharp
        paths["digamma"] += digamma
        paths["graded"] += len(graded) + len(points)
    if graded or points:
        rows = _graded_rule(model, kT, graded,
                            [mus[j] for j in points]).tolist()
        for window, deficit in zip(graded, rows):
            windows[window][1] = deficit
        for j, dip in zip(points, rows[len(graded):]):
            dips[j] = dip / kT
    return [windows[d, s] if s >= d else [0.0 - x for x in windows[s, d]]
            for s, d, _ in biases], dips


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
    temperature, each equal to its own call bit for bit: at kT = 0 the
    closed forms, else rows of one ``_integrals`` pass.

    The deficit is computed as its own integral (not by subtracting two
    currents), so weight scaling and the parallel/antiparallel ratio are
    exact.
    """
    kT = thermal_energy(bias.temperature)
    if kT == 0:
        I_ball, dip = _sharp_window(model, bias.mu_drain, bias.mu_source)
        return (I_ball, model.weight * (CURRENT_PER_MEV * dip),
                *[linear_conductance(model, 0.0, mu) for mu in mus])
    ((ballistic, deficit),), dips = _integrals(model, kT, [bias], mus)
    return (ballistic, model.weight * (CURRENT_PER_MEV * deficit),
            *[_conductance(model, kT, mu, dip) for mu, dip in zip(mus, dips)])


def current(bias: BiasPoint, model: TransmissionModel) -> float:
    """Landauer current in amperes."""
    if thermal_energy(bias.temperature):
        ballistic, deficit = current_components(bias, model)
        return ballistic - deficit
    I_ball, dip = _sharp_window(model, bias.mu_drain, bias.mu_source)
    return I_ball - model.weight * (CURRENT_PER_MEV * dip)


def linear_conductance(model: TransmissionModel, temperature: float,
                       mu: float) -> float:
    """dI/dV at V = 0, in S, exactly: G0 T(mu) at T = 0, else
    G0 [sum_m f(bottom_m) - w integral_bottom^inf (1 - T_fano)(-df/dE) dE]
    as a digamma or graded row; a step where k_B T is below the float
    spacing at mu, unless mu lies on a subband bottom."""
    kT = thermal_energy(temperature)
    if kT == 0:
        if (paths := ROW_PATHS.get()) is not None:
            paths["sharp"] += 1
        return G0 * total_transmission(mu, model)
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
    """The ``iv_curve`` of each model, as columns.  At kT = 0: a ``current``
    call per nonzero bias.  At T > 0: one ``_integrals`` pass, a deficit
    row per distinct nonzero-bias window and a dip row per distinct mu
    (sharp, digamma or graded).  At both, G once at each distinct mu, G0
    T(mu) at kT = 0."""
    V_grid = tuple(map(float, V_grid))     # the curves' shared V_sd column
    if not V_grid or any(b <= a for a, b in zip(V_grid, V_grid[1:])):
        raise ValueError("bias grid must be nonempty and strictly increasing")
    mu0, T = config.mu_source, config.temperature
    biases = [BiasPoint(mu0 + V / 2, mu0 - V / 2, T) for V in V_grid]
    mus = sorted({mu for b in biases for mu in b[:2]})
    kT = thermal_energy(T)
    if kT == 0:     # closed forms, each point its own calls
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
    return tuple(IVCurve(V_grid, tuple(I), tuple(dIdV))
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
    return _iv_curves(config, V_grid, model, model._replace(
        orientation=SpinOrientation.ANTIPARALLEL))
