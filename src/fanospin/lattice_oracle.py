"""Brute-force transmission oracle: 1D tight-binding chain with one
side-coupled level.

The infinite chain has dispersion E(k) = -2 t cos(k).  Eliminating the side
level exactly gives an energy-dependent on-site scatterer sigma(E) =
tp^2 / (E - eps_d) at the attachment site; the scattering amplitudes follow
from matching plane-wave solutions across that site:

    tau(E) = 2 i t sin(k) / (2 i t sin(k) - sigma(E)),   r = tau - 1.

This is the retarded-Green's-function (self-energy) route; it involves no
lineshape ansatz, so it serves as an independent check of the analytic Fano
formula in the weak-coupling limit.  ``oracle_transmission`` takes a
float or a numpy array and uses the real form
|tau|^2 = v^2 d^2 / (v^2 d^2 + tp^4) = 1 / (1 + (sigma/v)^2), v = 2 t sin k,
d = E - eps_d, so ``compare_to_fano`` evaluates both lineshapes once on its
whole grid.

The dip minimum is eps_d exactly and its half-depth points are roots of a
quartic, so the oracle needs no optimiser and no bracketing search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import GAMMA_MIN
from .fano import fano_transmission


class BandEdgeError(ValueError):
    """Energy outside the propagating band |E| < 2t."""


class ExtractionError(RuntimeError):
    """No dip, a dip flank that never recovers to half depth, or a dip that
    floating point cannot resolve."""


@dataclass(frozen=True)
class OracleLattice:
    hopping_t: float        # meV, > 0
    site_energy_eps_d: float  # side-level energy relative to band center, meV
    coupling_tp: float      # wire <-> level hook, meV, >= 0

    def __post_init__(self):
        if not (0 < self.hopping_t < np.inf and 0 <= self.coupling_tp < np.inf
                and -np.inf < self.site_energy_eps_d < np.inf):
            raise ValueError(f"need finite hopping_t > 0, coupling_tp >= 0 "
                             f"and site_energy_eps_d: {self}")

    @property
    def band_edge(self) -> float:
        return 2.0 * self.hopping_t


def oracle_transmission(E, lattice: OracleLattice):
    """|tau|^2 = v^2 d^2 / (v^2 d^2 + tp^4) = 1 / (1 + s^2), s = sigma / v
    = tp^2 / (v d), v = 2 t sin k = sqrt(4 t^2 - E^2), d = E - eps_d.

    Evaluated as 1 / (1 + s^2) in units of t, with tp/t entering each
    factor once, so no power of it under- or overflows: s is infinite and T
    exactly 0 at E = eps_d for every tp > 0, and T = 1 at every E for
    tp = 0.  E is a float or an array (a float comes back as a float);
    BandEdgeError if any energy is outside the band.
    """
    E = np.asarray(E, dtype=float)
    inside = np.abs(E) < lattice.band_edge
    if not inside.all():
        raise BandEdgeError(
            f"|E| = {np.abs(E[~inside]).flat[0]} meV is outside the band "
            f"(edge {lattice.band_edge} meV)")
    t, tp = lattice.hopping_t, lattice.coupling_tp
    if tp == 0:
        T = np.ones_like(E)
    else:
        e, p = E / t, tp / t
        x = np.sqrt((2.0 - e) * (2.0 + e)) * ((E - lattice.site_energy_eps_d)
                                              / t)      # v d / t^2
        with np.errstate(divide="ignore", over="ignore"):
            s = p / x * p
            T = 1.0 / (1.0 + s * s)
    return float(T) if T.ndim == 0 else T


def dip_minimum(lattice: OracleLattice) -> float:
    """Energy of the transmission minimum: the side level itself, where
    sigma diverges and T = 0 exactly (perfect antiresonance)."""
    if lattice.coupling_tp == 0:
        raise ExtractionError("decoupled level: transmission has no dip")
    eps_d = lattice.site_energy_eps_d
    if abs(eps_d) >= lattice.band_edge:
        raise ExtractionError("side level lies outside the band")
    return eps_d


def effective_broadening(lattice: OracleLattice) -> float:
    """Half-width at half depth of the oracle dip, mean of both sides.

    T = 1/2 where sigma^2 = v^2, i.e. (E - eps_d)^2 (4 t^2 - E^2) = tp^4,
    whose real roots all lie in the band.  In w = sigma / t (eta = eps_d / t,
    p = tp / t) it reads w^4 - (4 - eta^2) w^2 + 2 eta p^2 w + p^4 = 0; the
    roots next to the dip are the O(1) ones of largest |w| on each side, so
    numpy.roots resolves them at any coupling.  Newton steps on the quartic
    polish each; the half-width is tp^2 / (t |w|).  A side without a real
    root (flank never back up to 1/2) raises ExtractionError, and so does a
    tp/t whose quartic overflows or a width whose square underflows.
    """
    eps_d = dip_minimum(lattice)
    t, tp = lattice.hopping_t, lattice.coupling_tp
    eta, p2 = eps_d / t, (tp / t) * (tp / t)
    quartic = [1.0, 0.0, eta * eta - 4.0, 2.0 * eta * p2, p2 * p2]
    if not np.isfinite(quartic).all():
        raise ExtractionError(
            f"tp/t = {tp / t:g} overflows the half-width quartic")
    slope = np.polyder(quartic)
    real = [r.real for r in np.roots(quartic) if r.imag == 0]
    widths = []
    for side in (-1.0, 1.0):
        w = max((r for r in real if side * r > 0), key=abs, default=None)
        if w is None:
            raise ExtractionError(
                f"dip flank on the {'low' if side < 0 else 'high'}-energy "
                f"side does not recover to T = 1/2 inside the band")
        for _ in range(3):
            w -= np.polyval(quartic, w) / np.polyval(slope, w)
        widths.append(tp * (tp / t) / abs(float(w)))
    gamma = 0.5 * (widths[0] + widths[1])
    if gamma < GAMMA_MIN:
        raise ExtractionError(
            f"Gamma_eff = {gamma:g} meV at tp/t = {tp / t:g} is too narrow: "
            f"its square underflows")
    return gamma


def compare_to_fano(lattice: OracleLattice,
                    window_halfwidth: float = 5.0,
                    n_points: int = 1001):
    """Max |T_oracle - T_fano| over a grid of n_points spanning
    +- window_halfwidth * Gamma_eff about the oracle dip minimum, with the
    Fano detuning measured from that minimum and Gamma = Gamma_eff.

    Returns (max_deviation, Gamma_eff, grid, T_oracle, T_fano).
    """
    if lattice.coupling_tp == 0:
        grid = np.linspace(-lattice.band_edge * 0.5,
                           lattice.band_edge * 0.5, n_points)
        ones = np.ones_like(grid)
        return 0.0, 0.0, grid, ones, ones
    E_min = dip_minimum(lattice)
    gamma = effective_broadening(lattice)
    half = window_halfwidth * gamma
    edge = lattice.band_edge * (1.0 - 1e-9)
    lo = max(E_min - half, -edge)
    hi = min(E_min + half, edge)
    step = (hi - lo) / max(n_points - 1, 1)
    spacing = float(np.spacing(max(abs(lo), abs(hi))))
    if step < spacing:
        raise ExtractionError(
            f"Gamma_eff = {gamma:g} meV is not resolvable at {E_min:g} meV: "
            f"the grid step {step:g} meV is below the float spacing "
            f"{spacing:g} meV")
    grid = np.linspace(lo, hi, n_points)
    t_oracle = oracle_transmission(grid, lattice)
    t_fano = fano_transmission(grid - E_min, gamma, 0j)
    dev = float(np.max(np.abs(t_oracle - t_fano)))
    return dev, gamma, grid, t_oracle, t_fano
