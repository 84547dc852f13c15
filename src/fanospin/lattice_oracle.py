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

The dip minimum is eps_d exactly and each half-depth point the one root in
a bracket on its flank, both found on floats; numpy computes the arrays of
``compare_to_fano``: its grid, both lineshapes on it, their deviation.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .config import GAMMA_MIN, BandEdgeError, ExtractionError
from .fano import fano_transmission


class OracleLattice(namedtuple("OracleLattice",
                               "hopping_t site_energy_eps_d coupling_tp")):
    """The chain's hopping_t > 0, the side level's site_energy_eps_d
    relative to the band centre and its coupling_tp >= 0 to the wire, all
    finite, in meV."""
    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace checks

    def __new__(cls, hopping_t, site_energy_eps_d, coupling_tp):
        if not (0 < hopping_t < math.inf and 0 <= coupling_tp < math.inf
                and -math.inf < site_energy_eps_d < math.inf):
            raise ValueError(
                f"need finite hopping_t > 0, coupling_tp >= 0 and "
                f"site_energy_eps_d, got {hopping_t}, {coupling_tp} and "
                f"{site_energy_eps_d}")
        return super().__new__(cls, hopping_t, site_energy_eps_d, coupling_tp)

    @property
    def band_edge(self) -> float:
        return 2.0 * self.hopping_t


def oracle_transmission(E, lattice: OracleLattice):
    """|tau|^2 = v^2 d^2 / (v^2 d^2 + tp^4) = 1 / (1 + s^2), s = sigma / v
    = tp^2 / (v d), v = 2 t sin k = sqrt(4 t^2 - E^2), d = E - eps_d.

    Evaluated as 1 / (1 + s^2) in units of t, 2 -+ E/t as (2t -+ E) / t
    (halved inside, free of E/t's rounding near a band edge), with tp/t
    entering each factor once, so no power of it under- or overflows: s is
    infinite and T exactly 0 at E = eps_d for every tp > 0, and T = 1 at
    every E for tp = 0.  E is a float or an array (a float comes back as a
    float); BandEdgeError if any energy is outside the band.
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
        p, h = tp / t, E / 2
        x = np.sqrt((t - h) / t * ((t + h) / t)) * 2 * (
            (E - lattice.site_energy_eps_d) / t)        # v d / t^2
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

    In e = E/t, eta = eps_d/t and p = tp/t, T = 1/2 where h(e) = (e - eta)^2
    (4 - e^2) = p^4.  On each side h rises from 0 at the dip to one maximum,
    at e* = (eta +- sqrt(eta^2 + 32)) / 4, so a flank recovers to 1/2 exactly
    when (d*/p)^2 (4 - e*^2) >= p^2, d* = |e* - eta| (else ExtractionError).
    In u = t |E - eps_d| / tp^2 its point is the one root of u^2 (4 - e^2)
    = 1, e = eta +- p^2 u, in the bracket (0, d*/p^2]: Newton steps from the
    weak-coupling root 1/sqrt(4 - eta^2) (the peak if that root lies beyond
    it), bisecting where a step leaves the bracket, until none lands inside.
    The half-width is tp (tp/t) u; one whose square underflows (below
    GAMMA_MIN) raises ExtractionError.
    """
    eps_d = dip_minimum(lattice)
    t, tp = lattice.hopping_t, lattice.coupling_tp
    eta, p = eps_d / t, tp / t
    # 2 -+ eta as (2t -+ eps_d) / t, free of eta's rounding near a band
    # edge; halved inside, exactly, so that no finite t overflows
    below, above = (t - eps_d / 2) / t * 2, (t + eps_d / 2) / t * 2
    p2, root, gamma = p * p, math.sqrt(eta * eta + 32.0), 0.0
    for side in (-1.0, 1.0):
        rise = (eta + side * root) / 4.0 - eta          # e* - eta
        reach = abs(rise) * t / tp              # d*/p, also where p == 0
        if not reach * reach * (below - rise) * (above + rise) >= p2:
            raise ExtractionError(
                f"{'low' if side < 0 else 'high'}-energy dip flank does not "
                f"recover to T = 1/2 inside the band at tp/t = {p:g}")
        lo, hi = 0.0, reach * t / tp                    # u at dip and peak
        u = min(1.0 / math.sqrt(below * above), hi)
        while True:             # every u after the first inside (lo, hi)
            x = side * p2 * u                           # e - eta
            g = (below - x) * (above + x)               # 4 - e^2
            f = u * (u * g) - 1.0
            lo, hi = (u, hi) if f < 0 else (lo, u)
            slope = 2.0 * u * (g - side * (eta + x) * p2 * u)
            step = (u - f / slope if abs(f) < slope * (hi - lo)
                    else 0.5 * (lo + hi))   # Newton only if it stays in
            if not lo < step < hi:
                break
            u = step
        gamma += tp * p * u / 2
    if gamma < GAMMA_MIN:
        raise ExtractionError(
            f"Gamma_eff = {gamma:g} meV at tp/t = {p:g} is too narrow: "
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
    lo, hi = max(E_min - half, -edge), min(E_min + half, edge)
    step = (hi - lo) / max(n_points - 1, 1)
    spacing = math.ulp(max(abs(lo), abs(hi)))
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
