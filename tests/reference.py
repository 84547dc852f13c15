"""Independent references the closed forms in ``fanospin`` are tested
against: the dot's 8x8 Hamiltonian and its closed-form spectrum, the
Fermi function, and the oracle's complex scattering amplitudes and
reflection."""

import math

import numpy as np

from fanospin.constants import thermal_energy
from fanospin.lattice_oracle import BandEdgeError, oracle_transmission

#: The product states |l1z, s0z, s1z>: l1z = +-1 (excited-orbital angular
#: momentum projection), s0z, s1z = +-1/2 (ground / excited electron spins).
BASIS = tuple(
    (l1z, s0z, s1z)
    for l1z in (-1, +1)
    for s0z in (-0.5, +0.5)
    for s1z in (-0.5, +0.5)
)


def two_electron_hamiltonian(config) -> np.ndarray:
    """H = (eps1 + U_C) - J S0.S1 + beta L1z S1z on ``BASIS``, 8x8 real
    symmetric, meV.

    Diagonal: (eps1 + U_C) - J s0z s1z + beta l1z s1z; the transverse part
    of the exchange couples the flip-flop partners |up,down> <-> |down,up>
    within each l1z branch with matrix element -J/2.  The dot-wire tunneling
    enters only through the broadening Gamma, never as matrix entries.
    """
    J = config.J
    H = np.zeros((8, 8))
    index = {b: i for i, b in enumerate(BASIS)}
    for i, (l1z, s0z, s1z) in enumerate(BASIS):
        H[i, i] = (config.eps1 + config.U_C - J * s0z * s1z
                   + config.beta_value * l1z * s1z)
        if s0z != s1z:
            H[i, index[(l1z, s1z, s0z)]] = -J / 2.0
    return H


def analytic_eigenvalues(J: float, beta: float) -> list[float]:
    """Closed-form spectrum relative to eps1 + U_C, with multiplicity:
    {-J/4 + beta/2, -J/4 - beta/2, J/4 + r, J/4 - r} with
    r = sqrt(J^2 + beta^2)/2, each once per l1z branch."""
    r = math.hypot(J, beta) / 2
    return sorted(2 * [-J / 4 + beta / 2, -J / 4 - beta / 2,
                       J / 4 + r, J / 4 - r])


def fermi(E, mu: float, temperature: float):
    """Fermi-Dirac occupancy; exact step (1/2 at E = mu) at T = 0.

    Overflow-safe for arbitrarily large |E - mu| / kT.
    """
    kT = thermal_energy(temperature)
    if kT == 0:
        return np.where(E < mu, 1.0, np.where(E > mu, 0.0, 0.5))[()]
    with np.errstate(over="ignore"):    # exp(inf) = inf gives f = 0
        return (1.0 / (1.0 + np.exp((np.asarray(E) - mu) / kT)))[()]


def oracle_reflection(E, lattice):
    """|r|^2 = 1 - |tau|^2 (unitarity), float or array like E."""
    return 1.0 - oracle_transmission(E, lattice)


def scattering_amplitudes(E: float, lattice) -> tuple[complex, complex]:
    """(transmission, reflection) amplitudes of the oracle chain at in-band
    energy E: tau = 2 i t sin k / (2 i t sin k - sigma), r = tau - 1."""
    if abs(E) >= lattice.band_edge:
        raise BandEdgeError(
            f"|E| = {abs(E)} meV is outside the band (edge "
            f"{lattice.band_edge} meV)")
    k = math.acos(-E / (2.0 * lattice.hopping_t))
    v = 2.0 * lattice.hopping_t * math.sin(k)   # group-velocity factor
    if lattice.coupling_tp == 0:
        return 1.0 + 0j, 0j
    if E == lattice.site_energy_eps_d:
        return 0j, -1.0 + 0j
    sigma = lattice.coupling_tp**2 / (E - lattice.site_energy_eps_d)
    tau = 1j * v / (1j * v - sigma)
    return tau, tau - 1.0
