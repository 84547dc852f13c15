"""Independent references the closed forms in ``fanospin`` are tested
against: the dot's 8x8 Hamiltonian and the oracle's complex scattering
amplitudes."""

import math

import numpy as np

from fanospin.lattice_oracle import BandEdgeError

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
