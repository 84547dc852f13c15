"""Physical constants (CODATA 2018) and elementary unit helpers.

Internal unit conventions:
    energies        meV
    bias voltages   mV   (numerically equal to meV per electron charge)
    temperatures    K
    currents        A
    conductances    S
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalConstants:
    e: float = 1.602176634e-19          # elementary charge, C
    h: float = 6.62607015e-34           # Planck constant, J s
    k_B: float = 8.617333262e-2         # Boltzmann constant, meV/K
    hbar: float = 6.582119569e-13       # reduced Planck constant, meV s

    @property
    def G0_spin_polarized(self) -> float:
        """Conductance quantum e^2/h for a single spin-polarized mode, S."""
        return self.e**2 / self.h


CONSTANTS = PhysicalConstants()

#: The conductance quantum e^2/h of one spin-polarized mode, S, computed once.
G0 = CONSTANTS.G0_spin_polarized

# Current per (meV of transmission-weighted energy integral): e/h * (meV in J).
# I[A] = CURRENT_PER_MEV * integral_meV.
CURRENT_PER_MEV = G0 * 1e-3

# Zeeman splitting at a ~5 T field, used only as a fixed comparison scale
# when judging whether a spin-orbit splitting is large.
ZEEMAN_REFERENCE_MEV = 0.3

#: The Fermi tails beyond this many kT from every chemical potential and
#: from the resonance weigh e^-40 ~ 4e-18 of the bias window and are left
#: out; a finite-temperature row always reaches the dip itself.
FERMI_TAIL_KT = 40.0


def thermal_energy(temperature: float) -> float:
    """k_B * T in meV. Raises ValueError for negative temperature."""
    if temperature < 0:
        raise ValueError(f"temperature must be >= 0 K, got {temperature}")
    return CONSTANTS.k_B * temperature


def rashba_beta(alpha_R: float, D: float) -> float:
    """Effective spin-orbit coefficient beta = alpha_R / D (meV).

    alpha_R in meV nm, dot diameter D in nm.
    """
    if D <= 0:
        raise ValueError(f"dot diameter D must be > 0 nm, got {D}")
    return alpha_R / D
