"""Two-electron dot spectrum under exchange and spin-orbit interaction.

H = (eps1 + U_C) - J S0.S1 + beta L1z S1z on the 8 product states
|l1z, s0z, s1z> with l1z = +-1 (excited-orbital angular momentum
projection) and s0z, s1z = +-1/2 (ground / excited electron spins).

The spectrum is elementary and is taken in closed form.  Per l1z branch,
with e = eps1 + U_C and r = sqrt(J^2 + beta^2)/2:

- the stretched triplets |up,up> and |down,down> at (e - J/4) +- l1z beta/2;
- the flip-flop pair at (e - J/4) + (J/2 -+ r), the lower member with
  triplet probability 1/2 + J/(4r) and the upper with 1/2 - J/(4r).

The sums are parenthesised as written so that at beta = 0 the flip-flop
triplet equals the stretched one bit for bit.  ``target_level`` takes the
tunnelling target, the lowest |up,up> level eps1 + U_C - J/4 - |beta|/2,
straight from the config.  The tests check the closed form against the
eigenvalues of the 8x8 matrix.

Energies are measured from the one-electron ground level: a level energy is
directly the energy an incoming wire electron must supply.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum

from .constants import CONSTANTS
from .config import (ConfigError, DeviceConfig, gamma_unresolved,
                     resonance_energy)

DEGENERACY_TOL = 1e-10          # meV, for grouping coincident levels
CHARACTER_TIE_TOL = 1e-9        # triplet-probability tie -> Mixed
#: A splitting counts as resolved above the broadening when it is at least
#: this many Gamma (the non-demolition verdict).
VERDICT_MARGIN = 3.0


class Character(Enum):
    SINGLET = "Singlet"
    TRIPLET = "Triplet"
    MIXED = "Mixed"


@dataclass(frozen=True)
class Level:
    energy: float                # meV, relative to the ground level
    character: Character
    sz_total: float              # sum over degenerate members (0 if mixed)
    l1z: int                     # +-1, or 0 when a group spans both branches
    degeneracy: int
    parallel_accessible: bool    # contains the spin-aligned |up,up> state


@dataclass(frozen=True)
class ResonanceSpec:
    energy: float                # meV, relative to the ground level
    Gamma: float                 # meV
    q: complex                   # Re q = 0, |q| <= 1: else T > 1 somewhere

    def __post_init__(self):
        if not (self.Gamma > 0 and self.q.real == 0 and abs(self.q) <= 1):
            raise ValueError(f"need Gamma > 0, Re q = 0 and |q| <= 1: {self}")


@dataclass(frozen=True)
class MarginReport:
    satisfied: bool
    ratio: float                 # splitting / Gamma


_State = namedtuple("_State", "energy character sz l1z up_up")


def _states(e: float, J: float, beta: float) -> list[_State]:
    """The 8 eigenstates of H with e = eps1 + U_C, in closed form.

    A flip-flop state is Mixed when its triplet probability 1/2 +- J/(4r)
    is 1/2 within CHARACTER_TIE_TOL, or when r = 0 and any basis
    diagonalises it.
    """
    base = e - J / 4
    r = math.hypot(J, beta) / 2
    if r == 0 or abs(J / r) / 4 <= CHARACTER_TIE_TOL:
        lower = upper = Character.MIXED
    elif J > 0:
        lower, upper = Character.TRIPLET, Character.SINGLET
    else:
        lower, upper = Character.SINGLET, Character.TRIPLET
    states = []
    for l1z in (-1, +1):
        split = l1z * beta / 2
        states += [_State(base + split, Character.TRIPLET, 1.0, l1z, True),
                   _State(base - split, Character.TRIPLET, -1.0, l1z, False),
                   _State(base + (J / 2 - r), lower, 0.0, l1z, False),
                   _State(base + (J / 2 + r), upper, 0.0, l1z, False)]
    return states


def eigenlevels(config: DeviceConfig) -> tuple[Level, ...]:
    """The labeled level diagram of the closed-form spectrum, ascending.

    Levels coincident in energy within DEGENERACY_TOL are merged; a merged
    level is Mixed when its members' characters differ, reports l1z = 0
    when it spans both orbital branches and sz_total as the sum over its
    members.  Its energy is that of its lowest spin-aligned (|up,up>)
    member if it has one, else of its lowest member, so the lowest
    spin-aligned level reads exactly the ``target_level`` energy.
    """
    states = sorted(_states(config.eps1 + config.U_C, config.J,
                            config.beta_value), key=lambda s: s.energy)
    groups: list[list[_State]] = []
    for s in states:
        if groups and s.energy - groups[-1][0].energy <= DEGENERACY_TOL:
            groups[-1].append(s)
        else:
            groups.append([s])

    levels = []
    for grp in groups:
        chars = {s.character for s in grp}
        l1zs = {s.l1z for s in grp}
        levels.append(Level(
            energy=([s for s in grp if s.up_up] or grp)[0].energy,
            character=chars.pop() if len(chars) == 1 else Character.MIXED,
            sz_total=sum(s.sz for s in grp),
            l1z=l1zs.pop() if len(l1zs) == 1 else 0,
            degeneracy=len(grp),
            parallel_accessible=any(s.up_up for s in grp),
        ))
    return tuple(levels)


def target_level(config: DeviceConfig) -> ResonanceSpec:
    """Resonance the wire electron tunnels to, the spin-aligned stretched
    triplet of the lower spin-orbit branch: eps1 + U_C - J/4 - |beta|/2.

    Raises ConfigError naming Gamma when E_res +- Gamma rounds to E_res:
    such a dip is narrower than floating point can resolve at E_res."""
    E_res = resonance_energy(config.eps1, config.U_C, config.J,
                             config.beta_value)
    errs = gamma_unresolved(E_res, config.Gamma)
    if errs:
        raise ConfigError(errs)
    return ResonanceSpec(energy=E_res, Gamma=config.Gamma, q=config.q)


def spin_flip_blocked(config: DeviceConfig) -> MarginReport:
    """Spin flips are energetically forbidden when the spin-orbit splitting
    dominates the level broadening: |beta| >= VERDICT_MARGIN * Gamma."""
    ratio = abs(config.beta_value) / config.Gamma
    return MarginReport(satisfied=ratio >= VERDICT_MARGIN, ratio=ratio)


def levels_distinguishable(config: DeviceConfig) -> MarginReport:
    """Singlet and triplet resonances resolve when
    |J| >= VERDICT_MARGIN * Gamma."""
    ratio = abs(config.J) / config.Gamma
    return MarginReport(satisfied=ratio >= VERDICT_MARGIN, ratio=ratio)


def spin_flip_time(J: float) -> float:
    """Exchange-driven spin-flip timescale hbar/|J| in seconds, inf at
    J = 0."""
    return CONSTANTS.hbar / abs(J) if J else math.inf

