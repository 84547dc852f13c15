"""Energy-resolved wire transmission: Fano lineshape, spin-channel
weighting, multi-mode composition, and windowed mean reflection.

The dot-coupled channel carries a Fano dip T = |eps + q*Gamma|^2 /
(eps^2 + Gamma^2); T <= 1 needs Re q = 0 and |q| <= 1, so 1 - T is the
Lorentzian (1 - |q|^2) Gamma^2 / (eps^2 + Gamma^2).  When the dot spin is
antiparallel to the wire polarization only the S=1 component of the
incoming two-spin state (weight 1/2) can scatter off the resonance, so the
reflection is half the parallel one at every energy.

``fano_transmission`` and ``spin_channel_reflection`` take a float or a
numpy array of energies, bit for bit alike (only + - * / on reals);
``mode_transmission`` and ``total_transmission`` take a float.

The dip area over a sharp window is the closed form ``dip_integral``,
shared by the mean reflection and the T = 0 current deficit.
``TransmissionModel`` is a named tuple whose cached properties (the
weight, the lineshape constants, the coupled mode) live in its instance
dict, so a ``_replace`` copy computes its own.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from functools import cached_property

from .dot_spectrum import ResonanceSpec


class SpinOrientation(Enum):
    PARALLEL = "Parallel"
    ANTIPARALLEL = "Antiparallel"


#: Weight of the resonance-accessible spin channel.
CHANNEL_WEIGHT = {
    SpinOrientation.PARALLEL: 1.0,
    SpinOrientation.ANTIPARALLEL: 0.5,
}


class TransmissionModel(namedtuple("TransmissionModel",
                                   "resonance orientation modes")):
    """The dot's ``ResonanceSpec``, the ``SpinOrientation`` of the dot spin
    to the wire and the wire's tuple of ``Mode``s."""

    @cached_property
    def weight(self) -> float:
        return CHANNEL_WEIGHT[self.orientation]

    @cached_property
    def lineshape(self) -> tuple:
        """What the lineshape reads: (E_res, (Im q Gamma)^2, Gamma^2, w,
        ((bottom, coupled), ...)).  ``ResonanceSpec`` has already checked
        Gamma > 0 and Re q = 0."""
        res = self.resonance
        b = res.q.imag * res.Gamma
        return (res.energy, b * b, res.Gamma * res.Gamma, self.weight,
                tuple((m.bottom_energy, m.coupled) for m in self.modes))

    @cached_property
    def coupled_index(self) -> int:
        return next(i for i, m in enumerate(self.modes) if m.coupled)


def fano_transmission(detuning, Gamma: float, q: complex):
    """T = |eps + q Gamma|^2 / (eps^2 + Gamma^2) for Re q = 0, as
    (eps^2 + (Im q Gamma)^2) / (eps^2 + Gamma^2).

    ``detuning`` is a float or an array.  Only + - * / on reals, so a
    scalar and an array call agree bit for bit.

    Its supremum over eps is the largest eigenvalue of [[1, Re q],
    [Re q, |q|^2]], so any Re q != 0 makes T exceed 1 somewhere, which is
    unphysical for a two-terminal wire: such a q raises ValueError.
    """
    if not Gamma > 0:
        raise ValueError(f"Gamma must be > 0, got {Gamma}")
    if q.real:
        raise ValueError(f"q must have Re q = 0, got {q}")
    d2, b = detuning * detuning, q.imag * Gamma
    return (d2 + b * b) / (d2 + Gamma * Gamma)


def spin_channel_reflection(E, model: TransmissionModel):
    """R(E) = w * (1 - T_fano(E - E_res)); w = 1 parallel, 1/2 antiparallel.
    E is a float or an array; T_fano in ``fano_transmission``'s order of
    operations, from ``model.lineshape``."""
    E_res, b2, G2, w, _ = model.lineshape
    eps = E - E_res
    d2 = eps * eps
    return w * (1.0 - (d2 + b2) / (d2 + G2))


def mode_transmission(E: float, model: TransmissionModel, mode_index: int):
    """Per-mode transmission at energy E: 0.0 below the subband bottom, 1.0
    on an open uncoupled mode, the Fano dip on the open dot-coupled mode."""
    if not 0 <= mode_index < len(model.modes):
        raise IndexError(f"mode index {mode_index} out of range")
    mode = model.modes[mode_index]
    t = 1.0 - spin_channel_reflection(E, model) if mode.coupled else 1.0
    return t if E >= mode.bottom_energy else 0.0


def total_transmission(E: float, model: TransmissionModel) -> float:
    """Sum of ``mode_transmission`` over the modes at energy E, in one pass
    and in mode order: bit for bit the per-mode sum."""
    E_res, b2, G2, w, modes = model.lineshape
    # spin_channel_reflection inline: a call adds a fifth to a scalar sweep
    eps = E - E_res
    d2 = eps * eps
    t = 1.0 - w * (1.0 - (d2 + b2) / (d2 + G2))
    total = 0.0
    for bottom, coupled in modes:
        if E >= bottom:
            total += t if coupled else 1.0
    return total


def dip_integral(resonance: ResonanceSpec, lo: float, hi: float) -> float:
    """integral_lo^hi (1 - T_fano(E - E_res)) dE in meV, closed form.

    Antiderivative Gamma (1 - |q|^2) atan(eps/Gamma), eps = E - E_res
    (Re q = 0).  The arctan difference is the argument of
    (Gamma + i eps_hi)(Gamma - i eps_lo), exact for narrow windows too.
    """
    G = resonance.Gamma
    a, b = lo - resonance.energy, hi - resonance.energy
    return G * (1.0 - abs(resonance.q) ** 2) * math.atan2(
        G * (hi - lo), G * G + a * b)


def mean_reflection(model: TransmissionModel,
                    window: tuple[float, float]) -> float:
    """Average of the coupled-channel reflection over an energy window."""
    lo, hi = window
    if not (lo < hi) or not (abs(lo) < float("inf") and abs(hi) < float("inf")):
        raise ValueError(f"window must be finite with E_lo < E_hi: {window}")
    return model.weight * dip_integral(model.resonance, lo, hi) / (hi - lo)
