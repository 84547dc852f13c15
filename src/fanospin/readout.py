"""Measurement figures of merit: current contrast between parallel and
antiparallel dot spins, N-qubit sensitivity scaling, and the
non-demolition verdict.

Relative current decreases are quoted against the ballistic wire (dot
decoupled) at identical bias.  The parallel current deficit is evaluated
as a dedicated integral; the antiparallel one is that deficit times its
spin-channel weight 1/2, so the halving is exact.

N identical lossless scatterers compose in intensity when placed at random
and, ordered at the phase-matched spacing, by the exact product of their
2x2 transfer matrices, R_N = tanh^2(N artanh sqrt(R)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .constants import ZEEMAN_REFERENCE_MEV
from .config import DeviceConfig
from .dot_spectrum import (VERDICT_MARGIN, levels_distinguishable,
                           spin_flip_blocked, spin_flip_time)
from .fano import CHANNEL_WEIGHT, SpinOrientation, mean_reflection
from .landauer import (BiasPoint, current_components, model_from_config,
                       optimal_bias)

LINESHAPE_NOTE = (
    "mean reflection over |detuning| < Gamma is pi/4 ~ 0.785 for q = 0, "
    "not ~1/3; a mean of ~1/3 corresponds to a window of roughly "
    "+-4*Gamma")


class Arrangement(Enum):
    RANDOM_INCOHERENT = "RandomIncoherent"
    ORDERED_COHERENT = "OrderedCoherent"


@dataclass(frozen=True)
class ScalingModel:
    arrangement: Arrangement
    N: int
    R_single: float

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if not 0.0 <= self.R_single <= 1.0:
            raise ValueError(
                f"R_single must be in [0, 1], got {self.R_single}")


@dataclass(frozen=True)
class ReadoutReport:
    I_ballistic: float              # A, dot decoupled (w = 0)
    I_parallel: float               # A
    I_antiparallel: float           # A
    delta_I_parallel: float         # A, ballistic minus parallel
    delta_I_antiparallel: float     # A
    contrast: float                 # (I_anti - I_par) / I_ballistic
    relative_decrease_parallel: float
    relative_decrease_antiparallel: float
    flip_blocked: bool
    levels_distinguishable: bool
    optimal_V: float                # mV
    mean_reflection_dip_window: float   # window +-Gamma about the resonance
    conductance_at_resonance: float     # S, linear conductance with mu at dip
    lineshape_note: str


@dataclass(frozen=True)
class NondemolitionSummary:
    qnd: bool
    reasons: tuple[str, ...]
    spin_flip_time: float           # s, inf at J = 0
    beta_vs_zeeman: str


def readout_report(config: DeviceConfig) -> ReadoutReport:
    model_par = model_from_config(config, SpinOrientation.PARALLEL)
    bias = BiasPoint(mu_source=config.mu_source,
                     mu_drain=config.mu_source - config.V_sd,
                     temperature=config.temperature)
    res = model_par.resonance
    # the deficit and the conductance at the dip: two rows of one kernel call
    I_ball, d_par, G_res = current_components(bias, model_par, res.energy)
    d_anti = CHANNEL_WEIGHT[SpinOrientation.ANTIPARALLEL] * d_par
    # no deficit is no decrease, +0.0 at a negative bias too
    rel = lambda d: d / I_ball if d and I_ball else 0.0
    return ReadoutReport(
        I_ballistic=I_ball,
        I_parallel=I_ball - d_par,
        I_antiparallel=I_ball - d_anti,
        delta_I_parallel=d_par,
        delta_I_antiparallel=d_anti,
        contrast=rel(d_par - d_anti),
        relative_decrease_parallel=rel(d_par),
        relative_decrease_antiparallel=rel(d_anti),
        flip_blocked=spin_flip_blocked(config).satisfied,
        levels_distinguishable=levels_distinguishable(config).satisfied,
        optimal_V=optimal_bias(config.Gamma),
        mean_reflection_dip_window=mean_reflection(
            model_par, (res.energy - res.Gamma, res.energy + res.Gamma)),
        conductance_at_resonance=G_res,
        lineshape_note=LINESHAPE_NOTE,
    )


def n_qubit_reflection(model: ScalingModel) -> float:
    """Total reflection of N identical scatterers along the wire.

    Random placement adds reflections incoherently (series R/T law):
    R_N = N R / (1 + (N - 1) R), which tends to N R for N R << 1.  Ordered,
    phase-matched placement adds amplitudes: R_N = tanh^2(N artanh sqrt(R)),
    exact for any R (1 at R = 1), which tends to N^2 R for N^2 R << 1.
    """
    N, R = model.N, model.R_single
    if model.arrangement is Arrangement.RANDOM_INCOHERENT:
        return N * R / (1.0 + (N - 1) * R)
    if R == 1.0:    # artanh(1) is infinite
        return 1.0
    return math.tanh(N * math.atanh(math.sqrt(R))) ** 2


def nondemolition_summary(config: DeviceConfig) -> NondemolitionSummary:
    """Verdict: the readout is non-demolishing when spin flips are
    energetically blocked and the exchange-split levels are resolvable."""
    blocked = spin_flip_blocked(config)
    resolved = levels_distinguishable(config)
    reasons = []
    if not blocked.satisfied:
        reasons.append(
            f"spin flip energetically allowed: |beta|/Gamma = "
            f"{blocked.ratio:.4g} < {VERDICT_MARGIN:g}")
    if not resolved.satisfied:
        reasons.append(
            f"exchange-split levels unresolved: |J|/Gamma = "
            f"{resolved.ratio:.4g} < {VERDICT_MARGIN:g}")
    if not reasons:
        reasons.append("spin flip blocked and levels resolved")
    beta = abs(config.beta_value)
    comparison = "exceeds" if beta > ZEEMAN_REFERENCE_MEV else \
        "does not exceed"
    return NondemolitionSummary(
        qnd=blocked.satisfied and resolved.satisfied,
        reasons=tuple(reasons),
        spin_flip_time=spin_flip_time(config.J),
        beta_vs_zeeman=(
            f"spin-orbit splitting {beta:g} meV {comparison} the "
            f"{ZEEMAN_REFERENCE_MEV:g} meV Zeeman splitting available at "
            f"a ~5 T field"),
    )
