"""Device configuration: validated physical parameters in explicit units.

All downstream modules consume only a validated ``DeviceConfig``.  The JSON
representation uses keys matching the field names; the complex Fano factor
``q`` is stored as a two-element array ``[re, im]``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

from .constants import CONSTANTS, FERMI_TAIL_KT, rashba_beta

BETA_CONSISTENCY_RTOL = 1e-9
#: Smallest accepted broadening, meV: below it Gamma^2 underflows.
GAMMA_MIN = math.sqrt(sys.float_info.min)


class Spin(Enum):
    UP = "Up"
    DOWN = "Down"


class ConfigError(ValueError):
    """Raised on invalid device parameters; collects all violations."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class Mode:
    """One transversal-quantization subband of the wire."""
    bottom_energy: float        # subband bottom, meV
    coupled: bool = False       # True for the single dot-coupled mode


@dataclass(frozen=True)
class DeviceConfig:
    eps1: float                 # excited level above the ground one, meV
    U_C: float                  # direct Coulomb energy, meV
    J: float                    # exchange strength, meV (signed)
    Gamma: float                # level broadening, meV (> 0)
    mu_source: float            # source chemical potential, meV
    V_sd: float                 # source-drain bias, mV
    temperature: float          # K
    modes: tuple[Mode, ...]
    beta: float | None = None   # spin-orbit coefficient, meV
    alpha_R: float | None = None  # Rashba constant, meV nm
    D: float | None = None      # dot diameter, nm
    q: complex = 0j             # Fano asymmetry factor
    dot_spin: Spin = Spin.UP    # the wire is polarized Up

    @property
    def beta_value(self) -> float:
        assert self.beta is not None, "config not validated"
        return self.beta

    @property
    def coupled_mode(self) -> Mode:
        return next(m for m in self.modes if m.coupled)


def validate(config: DeviceConfig) -> DeviceConfig:
    """Check every invariant; derive beta from alpha_R/D when absent.

    Raises ConfigError listing each violated field by name.
    """
    errs: list[str] = []

    if not GAMMA_MIN <= config.Gamma <= 0.1 / GAMMA_MIN:
        errs.append(f"Gamma: must be in [{GAMMA_MIN:g}, {0.1 / GAMMA_MIN:g}]"
                    f" meV ((10 Gamma)^2 must be finite), got {config.Gamma}")
    if config.temperature < 0:
        errs.append(f"temperature: must be >= 0 K, got {config.temperature}")
    if not (config.q.real == 0 and abs(config.q) <= 1):
        errs.append(f"q: must have Re q = 0 and |q| <= 1 (else T > 1 "
                    f"somewhere), got {config.q}")

    n_coupled = sum(1 for m in config.modes if m.coupled)
    if len(config.modes) == 0:
        errs.append("modes: at least one mode required")
    if n_coupled != 1:
        errs.append(f"modes: exactly one mode must be coupled, got {n_coupled}")

    for name in ("eps1", "U_C", "J", "Gamma", "mu_source", "V_sd",
                 "temperature"):
        v = getattr(config, name)
        if not _finite(v):
            errs.append(f"{name}: must be finite, got {v}")
    for i, m in enumerate(config.modes):
        if not _finite(m.bottom_energy):
            errs.append(f"modes[{i}].bottom_energy: must be finite")

    beta = config.beta
    if config.alpha_R is not None and config.D is not None:
        if config.D <= 0:
            errs.append(f"D: must be > 0 nm, got {config.D}")
        else:
            derived = rashba_beta(config.alpha_R, config.D)
            if beta is None:
                beta = derived
            elif abs(beta - derived) > BETA_CONSISTENCY_RTOL * max(
                    abs(derived), 1e-300):
                errs.append(
                    f"beta: {beta} inconsistent with alpha_R/D = {derived}")
    if beta is None:
        errs.append("beta: required (directly or via alpha_R and D)")
    elif not _finite(beta):
        errs.append(f"beta: must be finite, got {beta}")

    # as for Gamma: (10 x)^2 of every energy and bias x stays finite, and
    # so does the square of any difference of them the program forms
    limit = 0.1 / GAMMA_MIN
    energies = [(k, getattr(config, k))
                for k in ("eps1", "U_C", "J", "mu_source", "V_sd")]
    energies += [(f"modes[{i}].bottom_energy", m.bottom_energy)
                 for i, m in enumerate(config.modes)] + [("beta", beta)]
    for key, v in energies:
        if _finite(v) and abs(v) > limit:
            errs.append(f"{key}: must be in [-{limit:g}, {limit:g}] "
                        f"(meV, or mV for V_sd), got {v}")
    if _finite(config.temperature) and (
            FERMI_TAIL_KT * CONSTANTS.k_B * config.temperature > limit):
        errs.append(f"temperature: {FERMI_TAIL_KT:g} k_B T must be <= "
                    f"{limit:g} meV, got {config.temperature} K")

    if errs:
        raise ConfigError(errs)
    return replace(config, beta=beta)


def _finite(x) -> bool:
    try:
        return abs(x) != float("inf") and x == x
    except TypeError:
        return False


# ---------------------------------------------------------------------------
# JSON round trip

def to_dict(config: DeviceConfig) -> dict:
    d = {
        "eps1": config.eps1,
        "U_C": config.U_C,
        "J": config.J,
        "Gamma": config.Gamma,
        "mu_source": config.mu_source,
        "V_sd": config.V_sd,
        "temperature": config.temperature,
        "modes": [{"bottom_energy": m.bottom_energy, "coupled": m.coupled}
                  for m in config.modes],
        "q": [config.q.real, config.q.imag],
        "dot_spin": config.dot_spin.value,
    }
    if config.beta is not None:
        d["beta"] = config.beta
    if config.alpha_R is not None:
        d["alpha_R"] = config.alpha_R
    if config.D is not None:
        d["D"] = config.D
    return d


_REQUIRED_NUMBERS = ("eps1", "U_C", "J", "Gamma", "mu_source", "V_sd",
                     "temperature")
_OPTIONAL_NUMBERS = ("beta", "alpha_R", "D")


def _modes(raw) -> tuple[Mode, ...]:
    return tuple(Mode(bottom_energy=float(m["bottom_energy"]),
                      coupled=bool(m.get("coupled", False))) for m in raw)


def _q(raw) -> complex:
    if isinstance(raw, (list, tuple)):
        if len(raw) != 2:
            raise ValueError(f"expected [re, im], got {raw!r}")
        return complex(raw[0], raw[1])
    return complex(raw)


def from_dict(d: dict) -> DeviceConfig:
    """Build an unvalidated config; every bad value is reported by key."""
    if not isinstance(d, dict):
        raise ConfigError([f"config: expected a JSON object, got "
                           f"{type(d).__name__}"])
    known = {*_REQUIRED_NUMBERS, *_OPTIONAL_NUMBERS, "modes", "q", "dot_spin"}
    unknown = set(d) - known
    if unknown:
        raise ConfigError([f"{k}: unknown key" for k in sorted(unknown)])
    missing = [k for k in _REQUIRED_NUMBERS + ("modes",) if d.get(k) is None]
    if missing:
        raise ConfigError([f"{k}: required" for k in missing])
    errs: list[str] = []

    def parse(key, convert, default=None):
        raw = d.get(key)
        if raw is None:
            return default
        try:
            return convert(raw)
        except (LookupError, TypeError, ValueError, OverflowError) as exc:
            errs.append(f"{key}: {exc}")

    fields = {k: parse(k, float)
              for k in _REQUIRED_NUMBERS + _OPTIONAL_NUMBERS}
    fields.update(modes=parse("modes", _modes), q=parse("q", _q, 0j),
                  dot_spin=parse("dot_spin", Spin, Spin.UP))
    if errs:
        raise ConfigError(errs)
    return DeviceConfig(**fields)


def dumps(config: DeviceConfig) -> str:
    return json.dumps(to_dict(config), sort_keys=True, indent=2)


def loads(text: str) -> DeviceConfig:
    return from_dict(json.loads(text))


def load_file(path) -> DeviceConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def apply_overrides(config: DeviceConfig,
                    overrides: Sequence[str]) -> DeviceConfig:
    """Apply ``key=value`` overrides (dotted paths into the JSON form)."""
    d = to_dict(config)
    for item in overrides:
        if "=" not in item:
            raise ConfigError([f"override '{item}': expected key=value"])
        key, _, raw = item.partition("=")
        try:
            _set_path(d, key.strip(), raw.strip())
        except (LookupError, TypeError, ValueError, AttributeError) as exc:
            raise ConfigError([f"override '{item}': {exc}"]) from exc
    return from_dict(d)


def _set_path(d: dict, dotted: str, raw: str) -> None:
    parts = dotted.split(".")
    node = d
    for p in parts[:-1]:
        node = node[int(p)] if p.isdigit() else node.setdefault(p, {})
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    leaf = parts[-1]
    if isinstance(node, list):
        node[int(leaf)] = value
    else:
        node[leaf] = value


def default_config() -> DeviceConfig:
    """Illustrative defaults; dot level positions are not measured values."""
    return validate(DeviceConfig(
        eps1=8.0,
        U_C=2.0,
        J=5.0,
        beta=3.0,
        Gamma=1.0,
        q=0j,
        mu_source=7.25,     # aligned with the tunneling resonance
        V_sd=1.0,           # optimal bias Gamma/e for Gamma = 1 meV
        temperature=0.1,
        modes=(Mode(bottom_energy=0.0, coupled=True),),
    ))
