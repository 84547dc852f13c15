"""Device configuration: validated physical parameters in explicit units.

All downstream modules consume only a validated ``DeviceConfig``.
``validate`` gives each number one closed interval, checked by a single
comparison, so every bad value is one violation named by its key: each
energy (``eps1``, ``U_C``, ``J``, ``mu_source``, every mode's
``bottom_energy``, ``beta``) and ``V_sd`` lie within +-``LIMIT``, ``Gamma``
in [``GAMMA_MIN``, ``LIMIT``] and 40 k_B T in [0, ``LIMIT``]; ``alpha_R``
must be finite and ``D`` finite and > 0 whenever given.  ``Gamma`` must
also be resolvable at the resonance (E_res +- Gamma != E_res), so every
subcommand rejects the same configs, and each mode's ``coupled`` must be a
JSON boolean.

``Mode`` and ``DeviceConfig`` are named tuples, copied with a field changed
by ``_replace``.  The JSON representation uses the field names as keys, so
each key is declared once, by its field; the complex Fano factor ``q`` is
stored as a two-element array ``[re, im]``.
"""

from __future__ import annotations

import json
import math
import sys
from collections import namedtuple
from enum import Enum

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


# The lattice oracle's errors live here, next to ConfigError, so that the
# CLI can name every error it handles without importing numpy.
class BandEdgeError(ValueError):
    """Energy outside the propagating band |E| < 2t."""


class ExtractionError(RuntimeError):
    """No dip, a dip flank that never recovers to half depth, or a dip that
    floating point cannot resolve."""


#: One transversal-quantization subband of the wire: its bottom_energy in
#: meV, and coupled, True for the single dot-coupled mode.
Mode = namedtuple("Mode", "bottom_energy coupled", defaults=(False,))


class DeviceConfig(namedtuple(
        "DeviceConfig", "eps1 U_C J Gamma mu_source V_sd temperature modes "
        "beta alpha_R D q dot_spin",
        defaults=(None, None, None, 0j, Spin.UP))):
    """The excited level eps1 above the ground one, the direct Coulomb
    energy U_C, the signed exchange strength J and the level broadening
    Gamma > 0 in meV; the source chemical potential mu_source in meV, the
    source-drain bias V_sd in mV and the temperature in K; the tuple of
    ``Mode``s; the spin-orbit coefficient beta in meV, or the Rashba
    constant alpha_R in meV nm and the dot diameter D in nm; the Fano
    asymmetry factor q; and the dot_spin (the wire is polarized Up)."""
    __slots__ = ()

    @property
    def beta_value(self) -> float:
        assert self.beta is not None, "config not validated"
        return self.beta


#: Largest magnitude of every energy and bias, and of 40 k_B T, meV (mV for
#: the bias): as for Gamma, (10 x)^2 of each, and the square of any
#: difference of them the program forms, stays finite.
LIMIT = 0.1 / GAMMA_MIN
_MAX = sys.float_info.max


def resonance_energy(eps1: float, U_C: float, J: float, beta: float) -> float:
    """The tunnelling resonance eps1 + U_C - J/4 - |beta|/2 in meV, summed
    left to right (see ``dot_spectrum.target_level``)."""
    return eps1 + U_C - J / 4 - abs(beta) / 2


def gamma_unresolved(E_res: float, Gamma: float) -> list[str]:
    """The violation, naming Gamma, when E_res +- Gamma rounds to E_res: a
    dip narrower than floating point can resolve at the resonance."""
    if E_res - Gamma == E_res or E_res + Gamma == E_res:
        return [f"Gamma: {Gamma} meV is below the float spacing at the "
                f"resonance E_res = {E_res} meV"]
    return []


def validate(config: DeviceConfig) -> DeviceConfig:
    """Check every invariant; derive beta from alpha_R/D when absent.

    Each number must lie in its closed interval, tested by one comparison
    that NaN, an infinity past an end and a non-number all fail, so a bad
    number is one violation, named by its key.  Raises ConfigError listing
    every violation.
    """
    errs: list[str] = []

    def inside(key, value, lo, hi, unit, scale=1.0) -> bool:
        try:
            if lo <= scale * value <= hi:
                return True
        except (TypeError, OverflowError):
            pass
        errs.append(f"{key}: must be in [{lo:g}, {hi:g}] {unit}, got {value}")
        return False

    energy = (-LIMIT, LIMIT, "meV")
    # the numbers the resonance depends on, and whether each is inside
    resonance = [inside(key, getattr(config, key), *energy)
                 for key in ("eps1", "U_C", "J")]
    inside("mu_source", config.mu_source, *energy)
    for i, m in enumerate(config.modes):
        inside(f"modes[{i}].bottom_energy", m.bottom_energy, *energy)
    inside("V_sd", config.V_sd, -LIMIT, LIMIT, "mV")
    resonance.append(inside("Gamma", config.Gamma, GAMMA_MIN, LIMIT, "meV"))
    inside("temperature", config.temperature, 0.0, LIMIT,
           f"meV as {FERMI_TAIL_KT:g} k_B T (T in K)",
           FERMI_TAIL_KT * CONSTANTS.k_B)
    # alpha_R and D are checked whenever given; beta derives from them when
    # both are given and inside
    pair = (config.alpha_R, config.D)
    usable = [v is None or inside(key, v, lo, hi, unit)
              for key, v, lo, hi, unit in (
                  ("alpha_R", config.alpha_R, -_MAX, _MAX, "meV nm"),
                  ("D", config.D, math.ulp(0.0), _MAX, "nm"))]
    beta = derived = config.beta
    if None not in pair and all(usable):
        derived = rashba_beta(*pair)
        if beta is None:
            beta = derived
    if beta is None:
        if None in pair:    # else alpha_R or D is reported already
            errs.append("beta: required (directly or via alpha_R and D)")
    elif inside("beta", beta, *energy):
        if not math.isclose(beta, derived, rel_tol=BETA_CONSISTENCY_RTOL):
            errs.append(f"beta: {beta} inconsistent with alpha_R/D = "
                        f"{derived}")
        elif all(resonance):
            errs += gamma_unresolved(resonance_energy(
                config.eps1, config.U_C, config.J, beta), config.Gamma)

    if not (config.q.real == 0 and abs(config.q) <= 1):
        errs.append(f"q: must have Re q = 0 and |q| <= 1 (else T > 1 "
                    f"somewhere), got {config.q}")
    n_coupled = sum(1 for m in config.modes if m.coupled)
    if len(config.modes) == 0:
        errs.append("modes: at least one mode required")
    if n_coupled != 1:
        errs.append(f"modes: exactly one mode must be coupled, got {n_coupled}")

    if errs:
        raise ConfigError(errs)
    return config._replace(beta=beta)


# ---------------------------------------------------------------------------
# JSON round trip: the keys are DeviceConfig's field names; a None field is
# left out, and a field without a default is required.

_FIELDS, _DEFAULTS = DeviceConfig._fields, DeviceConfig._field_defaults


def _modes(raw) -> tuple[Mode, ...]:
    """The modes; each ``coupled`` must be a JSON boolean, as bool("no")
    would count a string as coupled."""
    modes = tuple(Mode(bottom_energy=float(m["bottom_energy"]),
                       coupled=m.get("coupled", False)) for m in raw)
    errs = [f"modes[{i}].coupled: must be true or false, got {m.coupled!r}"
            for i, m in enumerate(modes) if not isinstance(m.coupled, bool)]
    if errs:
        raise ConfigError(errs)
    return modes


def _q(raw) -> complex:
    if isinstance(raw, (list, tuple)):
        if len(raw) != 2:
            raise ValueError(f"expected [re, im], got {raw!r}")
        return complex(raw[0], raw[1])
    return complex(raw)


#: JSON form of the fields that are not plain numbers, and its parsers
#: (float for every other field).
_ENCODE = {"modes": lambda modes: [m._asdict() for m in modes],
           "q": lambda q: [q.real, q.imag],
           "dot_spin": lambda spin: spin.value}
_DECODE = {"modes": _modes, "q": _q, "dot_spin": Spin}


def to_dict(config: DeviceConfig) -> dict:
    return {k: _ENCODE[k](v) if k in _ENCODE else v
            for k, v in config._asdict().items() if v is not None}


def from_dict(d: dict) -> DeviceConfig:
    """Build an unvalidated config; every bad value is reported by key."""
    if not isinstance(d, dict):
        raise ConfigError([f"config: expected a JSON object, got "
                           f"{type(d).__name__}"])
    unknown = set(d) - set(_FIELDS)
    if unknown:
        raise ConfigError([f"{k}: unknown key" for k in sorted(unknown)])
    missing = [k for k in _FIELDS if k not in _DEFAULTS and d.get(k) is None]
    if missing:
        raise ConfigError([f"{k}: required" for k in missing])
    errs: list[str] = []

    def parse(key):
        raw = d.get(key)
        if raw is None:
            return _DEFAULTS[key]
        try:
            return _DECODE.get(key, float)(raw)
        except ConfigError as exc:      # already named by its key
            errs.extend(exc.violations)
        except (LookupError, TypeError, ValueError, OverflowError) as exc:
            errs.append(f"{key}: {exc}")

    values = {key: parse(key) for key in _FIELDS}
    if errs:
        raise ConfigError(errs)
    return DeviceConfig(**values)


def dumps(config: DeviceConfig) -> str:
    return json.dumps(to_dict(config), sort_keys=True, indent=2)


def loads(text: str) -> DeviceConfig:
    return from_dict(json.loads(text))


def load_file(path) -> DeviceConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def apply_overrides(config: DeviceConfig,
                    overrides: list[str]) -> DeviceConfig:
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
