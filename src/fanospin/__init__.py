"""Simulator for non-demolition single-spin readout via Fano antiresonance
in a spin-polarized quantum wire coupled to a quantum dot.

The level-diagram modules are imported with the package.  The transport
modules, and their names, load on first access (PEP 562); of these only
``lattice_oracle`` imports numpy with the module, and ``landauer`` imports
it when its finite-temperature kernel first runs.  So ``import fanospin``
runs without numpy, and so do ``levels``, ``sweep`` and the T = 0 ``iv``
and ``readout``."""

__version__ = "0.1.0"

import importlib

from .constants import CONSTANTS, PhysicalConstants, rashba_beta, thermal_energy
from .config import (BandEdgeError, ConfigError, DeviceConfig,
                     ExtractionError, Mode, Spin, default_config, validate)
from .dot_spectrum import (Character, Level, ResonanceSpec, eigenlevels,
                           levels_distinguishable, spin_flip_blocked,
                           spin_flip_time, target_level)
from .fano import (SpinOrientation, TransmissionModel, fano_transmission,
                   mean_reflection, mode_transmission,
                   spin_channel_reflection, total_transmission)

#: The names each transport module serves from the package, imported on
#: first access; each module's own name is served too.
_LAZY = {
    "landauer": ("BiasPoint", "IVCurve", "current", "current_components",
                 "iv_curve", "iv_curves", "linear_conductance",
                 "model_from_config", "optimal_bias"),
    "lattice_oracle": ("OracleLattice", "compare_to_fano",
                       "effective_broadening", "oracle_transmission"),
    "readout": ("Arrangement", "NondemolitionSummary", "ReadoutReport",
                "ScalingModel", "n_qubit_reflection", "nondemolition_summary",
                "readout_report"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_HOME))
