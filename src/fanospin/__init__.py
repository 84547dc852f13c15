"""Simulator for non-demolition single-spin readout via Fano antiresonance
in a spin-polarized quantum wire coupled to a quantum dot."""

__version__ = "0.1.0"

from .constants import CONSTANTS, PhysicalConstants, rashba_beta, thermal_energy
from .config import (ConfigError, DeviceConfig, Mode, Spin, default_config,
                     validate)
from .dot_spectrum import (Character, Level, ResonanceSpec, eigenlevels,
                           levels_distinguishable, spin_flip_blocked,
                           spin_flip_time, target_level)
from .fano import (SpinOrientation, TransmissionModel, fano_transmission,
                   mean_reflection, mode_transmission,
                   spin_channel_reflection, total_transmission)
from .landauer import (BiasPoint, IVCurve, current, current_components,
                       iv_curve, iv_curves, linear_conductance,
                       model_from_config, optimal_bias)
from .lattice_oracle import (BandEdgeError, ExtractionError, OracleLattice,
                             compare_to_fano, effective_broadening,
                             oracle_transmission)
from .readout import (Arrangement, NondemolitionSummary, ReadoutReport,
                      ScalingModel, n_qubit_reflection,
                      nondemolition_summary, readout_report)
