import json
import subprocess
import sys

import pytest

import fanospin
from fanospin import (config, constants, dot_spectrum, fano, landauer,
                      lattice_oracle, readout)

#: Every name the package exports, by the module whose attribute it is.
EXPORTS = {
    constants: ("CONSTANTS", "PhysicalConstants", "rashba_beta",
                "thermal_energy"),
    config: ("ConfigError", "DeviceConfig", "Mode", "Spin", "default_config",
             "validate"),
    dot_spectrum: ("Character", "Level", "ResonanceSpec", "eigenlevels",
                   "levels_distinguishable", "spin_flip_blocked",
                   "spin_flip_time", "target_level"),
    fano: ("SpinOrientation", "TransmissionModel", "fano_transmission",
           "mean_reflection", "mode_transmission", "spin_channel_reflection",
           "total_transmission"),
    landauer: ("BiasPoint", "IVCurve", "current", "current_components",
               "iv_curve", "iv_curves", "linear_conductance",
               "model_from_config", "optimal_bias"),
    lattice_oracle: ("BandEdgeError", "ExtractionError", "OracleLattice",
                     "compare_to_fano", "effective_broadening",
                     "oracle_transmission"),
    readout: ("Arrangement", "NondemolitionSummary", "ReadoutReport",
              "ScalingModel", "n_qubit_reflection", "nondemolition_summary",
              "readout_report"),
}


def test_every_export_is_its_module_attribute():
    listed = dir(fanospin)
    for module, names in EXPORTS.items():
        for name in names:
            assert getattr(fanospin, name) is getattr(module, name), name
            assert name in listed, name


def test_oracle_errors_are_the_config_classes():
    # the CLI names them from config, without importing the oracle
    assert lattice_oracle.BandEdgeError is config.BandEdgeError
    assert lattice_oracle.ExtractionError is config.ExtractionError
    assert issubclass(config.BandEdgeError, ValueError)
    assert issubclass(config.ExtractionError, RuntimeError)


def test_unknown_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        fanospin.no_such_name


def test_fresh_import_loads_numpy_at_the_first_lazy_name():
    # a lazy module, then a lazy name, each the first access of its kind
    code = ("import json, sys, fanospin\n"
            "before = 'numpy' in sys.modules\n"
            "oracle = fanospin.lattice_oracle\n"
            "curve = fanospin.iv_curve\n"
            "print(json.dumps([before, 'numpy' in sys.modules,\n"
            "    oracle is sys.modules['fanospin.lattice_oracle'],\n"
            "    vars(fanospin).get('iv_curve') is curve,\n"
            "    curve is sys.modules['fanospin.landauer'].iv_curve]))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, True, True, True, True]
