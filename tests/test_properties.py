"""Invariants of every accepted config, through the library API.

Each config key is drawn over its whole validation interval: 0, or a
magnitude log-uniform from the subnormal range up to the key's bound, either
sign where the key takes one, mixed half and half with device-scale values
so that rows near a subband bottom (graded rows) occur.  A config that
``validate`` rejects is skipped; every accepted one must give a finite
readout report and finite 5-point mirrored I-V curves with the exact
parallel/antiparallel halving, I(-V) = -I(V), G_diff(-V) = G_diff(V), and
``paths`` counting one row per distinct window and chemical potential.
"""

import math

from hypothesis import (HealthCheck, example, given, reject, settings,
                        strategies as st)

from fanospin import landauer
from fanospin.cli import _counting_rows
from fanospin.config import (GAMMA_MIN, LIMIT, ConfigError, DeviceConfig,
                             Mode, Spin, default_config, validate)
from fanospin.constants import CONSTANTS, FERMI_TAIL_KT, thermal_energy
from fanospin.landauer import iv_curves
from fanospin.readout import readout_report

#: The largest accepted temperature, K: 40 k_B T = LIMIT.
T_MAX = LIMIT / (FERMI_TAIL_KT * CONSTANTS.k_B)
#: The smallest decade drawn: subnormal floats.
LOW = -320.0


def _drawn(device, low, high, signed=True):
    """A device-scale value half the time; else 0 or 10^u, u uniform in
    [low, high], negated half the time if ``signed``."""
    magnitude = st.floats(low, high).map(lambda u: 10.0 ** u)
    wide = [st.just(0.0), magnitude]
    if signed:
        wide.append(magnitude.map(lambda x: -x))
    return st.one_of(device, st.one_of(wide))


def _energies(device):
    return _drawn(device, LOW, math.log10(LIMIT))


#: The draw of each scalar key, the modes and beta aside.
_KEYS = dict(
    eps1=_energies(st.floats(-20.0, 20.0)),
    U_C=_energies(st.floats(0.0, 5.0)),
    J=_energies(st.floats(-10.0, 10.0)),
    Gamma=_drawn(st.floats(1e-4, 3.0), math.log10(GAMMA_MIN),
                 math.log10(LIMIT), signed=False),
    mu_source=_energies(st.floats(-10.0, 20.0)),
    V_sd=_energies(st.floats(-3.0, 3.0)),
    temperature=_drawn(st.sampled_from([0.0, 0.1, 1.0, 4.0, 40.0])
                       | st.floats(0.0, 50.0), LOW, math.log10(T_MAX),
                       signed=False),
    q=st.floats(-1.0, 1.0).map(lambda y: complex(0.0, y)),
    dot_spin=st.sampled_from(list(Spin)))
_BOTTOM = _energies(st.floats(-10.0, 10.0))
_SPIN_ORBIT = st.one_of(
    st.fixed_dictionaries(dict(beta=_energies(st.floats(-6.0, 6.0)))),
    st.fixed_dictionaries(dict(
        alpha_R=_drawn(st.floats(-60.0, 60.0), LOW, 308.0),
        D=_drawn(st.floats(1.0, 100.0), LOW, 308.0, signed=False))))


@st.composite
def configs(draw):
    """An unvalidated config: 1-3 modes with the coupled one at any index,
    beta given directly or through alpha_R / D, and either dot spin."""
    bottoms = draw(st.lists(_BOTTOM, min_size=1, max_size=3))
    coupled = draw(st.integers(0, len(bottoms) - 1))
    modes = tuple(Mode(b, i == coupled) for i, b in enumerate(bottoms))
    return DeviceConfig(modes=modes, **draw(st.fixed_dictionaries(_KEYS)),
                        **draw(_SPIN_ORBIT))


_DEVICE = default_config()


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(config=configs())
@example(config=_DEVICE._replace(temperature=0.0))  # sharp
@example(config=_DEVICE)                            # 0.1 K: digamma
@example(config=_DEVICE._replace(temperature=4.0))  # graded
def test_accepted_configs_keep_the_invariants(config):
    try:
        cfg = validate(config)
    except ConfigError:
        reject()
    report, report_paths = _counting_rows(readout_report, cfg)
    assert all(math.isfinite(v) for v in report._asdict().values()
               if isinstance(v, float))
    assert report.delta_I_antiparallel == report.delta_I_parallel / 2

    # a 5-point grid mirrored about 0, +-|V_sd| and +-|V_sd| / 2
    a = abs(cfg.V_sd) if abs(cfg.V_sd) / 2 else 1.0
    grid = [-a, -a / 2, 0.0, a / 2, a]
    curves, iv_paths = _counting_rows(iv_curves, cfg, grid)
    for curve in curves:
        assert all(map(math.isfinite, curve.I + curve.G_diff))
        for k in range(5):
            assert curve.I[4 - k] == -curve.I[k]
            assert curve.G_diff[4 - k].hex() == curve.G_diff[k].hex()

    # one row per distinct sorted window of a nonzero bias and per distinct
    # mu; at T = 0 a sharp window per model and nonzero bias instead
    mu0 = cfg.mu_source
    windows = {tuple(sorted((mu0 + V / 2, mu0 - V / 2))) for V in grid if V}
    mus = {mu for V in grid for mu in (mu0 + V / 2, mu0 - V / 2)}
    if thermal_energy(cfg.temperature):
        assert sum(report_paths.values()) == 2
        assert sum(iv_paths.values()) == len(windows) + len(mus)
    else:
        none = dict.fromkeys(landauer.PATHS, 0)
        assert report_paths == dict(none, sharp=2)
        assert iv_paths == dict(none, sharp=2 * 4 + len(mus))
