import dataclasses
import math
import re

import pytest

from fanospin.config import (GAMMA_MIN, ConfigError, DeviceConfig, Mode,
                             apply_overrides, default_config, dumps, loads,
                             to_dict, validate)
from fanospin.constants import CONSTANTS


def make_raw(**overrides):
    base = dict(
        eps1=8.0, U_C=2.0, J=1.0, beta=0.5, Gamma=1.0,
        mu_source=9.75, V_sd=1.0, temperature=0.0,
        modes=(Mode(0.0, coupled=True),),
    )
    base.update(overrides)
    return DeviceConfig(**base)


def test_validate_accepts_good_config():
    cfg = validate(make_raw())
    assert cfg.beta_value == 0.5
    assert cfg.coupled_mode.bottom_energy == 0.0


def test_negative_gamma_names_field():
    with pytest.raises(ConfigError, match="Gamma"):
        validate(make_raw(Gamma=-1.0))


def test_beta_derived_from_alpha_and_diameter():
    cfg = validate(make_raw(beta=None, alpha_R=10.0, D=10.0))
    assert cfg.beta == 1.0


def test_beta_inconsistent_with_alpha_over_d():
    with pytest.raises(ConfigError, match="beta"):
        validate(make_raw(beta=2.0, alpha_R=10.0, D=10.0))


def test_beta_consistent_within_tolerance():
    cfg = validate(make_raw(beta=1.0 + 1e-12, alpha_R=10.0, D=10.0))
    assert cfg.beta == pytest.approx(1.0)


def test_two_coupled_modes_rejected():
    with pytest.raises(ConfigError, match="modes"):
        validate(make_raw(modes=(Mode(0.0, True), Mode(1.0, True))))


def test_zero_coupled_modes_rejected():
    with pytest.raises(ConfigError, match="modes"):
        validate(make_raw(modes=(Mode(0.0, False),)))


def test_negative_temperature_rejected():
    with pytest.raises(ConfigError, match="temperature"):
        validate(make_raw(temperature=-0.1))


def test_all_violations_reported_together():
    try:
        validate(make_raw(Gamma=-1.0, temperature=-5.0))
    except ConfigError as exc:
        joined = " ".join(exc.violations)
        assert "Gamma" in joined and "temperature" in joined
    else:
        pytest.fail("expected ConfigError")


def test_json_round_trip_bit_exact():
    cfg = validate(make_raw(q=-0.3j, temperature=0.30000000000000004))
    again = loads(dumps(cfg))
    assert again == cfg


def test_default_config_is_valid():
    cfg = default_config()
    assert cfg == validate(cfg)


def test_override_equivalence():
    cfg = default_config()
    edited = dataclasses.replace(cfg, J=2.5)
    overridden = apply_overrides(cfg, ["J=2.5"])
    assert validate(overridden) == validate(edited)


def test_override_nested_mode():
    cfg = default_config()
    out = apply_overrides(cfg, ["modes.0.bottom_energy=-3.0"])
    assert out.modes[0].bottom_energy == -3.0


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        loads('{"bogus": 1, "eps1": 8, "U_C": 2, "J": 1,'
              '"Gamma": 1, "mu_source": 9, "V_sd": 1, "temperature": 0,'
              '"beta": 0.5, "modes": [{"bottom_energy": 0, "coupled": true}]}')


@pytest.mark.parametrize("q", [1 + 0j, 0.1 + 0.5j, 1.5j, complex(0, math.nan)])
def test_unphysical_q_rejected(q):
    with pytest.raises(ConfigError, match="q:"):
        validate(make_raw(q=q))


def test_q_on_physical_boundary_accepted():
    for q in (1j, -1j, 0j):
        assert validate(make_raw(q=q)).q == q


def test_gamma_whose_square_underflows_rejected():
    assert validate(make_raw(Gamma=GAMMA_MIN)).Gamma == GAMMA_MIN
    with pytest.raises(ConfigError, match="Gamma"):
        validate(make_raw(Gamma=1e-200))


#: The bound of Gamma, which bounds every energy, the bias and 40 k_B T too.
LIMIT = 0.1 / GAMMA_MIN


def _accepted_at_rejected_beyond(key, name, at, beyond):
    cfg = default_config()
    assert validate(apply_overrides(cfg, [f"{key}={at!r}"]))
    with pytest.raises(ConfigError, match=rf"^{re.escape(name)}: ") as err:
        validate(apply_overrides(cfg, [f"{key}={beyond!r}"]))
    assert len(err.value.violations) == 1


@pytest.mark.parametrize("key, name", [
    ("eps1", "eps1"), ("U_C", "U_C"), ("J", "J"), ("beta", "beta"),
    ("mu_source", "mu_source"), ("V_sd", "V_sd"),
    ("modes.0.bottom_energy", "modes[0].bottom_energy")])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_energy_beyond_bound_rejected_by_key(key, name, sign):
    _accepted_at_rejected_beyond(key, name, sign * LIMIT,
                                 sign * math.nextafter(LIMIT, math.inf))


def test_temperature_beyond_bound_rejected():
    T = LIMIT / (40 * CONSTANTS.k_B)
    while 40 * CONSTANTS.k_B * T > LIMIT:
        T = math.nextafter(T, 0)
    _accepted_at_rejected_beyond("temperature", "temperature", T,
                                 math.nextafter(T, math.inf))
