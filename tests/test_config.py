import contextlib
import dataclasses
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fanospin.cli import main
from fanospin.config import (GAMMA_MIN, ConfigError, DeviceConfig, Mode,
                             apply_overrides, default_config, dumps,
                             from_dict, loads, to_dict, validate)
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
    assert [m.bottom_energy for m in cfg.modes if m.coupled] == [0.0]


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
    # E_res = 0, where the smallest Gamma resolves
    assert validate(make_raw(eps1=-1.5, Gamma=GAMMA_MIN)).Gamma == GAMMA_MIN
    with pytest.raises(ConfigError, match="^Gamma: .* float spacing"):
        validate(make_raw(Gamma=GAMMA_MIN))
    with pytest.raises(ConfigError, match="Gamma"):
        validate(make_raw(Gamma=1e-200))


#: The bound of Gamma, which bounds every energy, the bias and 40 k_B T too.
LIMIT = 0.1 / GAMMA_MIN


def _accepted_at_rejected_beyond(key, name, at, beyond):
    # Gamma = LIMIT resolves a resonance as far out as the bounds put it
    cfg = apply_overrides(default_config(), [f"Gamma={LIMIT!r}"])
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


@pytest.mark.parametrize("key", ["eps1", "U_C", "J", "beta"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_resonance_at_bound_needs_a_resolvable_gamma(key, sign):
    # E_res ~ LIMIT, whose float spacing is far above the default Gamma = 1
    (violation,) = _violations([f"{key}={sign * LIMIT!r}"])
    assert violation.startswith("Gamma: ")
    assert "below the float spacing at the resonance" in violation


def test_gamma_below_spacing_reported_with_other_violations():
    # the resonance check runs whenever its numbers are inside
    violations = _violations(["eps1=1e152", "V_sd=NaN", "q=[0,2]"])
    assert [v.split(":")[0] for v in violations] == ["V_sd", "Gamma", "q"]
    (violation,) = _violations(["eps1=1e152", "Gamma=NaN"])
    assert violation.startswith("Gamma: must be in")


@pytest.mark.parametrize("coupled", ["no", "false", "true", 1, 0, None,
                                     [True]])
def test_coupled_must_be_a_json_boolean(coupled):
    with pytest.raises(ConfigError) as err:
        from_dict(dict(to_dict(default_config()), modes=[
            {"bottom_energy": 0.0, "coupled": True},
            {"bottom_energy": 1.0, "coupled": coupled}]))
    assert err.value.violations == [
        f"modes[1].coupled: must be true or false, got {coupled!r}"]


def test_temperature_beyond_bound_rejected():
    T = LIMIT / (40 * CONSTANTS.k_B)
    while 40 * CONSTANTS.k_B * T > LIMIT:
        T = math.nextafter(T, 0)
    _accepted_at_rejected_beyond("temperature", "temperature", T,
                                 math.nextafter(T, math.inf))


def _violations(overrides, base=None):
    """The ConfigError violations of ``overrides`` on ``base`` (the default
    config if None), or [] when the result validates."""
    try:
        validate(apply_overrides(base or default_config(), overrides))
    except ConfigError as exc:
        return exc.violations
    return []


@pytest.mark.parametrize("override", [
    "Gamma=NaN", "Gamma=Infinity", "Gamma=-Infinity", "temperature=-Infinity",
    "temperature=NaN", "eps1=NaN", "V_sd=-Infinity",
    "modes.0.bottom_energy=NaN"])
def test_non_finite_number_is_one_violation(override):
    key = override.split("=")[0].replace(".0.", "[0].")
    (violation,) = _violations([override])
    assert violation.startswith(f"{key}: ")


#: alpha_R and D, each bad with the other given and good
BAD_ALPHA_R_OR_D = [
    (["alpha_R=NaN", "D=10"], "alpha_R"),
    (["alpha_R=Infinity", "D=10"], "alpha_R"),
    (["alpha_R=30", "D=NaN"], "D"),
    (["alpha_R=30", "D=Infinity"], "D"),
    (["alpha_R=30", "D=0"], "D"),
    (["alpha_R=30", "D=-0.0"], "D"),
]


@pytest.mark.parametrize("overrides, key", BAD_ALPHA_R_OR_D + [
    (["alpha_R=NaN"], "alpha_R"), (["D=NaN"], "D"), (["D=Infinity"], "D")])
def test_alpha_R_and_D_rejected_by_key_with_beta_given(overrides, key):
    # default_config has beta = 3, consistent with alpha_R / D = 30 / 10
    (violation,) = _violations(overrides)
    assert violation.startswith(f"{key}: ")


@pytest.mark.parametrize("overrides, key", BAD_ALPHA_R_OR_D)
def test_alpha_R_and_D_rejected_by_key_with_beta_derived(overrides, key):
    base = dataclasses.replace(default_config(), beta=None)
    (violation,) = _violations(overrides, base)
    assert violation.startswith(f"{key}: ")


def test_beta_derived_past_the_float_range_is_rejected_as_beta():
    # alpha_R / D = 1e600 rounds to inf: as a derived beta it is out of
    # range, and no finite beta is consistent with it
    (given,) = _violations(["alpha_R=1e300", "D=1e-300"])
    assert given.startswith("beta: 3.0 inconsistent")
    (derived,) = _violations(["alpha_R=1e300", "D=1e-300"],
                             dataclasses.replace(default_config(), beta=None))
    assert derived.startswith("beta: must be in")


@pytest.mark.parametrize("key", ["eps1", "Gamma", "temperature", "beta",
                                 "alpha_R", "D"])
@pytest.mark.parametrize("value", ["hot", [1.0], 2j, 10**400])
def test_value_that_is_no_float_is_one_violation(key, value):
    with pytest.raises(ConfigError) as err:
        validate(make_raw(**{key: value}))
    (violation,) = err.value.violations
    assert violation.startswith(f"{key}: ")


def test_json_keys_are_the_field_names():
    cfg = make_raw(alpha_R=5.0, D=10.0, q=0.5j)
    names = [f.name for f in dataclasses.fields(DeviceConfig)]
    assert sorted(to_dict(cfg)) == sorted(names)
    assert from_dict(to_dict(cfg)) == cfg
    required = {"eps1", "U_C", "J", "Gamma", "mu_source", "V_sd",
                "temperature", "modes"}
    with pytest.raises(ConfigError) as err:
        from_dict({})
    assert err.value.violations == [f"{k}: required" for k in names
                                    if k in required]


# ---------------------------------------------------------------------------
# Every number against its interval, through overrides and the CLI

def _temperature_limit():
    """Largest T whose 40 k_B T, as a float product, is at most LIMIT."""
    T = LIMIT / (40 * CONSTANTS.k_B)
    while 40 * CONSTANTS.k_B * T > LIMIT:
        T = math.nextafter(T, 0)
    return T


#: override key -> (key named in the violation, lowest and highest value
#: accepted); temperature is bounded through 40 k_B T, checked in the
#: interval below.
INTERVALS = {
    "eps1": ("eps1", -LIMIT, LIMIT),
    "U_C": ("U_C", -LIMIT, LIMIT),
    "J": ("J", -LIMIT, LIMIT),
    "beta": ("beta", -LIMIT, LIMIT),
    "mu_source": ("mu_source", -LIMIT, LIMIT),
    "V_sd": ("V_sd", -LIMIT, LIMIT),
    "modes.0.bottom_energy": ("modes[0].bottom_energy", -LIMIT, LIMIT),
    "Gamma": ("Gamma", GAMMA_MIN, LIMIT),
    "temperature": ("temperature", 0.0, _temperature_limit()),
    "alpha_R": ("alpha_R", -sys.float_info.max, sys.float_info.max),
    "D": ("D", math.ulp(0.0), sys.float_info.max),
}


def _accepted(key, value):
    if key == "temperature":
        return 0 <= 40 * CONSTANTS.k_B * value <= LIMIT
    _, lo, hi = INTERVALS[key]
    return lo <= value <= hi


def _ends(lo, hi):
    """Each end and the floats next to it on both sides, zero of both
    signs, both infinities and NaN."""
    return [x for end in (lo, hi)
            for x in (end, math.nextafter(end, -math.inf),
                      math.nextafter(end, math.inf))] + [
        0.0, -0.0, math.inf, -math.inf, math.nan]


@st.composite
def key_and_value(draw):
    key = draw(st.sampled_from(sorted(INTERVALS)))
    _, lo, hi = INTERVALS[key]
    value = draw(st.one_of(st.sampled_from(_ends(lo, hi)), st.floats()))
    return key, value


def _resonance_unresolved(override):
    """True when Gamma is below the float spacing at the resonance, which
    ``validate`` rejects naming Gamma once every number is inside."""
    cfg = apply_overrides(default_config(), [override])
    E = cfg.eps1 + cfg.U_C - cfg.J / 4 - abs(cfg.beta_value) / 2
    return E - cfg.Gamma == E or E + cfg.Gamma == E


def _named(key, value):
    """The key the one violation of ``key=value`` names, or None."""
    if not _accepted(key, value):
        return INTERVALS[key][0]
    if _resonance_unresolved(f"{key}={json.dumps(value)}"):
        return "Gamma"
    return None


@settings(max_examples=400, deadline=None)
@given(key_and_value())
def test_every_number_accepted_exactly_inside_its_interval(kv):
    key, value = kv
    violations = _violations([f"{key}={json.dumps(value)}"])
    named = _named(key, value)
    if named is None:
        assert violations == []
    else:
        (violation,) = violations
        assert violation.startswith(f"{named}: ")


def _csv_columns(path):
    header, *rows = path.read_text().strip().split("\n")
    cols = list(zip(*(map(float, r.split(",")) for r in rows)))
    return dict(zip(header.split(","), cols))


@settings(max_examples=12, deadline=None)
@given(key_and_value())
def test_every_number_through_cli(kv):
    key, value = kv
    override = f"{key}={json.dumps(value)}"
    named = _named(key, value)
    with tempfile.TemporaryDirectory() as tmp:
        for command in ("sweep", "iv", "readout"):
            out = Path(tmp) / command
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main([command, "--out", str(out), "--set", override])
            assert "Traceback" not in err.getvalue()
            assert rc == (1 if named else 0), err.getvalue()
            if named:
                assert f": {named}: " in err.getvalue(), err.getvalue()
                assert not out.exists()
        if named:
            return
        # an accepted value gives physical output
        sweep = _csv_columns(Path(tmp) / "sweep" / "sweep.csv")
        for col, values in sweep.items():
            if col.startswith("T_"):
                assert all(0.0 <= t <= 1.0 for t in values), col
        assert list(sweep["R_antiparallel"]) == [
            r / 2 for r in sweep["R_parallel"]]
        iv = _csv_columns(Path(tmp) / "iv" / "iv.csv")
        for col in ("V_mV", "I_A_parallel", "I_A_antiparallel"):
            assert list(iv[col]) == [-x for x in iv[col][::-1]], col
