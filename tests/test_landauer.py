import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fanospin import config, landauer
from fanospin.cli import main
from fanospin.config import DeviceConfig, Mode, Spin, default_config, validate
from fanospin.constants import CONSTANTS, CURRENT_PER_MEV, thermal_energy
from fanospin.dot_spectrum import ResonanceSpec
from fanospin.fano import (SpinOrientation, TransmissionModel, dip_integral,
                          mode_transmission, total_transmission)
from fanospin.landauer import (BiasPoint, current, current_components,
                               iv_curve, iv_curves, linear_conductance,
                               model_from_config, optimal_bias)
from fanospin.readout import readout_report
from reference import fermi

G0 = CONSTANTS.G0_spin_polarized


def make_model(E0=5.0, Gamma=1.0, q=0j, bottom=-1000.0,
               orientation=SpinOrientation.PARALLEL):
    return TransmissionModel(
        resonance=ResonanceSpec(energy=E0, Gamma=Gamma, q=q),
        orientation=orientation,
        modes=(Mode(bottom, coupled=True),))


def ballistic_model(bottom=-1000.0):
    # resonance far outside every window used below
    return make_model(E0=1e9, Gamma=1.0, bottom=bottom)


# --- Fermi function -------------------------------------------------------

def test_fermi_symmetry_point():
    assert fermi(3.0, 3.0, 77.0) == pytest.approx(0.5)


def test_fermi_zero_temperature_step():
    assert fermi(2.0, 3.0, 0.0) == 1.0
    assert fermi(4.0, 3.0, 0.0) == 0.0
    assert fermi(3.0, 3.0, 0.0) == 0.5


def test_fermi_one_kT_above():
    kT = CONSTANTS.k_B * 10.0
    assert fermi(kT, 0.0, 10.0) == pytest.approx(1 / (1 + math.e), rel=1e-12)


@given(E=st.floats(-1e6, 1e6), mu=st.floats(-100, 100),
       T=st.floats(1e-3, 1000))
def test_fermi_bounded_and_overflow_safe(E, mu, T):
    f = fermi(E, mu, T)
    assert 0.0 <= f <= 1.0


# --- Current --------------------------------------------------------------

def test_zero_bias_current_is_zero():
    m = make_model()
    assert current(BiasPoint(5.0, 5.0, 0.0), m) == 0.0
    assert current(BiasPoint(5.0, 5.0, 100.0), m) == 0.0


def test_ballistic_current_magnitude():
    I = current(BiasPoint(10.0, 9.0, 0.0), ballistic_model())
    assert I == pytest.approx(G0 * 1e-3, rel=1e-3)
    assert I == pytest.approx(4e-8, rel=0.05)


def test_ballistic_current_temperature_independent():
    # constant transmission: thermal factors integrate to eV exactly
    I0 = current(BiasPoint(10.0, 9.0, 0.0), ballistic_model(bottom=-5000.0))
    I300 = current(BiasPoint(10.0, 9.0, 300.0), ballistic_model(bottom=-5000.0))
    assert I300 == pytest.approx(I0, rel=1e-8)


def test_zero_T_current_matches_arctan_closed_form():
    m = make_model(E0=9.5, Gamma=0.2, bottom=0.0)
    mu_s, mu_d = 10.0, 9.0
    I = current(BiasPoint(mu_s, mu_d, 0.0), m)
    analytic = CURRENT_PER_MEV * (
        (mu_s - mu_d) - 0.2 * (math.atan((mu_s - 9.5) / 0.2)
                               - math.atan((mu_d - 9.5) / 0.2)))
    assert I == pytest.approx(analytic, rel=1e-8)


def test_deficit_exactly_linear_in_weight():
    bias = BiasPoint(10.0, 9.0, 4.2)
    _, d_par = current_components(bias, make_model(E0=9.5))
    _, d_anti = current_components(
        bias, make_model(E0=9.5, orientation=SpinOrientation.ANTIPARALLEL))
    assert d_anti == pytest.approx(0.5 * d_par, rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(Gamma=st.floats(0.05, 2.0), V=st.floats(0.05, 4.0),
       T=st.floats(0.0, 300.0), offset=st.floats(-3.0, 3.0))
@example(Gamma=1.0, V=1.0, T=5e-324, offset=0.0)
def test_bounded_current(Gamma, V, T, offset):
    m = make_model(E0=10.0 + offset, Gamma=Gamma, bottom=-2000.0)
    I = current(BiasPoint(10.0 + V / 2, 10.0 - V / 2, T), m)
    assert abs(I) <= G0 * V * 1e-3 * (1 + 1e-9)


def test_subnormal_temperature_is_exact_zero_T():
    # k_B * 5e-324 K rounds to 0 meV: the sharp-window path must run
    m = make_model(E0=9.5, Gamma=0.2, bottom=0.0)
    for T in (5e-324, 1e-323):
        assert fermi(3.0, 3.0, T) == 0.5
        assert current(BiasPoint(10.0, 9.0, T), m) == current(
            BiasPoint(10.0, 9.0, 0.0), m)
        assert linear_conductance(m, T, 9.6) == linear_conductance(m, 0.0, 9.6)


@pytest.mark.parametrize("T", [1e-300, 0.1, 4.0, 40.0, 300.0])
def test_finite_T_current_exactly_antisymmetric(T):
    m = make_model(E0=7.45, Gamma=0.3, q=0.3j, bottom=7.0)
    for V in (1e-3, 0.5, 2.0, 30.0):
        forward = current(BiasPoint(7.25 + V / 2, 7.25 - V / 2, T), m)
        assert current(BiasPoint(7.25 - V / 2, 7.25 + V / 2, T), m) == -forward


def test_sharp_window_is_exact_and_warning_free():
    # k_B T from 1e-320 K up: where every mu +- 40 kT rounds to mu the
    # closed T = 0 forms hold bit for bit; elsewhere the graded rule runs
    # on ladders of up to ~2000 steps, which must not overflow
    m = make_model(E0=7.25, Gamma=1.0, bottom=0.0)
    for mu in (0.0, 7.25):
        biases = [(mu + 0.5, mu - 0.5), (mu + 1.0, mu)]
        for T in (10.0 ** k for k in range(-320, -19, 15)):
            tail = 40 * thermal_energy(T)
            sharp = lambda *mus: all(x - tail == x == x + tail for x in mus)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                G = linear_conductance(m, T, mu)
                currents = [current(BiasPoint(s, d, T), m) for s, d in biases]
            assert math.isfinite(G)
            if sharp(mu):
                assert G == linear_conductance(m, 0.0, mu)
            for (s, d), I in zip(biases, currents):
                assert math.isfinite(I)
                if sharp(s, d):
                    assert I == current(BiasPoint(s, d, 0.0), m)


@st.composite
def sharp_cases(draw):
    """A model of 1-3 modes, the coupled one anywhere among them, and a
    bias whose chemical potentials lie across, below or above the bottoms,
    or on one, each at least 1e-200 meV from 0 so that 40 kT at 1e-300 K
    rounds away; a zero-width window too."""
    bottoms = draw(st.lists(st.floats(-20, 20), min_size=1, max_size=3))
    coupled = draw(st.integers(0, len(bottoms) - 1))
    model = TransmissionModel(
        ResonanceSpec(draw(st.floats(-20, 20)),
                      draw(st.floats(-3, 1).map(lambda k: 10.0 ** k)),
                      complex(0.0, draw(st.floats(0, 0.99)))),
        draw(st.sampled_from(SpinOrientation)),
        tuple(Mode(b, coupled=i == coupled) for i, b in enumerate(bottoms)))
    mu = st.one_of(st.floats(-30, 30), st.sampled_from(bottoms),
                   st.tuples(st.sampled_from(bottoms), st.floats(-1, 1))
                   .map(sum))
    s = draw(mu.filter(lambda x: abs(x) >= 1e-200))
    d = draw(st.one_of(st.just(s), mu.filter(lambda x: abs(x) >= 1e-200)))
    return model, s, d


@settings(max_examples=300, deadline=None)
@given(case=sharp_cases())
def test_zero_T_closed_forms_equal_the_sharp_rows(case):
    # at kT = 0 the closed forms run directly; at 1e-300 K the same rows
    # are sharp by rounding and run through ``_integrals``, except a point
    # on a subband bottom, which is never sharp: it takes the one-sided
    # limit, each mode with its bottom there at half its transmission
    model, s, d = case
    got = {}
    for T in (0.0, 1e-300):
        bias = BiasPoint(s, d, T)
        got[T] = _row_paths(lambda: (
            current(bias, model), linear_conductance(model, T, s),
            linear_conductance(model, T, d),
            current_components(bias, model, s)))
    (values, paths), (slow, slow_paths) = got[0.0], got[1e-300]
    bottoms = [m.bottom_energy for m in model.modes]
    flat = lambda v: v[:3] + v[3]
    for mu, fast, got_slow in zip((None, s, d, None, None, s), flat(values),
                                  flat(slow)):
        if mu in bottoms:
            limit = G0 * sum(
                mode_transmission(mu, model, i) / (2 if b == mu else 1)
                for i, b in enumerate(bottoms))
            assert got_slow == pytest.approx(limit, rel=1e-12,
                                             abs=1e-14 * G0)
        else:
            assert got_slow.hex() == fast.hex()
    assert paths == dict(dict.fromkeys(landauer.PATHS, 0), sharp=5)
    assert sum(slow_paths.values()) == 5
    assert slow_paths["sharp"] == 5 - sum(mu in bottoms for mu in (s, d, s))
    assert values[0] == -current(BiasPoint(d, s, 0.0), model)


def test_zero_T_enters_no_integrals_pass(monkeypatch):
    cfg = validate(default_config()._replace(temperature=0.0))
    expected = (iv_curves(cfg, [-1.0, 0.0, 1.0]), readout_report(cfg))

    def refuse(*args):
        raise AssertionError("_integrals entered at kT = 0")

    monkeypatch.setattr(landauer, "_integrals", refuse)
    assert (iv_curves(cfg, [-1.0, 0.0, 1.0]), readout_report(cfg)) == expected
    model = model_from_config(cfg)
    assert math.isfinite(linear_conductance(model, 0.0, cfg.mu_source))


def test_iv_curve_points_round_trip_the_columns():
    cfg = validate(default_config()._replace(temperature=0.0))
    curve = iv_curve(cfg, [-1, 0.0, 0.5, 2])
    assert curve.V_sd == (-1.0, 0.0, 0.5, 2.0)
    assert all(type(x) is float for x in curve.V_sd + curve.I + curve.G_diff)
    points = curve.points
    assert all(type(p) is landauer.IVPoint for p in points)
    assert points == tuple(zip(curve.V_sd, curve.I, curve.G_diff))
    assert [p.I for p in points] == list(curve.I)
    assert landauer.IVCurve(*zip(*points)) == curve


def test_conductance_below_float_resolution_is_a_step():
    # k_B T = 9e-302 meV moves no energy near 9.6 meV: -df/dE is a delta
    m = make_model(E0=9.5, Gamma=0.2, bottom=0.0)
    assert linear_conductance(m, 1e-300, 9.6) == linear_conductance(
        m, 0.0, 9.6)


def test_current_antisymmetry():
    cfg = validate(DeviceConfig(
        eps1=8.0, U_C=2.0, J=1.0, beta=0.5, Gamma=0.5,
        mu_source=9.5, V_sd=1.0, temperature=10.0,
        modes=(Mode(0.0, coupled=True),)))
    grid = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
    curve = iv_curve(cfg, grid)
    by_v = {p.V_sd: p.I for p in curve.points}
    assert by_v[0.0] == 0.0
    for v in (0.5, 1.0, 2.0):
        assert by_v[-v] == pytest.approx(-by_v[v], rel=1e-9)


def test_iv_curve_single_zero_point():
    cfg = validate(DeviceConfig(
        eps1=8.0, U_C=2.0, J=1.0, beta=0.0, Gamma=1.0,
        mu_source=5.0, V_sd=0.0, temperature=0.0,
        modes=(Mode(0.0, coupled=True),)))
    curve = iv_curve(cfg, [0.0])
    (pt,) = curve.points
    assert pt.I == 0.0
    # resonance at 9.75, mu at 5: T(mu) = 1 - 1/(4.75^2 + 1)
    expected = G0 * (1 - 1.0 / (4.75**2 + 1.0))
    assert pt.G_diff == pytest.approx(expected, rel=1e-12)


def test_curve_records_have_no_instance_dict():
    # a million-point curve: named tuples and a slotted column record
    for record in (BiasPoint(1.0, 0.0, 0.0), landauer.IVPoint(1.0, 0.0, 0.0),
                   landauer.IVCurve((), (), ())):
        assert not hasattr(record, "__dict__"), type(record).__name__


@pytest.mark.parametrize("T", [0.0, 4.0, 40.0])
def test_iv_curve_single_point_is_exact_derivative(T):
    cfg = validate(DeviceConfig(
        eps1=8.0, U_C=2.0, J=5.0, beta=3.0, Gamma=1.0,
        mu_source=7.25, V_sd=1.0, temperature=T,
        modes=(Mode(0.0, coupled=True), Mode(7.6, coupled=False))))
    (pt,) = iv_curve(cfg, [1.0]).points
    h = 1e-4
    lo, hi = iv_curve(cfg, [1.0 - h, 1.0 + h]).points
    assert pt.G_diff == pytest.approx((hi.I - lo.I) / (2 * h * 1e-3),
                                      rel=1e-7)


@pytest.mark.parametrize("T", [0.0, 4.0, 40.0])
@pytest.mark.parametrize("grid", [[1.0], [-1.0, 0.0, 0.5, 2.0]])
def test_iv_curves_equal_each_orientation_bit_for_bit(T, grid):
    cfg = validate(DeviceConfig(
        eps1=8.0, U_C=2.0, J=5.0, beta=3.0, Gamma=1.0,
        mu_source=7.25, V_sd=1.0, temperature=T, q=0.4j,
        modes=(Mode(0.0, coupled=True), Mode(7.6, coupled=False))))
    par, anti = iv_curves(cfg, grid)
    assert par == iv_curve(cfg._replace(dot_spin=Spin.UP), grid)
    assert anti == iv_curve(cfg._replace(dot_spin=Spin.DOWN), grid)


@pytest.mark.parametrize("block", [1, 3])
def test_graded_rule_blocks_change_no_row(monkeypatch, block):
    # rows evaluated a few at a time, windows and points sharing a block,
    # equal the call that evaluates them all at once
    model = make_model(E0=5.0, bottom=0.0, q=0.4j)
    kT = thermal_energy(4.0)
    windows = [(5.0 - v, 5.0 + v) for v in (0.25, 1.0, 2.0, 8.0)]
    points = [-1.0, 4.5, 5.0, 6.0, 30.0]
    cfg = validate(default_config()._replace(temperature=0.1))
    grid = np.linspace(-2.0, 2.0, 81)
    assert len(windows) + len(points) <= landauer._BLOCK_ROWS
    rows = landauer._graded_rule(model, kT, windows, points).tolist()
    curves = iv_curves(cfg, grid)
    monkeypatch.setattr(landauer, "_BLOCK_ROWS", block)
    assert landauer._graded_rule(model, kT, windows, points).tolist() == rows
    assert iv_curves(cfg, grid) == curves


#: T = 0, a temperature whose k_B T is below every float spacing, and
#: 0.1-100 K.
def test_graded_rule_one_panel_row_equals_its_block_row():
    # a point on E_res 25 kT below the bottom has one panel, above the
    # bottom; its 16 nodes add up in the same order alone as in a block
    model = make_model(E0=7.25, Gamma=1.0, bottom=9.4375)
    kT = thermal_energy(1.0)
    (alone,) = landauer._graded_rule(model, kT, [], [7.25]).tolist()
    block = landauer._graded_rule(model, kT, [(7.0, 7.5)], [6.0, 7.25, 8.0])
    assert block.tolist()[2] == alone


iv_temperatures = st.one_of(st.sampled_from([0.0, 1e-300]),
                            st.floats(-1, 2).map(lambda k: 10.0 ** k))


@settings(max_examples=60, deadline=None)
@given(T=iv_temperatures, q=st.floats(0, 1), Gamma=st.floats(0.05, 3.0),
       offset=st.floats(-2.0, 2.0), n_modes=st.integers(1, 3),
       half_width=st.floats(0.01, 6.0), n=st.integers(1, 6),
       bottom=st.one_of(st.just(0.0), st.floats(-2.0, 10.0)),
       node=st.integers(0, 12), one_sided=st.booleans())
@example(T=0.1, q=0.0, Gamma=1.0, offset=0.0, n_modes=1,
         half_width=2.0, n=3, bottom=0.0, node=0, one_sided=False)
@example(T=0.0, q=0.0, Gamma=1.0, offset=0.0, n_modes=2,
         half_width=4.0, n=4, bottom=7.0, node=0, one_sided=False)
@example(T=0.0, q=0.6, Gamma=0.3, offset=0.0, n_modes=3,
         half_width=1.5, n=3, bottom=7.25, node=5, one_sided=False)
@example(T=0.0, q=0.6, Gamma=0.3, offset=0.0, n_modes=3,
         half_width=1.5, n=3, bottom=7.25, node=2, one_sided=True)
def test_iv_curve_is_current_and_exact_dIdV_pointwise(
        T, q, Gamma, offset, n_modes, half_width, n, bottom, node,
        one_sided):
    # the one-pass kernel against its one-row calls, and the T = 0 curve's
    # G0 T(mu) against linear_conductance, bit for bit; with the coupled
    # subband bottom up to 10 meV, some windows lie below it, and the
    # uncoupled bottom on a node of the grid puts a step of T(mu) on a mu
    pos = [half_width * k / n for k in range(1, n + 1)]
    grid = [0.0] + pos if one_sided else [-v for v in reversed(pos)] + [
        0.0] + pos
    on_node = 7.25 + offset + grid[node % len(grid)] / 2
    modes = ((Mode(bottom, coupled=True), Mode(on_node), Mode(7.6))
             [:n_modes])
    cfg = validate(DeviceConfig(
        eps1=8.0, U_C=2.0, J=5.0, beta=3.0, Gamma=Gamma, q=complex(0, q),
        mu_source=7.25 + offset, V_sd=1.0, temperature=T, modes=modes))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = iv_curve(cfg, grid)
        curves = iv_curves(cfg, grid)
    assert curve == curves[0 if cfg.dot_spin is Spin.UP else 1]
    model = model_from_config(cfg, SpinOrientation.PARALLEL)
    anti = model._replace(orientation=SpinOrientation.ANTIPARALLEL)
    for m, c in zip((model, anti), curves):
        I = [p.I for p in c.points]
        assert one_sided or I == [-i for i in reversed(I)]
        for V, p in zip(grid, c.points):
            bias = BiasPoint(cfg.mu_source + V / 2, cfg.mu_source - V / 2, T)
            G = (linear_conductance(m, T, bias.mu_source)
                 + linear_conductance(m, T, bias.mu_drain)) / 2
            assert p.V_sd == V
            assert p.I.hex() == current(bias, m).hex()
            assert p.G_diff.hex() == G.hex()
    assert curves == (iv_curve(cfg._replace(dot_spin=Spin.UP), grid),
                      iv_curve(cfg._replace(dot_spin=Spin.DOWN), grid))


#: Three modes whose uncoupled bottoms, 6.5 and 8.0 meV, are exactly the
#: mu_drain and mu_source of V = +-1.5 mV about mu_source = 7.25 meV.
MODES3 = (Mode(0.0, coupled=True), Mode(6.5), Mode(8.0))
STEP_GRID = [0.5 * k for k in range(-4, 5)]


def test_zero_T_curve_points_are_their_own_calls_at_a_subband_bottom():
    # T(mu) steps at an uncoupled bottom; a curve point on it must still be
    # its own current and linear_conductance calls, bit for bit
    cfg = validate(DeviceConfig(
        eps1=8.0, U_C=2.0, J=5.0, beta=3.0, Gamma=1.0, q=0.5j,
        mu_source=7.25, V_sd=1.0, temperature=0.0, modes=MODES3))
    curves = iv_curves(cfg, STEP_GRID)
    assert curves[0] == iv_curve(cfg, STEP_GRID)
    model = model_from_config(cfg, SpinOrientation.PARALLEL)
    anti = model._replace(orientation=SpinOrientation.ANTIPARALLEL)
    on_bottom = 0
    for m, c in zip((model, anti), curves):
        for V, p in zip(STEP_GRID, c.points):
            bias = BiasPoint(7.25 + V / 2, 7.25 - V / 2, 0.0)
            on_bottom += {bias.mu_source, bias.mu_drain} >= {6.5, 8.0}
            assert p.I.hex() == current(bias, m).hex()
            G = (linear_conductance(m, 0.0, bias.mu_source)
                 + linear_conductance(m, 0.0, bias.mu_drain)) / 2
            assert p.G_diff.hex() == G.hex()
    assert on_bottom == 4       # V = +-1.5 mV on both curves


@pytest.mark.parametrize("modes", [(Mode(0.0, coupled=True),), MODES3])
def test_zero_T_curve_calls_current_once_per_nonzero_bias(monkeypatch, modes):
    # the call contract that perfbench's tracer counts on: on a mirrored
    # grid each curve makes one landauer.current call per nonzero bias, none
    # at V = 0, and outside those calls one sharp row per distinct mu
    cfg = validate(DeviceConfig(
        eps1=8.0, U_C=2.0, J=5.0, beta=3.0, Gamma=1.0, q=0.5j,
        mu_source=7.25, V_sd=1.0, temperature=0.0, modes=modes))
    calls = []

    def counted(bias, model):
        calls.append(bias)
        token = landauer.ROW_PATHS.set(None)    # the window row uncounted
        try:
            return current(bias, model)
        finally:
            landauer.ROW_PATHS.reset(token)

    monkeypatch.setattr(landauer, "current", counted)
    mus = {7.25 + s * V / 2 for V in STEP_GRID for s in (1, -1)}
    moving = [BiasPoint(7.25 + V / 2, 7.25 - V / 2, 0.0)
              for V in STEP_GRID if V]
    for compute, n_models in ((iv_curve, 1), (iv_curves, 2)):
        calls.clear()
        _, paths = _row_paths(compute, cfg, STEP_GRID)
        assert calls == moving * n_models
        assert {type(b) for b in calls} == {BiasPoint}
        assert paths == dict(dict.fromkeys(landauer.PATHS, 0),
                             sharp=len(mus))


@pytest.mark.parametrize("grid", [STEP_GRID, [0.0, 0.5, 1.5, 3.0]])
def test_zero_T_curve_counts_a_sharp_row_per_distinct_mu(grid):
    # G takes a sharp row per distinct mu (+-V share theirs on a mirrored
    # grid), and each nonzero bias's own current call one window row
    cfg = validate(DeviceConfig(
        eps1=8.0, U_C=2.0, J=5.0, beta=3.0, Gamma=1.0, mu_source=7.25,
        V_sd=1.0, temperature=0.0, modes=MODES3))
    mus = {7.25 + s * V / 2 for V in grid for s in (1, -1)}
    moving = sum(1 for V in grid if V)
    for compute, n_models in ((iv_curve, 1), (iv_curves, 2)):
        _, paths = _row_paths(compute, cfg, grid)
        assert paths == dict(dict.fromkeys(landauer.PATHS, 0),
                             sharp=len(mus) + n_models * moving)


@pytest.mark.parametrize("orientation", list(SpinOrientation))
@pytest.mark.parametrize("mu_s, mu_d", [
    (8.0, 6.5), (6.5, 8.0), (7.3, 7.1), (7.1, 7.3), (9.0, -1.0),
    (-1.0, -2.0), (0.5, -0.5), (-0.5, 0.5), (6.5, 6.5)])
def test_zero_T_current_is_ballistic_sum_minus_dip_integral(
        orientation, mu_s, mu_d):
    # one bias at T = 0: CURRENT_PER_MEV times the open width summed over
    # the modes in order, minus w CURRENT_PER_MEV times the dip integral
    # over the window clipped to the coupled bottom; -V negates both parts
    model = TransmissionModel(ResonanceSpec(7.0, 0.3, 0.4j), orientation,
                              MODES3)
    lo, hi = sorted((mu_s, mu_d))
    ballistic = 0.0
    for mode in MODES3:
        ballistic += (max(0.0, hi - mode.bottom_energy)
                      - max(0.0, lo - mode.bottom_energy))
    ballistic = CURRENT_PER_MEV * ballistic
    clipped = max(0.0, lo)
    dip = dip_integral(model, clipped, hi) if clipped < hi else 0.0
    if mu_s < mu_d:
        ballistic, dip = 0.0 - ballistic, 0.0 - dip
    expected = ballistic - model.weight * (CURRENT_PER_MEV * dip)
    assert current(BiasPoint(mu_s, mu_d, 0.0), model).hex() == expected.hex()


def _count_graded_rows(monkeypatch):
    """Record (window rows, point rows) of every ``_graded_rule`` call."""
    calls = []
    original = landauer._graded_rule

    def counted(model, kT, windows, points):
        calls.append((len(windows), len(points)))
        return original(model, kT, windows, points)

    monkeypatch.setattr(landauer, "_graded_rule", counted)
    return calls


def _row_paths(compute, *args):
    """(compute(*args), its rows counted per path by ``ROW_PATHS``)."""
    paths = dict.fromkeys(landauer.PATHS, 0)
    token = landauer.ROW_PATHS.set(paths)
    try:
        return compute(*args), paths
    finally:
        landauer.ROW_PATHS.reset(token)


@pytest.mark.parametrize("m", [1, 3, 40])
def test_iv_curve_passes_each_mirrored_window_once(monkeypatch, m):
    # +-V share one sorted window: m window rows, and one point row per
    # distinct chemical potential mu_source +- V/2 (2m + 1 of them).  At
    # 4 K the bottom at 0 meV lies 15 kT below the lowest mu, so every row
    # is graded, in one call; 40 kT clear of every mu, every row is closed
    pos = [2.0 * k / m for k in range(1, m + 1)]
    grid = [-v for v in reversed(pos)] + [0.0] + pos
    calls = _count_graded_rows(monkeypatch)
    for bottom, T, path in ((0.0, 4.0, "graded"), (-1000.0, 4.0, "digamma"),
                            (0.0, 0.1, "digamma")):
        cfg = validate(DeviceConfig(
            eps1=8.0, U_C=2.0, J=5.0, beta=3.0, Gamma=1.0, mu_source=7.25,
            V_sd=1.0, temperature=T, modes=(Mode(bottom, coupled=True),)))
        del calls[:]
        curve, paths = _row_paths(iv_curve, cfg, grid)
        assert calls == ([(m, 2 * m + 1)] if path == "graded" else [])
        assert paths == dict(dict.fromkeys(landauer.PATHS, 0),
                             **{path: 3 * m + 1})
        model = model_from_config(cfg)
        for V, p in zip(grid, curve.points):
            bias = BiasPoint(7.25 + V / 2, 7.25 - V / 2, T)
            assert p.I == current(bias, model)


@pytest.mark.parametrize("n_modes", [1, 2])
def test_iv_curve_takes_each_window_ballistic_current_once(monkeypatch,
                                                           n_modes):
    # +-V share one sorted window, so its ballistic current, one open width
    # per mode, is computed once for both signs, on either path
    calls = []
    original = landauer._open_width

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(landauer, "_open_width", counted)
    modes = (Mode(0.0, coupled=True), Mode(6.5))[:n_modes]
    grid = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
    for T, path in ((0.1, "digamma"), (4.0, "graded")):
        cfg = validate(DeviceConfig(
            eps1=8.0, U_C=2.0, J=5.0, beta=3.0, Gamma=1.0, mu_source=7.25,
            V_sd=1.0, temperature=T, modes=modes))
        del calls[:]
        curve, paths = _row_paths(iv_curve, cfg, grid)
        assert len(calls) == 3 * n_modes
        assert paths[path] == 3 + 7
        for p, q in zip(curve.points, reversed(curve.points)):
            assert p.I == -q.I


def test_negative_bias_zero_current_is_positive_zero(tmp_path):
    # a window below the only subband carries no current; at -V it must
    # read 0.0 as at +V, not -0.0
    cfg = default_config()
    model = model_from_config(cfg)
    assert repr(current(BiasPoint(-5.0, -4.0, 0.0), model)) == "0.0"
    assert repr(current(BiasPoint(-4.0, -5.0, 0.0), model)) == "0.0"
    assert main(["iv", "--set", "mu_source=-5", "--set", "temperature=0",
                 "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "iv.csv").read_text().split("\n")[1:]
    values = [v for row in rows if row for v in row.split(",")]
    assert len(values) == 81 * 5
    assert "-0.0" not in values


def test_current_components_appends_exact_conductances(monkeypatch):
    # the window (4.5, 5.5) and the points 5.0 and 4.5 over a bottom at
    # 0 meV: 40 kT is 0.34 meV at 0.1 K and 14 meV at 4 K
    calls = _count_graded_rows(monkeypatch)
    model = make_model(E0=5.0, bottom=0.0)
    for T, path in ((0.0, "sharp"), (1e-300, "sharp"), (0.1, "digamma"),
                    (4.0, "graded"), (40.0, "graded")):
        bias = BiasPoint(5.5, 4.5, T)
        del calls[:]
        (ballistic, deficit, *G), paths = _row_paths(
            current_components, bias, model, 5.0, 4.5)
        assert calls == ([(1, 2)] if path == "graded" else [])
        assert paths == dict(dict.fromkeys(landauer.PATHS, 0), **{path: 3})
        assert (ballistic, deficit) == current_components(bias, model)
        assert G == [linear_conductance(model, T, mu) for mu in (5.0, 4.5)]


@pytest.mark.parametrize("T, kernel_calls", [(0.0, 0), (1e-300, 0),
                                             (0.1, 0), (1.0, 0),
                                             (4.0, 1), (40.0, 1)])
def test_readout_report_makes_at_most_one_kernel_call(monkeypatch, T,
                                                       kernel_calls):
    # the deficit window (6.25, 7.25) and the point at the dip, 7.25 meV,
    # over a bottom at 0 meV: sharp at T = 0 and 1e-300 K, closed while
    # 40 kT clears the bottom (0.1 and 1 K), else graded in one call
    calls = _count_graded_rows(monkeypatch)
    _, paths = _row_paths(readout_report, validate(DeviceConfig(
        eps1=8.0, U_C=2.0, J=5.0, beta=3.0, Gamma=1.0, mu_source=7.25,
        V_sd=1.0, temperature=T, modes=(Mode(0.0, coupled=True),))))
    assert calls == [(1, 1)] * kernel_calls
    path = ("sharp" if T < 1e-3 else "graded" if kernel_calls
            else "digamma")
    assert paths == dict(dict.fromkeys(landauer.PATHS, 0), **{path: 2})


@settings(max_examples=60, deadline=None)
@given(T=iv_temperatures, q=st.floats(0, 1), Gamma=st.floats(0.05, 3.0),
       offset=st.floats(-2.0, 2.0), V=st.floats(-3.0, 3.0),
       two_modes=st.booleans(), spin=st.sampled_from(Spin))
def test_readout_report_is_its_one_row_calls(T, q, Gamma, offset, V,
                                             two_modes, spin):
    modes = (Mode(0.0, coupled=True),) + ((Mode(7.6),) if two_modes else ())
    cfg = validate(DeviceConfig(
        eps1=8.0, U_C=2.0, J=5.0, beta=3.0, Gamma=Gamma, q=complex(0, q),
        mu_source=7.25 + offset, V_sd=V, temperature=T, modes=modes,
        dot_spin=spin))
    report = readout_report(cfg)
    model = model_from_config(cfg, SpinOrientation.PARALLEL)
    bias = BiasPoint(cfg.mu_source, cfg.mu_source - V, T)
    ballistic, deficit = current_components(bias, model)
    assert (report.I_ballistic, report.delta_I_parallel) == (ballistic,
                                                            deficit)
    assert report.conductance_at_resonance == linear_conductance(
        model, T, model.resonance.energy)


def test_iv_zero_bias_conductance_on_the_resonance_is_zero():
    # T = 0, q = 0 and mu on E_res: T(mu) = 0, so dI/dV(0) = 0 exactly
    cfg = validate(DeviceConfig(
        eps1=8.0, U_C=2.0, J=5.0, beta=3.0, Gamma=1.0, mu_source=7.25,
        V_sd=1.0, temperature=0.0, modes=(Mode(0.0, coupled=True),)))
    grid = np.linspace(-2.0, 2.0, 81)
    curve = iv_curve(cfg, (grid - grid[::-1]) / 2)
    assert curve.points[40].V_sd == 0.0
    assert curve.points[40].G_diff == 0.0


def test_iv_curve_rejects_bad_grid():
    cfg = validate(DeviceConfig(
        eps1=8.0, U_C=2.0, J=1.0, beta=0.0, Gamma=1.0,
        mu_source=5.0, V_sd=0.0, temperature=0.0,
        modes=(Mode(0.0, coupled=True),)))
    with pytest.raises(ValueError):
        iv_curve(cfg, [])
    with pytest.raises(ValueError):
        iv_curve(cfg, [1.0, 0.5])


def test_iv_dip_in_differential_conductance():
    # resonance 0.4 meV above mu: the dip shows when mu_s crosses it
    cfg = validate(DeviceConfig(
        eps1=9.35, U_C=0.0, J=0.4, beta=0.0, Gamma=0.05,
        mu_source=8.85, V_sd=0.0, temperature=0.0,
        modes=(Mode(0.0, coupled=True),)))
    grid = list(np.linspace(0.0, 2.0, 201))
    curve = iv_curve(cfg, grid)
    g = np.array([p.G_diff for p in curve.points])
    v = np.array([p.V_sd for p in curve.points])
    v_dip = v[np.argmin(g[1:-1]) + 1]
    # mu_s = mu + V/2 hits the resonance (9.25) at V = 0.8 mV
    assert v_dip == pytest.approx(0.8, abs=0.05)
    assert g.min() < 0.6 * G0


# --- Linear conductance ---------------------------------------------------

def test_linear_conductance_ballistic_zero_T():
    G = linear_conductance(ballistic_model(), 0.0, 10.0)
    assert G == pytest.approx(G0, rel=1e-12)
    assert 1.0 / G == pytest.approx(25.8e3, rel=1e-2)


def test_linear_conductance_antiresonance_zero_T():
    m = make_model(E0=10.0, Gamma=1.0)
    assert linear_conductance(m, 0.0, 10.0) == 0.0


def test_thermal_washout_monotone():
    m = make_model(E0=0.0, Gamma=1.0, bottom=-5000.0)
    temps = [k / CONSTANTS.k_B for k in (0.01, 0.1, 1.0, 10.0)]
    G = [linear_conductance(m, T, 0.0) for T in temps]
    assert all(b >= a for a, b in zip(G, G[1:]))
    assert G[-1] > 0.9 * G0
    assert all(g < G0 for g in G)


def test_optimal_bias():
    assert optimal_bias(1.0) == 1.0
    assert optimal_bias(0.5) == 0.5
    assert optimal_bias(2.0) == 2.0
    with pytest.raises(ValueError):
        optimal_bias(0.0)


# --- Finite-T kernel against mpmath ---------------------------------------

KT_REF, MU_REF, V_REF = 0.1, 7.25, 0.5      # meV: window 7.0 .. 7.5 meV
KERNEL_CASES = [
    # Gamma/kT in {1e-3, 1, 1e3}; subband bottom far below, inside the bias
    # window, and 2.5 kT above it; resonance inside the window
    (G, q, bottom, 7.45)
    for G in (1e-4, 0.1, 100.0)
    for q in (0j, 0.5j)
    for bottom in (-1000.0, 7.15, 7.75)
] + [
    (0.1, 0.5j, -1000.0, 4.25),         # resonance 30 kT below the window
    (1e-4, 0.5j, 7.15, 7.5),            # resonance on mu_source
    (100.0, 0.5j, 7.15, 17.25),         # broad resonance far above
]


def _mpmath_reference(Gamma, q, bottom, E_res):
    """(unit-weight deficit in meV, parallel G / G0), by mpmath quadrature
    on panels graded by 8 from E_res (scale Gamma) and each mu (scale kT),
    out to 60 kT."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(20):
        kT, qm = mp.mpf(KT_REF), mp.mpc(q)

        def dip(E):
            return 1 - abs(E - E_res + qm * Gamma) ** 2 / (
                (E - E_res) ** 2 + Gamma ** 2)

        def f(E, mu):
            return 1 / (1 + mp.exp((E - mu) / kT))

        def integral(g, lo, hi, centres):
            if lo >= hi:
                return 0
            pts = {lo, hi} | {c for c, _ in centres if lo < c < hi}
            pts |= {p for c, s in centres for k in range(-1, 30)
                    for p in (c - s * 8 ** k, c + s * 8 ** k) if lo < p < hi}
            return mp.quad(g, sorted(pts), method="gauss-legendre")

        mu_s, mu_d = MU_REF + V_REF / 2, MU_REF - V_REF / 2
        deficit = integral(lambda E: dip(E) * (f(E, mu_s) - f(E, mu_d)),
                           max(bottom, mu_d - 60 * KT_REF),
                           mu_s + 60 * KT_REF,
                           [(E_res, Gamma), (mu_s, KT_REF), (mu_d, KT_REF)])
        g_dip = integral(lambda E: dip(E) * f(E, MU_REF) * (1 - f(E, MU_REF))
                         / kT, max(bottom, MU_REF - 60 * KT_REF),
                         MU_REF + 60 * KT_REF,
                         [(E_res, Gamma), (MU_REF, KT_REF)])
        return float(deficit), float(f(bottom, MU_REF) - g_dip)


@pytest.mark.parametrize("Gamma, q, bottom, E_res", KERNEL_CASES)
def test_finite_T_kernel_matches_mpmath(Gamma, q, bottom, E_res):
    deficit, g = _mpmath_reference(Gamma, q, bottom, E_res)
    m = make_model(E0=E_res, Gamma=Gamma, q=q, bottom=bottom)
    T = KT_REF / CONSTANTS.k_B
    _, d = current_components(
        BiasPoint(MU_REF + V_REF / 2, MU_REF - V_REF / 2, T), m)
    assert abs(d / CURRENT_PER_MEV - deficit) <= 1e-12 * V_REF
    assert abs(linear_conductance(m, T, MU_REF) / G0 - g) <= 1e-12


# --- Closed finite-T rows: the complex digamma form ------------------------

mpmath = pytest.importorskip("mpmath")

#: Re z >= 1/2 and |z| up to ~1e300, log-uniform in each part.
psi_arguments = st.builds(
    complex, st.floats(-1, 4).map(lambda k: max(0.5, 0.4 + 10.0 ** k)),
    st.floats(-300, 300).map(lambda k: 10.0 ** k) | st.just(0.0))


@settings(max_examples=300, deadline=None)
@given(z=psi_arguments, sign=st.sampled_from([1, -1]),
       step=st.floats(-10, 1).map(lambda k: 10.0 ** k) | st.just(0.0))
@example(z=complex(1.4616321449683622, 0.0), sign=1, step=0.0)
@example(z=complex(0.5, 1e300), sign=-1, step=1e-6)
@example(z=complex(0.5, 3.0), sign=1, step=2.0)     # the segment crosses 0
def test_psi_slope_matches_mpmath(z, sign, step):
    # (psi(z) - psi(z - dz)) / dz for a step dz = i step |z| along Im z, as
    # the rows take it, and psi'(z) at step 0
    z = complex(z.real, sign * z.imag)
    dz = complex(0.0, step * abs(z))
    digits = 30 + max(0, round(math.log10(abs(z) / abs(dz)))) if dz else 30
    with mpmath.workdps(digits):
        if dz:
            Z, D = mpmath.mpc(z), mpmath.mpc(dz)
            reference = complex((mpmath.digamma(Z) - mpmath.digamma(Z - D))
                                / D)
        else:
            reference = complex(mpmath.psi(1, z))
    got = landauer._psi_slope(z, dz)
    assert abs(got - reference) <= 1e-14 * abs(reference)


def _digamma_rows(model, kT, lo, hi):
    """The unit-weight rows of the window (lo, hi) and of the point lo over
    the whole line, the point row as ``_integrals`` gives it (divided by
    kT), from 50-digit mpmath digamma and trigamma: (1 - |q|^2) Gamma
    Im[psi(z(hi)) - psi(z(lo))] and (1 - |q|^2) Gamma Re psi'(z(lo)) /
    (2 pi kT), z(mu) = 1/2 + (Gamma + i (mu - E_res)) / (2 pi kT)."""
    res = model.resonance
    with mpmath.workdps(50):
        s = 2 * mpmath.pi * mpmath.mpf(kT)
        scale = (1 - abs(res.q) ** 2) * mpmath.mpf(res.Gamma)

        def z(mu):
            return 0.5 + mpmath.mpc(res.Gamma, mpmath.mpf(mu) - res.energy) / s

        window = scale * mpmath.im(mpmath.digamma(z(hi))
                                   - mpmath.digamma(z(lo)))
        point = scale * mpmath.re(mpmath.psi(1, z(lo))) / s
        return float(window), float(point)


def _path_rows(model, kT, lo, hi):
    """The rows of the window (lo, hi) and of the point lo as
    ``_integrals`` gives them, and their count per path."""
    (((_, deficit),), (dip,)), paths = _row_paths(
        landauer._integrals, model, kT, [BiasPoint(hi, lo, 1.0)], [lo])
    return (deficit, dip), paths


@settings(max_examples=200, deadline=None)
@given(T=st.floats(-1.5, 2).map(lambda k: 10.0 ** k),
       ratio=st.floats(-8, 3).map(lambda k: 10.0 ** k),
       width=st.floats(-9, 1.5).map(lambda k: 10.0 ** k),
       offset=st.floats(-60, 60), q=st.floats(0, 0.99))
@example(T=0.1, ratio=1e-6, width=1e-9, offset=12.0, q=0.0)
@example(T=4.0, ratio=1e-6, width=1e-9, offset=-15.0, q=0.5)
@example(T=1.0, ratio=1e-6, width=20.0, offset=-5.0, q=0.0)
@example(T=40.0, ratio=1e3, width=1e-9, offset=0.5, q=0.0)
@example(T=4.7, ratio=2.5e-6, width=1e-9, offset=-40.3, q=0.0)
def test_closed_rows_match_the_graded_rule(T, ratio, width, offset, q):
    # Gamma / (2 pi kT) = ratio, the window (lo, hi) of width kT * width,
    # E_res = 7.25 meV offset by kT * offset from its centre; the bottom
    # out of reach, so every row integrates the Lorentzian over the whole
    # line (up to Fermi tails of weight e^-40).  A row is closed exactly
    # where the real part of its digamma slope holds _DIRECT_SHARE of the
    # modulus, else graded; either way, and the graded rule itself, it
    # matches mpmath
    kT = thermal_energy(T)
    E_res = 7.25
    lo = E_res - kT * (offset + width / 2)
    hi = lo + kT * width
    Gamma = 2 * math.pi * kT * ratio
    model = make_model(E0=E_res, Gamma=Gamma, q=complex(0, q),
                       bottom=lo - 1000 * kT)
    rows, paths = _path_rows(model, kT, lo, hi)
    s = 2 * math.pi * kT
    closed = sum(abs(Q.real) >= landauer._DIRECT_SHARE * abs(Q) for Q in (
        landauer._psi_slope(complex(0.5 + Gamma / s, (mu - E_res) / s),
                            complex(0.0, dy))
        for mu, dy in ((hi, (hi - lo) / s), (lo, 0.0))))
    assert paths == dict(sharp=0, digamma=closed, graded=2 - closed)
    window, point = landauer._graded_rule(model, kT, [(lo, hi)], [lo])
    reference = _digamma_rows(model, kT, lo, hi)
    for got in (rows, (window, point / kT)):
        for g, r in zip(got, reference):
            assert abs(g - r) <= 1e-13 * abs(r)


def test_graded_rule_resolves_a_narrow_dip_near_7_meV():
    # Gamma = 1e-6 2 pi kT at 0.1 K, E_res 12 kT above a 1e-9 kT window
    # centred at 7.25 meV: measured from E_res, the nodes keep the dip's
    # digits, which E near 7 meV (ulp 8.9e-16 meV against Gamma = 5.4e-8
    # meV) would round away
    kT = thermal_energy(0.1)
    lo, hi = 7.25 - 0.5e-9 * kT, 7.25 + 0.5e-9 * kT
    model = make_model(E0=7.25 + 12 * kT, Gamma=2e-6 * math.pi * kT,
                       bottom=lo - 1000 * kT)
    window, point = landauer._graded_rule(model, kT, [(lo, hi)], [lo])
    for got, reference in zip((window, point / kT),
                              _digamma_rows(model, kT, lo, hi)):
        assert abs(got - reference) <= 1e-13 * abs(reference)


def test_graded_rule_reaches_a_narrow_dip_past_40_kT():
    # a point row 40.3 kT below E_res, Gamma = 2.5e-6 2 pi kT at 4.7 K: the
    # peak's weight pi Gamma e^-40 is not small against a row of order
    # Gamma^2 / kT, so the row's range reaches 40 kT past E_res
    kT = thermal_energy(4.7)
    mu = 7.25
    model = make_model(E0=mu + 40.3 * kT, Gamma=5e-6 * math.pi * kT,
                       bottom=mu - 1000 * kT)
    (point,) = landauer._graded_rule(model, kT, [], [mu])
    reference = _digamma_rows(model, kT, mu, mu)[1]
    assert abs(point / kT - reference) <= 1e-13 * reference


def test_split_domain_rows_count_as_graded():
    # Gamma << 2 pi kT with E_res far outside the window: the digamma
    # slope's real part is below _DIRECT_SHARE of it, so both rows are
    # graded rows of one call, which numpy evaluates
    kT = thermal_energy(1.0)
    lo, hi = 7.0, 7.5
    model = make_model(E0=7.25 + 20 * kT, Gamma=1e-6, bottom=-1000.0)
    rows, paths = _path_rows(model, kT, lo, hi)
    assert paths == dict(dict.fromkeys(landauer.PATHS, 0), graded=2)
    window, point = landauer._graded_rule(model, kT, [(lo, hi)], [lo])
    assert rows == (window, point / kT)


@pytest.mark.parametrize("T", [0.1, 4.0, 40.0])
def test_rows_take_the_closed_form_exactly_40_kT_clear(T):
    # the highest bottom with mu_lo - bottom >= 40 kT takes the closed
    # form, one ulp higher the graded rule; each agrees with the other to
    # rounding
    kT = thermal_energy(T)
    lo, hi = 7.0, 7.5
    tail = landauer.FERMI_TAIL_KT * kT
    edge = lo - tail
    while lo - edge < tail:
        edge = math.nextafter(edge, -math.inf)
    while lo - math.nextafter(edge, math.inf) >= tail:
        edge = math.nextafter(edge, math.inf)
    rows = {}
    for bottom, path in ((edge, "digamma"),
                         (math.nextafter(edge, math.inf), "graded")):
        model = make_model(E0=7.45, Gamma=0.3, q=0.5j, bottom=bottom)
        rows[path], paths = _row_paths(
            landauer._integrals, model, kT, [BiasPoint(hi, lo, T)], [lo])
        assert paths == dict(dict.fromkeys(landauer.PATHS, 0), **{path: 2})
    (((_, closed),), (closed_dip,)) = rows["digamma"]
    (((_, graded),), (graded_dip,)) = rows["graded"]
    assert closed == pytest.approx(graded, rel=1e-13)
    assert closed_dip == pytest.approx(graded_dip, rel=1e-13)


@st.composite
def _integrals_calls(draw):
    """(model, T, biases, mus) for one ``_integrals`` call: E_res 7.25 meV
    over a bottom at 0, 6.5, 7.0 or -1000 meV, at 1e-300 to 40 K, and a
    shuffled bias list with repeats, +-V pairs, zero-width windows and
    chemical potentials on the bottom."""
    bottom = draw(st.sampled_from([0.0, 6.5, 7.0, -1000.0]))
    T = draw(st.sampled_from([1e-300, 0.1, 1.0, 4.0, 40.0]))
    model = make_model(E0=7.25, Gamma=draw(st.sampled_from([1e-4, 0.3, 1.0])),
                       q=draw(st.sampled_from([0j, 0.5j])), bottom=bottom)
    mu = st.sampled_from([bottom, 0.0, 6.5, 7.0, 7.25, 7.5, 8.0]) | st.floats(
        -2.0, 12.0)
    windows = draw(st.lists(st.tuples(mu, mu), min_size=1, max_size=5))
    biases = [BiasPoint(s, d, T) for s, d in windows]
    biases += [BiasPoint(d, s, T)                               # -V
               for s, d in draw(st.lists(st.sampled_from(windows),
                                         max_size=4))]
    biases += draw(st.lists(st.sampled_from(biases), max_size=3))  # repeats
    biases += [BiasPoint(m, m, T) for m in draw(st.lists(mu, max_size=2))]
    return model, T, draw(st.permutations(biases)), draw(st.lists(
        mu, max_size=5))


@settings(max_examples=60, deadline=None)
@given(call=_integrals_calls())
@example(call=(make_model(E0=7.25, Gamma=1.0, bottom=0.0), 4.0,  # graded
               [BiasPoint(7.5, 7.0, 4.0), BiasPoint(7.0, 7.5, 4.0),
                BiasPoint(7.0, 7.0, 4.0), BiasPoint(7.5, 7.0, 4.0)],
               [7.0, 0.0, 7.0]))
@example(call=(make_model(E0=7.25, Gamma=1.0, bottom=0.0), 0.1,  # digamma
               [BiasPoint(7.0, 7.5, 0.1), BiasPoint(7.5, 7.0, 0.1)],
               [7.5, 7.25]))
@example(call=(make_model(E0=7.25, Gamma=1.0, bottom=-1000.0), 1e-300,
               [BiasPoint(7.5, 7.0, 1e-300), BiasPoint(0.0, 0.5, 1e-300)],
               [7.0, 0.0]))                             # sharp and graded
def test_integrals_rows_equal_their_own_calls(call):
    # each distinct sorted window and each mu is one row, whatever else the
    # call holds: each bias's pair equals its one-bias call and each dip
    # its one-mu call bit for bit, and the rows counted add up
    model, T, biases, mus = call
    kT = thermal_energy(T)
    (pairs, dips), paths = _row_paths(landauer._integrals, model, kT,
                                      biases, mus)
    windows = {tuple(sorted(b[:2])) for b in biases}
    assert sum(paths.values()) == len(windows) + len(mus)
    assert len(pairs) == len(biases) and len(dips) == len(mus)
    for bias, pair in zip(biases, pairs):
        ((alone,), _) = landauer._integrals(model, kT, [bias], [])
        assert [x.hex() for x in pair] == [x.hex() for x in alone]
    for mu, dip in zip(mus, dips):
        _, (alone,) = landauer._integrals(model, kT, [], [mu])
        assert (dip is None and alone is None) or dip.hex() == alone.hex()


def test_zero_mu_at_1e_300_K_stays_on_the_graded_rule():
    # mu = 0 meV is never sharp; at 1e-300 K its |z| ~ 1e301 is beyond the
    # closed form's range, so the row keeps the graded rule's value, the
    # limit G0 T(0)
    model = make_model(E0=7.25, Gamma=1.0, bottom=-1000.0)
    kT = thermal_energy(1e-300)
    (ballistic, deficit, G), paths = _row_paths(
        current_components, BiasPoint(0.5, 0.0, 1e-300), model, 0.0)
    assert paths == dict(dict.fromkeys(landauer.PATHS, 0), graded=2)
    window, point = landauer._graded_rule(model, kT, [(0.0, 0.5)], [0.0])
    assert deficit == CURRENT_PER_MEV * window
    assert G == landauer._conductance(model, kT, 0.0, point / kT)
    assert math.isfinite(deficit) and math.isfinite(G)
    assert G == pytest.approx(G0 * total_transmission(0.0, model), rel=1e-14)


@pytest.mark.parametrize("T", [1e-30, 1e-300])
@pytest.mark.parametrize("mu, bottom", [
    (0.0, -1000.0), (1e-300, -1000.0), (-1e-300, -1000.0), (5e-301, -1000.0),
    (0.0, 0.0), (6.5, 6.5)])                    # the last two on the bottom
def test_point_rows_keep_their_fermi_peak_at_any_mu(T, mu, bottom):
    # k_B T far below the float spacing at mu - E_res: each graded piece is
    # measured from its own centre, so the Fermi peak at mu keeps its
    # digits and G is G0 T(mu), or on the bottom its one-sided limit
    model = make_model(E0=7.25, Gamma=1.0, bottom=bottom)
    limit = G0 * total_transmission(mu, model) / (2 if mu == bottom else 1)
    assert linear_conductance(model, T, mu) == pytest.approx(limit,
                                                             rel=1e-14)


def test_graded_rule_keeps_a_point_row_far_from_the_resonance():
    # eps1 = 1e6 meV at 4 K puts E_res 3e6 kT above mu_source; the point
    # row's nodes, measured from mu, do not round to ulp(1e6) = 1.2e-10 meV
    cfg = validate(default_config()._replace(eps1=1e6, temperature=4.0))
    model = model_from_config(cfg, SpinOrientation.PARALLEL)
    kT = thermal_energy(4.0)
    mu = cfg.mu_source
    (got,) = landauer._graded_rule(model, kT, [], [mu])
    reference = _row_reference(model, kT, mu, mu)
    assert abs(got - reference) <= 1e-15 * reference


@settings(max_examples=40, deadline=None)
@given(T=st.floats(-1, math.log10(50)).map(lambda k: 10.0 ** k),
       ratio=st.floats(-4, 3).map(lambda k: 10.0 ** k),
       q=st.floats(0, 0.99),
       offset=st.floats(-60, 60) | st.floats(2, 6).map(lambda k: 10.0 ** k)
       | st.floats(2, 6).map(lambda k: -10.0 ** k),
       width=st.just(0.0) | st.floats(-9, 2).map(lambda k: 10.0 ** k),
       clearance=st.floats(-5, 40) | st.just(1000.0))
@example(T=4.0, ratio=0.3, q=0.0, offset=-1e6, width=0.0, clearance=21.0)
@example(T=4.0, ratio=0.3, q=0.0, offset=-1e6, width=1.0, clearance=21.0)
def test_graded_rows_match_mpmath(T, ratio, q, offset, width, clearance):
    # a window of width kT * width (a point at 0) centred kT * offset from
    # E_res, its lowest mu kT * clearance above the bottom (below it where
    # negative), Gamma = kT * ratio: nearby bottoms, resonances near and
    # far; at the far ones E - E_res rounds by far more than 1e-14 kT
    kT = thermal_energy(T)
    E_res = 7.25
    lo = E_res + kT * (offset - width / 2)
    hi = lo + kT * width
    model = make_model(E0=E_res, Gamma=kT * ratio, q=complex(0, q),
                       bottom=lo - kT * clearance)
    (got,) = landauer._graded_rule(model, kT, [(lo, hi)] if width else [],
                                   [] if width else [lo])
    reference = _row_reference(model, kT, lo, hi)
    assert abs(got - reference) <= 1e-14 * abs(reference)


def _row_reference(model, kT, lo, hi):
    """The graded row of the window (lo, hi), or of the point lo == hi, over
    E > bottom: (1 - |q|^2) integral of L(E) n f(x_hi) f(-x_lo), n = 1 -
    e^((lo - hi) / kT) (1 at a point), by mpmath quadrature in units of kT,
    x = E / kT, times kT, so that a row of any size keeps its digits against
    quad's absolute error control: on [max(bottom, lo - 60 kT), hi + 60 kT],
    panels graded by 8 from E_res (scale Gamma) and each mu (scale kT)."""
    res = model.resonance
    bottom = model.modes[model.coupled_index].bottom_energy
    with mpmath.workdps(50):
        kT_ = mpmath.mpf(kT)
        e_res, g, x_lo, x_hi, x_bottom = (mpmath.mpf(v) / kT_ for v in (
            res.energy, res.Gamma, lo, hi, bottom))
        numerator = 1 if lo == hi else -mpmath.expm1(x_lo - x_hi)

        def f(x):
            return 1 / (1 + mpmath.exp(x))

        def integrand(x):
            return (g ** 2 / ((x - e_res) ** 2 + g ** 2)
                    * f(x - x_hi) * f(x_lo - x))

        a = max(x_bottom, x_lo - 60)
        b = x_hi + 60
        pts = {a, b} | {c + sign * s * mpmath.mpf(8) ** k
                        for c, s in ((e_res, g), (x_lo, 1), (x_hi, 1))
                        for k in range(-1, 170) for sign in (0, -1, 1)}
        pts = sorted(p for p in pts if a <= p <= b)
        return float((1 - abs(res.q) ** 2) * numerator * kT_
                     * mpmath.quad(integrand, pts, method="gauss-legendre"))


@pytest.mark.parametrize("lo, hi", [(0.0, 1e-300), (0.0, 0.0)])
def test_graded_rows_at_1e_300_K_match_mpmath(lo, hi):
    # a window of 11,600 kT, and a point, on the bottom at 1e-300 K: rows
    # of order 1e-302 and 1e-303 meV, which the kT-unit reference resolves
    model = make_model(E0=7.25, Gamma=1.0, bottom=0.0)
    kT = thermal_energy(1e-300)
    (got,) = landauer._graded_rule(model, kT, [(lo, hi)] if hi > lo else [],
                                   [] if hi > lo else [lo])
    reference = _row_reference(model, kT, lo, hi)
    assert abs(got - reference) <= 1e-15 * reference


@pytest.mark.parametrize("width", [1e2, 1e8, 1e14, 1e16, 1e20, 1e150])
@pytest.mark.parametrize("far", ["below the bottom", "above E_res"])
def test_graded_rule_keeps_wide_windows(width, far):
    # the default device at 4 K, a window ``width`` kT wide from mu = E_res
    # to a chemical potential far below the bottom or far above E_res: each
    # Fermi factor lies in [0, 1], so nothing cancels however wide
    kT = thermal_energy(4.0)
    model = model_from_config(default_config(), SpinOrientation.PARALLEL)
    mu = model.resonance.energy
    lo, hi = ((mu - width * kT, mu) if far == "below the bottom"
              else (mu, mu + width * kT))
    (got,) = landauer._graded_rule(model, kT, [(lo, hi)], [])
    reference = _row_reference(model, kT, lo, hi)
    assert abs(got - reference) <= 1e-13 * reference


@pytest.mark.parametrize("V", [1e20, -1e20, 1e16])
def test_wide_bias_readout_matches_mpmath(V):
    # mu_drain = mu_source - V, 2.9e16 to 2.9e20 kT from mu_source at 4 K
    cfg = validate(default_config()._replace(temperature=4.0, V_sd=V))
    report = readout_report(cfg)
    model = model_from_config(cfg, SpinOrientation.PARALLEL)
    lo, hi = sorted((cfg.mu_source, cfg.mu_source - V))
    reference = math.copysign(CURRENT_PER_MEV * _row_reference(
        model, thermal_energy(4.0), lo, hi), V)
    assert abs(report.delta_I_parallel - reference) <= 1e-13 * abs(reference)
    assert report.delta_I_antiparallel == report.delta_I_parallel / 2


# --- The ballistic window --------------------------------------------------

def _open_width_reference(lo, hi, bottom, kT):
    """kT [softplus((hi - bottom) / kT) - softplus((lo - bottom) / kT)] in
    mpmath, from the float arguments as they are, with 50 digits beyond
    those the difference cancels."""
    scale = max(1.0, abs(hi - bottom) / kT, abs(lo - bottom) / kT)
    digits = 50 + max(0, math.ceil(math.log10(scale * kT / (hi - lo))))
    with mpmath.workdps(digits):
        kT = mpmath.mpf(kT)

        def softplus(mu):
            return mpmath.log1p(mpmath.exp((mpmath.mpf(mu) - bottom) / kT))

        return float(kT * (softplus(hi) - softplus(lo)))


@settings(max_examples=300, deadline=None)
@given(T=st.floats(-2, 3).map(lambda k: 10.0 ** k),
       mu=st.floats(-50.0, 50.0), x=st.floats(-60.0, 60.0),
       dx=st.floats(-12, 3.5).map(lambda k: 10.0 ** k))
@example(T=4.0, mu=7.25, x=0.0, dx=1e-9)
@example(T=0.1, mu=-5.0, x=-600.0, dx=1e3)      # past expm1's range
def test_open_width_matches_mpmath(T, mu, x, dx):
    # the window (mu, mu + dx kT) over a bottom x kT below mu
    kT = thermal_energy(T)
    lo, hi = mu, mu + dx * kT
    assume(hi > lo)
    bottom = mu - x * kT
    got = landauer._open_width(lo, hi, bottom, kT)
    reference = _open_width_reference(lo, hi, bottom, kT)
    assert abs(got - reference) <= 1e-13 * reference


@pytest.mark.parametrize("lo, hi, bottom, T", [
    (7.25 - 5e-10, 7.25 + 5e-10, 6.5, 4.0),     # a 1e-9 mV window
    (7.25 - 5e-10, 7.25 + 5e-10, 6.5, 300.0),
    (6.75, 7.75, 0.0, 1e20),                    # f = 1/2 everywhere
    (6.75, 7.75, 0.0, 1e150),
    (6.75, 7.75, -1e20, 4.0),                   # a bottom far below
    (7.0, 7.5, -config.LIMIT, 0.1),
    (-20.0, -5.0, 0.0, 0.1),                    # 580 kT below the bottom
    (-5.0, 5.0, -10.0, 0.1)])                   # a 1160 kT window
def test_open_width_keeps_the_window(lo, hi, bottom, T):
    # the bias is a factor, so it does not cancel against a far bottom or
    # a hot Fermi function
    kT = thermal_energy(T)
    reference = _open_width_reference(lo, hi, bottom, kT)
    assert abs(landauer._open_width(lo, hi, bottom, kT)
               - reference) <= 1e-13 * reference


@pytest.mark.parametrize("T", [0.0, 4.0])
@pytest.mark.parametrize("bottom", [-1e20, -config.LIMIT])
def test_far_bottom_current_follows_the_bias(T, bottom):
    # a passive wire: sign(I) = sign(V), and the dip only takes current
    # away from the ballistic current, 0 <= I / I_ballistic <= 1
    cfg = validate(default_config()._replace(
        temperature=T, modes=(Mode(bottom, coupled=True),)))
    grid = [-2.0, -1.0, -0.5, -1e-6, 0.0, 1e-6, 0.5, 1.0, 2.0]
    model = model_from_config(cfg, SpinOrientation.PARALLEL)
    for V, p in zip(grid, iv_curve(cfg, grid).points):
        ballistic, deficit = current_components(BiasPoint(
            cfg.mu_source + V / 2, cfg.mu_source - V / 2, T), model)
        assert p.I == ballistic - deficit
        sign = (V > 0) - (V < 0)
        assert (p.I > 0) - (p.I < 0) == sign
        assert 0.0 <= sign * p.I <= sign * ballistic
    report = readout_report(cfg)
    assert 0.0 < report.I_parallel <= report.I_ballistic
