import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fanospin import landauer
from fanospin.cli import main
from fanospin.config import DeviceConfig, Mode, Spin, default_config, validate
from fanospin.constants import CONSTANTS, CURRENT_PER_MEV, thermal_energy
from fanospin.dot_spectrum import ResonanceSpec
from fanospin.fano import SpinOrientation, TransmissionModel
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
    assert par == iv_curve(dataclasses.replace(cfg, dot_spin=Spin.UP), grid)
    assert anti == iv_curve(dataclasses.replace(cfg, dot_spin=Spin.DOWN),
                            grid)


#: T = 0, a temperature whose k_B T is below every float spacing, and
#: 0.1-100 K.
iv_temperatures = st.one_of(st.sampled_from([0.0, 1e-300]),
                            st.floats(-1, 2).map(lambda k: 10.0 ** k))


@settings(max_examples=60, deadline=None)
@given(T=iv_temperatures, q=st.floats(0, 1), Gamma=st.floats(0.05, 3.0),
       offset=st.floats(-2.0, 2.0), two_modes=st.booleans(),
       half_width=st.floats(0.01, 6.0), n=st.integers(1, 6),
       bottom=st.one_of(st.just(0.0), st.floats(-2.0, 10.0)))
@example(T=0.1, q=0.0, Gamma=1.0, offset=0.0, two_modes=False,
         half_width=2.0, n=3, bottom=0.0)
@example(T=0.0, q=0.0, Gamma=1.0, offset=0.0, two_modes=True,
         half_width=4.0, n=4, bottom=7.0)
def test_iv_curve_is_current_and_exact_dIdV_pointwise(
        T, q, Gamma, offset, two_modes, half_width, n, bottom):
    # the one-pass kernel against its one-row calls, bit for bit; with the
    # coupled subband bottom up to 10 meV, some windows lie below it
    modes = (Mode(bottom, coupled=True),) + ((Mode(7.6),) if two_modes
                                            else ())
    cfg = validate(DeviceConfig(
        eps1=8.0, U_C=2.0, J=5.0, beta=3.0, Gamma=Gamma, q=complex(0, q),
        mu_source=7.25 + offset, V_sd=1.0, temperature=T, modes=modes))
    pos = [half_width * k / n for k in range(1, n + 1)]
    grid = [-v for v in reversed(pos)] + [0.0] + pos
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = iv_curve(cfg, grid)
        curves = iv_curves(cfg, grid)
    assert curve == curves[0 if cfg.dot_spin is Spin.UP else 1]
    model = model_from_config(cfg, SpinOrientation.PARALLEL)
    anti = dataclasses.replace(model, orientation=SpinOrientation.ANTIPARALLEL)
    for m, c in zip((model, anti), curves):
        I = [p.I for p in c.points]
        assert I == [-i for i in reversed(I)]
        for V, p in zip(grid, c.points):
            bias = BiasPoint(cfg.mu_source + V / 2, cfg.mu_source - V / 2, T)
            assert p.V_sd == V
            assert p.I == current(bias, m)
            assert p.G_diff == (linear_conductance(m, T, bias.mu_source)
                                + linear_conductance(m, T, bias.mu_drain)) / 2
    assert curves == (iv_curve(dataclasses.replace(cfg, dot_spin=Spin.UP),
                               grid),
                      iv_curve(dataclasses.replace(cfg, dot_spin=Spin.DOWN),
                               grid))


def _count_graded_rows(monkeypatch):
    """Record (window rows, point rows) of every ``_graded_rule`` call."""
    calls = []
    original = landauer._graded_rule

    def counted(model, kT, windows, points):
        calls.append((len(windows), len(points)))
        return original(model, kT, windows, points)

    monkeypatch.setattr(landauer, "_graded_rule", counted)
    return calls


@pytest.mark.parametrize("m", [1, 3, 40])
def test_iv_curve_passes_each_mirrored_window_once(monkeypatch, m):
    # +-V share one sorted window: m window rows, and one point row per
    # distinct chemical potential mu_source +- V/2 (2m + 1 of them)
    cfg = validate(DeviceConfig(
        eps1=8.0, U_C=2.0, J=5.0, beta=3.0, Gamma=1.0, mu_source=7.25,
        V_sd=1.0, temperature=4.0, modes=(Mode(0.0, coupled=True),)))
    pos = [2.0 * k / m for k in range(1, m + 1)]
    grid = [-v for v in reversed(pos)] + [0.0] + pos
    calls = _count_graded_rows(monkeypatch)
    curve = iv_curve(cfg, grid)
    assert calls == [(m, 2 * m + 1)]
    model = model_from_config(cfg)
    for V, p in zip(grid, curve.points):
        bias = BiasPoint(7.25 + V / 2, 7.25 - V / 2, 4.0)
        assert p.I == current(bias, model)


@pytest.mark.parametrize("n_modes", [1, 2])
def test_iv_curve_takes_each_window_ballistic_current_once(monkeypatch,
                                                           n_modes):
    # +-V share one sorted window, so its ballistic current, two softplus
    # terms per mode, is computed once for both signs
    calls = []
    original = landauer._softplus_energy

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(landauer, "_softplus_energy", counted)
    modes = (Mode(0.0, coupled=True), Mode(6.5))[:n_modes]
    cfg = validate(DeviceConfig(
        eps1=8.0, U_C=2.0, J=5.0, beta=3.0, Gamma=1.0, mu_source=7.25,
        V_sd=1.0, temperature=4.0, modes=modes))
    grid = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
    curve = iv_curve(cfg, grid)
    assert len(calls) == 3 * 2 * n_modes
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
    calls = _count_graded_rows(monkeypatch)
    model = make_model(E0=5.0, bottom=0.0)
    for T in (0.0, 1e-300, 0.1, 4.0, 40.0):
        bias = BiasPoint(5.5, 4.5, T)
        del calls[:]
        ballistic, deficit, *G = current_components(bias, model, 5.0, 4.5)
        assert calls == ([] if T in (0.0, 1e-300) else [(1, 2)])
        assert (ballistic, deficit) == current_components(bias, model)
        assert G == [linear_conductance(model, T, mu) for mu in (5.0, 4.5)]


@pytest.mark.parametrize("T, kernel_calls", [(0.0, 0), (1e-300, 0),
                                             (0.1, 1), (40.0, 1)])
def test_readout_report_makes_at_most_one_kernel_call(monkeypatch, T,
                                                       kernel_calls):
    calls = _count_graded_rows(monkeypatch)
    readout_report(validate(DeviceConfig(
        eps1=8.0, U_C=2.0, J=5.0, beta=3.0, Gamma=1.0, mu_source=7.25,
        V_sd=1.0, temperature=T, modes=(Mode(0.0, coupled=True),))))
    # the deficit window and the point at the dip
    assert calls == [(1, 1)] * kernel_calls


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
