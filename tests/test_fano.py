import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from fanospin.config import Mode
from fanospin.dot_spectrum import ResonanceSpec
from fanospin.fano import (SpinOrientation, TransmissionModel, dip_integral,
                           fano_transmission, mean_reflection,
                           mode_transmission, spin_channel_reflection,
                           total_transmission)

energies = st.floats(min_value=-100, max_value=100, allow_nan=False)
gammas = st.floats(min_value=1e-3, max_value=50, allow_nan=False)


def make_model(orientation, E0=5.0, Gamma=1.0, q=0j, modes=None):
    return TransmissionModel(
        resonance=ResonanceSpec(energy=E0, Gamma=Gamma, q=q),
        orientation=orientation,
        modes=modes or (Mode(0.0, coupled=True),))


def test_perfect_antiresonance():
    for Gamma in (0.1, 1.0, 10.0):
        assert fano_transmission(0.0, Gamma, 0j) == 0.0


def test_hand_evaluations():
    assert fano_transmission(1.0, 1.0, 0j) == pytest.approx(0.5)
    assert fano_transmission(0.0, 1.0, 1j) == pytest.approx(1.0)


def test_unphysical_q_rejected():
    # any Re q != 0 or |q| > 1 makes T exceed 1 somewhere
    with pytest.raises(ValueError, match="Re q = 0"):
        fano_transmission(0.0, 1.0, 1 + 0j)
    for q in (0.3, 1.5j):
        with pytest.raises(ValueError, match="Re q = 0 and"):
            ResonanceSpec(energy=0.0, Gamma=1.0, q=q)


def test_gamma_must_be_positive():
    with pytest.raises(ValueError):
        fano_transmission(0.0, 0.0, 0j)
    with pytest.raises(ValueError):
        fano_transmission(0.0, -1.0, 0j)


@given(detuning=energies, Gamma=gammas)
def test_q_zero_bounded_and_lorentzian(detuning, Gamma):
    t = fano_transmission(detuning, Gamma, 0j)
    assert 0.0 <= t <= 1.0
    # R = Gamma^2 / (eps^2 + Gamma^2) exactly
    assert 1.0 - t == pytest.approx(
        Gamma**2 / (detuning**2 + Gamma**2), rel=1e-12)


@given(E=energies, Gamma=gammas)
def test_factor_two_law(E, Gamma):
    par = make_model(SpinOrientation.PARALLEL, Gamma=Gamma)
    anti = make_model(SpinOrientation.ANTIPARALLEL, Gamma=Gamma)
    assert abs(spin_channel_reflection(E, anti)
               - 0.5 * spin_channel_reflection(E, par)) < 1e-12


@given(delta=energies, Gamma=gammas)
def test_symmetry_about_resonance(delta, Gamma):
    m = make_model(SpinOrientation.PARALLEL, Gamma=Gamma)
    E0 = m.resonance.energy
    t_plus = 1.0 - spin_channel_reflection(E0 + delta, m)
    t_minus = 1.0 - spin_channel_reflection(E0 - delta, m)
    assert t_plus == pytest.approx(t_minus, rel=1e-12, abs=1e-15)


def test_reflection_values_at_resonance():
    par = make_model(SpinOrientation.PARALLEL)
    anti = make_model(SpinOrientation.ANTIPARALLEL)
    assert spin_channel_reflection(5.0, par) == 1.0
    assert spin_channel_reflection(5.0, anti) == 0.5
    assert spin_channel_reflection(5.0 + 1e6, par) == pytest.approx(
        0.0, abs=1e-11)


def test_mode_transmission():
    modes = (Mode(0.0, coupled=True), Mode(3.0, coupled=False))
    par = make_model(SpinOrientation.PARALLEL, modes=modes)
    assert mode_transmission(10.0, par, 1) == 1.0      # ballistic
    assert mode_transmission(2.0, par, 1) == 0.0       # evanescent
    assert mode_transmission(-1.0, par, 0) == 0.0
    assert mode_transmission(5.0, par, 0) == 0.0       # full dip
    with pytest.raises(IndexError):
        mode_transmission(1.0, par, 2)


@given(Gamma=gammas, q_imag=st.floats(-1.0, 1.0), E0=st.floats(-20, 20),
       bottoms=st.lists(st.floats(-30, 30), min_size=1, max_size=3),
       coupled=st.integers(0, 2), span=st.floats(1e-3, 100),
       n=st.integers(2, 60),
       orientation=st.sampled_from(list(SpinOrientation)))
def test_array_transmission_matches_scalar_bit_for_bit(
        Gamma, q_imag, E0, bottoms, coupled, span, n, orientation):
    modes = tuple(Mode(b, coupled=(i == coupled % len(bottoms)))
                  for i, b in enumerate(bottoms))
    m = make_model(orientation, E0=E0, Gamma=Gamma, q=complex(0.0, q_imag),
                   modes=modes)
    grid = np.sort(np.concatenate(
        [np.linspace(E0 - span, E0 + span, n), [E0], bottoms]))
    # the model's cached lineshape in fano_transmission's order of operations
    reflection = spin_channel_reflection(grid, m)
    assert reflection.tolist() == [spin_channel_reflection(float(E), m)
                                   for E in grid]
    assert reflection.tolist() == [
        m.weight * (1.0 - fano_transmission(float(E) - E0, Gamma,
                                            complex(0.0, q_imag)))
        for E in grid]
    # mode and total transmission take floats: on the grid, at each bottom
    # and one ulp below it, the total is the mode-ordered sum bit for bit
    below = [math.nextafter(b, -math.inf) for b in bottoms]
    for E in grid.tolist() + below:
        per_mode = [mode_transmission(E, m, i) for i in range(len(modes))]
        total = 0.0
        for t in per_mode:
            total += t
        assert total_transmission(E, m).hex() == total.hex()
        for mode, t in zip(modes, per_mode):
            open_t = (1.0 - spin_channel_reflection(E, m) if mode.coupled
                      else 1.0)
            assert t.hex() == (open_t if E >= mode.bottom_energy
                               else 0.0).hex()
    for i, (b, under) in enumerate(zip(bottoms, below)):
        assert mode_transmission(under, m, i).hex() == (0.0).hex()
        assert mode_transmission(b, m, i) == (
            1.0 - spin_channel_reflection(b, m) if modes[i].coupled else 1.0)
    # for q = 0 the coupled mode dips exactly to 1 - w at the resonance
    m0 = make_model(orientation, E0=E0, Gamma=Gamma, modes=modes)
    c = m0.coupled_index
    expected = 1.0 - m0.weight if E0 >= modes[c].bottom_energy else 0.0
    assert mode_transmission(E0, m0, c) == expected


@given(E=energies)
def test_unitarity_of_coupled_mode(E):
    m = make_model(SpinOrientation.PARALLEL, E0=0.0, modes=(
        Mode(-200.0, coupled=True),))
    t = mode_transmission(E, m, 0)
    r = spin_channel_reflection(E, m)
    assert t + r == pytest.approx(1.0, abs=1e-12)


def test_mean_reflection_pi_over_four():
    m = make_model(SpinOrientation.PARALLEL, E0=5.0, Gamma=1.0)
    assert mean_reflection(m, (4.0, 6.0)) == pytest.approx(
        math.pi / 4, abs=1e-6)
    anti = make_model(SpinOrientation.ANTIPARALLEL, E0=5.0, Gamma=1.0)
    assert mean_reflection(anti, (4.0, 6.0)) == pytest.approx(
        math.pi / 8, abs=1e-6)


def test_mean_reflection_far_window_vanishes():
    m = make_model(SpinOrientation.PARALLEL, E0=5.0, Gamma=1.0)
    assert mean_reflection(m, (1000.0, 1002.0)) == pytest.approx(
        0.0, abs=1e-5)


@given(E0=st.floats(-10, 10), Gamma=st.floats(0.1, 5),
       lo=st.floats(-30, -21), hi=st.floats(21, 30))
def test_mean_reflection_matches_arctan_form(E0, Gamma, lo, hi):
    m = make_model(SpinOrientation.ANTIPARALLEL, E0=E0, Gamma=Gamma)
    analytic = 0.5 * Gamma / (hi - lo) * (
        math.atan((hi - E0) / Gamma) - math.atan((lo - E0) / Gamma))
    assert mean_reflection(m, (lo, hi)) == pytest.approx(analytic, abs=1e-8)


def test_mean_reflection_rejects_bad_window():
    m = make_model(SpinOrientation.PARALLEL)
    with pytest.raises(ValueError):
        mean_reflection(m, (2.0, 1.0))
    with pytest.raises(ValueError):
        mean_reflection(m, (0.0, math.inf))


def test_dip_integral_matches_quadrature():
    # seeded windows around and away from the dip, q = 0 or purely imaginary
    rng = random.Random(2)
    for _ in range(200):
        E0, Gamma = rng.uniform(-20, 20), 10 ** rng.uniform(-2, 1)
        q = complex(0.0, rng.uniform(-1, 1)) if rng.random() < 0.5 else 0j
        lo = E0 + rng.uniform(-30, 30) * Gamma
        hi = lo + 10 ** rng.uniform(-3, 2) * Gamma
        res = ResonanceSpec(energy=E0, Gamma=Gamma, q=q)
        dip = lambda E: 1.0 - fano_transmission(E - E0, Gamma, q)
        pts = [p for p in (E0 - Gamma, E0, E0 + Gamma) if lo < p < hi]
        ref, _ = quad(dip, lo, hi, points=pts or None, epsabs=0.0,
                      epsrel=1e-13, limit=200)
        assert dip_integral(res, lo, hi) == pytest.approx(ref, rel=1e-10)


def test_dip_integral_narrow_window_with_real_q():
    # window of 1e-9 Gamma: the area is the integrand times the width, so
    # the atan2 form must not cancel (real q is rejected, see above)
    res = ResonanceSpec(energy=0.0, Gamma=1.0, q=0.7j)
    for E in (-3.0, -0.4, 0.0, 0.9, 25.0):
        hi = E + 1e-9
        eps = (E + hi) / 2
        mid = 1.0 - abs(eps + res.q) ** 2 / (eps**2 + 1.0)
        assert dip_integral(res, E, hi) / (hi - E) == pytest.approx(
            mid, rel=1e-8)
