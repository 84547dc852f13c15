import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fanospin.config import GAMMA_MIN
from fanospin.fano import fano_transmission
from fanospin.lattice_oracle import (BandEdgeError, ExtractionError,
                                     OracleLattice, compare_to_fano,
                                     dip_minimum, effective_broadening,
                                     oracle_transmission)
from reference import oracle_reflection, scattering_amplitudes


def test_decoupled_level_is_transparent():
    lat = OracleLattice(hopping_t=1.0, site_energy_eps_d=0.0, coupling_tp=0.0)
    for E in np.linspace(-1.9, 1.9, 31):
        assert oracle_transmission(E, lat) == 1.0


def test_band_edge_rejected():
    lat = OracleLattice(hopping_t=1.0, site_energy_eps_d=0.0, coupling_tp=0.1)
    for E in (2.0, -2.0, 2.5):
        with pytest.raises(BandEdgeError):
            oracle_transmission(E, lat)


def test_invalid_lattice_rejected():
    with pytest.raises(ValueError):
        OracleLattice(hopping_t=0.0, site_energy_eps_d=0.0, coupling_tp=0.1)
    with pytest.raises(ValueError):
        OracleLattice(hopping_t=1.0, site_energy_eps_d=0.0, coupling_tp=-0.1)


@pytest.mark.parametrize("field, value", [
    ("hopping_t", math.inf), ("hopping_t", math.nan),
    ("site_energy_eps_d", math.nan), ("site_energy_eps_d", -math.inf),
    ("coupling_tp", math.nan), ("coupling_tp", math.inf)])
def test_non_finite_lattice_rejected(field, value):
    fields = dict(hopping_t=1.0, site_energy_eps_d=0.0, coupling_tp=0.1)
    with pytest.raises(ValueError):
        OracleLattice(**dict(fields, **{field: value}))
    with pytest.raises(ValueError):
        OracleLattice(**fields)._replace(**{field: value})


def test_perfect_antiresonance_at_level():
    for eps_d in (0.0, 0.5, -0.7):
        lat = OracleLattice(hopping_t=1.0, site_energy_eps_d=eps_d,
                            coupling_tp=0.2)
        assert oracle_transmission(eps_d, lat) == 0.0
        assert dip_minimum(lat) == pytest.approx(eps_d, abs=1e-9)


@given(E=st.floats(-1.99, 1.99), tp=st.floats(0.0, 1.0),
       eps_d=st.floats(-1.5, 1.5))
def test_unitarity(E, tp, eps_d):
    lat = OracleLattice(hopping_t=1.0, site_energy_eps_d=eps_d,
                        coupling_tp=tp)
    tau, r = scattering_amplitudes(E, lat)
    assert abs(tau) ** 2 + abs(r) ** 2 == pytest.approx(1.0, abs=1e-12)


@given(E=st.floats(0.0, 1.99), tp=st.floats(0.01, 0.5))
def test_symmetry_at_band_center(E, tp):
    lat = OracleLattice(hopping_t=1.0, site_energy_eps_d=0.0, coupling_tp=tp)
    assert oracle_transmission(E, lat) == pytest.approx(
        oracle_transmission(-E, lat), abs=1e-12)


def _mpmath_half_width(lat: OracleLattice):
    """The mean of both flanks' u^2 (4 - e^2) = 1, e = eta +- p^2 u, times
    tp^2 / t, by 50-digit bisection on [1/2, min(peak, 1e8)]; None where a
    flank has no root there."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        t, tp = mpmath.mpf(lat.hopping_t), mpmath.mpf(lat.coupling_tp)
        eta, p2 = mpmath.mpf(lat.site_energy_eps_d) / t, (tp / t) ** 2
        roots = []
        for side in (-1, 1):
            def g(u):
                return u * u * (4 - (eta + side * p2 * u) ** 2) - 1
            # h(e) = (e - eta)^2 (4 - e^2) peaks where 2 e^2 - eta e = 4
            peak = (eta + side * mpmath.sqrt(eta * eta + 32)) / 4
            lo, hi = mpmath.mpf(0.5), min(abs(peak - eta) / p2,
                                          mpmath.mpf(1e8))
            if g(hi) < 0:
                return None
            for _ in range(200):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if g(mid) < 0 else (lo, mid)
            roots.append(lo)
        return (roots[0] + roots[1]) / 2 * tp * tp / t


@settings(max_examples=200, deadline=None)
@given(t=st.floats(1e-3, 1e6), exponent=st.floats(-200.0, math.log10(3.0)),
       eta=st.floats(-1.99, 1.99))
@example(t=1.0, exponent=-200.0, eta=0.0)       # p^2 underflows
@example(t=600.1261934226221, exponent=math.log10(630.3745380061459
                                                  / 600.1261934226221),
         eta=389.07771161932703 / 600.1261934226221)    # narrow flank
@example(t=1000.0, exponent=math.log10(0.05), eta=-1.99)  # band edge cuts
@example(t=1.0, exponent=math.log10(3.0), eta=0.0)   # never recovers
# either side of the strong-coupling bound tp = sqrt(2) t at eta = 0
@example(t=1.0, exponent=math.log10(2 ** 0.5 * (1 - 1e-6)), eta=0.0)
@example(t=1.0, exponent=math.log10(2 ** 0.5 * (1 + 1e-6)), eta=0.0)
def test_effective_broadening_matches_mpmath(t, exponent, eta):
    lat = OracleLattice(hopping_t=t, site_energy_eps_d=eta * t,
                        coupling_tp=10.0 ** exponent * t)
    exact = _mpmath_half_width(lat)
    if exact is None or exact < GAMMA_MIN:
        with pytest.raises(ExtractionError):
            effective_broadening(lat)
    else:
        assert effective_broadening(lat) == pytest.approx(float(exact),
                                                          rel=1e-13)


def test_effective_broadening_keeps_the_digits_near_a_band_edge():
    # eta = -1.99998956: 2 + eta taken from the rounded eps_d / t misses
    # the root of this lattice by 1.6e-12
    lat = OracleLattice(hopping_t=2.637372060198245e137,
                        site_energy_eps_d=-5.274716578837464e137,
                        coupling_tp=2224407500957.614)
    exact = float(_mpmath_half_width(lat))
    assert effective_broadening(lat) == pytest.approx(exact, rel=1e-15,
                                                      abs=0)


def test_effective_broadening_weak_coupling_value():
    # Gamma_eff ~ tp^2 / (2 t sin k_F), k_F = pi/2 at band center
    lat = OracleLattice(hopping_t=1000.0, site_energy_eps_d=0.0,
                        coupling_tp=100.0)
    gamma = effective_broadening(lat)
    assert gamma == pytest.approx(100.0**2 / (2 * 1000.0), rel=0.01)


def test_effective_broadening_quadratic_in_coupling():
    t = 1000.0
    g1 = effective_broadening(OracleLattice(t, 0.0, 50.0))
    g2 = effective_broadening(OracleLattice(t, 0.0, 100.0))
    assert g2 == pytest.approx(4 * g1, rel=0.05)


def test_effective_broadening_symmetric_at_band_center():
    lat = OracleLattice(hopping_t=1000.0, site_energy_eps_d=0.0,
                        coupling_tp=100.0)
    E_min = dip_minimum(lat)
    gamma = effective_broadening(lat)
    # left/right half-widths agree within 1%: compare single-sided values
    t_half_left = oracle_transmission(E_min - gamma, lat)
    t_half_right = oracle_transmission(E_min + gamma, lat)
    assert t_half_left == pytest.approx(0.5, abs=0.01)
    assert t_half_right == pytest.approx(0.5, abs=0.01)


@given(t=st.floats(1e-2, 1e4), ratio=st.floats(1e-4, 1.0))
@example(t=1000.0, ratio=1e-3)   # half-widths below 1e-6 t, the former
@example(t=1000.0, ratio=1.5e-3)  # bisection tolerance
def test_effective_broadening_exact_at_band_center(t, ratio):
    # (E^2)(4 t^2 - E^2) = tp^4  =>  E^2 = tp^4 / (2 t^2 + sqrt(4 t^4 - tp^4))
    tp = ratio * t
    lat = OracleLattice(hopping_t=t, site_energy_eps_d=0.0, coupling_tp=tp)
    w = effective_broadening(lat)
    exact = math.sqrt(tp**4 / (2 * t**2 + math.sqrt(4 * t**4 - tp**4)))
    assert w == pytest.approx(exact, rel=1e-12)
    assert oracle_transmission(-w, lat) == pytest.approx(0.5, abs=1e-12)
    assert oracle_transmission(w, lat) == pytest.approx(0.5, abs=1e-12)


def test_effective_broadening_narrow_flank_near_band_edge():
    # strong coupling, level near the upper band edge: the upper flank
    # recovers above 1/2 only in a narrow energy interval
    lat = OracleLattice(hopping_t=600.1261934226221,
                        site_energy_eps_d=389.07771161932703,
                        coupling_tp=630.3745380061459)
    w = effective_broadening(lat)
    assert 0.0 < w < lat.band_edge


def test_effective_broadening_flank_that_never_recovers():
    with pytest.raises(ExtractionError):
        effective_broadening(OracleLattice(1.0, 0.0, 3.0))


def test_oracle_convergence_script(tmp_path):
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(repo / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(repo / "scripts" / "oracle_convergence.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "oracle_lineshape.csv").read_text().startswith(
        "E_meV,T_oracle,T_fano")


def test_effective_broadening_requires_a_dip():
    with pytest.raises(ExtractionError):
        effective_broadening(OracleLattice(1.0, 0.0, 0.0))


def test_weak_coupling_matches_fano_lineshape():
    lat = OracleLattice(hopping_t=1000.0, site_energy_eps_d=0.0,
                        coupling_tp=100.0)
    dev, gamma, grid, t_oracle, t_fano = compare_to_fano(lat, 5.0)
    assert dev < 0.01
    assert len(grid) == 1001
    assert gamma > 0


def test_deviation_decreases_with_coupling():
    devs = [compare_to_fano(OracleLattice(1000.0, 0.0, r * 1000.0), 5.0)[0]
            for r in (0.3, 0.2, 0.1, 0.05)]
    assert all(b < a for a, b in zip(devs, devs[1:]))


def test_compare_decoupled_is_exact():
    dev, gamma, _, t_oracle, t_fano = compare_to_fano(
        OracleLattice(1.0, 0.0, 0.0))
    assert dev == 0.0
    assert np.all(t_oracle == 1.0) and np.all(t_fano == 1.0)


@settings(max_examples=30)
@given(ratio=st.floats(0.01, 0.3), eta=st.floats(-1.0, 1.0),
       t=st.floats(1.0, 1e4))
def test_compare_grid_matches_pointwise_oracle(ratio, eta, t):
    lat = OracleLattice(hopping_t=t, site_energy_eps_d=eta * t,
                        coupling_tp=ratio * t)
    _, gamma, grid, t_oracle, t_fano = compare_to_fano(lat, n_points=201)
    assert t_oracle.tolist() == [oracle_transmission(float(E), lat)
                                 for E in grid]
    assert t_fano.tolist() == [fano_transmission(float(E) - eta * t, gamma,
                                                 0j) for E in grid]


def test_oracle_kernel_on_arrays():
    lat = OracleLattice(hopping_t=1.0, site_energy_eps_d=0.3,
                        coupling_tp=0.2)
    E = np.array([-1.5, 0.3, 1.9])
    T = oracle_transmission(E, lat)
    assert T[1] == 0.0
    assert isinstance(oracle_transmission(0.3, lat), float)
    assert (oracle_reflection(E, lat) == 1.0 - T).all()
    for bad in (2.0, -2.5, np.nan):
        with pytest.raises(BandEdgeError):
            oracle_transmission(np.append(E, bad), lat)


@given(E=st.floats(-1.99, 1.99), tp=st.floats(0.0, 1.0),
       eps_d=st.floats(-1.5, 1.5))
def test_transmission_kernel_matches_amplitudes(E, tp, eps_d):
    lat = OracleLattice(hopping_t=1.0, site_energy_eps_d=eps_d,
                        coupling_tp=tp)
    tau, _ = scattering_amplitudes(E, lat)
    assert oracle_transmission(E, lat) == pytest.approx(abs(tau) ** 2,
                                                        abs=1e-13)
