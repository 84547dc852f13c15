import cmath
import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fanospin.config import DeviceConfig, Mode, validate
from fanospin.readout import (Arrangement, ScalingModel, n_qubit_reflection,
                              nondemolition_summary, readout_report)


def make_config(J=5.0, beta=3.0, Gamma=1.0, mu=7.25, V=1.0, T=0.0):
    return validate(DeviceConfig(
        eps1=8.0, U_C=2.0, J=J, beta=beta, Gamma=Gamma,
        mu_source=mu, V_sd=V, temperature=T,
        modes=(Mode(0.0, coupled=True),)))


def test_report_deficit_halving_exact():
    report = readout_report(make_config())
    assert report.delta_I_antiparallel == pytest.approx(
        report.delta_I_parallel / 2, rel=1e-12)
    assert report.relative_decrease_antiparallel == pytest.approx(
        report.relative_decrease_parallel / 2, rel=1e-12)


def test_report_consistency():
    report = readout_report(make_config(T=4.2))
    assert report.I_parallel == pytest.approx(
        report.I_ballistic - report.delta_I_parallel, rel=1e-12)
    assert report.I_antiparallel == pytest.approx(
        report.I_ballistic - report.delta_I_antiparallel, rel=1e-12)
    assert report.contrast == pytest.approx(
        (report.I_antiparallel - report.I_parallel) / report.I_ballistic,
        rel=1e-9)
    assert report.optimal_V == 1.0
    assert report.flip_blocked
    assert report.levels_distinguishable


def test_report_far_resonance_decreases_small():
    # resonance ~ 100 Gamma above the bias window
    report = readout_report(make_config(mu=7.25 - 100.0))
    assert report.relative_decrease_parallel < 1e-3
    assert report.relative_decrease_antiparallel < 1e-3


def test_report_documents_lineshape_discrepancy():
    report = readout_report(make_config())
    assert report.mean_reflection_dip_window == pytest.approx(
        0.7853981633974483, abs=1e-6)
    assert "1/3" in report.lineshape_note
    assert "pi/4" in report.lineshape_note


def test_n_qubit_single():
    for arr in Arrangement:
        out = n_qubit_reflection(ScalingModel(arr, N=1, R_single=1e-4))
        assert out == pytest.approx(1e-4, rel=1e-12)


def test_n_qubit_incoherent_series():
    out = n_qubit_reflection(
        ScalingModel(Arrangement.RANDOM_INCOHERENT, N=10, R_single=1e-4))
    assert out == pytest.approx(9.991e-4, rel=1e-4)
    # exact series law for N = 2
    out2 = n_qubit_reflection(
        ScalingModel(Arrangement.RANDOM_INCOHERENT, N=2, R_single=0.3))
    assert out2 == pytest.approx(2 * 0.3 / 1.3, rel=1e-12)


def _bragg_stack_reflection(R, N, tau=0.7, rho=1.9):
    """Reflection of N lossless scatterers (t = sqrt(1-R) e^{i tau},
    r = sqrt(R) e^{i rho}) from the explicit product of their unimodular
    transfer matrices, spaced at the phase-matched (Bragg) phase k d =
    pi - tau where the cell trace is largest."""
    t = math.sqrt(1.0 - R) * cmath.exp(1j * tau)
    r = math.sqrt(R) * cmath.exp(1j * rho)
    M = np.array([[1 / t.conjugate(), r.conjugate() / t.conjugate()],
                  [r / t, 1 / t]])
    kd = math.pi - tau
    cell = np.diag([cmath.exp(1j * kd), cmath.exp(-1j * kd)]) @ M
    stack = np.linalg.matrix_power(cell, N)
    return abs(stack[1, 0]) ** 2 / abs(stack[0, 0]) ** 2


def test_n_qubit_coherent_amplitude_law():
    for R in (1e-4, 0.3, 0.9):
        for N in (1, 2, 3, 7, 50):
            out = n_qubit_reflection(
                ScalingModel(Arrangement.ORDERED_COHERENT, N=N, R_single=R))
            assert out == pytest.approx(
                _bragg_stack_reflection(R, N), rel=1e-9)
    # small-signal limit N^2 R, and a perfect reflector stays one
    small = n_qubit_reflection(
        ScalingModel(Arrangement.ORDERED_COHERENT, N=10, R_single=1e-8))
    assert small == pytest.approx(1e-6, rel=1e-5)
    for N in (1, 100):
        assert n_qubit_reflection(ScalingModel(
            Arrangement.ORDERED_COHERENT, N=N, R_single=1.0)) == 1.0


@given(R=st.floats(1e-8, 0.5), N=st.integers(1, 1000))
def test_incoherent_monotone_and_bounded(R, N):
    r_n = n_qubit_reflection(
        ScalingModel(Arrangement.RANDOM_INCOHERENT, N=N, R_single=R))
    assert 0.0 <= r_n <= 1.0
    if N > 1:
        r_prev = n_qubit_reflection(
            ScalingModel(Arrangement.RANDOM_INCOHERENT, N=N - 1, R_single=R))
        assert r_n >= r_prev


@given(R=st.floats(1e-9, 1e-4), N=st.integers(2, 10))
def test_coherent_to_incoherent_ratio_near_N(R, N):
    if N * N * R > 0.01:
        return
    coh = n_qubit_reflection(
        ScalingModel(Arrangement.ORDERED_COHERENT, N=N, R_single=R))
    inc = n_qubit_reflection(
        ScalingModel(Arrangement.RANDOM_INCOHERENT, N=N, R_single=R))
    assert coh / inc == pytest.approx(N, rel=0.05)


def test_scaling_model_validation():
    with pytest.raises(ValueError):
        ScalingModel(Arrangement.RANDOM_INCOHERENT, N=0, R_single=0.1)
    with pytest.raises(ValueError):
        ScalingModel(Arrangement.RANDOM_INCOHERENT, N=1, R_single=1.5)


def test_qnd_verdict():
    good = nondemolition_summary(make_config(beta=3.0, J=10.0, Gamma=1.0))
    assert good.qnd
    assert math.isfinite(good.spin_flip_time)

    no_so = nondemolition_summary(make_config(beta=0.0))
    assert not no_so.qnd
    assert any("spin flip" in r for r in no_so.reasons)

    zeeman_scale = nondemolition_summary(make_config(beta=0.3, Gamma=1.0))
    assert not zeeman_scale.qnd
    assert "does not exceed" in zeeman_scale.beta_vs_zeeman


@given(beta=st.floats(0.0, 10.0), beta_more=st.floats(0.0, 10.0))
def test_verdict_monotone_in_beta(beta, beta_more):
    lo, hi = sorted((beta, beta_more))
    v_lo = nondemolition_summary(make_config(beta=lo))
    v_hi = nondemolition_summary(make_config(beta=hi))
    if v_lo.qnd:
        assert v_hi.qnd


def test_readout_contrast_sweep_script(tmp_path):
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(repo / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(repo / "scripts" / "readout_contrast_sweep.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "contrast_vs_gamma.csv").read_text().splitlines()
    assert lines[0].startswith("Gamma_meV,I_parallel_A,I_antiparallel_A")
    assert len(lines) == 1 + 30
