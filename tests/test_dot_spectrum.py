import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fanospin.config import ConfigError, DeviceConfig, Mode, validate
from fanospin.dot_spectrum import (CHARACTER_TIE_TOL, DEGENERACY_TOL,
                                   Character, eigenlevels,
                                   levels_distinguishable, spin_flip_blocked,
                                   spin_flip_time, target_level)
from reference import BASIS, analytic_eigenvalues, two_electron_hamiltonian

jb = st.floats(min_value=-20, max_value=20, allow_nan=False)


def make_config(J=1.0, beta=0.0, eps1=8.0, U_C=2.0, Gamma=1.0):
    return validate(DeviceConfig(
        eps1=eps1, U_C=U_C, J=J, beta=beta, Gamma=Gamma,
        mu_source=9.75, V_sd=1.0, temperature=0.0,
        modes=(Mode(0.0, coupled=True),)))


def test_basis_ordering():
    assert len(BASIS) == 8
    assert BASIS[0] == (-1, -0.5, -0.5)
    assert BASIS[-1] == (+1, +0.5, +0.5)
    assert BASIS == tuple(sorted(BASIS))


def test_hamiltonian_trivial_case_diagonal():
    H = two_electron_hamiltonian(make_config(J=0.0, beta=0.0))
    assert np.array_equal(H, np.eye(8) * 10.0)


def test_hamiltonian_stretched_diagonal_entry():
    H = two_electron_hamiltonian(make_config(J=1.0, beta=0.0))
    i = BASIS.index((+1, +0.5, +0.5))
    assert H[i, i] == 10.0 - 0.25


def test_hamiltonian_flip_flop_entry():
    H = two_electron_hamiltonian(make_config(J=1.0, beta=0.0))
    i = BASIS.index((+1, +0.5, -0.5))
    j = BASIS.index((+1, -0.5, +0.5))
    assert H[i, j] == -0.5
    assert H[j, i] == -0.5


@given(J=jb, beta=jb)
def test_hamiltonian_symmetric_and_block_structured(J, beta):
    cfg = make_config(J=J, beta=beta)
    M = two_electron_hamiltonian(cfg)
    assert np.array_equal(M, M.T)
    # entries coupling different l1z or different total Sz vanish exactly
    for i, (li, s0i, s1i) in enumerate(BASIS):
        for j, (lj, s0j, s1j) in enumerate(BASIS):
            if li != lj or (s0i + s1i) != (s0j + s1j):
                assert M[i, j] == 0.0


@given(J=jb, beta=jb)
def test_trace_identity(J, beta):
    M = two_electron_hamiltonian(make_config(J=J, beta=beta))
    assert np.trace(M) == pytest.approx(8 * 10.0, abs=1e-10)


@given(J=jb, beta=jb)
@settings(max_examples=200)
def test_eigenvalue_closed_forms(J, beta):
    cfg = make_config(J=J, beta=beta)
    vals = np.sort(np.linalg.eigvalsh(two_electron_hamiltonian(cfg)))
    expected = np.array(analytic_eigenvalues(J, beta)) + 10.0
    assert np.max(np.abs(vals - expected)) < 1e-10


@given(J=jb, beta=jb)
def test_spectrum_invariant_under_beta_sign_flip(J, beta):
    a = analytic_eigenvalues(J, beta)
    b = analytic_eigenvalues(J, -beta)
    assert a == pytest.approx(b, abs=1e-12)


def test_singlet_triplet_gap_equals_J_at_zero_beta():
    cfg = make_config(J=1.0, beta=0.0)
    levels = eigenlevels(cfg)
    assert len(levels) == 2
    triplet, singlet = levels
    assert triplet.character is Character.TRIPLET
    assert singlet.character is Character.SINGLET
    assert triplet.energy == pytest.approx(10.0 - 0.25, abs=1e-12)
    assert singlet.energy == pytest.approx(10.0 + 0.75, abs=1e-12)
    assert singlet.energy - triplet.energy == pytest.approx(1.0, abs=1e-12)
    assert triplet.degeneracy == 6   # 3 per orbital branch
    assert singlet.degeneracy == 2


def test_fully_degenerate_case():
    cfg = make_config(J=0.0, beta=0.0)
    levels = eigenlevels(cfg)
    assert len(levels) == 1
    assert levels[0].degeneracy == 8


def test_spin_orbit_splits_stretched_levels():
    cfg = make_config(J=1.0, beta=0.5)
    energies = sorted(lv.energy for lv in eigenlevels(cfg))
    # stretched: -0.25 +- 0.25; mixed block: 0.25 +- sqrt(1.25)/2, about 10
    expected = sorted([10 - 0.5, 10.0, 10 + 0.25 - math.sqrt(1.25) / 2,
                       10 + 0.25 + math.sqrt(1.25) / 2])
    assert energies == pytest.approx(expected, abs=1e-12)


def test_parallel_accessible_marks_stretched_up_up():
    cfg = make_config(J=1.0, beta=0.5)
    accessible = [lv for lv in eigenlevels(cfg) if lv.parallel_accessible]
    assert [lv.energy for lv in accessible] == pytest.approx(
        [10 - 0.5, 10.0], abs=1e-12)


def test_target_level_examples():
    cfg = make_config(J=1.0, beta=0.0)
    res = target_level(cfg)
    assert res.energy == pytest.approx(9.75, abs=1e-12)
    assert res.Gamma == cfg.Gamma

    cfg0 = make_config(J=0.0, beta=0.0)
    res0 = target_level(cfg0)
    assert res0.energy == pytest.approx(10.0, abs=1e-12)

    cfg_so = make_config(J=1.0, beta=0.5)
    res_so = target_level(cfg_so)
    # lower spin-orbit branch of the |up,up> doublet
    assert res_so.energy == pytest.approx(10 - 0.25 - 0.25, abs=1e-12)


def test_target_level_rejects_gamma_below_float_spacing():
    # E_res = 9.75 meV, whose float spacing is 1.8e-15 meV
    for Gamma in (1e-17, 1e-150):
        # validate rejects it as well; target_level keeps its own check
        cfg = dataclasses.replace(make_config(J=1.0), Gamma=Gamma)
        with pytest.raises(ConfigError, match="^Gamma: "):
            target_level(cfg)
    cfg = make_config(J=1.0, Gamma=1e-15)
    assert target_level(cfg).Gamma == 1e-15


def reference_levels(cfg):
    """The level table from eigh of the 8x8 Hamiltonian, block by block
    (fixed l1z and Sz).  Flip-flop states are labelled by their squared
    overlap with the beta = 0 triplet (|down,up> + |up,down>)/sqrt(2);
    levels within DEGENERACY_TOL of a group's lowest member are merged."""
    M = two_electron_hamiltonian(cfg)
    states = []     # (energy, character, sz, l1z, up_up)
    for l1z in (-1, +1):
        for sz in (-1.0, 0.0, 1.0):
            idx = [i for i, (l, s0, s1) in enumerate(BASIS)
                   if l == l1z and s0 + s1 == sz]
            vals, vecs = np.linalg.eigh(M[np.ix_(idx, idx)])
            for k, E in enumerate(vals):
                v = vecs[:, k]
                p_t = 1.0 if len(idx) == 1 else (v[0] + v[1]) ** 2 / 2
                ch = (Character.TRIPLET if p_t > 0.5 + CHARACTER_TIE_TOL
                      else Character.SINGLET if p_t < 0.5 - CHARACTER_TIE_TOL
                      else Character.MIXED)
                states.append((float(E), ch, sz, l1z, sz == 1.0))
    states.sort(key=lambda s: s[0])
    groups = []
    for s in states:
        if groups and s[0] - groups[-1][0][0] <= DEGENERACY_TOL:
            groups[-1].append(s)
        else:
            groups.append([s])
    return [(([s for s in g if s[4]] or g)[0][0],
             {s[1] for s in g}.pop() if len({s[1] for s in g}) == 1
             else Character.MIXED,
             sum(s[2] for s in g),
             {s[3] for s in g}.pop() if len({s[3] for s in g}) == 1 else 0,
             len(g), any(s[4] for s in g)) for g in groups]


@given(J=jb, beta=jb)
@example(J=0.0, beta=0.0)
@example(J=0.0, beta=1.5)
@example(J=2.0, beta=0.0)
@example(J=-2.0, beta=0.0)
@example(J=3e-9, beta=1.0)       # triplet probability 1/2 + 1.5e-9
@example(J=1.5e-9, beta=1.0)     # 1/2 + 7.5e-10: a tie, Mixed
@example(J=-1e-11, beta=1.0)     # singlet-like level 5e-12 below |up,up>
@settings(max_examples=200)
def test_closed_form_levels_match_numerical_reference(J, beta):
    cfg = make_config(J=J, beta=beta)
    got = eigenlevels(cfg)
    ref = reference_levels(cfg)
    assert len(got) == len(ref)
    for lv, (energy, ch, sz, l1z, deg, par) in zip(got, ref):
        assert lv.energy == pytest.approx(energy, abs=1e-12)
        assert (lv.character, lv.sz_total, lv.l1z, lv.degeneracy,
                lv.parallel_accessible) == (ch, sz, l1z, deg, par)


@given(J=jb, beta=jb)
@example(J=3.5857010553175597, beta=0.0)
@example(J=-1e-11, beta=1.0)
def test_resonance_is_exact_closed_form(J, beta):
    # the lowest spin-aligned level of the diagram is the reference
    cfg = make_config(J=J, beta=beta)
    res = target_level(cfg)
    assert res.energy == cfg.eps1 + cfg.U_C - J / 4 - abs(beta) / 2
    assert res.energy == min(lv.energy for lv in eigenlevels(cfg)
                             if lv.parallel_accessible)


def test_spin_flip_blocked_thresholds():
    assert spin_flip_blocked(make_config(beta=3.0, Gamma=1.0)).satisfied
    assert not spin_flip_blocked(make_config(beta=0.3, Gamma=1.0)).satisfied
    assert not spin_flip_blocked(make_config(beta=0.0, Gamma=1.0)).satisfied
    report = spin_flip_blocked(make_config(beta=3.0, Gamma=1.0))
    assert report.ratio == pytest.approx(3.0)


def test_levels_distinguishable_thresholds():
    assert levels_distinguishable(make_config(J=10.0, Gamma=1.0)).satisfied
    assert not levels_distinguishable(make_config(J=1.0, Gamma=1.0)).satisfied
    assert not levels_distinguishable(make_config(J=0.0, Gamma=1.0)).satisfied


def test_spin_flip_time():
    t = spin_flip_time(1.0)
    assert math.isfinite(t)
    assert t == pytest.approx(6.582e-13, rel=1e-3)
    assert spin_flip_time(2.0) == pytest.approx(t / 2, rel=1e-12)
    zero = spin_flip_time(0.0)
    assert not math.isfinite(zero)
    assert math.isinf(zero)
