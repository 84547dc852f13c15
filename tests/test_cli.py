import ast
import contextlib
import io
import json
import math
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fanospin
from fanospin import cli, landauer
from fanospin.cli import MAX_POINTS, SUBCOMMANDS, _linspace, main
from fanospin.config import (GAMMA_MIN, LIMIT, apply_overrides,
                             default_config, dumps, validate)
from fanospin.constants import CONSTANTS
from fanospin.fano import (SpinOrientation, mode_transmission,
                          spin_channel_reflection)
from fanospin.landauer import model_from_config


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "fanospin", *args],
                          capture_output=True, text=True, **kw)


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "device.json"
    path.write_text(dumps(default_config()), encoding="utf-8")
    return path


def test_unknown_subcommand_exits_64():
    proc = run_cli(["frobnicate"])
    assert proc.returncode == 64
    assert "frobnicate" in proc.stderr


def test_missing_subcommand_exits_64():
    proc = run_cli([])
    assert proc.returncode == 64


def test_unreadable_config_exits_66(tmp_path):
    proc = run_cli(["levels", "--config", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path)])
    assert proc.returncode == 66


def test_malformed_config_exits_66(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    proc = run_cli(["levels", "--config", str(bad), "--out", str(tmp_path)])
    assert proc.returncode == 66


def test_validation_failure_exits_1_naming_key(tmp_path):
    proc = run_cli(["levels", "--set", "Gamma=-1", "--out", str(tmp_path)])
    assert proc.returncode == 1
    assert "Gamma" in proc.stderr


@pytest.mark.parametrize("command, override, key", [
    ("levels", "modes.5.bottom_energy=1", "modes.5.bottom_energy"),
    ("levels", "q=[1]", "q"),
    ("levels", "J.x=1", "J.x"),
    ("levels", "J=1" + "0" * 400, "J"),
    ("levels", "modes=5", "modes"),
    ("sweep", "Gamma=1e-200", "Gamma"),
    ("readout", "Gamma=1e-200", "Gamma"),
    ("sweep", "Gamma=1e-150", "Gamma"),
    ("readout", "Gamma=1e-17", "Gamma"),
], ids=["mode-index-out-of-range", "q-one-component", "J-not-an-object",
        "J-overflows-float", "modes-not-a-list", "Gamma-underflows-sweep",
        "Gamma-underflows-readout", "Gamma-below-spacing-sweep",
        "Gamma-below-spacing-readout"])
def test_malformed_override_exits_1_naming_key(tmp_path, command, override,
                                               key):
    proc = run_cli([command, "--set", override, "--out", str(tmp_path)])
    assert proc.returncode == 1
    assert key in proc.stderr
    assert "Traceback" not in proc.stderr


def run_cli_strict(args):
    """``run_cli`` with every warning an error."""
    return subprocess.run([sys.executable, "-W", "error", "-m", "fanospin",
                           *args], capture_output=True, text=True)


@pytest.mark.parametrize("command", ["iv", "readout"])
@pytest.mark.parametrize("overrides, key", [
    (["eps1=1e160", "Gamma=1e150"], "eps1"), (["temperature=7.7e153"],
                                              "temperature")])
def test_energy_beyond_bound_exits_1_naming_key(tmp_path, command, overrides,
                                                key):
    proc = run_cli_strict([command, "--out", str(tmp_path),
                           *(a for o in overrides for a in ("--set", o))])
    assert proc.returncode == 1
    assert f"invalid configuration: {key}: " in proc.stderr
    assert "Traceback" not in proc.stderr


def _every_energy_at_the_bound(sign, hot):
    """``--set`` arguments that put the resonance and the bias window as
    far apart as the bounds allow: E_res = -2.75 B and a window out to 3 B
    (times sign), with 40 k_B T at B or T = 0."""
    B = 0.1 / GAMMA_MIN
    T = B / (40 * CONSTANTS.k_B) if hot else 0.0
    while 40 * CONSTANTS.k_B * T > B:
        T = math.nextafter(T, 0)
    overrides = [f"{k}={sign * v!r}" for k, v in (
        ("eps1", -B), ("U_C", -B), ("J", B), ("mu_source", B),
        ("V_sd", -B))] + [f"beta={B!r}", f"Gamma={B!r}", f"temperature={T!r}",
                          "modes=" + json.dumps([
                              {"bottom_energy": -sign * B, "coupled": True},
                              {"bottom_energy": sign * B}])]
    return [a for o in overrides for a in ("--set", o)]


@pytest.mark.parametrize("sign, hot", [(1.0, True), (-1.0, True),
                                       (1.0, False)])
def test_every_energy_at_the_bound_runs_warning_free(tmp_path, sign, hot):
    for command in ("sweep", "iv", "readout"):
        proc = run_cli_strict([command, "--out", str(tmp_path / command),
                               *_every_energy_at_the_bound(sign, hot)])
        assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("sign, hot", [(1.0, True), (-1.0, False)])
def test_grid_at_the_bound_runs_warning_free(tmp_path, sign, hot):
    # the grid spans +-LIMIT, every energy of the config at its bound too
    for command in ("sweep", "iv"):
        for overrides in ([], _every_energy_at_the_bound(sign, hot)):
            out = tmp_path / f"{command}{len(overrides)}"
            proc = run_cli_strict([command, f"--grid={-LIMIT!r}:{LIMIT!r}:5",
                                   "--out", str(out), *overrides])
            assert proc.returncode == 0, proc.stderr
            assert len((out / f"{command}.csv").read_text().split()) == 6


def test_gamma_below_spacing_rejected_by_every_subcommand(tmp_path, capsys):
    # E_res ~ 1e152 meV, whose float spacing is far above Gamma = 1 meV
    for command in ("levels", "sweep", "readout"):
        out = tmp_path / command
        rc = main([command, "--set", "eps1=1e152", "--out", str(out)])
        assert rc == 1
        assert ("invalid configuration: Gamma: 1.0 meV is below the float "
                "spacing at the resonance") in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("coupled", ['"no"', '"false"', "1"])
def test_coupled_string_exits_1_naming_mode(tmp_path, coupled):
    # one of two modes: a non-boolean never counts as coupled or uncoupled
    proc = run_cli(["levels", "--set", 'modes=[{"bottom_energy": 0, '
                    f'"coupled": true}}, {{"bottom_energy": 1, "coupled": '
                    f'{coupled}}}]', "--out", str(tmp_path)])
    assert proc.returncode == 1
    assert (f"invalid configuration: modes[1].coupled: must be true or "
            f"false, got {json.loads(coupled)!r}") in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "levels.csv").exists()


def test_unphysical_q_exits_1_naming_q(tmp_path, capsys):
    # q = 1 gives T = 2 at eps = Gamma; |q| = 2 gives T = 4 at resonance
    for command, q in (("sweep", "[1,0]"), ("iv", "[0,2]")):
        out = tmp_path / command
        rc = main([command, "--set", f"q={q}", "--out", str(out)])
        assert rc == 1
        assert "q: must have Re q = 0 and |q| <= 1" in capsys.readouterr().err
        assert not out.exists()


def test_removed_config_field_exits_1_naming_key(tmp_path, capsys):
    for override in ("eps0=1", "wire_spin=Up"):
        rc = main(["levels", "--set", override, "--out", str(tmp_path)])
        assert rc == 1
        key = override.split("=")[0]
        assert f"{key}: unknown key" in capsys.readouterr().err


def test_iv_one_point_grid_gives_differential_conductance(tmp_path):
    # at 4 K the linear conductance (7.58e-6 S) is not dI/dV at 1 mV
    rc = main(["iv", "--grid", "1:1:1", "--set", "temperature=4",
               "--out", str(tmp_path)])
    assert rc == 0
    header, row = (tmp_path / "iv.csv").read_text().strip().split("\n")
    g = float(dict(zip(header.split(","), row.split(",")))["G_S_parallel"])
    assert g == pytest.approx(1.0875181e-5, rel=1e-7)


def test_levels_csv_matches_analytic_eigenvalues(tmp_path, config_file):
    rc = main(["levels", "--config", str(config_file),
               "--set", "J=1", "--set", "beta=0.5",
               "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "levels.csv").read_text().strip().split("\n")
    energies = sorted(float(r.split(",")[0]) for r in rows[1:])
    expected = sorted({10 - 0.5, 10.0, 10 + 0.25 - math.sqrt(1.25) / 2,
                       10 + 0.25 + math.sqrt(1.25) / 2})
    assert energies == pytest.approx(expected, abs=1e-10)


def test_iv_zero_bias_row(tmp_path):
    rc = main(["iv", "--grid=-1:1:5", "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "iv.csv").read_text().strip().split("\n")
    row0 = dict(zip(rows[0].split(","), rows[3].split(",")))
    assert float(row0["V_mV"]) == 0.0
    assert float(row0["I_A_parallel"]) == 0.0
    assert float(row0["I_A_antiparallel"]) == 0.0


def test_iv_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["iv", "--grid=-2:2:11", "--out", str(a)]) == 0
    assert main(["iv", "--grid=-2:2:11", "--out", str(b)]) == 0
    assert (a / "iv.csv").read_bytes() == (b / "iv.csv").read_bytes()
    # timestamps live only in the manifest
    ma = json.loads((a / "manifest.json").read_text())
    mb = json.loads((b / "manifest.json").read_text())
    assert ma["config_digest"] == mb["config_digest"]
    assert ma["subcommand"] == "iv"


def test_override_equivalence(tmp_path):
    from fanospin.config import validate
    edited = tmp_path / "edited.json"
    edited.write_text(dumps(validate(
        default_config()._replace(J=2.0))), encoding="utf-8")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["levels", "--set", "J=2.0", "--out", str(a)]) == 0
    assert main(["levels", "--config", str(edited), "--out", str(b)]) == 0
    assert (a / "levels.csv").read_bytes() == (b / "levels.csv").read_bytes()


def test_readout_json_ballistic_current(tmp_path):
    rc = main(["readout", "--set", "temperature=0", "--out", str(tmp_path)])
    assert rc == 0
    obj = json.loads((tmp_path / "readout.json").read_text())
    assert obj["I_ballistic_A"] == pytest.approx(3.874e-8, rel=1e-3)
    assert obj["qnd"] is True
    assert "1/3" in obj["lineshape_note"]


def test_oracle_csv_summary_line(tmp_path):
    rc = main(["oracle", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "oracle.csv").read_text().strip().split("\n")
    assert lines[0].startswith("# Gamma_eff_meV=")
    assert "max_abs_deviation=" in lines[0]
    assert lines[1] == "E_meV,T_oracle,T_fano,abs_deviation"
    dev = float(lines[0].split("max_abs_deviation=")[1])
    assert dev < 0.01


def test_oracle_half_width_below_former_bisection_tolerance(tmp_path):
    rc = main(["oracle", "--coupling-tp", "1", "--out", str(tmp_path)])
    assert rc == 0
    comment = (tmp_path / "oracle.csv").read_text().split("\n")[0]
    gamma = float(comment.split()[1].split("=")[1])
    assert gamma == pytest.approx(5e-4, rel=1e-12)


@pytest.mark.parametrize("args, needle", [
    (["--coupling-tp", "1e100", "--hopping-t", "1"], "tp/t"),
    (["--coupling-tp", "1e-200"], "Gamma_eff"),
    (["--coupling-tp", "1e-6", "--eps-d", "300"], "Gamma_eff"),
    (["--hopping-t", "1", "--coupling-tp", "3"], "tp/t"),
    (["--hopping-t", "2", "--coupling-tp", "5e-324"], "Gamma_eff"),
], ids=["quartic-overflows", "width-underflows", "width-below-float-spacing",
        "flank-never-recovers", "coupling-ratio-underflows"])
def test_oracle_unresolvable_dip_exits_2(tmp_path, capsys, args, needle):
    rc = main(["oracle", *args, "--out", str(tmp_path)])
    assert rc == 2
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "oracle.csv").exists()


def test_cli_import_loads_no_scipy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, fanospin.cli; print(sorted(m for m in sys.modules "
         "if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_sweep_factor_two_in_csv(tmp_path):
    # every reflection column, per mode and total, halves exactly
    three_modes = ["q=[0,0.5]", 'modes=[{"bottom_energy": 7.0, "coupled": '
                   'true}, {"bottom_energy": 6.0}, {"bottom_energy": 8.0}]']
    for k, overrides in enumerate(([], three_modes)):
        out = tmp_path / str(k)
        rc = main(["sweep", "--grid", "5:10:101", "--out", str(out),
                   *(arg for o in overrides for arg in ("--set", o))])
        assert rc == 0
        cols = _csv_columns(out / "sweep.csv")
        pairs = [(key, key.replace("R_parallel", "R_antiparallel"))
                 for key in cols if key.startswith("R_parallel")]
        assert ("R_parallel", "R_antiparallel") in pairs
        for par, anti in pairs:
            assert list(cols[anti]) == [r / 2 for r in cols[par]], par


def test_sweep_columns_match_mode_transmission(tmp_path):
    overrides = ["q=[0,0.5]", "dot_spin=Down",
                 'modes=[{"bottom_energy": 7.0, "coupled": true},'
                 ' {"bottom_energy": 6.0}, {"bottom_energy": 8.0}]']
    rc = main(["sweep", "--grid", "5:10:51", "--out", str(tmp_path),
               *(arg for o in overrides for arg in ("--set", o))])
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    cfg = validate(apply_overrides(default_config(), overrides))
    par = model_from_config(cfg, SpinOrientation.PARALLEL)
    anti = model_from_config(cfg, SpinOrientation.ANTIPARALLEL)
    for i, mode in enumerate(cfg.modes):
        for row in rows:
            E = row[0]
            col = dict(zip(header, row))
            tp = mode_transmission(E, par, i)
            ta = mode_transmission(E, anti, i)
            is_open = E >= mode.bottom_energy and mode.coupled
            assert col[f"T_parallel_mode{i}"] == tp
            assert col[f"T_antiparallel_mode{i}"] == ta
            assert col[f"R_parallel_mode{i}"] == (
                spin_channel_reflection(E, par) if is_open else 0.0)
            assert col[f"R_antiparallel_mode{i}"] == (
                spin_channel_reflection(E, anti) if is_open else 0.0)
            assert col[f"R_parallel_mode{i}"] == pytest.approx(
                1.0 - tp if E >= mode.bottom_energy else 0.0, abs=1e-15)


def test_iv_integrates_each_deficit_once(tmp_path, monkeypatch):
    calls = {"model_from_config": 0, "_graded_rule": 0}
    for name in calls:
        original = getattr(landauer, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(landauer, name, counted)
    # 81 default biases, one model for both orientations: 40 mirrored
    # windows and 81 chemical potentials, 121 rows.  The bottom lies 725 kT
    # below the lowest mu at 0.1 K, so every row is closed, and 18 kT at
    # 4 K, so every row is graded, in one pass
    for T, graded_calls, path in ((0.1, 0, "digamma"), (4.0, 1, "graded")):
        out = tmp_path / str(T)
        for name in calls:
            calls[name] = 0
        assert main(["iv", "--set", f"temperature={T}",
                     "--out", str(out)]) == 0
        assert calls == {"model_from_config": 1,
                         "_graded_rule": graded_calls}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["paths"] == dict(dict.fromkeys(landauer.PATHS, 0),
                                         **{path: 121})


@pytest.mark.parametrize("command", ["iv", "readout"])
@pytest.mark.parametrize("T", [0.0, 0.1, 4.0])
def test_row_path_counts_leave_data_files_alone(tmp_path, monkeypatch,
                                                command, T):
    # the runs with and without the row-path collector write the same bytes
    data = "readout.json" if command == "readout" else "iv.csv"
    args = [command, "--set", f"temperature={T}", "--out"]
    assert main(args + [str(tmp_path / "counted")]) == 0
    monkeypatch.setattr(cli, "_counting_rows",
                        lambda compute, *a: (compute(*a), {}))
    assert main(args + [str(tmp_path / "plain")]) == 0
    assert ((tmp_path / "counted" / data).read_bytes()
            == (tmp_path / "plain" / data).read_bytes())


def test_manifest_lists_outputs(tmp_path):
    assert main(["levels", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["tool_version"]
    assert any(p.endswith("levels.csv") for p in manifest["outputs"])


def _csv_columns(path):
    header, *rows = path.read_text().strip().split("\n")
    cols = list(zip(*(map(float, r.split(",")) for r in rows)))
    return dict(zip(header.split(","), cols))


@pytest.mark.parametrize("T", [0.0, 4.0])
@pytest.mark.parametrize("grid", [[], ["--grid=-2:2:7"]],
                         ids=["default", "grid"])
def test_iv_csv_exactly_antisymmetric(tmp_path, T, grid):
    assert main(["iv", *grid, "--set", f"temperature={T}",
                 "--out", str(tmp_path)]) == 0
    cols = _csv_columns(tmp_path / "iv.csv")
    for key in ("V_mV", "I_A_parallel", "I_A_antiparallel"):
        assert list(cols[key]) == [-x for x in cols[key][::-1]]


def test_negative_grid_start_needs_equals_form(tmp_path, capsys):
    assert main(["iv", "--grid", "-2:2:7", "--out", str(tmp_path)]) == 64
    assert main(["iv", "--grid=-2:2:7", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["iv", "--help"]) == 0
    assert "--grid=-2:2:81" in " ".join(capsys.readouterr().out.split())


#: The default config's resonance, eps1 + U_C - J/4 - |beta|/2 in meV.
E_RES_DEFAULT = 7.25

#: Typical values, values at and across the accepted Gamma range's ends,
#: and every float (negative, subnormal, huge, infinite, NaN).
gammas = st.one_of(
    st.floats(-3, 2).map(lambda k: 10.0 ** k),
    st.sampled_from([GAMMA_MIN, math.nextafter(GAMMA_MIN, 0), 0.1 / GAMMA_MIN,
                     math.nextafter(0.1 / GAMMA_MIN, math.inf), 4e-16, 1e-15,
                     0.0, -1.0]),
    st.floats())
#: Re q: zero or any float; Im q: in, at and around [-1, 1], or any float.
q_re = st.one_of(st.sampled_from([0.0, -0.0]), st.floats())
q_im = st.one_of(st.floats(-1, 1), st.sampled_from([-1.0, 1.0]),
                 st.floats(-1.2, 1.2), st.floats())


def _run(command, overrides, out, *args):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([command, "--out", str(out), *args,
                   *(arg for o in overrides for arg in ("--set", o))])
    return rc, err.getvalue()


@settings(max_examples=50, deadline=None)
@given(re=q_re, im=q_im, Gamma=gammas)
def test_q_and_gamma_overrides_through_cli(re, im, Gamma):
    overrides = [f"q={json.dumps([re, im])}", f"Gamma={json.dumps(Gamma)}"]
    invalid = set()
    if not (re == 0 and abs(complex(re, im)) <= 1):
        invalid.add("q")
    E = E_RES_DEFAULT
    if not (GAMMA_MIN <= Gamma <= 0.1 / GAMMA_MIN
            and E - Gamma != E != E + Gamma):
        invalid.add("Gamma")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for command in ("sweep", "iv", "readout"):
            rc, err = _run(command, overrides, out / command)
            assert "Traceback" not in err
            assert rc == (1 if invalid else 0), err
            named = {k for k in ("q", "Gamma") if f"{k}:" in err}
            assert named <= invalid and bool(named) == bool(invalid), err
        if invalid:
            return
        sweep = _csv_columns(out / "sweep" / "sweep.csv")
        for key, col in sweep.items():
            if key.startswith("T_"):
                assert all(0.0 <= t <= 1.0 for t in col), key
        for r_par, r_anti in zip(sweep["R_parallel"], sweep["R_antiparallel"]):
            assert r_anti == pytest.approx(r_par / 2, abs=1e-15)
        iv = _csv_columns(out / "iv" / "iv.csv")
        for key in ("V_mV", "I_A_parallel", "I_A_antiparallel"):
            assert list(iv[key]) == [-x for x in iv[key][::-1]]
        report = json.loads((out / "readout" / "readout.json").read_text())
        assert (report["delta_I_antiparallel_A"]
                == report["delta_I_parallel_A"] / 2)


def test_nan_alpha_R_exits_1_naming_key(tmp_path):
    proc = run_cli(["readout", "--set", "alpha_R=NaN", "--set", "D=10",
                    "--out", str(tmp_path)])
    assert proc.returncode == 1
    assert "invalid configuration: alpha_R: " in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "readout.json").exists()


def _grid_ends():
    """Each end of +-LIMIT and the floats next to it, zero of both signs,
    both infinities and NaN."""
    return [x for end in (-LIMIT, LIMIT)
            for x in (end, math.nextafter(end, -math.inf),
                      math.nextafter(end, math.inf))] + [
        0.0, -0.0, math.inf, -math.inf, math.nan]


grid_ends = st.one_of(st.sampled_from(_grid_ends()), st.floats(-10, 10),
                      st.floats())


@settings(max_examples=40, deadline=None)
@given(start=grid_ends, stop=grid_ends,
       count=st.one_of(st.integers(-2, 9), st.sampled_from([1, 2, 81])))
def test_every_grid_through_cli(start, stop, count):
    grid = f"--grid={start!r}:{stop!r}:{count}"
    valid = (-LIMIT <= start <= LIMIT and -LIMIT <= stop <= LIMIT
             and 0 < count <= MAX_POINTS)
    with tempfile.TemporaryDirectory() as tmp:
        for command in ("sweep", "iv"):
            out = Path(tmp) / command
            rc, err = _run(command, [], out, grid)
            assert "Traceback" not in err
            if not valid:
                assert rc == 1 and "invalid parameters: --grid: " in err, err
                assert not out.exists()
                continue
            V = np.linspace(start, stop, count)
            if command == "iv" and V[0] == -V[-1]:
                V = (V - V[::-1]) / 2       # the mirror-exact bias grid
            if command == "iv" and not (np.diff(V) > 0).all():
                assert rc == 1 and "invalid parameters: --grid: " in err, err
                assert "strictly increasing" in err, err
                assert not out.exists()
                continue
            assert rc == 0, err
            cols = _csv_columns(out / f"{command}.csv")
            assert len(cols["E_meV" if command == "sweep" else "V_mV"]) \
                == count
            for key, col in cols.items():
                assert all(math.isfinite(x) for x in col), key
                if key.startswith("T_"):
                    assert all(0.0 <= t <= 1.0 for t in col), key


def _bits(xs):
    """Each float's bytes, so signed zeros count."""
    return [struct.pack("d", x) for x in xs]


linspace_ends = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                     LIMIT, -LIMIT]),
    st.floats(-1e-305, 1e-305),     # subnormals and their neighbours
    st.floats(-LIMIT, LIMIT))


@settings(max_examples=300, deadline=None)
@given(start=linspace_ends, stop=linspace_ends,
       count=st.sampled_from([1, 2, 3, 81, 401]), same=st.booleans())
@example(start=-0.0, stop=5.0, count=1, same=False)  # numpy gives 0.0
@example(start=-0.0, stop=-0.0, count=1, same=True)
@example(start=LIMIT, stop=-LIMIT, count=401, same=False)
@example(start=5e-324, stop=1e-323, count=81, same=False)   # zero step
def test_linspace_is_numpy_linspace_bit_for_bit(start, stop, count, same):
    if same:
        stop = start
    assert _bits(_linspace(start, stop, count)) == _bits(
        np.linspace(start, stop, count).tolist())


@pytest.mark.parametrize("grid", [
    "1:1:3", "6.7e152:6.7e152:3", "2:1:3",
    "-1e-323:1e-323:4"])        # mirroring puts -0.0 next to 0.0
def test_bias_grid_not_increasing_exits_1_naming_grid(tmp_path, grid):
    out = tmp_path / "out"
    rc, err = _run("iv", [], out, f"--grid={grid}")
    assert rc == 1
    assert "invalid parameters: --grid: " in err, err
    assert "strictly increasing" in err, err
    assert not out.exists()


@pytest.mark.parametrize("command, args, flag", [
    ("sweep", [f"--grid=0:1:{MAX_POINTS + 1}"], "--grid"),
    ("iv", [f"--grid=0:1:{MAX_POINTS + 1}"], "--grid"),
    ("iv", [f"--grid=0:1:{10 ** 30}"], "--grid"),
    ("oracle", ["--points", str(MAX_POINTS + 1)], "--points"),
    ("oracle", ["--points", str(10 ** 30)], "--points")])
def test_oversized_point_count_exits_1_naming_it(tmp_path, command, args,
                                                 flag):
    # only counts above the bound: nothing of that size is ever allocated
    out = tmp_path / "out"
    rc, err = _run(command, [], out, *args)
    assert rc == 1
    assert f"invalid parameters: {flag}: " in err, err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("overrides", [
    ["q=[0,1]"], ["q=[0,1]", "temperature=0"], ["q=[0,1]", "temperature=4"],
    ["mu_source=-5"], ["mu_source=-5", "temperature=0"]])
def test_negative_bias_zero_deficit_reads_positive_zero(tmp_path, overrides):
    # no deficit (|q| = 1, or a window below the subband) at V_sd < 0
    rc, err = _run("readout", ["V_sd=-1", *overrides], tmp_path)
    assert rc == 0, err
    text = (tmp_path / "readout.json").read_text()
    assert "-0.0" not in text
    report = json.loads(text)
    for key in ("delta_I_parallel_A", "delta_I_antiparallel_A", "contrast",
                "relative_decrease_parallel",
                "relative_decrease_antiparallel"):
        assert math.copysign(1.0, report[key]) == 1.0 and report[key] == 0.0


@pytest.mark.parametrize("T", ["0", "0.1", "4", "40"])
def test_zero_bias_readout_deltas_read_positive_zero(tmp_path, T):
    # V_sd = 0 is a zero-width window: a sharp row, whose deficit is +0.0
    # at every temperature; the conductance row keeps its own path
    rc, err = _run("readout", ["V_sd=0", f"temperature={T}"], tmp_path)
    assert rc == 0, err
    report = json.loads((tmp_path / "readout.json").read_text())
    for key in ("delta_I_parallel_A", "delta_I_antiparallel_A"):
        assert math.copysign(1.0, report[key]) == 1.0 and report[key] == 0.0
    paths = json.loads((tmp_path / "manifest.json").read_text())["paths"]
    assert paths["sharp"] == (2 if T == "0" else 1)
    assert sum(paths.values()) == 2


@pytest.mark.parametrize("args, flag", [
    (["--eps-d", "nan"], "--eps-d"), (["--eps-d=-inf"], "--eps-d"),
    (["--points", "0"], "--points"), (["--points", "-3"], "--points"),
    (["--window", "-5"], "--window"), (["--window", "0"], "--window"),
    (["--window", "inf"], "--window"), (["--window", "nan"], "--window"),
    (["--hopping-t", "0"], "--hopping-t"),
    (["--hopping-t", "inf"], "--hopping-t"),
    (["--coupling-tp", "-1"], "--coupling-tp"),
    (["--coupling-tp", "nan"], "--coupling-tp"),
    # finite, but beyond the bound B of the config's energies
    (["--hopping-t", "1e300"], "--hopping-t"),
    (["--coupling-tp", "1e300"], "--coupling-tp"),
    (["--eps-d=-1e300"], "--eps-d")])
def test_bad_oracle_option_exits_1_naming_it(tmp_path, capsys, args, flag):
    out = tmp_path / "out"
    assert main(["oracle", *args, "--out", str(out)]) == 1
    assert f"invalid parameters: {flag}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    [], ["--window", "1e308"], ["--eps-d=1e152"]])
def test_oracle_options_at_the_bound_run_warning_free(tmp_path, args):
    # Gamma_eff ~ 3.5e152 meV: every detuning the lineshape squares is finite
    out = tmp_path / "out"
    proc = run_cli_strict(["oracle", "--hopping-t", repr(LIMIT),
                           "--coupling-tp", repr(LIMIT), *args,
                           "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    text = (out / "oracle.csv").read_text()
    assert "nan" not in text and len(text.splitlines()) == 1003


def test_iv_failure_leaves_no_output(tmp_path, capsys, monkeypatch):
    # iv computes every row before it opens iv.csv
    def fail(*args):
        raise ArithmeticError("no curve")

    monkeypatch.setattr(landauer, "iv_curves", fail)
    out = tmp_path / "out"
    assert main(["iv", "--out", str(out)]) == 2
    assert "numerical failure: no curve" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["levels", "sweep", "iv", "readout",
                                     "oracle"])
def test_unusable_out_exits_73(tmp_path, capsys, command):
    # --out names a file, or a path under one: one handled line, no files
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    for out in (blocker, blocker / "sub"):
        assert main([command, "--out", str(out)]) == 73
        err = capsys.readouterr().err
        assert err.startswith("fanospin: cannot write --out: ")
        assert err.count("\n") == 1
    assert blocker.read_text() == "kept"


def test_levels_modules_import_no_numpy():
    # `fanospin levels` and every config check need only these modules, and
    # the package and the CLI import nothing else at module level; landauer
    # and readout import no numpy at module level, and the CLI none at all
    needed = {"constants", "config", "fano", "dot_spectrum"}
    src = Path(fanospin.__file__).parent
    for name in sorted(needed | {"__init__", "cli", "landauer", "readout"}):
        allowed = needed | ({"landauer"} if name == "readout" else set())
        tree = ast.parse((src / f"{name}.py").read_text(encoding="utf-8"))
        for node in (ast.walk(tree) if name in needed | {"cli"}
                     else tree.body):
            if isinstance(node, ast.ImportFrom) and node.level:
                if name == "cli" and node not in tree.body:
                    continue    # a runner imports the modules it uses
                targets = ([node.module] if node.module
                           else [a.name for a in node.names])
                assert all(t in allowed or not (src / f"{t}.py").exists()
                           for t in targets), (name, targets)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = ([a.name for a in node.names]
                           if isinstance(node, ast.Import) else [node.module])
                assert all(m.split(".")[0] != "numpy" for m in modules), (
                    name, modules)


TRANSPORT = ("landauer", "readout", "lattice_oracle")

#: Runs ``python -m fanospin ARGS...`` and prints, as the last three lines
#: of stdout, whether numpy and dataclasses were loaded when the run ended
#: and which of the ``TRANSPORT`` modules were.
NUMPY_PROBE = ("import runpy, sys\n"
               "try:\n"
               "    runpy.run_module('fanospin', run_name='__main__', "
               "alter_sys=True)\n"
               "finally:\n"
               "    print('numpy loaded:', 'numpy' in sys.modules)\n"
               "    print('dataclasses loaded:', "
               "'dataclasses' in sys.modules)\n"
               f"    print('transport loaded:', [m for m in {TRANSPORT!r} "
               "if 'fanospin.' + m in sys.modules])\n")


@pytest.mark.parametrize("args, code, numpy_loaded, transport, needle", [
    (["levels"], 0, False, [], None),
    (["--help"], 0, False, [], "usage: fanospin"),
    (["frobnicate"], 64, False, [], "unknown subcommand 'frobnicate'"),
    (["levels", "--config", "MISSING"], 66, False, [], "cannot read config"),
    (["iv", "--set", "Gamma=0"], 1, False, [], "invalid configuration: Gamma"),
    (["sweep"], 0, False, ["landauer"], None),
    (["iv", "--set", "temperature=0"], 0, False, ["landauer"], None),
    (["readout", "--set", "temperature=0"], 0, False,
     ["landauer", "readout"], None),
    (["iv"], 0, False, ["landauer"], None),
    (["readout"], 0, False, ["landauer", "readout"], None),
    (["iv", "--set", "temperature=4"], 0, True, ["landauer"], None),
    (["readout", "--set", "temperature=4"], 0, True,
     ["landauer", "readout"], None),
    (["oracle"], 0, True, ["lattice_oracle"], None),
], ids=["levels", "help", "usage", "unreadable", "rejected", "sweep", "iv-T0",
        "readout-T0", "iv", "readout", "iv-4K", "readout-4K", "oracle"])
def test_numpy_loads_only_where_a_subcommand_computes(tmp_path, args, code,
                                                      numpy_loaded, transport,
                                                      needle):
    out = tmp_path / "out"
    args = [str(tmp_path / "missing.json") if a == "MISSING" else a
            for a in args]
    if args[0] in SUBCOMMANDS:
        args += ["--out", str(out)]
    proc = subprocess.run([sys.executable, "-c", NUMPY_PROBE, *args],
                          capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    *stdout, numpy_probe, dataclasses_probe, transport_probe = \
        proc.stdout.splitlines()
    assert numpy_probe == f"numpy loaded: {numpy_loaded}"
    assert dataclasses_probe == "dataclasses loaded: False"
    assert transport_probe == f"transport loaded: {transport}"
    if needle is not None:
        assert needle in "\n".join(stdout) + proc.stderr
    if code:
        assert "Traceback" not in proc.stderr and not out.exists()
        return
    if args[0] in SUBCOMMANDS:
        manifest = json.loads((out / "manifest.json").read_text())
        expected = {"python": "%d.%d.%d" % sys.version_info[:3]}
        if numpy_loaded:
            expected["numpy"] = np.__version__
        assert manifest["versions"] == expected
        data = "readout.json" if args[0] == "readout" else f"{args[0]}.csv"
        assert manifest["outputs"] == [str(out / data)]
        # graded rows are exactly the runs that load numpy
        if args[0] in ("iv", "readout"):
            paths = manifest["paths"]
            assert sorted(paths) == sorted(landauer.PATHS)
            assert all(type(n) is int and n >= 0 for n in paths.values())
            assert sum(paths.values()) > 0
            assert (paths["graded"] > 0) == numpy_loaded
        else:
            assert "paths" not in manifest


def test_compare_cli_outputs_finds_a_tree_identical_to_itself():
    repo = Path(__file__).resolve().parents[1]
    script = repo / "scripts" / "compare_cli_outputs.py"
    proc = subprocess.run([sys.executable, str(script), str(repo), str(repo),
                           "--only", "readout", "reject-usage"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["readout: identical",
                                        "reject-usage: identical",
                                        "2 of 2 commands identical"]
