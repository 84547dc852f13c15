"""The three workloads: one operation each, and its correctness gate.

An operation receives one generated input and returns the program's output;
``check`` returns a list of problems (empty when the output is right).  The
gates compare against perfbench.reference, which never calls the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from . import reference as ref
from .inputs import ORACLE_POINTS

#: Relative tolerances of the gates.  ANTISYMMETRY/HALVING are exactness
#: checks (the program computes both sides from one integral); FINITE_T is
#: the agreement with the dense-grid reference, relative to the ballistic
#: current for currents and to the deficit itself for deficits; T0 is the
#: agreement with the closed-form arctan window.
ANTISYMMETRY_RTOL = 1e-12
HALVING_RTOL = 1e-12
FINITE_T_RTOL = 1e-6
T0_RTOL = 1e-8
TRANSMISSION_ATOL = 1e-12
ORACLE_MAX_DEVIATION = 0.01
LEVEL_ATOL = 1e-9


def _close(a: float, b: float, rtol: float, scale: float) -> bool:
    return abs(a - b) <= rtol * abs(scale)


def _check_antisymmetry(V, I, problems: list[str]) -> None:
    """I(-V) = -I(V) on a mirror-symmetric grid and I(0) = 0."""
    scale = max(abs(x) for x in I) or 1.0
    n = len(V)
    for k in range(n // 2):
        if not _close(I[k], -I[n - 1 - k], ANTISYMMETRY_RTOL, scale):
            problems.append(f"I(-V) != -I(V) at V={V[n - 1 - k]!r}: "
                            f"{I[k]!r} vs {I[n - 1 - k]!r}")
            break
    if I[n // 2] != 0.0:
        problems.append(f"I(0) = {I[n // 2]!r}, expected 0")


def _parallel(cfg: dict) -> dict:
    return dict(cfg, dot_spin=cfg.get("wire_spin", "Up"))


# ---------------------------------------------------------------------------
# thermal_iv: one finite-T iv_curve plus one readout_report per operation

def thermal_op(fs, item):
    cfg = fs.config.validate(fs.config.from_dict(item["config"]))
    curve = fs.landauer.iv_curve(cfg, item["V_grid"])
    report = fs.readout.readout_report(cfg)
    return curve, report


def thermal_check(item, out) -> list[str]:
    curve, rep = out
    cfg, V = item["config"], item["V_grid"]
    problems: list[str] = []
    I = [p.I for p in curve.points]
    if len(I) != len(V):
        return [f"iv_curve returned {len(I)} points for {len(V)} biases"]
    _check_antisymmetry(V, I, problems)
    if not all(math.isfinite(p.G_diff) for p in curve.points):
        problems.append("non-finite differential conductance")
    if not _close(rep.delta_I_antiparallel, 0.5 * rep.delta_I_parallel,
                  HALVING_RTOL, rep.delta_I_parallel):
        problems.append(f"deficit halving: {rep.delta_I_antiparallel!r} vs "
                        f"{rep.delta_I_parallel!r}/2")
    mu, T = cfg["mu_source"], cfg["temperature"]
    ball, d_par = ref.current_finite_T(_parallel(cfg), mu, mu - cfg["V_sd"], T)
    if not _close(rep.I_ballistic, ball, FINITE_T_RTOL, ball):
        problems.append(f"I_ballistic {rep.I_ballistic!r} vs reference "
                        f"{ball!r}")
    if not _close(rep.delta_I_parallel, d_par, FINITE_T_RTOL, d_par):
        problems.append(f"delta_I_parallel {rep.delta_I_parallel!r} vs "
                        f"reference {d_par!r}")
    Vmax = V[-1]
    ball, deficit = ref.current_finite_T(cfg, mu + Vmax / 2, mu - Vmax / 2, T)
    if not _close(I[-1], ball - deficit, FINITE_T_RTOL, ball):
        problems.append(f"I({Vmax!r} mV) = {I[-1]!r} vs reference "
                        f"{ball - deficit!r}")
    return problems


def thermal_points(item) -> int:
    return len(item["V_grid"])


# ---------------------------------------------------------------------------
# lineshape_t0: dense transmission sweep, T = 0 iv_curve, oracle comparison

def lineshape_prepare(item) -> dict:
    half = item["E_half"]
    k = np.arange(-half, half + 1, dtype=float)
    return dict(item, E=(item["E_center"] + item["E_step"] * k).tolist())


def lineshape_op(fs, item):
    cfg = fs.config.validate(fs.config.from_dict(item["config"]))
    model = fs.landauer.model_from_config(cfg)
    T = [fs.fano.total_transmission(E, model) for E in item["E"]]
    curve = fs.landauer.iv_curve(cfg, item["V_grid"])
    lattice = fs.lattice_oracle.OracleLattice(**item["oracle"])
    dev, gamma, grid, t_oracle, _ = fs.lattice_oracle.compare_to_fano(lattice)
    return T, curve, (dev, grid, t_oracle)


def lineshape_check(item, out) -> list[str]:
    T, curve, (dev, grid, t_oracle) = out
    cfg, E, V = item["config"], item["E"], item["V_grid"]
    problems: list[str] = []
    expected = ref.mode_transmissions(cfg, E).sum(axis=0)
    worst = float(np.max(np.abs(np.asarray(T) - expected)))
    if worst > TRANSMISSION_ATOL:
        problems.append(f"total transmission off the Fano reference by "
                        f"{worst:.3g}")
    E_res = item["E_center"]
    open_ballistic = sum(1 for m in cfg["modes"]
                         if not m["coupled"] and m["bottom_energy"] <= E_res)
    at_res = T[len(T) // 2] - open_ballistic
    if at_res != 1.0 - ref.channel_weight(cfg):
        problems.append(f"coupled-mode T(E_res) = {at_res!r}, expected "
                        f"{1.0 - ref.channel_weight(cfg)!r} (dip to 0)")
    I = [p.I for p in curve.points]
    _check_antisymmetry(V, I, problems)
    mu = cfg["mu_source"]
    for v, i in zip(V, I):
        ball, deficit = ref.current_T0(cfg, mu + v / 2, mu - v / 2)
        scale = max(abs(ball), ref.CURRENT_PER_MEV * abs(v))
        if not _close(i, ball - deficit, T0_RTOL, scale):
            problems.append(f"T=0 I({v!r} mV) = {i!r} vs closed form "
                            f"{ball - deficit!r}")
            break
    if not dev < ORACLE_MAX_DEVIATION:
        problems.append(f"oracle deviation {dev!r} >= {ORACLE_MAX_DEVIATION}")
    o = item["oracle"]
    t_ref = ref.oracle_transmission(grid, o["hopping_t"],
                                    o["site_energy_eps_d"], o["coupling_tp"])
    worst = float(np.max(np.abs(np.asarray(t_oracle) - t_ref)))
    if worst > TRANSMISSION_ATOL:
        problems.append(f"oracle transmission off the Green's-function "
                        f"reference by {worst:.3g}")
    return problems


def lineshape_points(item) -> int:
    return len(item["E"]) + len(item["V_grid"]) + ORACLE_POINTS


# ---------------------------------------------------------------------------
# cli_cold_start: one fresh `python -m fanospin` process per operation

def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class CliRunner:
    """Runs CLI operations in fresh interpreters and checks their files."""

    TIMEOUT_S = 120

    def __init__(self, root: Path, work: Path, base: dict):
        self.root = root
        self.work = work
        self.base = base
        self.env = child_env(root)
        self.config_path = work / "device.json"
        self.config_path.write_text(json.dumps(base), encoding="utf-8")
        self.digests: dict[str, dict[str, str]] = {}
        self.n = 0

    def command(self, item, out_dir: Path, spans_path: Path | None):
        sub = item.get("subcommand", item["name"])
        args = [sub, "--config", str(self.config_path), "--out",
                str(out_dir)] + item["args"]
        for key, value in item["set"].items():
            args += ["--set", f"{key}={value!r}"]
        if spans_path is None:
            return [sys.executable, "-m", "fanospin"] + args
        return [sys.executable, str(self.root / "perfbench" / "cli_child.py"),
                str(spans_path)] + args

    def config(self, item) -> dict:
        """The sample config with the input's ``--set`` overrides."""
        return dict(self.base, **item["set"])

    def run(self, item, spans_path: Path | None = None):
        self.n += 1
        out_dir = self.work / f"op{self.n}"
        proc = subprocess.run(self.command(item, out_dir, spans_path),
                              cwd=self.root, env=self.env,
                              capture_output=True, text=True,
                              timeout=self.TIMEOUT_S)
        return proc, out_dir

    def check(self, item, out) -> list[str]:
        proc, out_dir = out
        problems: list[str] = []
        stderr = proc.stderr
        if proc.returncode != item["rc"]:
            problems.append(f"{item['name']}: exit {proc.returncode}, "
                            f"expected {item['rc']}: {stderr[-300:]}")
        if "Traceback" in stderr:
            problems.append(f"{item['name']}: traceback on stderr")
        if problems:
            return problems
        files = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*"))
                 if p.name != "manifest.json"} if out_dir.is_dir() else {}
        if item["rc"] != 0:
            if "Gamma" not in stderr:
                problems.append("rejection message does not name Gamma")
            if files:
                problems.append(f"rejected config wrote {sorted(files)}")
            return problems
        digests = {n: hashlib.sha256(b).hexdigest() for n, b in files.items()}
        first = self.digests.setdefault(json.dumps(item, sort_keys=True),
                                        digests)
        if digests != first:
            problems.append(f"{item['name']}: data files differ from the "
                            f"first run of the same input")
        checker = getattr(self, "_check_" + item["name"])
        try:
            problems += checker(item, files)
        except (KeyError, ValueError, IndexError) as exc:
            problems.append(f"{item['name']}: unreadable output ({exc!r})")
        return problems

    @staticmethod
    def rows(item, out) -> int:
        """Data rows written (CSV lines past the header; 1 for JSON)."""
        proc, out_dir = out
        n = 0
        for p in out_dir.glob("*.csv") if out_dir.is_dir() else ():
            n += sum(1 for line in p.read_text().splitlines()
                     if line and not line.startswith("#")) - 1
        if out_dir.is_dir() and (out_dir / "readout.json").is_file():
            n += 1
        return n

    @staticmethod
    def _csv(data: bytes) -> tuple[list[str], np.ndarray, list[str]]:
        lines = data.decode("utf-8").splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        body = [ln for ln in lines if not ln.startswith("#")]
        header = body[0].split(",")
        rows = [ln.split(",") for ln in body[1:]]
        return header, rows, comments

    def _check_levels(self, item, files) -> list[str]:
        header, rows, _ = self._csv(files["levels.csv"])
        col = {h: i for i, h in enumerate(header)}
        got = sorted(float(r[col["energy_meV"]])
                     for r in rows for _ in range(int(r[col["degeneracy"]])))
        want = ref.level_energies(self.config(item))
        if len(got) != len(want) or max(
                abs(a - b) for a, b in zip(got, want)) > LEVEL_ATOL:
            return [f"levels {got} vs closed form {want}"]
        return []

    def _check_sweep(self, item, files) -> list[str]:
        header, rows, _ = self._csv(files["sweep.csv"])
        a = np.array([[float(x) for x in r] for r in rows])
        col = {h: i for i, h in enumerate(header)}
        E = a[:, col["E_meV"]]
        problems = []
        R_par, R_anti = a[:, col["R_parallel"]], a[:, col["R_antiparallel"]]
        if np.any(np.abs(R_anti - 0.5 * R_par)
                  > HALVING_RTOL * np.abs(R_par)):
            problems.append("sweep: R_antiparallel != R_parallel / 2")
        par = _parallel(self.config(item))
        worst = float(np.max(np.abs(a[:, col["T_parallel"]]
                                    - ref.mode_transmissions(par, E).sum(0))))
        if worst > TRANSMISSION_ATOL:
            problems.append(f"sweep: T_parallel off the Fano reference by "
                            f"{worst:.3g}")
        E_res = ref.resonance_energy(self.config(item))
        hit = np.flatnonzero(E == E_res)
        if len(hit) != 1 or a[hit[0], col["T_parallel_mode0"]] != 0.0:
            problems.append("sweep: T_parallel(E_res) is not exactly 0")
        return problems

    def _check_readout(self, item, files) -> list[str]:
        rep = json.loads(files["readout.json"])
        cfg = self.config(item)
        problems = []
        mu, T = cfg["mu_source"], cfg["temperature"]
        ball, d_par = ref.current_finite_T(_parallel(cfg), mu,
                                           mu - cfg["V_sd"], T)
        if abs(ref.CURRENT_PER_MEV * 1.0 - ref.BALLISTIC_1MV_A) \
                > 1e-3 * ref.BALLISTIC_1MV_A:
            problems.append("reference G0 * 1 mV is not 3.874e-8 A")
        if not _close(rep["I_ballistic_A"], ball, FINITE_T_RTOL, ball):
            problems.append(f"readout: I_ballistic {rep['I_ballistic_A']!r}"
                            f" vs G0 V reference {ball!r}")
        if not _close(rep["delta_I_antiparallel_A"],
                      0.5 * rep["delta_I_parallel_A"], HALVING_RTOL,
                      rep["delta_I_parallel_A"]):
            problems.append("readout: antiparallel deficit is not half the "
                            "parallel one")
        if not _close(rep["delta_I_parallel_A"], d_par, FINITE_T_RTOL, d_par):
            problems.append(f"readout: delta_I_parallel "
                            f"{rep['delta_I_parallel_A']!r} vs reference "
                            f"{d_par!r}")
        return problems

    def _check_oracle(self, item, files) -> list[str]:
        header, rows, comments = self._csv(files["oracle.csv"])
        a = np.array([[float(x) for x in r] for r in rows])
        dev = float(comments[0].split("max_abs_deviation=")[1].split()[0])
        problems = []
        if not dev < ORACLE_MAX_DEVIATION:
            problems.append(f"oracle: deviation {dev!r} >= "
                            f"{ORACLE_MAX_DEVIATION}")
        arg = dict(zip(item["args"][::2], item["args"][1::2]))
        t_ref = ref.oracle_transmission(a[:, 0], float(arg["--hopping-t"]),
                                        0.0, float(arg["--coupling-tp"]))
        if float(np.max(np.abs(a[:, 1] - t_ref))) > TRANSMISSION_ATOL:
            problems.append("oracle: T_oracle off the Green's-function "
                            "reference")
        return problems

    def _check_iv(self, item, files) -> list[str]:
        header, rows, _ = self._csv(files["iv.csv"])
        a = np.array([[float(x) for x in r] for r in rows])
        V, I_par, I_anti = a[:, 0], a[:, 1], a[:, 2]
        problems: list[str] = []
        _check_antisymmetry(V.tolist(), I_par.tolist(), problems)
        cfg0 = self.config(item)
        mu = cfg0["mu_source"]
        for v, ip, ia in zip(V, I_par, I_anti):
            ball, d = ref.current_T0(_parallel(cfg0), mu + v / 2, mu - v / 2)
            scale = max(abs(ball), ref.CURRENT_PER_MEV * abs(v))
            if not _close(ip, ball - d, T0_RTOL, scale):
                problems.append(f"iv: I_parallel({v!r}) = {ip!r} vs closed "
                                f"form {ball - d!r}")
                break
            if not _close(ball - ia, 0.5 * (ball - ip), T0_RTOL, scale):
                problems.append(f"iv: antiparallel deficit at {v!r} mV is "
                                f"not half the parallel one")
                break
        return problems
