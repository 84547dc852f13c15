#!/usr/bin/env python3
"""Run a fixed list of fanospin CLI commands on two source trees and compare
what each run leaves behind.

    python scripts/compare_cli_outputs.py PARENT_ROOT CHANGE_ROOT \
        [--only NAME ...]

Each ROOT is a checkout holding ``src/fanospin``.  Every command runs as
``python -m fanospin ... --out out`` in a fresh working directory per tree,
with ``ROOT/src`` on ``PYTHONPATH`` and no bytecode written, so both trees
see the same relative paths.  For each command the script prints one line:
``identical`` when the exit code, stdout, stderr, every data file (byte for
byte) and the manifest (without its timestamp) agree; otherwise what
differs, with the largest relative difference over the numeric cells of
each data file whose text cells all agree.  The last line counts both.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SUBCOMMANDS = ("levels", "sweep", "iv", "readout", "oracle")
MODES3 = ('modes=[{"bottom_energy": 0.0, "coupled": true}, '
          '{"bottom_energy": 6.5, "coupled": false}, '
          '{"bottom_energy": 7.6, "coupled": false}]')

#: (name, arguments before --out): defaults, explicit grids, T = 0, 1e-300,
#: 0.1, 1, 4 and 40 K, one and three modes, q, oracle couplings, a subband
#: bottom on a grid node or a window edge, and rejections exiting 1, 2, 64
#: and 66.
COMMANDS = [
    ("levels", ["levels"]),
    ("sweep", ["sweep"]),
    ("iv", ["iv"]),
    ("readout", ["readout"]),
    ("oracle", ["oracle"]),
    ("sweep-grid", ["sweep", "--grid=0:20:101"]),
    ("sweep-modes3", ["sweep", "--set", MODES3]),
    ("iv-grid7", ["iv", "--grid=-2:2:7"]),
    ("iv-grid-onesided", ["iv", "--grid=0:3:31"]),
    ("iv-grid-narrow", ["iv", "--grid=-1e-9:1e-9:5"]),
    ("iv-grid-one", ["iv", "--grid=1:1:1"]),
    ("levels-beta0", ["levels", "--set", "beta=0"]),
    ("oracle-tp10", ["oracle", "--coupling-tp", "10"]),
    ("oracle-tp300", ["oracle", "--coupling-tp", "300", "--eps-d", "200"]),
    ("oracle-points11", ["oracle", "--points", "11", "--window", "2"]),
    ("oracle-hopping", ["oracle", "--hopping-t", "500", "--coupling-tp",
                        "50"]),
]
for _T in ("0", "1e-300", "0.1", "1", "4", "40"):
    COMMANDS += [(f"iv-{_T}K", ["iv", "--set", f"temperature={_T}"]),
                 (f"readout-{_T}K", ["readout", "--set", f"temperature={_T}"])]
for _T in ("0.1", "4"):
    COMMANDS += [
        (f"iv-modes3-{_T}K", ["iv", "--set", f"temperature={_T}",
                              "--set", MODES3]),
        (f"readout-modes3-{_T}K", ["readout", "--set", f"temperature={_T}",
                                   "--set", MODES3]),
        (f"readout-q-{_T}K", ["readout", "--set", f"temperature={_T}",
                              "--set", "q=[0, 0.5]"]),
        (f"readout-negative-V-{_T}K", ["readout", "--set",
                                       f"temperature={_T}", "--set",
                                       "V_sd=-1"]),
        (f"iv-narrow-Gamma-{_T}K", ["iv", "--set", f"temperature={_T}",
                                    "--set", "Gamma=1e-4"]),
        (f"iv-bottom-near-{_T}K", ["iv", "--set", f"temperature={_T}",
                                   "--set", "modes.0.bottom_energy=6.5"]),
    ]
#: T = 0 with three modes, and the uncoupled bottom 6.5 meV on a sweep node
#: and on the drain edge of the V = +-1.5 mV windows of a T = 0 ``iv``.
COMMANDS += [
    ("iv-modes3-0K", ["iv", "--set", "temperature=0", "--set", MODES3]),
    ("sweep-modes3-bottom-node", ["sweep", "--set", MODES3, "--grid=6:8:9"]),
    ("iv-modes3-0K-bottom-edge", ["iv", "--set", "temperature=0", "--set",
                                  MODES3, "--grid=-2:2:9"]),
]
#: A 1 K dip far narrower than kT, 2.75 meV (32 kT) below mu_source; a
#: subband bottom far below every window at 0 and 4 K; a temperature at
#: which the Fermi function is 1/2 across every window.
FAR_BOTTOM = 'modes=[{"bottom_energy": -1e20, "coupled": true}]'
COMMANDS += [
    ("readout-split-domain-1K", ["readout", "--set", "mu_source=10", "--set",
                                 "temperature=1", "--set", "Gamma=1e-6"]),
    ("iv-far-bottom-0K", ["iv", "--set", FAR_BOTTOM, "--set",
                          "temperature=0", "--grid=-1:1:5"]),
    ("iv-far-bottom-4K", ["iv", "--set", FAR_BOTTOM, "--set",
                          "temperature=4", "--grid=-1:1:5"]),
    ("readout-1e150K", ["readout", "--set", "temperature=1e150"]),
]
#: Bias windows 2.9e16 and 2.9e20 kT wide at 4 K, the far chemical potential
#: below the subband bottom or far above E_res.
COMMANDS += [
    (f"readout-wide{name}-4K", ["readout", "--set", "temperature=4", "--set",
                                f"V_sd={V}"])
    for name, V in (("", "1e20"), ("-negative", "-1e20"), ("-1e16", "1e16"))]
#: A resonance far outside every window, whose graded rows end where the
#: Fermi factor rounds to 0, and a dense T = 0 curve.
COMMANDS += [
    ("iv-far-resonance-4K", ["iv", "--set", "eps1=1e6", "--set",
                             "temperature=4"]),
    ("iv-0K-dense", ["iv", "--set", "temperature=0", "--grid=-2:2:20001"]),
]
#: Point rows at 1e-30 K, far below the float spacing at mu - E_res: mu = 0
#: on the default subband bottom, and mu on a bottom moved to 6.5 meV; and
#: a zero-width bias window at 4 K.
COMMANDS += [
    ("iv-mu0-1e-30K", ["iv", "--set", "mu_source=0", "--set",
                       "temperature=1e-30", "--grid=-1:1:3"]),
    ("iv-bottom-on-mu-1e-30K", ["iv", "--set", "mu_source=6.5", "--set",
                                "modes.0.bottom_energy=6.5", "--set",
                                "temperature=1e-30", "--grid=-1:1:3"]),
    ("readout-zero-bias-4K", ["readout", "--set", "temperature=4", "--set",
                              "V_sd=0"]),
]
#: Asymmetric grids, where +-V share only some windows: the 1 K rows clear
#: the subband bottom by 40 kT, the 4 and 40 K rows are graded.
COMMANDS += [(f"iv-asymmetric-{_T}K", ["iv", "--set", f"temperature={_T}",
                                       "--grid=-1:3:9"])
             for _T in ("1", "4", "40")]
COMMANDS += [
    ("readout-1K-spin-down",["readout", "--set", "temperature=1",
                              "--set", "dot_spin=Down"]),
    ("iv-1K-grid-wide", ["iv", "--set", "temperature=1",
                         "--grid=-20:20:41"]),
    ("reject-gamma", ["iv", "--set", "Gamma=0"]),
    ("reject-grid", ["iv", "--grid=2:1:3"]),
    ("reject-oracle-window", ["oracle", "--window", "0"]),
    ("reject-oracle-overflow", ["oracle", "--coupling-tp", "1e100",
                                "--hopping-t", "1"]),
    ("reject-usage", ["frobnicate"]),
    ("reject-no-subcommand", []),
    ("reject-missing-config", ["readout", "--config", "missing.json"]),
    ("reject-malformed-override", ["levels", "--set", "J"]),
]


def run(root: Path, work: Path, args: list[str]) -> dict:
    """Run one command in ``work`` against ``root``; what it left behind."""
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    argv = args + (["--out", "out"] if args[:1] and args[0] in SUBCOMMANDS
                   else [])
    proc = subprocess.run([sys.executable, "-m", "fanospin", *argv],
                          cwd=work, env=env, capture_output=True, text=True)
    out = work / "out"
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())
             if p.name != "manifest.json"} if out.is_dir() else {}
    manifest = None
    if (out / "manifest.json").exists():
        manifest = json.loads((out / "manifest.json").read_text())
        manifest.pop("timestamp", None)
    return {"code": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr, "files": files, "manifest": manifest}


def _cells(data: bytes) -> list[str]:
    """The cells of a CSV file, or the leaves of a JSON file, as text."""
    text = data.decode("utf-8")
    if text.lstrip().startswith("{"):
        leaves = []

        def walk(node):
            if isinstance(node, dict):
                for key in sorted(node):
                    leaves.append(key)
                    walk(node[key])
            elif isinstance(node, list):
                for item in node:
                    walk(item)
            else:
                leaves.append(json.dumps(node))
        walk(json.loads(text))
        return leaves
    return [cell for line in text.splitlines()
            for cell in line.replace(" ", ",").split(",")]


def _number(cell: str):
    try:
        return float(cell.split("=")[-1])
    except ValueError:
        return None


def file_difference(a: bytes, b: bytes) -> str:
    """Why two data files differ: the largest relative difference of their
    numeric cells, or the first text cell that does not match."""
    cells_a, cells_b = _cells(a), _cells(b)
    if len(cells_a) != len(cells_b):
        return f"{len(cells_a)} vs {len(cells_b)} cells"
    worst, count = 0.0, 0
    for x, y in zip(cells_a, cells_b):
        if x == y:
            continue
        u, v = _number(x), _number(y)
        if u is None or v is None or not (math.isfinite(u)
                                          and math.isfinite(v)):
            return f"text cell {x!r} vs {y!r}"
        count += 1
        scale = max(abs(u), abs(v))     # 0 where only a zero's sign differs
        worst = max(worst, abs(u - v) / scale if scale else 0.0)
    return f"{count} numeric cells differ, max relative difference {worst:.3g}"


def compare(parent: dict, change: dict) -> list[str]:
    """What differs between two runs of one command (empty if nothing)."""
    notes = [f"{key} differs: {parent[key]!r} vs {change[key]!r}"
             for key in ("code", "stdout", "stderr")
             if parent[key] != change[key]]
    for name in sorted(set(parent["files"]) | set(change["files"])):
        a, b = parent["files"].get(name), change["files"].get(name)
        if a is None or b is None:
            side = "change" if a is None else "parent"
            notes.append(f"{name} only in {side}")
        elif a != b:
            notes.append(f"{name}: {file_difference(a, b)}")
    ma, mb = parent["manifest"], change["manifest"]
    if ma != mb:
        if ma is None or mb is None:
            notes.append("manifest only in one run")
        else:
            keys = sorted(k for k in set(ma) | set(mb)
                          if ma.get(k) != mb.get(k))
            notes.append("manifest differs in " + ", ".join(
                f"{k} ({ma.get(k)!r} vs {mb.get(k)!r})" for k in keys))
    return notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--only", nargs="+", metavar="NAME",
                        help="run only these commands (names as printed)")
    args = parser.parse_args(argv)
    commands = [(n, a) for n, a in COMMANDS
                if args.only is None or n in args.only]
    unknown = set(args.only or ()) - {n for n, _ in COMMANDS}
    if unknown:
        parser.error(f"unknown command names: {sorted(unknown)}")
    same = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, cmd in commands:
            runs = [run(root.resolve(), Path(tmp) / side / name, cmd)
                    for side, root in (("parent", args.parent),
                                       ("change", args.change))]
            notes = compare(*runs)
            same += not notes
            print(f"{name}: " + ("identical" if not notes
                                 else "; ".join(notes)), flush=True)
    print(f"{same} of {len(commands)} commands identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
