"""Command-line entry point.

Subcommands: levels, sweep, iv, readout, oracle.  Each run writes
deterministic CSV/JSON data files, each line as it is formatted, then a
manifest.json with the run metadata, so the manifest marks a complete run.
The timestamp lives only in the manifest: repeated runs on the same config
produce byte-identical data files.  A data file opens once every row that
can fail is computed, so a rejected input leaves no output directory.

Exit codes (sysexits where one fits):

- 0 success;
- 1 invalid input, each violation named by its config key or option: the
  config, ``--grid`` (START and STOP within +-``config.LIMIT``, COUNT an
  integer in [1, ``MAX_POINTS``], for ``iv`` a strictly increasing grid)
  and the oracle options (``--hopping-t`` in (0, LIMIT], ``--coupling-tp``
  in [0, LIMIT], ``--eps-d`` in [-LIMIT, LIMIT], ``--window`` finite and
  > 0, ``--points`` in [1, ``MAX_POINTS``]);
- 2 numerical failure;
- 64 usage error;
- 66 unreadable config;
- 73 the output cannot be created (``--out`` names a file, or a path
  under one, or is not writable).

The CLI imports no numpy.  The runners import the transport modules
(``landauer``, ``lattice_oracle``, ``readout``) they use, and numpy is
imported only where arrays are computed: the graded rule, which takes the
finite-temperature rows whose coupled subband bottom lies within 40 kT or
whose dip is much narrower than kT and far outside the window, and the
lattice oracle.  So ``levels``, ``sweep``, an ``iv`` or ``readout`` at
T = 0 or clear of the bottom (the default 0.1 K included), ``--help``, usage
errors and every rejected or unreadable config run without numpy; grids are
lists from ``_linspace``.  The manifest's ``versions`` records numpy's
version only when the run loaded it, and for ``iv`` and ``readout`` its
``paths`` counts the transport rows per path: ``sharp`` (T = 0 closed
form), ``digamma`` (finite-T closed form) and ``graded``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path

from . import __version__
from .config import (LIMIT, BandEdgeError, ConfigError, DeviceConfig,
                     ExtractionError, apply_overrides, default_config, dumps,
                     load_file, validate)
from .dot_spectrum import eigenlevels
from .fano import SpinOrientation, spin_channel_reflection

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 64
EXIT_NOINPUT = 66
EXIT_CANTCREAT = 73

#: The most points a ``--grid`` COUNT or the oracle's ``--points`` may ask
#: for, checked before any grid is built: the largest round count at which
#: every subcommand stays within 1 GiB.  At this count a finite-T ``iv``
#: (0.1 K, default device, closed rows) peaked at 746 MiB, a T = 0 ``iv`` at
#: 427 MiB, a three-mode ``sweep`` at 58 MiB and ``oracle`` at 171 MiB.
MAX_POINTS = 1_000_000


def _write_lines(path: Path, lines):
    """Write one output file, each line as ``lines`` yields it, creating its
    directory first."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


def _write_csv(path: Path, header: list[str], rows, comment: str | None = None):
    """Cells by ``str``: a float's round-trip repr, locale-independent."""
    head = [",".join(header)] if comment is None else ["# " + comment,
                                                       ",".join(header)]
    _write_lines(path, chain(head, (",".join(map(str, row)) for row in rows)))


def _write_json(path: Path, obj):
    _write_lines(path, [json.dumps(obj, sort_keys=True, indent=2)])


def _linspace(start: float, stop: float, count: int) -> list[float]:
    """``numpy.linspace(start, stop, count)`` bit for bit, as a list."""
    delta = stop - start
    if count == 1:
        return [0.0 * delta + start]
    div = count - 1
    step = delta / div
    if step == 0:   # numpy's path for a subnormal step
        grid = [k / div * delta + start for k in range(count)]
    else:
        grid = [k * step + start for k in range(count)]
    grid[-1] = stop
    return grid


def _parse_grid(text: str) -> list[float]:
    """START:STOP:COUNT, with finite ends within +-LIMIT and
    1 <= COUNT <= MAX_POINTS, as a ``_linspace``."""
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise ConfigError([f"--grid: expected start:stop:count, got "
                           f"'{text}' ({exc})"]) from exc
    if not (-LIMIT <= start <= LIMIT and -LIMIT <= stop <= LIMIT
            and 1 <= count <= MAX_POINTS):
        raise ConfigError([f"--grid: START and STOP must be in [{-LIMIT:g}, "
                           f"{LIMIT:g}] and COUNT in [1, {MAX_POINTS}], "
                           f"got '{text}'"])
    return _linspace(start, stop, count)


def _load_config(args) -> DeviceConfig:
    if args.config is not None:
        cfg = load_file(args.config)
    else:
        cfg = default_config()
    if args.set:
        cfg = apply_overrides(cfg, args.set)
    return validate(cfg)


def _run_levels(cfg: DeviceConfig, args, out: Path) -> dict:
    path = out / "levels.csv"
    _write_csv(path,
               ["energy_meV", "character", "sz_total", "l1z", "degeneracy",
                "parallel_accessible"],
               [(lv.energy, lv.character.value, lv.sz_total, lv.l1z,
                 lv.degeneracy, "true" if lv.parallel_accessible else "false")
                for lv in eigenlevels(cfg)])
    return {"outputs": [path]}


def _run_sweep(cfg: DeviceConfig, args, out: Path) -> dict:
    from .landauer import model_from_config

    model_par = model_from_config(cfg, SpinOrientation.PARALLEL)
    model_anti = model_par._replace(orientation=SpinOrientation.ANTIPARALLEL)
    res = model_par.resonance
    if args.grid:
        grid = _parse_grid(args.grid)
    else:
        grid = _linspace(res.energy - 10 * res.Gamma,
                         res.energy + 10 * res.Gamma, 201)
    modes = [(m.bottom_energy, m.coupled) for m in cfg.modes]
    header = ["E_meV"]
    for i in range(len(modes)):
        header += [f"T_parallel_mode{i}", f"T_antiparallel_mode{i}",
                   f"R_parallel_mode{i}", f"R_antiparallel_mode{i}"]
    header += ["T_parallel", "T_antiparallel", "R_parallel", "R_antiparallel"]

    def row(E: float) -> list[float]:
        r_par = spin_channel_reflection(E, model_par)
        r_anti = spin_channel_reflection(E, model_anti)
        cells, totals = [E], [0.0] * 4
        for bottom, coupled in modes:
            # mode_transmission's T; R = w (1 - T_fano) on the open coupled
            # mode, so it halves exactly
            mode_cells = (((1.0 - r_par, 1.0 - r_anti, r_par, r_anti)
                           if coupled else (1.0, 1.0, 0.0, 0.0))
                          if E >= bottom else (0.0, 0.0, 0.0, 0.0))
            cells += mode_cells
            totals = [s + c for s, c in zip(totals, mode_cells)]
        return cells + totals

    path = out / "sweep.csv"
    # a row is float arithmetic on a validated config and a LIMIT-bounded
    # grid, finite throughout, so it cannot fail once the file is open
    _write_csv(path, header, map(row, grid))
    return {"outputs": [path]}


def _counting_rows(compute, *args):
    """(compute(*args), its transport rows counted per path): the rows
    ``landauer`` evaluated in the T = 0 closed form (sharp), in the digamma
    closed form and by the graded rule."""
    from .landauer import PATHS, ROW_PATHS

    paths = dict.fromkeys(PATHS, 0)
    token = ROW_PATHS.set(paths)
    try:
        return compute(*args), paths
    finally:
        ROW_PATHS.reset(token)


def _run_iv(cfg: DeviceConfig, args, out: Path) -> dict:
    from .landauer import iv_curves

    if args.grid:
        grid = _parse_grid(args.grid)
    else:
        grid = _linspace(-2 * cfg.Gamma, 2 * cfg.Gamma, 81)
    if grid[0] == -grid[-1]:
        # mirror-exact: V[k] == -V[n-1-k], so I(-V) = -I(V) bit for bit
        grid = [(a - b) / 2 for a, b in zip(grid, reversed(grid))]
    if not all(b > a for a, b in zip(grid, grid[1:])):
        raise ConfigError([f"--grid: the bias grid must be strictly "
                           f"increasing, got '{args.grid}'"])
    (curve_par, curve_anti), paths = _counting_rows(iv_curves, cfg, grid)
    path = out / "iv.csv"
    _write_csv(path,
               ["V_mV", "I_A_parallel", "I_A_antiparallel",
                "G_S_parallel", "G_S_antiparallel"],
               zip(curve_par.V_sd, curve_par.I, curve_anti.I,
                   curve_par.G_diff, curve_anti.G_diff))
    return {"outputs": [path], "paths": paths}


def _run_readout(cfg: DeviceConfig, args, out: Path) -> dict:
    from .readout import nondemolition_summary, readout_report

    report, paths = _counting_rows(readout_report, cfg)
    summary = nondemolition_summary(cfg)
    flip_time_finite = math.isfinite(summary.spin_flip_time)
    obj = {
        "I_ballistic_A": report.I_ballistic,
        "I_parallel_A": report.I_parallel,
        "I_antiparallel_A": report.I_antiparallel,
        "delta_I_parallel_A": report.delta_I_parallel,
        "delta_I_antiparallel_A": report.delta_I_antiparallel,
        "contrast": report.contrast,
        "relative_decrease_parallel": report.relative_decrease_parallel,
        "relative_decrease_antiparallel":
            report.relative_decrease_antiparallel,
        "flip_blocked": report.flip_blocked,
        "levels_distinguishable": report.levels_distinguishable,
        "optimal_V_mV": report.optimal_V,
        "mean_reflection_dip_window": report.mean_reflection_dip_window,
        "conductance_at_resonance_S": report.conductance_at_resonance,
        "lineshape_note": report.lineshape_note,
        "qnd": summary.qnd,
        "qnd_reasons": list(summary.reasons),
        "spin_flip_time_s": (summary.spin_flip_time if flip_time_finite
                             else None),
        "spin_flip_time_finite": flip_time_finite,
        "beta_vs_zeeman": summary.beta_vs_zeeman,
    }
    path = out / "readout.json"
    _write_json(path, obj)
    return {"outputs": [path], "paths": paths}


def _run_oracle(cfg: DeviceConfig, args, out: Path) -> dict:
    from .lattice_oracle import OracleLattice, compare_to_fano

    errs = [f"{flag}: must be {rule}, got {value}"
            for flag, value, ok, rule in (
                ("--hopping-t", args.hopping_t, 0 < args.hopping_t <= LIMIT,
                 f"in (0, {LIMIT:g}]"),
                ("--coupling-tp", args.coupling_tp,
                 0 <= args.coupling_tp <= LIMIT, f"in [0, {LIMIT:g}]"),
                ("--eps-d", args.eps_d, -LIMIT <= args.eps_d <= LIMIT,
                 f"in [{-LIMIT:g}, {LIMIT:g}]"),
                ("--window", args.window,
                 0 < args.window < math.inf, "finite and > 0"),
                ("--points", args.points, 1 <= args.points <= MAX_POINTS,
                 f"in [1, {MAX_POINTS}]"))
            if not ok]
    if errs:
        raise ConfigError(errs)
    lattice = OracleLattice(hopping_t=args.hopping_t,
                            site_energy_eps_d=args.eps_d,
                            coupling_tp=args.coupling_tp)
    dev, gamma, grid, t_oracle, t_fano = compare_to_fano(
        lattice, window_halfwidth=args.window, n_points=args.points)
    path = out / "oracle.csv"
    _write_csv(path,
               ["E_meV", "T_oracle", "T_fano", "abs_deviation"],
               ((E, o, f, abs(o - f)) for E, o, f in zip(
                   grid.tolist(), t_oracle.tolist(), t_fano.tolist())),
               comment=f"Gamma_eff_meV={gamma!r} max_abs_deviation={dev!r}")
    return {"outputs": [path]}


def _versions() -> dict[str, str]:
    """Python's version, and numpy's if this run loaded it."""
    versions = {"python": "%d.%d.%d" % sys.version_info[:3]}
    if "numpy" in sys.modules:
        versions["numpy"] = sys.modules["numpy"].__version__
    return versions


RUNNERS = {
    "levels": _run_levels,
    "sweep": _run_sweep,
    "iv": _run_iv,
    "readout": _run_readout,
    "oracle": _run_oracle,
}
SUBCOMMANDS = tuple(RUNNERS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fanospin",
        description="Fano-antiresonance spin readout simulator")
    sub = parser.add_subparsers(dest="subcommand")
    for name, help_ in (
            ("levels", "two-electron dot level diagram (CSV)"),
            ("sweep", "energy-resolved transmission/reflection (CSV)"),
            ("iv", "current-voltage and differential conductance (CSV)"),
            ("readout", "readout figures of merit (JSON)"),
            ("oracle", "lattice oracle vs analytic lineshape (CSV)")):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", default=None,
                       help="device config JSON (built-in defaults if omitted)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE", help="config override (dotted path)")
        if name in ("sweep", "iv"):
            p.add_argument("--grid", default=None, metavar="START:STOP:COUNT",
                           help="evaluation grid; a negative START needs "
                                "the = form, --grid=-2:2:81")
        if name == "oracle":
            p.add_argument("--hopping-t", type=float, default=1000.0,
                           dest="hopping_t", help="chain hopping, meV")
            p.add_argument("--coupling-tp", type=float, default=100.0,
                           dest="coupling_tp", help="wire-level coupling, meV")
            p.add_argument("--eps-d", type=float, default=0.0, dest="eps_d",
                           help="side-level energy, meV")
            p.add_argument("--window", type=float, default=5.0,
                           help="half-width of comparison window, in Gamma_eff")
            p.add_argument("--points", type=int, default=1001,
                           help="grid points")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    if argv and not argv[0].startswith("-") and argv[0] not in SUBCOMMANDS:
        parser.print_usage(sys.stderr)
        print(f"fanospin: unknown subcommand '{argv[0]}'", file=sys.stderr)
        return EXIT_USAGE
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE

    try:
        cfg = _load_config(args)
    except ConfigError as exc:
        print(f"fanospin: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, json.JSONDecodeError) as exc:
        print(f"fanospin: cannot read config: {exc}", file=sys.stderr)
        return EXIT_NOINPUT

    out = Path(args.out)
    try:
        fields = RUNNERS[args.subcommand](cfg, args, out)
        _write_json(out / "manifest.json", {
            **fields,
            "subcommand": args.subcommand,
            "config_digest": hashlib.sha256(
                dumps(cfg).encode("utf-8")).hexdigest(),
            "tool_version": __version__,
            "versions": _versions(),
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "overrides": list(args.set),
            "outputs": [str(p) for p in fields["outputs"]],
        })
    except (BandEdgeError, ExtractionError, ArithmeticError) as exc:
        print(f"fanospin: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError) as exc:
        print(f"fanospin: invalid parameters: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"fanospin: cannot write --out: {exc}", file=sys.stderr)
        return EXIT_CANTCREAT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
