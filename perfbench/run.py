#!/usr/bin/env python3
"""fanospin benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
``src/``; nothing needs installing).  Workloads:

  cli_cold_start  one fresh ``python -m fanospin`` process per operation,
                  cycling levels, sweep, readout, oracle, iv (T = 0) and a
                  config rejected for Gamma <= 0 (expected exit 1);
  thermal_iv      in process: one finite-T iv_curve + one readout_report;
  lineshape_t0    in process: a dense total_transmission sweep, a T = 0
                  iv_curve and one lattice-oracle compare_to_fano.

Load is one closed-loop client with one operation in flight.  BLAS thread
pools are pinned to one thread here and in every child.  Each operation's
output passes a correctness gate (perfbench/workloads.py); a failed gate,
an exception or an unexpected exit code counts as a failed operation.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` every input runs untraced and traced back to back and
the last line carries the per-layer metrics; spans are written under
``.perfbench/``.  The line before the last is a reproducibility record.
``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BLAS_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

#: Set-up is repeated this many times per run (the run's own plus fresh
#: child processes) and its median reported.
SETUP_REPEATS = 3
FANOSPIN_MODULES = ("config", "dot_spectrum", "fano", "landauer",
                    "lattice_oracle", "readout")
CLI_NAMES = ("levels", "sweep", "readout", "oracle", "iv", "reject")

END_TO_END = {            # name: unit
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ops_per_s": "1/s",
    "points_per_s": "points/s",
    "peak_rss_mb": "MB",
    "success_rate": "frac",
}
TRACE_METRICS = {
    "trace.overhead_frac": "frac",
    "trace.coverage_frac": "frac",
    "trace.self_sum_s_p50": "s",
    "trace.op_s_p50": "s",
    "trace.untraced_op_s_p50": "s",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run prints, with its unit."""
    from perfbench.tracing import POINT_FAMILY, families
    units = {"cli.import_s": "s", "cli.import.scipy_s": "s"}
    units.update({f"cli.{n}.wall_s": "s" for n in CLI_NAMES})
    for fam in families():
        units.update({f"{fam}.calls": "calls/op", f"{fam}.busy_s": "s/op",
                      f"{fam}.self_s": "s/op"})
    units[f"{POINT_FAMILY}.us_per_point"] = "us/point"
    units["src.lines"] = "lines"
    units.update(TRACE_METRICS)
    return units


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def base_config() -> dict:
    with open(ROOT / "configs" / "device.json", encoding="utf-8") as fh:
        return json.load(fh)


def fresh_interpreter(args: list[str], importtime: bool):
    """Run ``python ARGS`` in a fresh interpreter (with ``-X importtime``
    if asked); returns (wall seconds, the completed process)."""
    from perfbench.workloads import child_env
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    t0 = time.perf_counter()
    proc = subprocess.run(cmd + args, cwd=ROOT, env=child_env(ROOT),
                          check=True, capture_output=True, text=True,
                          timeout=120)
    return time.perf_counter() - t0, proc


# ---------------------------------------------------------------------------
# workload plumbing

class InProcess:
    """An in-process workload: set-up imports the program, generates the
    inputs and warms up with one short operation."""

    in_process = True

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed

    def setup(self) -> float:
        t0 = time.perf_counter()
        importlib.import_module("fanospin")
        self.fs = types.SimpleNamespace(**{
            m: importlib.import_module(f"fanospin.{m}")
            for m in FANOSPIN_MODULES})
        from perfbench import inputs, workloads
        kind = {"thermal_iv": "thermal", "lineshape_t0": "lineshape"}[
            self.name]
        self._op = getattr(workloads, kind + "_op")
        self.check = getattr(workloads, kind + "_check")
        self._points = getattr(workloads, kind + "_points")
        prepare = getattr(workloads, kind + "_prepare", lambda item: item)
        self.pool = [prepare(item) for item in
                     inputs.generate(self.name, self.seed, base_config())]
        warm = dict(self.pool[0])
        n = len(warm["V_grid"])
        warm["V_grid"] = warm["V_grid"][n // 2 - 1:n // 2 + 2]
        self._op(self.fs, warm)
        return time.perf_counter() - t0

    def setup_samples(self, importtime: bool) -> list[float]:
        """The run's own set-up and SETUP_REPEATS - 1 in fresh children
        (timed inside each child); with ``importtime`` the children also
        record the import split into ``self.imports``."""
        samples = [self.setup()]
        self.imports = []
        for _ in range(SETUP_REPEATS - 1):
            _, proc = fresh_interpreter(
                [str(ROOT / "perfbench" / "run.py"), "--workload", self.name,
                 "--seed", str(self.seed), "--setup-only"], importtime)
            samples.append(float(proc.stdout.split()[-1]))
            if importtime:
                self.imports.append(parse_importtime(proc.stderr))
        return samples

    def op(self, item):
        return self._op(self.fs, item)

    def points(self, item, out) -> int:
        return self._points(item)

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def sizes(self) -> dict:
        from perfbench import inputs
        return {k: v for k, v in vars(inputs).items()
                if k.isupper() and isinstance(v, (int, float, tuple))} | {
                    "pool": len(self.pool)}


class Cli:
    """cli_cold_start: each operation is one fresh interpreter."""

    in_process = False

    def __init__(self, seed: int, work: Path):
        self.seed, self.work = seed, work
        self.traced = None          # Tracer while a traced op runs
        self.walls: dict[str, list[float]] = {n: [] for n in CLI_NAMES}

    def setup_samples(self, importtime: bool) -> list[float]:
        """SETUP_REPEATS fresh-interpreter ``import fanospin`` runs; with
        ``importtime`` their import split goes into ``self.imports``."""
        samples, self.imports = [], []
        for _ in range(SETUP_REPEATS):
            wall, proc = fresh_interpreter(["-c", "import fanospin"],
                                           importtime)
            samples.append(wall)
            if importtime:
                self.imports.append(parse_importtime(proc.stderr))
        from perfbench import inputs
        from perfbench.workloads import CliRunner
        base = base_config()
        self.runner = CliRunner(ROOT, self.work, base)
        self.pool = inputs.generate("cli_cold_start", self.seed, base)
        self.check = self.runner.check
        return samples

    def op(self, item):
        spans = None
        if self.traced is not None:
            spans = self.work / f"spans{self.runner.n + 1}.json"
        self.started = time.perf_counter()
        out = self.runner.run(item, spans)
        self.ended = time.perf_counter()
        return out

    def after(self, item, out, latency: float) -> None:
        if self.traced is None:
            self.walls[item["name"]].append(latency)
            return
        from perfbench.tracing import CLI_PROCESS
        # child clocks are CLOCK_MONOTONIC too, so its spans nest in this one
        outer = self.traced.add_span(CLI_PROCESS, self.started, self.ended)
        spans = self.work / f"spans{self.runner.n}.json"
        if spans.is_file():
            self.traced.merge_json(json.loads(spans.read_text()), outer)

    def points(self, item, out) -> int:
        return self.runner.rows(item, out)

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def sizes(self) -> dict:
        from perfbench import inputs
        return {"cycle": CLI_NAMES, "variants": inputs.CLI_VARIANTS,
                "pool": len(self.pool),
                "CLI_SWEEP_POINTS": inputs.CLI_SWEEP_POINTS,
                "CLI_IV_POINTS": inputs.CLI_IV_POINTS,
                "ORACLE_POINTS": inputs.ORACLE_POINTS}


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(cumulative import of the fanospin package, own time of all scipy
    modules), in seconds, from ``python -X importtime`` output."""
    fan = scipy = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue                                # the header line
        own, cum, field = int(parts[0]), int(parts[1]), parts[2]
        name = field.strip()
        depth = (len(field) - len(field.lstrip()) - 1) // 2
        if depth == 0 and name.split(".")[0] == "fanospin":
            fan += cum * 1e-6
        if name.split(".")[0] == "scipy":
            scipy += own * 1e-6
    return fan, scipy


# ---------------------------------------------------------------------------
# measurement

class Phase:
    """Results of one closed-loop measurement phase."""

    def __init__(self):
        self.latencies: list[float] = []
        self.by_input: dict[int, list[float]] = {}
        self.points: dict[int, int] = {}
        self.failures: list[tuple[int, list[str]]] = []

    def per_input(self) -> list[float]:
        """Per input, its latency over its repeats (stats.repeat_latency,
        which says why); every timing statistic is taken over these rather
        than over single operations."""
        from perfbench.stats import repeat_latency
        return [repeat_latency(v) for v in self.by_input.values()]

    def ops_per_s(self) -> float:
        """Operations per second of one pass over every input measured,
        each at its repeat latency."""
        return len(self.by_input) / sum(self.per_input())

    def points_per_s(self) -> float:
        return sum(self.points.values()) / sum(self.per_input())


def measure(wl, seconds: float, tracer=None) -> list[Phase]:
    """Run operations back to back for ``seconds``, and at least once over
    every input of the pool; returns [untraced phase].  With a tracer each
    input also runs traced right beside its untraced run (the traced run
    first on every other pass), so both phases see the same machine speed;
    returns [untraced, traced]."""
    phases = [Phase()] + ([Phase()] if tracer is not None else [])
    n = len(wl.pool)
    deadline = time.perf_counter() + seconds
    i = 0
    while i < n or time.perf_counter() < deadline:
        order = [0] if tracer is None else [0, 1] if i // n % 2 else [1, 0]
        for which in order:
            run_op(wl, i, phases[which], tracer if which else None)
        i += 1
        if tracer is not None and tracer.full:
            break
    return phases


def run_op(wl, i: int, phase: Phase, tracer=None) -> None:
    """Run, time and check operation ``i`` (input ``i`` mod the pool size),
    traced if a tracer is given; record it in ``phase``."""
    k = i % len(wl.pool)
    item = wl.pool[k]
    wl.traced = tracer
    if tracer is not None:
        tracer.op_id = i
        if wl.in_process:
            tracer.install()
            tracer.active = True
    t0 = time.perf_counter()
    try:
        out, error = wl.op(item), None
    except Exception:                   # counted, the run goes on
        out, error = None, traceback.format_exc(limit=3)
    latency = time.perf_counter() - t0
    if tracer is not None and wl.in_process:
        tracer.active = False
        tracer.uninstall()
    phase.latencies.append(latency)
    phase.by_input.setdefault(k, []).append(latency)
    if error is None:
        try:
            problems = wl.check(item, out)
            if hasattr(wl, "after"):
                wl.after(item, out, latency)
            phase.points[k] = wl.points(item, out)
        except Exception:
            problems = ["check raised: " + traceback.format_exc(limit=3)]
    else:
        problems = ["operation raised: " + error]
    if problems:
        phase.failures.append((i, problems))


def end_to_end(phase: Phase, setup: list[float], rss_kb: int) -> dict:
    from perfbench.stats import median, tail
    return {
        "setup_s": median(setup),
        "op_s_p50": median(phase.per_input()),
        "op_s_tail": tail(phase.per_input())[0],
        "ops_per_s": phase.ops_per_s(),
        "points_per_s": phase.points_per_s(),
        "peak_rss_mb": rss_kb / 1024.0,
        "success_rate": 1.0 - len(phase.failures) / len(phase.latencies),
    }


def per_layer(wl, untraced: Phase, traced: Phase, tracer, costs) -> dict:
    """Every per-layer metric.  A family the workload never calls reads 0
    (the run's record line names them): a traced run prints every
    per-layer metric of BENCHMARK.json on every workload."""
    from perfbench.stats import median, repeat_latency
    from perfbench.tracing import family_metrics, top_level_per_op
    n = len(traced.latencies)
    out = {"cli.import_s": median([f for f, _ in wl.imports]),
           "cli.import.scipy_s": median([s for _, s in wl.imports])}
    out.update({f"cli.{k}.wall_s": 0.0 for k in CLI_NAMES})
    if isinstance(wl, Cli):
        out.update({f"cli.{k}.wall_s": median(v)
                    for k, v in wl.walls.items() if v})
    out.update(family_metrics(tracer, n, costs))
    out["src.lines"] = src_lines()
    tops = top_level_per_op(tracer, costs)
    by_input: dict[int, list[float]] = {}
    for i in range(n):
        by_input.setdefault(i % len(wl.pool), []).append(tops.get(i, 0.0))
    self_sum = median([repeat_latency(v) for v in by_input.values()])
    untraced_p50 = median(untraced.per_input())
    out["trace.overhead_frac"] = (1.0 - traced.ops_per_s()
                                  / untraced.ops_per_s())
    out["trace.coverage_frac"] = self_sum / untraced_p50
    out["trace.self_sum_s_p50"] = self_sum
    out["trace.op_s_p50"] = median(traced.per_input())
    out["trace.untraced_op_s_p50"] = untraced_p50
    return out


def versions() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform()}


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench.stats import tail
    from perfbench.tracing import Tracer, wrapper_costs
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    extra = {}
    try:
        wl = Cli(seed, work) if workload == "cli_cold_start" else \
            InProcess(workload, seed)
        setup = wl.setup_samples(importtime=trace)
        if trace:
            costs = wrapper_costs()
            tracer = Tracer()
            try:
                phases = measure(wl, seconds, tracer)
            finally:
                tracer.uninstall()
            untraced, traced = phases
            metrics = per_layer(wl, untraced, traced, tracer, costs)
            units = per_layer_units()
            with open(ROOT / ".perfbench" / f"spans-{workload}.json", "w",
                      encoding="utf-8") as fh:
                json.dump(tracer.to_json(), fh)
            extra = {
                "not_called": [k[:-len(".calls")] for k in units
                               if k.endswith(".calls") and metrics[k] == 0],
                "span_cost_us": {k: round(v[0] * 1e6, 3)
                                 for k, v in costs.items()},
                "traced_operations": len(traced.latencies),
                "spans": len(tracer.start)}
        else:
            phases = measure(wl, seconds)
            untraced = phases[0]
            metrics = end_to_end(untraced, setup, wl.peak_rss_kb())
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(p.latencies) for p in phases)
    failures = [f for p in phases for f in p.failures]
    for i, problems in failures[:10]:
        print(f"FAILED op {i}: " + "; ".join(problems), file=sys.stderr)
    _, pct, n = tail(untraced.per_input())
    repeats = [len(v) for v in untraced.by_input.values()]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "sizes": wl.sizes(),
        "inputs": n, "tail_percentile": pct,
        "operations": len(untraced.latencies),
        "repeats_per_input": [min(repeats), max(repeats)],
        "setup_samples_s": setup, "versions": versions(),
        "nproc": os.cpu_count(), "blas_pins": BLAS_PINS,
        "load": "closed loop, one client, one operation in flight",
        "src.lines": src_lines(),
    } | extra
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True,
                        choices=("cli_cold_start", "thermal_iv",
                                 "lineshape_t0"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float,
        default=json.loads((ROOT / "BENCHMARK.json").read_text())[
            "run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/fanospin/__init__.py", "configs/device.json")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a fanospin source checkout, missing "
              f"{', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_PINS)
    # the script's own directory must not shadow top-level module names
    sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [
        p for p in sys.path if Path(p or ".").resolve() != ROOT / "perfbench"]
    if args.setup_only:
        print(InProcess(args.workload, args.seed).setup())
        return 0
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
