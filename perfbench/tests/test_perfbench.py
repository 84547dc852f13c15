"""Tests for the benchmark's own logic: seeded inputs, span arithmetic,
the tail-percentile rule, import-time parsing and the BENCHMARK.json
contract.  Run with ``python -m pytest perfbench/tests``."""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import inputs, reference, run, stats, tracing

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def base():
    return run.base_config()


# ---------------------------------------------------------------------------
# seed -> inputs

@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, base):
    a = inputs.generate(workload, 7, base)
    b = inputs.generate(workload, 7, base)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert json.dumps(a) != json.dumps(inputs.generate(workload, 8, base))


def test_generation_does_not_touch_the_base_config(base):
    before = json.dumps(base, sort_keys=True)
    for workload in inputs.WORKLOADS:
        inputs.generate(workload, 3, base)
    assert json.dumps(base, sort_keys=True) == before


def test_thermal_pool_is_stratified(base):
    pool = inputs.thermal_iv(5, base)
    temps = [item["config"]["temperature"] for item in pool]
    for T in inputs.THERMAL_TEMPERATURES_K:
        assert temps.count(T) == inputs.THERMAL_GAMMA_STRATA
    spins = [item["config"]["dot_spin"] for item in pool]
    assert spins.count("Up") == spins.count("Down")
    lo, hi = inputs.GAMMA_RANGE_MEV
    assert all(lo <= item["config"]["Gamma"] <= hi for item in pool)
    for item in pool:
        V = item["V_grid"]
        assert len(V) == inputs.THERMAL_BIAS_POINTS
        assert V == [-v for v in reversed(V)]
        assert all(b > a for a, b in zip(V, V[1:]))


def test_lineshape_grid_hits_the_resonance_exactly(base):
    for item in inputs.lineshape_t0(2, base):
        from perfbench.workloads import lineshape_prepare
        E = lineshape_prepare(item)["E"]
        assert len(E) == inputs.LINESHAPE_ENERGY_POINTS
        assert E[len(E) // 2] == reference.resonance_energy(item["config"])
        tp_t = item["oracle"]["coupling_tp"] / item["oracle"]["hopping_t"]
        assert inputs.TP_OVER_T_RANGE[0] <= tp_t <= inputs.TP_OVER_T_RANGE[1]


def test_cli_pool_cycles_seeded_variants_with_exact_grids(base):
    import numpy as np
    pool = inputs.cli_cold_start(4, base)
    n = inputs.CLI_VARIANTS
    assert len(pool) >= 2 * stats.TAIL_MIN_BEYOND
    assert [c["name"] for c in pool] == list(run.CLI_NAMES) * n
    assert [c["rc"] for c in pool] == [0, 0, 0, 0, 0, 1] * n
    for name in run.CLI_NAMES:
        variants = [json.dumps(c, sort_keys=True) for c in pool
                    if c["name"] == name]
        assert len(set(variants)) == n
    for sweep in (c for c in pool if c["name"] == "sweep"):
        start, stop, count = sweep["args"][0].split("=")[1].split(":")
        grid = np.linspace(float(start), float(stop), int(count))
        assert reference.resonance_energy(dict(base, **sweep["set"])) in grid
    for iv in (c for c in pool if c["name"] == "iv"):
        assert iv["set"]["temperature"] == 0.0
        start, stop, count = iv["args"][-1].split("=")[1].split(":")
        grid = np.linspace(float(start), float(stop), int(count))
        assert np.array_equal(grid, -grid[::-1])
    assert all(c["set"]["Gamma"] <= 0 for c in pool if c["rc"] == 1)


# ---------------------------------------------------------------------------
# spans and self time

def test_self_time_on_synthetic_tree():
    #   0 root      [0, 10]
    #   1 child     [1, 3]     with grandchild 2 [1.5, 2]
    #   3 child     [2, 5]     overlaps child 1
    #   4 child     [8, 12]    runs past the root's end: clipped to 10
    #   5 other op  [20, 21]
    start = [0.0, 1.0, 1.5, 2.0, 8.0, 20.0]
    end = [10.0, 3.0, 2.0, 5.0, 12.0, 21.0]
    parent = [-1, 0, 1, 0, 0, -1]
    got = tracing.self_times(start, end, parent)
    # root: 10 minus the union [1, 5] + [8, 10] = 10 - 6
    assert got == pytest.approx([4.0, 1.5, 0.5, 3.0, 4.0, 1.0])


def test_self_times_partition_top_level_time():
    start = [0.0, 0.5, 1.0, 4.0]
    end = [6.0, 3.5, 2.0, 5.0]
    parent = [-1, 0, 1, 0]
    assert sum(tracing.self_times(start, end, parent)) == pytest.approx(6.0)


def test_tracer_wraps_every_binding_and_restores(base):
    import fanospin
    from fanospin import config, landauer, readout
    from perfbench.workloads import thermal_op
    import types
    originals = (landauer.iv_curve, fanospin.iv_curve,
                 readout.current_components, landauer.current)
    cfg = dict(base, temperature=0.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert readout.current_components is not originals[2]
        assert fanospin.iv_curve is landauer.iv_curve
        tracer.active, tracer.op_id = True, 0
        fs = types.SimpleNamespace(config=config, landauer=landauer,
                                   readout=readout)
        thermal_op(fs, {"config": cfg, "V_grid": [-1.0, 0.0, 1.0]})
        tracer.active = False
        landauer.iv_curve(config.validate(config.from_dict(cfg)), [1.0])
    finally:
        tracer.uninstall()
    assert (landauer.iv_curve, fanospin.iv_curve, readout.current_components,
            landauer.current) == originals
    names = [tracer.names[i] for i in tracer.name]
    assert names.count("landauer.iv_curve") == 1     # inactive call unseen
    assert "landauer.current.T0" in names
    assert "landauer.current.finite_T" not in names
    iv = names.index("landauer.iv_curve")
    kids = [names[i] for i, p in enumerate(tracer.parent) if p == iv]
    assert "landauer.current.T0" in kids
    metrics = tracing.family_metrics(tracer, 1, {})
    assert metrics["landauer.current.T0.calls"] == 2
    assert metrics["readout.readout_report.calls"] == 1
    for fam in tracing.families():
        assert metrics[f"{fam}.self_s"] <= metrics[f"{fam}.busy_s"] + 1e-12


def test_merge_json_nests_child_spans_under_outer_span():
    child = tracing.Tracer()
    child.add_span("cli.import", 1.0, 2.0)
    child.add_span("cli.main", 2.0, 3.0)
    parent = tracing.Tracer()
    outer = parent.add_span("cli.process", 0.5, 3.5)
    parent.merge_json(json.loads(json.dumps(child.to_json())), outer)
    assert list(parent.parent) == [-1, 0, 0]
    assert tracing.self_times(parent.start, parent.end, parent.parent) == \
        pytest.approx([1.0, 1.0, 1.0])
    assert tracing.top_level_per_op(parent, {}) == {-1: pytest.approx(3.0)}


def test_span_times_take_the_wrapper_cost_out():
    #   0 a [0, 10]
    #   1   b [1, 3]     with 2 a [1.5, 2] below it
    #   3   b [4, 6]
    tracer = tracing.Tracer()
    for name, s, e, p in (("a", 0, 10, -1), ("b", 1, 3, 0), ("a", 1.5, 2, 1),
                          ("b", 4, 6, 0)):
        tracer.add_span(name, float(s), float(e), p)
    costs = {"a": (0.2, 0.05), "b": (0.1, 0.02)}     # (total, inside)
    busy, own = tracing.span_times(tracer, costs)
    # busy: minus own inside cost, minus the whole cost of every span below
    assert busy == pytest.approx([10 - 0.05 - 0.4, 2 - 0.02 - 0.2,
                                  0.5 - 0.05, 2 - 0.02])
    # self: raw self, minus own inside cost, minus the children's outside
    assert own == pytest.approx([6 - 0.05 - 2 * 0.08, 1.5 - 0.02 - 0.15,
                                 0.5 - 0.05, 2 - 0.02])
    assert sum(own) == pytest.approx(busy[0])


def test_wrapper_costs_cover_every_family():
    costs = tracing.wrapper_costs(loops=200, repeats=3)
    assert set(costs) == set(tracing.families()) - {tracing.CLI_PROCESS}
    assert all(total > 0 for total, _ in costs.values())


def test_tracer_counts_energy_points():
    tracer = tracing.Tracer()
    wrapped = tracer._wrap(lambda E, model=None: 0.0,
                           tracing.POINT_FAMILY, None)
    tracer.active = True
    wrapped(1.0)
    wrapped(E=2.0)
    import numpy as np
    wrapped(np.zeros(5))
    assert tracer.points == 7


# ---------------------------------------------------------------------------
# percentile rule

@pytest.mark.parametrize("n, rank, pct", [
    (20, 10, 50.0), (21, 11, 52.381), (64, 54, 84.375), (100, 90, 90.0),
    (150, 140, 93.333), (1000, 990, 99.0)])
def test_tail_leaves_ten_samples_beyond(n, rank, pct):
    values = list(range(1, n + 1))[::-1]          # order must not matter
    value, percentile, count = stats.tail(values)
    assert value == rank
    assert percentile == pytest.approx(pct, abs=1e-3)
    assert count == n
    assert sum(1 for v in values if v > value) == stats.TAIL_MIN_BEYOND


def test_tail_with_too_few_samples_falls_back_to_median():
    assert stats.tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 3)
    assert stats.tail(list(range(19))) == (9.0, 50.0, 19)
    with pytest.raises(ValueError):
        stats.tail([])


@pytest.mark.parametrize("n, expected", [
    (1, 1), (2, 2), (9, 9), (10, 9), (17, 16), (20, 18), (64, 58)])
def test_repeat_latency_is_the_nearest_rank_p90(n, expected):
    values = list(range(1, n + 1))[::-1]          # order must not matter
    assert stats.repeat_latency(values) == expected
    assert sum(1 for v in values if v <= expected) >= 0.9 * n
    with pytest.raises(ValueError):
        stats.repeat_latency([])


def test_iqr_share_matches_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert stats.iqr_share(values) == pytest.approx((8.25 - 2.75) / 5.5)


# ---------------------------------------------------------------------------
# import-time parsing and references

def test_parse_importtime_splits_fanospin_and_scipy():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | numpy",
        "import time:       200 |        200 |     scipy._lib",
        "import time:       300 |        500 |   scipy",
        "import time:        50 |         50 |   scipy.integrate",
        "import time:        10 |        660 | fanospin",
        "import time:        40 |         40 | fanospin.cli",
        "fanospin: invalid configuration: Gamma: must be > 0 meV",
    ])
    fan, scipy = run.parse_importtime(stderr)
    assert fan == pytest.approx(700e-6)
    assert scipy == pytest.approx(550e-6)


def test_reference_ballistic_current_and_low_T_limit(base):
    assert reference.CURRENT_PER_MEV == pytest.approx(
        reference.BALLISTIC_1MV_A, rel=1e-3)
    cfg = dict(base, dot_spin="Up")
    mu = cfg["mu_source"]
    b0, d0 = reference.current_T0(cfg, mu + 0.5, mu - 0.5)
    b1, d1 = reference.current_finite_T(cfg, mu + 0.5, mu - 0.5, 0.01)
    assert b1 == pytest.approx(b0, rel=1e-9)
    assert d1 == pytest.approx(d0, rel=1e-5)
    bm, dm = reference.current_T0(cfg, mu - 0.5, mu + 0.5)
    assert (bm, dm) == (-b0, -d0)


def test_reference_oracle_matches_program(base):
    from fanospin.lattice_oracle import OracleLattice, oracle_transmission
    lat = OracleLattice(1000.0, 0.0, 150.0)
    E = [-30.0, -1.0, 0.0, 0.5, 40.0]
    assert reference.oracle_transmission(E, 1000.0, 0.0, 150.0) == \
        pytest.approx([oracle_transmission(e, lat) for e in E], abs=1e-13)


# ---------------------------------------------------------------------------
# BENCHMARK.json contract

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_benchmark_json_matches_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert {k: m["unit"] for k, m in e2e.items()} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units()
    bounds = {k: m["bound"] for k, m in e2e.items()}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in spec[group]]
    assert all(NAME.match(n) for n in names)
    assert len(set(n for m in ("end_to_end", "per_layer")
                   for n in (x["name"] for x in spec[m]))) == \
        len(spec["end_to_end"]) + len(spec["per_layer"])


def test_refuses_to_run_outside_a_source_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "thermal_iv",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert "not a fanospin source checkout" in proc.stderr
