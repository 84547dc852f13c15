"""Span tracer that wraps fanospin's public functions from outside.

Each target function is replaced, at every module binding that refers to
it, by a wrapper that records one span per call: family name, start, end,
parent span and operation id.  Calls made by the program to another target
through its own module binding therefore appear as child spans, and a
layer's self time is its span's duration minus the time covered by its
children.

Spans are kept in flat typed arrays (40 bytes a span) and written out as
JSON when the run ends.  This module uses the standard library only, so a
traced CLI child process pays no extra import cost for it.

Wrapping costs about a microsecond a call, which is a large share of a
scalar ``fano.total_transmission`` call.  ``wrapper_costs`` measures that
cost on a no-op once per run, and ``span_times`` takes it out of every
span's busy and self time.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array

PACKAGE = "fanospin"
#: Cap on spans kept in memory; a traced phase stops early when reached.
MAX_SPANS = 500_000
#: The span the benchmark records around one CLI child process, from spawn
#: to exit; the child's own spans nest under it.
CLI_PROCESS = "cli.process"


def _current_kind(args, kwargs) -> str:
    """landauer.current split by the bias temperature:
    the exact T = 0 window and finite-T integration are different code."""
    bias = args[0] if args else kwargs.get("bias")
    return "T0" if getattr(bias, "temperature", None) == 0 else "finite_T"


def _n_points(args, kwargs) -> int:
    """Energy points in a transmission call (scalar or array argument)."""
    E = args[0] if args else kwargs.get("E")
    size = getattr(E, "size", None)
    return 1 if size is None else int(size)


#: (module, function, classifier or None).  A classifier appends a suffix to
#: the family name from the call's arguments.
TARGETS = (
    ("cli", "main", None),
    ("config", "from_dict", None),
    ("config", "validate", None),
    ("dot_spectrum", "two_electron_hamiltonian", None),
    ("dot_spectrum", "eigenlevels", None),
    ("dot_spectrum", "target_level", None),
    ("fano", "total_transmission", None),
    ("fano", "mode_transmission", None),
    ("fano", "mean_reflection", None),
    ("landauer", "model_from_config", None),
    ("landauer", "current", _current_kind),
    ("landauer", "current_components", None),
    ("landauer", "linear_conductance", None),
    ("landauer", "iv_curve", None),
    ("lattice_oracle", "compare_to_fano", None),
    ("lattice_oracle", "effective_broadening", None),
    ("lattice_oracle", "dip_minimum", None),
    ("readout", "readout_report", None),
    ("readout", "nondemolition_summary", None),
)

#: The family whose calls also count energy points, for a per-point cost.
POINT_FAMILY = "fano.total_transmission"


def families() -> list[str]:
    """Every family name a traced run can report, in a fixed order."""
    out = [CLI_PROCESS]
    for mod, fn, classify in TARGETS:
        base = f"{mod}.{fn}"
        out += [f"{base}.T0", f"{base}.finite_T"] if classify else [base]
    return out


class Tracer:
    """Records spans while ``active``; bookkeeping belongs to one thread."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.points = 0             # energy points given to POINT_FAMILY
        self.active = False
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @property
    def full(self) -> bool:
        return len(self.start) >= MAX_SPANS

    def _nid(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._nid(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add_span(self, name: str, start: float, end: float,
                 parent: int = -1) -> int:
        """Record a finished span measured elsewhere (e.g. in a child)."""
        idx = len(self.start)
        self.name.append(self._nid(name))
        self.parent.append(parent)
        self.op.append(self.op_id)
        self.start.append(start)
        self.end.append(end)
        return idx

    def _wrap(self, fn, base: str, classify):
        tracer = self
        count_points = base == POINT_FAMILY

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name = f"{base}.{classify(args, kwargs)}" if classify else base
            if count_points:
                tracer.points += _n_points(args, kwargs)
            idx = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.finish(idx)

        return wrapper

    def install(self) -> None:
        """Wrap every target at every binding in the loaded package modules.
        Targets a module does not define (renamed or removed) are skipped."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE
                                         or n.startswith(PACKAGE + "."))]
        for mod_name, fn_name, classify in TARGETS:
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(original, f"{mod_name}.{fn_name}", classify)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    self._undo.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._undo):
            setattr(mod, fn_name, original)
        self._undo.clear()

    def to_json(self) -> dict:
        return {"names": self.names, "name": self.name.tolist(),
                "start": self.start.tolist(), "end": self.end.tolist(),
                "parent": self.parent.tolist(), "op": self.op.tolist(),
                "points": self.points}

    def merge_json(self, data: dict, parent: int = -1) -> None:
        """Append spans recorded in a child process under the current op;
        the child's top-level spans become children of ``parent``."""
        offset = len(self.start)
        for nid, s, e, p in zip(data["name"], data["start"], data["end"],
                                data["parent"]):
            self.add_span(data["names"][nid], s, e,
                          parent if p < 0 else p + offset)
        self.points += data["points"]


def wrapper_costs(loops: int = 2000, repeats: int = 5
                  ) -> dict[str, tuple[float, float]]:
    """Seconds one traced call adds, per family: ``(total, inside)``.

    ``inside`` is the part that falls between the span's own start and end
    stamps; the rest falls in the parent span.  Measured by calling each
    target's wrapper around a no-op, as the median over ``repeats`` blocks
    of ``loops`` calls, less the no-op's own cost."""
    def noop(*args, **kwargs):
        return None

    costs = {}
    for mod, fn, classify in TARGETS:
        base = f"{mod}.{fn}"
        probe = Tracer()
        wrapped = probe._wrap(noop, base, classify)
        probe.active = True
        totals, insides = [], []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(loops):
                noop()
            t1 = time.perf_counter()
            first = len(probe.start)
            for _ in range(loops):
                wrapped()
            t2 = time.perf_counter()
            plain = (t1 - t0) / loops
            recorded = sum(probe.end[i] - probe.start[i]
                           for i in range(first, len(probe.start)))
            totals.append((t2 - t1) / loops - plain)
            insides.append(recorded / loops - plain)
        cost = (statistics.median(totals), statistics.median(insides))
        for name in ([f"{base}.T0", f"{base}.finite_T"] if classify
                     else [base]):
            costs[name] = cost
    return costs


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    each clipped to the parent's interval."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [e - s for s, e in zip(start, end)]
    for i, kids in children.items():
        lo, hi = start[i], end[i]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(kids, key=lambda c: start[c]):
            a, b = max(start[c], lo), min(end[c], hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[i] -= covered
    return out


def span_times(tracer: Tracer, costs: dict[str, tuple[float, float]]
               ) -> tuple[list[float], list[float]]:
    """Busy and self time of every span with the tracer's own cost taken
    out.  A span's busy time loses its own ``inside`` cost and the whole
    cost of every span below it; its self time loses its own ``inside``
    cost and, per child, the part of the child's cost outside the child's
    span.  Spans not made by a wrapper (``cli.process``, ``cli.import``)
    cost nothing.  A parent is always recorded before its children."""
    n = len(tracer.start)
    total, inside = [0.0] * n, [0.0] * n
    for i, nid in enumerate(tracer.name):
        total[i], inside[i] = costs.get(tracer.names[nid], (0.0, 0.0))
    below, outside_kids = [0.0] * n, [0.0] * n
    for i in range(n - 1, -1, -1):
        p = tracer.parent[i]
        if p >= 0:
            below[p] += total[i] + below[i]
            outside_kids[p] += total[i] - inside[i]
    raw_self = self_times(tracer.start, tracer.end, tracer.parent)
    busy = [tracer.end[i] - tracer.start[i] - inside[i] - below[i]
            for i in range(n)]
    own = [raw_self[i] - inside[i] - outside_kids[i] for i in range(n)]
    return busy, own


def family_metrics(tracer: Tracer, n_ops: int,
                   costs: dict[str, tuple[float, float]]) -> dict[str, float]:
    """Per-operation calls, busy and self seconds for every family (tracer
    cost taken out), plus microseconds per energy point of POINT_FAMILY."""
    busy_t, self_t = span_times(tracer, costs)
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    for nid, b, st in zip(tracer.name, busy_t, self_t):
        name = tracer.names[nid]
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + b
        own[name] = own.get(name, 0.0) + st
    per_op = 1.0 / max(n_ops, 1)
    out = {}
    for fam in families():
        out[f"{fam}.calls"] = calls.get(fam, 0) * per_op
        out[f"{fam}.busy_s"] = busy.get(fam, 0.0) * per_op
        out[f"{fam}.self_s"] = own.get(fam, 0.0) * per_op
    out[f"{POINT_FAMILY}.us_per_point"] = (
        busy.get(POINT_FAMILY, 0.0) * 1e6 / tracer.points
        if tracer.points else 0.0)
    return out


def top_level_per_op(tracer: Tracer, costs: dict[str, tuple[float, float]]
                     ) -> dict[int, float]:
    """Per op, the busy time of its top-level spans (= the sum of all its
    self times), tracer cost taken out."""
    busy, _ = span_times(tracer, costs)
    out: dict[int, float] = {}
    for p, op, b in zip(tracer.parent, tracer.op, busy):
        if p < 0:
            out[op] = out.get(op, 0.0) + b
    return out
