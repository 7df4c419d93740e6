"""Outside-in layer tracing of the avgfusion package.

The program is not edited. Instead each traced public function is replaced,
for the duration of one CLI invocation, by a wrapper in every package module
that binds the same function object under the same name. Callers resolve
names in their own module (``sweep.py`` and ``averaging.py`` use
``from .x import y``), so patching only the defining module would miss them.

Each call becomes a span ``(trace_id, span_id, parent_id, name, start, end,
self_s)``; a span's self time is its duration minus the durations of its
direct children. Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import gzip
import json
import os
import statistics
import sys
import time
from collections import Counter

#: Traced layers as (module, function), named ``<module>.<function>``.
LAYERS = (
    ("fock", "apply_transfer"),
    ("averaging", "build_averaged_network"),
    ("averaging", "run_averaged"),
    ("averaging", "postselect_vacuum_ancilla"),
    ("detection", "fusion_outcomes"),
    ("interferometers", "fusion_gate"),
    ("interferometers", "bsm_matrix"),
    ("interferometers", "effective_average"),
    ("metrics", "fidelity"),
    ("metrics", "normalized_fidelity"),
    ("metrics", "trace_distance"),
    ("closed_form", "bsm_fidelity_closed"),
    ("closed_form", "bsm_psuccess_closed"),
    ("closed_form", "bsm_fnorm_closed"),
    ("sweep", "trial_rng"),
    ("sweep", "sample_reflectivity"),
    ("sweep", "run_sweep"),
    ("sweep", "write_csv"),
    ("svgplot", "write_svg"),
    ("cli", "main"),
    ("verify", "check_averaging_equivalence"),
    ("verify", "check_closed_form"),
    ("verify", "check_fusion_table"),
    ("verify", "check_bsm_maps"),
    ("verify", "check_table2"),
    ("verify", "check_perfect_sweep"),
)

SPAN_STATS = (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))

#: Exact counters recorded at layer boundaries, with their units.
COUNTERS = (
    ("fock.apply_transfer.kets_out", "count"),
    ("averaging.postselect_vacuum_ancilla.kets_in", "count"),
    ("averaging.postselect_vacuum_ancilla.kept_ket_frac", "ratio"),
    ("metrics.normalized_fidelity.clamps", "count"),
    ("sweep.write_csv.bytes", "B"),
)

OVERHEAD_METRIC = ("trace.overhead_pct", "%")


def layer_name(module: str, function: str) -> str:
    return f"{module}.{function}"


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, mapped to its unit."""
    units = {
        f"{layer_name(mod, fn)}.{stat}": unit for mod, fn in LAYERS for stat, unit in SPAN_STATS
    }
    units.update(COUNTERS)
    units[OVERHEAD_METRIC[0]] = OVERHEAD_METRIC[1]
    return units


def _count_kets_out(counters, args, result):
    counters["fock.apply_transfer.kets_out"] += len(result)


def _count_postselect(counters, args, result):
    counters["averaging.postselect_vacuum_ancilla.kets_in"] += len(args[0])
    counters["averaging.postselect_vacuum_ancilla.kept"] += len(result)


def _count_csv_bytes(counters, args, result):
    counters["sweep.write_csv.bytes"] += os.path.getsize(args[1])


_COUNT_HOOKS = {
    "fock.apply_transfer": _count_kets_out,
    "averaging.postselect_vacuum_ancilla": _count_postselect,
    "sweep.write_csv": _count_csv_bytes,
}


class Tracer:
    """Spans and counters of one traced CLI invocation (one trace id)."""

    def __init__(self, trace_id: int):
        self.trace_id = trace_id
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # [span_id, start, child_s] per open span
        self._next_id = 0
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        hook = _COUNT_HOOKS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            parent = self._stack[-1][0] if self._stack else 0
            frame = [span_id, clock(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                duration = end - frame[1]
                if self._stack:
                    self._stack[-1][2] += duration
                self.spans.append(
                    (self.trace_id, span_id, parent, name, frame[1], end, duration - frame[2])
                )
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return traced

    def install(self, package: str = "avgfusion") -> None:
        """Patch every binding of each traced function inside ``package``."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        for mod_name, fn_name in LAYERS:
            home = sys.modules.get(f"{package}.{mod_name}")
            original = getattr(home, fn_name, None) if home is not None else None
            if original is None:
                continue  # layer absent from this version of the package
            wrapper = self._wrap(layer_name(mod_name, fn_name), original)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    self._patches.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)

    def uninstall(self) -> None:
        for mod, fn_name, original in reversed(self._patches):
            setattr(mod, fn_name, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def totals(self, clamps: int) -> dict[str, float]:
        """Per-layer calls, busy and self seconds, and counters of this trace."""
        out = {f"{layer_name(mod, fn)}.{stat}": 0 for mod, fn in LAYERS for stat, _ in SPAN_STATS}
        for span in self.spans:
            name, start, end, self_s = span[3], span[4], span[5], span[6]
            out[f"{name}.calls"] += 1
            out[f"{name}.busy_s"] += end - start
            out[f"{name}.self_s"] += self_s
        for key, _ in COUNTERS:
            out[key] = self.counters.get(key, 0)
        kets_in = self.counters.get("averaging.postselect_vacuum_ancilla.kets_in", 0)
        kept = self.counters.get("averaging.postselect_vacuum_ancilla.kept", 0)
        out["averaging.postselect_vacuum_ancilla.kept_ket_frac"] = kept / kets_in if kets_in else 0.0
        out["metrics.normalized_fidelity.clamps"] = clamps
        return out


def summarize(per_trace: list[dict[str, float]], traced_walls, untraced_walls) -> tuple[dict, list[str]]:
    """Median of each per-layer value over the traced invocations.

    Counts must repeat exactly from one invocation to the next; any that do
    not are returned as notes.
    """
    notes = []
    summary = {}
    for key, unit in metric_units().items():
        if key == OVERHEAD_METRIC[0]:
            continue
        values = [t[key] for t in per_trace]
        if unit == "s":
            summary[key] = statistics.median(values)
            continue
        if len(set(values)) > 1:
            notes.append(f"{key} varies between traced invocations: {sorted(set(values))}")
        summary[key] = statistics.median_low(values)
    overhead = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    summary[OVERHEAD_METRIC[0]] = 100.0 * overhead
    return summary, notes


def write_spans(path, tracers) -> None:
    """Write every recorded span as one JSON object per line, gzip-compressed."""
    fields = ("trace_id", "span_id", "parent_id", "name", "start", "end", "self_s")
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
        for tracer in tracers:
            for span in tracer.spans:
                f.write(json.dumps(dict(zip(fields, span))) + "\n")
