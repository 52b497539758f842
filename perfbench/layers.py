"""Per-module metrics computed from recorded spans (stdlib only).

Two span sets feed every traced run: the workload's own loop, and a probe
(a few seeded requests of every other kind). Counts always come from the
loop, so 0 means the workload bypasses that function. A time whose function
or module the loop never called is taken from the probe instead, so every
time is measured on every workload.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

NAME, START, END, PARENT, REQUEST, ERROR = range(6)

CLI_COMMANDS = (
    "tetra", "fluct", "reconstruct", "amplitude", "sweep", "table1", "table2", "experiment",
)
# name -> unit, in the order BENCHMARK.json lists them
CLI_METRICS = {
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    **{f"cli.main_ms.{c}": "ms" for c in CLI_COMMANDS},
    "cli.main_ms.sweep_json": "ms",
    "cli.output_ms.sweep": "ms",
    "cli.output_ms.sweep_json": "ms",
    "cli.output_bytes.sweep_csv": "B",
    "cli.output_bytes.sweep_json": "B",
    "cli.output_mb_per_s": "MB/s",
}
MODULE_METRICS = {
    "spin_algebra.pauli_embedded.calls_per_request": "count",
    "spin_algebra.closure_defect.calls_per_request": "count",
    "spin_algebra.self_ms": "ms",
    "tetrahedron.bloch_state.us_p50": "us",
    "tetrahedron.bloch_state.calls_per_request": "count",
    "tetrahedron.InvariantTensor.us_p50": "us",
    "tetrahedron.dihedral_operator.calls_per_request": "count",
    "tetrahedron.self_ms": "ms",
    "amplitude.vertex_amplitude.us_p50": "us",
    "amplitude.vertex_amplitude.calls_per_request": "count",
    "amplitude.amplitude_sweep.ms": "ms",
    "amplitude.self_ms": "ms",
    "named_states.reference_comparison.ms_p50": "ms",
    "named_states.calibrate_reference_convention.ms_p50": "ms",
    "named_states.vertex_amplitude_calls_per_table": "count",
    "named_states.self_ms": "ms",
    "geometry.reconstruct.ms_p50": "ms",
    "geometry.reconstruct.ms_max": "ms",
    "geometry.least_squares.calls_per_reconstruct": "count",
    "geometry.infeasible.count": "count",
    "geometry.wrong_outcome.count": "count",
    "geometry.self_ms": "ms",
    "tomography.DensityMatrix.constructions_per_target": "count",
    "tomography.pauli_expectations.us_p50": "us",
    "tomography.rho_from_expectations.us_p50": "us",
    "tomography.ml_purify.us_p50": "us",
    "tomography.apply_noise.us_p50": "us",
    "tomography.self_ms": "ms",
}
TRACE_METRICS = {
    "trace.ops_per_s": "1/s",
    "trace.spans_per_request": "count",
    "trace.reference_chunk_ms": "ms",
}
PER_LAYER = {**CLI_METRICS, **MODULE_METRICS, **TRACE_METRICS}


def merge(span_lists, requests) -> list:
    """Concatenate per-process span lists, re-basing parents and request ids."""
    merged = []
    for spans, request in zip(span_lists, requests):
        base = len(merged)
        for s in spans:
            parent = s[PARENT] + base if s[PARENT] >= 0 else -1
            merged.append((s[NAME], s[START], s[END], parent, request, s[ERROR]))
    return merged


class SpanIndex:
    """Durations, self times and parent links of one span set, by name."""

    def __init__(self, spans, n_requests: int):
        self.spans = spans
        self.n_requests = max(n_requests, 1)
        child_ns = [0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child_ns[s[PARENT]] += s[END] - s[START]
        self.durations = defaultdict(list)
        self.module_self_ns = defaultdict(int)
        for i, s in enumerate(spans):
            duration = s[END] - s[START]
            self.durations[s[NAME]].append(duration)
            self.module_self_ns[s[NAME].split(".")[0]] += duration - child_ns[i]

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def per_request(self, name: str) -> float:
        return self.calls(name) / self.n_requests

    def p50(self, name: str, scale: float) -> float:
        return statistics.median(self.durations[name]) / scale

    def self_ms(self, module: str) -> float:
        return self.module_self_ns[module] / 1e6 / self.n_requests

    def children_of(self, parent_name: str, child_name: str) -> int:
        return sum(
            1
            for s in self.spans
            if s[NAME] == child_name and s[PARENT] >= 0
            and self.spans[s[PARENT]][NAME] == parent_name
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def module_metrics(loop_spans, n_loop, probe_spans, n_probe, wrong_outcomes: int) -> dict:
    loop = SpanIndex(loop_spans, n_loop)
    probe = SpanIndex(probe_spans, n_probe)

    def timed(name):
        return loop if loop.calls(name) else probe

    def module(mod):
        return loop if loop.module_self_ns.get(mod) else probe

    m = {}
    for name in ("spin_algebra.pauli_embedded", "spin_algebra.closure_defect",
                 "tetrahedron.bloch_state", "tetrahedron.dihedral_operator",
                 "amplitude.vertex_amplitude"):
        m[f"{name}.calls_per_request"] = loop.per_request(name)
    for name in ("tetrahedron.bloch_state", "tetrahedron.InvariantTensor",
                 "amplitude.vertex_amplitude", "tomography.pauli_expectations",
                 "tomography.rho_from_expectations", "tomography.ml_purify",
                 "tomography.apply_noise"):
        m[f"{name}.us_p50"] = timed(name).p50(name, 1e3)
    for name in ("named_states.reference_comparison",
                 "named_states.calibrate_reference_convention", "geometry.reconstruct"):
        m[f"{name}.ms_p50"] = timed(name).p50(name, 1e6)
    m["amplitude.amplitude_sweep.ms"] = timed("amplitude.amplitude_sweep").p50(
        "amplitude.amplitude_sweep", 1e6)
    reconstructs = timed("geometry.reconstruct").durations["geometry.reconstruct"]
    m["geometry.reconstruct.ms_max"] = max(reconstructs) / 1e6
    m["named_states.vertex_amplitude_calls_per_table"] = _ratio(
        loop.children_of("named_states.reference_comparison", "amplitude.vertex_amplitude"),
        loop.calls("named_states.reference_comparison"))
    m["geometry.least_squares.calls_per_reconstruct"] = _ratio(
        loop.calls("geometry.least_squares"), loop.calls("geometry.reconstruct"))
    m["geometry.infeasible.count"] = sum(
        1 for s in loop.spans
        if s[NAME] == "geometry.reconstruct" and s[ERROR] == "InfeasibleGeometryError")
    m["geometry.wrong_outcome.count"] = wrong_outcomes
    # ml_purify runs once per experiment target
    m["tomography.DensityMatrix.constructions_per_target"] = _ratio(
        loop.calls("tomography.DensityMatrix"), loop.calls("tomography.ml_purify"))
    for mod in ("spin_algebra", "tetrahedron", "amplitude", "named_states", "geometry",
                "tomography"):
        m[f"{mod}.self_ms"] = module(mod).self_ms(mod)
    return {name: m[name] for name in MODULE_METRICS}


def cli_metrics(children, interpreter_ms: float, import_ms: float) -> dict:
    """CLI metrics from traced child records (label, spans, output bytes)."""
    main_ms = defaultdict(list)
    output_ms = defaultdict(list)
    out_bytes = {}
    for child in children:
        index = SpanIndex(child["spans"], 1)
        main = index.durations["cli.main"][0] / 1e6
        main_ms[child["kind"]].append(main)
        if child["kind"] in ("sweep_csv", "sweep_json"):
            sweep = sum(index.durations["amplitude.amplitude_sweep"]) / 1e6
            output_ms[child["kind"]].append(main - sweep)
            out_bytes[child["kind"]] = child["bytes"]
    m = {"cli.interpreter_ms": interpreter_ms, "cli.import_ms": import_ms}
    for command in CLI_COMMANDS:
        label = "sweep_csv" if command == "sweep" else command
        m[f"cli.main_ms.{command}"] = statistics.median(main_ms[label])
    m["cli.main_ms.sweep_json"] = statistics.median(main_ms["sweep_json"])
    m["cli.output_ms.sweep"] = statistics.median(output_ms["sweep_csv"])
    m["cli.output_ms.sweep_json"] = statistics.median(output_ms["sweep_json"])
    m["cli.output_bytes.sweep_csv"] = out_bytes["sweep_csv"]
    m["cli.output_bytes.sweep_json"] = out_bytes["sweep_json"]
    total_mb = (out_bytes["sweep_csv"] + out_bytes["sweep_json"]) / 1e6
    total_s = (m["cli.output_ms.sweep"] + m["cli.output_ms.sweep_json"]) / 1e3
    m["cli.output_mb_per_s"] = total_mb / total_s
    return m
