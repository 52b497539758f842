"""In-process workloads: seeded requests in a closed loop with one client.

Run by ``run.py`` in a fresh interpreter with single-threaded BLAS. Modes:

    worker.py --setup-only --workload W      import + warm-up, print "ready"
    worker.py --workload W --seed N --seconds S --trace T --result PATH

The loop runs whole request cycles until the summed request time, scaled to
the reference speed (speed.py), reaches ``--seconds``. Only the calls into
qtetra are timed; input generation and the correctness oracles run outside
the timed region. With ``--trace 1`` the loop is traced and a traced probe of
every request kind follows.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
import time

import common
import speed
from common import FAIL, KNOWN_DEFECT, OK

# basis_amplitude_table(cyclic_k5()) as [re, im] pairs in np.ndindex order,
# stored by make_goldens.py so the amplitude oracle does not rebuild it with
# the contraction under test.
AMPLITUDE_TABLE = os.path.join(common.BENCH_DIR, "amplitude_table.json")

SQRT3 = math.sqrt(3.0)
AREA = math.sqrt(0.75)
NAMED_FEASIBLE = ("B0", "C0", "D0", "E0", "A1", "B1", "C1", "D1", "E1")


# ------------------------------------------------------------------ requests
def request_cycles(workload: str, rng):
    """Endless cycles of (kind, payload) requests for one workload."""
    named = 0
    while True:
        if workload == "amplitude-queries":
            amps = [("amp", [common.sphere_point(rng) for _ in range(5)]) for _ in range(18)]
            yield amps[:9] + [("ref", None)] + amps[9:] + [("calib", None)]
        elif workload == "reconstruct":
            cycle = [("recon", common.regular_sphere_point(rng)) for _ in range(9)]
            cycle.append(("recon", NAMED_FEASIBLE[named % len(NAMED_FEASIBLE)]))
            named += 1
            yield cycle
        elif workload == "experiment":
            cycle = [("exp", (common.sphere_point(rng), rng.randrange(2**31))) for _ in range(19)]
            yield cycle + [("exp_named", rng.randrange(2**31))]
        else:
            raise ValueError(f"unknown in-process workload {workload!r}")


def slow_tail(workload: str, rng, traced: bool) -> list:
    """Untimed requests sent once per run after the timed cycles.

    reconstruct ends with one pole-band point (wrongly reported infeasible),
    and traced runs also with A0 (correctly infeasible). Each costs the
    solver its full restart budget (~20 s), so a run carries a fixed number
    of them rather than a random number of draws near a singular point
    (common.SINGULAR_POINTS), and A0 is left to the traced run to keep the
    untraced run short. They are probes, not operations of the workload:
    they count towards ``ok_ratio`` and ``correct`` but not towards
    ``attempted``, ``failed``, any latency or rate, which would otherwise be
    mostly these calls.
    """
    if workload == "reconstruct":
        return ([("recon", "A0")] if traced else []) + [("recon", common.pole_point(rng))]
    return []


def probe_requests(rng) -> list:
    """A few seeded requests of every in-process kind plus one large sweep."""
    requests = []
    for workload in common.IN_PROCESS:
        cycles = request_cycles(workload, rng)
        batch = []
        while len(batch) < 20:
            batch += next(cycles)
        requests += batch[:20]
    return requests + [("sweep", None)]


class Calls:
    """The timed calls into qtetra, looked up on the modules at call time."""

    def __init__(self):
        import numpy as np

        import qtetra.amplitude
        import qtetra.geometry
        import qtetra.named_states
        import qtetra.tetrahedron
        import qtetra.tomography

        self.amplitude = qtetra.amplitude
        self.geometry = qtetra.geometry
        self.named = qtetra.named_states
        self.tetra = qtetra.tetrahedron
        self.tomo = qtetra.tomography
        self.graph = qtetra.amplitude.cyclic_k5()
        grid_theta, grid_phi = (int(v) for v in common.LARGE_GRID)
        self.sweep_thetas = np.linspace(0.0, math.pi, grid_theta)
        self.sweep_phis = np.linspace(0.0, 2 * math.pi, grid_phi, endpoint=False)

    def point(self, payload):
        return self.named.NAMED_POINTS[payload] if isinstance(payload, str) else payload

    def run(self, kind: str, payload):
        if kind == "amp":
            states = [self.tetra.bloch_state(p) for p in payload]
            return self.amplitude.vertex_amplitude(states, self.graph).value
        if kind == "ref":
            return self.named.reference_comparison()
        if kind == "calib":
            return self.named.calibrate_reference_convention()
        if kind == "recon":
            return self.geometry.expectations_to_geometry(self.point(payload))
        if kind == "exp":
            (theta, phi), noise_seed = payload
            return self.tomo.simulate_experiment(
                targets={"T": self.tetra.BlochPoint(theta, phi)},
                noise=self.tomo.NoiseSpec(seed=noise_seed),
            )
        if kind == "exp_named":
            return self.tomo.simulate_experiment(noise=self.tomo.NoiseSpec(seed=payload))
        if kind == "sweep":
            regular = self.named.regular_state("C1")
            return self.amplitude.amplitude_sweep(
                [regular] * 4, self.sweep_thetas, self.sweep_phis, self.graph)
        raise ValueError(f"unknown request kind {kind!r}")


def warm_up(workload: str, calls: Calls) -> None:
    """First calls of every request kind the workload sends, untimed."""
    if workload in ("amplitude-queries", "probe"):
        calls.run("amp", [(0.3, 1.0)] * 5)
        calls.run("ref", None)
        calls.run("calib", None)
    if workload in ("reconstruct", "probe"):
        calls.run("recon", "D1")
    if workload in ("experiment", "probe"):
        calls.run("exp", ((0.3, 1.0), 1))
        calls.run("exp_named", 1)
    if workload == "probe":
        calls.run("sweep", None)


# ------------------------------------------------------------------- oracles
def closed_form_cosines(theta: float, phi: float) -> tuple[float, float, float]:
    """Interior dihedral expectations (cos12, cos13, cos14) at a Bloch point."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    cross = (2 * SQRT3 / 3) * c * s * math.cos(phi)
    return c * c - s * s / 3, (2 / 3) * s * s + cross, (2 / 3) * s * s - cross


def closed_form_delta(theta: float, phi: float) -> float:
    c2, s2 = math.cos(theta / 2) ** 2, math.sin(theta / 2) ** 2
    return 2 / 3 + (8 / 3) * c2 * s2 * (1 - math.cos(phi) ** 2)


def _sub(p, q):
    return [p[i] - q[i] for i in range(3)]


def _cross(p, q):
    return [p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0]]


def _dot(p, q):
    return sum(p[i] * q[i] for i in range(3))


def faces_from_vertices(vertices):
    """Areas and outward unit normals of faces ABC, ACD, ABD, BCD."""
    areas, normals = [], []
    for i, j, k, opp in ((0, 1, 2, 3), (0, 2, 3, 1), (0, 1, 3, 2), (1, 2, 3, 0)):
        p = [vertices[x] for x in (i, j, k)]
        vec = [0.5 * v for v in _cross(_sub(p[1], p[0]), _sub(p[2], p[0]))]
        centroid = [(p[0][a] + p[1][a] + p[2][a]) / 3 for a in range(3)]
        if _dot(vec, _sub(centroid, vertices[opp])) < 0:
            vec = [-v for v in vec]
        area = math.sqrt(_dot(vec, vec))
        areas.append(area)
        normals.append([v / area for v in vec])
    return areas, normals


class Oracle:
    """Independent checks of every output; never inside a timed region."""

    def __init__(self, calls: Calls):
        import numpy as np

        self.calls = calls
        with open(AMPLITUDE_TABLE, encoding="utf-8") as handle:
            entries = json.load(handle)
        self.table = np.array([complex(re, im) for re, im in entries]).reshape((2,) * 5)

    @staticmethod
    def pair(point) -> tuple[complex, complex]:
        theta, phi = point
        return complex(math.cos(theta / 2)), complex(
            math.cos(phi) * math.sin(theta / 2), math.sin(phi) * math.sin(theta / 2))

    def table_amplitude(self, points) -> complex:
        return self.calls.amplitude.amplitude_from_table(
            self.table, [self.pair(p) for p in points])

    def check_comparison(self, comparison) -> str | None:
        regular = self.calls.named.NAMED_POINTS["C1"]
        for name, point in self.calls.named.NAMED_POINTS.items():
            expected = self.table_amplitude([(regular.theta, regular.phi)] * 4
                                            + [(point.theta, point.phi)])
            if abs(comparison.computed[name] - expected) > 1e-12:
                return f"named amplitude {name} off the basis table"
        if comparison.max_consistent_error() >= 1e-3:
            return "nine-entry reference fit above 1e-3"
        if abs(comparison.inconsistency_factor - math.sqrt(2)) > 1e-3:
            return "C1 inconsistency factor is not sqrt(2)"
        return None

    def check(self, kind: str, payload, value, error) -> tuple[str, str | None]:
        """(verdict, reason) for one request."""
        if kind == "recon":
            return self.check_reconstruct(payload, value, error)
        if error is not None:
            return FAIL, f"{type(error).__name__}: {error}"
        if kind == "amp":
            if abs(value - self.table_amplitude(payload)) > 1e-12:
                return FAIL, "amplitude off the basis table"
            return OK, None
        if kind == "ref":
            reason = self.check_comparison(value)
        elif kind == "calib":
            if (value.rule, value.regular) != ("cyclic", "C1"):
                return FAIL, f"calibration chose {value.rule}/{value.regular}"
            reason = self.check_comparison(value.comparison)
        elif kind == "exp":
            (theta, phi), _ = payload
            reason = self.check_target(value.targets[0], theta, phi)
        elif kind == "exp_named":
            named = self.calls.named.NAMED_POINTS
            reasons = [self.check_target(t, named[t.name].theta, named[t.name].phi)
                       for t in value.targets]
            reason = next((r for r in reasons if r), None)
        elif kind == "sweep":
            reason = self.check_sweep(value)
        return (FAIL, reason) if reason else (OK, None)

    def check_reconstruct(self, payload, value, error):
        point = self.calls.point(payload)
        theta, phi = (point.theta, point.phi) if not isinstance(point, tuple) else point
        cosines = closed_form_cosines(theta, phi)
        feasible = max(cosines) < 1 - 1e-12
        if isinstance(error, self.calls.geometry.InfeasibleGeometryError):
            if not feasible:
                return OK, None
            reason = f"infeasible reported at theta={theta:.3e}, phi={phi:.3f}"
            # Known solver defect, kept only in the pole band: a tetrahedron
            # exists there but every restart fails.
            return (KNOWN_DEFECT if theta <= common.POLE_BAND[1] else FAIL), reason
        if error is not None:
            return FAIL, f"{type(error).__name__}: {error}"
        if not feasible:
            return FAIL, "reconstruction returned for infeasible cosines"
        vertices = [list(map(float, v)) for v in (value.A, value.B, value.C, value.D)]
        areas, normals = faces_from_vertices(vertices)
        if max(abs(a - AREA) for a in areas) > 1e-8:
            return FAIL, "rebuilt face areas off sqrt(3/4)"
        c12, c13 = -_dot(normals[0], normals[1]), -_dot(normals[0], normals[2])
        if abs(c12 - cosines[0]) > 1e-8 or abs(c13 - cosines[1]) > 1e-8:
            return FAIL, "rebuilt interior cosines off the targets"
        return OK, None

    @staticmethod
    def check_target(target, theta: float, phi: float) -> str | None:
        """The README's guarantee at default noise, for one experiment target."""
        if not target.fidelity > 0.95:
            return f"{target.name}: fidelity {target.fidelity:.4f} <= 0.95"
        delta = closed_form_delta(theta, phi)
        if abs(target.delta_theory - delta) > 1e-12:
            return f"{target.name}: delta_theory off the closed form"
        error = abs(target.delta_measured - delta)
        if not error < 0.05:
            return f"{target.name}: |delta_measured - delta_theory| = {error:.4f}"
        return None

    def check_sweep(self, grid) -> str | None:
        regular = self.calls.named.NAMED_POINTS["C1"]
        thetas, phis = self.calls.sweep_thetas, self.calls.sweep_phis
        for i, j in ((0, 0), (len(thetas) // 3, len(phis) // 2), (len(thetas) - 1, len(phis) - 1)):
            point = (float(thetas[i]), float(phis[j]))
            expected = self.table_amplitude([(regular.theta, regular.phi)] * 4 + [point])
            if abs(grid[i, j] - expected) > 1e-12:
                return f"sweep cell ({i}, {j}) off the basis table"
        return None


# ---------------------------------------------------------------------- loop
def run_requests(requests, calls, oracle, tracer, first_id=0) -> list[dict]:
    """Time each request alone, then check it; returns one record per request."""
    clock = time.perf_counter
    records = []
    for offset, (kind, payload) in enumerate(requests):
        request_id = first_id + offset
        value = error = None
        with tracer.request_span(request_id, kind):
            start = clock()
            try:
                value = calls.run(kind, payload)
            except Exception as exc:  # every failure is a counted outcome
                error = exc
            latency = clock() - start
        # The oracle calls qtetra too; keep those calls out of the spans.
        was_enabled, tracer.enabled = tracer.enabled, False
        verdict, reason = oracle.check(kind, payload, value, error)
        tracer.enabled = was_enabled
        records.append({"id": request_id, "kind": kind, "start": start, "latency": latency,
                        "verdict": verdict, "reason": reason})
    return records


def closed_loop(workload, rng, seconds, calls, oracle, tracer, gauge, traced=False):
    """Whole cycles until the scaled work reaches ``seconds``, then the slow tail.

    Reference chunks run before the first cycle, after every cycle and after
    every request longer than ``speed.SLOW_S``, so a slow request has
    chunks close to it; every record gets its ``scaled`` latency from them.
    Returns (timed records, untimed slow-tail records).
    """
    records, slow, busy = [], [], 0.0
    cycles = request_cycles(workload, rng)
    gauge.sample(speed.NEIGHBOURS)
    while busy < seconds:
        cycle = next(cycles)
        done = []
        for request in cycle:
            done += run_requests([request], calls, oracle, tracer,
                                 first_id=len(records) + len(done))
            if done[-1]["latency"] > speed.SLOW_S:
                gauge.sample()
        gauge.sample()
        records += done
        # Scaled time, so the mix of cycles and slow tail is the same at any speed.
        end = done[-1]["start"] + done[-1]["latency"]
        busy += sum(r["latency"] for r in done) * gauge.factor(done[0]["start"], end)
    for request in slow_tail(workload, rng, traced):
        slow += run_requests([request], calls, oracle, tracer, first_id=len(records) + len(slow))
    gauge.scale(records)
    return records, slow


def traced_run(workload, seed, seconds, calls, oracle, tracer, gauge, spans_path) -> dict:
    """Traced loop (slow tail included), then a traced probe."""
    import layers
    import tracing

    rng = random.Random(seed)
    if workload == "probe":
        loop_records, slow_records, loop_spans = [], [], []
    else:
        tracer.enabled = True
        loop_records, slow_records = closed_loop(workload, rng, seconds, calls, oracle, tracer,
                                                 gauge, traced=True)
        tracer.enabled = False
        loop_spans = list(tracer.spans)
        tracer.spans.clear()

    probe = probe_requests(random.Random(seed + 1))
    tracer.enabled = True
    probe_records = run_requests(probe, calls, oracle, tracer,
                                 first_id=len(loop_records) + len(slow_records))
    tracer.enabled = False
    probe_spans = list(tracer.spans)
    tracer.spans.clear()
    tracing.write_spans(spans_path, loop_spans + probe_spans)

    result = {
        "probe_correct": not any(r["verdict"] == FAIL for r in probe_records),
        "probe_failures": [r["reason"] for r in probe_records if r["verdict"] == FAIL],
        "probe_spans": probe_spans,
        "probe_requests": len(probe),
    }
    if workload == "probe":
        return result

    n_loop = len(loop_records) + len(slow_records)
    wrong = sum(1 for r in loop_records + slow_records
                if r["kind"] == "recon" and r["verdict"] != OK)
    metrics = layers.module_metrics(loop_spans, n_loop, probe_spans, len(probe), wrong)
    result.update(common.summarize(loop_records, slow_records))
    metrics["trace.ops_per_s"] = result["ops_per_s"]
    metrics["trace.reference_chunk_ms"] = gauge.median_s() * 1e3
    metrics["trace.spans_per_request"] = len(loop_spans) / n_loop
    result["metrics"] = metrics
    del result["probe_spans"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=common.IN_PROCESS + ("probe", "cli-session"))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", help="path of the JSON result file")
    parser.add_argument("--spans", help="path of the JSONL span file (traced runs)")
    args = parser.parse_args(argv)

    if args.setup_only:
        if args.workload == "cli-session":
            import qtetra.cli

            qtetra.cli.build_parser()
        else:
            warm_up(args.workload, Calls())
        print("ready", flush=True)
        return 0

    import tracing

    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer)
    calls = Calls()
    warm_up(args.workload, calls)
    oracle = Oracle(calls)
    gauge = speed.SpeedGauge()
    if args.trace:
        result = traced_run(args.workload, args.seed, args.seconds, calls, oracle, tracer,
                            gauge, args.spans)
    else:
        records, slow = closed_loop(args.workload, random.Random(args.seed), args.seconds,
                                    calls, oracle, tracer, gauge)
        result = common.summarize(records, slow)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
