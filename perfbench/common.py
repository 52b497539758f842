"""Shared, stdlib-only pieces of the benchmark: paths, inputs and statistics.

Both the runner (``run.py``, which never imports qtetra) and the in-process
worker (``worker.py``) import this module, so it stays free of third-party
imports.
"""

from __future__ import annotations

import math
import os
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

WORKLOADS = ("cli-session", "amplitude-queries", "reconstruct", "experiment")
IN_PROCESS = ("amplitude-queries", "reconstruct", "experiment")

# Every child gets single-threaded BLAS and the checkout's own sources.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_STARTS = 9  # fresh interpreters per run whose median is setup_s
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile

# Request verdicts: a known defect is a wrong answer that lowers ok_ratio but
# leaves the benchmark's `correct` flag set; any other failure clears it.
OK, KNOWN_DEFECT, FAIL = "ok", "known_defect", "fail"

# Pole band whose reconstruction is wrongly reported infeasible (known defect).
POLE_BAND = (1e-4, 1e-3)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = SRC
    return env


def sphere_point(rng) -> tuple[float, float]:
    """Uniform point on the Bloch sphere: theta in [0, pi], phi in [0, 2*pi)."""
    theta = math.acos(1.0 - 2.0 * rng.random())
    phi = 2.0 * math.pi * rng.random()
    return theta, phi


# Where an interior cosine reaches 1: cos12 at the pole, cos13 at
# (2*pi/3, 0) and cos14 at (2*pi/3, pi). Near them the solver spends up to
# its whole restart budget, so the reconstruct workload draws its uniform
# points outside caps of SINGULAR_CAP rad around them and instead sends one
# pole-band point and A0 in every run.
SINGULAR_POINTS = ((0.0, 0.0), (2 * math.pi / 3, 0.0), (2 * math.pi / 3, math.pi))
SINGULAR_CAP = 0.05


def regular_sphere_point(rng) -> tuple[float, float]:
    """Uniform point on the Bloch sphere outside the singular caps."""
    while True:
        theta, phi = sphere_point(rng)
        if all(
            math.cos(theta) * math.cos(t) + math.sin(theta) * math.sin(t) * math.cos(phi - p)
            < math.cos(SINGULAR_CAP)
            for t, p in SINGULAR_POINTS
        ):
            return theta, phi


def pole_point(rng) -> tuple[float, float]:
    """Log-uniform theta in the failing pole band, uniform phi."""
    lo, hi = POLE_BAND
    theta = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    return theta, 2.0 * math.pi * rng.random()


# ---------------------------------------------------------------- CLI inputs
# Every argument list here has a golden SHA-256 in goldens.json, so the seed
# only picks among them; regenerate the goldens with make_goldens.py.
CLI_VARIANTS = {
    "tetra": (
        ("tetra", "--theta", "0", "--phi", "0"),
        ("tetra", "--states", "C0,C1", "--convention", "normals"),
        ("tetra", "--states", "A0,B0,C0,D0,E0", "--format", "json"),
    ),
    "fluct": (
        ("fluct", "--states", "A0,B0"),
        ("fluct", "--theta", "1.2", "--phi", "0.5"),
        ("fluct", "--states", "A1,B1,C1,D1,E1", "--format", "json"),
    ),
    "reconstruct": (
        ("reconstruct", "--states", "D1", "--format", "json"),
        ("reconstruct", "--states", "C1"),
        ("reconstruct", "--states", "B0,D0", "--format", "json"),
    ),
    "amplitude": (
        ("amplitude", "--states", "A0"),
        ("amplitude", "--states", "C0,C1"),
        ("amplitude", "--theta", "0.7", "--phi", "2.0", "--format", "json"),
    ),
    "sweep": (
        ("sweep", "--grid-theta", "60", "--grid-phi", "120"),
        ("sweep", "--grid-theta", "30", "--grid-phi", "60", "--format", "json"),
        ("sweep", "--grid-theta", "45", "--grid-phi", "90"),
    ),
    "table1": (("table1",), ("table1", "--format", "json")),
    "table2": (("table2",), ("table2", "--format", "json")),
    "experiment": (
        ("experiment", "--seed", "42", "--format", "json"),
        ("experiment", "--seed", "7"),
        ("experiment", "--seed", "1", "--states", "A0,C1"),
    ),
}
LARGE_GRID = ("200", "400")
LARGE_SWEEPS = {
    "sweep_csv": ("sweep", "--grid-theta", LARGE_GRID[0], "--grid-phi", LARGE_GRID[1]),
    "sweep_json": (
        "sweep", "--grid-theta", LARGE_GRID[0], "--grid-phi", LARGE_GRID[1], "--format", "json",
    ),
}
MIN_CLI_CYCLES = 2  # 20 invocations, so the tail has ten samples beyond it


def cli_cycle(rng) -> list[tuple[str, tuple[str, ...]]]:
    """One cycle: every command once plus a large CSV and a large JSON sweep.

    Returns (label, argv) pairs in seeded order; the label is the command
    name, or ``sweep_csv``/``sweep_json`` for the two large sweeps.
    """
    cycle = [(name, rng.choice(variants)) for name, variants in CLI_VARIANTS.items()]
    cycle += list(LARGE_SWEEPS.items())
    rng.shuffle(cycle)
    return cycle


def golden_key(argv) -> str:
    return " ".join(argv)


def all_cli_argvs() -> list[tuple[str, ...]]:
    argvs = [v for variants in CLI_VARIANTS.values() for v in variants]
    return argvs + list(LARGE_SWEEPS.values())


# ---------------------------------------------------------------- statistics
def tail(values) -> tuple[float, float, int]:
    """(value, percentile, n) of the highest percentile with ten samples beyond."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples for a tail, got {n}")
    k = n - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n, n


def summarize(records, untimed=()) -> dict:
    """Loop statistics of request records (kind, latency, scaled, verdict, reason).

    Metrics use ``scaled``, the latency at the reference speed (speed.py);
    the raw figures are kept alongside. ``attempted`` and ``failed`` count
    the workload's timed requests. ``untimed`` records are probes sent after
    the loop: they count towards ``ok_ratio`` and ``correct`` and under
    ``probes``/``probes_failed``, not towards any latency, rate or the
    workload's ``attempted`` and ``failed``.
    """
    scaled = [r["scaled"] for r in records]
    raw = [r["latency"] for r in records]
    tail_value, tail_pct, n = tail(scaled)
    every = list(records) + list(untimed)
    failures = [r for r in every if r["verdict"] != OK]
    return {
        "attempted": len(records),
        "failed": sum(1 for r in records if r["verdict"] != OK),
        "probes": len(untimed),
        "probes_failed": sum(1 for r in untimed if r["verdict"] != OK),
        "ok_ratio": 1.0 - len(failures) / len(every),
        "correct": not any(r["verdict"] == FAIL for r in every),
        "known_defects": sum(1 for r in every if r["verdict"] == KNOWN_DEFECT),
        "failures": [f"{r['kind']}: {r['reason']}" for r in failures[:20]],
        "kinds": {k: sum(1 for r in every if r["kind"] == k)
                  for k in sorted({r["kind"] for r in every})},
        "ops_per_s": len(scaled) / sum(scaled),
        "latency_ms_p50": median(scaled) * 1e3,
        "latency_ms_tail": tail_value * 1e3,
        "tail_percentile": tail_pct,
        "samples": n,
        "raw_ops_per_s": len(raw) / sum(raw),
        "raw_latency_ms_p50": median(raw) * 1e3,
        "raw_latency_ms_tail": tail(raw)[0] * 1e3,
        "slowest_ms": [(r["kind"], r["scaled"] * 1e3)
                       for r in sorted(records, key=lambda r: -r["scaled"])[:5]],
        "untimed_ms": [(r["kind"], r["latency"] * 1e3) for r in untimed],
    }


def median(values) -> float:
    return statistics.median(values)


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)
