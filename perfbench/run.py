"""qtetra benchmark runner: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...     every workload, one table

Run from the root of a checkout; the package is imported from ``src``. The
runner never imports qtetra: the work runs in child interpreters with BLAS
pinned to one thread, so each child's peak RSS comes from ``os.wait4``. The
runner itself only runs the reference chunks of ``speed.py`` between them.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
prints the per-layer metrics. Each run also writes a record with its
environment under ``perfbench/out/runs`` (see ``compare.py``).
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import random
import subprocess
import sys
import threading
import time
from importlib import metadata

import common
import layers
import speed
import tracing
from common import log

os.environ.update(common.PINNED_ENV)  # the reference chunks run here too

WORKER = os.path.join(common.BENCH_DIR, "worker.py")
CLI_CHILD = os.path.join(common.BENCH_DIR, "cli_child.py")
GOLDENS = os.path.join(common.BENCH_DIR, "goldens.json")
TMP = os.path.join(common.OUT_DIR, "tmp")
CHILD_TIMEOUT_S = 170.0
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_ms.p50": "ms",
    "latency_ms.tail": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ------------------------------------------------------------------ children
def spawn(cmd, stdout=subprocess.DEVNULL):
    """Start a pinned child; returns (proc, started_at)."""
    log_path = os.path.join(TMP, "child-stderr.log")
    with open(log_path, "ab") as stderr:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, env=common.child_env(), cwd=common.ROOT,
                                stdout=stdout, stderr=stderr)
    return proc, started


def reap(proc) -> tuple[int, float]:
    """Wait for a child (killed after CHILD_TIMEOUT_S); returns (code, peak RSS MB)."""
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_child(cmd) -> tuple[int, float, float]:
    """(exit code, wall seconds, peak RSS MB) of one child run to completion."""
    proc, started = spawn(cmd)
    code, rss = reap(proc)
    return code, time.perf_counter() - started, rss


def setup_start(workload: str) -> dict:
    """Time from spawning a fresh interpreter until import and warm-up finish."""
    proc, started = spawn([sys.executable, WORKER, "--setup-only", "--workload", workload],
                          stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    ready = time.perf_counter() - started
    proc.stdout.close()
    code, _ = reap(proc)
    if code != 0 or line.strip() != b"ready":
        raise BenchError(f"set-up child for {workload} failed with exit code {code}")
    return {"start": started, "latency": ready}


def fresh_start_ms(code_line: str) -> float:
    """Median wall time of SETUP_STARTS fresh ``python -c`` runs, in ms."""
    times = []
    for _ in range(common.SETUP_STARTS):
        code, wall, _ = run_child([sys.executable, "-c", code_line])
        if code != 0:
            raise BenchError(f"python -c {code_line!r} failed with exit code {code}")
        times.append(wall * 1e3)
    return common.median(times)


def run_worker(workload, seed, seconds, trace) -> tuple[dict, float]:
    result_path = os.path.join(TMP, f"worker-{workload}.json")
    spans_path = os.path.join(common.OUT_DIR, "spans", f"{workload}-seed{seed}.jsonl")
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--result", result_path,
           "--spans", spans_path]
    code, _, rss = run_child(cmd)
    if code != 0:
        raise BenchError(f"{workload} worker failed with exit code {code}; see {TMP}")
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    os.remove(result_path)
    return result, rss


# ----------------------------------------------------------------------- CLI
def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as handle:
        return json.load(handle)


def cli_call(label, argv, index, traced, goldens) -> dict:
    """One ``qtetra`` invocation with ``--out`` to a file, checked by SHA-256."""
    out_path = os.path.join(TMP, f"cli-{index}.out")
    spans_path = os.path.join(TMP, f"cli-{index}.spans.json")
    if traced:
        cmd = [sys.executable, CLI_CHILD, spans_path, *argv, "--out", out_path]
    else:
        cmd = [sys.executable, "-m", "qtetra.cli", *argv, "--out", out_path]
    proc, started = spawn(cmd)
    code, rss = reap(proc)
    wall = time.perf_counter() - started
    record = {"kind": label, "argv": list(argv), "start": started, "latency": wall, "rss_mb": rss,
              "code": code, "bytes": 0, "verdict": common.OK, "reason": None}
    if code != 0:
        record.update(verdict=common.FAIL, reason=f"{' '.join(argv)}: exit code {code}")
    else:
        digest = hashlib.sha256()
        with open(out_path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                digest.update(block)
                record["bytes"] += len(block)
        if digest.hexdigest() != goldens.get(common.golden_key(argv)):
            record.update(verdict=common.FAIL,
                          reason=f"{' '.join(argv)}: output differs from its golden SHA-256")
    if os.path.exists(out_path):
        os.remove(out_path)
    if traced:
        with open(spans_path, encoding="utf-8") as handle:
            record["spans"] = [tuple(s) for s in json.load(handle)]
        os.remove(spans_path)
    return record


def cli_loop(rng, seconds, traced, goldens) -> tuple[list[dict], float]:
    """Whole cycles of sequential invocations until ``seconds`` of scaled time.

    Reference chunks run in this process between invocations, so every
    record gets its ``scaled`` latency (speed.py). Returns the records and
    the median reference chunk time in seconds.
    """
    gauge = speed.SpeedGauge()
    gauge.sample(speed.NEIGHBOURS)
    records, busy, cycles = [], 0.0, 0
    while cycles < common.MIN_CLI_CYCLES or busy < seconds:
        for label, argv in common.cli_cycle(rng):
            record = cli_call(label, argv, len(records), traced, goldens)
            gauge.sample()
            records.append(record)
            end = record["start"] + record["latency"]
            busy += record["latency"] * gauge.factor(record["start"], end)
        cycles += 1
    gauge.scale(records)
    return records, gauge.median_s()


# ---------------------------------------------------------------- workloads
def end_to_end(workload, seed, seconds) -> tuple[dict, dict]:
    gauge = speed.SpeedGauge()
    gauge.sample(speed.NEIGHBOURS)
    setup = []
    for _ in range(common.SETUP_STARTS):
        setup.append(setup_start(workload))
        gauge.sample(speed.NEIGHBOURS)
    gauge.scale(setup)
    if workload == "cli-session":
        records, _ = cli_loop(random.Random(seed), seconds, False, load_goldens())
        summary = common.summarize(records)
        rss = max(r["rss_mb"] for r in records)
    else:
        summary, rss = run_worker(workload, seed, seconds, 0)
    summary["setup_samples_s"] = [s["scaled"] for s in setup]
    summary["raw_setup_samples_s"] = [s["latency"] for s in setup]
    metrics = {
        "setup_s": common.median(summary["setup_samples_s"]),
        "ops_per_s": summary["ops_per_s"],
        "latency_ms.p50": summary["latency_ms_p50"],
        "latency_ms.tail": summary["latency_ms_tail"],
        "peak_rss_mb": rss,
        "ok_ratio": summary["ok_ratio"],
    }
    return metrics, summary


def per_layer(workload, seed, seconds) -> tuple[dict, dict]:
    goldens = load_goldens()
    interpreter_ms = fresh_start_ms("pass")
    import_ms = fresh_start_ms("import qtetra.cli") - interpreter_ms
    rng = random.Random(seed)
    if workload == "cli-session":
        children, chunk_s = cli_loop(rng, seconds, True, goldens)
        probe, _ = run_worker("probe", seed, seconds, 1)
        loop_spans = layers.merge([c["spans"] for c in children], range(len(children)))
        metrics = layers.module_metrics(loop_spans, len(children), probe["probe_spans"],
                                        probe["probe_requests"], 0)
        summary = common.summarize(children)
        metrics["trace.ops_per_s"] = summary["ops_per_s"]
        metrics["trace.spans_per_request"] = len(loop_spans) / len(children)
        metrics["trace.reference_chunk_ms"] = chunk_s * 1e3
        summary.update(probe_correct=probe["probe_correct"], probe_failures=probe["probe_failures"])
        cli_children = children
    else:
        summary, _ = run_worker(workload, seed, seconds, 1)
        metrics = summary.pop("metrics")
        # One traced CLI cycle as the probe of the cli.* metrics.
        cli_children = [cli_call(label, argv, i, True, goldens)
                        for i, (label, argv) in enumerate(common.cli_cycle(rng))]
        if any(c["verdict"] != common.OK for c in cli_children):
            summary["correct"] = False
    if not summary["probe_correct"]:
        summary["correct"] = False
        summary["failures"] += summary["probe_failures"]
    tracing.write_spans(
        os.path.join(common.OUT_DIR, "spans", f"{workload}-seed{seed}-cli.jsonl"),
        layers.merge([c["spans"] for c in cli_children], range(len(cli_children))))
    metrics.update(layers.cli_metrics(cli_children, interpreter_ms, import_ms))
    return {name: metrics[name] for name in layers.PER_LAYER}, summary


# -------------------------------------------------------------- environment
def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str | None:
    """HEAD of a git checkout, read from .git without running git; else None."""
    head_path = os.path.join(common.ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(common.ROOT, ".git", head[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return head
    except OSError:
        return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(common.SRC, "qtetra", "*.py"))):
        with open(path, "rb") as handle:
            digest.update(os.path.basename(path).encode() + b"\0" + handle.read())
    return digest.hexdigest()


def environment(seed) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "blas_threads": common.PINNED_ENV,
    }


def check_checkout() -> None:
    if not os.path.isfile(os.path.join(common.SRC, "qtetra", "__init__.py")):
        raise BenchError(f"no qtetra sources under {common.SRC}; run from a full checkout")
    if not os.path.isfile(GOLDENS):
        raise BenchError(f"missing {GOLDENS}")
    try:
        with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
    for key, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", layers.PER_LAYER)):
        if {m["name"]: m["unit"] for m in spec[key]} != units:
            raise BenchError(f"BENCHMARK.json {key} does not match the metrics this runner emits")


# --------------------------------------------------------------------- main
def run_one(workload, seed, seconds, trace, record_dir) -> dict:
    started = time.time()
    if trace:
        values, summary = per_layer(workload, seed, seconds)
        units = layers.PER_LAYER
    else:
        values, summary = end_to_end(workload, seed, seconds)
        units = END_TO_END_UNITS
    record = {
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "environment": environment(seed),
        "summary": summary,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "wall_s": time.time() - started,
    }
    os.makedirs(record_dir, exist_ok=True)
    path = os.path.join(record_dir, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print_summary(record)
    return record


def print_summary(record) -> None:
    s = record["summary"]
    print(f"# {record['workload']} seed={record['environment']['seed']} trace={record['trace']}"
          f" attempted={s['attempted']} failed={s['failed']} probes={s['probes']}"
          f" probes_failed={s['probes_failed']} known_defects={s['known_defects']}"
          f" fail_ratio={1.0 - s['ok_ratio']:.6g} correct={s['correct']}"
          f" tail=p{s['tail_percentile']:.2f} of n={s['samples']} wall={record['wall_s']:.1f}s")
    for reason in s["failures"]:
        print(f"#   failure: {reason}")
    for name, metric in record["metrics"].items():
        print(f"  {name:<52} {metric['value']:>16.6g} {metric['unit']}")


def result_line(record) -> dict:
    s = record["summary"]
    return {"correct": s["correct"], "attempted": s["attempted"], "failed": s["failed"],
            "metrics": record["metrics"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-dir", default=os.path.join(common.OUT_DIR, "runs"),
                        help="where the per-run records go (default perfbench/out/runs)")
    args = parser.parse_args(argv)
    try:
        check_checkout()
        os.makedirs(TMP, exist_ok=True)
        workloads = common.WORKLOADS if args.workload == "all" else (args.workload,)
        records = [run_one(w, args.seed, args.seconds, args.trace, args.record_dir)
                   for w in workloads]
    except BenchError as exc:
        log(f"error: {exc}")
        return 2
    if args.workload == "all":
        print(json.dumps({r["workload"]: result_line(r) for r in records}))
    else:
        print(json.dumps(result_line(records[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
