#!/usr/bin/env python3
"""Benchmark harness for subnyq.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all      # every workload, one table
    python3 bench/run.py --smoke             # tiny self-check of the harness

One client runs ops in a closed loop: each op starts after the previous one
and its oracle finish.  Only the op is timed.  With --trace 0 the last stdout
line carries the end-to-end metrics named in BENCHMARK.json; with --trace 1
half the ops run under the span wrappers of tracing.py and the line carries
the per-layer metrics.  The line before it is the full record:
provenance, input sizes, every computed metric and each failed op with its
seed.  Records and spans are also written under .bench_out/.

The package is imported from src/ of the checkout this file sits in; without
it the harness exits non-zero before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 7  # setup_s and peak_rss_mb: medians over this many fresh processes
MIN_OPS = 11  # the tail percentile needs at least 10 ops beyond it
MEM_PASS_SECONDS, MEM_PASS_MAX_OPS = 1.0, 9
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# The load is one thread: pd_sweep runs its trials serially unless
# SUBNYQ_THREADS asks for more, and BLAS runs single-threaded.  With the
# default two BLAS threads on a 2-CPU box, one pattern_design loop spread
# over 0.20-0.34 s per op; with one thread no loop spread over more than 0.05 s.
SUBNYQ_THREADS_GIVEN = os.environ.pop("SUBNYQ_THREADS", None)
BLAS_GIVEN = {v: os.environ.get(v) for v in BLAS_VARS}
os.environ.update({v: "1" for v in BLAS_VARS})

src = ROOT / "src"
if not (src / "subnyq" / "__init__.py").is_file():
    sys.exit(f"bench/run.py: no subnyq package under {src}")
sys.path.insert(0, str(src))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def provenance() -> dict:
    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
            status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30)
            dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "blas_env_given": BLAS_GIVEN,
        "SUBNYQ_THREADS": "unset (1 thread)",
        "SUBNYQ_THREADS_ignored": SUBNYQ_THREADS_GIVEN,
    }


def latency_stats(lat: list[float]) -> dict:
    """Median, and the highest percentile with at least 10 ops beyond it."""
    s = sorted(lat)
    n = len(s)
    if n > 10:
        tail, pct = s[n - 11], 100.0 * (n - 10) / n
    else:  # too few ops for the rule: report the maximum, with 0 ops beyond
        tail, pct = s[-1], 100.0
    return {"p50_s": statistics.median(s), "tail_s": tail, "tail_percentile": pct, "ops": n}


def measure_setup(name: str, seed: int, smoke: bool) -> tuple[list[float], list[float]]:
    """Fresh processes that set up and run one op: for each, the seconds from
    spawn until its first timed op could start, and its peak RSS in MB."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"] + (["--smoke"] if smoke else [])
    times, rss = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.wait(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        word, _, kb = line.partition(" ")
        if word != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode}): {line!r}")
        times.append(elapsed)
        rss.append(int(kb) * 1024 / 1e6)
    return times, rss


def setup_probe(name: str, seed: int, smoke: bool) -> None:
    """Child side of measure_setup: inputs, one warm-up op, then signal."""
    wl = workloads.WORKLOADS[name](smoke)
    wl.op(wl.make_input(seed, 0))
    print("ready", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, flush=True)


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
                 min_ops: int = MIN_OPS, corrupt_ops: frozenset = frozenset()) -> dict:
    """Warm up, run the closed loop, check every output, and compute metrics.

    corrupt_ops names ops whose output is corrupted before it is checked; the
    smoke test uses it to prove that a wrong output is counted as a failure.
    """
    wl = workloads.WORKLOADS[name](smoke)
    tracer = tracing.Tracer() if trace else None
    failures: list[dict] = []
    quality: list[float] = []
    outputs: list = []  # kept only for the workload's run-level check

    def judge(i: int, inp, out) -> int:
        """Record the oracle's verdict on op i; return the op's work items."""
        if i in corrupt_ops:
            out = wl.corrupt(out)
        try:
            verdict = wl.check(inp, out)
            n_items = wl.items(out)
        except Exception:  # a malformed output fails its op, it does not stop the run
            failures.append({"op": i, "seed": seed, "reason": traceback.format_exc()})
            return 0
        if verdict.quality is not None:
            quality.append(verdict.quality)
        if verdict.reason is not None:
            failures.append({"op": i, "seed": seed, "reason": verdict.reason})
        if wl.run_check is not None:
            outputs.append(out)
        return n_items

    if tracer is None:  # before the warm-up, so no large heap of ours is live
        setup, rss = measure_setup(name, seed, smoke)
    inp0 = wl.make_input(seed, 0)
    out0 = None
    try:
        out0 = wl.op(inp0)  # warm-up: caches fill before timing
        judge(0, inp0, out0)
    except Exception:
        failures.append({"op": 0, "seed": seed, "reason": traceback.format_exc()})
    attempted = 1

    lat, traced_lat, untraced_lat, gen_s = [], [], [], []
    items = 0
    t_end = time.perf_counter() + seconds
    i = 1
    # run for `seconds`, and on until min_ops have completed (within a cap)
    while time.perf_counter() < t_end or (len(lat) < min_ops and attempted < 10 * min_ops):
        t0 = time.perf_counter()
        inp = wl.make_input(seed, i)
        gen_s.append(time.perf_counter() - t0)
        # Ops 1, 4, 5, 8, 9, ... are traced.  Consecutive sense ops alternate in
        # cost (about 60 ms, traced or not), so plain odd/even alternation
        # would book that difference as tracing overhead.
        traced = tracer is not None and (i // 2) % 2 == 0
        attempted += 1
        try:
            if traced:
                with tracer.installed():
                    t0 = time.perf_counter()
                    out = tracer.run_op(i, wl.op, inp)
                    dt = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                out = wl.op(inp)
                dt = time.perf_counter() - t0
        except Exception:
            failures.append({"op": i, "seed": seed, "reason": traceback.format_exc()})
            i += 1
            continue
        lat.append(dt)
        (traced_lat if traced else untraced_lat).append(dt)
        items += judge(i, inp, out)
        i += 1

    # A run-level check that fails fails every op of the run.
    run_failed = False
    if wl.run_check is not None and outputs:
        try:
            reason = wl.run_check(outputs).reason
        except Exception:
            reason = traceback.format_exc()
        if reason is not None:
            failures.append({"op": "run", "seed": seed, "reason": reason})
            run_failed = True

    # Untimed pass: traced-memory peak of ops 0, 1, ... (their median), for
    # about MEM_PASS_SECONDS.  Op 0 runs again here and must repeat exactly.
    peaks = []
    if out0 is not None:
        t_end = time.perf_counter() + MEM_PASS_SECONDS
        for j in range(MEM_PASS_MAX_OPS):
            inp = inp0 if j == 0 else wl.make_input(seed, j)
            tracemalloc.start()
            try:
                out = wl.op(inp)
                peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
            except Exception:
                failures.append({"op": j, "seed": seed, "reason": traceback.format_exc()})
                break
            finally:
                tracemalloc.stop()
            if j == 0 and wl.fingerprint(out) != wl.fingerprint(out0) and not any(f["op"] == 0 for f in failures):
                failures.append({"op": 0, "seed": seed, "reason": "rerun of the same input gave another result"})
            if time.perf_counter() > t_end:
                break

    stats = latency_stats(lat) if lat else None
    metrics: dict[str, tuple[float, str]] = {}
    if stats:
        timed = sum(lat)
        metrics["latency_p50_s"] = (stats["p50_s"], "s")
        metrics["latency_tail_s"] = (stats["tail_s"], "s")
        metrics["work_per_s"] = (items / timed, "items/s")
    if peaks:
        metrics["peak_mem_mb"] = (statistics.median(peaks), "MB")
    if wl.quality and quality:
        metrics[wl.quality.name] = (wl.quality.combine(quality), wl.quality.unit)
    failed = attempted if run_failed else len({f["op"] for f in failures})
    metrics["fail_ratio"] = (failed / attempted, "ratio")
    if tracer is not None:
        metrics.update(tracer.rollup(len(traced_lat)))
        metrics["signals.gen_s"] = (statistics.fmean(gen_s), "s")
        if traced_lat and untraced_lat:
            metrics["tracing_overhead_s"] = (
                statistics.median(traced_lat) - statistics.median(untraced_lat), "s")
    else:
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["peak_rss_mb"] = (statistics.median(rss), "MB")

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "smoke": smoke,
        "size": wl.size, "work_item": wl.item, "provenance": provenance(),
        "latency": stats, "latencies_s": lat, "peaks_mb": peaks, "attempted": attempted, "failed": failed, "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if tracer is None:
        record["setup_samples_s"], record["peak_rss_samples_mb"] = setup, rss
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}-spans.json", {"workload": name, "seed": seed})
    return record


def declared_metrics() -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m for m in spec["per_layer"]}}


def result_line(record: dict, declared: dict[str, dict]) -> dict:
    """The contract line: exactly the metrics BENCHMARK.json names for this mode.

    A layer function that a later change deletes reports 0 calls and 0 s.
    """
    metrics = {}
    for name, spec in declared.items():
        got = record["metrics"].get(name)
        if got is None:
            layer, _, rest = name.partition(".")
            if layer not in tracing.LAYERS or not rest.endswith((".calls", ".self_s")):
                raise KeyError(f"metric {name} was not computed")
            got = {"value": 0.0, "unit": spec["unit"]}
        metrics[name] = got
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def smoke(seed: int) -> int:
    """A few tiny ops per workload: every declared metric is emitted with its
    unit, a clean op passes its oracle and a corrupted one is counted."""
    declared = declared_metrics()
    problems = []
    for name in workloads.WORKLOADS:
        plain = run_workload(name, seed, 0, trace=False, smoke=True, min_ops=2, corrupt_ops=frozenset({2}))
        traced = run_workload(name, seed, 0, trace=True, smoke=True, min_ops=2)
        for kind, record in (("end_to_end", plain), ("per_layer", traced)):
            line = result_line(record, declared[kind])
            for metric, spec in declared[kind].items():
                if line["metrics"][metric]["unit"] != spec["unit"]:
                    problems.append(f"{name}: {metric} has unit {line['metrics'][metric]['unit']}")
        # the corrupted op fails, and so does a run-level check
        expected = [2, "run"] if workloads.WORKLOADS[name](True).run_check else [2]
        if [f["op"] for f in plain["failures"]] != expected:
            problems.append(f"{name}: expected failures {expected}, got {plain['failures']}")
        if traced["failures"]:
            problems.append(f"{name}: clean traced run failed: {traced['failures']}")
        print(f"smoke {name}: {plain['attempted']} + {traced['attempted']} ops", file=sys.stderr)
    for p in problems:
        print("smoke FAIL:", p, file=sys.stderr)
    print(json.dumps({"smoke": "ok" if not problems else "fail", "problems": problems}))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny self-check of the harness")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.smoke)
        return 0
    if args.smoke:
        return smoke(args.seed)
    declared = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    records, lines = {}, {}
    for name in names:
        records[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(records[name]))
        lines[name] = result_line(records[name], declared)
    if args.workload != "all":
        print(json.dumps(lines[args.workload]))
        return 0
    for name, record in records.items():
        for metric, m in record["metrics"].items():
            print(f"{name:18s} {metric:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(line["correct"] for line in lines.values()),
        "attempted": sum(line["attempted"] for line in lines.values()),
        "failed": sum(line["failed"] for line in lines.values()),
        "metrics": {f"{w}.{k}": v for w, line in lines.items() for k, v in line["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
