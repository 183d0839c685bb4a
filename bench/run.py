"""Benchmark of the gmrec engine: one workload per process, closed loop.

    python3 bench/run.py --workload train-small --seed 1 --seconds 25 --trace 0
    python3 bench/run.py                      # every workload, untraced, in turn
    python3 bench/run.py --trace 1            # every workload, traced

Run from the root of a checkout. The library is imported from `src/` beside
this directory; without it the benchmark exits with code 2.

An untraced run (`--trace 0`) sets up the workload several times, then
runs its closed loop for about `--seconds` (as many whole units, for
gradcheck whole passes, as fit) and prints the end-to-end metrics, timed
at the reference speed of `reference.py`. A traced run (`--trace 1`) runs
the loop untraced for half the time, then installs the tracer and replays
exactly the same requests; it prints the per-layer metrics, including the
tracer's overhead, and writes the spans to `.bench_out/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The lines before it record
the machine and the workload's own figures under workload-specific names
(`step_ms_p50`, `rank_ms_p50`, `scored_pairs_per_s`, ...).
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")

# One caller, one core: BLAS stays single-threaded (at most nproc).
BLAS_THREADS = "1"
BLAS_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 11
WORKLOAD_NAMES = ("train-small", "train-wide", "serve", "gradcheck")

# name, unit, better; the same list, in this order, is BENCHMARK.json's end_to_end.
# Times are at the reference speed (reference.py); the detail line has them
# in wall time too.
END_TO_END = [
    ("setup_s", "s", "lower"),  # median of the set-ups made before the loop
    ("throughput_per_s", "1/s", "higher"),  # the workload's work units per busy second
    ("request_ms_mean", "ms", "lower"),  # mean request latency; the median is on the detail line
    ("peak_rss_mb", "MB", "lower"),  # peak resident set of the workload process
]

# How detail() reduces the values a run noted, one per unit or request.
REDUCE = {"val_auc": lambda v: v[0], "worst": max, "fmcheck": max, "ndcg@10": statistics.mean}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--make-checkpoint", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def machine() -> dict:
    """The machine and software every result was measured on."""
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARIABLES},
        **git_state(),
    }


def git_state() -> dict:
    def git(*args):
        try:
            out = subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True, timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout if out.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or os.path.realpath(top.strip()) != os.path.realpath(ROOT):
        return {"commit": None, "dirty": None}  # not a git checkout of its own
    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--", "src", "bench", "BENCHMARK.json") if commit else None
    return {"commit": commit.strip() if commit else None, "dirty": bool(status.strip()) if status is not None else None}


def tail(latencies):
    """(q, value) for the highest q with at least ten samples beyond it."""
    import numpy as np

    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(latencies) * (100.0 - q) / 100.0 >= 10:
            return q, float(np.percentile(latencies, q))
    return None


def measure(workload, seconds: float, trace: bool) -> dict:
    import gmrec.data
    import layers
    import reference
    import tracer as tr
    import workloads

    sites = tr.snapshot(layers.TARGETS)
    workload.prepare()
    clock = reference.Reference()
    clock.sample()
    setups = []
    for _ in range(SETUP_REPEATS):
        state, elapsed = workload.timed_setup()
        clock.sample()
        setups.append((elapsed, elapsed * clock.factor(len(setups))))
    run = workloads.Run()
    workload.start(state, run)
    gc.collect()  # the loop starts with no garbage left from the set-ups

    def loop(into, seconds=None, units=None, tracer=None):
        patches = tr.Patches()
        workload.hooks(patches, into, tracer)
        try:
            if tracer is None:
                leftovers = tr.untraced_violations(sites)
                into.op(not leftovers, f"traced wrappers installed in the untraced run: {leftovers}")
            into.reference.sample()
            start, k = time.perf_counter(), 0

            def more():
                """Another unit: a pass is unfinished, or one more pass fits in the time."""
                if k % workload.pass_units or k == 0:
                    return True
                elapsed = time.perf_counter() - start
                return elapsed * (1 + workload.pass_units / k) <= seconds

            while k < units if units is not None else more():
                try:
                    workload.unit(state, k, into, tracer)
                except gmrec.EngineError as exc:
                    into.op(False, f"{workload.name} unit {k}: {type(exc).__name__}: {exc}")
                into.reference.pace()
                k += 1
            into.reference.sample()
            into.units = k
        finally:
            patches.restore()

    loop(run, seconds=seconds / 2 if trace else seconds)
    result = {"run": run, "setups": setups}
    if not trace:
        busy = run.busy_seconds(scaled=True)
        result["metrics"] = {
            "setup_s": statistics.median(scaled for _, scaled in setups),
            "throughput_per_s": run.work / busy if busy else 0.0,
            "request_ms_mean": statistics.fmean(run.latencies(scaled=True)) * 1e3 if run.requests else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return result

    tracer = tr.Tracer()
    patches = tr.Patches()
    tr.install(tracer, sites, patches)
    traced = workloads.Run()
    try:
        workload.timed_setup()
        loop(traced, units=run.units, tracer=tracer)
    finally:
        patches.restore()
    leftovers = tr.untraced_violations(sites)
    run.op(not leftovers, f"wrappers left after the traced run: {leftovers}")
    run.op(traced.digests == run.digests, "traced training logs differ from the untraced ones")
    run.attempted += traced.attempted
    run.failed += traced.failed
    run.problems += traced.problems
    busy = run.busy_seconds(scaled=True)
    overhead = (traced.busy_seconds(scaled=True) / busy - 1.0) * 100.0 if busy else 0.0
    val_auc = run.values.get("val_auc", [0.0])[0]
    epochs = getattr(workload, "epochs", 0) * traced.units

    def side_key(sample):
        return gmrec.data.sample_user_key(sample), gmrec.data.sample_item_key(sample)

    result["metrics"] = layers.layer_metrics(tracer, len(traced.requests), epochs, val_auc, overhead, side_key)
    result["tracer"] = tracer
    return result


def detail(workload, result: dict) -> dict:
    """The workload's figures under workload-specific names, in wall time
    and (suffix `_ref`) at the reference speed."""
    run = result["run"]
    out = {
        "workload": workload.name,
        "units": run.units,
        "requests": len(run.requests),
        "setup_s_each": [wall for wall, _ in result["setups"]],
        "reference_burst_ms": [s * 1e3 for s in run.reference.seconds[:: max(1, len(run.reference.seconds) // 20)]],
        "error_rate": run.failed / run.attempted if run.attempted else None,
        "problems": run.problems,
    }
    for scaled, suffix in ((False, ""), (True, "_ref")):
        busy = run.busy_seconds(scaled)
        out[workload.throughput + suffix] = run.work / busy if busy else 0.0
        for kind in workload.kinds:
            latencies = run.latencies(scaled, kind)
            if not latencies:
                continue
            if kind in workload.rates:
                work = sum(w for _, _, k, w in run.requests if k == kind)
                out[workload.rates[kind] + suffix] = work / sum(latencies)
            out[f"{kind}_ms_p50{suffix}"] = statistics.median(latencies) * 1e3
            high = tail(latencies)
            if high:
                out[f"{kind}_ms_p{high[0]:g}{suffix}"] = high[1] * 1e3
            if kind == "instance" and len(latencies) >= workload.pass_units:
                out[f"gradcheck_s{suffix}"] = sum(latencies[:workload.pass_units])
    if run.digests:
        out["epoch_loss_digests"] = run.digests
    for key, values in run.values.items():
        out[key] = REDUCE[key](values)
    return out


def write_spans(path: str, tracer) -> None:
    """One JSON array per span: name, start_ns, end_ns, parent index, request."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span, separators=(",", ":")) + "\n")


def run_one(args) -> int:
    import layers
    import workloads

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, ROOT)
        result = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run is still using it
    run = result["run"]
    if args.trace:
        spans = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
        write_spans(spans, result["tracer"])
        print(f"spans {spans}")
    print("machine " + json.dumps(machine()))
    print("detail " + json.dumps(detail(workload, result)))
    units = {name: unit for name, unit, _ in (layers.PER_LAYER if args.trace else END_TO_END)}
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()},
    }))
    return 0 if run.failed == 0 else 1


def run_all(args) -> int:
    """Every workload in its own process, so that peak RSS is per workload."""
    rows, failed = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        lines = out.stdout.strip().splitlines()
        if not lines:
            print(f"{name}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            failed += 1
            continue
        final = json.loads(lines[-1])
        info = {line.split(" ", 1)[0]: line.split(" ", 1)[1] for line in lines[:-1] if " " in line}
        rows[name] = {"result": final, "detail": json.loads(info.get("detail", "{}"))}
        rows["machine"] = json.loads(info.get("machine", "{}"))
        failed += 0 if final["correct"] else 1
        print(f"== {name}: correct={final['correct']} attempted={final['attempted']} failed={final['failed']}")
        for metric, entry in final["metrics"].items():
            print(f"   {metric:32s} {entry['value']:>14.6g} {entry['unit']}")
        for key, value in rows[name]["detail"].items():
            if isinstance(value, float):
                print(f"   ({key:30s} {value:>14.6g})")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"results-trace{args.trace}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(rows, handle, indent=1)
    print(f"results {path}")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gmrec", "__init__.py")):
        print(f"bench: no library at {SRC}; run from the root of a full checkout", file=sys.stderr)
        return 2
    for var in BLAS_VARIABLES:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [SRC, HERE]
    import gmrec

    if os.path.dirname(os.path.dirname(os.path.abspath(gmrec.__file__))) != SRC:
        print(f"bench: imported gmrec from {gmrec.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.make_checkpoint:
        import workloads

        workloads.make_checkpoint(args.make_checkpoint, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
