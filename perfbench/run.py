#!/usr/bin/env python3
"""The conewitness benchmark: one seeded workload per process, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  One process runs one workload: one item at a time, each
item started when the previous one has finished, BLAS at its default thread
count.  After set-up (import, inputs, one untimed warm-up item) the loop
runs items for ``--seconds``, rounded up to a whole rotation of the
workload's targets, and checks every output against its reference.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every item
twice, once plain and once with every public function of the program
wrapped in a span (alternating which goes first), checks that both give the
same bytes and that the spans match the item's structure, and prints the
per-layer metrics and the tracing overhead.  The last line of output is one
JSON object; the exit code is nonzero when an output check fails.
``--workload all`` runs every workload both ways, each in its own process,
and compares the report digests of the two runs.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before any import

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("bp_grid", "expose_m4")  # names of functions in workloads.py
SETUP_CHILDREN = 8  # set-up is timed in this process and in this many more
CHILD_TIMEOUT_S = 170


def die(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_program():
    package = SRC / "conewitness"
    if not (package / "__init__.py").is_file():
        die(f"no program source at {package}; run from a conewitness checkout")
    sys.path.insert(0, str(SRC))
    import conewitness

    if Path(conewitness.__file__).resolve().parent != package.resolve():
        die(f"imported conewitness from {conewitness.__file__}, not from {package}")


def blas_threads():
    """Thread count the loaded OpenBLAS reports; read only, never set."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ[k] for k in thread_vars if k in os.environ},
    }


def attempt(item):
    try:
        return item.execute()
    except Exception as exc:  # an item that raises is a failed item, not a crash
        return exc


@dataclass
class Row:
    item: object
    latency: float  # wall time of the item's execution only
    cpu: float  # process CPU time over the same interval
    outcome: object


def set_up(name: str, seed: int, workdir: Path):
    import_program()
    import workloads

    workload = getattr(workloads, name)(seed, workdir)
    first = next(workload.items)
    warm = first.judge(attempt(first))
    return workload, first, warm, time.perf_counter() - T0


def child_setup_s(args) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        die(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def timed_loop(workload, first, seconds, step):
    """Call ``step(item)`` until ``seconds`` pass and a rotation is complete."""
    rows = []
    start = time.perf_counter()
    deadline = start + seconds
    for item in itertools.chain([first], workload.items):
        rows.append(step(item))
        if time.perf_counter() >= deadline and len(rows) % workload.rotation == 0:
            break
    return rows, time.perf_counter() - start


def plain_step(item) -> Row:
    c = time.process_time()
    t = time.perf_counter()
    raw = attempt(item)
    latency = time.perf_counter() - t
    cpu = time.process_time() - c
    return Row(item, latency, cpu, item.judge(raw))


def tail_percentile(sorted_ms):
    """The highest percentile with at least ten items beyond it: the 11th slowest."""
    n = len(sorted_ms)
    if n < 11:
        return None
    return f"p{100 * (n - 10) / n:.2f}", sorted_ms[n - 11]


def summarize(workload, rows, warm, problems) -> dict:
    """Failures, digest and the consistency checks both modes share.

    An undecided item (the program's own typed error, or its inconclusive
    verdict) fails but leaves the run correct; any other failure makes the
    run incorrect.
    """
    wrong = [r.outcome.failure for r in rows if r.outcome.failure and not r.outcome.undecided]
    undecided = [r.outcome.failure for r in rows if r.outcome.undecided]
    if len(wrong) + len(undecided) == len(rows):
        problems.append("no item completed")
    if warm.record != rows[0].outcome.record:
        problems.append("warm-up item and its timed repeat gave different bytes")
    window = [r for r in rows if r.item.index < workload.digest_items]
    digest = hashlib.sha256(b"".join(r.outcome.record for r in window)).hexdigest()
    verdicts = Counter(r.outcome.verdict for r in window)
    for line in wrong:
        print(f"WRONG   {line}")
    for line in undecided:
        print(f"UNDECIDED {line}")
    for line in problems[:20]:
        print(f"CHECK   {line}")
    attempted = len(rows)
    failed = len(wrong) + len(undecided)
    print(f"items {attempted} attempted, {failed} failed, failed_ratio {failed / attempted:.4f} "
          f"({failed}/{attempted}): {len(undecided)} undecided, {len(wrong)} wrong or crashed")
    partial = "" if len(window) == workload.digest_items else f" (partial: {len(window)} ran)"
    print(f"digest sha256:{digest} over items 0-{workload.digest_items - 1}{partial} "
          f"verdicts {json.dumps(verdicts, sort_keys=True)}")
    return {"correct": not wrong and not problems, "attempted": attempted, "failed": failed}


def end_to_end(args, workload, first, warm, setup_s):
    setups = [setup_s] + [child_setup_s(args) for _ in range(SETUP_CHILDREN)]
    rows, wall = timed_loop(workload, first, args.seconds, plain_step)
    result = summarize(workload, rows, warm, [])
    # failed items completed nothing: they count in neither rate nor latency
    lat_ms = sorted(r.latency * 1e3 for r in rows if r.outcome.failure is None)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (len(lat_ms) / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    if lat_ms:
        metrics["latency_p50_ms"] = (statistics.median(lat_ms), "ms")
    tail = tail_percentile(lat_ms)
    if tail is None:
        print(f"latency_tail_ms omitted: {len(lat_ms)} completed items, fewer than 11")
    else:
        metrics["latency_tail_ms"] = (tail[1], "ms")
        print(f"latency_tail_ms is {tail[0]} of {len(lat_ms)} completed items")
    print("setup_s samples " + " ".join(f"{s:.4f}" for s in setups))
    return result, metrics


def per_layer(args, workload, first, warm):
    import tracing

    tracer = tracing.Tracer()
    problems = []
    plain_s = traced_s = cpu_s = 0.0

    def step(item):
        nonlocal plain_s, traced_s, cpu_s

        def traced():
            t = time.perf_counter()
            raw, first_span = tracer.run(item.index, lambda: attempt(item))
            return time.perf_counter() - t, item.judge(raw), first_span

        if item.index % 2:  # alternate the order so neither run always finds warm caches
            latency, outcome, first_span = traced()
            row = plain_step(item)
        else:
            row = plain_step(item)
            latency, outcome, first_span = traced()
        plain_s += row.latency
        traced_s += latency
        cpu_s += row.cpu
        if outcome.record != row.outcome.record or outcome.verdict != row.outcome.verdict:
            problems.append(f"{item.label}: traced run differs from the plain run")
        for error in tracer.structure_errors(first_span, outcome.spans):
            problems.append(f"{item.label}: {error}")
        return row

    rows, _ = timed_loop(workload, first, args.seconds, step)
    result = summarize(workload, rows, warm, problems)
    n = len(rows)
    metrics = tracing.layer_metrics(tracer, n)
    metrics.update({
        "process.cpu_s": (cpu_s / n, "s/item"),
        "process.cpu_util": (cpu_s / plain_s, "ratio"),
        "trace.overhead_s": ((traced_s - plain_s) / n, "s/item"),
        "trace.overhead_ratio": ((traced_s - plain_s) / plain_s, "ratio"),
    })
    path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.write(path)
    print(f"spans {len(tracer.start)} written to {path.relative_to(ROOT)}")
    return result, metrics


def run_one(args) -> int:
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        os.chdir(workdir)  # items name their input files relative to it
        try:
            workload, first, warm, setup_s = set_up(args.workload, args.seed, Path(workdir))
            if args.setup_only:
                print(json.dumps({"setup_s": setup_s}))
                return 0
            print("env " + json.dumps(environment(), sort_keys=True))
            print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
            if args.trace:
                result, metrics = per_layer(args, workload, first, warm)
            else:
                result, metrics = end_to_end(args, workload, first, warm, setup_s)
        finally:
            os.chdir(ROOT)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every kept workload, untraced then traced, each in its own process."""
    summary, exit_code = [], 0
    for name in WORKLOADS:
        digests = []
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            print(f"== {name} trace {trace}", flush=True)
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S + 2 * args.seconds, check=False)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            digests.append(next((ln for ln in lines if ln.startswith("digest ")), None))
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode != 0 or result is None:
                exit_code = 1
            summary.append((name, trace, proc.returncode, result))
        if any(d is not None and "partial" in d for d in digests):
            print(f"NOTE    {name}: digest window not complete in both runs; not compared")
        elif digests[0] is None or digests[0] != digests[1]:
            print(f"CHECK   {name}: traced and untraced runs printed different digests")
            exit_code = 1
    print("== summary")
    for name, trace, code, result in summary:
        if result is None:
            print(f"{name} trace {trace}: no result (exit {code})")
            continue
        ratio = result["failed"] / result["attempted"]
        print(f"{name} trace {trace}: correct {result['correct']} failed_ratio {ratio:.4f} "
              f"({result['failed']}/{result['attempted']})")
        if trace == 0:
            for metric, v in result["metrics"].items():
                print(f"  {metric} {v['value']:.6g} {v['unit']}")
    return exit_code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help=f"one of {', '.join(WORKLOADS)}, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        die("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
