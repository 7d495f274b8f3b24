"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload train-mixed --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory, and the run fails (exit 2, no result line) without it.

Standard output ends with two JSON lines.  The first, ``{"record": ...}``,
carries machine facts, the paper's exact counts for the workload, the
workload's own metric names (``train_mixed_samples_per_s``, ``infer_p99_us``,
...) and ``failed_share``.  The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` its
metrics are the end-to-end metrics of BENCHMARK.json, measured untraced; with
``--trace 1`` they are the per-layer metrics from traced passes of a fixed
amount of work, plus the tracing overhead.
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
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
# Throughput is taken over chunks of consecutive operations that each hold at
# least this much operation time.  The reported rate is the one sustained in
# nine chunks out of ten (the 10th percentile of chunk rates).  On a shared
# machine, other tenants change the speed of the same code by up to 1.8x for
# seconds to minutes at a time; this percentile follows the prevailing state
# and moved half as much between runs as the median did.  The median is kept
# in the record.
CHUNK_SECONDS = 0.1
MIN_TRACE_PAIRS = 2


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _machine(numpy_version: str) -> dict:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_sha": _git_sha(),
    }


def _import_seconds() -> list:
    """Time to import the library, once per fresh interpreter."""
    probe = "import time; t = time.perf_counter(); import crosswise; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return [float(subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=env, check=True,
                                 capture_output=True, text=True, timeout=120).stdout)
            for _ in range(SETUP_REPEATS)]


def _run_op(workload, state, checks):
    """One operation, checked: (items, seconds), or None if it raised."""
    start = time.perf_counter()
    try:
        result, items = workload.op(state)
    except Exception:
        traceback.print_exc()
        checks.check(False, "operation raised")
        return None
    seconds = time.perf_counter() - start
    checks.check(True, "")
    workload.check(state, result, checks)
    return items, seconds


def _chunk_rates(samples) -> list:
    rates, items, seconds = [], 0, 0.0
    for n, s in samples:
        items += n
        seconds += s
        if seconds >= CHUNK_SECONDS:
            rates.append(items / seconds)
            items, seconds = 0, 0.0
    return rates or [items / seconds]


def measure(workload, seconds: float, checks):
    """Untraced run: repeated set-up, one warm-up operation, then the timed loop.

    Set-up time is the median import time of the library in a fresh
    interpreter plus the median time of the workload's own set-up.
    """
    imports = _import_seconds()
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = workload.setup()
        setups.append(time.perf_counter() - start)
    _run_op(workload, state, checks)

    samples, attempts = [], 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or attempts < workload.min_ops:
        attempts += 1
        sample = _run_op(workload, state, checks)
        if sample is not None:
            samples.append(sample)
    if not samples:
        return None, None
    # Read before the final checks, whose reference computations are not the workload's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workload.finish(state, checks)

    latencies = [s / n * 1e6 for n, s in samples]
    rates = _chunk_rates(samples)
    rate = statistics.quantiles(rates, n=10)[0] if len(rates) > 1 else rates[0]
    end_to_end = {
        "setup_s": (statistics.median(imports) + statistics.median(setups), "s"),
        "items_per_s": (rate, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    prefix = workload.prefix
    named = {
        f"{prefix}_{workload.item}_per_s": rate,
        f"{prefix}_{workload.item}_per_s_median": statistics.median(rates),
        f"{prefix}_p50_us": statistics.median(latencies),
        # A p99 needs at least ten samples beyond it.
        f"{prefix}_p99_us": (statistics.quantiles(latencies, n=100)[98]
                             if len(latencies) >= 1000 else None),
        f"{prefix}_samples": len(latencies),
        "setup_runs_s": setups,
        "import_runs_s": imports,
    }
    return end_to_end, named


def _pass(workload, checks):
    state = workload.setup()
    for _ in range(workload.trace_ops):
        _run_op(workload, state, checks)


def trace(workload, seconds: float, checks):
    """Alternate untraced and traced passes of set-up plus `trace_ops` operations."""
    import spans

    passes, overheads = [], []
    start = time.perf_counter()
    while len(passes) < MIN_TRACE_PAIRS or time.perf_counter() - start < seconds:
        walls = {}
        for traced in ((False, True) if len(passes) % 2 == 0 else (True, False)):
            tracer = spans.Tracer()
            began = time.perf_counter()
            if traced:
                with spans.installed(tracer):
                    _pass(workload, checks)
                passes.append(tracer.metrics())
            else:
                _pass(workload, checks)
            walls[traced] = time.perf_counter() - began
        overheads.append(walls[True] / walls[False] - 1.0)

    for name in spans.COUNT_METRICS:
        checks.check(len({p[name] for p in passes}) == 1,
                     f"{name} differs between traced passes of equal work")
    metrics = {}
    for name, unit in spans.METRIC_UNITS.items():
        if name == spans.OVERHEAD:
            value = statistics.median(overheads)
        elif unit == "count":
            value = passes[0][name]
        else:
            value = statistics.median(p[name] for p in passes)
        metrics[name] = (value, unit)
    named = {"traced_passes": len(passes), "overhead_shares": overheads}
    return metrics, named


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input for the benchmark's own test")
    args = parser.parse_args(argv)

    if not (SRC / "crosswise" / "__init__.py").is_file():
        print(f"run.py: no library source at {SRC / 'crosswise'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size == "tiny")
    checks = workloads.Checks()
    if args.trace:
        metrics, named = trace(workload, args.seconds, checks)
    else:
        metrics, named = measure(workload, args.seconds, checks)

    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)
    if metrics is None:
        print("run.py: no operation succeeded", file=sys.stderr)
        return 1
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "size": args.size, "trace": args.trace,
        "machine": _machine(numpy.__version__),
        "counts": workload.facts(),
        "metrics": named,
        "failed_share": checks.failed / max(checks.attempted, 1),
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
