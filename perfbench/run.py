#!/usr/bin/env python3
"""switchlab benchmark: three closed-loop workloads, one client each.

Run from the repository root:

    python3 perfbench/run.py --workload golden-suite --seed 1 --seconds 10 --trace 0

Each run starts the workload in one fresh child interpreter (perfbench/
worker.py), which pins BLAS to one thread. ``--trace 0`` reports the
end-to-end metrics, measured untraced; ``--trace 1`` reports the per-layer
metrics from a traced run plus the per-call layer table (see README.md).
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Exit code 0 when every gated
operation passed, 1 when any failed, 2 when the benchmark could not run.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# Fresh interpreters timed from start to ready per --trace 0 run; the median
# is setup_s.
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60.0
# Slack beyond --seconds for the measuring child: its set-up and, in traced
# runs, the layer table (about 5 s at the baseline).
RUN_SLACK_S = 100.0


class BenchError(Exception):
    pass


def run_worker(args, timeout):
    """Start one worker; return (seconds from start to its ready line,
    the ready record, the result record or None)."""
    cmd = [sys.executable, str(WORKER)] + args
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            ready_line = proc.stdout.readline()
            ready_s = perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            proc.kill()
            proc.wait()
    if code != 0 or not ready_line:
        raise BenchError(f"worker {' '.join(args)} exited with code {code}")
    ready = json.loads(ready_line)
    lines = rest.strip().splitlines()
    return ready_s, ready, json.loads(lines[-1]) if lines else None


def tail(latencies):
    """The latency at the highest percentile, up to p90, with ten samples
    beyond it, and never below the upper median.

    Above p90 the value follows second-long slow spells of a shared machine
    and its run-to-run spread exceeds any usable bound. Below 21 samples no
    percentile above the median has ten samples beyond it, so the upper
    median is reported. Returns (value, percentile, samples beyond it).
    """
    xs = sorted(latencies)
    n = len(xs)
    i = max(min(n - 11, math.ceil(0.9 * n) - 1), n // 2)
    return xs[i], 100.0 * (i + 1) / n, n - 1 - i


def end_to_end(setup_samples, res):
    lat_ms = [x * 1e3 for x in res["latencies"]]
    if not lat_ms:
        raise BenchError("no operation passed its gate; nothing to time")
    tail_ms, pct, beyond = tail(lat_ms)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (len(lat_ms) / res["window_s"], "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} fresh interpreters",
        "ops_per_s": f"{len(lat_ms)} operations in {res['window_s']:.3f} s",
        "op_p50_ms": f"{len(lat_ms)} samples",
        "op_tail_ms": f"p{pct:.4g}, {beyond} of {len(lat_ms)} samples beyond",
    }
    return metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "switchlab" / "__init__.py").is_file():
        print(f"error: no switchlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup_samples, failed = [], 0

    def setup_probes(count):
        nonlocal failed
        for _ in range(count):
            ready_s, ready, _ = run_worker(common + ["--setup-only"], SETUP_TIMEOUT_S)
            setup_samples.append(ready_s - ready["gen_s"])
            failed += not ready["warmup_ok"]

    try:
        # Set-up-only interpreters run on both sides of the measuring worker,
        # so the median spans the whole run rather than its first seconds.
        probes = 0 if args.trace else SETUP_SAMPLES - 1
        setup_probes(probes // 2)
        ready_s, ready, res = run_worker(
            common + ["--seconds", repr(args.seconds), "--trace", str(args.trace)],
            args.seconds + RUN_SLACK_S,
        )
        setup_samples.append(ready_s - ready["gen_s"])
        if res is None:
            raise BenchError("worker printed no result")
        setup_probes(probes - probes // 2)
        # Each set-up-only interpreter ran one gated warm-up operation.
        attempted = res["attempted"] + len(setup_samples) - 1
        failed += res["failed"]
        if args.trace:
            metrics, notes = res["layers"], {}
        else:
            metrics, notes = end_to_end(setup_samples, res)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"{args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(res["env"]))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:48s} {value:14.6g} {unit}{note}")
    print(f"  {'fail_frac':48s} {failed / attempted:14.6g} fraction  ({failed} of {attempted} attempted)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
