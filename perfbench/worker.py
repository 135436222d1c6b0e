"""One workload in one fresh interpreter; started by run.py.

Protocol on stdout: after set-up (import switchlab, generate inputs, one
untimed warm-up operation) the worker prints one ``ready`` JSON line. With
``--setup-only`` it exits there; otherwise it measures for ``--seconds`` and
prints one result JSON line. Everything else goes to stderr.
"""

import os

# Pin the load before numpy is imported: OpenBLAS would otherwise start one
# thread per CPU.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from micro import micro_table  # noqa: E402
from tracer import CONSTRUCTORS, FUNCTIONS, OP_SPAN, Tracer, group, summarize  # noqa: E402
from workloads import GOLDEN_SCENARIOS, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = Path(__file__).resolve().parent / "out"


def import_switchlab():
    """Import the package from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import switchlab
    import switchlab.cli  # noqa: F401  (imports every package module)

    if Path(switchlab.__file__).resolve().parent != src / "switchlab":
        raise ImportError(f"switchlab imported from {switchlab.__file__}, not {src}")
    return switchlab


def git_revision():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "absent"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(switchlab):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    backend = getattr(switchlab.linalg, "backend_name", None)
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_revision": git_revision(),
        "eigen_backend": backend() if backend else "absent",
    }


def measure(workload, seconds, tracer=None):
    """Closed loop for `seconds`, at least one operation: latencies of the
    operations that passed their gate, the failure count, the window length.
    An exception is a failed gate."""
    latencies, failed = [], 0
    start = perf_counter()
    end = start + seconds
    while True:
        t0 = perf_counter()
        try:
            result = tracer.operation(workload.run) if tracer else workload.run()
            t1 = perf_counter()
            ok = workload.check(result)
        except Exception:
            traceback.print_exc()
            t1, ok = perf_counter(), False
        if ok:
            latencies.append(t1 - t0)
        else:
            failed += 1
        if t1 >= end:
            return latencies, failed, t1 - start


def layer_metrics(stats, n_ops, untraced_s_per_op, traced_s_per_op):
    """Per-operation layer metrics from tracer.summarize() output."""
    metrics = {}
    names = [f"{m}.{f}" for m, fs in FUNCTIONS.items() for f in fs]
    names += [f"{m}.{c}.init" for m, cs in CONSTRUCTORS.items() for c in cs]
    for name in names:
        calls, _, self_s = group(stats, name)
        metrics[f"{name}.calls_per_op"] = (calls / n_ops, "count")
        metrics[f"{name}.self_ms_per_op"] = (self_s * 1e3 / n_ops, "ms")
    for n in (2, 4, 16):
        metrics[f"linalg.hermitian_eigen.n{n}.calls_per_op"] = (
            group(stats, f"linalg.hermitian_eigen.n{n}")[0] / n_ops, "count")
    for scenario, _ in GOLDEN_SCENARIOS:
        metrics[f"cli.scenario.{scenario}.ms_per_op"] = (
            group(stats, f"cli.scenario.{scenario}")[1] * 1e3 / n_ops, "ms")
    validations = sum(group(stats, n)[0] for n in names if n.endswith(".init"))
    op_wall_s = group(stats, OP_SPAN)[1]
    metrics["validations_per_op"] = (validations / n_ops, "count")
    metrics["eigen_share"] = (group(stats, "linalg.hermitian_eigen")[2] / op_wall_s, "fraction")
    metrics["op.untraced_ms_per_op"] = (untraced_s_per_op * 1e3, "ms")
    metrics["op.traced_ms_per_op"] = (traced_s_per_op * 1e3, "ms")
    metrics["trace_overhead_frac"] = (traced_s_per_op / untraced_s_per_op - 1.0, "fraction")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    switchlab = import_switchlab()

    OUT_DIR.mkdir(exist_ok=True)
    t0 = perf_counter()
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR)
    gen_s = perf_counter() - t0
    warmup_ok = measure(workload, 0.0)[1] == 0
    print(json.dumps({"ready": True, "gen_s": gen_s, "warmup_ok": warmup_ok}), flush=True)
    if args.setup_only:
        return 0

    once = getattr(workload, "once", None)
    try:
        once_ok = once() if once else True
    except Exception:
        traceback.print_exc()
        once_ok = False
    result = {"env": environment(switchlab)}
    if args.trace:
        plain, failed_plain, _ = measure(workload, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced, failed_traced, _ = measure(workload, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        tracer.write(OUT_DIR / f"spans-{args.workload}.jsonl")
        n_traced = len(traced) + failed_traced
        metrics = layer_metrics(summarize(tracer.spans), n_traced,
                                sum(plain) / len(plain), sum(traced) / len(traced))
        metrics.update((k, (v, "us")) for k, v in micro_table(args.seed).items())
        result.update(
            attempted=len(plain) + n_traced + failed_plain,
            failed=failed_plain + failed_traced,
            layers=metrics,
        )
    else:
        latencies, failed, window = measure(workload, args.seconds)
        result.update(
            attempted=len(latencies) + failed,
            failed=failed,
            latencies=latencies,
            window_s=window,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    # The warm-up operation and the once-per-run check are gated operations too.
    result["attempted"] += 1 + (once is not None)
    result["failed"] += (not warmup_ok) + (not once_ok)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
