#!/usr/bin/env python3
"""Benchmark of bellcert: protocol sessions, transcripts, TCP and white-box analysis.

Run from the repository root:

    python3 bench/run.py --workload ideal_study --seed 1 --seconds 25 --trace 0

Workloads: ideal_study, lwe_transcripts, tcp_loopback, whitebox (see
bench/README.md).  The program is imported from ``src/`` beside this
directory.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it holds host diagnostics.

Times are scaled to a reference host speed: after every round the runner
times a short fixed pure-Python loop (the gauge), and every time metric is
multiplied by ``GAUGE_NOMINAL_MS`` over the median gauge time of the run.
The diagnostics line holds the unscaled wall-time figures and the gauge.
"""
import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402  (the clock above starts before any import)
import os  # noqa: E402
import sys  # noqa: E402

# One BLAS thread: OpenBLAS would otherwise start threads of its own beside
# the TCP server and client threads on a 2-core host.  Must precede numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5
REFERENCE_LOOP_N = 300_000
GAUGE_N = 20_000          # iterations of the reference loop in one gauge sample
GAUGE_NOMINAL_MS = 1.5    # a gauge sample's time at the reference host speed
PROBE_GAUGES = 3          # gauge samples before and after each set-up probe


def reference_loop_ms(n: int = REFERENCE_LOOP_N) -> float:
    """Time a fixed pure-Python loop, as a gauge of the host's speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(n):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - t0) * 1e3


def import_program():
    if not os.path.isfile(os.path.join(SRC, "bellcert", "__init__.py")):
        sys.exit(f"bench: no program source at {SRC}")
    sys.path.insert(0, SRC)
    import bellcert
    if not os.path.abspath(bellcert.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: imported bellcert from {bellcert.__file__}, not {SRC}")


def setup_probe_s(workload: str, seed: int) -> tuple[float, float]:
    """Wall time from starting a fresh process to its workload being ready,
    and that time at the reference host speed, scaled by the median of
    gauge samples taken just before and just after the probe."""
    import statistics
    import subprocess
    gauge = [reference_loop_ms(GAUGE_N) for _ in range(PROBE_GAUGES)]
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, os.path.abspath(__file__), "--workload", workload,
                           "--seed", str(seed), "--setup-probe"],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    gauge += [reference_loop_ms(GAUGE_N) for _ in range(PROBE_GAUGES)]
    return elapsed, elapsed * GAUGE_NOMINAL_MS / statistics.median(gauge)


def host_info() -> dict:
    import platform
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count()}


def percentile(values, pct: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values), pct))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="timed seconds per run (the run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set the workload up, print 'ready' and exit")
    args = ap.parse_args(argv)

    import_program()
    import resource
    import shutil
    import statistics
    import json
    from array import array
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    outdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(outdir, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, outdir)
        if args.setup_probe:
            print("ready", flush=True)
            wl.close()
            return 0
        own_setup_s = time.perf_counter() - PROCESS_T0
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
            wl.tracer = tracer
        ref_before = reference_loop_ms()
        gauge_ms = array("d")
        timed, rounds = 0.0, 0
        while timed < args.seconds:
            if tracer is not None:
                tracer.enabled = True
            t0 = time.perf_counter()
            wl.round()
            timed += time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            rounds += 1
            wl.after_round()
            gauge_ms.append(reference_loop_ms(GAUGE_N))
        ref_after = reference_loop_ms()
        problems = wl.finish()
        wl.close()
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    probes = [setup_probe_s(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    ops = wl.ops
    done = ops - wl.failed
    ops_per_s = done / timed
    p50 = statistics.median(wl.latencies)
    tail = percentile(wl.latencies, wl.tail_percentile)
    forced_time_share = wl.forced_s / sum(wl.latencies)
    # > 1 when the host ran slower than the reference speed during the run
    slowdown = statistics.median(gauge_ms) / GAUGE_NOMINAL_MS
    if tracer is None:
        metrics = {
            "ops_per_s": (ops_per_s * slowdown, "1/s"),
            "latency_p50_ms": (p50 / slowdown * 1e3, "ms"),
            "latency_tail_ms": (tail / slowdown * 1e3, "ms"),
            "setup_s": (statistics.median(p[1] for p in probes), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "output_bytes_per_op": (wl.output_bytes / done, "B"),
        }
    else:
        metrics = tracer.metrics(done, int(timed * 1e9), wl.sessions)
        metrics = {k: (v / slowdown if u == "us/op" else v, u) for k, (v, u) in metrics.items()}
        metrics["bench.forced_time_share"] = (forced_time_share, "ratio")
        os.makedirs(OUT, exist_ok=True)
        tracer.save(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.npz"))
    diagnostics = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "timed_s": timed, "rounds": rounds, "ops": ops,
        "wall": {"ops_per_s": ops_per_s, "latency_p50_ms": p50 * 1e3,
                 "latency_tail_ms": tail * 1e3,
                 "setup_s": statistics.median(p[0] for p in probes)},
        "gauge_ms": {"median": statistics.median(gauge_ms), "min": min(gauge_ms),
                     "max": max(gauge_ms), "samples": len(gauge_ms)},
        "slowdown": slowdown,
        "forced_op_share": wl.forced_ops / ops, "forced_time_share": forced_time_share,
        "tail_percentile": wl.tail_percentile,
        "ops_beyond_tail": sum(x > tail for x in wl.latencies),
        "latency_percentiles_ms": {p: percentile(wl.latencies, p) * 1e3 for p in (50, 90, 95, 99)},
        "setup_probes_s": [p[0] for p in probes], "own_setup_s": own_setup_s,
        "reference_loop_ms": {"before": ref_before, "after": ref_after},
        "host": host_info(), "problems": problems[:5], "errors": wl.errors,
    }
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({
        "correct": not problems, "attempted": ops, "failed": wl.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
