"""Host-time benchmark for kernelpipe.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 20 --trace 0

Runs one workload (classify, sweep or model, see workloads.py) in this
process, with one thread and a closed loop of one client, against the
sources under src/ of the checkout it sits in.  Set-up is repeated
SETUP_REPS times from a fresh import and its median reported.  After the
timed loop the correctness gate checks every output.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` half the time runs untraced and half traced; the last
line reports the per-layer metrics, a host-vs-model table is printed above
it, and the spans are written to .bench_out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "request_ms_p50": "ms", "request_ms_p90": "ms",
                    "work_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("classify", "sweep", "model"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_environment():
    """One BLAS/OpenMP thread and no config override; must run before numpy
    is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("KERNELPIPE_CONFIG", None)


def locate_program():
    if not (SRC / "kernelpipe" / "__init__.py").is_file():
        sys.exit(f"error: kernelpipe sources not found under {SRC}")
    sys.path.insert(0, str(SRC))


def write_weights(seed, path):
    """The run's input: the seed's synthetic weights as a text weight file."""
    import workloads

    lib = workloads.import_fresh()
    lib.ingest.write_weights_text(lib.fixtures.synthetic_weights(seed), path)


def set_up(workload_cls, seed, weights_path, tracer):
    """Median set-up seconds over SETUP_REPS fresh imports, each with a
    warm-up request; returns it with the last rep's workload and modules."""
    import workloads

    times = []
    for rep in range(SETUP_REPS):
        workload = lib = None  # so one rep's data does not raise the next rep's peak
        gc.collect()
        tracer.request = f"setup{rep}"
        start = time.perf_counter()
        lib = workloads.import_fresh()
        tracer.install(lib)
        with tracer.span("setup"):
            workload = workload_cls(lib, seed, weights_path, tracer)
            workload.request(0)
        times.append(time.perf_counter() - start)
        tracer.uninstall()
    if not Path(lib.root.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported kernelpipe from {lib.root.__file__}, not from {SRC}")
    return statistics.median(times), workload, lib


def closed_loop(workload, seconds, tracer, first_id):
    """Send the next request when the previous one returns, until
    ``seconds`` have passed.  Returns latencies (s) of successful requests,
    one observation per request, work units done and elapsed seconds."""
    import gate

    latencies, observations, work = [], [], 0
    gc.collect()
    i = first_id
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        tracer.request = i
        t0 = time.perf_counter()
        try:
            with tracer.span("request"):
                units, raw = workload.request(i)
        except Exception as exc:  # counted as a failed operation
            t1 = time.perf_counter()
            observations.append(gate.Failure(f"{type(exc).__name__}: {exc}"))
        else:
            t1 = time.perf_counter()
            latencies.append(t1 - t0)
            work += units
            observations.append(workload.summarize(raw))
        i += 1
        if t1 >= deadline:
            return latencies, observations, work, t1 - start


def run_gate(workload, observations, tracer) -> list[str]:
    tracer.request = "gate"
    try:
        with tracer.span("gate"):
            return workload.check(observations)
    except Exception as exc:  # a gate that cannot finish fails the run
        return [f"gate raised {type(exc).__name__}: {exc}"]


def percentile_ms(latencies, pct) -> float:
    """Linear-interpolated percentile, as numpy's default computes it."""
    if len(latencies) < 2:
        return latencies[0] * 1e3 if latencies else 0.0
    return statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1] * 1e3


def peak_rss_mb() -> float:
    """Process high-water RSS.  Read after set-up, because during the timed
    loop it keeps rising with the garbage cycles the engine leaves for the
    collector, so it would depend on the run's length."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def report(metrics, units, samples, failures, attempted):
    for name, value in metrics.items():
        count = f"  n={samples[name]}" if name in samples else ""
        print(f"# {name:<40} {value:>16.6f} {units[name]}{count}")
    for message in failures[:20]:
        print(f"# FAIL {message}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    locate_program()
    import tracing
    import workloads

    workload_cls = workloads.WORKLOADS[args.workload]
    seed = args.seed % 2**32
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        weights_path = Path(tmp) / "weights.txt"
        write_weights(seed, weights_path)
        setup_s, workload, lib = set_up(workload_cls, seed, weights_path, tracer)

        if not args.trace:
            rss = peak_rss_mb()
            latencies, observations, work, elapsed = closed_loop(
                workload, args.seconds, tracer, 0)
            failures = run_gate(workload, observations, tracer)
            metrics = {
                "setup_s": setup_s,
                "request_ms_p50": percentile_ms(latencies, 50),
                "request_ms_p90": percentile_ms(latencies, 90),
                "work_per_s": work / elapsed,
                "peak_rss_mb": rss,
            }
            samples = {"setup_s": SETUP_REPS, "request_ms_p50": len(latencies),
                       "request_ms_p90": len(latencies), "work_per_s": work}
            print(f"# workload {workload.name}: {len(observations)} requests, "
                  f"{work} x {workload.work_unit} in {elapsed:.3f} s")
            report(metrics, END_TO_END_UNITS, samples, failures,
                   len(observations) + workload.extra_checks)
            return 0

        plain, observations, _, _ = closed_loop(workload, args.seconds / 2,
                                                tracing.NullTracer(), 0)
        tracer.install(lib)
        traced, traced_obs, _, _ = closed_loop(workload, args.seconds / 2, tracer,
                                               len(observations))
        observations += traced_obs
        failures = run_gate(workload, observations, tracer)
        tracer.uninstall()
        tracer.install_counters(lib)
        tracer.request = "count"
        workload.request(0)
        tracer.uninstall()

    attempted = len(observations) + workload.extra_checks
    overhead = (statistics.median(traced) / statistics.median(plain) - 1.0
                if plain and traced else 0.0)
    values = tracing.per_layer_metrics(tracer, lib, len(traced_obs), overhead,
                                       len(failures) / attempted)
    trace_path = OUT_DIR / f"trace_{workload.name}_seed{seed}.json"
    tracer.write(trace_path)
    for target in tracer.missing:
        print(f"# warning: {target} not found, its spans are missing")
    print("# spans by total time (traced set-up, traced half of the loop, gate)")
    for line in tracing.self_time_table(tracer):
        print("# " + line)
    if tracer.forward_calls:
        print("# host vs model, Q16.8 (host ms per image; model ms on each board, mode none)")
        for line in tracing.host_vs_model_table(values, lib):
            print("# " + line)
    print(f"# spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    report(values, tracing.per_layer_units(), {}, failures, attempted)
    return 0


if __name__ == "__main__":
    sys.exit(main())
