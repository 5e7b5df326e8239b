#!/usr/bin/env python3
"""Pipeline benchmark for chaincombine: harness -> combine -> metric, in process.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload logistic-pipeline --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

Workloads are ``logistic-pipeline``, ``gamma-dpe`` and ``wide-consensus``
(see ``workloads.py``); ``BENCHMARK.json`` lists the first two.  The
load is a closed loop with one caller: repetitions of the pipeline run
back to back in this process until ``--seconds`` have passed, every repetition with the same
seed, and each metric is the median over repetitions.  Set-up time is
the median of three fresh interpreters that import ``chaincombine`` and
prepare the workload's inputs.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions, reports the per-layer metrics of the
traced ones, reports tracing overhead as traced minus untraced
``pipeline_s``, and writes every span to ``perfbench/out/``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A failed check still prints that line, with ``correct`` false, and exits
with code 1.  Without ``src/chaincombine`` next to this directory the
benchmark exits with code 2 and prints no result.
"""

import argparse
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
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 3
UNITS = {
    "pipeline_s": "s",
    "harness_s": "s",
    "combine_s": "s",
    "metric_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}


def blas_cap():
    return len(os.sched_getaffinity(0))


def cap_blas_threads():
    """Cap BLAS/OpenMP threads at the usable core count; run before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_cap())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="problem size; smoke is a tiny run for checking the benchmark")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import chaincombine from this checkout's src/, never from elsewhere."""
    if not (SRC / "chaincombine" / "__init__.py").is_file():
        raise ImportError(f"no chaincombine package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import chaincombine

    if not Path(chaincombine.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"chaincombine was imported from {chaincombine.__file__}")
    return chaincombine


def measure_setup(args):
    """Wall times of fresh interpreters that each do the run's set-up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--scale", args.scale]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def peak_rss_mib():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def spread(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(name, values, unit):
    if not values:  # a failed run can end before it measured this
        return 0.0
    median = statistics.median(values)
    q1, q3 = spread(values)
    print(f"  {name:34s} {median:14.6g} {unit:6s} q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
    return median


def machine_facts(args):
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": blas_cap(),
        "blas_threads": blas_cap(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_workload(args):
    import tracing
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    setup_s = None if args.trace else measure_setup(args)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        # A tiny untimed pass first, so lazy imports and caches are warm.
        workloads.Pipeline(args.workload, "smoke", args.seed, workdir / "warm").run_once()
        pipeline = workloads.Pipeline(args.workload, args.scale, args.seed, workdir / "bench")
        tracer = tracing.Tracer()
        untraced, traced, layers = [], [], []
        start = time.perf_counter()
        while True:
            trace_this = args.trace == 1 and len(untraced) > len(traced)
            if trace_this:
                tracer.run = f"{args.workload}-{args.seed}-{len(traced)}"
                first_span = len(tracer.spans)
                with tracer.instrument():
                    rep = pipeline.run_once(tracer)
                layers.append(tracing.layer_metrics(tracer.spans[first_span:]))
                traced.append(rep)
            else:
                untraced.append(rep := pipeline.run_once())
            if rep.failures:
                break
            done = time.perf_counter() - start >= args.seconds
            if done and (args.trace == 0 or traced):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reps = untraced + traced
    attempted = sum(r.ops for r in reps)
    failures = [f for r in reps for f in r.failures]
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"{args.workload}  seed {args.seed}  scale {args.scale}  "
          f"trace {args.trace}  repetitions {len(untraced)} untraced, {len(traced)} traced")
    metrics = {}
    if args.trace == 0:
        series = {
            "pipeline_s": [r.pipeline_s for r in untraced],
            "harness_s": [r.stages["harness"] for r in untraced],
            "combine_s": [r.stages["combine"] for r in untraced],
            "metric_s": [r.stages["metric"] for r in untraced],
            "setup_s": setup_s,
            "cpu_s": [r.cpu_s for r in untraced],
            "peak_rss_mb": [peak_rss_mib()],
        }
        for name, values in series.items():
            metrics[name] = {"value": summarize(name, values, UNITS[name]), "unit": UNITS[name]}
    else:
        for name, unit in tracing.PER_LAYER.items():
            if name == "trace.overhead_s":
                value = summarize("traced pipeline_s", [r.pipeline_s for r in traced], unit)
                value -= summarize("untraced pipeline_s", [r.pipeline_s for r in untraced], unit)
                print(f"  {name:34s} {value:14.6g} {unit}")
            else:
                value = summarize(name, [m[name] for m in layers], unit)
            metrics[name] = {"value": value, "unit": unit}
        spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        with open(spans_path, "w") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")
        print(f"  spans: {spans_path.relative_to(ROOT)} ({len(tracer.spans)})")

    digests = pipeline.digests
    for label, digest in digests.items():
        print(f"  sha256 {label:26s} {digest}")
    print(f"  ops {attempted}  ops_failed {len(failures)}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {**machine_facts(args), "digests": digests, "failures": failures, **result}
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args):
    """Each workload in its own fresh interpreter, one after another."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in workloads.NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        code = max(code, proc.returncode)
        if proc.returncode not in (0, 1) or not lines:
            return code
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None):
    args = parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        import workloads

        workloads.prepare(args.workload, args.scale, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    cap_blas_threads()
    sys.exit(main())
