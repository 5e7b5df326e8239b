#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at the tiny "smoke" scale.

Run from the root of a checkout (takes about a minute)::

    python3 perfbench/smoke.py

It checks that every workload, untraced and traced, finishes with no
failed operation and emits exactly the metrics BENCHMARK.json names,
with their units; that a traced run reproduces the untraced run's output
digests in a separate process with the same seed; that a wrong, missing
or crashing combiner makes the run fail with a non-zero exit code; and
that a directory holding only the benchmark (no ``src/``) makes it exit
non-zero without printing a result.  Exits 0 when all of that holds.
"""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SMOKE = ["--seed", "3", "--seconds", "1", "--scale", "smoke"]

sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_runs(problems):
    for workload in ("logistic-pipeline", "gamma-dpe", "wide-consensus"):
        for trace in (0, 1):
            argv = [sys.executable, str(RUN), "--workload", workload, "--trace", str(trace),
                    *SMOKE]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit code {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['attempted']} ops, {result['failed']} failed")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected_metrics(trace):
                problems.append(f"{where}: metrics {units}")
        records = [json.loads((bench.OUT / f"{workload}-seed3-trace{t}.json").read_text())
                   for t in (0, 1)]
        if records[0]["digests"] != records[1]["digests"]:
            problems.append(f"{workload}: traced digests differ from untraced ones")


def check_faults(problems):
    """Broken combiners must turn into failed operations and exit code 1."""
    bench.import_package()
    from chaincombine import cli
    from chaincombine.core import CombinedSamples

    original = cli.consensus_covariance

    def crash(bundle):
        raise RuntimeError("injected fault")

    faults = {
        "out-of-band": lambda bundle: CombinedSamples(3.0 * original(bundle).values),
        "wrong-shape": lambda bundle: CombinedSamples(original(bundle).values[:-1]),
        "crash": crash,
    }
    for fault, combiner in faults.items():
        cli.consensus_covariance = combiner
        stdout = io.StringIO()
        try:
            with redirect_stdout(stdout):
                code = bench.main(["--workload", "wide-consensus", "--trace", "0", *SMOKE])
        finally:
            cli.consensus_covariance = original
        result = json.loads(stdout.getvalue().strip().splitlines()[-1])
        if code != 1 or result["correct"] or result["failed"] < 1:
            problems.append(f"fault {fault}: exit code {code}, result {result}")


def check_bare_directory(problems):
    bare = bench.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "gamma-dpe", *SMOKE],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit code {proc.returncode}, stdout {proc.stdout!r}")


def main():
    bench.cap_blas_threads()
    problems = []
    check_runs(problems)
    check_faults(problems)
    check_bare_directory(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
