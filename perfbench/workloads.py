"""The benchmark's workloads and the checks on their outputs.

One repetition of a workload is a batch pipeline run in process, one
stage after another, through ``chaincombine.cli.main``: a ``harness``
call (or, on wide-consensus, the bundle write it would end with), one
``combine --shuff`` per method and one ``metric`` per combined file.
Every CLI call is one operation.  An operation fails on a non-zero exit
code, an exception, an output of the wrong shape or with non-finite
values, a relative L2 distance outside the workload's band, or output
bytes that differ from the first repetition's (every repetition uses
the same seed, so the outputs must repeat exactly).
"""

import hashlib
import io
import json
import math
import resource
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from chaincombine import cli
from chaincombine.core import CombinedSamples, SubposteriorBundle

# BENCHMARK.json lists only the first two.  On a shared 2-vCPU host the
# machine's speed wanders by 10-25% over tens of seconds; two workloads
# leave room in the run budget for 55 s runs, where three allowed only
# about 36 s.  wide-consensus stays runnable by hand.
NAMES = ("logistic-pipeline", "gamma-dpe", "wide-consensus")

# Problem sizes per scale: "full" is what the benchmark measures,
# "smoke" is a tiny run that exercises every code path in about a second.
SIZES = {
    "logistic-pipeline": {
        "full": {"n": 20_000, "shards": 5, "iters": 1_000, "burnin": 500, "thin": 2},
        "smoke": {"n": 2_000, "shards": 5, "iters": 200, "burnin": 100, "thin": 1},
    },
    "gamma-dpe": {
        "full": {"n": 50_000, "shards": 5, "iters": 2_500, "burnin": 500, "thin": 1},
        "smoke": {"n": 2_000, "shards": 5, "iters": 300, "burnin": 100, "thin": 1},
    },
    "wide-consensus": {
        "full": {"d": 10, "machines": 10, "draws": 5_000},
        "smoke": {"d": 3, "machines": 4, "draws": 400},
    },
}

SAMPLE_AVG = ("sample-avg", ("--method", "sample-avg"))
CONSENSUS_INDEP = ("consensus-indep", ("--method", "consensus-indep"))
CONSENSUS_COV = ("consensus-cov", ("--method", "consensus-cov"))
DPE_ANNEAL = ("dpe-anneal", ("--method", "semiparam-dpe"))
DPE_FIXED = ("dpe-fixed", ("--method", "semiparam-dpe", "--no-anneal"))

METHODS = {
    "logistic-pipeline": (SAMPLE_AVG, CONSENSUS_INDEP, CONSENSUS_COV, DPE_ANNEAL),
    "gamma-dpe": (DPE_ANNEAL, DPE_FIXED, CONSENSUS_COV),
    "wide-consensus": (SAMPLE_AVG, CONSENSUS_INDEP, CONSENSUS_COV),
}

# Largest accepted per-marginal relative L2 distance to the reference
# (the full-data chain, or the exact product draws on wide-consensus),
# per method and scale, set at about twice the largest distance seen over
# twelve to twenty seeds; smoke-scale chains are tiny, so their bands
# only catch gross errors.
# Methods without a band are checked for finiteness only: sample-avg and
# consensus-indep are not exact for the correlated Gaussians of
# wide-consensus.
BANDS = {
    "logistic-pipeline": {
        "full": dict.fromkeys(("sample-avg", "consensus-indep", "consensus-cov", "dpe-anneal"), 0.8),
        "smoke": dict.fromkeys(("sample-avg", "consensus-indep", "consensus-cov", "dpe-anneal"), 2.0),
    },
    "gamma-dpe": {
        "full": dict.fromkeys(("dpe-anneal", "dpe-fixed", "consensus-cov"), 0.5),
        "smoke": dict.fromkeys(("dpe-anneal", "dpe-fixed", "consensus-cov"), 1.0),
    },
    "wide-consensus": {
        "full": {"consensus-cov": 0.15},
        "smoke": {"consensus-cov": 0.5},
    },
}


@dataclass(frozen=True)
class GaussianInputs:
    """Gaussian subposteriors and draws from their exact normalized product."""

    bundle: SubposteriorBundle  # (d, T, M)
    oracle: CombinedSamples     # (d, T)


def gaussian_inputs(seed, d, machines, draws):
    """Correlated Gaussian machine draws plus exact product draws.

    The product moments come from plain precision sums here, not from the
    package, so the consensus-cov check has an independent reference.
    """
    rng = np.random.default_rng(seed)
    center = rng.standard_normal(d)
    means, covs = [], []
    for _ in range(machines):
        a = rng.standard_normal((d, d)) / np.sqrt(d)
        covs.append(a @ a.T + 0.25 * np.eye(d))
        means.append(center + 0.5 * rng.standard_normal(d))
    precisions = [np.linalg.inv(c) for c in covs]
    cov_star = np.linalg.inv(np.sum(precisions, axis=0))
    mean_star = cov_star @ np.sum([p @ m for p, m in zip(precisions, means)], axis=0)

    def sample(mean, cov):
        return mean[:, None] + np.linalg.cholesky(cov) @ rng.standard_normal((d, draws))

    values = np.stack([sample(m, c) for m, c in zip(means, covs)], axis=2)
    return GaussianInputs(
        bundle=SubposteriorBundle(values),
        oracle=CombinedSamples(sample(mean_star, cov_star)),
    )


def prepare(name, scale, seed):
    """The benchmark's own input preparation, done once per run."""
    if name == "wide-consensus":
        return gaussian_inputs(seed, **SIZES[name][scale])
    return None


def _cpu_seconds():
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _sha256(paths):
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


@dataclass
class Repetition:
    """Timings and operation outcomes of one pipeline repetition."""

    stages: dict   # harness / combine / metric -> wall seconds
    cpu_s: float
    ops: int
    failures: list  # "<operation>: <reason>" strings

    @property
    def pipeline_s(self):
        return sum(self.stages.values())


class Pipeline:
    """One workload at one scale and seed, run repeatedly in ``workdir``."""

    def __init__(self, name, scale, seed, workdir):
        self.name = name
        self.seed = seed
        self.sizes = SIZES[name][scale]
        self.bands = BANDS[name][scale]
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.inputs = prepare(name, scale, seed)
        self.run_dir = self.workdir / "run"
        self.bundle_path = self.run_dir / "bundle.json"
        if name == "wide-consensus":
            self.reference = self.run_dir / "oracle.csv"
            self.d = self.sizes["d"]
            self.T = self.sizes["draws"]
        else:
            self.reference = self.run_dir / "full_chain.csv"
            self.d = len(cli.LOGISTIC_BETA) if name == "logistic-pipeline" else 2
            self.T = self.sizes["iters"]
        self.digests = {}

    def harness_argv(self):
        s = self.sizes
        model = "logistic" if self.name == "logistic-pipeline" else "gamma"
        return [
            "harness", "--model", model, "--n", str(s["n"]), "--shards", str(s["shards"]),
            "--iters", str(s["iters"]), "--burnin", str(s["burnin"]),
            "--thin", str(s["thin"]), "--seed", str(self.seed),
            "--out-dir", str(self.run_dir),
        ]

    def run_once(self, tracer=None):
        """Run every stage once; ``tracer`` (optional) records spans."""
        stages = {"harness": 0.0, "combine": 0.0, "metric": 0.0}
        failures = []
        ops = 0
        cpu = 0.0

        def span(name):
            return tracer.span(name) if tracer is not None else nullcontext()

        def timed(stage, name, action):
            nonlocal cpu
            cpu0 = _cpu_seconds()
            t0 = time.perf_counter()
            with span(name):
                result = action()
            stages[stage] += time.perf_counter() - t0
            cpu += _cpu_seconds() - cpu0
            return result

        def op(stage, label, argv, outputs):
            nonlocal ops
            ops += 1
            code, stdout = timed(stage, f"cli.{argv[0]}", lambda: _call_cli(argv))
            problem = self._check(label, code, stdout, outputs)
            if problem:
                failures.append(f"{label}: {problem}")

        with span("pipeline"):
            if self.inputs is None:
                op("harness", "harness", self.harness_argv(), self._harness_outputs())
            else:
                timed("harness", "bench.write_inputs", self._write_inputs)
            combined = {}
            for label, method_args in METHODS[self.name]:
                combined[label] = self.workdir / f"{label}.csv"
                argv = ["combine", *method_args, "--shuff", "--seed", str(self.seed),
                        "--bundle", str(self.bundle_path), "--out", str(combined[label])]
                op("combine", f"combine:{label}", argv, [combined[label]])
            for label, path in combined.items():
                argv = ["metric", "--full", str(self.reference), "--combined", str(path)]
                op("metric", f"metric:{label}", argv, [])
        return Repetition(stages=stages, cpu_s=cpu, ops=ops, failures=failures)

    def _write_inputs(self):
        # Looked up on the cli module so that a traced run sees these calls.
        cli.write_bundle(self.inputs.bundle, self.bundle_path, seed=self.seed)
        cli.write_samples(self.reference, self.inputs.oracle)

    def _harness_outputs(self):
        machines = [self.run_dir / f"machine_{m + 1}.csv" for m in range(self.sizes["shards"])]
        return [self.bundle_path, *machines, self.reference]

    def _check(self, label, code, stdout, outputs):
        """The reason operation ``label`` failed, or None."""
        if code != 0:
            return f"exit code {code}"
        if label.startswith("metric:"):
            problem = self._check_distances(label.split(":", 1)[1], stdout)
            if problem:
                return problem
            digest = hashlib.sha256(stdout.encode()).hexdigest()
        else:
            missing = [p.name for p in outputs if not p.is_file()]
            if missing:
                return f"missing output {missing}"
            digest = _sha256(outputs)
        if label in self.digests:
            # Later repetitions must repeat the first one byte for byte.
            if self.digests[label] != digest:
                return "output differs from the first repetition with the same seed"
            return None
        self.digests[label] = digest
        return self._check_matrices(outputs)

    def _check_matrices(self, outputs):
        for path in outputs:
            if path.suffix != ".csv":
                manifest = json.loads(path.read_text())
                if (manifest["d"], manifest["T"], manifest["M"]) != (
                    self.d, self.T, self.sizes["shards"]
                ):
                    return f"{path.name}: wrong dimensions"
                continue
            matrix = np.loadtxt(path, delimiter=",", ndmin=2)
            if matrix.shape != (self.T, self.d):
                return f"{path.name}: shape {matrix.shape}, expected {(self.T, self.d)}"
            if not np.isfinite(matrix).all():
                return f"{path.name}: non-finite values"
        return None

    def _check_distances(self, method, stdout):
        lines = stdout.strip().splitlines()
        if not lines or lines[0] != "parameter,relative_l2" or len(lines) != self.d + 1:
            return f"unexpected metric output {stdout[:80]!r}"
        band = self.bands.get(method, math.inf)
        for line in lines[1:]:
            distance = float(line.split(",")[1])
            if not (math.isfinite(distance) and 0.0 <= distance <= band):
                return f"relative L2 distance {distance} outside [0, {band}]"
        return None


def _call_cli(argv):
    """``chaincombine.cli.main(argv)`` with its stdout captured."""
    buffer = io.StringIO()
    try:
        with redirect_stdout(buffer):
            code = cli.main(argv)
    except Exception:
        traceback.print_exc()
        code = None
    return code, buffer.getvalue()
