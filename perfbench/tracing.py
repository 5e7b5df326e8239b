"""In-memory spans around the calls ``chaincombine.cli`` makes into each layer.

The traced run replaces every function that ``chaincombine.cli`` imports
from another ``chaincombine`` module (``read_bundle``,
``semiparametric_dpe``, ``relative_l2_distance``, ...) with a wrapper that
records one span per call, so the package itself is left untouched.  A
span is a dict with ``id``, ``parent``, ``run``, ``name``, ``start``,
``end`` (``time.perf_counter`` seconds) and ``attrs``.  Spans are named
``<layer>.<function>``, the layer being the defining module.  The
per-layer metrics are derived from the spans of one pipeline repetition
by :func:`layer_metrics`.
"""

import functools
import inspect
import json
import os
import time
from contextlib import contextmanager

from chaincombine import cli, combiners, density


def _attrs_mh(args):
    config = args["config"]
    rows = len(args["y"])
    return {"rows": rows, "steps": config.burnin + config.iterations * config.thin}


def _attrs_dpe(args):
    config = args["config"] or combiners.DpeConfig()
    return {"T": args["bundle"].T, "anneal": bool(config.anneal)}


# Cheap facts taken from the arguments before the call; file sizes are
# read after the repetition so that no span pays for them.
ATTRS = {
    "harness.sample_logistic_posterior": _attrs_mh,
    "harness.sample_gamma_posterior": _attrs_mh,
    "combiners.semiparametric_dpe": _attrs_dpe,
    "density.relative_l2_distance": lambda a: {
        "points": len(a["full_samples"]) + len(a["combined_samples"])
    },
    "io.read_bundle": lambda a: {"path": str(a["manifest_path"])},
    "io.write_bundle": lambda a: {"path": str(a["manifest_path"])},
    "io.read_samples": lambda a: {"path": str(a["path"])},
    "io.write_samples": lambda a: {"path": str(a["path"])},
}

PER_LAYER = {
    "harness.simulate_s": "s",
    "harness.partition_s": "s",
    "harness.shard_chain_s": "s",
    "harness.shard_chain_max_s": "s",
    "harness.full_chain_s": "s",
    "harness.mh_steps": "count",
    "harness.shard_step_us": "us",
    "harness.full_step_us": "us",
    "combiners.sample_average_s": "s",
    "combiners.consensus_independent_s": "s",
    "combiners.consensus_covariance_s": "s",
    "combiners.dpe_anneal_s": "s",
    "combiners.dpe_fixed_s": "s",
    "combiners.dpe_iter_us": "us",
    "io.read_bundle_s": "s",
    "io.write_bundle_s": "s",
    "io.read_samples_s": "s",
    "io.write_samples_s": "s",
    "io.bytes_read": "count",
    "io.bytes_written": "count",
    "io.read_MBps": "MB/s",
    "io.write_MBps": "MB/s",
    "density.rel_l2_calls": "count",
    "density.rel_l2_s": "s",
    "density.kernel_evals": "count",
    "density.ns_per_kernel_eval": "ns",
    "core.validate_s": "s",
    "core.shuffle_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Records nested spans; ``run`` tags the spans of one repetition."""

    def __init__(self):
        self.spans = []
        self.run = None
        self._stack = []
        self._next_id = 1

    @contextmanager
    def span(self, name, attrs=None):
        record = {
            "id": self._next_id,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run": self.run,
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "attrs": attrs or {},
        }
        self._next_id += 1
        self._stack.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)
        annotate = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = None
            if annotate is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = annotate(bound.arguments)
            with self.span(name, attrs):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def instrument(self):
        """Swap ``chaincombine.cli``'s imported layer functions for traced ones."""
        originals = {
            attr: obj
            for attr, obj in vars(cli).items()
            if inspect.isfunction(obj)
            and obj.__module__.startswith("chaincombine.")
            and obj.__module__ != cli.__name__
        }
        try:
            for attr, fn in originals.items():
                layer = fn.__module__.rsplit(".", 1)[1]
                setattr(cli, attr, self._wrap(f"{layer}.{fn.__name__}", fn))
            yield
        finally:
            for attr, fn in originals.items():
                setattr(cli, attr, fn)


def _duration(span):
    return span["end"] - span["start"]


def _bundle_bytes(manifest_path):
    with open(manifest_path) as handle:
        files = json.load(handle)["machine_files"]
    directory = os.path.dirname(manifest_path)
    return os.path.getsize(manifest_path) + sum(
        os.path.getsize(os.path.join(directory, name)) for name in files
    )


def layer_metrics(spans):
    """Per-layer metrics of one repetition; layers it never calls read 0."""
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def total(name):
        return sum(map(_duration, by_name.get(name, ())))

    out = dict.fromkeys(PER_LAYER, 0.0)

    out["harness.simulate_s"] = total("harness.simulate_logistic_data") + total(
        "harness.simulate_gamma_data"
    )
    out["harness.partition_s"] = total("harness.partition_rows")
    chains = by_name.get("harness.sample_logistic_posterior", []) + by_name.get(
        "harness.sample_gamma_posterior", []
    )
    if chains:
        # The full-data chain is the one that sees every row.
        full_rows = max(s["attrs"]["rows"] for s in chains)
        full = [s for s in chains if s["attrs"]["rows"] == full_rows]
        shards = [s for s in chains if s["attrs"]["rows"] < full_rows]
        out["harness.full_chain_s"] = sum(map(_duration, full))
        out["harness.shard_chain_s"] = sum(map(_duration, shards))
        out["harness.shard_chain_max_s"] = max(map(_duration, shards), default=0.0)
        full_steps = sum(s["attrs"]["steps"] for s in full)
        shard_steps = sum(s["attrs"]["steps"] for s in shards)
        out["harness.mh_steps"] = full_steps + shard_steps
        out["harness.full_step_us"] = 1e6 * out["harness.full_chain_s"] / full_steps
        if shard_steps:
            out["harness.shard_step_us"] = 1e6 * out["harness.shard_chain_s"] / shard_steps

    out["combiners.sample_average_s"] = total("combiners.sample_average")
    out["combiners.consensus_independent_s"] = total("combiners.consensus_independent")
    out["combiners.consensus_covariance_s"] = total("combiners.consensus_covariance")
    dpe = by_name.get("combiners.semiparametric_dpe", [])
    out["combiners.dpe_anneal_s"] = sum(_duration(s) for s in dpe if s["attrs"]["anneal"])
    out["combiners.dpe_fixed_s"] = sum(_duration(s) for s in dpe if not s["attrs"]["anneal"])
    if dpe:
        iterations = sum(s["attrs"]["T"] for s in dpe)
        out["combiners.dpe_iter_us"] = 1e6 * sum(map(_duration, dpe)) / iterations

    for kind in ("read", "write"):
        bundle_spans = by_name.get(f"io.{kind}_bundle", [])
        sample_spans = by_name.get(f"io.{kind}_samples", [])
        out[f"io.{kind}_bundle_s"] = sum(map(_duration, bundle_spans))
        out[f"io.{kind}_samples_s"] = sum(map(_duration, sample_spans))
        moved = sum(_bundle_bytes(s["attrs"]["path"]) for s in bundle_spans) + sum(
            os.path.getsize(s["attrs"]["path"]) for s in sample_spans
        )
        out["io.bytes_read" if kind == "read" else "io.bytes_written"] = moved
        seconds = out[f"io.{kind}_bundle_s"] + out[f"io.{kind}_samples_s"]
        if seconds > 0.0:
            out[f"io.{kind}_MBps"] = moved / seconds / 1e6

    rel_l2 = by_name.get("density.relative_l2_distance", [])
    if rel_l2:
        evals = sum(density.GRID_SIZE * s["attrs"]["points"] for s in rel_l2)
        busy = sum(map(_duration, rel_l2))
        out["density.rel_l2_calls"] = len(rel_l2)
        out["density.rel_l2_s"] = busy / len(rel_l2)
        out["density.kernel_evals"] = evals
        out["density.ns_per_kernel_eval"] = 1e9 * busy / evals

    out["core.validate_s"] = total("core.validate_bundle")
    out["core.shuffle_s"] = total("core.shuffle_within_machines")

    child_time = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + _duration(span)
    out["cli.self_s"] = sum(
        _duration(s) - child_time.get(s["id"], 0.0)
        for s in spans
        if s["name"].startswith("cli.")
    )
    return out
