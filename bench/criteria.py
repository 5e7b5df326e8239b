"""Ten-seed sweeps of acceptance criteria 3 and 4, written to one JSON file.

The runs, bands and rank rule are the acceptance tests' own, imported
from ``tests/test_acceptance.py`` (``criterion_3_distances``, ``BAND_3``,
``consensus_cov_top_two``; ``gamma_distances``, ``BAND_4``) and applied
to more seeds than the tests run.  It only reports; nothing fails.

    PYTHONPATH=src python3 bench/criteria.py --out bench/CRITERIA_28.json

Each seed records each method's distance, rank and margin to the band
(band minus distance), and the seed's wall time.  Criterion 3 takes
about 8 s a seed on two cores, criterion 4 about 1 s.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from test_acceptance import (  # noqa: E402
    BAND_3,
    BAND_4,
    consensus_cov_top_two,
    criterion_3_distances,
    gamma_distances,
)


def machine_facts():
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"commit": commit, "nproc": cores, "python": platform.python_version(),
            "numpy": np.__version__}


def sweep(run, band, seeds, rank_rule=None):
    """Run ``run(seed)`` per seed; returns the per-seed records and the
    counts of seeds that pass the band and, if given, ``rank_rule(distances)``."""
    records, band_pass, rank_pass = {}, 0, 0
    for seed in seeds:
        start = time.perf_counter()
        distances = run(seed)
        wall = time.perf_counter() - start
        ranked = sorted(distances, key=distances.get)
        record = {
            "distances": distances,
            "ranks": {name: ranked.index(name) + 1 for name in distances},
            "margins": {name: band - dist for name, dist in distances.items()},
            "band_ok": all(dist < band for dist in distances.values()),
            "wall_s": round(wall, 3),
        }
        band_pass += record["band_ok"]
        if rank_rule:
            record["rank_ok"] = rank_rule(distances)
            rank_pass += record["rank_ok"]
        records[str(seed)] = record
        print(f"seed {seed}: {json.dumps(distances)} {wall:.1f} s", file=sys.stderr)
    counts = {"band_pass": f"{band_pass}/{len(records)}"}
    if rank_rule:
        counts["rank_pass"] = f"{rank_pass}/{len(records)}"
    return {"band": band, **counts, "seeds": records}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    report = {"machine": machine_facts()}
    report["criterion_3"] = sweep(criterion_3_distances, BAND_3, range(1, 11),
                                  consensus_cov_top_two)
    report["criterion_4"] = sweep(gamma_distances, BAND_4, range(0, 10))
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
