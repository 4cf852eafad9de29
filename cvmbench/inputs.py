"""Set-up step of the benchmark: make one workload's inputs and references.

Run in a fresh process by ``run.py`` (``python3 cvmbench/inputs.py WORKLOAD
SEED OUTDIR [PANEL_SCALE]``) so that its memory is returned before the
measured operations start.  It writes into OUTDIR:

* ``wave-2k-cli``: ``seed_config.json`` (the bundled ground truth with the
  workload seed), ``survey.csv`` (``generate_market`` of it) and
  ``reference.json``;
* ``panel-200k``: ``survey.csv`` (the bundled truth with every supplier's
  sample size times PANEL_SCALE, a seeded 5% of rating and outcome cells
  blanked) and ``reference.json``;
* ``calibrate``: ``targets.json`` (the canonical calibration targets as plain
  data);

and, for every workload, ``env.json`` with what this child process saw of
numpy, its BLAS and the BLAS thread variables.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np

import reference

BLANK_SHARE = 0.05
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):  # numpy without dict-mode show_config
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARIABLES},
    }


def bundled_truth_records(root: Path) -> dict:
    return json.loads((root / "src/cvmkit/data/market_truth.json").read_text(encoding="utf-8"))


def make_wave(root: Path, seed: int, out: Path) -> None:
    from cvmkit.simulate import generate_market, load_truth
    from cvmkit.survey import write_survey

    records = bundled_truth_records(root)
    records["seed"] = seed
    (out / "seed_config.json").write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")
    truth = load_truth(out / "seed_config.json")
    write_survey(generate_market(truth), out / "survey.csv")
    write_reference(root, out, truth.own_supplier)


def make_panel(root: Path, seed: int, out: Path, scale: int) -> None:
    from cvmkit.simulate import generate_market, truth_from_records
    from cvmkit.survey import write_survey

    records = bundled_truth_records(root)
    records["seed"] = seed
    records["n_per_supplier"] = {k: v * scale for k, v in records["n_per_supplier"].items()}
    truth = truth_from_records(records)
    path = out / "survey.csv"
    write_survey(generate_market(truth), path)
    survey = reference.read_survey(path)
    blank = np.random.default_rng(seed).random(survey.values.shape) < BLANK_SHARE
    survey.values[blank] = -1
    reference.write_survey(path, survey)
    write_reference(root, out, truth.own_supplier)


def write_reference(root: Path, out: Path, own: str) -> None:
    survey = reference.read_survey(out / "survey.csv")
    tree = reference.read_tree(root / "src/cvmkit/data/automobile.tree")
    ref = reference.build(survey, tree, own)
    (out / "reference.json").write_text(json.dumps(ref), encoding="utf-8")


def make_calibrate(out: Path) -> None:
    from cvmkit.datasets import automobile_tree
    from cvmkit.simulate import canonical_targets

    targets = canonical_targets(automobile_tree())
    document = {
        "own": targets.initial.own_supplier,
        "outcome_threshold": targets.initial.outcome_threshold,
        "cells": [
            {"parent": c.parent, "child": c.child, "weight": c.weight, "own_mean": c.own_mean,
             "competitor_mean": c.competitor_mean, "relative": c.relative}
            for c in targets.cells
        ],
        "nodes": [
            {"node": n.node, "own_mean": n.own_mean, "competitor_mean": n.competitor_mean,
             "relative": n.relative}
            for n in targets.nodes
        ],
        "r_squared": dict(targets.r_squared),
        "loyalty_points": [list(p) for p in targets.loyalty_points],
    }
    (out / "targets.json").write_text(json.dumps(document, indent=2), encoding="utf-8")


def main(argv: list[str]) -> int:
    workload, seed, out = argv[0], int(argv[1]), Path(argv[2])
    scale = int(argv[3]) if len(argv) > 3 else 100
    root = Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    if workload == "wave-2k-cli":
        make_wave(root, seed, out)
    elif workload == "panel-200k":
        make_panel(root, seed, out, scale)
    elif workload == "calibrate":
        make_calibrate(out)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    (out / "env.json").write_text(json.dumps(environment()), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
