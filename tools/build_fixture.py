#!/usr/bin/env python3
"""Rebuild the bundled market fixture and the golden render files.

Calibrates the canonical automobile-market ground truth, regenerates its
survey sample, and freezes everything the test suite compares against:

* ``src/cvmkit/data/market_truth.json``  — the calibrated ground truth
* ``src/cvmkit/data/market_survey.csv``  — the generated survey sample
* ``tests/golden/profile_*.txt``         — rendered profile tables
* ``tests/golden/report.txt``            — full text report (what `report` prints)
* ``tests/golden/report_*.txt``, ``nps*.txt`` — the text of the report and
  NPS branches the full report does not reach: an own-only survey, a saved
  fit without ``delivery_process`` and a loyalty target beyond the curve,
  and ``nps`` with and without its NPS-vs-CVA section

Everything here is deterministic, so rerunning the script after an algorithm
change either reproduces the files byte-for-byte or shows exactly what
drifted.  Run from the repository root::

    python3 tools/build_fixture.py
"""

from __future__ import annotations

import dataclasses
import sys
import warnings
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))  # the checkout's package, installed or not

from cvmkit.analytics import competitive_report, profile_table  # noqa: E402
from cvmkit.datasets import automobile_tree  # noqa: E402
from cvmkit.nps import nps_vs_cva_report  # noqa: E402
from cvmkit.regression import fit_hierarchy  # noqa: E402
from cvmkit.rendering import (  # noqa: E402
    render_nps_vs_cva,
    render_profile_table,
    render_report,
)
from cvmkit.simulate import (  # noqa: E402
    calibrate_to_tables,
    canonical_targets,
    generate_market,
    save_truth,
)
from cvmkit.survey import OutcomeKind, split_by_supplier, write_survey  # noqa: E402

DATA = REPO / "src" / "cvmkit" / "data"
GOLDEN = REPO / "tests" / "golden"


def main() -> int:
    tree = automobile_tree()
    print("calibrating canonical targets ...")
    truth = calibrate_to_tables(canonical_targets(tree))
    sample = generate_market(truth)

    DATA.mkdir(parents=True, exist_ok=True)
    save_truth(truth, DATA / "market_truth.json")
    write_survey(sample, DATA / "market_survey.csv")
    print(f"wrote {DATA / 'market_truth.json'}")
    print(f"wrote {DATA / 'market_survey.csv'}  ({len(sample)} respondents)")

    own, competitors = split_by_supplier(sample)
    hierarchy = fit_hierarchy(sample, tree)
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for parent in ("worth_what_paid_for", "quality", "delivery_process"):
        table = profile_table(hierarchy, own, competitors, parent)
        path = GOLDEN / f"profile_{parent}.txt"
        path.write_text(render_profile_table(table), encoding="utf-8")
        print(f"wrote {path}")

    report = competitive_report(sample, hierarchy, target=0.80)
    (GOLDEN / "report.txt").write_text(render_report(report), encoding="utf-8")
    print(f"wrote {GOLDEN / 'report.txt'}")

    # Each case below lacks a part on purpose, and warns about it.
    without_delivery = dataclasses.replace(
        hierarchy,
        models={k: m for k, m in hierarchy.models.items() if k != "delivery_process"},
        unfit={"delivery_process": "too few complete cases"},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        branches = {
            "report_own_only.txt": render_report(
                competitive_report(own, fit_hierarchy(own, tree), target=0.80)
            ),
            "report_without_delivery_process.txt": render_report(
                competitive_report(
                    sample, without_delivery, OutcomeKind.REPURCHASE, threshold=9, target=0.80
                )
            ),
            "nps.txt": render_nps_vs_cva(nps_vs_cva_report(sample)),
            "nps_own_only.txt": render_nps_vs_cva(nps_vs_cva_report(own)),
        }
    for name, text in branches.items():
        (GOLDEN / name).write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN / name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
