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
* ``tests/golden/second_market_*`` — a second ground truth derived from the
  calibrated one and the survey it generates, covering what the bundled
  market does not: outcome threshold 9, a competitor with its own leaf
  profile and class shifts, supplier blocks not in canonical order, and a
  supplier with no respondents

Everything here is deterministic, so rerunning the script after an algorithm
change either reproduces the files byte-for-byte or shows exactly what
drifted.  Run from the repository root::

    python3 tools/build_fixture.py            # rewrite every file
    python3 tools/build_fixture.py --check    # rebuild elsewhere and compare

``--check`` builds into a temporary directory, writes nothing in the
repository, and exits 1 naming each file whose bytes differ from the
checked-in one (0 when none does).
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
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
    COMPETITOR_CLASS,
    GroundTruth,
    calibrate_to_tables,
    canonical_targets,
    generate_market,
    save_truth,
)
from cvmkit.survey import OutcomeKind, split_by_supplier, write_survey  # noqa: E402

DATA = REPO / "src" / "cvmkit" / "data"
GOLDEN = REPO / "tests" / "golden"


def second_market(truth: GroundTruth) -> GroundTruth:
    """The second golden market: ``truth`` with every generator branch moved."""
    second = truth.copy()
    second.name = "automobile market, second configuration"
    second.seed = 7
    second.n_per_supplier = {"comp_b": 80, "our_co": 160, "comp_c": 0, "comp_a": 120}
    second.outcome_threshold = 9
    second.decision_maker_share = 0.55
    second.halo_sd = 0.8
    competitors = truth.leaf_means[COMPETITOR_CLASS]
    second.leaf_means["comp_a"] = {
        leaf: min(10.0, mean + 0.7 - 0.3 * (j % 4))
        for j, (leaf, mean) in enumerate(competitors.items())
    }
    second.class_shift["comp_a"] = {"quality": 0.3, "price": -0.4, "delivery_process": 0.25}
    return second


def build(data: Path, golden: Path) -> list[Path]:
    """Write every fixture file under ``data`` and every golden under ``golden``."""
    tree = automobile_tree()
    print("calibrating canonical targets ...")
    truth = calibrate_to_tables(canonical_targets(tree))
    sample = generate_market(truth)
    second = second_market(truth)
    data.mkdir(parents=True, exist_ok=True)
    golden.mkdir(parents=True, exist_ok=True)
    written = [data / "market_truth.json", data / "market_survey.csv",
               golden / "second_market_truth.json", golden / "second_market_survey.csv"]
    save_truth(truth, written[0])
    write_survey(sample, written[1])
    save_truth(second, written[2])
    write_survey(generate_market(second), written[3])

    texts = {}

    own, competitors = split_by_supplier(sample)
    hierarchy = fit_hierarchy(sample, tree)
    for parent in ("worth_what_paid_for", "quality", "delivery_process"):
        table = profile_table(hierarchy, own, competitors, parent)
        texts[golden / f"profile_{parent}.txt"] = render_profile_table(table)

    report = competitive_report(sample, hierarchy, target=0.80)
    texts[golden / "report.txt"] = render_report(report)

    # Each case below lacks a part on purpose, and warns about it.
    without_delivery = dataclasses.replace(
        hierarchy,
        models={k: m for k, m in hierarchy.models.items() if k != "delivery_process"},
        unfit={"delivery_process": "too few complete cases"},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        texts[golden / "report_own_only.txt"] = render_report(
            competitive_report(own, fit_hierarchy(own, tree), target=0.80)
        )
        texts[golden / "report_without_delivery_process.txt"] = render_report(
            competitive_report(
                sample, without_delivery, OutcomeKind.REPURCHASE, threshold=9, target=0.80
            )
        )
        texts[golden / "nps.txt"] = render_nps_vs_cva(nps_vs_cva_report(sample))
        texts[golden / "nps_own_only.txt"] = render_nps_vs_cva(nps_vs_cva_report(own))

    for path, text in texts.items():
        path.write_text(text, encoding="utf-8")
    return written + list(texts)


def main(argv: list[str]) -> int:
    if argv not in ([], ["--check"]):
        print("usage: build_fixture.py [--check]", file=sys.stderr)
        return 2
    if not argv:
        for path in build(DATA, GOLDEN):
            print(f"wrote {path.relative_to(REPO)}")
        return 0
    with tempfile.TemporaryDirectory() as scratch:
        built = Path(scratch)
        drifted = []
        for path in build(built / "data", built / "golden"):
            home = DATA if path.parent.name == "data" else GOLDEN
            checked_in = home / path.name
            if not checked_in.is_file() or checked_in.read_bytes() != path.read_bytes():
                drifted.append(checked_in.relative_to(REPO))
    for path in drifted:
        print(f"drifted: {path}")
    if drifted:
        return 1
    print("no file drifted")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
