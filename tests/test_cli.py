import csv
import dataclasses
import functools
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from cvmkit.analytics import competitive_report, profile_table
from cvmkit.cli import _fit_summary, main
from cvmkit.datasets import fixture_text, market_truth
from cvmkit.errors import CvmError
from cvmkit.regression import fit_hierarchy, hierarchy_from_records
from cvmkit.rendering import render_profile_table, render_report, report_records
from cvmkit.simulate import generate_market
from cvmkit.survey import ingest_responses, survey_text
from cvmkit.tree import parse_tree_spec

GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = Path(__file__).resolve().parent.parent / "src" / "cvmkit" / "data"
TREE = str(DATA / "automobile.tree")
SURVEY = str(DATA / "market_survey.csv")
TRUTH = str(DATA / "market_truth.json")
OWN = ["--own", "our_co"]
runner = CliRunner()


def invoke(*args):
    return runner.invoke(main, list(args))


def test_validate_tree_only():
    result = invoke("validate", "--tree", TREE)
    assert result.exit_code == 0
    assert "tree ok: 27 nodes, 7 internal, 20 leaves" in result.stdout


def test_validate_with_survey():
    result = invoke("validate", "--tree", TREE, "--survey", SURVEY, *OWN)
    assert result.exit_code == 0
    assert "survey ok: 2000 respondents" in result.stdout
    assert "our_co, comp_a, comp_b" in result.stdout


def test_validate_counts_suppliers_roles_and_blank_cells(tmp_path):
    result = invoke("validate", "--tree", TREE, "--survey", SURVEY, *OWN)
    assert result.stdout.splitlines()[2:] == [
        "respondents per supplier: our_co 1000, comp_a 500, comp_b 500",
        "roles: decision_maker 1604, user 396",  # as test_fixture_roles_lean_decision_maker
        "missing cells: none",
    ]
    header, *rows = list(csv.reader(fixture_text("market_survey.csv").splitlines()))[:4]
    rows[1][2] = "comp_a"
    for row, column in ((0, "quality"), (1, "quality"), (2, "outcome_recommend")):
        rows[row][header.index(column)] = ""
    survey = tmp_path / "blanks.csv"
    survey.write_text("".join(",".join(line) + "\n" for line in [header, *rows]))
    result = invoke("validate", "--tree", TREE, "--survey", str(survey), *OWN)
    assert result.exit_code == 0
    roles = [row[1] for row in rows]
    assert result.stdout.splitlines()[1:] == [
        "survey ok: 3 respondents, suppliers: our_co, comp_a",
        "respondents per supplier: our_co 2, comp_a 1",
        f"roles: decision_maker {roles.count('decision_maker')}, user {roles.count('user')}",
        "missing cells: quality 2, outcome_recommend 1",
    ]


def test_validate_names_the_row_of_a_non_utf8_byte(tmp_path):
    survey = tmp_path / "latin1.csv"
    lines = fixture_text("market_survey.csv").encode().splitlines(keepends=True)[:4]
    lines[2] = lines[2].replace(b",our_co,", b",caf\xe9,", 1)
    survey.write_bytes(b"".join(lines))
    result = invoke("validate", "--tree", TREE, "--survey", str(survey), *OWN)
    assert result.exit_code == 1
    assert result.stderr == "error: row 3: byte 0xe9 is not valid UTF-8\n"


def test_validate_names_the_line_of_a_non_utf8_tree_byte(tmp_path):
    tree = tmp_path / "latin1.tree"
    text = fixture_text("automobile.tree")
    tree.write_bytes(text.encode() + b"# caf\xe9\n")
    result = invoke("validate", "--tree", str(tree))
    assert result.exit_code == 1
    line = len(text.splitlines()) + 1
    assert result.stderr == f"error: line {line}: byte 0xe9 is not valid UTF-8\n"


def test_validate_accepts_a_byte_order_mark(tmp_path):
    survey = tmp_path / "excel.csv"
    survey.write_bytes(b"\xef\xbb\xbf" + fixture_text("market_survey.csv").encode())
    result = invoke("validate", "--tree", TREE, "--survey", str(survey), *OWN)
    assert result.exit_code == 0
    assert "survey ok: 2000 respondents" in result.stdout


def test_validate_missing_tree_file(tmp_path):
    result = invoke("validate", "--tree", str(tmp_path / "nope.tree"))
    assert result.exit_code == 1
    assert "tree file not found" in result.stderr


def test_validate_broken_tree(tmp_path):
    bad = tmp_path / "bad.tree"
    bad.write_text("tree: x\nroot: a\nnode: a | A | root | a\n")
    result = invoke("validate", "--tree", str(bad))
    assert result.exit_code == 1
    assert result.stderr.startswith("error:")


def test_validate_bad_rating_names_the_row(tmp_path):
    survey = tmp_path / "bad.csv"
    lines = fixture_text("market_survey.csv").splitlines(keepends=True)[:3]
    lines[2] = lines[2].replace(",7,", ",77,", 1)
    survey.write_text("".join(lines))
    result = invoke("validate", "--tree", TREE, "--survey", str(survey), *OWN)
    assert result.exit_code == 1
    assert "row 3" in result.stderr


def test_fit_prints_summary_and_writes_document(tmp_path):
    out = tmp_path / "fit.json"
    result = invoke("fit", "--tree", TREE, "--survey", SURVEY, *OWN, "--out", str(out))
    assert result.exit_code == 0
    assert "worth_what_paid_for: R^2 = 81%" in result.stdout
    assert "weights: quality=51%, price=35%" in result.stdout
    assert "quality: R^2 = 89%" in result.stdout
    document = json.loads(out.read_text())
    assert document["models"]["delivery_process"]["impact_weights"]["billing"] == 40
    log = Path(str(out) + ".log")
    assert log.exists()
    assert "fit" in log.read_text()
    # without a billing rating no respondent is a complete case of delivery_process
    header, *rows = fixture_text("market_survey.csv").splitlines(keepends=True)
    billing = header.split(",").index("billing")
    for k, row in enumerate(rows):
        cells = row.split(",")
        cells[billing] = ""
        rows[k] = ",".join(cells)
    survey = tmp_path / "no_billing.csv"
    survey.write_text(header + "".join(rows))
    result = invoke("fit", "--tree", TREE, "--survey", str(survey), *OWN)
    assert result.exit_code == 0
    assert (
        "delivery_process: not fitted (node 'delivery_process': 0 complete cases for 5 "
        "children; need at least 7)\n"
    ) in result.stdout


def test_an_r_squared_on_a_tie_rounds_half_away_from_zero(hierarchy, halves):
    # builtin round() takes 82.5 to 82; the package's rounding policy says 83
    root = hierarchy.tree.root
    model = hierarchy.models[root]
    tied = dataclasses.replace(model, fit=dataclasses.replace(model.fit, r_squared=0.825))
    summary = _fit_summary(dataclasses.replace(hierarchy, models={root: tied}, unfit={}))
    assert summary.startswith(f"{root}: R^2 = 83%, ")
    table = dataclasses.replace(profile_table(hierarchy, *halves, root), r_squared=0.825)
    assert "R^2 = 83%" in render_profile_table(table).splitlines()


def test_report_text_matches_golden():
    result = invoke(
        "report", "--tree", TREE, "--survey", SURVEY, *OWN, "--target-loyalty", "0.80"
    )
    assert result.exit_code == 0
    assert result.stderr == ""
    assert result.stdout == (GOLDEN / "report.txt").read_text()


def test_the_library_report_renders_the_golden_text_and_the_cli_records(sample, hierarchy):
    report = competitive_report(sample, hierarchy, target=0.80)
    assert render_report(report) == (GOLDEN / "report.txt").read_text()
    result = invoke("report", "--tree", TREE, "--survey", SURVEY, *OWN,
                    "--format", "records", "--target-loyalty", "0.80")
    assert result.exit_code == 0
    assert report_records(report) == result.stdout


def test_report_is_deterministic_on_disk(tmp_path):
    args = ["report", "--tree", TREE, "--survey", SURVEY, *OWN]
    first = tmp_path / "a.txt"
    second = tmp_path / "b.txt"
    assert invoke(*args, "--out", str(first)).exit_code == 0
    assert invoke(*args, "--out", str(second)).exit_code == 0
    assert first.read_bytes() == second.read_bytes()
    # the artifact carries no timestamp; the sidecar log does
    assert "20" not in first.read_text().split("\n")[0]
    assert Path(str(first) + ".log").exists()


def test_report_records_document():
    result = invoke("report", "--tree", TREE, "--survey", SURVEY, *OWN,
                    "--format", "records", "--target-loyalty", "0.80")
    assert result.exit_code == 0
    document = json.loads(result.stdout)
    assert document["cva"] == 97
    assert document["n_respondents"] == 2000
    assert len(document["tables"]) == 7
    root = next(t for t in document["tables"] if t["is_root"])
    weights = {r["node"]: r["impact_weight"] for r in root["rows"]}
    assert weights == {"quality": 51, "price": 35}
    assert document["priorities"][0]["node"] == "billing"
    assert document["loyalty_target"]["required_value_score"] == pytest.approx(
        7.795, abs=0.01
    )
    assert {p["supplier"] for p in document["value_map"]} == {
        "our_co", "comp_a", "comp_b",
    }


def test_report_plotdata_writes_csvs(tmp_path):
    stem = str(tmp_path / "plots")
    result = invoke("report", "--tree", TREE, "--survey", SURVEY, *OWN,
                    "--format", "plotdata", "--out", stem)
    assert result.exit_code == 0
    curve = Path(stem + "_loyalty_curve.csv").read_text().splitlines()
    assert curve[0] == "value_score,proportion_willing,raw_proportion"
    assert len(curve) == 8  # header + bins 4..10
    vmap = Path(stem + "_value_map.csv").read_text().splitlines()
    assert vmap[0] == "supplier,relative_quality,relative_price,zone"
    assert len(vmap) == 4


def test_report_plotdata_quotes_a_supplier_label_with_a_comma(tmp_path):
    survey = tmp_path / "acme.csv"
    survey.write_text(fixture_text("market_survey.csv").replace(",comp_a,", ',"Acme, Inc.",'))
    stem = str(tmp_path / "plots")
    result = invoke("report", "--tree", TREE, "--survey", str(survey), *OWN,
                    "--format", "plotdata", "--out", stem)
    assert result.exit_code == 0
    with open(stem + "_value_map.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert all(len(row) == 4 for row in rows)
    assert [row[0] for row in rows[1:]] == ["our_co", "Acme, Inc.", "comp_b"]


def test_report_plotdata_requires_out():
    result = invoke("report", "--tree", TREE, "--survey", SURVEY, *OWN,
                    "--format", "plotdata")
    assert result.exit_code == 1
    assert "--out" in result.stderr


def test_report_plotdata_without_out_is_refused_before_the_survey_is_read(tmp_path):
    result = invoke("report", "--tree", TREE, "--survey", str(tmp_path / "absent.csv"), *OWN,
                    "--format", "plotdata")
    assert result.exit_code == 1
    assert result.stderr == "error: --format plotdata needs --out STEM to name its files\n"


@pytest.mark.parametrize("command", ["validate", "fit", "report", "nps"])
def test_a_header_only_survey_warns_on_a_warning_line(tmp_path, command):
    header_only = tmp_path / "header.csv"
    header_only.write_text(fixture_text("market_survey.csv").splitlines(keepends=True)[0])
    result = invoke(command, "--tree", TREE, "--survey", str(header_only), *OWN)
    assert result.stderr.splitlines()[0] == "warning: survey has a header but no respondent rows"
    assert "UserWarning" not in result.stderr


def test_report_without_competitors_warns_but_succeeds(tmp_path):
    own_only = tmp_path / "own.csv"
    lines = [
        line
        for line in fixture_text("market_survey.csv").splitlines(keepends=True)
        if line.startswith("respondent_id") or ",our_co," in line
    ]
    own_only.write_text("".join(lines))
    result = invoke("report", "--tree", TREE, "--survey", str(own_only), *OWN)
    assert result.exit_code == 0
    assert "no competitor respondents" in result.stderr
    assert "value map" not in result.stdout.lower()


def _fixture_cells():
    """The bundled survey as (header, rows), each a list of cells."""
    header, *rows = (line.split(",") for line in fixture_text("market_survey.csv").splitlines())
    return header, rows


def _without_column(header, rows, name):
    drop = header.index(name)
    return header[:drop] + header[drop + 1:], [row[:drop] + row[drop + 1:] for row in rows]


def _write_cells(path, header, rows) -> str:
    path.write_text("".join(",".join(cells) + "\n" for cells in [header, *rows]))
    return str(path)


def _three_driver_tree(tmp_path) -> str:
    """The bundled tree with quality's two children as drivers of the root beside price."""
    tree = tmp_path / "three.tree"
    tree.write_text(
        Path(TREE).read_text()
        .replace("| root | quality price", "| root | automobile delivery_process price")
        .replace("node: quality | Quality | driver | automobile delivery_process\n", "")
    )
    return str(tree)


def test_report_on_a_three_driver_root_warns_and_leaves_out_the_value_map(tmp_path):
    tree = _three_driver_tree(tmp_path)
    survey = _write_cells(tmp_path / "three.csv", *_without_column(*_fixture_cells(), "quality"))
    result = invoke("report", "--tree", tree, "--survey", survey, *OWN)
    assert result.exit_code == 0
    assert result.stderr == (
        "warning: value map unavailable: "
        "the value map needs a two-driver root (quality/price), not 3 drivers\n"
    )
    assert "CVA = " in result.stdout
    assert "value map" not in result.stdout.lower()


@pytest.mark.parametrize(
    "three_drivers, own_only, mute_own",
    [(False, True, False), (True, False, False), (True, True, True)],
    ids=["own-only", "three-driver-root", "own-only-three-drivers-mute"],
)
def test_the_library_report_warns_in_the_cli_order(tmp_path, three_drivers, own_only, mute_own):
    header, rows = _fixture_cells()
    tree = _three_driver_tree(tmp_path) if three_drivers else TREE
    if three_drivers:
        header, rows = _without_column(header, rows, "quality")
    if own_only:
        rows = [row for row in rows if row[2] == "our_co"]
    if mute_own:
        rows = [row[:-2] + ["", ""] for row in rows]
    survey = _write_cells(tmp_path / "survey.csv", header, rows)
    result = invoke("report", "--tree", tree, "--survey", survey, *OWN)
    assert result.exit_code == 0
    sample = ingest_responses(survey, parse_tree_spec(Path(tree).read_text()), "our_co")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = competitive_report(sample, fit_hierarchy(sample, sample.tree))
    assert [f"warning: {w.message}" for w in caught] == result.stderr.splitlines()
    assert len(caught) == own_only + three_drivers + mute_own
    assert render_report(report) == result.stdout


def _fit_without_delivery_process(tmp_path) -> str:
    """A saved fit of the bundled survey whose ``delivery_process`` model is missing."""
    hierarchy = tmp_path / "fit.json"
    assert invoke("fit", "--tree", TREE, "--survey", SURVEY, *OWN,
                  "--out", str(hierarchy)).exit_code == 0
    document = json.loads(hierarchy.read_text())
    del document["models"]["delivery_process"]
    document["unfit"]["delivery_process"] = "too few complete cases"
    hierarchy.write_text(json.dumps(document))
    return str(hierarchy)


def test_report_with_a_saved_hierarchy_missing_a_node_model_warns(tmp_path):
    result = invoke("report", "--tree", TREE, "--survey", SURVEY, *OWN,
                    "--hierarchy", _fit_without_delivery_process(tmp_path))
    assert result.exit_code == 0
    assert result.stderr == "warning: no model for delivery_process: too few complete cases\n"
    assert "Quality\n=======" in result.stdout
    assert "Delivery Process\n====" not in result.stdout


def test_report_without_own_outcomes_warns_and_leaves_out_the_loyalty_curve(tmp_path):
    header, rows = _fixture_cells()
    for row in rows:
        if row[2] == "our_co":
            row[-2:] = ["", ""]
    survey = _write_cells(tmp_path / "mute.csv", header, rows)
    result = invoke("report", "--tree", TREE, "--survey", survey, *OWN)
    assert result.exit_code == 0
    assert result.stderr.startswith("warning: loyalty curve unavailable: ")
    assert len(result.stderr.splitlines()) == 1
    assert "Loyalty curve" not in result.stdout
    assert "Value map" in result.stdout


def test_report_unknown_own_supplier_fails():
    result = invoke("report", "--tree", TREE, "--survey", SURVEY, "--own", "nobody")
    assert result.exit_code == 1
    assert "nobody" in result.stderr


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--target-loyalty", "1.5"),
        ("--target-loyalty", "0"),
        ("--target-loyalty", "nan"),
        ("--band", "-1"),
        ("--band", "nan"),
    ],
)
def test_report_refuses_a_flag_value_out_of_its_range(flag, value):
    result = invoke("report", "--tree", TREE, "--survey", SURVEY, *OWN, flag, value)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert f"Invalid value for '{flag}'" in result.stderr


@pytest.mark.parametrize(
    "config, message",
    [
        ({"band": None}, "error: config key 'band' is null"),
        ({"loyalty_threshold": 2.5}, "Invalid value for '--loyalty-threshold'"),
    ],
    ids=["band null", "threshold 2.5"],
)
def test_report_refuses_a_config_value_its_flag_would_refuse(tmp_path, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    result = invoke("--config", str(path), "report", "--tree", TREE, "--survey", SURVEY, *OWN)
    assert result.exit_code != 0
    assert isinstance(result.exception, SystemExit)
    assert message in result.stderr


def test_nps_text_output():
    result = invoke("nps", "--tree", TREE, "--survey", SURVEY, *OWN)
    assert result.exit_code == 0
    assert "7.1" in result.stdout
    assert "promoters" in result.stdout.lower()
    assert "97" in result.stdout  # the CVA column of the comparison


@pytest.mark.parametrize(
    "golden", ["report_own_only", "report_without_delivery_process", "nps", "nps_own_only"]
)
def test_the_text_branches_the_full_report_misses_match_their_goldens(tmp_path, golden):
    """``-`` cells, ``excluded:`` lines, a target beyond the curve, NPS with and without CVA."""
    command, _, case = golden.partition("_")
    survey, options = SURVEY, []
    if case == "own_only":
        header, rows = _fixture_cells()
        survey = _write_cells(tmp_path / "own.csv", header, [r for r in rows if r[2] == "our_co"])
    if case == "without_delivery_process":
        options = ["--hierarchy", _fit_without_delivery_process(tmp_path),
                   "--outcome", "repurchase", "--loyalty-threshold", "9"]
    if command == "report":
        options += ["--target-loyalty", "0.80"]
    result = invoke(command, "--tree", TREE, "--survey", survey, *OWN, *options)
    assert result.exit_code == 0
    assert result.stdout == (GOLDEN / f"{golden}.txt").read_text()


def test_nps_average_of_units_is_refused():
    result = invoke("nps", "--tree", TREE, "--survey", SURVEY, *OWN,
                    "--aggregate", "average-of-units")
    assert result.exit_code == 1
    assert "no agreed standard" in result.stderr


def test_nps_records_document():
    result = invoke("nps", "--tree", TREE, "--survey", SURVEY, *OWN,
                    "--format", "records")
    assert result.exit_code == 0
    document = json.loads(result.stdout)
    assert document["nps"]["score"] == pytest.approx(7.1)
    assert document["nps"]["n"] == 1000
    assert document["cva"] == 97


def test_nps_without_outcomes_fails(tmp_path):
    survey = tmp_path / "mute.csv"
    text = fixture_text("market_survey.csv")
    header, *rows = text.splitlines()
    kept = [header]
    for row in rows:
        cells = row.split(",")
        cells[-2:] = ["", ""]
        kept.append(",".join(cells))
    survey.write_text("\n".join(kept) + "\n")
    result = invoke("nps", "--tree", TREE, "--survey", str(survey), *OWN)
    assert result.exit_code == 1
    assert "no recommend outcomes" in result.stderr


def test_nps_without_competitors_warns_and_scores_alone(tmp_path):
    header, rows = _fixture_cells()
    survey = _write_cells(tmp_path / "own.csv", header, [r for r in rows if r[2] == "our_co"])
    result = invoke("nps", "--tree", TREE, "--survey", survey, *OWN)
    assert result.exit_code == 0
    assert result.stderr == "warning: CVA comparison unavailable: no competitor respondents\n"
    assert "NPS = 7.1   (n = 1000)" in result.stdout
    assert "CVA" not in result.stdout


def test_nps_with_an_unfit_root_model_warns_and_scores_alone(tmp_path):
    rootless = _without_column(*_fixture_cells(), "worth_what_paid_for")
    survey = _write_cells(tmp_path / "rootless.csv", *rootless)
    result = invoke("nps", "--tree", TREE, "--survey", survey, *OWN)
    assert result.exit_code == 0
    assert result.stderr == (
        "warning: CVA comparison unavailable: node 'worth_what_paid_for': "
        "0 complete cases for 2 children; need at least 4\n"
    )
    assert "NPS = 7.1   (n = 1000)" in result.stdout
    assert "CVA" not in result.stdout


@pytest.mark.parametrize("competitors", [True, False])
def test_nps_scores_the_own_customers_once(tmp_path, competitors):
    header, rows = _fixture_cells()
    kept = rows if competitors else [r for r in rows if r[2] == "our_co"]
    survey = _write_cells(tmp_path / "survey.csv", header, kept)
    nps_module = importlib.import_module("cvmkit.nps")
    counter = mock.Mock(wraps=nps_module.nps)
    for fmt in ("text", "records"):
        with mock.patch.object(nps_module, "nps", counter):
            result = invoke("nps", "--tree", TREE, "--survey", survey, *OWN, "--format", fmt)
        assert result.exit_code == 0
        assert counter.call_count == 1
        assert len(counter.call_args.args[0]) == 1000
        counter.reset_mock()


def test_simulate_reproduces_the_bundled_survey(tmp_path):
    out = tmp_path / "survey.csv"
    result = invoke("simulate", "--seed-config", TRUTH, "--out", str(out))
    assert result.exit_code == 0
    assert "wrote 2000 respondents" in result.stdout
    assert "our_co: n = 1000" in result.stdout
    assert out.read_text() == fixture_text("market_survey.csv")
    again = tmp_path / "again.csv"
    assert invoke("simulate", "--seed-config", TRUTH, "--out", str(again)).exit_code == 0
    assert again.read_bytes() == out.read_bytes()
    assert Path(str(out) + ".log").exists()


def test_simulate_ignores_a_stale_temp_path_and_leaves_no_temp_file(tmp_path):
    (tmp_path / "out.csv.tmp").mkdir()
    out = tmp_path / "out.csv"
    result = invoke("simulate", "--seed-config", TRUTH, "--out", str(out))
    assert result.exit_code == 0
    assert out.read_text() == fixture_text("market_survey.csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "out.csv", "out.csv.log", "out.csv.tmp",
    ]


def test_simulate_empty_market_warns(tmp_path):
    config = json.loads(fixture_text("market_truth.json"))
    config["n_per_supplier"] = {s: 0 for s in config["n_per_supplier"]}
    config_path = tmp_path / "empty.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "empty.csv"
    result = invoke("simulate", "--seed-config", str(config_path), "--out", str(out))
    assert result.exit_code == 0
    assert "n = 0" in result.stderr
    lines = out.read_text().splitlines()
    assert len(lines) == 1 and lines[0].startswith("respondent_id")


def test_config_file_supplies_flags(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"tree": TREE, "survey": SURVEY, "own": "our_co"}))
    result = invoke("--config", str(config), "validate")
    assert result.exit_code == 0
    assert "survey ok" in result.stdout
    # per-subcommand sections scope their defaults
    scoped = tmp_path / "scoped.json"
    scoped.write_text(json.dumps({"validate": {"tree": TREE}}))
    assert invoke("--config", str(scoped), "validate").exit_code == 0
    result = invoke("--config", str(scoped), "fit")
    assert result.exit_code == 2  # fit still misses its required flags


def test_config_file_must_be_json(tmp_path):
    config = tmp_path / "config.json"
    config.write_text("not json")
    result = invoke("--config", str(config), "validate", "--tree", TREE)
    assert result.exit_code == 1
    assert "config is not valid JSON" in result.stderr
    config.write_text(json.dumps([{"tree": TREE}]))
    result = invoke("--config", str(config), "validate", "--tree", TREE)
    assert result.exit_code == 1
    assert result.stderr == "error: config must be a JSON object\n"


def test_config_that_is_not_utf8_names_the_file(tmp_path):
    config = tmp_path / "config.json"
    config.write_bytes(b'{"tree": "\xff"}')
    result = invoke("--config", str(config), "validate", "--tree", TREE)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"error: config {config}: line 1: byte 0xff is not valid UTF-8" in result.stderr


def test_malformed_hierarchy_file_names_the_file(tmp_path):
    hierarchy = tmp_path / "fit.json"
    hierarchy.write_text('{"models": ')
    result = invoke("report", "--tree", TREE, "--survey", SURVEY, *OWN,
                    "--hierarchy", str(hierarchy))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"error: hierarchy is not valid JSON: {hierarchy}" in result.stderr


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda document: document["models"].update(billing=document["models"]["quality"]),
            "model for 'billing', not an internal node of tree 'automobile_purchase'",
        ),
        (
            lambda document: document["models"]["quality"]["coefficients"].update(price=0.5),
            "coefficients of 'quality' name ['automobile', 'delivery_process', 'price'], "
            "not its children ['automobile', 'delivery_process']",
        ),
        (
            lambda document: document["models"]["quality"]["impact_weights"].pop("automobile"),
            "impact_weights of 'quality' name ['delivery_process'], "
            "not its children ['automobile', 'delivery_process']",
        ),
        (
            lambda document: document.update(unfit={"quality": "x"}),
            "unfit names 'quality', not an internal node without a model",
        ),
        (
            lambda document: document.update(unfit={"a": 1}),
            "unfit names 'a', not an internal node without a model",
        ),
        (lambda document: document.update(unfit=[1]), "unfit is [1], not an object"),
    ],
    ids=["model-of-a-leaf", "extra-regressor", "missing-weight", "unfit-with-a-model",
         "unfit-off-the-tree", "unfit-not-an-object"],
)
def test_hierarchy_that_does_not_fit_the_tree_names_the_file_and_node(tmp_path, edit, message):
    hierarchy = tmp_path / "fit.json"
    fitted = invoke("fit", "--tree", TREE, "--survey", SURVEY, *OWN, "--out", str(hierarchy))
    assert fitted.exit_code == 0
    document = json.loads(hierarchy.read_text())
    edit(document)
    hierarchy.write_text(json.dumps(document))
    result = invoke("report", "--tree", TREE, "--survey", SURVEY, *OWN,
                    "--hierarchy", str(hierarchy))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == f"error: hierarchy {hierarchy}: {message}\n"


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("intercept", float("nan"), "model 'quality': intercept is nan, not a finite number"),
        ("residual_sd", float("-inf"),
         "model 'quality': residual_sd is -inf, not a finite number"),
        ("n", float("inf"), "model 'quality': n is inf, not a finite number"),
        ("impact_weights", float("inf"),
         "model 'quality': impact_weights['automobile'] is inf, not a finite number"),
        ("r_squared", 1e307, "model 'quality': r_squared is 1e+307, too large to report"),
        ("coefficients", 1e308,
         "model 'quality': coefficients['automobile'] is 1e+308, which takes the path slope "
         "of 'reliability' too large to report"),
        ("n", 1811.5, "model 'quality': n is 1811.5, not an integer"),
        ("impact_weights", 38.6,
         "model 'quality': impact_weights['automobile'] is 38.6, not an integer"),
        ("impact_weights", True,
         "model 'quality': impact_weights['automobile'] is True, not an integer"),
        ("r_squared", True, "model 'quality': r_squared is True, not a number"),
        ("r_squared", "0.9", "model 'quality': r_squared is '0.9', not a number"),
        ("intercept", False, "model 'quality': intercept is False, not a number"),
    ],
    ids=["nan", "minus-infinity", "infinite-count", "infinite-weight", "percent-overflow",
         "slope-overflow", "fractional-count", "fractional-weight", "boolean-weight",
         "boolean-r-squared", "string-r-squared", "boolean-intercept"],
)
def test_a_hierarchy_number_the_report_cannot_use_names_the_model_and_field(
    tmp_path, field, value, message
):
    document = json.loads(_small_fit())
    model = document["models"]["quality"]
    if isinstance(model[field], dict):
        model[field]["automobile"] = value
    else:
        model[field] = value
    with pytest.raises(CvmError, match=re.escape(message)):
        hierarchy_from_records(document, parse_tree_spec(Path(TREE).read_text()))
    hierarchy = tmp_path / "fit.json"
    hierarchy.write_text(json.dumps(document))
    result = invoke("report", "--tree", TREE, "--survey", SURVEY, *OWN,
                    "--hierarchy", str(hierarchy))
    assert result.exit_code == 1
    assert result.stderr == f"error: hierarchy {hierarchy}: {message}\n"


@functools.cache
def _small_survey() -> str:
    """The first 300 respondents of the bundled survey: 150 own, 75 of each competitor."""
    return "".join(fixture_text("market_survey.csv").splitlines(keepends=True)[:301])


@functools.cache
def _small_fit() -> str:
    """The saved fit of :func:`_small_survey`."""
    with tempfile.TemporaryDirectory() as tmp:
        survey, fit = Path(tmp) / "survey.csv", Path(tmp) / "fit.json"
        survey.write_text(_small_survey())
        assert invoke("fit", "--tree", TREE, "--survey", str(survey), *OWN,
                      "--out", str(fit)).exit_code == 0
        return fit.read_text()


def _fields(document, path=()):
    """The key path of every value in ``document``'s nested objects."""
    for key, value in document.items():
        yield (*path, key)
        if isinstance(value, dict):
            yield from _fields(value, (*path, key))


_DELETED = object()
_FIELD_VALUES = [
    None, "x", "7", -1, 0, 1.5, -0.0, True, [], {}, 10**30, 10**400, 1e308, -1e308, 1e300,
    float("nan"), float("inf"), float("-inf"), _DELETED,
]


def _changed(document, field, value) -> str:
    """``document`` as JSON text with the value at key path ``field`` set to ``value``."""
    *parents, key = field
    target = functools.reduce(dict.__getitem__, parents, document)
    if value is _DELETED:
        del target[key]
    else:
        target[key] = value
    return json.dumps(document)


def _wrote_or_failed_with_one_error_line(result, out: Path, inputs: list[str]) -> None:
    """Either ``out`` was written, or one ``error:`` line, exit 1 and no artifact."""
    assert result.exit_code in (0, 1), result.exception
    if result.exit_code == 0:
        assert out.is_file()
    else:
        assert isinstance(result.exception, SystemExit)
        lines = [line for line in result.stderr.splitlines() if not line.startswith("warning: ")]
        assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
        assert sorted(p.name for p in out.parent.iterdir()) == inputs


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    field=st.sampled_from(list(_fields(json.loads(_small_fit())))),
    value=st.sampled_from(_FIELD_VALUES),
)
def test_a_saved_fit_with_one_field_changed_reports_or_fails_with_one_error_line(field, value):
    with tempfile.TemporaryDirectory() as tmp:
        survey, hierarchy, out = (Path(tmp) / name for name in ("s.csv", "fit.json", "r.txt"))
        survey.write_text(_small_survey())
        hierarchy.write_text(_changed(json.loads(_small_fit()), field, value))
        result = invoke("report", "--tree", TREE, "--survey", str(survey), *OWN,
                        "--hierarchy", str(hierarchy), "--out", str(out))
        _wrote_or_failed_with_one_error_line(result, out, ["fit.json", "s.csv"])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    field=st.sampled_from(list(_fields(json.loads(Path(TRUTH).read_text())))),
    value=st.sampled_from(_FIELD_VALUES),
)
def test_a_seed_config_with_one_field_changed_simulates_or_fails_with_one_error_line(
    field, value
):
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "truth.json", Path(tmp) / "s.csv"
        config.write_text(_changed(json.loads(Path(TRUTH).read_text()), field, value))
        result = invoke("simulate", "--seed-config", str(config), "--out", str(out))
        _wrote_or_failed_with_one_error_line(result, out, ["truth.json"])


def _warn_then_fail(*args):
    warnings.warn("w")
    raise CvmError("boom")


@pytest.mark.parametrize(
    "command, target, args",
    [
        ("validate", "cvmkit.cli._load_tree", ["--tree", TREE]),
        ("fit", "cvmkit.cli._load_tree", ["--tree", TREE, "--survey", SURVEY, *OWN]),
        ("report", "cvmkit.cli._load_tree", ["--tree", TREE, "--survey", SURVEY, *OWN]),
        ("nps", "cvmkit.cli._load_tree", ["--tree", TREE, "--survey", SURVEY, *OWN]),
        ("simulate", "cvmkit.simulate.load_truth", ["--seed-config", TRUTH]),
    ],
    ids=["validate", "fit", "report", "nps", "simulate"],
)
def test_every_command_prints_a_library_warning_and_error_as_one_line_each(
    tmp_path, command, target, args
):
    if command == "simulate":
        args = [*args, "--out", str(tmp_path / "s.csv")]
    with mock.patch(target, _warn_then_fail):
        result = invoke(command, *args)
    assert result.exit_code == 1
    assert result.stderr == "warning: w\nerror: boom\n"
    assert "Traceback" not in result.output


def test_malformed_seed_config_names_the_file(tmp_path):
    config = tmp_path / "truth.json"
    config.write_text("{")
    result = invoke("simulate", "--seed-config", str(config), "--out", str(tmp_path / "s.csv"))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"error: ground truth is not valid JSON: {config}" in result.stderr


@pytest.mark.parametrize(
    "what, args",
    [
        ("config", lambda document: ["--config", str(document), "validate", "--tree", TREE]),
        ("ground truth", lambda document: ["simulate", "--seed-config", str(document),
                                           "--out", str(document.with_name("s.csv"))]),
        ("hierarchy", lambda document: ["report", "--tree", TREE, "--survey", SURVEY, *OWN,
                                        "--hierarchy", str(document)]),
    ],
    ids=["config", "seed-config", "hierarchy"],
)
def test_an_integer_past_pythons_digit_limit_is_not_valid_json(tmp_path, what, args):
    document = tmp_path / "in.json"
    document.write_text('{"seed": ' + "7" * 5000 + "}")
    result = invoke(*args(document))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.startswith(f"error: {what} is not valid JSON: {document}: ")
    assert result.stderr.count("\n") == 1
    assert os.listdir(tmp_path) == ["in.json"]


def test_seed_config_without_a_tree_names_the_missing_field(tmp_path):
    config = tmp_path / "truth.json"
    config.write_text("{}")
    result = invoke("simulate", "--seed-config", str(config), "--out", str(tmp_path / "s.csv"))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"error: ground truth {config}: missing field 'tree_text'" in result.stderr


@pytest.mark.parametrize(
    "field, value, message",
    [
        (["seed"], -1, "seed=-1 outside [0, 2**64)"),
        (["seed"], 2**64, f"seed={2**64} outside [0, 2**64)"),
        (["halo_sd"], float("nan"), "halo_sd is nan, not a finite number"),
        (["noise_sd", "billing"], float("inf"), "noise_sd['billing'] is inf, not a finite number"),
        (["coefficients", "quality", "automobile"], float("nan"),
         "coefficients['quality']['automobile'] is nan, not a finite number"),
        (["intercepts", "price"], float("-inf"),
         "intercepts['price'] is -inf, not a finite number"),
        (["class_shift", "our_co", "worth_what_paid_for"], float("inf"),
         "class_shift['our_co']['worth_what_paid_for'] is inf, not a finite number"),
        (["seed"], 42.9, "seed is 42.9, not an integer"),
        (["seed"], True, "seed is True, not an integer"),
        (["n_per_supplier", "our_co"], 999.7, "n_per_supplier['our_co'] is 999.7, not an integer"),
        (["outcome_threshold"], 8.0, "outcome_threshold is 8.0, not an integer"),
        (["halo_sd"], True, "halo_sd is True, not a number"),
        (["decision_maker_share"], "0.8", "decision_maker_share is '0.8', not a number"),
        (["coefficients", "quality", "automobile"], True,
         "coefficients['quality']['automobile'] is True, not a number"),
        (["halo_sd"], 10**400, f"halo_sd is {10**400}, not a finite number"),
        (["own_supplier"], None, "own_supplier is None, not a string"),
        (["own_supplier"], 5, "own_supplier is 5, not a string"),
        (["name"], {}, "name is {}, not a string"),
        # beside the bundled "1": 0.03, so only the key can be refused
        (["willingness_link", " 1"], 0.03, "willingness_link must map every root rating 1..10"),
        (["willingness_link", "01"], 0.03, "willingness_link must map every root rating 1..10"),
    ],
    ids=["negative-seed", "seed-2**64", "nan-halo", "inf-noise", "nan-slope", "inf-intercept",
         "inf-shift", "fractional-seed", "true-seed", "fractional-count", "float-threshold",
         "true-halo", "string-share", "true-slope", "huge-halo", "null-own-supplier",
         "number-own-supplier", "object-name", "spaced-link-key", "zero-padded-link-key"],
)
def test_a_seed_config_with_a_seed_or_parameter_out_of_range_is_an_error(
    tmp_path, field, value, message
):
    document = json.loads(Path(TRUTH).read_text())
    parent = document
    for key in field[:-1]:
        parent = parent[key]
    parent[field[-1]] = value
    config = tmp_path / "truth.json"
    config.write_text(json.dumps(document))
    result = invoke("simulate", "--seed-config", str(config), "--out", str(tmp_path / "s.csv"))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == f"error: ground truth {config}: {message}\n"
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize(
    "command, args",
    [
        ("fit", ["--tree", TREE, "--survey", SURVEY, *OWN]),
        ("report", ["--tree", TREE, "--survey", SURVEY, *OWN]),
        ("nps", ["--tree", TREE, "--survey", SURVEY, *OWN]),
        ("simulate", ["--seed-config", TRUTH]),
    ],
)
def test_an_out_path_in_a_missing_directory_is_an_error(tmp_path, command, args):
    out = tmp_path / "missing" / "out"
    result = invoke(command, *args, "--out", str(out))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == f"error: cannot write {out}: No such file or directory\n"


def test_an_out_path_naming_a_directory_is_an_error_and_leaves_no_temp_file(tmp_path):
    out = tmp_path / "existing"
    out.mkdir()
    result = invoke("nps", "--tree", TREE, "--survey", SURVEY, *OWN, "--out", str(out))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == f"error: cannot write {out}: Is a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["existing"]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "target, args",
    [
        ("tree", ["validate", "--tree", "FILE"]),
        ("survey", ["validate", "--tree", TREE, "--survey", "FILE", *OWN]),
        ("config", ["--config", "FILE", "validate", "--tree", TREE]),
        ("hierarchy", ["report", "--tree", TREE, "--survey", SURVEY, *OWN, "--hierarchy", "FILE"]),
        ("seed-config", ["simulate", "--seed-config", "FILE", "--out", "survey.csv"]),
    ],
)
def test_an_input_file_that_cannot_be_read_is_an_error(tmp_path, monkeypatch, target, args):
    # reading a file with its read bit cleared still succeeds as root, so the
    # readers are patched to fail on ``path`` as they would on an unreadable file
    path = tmp_path / f"{target}.in"
    path.write_text("{}")

    def deny(read):
        def call(file, *args, **kwargs):
            if str(file) == str(path):
                raise PermissionError(13, "Permission denied", str(file))
            return read(file, *args, **kwargs)

        return call

    monkeypatch.chdir(tmp_path)
    with mock.patch("builtins.open", deny(open)), \
            mock.patch.object(Path, "read_bytes", deny(Path.read_bytes)):
        result = invoke(*[str(path) if arg == "FILE" else arg for arg in args])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == f"error: cannot read {path}: Permission denied\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{target}.in"]


def test_the_cli_imports_only_the_modules_it_always_needs():
    src = Path(importlib.import_module("cvmkit").__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    listing = "import sys, cvmkit.cli; print(*sorted(m for m in sys.modules if 'cvmkit' in m))"
    result = subprocess.run(
        [sys.executable, "-c", listing], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == [
        "cvmkit", *(f"cvmkit.{name}" for name in (
            "analytics", "cli", "errors", "regression", "rendering", "rounding", "survey", "tree",
        )),
    ]


# --- no artifact depends on the order of the survey's rows


def _artifacts(survey: Path, out: Path) -> dict:
    """Every output of validate, fit, report and nps on ``survey``, by name."""
    common = ["--tree", TREE, "--survey", str(survey), *OWN]
    runs = {
        "validate": ["validate", *common],
        "fit": ["fit", *common, "--out", str(out / "fit.json")],
        "report": ["report", *common, "--target-loyalty", "0.80"],
        "records": ["report", *common, "--format", "records", "--target-loyalty", "0.80"],
        "plotdata": ["report", *common, "--format", "plotdata", "--out", str(out / "plot")],
        "nps": ["nps", *common, "--format", "records"],
    }
    artifacts = {}
    for name, args in runs.items():
        result = invoke(*args)
        assert result.exit_code == 0, result.stderr
        artifacts[name] = (result.stdout, result.stderr)
    for path in sorted(out.iterdir()):
        if path.suffix != ".log":  # the sidecar holds a timestamp
            artifacts[path.name] = path.read_bytes()
    return artifacts


# No shrink phase: each example runs 12 CLI commands, and shrinking a failure
# took minutes; the unshrunk example is already small.
@settings(max_examples=15, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.tuples(st.integers(30, 60), st.integers(5, 40), st.integers(5, 40)),
    blank_share=st.sampled_from([0.0, 0.05]),
    order=st.randoms(use_true_random=False),
)
def test_every_artifact_is_independent_of_row_order(seed, sizes, blank_share, order):
    truth = market_truth()
    truth = dataclasses.replace(
        truth, seed=seed, n_per_supplier=dict(zip(truth.n_per_supplier, sizes))
    )
    sample = generate_market(truth)
    rng = np.random.default_rng(seed)
    blank = rng.random(sample.ratings.shape) < blank_share
    sample = dataclasses.replace(sample, ratings=np.where(blank, 0, sample.ratings).astype(np.int8))
    header, *rows = survey_text(sample).splitlines(keepends=True)
    shuffled = rows[:]
    order.shuffle(shuffled)
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        survey = Path(tmp) / "survey.csv"  # one path for both, since diagnostics name it
        for lines in (rows, shuffled):
            survey.write_text(header + "".join(lines))
            out = Path(tmp) / "out"
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir()
            outputs.append(_artifacts(survey, out))
    assert outputs[0] == outputs[1]
