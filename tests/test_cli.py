import csv
import dataclasses
import importlib
import json
import shutil
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
from cvmkit.regression import fit_hierarchy
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


def test_report_with_a_saved_hierarchy_missing_a_node_model_warns(tmp_path):
    hierarchy = tmp_path / "fit.json"
    assert invoke("fit", "--tree", TREE, "--survey", SURVEY, *OWN,
                  "--out", str(hierarchy)).exit_code == 0
    document = json.loads(hierarchy.read_text())
    del document["models"]["delivery_process"]
    document["unfit"]["delivery_process"] = "too few complete cases"
    hierarchy.write_text(json.dumps(document))
    result = invoke("report", "--tree", TREE, "--survey", SURVEY, *OWN,
                    "--hierarchy", str(hierarchy))
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
            lambda models: models.update(billing=models["quality"]),
            "model for 'billing', not an internal node of tree 'automobile_purchase'",
        ),
        (
            lambda models: models["quality"]["coefficients"].update(price=0.5),
            "coefficients of 'quality' name ['automobile', 'delivery_process', 'price'], "
            "not its children ['automobile', 'delivery_process']",
        ),
        (
            lambda models: models["quality"]["impact_weights"].pop("automobile"),
            "impact_weights of 'quality' name ['delivery_process'], "
            "not its children ['automobile', 'delivery_process']",
        ),
    ],
    ids=["model-of-a-leaf", "extra-regressor", "missing-weight"],
)
def test_hierarchy_that_does_not_fit_the_tree_names_the_file_and_node(tmp_path, edit, message):
    hierarchy = tmp_path / "fit.json"
    fitted = invoke("fit", "--tree", TREE, "--survey", SURVEY, *OWN, "--out", str(hierarchy))
    assert fitted.exit_code == 0
    document = json.loads(hierarchy.read_text())
    edit(document["models"])
    hierarchy.write_text(json.dumps(document))
    result = invoke("report", "--tree", TREE, "--survey", SURVEY, *OWN,
                    "--hierarchy", str(hierarchy))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == f"error: hierarchy {hierarchy}: malformed field: {message}\n"


def test_malformed_seed_config_names_the_file(tmp_path):
    config = tmp_path / "truth.json"
    config.write_text("{")
    result = invoke("simulate", "--seed-config", str(config), "--out", str(tmp_path / "s.csv"))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"error: ground truth is not valid JSON: {config}" in result.stderr


def test_seed_config_without_a_tree_names_the_missing_field(tmp_path):
    config = tmp_path / "truth.json"
    config.write_text("{}")
    result = invoke("simulate", "--seed-config", str(config), "--out", str(tmp_path / "s.csv"))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert f"error: ground truth {config}: missing field 'tree_text'" in result.stderr


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
