"""End-to-end acceptance checks, one per headline capability.

Each test prints a one-line verdict (visible under ``pytest -s``) and guards
the tolerances and runtime budgets the package promises.  Everything here
goes through public entry points only; expected numbers are either computed
independently inside the test or tallied by hand from the bundled fixture.
"""

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from cvmkit.analytics import (
    loyalty_curve,
    profile_table,
    rank_priorities,
    retention_projection,
    value_target_for_loyalty,
    what_if,
)
from cvmkit.cli import main as cli_main
from cvmkit.nps import nps
from cvmkit.regression import fit_hierarchy, fit_linear
from cvmkit.rendering import render_profile_table
from cvmkit.rounding import format_rating, format_score
from cvmkit.simulate import GroundTruth, generate_market
from cvmkit.tree import parse_tree_spec

DATA = Path(__file__).resolve().parent.parent / "src" / "cvmkit" / "data"


@contextmanager
def criterion(label: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"acceptance {label}: FAIL ({time.perf_counter() - started:.1f}s)")
        raise
    print(f"acceptance {label}: PASS ({time.perf_counter() - started:.1f}s)")


def test_01_fixture_tables_reproduce_every_integer_cell(hierarchy, halves):
    with criterion("01 profile-table reproduction"):
        started = time.perf_counter()
        own, competitors = halves

        root = profile_table(hierarchy, own, competitors, "worth_what_paid_for")
        cells = {
            (row.node): (
                row.impact_weight,
                format_rating(row.own_mean.mean),
                format_rating(row.competitor_mean.mean),
                row.relative,
            )
            for row in root.rows
        }
        assert cells["quality"] == (51, "7.4", "7.7", 96)
        assert cells["price"] == (35, "7.1", "7.0", 101)
        assert format_rating(root.parent_own.mean) == "7.3"
        assert format_rating(root.parent_competitor.mean) == "7.5"
        assert root.parent_relative == 97
        assert "CVA = 97" in render_profile_table(root)

        quality = profile_table(hierarchy, own, competitors, "quality")
        by_node = {row.node: row for row in quality.rows}
        auto = by_node["automobile"]
        assert (auto.impact_weight, auto.relative) == (39, 104)
        assert format_rating(auto.own_mean.mean) == "7.8"
        assert format_rating(auto.competitor_mean.mean) == "7.5"
        delivery_row = by_node["delivery_process"]
        assert delivery_row.impact_weight == 59
        assert format_rating(quality.parent_own.mean) == "7.4"

        delivery = profile_table(hierarchy, own, competitors, "delivery_process")
        billing = next(row for row in delivery.rows if row.node == "billing")
        assert (billing.impact_weight, billing.relative) == (40, 81)
        assert format_rating(billing.own_mean.mean) == "6.1"
        assert format_rating(billing.competitor_mean.mean) == "7.5"
        assert format_rating(delivery.parent_own.mean) == "6.9"
        assert format_rating(delivery.parent_competitor.mean) == "7.8"
        assert delivery.parent_relative == 88

        assert time.perf_counter() - started < 10.0


def test_02_what_if_effect_of_a_quality_shift(hierarchy):
    with criterion("02 what-if anchor"):
        assert hierarchy.models["worth_what_paid_for"].impact_weights["quality"] == 51
        effect = what_if(hierarchy, "quality", 0.6)
        assert effect == pytest.approx(0.306, abs=0.005)
        assert format_score(effect, 2) == "0.31"


def test_03_loyalty_curve_anchors(halves):
    with criterion("03 loyalty anchors"):
        own, _ = halves
        curve = loyalty_curve(own)
        assert 0.61 <= curve.proportion_at(7.3) <= 0.65
        required = value_target_for_loyalty(curve, 0.80)
        assert required is not None
        assert 7.7 <= required <= 7.9


def test_04_retention_projection_matches_plain_arithmetic():
    with criterion("04 retention anchor"):
        # independent oracle: nine years of compounding, written out directly
        oracle = 1200 * 0.9**9
        assert retention_projection(1200, 0.9, 9) == pytest.approx(oracle, abs=0.1)
        assert round(oracle) == 465 and 464 <= oracle <= 465


def test_05_least_squares_matches_normal_equations_oracle():
    with criterion("05 least-squares oracle equivalence"):
        started = time.perf_counter()
        rng = np.random.default_rng(2024)
        for _ in range(120):
            k = int(rng.integers(1, 9))
            n = int(rng.integers(k + 12, 201))
            columns = [
                rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 3.0), n)
                for _ in range(k)
            ]
            beta = rng.uniform(-3, 3, size=k + 1)
            y = beta[0] + sum(b * c for b, c in zip(beta[1:], columns))
            y = y + rng.normal(0.0, 0.3, n)
            fit = fit_linear(y, {f"x{i}": c for i, c in enumerate(columns)})
            x = np.column_stack([np.ones(n)] + columns)
            oracle = np.linalg.solve(x.T @ x, x.T @ y)
            assert fit.intercept == pytest.approx(oracle[0], rel=1e-8, abs=1e-8)
            for i in range(k):
                assert fit.coefficients[f"x{i}"] == pytest.approx(
                    oracle[i + 1], rel=1e-8, abs=1e-8
                )
        assert time.perf_counter() - started < 5.0


RECOVERY_TREE = parse_tree_spec(
    """\
tree: recovery
root: value
node: value | Value | root | quality price
node: quality | Quality | attribute |
node: price | Price | attribute |
"""
)


def recovery_truth(seed: int, n: int) -> GroundTruth:
    return GroundTruth(
        tree=RECOVERY_TREE,
        name="recovery",
        seed=seed,
        own_supplier="us",
        n_per_supplier={"us": n},
        coefficients={"value": {"quality": 0.51, "price": 0.35}},
        intercepts={"value": 0.77},
        leaf_means={"us": {"quality": 5.5, "price": 5.5}},
        noise_sd={"value": 0.9, "quality": 1.8, "price": 1.8},
        willingness_link={r: (r - 1) / 9 for r in range(1, 11)},
    )


def test_06_planted_coefficients_are_recovered():
    with criterion("06 planted-coefficient recovery"):
        started = time.perf_counter()
        for seed in range(1, 21):
            sample = generate_market(recovery_truth(seed, 2000))
            fit = fit_hierarchy(sample, RECOVERY_TREE).models["value"].fit
            assert fit.coefficients["quality"] == pytest.approx(0.51, abs=0.05)
            assert fit.coefficients["price"] == pytest.approx(0.35, abs=0.05)
        for seed in range(1, 6):
            sample = generate_market(recovery_truth(seed, 10_000))
            fit = fit_hierarchy(sample, RECOVERY_TREE).models["value"].fit
            assert fit.coefficients["quality"] == pytest.approx(0.51, abs=0.02)
            assert fit.coefficients["price"] == pytest.approx(0.35, abs=0.02)
        assert time.perf_counter() - started < 60.0


def test_07_score_properties_over_a_thousand_random_cases():
    with criterion("07 recommend-score properties"):
        rng = random.Random(7)
        bands = ([0, 1, 2, 3, 4, 5, 6], [7, 8], [9, 10])
        band_of = {r: band for band in bands for r in band}
        for _ in range(1000):
            ratings = [rng.randint(0, 10) for _ in range(rng.randint(1, 300))]
            result = nps(ratings)
            assert -100.0 <= result.nps <= 100.0
            shuffled = ratings[:]
            rng.shuffle(shuffled)
            assert nps(shuffled).nps == result.nps
            perturbed = [rng.choice(band_of[r]) for r in ratings]
            assert nps(perturbed).nps == result.nps
        assert nps([rng.choice([9, 10]) for _ in range(50)]).nps == 100.0
        assert nps([rng.randint(0, 6) for _ in range(50)]).nps == -100.0


def test_08_fixture_fit_quality_is_plausible(hierarchy):
    with criterion("08 fit-quality plausibility"):
        observed = {
            node: hierarchy.models[node].fit.r_squared
            for node in ("worth_what_paid_for", "quality", "delivery_process")
        }
        assert observed["worth_what_paid_for"] == pytest.approx(0.81, abs=0.05)
        assert observed["quality"] == pytest.approx(0.89, abs=0.05)
        assert observed["delivery_process"] == pytest.approx(0.86, abs=0.05)


def test_09_artifacts_are_byte_deterministic(tmp_path):
    with criterion("09 byte determinism"):
        runner = CliRunner()
        out = tmp_path / "survey.csv"
        result = runner.invoke(
            cli_main,
            ["simulate", "--seed-config", str(DATA / "market_truth.json"),
             "--out", str(out)],
        )
        assert result.exit_code == 0
        assert out.read_bytes() == (DATA / "market_survey.csv").read_bytes()

        report_args = [
            "report",
            "--tree", str(DATA / "automobile.tree"),
            "--survey", str(DATA / "market_survey.csv"),
            "--own", "our_co",
        ]
        for fmt in ("text", "records"):
            runs = []
            for name in ("first", "second"):
                path = tmp_path / f"{fmt}_{name}.out"
                result = runner.invoke(
                    cli_main, report_args + ["--format", fmt, "--out", str(path)]
                )
                assert result.exit_code == 0
                runs.append(path.read_bytes())
            assert runs[0] == runs[1]


def test_10_priorities_put_billing_first(hierarchy, halves):
    with criterion("10 priority ranking"):
        own, competitors = halves
        ranking = rank_priorities(hierarchy, own, competitors)
        assert ranking.entries[0].node == "billing"


def test_every_exported_name_resolves():
    import importlib
    import pkgutil

    import cvmkit

    submodules = [
        importlib.import_module(f"cvmkit.{info.name}")
        for info in pkgutil.iter_modules(cvmkit.__path__)
    ]
    dangling = [
        f"{module.__name__}.{name}"
        for module in [cvmkit, *submodules]
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert dangling == []
    # the package re-exports each module's names but the CLI's and the datasets'
    reexported = [m for m in submodules if m.__name__ not in {"cvmkit.cli", "cvmkit.datasets"}]
    names = [name for module in reexported for name in module.__all__]
    assert len(set(names)) == len(names)  # no two modules export one name
    assert sorted(cvmkit.__all__) == sorted(["__version__", "datasets", *names])
    listed = dir(cvmkit)
    assert [
        f"{module.__name__}.{name}"
        for module in reexported
        for name in module.__all__
        if getattr(cvmkit, name) is not getattr(module, name) or name not in listed
    ] == []


def test_star_import_binds_every_exported_name():
    import importlib
    import os
    import subprocess
    import sys
    import types

    import cvmkit

    # a fresh process reads the function nps before the module nps loads
    src = Path(cvmkit.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    before = (
        "import importlib, sys, types, cvmkit\n"
        "function = cvmkit.nps\n"
        "assert isinstance(function, types.FunctionType)\n"
        "assert cvmkit.nps is importlib.import_module('cvmkit.nps').nps is function\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", before], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr

    nps_module = importlib.import_module("cvmkit.nps")  # loading it keeps the function bound
    namespace: dict = {}
    exec("from cvmkit import *", namespace)
    assert [name for name in cvmkit.__all__ if name not in namespace] == []
    assert namespace["nps"] is cvmkit.nps is nps_module.nps
    assert isinstance(cvmkit.nps, types.FunctionType)
    assert namespace["datasets"] is importlib.import_module("cvmkit.datasets")
    assert isinstance(cvmkit.survey, types.ModuleType)
    assert isinstance(cvmkit.datasets, types.ModuleType)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        cvmkit.no_such_name
