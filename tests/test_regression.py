import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvmkit import regression
from cvmkit.datasets import automobile_tree
from cvmkit.regression import (
    InsufficientDataError,
    SingularMatrixError,
    UnfitNodeError,
    fit_hierarchy,
    fit_linear,
    fit_node_model,
    hierarchy_from_records,
    hierarchy_records,
    load_hierarchy,
    save_hierarchy,
)
from cvmkit.rounding import round_half_away
from cvmkit.survey import SurveySample, ingest_responses
from cvmkit.tree import parse_tree_spec


def normal_equations(y, columns):
    """Textbook (X'X)^-1 X'y oracle in floating point, apart from the exact solver."""
    x = np.column_stack([np.ones(len(y))] + [np.asarray(c) for c in columns])
    y = np.asarray(y, dtype=float)
    beta = np.linalg.solve(x.T @ x, x.T @ y)
    residuals = y - x @ beta
    sse = float(residuals @ residuals)
    sst = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 - sse / sst if sst > 0 else 1.0
    return beta, r_squared, sse


def test_fit_linear_exact_on_noiseless_plane():
    rng = np.random.default_rng(1)
    a = rng.uniform(1, 10, size=50)
    b = rng.uniform(1, 10, size=50)
    y = 2.0 + 0.5 * a - 0.25 * b
    fit = fit_linear(y, {"a": a, "b": b})
    assert fit.intercept == pytest.approx(2.0, abs=1e-10)
    assert fit.coefficients["a"] == pytest.approx(0.5, abs=1e-10)
    assert fit.coefficients["b"] == pytest.approx(-0.25, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.residual_sd == pytest.approx(0.0, abs=1e-9)
    # a constant y: the intercept alone fits it, and R^2 is 1 by convention
    constant = fit_linear(np.full(50, 3.0), {"a": a, "b": b})
    assert constant.r_squared == 1.0
    assert constant.coefficients == {"a": 0.0, "b": 0.0}


def test_fit_linear_agrees_with_normal_equations_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(12, 120))
        k = int(rng.integers(1, 6))
        x_cols = [rng.normal(rng.uniform(-3, 3), rng.uniform(0.5, 2), n) for _ in range(k)]
        beta = rng.uniform(-2, 2, size=k + 1)
        y = beta[0] + sum(b * c for b, c in zip(beta[1:], x_cols)) + rng.normal(0, 0.5, n)
        fit = fit_linear(y, {f"x{i}": c for i, c in enumerate(x_cols)})
        oracle_beta, oracle_r2, _ = normal_equations(y, x_cols)
        assert fit.intercept == pytest.approx(oracle_beta[0], rel=1e-9, abs=1e-9)
        for i in range(k):
            assert fit.coefficients[f"x{i}"] == pytest.approx(
                oracle_beta[i + 1], rel=1e-9, abs=1e-9
            )
        assert fit.r_squared == pytest.approx(oracle_r2, abs=1e-10)


def test_result_independent_of_column_order():
    rng = np.random.default_rng(3)
    a, b, c = (rng.uniform(1, 10, 40) for _ in range(3))
    y = 1.0 + 0.3 * a + 0.2 * b - 0.1 * c + rng.normal(0, 0.2, 40)
    fit_abc = fit_linear(y, {"a": a, "b": b, "c": c})
    fit_cba = fit_linear(y, {"c": c, "b": b, "a": a})
    for name in ("a", "b", "c"):
        assert fit_abc.coefficients[name] == pytest.approx(fit_cba.coefficients[name])
    assert fit_abc.r_squared == pytest.approx(fit_cba.r_squared)


def test_duplicate_column_raises_singular_naming_the_copy():
    a = np.arange(1.0, 21.0)
    y = a * 2.0
    with pytest.raises(SingularMatrixError) as err:
        fit_linear(y, {"first": a, "second": a})
    assert "second" in str(err.value)
    assert "first" not in str(err.value).split("second")[0].replace(
        "collinear regressors:", ""
    ).strip(" ")


def test_constant_column_collides_with_intercept():
    y = np.arange(20.0)
    with pytest.raises(SingularMatrixError) as err:
        fit_linear(y, {"const": np.full(20, 3.0), "x": np.arange(20.0)})
    assert "const" in str(err.value)


def test_a_two_dimensional_y_is_refused():
    with pytest.raises(ValueError) as err:
        fit_linear(np.ones((4, 2)), {"a": np.arange(4.0)})
    assert str(err.value) == "y must be one-dimensional"



def test_nan_in_a_column_is_refused_by_name():
    a = np.arange(1.0, 21.0)
    b = a[::-1].copy()
    b[7] = np.nan
    with pytest.raises(ValueError, match="column 'b'"):
        fit_linear(2.0 * a, {"a": a, "b": b})


def fit_bits(fit):
    """Every float of a fit, as its exact bit pattern."""
    values = (fit.intercept, *fit.coefficients.values(), fit.r_squared, fit.residual_sd)
    return [float(v).hex() for v in values]


@settings(max_examples=200, deadline=None)
@given(data=st.data(), k=st.integers(1, 5))
def test_integer_ratings_fit_bit_for_bit_under_row_permutation(data, k):
    n = data.draw(st.integers(k + 2, 60), label="n")
    rows = data.draw(
        st.lists(
            st.lists(st.integers(1, 10), min_size=k + 1, max_size=k + 1),
            min_size=n,
            max_size=n,
        ),
        label="rows",
    )
    order = data.draw(st.permutations(range(n)), label="order")

    def fit(table):
        table = np.array(table, dtype=np.float64)
        return fit_linear(table[:, 0], {f"x{j}": table[:, j + 1] for j in range(k)})

    try:
        expected = fit(rows)
    except SingularMatrixError as exc:
        with pytest.raises(SingularMatrixError) as err:
            fit([rows[i] for i in order])
        assert err.value.columns == exc.columns
        return
    assert fit_bits(fit([rows[i] for i in order])) == fit_bits(expected)


def test_insufficient_data():
    with pytest.raises(InsufficientDataError):
        fit_linear([1.0, 2.0, 3.0], {"a": [1, 2, 3], "b": [3, 2, 1]})


def test_shape_mismatch():
    with pytest.raises(ValueError):
        fit_linear([1.0, 2.0, 3.0, 4.0], {"a": [1, 2, 3]})


TREE = parse_tree_spec(
    """\
tree: t
root: value
node: value | Value | root | a b
node: a | A | attribute |
node: b | B | attribute |
"""
)


def make_sample(rows):
    header = "respondent_id,role,supplier,value,a,b,outcome_recommend,outcome_repurchase\n"
    return ingest_responses(io.StringIO(header + rows), TREE, "us")


def test_fit_node_model_weights_are_rounded_percents():
    rng = np.random.default_rng(11)
    lines = []
    for i in range(300):
        a = int(rng.integers(1, 11))
        b = int(rng.integers(1, 11))
        latent = 1.0 + 0.52 * a + 0.30 * b + rng.normal(0, 0.4)
        v = int(min(10, max(1, round(latent))))
        lines.append(f"r{i},user,us,{v},{a},{b},,\n")
    sample = make_sample("".join(lines))
    model = fit_node_model(sample, TREE, "value")
    assert model.node == "value"
    assert model.impact_weights["a"] == round(model.fit.coefficients["a"] * 100)
    assert abs(model.fit.coefficients["a"] - 0.52) < 0.06
    assert abs(model.fit.coefficients["b"] - 0.30) < 0.06
    assert model.flags == ()


def test_fit_node_model_listwise_deletion():
    rng = np.random.default_rng(2)
    lines = []
    for i in range(60):
        a = int(rng.integers(1, 11))
        b = int(rng.integers(1, 11))
        v = int(min(10, max(1, round(0.5 * a + 0.5 * b))))
        hole = "" if i % 5 == 0 else str(b)  # every 5th respondent skips b
        lines.append(f"r{i},user,us,{v},{a},{hole},,\n")
    sample = make_sample("".join(lines))
    model = fit_node_model(sample, TREE, "value")
    assert model.fit.n == 48


def test_fit_node_model_rejects_leaf():
    sample = make_sample("r0,user,us,5,5,5,,\n")
    with pytest.raises(ValueError):
        fit_node_model(sample, TREE, "a")


def test_negative_coefficient_flagged():
    rng = np.random.default_rng(5)
    lines = []
    for i in range(400):
        a = int(rng.integers(1, 11))
        b = int(rng.integers(1, 11))
        latent = 8.0 + 0.4 * a - 0.35 * b + rng.normal(0, 0.3)
        v = int(min(10, max(1, round(latent))))
        lines.append(f"r{i},user,us,{v},{a},{b},,\n")
    sample = make_sample("".join(lines))
    model = fit_node_model(sample, TREE, "value")
    assert any("negative coefficient" in flag and "b" in flag for flag in model.flags)


def test_hierarchy_collects_unfit_nodes():
    sample = make_sample("r0,user,us,5,5,5,,\nr1,user,us,6,6,6,,\n")
    hierarchy = fit_hierarchy(sample, TREE)
    assert hierarchy.models == {}
    assert "value" in hierarchy.unfit


def test_path_slope_multiplies_down_the_tree(hierarchy):
    wwpf_quality = hierarchy.coefficient("worth_what_paid_for", "quality")
    quality_delivery = hierarchy.coefficient("quality", "delivery_process")
    delivery_billing = hierarchy.coefficient("delivery_process", "billing")
    assert hierarchy.path_slope("billing") == pytest.approx(
        wwpf_quality * quality_delivery * delivery_billing
    )
    assert hierarchy.path_slope("worth_what_paid_for") == 1.0
    with pytest.raises(UnfitNodeError) as err:
        hierarchy.coefficient("worth_what_paid_for", "billing")
    assert str(err.value) == "'billing' is not a regressor in the model for 'worth_what_paid_for'"


def test_path_slope_unfit_raises():
    sample = make_sample("r0,user,us,5,5,5,,\n")
    hierarchy = fit_hierarchy(sample, TREE)
    with pytest.raises(UnfitNodeError):
        hierarchy.path_slope("a")


def test_hierarchy_documents_round_trip(tmp_path, hierarchy, tree):
    path = tmp_path / "fit.json"
    save_hierarchy(hierarchy, path)
    loaded = load_hierarchy(path, tree)
    assert loaded.models.keys() == hierarchy.models.keys()
    for node, model in hierarchy.models.items():
        other = loaded.models[node]
        assert other.fit.coefficients == model.fit.coefficients
        assert other.impact_weights == model.impact_weights
        assert other.fit.r_squared == model.fit.r_squared
        assert other.fit.n == model.fit.n
    # the document is plain JSON with full-precision coefficients
    document = json.loads(path.read_text())
    wwpf = document["models"]["worth_what_paid_for"]
    assert wwpf["impact_weights"]["quality"] == 51
    assert isinstance(wwpf["coefficients"]["quality"], float)


def test_hierarchy_records_reject_wrong_tree(hierarchy):
    records = hierarchy_records(hierarchy)
    with pytest.raises(Exception):
        hierarchy_from_records(records, TREE)


def test_fixture_impact_weights(hierarchy):
    assert hierarchy.models["worth_what_paid_for"].impact_weights == {
        "quality": 51, "price": 35,
    }
    assert hierarchy.models["quality"].impact_weights == {
        "automobile": 39, "delivery_process": 59,
    }
    assert hierarchy.models["delivery_process"].impact_weights["billing"] == 40
    assert hierarchy.unfit == {}


# --- the node-model path against fit_linear, and the float64 Gram product


def python_gram(data):
    """Gram matrix of an integer-valued matrix, summed in Python integers."""
    columns = [[int(v) for v in data[:, j]] for j in range(data.shape[1])]
    return [[sum(a * b for a, b in zip(ci, cj)) for cj in columns] for ci in columns]


def float_complete_case_fit(sample, tree, node):
    """fit_linear on one node's float64 complete cases, selected without complete_cases.

    Too few cases raise the message a node model records for them.
    """
    children = tree.children_of(node)
    order = list(tree.preorder())
    block = sample.ratings[:, [order.index(c) for c in (node, *children)]].astype(np.float64)
    block = block[(block > 0).all(axis=1)]
    k = len(children)
    if block.shape[0] < k + 2:
        raise InsufficientDataError(
            f"node {node!r}: {block.shape[0]} complete cases for {k} children; "
            f"need at least {k + 2}"
        )
    return fit_linear(block[:, 0], {c: block[:, j + 1] for j, c in enumerate(children)})


@settings(max_examples=150, deadline=None)
@given(
    tree=st.sampled_from([TREE, automobile_tree()]),
    n=st.integers(3, 60),
    top=st.integers(1, 10),
    blank_share=st.floats(0.0, 0.3),
    seed=st.integers(0, 2**32 - 1),
)
@example(tree=automobile_tree(), n=60, top=10, blank_share=0.0, seed=0)  # every row complete
def test_node_models_equal_fit_linear_on_float_complete_cases(tree, n, top, blank_share, seed):
    # ``top`` narrows the ratings to 1..top, so constant and collinear columns occur
    rng = np.random.default_rng(seed)
    ratings = rng.integers(1, top + 1, size=(n, len(tree.nodes)), dtype=np.int8)
    ratings[rng.random(ratings.shape) < blank_share] = 0
    ids = [f"r{i}" for i in range(n)]
    roles, suppliers = np.ones(n, dtype=np.int8), np.zeros(n, dtype=np.uint8)  # user, us
    outcomes = np.full((n, 2), -1, dtype=np.int8)
    sample = SurveySample(tree, "us", ids, roles, ("us",), suppliers, ratings, outcomes)
    hierarchy = fit_hierarchy(sample, tree)
    internal = tree.internal_nodes()
    assert list(hierarchy.models) == [node for node in internal if node in hierarchy.models]
    for node in tree.internal_nodes():
        try:
            expected = float_complete_case_fit(sample, tree, node)
        except (InsufficientDataError, SingularMatrixError) as exc:
            assert node not in hierarchy.models
            assert hierarchy.unfit[node] == str(exc)
            continue
        assert node not in hierarchy.unfit
        model = hierarchy.models[node]
        assert fit_bits(model.fit) == fit_bits(expected)
        assert list(model.fit.coefficients) == list(expected.coefficients)
        assert model.fit.n == expected.n
        children = tree.children_of(node)
        assert model.impact_weights == {
            c: round_half_away(100.0 * expected.coefficients[c]) for c in children
        }
        assert model.flags == tuple(
            f"negative coefficient for {c} ({expected.coefficients[c]:.3f})"
            for c in children
            if expected.coefficients[c] < 0.0
        )


@pytest.mark.parametrize(
    "value",
    [math.isqrt((2**53 - 1) // 3), 2**26 + 1],
    ids=["just below 2**53", "just above 2**53"],
)
def test_exact_gram_is_the_python_integer_gram_at_the_float64_edge(value):
    # three rows, so the largest Gram entry is 3 * value**2
    data = np.array(
        [[1.0, value, -value], [1.0, value, value - 1], [1.0, -value, value]]
    )
    if 3 * value * value >= 2**53:
        # the float64 product cannot hold this sum, whatever its order
        assert int((data.T @ data)[1, 1]) != 3 * value * value
    assert regression._exact_gram(data) == (python_gram(data), [0, 0, 0])



@pytest.mark.parametrize("half_at", [None, -1], ids=["integers", "a half in the last block"])
def test_exact_gram_sums_blocks_of_rows_exactly(half_at):
    rng = np.random.default_rng(3)
    data = rng.integers(-10, 11, size=(regression._GRAM_ROWS + 5, 3)).astype(np.float64)
    if half_at is not None:
        data[half_at, 1] = 0.5
    gram, shifts = regression._exact_gram(data)
    doubled = python_gram(2 * data)  # four times the exact Gram, in integers
    for i in range(3):
        for j in range(3):
            assert Fraction(gram[i][j]) * Fraction(2) ** (shifts[i] + shifts[j]) * 4 == doubled[i][j]

_REFIT = """\
import json, sys
from cvmkit import datasets
from cvmkit.regression import fit_hierarchy, hierarchy_records
fit = fit_hierarchy(datasets.market_survey(), datasets.automobile_tree())
sys.stdout.write(json.dumps(hierarchy_records(fit)))
"""

#: (OPENBLAS_CORETYPE, OPENBLAS_NUM_THREADS); None keeps the detected core
_BLAS_SETTINGS = [
    *((core, 1) for core in ("Prescott", "Nehalem", "Sandybridge", "Haswell", "SkylakeX")),
    (None, 2),
]


def test_fixture_fit_is_the_same_under_every_openblas_kernel(hierarchy):
    want = json.dumps(hierarchy_records(hierarchy))
    src = Path(regression.__file__).resolve().parents[1]
    cores, outputs = set(), {}
    for core, threads in _BLAS_SETTINGS:
        env = dict(os.environ, OPENBLAS_VERBOSE="2", OPENBLAS_NUM_THREADS=str(threads))
        env.pop("OPENBLAS_CORETYPE", None)
        if core is not None:
            env["OPENBLAS_CORETYPE"] = core
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", _REFIT], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        cores.update(re.findall(r"^Core: (\S+)", result.stderr, re.MULTILINE))
        outputs[core, threads] = result.stdout
    if len(cores) < 2:
        pytest.skip(f"OpenBLAS reports cores {sorted(cores)}: no kernels to compare")
    for (core, threads), output in outputs.items():
        assert output == want, f"fit differs with core {core}, {threads} threads"
