import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cvmkit import datasets, simulate
from cvmkit.analytics import _loyalty_curve
from cvmkit.errors import CvmError
from cvmkit.regression import fit_hierarchy, fit_node_model
from cvmkit.rng import RandomStream
from cvmkit.simulate import (
    COMPETITOR_CLASS,
    CalibrationError,
    CellTarget,
    GroundTruth,
    InconsistentTargetsError,
    NodeTarget,
    TableTargets,
    calibrate_to_tables,
    canonical_targets,
    generate_market,
    load_truth,
    save_truth,
    truth_from_records,
    truth_records,
)
from cvmkit.survey import ROLES, _own_sides, node_mean, split_by_supplier, survey_text
from cvmkit.tree import ValueTree, parse_tree_spec

GOLDEN = Path(__file__).resolve().parent / "golden"

TREE = parse_tree_spec(
    """\
tree: t
root: value
node: value | Value | root | a b
node: a | A | attribute |
node: b | B | attribute |
"""
)
NODES = list(TREE.preorder())  # rating-matrix columns


def tiny_truth(seed=99, internal_noise=0.8, leaf_noise=1.5, n=400):
    return GroundTruth(
        tree=TREE,
        name="tiny",
        seed=seed,
        own_supplier="us",
        n_per_supplier={"us": n, "them": n},
        coefficients={"value": {"a": 0.6, "b": 0.4}},
        intercepts={"value": 0.0},
        leaf_means={"us": {"a": 6.0, "b": 5.0}, "competitors": {"a": 5.5, "b": 5.5}},
        noise_sd={"value": internal_noise, "a": leaf_noise, "b": leaf_noise},
        willingness_link={r: (r - 1) / 9 for r in range(1, 11)},
    )


def test_generation_is_deterministic():
    truth = tiny_truth()
    first = generate_market(truth)
    second = generate_market(truth)
    assert first == second
    reseeded = generate_market(dataclasses.replace(truth, seed=truth.seed + 1))
    assert reseeded != first


def test_sample_shape_and_ranges():
    sample = generate_market(tiny_truth(n=50))
    assert len(sample) == 100
    assert sample.suppliers() == ["us", "them"]
    ids = sample.ids.tolist()
    assert len(set(ids)) == len(ids)
    ratings = sample.ratings[sample.ratings != 0]  # 0 codes a missing rating
    assert ((1 <= ratings) & (ratings <= 10)).all()
    answers = sample.outcomes[sample.outcomes >= 0]  # -1 codes a missing answer
    assert (answers <= 10).all()
    assert (sample.role_codes == ROLES.index("decision_maker")).all()  # default share is 1.0


def test_decision_maker_share_mixes_roles():
    truth = dataclasses.replace(tiny_truth(n=200), decision_maker_share=0.5)
    sample = generate_market(truth)
    roles = np.asarray(ROLES)[sample.role_codes]
    assert set(roles.tolist()) == {"decision_maker", "user"}
    share = np.count_nonzero(roles == "decision_maker") / len(sample)
    assert 0.4 < share < 0.6


def test_zero_count_supplier_is_absent():
    truth = tiny_truth(n=30)
    truth.n_per_supplier = {"us": 0, "them": 30}
    sample = generate_market(truth)
    assert len(sample) == 30
    assert sample.suppliers() == ["them"]


def test_class_shift_moves_internal_means():
    base = tiny_truth(n=800)
    shifted = base.copy()
    shifted.class_shift = {"us": {"value": 0.8}}
    lifted = generate_market(shifted)
    plain = generate_market(base)
    own_ids = split_by_supplier(lifted)[0].ids
    keep = lambda s: s.ratings[np.isin(s.ids, own_ids), NODES.index("value")]
    lifted_mean = np.mean(keep(lifted))
    plain_mean = np.mean(keep(plain))
    assert lifted_mean - plain_mean == pytest.approx(0.8, abs=0.15)


def test_each_supplier_block_takes_its_class_profile():
    # no noise and no halo: every rating is clamp(round(planted)) exactly
    truth = tiny_truth()
    truth.n_per_supplier = {"us": 3, "gone": 0, "rival": 2, "other": 4}
    truth.leaf_means = {
        "us": {"a": 6.2, "b": 4.7},
        "rival": {"a": 9.8, "b": 8.6},
        "competitors": {"a": 3.1, "b": 2.4},
    }
    truth.class_shift = {"rival": {"value": 1.4}, "competitors": {"value": 1.5}}
    truth.intercepts = {"value": 0.3}
    truth.noise_sd = {"value": 0.0, "a": 0.0, "b": 0.0}
    sample = generate_market(truth)
    assert sample.ids.tolist() == [b"r%05d" % i for i in range(1, 10)]
    planted = {
        # supplier: (a, b, value), value = 0.3 + shift + 0.6 a + 0.4 b
        "us": (6, 5, 6),  # 0.3 + 3.6 + 2.0 = 5.9
        "rival": (10, 9, 10),  # 0.3 + 1.4 + 6.0 + 3.6 = 11.3, clamped
        "other": (3, 2, 4),  # 0.3 + 1.5 + 1.8 + 0.8 = 4.4, competitors profile
    }
    expected = [planted[s] for s, n in truth.n_per_supplier.items() for _ in range(n)]
    suppliers = np.asarray(sample.supplier_names)[sample.supplier_codes]
    assert suppliers.tolist() == ["us"] * 3 + ["rival"] * 2 + ["other"] * 4
    columns = [NODES.index(n) for n in ("a", "b", "value")]
    assert list(map(tuple, sample.ratings[:, columns].tolist())) == expected


def test_validate_catches_structural_mistakes():
    cases = [
        lambda t: t.coefficients.pop("value"),
        lambda t: t.coefficients["value"].pop("a"),
        lambda t: t.intercepts.pop("value"),
        lambda t: t.leaf_means["us"].pop("a"),
        lambda t: t.leaf_means["us"].__setitem__("a", 12.0),
        lambda t: t.noise_sd.pop("b"),
        lambda t: t.noise_sd.__setitem__("a", -1.0),
        lambda t: t.willingness_link.pop(5),
        lambda t: t.willingness_link.__setitem__(9, 0.1),  # breaks monotonicity
        lambda t: t.n_per_supplier.__setitem__("us", -5),
        lambda t: setattr(t, "halo_sd", -0.5),
        lambda t: setattr(t, "outcome_threshold", 0),
        lambda t: setattr(t, "decision_maker_share", 1.5),
    ]
    for mutate in cases:
        truth = tiny_truth().copy()
        mutate(truth)
        with pytest.raises(CvmError):
            truth.validate()


def test_truth_records_round_trip(tmp_path):
    truth = tiny_truth()
    truth.class_shift = {"us": {"value": 0.2}}
    truth.halo_sd = 0.7
    restored = truth_from_records(truth_records(truth))
    assert restored.coefficients == truth.coefficients
    assert restored.leaf_means == truth.leaf_means
    assert restored.willingness_link == truth.willingness_link
    assert restored.class_shift == truth.class_shift
    assert restored.halo_sd == truth.halo_sd
    assert generate_market(restored) == generate_market(truth)

    path = tmp_path / "truth.json"
    save_truth(truth, path)
    first_bytes = path.read_bytes()
    save_truth(truth, path)
    assert path.read_bytes() == first_bytes
    assert generate_market(load_truth(path)) == generate_market(truth)


def test_rounding_is_the_only_error_in_a_noiseless_market():
    # no internal noise, no halo: the parent is exactly the rounded linear
    # rule of its children, so the fit recovers the plan up to rounding
    truth = tiny_truth(internal_noise=0.0, leaf_noise=1.8, n=2500)
    sample = generate_market(truth)
    hierarchy = fit_hierarchy(sample, TREE)
    fit = hierarchy.models["value"].fit
    assert fit.coefficients["a"] == pytest.approx(0.6, abs=0.03)
    assert fit.coefficients["b"] == pytest.approx(0.4, abs=0.03)
    assert fit.intercept == pytest.approx(0.0, abs=0.2)
    assert fit.r_squared > 0.9


def test_planted_coefficients_recovered_within_three_standard_errors():
    hits = 0
    for seed in (11, 12, 13):
        truth = tiny_truth(seed=seed, internal_noise=0.8, n=2000)
        sample = generate_market(truth)
        fit = fit_hierarchy(sample, TREE).models["value"].fit
        # classical standard errors, recomputed here from the raw columns
        data = sample.ratings[:, [NODES.index(n) for n in ("value", "a", "b")]].astype(float)
        x = np.column_stack([np.ones(len(data)), data[:, 1], data[:, 2]])
        xtx_inv = np.linalg.inv(x.T @ x)
        se = np.sqrt(fit.residual_sd**2 * np.diag(xtx_inv))
        for planted, name, s in ((0.6, "a", se[1]), (0.4, "b", se[2])):
            if abs(fit.coefficients[name] - planted) <= 3 * s:
                hits += 1
    assert hits >= 5  # 6 checks; a single 3-sigma miss is tolerable


def test_calibration_nudges_a_nearby_market_onto_its_targets():
    initial = tiny_truth(internal_noise=0.6, n=600)
    targets = TableTargets(
        initial=initial,
        cells=(
            CellTarget("value", "a", 60, 6.1, 5.4, 113),
            CellTarget("value", "b", 40, 5.1, 5.6, 91),
        ),
        nodes=(NodeTarget("value", 5.7, 5.5, 104),),
    )
    truth = calibrate_to_tables(targets, max_rounds=120)
    sample = generate_market(truth)
    own = sample.supplier_codes == sample.supplier_names.index("us")
    for node, want_own, want_comp in (("a", 6.1, 5.4), ("b", 5.1, 5.6), ("value", 5.7, 5.5)):
        own_mean = np.mean(sample.ratings[own, NODES.index(node)])
        comp_mean = np.mean(sample.ratings[~own, NODES.index(node)])
        assert round(own_mean, 1) == want_own
        assert round(comp_mean, 1) == want_comp
    weights = fit_hierarchy(sample, TREE).models["value"].impact_weights
    assert weights == {"a": 60, "b": 40}


def test_round_budget_counts_updates_and_still_verifies_the_last_one():
    # this market converges on its 12th update; the check of that update
    # draws one more market, which the budget must still allow
    initial = tiny_truth(internal_noise=0.6, n=600)
    targets = TableTargets(
        initial=initial,
        cells=(
            CellTarget("value", "a", 60, 6.1, 5.4, 113),
            CellTarget("value", "b", 40, 5.1, 5.6, 91),
        ),
        nodes=(NodeTarget("value", 5.7, 5.5, 104),),
    )
    reference = truth_records(calibrate_to_tables(targets, max_rounds=120))
    assert truth_records(calibrate_to_tables(targets, max_rounds=12)) == reference
    with pytest.raises(CalibrationError):
        calibrate_to_tables(targets, max_rounds=11)


def test_contradictory_relative_is_rejected():
    tree = datasets.automobile_tree()
    targets = canonical_targets(tree)
    broken = dataclasses.replace(
        targets,
        cells=tuple(
            dataclasses.replace(c, relative=50) if c.child == "quality" else c
            for c in targets.cells
        ),
    )
    with pytest.raises(InconsistentTargetsError, match="quality"):
        calibrate_to_tables(broken)


def test_decreasing_loyalty_targets_are_rejected():
    tree = datasets.automobile_tree()
    targets = canonical_targets(tree)
    broken = dataclasses.replace(targets, loyalty_points=((7.3, 0.8), (7.8, 0.63)))
    with pytest.raises(InconsistentTargetsError, match="loyalty"):
        calibrate_to_tables(broken)


@pytest.mark.parametrize("targeted", ["cell", "r2"])
def test_a_targeted_node_the_market_cannot_fit_names_itself(targeted):
    # a huge halo makes every rating a copy of one draw, so delivery_process's
    # regressors are collinear in the first round's market
    targets = canonical_targets(datasets.automobile_tree())
    targets.initial.halo_sd = 1e4
    if targeted == "r2":  # only the R^2 target reaches the node
        cells = tuple(c for c in targets.cells if c.parent != "delivery_process")
        targets = dataclasses.replace(targets, cells=cells)
    with pytest.raises(CalibrationError) as err:
        calibrate_to_tables(targets, max_rounds=3)
    assert str(err.value) == (
        "round 0: cannot fit 'delivery_process': collinear regressors: ordering_process, "
        "delivery_timing, repair_service, billing (each is linearly dependent on the columns "
        "before it)"
    )


def _with_cell(targets, **changes):
    return tuple(
        dataclasses.replace(c, **changes) if c.child == "quality" else c for c in targets.cells
    )


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda t: {"loyalty_points": ((0.5, 0.5),)}, "loyalty score 0.5 outside [1, 10]"),
        (lambda t: {"loyalty_points": ((11.0, 0.5),)}, "loyalty score 11.0 outside [1, 10]"),
        (lambda t: {"loyalty_points": ((math.nan, 0.5),)}, "loyalty score nan outside [1, 10]"),
        (lambda t: {"cells": _with_cell(t, own_mean=math.nan)}, "'quality'): means nan/"),
        (lambda t: {"nodes": (dataclasses.replace(t.nodes[0], competitor_mean=0.0),)},
         "/0.0 outside [1, 10]"),
        (lambda t: {"r_squared": {"quality": 0.0}}, "R^2 target 0.0 for 'quality' outside (0, 1]"),
        (lambda t: {"r_squared": {"quality": 1.5}}, "R^2 target 1.5 for 'quality' outside (0, 1]"),
        (lambda t: {"r_squared": {"billing": 0.5}}, "R^2 target for 'billing': not an internal"),
        (lambda t: {"r_squared": {"nowhere": 0.5}}, "R^2 target for 'nowhere': not an internal"),
        (lambda t: {"cells": _with_cell(t, parent="billing", child="quality")},
         "cell ('billing', 'quality'): 'billing' is not an internal node"),
        (lambda t: {"cells": _with_cell(t, parent="nowhere")},
         "cell ('nowhere', 'quality'): 'nowhere' is not an internal node"),
        (lambda t: {"cells": _with_cell(t, child="billing")},
         "cell ('worth_what_paid_for', 'billing'): 'billing' is not a child of"),
        (lambda t: {"nodes": (dataclasses.replace(t.nodes[0], node="nowhere"),)},
         "node 'nowhere' is not in tree"),
    ],
    ids=["score-0.5", "score-11", "nan-score", "nan-cell-mean", "zero-node-mean", "r2-0",
         "r2-1.5", "r2-leaf", "r2-unknown", "cell-leaf-parent", "cell-unknown-parent",
         "cell-grandchild", "node-unknown"],
)
def test_a_target_off_its_scale_is_rejected(edit, message):
    targets = canonical_targets(datasets.automobile_tree())
    broken = dataclasses.replace(targets, **edit(targets))
    with pytest.raises(InconsistentTargetsError) as err:
        calibrate_to_tables(broken, max_rounds=2)
    assert message in str(err.value)


def _initial(targets, **changes):
    return dataclasses.replace(targets.initial, **changes)


def _calibrate(targets, **changes):
    return calibrate_to_tables(dataclasses.replace(targets, **changes), max_rounds=2)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda t: _initial(t, leaf_means={}).validate(), CvmError, "leaf_means is empty"),
        (lambda t: _initial(t, class_shift={"our_co": {"billing": 0.1}}).validate(), CvmError,
         "class_shift['our_co'] names non-internal nodes ['billing']"),
        (lambda t: _initial(t, willingness_link={**t.initial.willingness_link, 10: 1.5}).validate(),
         CvmError, "willingness_link[10]=1.5 outside [0, 1]"),
        (lambda t: _initial(t, leaf_means={"our_co": t.initial.leaf_means["our_co"]}).validate(),
         CvmError,
         "supplier 'comp_a' has no own leaf-mean profile and no 'competitors' profile exists"),
        (lambda t: _calibrate(t, nodes=(dataclasses.replace(t.nodes[0], relative=98),)),
         InconsistentTargetsError,
         "node 'worth_what_paid_for': means 7.3/7.5 imply relative 97, target says 98"),
        (lambda t: _calibrate(t, loyalty_points=((7.0, 1.0),)), InconsistentTargetsError,
         "loyalty proportion 1.0 outside (0, 1)"),
        (lambda t: _calibrate(t, nodes=(*t.nodes, NodeTarget("quality", 7.9, 7.7))),
         InconsistentTargetsError,
         "node 'quality' has conflicting our_co mean targets 7.4 and 7.9"),
        (lambda t: _calibrate(t, initial=_initial(
            t, leaf_means={"competitors": t.initial.leaf_means["competitors"]})),
         CvmError, "initial truth lacks a 'our_co' leaf-mean profile"),
        (lambda t: _calibrate(t, initial=_initial(
            t, leaf_means={"our_co": t.initial.leaf_means["our_co"]},
            n_per_supplier={"our_co": 1000, "comp_a": 0, "comp_b": 0})),
         CvmError, "initial truth lacks a 'competitors' leaf-mean profile"),
        (lambda t: canonical_targets(TREE), CvmError,
         "tree leaves do not match the canonical fixture (class 'our_co')"),
    ],
    ids=["no-leaf-means", "shift-on-a-leaf", "link-above-1", "competitor-without-profile",
         "node-relative", "loyalty-proportion-1", "conflicting-means", "no-own-profile",
         "no-competitor-profile", "foreign-tree"],
)
def test_each_refused_truth_or_target_names_its_fault(call, error, message):
    with pytest.raises(error) as err:
        call(canonical_targets(datasets.automobile_tree()))
    assert type(err.value) is error
    assert str(err.value) == message


def test_the_bundled_market_verifies_and_each_moved_cell_does_not():
    truth = datasets.market_truth()
    targets = canonical_targets(truth.tree)
    sample = generate_market(truth)
    models = {
        node: fit_node_model(sample, truth.tree, node)
        for node in ("worth_what_paid_for", "quality", "delivery_process")
    }
    mine, own, rest = _own_sides(sample)
    means = {
        (node, cls): mean
        for cls, side in ((truth.own_supplier, own), (COMPETITOR_CLASS, rest))
        for node, mean in side.means().items()
    }
    curve = _loyalty_curve(sample, mine, targets.loyalty_outcome, truth.outcome_threshold)
    assert simulate._verify(targets, models, means, curve)

    def moved(node, cls, step):  # one realized mean, one display step away
        return {**means, (node, cls): means[node, cls] + step}

    first_cell, first_node = targets.cells[0], targets.nodes[0]
    refused = {
        "cell weight": (dataclasses.replace(
            targets, cells=(dataclasses.replace(first_cell, weight=first_cell.weight + 1),
                            *targets.cells[1:])), means),
        "cell own mean": (targets, moved("price", truth.own_supplier, 0.1)),
        "node competitor mean": (targets, moved("worth_what_paid_for", COMPETITOR_CLASS, -0.1)),
        "node relative": (dataclasses.replace(
            targets, nodes=(dataclasses.replace(first_node, relative=first_node.relative + 1),
                            *targets.nodes[1:])), means),
        "R^2": (dataclasses.replace(
            targets, r_squared={**targets.r_squared, "quality": 0.90}), means),
        "loyalty point": (dataclasses.replace(
            targets, loyalty_points=((7.3, 0.66), (7.8, 0.80))), means),
    }
    for what, (changed, realized) in refused.items():
        assert not simulate._verify(changed, models, realized, curve), what



def test_recalibration_reproduces_the_bundled_truth():
    tree = datasets.automobile_tree()
    truth = calibrate_to_tables(canonical_targets(tree))
    shipped = json.loads(datasets.fixture_text("market_truth.json"))
    assert truth_records(truth) == shipped


def test_rebuilding_every_fixture_and_golden_file_changes_no_byte():
    # recalibrates seed 42 and rebuilds each file in a temporary directory
    tool = Path(__file__).resolve().parents[1] / "tools" / "build_fixture.py"
    result = subprocess.run(
        [sys.executable, str(tool), "--check"], capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.endswith("no file drifted\n")


@pytest.mark.parametrize("seed", [13, 28])
def test_canonical_calibration_converges_at_seeds_a_fixed_gain_left_circling(seed):
    # with the gain fixed at _DAMP, both seeds ran out of their 200 rounds
    targets = canonical_targets(datasets.automobile_tree())
    targets.initial.seed = seed
    truth = calibrate_to_tables(targets)
    assert truth.seed == seed


def test_bundled_survey_regenerates_byte_for_byte():
    truth = datasets.market_truth()
    regenerated = survey_text(generate_market(truth))
    assert regenerated == datasets.fixture_text("market_survey.csv")


def test_bundled_truth_matches_its_survey_statistics(halves):
    own, _ = halves
    truth = datasets.market_truth()
    assert truth.n_per_supplier == {"our_co": 1000, "comp_a": 500, "comp_b": 500}
    assert node_mean(own, truth.tree.root).mean == pytest.approx(7.297, abs=1e-12)


def test_a_second_market_regenerates_its_golden_survey_byte_for_byte():
    # threshold 9, mixed roles, a competitor with its own leaf profile and
    # shifts, blocks out of canonical order and an empty supplier
    truth = load_truth(GOLDEN / "second_market_truth.json")
    assert truth.outcome_threshold == 9 and truth.decision_maker_share < 1.0
    assert "comp_a" in truth.leaf_means and "comp_a" in truth.class_shift
    text = (GOLDEN / "second_market_survey.csv").read_text(encoding="utf-8")
    assert survey_text(generate_market(truth)) == text


@pytest.mark.parametrize("count", [10**30, None], ids=["10**30", "bound+1"])
def test_a_respondent_count_past_the_bound_is_refused_before_any_draw(monkeypatch, count):
    truth = tiny_truth()
    bound = simulate._max_respondents(truth.tree)
    truth.n_per_supplier = {"us": bound if count is None else count, "them": 1}
    drawn = []
    monkeypatch.setattr(simulate, "_draw", lambda *args: drawn.append(args))
    with pytest.raises(CvmError, match="respondents in all"):
        generate_market(truth)
    assert drawn == []
    truth.n_per_supplier = {"us": bound - 1, "them": 1}
    truth.validate()  # the bound itself is allowed; nothing is drawn


# --- the cached draw


def test_a_canonical_calibration_draws_its_noise_once(monkeypatch):
    # generate_market is patched the way cvmbench/worker.py counts its calls
    generate_calls, normals_calls, fit_calls = [], [], []
    generate, normals, fit = simulate.generate_market, RandomStream.normals, simulate.fit_node_model

    def counted_generate(truth):
        generate_calls.append(truth.seed)
        return generate(truth)

    def counted_normals(self, n):
        normals_calls.append(n)
        return normals(self, n)

    def counted_fit(sample, tree, node_id):
        fit_calls.append(node_id)
        return fit(sample, tree, node_id)

    monkeypatch.setattr(simulate, "generate_market", counted_generate)
    monkeypatch.setattr(RandomStream, "normals", counted_normals)
    monkeypatch.setattr(simulate, "fit_node_model", counted_fit)
    simulate._draw.cache_clear()
    truth = simulate.calibrate_to_tables(canonical_targets(datasets.automobile_tree()))
    assert len(generate_calls) == 99
    assert normals_calls == [2000, 2000 * 20, 2000 * 7]
    # a round fits only the nodes its targets name, in target order
    assert fit_calls == 99 * ["worth_what_paid_for", "quality", "delivery_process"]
    assert truth_records(truth) == json.loads(datasets.fixture_text("market_truth.json"))


class _CountingNodes(dict):
    """A node table that counts membership tests: a preorder walk makes one per node."""

    membership_tests = 0

    def __contains__(self, node_id):
        self.membership_tests += 1
        return super().__contains__(node_id)


def test_a_canonical_calibration_walks_its_tree_a_bounded_number_of_times():
    base = datasets.automobile_tree()
    nodes = _CountingNodes(base.nodes)
    tree = ValueTree(base.name, base.root, nodes)
    truth = simulate.calibrate_to_tables(canonical_targets(tree))
    assert truth.tree is tree
    # one walk of the 27 nodes makes 27 tests; walking again on every
    # preorder() call made about 24,000 over the 99 rounds
    assert nodes.membership_tests <= 5 * len(nodes)


def test_cached_draw_blocks_are_read_only():
    for block in simulate._draw(7, 4, 2, 1):
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[0] = block[-1]


def test_returning_to_a_seed_gives_its_first_sample_again():
    first = generate_market(tiny_truth(seed=1))
    second = generate_market(tiny_truth(seed=2))
    assert generate_market(tiny_truth(seed=1)) == first
    assert second != first


def test_truths_differing_only_in_planted_parameters_consume_identical_noise(monkeypatch):
    drawn = []
    for method in ("normals", "uniforms"):
        original = getattr(RandomStream, method)

        def recorded(self, n, original=original):
            out = original(self, n)
            drawn[-1].append(out)
            return out

        monkeypatch.setattr(RandomStream, method, recorded)
    planted = tiny_truth()
    moved = tiny_truth(internal_noise=0.3, leaf_noise=0.7)
    moved.leaf_means["us"]["a"] = 8.5
    moved.coefficients["value"] = {"a": 0.2, "b": 0.9}
    moved.halo_sd, moved.decision_maker_share = 0.9, 0.4
    moved.willingness_link = {r: 0.1 for r in range(1, 11)}
    samples = []
    for truth in (planted, moved):
        simulate._draw.cache_clear()
        drawn.append([])
        samples.append(generate_market(truth))
    assert samples[0] != samples[1]
    assert drawn[0]
    for first, second in zip(*drawn, strict=True):
        assert np.array_equal(first, second)


# --- the bundled survey under every SIMD level numpy dispatches to on this host

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

_HOST_DISPATCH = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
_REGENERATE = """\
import hashlib
from cvmkit import datasets
from cvmkit.simulate import generate_market
from cvmkit.survey import survey_text
try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
print(" ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t)))
print(hashlib.sha256(survey_text(generate_market(datasets.market_truth())).encode()).hexdigest())
"""


@pytest.mark.skipif(not _HOST_DISPATCH, reason="numpy lists no dispatch targets on this host")
def test_bundled_survey_regenerates_at_every_cpu_dispatch_level():
    # Level k keeps the first k dispatch targets and disables the rest, so
    # the normals' SIMD log/cos/sin run on every kernel numpy can pick here.
    src = Path(simulate.__file__).resolve().parents[1]
    want = hashlib.sha256(datasets.fixture_text("market_survey.csv").encode()).hexdigest()
    for k in range(len(_HOST_DISPATCH) + 1):
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(_HOST_DISPATCH[k:]))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", _REGENERATE], env=env, capture_output=True, text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        enabled, digest = result.stdout.split("\n")[:2]
        assert enabled.split() == _HOST_DISPATCH[:k]
        assert digest == want, f"survey differs with only {_HOST_DISPATCH[:k]} enabled"
