import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cvmkit import datasets, simulate
from cvmkit.errors import CvmError
from cvmkit.regression import fit_hierarchy
from cvmkit.rng import RandomStream
from cvmkit.simulate import (
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
from cvmkit.survey import ROLES, node_mean, split_by_supplier, survey_text
from cvmkit.tree import ValueTree, parse_tree_spec

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
    assert sample.ids.tolist() == [f"r{i:05d}" for i in range(1, 10)]
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


def test_recalibration_reproduces_the_bundled_truth():
    tree = datasets.automobile_tree()
    truth = calibrate_to_tables(canonical_targets(tree))
    shipped = json.loads(datasets.fixture_text("market_truth.json"))
    assert truth_records(truth) == shipped


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


# --- the cached draw


def test_a_canonical_calibration_draws_its_noise_once(monkeypatch):
    # generate_market is patched the way cvmbench/worker.py counts its calls
    generate_calls, normals_calls = [], []
    generate, normals = simulate.generate_market, RandomStream.normals

    def counted_generate(truth):
        generate_calls.append(truth.seed)
        return generate(truth)

    def counted_normals(self, n):
        normals_calls.append(n)
        return normals(self, n)

    monkeypatch.setattr(simulate, "generate_market", counted_generate)
    monkeypatch.setattr(RandomStream, "normals", counted_normals)
    simulate._draw.cache_clear()
    truth = simulate.calibrate_to_tables(canonical_targets(datasets.automobile_tree()))
    assert len(generate_calls) == 99
    assert normals_calls == [2000, 2000 * 20, 2000 * 7]
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
