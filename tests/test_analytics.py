import dataclasses
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvmkit import survey
from cvmkit.analytics import (
    LoyaltyCurve,
    MissingModelError,
    cva,
    loyalty_curve,
    pool_adjacent_violators,
    profile_table,
    rank_priorities,
    relative_rating,
    retention_projection,
    supplier_value_points,
    top_box_rate,
    value_map,
    value_target_for_loyalty,
    what_if,
)
from cvmkit.survey import NoRatingsError, OutcomeKind, SurveySample, node_mean, split_by_supplier
from cvmkit.tree import parse_tree_spec

# Per-bin willing shares of the bundled survey's own half (threshold 8),
# tallied by hand from the CSV: bins 4..10 with counts 2, 20, 148, 413,
# 345, 70, 2 and willing counts 0, 5, 50, 219, 300, 68, 2.
FIXTURE_BINS = (4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)
FIXTURE_COUNTS = (2, 20, 148, 413, 345, 70, 2)
FIXTURE_RAW = (0.0, 5 / 20, 50 / 148, 219 / 413, 300 / 345, 68 / 70, 1.0)


def keep(sample, rows):
    """``sample`` cut to the rows a boolean mask selects."""
    return dataclasses.replace(
        sample,
        ids=sample.ids[rows],
        role_codes=sample.role_codes[rows],
        supplier_codes=sample.supplier_codes[rows],
        ratings=sample.ratings[rows],
        outcomes=sample.outcomes[rows],
    )


def test_relative_rating_of_published_pairs():
    assert relative_rating(7.4, 7.7) == 96
    assert relative_rating(7.1, 7.0) == 101
    assert relative_rating(7.3, 7.5) == 97
    assert relative_rating(7.8, 7.5) == 104
    assert relative_rating(6.9, 7.8) == 88
    assert relative_rating(6.1, 7.5) == 81


def test_relative_rating_parity_and_half_rounding():
    assert relative_rating(7.0, 7.0) == 100
    # 72.5 rounds away from zero, not to the even neighbour
    assert relative_rating(7.25, 10.0) == 73
    assert relative_rating(8.85, 10.0) == 89


def test_relative_rating_rejects_nonpositive_means():
    with pytest.raises(ValueError):
        relative_rating(0.0, 7.0)
    with pytest.raises(ValueError):
        relative_rating(7.0, -1.0)


def test_root_profile_table(hierarchy, halves):
    own, competitors = halves
    table = profile_table(hierarchy, own, competitors, "worth_what_paid_for")
    assert table.is_root
    assert table.parent_own.mean == pytest.approx(7.297, abs=1e-12)
    assert table.parent_competitor.mean == pytest.approx(7.503, abs=1e-12)
    assert table.parent_relative == 97
    by_node = {row.node: row for row in table.rows}
    quality = by_node["quality"]
    assert quality.impact_weight == 51
    assert quality.own_mean.mean == pytest.approx(7.398, abs=1e-12)
    assert quality.competitor_mean.mean == pytest.approx(7.704, abs=1e-12)
    assert quality.relative == 96
    price = by_node["price"]
    assert price.impact_weight == 35
    assert price.own_mean.mean == pytest.approx(7.099, abs=1e-12)
    assert price.competitor_mean.mean == pytest.approx(6.999, abs=1e-12)
    assert price.relative == 101
    assert round(table.r_squared * 100) == 81


def test_profile_table_without_competitors(hierarchy, halves):
    own, _ = halves
    empty = keep(own, np.zeros(len(own), dtype=bool))
    table = profile_table(hierarchy, own, empty, "worth_what_paid_for")
    assert table.parent_competitor is None
    assert table.parent_relative is None
    assert all(row.relative is None for row in table.rows)
    assert table.parent_own.mean == pytest.approx(7.297, abs=1e-12)


def test_profile_table_needs_a_model(hierarchy, halves):
    own, competitors = halves
    with pytest.raises(MissingModelError):
        profile_table(hierarchy, own, competitors, "repair_quality")


def test_cva_is_root_relative(hierarchy, halves):
    own, competitors = halves
    assert cva(hierarchy, own, competitors) == 97


def test_cva_requires_competitors(hierarchy, halves):
    own, _ = halves
    with pytest.raises(NoRatingsError):
        cva(hierarchy, own, keep(own, np.zeros(len(own), dtype=bool)))


def test_what_if_uses_full_precision_path_slope(hierarchy):
    slope = hierarchy.path_slope("quality")
    effect = what_if(hierarchy, "quality", 0.6)
    assert effect == pytest.approx(slope * 0.6)
    # the quality coefficient prints as a 51 weight, so a +0.6 shift is
    # worth about a third of a point on the root rating
    assert effect == pytest.approx(0.306, abs=0.01)
    assert what_if(hierarchy, "quality", -0.6) == pytest.approx(-effect)


def test_what_if_warns_when_leaving_the_scale(hierarchy):
    with pytest.warns(UserWarning, match="outside the 1-10"):
        what_if(hierarchy, "quality", 0.6, current_mean=9.8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        what_if(hierarchy, "quality", 0.6, current_mean=7.4)


def test_priorities_rank_billing_first(hierarchy, halves):
    own, competitors = halves
    ranking = rank_priorities(hierarchy, own, competitors)
    assert ranking.excluded == {}
    assert len(ranking) == 20
    first = ranking.entries[0]
    assert first.node == "billing"
    assert first.score == pytest.approx(first.path_slope * first.gap)
    assert first.score == pytest.approx(0.169, abs=0.01)
    scores = [e.score for e in ranking]
    assert scores == sorted(scores, reverse=True)


def test_priorities_where_we_lead_score_zero(hierarchy, halves):
    own, competitors = halves
    ranking = rank_priorities(hierarchy, own, competitors)
    for entry in ranking:
        if entry.own_mean >= entry.competitor_mean:
            assert entry.gap == 0.0
            assert entry.score == 0.0
    # zero-score leaves sink below every positive-score leaf
    seen_zero = False
    for entry in ranking:
        if entry.score == 0.0:
            seen_zero = True
        elif seen_zero:
            pytest.fail("positive score after a zero score")


def test_pava_identity_on_monotone_input():
    values = [0.1, 0.1, 0.4, 0.9]
    out = pool_adjacent_violators(values, [5, 1, 2, 3])
    assert np.allclose(out, values)


def test_pava_pools_violations():
    assert np.allclose(pool_adjacent_violators([3.0, 1.0], [1.0, 1.0]), [2.0, 2.0])
    # weights pull the pooled value toward the heavier observation
    assert np.allclose(pool_adjacent_violators([3.0, 1.0], [3.0, 1.0]), [2.5, 2.5])
    assert np.allclose(
        pool_adjacent_violators([1.0, 3.0, 2.0, 4.0], np.ones(4)),
        [1.0, 2.5, 2.5, 4.0],
    )


def test_pava_input_validation():
    with pytest.raises(ValueError):
        pool_adjacent_violators([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        pool_adjacent_violators([1.0, 2.0], [1.0, 0.0])


@given(
    st.lists(
        st.tuples(st.floats(-100, 100), st.floats(0.125, 8)),
        min_size=1,
        max_size=30,
    )
)
def test_pava_is_monotone_and_mean_preserving(pairs):
    values = [v for v, _ in pairs]
    weights = [w for _, w in pairs]
    out = pool_adjacent_violators(values, weights)
    assert np.all(np.diff(out) >= 0)
    w = np.asarray(weights)
    assert float(out @ w) == pytest.approx(float(np.asarray(values) @ w), abs=1e-6)
    # already-isotonic output is a fixed point
    assert np.allclose(pool_adjacent_violators(out, weights), out)


def test_fixture_loyalty_curve_bins(halves):
    own, _ = halves
    curve = loyalty_curve(own, OutcomeKind.RECOMMEND, threshold=8)
    assert tuple(p[0] for p in curve.points) == FIXTURE_BINS
    assert curve.bin_counts == FIXTURE_COUNTS
    assert curve.raw_proportions == pytest.approx(FIXTURE_RAW, abs=1e-12)
    # the raw shares happen to be monotone already, so smoothing is a no-op
    assert tuple(p[1] for p in curve.points) == pytest.approx(FIXTURE_RAW, abs=1e-12)


def test_fixture_loyalty_interpolation(halves):
    own, _ = halves
    curve = loyalty_curve(own)
    assert curve.proportion_at(7.3) == pytest.approx(0.6320560058953574, abs=1e-9)
    assert curve.proportion_at(3.0) == curve.raw_proportions[0]
    assert curve.proportion_at(10.5) == 1.0
    target = value_target_for_loyalty(curve, 0.80)
    assert target == pytest.approx(7.794972, abs=1e-5)
    # the curve answers its own question
    assert curve.proportion_at(target) == pytest.approx(0.80, abs=1e-9)


def test_stricter_threshold_lowers_the_curve(halves):
    own, _ = halves
    loose = loyalty_curve(own, threshold=8)
    strict = loyalty_curve(own, threshold=9)
    assert tuple(p[0] for p in strict.points) == FIXTURE_BINS
    for lo, hi in zip(strict.raw_proportions, loose.raw_proportions):
        assert lo <= hi
    assert strict.proportion_at(7.3) < loose.proportion_at(7.3)


def test_loyalty_curve_validation(halves):
    own, _ = halves
    with pytest.raises(ValueError):
        loyalty_curve(own, threshold=0)
    silent = keep(own, (own.outcomes < 0).all(axis=1))  # -1 codes a blank answer
    with pytest.raises(NoRatingsError):
        loyalty_curve(silent)


def hand_curve(points):
    return LoyaltyCurve(
        threshold=8,
        outcome=OutcomeKind.RECOMMEND,
        points=tuple(points),
        raw_proportions=tuple(y for _, y in points),
        bin_counts=tuple(10 for _ in points),
    )


def test_value_target_edges():
    curve = hand_curve([(5.0, 0.2), (6.0, 0.4), (7.0, 0.8)])
    assert value_target_for_loyalty(curve, 0.6) == pytest.approx(6.5)
    assert value_target_for_loyalty(curve, 0.1) == 5.0  # already met at the bottom
    assert value_target_for_loyalty(curve, 0.9) is None  # beyond the data
    assert value_target_for_loyalty(curve, 0.8) == pytest.approx(7.0)
    with pytest.raises(ValueError):
        value_target_for_loyalty(curve, 0.0)
    with pytest.raises(ValueError):
        value_target_for_loyalty(curve, 1.5)


def test_value_target_flat_segment():
    curve = hand_curve([(5.0, 0.2), (6.0, 0.5), (7.0, 0.5), (8.0, 0.9)])
    # a flat run means the *first* score reaching the target is the answer
    assert value_target_for_loyalty(curve, 0.5) == pytest.approx(6.0)


def test_value_map_zones():
    points = value_map(
        [
            ("ahead", 110.0, 95.0),
            ("parity", 100.0, 100.0),
            ("behind", 92.0, 100.0),
        ],
        band=3.0,
    )
    assert [p.zone for p in points] == ["superior_value", "fair_value", "inferior_value"]


def test_value_map_band_is_inclusive():
    inside, outside, below = value_map(
        [("edge", 103.0, 100.0), ("past", 104.0, 100.0), ("under", 100.0, 97.0)]
    )
    assert inside.zone == "fair_value"
    assert outside.zone == "superior_value"
    assert below.zone == "fair_value"
    (tight,) = value_map([("edge", 103.0, 100.0)], band=0.0)
    assert tight.zone == "superior_value"


def test_value_map_validation():
    with pytest.raises(ValueError):
        value_map([("bad", -1.0, 100.0)])
    with pytest.raises(ValueError):
        value_map([("ok", 100.0, 100.0)], band=-1.0)


def _split_value_points(sample):
    """The value-map points from each supplier's split parts and ``node_mean``."""
    axes = sample.tree.children_of(sample.tree.root)
    points = []
    for supplier in sample.suppliers():
        mine, rest = split_by_supplier(sample, supplier)
        if len(rest):
            means = [(node_mean(mine, a).mean, node_mean(rest, a).mean) for a in axes]
            points.append((supplier, *(float(relative_rating(*m)) for m in means)))
    return points


def test_value_points_equal_the_points_of_split_parts(sample):
    rng = np.random.default_rng(3)
    blank = dataclasses.replace(
        sample, ratings=np.where(rng.random(sample.ratings.shape) < 0.3, 0, sample.ratings)
    )
    for part in (sample, blank, keep(sample, sample.supplier_codes > 0)):
        assert supplier_value_points(part) == _split_value_points(part)
    assert supplier_value_points(keep(sample, sample.supplier_codes == 0)) == []


def test_value_points_of_a_supplier_without_ratings_of_an_axis_raise_as_node_mean_does(sample):
    quality = sample._column("quality")
    for rows in (sample.supplier_codes == 1, sample.supplier_codes != 1):
        ratings = sample.ratings.copy()
        ratings[rows, quality] = 0
        unrated = dataclasses.replace(sample, ratings=ratings)
        with pytest.raises(NoRatingsError) as split_error:
            _split_value_points(unrated)
        with pytest.raises(NoRatingsError) as error:
            supplier_value_points(unrated)
        assert str(error.value) == str(split_error.value) == "no ratings for node 'quality'"


def test_value_points_of_five_thousand_suppliers_match_group_sums_without_a_split():
    tree = parse_tree_spec(
        "tree: map\nroot: value\nnode: value | V | root | quality price\n"
        "node: quality | Q | attribute |\nnode: price | P | attribute |\n"
    )
    n = 5000
    rng = np.random.default_rng(11)
    names = tuple(f"s{k:04d}" for k in range(n))
    ratings = rng.integers(1, 11, size=(n, 3)).astype(np.int8)
    sample = SurveySample(
        tree, "s0000", np.array([f"r{k}" for k in range(n)]), np.zeros(n, dtype=np.int8),
        names, rng.permutation(n).astype(np.uint16), ratings, np.full((n, 2), -1, dtype=np.int8),
    )
    codes = sample.supplier_codes.astype(np.intp)
    counts = np.bincount(codes, minlength=n)
    expected = []
    for column in (1, 2):
        sums = np.bincount(codes, weights=ratings[:, column], minlength=n)
        rest = (sums.sum() - sums) / (counts.sum() - counts)
        expected.append([relative_rating(m, r) for m, r in zip(sums / counts, rest)])
    with mock.patch.object(survey, "split_by_supplier", wraps=survey.split_by_supplier) as split, \
            mock.patch.object(SurveySample, "__post_init__", autospec=True,
                              side_effect=SurveySample.__post_init__) as made:
        points = supplier_value_points(sample)
    assert split.call_count == made.call_count == 0
    assert points == [(name, float(q), float(p)) for name, q, p in zip(names, *expected)]


def test_retention_projection_compounds():
    assert retention_projection(1200, 0.9, 9) == pytest.approx(464.9045868, abs=1e-6)
    assert retention_projection(1200, 0.9, 0) == 1200.0
    # 90% a year sounds fine until it halves the base inside seven years
    assert retention_projection(1000, 0.9, 7) < 500


def test_retention_projection_validation():
    with pytest.raises(ValueError):
        retention_projection(-1, 0.9, 2)
    with pytest.raises(ValueError):
        retention_projection(100, 1.1, 2)
    with pytest.raises(ValueError):
        retention_projection(100, 0.9, -1)


def test_top_box_rate():
    ratings = ["excellent"] * 35 + ["good"] * 60 + ["fair"] * 4 + ["poor"]
    assert top_box_rate(ratings, ["good", "excellent"]) == pytest.approx(95.0)
    assert top_box_rate(ratings, ["excellent"]) == pytest.approx(35.0)


def test_top_box_rate_validation():
    with pytest.raises(ValueError):
        top_box_rate([], ["excellent"])
    with pytest.raises(ValueError):
        top_box_rate(["good"], ["poor", "excellent"])  # not the top of the scale
    with pytest.raises(ValueError):
        top_box_rate(["terrific"], ["excellent"])
