import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvmkit.errors import CvmError
from cvmkit.nps import (
    NpsAggregationError,
    NpsSegment,
    aggregate_nps,
    classify,
    nps,
    nps_vs_cva_report,
)
from cvmkit.rendering import render_nps_vs_cva
from cvmkit.survey import OutcomeKind

ratings_lists = st.lists(st.integers(0, 10), min_size=1, max_size=200)


def test_classify_bands():
    assert [classify(r) for r in range(0, 7)] == [NpsSegment.DETRACTOR] * 7
    assert classify(7) is NpsSegment.PASSIVE
    assert classify(8) is NpsSegment.PASSIVE
    assert classify(9) is NpsSegment.PROMOTER
    assert classify(10) is NpsSegment.PROMOTER
    with pytest.raises(ValueError):
        classify(11)
    with pytest.raises(ValueError):
        classify(-1)


def test_nps_known_mix():
    # 5 promoters, 3 passives, 2 detractors
    result = nps([10, 10, 9, 9, 9, 8, 8, 7, 6, 0])
    assert result.n == 10
    assert result.pct_promoters == pytest.approx(50.0)
    assert result.pct_passives == pytest.approx(30.0)
    assert result.pct_detractors == pytest.approx(20.0)
    assert result.nps == pytest.approx(30.0)
    assert result.rating_histogram[10] == 2
    assert result.rating_histogram[0] == 1
    assert sum(result.rating_histogram) == 10


def test_nps_empty_is_undefined():
    with pytest.raises(ValueError):
        nps([])


def test_nps_rejects_out_of_scale():
    with pytest.raises(ValueError):
        nps([5, 11])


def test_fixture_recommend_score(halves):
    own, _ = halves
    recommend = own.outcomes[:, list(OutcomeKind).index(OutcomeKind.RECOMMEND)]
    ratings = recommend[recommend >= 0].tolist()  # -1 codes a blank answer
    result = nps(ratings)
    assert result.n == 1000
    assert result.pct_promoters == pytest.approx(31.8)
    assert result.pct_passives == pytest.approx(43.5)
    assert result.pct_detractors == pytest.approx(24.7)
    assert result.nps == pytest.approx(7.1)


@given(ratings_lists)
def test_score_is_bounded(ratings):
    result = nps(ratings)
    assert -100.0 <= result.nps <= 100.0
    assert result.pct_promoters + result.pct_passives + result.pct_detractors == (
        pytest.approx(100.0)
    )
    assert sum(result.rating_histogram) == result.n


@given(st.integers(1, 50))
def test_unanimous_extremes(n):
    assert nps([10] * n).nps == 100.0
    assert nps([9] * n).nps == 100.0
    assert nps([0] * n).nps == -100.0
    assert nps([6] * n).nps == -100.0
    assert nps([7] * n).nps == 0.0


@given(ratings_lists)
def test_order_does_not_matter(ratings):
    assert nps(ratings).nps == nps(list(reversed(ratings))).nps


BAND_FLOOR = {**{r: 0 for r in range(7)}, 7: 7, 8: 7, 9: 9, 10: 9}


@given(ratings_lists)
def test_only_the_band_matters(ratings):
    collapsed = [BAND_FLOOR[r] for r in ratings]
    assert nps(collapsed).nps == nps(ratings).nps


def test_pooled_aggregation_concatenates():
    groups = {"east": [10, 9, 0], "west": [7, 8]}
    pooled = aggregate_nps(groups)
    assert pooled.n == 5
    assert pooled.nps == nps([10, 9, 0, 7, 8]).nps
    # an iterable of rating sets works the same as a mapping
    assert aggregate_nps(groups.values()).nps == pooled.nps


def test_average_of_units_is_refused():
    with pytest.raises(NpsAggregationError, match="no agreed standard"):
        aggregate_nps({"a": [10], "b": [0]}, method="average_of_units")


def test_unknown_aggregation_method():
    with pytest.raises(NpsAggregationError, match="unknown aggregation"):
        aggregate_nps({"a": [10]}, method="median")


def test_aggregate_of_nothing_is_undefined():
    with pytest.raises(ValueError):
        aggregate_nps({})


def test_nps_vs_cva_on_fixture(sample, hierarchy):
    # NPS on the own customers and CVA on everyone gave CVA 99; one split gives 97
    report = nps_vs_cva_report(sample)
    assert report.own_supplier == "our_co"
    assert report.nps_result.nps == pytest.approx(7.1)
    assert report.cva == 97
    assert set(report.cva_drill_down) == set(hierarchy.models)
    text = render_nps_vs_cva(report)
    assert "own customers' recommend answers, n=1000" in text
    assert "own vs competitor root-rating means" in text


def test_nps_vs_cva_without_competitors_warns_and_scores_alone(halves):
    own, _ = halves
    with pytest.warns(UserWarning, match="^CVA comparison unavailable: no competitor respondents$"):
        report = nps_vs_cva_report(own)
    assert report.cva is None
    assert report.nps_result.nps == pytest.approx(7.1)
    assert "CVA" not in render_nps_vs_cva(report)


def test_nps_vs_cva_needs_recommend_outcomes(sample):
    silenced = dataclasses.replace(sample, outcomes=np.full_like(sample.outcomes, -1))
    with pytest.raises(CvmError, match="^no recommend outcomes for supplier 'our_co'$"):
        nps_vs_cva_report(silenced)
