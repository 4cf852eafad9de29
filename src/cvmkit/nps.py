"""Net promoter score: the standard bands, the arithmetic, and its limits.

The 0-10 "would you recommend us" answers are banded promoter (9-10),
passive (7-8), detractor (0-6); the score is %promoters - %detractors
(marketing material sometimes calls this a "ratio" — it is a difference of
percentages and is implemented as one).  Percentages are kept at full
precision internally; display rounds the score to one decimal.

Two deliberate design stances, both surfaced to callers:

* **No averaging across units.**  There is no agreed standard for aggregating
  NPS over business units, and the mean of per-unit scores is not the score
  of any population, so ``aggregate_nps`` refuses ``average_of_units`` with
  an explanatory error.  Pool the respondents instead.
* **NPS is coarse.**  Within a band every rating is interchangeable (a 0 and
  a 6 are the same detractor), and the score alone carries no drill-down; the
  comparison report puts it side by side with the customer-value score, which
  decomposes into per-driver profile tables.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .analytics import cva
from .errors import CvmError
from .regression import fit_hierarchy
from .survey import OutcomeKind, SurveySample, outcome_values, split_by_supplier

__all__ = [
    "NpsSegment",
    "NpsResult",
    "NpsAggregationError",
    "classify",
    "nps",
    "aggregate_nps",
    "NpsVsCva",
    "nps_vs_cva_report",
]

PROMOTER_MIN = 9
PASSIVE_MIN = 7


class NpsSegment(str, Enum):
    PROMOTER = "promoter"
    PASSIVE = "passive"
    DETRACTOR = "detractor"


class NpsAggregationError(CvmError):
    """Raised for aggregation methods the score does not support."""


@dataclass(frozen=True)
class NpsResult:
    """Score plus the full segment breakdown and rating histogram.

    ``nps`` is ``pct_promoters - pct_detractors`` at full precision;
    ``rating_histogram[r]`` counts answers of ``r`` for r in 0..10.
    """

    n: int
    pct_promoters: float
    pct_passives: float
    pct_detractors: float
    nps: float
    rating_histogram: tuple[int, ...]


def classify(rating: int) -> NpsSegment:
    """Band one 0-10 recommendation rating."""
    if not 0 <= rating <= 10:
        raise ValueError(f"rating must be in [0, 10], got {rating}")
    if rating >= PROMOTER_MIN:
        return NpsSegment.PROMOTER
    if rating >= PASSIVE_MIN:
        return NpsSegment.PASSIVE
    return NpsSegment.DETRACTOR


def nps(ratings: Sequence[int]) -> NpsResult:
    """Compute the score over one pooled set of 0-10 ratings."""
    if not ratings:
        raise ValueError("ratings is empty; the score is undefined")
    histogram = [0] * 11
    counts = {segment: 0 for segment in NpsSegment}
    for rating in ratings:
        segment = classify(rating)  # range-checks each rating
        counts[segment] += 1
        histogram[rating] += 1
    n = len(ratings)
    pct_promoters = 100.0 * counts[NpsSegment.PROMOTER] / n
    pct_passives = 100.0 * counts[NpsSegment.PASSIVE] / n
    pct_detractors = 100.0 * counts[NpsSegment.DETRACTOR] / n
    return NpsResult(
        n=n,
        pct_promoters=pct_promoters,
        pct_passives=pct_passives,
        pct_detractors=pct_detractors,
        nps=pct_promoters - pct_detractors,
        rating_histogram=tuple(histogram),
    )


def aggregate_nps(
    groups: Mapping[str, Sequence[int]] | Iterable[Sequence[int]],
    method: str = "pooled",
) -> NpsResult:
    """Combine rating sets from several units into one score.

    ``pooled`` concatenates the respondents and scores the union — the only
    aggregation with a population reading.  ``average_of_units`` is refused:
    there is no agreed standard for averaging the score across units, and the
    average of unit scores does not equal the score of any set of customers.
    """
    if method == "average_of_units":
        raise NpsAggregationError(
            "refusing to average per-unit scores: there is no agreed standard "
            "for aggregating the score across units, and a mean of unit scores "
            "is not the score of any customer population. Pool the respondents "
            "instead (method='pooled')."
        )
    if method != "pooled":
        raise NpsAggregationError(
            f"unknown aggregation method {method!r}; supported: 'pooled'"
        )
    if isinstance(groups, Mapping):
        sets: Iterable[Sequence[int]] = groups.values()
    else:
        sets = groups
    pooled: list[int] = []
    for ratings in sets:
        pooled.extend(ratings)
    return nps(pooled)


@dataclass(frozen=True)
class NpsVsCva:
    """The own customers' score, next to CVA when the sample supports one.

    The score tells you the temperature; the customer-value score comes with
    per-driver profile tables that tell you what to fix.  ``cva`` is ``None``
    without competitors or a root model; ``cva_drill_down`` names the fitted
    nodes it decomposes into.
    """

    own_supplier: str
    nps_result: NpsResult
    cva: int | None
    cva_drill_down: tuple[str, ...]


def nps_vs_cva_report(sample: SurveySample) -> NpsVsCva:
    """Score the own customers' recommend answers and line them up with CVA.

    The sample is split here, so the score and CVA describe the same own
    customers.  Own respondents without recommend answers raise
    :class:`CvmError`.  Without competitors, or when the root model cannot
    be fitted, ``warnings.warn`` says why and ``cva`` is ``None``.
    """
    own, competitors = split_by_supplier(sample)
    ratings = outcome_values(own, OutcomeKind.RECOMMEND)
    if not ratings:
        raise CvmError(f"no recommend outcomes for supplier {sample.own_supplier!r}")
    result = nps(ratings)
    reason = "no competitor respondents"
    if len(competitors):
        hierarchy = fit_hierarchy(sample, sample.tree)
        if sample.tree.root in hierarchy.models:
            cva_value = cva(hierarchy, own, competitors)
            return NpsVsCva(sample.own_supplier, result, cva_value, tuple(hierarchy.models))
        reason = hierarchy.unfit.get(sample.tree.root, "root model missing")
    warnings.warn(f"CVA comparison unavailable: {reason}", stacklevel=2)
    return NpsVsCva(sample.own_supplier, result, None, ())
