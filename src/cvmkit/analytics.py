"""Competitive value analytics on top of the fitted tree models.

Everything here answers "where does the market say we stand, and what should
we fix first":

* **Relative ratings** — 100 * (our mean / competitor mean), so 100 is parity.
  At the root this is the overall customer-value score (CVA), the headline
  metric the rest of the package exists to explain.
* **Profile tables** — one per internal node: each child's impact weight next
  to both suppliers' mean ratings and the relative rating, with the parent's
  own row (and the model R^2) as the footer.
* **What-if arithmetic** — slopes multiplied along the path to the root turn
  "raise billing by one point" into predicted points of overall value.
* **Priority ranking** — leaf attributes ordered by path slope x competitive
  shortfall; this is the action list.
* **Loyalty curve** — share of respondents "very willing" to
  recommend/repurchase (rating >= threshold, default 8) as a function of the
  root rating, smoothed to be monotone and interpolated between bins, plus the
  inverse lookup ("what value score buys 80% loyalty?").
* **Value map** — relative quality vs relative price, zoned into
  superior/fair/inferior value around the parity diagonal.
* **Competitive report** — all of the above from one supplier split, as
  one value that ``rendering`` turns into text or a records document.
* **Retention projection** and the **top-box pitfall** helper round out the
  descriptive toolkit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CvmError
from .regression import FittedHierarchy, UnfitNodeError
from .rounding import round_half_away
from .survey import (
    MeanWithHalfWidth,
    NoRatingsError,
    OutcomeKind,
    SurveySample,
    node_mean,
    root_outcome_pairs,
    split_by_supplier,
    supplier_sums,
)

__all__ = [
    "MissingModelError",
    "relative_rating",
    "ProfileRow",
    "ProfileTable",
    "profile_table",
    "cva",
    "what_if",
    "PriorityEntry",
    "PriorityRanking",
    "rank_priorities",
    "pool_adjacent_violators",
    "LoyaltyCurve",
    "loyalty_curve",
    "value_target_for_loyalty",
    "ValueMapPoint",
    "supplier_value_points",
    "value_map",
    "CompetitiveReport",
    "competitive_report",
    "retention_projection",
    "DEFAULT_CATEGORIES",
    "top_box_rate",
]


class MissingModelError(CvmError):
    """A profile or ranking needed a node model the hierarchy lacks."""


def relative_rating(own_mean: float, competitor_mean: float) -> int:
    """``round(100 * own / competitor)``, halves away from zero.

    100 means parity; raises ``ValueError`` for non-positive means (ratings
    live on 1-10, so a non-positive mean is data corruption, not a ratio).
    """
    if own_mean <= 0.0 or competitor_mean <= 0.0:
        raise ValueError(
            f"means must be positive, got own={own_mean!r} competitor={competitor_mean!r}"
        )
    return round_half_away(100.0 * own_mean / competitor_mean)


@dataclass(frozen=True)
class ProfileRow:
    """One child line of a profile table."""

    node: str
    label: str
    impact_weight: int
    own_mean: MeanWithHalfWidth
    competitor_mean: MeanWithHalfWidth | None
    relative: int | None


@dataclass(frozen=True)
class ProfileTable:
    """Competitive profile of one internal node and its children.

    ``competitor`` fields are ``None`` when the competitor sample is empty —
    the table is still useful for the own-side means, the relative columns
    are just unavailable.
    """

    parent: str
    parent_label: str
    rows: tuple[ProfileRow, ...]
    parent_own: MeanWithHalfWidth
    parent_competitor: MeanWithHalfWidth | None
    parent_relative: int | None
    r_squared: float
    is_root: bool


def profile_table(
    hierarchy: FittedHierarchy,
    own: SurveySample,
    competitors: SurveySample,
    parent: str,
) -> ProfileTable:
    """Build the profile table for ``parent`` from the two sample halves."""
    tree = hierarchy.tree
    if parent not in hierarchy.models:
        reason = hierarchy.unfit.get(parent, "no model was fitted")
        raise MissingModelError(f"no driver model for node {parent!r}: {reason}")
    model = hierarchy.models[parent]
    has_competitors = len(competitors) > 0

    def means_for(node_id: str) -> tuple[MeanWithHalfWidth, MeanWithHalfWidth | None, int | None]:
        own_m = node_mean(own, node_id)
        if not has_competitors:
            return own_m, None, None
        comp_m = node_mean(competitors, node_id)
        return own_m, comp_m, relative_rating(own_m.mean, comp_m.mean)

    rows = []
    for child in tree.children_of(parent):
        own_m, comp_m, rel = means_for(child)
        rows.append(
            ProfileRow(
                node=child,
                label=tree.node(child).label,
                impact_weight=model.impact_weights[child],
                own_mean=own_m,
                competitor_mean=comp_m,
                relative=rel,
            )
        )
    parent_own, parent_comp, parent_rel = means_for(parent)
    return ProfileTable(
        parent=parent,
        parent_label=tree.node(parent).label,
        rows=tuple(rows),
        parent_own=parent_own,
        parent_competitor=parent_comp,
        parent_relative=parent_rel,
        r_squared=model.fit.r_squared,
        is_root=parent == tree.root,
    )


def cva(hierarchy: FittedHierarchy, own: SurveySample, competitors: SurveySample) -> int:
    """The root-level relative rating: overall customer value versus the market."""
    root = hierarchy.tree.root
    own_m = node_mean(own, root)
    if not len(competitors):
        raise NoRatingsError("competitor sample is empty; CVA needs both sides")
    comp_m = node_mean(competitors, root)
    return relative_rating(own_m.mean, comp_m.mean)


def what_if(
    hierarchy: FittedHierarchy,
    node: str,
    delta: float,
    current_mean: float | None = None,
) -> float:
    """Predicted change in the root rating if ``node``'s rating moves by ``delta``.

    Full-precision slopes are multiplied along the path to the root (no
    rounded weights enter the arithmetic), so the effect is linear in
    ``delta`` and composes across path segments.  When ``current_mean`` is
    supplied and the shifted mean would leave the 1-10 scale, a warning is
    emitted — the linear model has nothing to say outside the scale — but the
    extrapolated number is still returned.
    """
    slope = hierarchy.path_slope(node)
    if current_mean is not None:
        shifted = current_mean + delta
        if shifted < 1.0 or shifted > 10.0:
            warnings.warn(
                f"shift of {delta:+g} moves {node!r} from {current_mean:g} to "
                f"{shifted:g}, outside the 1-10 rating scale; the linear "
                "prediction is an extrapolation",
                stacklevel=2,
            )
    return slope * delta


@dataclass(frozen=True)
class PriorityEntry:
    """One ranked leaf: score = path slope x max(0, competitor - own)."""

    node: str
    score: float
    path_slope: float
    gap: float
    own_mean: float
    competitor_mean: float


@dataclass(frozen=True)
class PriorityRanking:
    """Ordered improvement priorities plus the leaves that could not be scored."""

    entries: tuple[PriorityEntry, ...]
    excluded: Mapping[str, str]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def rank_priorities(
    hierarchy: FittedHierarchy, own: SurveySample, competitors: SurveySample
) -> PriorityRanking:
    """Rank leaf attributes by expected root-rating payoff of closing the gap.

    Leaves are the actionable survey items, so only they are ranked; internal
    nodes move as consequences.  Score is the path slope to the root times the
    competitive shortfall ``max(0, competitor_mean - own_mean)`` — leaves
    where we already lead score 0 and sink to the bottom rather than
    disappearing.  Ties break toward the deeper (more specific) node, then by
    id.  Leaves lacking a fitted path or ratings on either side are excluded
    with the reason.
    """
    tree = hierarchy.tree
    entries: list[PriorityEntry] = []
    excluded: dict[str, str] = {}
    for leaf in tree.leaves():
        try:
            slope = hierarchy.path_slope(leaf)
            own_m = node_mean(own, leaf)
            comp_m = node_mean(competitors, leaf)
        except (UnfitNodeError, NoRatingsError) as exc:
            excluded[leaf] = str(exc)
            continue
        gap = max(0.0, comp_m.mean - own_m.mean)
        entries.append(
            PriorityEntry(
                node=leaf,
                score=slope * gap,
                path_slope=slope,
                gap=gap,
                own_mean=own_m.mean,
                competitor_mean=comp_m.mean,
            )
        )
    entries.sort(key=lambda e: (-e.score, -tree.depth(e.node), e.node))
    return PriorityRanking(entries=tuple(entries), excluded=excluded)


def pool_adjacent_violators(values: Sequence[float], weights: Sequence[float]) -> np.ndarray:
    """Weighted isotonic (non-decreasing) fit by pooling adjacent violators.

    Returns the closest non-decreasing sequence in weighted least squares;
    preserves the overall weighted mean and leaves already-monotone input
    untouched.
    """
    v = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if v.shape != w.shape or v.ndim != 1:
        raise ValueError("values and weights must be 1-d and the same length")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    # blocks of (pooled value, pooled weight, run length)
    blocks: list[list[float]] = []
    for value, weight in zip(v, w):
        blocks.append([float(value), float(weight), 1])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            top_v, top_w, top_n = blocks.pop()
            prev_v, prev_w, prev_n = blocks.pop()
            merged_w = prev_w + top_w
            merged_v = (prev_v * prev_w + top_v * top_w) / merged_w
            blocks.append([merged_v, merged_w, prev_n + top_n])
    out = np.empty_like(v)
    pos = 0
    for value, _, run in blocks:
        out[pos : pos + run] = value
        pos += run
    return out


@dataclass(frozen=True)
class LoyaltyCurve:
    """Very-willing share as a monotone function of the root value rating.

    ``points`` holds (root rating bin, smoothed proportion) for every bin
    that actually occurs; ``raw_proportions`` are the pre-smoothing shares and
    ``bin_counts`` the respondents behind each bin.
    """

    threshold: int
    outcome: OutcomeKind
    points: tuple[tuple[float, float], ...]
    raw_proportions: tuple[float, ...]
    bin_counts: tuple[int, ...]

    def proportion_at(self, value_score: float) -> float:
        """Linear interpolation between bin centres, clamped at the ends."""
        xs = [p[0] for p in self.points]
        ys = [p[1] for p in self.points]
        return float(np.interp(value_score, xs, ys))


def loyalty_curve(
    sample: SurveySample,
    outcome: OutcomeKind = OutcomeKind.RECOMMEND,
    threshold: int = 8,
) -> LoyaltyCurve:
    """Bin respondents by integer root rating and fit the willingness curve.

    "Very willing" means an outcome rating of at least ``threshold`` (default
    8 on the 0-10 scale; 9 gives the stricter variant).  Raw per-bin shares
    are smoothed to a non-decreasing sequence with pool-adjacent-violators —
    more value should never predict less loyalty, and sparse bins are noisy.
    """
    if not 1 <= threshold <= 10:
        raise ValueError(f"threshold must be in [1, 10], got {threshold}")
    scores, answers = root_outcome_pairs(sample, outcome)
    if not scores.size:
        raise NoRatingsError(
            f"no respondents with both a root rating and a {outcome.value} outcome"
        )
    per_score = np.bincount(scores)
    bins = np.flatnonzero(per_score)
    counts = per_score[bins]
    raw = np.bincount(scores[answers >= threshold], minlength=per_score.size)[bins] / counts
    smoothed = pool_adjacent_violators(raw, counts)
    return LoyaltyCurve(
        threshold=threshold,
        outcome=outcome,
        points=tuple((float(b), float(s)) for b, s in zip(bins, smoothed)),
        raw_proportions=tuple(raw.tolist()),
        bin_counts=tuple(counts.tolist()),
    )


def value_target_for_loyalty(curve: LoyaltyCurve, target: float) -> float | None:
    """Smallest value score whose curve value reaches ``target``.

    Returns the curve's lowest score when even that bin already meets the
    target, and ``None`` when the target exceeds the curve's maximum (the
    data cannot say what buys that loyalty).  ``target`` must be in (0, 1].
    """
    if not 0.0 < target <= 1.0:
        raise ValueError(f"target must be in (0, 1], got {target}")
    xs = [p[0] for p in curve.points]
    ys = [p[1] for p in curve.points]
    if ys[0] >= target:
        return xs[0]
    if target > max(ys):
        return None
    for i in range(1, len(xs)):
        if ys[i] >= target:
            lo_x, lo_y = xs[i - 1], ys[i - 1]
            hi_x, hi_y = xs[i], ys[i]
            if hi_y == lo_y:
                return hi_x
            return lo_x + (hi_x - lo_x) * (target - lo_y) / (hi_y - lo_y)
    return None  # pragma: no cover - guarded by the max() check


@dataclass(frozen=True)
class ValueMapPoint:
    """One supplier on the relative-quality / relative-price map."""

    supplier: str
    relative_quality: float
    relative_price: float
    zone: str


def supplier_value_points(sample: SurveySample) -> list[tuple[str, float, float]]:
    """Each supplier's (relative quality, relative price) versus the rest of the market.

    The axes are the root's two children, in tree order; this is the one place
    that rule is checked, and a root with another number of children raises
    :class:`CvmError`.  A supplier alone in the sample is left out.  Means come
    from ``supplier_sums`` (the rest's as total minus the supplier's), so no
    sample is copied; a side without ratings raises :class:`NoRatingsError`.
    """
    axes = sample.tree.children_of(sample.tree.root)
    if len(axes) != 2:
        raise CvmError(
            f"the value map needs a two-driver root (quality/price), not {len(axes)} drivers"
        )
    sums = [supplier_sums(sample, axis) for axis in axes]
    totals = [[sum(column) for column in zip(*by_supplier.values())] for by_supplier in sums]
    points = []
    for supplier in sums[0] if len(sums[0]) > 1 else ():
        ratings = []
        for axis, by_supplier, (n_all, sum_all) in zip(axes, sums, totals):
            n, total = by_supplier[supplier]
            if not n or n == n_all:
                raise NoRatingsError(f"no ratings for node {axis!r}")
            ratings.append(float(relative_rating(total / n, (sum_all - total) / (n_all - n))))
        points.append((supplier, *ratings))
    return points


def value_map(
    points: Iterable[tuple[str, float, float]], band: float = 3.0
) -> list[ValueMapPoint]:
    """Zone each (supplier, relative quality, relative price) point.

    Both axes are satisfaction ratios scaled to 100 = parity (price is rated
    as satisfaction, so above 100 means *better* perceived price, no axis
    flip).  The fair-value line is the anti-diagonal through parity
    (quality + price = 200): within ``band`` of it — on either side,
    boundary inclusive — is fair value, above is superior (customers get more
    than they pay for), below is inferior.
    """
    if band < 0.0:
        raise ValueError(f"band must be non-negative, got {band}")
    out = []
    for supplier, rel_quality, rel_price in points:
        if rel_quality <= 0.0 or rel_price <= 0.0:
            raise ValueError(
                f"relative ratings must be positive, got ({rel_quality}, {rel_price}) "
                f"for {supplier!r}"
            )
        distance = rel_quality + rel_price - 200.0
        if abs(distance) <= band:
            zone = "fair_value"
        elif distance > 0.0:
            zone = "superior_value"
        else:
            zone = "inferior_value"
        out.append(ValueMapPoint(supplier, rel_quality, rel_price, zone))
    return out


@dataclass(frozen=True)
class CompetitiveReport:
    """Every part of the competitive report, from one own/competitor split.

    A part the data cannot support is ``None`` (``curve``) or empty
    (``value_map``).  ``target`` is kept only with a curve; ``required`` is
    the value score it takes, ``None`` beyond the observed curve.
    """

    own_supplier: str
    n_respondents: int
    tables: tuple[ProfileTable, ...]
    priorities: PriorityRanking
    curve: LoyaltyCurve | None
    target: float | None
    required: float | None
    value_map: tuple[ValueMapPoint, ...]
    band: float


def competitive_report(
    sample: SurveySample,
    hierarchy: FittedHierarchy,
    outcome: OutcomeKind = OutcomeKind.RECOMMEND,
    threshold: int = 8,
    target: float | None = None,
    band: float = 3.0,
) -> CompetitiveReport:
    """Profile tables, priorities, loyalty curve and value map of ``sample``.

    ``hierarchy`` is a fit of ``sample``'s tree.  ``warnings.warn`` names, in
    report order, what is missing: competitors, node models, the loyalty
    curve, the value map.
    """
    own, competitors = split_by_supplier(sample)
    if not len(competitors):
        warnings.warn("no competitor respondents; relative columns unavailable", stacklevel=2)
    for node_id, reason in hierarchy.unfit.items():
        warnings.warn(f"no model for {node_id}: {reason}", stacklevel=2)
    tables = tuple(
        profile_table(hierarchy, own, competitors, node_id)
        for node_id in hierarchy.tree.internal_nodes()
        if node_id in hierarchy.models
    )
    priorities = rank_priorities(hierarchy, own, competitors)
    curve = required = None
    try:
        curve = loyalty_curve(own, outcome, threshold)
    except NoRatingsError as exc:
        warnings.warn(f"loyalty curve unavailable: {exc}", stacklevel=2)
        target = None
    if target is not None:
        required = value_target_for_loyalty(curve, target)
    points: tuple[ValueMapPoint, ...] = ()
    try:
        points = tuple(value_map(supplier_value_points(sample), band))
    except CvmError as exc:
        warnings.warn(f"value map unavailable: {exc}", stacklevel=2)
    return CompetitiveReport(
        sample.own_supplier, len(sample), tables, priorities, curve, target, required, points, band
    )


def retention_projection(customers: float, retention_rate: float, periods: int) -> float:
    """Customers left after ``periods`` of compounding at ``retention_rate``.

    ``customers * retention_rate ** periods`` — the arithmetic behind "a 90%
    annual retention rate more than halves the base inside seven years".
    """
    if customers < 0:
        raise ValueError(f"customers must be non-negative, got {customers}")
    if not 0.0 <= retention_rate <= 1.0:
        raise ValueError(f"retention_rate must be in [0, 1], got {retention_rate}")
    if periods < 0 or int(periods) != periods:
        raise ValueError(f"periods must be a non-negative integer, got {periods}")
    return customers * retention_rate ** int(periods)


DEFAULT_CATEGORIES = ("poor", "fair", "good", "excellent")


def top_box_rate(
    ratings: Sequence[str],
    box: Sequence[str],
    categories: Sequence[str] = DEFAULT_CATEGORIES,
) -> float:
    """Percent of categorical ratings falling in the top ``box`` categories.

    ``box`` must be a contiguous run at the top of the ordered ``categories``
    scale (e.g. good+excellent on a 4-point scale).  A warning against the
    metric itself is deliberate: merging the top two boxes of a 4-point scale
    can report "95% satisfied" while most of the base sits in the lower,
    defection-prone box — check the loyalty curve before celebrating.
    """
    if not ratings:
        raise ValueError("ratings is empty")
    order = list(categories)
    if len(set(order)) != len(order):
        raise ValueError("categories contains duplicates")
    box_list = list(box)
    if not box_list:
        raise ValueError("box is empty")
    if sorted(set(box_list)) != sorted(box_list):
        raise ValueError("box contains duplicates")
    top = order[len(order) - len(box_list) :]
    if set(box_list) != set(top):
        raise ValueError(
            f"box must be the top of the scale {order}; expected {top}, got {box_list}"
        )
    unknown = [r for r in ratings if r not in order]
    if unknown:
        raise ValueError(f"ratings outside the scale: {sorted(set(unknown))}")
    in_box = sum(1 for r in ratings if r in set(box_list))
    return 100.0 * in_box / len(ratings)
