"""Synthetic survey markets with known ground truth.

The generator plants a linear value hierarchy and produces whole survey
samples from it, so every statistical claim in the package can be tested
against a truth that is actually known:

* **Leaf ratings** are Gaussians around per-supplier-class leaf means —
  a shared per-respondent disposition term (the "halo", one draw per
  respondent added to every leaf) plus independent per-leaf noise — clamped
  to [1, 10] and rounded to integers.  The halo is what makes sibling
  regressors correlate the way real survey answers do.
* **Internal ratings** are the planted linear combination of the *recorded*
  child ratings plus an intercept, a small per-class shift, and node noise,
  clamped and rounded the same way.  Because parents are built from the same
  integer child ratings an analyst regresses on, the planted slopes are
  recoverable without errors-in-variables bias; clamping introduces the mild
  attenuation the calibrator compensates for.
* **Outcomes** (recommend / repurchase, 0-10) are drawn so that
  P(outcome >= threshold | root rating) follows the planted monotone
  willingness table; within the willing/unwilling bands the value is drawn
  from fixed documented shapes.

All randomness comes from one :class:`~cvmkit.rng.RandomStream` with a fixed
draw layout (halo block, leaf-noise block, node-noise block, role block,
outcome blocks), so on one machine a seed fully determines every byte of the
output (:mod:`cvmkit.rng` says what may differ across CPUs), and the
draws do not depend on the parameter values, so the last draw is cached and
a regeneration only maps new parameters over it — which is what lets
:func:`calibrate_to_tables` iterate: with the seed frozen, planted parameters
can be nudged until the *fitted* table — integer impact weights, one-decimal
means, relative ratings, R^2, loyalty-curve anchor points — reproduces a
published-style target profile exactly.
"""

from __future__ import annotations

import copy
import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from .analytics import LoyaltyCurve, loyalty_curve, relative_rating
from .errors import CvmError, read_json, write_atomic
from .regression import FittedHierarchy, fit_hierarchy
from .rng import RandomStream
from .rounding import format_rating, round_half_away
from .survey import (
    OutcomeKind,
    SurveySample,
    _supplier_codes,
    node_means,
    split_by_supplier,
)
from .tree import ValueTree, parse_tree_spec, serialize_tree

__all__ = [
    "COMPETITOR_CLASS",
    "GroundTruth",
    "generate_market",
    "truth_records",
    "truth_from_records",
    "save_truth",
    "load_truth",
    "CellTarget",
    "NodeTarget",
    "TableTargets",
    "InconsistentTargetsError",
    "CalibrationError",
    "calibrate_to_tables",
    "canonical_targets",
]

#: key under which all competitor suppliers share one mean/shift profile
COMPETITOR_CLASS = "competitors"


class InconsistentTargetsError(CvmError):
    """Calibration targets that contradict each other (e.g. means vs relative)."""


class CalibrationError(CvmError):
    """Calibration failed to converge within its iteration budget."""


@dataclass
class GroundTruth:
    """A fully specified market: tree, linear model, noise, and outcomes.

    ``leaf_means`` and ``class_shift`` are keyed by supplier *class*: a
    supplier label uses its own entry when present, else the shared
    ``competitors`` profile.  ``coefficients[p][c]`` is the planted slope of
    child ``c`` in parent ``p``'s model; ``intercepts`` and the per-class
    ``class_shift`` complete each internal node's linear rule.  ``halo_sd``
    scales the shared per-respondent disposition; ``willingness_link`` maps
    each integer root rating 1-10 to P(outcome >= ``outcome_threshold``).
    """

    tree: ValueTree
    name: str
    seed: int
    own_supplier: str
    n_per_supplier: dict[str, int]
    coefficients: dict[str, dict[str, float]]
    intercepts: dict[str, float]
    leaf_means: dict[str, dict[str, float]]
    noise_sd: dict[str, float]
    willingness_link: dict[int, float]
    class_shift: dict[str, dict[str, float]] = field(default_factory=dict)
    halo_sd: float = 0.0
    outcome_threshold: int = 8
    decision_maker_share: float = 1.0

    def copy(self) -> "GroundTruth":
        """An independent copy of every parameter that shares the (immutable) tree."""
        return copy.deepcopy(self, {id(self.tree): self.tree})

    def supplier_class(self, supplier: str) -> str:
        return supplier if supplier in self.leaf_means else COMPETITOR_CLASS

    def validate(self) -> None:
        tree = self.tree
        internal = set(tree.internal_nodes())
        leaves = set(tree.leaves())
        if set(self.coefficients) != internal:
            raise CvmError(
                "coefficients must cover exactly the internal nodes; "
                f"got {sorted(self.coefficients)}, expected {sorted(internal)}"
            )
        for parent, slopes in self.coefficients.items():
            children = set(tree.children_of(parent))
            if set(slopes) != children:
                raise CvmError(
                    f"coefficients for {parent!r} must cover its children "
                    f"{sorted(children)}, got {sorted(slopes)}"
                )
        missing_intercepts = internal - set(self.intercepts)
        if missing_intercepts:
            raise CvmError(f"missing intercepts for {sorted(missing_intercepts)}")
        if not self.leaf_means:
            raise CvmError("leaf_means is empty")
        for cls, means in self.leaf_means.items():
            if set(means) != leaves:
                raise CvmError(
                    f"leaf_means[{cls!r}] must cover all leaves; "
                    f"missing {sorted(leaves - set(means))}"
                )
            for leaf, mean in means.items():
                if not 1.0 <= mean <= 10.0:
                    raise CvmError(f"leaf mean {leaf!r}={mean} outside [1, 10]")
        for cls in self.class_shift:
            unknown = set(self.class_shift[cls]) - internal
            if unknown:
                raise CvmError(f"class_shift[{cls!r}] names non-internal nodes {sorted(unknown)}")
        every_node = internal | leaves
        missing_noise = every_node - set(self.noise_sd)
        if missing_noise:
            raise CvmError(f"missing noise_sd for {sorted(missing_noise)}")
        for node, sd in self.noise_sd.items():
            if sd < 0.0:
                raise CvmError(f"noise_sd[{node!r}]={sd} is negative")
        if self.halo_sd < 0.0:
            raise CvmError(f"halo_sd={self.halo_sd} is negative")
        if not 1 <= self.outcome_threshold <= 10:
            raise CvmError(f"outcome_threshold={self.outcome_threshold} outside [1, 10]")
        if set(self.willingness_link) != set(range(1, 11)):
            raise CvmError("willingness_link must map every root rating 1..10")
        previous = 0.0
        for rating in range(1, 11):
            p = self.willingness_link[rating]
            if not 0.0 <= p <= 1.0:
                raise CvmError(f"willingness_link[{rating}]={p} outside [0, 1]")
            if p < previous:
                raise CvmError(
                    f"willingness_link must be non-decreasing; drops at rating {rating}"
                )
            previous = p
        if not 0.0 <= self.decision_maker_share <= 1.0:
            raise CvmError(f"decision_maker_share={self.decision_maker_share} outside [0, 1]")
        for supplier, count in self.n_per_supplier.items():
            if count < 0:
                raise CvmError(f"n_per_supplier[{supplier!r}]={count} is negative")
            if count > 0 and self.supplier_class(supplier) == COMPETITOR_CLASS:
                if COMPETITOR_CLASS not in self.leaf_means:
                    raise CvmError(
                        f"supplier {supplier!r} has no own leaf-mean profile and no "
                        f"{COMPETITOR_CLASS!r} profile exists"
                    )


def _band_pick(size: int, weights: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    cumulative = np.cumsum(weights / weights.sum())
    return np.searchsorted(cumulative, uniforms, side="left").clip(0, size - 1)


def _clamp_round(latent: np.ndarray) -> np.ndarray:
    return np.clip(np.floor(latent + 0.5), 1.0, 10.0).astype(np.int64)


@functools.lru_cache(maxsize=1)
def _draw(seed: int, total: int, n_leaves: int, n_internal: int) -> tuple[np.ndarray, ...]:
    """Every random number a market of this seed and shape consumes, read-only.

    In draw order: the unscaled halo ``(n,)``, leaf noise ``(n, leaves)`` and
    node noise ``(n, internal nodes)``; the role ``(n,)``, willing ``(n, 2)``
    and band ``(n, 2)`` uniforms; then the ids ``r00001...``.  The draws do
    not depend on the planted parameters, so calibration, which regenerates
    one seed and shape every round, draws them once (common random numbers).
    The cache holds the last draw: about 0.6 MB at 2,000 respondents on the
    bundled tree and about 58 MB at 200,000.
    """
    stream = RandomStream(seed)
    draw = (
        stream.normals(total),
        stream.normals(total * n_leaves).reshape(total, n_leaves),
        stream.normals(total * n_internal).reshape(total, n_internal),
        stream.uniforms(total),
        stream.uniforms(total * 2).reshape(total, 2),
        stream.uniforms(total * 2).reshape(total, 2),
        np.array([f"r{i + 1:05d}" for i in range(total)]),
    )
    for block in draw:
        block.flags.writeable = False
    return draw


def generate_market(truth: GroundTruth) -> SurveySample:
    """Draw one complete survey sample from the planted market.

    Deterministic in ``truth.seed``: respondents appear supplier-block by
    supplier-block in ``n_per_supplier`` order with ids ``r00001...``, and
    the random draw layout is fixed by (tree shape, total n) alone, so two
    truths differing only in planted parameters consume identical noise.
    """
    truth.validate()
    tree = truth.tree
    column = {node: j for j, node in enumerate(tree.preorder())}
    leaves = tree.leaves()
    internal_pre = tree.internal_nodes()

    suppliers = [s for s, count in truth.n_per_supplier.items() if count > 0]
    classes = [truth.supplier_class(s) for s in suppliers]
    block_of = np.repeat(  # each respondent's index into `suppliers`
        np.arange(len(suppliers)), [truth.n_per_supplier[s] for s in suppliers]
    )
    total = len(block_of)

    unit_halo, leaf_noise, node_noise, role_u, willing_u, band_u, ids = _draw(
        truth.seed, total, len(leaves), len(internal_pre)
    )
    halo = unit_halo * truth.halo_sd

    ratings = np.empty((total, len(column)), dtype=np.int8)
    for j, leaf in enumerate(leaves):
        per_block_mean = np.asarray([truth.leaf_means[c][leaf] for c in classes])
        latent = per_block_mean[block_of] + halo + leaf_noise[:, j] * truth.noise_sd[leaf]
        ratings[:, column[leaf]] = _clamp_round(latent)

    for j, node in reversed(list(enumerate(internal_pre))):  # children first
        per_block_shift = np.asarray(
            [truth.class_shift.get(c, {}).get(node, 0.0) for c in classes]
        )
        latent = truth.intercepts[node] + per_block_shift[block_of]
        for child, slope in truth.coefficients[node].items():
            latent += slope * ratings[:, column[child]].astype(np.float64)
        latent += node_noise[:, j] * truth.noise_sd[node]
        ratings[:, column[node]] = _clamp_round(latent)

    link_table = np.asarray([truth.willingness_link[r] for r in range(1, 11)])
    link = link_table[ratings[:, column[tree.root]] - 1]

    threshold = truth.outcome_threshold
    high_size = 11 - threshold
    low_size = threshold
    high_values = np.arange(threshold, 11)
    low_values = np.arange(0, threshold)
    # willing band: the value nearest the threshold is most likely (w ~ size - i)
    high_weights = (high_size - np.arange(high_size)).astype(np.float64)
    # unwilling band: the mass piles toward the top (w ~ (i + 1)^2)
    low_weights = ((np.arange(low_size) + 1.0) ** 2).astype(np.float64)

    outcomes = np.empty((total, len(OutcomeKind)), dtype=np.int8)
    for k in range(len(OutcomeKind)):
        willing = willing_u[:, k] < link
        high_pick = high_values[_band_pick(high_size, high_weights, band_u[:, k])]
        low_pick = low_values[_band_pick(low_size, low_weights, band_u[:, k])]
        outcomes[:, k] = np.where(willing, high_pick, low_pick)

    roles = (role_u >= truth.decision_maker_share).astype(np.int8)  # ROLES: decision maker, user
    names, codes = _supplier_codes(suppliers, truth.own_supplier)
    return SurveySample(
        tree, truth.own_supplier, ids, roles, names, codes[block_of], ratings, outcomes
    )


def truth_records(truth: GroundTruth) -> dict:
    """JSON-ready form; embeds the serialized tree so the file is self-contained.

    Key order is canonical — tree preorder for nodes, sorted for class keys —
    so equal truths serialize to identical bytes no matter how their dicts
    were built (``n_per_supplier`` keeps its order: it is the generation
    order, not presentation).
    """
    tree = truth.tree
    internal = tree.internal_nodes()
    classes = sorted(truth.leaf_means)
    return {
        "name": truth.name,
        "seed": truth.seed,
        "own_supplier": truth.own_supplier,
        "n_per_supplier": dict(truth.n_per_supplier),
        "tree_text": serialize_tree(tree),
        "coefficients": {
            p: {c: truth.coefficients[p][c] for c in tree.children_of(p)}
            for p in internal
        },
        "intercepts": {p: truth.intercepts[p] for p in internal},
        "class_shift": {
            cls: {
                node: truth.class_shift[cls][node]
                for node in internal
                if node in truth.class_shift[cls]
            }
            for cls in sorted(truth.class_shift)
        },
        "leaf_means": {
            cls: {leaf: truth.leaf_means[cls][leaf] for leaf in tree.leaves()}
            for cls in classes
        },
        "noise_sd": {node: truth.noise_sd[node] for node in tree.preorder()},
        "halo_sd": truth.halo_sd,
        "willingness_link": {str(r): truth.willingness_link[r] for r in range(1, 11)},
        "outcome_threshold": truth.outcome_threshold,
        "decision_maker_share": truth.decision_maker_share,
    }


def truth_from_records(records: Mapping) -> GroundTruth:
    truth = GroundTruth(
        tree=parse_tree_spec(records["tree_text"]),
        name=str(records["name"]),
        seed=int(records["seed"]),
        own_supplier=str(records["own_supplier"]),
        n_per_supplier={k: int(v) for k, v in records["n_per_supplier"].items()},
        coefficients={
            p: {c: float(v) for c, v in slopes.items()}
            for p, slopes in records["coefficients"].items()
        },
        intercepts={k: float(v) for k, v in records["intercepts"].items()},
        leaf_means={
            cls: {leaf: float(v) for leaf, v in means.items()}
            for cls, means in records["leaf_means"].items()
        },
        noise_sd={k: float(v) for k, v in records["noise_sd"].items()},
        willingness_link={int(r): float(p) for r, p in records["willingness_link"].items()},
        class_shift={
            cls: {node: float(v) for node, v in shifts.items()}
            for cls, shifts in records.get("class_shift", {}).items()
        },
        halo_sd=float(records.get("halo_sd", 0.0)),
        outcome_threshold=int(records.get("outcome_threshold", 8)),
        decision_maker_share=float(records.get("decision_maker_share", 1.0)),
    )
    truth.validate()
    return truth


def save_truth(truth: GroundTruth, path: str | Path) -> None:
    write_atomic(path, json.dumps(truth_records(truth), indent=2) + "\n")


def load_truth(path: str | Path) -> GroundTruth:
    return read_json(path, "ground truth", truth_from_records)


@dataclass(frozen=True)
class CellTarget:
    """One child row of a target profile table.

    ``weight`` is the integer impact weight the *fitted* model must display;
    the means are what the generated samples must show after one-decimal
    rounding, and ``relative`` the resulting relative rating.
    """

    parent: str
    child: str
    weight: int
    own_mean: float
    competitor_mean: float
    relative: int


@dataclass(frozen=True)
class NodeTarget:
    """A parent/footer row target: the node's own means and relative rating."""

    node: str
    own_mean: float
    competitor_mean: float
    relative: int | None = None


@dataclass
class TableTargets:
    """Everything :func:`calibrate_to_tables` must reproduce.

    ``initial`` supplies the tree, sample sizes, seed, free-node parameter
    choices and starting values; the remaining fields pin the cells the
    calibrated market must render exactly.
    """

    initial: GroundTruth
    cells: tuple[CellTarget, ...] = ()
    nodes: tuple[NodeTarget, ...] = ()
    r_squared: Mapping[str, float] = field(default_factory=dict)
    loyalty_points: tuple[tuple[float, float], ...] = ()
    loyalty_outcome: OutcomeKind = OutcomeKind.RECOMMEND


_TOL_MEAN = 0.004
_TOL_COEF = 0.0015
_TOL_R2 = 0.004
_TOL_LOYALTY = 0.004

# Update damping.  Ratings are integers, so around a fixed point the realized
# mean of a low-noise node responds to its shift knob with a local slope that
# the rounding sawtooth can push up toward ~2; undamped steps then oscillate
# with period 2 instead of converging.  Half-steps make a slope in (0, 2]
# strictly contracting (multiplier 1 - lambda*g in [0, 1)).
_DAMP = 0.5
# Rounding also makes a fitted slope a step function of the planted one, so a
# fixed gain can circle that noise floor for good.  After the first
# _DAMP_ROUNDS rounds the gain falls as 1/round (Robbins-Monro: the gains sum
# to infinity, their squares do not), which settles it.  A calibration that
# converges within those rounds takes the same path as with a fixed gain.
_DAMP_ROUNDS = 100


def _check_targets(targets: TableTargets) -> None:
    for cell in targets.cells:
        implied = relative_rating(cell.own_mean, cell.competitor_mean)
        if implied != cell.relative:
            raise InconsistentTargetsError(
                f"cell ({cell.parent!r}, {cell.child!r}): means "
                f"{cell.own_mean}/{cell.competitor_mean} imply relative {implied}, "
                f"target says {cell.relative}"
            )
    for node_target in targets.nodes:
        if node_target.relative is not None:
            implied = relative_rating(node_target.own_mean, node_target.competitor_mean)
            if implied != node_target.relative:
                raise InconsistentTargetsError(
                    f"node {node_target.node!r}: means imply relative {implied}, "
                    f"target says {node_target.relative}"
                )
    last_score, last_prop = -math.inf, -math.inf
    for score, prop in targets.loyalty_points:
        if not 0.0 < prop < 1.0:
            raise InconsistentTargetsError(f"loyalty proportion {prop} outside (0, 1)")
        if score <= last_score or prop < last_prop:
            raise InconsistentTargetsError(
                "loyalty points must increase in score and be non-decreasing in proportion"
            )
        last_score, last_prop = score, prop


def _mean_targets(targets: TableTargets) -> dict[tuple[str, str], float]:
    """(node, class) -> target mean, combined from cells, node rows and leaves."""
    truth = targets.initial
    own = truth.own_supplier
    out: dict[tuple[str, str], float] = {}

    def put(node: str, cls: str, value: float) -> None:
        existing = out.get((node, cls))
        if existing is not None and abs(existing - value) > 1e-9:
            raise InconsistentTargetsError(
                f"node {node!r} has conflicting {cls} mean targets {existing} and {value}"
            )
        out[(node, cls)] = value

    for cell in targets.cells:
        put(cell.child, own, cell.own_mean)
        put(cell.child, COMPETITOR_CLASS, cell.competitor_mean)
    for node_target in targets.nodes:
        put(node_target.node, own, node_target.own_mean)
        put(node_target.node, COMPETITOR_CLASS, node_target.competitor_mean)
    for cls in (own, COMPETITOR_CLASS):
        means = truth.leaf_means.get(cls if cls in truth.leaf_means else COMPETITOR_CLASS, {})
        for leaf in truth.tree.leaves():
            out.setdefault((leaf, cls), means[leaf])
    return out


def calibrate_to_tables(targets: TableTargets, max_rounds: int = 200) -> GroundTruth:
    """Tune a ground truth until its generated market reproduces the targets.

    With the seed fixed, every generation round reuses one cached draw, so
    the maps from planted parameters to realized statistics are smooth and
    near-affine; the loop is plain fixed-point iteration:

    * leaf means / internal class shifts absorb mean errors one-for-one,
    * targeted coefficients are nudged by the fitted-vs-target residual
      (so the *displayed* integer weight is exact, not just the plant),
    * node noise is rescaled until fitted R^2 matches,
    * the willingness table at the bins bracketing each loyalty anchor is
      adjusted until the smoothed, interpolated curve passes through it.

    Each round draws one market; its statistics drive the update and check
    every target cell exactly, so the returned truth is the one whose drawn
    market was checked.  ``max_rounds`` bounds the updates; the last update
    still gets its check.

    Raises :class:`InconsistentTargetsError` for self-contradictory targets
    and :class:`CalibrationError` if the budget runs out before every target
    cell verifies exactly.
    """
    _check_targets(targets)
    truth = targets.initial.copy()
    truth.validate()
    tree = truth.tree
    own_label = truth.own_supplier
    leaves = set(tree.leaves())
    mean_targets = _mean_targets(targets)
    coef_targets = {(c.parent, c.child): c.weight / 100.0 for c in targets.cells}
    anchors = targets.loyalty_points

    for cls in (own_label, COMPETITOR_CLASS):
        truth.class_shift.setdefault(cls, {})
        if cls not in truth.leaf_means:
            raise CvmError(f"initial truth lacks a {cls!r} leaf-mean profile")

    worst: dict[str, float] = {}
    converged = False
    for round_index in range(max_rounds + 1):
        check_only = round_index == max_rounds  # a draw that only checks the last update
        if check_only and not converged:
            break
        sample = generate_market(truth)
        own_sample, comp_sample = split_by_supplier(sample)
        by_class = {own_label: own_sample, COMPETITOR_CLASS: comp_sample}
        hierarchy = fit_hierarchy(sample, tree)
        class_means = {cls: node_means(part) for cls, part in by_class.items()}
        means = {(node, cls): class_means[cls][node] for node, cls in mean_targets}
        curve = (
            loyalty_curve(own_sample, targets.loyalty_outcome, truth.outcome_threshold)
            if anchors
            else None
        )
        if converged and _verify(targets, hierarchy, means, curve):
            return truth
        if check_only:
            break
        worst = {"mean": 0.0, "coef": 0.0, "r2": 0.0, "loyalty": 0.0}
        gain = _DAMP * min(1.0, _DAMP_ROUNDS / (round_index + 1))

        for (node, cls), target in mean_targets.items():
            err = target - means[node, cls]
            worst["mean"] = max(worst["mean"], abs(err))
            if node in leaves:
                truth.leaf_means[cls][node] += gain * err
            else:
                truth.class_shift[cls][node] = (
                    truth.class_shift[cls].get(node, 0.0) + gain * err
                )

        sample_means = node_means(sample)
        for (parent, child), target in coef_targets.items():
            realized = hierarchy.models[parent].fit.coefficients[child]
            err = target - realized
            worst["coef"] = max(worst["coef"], abs(err))
            step = gain * err
            truth.coefficients[parent][child] += step
            # Keep the update mean-neutral: a slope change of `step` moves the
            # parent's mean by step * mean(child), which would send the mean
            # knobs chasing it; cancel that through the intercept.
            truth.intercepts[parent] -= step * sample_means[child]

        for node, target in targets.r_squared.items():
            realized = hierarchy.models[node].fit.r_squared
            worst["r2"] = max(worst["r2"], abs(target - realized))
            if 0.0 < realized < 1.0:
                variance_ratio = ((1.0 - target) * realized) / ((1.0 - realized) * target)
                factor = variance_ratio ** 0.35  # damped
                truth.noise_sd[node] = min(3.0, max(0.02, truth.noise_sd[node] * factor))

        if curve is not None:
            link = truth.willingness_link
            for score, target in anchors:
                realized = curve.proportion_at(score)
                err = target - realized
                worst["loyalty"] = max(worst["loyalty"], abs(err))
                low_bin, high_bin = math.floor(score), math.ceil(score)
                frac = score - low_bin
                for rating, share in ((low_bin, 1.0 - frac), (high_bin, frac)):
                    if 1 <= rating <= 10 and share > 0.0:
                        link[rating] = min(
                            0.99, max(0.01, link[rating] + gain * share * err)
                        )
            anchor_bins = sorted(
                {b for s, _ in anchors for b in (math.floor(s), math.ceil(s)) if 1 <= b <= 10}
            )
            lo_bin, hi_bin = anchor_bins[0], anchor_bins[-1]
            for rating in range(hi_bin + 1, 11):
                link[rating] = max(link[rating], link[rating - 1])
            for rating in range(lo_bin - 1, 0, -1):
                link[rating] = min(link[rating], link[rating + 1])

        converged = (
            worst["mean"] <= _TOL_MEAN
            and worst["coef"] <= _TOL_COEF
            and worst["r2"] <= _TOL_R2
            and worst["loyalty"] <= _TOL_LOYALTY
        )

    raise CalibrationError(
        f"calibration did not converge in {max_rounds} rounds; "
        f"worst residuals: {worst}"
    )


def _verify(
    targets: TableTargets,
    hierarchy: FittedHierarchy,
    means: Mapping[tuple[str, str], float],
    curve: LoyaltyCurve | None,
) -> bool:
    """Whether one round's statistics show every displayed target cell exactly.

    ``means`` maps (node, class) to the realized mean for every mean target,
    and ``curve`` is the own supplier's loyalty curve (None without anchors).
    """
    own = targets.initial.own_supplier

    def shows(node: str, own_mean: float, competitor_mean: float, relative: int | None) -> bool:
        realized_own, realized_comp = means[node, own], means[node, COMPETITOR_CLASS]
        return (
            format_rating(realized_own) == format_rating(own_mean)
            and format_rating(realized_comp) == format_rating(competitor_mean)
            and (relative is None or relative_rating(realized_own, realized_comp) == relative)
        )

    for cell in targets.cells:
        model = hierarchy.models.get(cell.parent)
        if model is None or model.impact_weights.get(cell.child) != cell.weight:
            return False
        if not shows(cell.child, cell.own_mean, cell.competitor_mean, cell.relative):
            return False
    for node_target in targets.nodes:
        if not shows(node_target.node, node_target.own_mean, node_target.competitor_mean,
                     node_target.relative):
            return False
    for node, target in targets.r_squared.items():
        realized = hierarchy.models[node].fit.r_squared
        if round_half_away(100.0 * realized) != round_half_away(100.0 * target):
            return False
    return curve is None or all(
        abs(curve.proportion_at(score) - prop) <= 0.01 for score, prop in targets.loyalty_points
    )


# --------------------------------------------------------------------------
# The bundled automobile-market targets.
# --------------------------------------------------------------------------

_OWN = "our_co"

_LEAF_TARGETS: dict[str, dict[str, float]] = {
    _OWN: {
        "reliability": 8.0, "styling": 7.7, "safety": 7.9, "comfort": 7.6,
        "workmanship": 7.8, "fuel_economy": 7.4,
        "initial_contact": 7.2, "ordering_process": 7.1, "delivery_timing": 7.0,
        "repair_service": 7.1, "billing": 6.1,
        "purchase_price": 7.1, "financing_terms": 7.2, "trade_in_value": 7.0,
        "dealer_fees": 6.9, "warranty_cost": 7.2,
        "maintenance_cost": 7.2, "insurance_cost": 7.0, "operating_cost": 7.1,
        "resale_value": 7.3,
    },
    COMPETITOR_CLASS: {
        "reliability": 7.6, "styling": 7.5, "safety": 7.6, "comfort": 7.4,
        "workmanship": 7.5, "fuel_economy": 7.3,
        "initial_contact": 7.8, "ordering_process": 7.7, "delivery_timing": 7.7,
        "repair_service": 7.8, "billing": 7.5,
        "purchase_price": 7.0, "financing_terms": 7.1, "trade_in_value": 6.9,
        "dealer_fees": 6.9, "warranty_cost": 7.1,
        "maintenance_cost": 7.1, "insurance_cost": 7.0, "operating_cost": 7.0,
        "resale_value": 7.2,
    },
}

_INTERNAL_MEANS: dict[str, tuple[float, float]] = {
    # node -> (own, competitor) means used to seed intercepts; the table
    # nodes among these are also calibration targets.
    "worth_what_paid_for": (7.3, 7.5),
    "quality": (7.4, 7.7),
    "price": (7.1, 7.0),
    "automobile": (7.8, 7.5),
    "delivery_process": (6.9, 7.8),
    "direct_costs": (7.1, 7.0),
    "indirect_costs": (7.1, 7.0),
}

_COEFFICIENTS: dict[str, dict[str, float]] = {
    "worth_what_paid_for": {"quality": 0.51, "price": 0.35},
    "quality": {"automobile": 0.39, "delivery_process": 0.59},
    "price": {"direct_costs": 0.52, "indirect_costs": 0.33},
    "automobile": {
        "reliability": 0.22, "styling": 0.12, "safety": 0.18,
        "comfort": 0.13, "workmanship": 0.15, "fuel_economy": 0.10,
    },
    "delivery_process": {
        "initial_contact": 0.15, "ordering_process": 0.12,
        "delivery_timing": 0.13, "repair_service": 0.14, "billing": 0.40,
    },
    "direct_costs": {
        "purchase_price": 0.30, "financing_terms": 0.20, "trade_in_value": 0.16,
        "dealer_fees": 0.12, "warranty_cost": 0.10,
    },
    "indirect_costs": {
        "maintenance_cost": 0.28, "insurance_cost": 0.20, "operating_cost": 0.22,
        "resale_value": 0.18,
    },
}

_NOISE_SD_INTERNAL: dict[str, float] = {
    "worth_what_paid_for": 0.28,
    "quality": 0.24,
    "price": 0.35,
    "automobile": 0.50,
    "delivery_process": 0.39,
    "direct_costs": 0.50,
    "indirect_costs": 0.50,
}

_LINK_INITIAL: dict[int, float] = {
    1: 0.03, 2: 0.06, 3: 0.10, 4: 0.17, 5: 0.27,
    6: 0.40, 7: 0.528, 8: 0.868, 9: 0.93, 10: 0.97,
}


def canonical_targets(tree: ValueTree) -> TableTargets:
    """Calibration targets for the bundled automobile market fixture.

    ``tree`` must be the bundled automobile purchase tree (the node ids above
    are its leaves).  The pinned cells are the three benchmark profile tables
    — top level, quality level, delivery level — plus the loyalty-curve
    anchor points (63% very-willing at a 7.3 value score, 80% at 7.8).
    """
    leaves = set(tree.leaves())
    for cls, means in _LEAF_TARGETS.items():
        if set(means) != leaves:
            raise CvmError(
                f"tree leaves do not match the canonical fixture (class {cls!r})"
            )
    intercepts: dict[str, float] = {}
    class_shift: dict[str, dict[str, float]] = {_OWN: {}, COMPETITOR_CLASS: {}}

    def mean_of(node: str, class_index: int) -> float:
        if node in leaves:
            cls = _OWN if class_index == 0 else COMPETITOR_CLASS
            return _LEAF_TARGETS[cls][node]
        return _INTERNAL_MEANS[node][class_index]

    for parent in tree.internal_nodes():
        residuals = []
        for class_index in (0, 1):
            implied = sum(
                slope * mean_of(child, class_index)
                for child, slope in _COEFFICIENTS[parent].items()
            )
            residuals.append(_INTERNAL_MEANS[parent][class_index] - implied)
        intercepts[parent] = (residuals[0] + residuals[1]) / 2.0
        class_shift[_OWN][parent] = residuals[0] - intercepts[parent]
        class_shift[COMPETITOR_CLASS][parent] = residuals[1] - intercepts[parent]

    noise = {leaf: 1.2 for leaf in tree.leaves()}
    noise.update(_NOISE_SD_INTERNAL)

    initial = GroundTruth(
        tree=tree,
        name="automobile market, seed 42",
        seed=42,
        own_supplier=_OWN,
        n_per_supplier={_OWN: 1000, "comp_a": 500, "comp_b": 500},
        coefficients={p: dict(c) for p, c in _COEFFICIENTS.items()},
        intercepts=intercepts,
        leaf_means={cls: dict(m) for cls, m in _LEAF_TARGETS.items()},
        noise_sd=noise,
        willingness_link=dict(_LINK_INITIAL),
        class_shift=class_shift,
        halo_sd=1.0,
        outcome_threshold=8,
        decision_maker_share=0.8,
    )

    cells = (
        CellTarget("worth_what_paid_for", "quality", 51, 7.4, 7.7, 96),
        CellTarget("worth_what_paid_for", "price", 35, 7.1, 7.0, 101),
        CellTarget("quality", "automobile", 39, 7.8, 7.5, 104),
        CellTarget("quality", "delivery_process", 59, 6.9, 7.8, 88),
        CellTarget("delivery_process", "billing", 40, 6.1, 7.5, 81),
    )
    nodes = (
        NodeTarget("worth_what_paid_for", 7.3, 7.5, 97),
        NodeTarget("quality", 7.4, 7.7, 96),
        NodeTarget("delivery_process", 6.9, 7.8, 88),
    )
    return TableTargets(
        initial=initial,
        cells=cells,
        nodes=nodes,
        r_squared={"worth_what_paid_for": 0.81, "quality": 0.89, "delivery_process": 0.86},
        loyalty_points=((7.3, 0.63), (7.8, 0.80)),
        loyalty_outcome=OutcomeKind.RECOMMEND,
    )
