"""Least-squares driver models, from the single fit up to the whole tree.

Each internal tree node gets an ordinary least-squares model of its rating on
its children's ratings (intercept always included).  The solver is a
Householder QR orthogonal decomposition written out here rather than a normal
equations solve: survey regressors are highly correlated, and squaring the
design matrix doubles the condition number before the solve even starts.
Exact linear dependence (duplicated or constant columns) is detected from the
R diagonal and reported as an error naming the offending columns instead of
producing garbage coefficients.

Displayed impact weights are ``round(100 * coefficient)`` on the raw
(unstandardized) slopes, halves away from zero.  They are deliberately not
renormalized to sum to 100 — the regression intercept absorbs the remainder,
and rescaling would break the link between a weight and "points of parent
rating per point of child rating".  Negative slopes are kept, flagged, and
left for the analyst to judge.

Missing data policy is listwise deletion per node model: a respondent enters
the model for node P only when they rated P and every child of P.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import CvmError
from .rounding import round_half_away
from .survey import SurveySample, complete_cases
from .tree import ValueTree, path_to_root

__all__ = [
    "LinearFit",
    "NodeModel",
    "FittedHierarchy",
    "SingularMatrixError",
    "InsufficientDataError",
    "UnfitNodeError",
    "fit_linear",
    "fit_node_model",
    "fit_hierarchy",
    "hierarchy_records",
    "hierarchy_from_records",
    "save_hierarchy",
    "load_hierarchy",
]

#: |R[j,j]| below this fraction of the column's norm marks dependence
_SINGULAR_RTOL = 1e-10


class SingularMatrixError(CvmError):
    """Linearly dependent regressors; ``columns`` lists the culprits."""

    def __init__(self, columns: Sequence[str]):
        self.columns = tuple(columns)
        listed = ", ".join(self.columns)
        super().__init__(
            f"collinear regressors: {listed} "
            "(each is linearly dependent on the columns before it)"
        )


class InsufficientDataError(CvmError):
    """Too few (complete) observations for the requested model."""


class UnfitNodeError(CvmError):
    """An operation needed a node model that is not in the hierarchy."""


@dataclass(frozen=True)
class LinearFit:
    """One least-squares fit: intercept, slopes by regressor name, and fit stats."""

    intercept: float
    coefficients: Mapping[str, float]
    r_squared: float
    n: int
    residual_sd: float


@dataclass(frozen=True)
class NodeModel:
    """The driver model of one internal node."""

    node: str
    fit: LinearFit
    impact_weights: Mapping[str, int]
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class FittedHierarchy:
    """Per-internal-node models over one tree; nodes that failed carry a reason."""

    tree: ValueTree
    models: Mapping[str, NodeModel] = field(default_factory=dict)
    unfit: Mapping[str, str] = field(default_factory=dict)

    def model_for(self, node_id: str) -> NodeModel:
        try:
            return self.models[node_id]
        except KeyError:
            reason = self.unfit.get(node_id)
            detail = f" ({reason})" if reason else ""
            raise UnfitNodeError(f"no fitted model for node {node_id!r}{detail}") from None

    def coefficient(self, parent: str, child: str) -> float:
        model = self.model_for(parent)
        try:
            return model.fit.coefficients[child]
        except KeyError:
            raise UnfitNodeError(
                f"{child!r} is not a regressor in the model for {parent!r}"
            ) from None

    def path_slope(self, node_id: str) -> float:
        """Product of slopes along the path from ``node_id`` up to the root.

        This is the marginal effect of one rating point at ``node_id`` on the
        root rating; the root itself has slope 1.  Raises
        :class:`UnfitNodeError` if any model on the path is missing.
        """
        path = path_to_root(self.tree, node_id)
        slope = 1.0
        for child, parent in zip(path, path[1:]):
            slope *= self.coefficient(parent, child)
        return slope


def fit_linear(y: Sequence[float], columns: Mapping[str, Sequence[float]]) -> LinearFit:
    """Least squares of ``y`` on the named columns plus an intercept.

    Uses Householder QR applied to the augmented matrix; coefficients,
    ``r_squared`` (1 - SSE/SST) and ``residual_sd`` (sqrt(SSE/(n-p))) do not
    depend on the order the columns are given in.  Requires
    ``n >= len(columns) + 2`` so at least one residual degree of freedom
    remains.  Raises :class:`SingularMatrixError` naming columns that are
    linearly dependent on earlier ones (the intercept counts as first).
    """
    names = list(columns)
    y_arr = np.asarray(y, dtype=np.float64)
    if y_arr.ndim != 1:
        raise ValueError("y must be one-dimensional")
    n = y_arr.shape[0]
    cols = []
    for name in names:
        col = np.asarray(columns[name], dtype=np.float64)
        if col.shape != (n,):
            raise ValueError(f"column {name!r} has length {col.shape}, expected {n}")
        cols.append(col)
    k = len(names)
    if n < k + 2:
        raise InsufficientDataError(
            f"{n} observations for {k} regressors; need at least {k + 2}"
        )

    design = np.empty((n, k + 1), dtype=np.float64)
    design[:, 0] = 1.0
    for j, col in enumerate(cols):
        design[:, j + 1] = col
    column_scale = np.sqrt((design * design).sum(axis=0))

    # Triangularize a copy: the reflections overwrite their input, and the
    # pristine design matrix is still needed for fitted values below.
    r_matrix, rhs = _householder_triangularize(design.copy(), y_arr.copy())

    diag = np.abs(np.diag(r_matrix))
    bad = [
        j
        for j in range(k + 1)
        if diag[j] <= _SINGULAR_RTOL * max(column_scale[j], 1.0)
    ]
    if bad:
        labels = ["intercept" if j == 0 else names[j - 1] for j in bad]
        raise SingularMatrixError(labels)

    beta = _back_substitute(r_matrix, rhs[: k + 1])
    fitted = design @ beta
    residuals = y_arr - fitted
    sse = float(residuals @ residuals)
    centered = y_arr - y_arr.mean()
    sst = float(centered @ centered)
    if sst > 0.0:
        r_squared = min(1.0, max(0.0, 1.0 - sse / sst))
    else:
        r_squared = 1.0 if sse <= 1e-12 else 0.0
    residual_sd = float(np.sqrt(sse / (n - (k + 1))))
    return LinearFit(
        intercept=float(beta[0]),
        coefficients={name: float(beta[j + 1]) for j, name in enumerate(names)},
        r_squared=r_squared,
        n=n,
        residual_sd=residual_sd,
    )


def _householder_triangularize(a: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce ``a`` to upper-triangular R in place, carrying ``y`` along.

    Applies the same orthogonal reflections to ``y``, so afterwards the
    leading square of ``a`` is R and ``y`` holds Q^T y.
    """
    n, p = a.shape
    for j in range(p):
        x = a[j:, j]
        norm = float(np.linalg.norm(x))
        if norm == 0.0:
            continue
        v = x.copy()
        v[0] += np.copysign(norm, x[0])
        v_norm_sq = float(v @ v)
        if v_norm_sq == 0.0:
            continue
        tail = a[j:, j:]
        tail -= np.outer(v, (2.0 / v_norm_sq) * (v @ tail))
        y[j:] -= v * ((2.0 / v_norm_sq) * float(v @ y[j:]))
    return a[:p, :p], y


def _back_substitute(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    p = r.shape[0]
    beta = np.zeros(p, dtype=np.float64)
    for i in range(p - 1, -1, -1):
        beta[i] = (b[i] - float(r[i, i + 1 :] @ beta[i + 1 :])) / r[i, i]
    return beta


def fit_node_model(sample: SurveySample, tree: ValueTree, node_id: str) -> NodeModel:
    """Fit the driver model for one internal node.

    Listwise deletion: only respondents who rated the node and all its
    children enter.  Needs at least ``#children + 2`` complete cases.
    """
    children = tree.children_of(node_id)
    if not children:
        raise ValueError(f"{node_id!r} is a leaf; only internal nodes have driver models")
    y, columns = complete_cases(sample, node_id, children)
    if y.shape[0] < len(children) + 2:
        raise InsufficientDataError(
            f"node {node_id!r}: {y.shape[0]} complete cases for "
            f"{len(children)} children; need at least {len(children) + 2}"
        )
    fit = fit_linear(y, columns)
    weights = {c: round_half_away(100.0 * fit.coefficients[c]) for c in children}
    flags = tuple(
        f"negative coefficient for {c} ({fit.coefficients[c]:.3f})"
        for c in children
        if fit.coefficients[c] < 0.0
    )
    return NodeModel(node=node_id, fit=fit, impact_weights=weights, flags=flags)


def fit_hierarchy(sample: SurveySample, tree: ValueTree) -> FittedHierarchy:
    """Fit every internal node's model; failures are recorded, not fatal.

    Node models are independent of each other (each is a plain least-squares
    fit on its own complete cases), so fitting order cannot change any result.
    """
    models: dict[str, NodeModel] = {}
    unfit: dict[str, str] = {}
    for node_id in tree.internal_nodes():
        try:
            models[node_id] = fit_node_model(sample, tree, node_id)
        except (InsufficientDataError, SingularMatrixError) as exc:
            unfit[node_id] = str(exc)
    return FittedHierarchy(tree=tree, models=models, unfit=unfit)


def hierarchy_records(hierarchy: FittedHierarchy) -> dict:
    """JSON-ready structure: full-precision floats, integer weights, fit stats."""
    return {
        "tree": hierarchy.tree.name,
        "root": hierarchy.tree.root,
        "models": {
            node_id: {
                "intercept": model.fit.intercept,
                "coefficients": dict(model.fit.coefficients),
                "impact_weights": dict(model.impact_weights),
                "r_squared": model.fit.r_squared,
                "n": model.fit.n,
                "residual_sd": model.fit.residual_sd,
                "flags": list(model.flags),
            }
            for node_id, model in hierarchy.models.items()
        },
        "unfit": dict(hierarchy.unfit),
    }


def hierarchy_from_records(records: Mapping, tree: ValueTree) -> FittedHierarchy:
    if records.get("root") != tree.root:
        raise CvmError(
            f"hierarchy was fitted for root {records.get('root')!r}, "
            f"tree has root {tree.root!r}"
        )
    models = {}
    for node_id, rec in records["models"].items():
        fit = LinearFit(
            intercept=float(rec["intercept"]),
            coefficients={k: float(v) for k, v in rec["coefficients"].items()},
            r_squared=float(rec["r_squared"]),
            n=int(rec["n"]),
            residual_sd=float(rec["residual_sd"]),
        )
        models[node_id] = NodeModel(
            node=node_id,
            fit=fit,
            impact_weights={k: int(v) for k, v in rec["impact_weights"].items()},
            flags=tuple(rec.get("flags", ())),
        )
    return FittedHierarchy(tree=tree, models=models, unfit=dict(records.get("unfit", {})))


def save_hierarchy(hierarchy: FittedHierarchy, path: str | Path) -> None:
    text = json.dumps(hierarchy_records(hierarchy), indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_hierarchy(path: str | Path, tree: ValueTree) -> FittedHierarchy:
    records = json.loads(Path(path).read_text(encoding="utf-8"))
    return hierarchy_from_records(records, tree)
