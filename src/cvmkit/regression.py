"""Least-squares driver models, from the single fit up to the whole tree.

Each internal tree node gets an ordinary least-squares model of its rating on
its children's ratings (intercept always included).  The solver works the
normal equations in exact arithmetic.  Every rating is an integer from 1 to
10.  For integer data with ``max|x|**2 * n < 2**53`` (ratings up to about
9e13 rows) every product and partial sum of the Gram matrix ``[1 X y]'[1 X y]``
is an integer below 2**53, which float64 holds exactly, so float64 matrix
products form it exactly in any order, with or without fused multiply-add,
on any BLAS kernel and thread split (Higham, *Accuracy and Stability of
Numerical Algorithms*, 2nd ed., ch. 2 and 4).  Other finite doubles are
exact binary rationals and go through Python integers.  Fraction-free
elimination then solves the system without rounding; each coefficient,
``r_squared`` and ``SSE/(n-p)`` is rounded to float once, and
``residual_sd`` is the square root of the last.  The usual case against the
normal equations, that squaring the design matrix squares its condition
number (Golub & Van Loan, *Matrix Computations*, 5.3), concerns
floating-point solves and does not apply here.  Nothing is rounded before
those last steps, so a fit depends neither on the order of the rows nor on
the BLAS or the CPU it runs on.

Exact linear dependence (duplicated or constant columns) shows as an exact
zero pivot when the columns are eliminated in order, intercept first, and is
reported as an error naming each column that depends on the ones before it,
instead of producing garbage coefficients.

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
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import CvmError, read_json, write_atomic
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
    """Least squares of ``y`` on the named columns plus an intercept, exactly.

    Solves the normal equations in exact arithmetic: the Gram matrix of
    ``[1 X y]`` is built from integers (every finite double is an integer
    times a power of two), the system is eliminated without rounding, and
    the coefficients, ``r_squared`` (1 - SSE/SST) and SSE/(n-p) are each
    rounded to float once, with SSE = y'y - b'X'y exact; ``residual_sd`` is
    the square root of the last.  So the result does not depend on the order of
    rows or columns, nor on the BLAS or CPU.  Requires
    ``n >= len(columns) + 2`` so at least one residual degree of freedom
    remains.  Raises :class:`SingularMatrixError` naming columns that are
    linearly dependent on earlier ones (the intercept counts as first), and
    ``ValueError`` naming a column that holds a NaN or an infinity.
    """
    names = list(columns)
    y_arr = np.asarray(y, dtype=np.float64)
    if y_arr.ndim != 1:
        raise ValueError("y must be one-dimensional")
    n = y_arr.shape[0]
    data = np.empty((n, len(names) + 2), dtype=np.float64)
    data[:, 0] = 1.0
    for j, name in enumerate(names):
        col = np.asarray(columns[name], dtype=np.float64)
        if col.shape != (n,):
            raise ValueError(f"column {name!r} has length {col.shape}, expected {n}")
        data[:, j + 1] = col
    data[:, -1] = y_arr
    labels = ["intercept", *names]
    for j in np.flatnonzero(~np.isfinite(data).all(axis=0)):
        where = "y" if j == len(labels) else f"column {labels[j]!r}"
        raise ValueError(f"{where} holds a NaN or infinite value")
    k = len(names)
    if n < k + 2:
        raise InsufficientDataError(
            f"{n} observations for {k} regressors; need at least {k + 2}"
        )
    return _solve(data, names)


def _solve(data: np.ndarray, names: Sequence[str]) -> LinearFit:
    """The exact fit of ``data`` = ``[1, columns..., y]``, checked by the caller.

    ``data`` is a finite float64 or integer matrix with ``len(names) + 2``
    columns and at least that many rows.
    """
    n = data.shape[0]
    k = len(names)
    labels = ["intercept", *names]
    gram, shifts = _exact_gram(data)
    numerators, determinant = _solve_normal_equations(gram, labels)

    # data[:, j] == z_j * 2**shifts[j] with integer z_j, so the solution g of
    # the integer system gives beta_j = g_j * 2**(shift_y - shift_j).
    p = k + 1
    y_shift = shifts[p]
    beta = [_ratio(numerators[j], determinant, y_shift - shifts[j]) for j in range(p)]
    # SSE = y'y - b'X'y over `determinant` and SST = y'y - (sum y)**2/n over
    # n, both in the integer scale, where they carry the factor 4**y_shift.
    yy = gram[p][p]
    xty = gram[p]
    sse = determinant * yy - sum(x * b for x, b in zip(numerators, xty))
    sst = n * yy - xty[0] * xty[0]
    if sst == 0:
        r_squared = 1.0  # constant y: the intercept alone fits it exactly
    else:
        r_squared = _ratio(determinant * sst - n * sse, determinant * sst)
    residual_sd = math.sqrt(_ratio(sse, determinant * (n - p), 2 * y_shift))
    return LinearFit(
        intercept=beta[0],
        coefficients={name: beta[j + 1] for j, name in enumerate(names)},
        r_squared=r_squared,
        n=n,
        residual_sd=residual_sd,
    )


#: Rows cast to float64 at a time for the Gram product.  Bounded blocks keep
#: a large panel's fit from making full-size float64 copies, which the heap
#: may keep after they are freed.
_GRAM_ROWS = 16384


def _exact_gram(data: np.ndarray) -> tuple[list[list[int]], list[int]]:
    """Integer Gram matrix of ``data`` rescaled column by column, exactly.

    Returns ``gram`` and ``shifts`` with ``data[:, j] == z_j * 2**shifts[j]``
    for integer vectors ``z_j`` and ``gram[i][j] == z_i . z_j``.  Integer
    data with ``max|x|**2 * n < 2**53`` (every survey fit) takes shift 0 and
    float64 products over blocks of rows, summed in float64: exact, because
    each product and partial sum is an integer below 2**53.  All other
    values go through their exact integer ratios in Python integers.
    """
    n, width = data.shape
    max_abs = max(int(data.max()), -int(data.min()))
    if max_abs * max_abs * n < 2**53:
        gram = np.zeros((width, width))
        for start in range(0, n, _GRAM_ROWS):
            block = data[start : start + _GRAM_ROWS].astype(np.float64, copy=False)
            if data.dtype.kind == "f" and not np.array_equal(np.trunc(block), block):
                break
            gram += block.T @ block
        else:
            return gram.astype(np.int64).tolist(), [0] * width
    scaled = []
    shifts = []
    for j in range(width):
        ratios = [x.as_integer_ratio() for x in data[:, j].tolist()]
        denominator = max(d for _, d in ratios)  # every d is a power of two
        scaled.append([num * (denominator // d) for num, d in ratios])
        shifts.append(1 - denominator.bit_length())
    gram = [[0] * width for _ in range(width)]
    for i in range(width):
        for j in range(i, width):
            gram[i][j] = gram[j][i] = sum(a * b for a, b in zip(scaled[i], scaled[j]))
    return gram, shifts


def _solve_normal_equations(
    gram: list[list[int]], labels: Sequence[str]
) -> tuple[list[int], int]:
    """Solve ``gram[:p][:p] g = gram[:p][p]`` exactly, ``p = len(labels)``.

    Fraction-free (Bareiss) elimination in column order: every division is
    exact, and the pivot of column ``j`` is a positive leading minor times
    the Schur complement of ``j`` on the columns before it.  For a Gram
    matrix that is zero exactly when column ``j`` is a linear combination of
    the earlier columns; such columns are skipped, and
    :class:`SingularMatrixError` names them all.  Otherwise
    ``g_j == numerators[j] / determinant`` with ``determinant`` the
    determinant of the ``p`` by ``p`` block.
    """
    p = len(labels)
    rows = [list(gram[i][: p + 1]) for i in range(p)]
    previous = 1
    dependent = []
    for j in range(p):
        pivot = rows[j][j]
        if pivot == 0:
            dependent.append(j)
            continue
        for i in range(j + 1, p):
            factor = rows[i][j]
            rows[i] = [
                (pivot * a - factor * b) // previous if c > j else 0
                for c, (a, b) in enumerate(zip(rows[i], rows[j]))
            ]
        previous = pivot
    if dependent:
        raise SingularMatrixError([labels[j] for j in dependent])
    determinant = previous
    # Back substitution on the triangle; each numerator is a Cramer
    # determinant, so every division is exact.
    numerators = [0] * p
    for i in range(p - 1, -1, -1):
        row = rows[i]
        rest = determinant * row[p] - sum(row[c] * numerators[c] for c in range(i + 1, p))
        numerators[i] = rest // row[i]
    return numerators, determinant


def _ratio(numerator: int, denominator: int, exponent: int = 0) -> float:
    """``numerator / denominator * 2**exponent`` as the nearest float.

    Python's true division of integers rounds correctly, so this is the
    only rounding the exact value goes through.
    """
    if exponent >= 0:
        return (numerator << exponent) / denominator
    return numerator / (denominator << -exponent)


def fit_node_model(sample: SurveySample, tree: ValueTree, node_id: str) -> NodeModel:
    """Fit the driver model for one internal node.

    Listwise deletion: only respondents who rated the node and all its
    children enter.  Needs at least ``#children + 2`` complete cases.
    """
    children = tree.children_of(node_id)
    if not children:
        raise ValueError(f"{node_id!r} is a leaf; only internal nodes have driver models")
    data = complete_cases(sample, node_id, children)
    n = data.shape[0]
    if n < len(children) + 2:
        raise InsufficientDataError(
            f"node {node_id!r}: {n} complete cases for "
            f"{len(children)} children; need at least {len(children) + 2}"
        )
    # Stored ratings are integers 1-10, so fit_linear's NaN and shape checks
    # cannot fail; _solve reads the int8 design matrix as it is.
    fit = _solve(data, children)
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
    internal = set(tree.internal_nodes())
    models = {}
    for node_id, rec in records["models"].items():
        if node_id not in internal:
            raise ValueError(f"model for {node_id!r}, not an internal node of tree {tree.name!r}")
        children = sorted(tree.children_of(node_id))
        for key in ("coefficients", "impact_weights"):
            if sorted(rec[key]) != children:
                raise ValueError(
                    f"{key} of {node_id!r} name {sorted(rec[key])}, not its children {children}"
                )
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
    write_atomic(path, json.dumps(hierarchy_records(hierarchy), indent=2) + "\n")


def load_hierarchy(path: str | Path, tree: ValueTree) -> FittedHierarchy:
    return read_json(path, "hierarchy", lambda records: hierarchy_from_records(records, tree))
