"""Numpy-only reference for the numbers cvmkit reports, and the checks against it.

Nothing here imports cvmkit: the benchmark computes what a correct report must
say straight from a survey CSV and compares the program's artifacts with it.
Means use the same float64 pairwise summation as any numpy mean over the same
values in the same order, so they agree to the last bit in practice; the
checks still allow 1e-9.  Regression coefficients come from
``np.linalg.lstsq``, a different algorithm from the program's, so they are
compared within a tolerance derived from float64 epsilon and the condition
number of the design matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EPS = float(np.finfo(np.float64).eps)
MEAN_TOL = 1e-9
CONFIDENCE_MULTIPLIER = 1.96
PROMOTER_MIN, DETRACTOR_MAX = 9, 6
TARGET_LOYALTY = 0.80  # the --target-loyalty every benchmarked report passes
BAND = 3.0  # the report's default fair-value band
FIXED_COLUMNS = ("respondent_id", "role", "supplier")
RECOMMEND = "outcome_recommend"


@dataclass
class Tree:
    """The parts of a value tree the reference needs (from a ``.tree`` file)."""

    root: str
    labels: dict[str, str]
    children: dict[str, tuple[str, ...]]

    def preorder(self) -> list[str]:
        out, stack = [], [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(self.children[node]))
        return out

    def internal(self) -> list[str]:
        return [n for n in self.preorder() if self.children[n]]

    def leaves(self) -> list[str]:
        return [n for n in self.preorder() if not self.children[n]]

    def path_to_root(self, node: str) -> list[str]:
        parent = {c: p for p, cs in self.children.items() for c in cs}
        path = [node]
        while path[-1] in parent:
            path.append(parent[path[-1]])
        return path


def read_tree(path: Path) -> Tree:
    """Parse the ``node: id | label | kind | children`` lines of a tree file."""
    root = None
    labels: dict[str, str] = {}
    children: dict[str, tuple[str, ...]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("root:"):
            root = line.split(":", 1)[1].strip()
        elif line.startswith("node:"):
            fields = [f.strip() for f in line.split(":", 1)[1].split("|")]
            labels[fields[0]] = fields[1]
            children[fields[0]] = tuple(fields[3].split()) if len(fields) > 3 else ()
    if root is None or root not in children:
        raise ValueError(f"{path}: no root node")
    return Tree(root=root, labels=labels, children=children)


@dataclass
class Survey:
    """A survey CSV as arrays: ratings and outcomes use -1 for a blank cell."""

    columns: list[str]
    ids: list[str]
    roles: list[str]
    suppliers: np.ndarray
    values: np.ndarray  # (n, len(columns) - 3) int16, -1 = blank

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.columns.index(name) - len(FIXED_COLUMNS)]


def read_survey(path: Path) -> Survey:
    """Read an unquoted survey CSV (the form cvmkit writes) into arrays."""
    text = path.read_text(encoding="utf-8")
    if '"' in text:
        raise ValueError(f"{path}: quoted CSV fields are not supported by the reference")
    lines = text.split("\n")
    columns = lines[0].split(",")
    if tuple(columns[:3]) != FIXED_COLUMNS:
        raise ValueError(f"{path}: unexpected header {columns[:3]}")
    rows = [line.split(",", 3) for line in lines[1:] if line]
    width = len(columns) - 3
    cells = np.array(",".join(r[3] for r in rows).split(",") if rows else [], dtype="S3")
    if cells.size != len(rows) * width:
        raise ValueError(f"{path}: ragged rows")
    # Cells hold at most two ASCII digits; parse them as bytes, '' -> -1.
    digits = cells.view(np.uint8).reshape(-1, 3).astype(np.int16) - ord("0")
    first, second, third = digits[:, 0], digits[:, 1], digits[:, 2]
    blank = first == -ord("0")
    one_digit = second == -ord("0")
    if (third != -ord("0")).any() or ((first < 0) | (first > 9))[~blank].any() or (
        (second < 0) | (second > 9))[~one_digit].any():
        raise ValueError(f"{path}: a rating cell is not a 0-99 integer")
    values = np.where(one_digit, first, first * 10 + second)
    values[blank] = -1
    return Survey(
        columns=columns,
        ids=[r[0] for r in rows],
        roles=[r[1] for r in rows],
        suppliers=np.array([r[2] for r in rows]),
        values=values.reshape(len(rows), width),
    )


def write_survey(path: Path, survey: Survey) -> None:
    """Write ``survey`` in cvmkit's CSV layout, blank cells left empty."""
    as_text = np.array([""] + [str(v) for v in range(100)])
    text_cells = as_text[survey.values + 1]
    lines = [",".join(survey.columns)]
    lines += [
        f"{i},{role},{supplier}," + ",".join(cells)
        for i, role, supplier, cells in zip(
            survey.ids, survey.roles, survey.suppliers.tolist(), text_cells.tolist()
        )
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def round_half_away(value: float, decimals: int = 0) -> float | int:
    """Halves away from zero on the binary value, as cvmkit's rounding policy says."""
    scale = 10.0**decimals
    scaled = value * scale
    rounded = math.copysign(math.floor(abs(scaled) + 0.5), scaled)
    return int(rounded) if decimals == 0 else rounded / scale


def format_score(value: float, decimals: int = 1) -> str:
    return f"{round_half_away(value, decimals):.{decimals}f}"


def relative(own: float, competitor: float) -> int:
    return round_half_away(100.0 * own / competitor)


def mean_record(values: np.ndarray) -> dict:
    data = values.astype(np.float64)
    n = int(data.size)
    half = 0.0 if n < 2 else CONFIDENCE_MULTIPLIER * float(data.std(ddof=1)) / float(np.sqrt(n))
    return {"mean": float(data.mean()), "half_width": half, "n": n}


def fit(y: np.ndarray, xs: np.ndarray) -> dict:
    """Least squares with intercept by ``np.linalg.lstsq``, plus its tolerance.

    The tolerance is a float64 forward-error scale for a backward-stable
    solver: ``eps * cond(X) * sqrt(n) * max(1, |beta|)``, times a safety
    factor of 64.  Coefficients, R^2 and path slopes are compared within it.
    """
    design = np.column_stack([np.ones(len(y)), xs]).astype(np.float64)
    target = y.astype(np.float64)
    beta = np.linalg.lstsq(design, target, rcond=None)[0]
    residual = target - design @ beta
    centered = target - target.mean()
    sst = float(centered @ centered)
    r_squared = 1.0 - float(residual @ residual) / sst if sst > 0 else 1.0
    cond = float(np.linalg.cond(design))
    tol = 64.0 * EPS * cond * math.sqrt(len(y)) * max(1.0, float(np.abs(beta).max()))
    return {
        "n": int(len(y)),
        "intercept": float(beta[0]),
        "coefficients": [float(b) for b in beta[1:]],
        "r_squared": min(1.0, max(0.0, r_squared)),
        "tol": tol,
    }


def pool_adjacent_violators(values: list[float], weights: list[float]) -> list[float]:
    blocks: list[list[float]] = []
    for value, weight in zip(values, weights):
        blocks.append([value, weight, 1])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            top_v, top_w, top_n = blocks.pop()
            prev_v, prev_w, prev_n = blocks.pop()
            merged = prev_w + top_w
            blocks.append([(prev_v * prev_w + top_v * top_w) / merged, merged, prev_n + top_n])
    return [v for v, _, run in blocks for _ in range(int(run))]


def loyalty(root: np.ndarray, outcome: np.ndarray, threshold: int) -> dict:
    keep = (root >= 0) & (outcome >= 0)
    scores, outs = root[keep], outcome[keep]
    bins = sorted(int(b) for b in np.unique(scores))
    counts = [int((scores == b).sum()) for b in bins]
    raw = [int((outs[scores == b] >= threshold).sum()) / c for b, c in zip(bins, counts)]
    smoothed = pool_adjacent_violators(raw, [float(c) for c in counts])
    return {"points": [[float(b), s] for b, s in zip(bins, smoothed)], "raw": raw, "counts": counts}


def proportion_at(points: list[list[float]], score: float) -> float:
    xs, ys = [p[0] for p in points], [p[1] for p in points]
    if score <= xs[0]:
        return ys[0]
    if score >= xs[-1]:
        return ys[-1]
    return float(np.interp(score, xs, ys))


def value_target(points: list[list[float]], target: float) -> float | None:
    xs, ys = [p[0] for p in points], [p[1] for p in points]
    if ys[0] >= target:
        return xs[0]
    if target > max(ys):
        return None
    for i in range(1, len(xs)):
        if ys[i] >= target:
            if ys[i] == ys[i - 1]:
                return xs[i]
            return xs[i - 1] + (xs[i] - xs[i - 1]) * (target - ys[i - 1]) / (ys[i] - ys[i - 1])
    return None


def build(survey: Survey, tree: Tree, own: str, threshold: int = 8) -> dict:
    """Everything a correct fit, records report or nps output must show."""
    ratings = {node: survey.column(node) for node in tree.preorder()}
    is_own = survey.suppliers == own
    groups = {"own": is_own, "competitor": ~is_own}
    means = {
        group: {
            node: mean_record(col[mask & (col >= 0)])
            for node, col in ratings.items()
            if (mask & (col >= 0)).any()
        }
        for group, mask in groups.items()
    }
    models = {}
    for node in tree.internal():
        kids = tree.children[node]
        stacked = np.column_stack([ratings[node]] + [ratings[c] for c in kids])
        complete = stacked[(stacked >= 0).all(axis=1)]
        models[node] = dict(fit(complete[:, 0], complete[:, 1:]), children=list(kids))

    def coefficient(parent: str, child: str) -> tuple[float, float]:
        m = models[parent]
        return m["coefficients"][m["children"].index(child)], m["tol"]

    priorities = {}
    for leaf in tree.leaves():
        path = tree.path_to_root(leaf)
        slope, tol = 1.0, 0.0
        for child, parent in zip(path, path[1:]):
            c, t = coefficient(parent, child)
            slope *= c
            tol += t
        own_m, comp_m = means["own"][leaf]["mean"], means["competitor"][leaf]["mean"]
        gap = max(0.0, comp_m - own_m)
        priorities[leaf] = {"path_slope": slope, "gap": gap, "score": slope * gap,
                            "own_mean": own_m, "competitor_mean": comp_m, "tol": tol}

    root = ratings[tree.root]
    curve = loyalty(root[is_own], survey.column(RECOMMEND)[is_own], threshold)

    def exact_mean(node: str, mask: np.ndarray) -> float:
        """sum / len of the integer ratings, as the value map computes it."""
        col = ratings[node][mask]
        col = col[col >= 0]
        return int(col.astype(np.int64).sum()) / int(col.size)

    quality, price = tree.children[tree.root]
    suppliers = list(dict.fromkeys(survey.suppliers.tolist()))
    value_map = []
    for supplier in suppliers:
        mine = survey.suppliers == supplier
        rq = float(relative(exact_mean(quality, mine), exact_mean(quality, ~mine)))
        rp = float(relative(exact_mean(price, mine), exact_mean(price, ~mine)))
        distance = rq + rp - 200.0
        zone = ("fair_value" if abs(distance) <= BAND
                else "superior_value" if distance > 0 else "inferior_value")
        value_map.append({"supplier": supplier, "relative_quality": rq,
                          "relative_price": rp, "zone": zone})

    recommend = survey.column(RECOMMEND)[is_own]
    recommend = recommend[recommend >= 0]
    n = int(recommend.size)
    promoters = 100.0 * int((recommend >= PROMOTER_MIN).sum()) / n
    detractors = 100.0 * int((recommend <= DETRACTOR_MAX).sum()) / n
    return {
        "own": own,
        "n_respondents": len(survey.ids),
        "suppliers": suppliers,
        "tree": {"root": tree.root, "internal": tree.internal(),
                 "children": {k: list(v) for k, v in tree.children.items()},
                 "labels": tree.labels,
                 "depth": {leaf: len(tree.path_to_root(leaf)) - 1 for leaf in tree.leaves()}},
        "means": means,
        "models": models,
        "priorities": priorities,
        "loyalty": curve,
        "loyalty_target": {"target": TARGET_LOYALTY,
                           "required_value_score": value_target(curve["points"], TARGET_LOYALTY)},
        "value_map": value_map,
        "nps": {"n": n, "score": promoters - detractors},
    }


# --------------------------------------------------------------------------
# Checks.  Each returns a list of problems; an empty list means the artifact
# is correct.
# --------------------------------------------------------------------------


def _close(a: float | None, b: float | None, tol: float) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= tol


def expected_weight(coef: float, tol: float) -> set[int]:
    """Impact weights consistent with ``coef`` +/- ``tol`` (two near a .5 tie)."""
    return {round_half_away(100.0 * (coef - tol)), round_half_away(100.0 * coef),
            round_half_away(100.0 * (coef + tol))}


def _check_mean(where: str, got: dict | None, want: dict | None, problems: list[str]) -> None:
    if want is None or got is None:
        if got is not want:
            problems.append(f"{where}: got {got}, want {want}")
        return
    if got["n"] != want["n"]:
        problems.append(f"{where}: n {got['n']} != {want['n']}")
    if not _close(got["mean"], want["mean"], MEAN_TOL):
        problems.append(f"{where}: mean {got['mean']!r} != {want['mean']!r}")
    if not _close(got["half_width"], want["half_width"], MEAN_TOL):
        problems.append(f"{where}: half_width {got['half_width']!r} != {want['half_width']!r}")


def check_records(doc: dict, ref: dict) -> list[str]:
    """A ``report --format records`` document against the reference."""
    problems: list[str] = []
    tree = ref["tree"]
    if doc.get("own_supplier") != ref["own"] or doc.get("n_respondents") != ref["n_respondents"]:
        problems.append("header: own_supplier / n_respondents differ")
    tables = doc.get("tables", [])
    if [t["parent"] for t in tables] != tree["internal"]:
        problems.append(f"tables: {[t['parent'] for t in tables]} != {tree['internal']}")
        return problems
    means = ref["means"]
    for table in tables:
        parent = table["parent"]
        model = ref["models"][parent]
        if not _close(table["r_squared"], model["r_squared"], model["tol"]):
            problems.append(f"{parent}: R^2 {table['r_squared']!r} != {model['r_squared']!r}")
        if table["is_root"] != (parent == tree["root"]) or table["label"] != tree["labels"][parent]:
            problems.append(f"{parent}: label or root flag differs")
        _check_mean(f"{parent} own", table["parent_own"], means["own"][parent], problems)
        _check_mean(f"{parent} competitor", table["parent_competitor"],
                    means["competitor"][parent], problems)
        want_rel = relative(means["own"][parent]["mean"], means["competitor"][parent]["mean"])
        if table["parent_relative"] != want_rel:
            problems.append(f"{parent}: relative {table['parent_relative']} != {want_rel}")
        if [r["node"] for r in table["rows"]] != model["children"]:
            problems.append(f"{parent}: rows differ from the tree's children")
            continue
        for row, coef in zip(table["rows"], model["coefficients"]):
            node = row["node"]
            if row["impact_weight"] not in expected_weight(coef, model["tol"]):
                problems.append(f"{parent}/{node}: weight {row['impact_weight']} for coef {coef!r}")
            _check_mean(f"{node} own", row["own"], means["own"][node], problems)
            _check_mean(f"{node} competitor", row["competitor"], means["competitor"][node], problems)
            want_rel = relative(means["own"][node]["mean"], means["competitor"][node]["mean"])
            if row["relative"] != want_rel:
                problems.append(f"{node}: relative {row['relative']} != {want_rel}")
    root_rel = relative(means["own"][tree["root"]]["mean"], means["competitor"][tree["root"]]["mean"])
    if doc.get("cva") != root_rel:
        problems.append(f"cva {doc.get('cva')} != {root_rel}")

    entries = doc.get("priorities", [])
    if sorted(e["node"] for e in entries) != sorted(ref["priorities"]):
        problems.append("priorities: leaf set differs")
    else:
        for e in entries:
            want = ref["priorities"][e["node"]]
            for key in ("own_mean", "competitor_mean", "gap"):
                if not _close(e[key], want[key], MEAN_TOL):
                    problems.append(f"priority {e['node']}: {key} {e[key]!r} != {want[key]!r}")
            for key in ("path_slope", "score"):
                if not _close(e[key], want[key], want["tol"] * 10.0 + MEAN_TOL):
                    problems.append(f"priority {e['node']}: {key} {e[key]!r} != {want[key]!r}")
        depth = tree["depth"]
        order = sorted(entries, key=lambda e: (-e["score"], -depth[e["node"]], e["node"]))
        if [e["node"] for e in order] != [e["node"] for e in entries]:
            problems.append("priorities: not in score order")
    if doc.get("priorities_excluded"):
        problems.append(f"priorities excluded: {doc['priorities_excluded']}")

    curve, want = doc.get("loyalty_curve") or {}, ref["loyalty"]
    if curve.get("bin_counts") != want["counts"] or curve.get("raw_proportions") != want["raw"]:
        problems.append("loyalty curve: bins or raw proportions differ")
    elif any(p[0] != w[0] or not _close(p[1], w[1], MEAN_TOL)
             for p, w in zip(curve["points"], want["points"])):
        problems.append("loyalty curve: smoothed points differ")
    target, want_target = doc.get("loyalty_target") or {}, ref["loyalty_target"]
    if not _close(target.get("required_value_score"), want_target["required_value_score"], MEAN_TOL):
        problems.append(f"loyalty target {target} != {want_target}")
    if doc.get("value_map") != ref["value_map"]:
        problems.append(f"value map {doc.get('value_map')} != {ref['value_map']}")
    return problems


def check_fit(doc: dict, ref: dict) -> list[str]:
    """A ``fit --out`` document: complete-case n, coefficients, weights, R^2."""
    problems: list[str] = []
    if doc.get("unfit"):
        problems.append(f"unfit nodes: {doc['unfit']}")
    if sorted(doc.get("models", {})) != sorted(ref["models"]):
        return problems + ["fitted node set differs"]
    for node, model in doc["models"].items():
        want = ref["models"][node]
        problems += check_model(node, model["n"], model["intercept"],
                                [model["coefficients"][c] for c in want["children"]],
                                model["r_squared"], want)
        weights = [model["impact_weights"][c] for c in want["children"]]
        for child, weight, coef in zip(want["children"], weights, want["coefficients"]):
            if weight not in expected_weight(coef, want["tol"]):
                problems.append(f"{node}/{child}: weight {weight} for coef {coef!r}")
    return problems


def check_model(node: str, n: int, intercept: float, coefficients: list[float],
                r_squared: float, want: dict) -> list[str]:
    """One fitted node model against its ``lstsq`` reference."""
    problems = []
    tol = want["tol"]
    if n != want["n"]:
        problems.append(f"{node}: complete-case n {n} != {want['n']}")
    if not _close(intercept, want["intercept"], tol * 10.0):
        problems.append(f"{node}: intercept {intercept!r} != {want['intercept']!r}")
    for child, got, ref_coef in zip(want["children"], coefficients, want["coefficients"]):
        if not _close(got, ref_coef, tol):
            problems.append(f"{node}/{child}: coefficient {got!r} != {ref_coef!r} (tol {tol:.1e})")
    if not _close(r_squared, want["r_squared"], tol):
        problems.append(f"{node}: R^2 {r_squared!r} != {want['r_squared']!r}")
    return problems


def check_nps_text(text: str, ref: dict) -> list[str]:
    want = f"NPS = {format_score(ref['nps']['score'])}   (n = {ref['nps']['n']})"
    return [] if want in text.splitlines() else [f"nps output lacks {want!r}"]


def check_calibration(survey: Survey, tree: Tree, own: str, targets: dict) -> list[str]:
    """The regenerated market must show every calibration target cell exactly."""
    ref = build(survey, tree, own, threshold=targets["outcome_threshold"])
    means, models = ref["means"], ref["models"]
    problems = []

    def shown(group: str, node: str) -> str:
        return format_score(means[group][node]["mean"])

    def check_means(node: str, own_mean: float, comp_mean: float, rel: int | None) -> None:
        if shown("own", node) != format_score(own_mean):
            problems.append(f"{node}: own mean shows {shown('own', node)}, target {own_mean}")
        if shown("competitor", node) != format_score(comp_mean):
            problems.append(f"{node}: competitor mean shows {shown('competitor', node)}, "
                            f"target {comp_mean}")
        got = relative(means["own"][node]["mean"], means["competitor"][node]["mean"])
        if rel is not None and got != rel:
            problems.append(f"{node}: relative {got}, target {rel}")

    for cell in targets["cells"]:
        model = models[cell["parent"]]
        coef = model["coefficients"][model["children"].index(cell["child"])]
        if cell["weight"] not in expected_weight(coef, model["tol"]):
            problems.append(f"{cell['parent']}/{cell['child']}: weight for coef {coef!r}, "
                            f"target {cell['weight']}")
        check_means(cell["child"], cell["own_mean"], cell["competitor_mean"], cell["relative"])
    for node in targets["nodes"]:
        check_means(node["node"], node["own_mean"], node["competitor_mean"], node["relative"])
    for node, target in targets["r_squared"].items():
        got = models[node]["r_squared"]
        tol = models[node]["tol"]
        shown_pct = {round_half_away(100.0 * (got + d)) for d in (-tol, 0.0, tol)}
        if round_half_away(100.0 * target) not in shown_pct:
            problems.append(f"{node}: R^2 {got!r} does not show {target}")
    points = ref["loyalty"]["points"]
    for score, prop in targets["loyalty_points"]:
        got = proportion_at(points, score)
        if abs(got - prop) > 0.01:
            problems.append(f"loyalty at {score}: {got!r}, target {prop}")
    return problems
