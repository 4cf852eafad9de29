"""Customer-value analytics on tree-structured survey ratings.

The package covers the full workflow of competitive customer-value
management: define a value tree (worth-what-paid-for at the root, quality
and price drivers, rated leaf attributes), ingest 1-10 survey ratings, fit
one small linear driver model per internal node, and read the results as
competitive profile tables (impact weights, relative ratings, an overall
CVA score), improvement priorities, loyalty curves, value maps, and NPS.
A seeded market simulator with known planted parameters backs all of it
with testable ground truth.

Typical use::

    import cvmkit

    tree = cvmkit.datasets.automobile_tree()
    sample = cvmkit.datasets.market_survey()
    hierarchy = cvmkit.fit_hierarchy(sample, tree)
    report = cvmkit.competitive_report(sample, hierarchy, target=0.80)
    print(cvmkit.render_report(report))      # or cvmkit.report_records(report)
"""

import importlib
import sys
import types

# Each public name -> the submodule that defines it.  A name, or a submodule
# named as an attribute, is imported on first use (PEP 562), so
# ``import cvmkit.cli`` loads only what the CLI needs.
_HOMES = {
    "analytics": (
        "CompetitiveReport", "LoyaltyCurve", "MissingModelError", "PriorityEntry",
        "PriorityRanking", "ProfileRow", "ProfileTable", "ValueMapPoint",
        "competitive_report", "cva", "loyalty_curve", "pool_adjacent_violators",
        "profile_table", "rank_priorities", "relative_rating", "retention_projection",
        "supplier_value_points", "top_box_rate", "value_map", "value_target_for_loyalty",
        "what_if",
    ),
    "errors": ("CvmError",),
    "nps": (
        "NpsAggregationError", "NpsResult", "NpsSegment", "NpsVsCva", "aggregate_nps",
        "classify", "nps", "nps_vs_cva_report",
    ),
    "regression": (
        "FittedHierarchy", "InsufficientDataError", "LinearFit", "NodeModel",
        "SingularMatrixError", "UnfitNodeError", "fit_hierarchy", "fit_linear",
        "fit_node_model", "hierarchy_from_records", "hierarchy_records", "load_hierarchy",
        "save_hierarchy",
    ),
    "rendering": (
        "nps_records", "render_loyalty_curve", "render_nps", "render_nps_vs_cva",
        "render_priorities", "render_profile_table", "render_report", "render_value_map",
        "report_records",
    ),
    "rng": ("RandomStream",),
    "rounding": ("format_percent", "format_rating", "format_score", "round_half_away"),
    "simulate": (
        "COMPETITOR_CLASS", "CalibrationError", "CellTarget", "GroundTruth",
        "InconsistentTargetsError", "NodeTarget", "TableTargets", "calibrate_to_tables",
        "canonical_targets", "generate_market", "load_truth", "save_truth",
    ),
    "survey": (
        "MeanWithHalfWidth", "NoRatingsError", "OutcomeKind", "SurveyFormatError",
        "SurveySample", "ingest_responses", "node_mean", "split_by_supplier",
        "survey_columns", "survey_text", "write_survey",
    ),
    "tree": (
        "TreeFormatError", "TreeNode", "UnknownNodeError", "ValueTree", "Violation",
        "parse_tree_spec", "path_to_root", "serialize_tree", "validate_tree",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}


def __getattr__(name: str):
    if name in _HOME:
        module = importlib.import_module(f".{_HOME[name]}", __name__)
        value = globals()[name] = getattr(module, name)
        return value
    if name in _HOMES or name == "datasets":
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_HOMES, "datasets"})


class _Package(types.ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # Loading a submodule binds it on the package; the function nps keeps
        # its name when the module nps loads.
        if not (isinstance(value, types.ModuleType) and name in _HOME):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package


__version__ = "0.1.0"

__all__ = [
    "__version__",
    "datasets",
    # errors
    "CvmError",
    "TreeFormatError",
    "UnknownNodeError",
    "SurveyFormatError",
    "NoRatingsError",
    "SingularMatrixError",
    "InsufficientDataError",
    "UnfitNodeError",
    "MissingModelError",
    "NpsAggregationError",
    "InconsistentTargetsError",
    "CalibrationError",
    # trees
    "TreeNode",
    "ValueTree",
    "Violation",
    "parse_tree_spec",
    "serialize_tree",
    "validate_tree",
    "path_to_root",
    # surveys
    "OutcomeKind",
    "SurveySample",
    "MeanWithHalfWidth",
    "ingest_responses",
    "survey_columns",
    "survey_text",
    "write_survey",
    "split_by_supplier",
    "node_mean",
    # regression
    "LinearFit",
    "NodeModel",
    "FittedHierarchy",
    "fit_linear",
    "fit_node_model",
    "fit_hierarchy",
    "hierarchy_records",
    "hierarchy_from_records",
    "save_hierarchy",
    "load_hierarchy",
    # analytics
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
    "top_box_rate",
    # nps
    "NpsSegment",
    "NpsResult",
    "classify",
    "nps",
    "aggregate_nps",
    "NpsVsCva",
    "nps_vs_cva_report",
    # simulation
    "COMPETITOR_CLASS",
    "GroundTruth",
    "generate_market",
    "save_truth",
    "load_truth",
    "CellTarget",
    "NodeTarget",
    "TableTargets",
    "calibrate_to_tables",
    "canonical_targets",
    # rendering
    "render_profile_table",
    "render_priorities",
    "render_loyalty_curve",
    "render_value_map",
    "render_nps",
    "render_nps_vs_cva",
    "render_report",
    "report_records",
    "nps_records",
    # numbers
    "round_half_away",
    "format_rating",
    "format_percent",
    "format_score",
    "RandomStream",
]
