"""Bundled example data: trees, a calibrated ground truth, and its survey.

The survey fixture is not hand-written — it is the output of
``generate_market`` for the bundled ground truth, which was calibrated so
that the fitted profile tables reproduce the benchmark automobile-market
numbers exactly (see ``tools/build_fixture.py`` in the repository).  Loading
it and refitting is therefore a full end-to-end regression test of the
pipeline.
"""

from __future__ import annotations

import io
import json
from importlib import resources

from .simulate import GroundTruth, truth_from_records
from .survey import SurveySample, ingest_responses
from .tree import ValueTree, parse_tree_spec

__all__ = [
    "automobile_tree",
    "market_truth",
    "market_survey",
    "fixture_text",
]


def fixture_text(name: str) -> str:
    """Raw text of a bundled data file (e.g. ``"automobile.tree"``)."""
    return (
        resources.files("cvmkit").joinpath("data", name).read_text(encoding="utf-8")
    )


def automobile_tree() -> ValueTree:
    """The automobile purchase value tree used throughout the examples."""
    return parse_tree_spec(fixture_text("automobile.tree"))


def market_truth() -> GroundTruth:
    """The calibrated ground truth behind the bundled survey."""
    return truth_from_records(json.loads(fixture_text("market_truth.json")))


def market_survey() -> SurveySample:
    """The bundled survey sample (2000 respondents, three suppliers)."""
    truth = market_truth()
    return ingest_responses(
        io.StringIO(fixture_text("market_survey.csv")), truth.tree, truth.own_supplier
    )
