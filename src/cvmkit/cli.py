"""Command-line interface: validate, fit, report, nps, simulate.

Commands parse flags, read files and write bytes.  The library builds each
document (``competitive_report``, ``nps_vs_cva_report``, ``rendering``); its
warnings print as ``warning:`` lines.

Every command is deterministic given its inputs and flags: artifacts carry
no timestamps (those go to a ``<out>.log`` sidecar), files are written
atomically (write-then-rename), and all number formatting goes through the
package's single rounding policy.  Exit status is 0 exactly when no
error-class diagnostic was emitted; errors print to stderr with file/row
context where available.

A JSON config file may supply defaults for any flag of any subcommand::

    cvmkit --config run.json report --format records

The file maps either subcommand names to flag dicts, or flag names directly
(applied to every subcommand); explicit flags win.
"""

from __future__ import annotations

import datetime
import json
import math
import sys
import warnings
from pathlib import Path

import click

from .analytics import competitive_report
from .errors import CvmError, decode_utf8, read_json, write_atomic
from .regression import fit_hierarchy, load_hierarchy, save_hierarchy
from .rendering import (
    loyalty_plot_csv,
    nps_records,
    render_nps_vs_cva,
    render_report,
    report_records,
    value_map_plot_csv,
)
from .rounding import format_percent, format_rating
from .survey import OutcomeKind, ingest_responses, sample_counts, supplier_sums, write_survey
from .tree import TreeFormatError, parse_tree_spec


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _warn(message: str) -> None:
    click.echo(f"warning: {message}", err=True)


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        _fail(f"{what} file not found: {path}")
    return p


def _write_sidecar(out_path: str | Path, command: str) -> None:
    """Run metadata lives next to the artifact, never inside it."""
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    line = f"{stamp} cvmkit {command} -> {out_path}\n"
    write_atomic(str(out_path) + ".log", line)


def _emit(text: str, out_path: str | None, command: str) -> None:
    if out_path is None:
        click.echo(text, nl=False)
    else:
        write_atomic(out_path, text)
        _write_sidecar(out_path, command)


def _load_tree(path: str):
    data = _require_file(path, "tree").read_bytes()
    return parse_tree_spec(decode_utf8(data, TreeFormatError))


def _warned(build, *args):
    """``build(*args)``, printing each library warning it raised as a ``warning:`` line.

    The lines print even when ``build`` fails, so they precede its error.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return build(*args)
        finally:
            for warning in caught:
                _warn(str(warning.message))


def _load_sample(survey_path: str, tree, own: str):
    _require_file(survey_path, "survey")
    return _warned(ingest_responses, survey_path, tree, own)


def _finite(ctx: click.Context, param: click.Parameter, value: float | None) -> float | None:
    """Refuse nan and infinity, which click's float ranges let through."""
    if value is not None and not math.isfinite(value):
        raise click.BadParameter(f"{value} is not a finite number")
    return value


def _flag_aliases(command: click.Command) -> dict[str, str]:
    """Accepted config keys (flag or parameter spelling) -> parameter name."""
    aliases: dict[str, str] = {}
    for param in command.params:
        aliases[param.name] = param.name
        for opt in param.opts:
            if opt.startswith("--"):
                aliases[opt[2:].replace("-", "_")] = param.name
    return aliases


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.option(
    "--config",
    "config_path",
    default=None,
    metavar="FILE",
    help="JSON file supplying default values for subcommand flags.",
)
@click.pass_context
def main(ctx: click.Context, config_path: str | None) -> None:
    """Customer-value analytics: value trees, driver models, competitive reports."""
    if config_path is None:
        return
    try:
        data = read_json(_require_file(config_path, "config"), "config", lambda d: d)
    except CvmError as exc:
        _fail(str(exc))
    if not isinstance(data, dict):
        _fail("config must be a JSON object")
    if data and set(data) <= set(main.commands) and all(
        isinstance(v, dict) for v in data.values()
    ):
        sections = {name: dict(values) for name, values in data.items()}
    else:
        sections = {name: dict(data) for name in main.commands}
    default_map: dict[str, dict] = {}
    for name, values in sections.items():
        null = [key for key, value in values.items() if value is None]
        if null:
            _fail(f"config key {null[0]!r} is null; give a value or leave the key out")
        aliases = _flag_aliases(main.commands[name])
        # keys that fit the subcommand become its defaults, read as command-line
        # text (so 2.5 is no integer); a flat config's other keys are for others
        default_map[name] = {
            aliases[key.replace("-", "_")]: value if isinstance(value, str) else json.dumps(value)
            for key, value in values.items()
            if key.replace("-", "_") in aliases
        }
    ctx.default_map = default_map


@main.command()
@click.option("--tree", "tree_path", required=True, metavar="FILE")
@click.option("--survey", "survey_path", default=None, metavar="FILE")
@click.option("--own", "own_label", default=None, metavar="LABEL")
def validate(tree_path: str, survey_path: str | None, own_label: str | None) -> None:
    """Check a tree file (and optionally a survey against it)."""
    try:
        tree = _load_tree(tree_path)  # the parser rejects invalid trees
        click.echo(
            f"tree ok: {len(tree.nodes)} nodes, "
            f"{len(tree.internal_nodes())} internal, {len(tree.leaves())} leaves"
        )
        if survey_path is not None:
            sample = _load_sample(survey_path, tree, own_label or "")
            counts = sample_counts(sample)
            click.echo(
                f"survey ok: {len(sample)} respondents, "
                f"suppliers: {', '.join(counts.suppliers)}"
            )
            missing = {column: n for column, n in counts.missing.items() if n}
            for title, tally in (
                ("respondents per supplier", counts.suppliers),
                ("roles", counts.roles),
                ("missing cells", missing),
            ):
                listed = ", ".join(f"{name} {n}" for name, n in tally.items())
                click.echo(f"{title}: {listed or 'none'}")
    except CvmError as exc:
        _fail(str(exc))


def _fit_summary(hierarchy) -> str:
    lines = []
    for node_id, model in hierarchy.models.items():
        weights = ", ".join(
            f"{child}={format_percent(weight)}%"
            for child, weight in model.impact_weights.items()
        )
        lines.append(
            f"{node_id}: R^2 = {format_percent(100 * model.fit.r_squared)}%, "
            f"n = {model.fit.n}, weights: {weights}"
        )
        for flag in model.flags:
            lines.append(f"  note: {flag}")
    for node_id, reason in hierarchy.unfit.items():
        lines.append(f"{node_id}: not fitted ({reason})")
    return "\n".join(lines) + "\n"


@main.command()
@click.option("--tree", "tree_path", required=True, metavar="FILE")
@click.option("--survey", "survey_path", required=True, metavar="FILE")
@click.option("--own", "own_label", required=True, metavar="LABEL")
@click.option("--out", "out_path", default=None, metavar="FILE",
              help="write the fitted-hierarchy document (JSON) here")
def fit(tree_path: str, survey_path: str, own_label: str, out_path: str | None) -> None:
    """Fit the per-node driver models and print a fit summary."""
    try:
        tree = _load_tree(tree_path)
        sample = _load_sample(survey_path, tree, own_label)
        hierarchy = fit_hierarchy(sample, tree)
        if not hierarchy.models:
            _fail("no node could be fitted: " + "; ".join(
                f"{node} ({reason})" for node, reason in hierarchy.unfit.items()
            ))
        if out_path is not None:
            save_hierarchy(hierarchy, out_path)
            _write_sidecar(out_path, "fit")
        click.echo(_fit_summary(hierarchy), nl=False)
    except CvmError as exc:
        _fail(str(exc))


@main.command()
@click.option("--tree", "tree_path", required=True, metavar="FILE")
@click.option("--survey", "survey_path", required=True, metavar="FILE")
@click.option("--own", "own_label", required=True, metavar="LABEL")
@click.option("--hierarchy", "hierarchy_path", default=None, metavar="FILE",
              help="reuse a saved fit instead of refitting")
@click.option("--loyalty-threshold", default=8, show_default=True, type=click.IntRange(1, 10),
              help="outcome rating that counts as 'very willing'")
@click.option("--target-loyalty", default=None, callback=_finite,
              type=click.FloatRange(0, 1, min_open=True),
              help="also report the value score this willing-share requires")
@click.option("--band", default=3.0, show_default=True, callback=_finite,
              type=click.FloatRange(0),
              help="half-width of the fair-value band on the value map")
@click.option("--outcome", default="recommend", show_default=True,
              type=click.Choice(["recommend", "repurchase"]),
              help="which outcome question drives the loyalty curve")
@click.option("--format", "fmt", default="text", show_default=True,
              type=click.Choice(["text", "records", "plotdata"]))
@click.option("--out", "out_path", default=None, metavar="PATH",
              help="output file (text/records) or file stem (plotdata)")
def report(
    tree_path: str,
    survey_path: str,
    own_label: str,
    hierarchy_path: str | None,
    loyalty_threshold: int,
    target_loyalty: float | None,
    band: float,
    outcome: str,
    fmt: str,
    out_path: str | None,
) -> None:
    """The full competitive report: profile tables, CVA, priorities, loyalty, value map."""
    if fmt == "plotdata" and out_path is None:
        _fail("--format plotdata needs --out STEM to name its files")
    try:
        tree = _load_tree(tree_path)
        sample = _load_sample(survey_path, tree, own_label)
        if own_label not in sample.suppliers():
            _fail(f"no respondents with supplier {own_label!r} in {survey_path}")
        if hierarchy_path is not None:
            hierarchy = load_hierarchy(_require_file(hierarchy_path, "hierarchy"), tree)
        else:
            hierarchy = fit_hierarchy(sample, tree)
        built = _warned(
            competitive_report, sample, hierarchy,
            OutcomeKind(outcome), loyalty_threshold, target_loyalty, band,
        )
        if fmt == "plotdata":
            if built.curve is not None:
                _emit(loyalty_plot_csv(built.curve), f"{out_path}_loyalty_curve.csv", "report")
            if built.value_map:
                _emit(value_map_plot_csv(built.value_map), f"{out_path}_value_map.csv", "report")
        else:
            text = report_records(built) if fmt == "records" else render_report(built)
            _emit(text, out_path, "report")
    except CvmError as exc:
        _fail(str(exc))


@main.command("nps")
@click.option("--tree", "tree_path", required=True, metavar="FILE")
@click.option("--survey", "survey_path", required=True, metavar="FILE")
@click.option("--own", "own_label", required=True, metavar="LABEL")
@click.option("--aggregate", "aggregate_method", default="pooled", show_default=True,
              type=click.Choice(["pooled", "average-of-units"]),
              help="how to combine respondents across suppliers-as-units")
@click.option("--format", "fmt", default="text", show_default=True,
              type=click.Choice(["text", "records"]))
@click.option("--out", "out_path", default=None, metavar="FILE")
def nps_command(
    tree_path: str,
    survey_path: str,
    own_label: str,
    aggregate_method: str,
    fmt: str,
    out_path: str | None,
) -> None:
    """Net promoter score for the own supplier, next to CVA when computable."""
    from .nps import aggregate_nps, nps_vs_cva_report

    try:
        tree = _load_tree(tree_path)
        sample = _load_sample(survey_path, tree, own_label)
        if aggregate_method == "average-of-units":
            aggregate_nps((), method="average_of_units")  # always refuses
        comparison = _warned(nps_vs_cva_report, sample)
        text = nps_records(comparison) if fmt == "records" else render_nps_vs_cva(comparison)
        _emit(text, out_path, "nps")
    except CvmError as exc:
        _fail(str(exc))


@main.command()
@click.option("--seed-config", "config_path", required=True, metavar="FILE",
              help="ground-truth document (see the market simulator docs)")
@click.option("--out", "out_path", required=True, metavar="FILE",
              help="survey file to write")
def simulate(config_path: str, out_path: str) -> None:
    """Generate a survey sample from a ground-truth config, deterministically."""
    from .simulate import generate_market, load_truth

    try:
        truth = load_truth(_require_file(config_path, "seed-config"))
        sample = generate_market(truth)
        write_survey(sample, out_path)
        _write_sidecar(out_path, "simulate")
        if len(sample) == 0:
            _warn("n = 0: wrote a header-only survey file")
            return
        root = truth.tree.root
        lines = [f"wrote {len(sample)} respondents to {out_path}"]
        sums = supplier_sums(sample, root)
        for supplier in truth.n_per_supplier:
            n, total = sums.get(supplier, (0, 0))
            if n:
                lines.append(f"  {supplier}: n = {n}, mean {root} = {format_rating(total / n)}")
        click.echo("\n".join(lines))
    except CvmError as exc:
        _fail(str(exc))


if __name__ == "__main__":
    main()
