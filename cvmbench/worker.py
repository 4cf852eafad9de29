"""Worker process of the benchmark: one calibration, or one traced CLI command.

``python3 cvmbench/worker.py calibrate SEED OUTDIR [--spans FILE]``
    Runs ``calibrate_to_tables(canonical_targets(automobile_tree()))`` with
    the initial seed set to SEED and writes ``result.json`` (calibration wall
    time, generate_market call times, seeds tried), ``truth.json`` and the
    regenerated ``survey.csv`` into OUTDIR.  A seed from which calibration
    does not converge within the default budget is reported and the next
    seed is tried, at most ``MAX_SEEDS`` in all, as a maintainer building the
    fixture would.  The generate_market call times are the only
    instrumentation of an untraced run: they give the per-round time.

``python3 cvmbench/worker.py cli SPANS -- CVMKIT-ARGS...``
    Imports ``cvmkit.cli``, installs the tracer and runs the command the
    way the ``cvmkit`` console script would, then writes the spans to SPANS.

With a spans file, the tracer wraps the functions below under the names
their calling modules look them up by, so a span is recorded at each layer
boundary with its name, start, end, parent span and op id; a ``gc.callbacks``
hook records every generation-2 collection.  No file of the package is
changed.
"""

from __future__ import annotations

import functools
import gc
import json
import sys
import time
from pathlib import Path

MAX_SEEDS = 3

#: module -> public functions traced there (``Class.method`` for methods).
#: ``simulate._verify`` is traced only to tell calibration rounds from
#: verification regenerations.
TRACED = {
    "tree": ("parse_tree_spec",),
    "survey": ("ingest_responses", "split_by_supplier", "node_mean", "survey_text"),
    "regression": ("fit_hierarchy",),
    "analytics": ("profile_table", "rank_priorities", "loyalty_curve", "value_map"),
    "nps": ("nps", "nps_vs_cva_report"),
    "rendering": ("render_profile_table", "render_priorities", "render_loyalty_curve",
                  "render_value_map", "render_nps", "render_nps_vs_cva"),
    "simulate": ("generate_market", "calibrate_to_tables", "_verify"),
    "rng": ("RandomStream.normals", "RandomStream.uniforms"),
}
CLI_COMMANDS = ("validate", "fit", "report", "nps", "simulate")


class Tracer:
    """Spans kept in memory as ``[name, start, end, parent, op, info]``.

    ``parent`` is the index of the enclosing span (None at the top); ``op``
    names the operation, which is this whole worker process.
    """

    def __init__(self, op: str) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = op
        self.gc_pauses: list[float] = []
        self._gc_start = 0.0

    def wrap(self, name: str, fn, describe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            span = [name, time.perf_counter(), None, parent, self.op, None]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if describe is not None:
                span[5] = describe(args, result)
            return result

        return traced

    def on_gc(self, phase: str, info: dict) -> None:
        if info.get("generation") != 2:
            return
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pauses.append(time.perf_counter() - self._gc_start)

    def dump(self, path: Path) -> None:
        document = {"spans": self.spans, "gc_pauses": self.gc_pauses}
        path.write_text(json.dumps(document), encoding="utf-8")


def _describe_rows(args, result) -> dict:
    return {"rows": len(result)}


def _describe_fit(args, result) -> dict:
    return {
        "respondents": len(args[0]),
        "unfit": sorted(result.unfit),
        "models": {
            node: {"n": m.fit.n, "intercept": m.fit.intercept,
                   "coefficients": dict(m.fit.coefficients), "r_squared": m.fit.r_squared}
            for node, m in result.models.items()
        },
    }


DESCRIBE = {
    "survey.ingest_responses": _describe_rows,
    "simulate.generate_market": _describe_rows,
    "regression.fit_hierarchy": _describe_fit,
}


def install(tracer: Tracer) -> None:
    """Wrap every traced function in every loaded cvmkit module that binds it."""
    import importlib

    modules = [m for name, m in list(sys.modules.items())
               if name == "cvmkit" or name.startswith("cvmkit.")]
    for short, names in TRACED.items():
        home = importlib.import_module(f"cvmkit.{short}")
        for name in names:
            if "." in name:
                cls_name, method = name.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, method, tracer.wrap(f"{short}.{method}", getattr(cls, method)))
                continue
            original = getattr(home, name)
            wrapped = tracer.wrap(f"{short}.{name}", original, DESCRIBE.get(f"{short}.{name}"))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
    cli = sys.modules.get("cvmkit.cli")
    if cli is not None:
        for command in CLI_COMMANDS:
            cmd = cli.main.commands[command]
            cmd.callback = tracer.wrap(f"cli.{command}", cmd.callback)
    gc.callbacks.append(tracer.on_gc)


def calibrate(seed: int, out: Path, spans: Path | None) -> int:
    import cvmkit.simulate as simulate
    from cvmkit.datasets import automobile_tree
    from cvmkit.simulate import CalibrationError, canonical_targets
    from cvmkit.survey import write_survey

    tracer = None
    if spans is not None:
        tracer = Tracer(op=spans.parent.name)
        install(tracer)
    call_times: list[float] = []
    generate = simulate.generate_market

    def timed_generate(truth):
        call_times.append(time.perf_counter())
        return generate(truth)

    simulate.generate_market = timed_generate
    tried = []
    truth = None
    start = time.perf_counter()
    for candidate in range(seed, seed + MAX_SEEDS):
        targets = canonical_targets(automobile_tree())
        targets.initial.seed = candidate
        tried.append(candidate)
        try:
            truth = simulate.calibrate_to_tables(targets)  # traced binding
            break
        except CalibrationError:
            continue
    elapsed = time.perf_counter() - start
    simulate.generate_market = generate
    if tracer is not None:
        gc.callbacks.remove(tracer.on_gc)
        tracer.dump(spans)
    result = {"calibrate_s": elapsed, "start": start, "end": start + elapsed,
              "generate_calls": call_times, "seeds_tried": tried,
              "converged": truth is not None}
    if truth is not None:
        simulate.save_truth(truth, out / "truth.json")
        write_survey(generate(truth), out / "survey.csv")
    (out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0 if truth is not None else 1


def cli(spans: Path, args: list[str]) -> int:
    import cvmkit.cli

    tracer = Tracer(op=spans.parent.name)
    install(tracer)
    try:
        status = cvmkit.cli.main.main(args, prog_name="cvmkit", standalone_mode=True)
    except SystemExit as exc:
        status = exc.code
    finally:
        gc.callbacks.remove(tracer.on_gc)
        tracer.dump(spans)
    return int(status or 0)


def main(argv: list[str]) -> int:
    if argv[0] == "calibrate":
        spans = Path(argv[4]) if len(argv) > 4 and argv[3] == "--spans" else None
        return calibrate(int(argv[1]), Path(argv[2]), spans)
    if argv[0] == "cli" and argv[2] == "--":
        return cli(Path(argv[1]), argv[3:])
    raise SystemExit(f"usage: {__doc__}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
