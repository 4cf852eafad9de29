#!/usr/bin/env python3
"""The cvmkit benchmark: three workloads, checked outputs, an optional traced run.

Run from the root of a cvmkit checkout::

    python3 cvmbench/run.py --workload wave-2k-cli --seed 42 --seconds 20 --trace 0
    python3 cvmbench/run.py --workload all --seed 42        # every workload in turn

One harness process makes the inputs (``inputs.py``, in a child process, set up
``SETUP_REPEATS`` times), then runs a closed loop with one client and one
worker process at a time: each operation is a fresh ``cvmkit`` CLI process or
a fresh calibration worker, timed from spawn to exit, with its peak RSS from
``wait4``.  A new round starts only while the median round still fits in
``--seconds``; the first round always runs.  Every artifact is checked (see
``reference.py``) and a failed check counts as a failed operation; it never
stops the run.

With ``--trace 1`` the run instead makes one untraced and one traced round
(``worker.py`` wraps the package's layer functions) and reports per-layer
metrics.  The last line of standard output is the JSON result; the lines
before it name every metric with its unit, the run's environment and any
failures.  See ``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
WORKLOADS = ("wave-2k-cli", "panel-200k", "calibrate")
SETUP_REPEATS = 3
PROBE_REPEATS = 5
OP_TIMEOUT_S = 150.0
TAIL_BEYOND = 10
OWN = "our_co"
#: BLAS pinned to one thread: one worker on a shared 2-core machine, and the
#: reduction order (hence the last bits of every fit) stays fixed.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
BUNDLED_SURVEY = "src/cvmkit/data/market_survey.csv"
BUNDLED_TRUTH = "src/cvmkit/data/market_truth.json"
GOLDEN_REPORT = "tests/golden/report.txt"
TREE = "src/cvmkit/data/automobile.tree"
FIXTURE_SEED = 42

END_TO_END = {"setup_s": "s", "op_s": "s", "tail_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.python_startup_s": "s", "cli.import_s": "s", "cli.report_self_s": "s",
    "tree.parse_tree_spec_s": "s",
    "survey.ingest_responses_s": "s", "survey.ingest_rows_per_s": "rows/s",
    "survey.split_by_supplier_s": "s", "survey.node_mean_s": "s",
    "survey.node_mean_calls": "count", "survey.survey_text_s": "s",
    "regression.fit_hierarchy_s": "s", "regression.fit_hierarchy_calls": "count",
    "regression.complete_case_ratio": "ratio", "regression.unfit_nodes": "count",
    "analytics.profile_table_s": "s", "analytics.rank_priorities_s": "s",
    "analytics.loyalty_curve_s": "s", "analytics.value_map_s": "s",
    "nps.nps_s": "s", "nps.nps_vs_cva_report_s": "s",
    "rendering.render_s": "s",
    "simulate.generate_market_s": "s", "simulate.generate_market_calls": "count",
    "simulate.rows_generated_per_s": "rows/s", "simulate.calibrate_self_s": "s",
    "simulate.calibration_rounds": "count", "simulate.truth_max_abs_diff": "abs",
    "rng.draw_s": "s",
    "gc.gen2_pause_s": "s", "gc.gen2_collections": "count",
    "trace.overhead_ratio": "ratio",
}


def read_artifact(path: Path) -> bytes:
    """Every checked artifact is read through here."""
    return path.read_bytes()


@dataclass
class Op:
    """One finished operation: a CLI command or a calibration."""

    kind: str
    wall: float
    rss_mb: float
    problems: list[str] = field(default_factory=list)
    rounds: list[float] = field(default_factory=list)  # calibration round times
    spans: dict | None = None


class Harness:
    """Spawns and checks the operations of one workload run in ``work``."""

    def __init__(self, root: Path, work: Path, workload: str, seed: int, panel_scale: int):
        self.root, self.work, self.workload, self.seed = root, work, workload, seed
        self.panel_scale = panel_scale
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **BLAS_THREADS)
        self.digests: dict[str, str] = {}
        self.checked: dict[tuple[str, str], list[str]] = {}
        self.counter = 0
        self.truth_diffs: list[float] = []  # recalibrated truth vs the bundled or first one
        self.first_truth: bytes | None = None
        self.reference: dict = {}
        self.targets: dict = {}

    # -- processes ---------------------------------------------------------

    def spawn(self, argv: list[str], stdout: Path) -> tuple[int, float, float]:
        """Run ``argv`` to completion: (exit code, wall seconds, peak RSS in MB)."""
        with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def setup(self) -> float:
        start = time.perf_counter()
        argv = [sys.executable, str(HERE / "inputs.py"), self.workload, str(self.seed),
                str(self.work), str(self.panel_scale)]
        status, _, _ = self.spawn(argv, self.work / "setup.out")
        if status != 0:
            err = (self.work / "setup.err").read_text(errors="replace")
            raise RuntimeError(f"set-up failed ({status}):\n{err}")
        elapsed = time.perf_counter() - start
        if self.workload == "calibrate":
            self.targets = json.loads((self.work / "targets.json").read_text())
        else:
            self.reference = json.loads((self.work / "reference.json").read_text())
        return elapsed

    def fresh(self, name: str) -> Path:
        self.counter += 1
        return self.work / f"{self.counter:04d}-{name}"

    # -- checks ------------------------------------------------------------

    def check(self, kind: str, data: bytes, verify) -> list[str]:
        """Byte-identical to this run's first artifact of ``kind``, and ``verify``-ed."""
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault(kind, digest)
        problems = [] if digest == first else [f"{kind}: differs from the run's first output"]
        if (kind, digest) not in self.checked:
            try:
                self.checked[kind, digest] = verify(data)
            except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
                self.checked[kind, digest] = [f"{kind}: unreadable output ({exc!r})"]
        return problems + self.checked[kind, digest]

    def verify_cli(self, kind: str, data: bytes) -> list[str]:
        ref = self.reference
        if kind == "validate":
            line = f"survey ok: {ref['n_respondents']} respondents, suppliers: " + ", ".join(
                ref["suppliers"])
            return [] if line in data.decode().splitlines() else [f"validate lacks {line!r}"]
        if kind == "fit":
            return reference.check_fit(json.loads(data), ref)
        if kind == "report":
            if self.seed != FIXTURE_SEED:
                return []
            golden = (self.root / GOLDEN_REPORT).read_bytes()
            return [] if data == golden else [f"report differs from {GOLDEN_REPORT}"]
        if kind == "report_records":
            return reference.check_records(json.loads(data), ref)
        if kind == "nps":
            return reference.check_nps_text(data.decode(), ref)
        if kind == "simulate":
            problems = []
            if data != (self.work / "survey.csv").read_bytes():
                problems.append("simulate output differs from the set-up survey")
            if self.seed == FIXTURE_SEED and data != (self.root / BUNDLED_SURVEY).read_bytes():
                problems.append(f"simulate output differs from {BUNDLED_SURVEY}")
            return problems
        raise KeyError(kind)

    # -- operations ---------------------------------------------------------

    def cli_commands(self) -> list[tuple[str, list[str], str | None]]:
        """(kind, cvmkit arguments, --out file name or None for stdout)."""
        tree, survey = str(self.root / TREE), str(self.work / "survey.csv")
        base = ["--tree", tree, "--survey", survey, "--own", OWN]
        report = ["report", *base, "--target-loyalty", str(reference.TARGET_LOYALTY)]
        if self.workload == "panel-200k":
            return [("report_records", [*report, "--format", "records"], None)]
        config = str(self.work / "seed_config.json")
        return [
            ("validate", ["validate", *base], None),
            ("fit", ["fit", *base, "--out", "fit.json"], "fit.json"),
            ("report", report, None),
            ("report_records", [*report, "--format", "records"], None),
            ("nps", ["nps", *base], None),
            ("simulate", ["simulate", "--seed-config", config, "--out", "sim.csv"], "sim.csv"),
        ]

    def run_cli(self, kind: str, args: list[str], out_name: str | None, traced: bool) -> Op:
        stem = self.fresh(kind)
        stem.mkdir()
        args = [str(stem / a) if a == out_name else a for a in args]
        spans_path = stem / "spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "worker.py"), "cli", str(spans_path), "--", *args]
        else:
            argv = [sys.executable, "-m", "cvmkit.cli", *args]
        status, wall, rss = self.spawn(argv, stem / "stdout")
        op = Op(kind, wall, rss)
        if status != 0:
            op.problems.append(f"{kind}: exit status {status}")
            return op
        artifact = stem / (out_name or "stdout")
        op.problems += self.check(kind, read_artifact(artifact), lambda d: self.verify_cli(kind, d))
        if traced:
            op.spans = json.loads(spans_path.read_text())
            op.problems += self.check_traced_fits(op.spans)
        return op

    def check_traced_fits(self, spans: dict) -> list[str]:
        """Complete-case n and raw coefficients, visible only inside the process."""
        problems = []
        for name, _, _, _, _, info in spans["spans"]:
            if name != "regression.fit_hierarchy" or info is None:
                continue
            for node, want in self.reference["models"].items():
                got = info["models"].get(node)
                if got is None:
                    problems.append(f"{node}: not fitted")
                    continue
                coefs = [got["coefficients"][c] for c in want["children"]]
                problems += reference.check_model(node, got["n"], got["intercept"], coefs,
                                                  got["r_squared"], want)
        return problems

    def run_calibration(self, traced: bool) -> Op:
        stem = self.fresh("calibrate")
        stem.mkdir()
        argv = [sys.executable, str(HERE / "worker.py"), "calibrate", str(self.seed), str(stem)]
        if traced:
            argv += ["--spans", str(stem / "spans.json")]
        status, wall, rss = self.spawn(argv, stem / "stdout")
        op = Op("calibrate", wall, rss)
        if not (stem / "result.json").is_file():
            op.problems.append(f"calibrate: worker exit status {status}, no result")
            return op
        result = json.loads((stem / "result.json").read_text())
        calls = result["generate_calls"] + [result["end"]]
        op.rounds = [b - a for a, b in zip(calls, calls[1:])]
        if traced:
            op.spans = json.loads((stem / "spans.json").read_text())
        if len(result["seeds_tried"]) > 1:
            print(f"calibrate: seeds {result['seeds_tried'][:-1]} did not converge; "
                  f"seed {result['seeds_tried'][-1]} was used", file=sys.stderr)
        if not result["converged"] or status != 0:
            op.problems.append(f"calibrate: no convergence from seeds {result['seeds_tried']}")
            return op
        truth = read_artifact(stem / "truth.json")
        survey = read_artifact(stem / "survey.csv")
        op.problems += self.check("truth", truth, lambda d: [])
        op.problems += self.check("calibrated_survey", survey, self.verify_calibration)
        if self.first_truth is None:
            self.first_truth = truth
        baseline = self.first_truth
        if result["seeds_tried"] == [FIXTURE_SEED]:
            baseline = (self.root / BUNDLED_TRUTH).read_bytes()
        self.truth_diffs.append(max_abs_diff(json.loads(truth), json.loads(baseline)))
        return op

    def verify_calibration(self, data: bytes) -> list[str]:
        path = self.work / "calibrated.csv"
        path.write_bytes(data)
        tree = reference.read_tree(self.root / TREE)
        problems = reference.check_calibration(reference.read_survey(path), tree,
                                               self.targets["own"], self.targets)
        if self.seed == FIXTURE_SEED and data != (self.root / BUNDLED_SURVEY).read_bytes():
            problems.append(f"calibrated survey differs from {BUNDLED_SURVEY}")
        return problems

    def round(self, traced: bool = False) -> list[Op]:
        if self.workload == "calibrate":
            return [self.run_calibration(traced)]
        return [self.run_cli(kind, args, out, traced) for kind, args, out in self.cli_commands()]

    def probe(self, code: str) -> float:
        """Median over PROBE_REPEATS fresh interpreters; ``code`` may print a time."""
        values = []
        for _ in range(PROBE_REPEATS):
            stem = self.fresh("probe")
            status, wall, _ = self.spawn([sys.executable, "-c", code], stem)
            if status != 0:
                raise RuntimeError(f"probe {code!r} failed with status {status}")
            printed = stem.read_text().strip()
            values.append(float(printed) if printed else wall)
        return statistics.median(values)


def max_abs_diff(a, b) -> float:
    """Largest numeric difference between two JSON documents of the same shape."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return max((max_abs_diff(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return max((max_abs_diff(x, y) for x, y in zip(a, b)), default=0.0)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(float(a) - float(b))
    return 0.0 if a == b else math.inf


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], f"max of {n}"
    pct = 100.0 * (n - TAIL_BEYOND) / n
    return ordered[n - TAIL_BEYOND - 1], f"p{pct:.0f} of {n}, {TAIL_BEYOND} beyond"


def end_to_end(workload: str, ops: list[Op], loop_s: float, setups: list[float]) -> tuple[dict, list[str]]:
    """The BENCHMARK.json metrics plus the human-readable per-command lines."""
    lines = []
    if workload == "calibrate":
        rounds = [r for op in ops for r in op.rounds]
        latency = statistics.median(rounds)
        tail_s, tail_label = tail(rounds)
        rss = max(op.rss_mb for op in ops)
        lines.append(f"calibrate_s {statistics.median(op.wall for op in ops):.4f} s "
                     f"(median of {len(ops)}; {len(rounds) // len(ops)} rounds each)")
    else:
        by_kind: dict[str, list[Op]] = {}
        for op in ops:
            by_kind.setdefault(op.kind, []).append(op)
        main_kind = "report" if workload == "wave-2k-cli" else "report_records"
        latency = statistics.median(op.wall for op in by_kind[main_kind])
        tail_s, tail_label = tail([op.wall for op in ops])
        rss = max(op.rss_mb for op in ops if op.kind.startswith("report"))
        for kind, group in by_kind.items():
            name = {"report": "report_s", "report_records": "report_records_s"}.get(kind, f"{kind}_s")
            if workload == "panel-200k":
                name = "report_s"
            lines.append(f"{name} {statistics.median(op.wall for op in group):.4f} s "
                         f"(median of {len(group)})")
        lines.append(f"cli_ops_per_s {len(ops) / loop_s:.4f} 1/s")
        lines.append(f"cli_tail_s {tail_s:.4f} s ({tail_label})")
    failed = sum(1 for op in ops if op.problems)
    lines.append(f"error_rate {failed / len(ops):.4f} ({failed}/{len(ops)})")
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s": latency,
        "tail_s": tail_s,
        "peak_rss_mb": rss,
    }
    lines = [f"setup_s {metrics['setup_s']:.4f} s (median of {len(setups)})",
             f"peak_rss_mb {rss:.1f} MB"] + lines
    return metrics, lines


def per_layer(ops: list[Op], untraced: list[Op], probes: dict, truth_diff: float) -> tuple[dict, int]:
    """Per-layer metrics from the traced ops' spans; also the nesting violations."""
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    rows = {"survey.ingest_responses": 0, "simulate.generate_market": 0}
    fitted = fit_slots = unfit = rounds = 0
    pauses: list[float] = []
    violations = 0
    for op in ops:
        if op.spans is None:  # the op failed before writing spans; counted there
            continue
        spans = op.spans["spans"]
        pauses += op.spans["gc_pauses"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        for index, (name, start, end, parent, _, info) in enumerate(spans):
            duration = end - start
            own = duration - child_time[index]
            if own < -1e-6:
                violations += 1
            self_s[name] = self_s.get(name, 0.0) + own
            incl_s[name] = incl_s.get(name, 0.0) + duration
            calls[name] = calls.get(name, 0) + 1
            if name in rows and info:
                rows[name] += info["rows"]
            if name == "regression.fit_hierarchy" and info:
                fitted += sum(m["n"] for m in info["models"].values())
                fit_slots += len(info["models"]) * info["respondents"]
                unfit += len(info["unfit"])
            if name == "simulate.generate_market":
                ancestors, p = set(), parent
                while p is not None:
                    ancestors.add(spans[p][0])
                    p = spans[p][3]
                if "simulate.calibrate_to_tables" in ancestors and "simulate._verify" not in ancestors:
                    rounds += 1

    def rate(count: int, name: str) -> float:
        return count / incl_s[name] if incl_s.get(name) else 0.0

    metrics = {
        **probes,
        "cli.report_self_s": self_s.get("cli.report", 0.0),
        "survey.ingest_rows_per_s": rate(rows["survey.ingest_responses"], "survey.ingest_responses"),
        "survey.node_mean_calls": calls.get("survey.node_mean", 0),
        "regression.fit_hierarchy_calls": calls.get("regression.fit_hierarchy", 0),
        "regression.complete_case_ratio": fitted / fit_slots if fit_slots else 0.0,
        "regression.unfit_nodes": unfit,
        "rendering.render_s": sum(v for k, v in self_s.items() if k.startswith("rendering.")),
        "simulate.generate_market_calls": calls.get("simulate.generate_market", 0),
        "simulate.rows_generated_per_s": rate(rows["simulate.generate_market"],
                                              "simulate.generate_market"),
        "simulate.calibrate_self_s": self_s.get("simulate.calibrate_to_tables", 0.0)
        + self_s.get("simulate._verify", 0.0),
        "simulate.calibration_rounds": rounds,
        "simulate.truth_max_abs_diff": truth_diff,
        "rng.draw_s": self_s.get("rng.normals", 0.0) + self_s.get("rng.uniforms", 0.0),
        "gc.gen2_pause_s": sum(pauses),
        "gc.gen2_collections": len(pauses),
        "trace.overhead_ratio": sum(op.wall for op in ops) / sum(op.wall for op in untraced),
    }
    for metric in PER_LAYER:
        if metric not in metrics:
            metrics[metric] = self_s.get(metric[: -len("_s")], 0.0)
    return metrics, violations


def environment(root: Path, work: Path) -> dict:
    env = json.loads((work / "env.json").read_text())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": sys.version.split()[0], **env, "nproc": os.cpu_count(),
            "cpu": cpu, "commit": git_commit(root)}


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, root: Path,
                 panel_scale: int = 100) -> tuple[dict, list[str]]:
    """One benchmark run: (the JSON result, the lines printed before it)."""
    work = root / ".cvmbench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    h = Harness(root, work, workload, seed, panel_scale)
    try:
        lines = [f"# cvmbench {workload} seed={seed} seconds={seconds:g} trace={int(trace)}"]
        if trace:
            h.setup()
            probes = {
                "cli.python_startup_s": h.probe("pass"),
                "cli.import_s": h.probe("import time; t = time.perf_counter(); "
                                        "import cvmkit.cli; print(time.perf_counter() - t)"),
            }
            untraced = h.round()
            traced = h.round(traced=True)
            metrics, violations = per_layer(traced, untraced, probes,
                                            max(h.truth_diffs, default=0.0))
            ops = untraced + traced
            if violations:
                traced[0].problems.append(f"{violations} spans shorter than their children")
            units = PER_LAYER
        else:
            setups = [h.setup() for _ in range(SETUP_REPEATS)]
            ops: list[Op] = []
            round_walls: list[float] = []
            start = time.perf_counter()
            while True:
                round_start = time.perf_counter()
                ops += h.round()
                round_walls.append(time.perf_counter() - round_start)
                elapsed = time.perf_counter() - start
                if elapsed + statistics.median(round_walls) > seconds:
                    break
            metrics, summary = end_to_end(workload, ops, elapsed, setups)
            lines += summary
            units = END_TO_END
        if h.truth_diffs:
            against = BUNDLED_TRUTH if seed == FIXTURE_SEED else "the run's first calibration"
            lines.append(f"simulate.truth_max_abs_diff {max(h.truth_diffs):.3e} "
                         f"(recalibrated truth vs {against}; reported, not gated)")
        lines.append("env " + json.dumps(environment(root, work)))
        failed = [op for op in ops if op.problems]
        for op in failed:
            lines.append(f"FAILED {op.kind}: " + "; ".join(op.problems[:5]))
        result = {
            "correct": not failed,
            "attempted": len(ops),
            "failed": len(failed),
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
        if trace:
            lines += [f"{name} {metrics[name]:.6g} {unit}" for name, unit in units.items()]
        return result, lines
    finally:
        shutil.rmtree(work, ignore_errors=True)
        parent = work.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "cvmkit" / "__init__.py").is_file():
        print("cvmbench: no cvmkit sources under src/ here; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("cvmbench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result, lines = run_workload(workload, args.seed, args.seconds, bool(args.trace), root)
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
