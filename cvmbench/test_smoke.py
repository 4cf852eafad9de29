"""Smoke test of the benchmark at a tiny size (about a minute).

Run from the repository root::

    python3 -m pytest -q cvmbench/test_smoke.py

Each workload runs one round, with the panel at 2,000 respondents instead of
200,000 and the calibration at seed 6 (14 rounds instead of 99).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = {"wave-2k-cli": 42, "panel-200k": 3, "calibrate": 6}
#: the end-to-end names each workload prints before its JSON line
PRINTED = {
    "wave-2k-cli": ("setup_s", "report_s", "fit_s", "validate_s", "nps_s", "simulate_s",
                    "cli_ops_per_s", "cli_tail_s", "peak_rss_mb", "error_rate"),
    "panel-200k": ("setup_s", "report_s", "peak_rss_mb", "error_rate"),
    "calibrate": ("setup_s", "calibrate_s", "peak_rss_mb", "error_rate"),
}


def tiny_run(workload: str, trace: bool) -> tuple[dict, list[str]]:
    return run.run_workload(workload, SEEDS[workload], seconds=0.1, trace=trace,
                            root=ROOT, panel_scale=1)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted(workload: str, trace: bool) -> None:
    result, lines = tiny_run(workload, trace)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {line.split()[0] for line in lines}
    if trace:
        assert set(declared) <= printed
    else:
        assert set(PRINTED[workload]) <= printed
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not (ROOT / ".cvmbench_work").exists()


def test_tampered_artifact_counts_as_failure(monkeypatch: pytest.MonkeyPatch) -> None:
    read = run.read_artifact
    monkeypatch.setattr(run, "read_artifact", lambda path: read(path).replace(b"7", b"8", 1))
    result, lines = tiny_run("wave-2k-cli", trace=False)
    assert not result["correct"]
    assert 1 <= result["failed"] <= result["attempted"]
    error_rate = next(line for line in lines if line.startswith("error_rate"))
    assert f"({result['failed']}/{result['attempted']})" in error_rate
    assert any(line.startswith("FAILED report") for line in lines)
