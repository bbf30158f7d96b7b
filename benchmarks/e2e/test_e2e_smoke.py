"""Smoke test of the e2e benchmark (run explicitly; not in tier-1 testpaths).

    python3 -m pytest benchmarks/e2e/test_e2e_smoke.py -q

Runs the whole ladder once at smoke size (N and W divided by 10,
2-second periods, ~30 s) and checks what the full-size runs rely on.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def ladder() -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--repeats", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    return json.loads((HERE / "out" / "e2e_seed1_smoke.json").read_text())


def test_every_declared_metric_is_emitted_with_its_unit(ladder):
    assert set(ladder["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, rung in ladder["workloads"].items():
        for metric in SPEC["end_to_end"]:
            row = rung["end_to_end"][metric["name"]]
            assert row["unit"] == metric["unit"], (name, metric["name"])
            assert row["n"] == 2 and row["median"] > 0, (name, metric["name"])
        assert set(rung["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
        for metric in SPEC["per_layer"]:
            assert rung["per_layer"][metric["name"]]["unit"] == metric["unit"]


def test_metric_names_are_well_formed():
    names = [
        m["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for m in SPEC[section]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_proxies_change_no_result(ladder):
    # The determinism gate compares the traced run's exact counts with the
    # untraced repeats'; any difference is listed as a failure.
    for name, rung in ladder["workloads"].items():
        assert rung["ops_failed"] == 0, (name, rung["failures"])
        assert rung["ops_attempted"] > 0


def test_trace_self_times_sum_to_run_s(ladder):
    for name, rung in ladder["workloads"].items():
        spans = [
            json.loads(line)
            for line in (HERE / "out" / f"trace_{name}.jsonl").open()
        ]
        run_root = next(s for s in spans if s["name"] == "engine.run")
        nested = [0.0] * len(spans)
        for span in spans:
            if span["parent"] >= 0:
                nested[span["parent"]] += span["end"] - span["start"]
        # run_s leaves out the accuracy oracle and the speed probe, so
        # their spans do not count.
        self_seconds = sum(
            span["end"] - span["start"] - nested[span["id"]]
            for span in spans
            if span["id"] >= run_root["id"]
            and span["name"] not in ("truth.evaluate", "obs.speed_probe")
        )
        assert self_seconds == pytest.approx(
            rung["traced_run_wall_s"], rel=0.02
        )
        in_reports = [s for s in spans if s["report_id"] is not None]
        assert {s["name"] for s in in_reports} >= {"server.update"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "loop_20k",
         "--seed", "1", "--seconds", "2", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
