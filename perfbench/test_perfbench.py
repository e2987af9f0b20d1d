"""Tests of the benchmark itself: ``python -m pytest perfbench -q``."""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import cases  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Tiny inputs that run each workload's ops and checks in a second.
TINY = {
    "batch-ring256": {"n": 8},
    "campaign-mixed": {"complete": 5, "random": (6, 0.3), "grid": (2, 3)},
    "online-ring64": {"n": 6, "warmup_ops": 4},
    "live-loopback": {"rate": 40.0, "warmup_observations": 8},
}


def test_names_and_units_are_valid_and_unique():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [w["name"] for w in SPEC["workloads"]] + [
        m["name"] for m in metrics
    ]
    assert all(NAME.match(n) for n in names), names
    assert len(set(names)) == len(names)
    assert all(UNIT.match(m["unit"]) for m in metrics)


def test_benchmark_json_matches_the_code():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == (
        run.END_TO_END_UNITS
    )
    for workload in SPEC["workloads"]:
        assert workload["name"] in cases.CLOSED_LOOP
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(cases.CLOSED_LOOP))
def test_tiny_closed_loop_run_passes_its_checks(name, trace):
    out = run.run_workload(name, 3, 0.4, trace, **TINY[name])
    line = out["line"]
    assert line["correct"], out["run"]["problems"]
    assert line["failed"] == 0
    assert line["attempted"] >= 2
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in wanted]
    if trace:
        rows = out["run"]["tracer"].layer_table()
        layers = out["layers"]
        partition = sum(layers[m] for m in run.PARTITION.values())
        assert partition == pytest.approx(layers["op_s"], rel=1e-9)
        traced = out["run"]["traced_latencies"]
        assert rows["op"]["calls"] == len(traced) >= 1
        assert len(traced) + len(out["run"]["latencies"]) == line["attempted"]


def test_tiny_live_run_accounts_for_every_query():
    out = run.run_workload(
        "live-loopback", 3, 1.0, False, **TINY["live-loopback"]
    )
    line = out["line"]
    ok = len(out["run"]["latencies"])
    assert line["correct"], out["run"]["problems"]
    assert line["attempted"] == 40
    assert line["attempted"] == ok + line["failed"]


def test_planted_wrong_correction_is_caught():
    workload = cases.BatchRing(3, **TINY["batch-ring256"])
    workload.setup()
    good = workload.op(0)
    workload.check(0, good)
    corrections = dict(good.corrections)
    victim = next(iter(corrections))
    corrections[victim] += 1e-6
    planted = dataclasses.replace(good, corrections=corrections)
    with pytest.raises(cases.CheckFailed):
        workload.check(0, planted)


def test_streamed_result_is_checked_against_from_views():
    workload = cases.OnlineRing(3, **TINY["online-ring64"])
    workload.setup()
    last = workload.pass_length - 1
    for i in range(last):
        workload.check(i, workload.op(i))
    final = workload.op(last)
    corrections = dict(final.corrections)
    victim = next(iter(corrections))
    corrections[victim] -= 1e-6
    planted = dataclasses.replace(final, corrections=corrections)
    with pytest.raises(cases.CheckFailed):
        workload.check(last, planted)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns(
        "out", "__pycache__", ".pytest_cache"
    ))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch-ring256",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
