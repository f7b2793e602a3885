"""Self-test of the PARK benchmark at smoke sizes.

    PYTHONPATH=src python -m pytest -q benchmarks/park
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.engine import park

import run
import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = run.load_spec()
COMMIT = ("commit-stream", "commit-batch-audit")
ONESHOT = ("oneshot-closure", "oneshot-repair")


def _run(*args, root=ROOT):
    command = [sys.executable, str(root / "benchmarks" / "park" / "run.py")]
    return subprocess.run(
        command + list(args), cwd=root, capture_output=True, text=True, timeout=120
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("park") / "smoke.json"
    done = _run("--smoke", "--trace", "--seed", "5", "--out", str(out))
    assert done.returncode == 0, done.stderr
    with open(out, encoding="utf-8") as handle:
        return out, json.load(handle)


@pytest.mark.parametrize("lanes,depth,seed", [(20, 24, 1), (20, 24, 7), (3, 10, 2)])
def test_ic_repair_restarts_half_the_depth(lanes, depth, seed):
    stats = park(*workloads.ic_repair(seed, lanes, depth)).stats
    assert stats.restarts == depth // 2
    assert stats.conflicts_resolved == lanes * depth // 2


def test_seeds_relabel_without_changing_work():
    for generator in (workloads.closure, workloads.ic_repair):
        first, second = (park(*generator(seed)).stats for seed in (1, 2))
        assert generator(1) != generator(2)
        assert first == second


def test_tail_is_highest_percentile_with_enough_beyond():
    assert run.tail(range(1, 3001))[:2] == (99, 2970)
    assert run.tail(range(1, 1001))[:2] == (95, 950)
    assert run.tail(range(1, 101)) == (75, 75, 25)
    assert run.tail([5.0]) == (50, 5.0, 0)


def test_every_metric_present_with_its_unit(smoke):
    _, report = smoke
    assert report["correct"] and report["failed"] == 0
    for name in (w["name"] for w in SPEC["workloads"]):
        entry = report["workloads"][name]
        for metric in SPEC["end_to_end"] + [run.FAILED_RATIO]:
            assert entry["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert entry["metrics"]["failed_ratio"]["value"] == 0
        assert {m["name"] for m in SPEC["per_layer"]} <= set(entry["per_layer"])


def test_trace_covers_op_wall_time(smoke):
    out, report = smoke
    for name, entry in report["workloads"].items():
        assert entry["per_layer"]["trace.coverage"] >= 0.90, name
    with open(str(out) + ".ledger.json", encoding="utf-8") as handle:
        spans = json.load(handle)["workloads"]
    assert set(spans) == set(report["workloads"])


def test_bypassed_layers_do_no_work(smoke):
    _, report = smoke
    layers = {name: entry["per_layer"] for name, entry in report["workloads"].items()}
    for name in ONESHOT:
        assert layers[name]["active.journal.calls_per_op"] == 0
        assert layers[name]["storage.fsio.calls_per_op"] == 0
    for name in COMMIT:
        assert layers[name]["lang.parse.calls_per_op"] == 0
        assert layers[name]["storage.fsio.fsyncs_per_op"] == 1
    assert layers["oneshot-closure"]["core.restart.restarts_per_op"] == 0
    assert layers["oneshot-closure"]["core.gamma.restart_waste_ratio"] == 0
    assert layers["oneshot-repair"]["core.gamma.restart_waste_ratio"] > 0.5


def test_corrupted_reference_fails(tmp_path):
    out = tmp_path / "corrupt.json"
    done = _run("--smoke", "--seed", "5", "--corrupt-reference", "--out", str(out))
    assert done.returncode != 0
    with open(out, encoding="utf-8") as handle:
        report = json.load(handle)
    assert not report["correct"]
    for entry in report["workloads"].values():
        assert entry["metrics"]["failed_ratio"]["value"] > 0


def test_compare_agrees_with_itself_only(smoke, tmp_path):
    out, report = smoke
    assert _run("--compare", str(out), str(out)).returncode == 0
    entry = report["workloads"]["oneshot-closure"]["metrics"]["latency_p50_ms"]
    entry["value"] *= 2
    slower = tmp_path / "slower.json"
    slower.write_text(json.dumps(report))
    done = _run("--compare", str(out), str(slower))
    assert done.returncode == 1
    assert "OUTSIDE" in done.stdout


def test_refuses_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "commit-stream", "--seed", "1", root=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
