"""Checks of the perf benchmark itself: ``python3 -m pytest perf``.

Kept outside the tier-1 ``testpaths``; every run here is a ``--smoke``
run (one pass at about 1/20 size), so the module takes a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from compare import verdict
from run import check

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
RUN = PERF_DIR / "run.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
PINS = json.loads((PERF_DIR / "expected.json").read_text(encoding="utf-8"))["pins"]


def _run(out: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--out", str(out), *args],
        stdout=subprocess.PIPE,
        text=True,
        timeout=170,
        check=False,
    )


def _records(out: Path, workload: str):
    return [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(out.glob(f"run_{workload}_*.json"))
    ]


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    out = tmp_path_factory.mktemp("untraced")
    return _run(out, "--trace", "0"), out


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    return _run(out, "--trace", "1"), out


def _assert_prints(proc, specs):
    assert proc.returncode == 0, proc.stdout
    for workload in BENCHMARK["workloads"]:
        section = proc.stdout.split(f"== {workload['name']}:", 1)[1].split("\n==")[0]
        for spec in specs:
            assert any(
                line.split()[:1] == [spec["name"]] and line.split()[-1] == spec["unit"]
                for line in section.splitlines()
            ), (workload["name"], spec["name"])


def test_untraced_prints_every_end_to_end_metric_with_unit(untraced):
    _assert_prints(untraced[0], BENCHMARK["end_to_end"])


def test_traced_prints_every_per_layer_metric_with_unit(traced):
    _assert_prints(traced[0], BENCHMARK["per_layer"])


def test_result_line_names_every_metric(untraced, traced):
    for proc, key in ((untraced[0], "end_to_end"), (traced[0], "per_layer")):
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for workload in BENCHMARK["workloads"]:
            for spec in BENCHMARK[key]:
                metric = result["metrics"][f"{workload['name']}.{spec['name']}"]
                assert metric["unit"] == spec["unit"]


@pytest.mark.parametrize("mode", ["untraced", "traced"])
def test_smoke_error_rate_is_zero(mode, request):
    proc, out = request.getfixturevalue(mode)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    for workload in BENCHMARK["workloads"]:
        (record,) = _records(out, workload["name"])
        assert record["error_rate"] == 0
        assert record["pin"] is not None, "smoke runs at seed 2024 are pinned"


def test_traced_pass_reproduces_untraced_digest(traced):
    _, out = traced
    for workload in BENCHMARK["workloads"]:
        (record,) = _records(out, workload["name"])
        untraced_pass, traced_pass = record["passes"]
        assert traced_pass.get("traced") and not untraced_pass.get("traced")
        for field in ("final_clock", "stats_sha256"):
            assert traced_pass[field] == untraced_pass[field]


def test_layer_shares_are_fractions(traced):
    _, out = traced
    for workload in BENCHMARK["workloads"]:
        (record,) = _records(out, workload["name"])
        metrics = record["metrics"]
        for name, metric in metrics.items():
            if name.endswith(".share"):
                assert 0.0 <= metric["value"] <= 1.0, (workload["name"], name)
        assert metrics["unattributed.share"]["value"] <= 0.1, workload["name"]


def test_traffic_digest_depends_on_seed_only(tmp_path):
    digests = {}
    for seed in ("2024", "7"):
        for attempt in range(2):
            out = tmp_path / f"{seed}-{attempt}"
            proc = _run(out, "--workload", "traffic", "--seed", seed, "--trace", "1")
            assert proc.returncode == 0, proc.stdout
            (record,) = _records(out, "traffic")
            for p in record["passes"]:
                digests.setdefault(seed, set()).add(p["stats_sha256"])
    assert digests["2024"] == {PINS["traffic/smoke/2024"]["stats_sha256"]}
    assert digests["7"] == {PINS["traffic/smoke/7"]["stats_sha256"]}
    assert digests["2024"] != digests["7"]


def test_fails_without_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        PERF_DIR,
        tmp_path / "perf",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    proc = subprocess.run(
        [
            sys.executable, "perf/run.py", "--workload", "traffic",
            "--seed", "1", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=170,
        check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_check_marks_passes_off_the_pin_or_the_majority():
    def passes(*clocks):
        return [{"final_clock": c, "stats_sha256": "d", "ops": 1} for c in clocks]

    unpinned = passes(5, 5, 6)
    check(unpinned, None)
    assert ["error" in p for p in unpinned] == [False, False, True]
    pinned = passes(5, 5, 6)
    check(pinned, {"final_clock": 6, "stats_sha256": "d"})
    assert ["error" in p for p in pinned] == [True, True, False]


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    assert verdict(parent, parent, "higher", 0.07) == "unchanged"
    assert verdict(parent, [v * 1.2 for v in parent], "higher", 0.07) == "improved"
    assert verdict(parent, [v * 0.8 for v in parent], "higher", 0.07) == "regressed"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert verdict(parent, noisy, "higher", 0.07) == "unresolved"
    assert verdict(parent, [v * 0.8 for v in parent], "lower", 0.25) == "improved"
