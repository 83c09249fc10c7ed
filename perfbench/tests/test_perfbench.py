"""Tests of the benchmark itself: small runs, span arithmetic, checks."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import spans as S  # noqa: E402
import workloads  # noqa: E402
from harness import Checks  # noqa: E402
from repro.service import ServiceClient  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def one_episode(monkeypatch):
    for cls in (workloads.Workload, workloads.FrequencyBulk,
                workloads.HmDevices, workloads.DurableRounds):
        monkeypatch.setattr(cls, "episodes", 1)
    monkeypatch.setattr(run, "TRACED_EPISODES", 1)


# ----------------------------------------------------------------------
# A small run of every workload
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_small_run_passes_checks_and_reports_every_metric(
    name, tmp_path, one_episode
):
    checks = Checks()
    metrics = run.end_to_end(run.build(name, 5, 0.2, tmp_path), tmp_path,
                             checks)
    assert checks.failed == 0, checks.failures
    assert checks.attempted > 0
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        value, unit = metrics[metric["name"]]
        assert unit == metric["unit"]
        assert value > 0


@pytest.mark.parametrize("name", ["oue-bulk", "durable-rounds"])
def test_small_traced_run_reports_every_layer(name, tmp_path, one_episode):
    checks = Checks()
    metrics = run.per_layer(run.build(name, 6, 0.2, tmp_path), tmp_path,
                            checks)
    assert checks.failed == 0, checks.failures
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert metrics[metric["name"]][1] == metric["unit"]
    assert metrics["campaigns.ledger.charge_ms"][0] > 0
    assert abs(metrics["trace.unattributed_share"][0]) <= 0.10


def test_cli_prints_result_last(tmp_path, one_episode, capsys):
    code = run.main(["--workload", "hm-devices", "--seed", "7",
                     "--seconds", "0.2", "--trace", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert json.loads(lines[-2])["provenance"]["cpu_count"] >= 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oue-bulk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ----------------------------------------------------------------------
# Self-time arithmetic on a synthetic span tree
# ----------------------------------------------------------------------
def _span(name, start, end, parent=None, key=None, nbytes=None):
    return [name, start, end, parent, key, nbytes]


def test_self_times_subtract_children_across_processes():
    client = [
        _span("service.client.request", 0.0, 10.0, key="a"),   # 0
        _span("service.wire.pack", 0.5, 1.5, parent=0, key="a"),
        _span("service.client.request", 2.0, 12.0, key="b"),   # 2
    ]
    server = [
        _span("service.wire.unpack", 3.0, 3.5, key="a"),  # inside both
        _span("service.server.checkpoint", 4.0, 8.0, key="a"),
        _span("service.store.save", 5.0, 7.0, parent=1),
        _span("service.wire.unpack", 2.5, 2.8, key="stale"),  # only b
        _span("service.store.load", 20.0, 21.0),  # boot: no window
    ]
    merged = S.join(client, server, ("service.client.request",))
    assert [s[S.PARENT] for s in merged] == [None, 0, None, 0, 0, 4, 2,
                                             None]
    own = S.self_times(merged)
    # request a: 10 - pack 1 - unpack 0.5 - checkpoint 4 = 4.5
    assert own[0] == pytest.approx(4.5)
    assert own[4] == pytest.approx(2.0)  # checkpoint minus save
    assert own[2] == pytest.approx(10.0 - 0.3)
    totals = S.layer_self_totals(merged, [(0.0, 12.0)])
    assert "service.store.load" not in totals
    # Self times of one tree telescope to the root's duration.
    assert sum(totals.values()) == pytest.approx(10.0 + 10.0)


def test_recorder_nests_and_propagates_keys():
    recorder = S.SpanRecorder()
    outer = recorder.open("outer")
    inner = recorder.open("inner")
    recorder.set_key("k1")
    recorder.close(inner)
    later = recorder.open("later")
    recorder.close(later)
    recorder.close(outer)
    spans = recorder.spans
    assert spans[inner][S.PARENT] == outer
    assert spans[outer][S.KEY] == "k1" and spans[later][S.KEY] == "k1"
    assert all(s[S.END] >= s[S.START] for s in spans)


def test_install_wraps_and_restores():
    import repro.service.wire as wire

    original = wire.reports_to_columns
    recorder = S.SpanRecorder()
    undo = S.install(recorder, [("repro.service.wire:reports_to_columns",
                                 "service.wire.pack", None)])
    try:
        wire.reports_to_columns(np.zeros(3, dtype=np.int64))
    finally:
        undo()
    assert wire.reports_to_columns is original
    assert [s[S.NAME] for s in recorder.spans] == ["service.wire.pack"]


# ----------------------------------------------------------------------
# An injected wrong estimate fails the run
# ----------------------------------------------------------------------
def test_wrong_estimate_fails_the_check(tmp_path, one_episode, monkeypatch):
    real = ServiceClient.estimate

    def off_by_one_ulp(self, *args, **kwargs):
        value = np.array(real(self, *args, **kwargs), dtype=float)
        value[0] = np.nextafter(value[0], np.inf)
        return value

    monkeypatch.setattr(ServiceClient, "estimate", off_by_one_ulp)
    checks = Checks()
    run.end_to_end(run.build("oue-bulk", 8, 0.1, tmp_path), tmp_path, checks)
    assert checks.failed >= 1
    assert any("reference" in f for f in checks.failures)
