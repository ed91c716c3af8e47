"""Tiny runs of every workload: output checks pass, and a planted wrong
output fails them.  Traced runs cover every layer the workload should."""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from e2ebench import config, layers, ledger_ingest, serve_mixed, sign_bulk, \
    spans
from e2ebench.run import _per_layer
from repro.falcon.fft import HAVE_NUMPY

ROOT = Path(__file__).resolve().parents[2]

TINY = {
    "sign-bulk": dataclasses.replace(
        config.CONFIGS["sign-bulk"], n=64, sign_batches=6, verify_calls=3,
        setup_repeats=1),
    "serve-mixed": dataclasses.replace(
        config.CONFIGS["serve-mixed"], n=64, tenants=4, pool_per_tenant=2,
        open_requests=40, offered_rate=200.0, sign_requests=16,
        verify_requests=40, setup_repeats=1),
    "ledger-ingest": dataclasses.replace(
        config.CONFIGS["ledger-ingest"], n=64, keys=6, commits=4,
        readback=16, warm_records=4, setup_repeats=1),
}
RUNNERS = {"sign-bulk": sign_bulk.run, "serve-mixed": serve_mixed.run,
           "ledger-ingest": ledger_ingest.run}


def _run(workload, tracer=None, tmp_path=None):
    if workload == "ledger-ingest":
        return ledger_ingest.run(TINY[workload], 5, tracer, workdir=tmp_path)
    return RUNNERS[workload](TINY[workload], 5, tracer)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_tiny_run_passes_its_output_checks(workload, tmp_path):
    out = _run(workload, tmp_path=tmp_path)
    assert out.failures == []
    assert out.total_failed == 0 and out.total_attempted > 0
    assert set(out.metrics) == {
        "setup_s", "peak_rss_mb", "throughput_per_s", "latency_p50_ms",
        "latency_p90_ms", "verify_per_s", "verify_p50_ms", "verify_p90_ms"}
    assert all(value > 0 for value, _ in out.metrics.values())


def test_planted_forged_signature_fails_sign_bulk(monkeypatch):
    from repro.falcon import scheme

    original = scheme.SecretKey.sign_many

    def forge_one(self, messages, *args, **kwargs):
        signatures = original(self, messages, *args, **kwargs)
        first = signatures[0]
        signatures[0] = scheme.Signature(
            salt=bytes([first.salt[0] ^ 1]) + first.salt[1:],
            compressed=first.compressed)
        return signatures

    monkeypatch.setattr(scheme.SecretKey, "sign_many", forge_one)
    out = sign_bulk.run(TINY["sign-bulk"], 5)
    assert out.failed.get("sign", 0) >= TINY["sign-bulk"].sign_batches
    assert any("does not verify" in line for line in out.failures)


def test_planted_inverted_verdict_fails_serve_mixed(monkeypatch):
    from repro.falcon.serving import net

    original = net.NetClient.verify

    async def inverted(self, *args, **kwargs):
        return not await original(self, *args, **kwargs)

    monkeypatch.setattr(net.NetClient, "verify", inverted)
    out = serve_mixed.run(TINY["serve-mixed"], 5)
    cfg = TINY["serve-mixed"]
    assert out.failed.get("verify-capacity") == cfg.verify_requests


def test_planted_accepting_engine_fails_ledger_ingest(monkeypatch, tmp_path):
    from repro.falcon import batchverify, ledger

    def accept_all(items, **kwargs):
        report = batchverify.verify_batch_report(items, **kwargs)
        report.lanes = [batchverify.LaneVerdict(True, "ok")
                        for _ in report.lanes]
        report.verdicts = [True] * len(report.lanes)
        if report.s1_rows is not None:
            report.s1_rows = [row or [0] for row in report.s1_rows]
        return report

    monkeypatch.setattr(ledger, "verify_batch_report", accept_all)
    out = ledger_ingest.run(TINY["ledger-ingest"], 5, workdir=tmp_path)
    assert out.failed.get("ingest", 0) > 0
    assert any("rejected counts" in line or "commit" in line
               for line in out.failures)


needs_numpy = pytest.mark.skipif(
    not HAVE_NUMPY, reason="the sign layers' array spine needs NumPy")


@needs_numpy
@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_run_covers_its_layers_and_closes(workload, tmp_path):
    tracer = layers.install(spans.Tracer())
    tracer.enabled = True
    try:
        out = _run(workload, tracer, tmp_path)
    finally:
        tracer.uninstall()
    assert out.total_failed == 0
    values, problems = _per_layer(workload, out, tracer)
    assert problems == []
    assert set(values) == {metric.name for metric in layers.METRICS}
    assert values["trace.closure_gap_share"][0] <= layers.MAX_CLOSURE_GAP


@needs_numpy
def test_traced_run_with_untraced_work_in_a_timed_phase_fails(monkeypatch):
    import time

    def slow_clock():
        time.sleep(0.05)          # work no wrapper covers
        return time.perf_counter()

    monkeypatch.setattr(sign_bulk, "clock", slow_clock)
    tracer = layers.install(spans.Tracer())
    tracer.enabled = True
    try:
        out = sign_bulk.run(TINY["sign-bulk"], 5, tracer)
    finally:
        tracer.uninstall()
    values, problems = _per_layer("sign-bulk", out, tracer)
    assert values["trace.closure_gap_share"][0] > layers.MAX_CLOSURE_GAP
    assert any(line.startswith("trace.closure_gap_share")
               for line in problems)


def test_command_refuses_without_a_source_tree(tmp_path):
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "sign-bulk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout.strip() == ""
