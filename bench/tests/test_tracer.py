"""The traced run changes nothing in the report and attributes time to
the right spans."""

import json
import subprocess
import sys

from workloads import FIXTURES, ROOT, child_env

TRACER = ROOT / "bench" / "tracer.py"


def _plain(*args):
    return subprocess.run([sys.executable, "-m", "loclab.cli", *args],
                          cwd=ROOT, env=child_env(), capture_output=True,
                          check=False)


def _traced(tmp_path, *args):
    trace = tmp_path / "trace.json"
    proc = subprocess.run([sys.executable, str(TRACER), str(trace), *args],
                          cwd=ROOT, env=child_env(), capture_output=True,
                          check=False)
    return proc, json.loads(trace.read_text())


def test_traced_report_bytes_are_identical(tmp_path):
    for key in ("s4", "a4", "s4-broken"):
        args = ("report", str(FIXTURES[key]))
        plain = _plain(*args)
        traced, _ = _traced(tmp_path, *args)
        assert traced.returncode == plain.returncode
        assert traced.stdout == plain.stdout


def test_bridge_validation_is_under_transporter_spans(tmp_path):
    proc, trace = _traced(tmp_path, "verify", "transporter",
                          str(FIXTURES["s4"]))
    assert proc.returncode == 0
    spans, counts = trace["spans"], trace["counts"]
    assert spans["verify.transporter"]["calls"] == 1
    assert spans["transporter.locality_of_transporter"]["calls"] >= 1
    assert counts["locality.validate_locality.calls_k4"] >= 1
    assert trace["k4_in_transporter_s"] > 0
    for row in spans.values():
        assert row["self_s"] <= row["total_s"] + 1e-9


def test_scan_has_no_transporter_spans(tmp_path):
    proc, trace = _traced(tmp_path, "verify", "axioms", str(FIXTURES["a4"]))
    assert proc.returncode == 0
    assert not any(n.startswith("transporter.") for n in trace["spans"])
    assert trace["k4_in_transporter_s"] == 0
    assert trace["counts"]["locality.word_in_domain.calls"] > 0
    assert "partial.validate_partial_group" in trace["spans"]
