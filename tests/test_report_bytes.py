"""`loclab report` bytes against the golden record of the benchmark.

Runs `cli.main(["report", fixture])` in-process on the small fixtures and
compares the exit code and the sha256 of stdout with the "report <name>"
entries of `bench/golden.json`, which is only read here.  The reports do
not depend on PYTHONHASHSEED, so the hashes hold in any test process.
"""

import hashlib
import json
import os

import pytest

from loclab import cli

ROOT = os.path.join(os.path.dirname(__file__), "..")

with open(os.path.join(ROOT, "bench", "golden.json")) as fh:
    GOLDEN = json.load(fh)


@pytest.mark.parametrize("name", ["c2", "a4", "d8", "s4", "s4-broken"])
def test_report_bytes_match_the_golden_record(name, capsys):
    code = cli.main(["report", os.path.join(ROOT, "fixtures", f"{name}.json")])
    out = capsys.readouterr().out
    expected = GOLDEN[f"report {name}"]
    assert code == expected["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == expected["sha256"]
