"""`loclab` report bytes against the golden record of the benchmark.

Runs `cli.main` in-process and compares the exit code and the sha256 of
stdout with the entries of `bench/golden.json`, which is only read here:
`report` on the small fixtures, the calls of the benchmark that run
transporter code on the larger ones, and the `build` and `verify axioms`
calls, which run the group closures on S6, PSL(2,7) and S5.  Together
they are every key of the record.  A key is the call's arguments with the
fixture's name in place of its path.  The reports do not depend on
PYTHONHASHSEED, so the hashes hold in any test process.
"""

import hashlib
import json
import os

import pytest

from loclab import cli

ROOT = os.path.join(os.path.dirname(__file__), "..")
FIXTURE_DIRS = [os.path.join(ROOT, "fixtures"),
                os.path.join(ROOT, "bench", "fixtures")]

with open(os.path.join(ROOT, "bench", "golden.json")) as fh:
    GOLDEN = json.load(fh)


REPORT_NAMES = ["c2", "a4", "d8", "s4", "s4-broken"]
TRANSPORTER_KEYS = [
    "report a6pair",
    "verify transporter s4",
    "verify transporter d8",
    "verify exactseq s4",
    "verify exactseq d8",
    "verify exactseq psl27 --max-word-len 2",
]
BUILD_PATH_KEYS = sorted(k for k in GOLDEN
                         if k.startswith(("build ", "verify axioms ")))


def test_every_golden_key_is_checked():
    keys = ({f"report {n}" for n in REPORT_NAMES} | set(TRANSPORTER_KEYS)
            | set(BUILD_PATH_KEYS))
    assert len(BUILD_PATH_KEYS) == 13 and keys == set(GOLDEN)


@pytest.mark.parametrize("name", REPORT_NAMES)
def test_report_bytes_match_the_golden_record(name, capsys):
    code = cli.main(["report", os.path.join(ROOT, "fixtures", f"{name}.json")])
    out = capsys.readouterr().out
    expected = GOLDEN[f"report {name}"]
    assert code == expected["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == expected["sha256"]


def _argv(key):
    """The arguments of a golden key, with the fixture's path for its name."""
    args = key.split()
    at = 2 if args[0] == "verify" else 1
    paths = (os.path.join(d, f"{args[at]}.json") for d in FIXTURE_DIRS)
    args[at] = next(p for p in paths if os.path.exists(p))
    return args


@pytest.mark.parametrize("key", TRANSPORTER_KEYS)
def test_transporter_calls_match_the_golden_record(key, capsys):
    code = cli.main(_argv(key))
    out = capsys.readouterr().out
    assert code == GOLDEN[key]["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[key]["sha256"]


@pytest.mark.parametrize("key", BUILD_PATH_KEYS)
def test_build_path_calls_match_the_golden_record(key, capsys):
    code = cli.main(_argv(key))
    out = capsys.readouterr().out
    assert code == GOLDEN[key]["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[key]["sha256"]

