"""The seeded relabelling changes labels only: per-section counts and exit
codes match the golden record at seed 0 and at other seeds."""

import json
import subprocess
import sys

import pytest

import golden
from workloads import (FIXTURES, ROOT, all_calls, child_env, is_named_recipe,
                       materialize, relabel_doc)

QUICK = ("report c2", "report a4", "report d8", "report s4",
         "report s4-broken", "build a6pair", "build psl27 --max-word-len 2",
         "verify exactseq s4", "verify axioms s6 --max-word-len 2")


def _run(call, paths):
    proc = subprocess.run([sys.executable, "-m", "loclab.cli",
                           *call.argv(paths)], cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          check=False)
    return proc.returncode, proc.stdout


def test_golden_covers_every_call():
    assert set(golden.load()) == set(all_calls())


@pytest.mark.parametrize("seed", [0, 7])
def test_counts_match_golden(seed, tmp_path):
    record, calls = golden.load(), all_calls()
    paths = materialize({calls[k].fixture for k in QUICK}, seed, tmp_path)
    for key in QUICK:
        code, out = _run(calls[key], paths)
        assert golden.mismatch(record[key], code, out) is None, key
        if seed == 0:
            assert golden.summarize(code, out)["sha256"] == record[key]["sha256"]


def test_relabel_is_a_point_permutation():
    doc = json.loads(FIXTURES["psl27"].read_text())
    moved = relabel_doc(doc, 7)
    assert moved["group"]["degree"] == doc["group"]["degree"]
    assert moved["group"]["generators"] != doc["group"]["generators"]
    shapes = [[len(c) for c in g] for g in doc["group"]["generators"]]
    assert [[len(c) for c in g] for g in moved["group"]["generators"]] == shapes
    assert relabel_doc(doc, 7) == moved


def test_explicit_fixtures_stay_as_shipped(tmp_path):
    for key in ("s4-broken", "s5"):
        assert not is_named_recipe(json.loads(FIXTURES[key].read_text()))
    paths = materialize(["s5", "a4"], 9, tmp_path)
    assert paths["s5"] == FIXTURES["s5"]
    assert paths["a4"] != FIXTURES["a4"]
    assert paths["a4"].name == FIXTURES["a4"].name
