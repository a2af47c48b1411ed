"""Golden record of every benchmark call, and the check against it.

For each call key (see ``workloads.Call.key``) ``golden.json`` holds the
expected exit code, the per-section counts of checks passed, checks
failed, listed items and notes, and the sha256 of the report bytes at
seed 0.  Counts do not depend on the seed; the sha256 does, so it is only
compared at seed 0, and a mismatch is printed rather than failed, so a
behaviour change shows without stopping the benchmark.

Regenerate (after a change in behaviour that is explained)::

    python3 bench/golden.py
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from workloads import FIXTURES, ROOT, all_calls, child_env

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def section_counts(report: bytes) -> list[list]:
    """[name, passed, failed, items, notes] for each report section."""
    doc = json.loads(report)
    return [[s["name"],
             sum(1 for c in s["checks"] if c["ok"]),
             sum(1 for c in s["checks"] if not c["ok"]),
             len(s.get("items", ())),
             len(s.get("notes", ()))]
            for s in doc["sections"]]


def summarize(code: int, report: bytes) -> dict:
    return {"exit": code, "sections": section_counts(report),
            "sha256": hashlib.sha256(report).hexdigest()}


def mismatch(expected: dict, code: int, report: bytes) -> str | None:
    """Why a call's result does not match its golden entry, or None."""
    if code != expected["exit"]:
        return f"exit {code}, expected {expected['exit']}"
    try:
        counts = section_counts(report)
    except (ValueError, KeyError, TypeError) as exc:
        return f"report does not parse: {exc}"
    if counts != expected["sections"]:
        return f"section counts {counts}, expected {expected['sections']}"
    return None


def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def main() -> int:
    record = {}
    for key, call in sorted(all_calls().items()):
        proc = subprocess.run(
            [sys.executable, "-m", "loclab.cli", *call.argv(FIXTURES)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, check=False)
        record[key] = summarize(proc.returncode, proc.stdout)
        print(key, record[key]["exit"], file=sys.stderr)
    GOLDEN_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
