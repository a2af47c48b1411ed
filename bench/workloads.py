"""Workloads of the loclab benchmark and the seeded fixture relabelling.

A workload is a list of CLI calls (``Call``).  Each call names one fixture
by key; ``materialize`` turns the keys into fixture files for one seed.
Seed 0 uses the files as shipped.  Any other seed relabels the points of
every named-recipe fixture by a seeded permutation, which replaces the
group by a conjugate copy: every count in the report stays the same, only
the labels move.  Fixtures whose object data is explicit (``explicit`` and
``up-closure`` modes) are always used as shipped, because that data is
written relative to the Sylow subgroup the program happens to pick.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

FIXTURES = {
    "c2": ROOT / "fixtures" / "c2.json",
    "a4": ROOT / "fixtures" / "a4.json",
    "d8": ROOT / "fixtures" / "d8.json",
    "s4": ROOT / "fixtures" / "s4.json",
    "s4-broken": ROOT / "fixtures" / "s4-broken.json",
    "s5": ROOT / "fixtures" / "s5.json",
    "psl27": BENCH_DIR / "fixtures" / "psl27.json",
    "s6": BENCH_DIR / "fixtures" / "s6.json",
    "a6pair": BENCH_DIR / "fixtures" / "a6pair.json",
}


@dataclass(frozen=True)
class Call:
    """One CLI call: ``loclab <verb...> <fixture> <flags...>``."""
    verb: tuple[str, ...]
    fixture: str
    flags: tuple[str, ...] = ()

    @property
    def key(self) -> str:
        """Stable name of the call, used as the golden-record key."""
        return " ".join(self.verb + (self.fixture,) + self.flags)

    def argv(self, paths: dict[str, Path]) -> list[str]:
        return [*self.verb, str(paths[self.fixture]), *self.flags]

    def setup(self) -> "Call":
        """The ``build`` call on the same fixture with the same flags."""
        return Call(("build",), self.fixture, self.flags)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: tuple[Call, ...]

    def setup_calls(self) -> tuple[Call, ...]:
        return tuple(dict.fromkeys(c.setup() for c in self.calls))


def _report(fixture: str) -> Call:
    return Call(("report",), fixture)


def _verify(suite: str, fixture: str, *flags: str) -> Call:
    return Call(("verify", suite), fixture, flags)


WORKLOADS = {w.name: w for w in (
    Workload(
        "desk",
        "report on every small fixture and the A6 pair: fixed costs, "
        "every suite and enumeration, and the reject path",
        tuple(_report(f) for f in
              ("c2", "a4", "d8", "s4", "s4-broken", "a6pair"))),
    Workload(
        "bridge",
        "transporter and exactseq suites, where the transporter-to-locality "
        "bridge re-validates at word length 4 whatever the flag says",
        (_verify("exactseq", "psl27", "--max-word-len", "2"),
         *(_verify(s, f) for f in ("s4", "d8")
           for s in ("transporter", "exactseq")))),
    Workload(
        "scan",
        "axioms suite on the larger groups: partial-group word scans with "
        "no transporter code",
        (_verify("axioms", "psl27"), _verify("axioms", "s5"),
         _verify("axioms", "s6", "--max-word-len", "2"))),
)}


def all_calls() -> dict[str, Call]:
    """Every call any workload makes, set-up builds included, by key."""
    return {c.key: c for w in WORKLOADS.values()
            for c in w.setup_calls() + w.calls}


def child_env() -> dict:
    """Environment of a CLI child: the checkout's sources, fixed hashing."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


def relabel_doc(doc: dict, seed: int) -> dict:
    """The fixture document with its points renamed by a seeded
    permutation of 1..degree (named-recipe fixtures only)."""
    degree = doc["group"]["degree"]
    images = list(range(1, degree + 1))
    random.Random(seed).shuffle(images)
    sigma = dict(zip(range(1, degree + 1), images))
    out = json.loads(json.dumps(doc))
    out["group"]["generators"] = [
        [[sigma[x] for x in cycle] for cycle in gen]
        for gen in doc["group"]["generators"]]
    return out


def is_named_recipe(doc: dict) -> bool:
    specs = ([doc["objects"]] if "objects" in doc
             else [e["objects"] for e in doc["localities"].values()])
    return all(s["mode"] == "named" for s in specs)


def materialize(keys, seed: int, work_dir: Path) -> dict[str, Path]:
    """Fixture file per key for this seed.  Relabelled files keep the
    shipped basename, because the report title is taken from it."""
    paths = {}
    for key in keys:
        src = FIXTURES[key]
        doc = json.loads(src.read_text(encoding="utf-8"))
        if seed == 0 or not is_named_recipe(doc):
            paths[key] = src
            continue
        dst = work_dir / f"seed-{seed}" / src.name
        dst.parent.mkdir(parents=True, exist_ok=True)
        dst.write_text(json.dumps(relabel_doc(doc, seed), indent=1) + "\n",
                       encoding="utf-8")
        paths[key] = dst
    return paths
