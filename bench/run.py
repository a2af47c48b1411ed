"""Benchmark of the loclab CLI, driven from outside the program.

    python3 bench/run.py --workload desk --seed 0 --seconds 12 --trace 0

Calls ``python3 -m loclab.cli`` as one subprocess at a time, checks each
call's exit code and report against ``golden.json``, and prints one JSON
object as the last line of stdout.

``--trace 0`` (end-to-end): set-up rounds of ``loclab build`` on each
fixture of the workload (at least three rounds and four seconds; the median
round is ``setup_s``), then timed passes over the workload's calls until
``--seconds`` have passed (at least one).  Reports the median over passes
of ``wall_s``, ``cpu_s`` (user+sys from the child rusage) and
``peak_rss_mb`` (largest max-RSS of any call in the pass).

``--trace 1`` (per layer): one untraced pass, then traced passes through
``tracer.py`` until ``--seconds`` have passed, and reports per-layer self
times and counters.  Traced reports must equal the untraced ones byte for
byte.

``--workload all`` runs every workload in turn and prints one summary line
per workload on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import golden
from tracer import LAYERS
from workloads import ROOT, WORKLOADS, Call, child_env, materialize

BENCH_DIR = Path(__file__).resolve().parent
TRACER = BENCH_DIR / "tracer.py"
# set-up rounds: at least this many, and until this much time has passed
SETUP_ROUNDS = 3
SETUP_SECONDS = 4.0
IMPORT_ROUNDS = 5
CALL_TIMEOUT_S = 150

# per-layer metrics: self time of these spans, in seconds
SELF_TIME = (
    "perm.closure", "groups.parse_group", "groups.sylow_p",
    "groups.subgroup_lattice", "locality.locality_from_group",
    "locality.restriction", "fixtures.build_fixture",
    "locality.validate_locality", "partial.validate_partial_group",
    "partial.check_cancellation", "fusion.fusion_from_group",
    "fusion.fusion_from_locality", "fusion.saturation_failures",
    "normal.enumerate_partial_normal", "normal.verify_normal_correspondence",
    "normal.quotient", "extension.hom_completions",
    "extension.locality_automorphisms", "extension.aut_restriction_report",
    "transporter.transporter_of_locality",
    "transporter.locality_of_transporter", "transporter.aut_transporter",
    "transporter.out_typ", "transporter.linking_system_report",
    "transporter.transporter_defect", "verify.axioms", "verify.locality",
    "verify.fusion", "verify.theoremA1", "verify.theoremC",
    "verify.transporter", "verify.exactseq", "reports.render",
)
# span call counts
SPAN_CALLS = ("locality.validate_locality", "normal.quotient",
              "extension.hom_completions")
# tracer counters
COUNTERS = ("locality.validate_locality.calls_k4", "locality.s_of_word.calls",
            "locality.word_in_domain.calls",
            "extension.hom_completions.results", "transporter.morphisms")


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, a broken harness)."""


@dataclass
class CallResult:
    key: str
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float
    error: str | None = None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, result: CallResult, seed: int, expected: dict) -> None:
        self.attempted += 1
        why = result.error
        if why is None:
            why = golden.mismatch(expected, result.code, result.stdout)
        if why is not None:
            self.failed += 1
            tail = result.stderr.decode(errors="replace").strip()[-400:]
            self.messages.append(f"FAIL {result.key}: {why}\n{tail}")
        elif seed == 0:
            sha = hashlib.sha256(result.stdout).hexdigest()
            if sha != expected["sha256"]:
                self.messages.append(f"report sha256 changed for "
                                     f"{result.key}: {sha}")


def run_child(key: str, argv: list[str]) -> CallResult:
    """Run one child to completion; wall time, rusage, exit code, output.
    The child is reaped with ``os.wait4`` so its own rusage is read."""
    timed_out = threading.Event()
    errs: list[bytes] = []
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)

    def kill():
        timed_out.set()
        proc.kill()

    timer = threading.Timer(CALL_TIMEOUT_S, kill)
    drain = threading.Thread(target=lambda: errs.append(proc.stderr.read()))
    timer.start()
    drain.start()
    try:
        out = proc.stdout.read()
        drain.join()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code  # reaped by wait4 above
    error = None
    if timed_out.is_set():
        error = f"timed out after {CALL_TIMEOUT_S} s"
    elif code < 0:
        error = f"killed by signal {-code}"
    return CallResult(key, code, out, b"".join(errs), wall,
                      usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, error)


class Bench:
    def __init__(self, workload: str, seed: int, work_dir: Path):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.work_dir = work_dir
        self.golden = golden.load()
        keys = {c.fixture for c in self.workload.calls}
        self.paths = materialize(keys, seed, work_dir)
        self.tally = Tally()

    def cli(self, call: Call) -> CallResult:
        result = run_child(call.key,
                           ["-m", "loclab.cli", *call.argv(self.paths)])
        self.tally.record(result, self.seed, self.golden[call.key])
        return result

    def traced(self, call: Call, trace_path: Path) -> CallResult:
        result = run_child(call.key, [str(TRACER), str(trace_path),
                                      *call.argv(self.paths)])
        self.tally.record(result, self.seed, self.golden[call.key])
        return result

    def import_wall(self) -> float:
        """Wall seconds of interpreter start plus ``import loclab.cli``;
        raise if the import fails."""
        result = run_child("import loclab.cli", ["-c", "import loclab.cli"])
        if result.code != 0:
            detail = result.stderr.decode(errors="replace")
            raise BenchError(f"cannot import loclab.cli:\n{detail}")
        return result.wall_s

    def warm_up(self) -> None:
        """Compile bytecode, so that no timed call pays for it even when the
        environment sets PYTHONDONTWRITEBYTECODE, and check the import."""
        run_child("compileall", ["-m", "compileall", "-q",
                                 str(ROOT / "src" / "loclab")])
        self.import_wall()

    def setup_round(self) -> float:
        return sum(self.cli(c).wall_s for c in self.workload.setup_calls())

    def run_pass(self) -> list[CallResult]:
        return [self.cli(c) for c in self.workload.calls]

    def end_to_end(self, seconds: float) -> dict:
        self.warm_up()
        setup = []
        t0 = time.perf_counter()
        while (len(setup) < SETUP_ROUNDS
               or time.perf_counter() - t0 < SETUP_SECONDS):
            setup.append(self.setup_round())
        passes = []
        t0 = time.perf_counter()
        while not passes or time.perf_counter() - t0 < seconds:
            passes.append(self.run_pass())
        return {
            "wall_s": (statistics.median(sum(r.wall_s for r in p)
                                         for p in passes), "s"),
            "cpu_s": (statistics.median(sum(r.cpu_s for r in p)
                                        for p in passes), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (statistics.median(max(r.rss_mb for r in p)
                                              for p in passes), "MB"),
        }

    def per_layer(self, seconds: float) -> dict:
        self.warm_up()
        imports = [self.import_wall() for _ in range(IMPORT_ROUNDS)]
        plain = self.run_pass()
        plain_wall = sum(r.wall_s for r in plain)
        plain_sha = {r.key: hashlib.sha256(r.stdout).digest()
                     for r in plain}
        traced_passes = []
        t0 = time.perf_counter()
        while not traced_passes or time.perf_counter() - t0 < seconds:
            summaries, wall = [], 0.0
            for i, call in enumerate(self.workload.calls):
                trace_path = self.work_dir / f"trace-{i}.json"
                trace_path.unlink(missing_ok=True)
                result = self.traced(call, trace_path)
                wall += result.wall_s
                if hashlib.sha256(result.stdout).digest() != plain_sha[call.key]:
                    self.tally.failed += 1
                    self.tally.messages.append(
                        f"FAIL {call.key}: traced report differs from untraced")
                if not trace_path.is_file():
                    raise BenchError(f"{call.key}: the traced call wrote no "
                                     f"trace (exit {result.code})")
                summaries.append(json.loads(trace_path.read_text()))
            traced_passes.append((wall, summaries))
        metrics = _layer_metrics([s for _, s in traced_passes],
                                 [w for w, _ in traced_passes], plain)
        metrics["cli.import.s"] = (statistics.median(imports), "s")
        metrics["trace.overhead_s"] = (
            statistics.median(w for w, _ in traced_passes) - plain_wall, "s")
        return metrics


def _layer_metrics(passes: list[list[dict]], walls: list[float],
                   plain: list[CallResult]) -> dict:
    """Per-layer metrics: medians over traced passes of the per-pass sums."""
    def per_pass(fn):
        return statistics.median(fn(summaries) for summaries in passes)

    def span_sum(summaries, name, key):
        return sum(s["spans"].get(name, {}).get(key, 0) for s in summaries)

    def count_sum(summaries, name):
        return sum(s["counts"].get(name, 0) for s in summaries)

    out = {}
    for name in SELF_TIME:
        out[f"{name}.s"] = (per_pass(lambda ss: span_sum(ss, name, "self_s")),
                            "s")
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = (per_pass(lambda ss: sum(
            row["self_s"] for s in ss for n, row in s["spans"].items()
            if n.startswith(layer + "."))), "s")
    first = passes[0]
    for name in SPAN_CALLS:
        out[f"{name}.calls"] = (span_sum(first, name, "calls"), "count")
    for name in COUNTERS:
        out[name] = (count_sum(first, name), "count")
    tests = count_sum(first, "locality.word_in_domain.calls")
    hits = count_sum(first, "locality.word_in_domain.hits")
    out["locality.word_in_domain.hit_ratio"] = (
        hits / tests if tests else 0.0, "ratio")
    k4 = [sum(s["k4_in_transporter_s"] for s in ss) for ss in passes]
    out["locality.validate_locality.k4_in_transporter.s"] = (
        statistics.median(k4), "s")
    out["locality.validate_locality.k4_in_transporter.share"] = (
        statistics.median(k / w for k, w in zip(k4, walls)), "share")
    out["verify.notes"] = (sum(_skip_notes(r.stdout) for r in plain), "count")
    return out


def _skip_notes(report: bytes) -> int:
    """Notes that say a check was shortened or skipped."""
    try:
        doc = json.loads(report)
    except ValueError:
        return 0
    return sum(1 for s in doc.get("sections", ())
               for note in s.get("notes", ())
               if "shortened" in note or "skipped" in note)


def _result(tally: Tally, metrics: dict) -> dict:
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 work_root: Path) -> dict:
    work_dir = work_root / f"{os.getpid()}-{name}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(name, seed, work_dir)
        metrics = (bench.per_layer(seconds) if trace
                   else bench.end_to_end(seconds))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for line in bench.tally.messages:
        print(line, file=sys.stderr)
    result = _result(bench.tally, metrics)
    fail_share = bench.tally.failed / bench.tally.attempted
    if trace:
        shown = f"{len(metrics)} per-layer metrics"
    else:
        shown = "  ".join(f"{k} {v:.4g} {unit}"
                          for k, (v, unit) in metrics.items())
    print(f"{name}: {shown}  fail_share {fail_share:.4g} share "
          f"({bench.tally.failed}/{bench.tally.attempted} calls)",
          file=sys.stderr)
    return result


def _check_checkout() -> None:
    if not (ROOT / "src" / "loclab" / "cli.py").is_file():
        raise BenchError(f"no loclab sources under {ROOT / 'src'}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work_root = ROOT / ".bench_work"
    try:
        _check_checkout()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace),
                                work_root) for n in names]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()
    for result in results:
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
