"""Per-layer spans and counters for loclab, installed from outside the program.

Run one CLI call under the tracer::

    python3 bench/tracer.py TRACE.json report fixtures/s4.json

The report goes to stdout exactly as ``python3 -m loclab.cli`` writes it;
the trace summary goes to TRACE.json.

Every public function of every ``loclab`` module is replaced by a wrapper
in each module namespace that bound it by name (``validate_locality`` is
bound in ``locality``, ``fixtures``, ``verify``, ``normal`` and
``transporter``), and in module-level dicts such as ``verify.SUITES``.
A wrapper records a span: name, parent span, start and end.  Spans stay in
memory until the call ends; a span's self time is its duration minus the
durations of its children.  Functions called millions of times
(``ChainPartialGroup.s_of_word`` and ``word_in_domain``, the permutation
primitives) and generator functions only count their calls.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LAYERS = ("perm", "groups", "partial", "locality", "fusion", "normal",
          "extension", "transporter", "verify", "fixtures", "reports", "cli")

# module-level functions too hot for a span: calls are counted only
COUNT_ONLY = {"perm.compose", "perm.invert", "perm.identity_perm",
              "perm.cycle_string", "perm.perm_to_cycles",
              "groups.conjugate_subgroup"}

# (layer, class, method, kind): methods wrapped on the class itself
METHODS = (
    ("locality", "ChainPartialGroup", "s_of_word", "count"),
    ("locality", "ChainPartialGroup", "word_in_domain", "hits"),
    ("fusion", "FusionSystem", "saturation_failures", "span"),
)


class Tracer:
    """Span store and counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one record per span: [name id, parent index, start, end]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._cells: dict[str, list] = {}
        self.k4_spans: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, fn, name: str, after=None):
        """Wrap fn in a span; after(idx, args, kwargs, result) runs on return."""
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [nid, stack[-1] if stack else -1, clock(), 0.0]
            spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if after is not None:
                after(idx, args, kwargs, result)
            return result
        return wrapper

    def _cell(self, key: str) -> list:
        return self._cells.setdefault(key, [0])

    def count(self, fn, name: str):
        cell = self._cell(name + ".calls")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def count_word(self, fn, name: str):
        """Count calls of a hot ``method(self, word)``."""
        cell = self._cell(name + ".calls")

        @functools.wraps(fn)
        def wrapper(obj, word):
            cell[0] += 1
            return fn(obj, word)
        return wrapper

    def count_word_hits(self, fn, name: str):
        """Count calls and truthy results (a domain test that accepts)."""
        calls = self._cell(name + ".calls")
        hits = self._cell(name + ".hits")

        @functools.wraps(fn)
        def wrapper(obj, word):
            calls[0] += 1
            if fn(obj, word):
                hits[0] += 1
                return True
            return False
        return wrapper

    def add(self, key: str, n: int) -> None:
        self._cell(key)[0] += n

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; plus counters and
        the time of k=4 ``validate_locality`` calls under transporter spans."""
        child = [0.0] * len(self.spans)
        for nid, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per: dict[str, dict] = {}
        for i, (nid, _, start, end) in enumerate(self.spans):
            row = per.setdefault(self.names[nid],
                                 {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        k4_in_transporter = 0.0
        for i in self.k4_spans:
            if self._under_layer(i, "transporter."):
                _, _, start, end = self.spans[i]
                k4_in_transporter += end - start
        return {"spans": per,
                "counts": {k: cell[0] for k, cell in self._cells.items()},
                "k4_in_transporter_s": k4_in_transporter}

    def _under_layer(self, i: int, prefix: str) -> bool:
        parent = self.spans[i][1]
        while parent >= 0:
            if self.names[self.spans[parent][0]].startswith(prefix):
                return True
            parent = self.spans[parent][1]
        return False


def _span_names(modules: dict) -> dict:
    """Span name per function object: ``layer.function``, except the
    verification suites, which are named ``verify.<suite>``."""
    names = {fn: f"verify.{suite}"
             for suite, fn in modules["verify"].SUITES.items()}
    for mod in modules.values():
        for attr, obj in vars(mod).items():
            if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                    and obj.__module__.startswith("loclab.")):
                layer = obj.__module__.split(".", 1)[1]
                names.setdefault(obj, f"{layer}.{obj.__name__}")
    return names


def install(tracer: Tracer) -> None:
    """Import loclab from the checkout and wrap its public functions."""
    sys.path.insert(0, str(ROOT / "src"))
    import loclab.cli  # noqa: F401  (imports every layer)
    modules = {layer: sys.modules[f"loclab.{layer}"] for layer in LAYERS}
    transporter_cls = modules["transporter"].TransporterSystem
    k_default = inspect.signature(
        modules["locality"].validate_locality).parameters["k"].default

    def after_validate(idx, args, kwargs, result):
        k = kwargs.get("k", args[1] if len(args) > 1 else k_default)
        if k == 4:
            tracer.add("locality.validate_locality.calls_k4", 1)
            tracer.k4_spans.append(idx)

    def after_completions(idx, args, kwargs, result):
        tracer.add("extension.hom_completions.results", len(result))

    def after_transporter(idx, args, kwargs, result):
        if isinstance(result, transporter_cls):
            tracer.add("transporter.morphisms", result.mor_count)

    hooks = {"locality.validate_locality": after_validate,
             "extension.hom_completions": after_completions}
    wrappers = {}
    for fn, name in _span_names(modules).items():
        if name in COUNT_ONLY or inspect.isgeneratorfunction(fn):
            wrappers[fn] = tracer.count(fn, name)
        elif name.startswith("transporter."):
            wrappers[fn] = tracer.span(fn, name, after_transporter)
        else:
            wrappers[fn] = tracer.span(fn, name, hooks.get(name))

    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
            elif isinstance(obj, dict):
                for key, val in list(obj.items()):
                    if isinstance(val, types.FunctionType) and val in wrappers:
                        obj[key] = wrappers[val]

    wrap_method = {"count": tracer.count_word, "hits": tracer.count_word_hits,
                   "span": tracer.span}
    for layer, cls_name, meth, kind in METHODS:
        cls = getattr(modules[layer], cls_name)
        setattr(cls, meth,
                wrap_method[kind](getattr(cls, meth), f"{layer}.{meth}"))


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py TRACE.json <loclab arguments...>",
              file=sys.stderr)
        return 2
    out_path, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    install(tracer)
    cli = sys.modules["loclab.cli"]
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        out_path.write_text(json.dumps(tracer.summary()), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
