"""Spans around calls into the program's modules, recorded from outside it.

Each public function is wrapped at the name where the program looks it up:
a module attribute that callers read at call time, or a method on the class
that defines it. Spans live in compact arrays (name, parent span, op, start,
end, boolean outcome) until the run ends; self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

ROOT = "cli.main"  # the span around one whole op


def _subclasses(cls) -> list[type]:
    found, todo = [], [cls]
    while todo:
        c = todo.pop()
        found.append(c)
        todo.extend(c.__subclasses__())
    return found


def targets(modules: dict) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every traced boundary."""
    cli, setfn, matroid = modules["cli"], modules["setfn"], modules["matroid"]
    search, diag, metric = modules["search"], modules["diag"], modules["metric"]
    found = [
        (cli, "main", ROOT),
        (cli, "load_instance", "cli.load_instance"),
        (cli, "parse_instance", "cli.parse_instance"),
        (cli, "emit", "cli.emit"),
        (cli, "solve", "search.solve"),
        (search, "best_pair_init", "search.best_pair_init"),
        (search, "local_search", "search.local_search"),
        (search, "matching_step", "search.matching_step"),
        (search, "max_weight_matching_k", "matching.max_weight_matching_k"),
        (diag.ExactTables, "__init__", "diag.ExactTables"),
    ]
    found += [(diag, name, f"diag.{name}") for name in
              ("gamma_parameter", "classify", "check_discrete_integral", "verify_lemmas")]
    found += [(metric, name, f"metric.{name}") for name in
              ("validate_distance", "semi_metric_parameter", "is_negative_type",
               "is_sqrt_metric")]
    for base, layer, names in (
        (setfn.SetFunctionOracle, "setfn", ("value", "second_difference", "value_table")),
        (matroid.MatroidOracle, "matroid", ("is_independent", "extend_to_base")),
    ):
        for cls in _subclasses(base):
            found += [(cls, name, f"{layer}.{name}") for name in names if name in vars(cls)]
    return found


class Tracer:
    """Installs span-recording wrappers and keeps the spans they record."""

    def __init__(self, modules: dict):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outcome = array("b")  # 1/0 for boolean results, -1 otherwise
        self._stack: list[int] = []
        self._ops = 0
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: list[tuple[object, str, object]] = []
        for owner, attr, name in targets(modules):
            original = getattr(owner, attr, None)
            if original is None:
                print(f"trace: {name} has no attribute {attr!r} to wrap; skipped",
                      file=sys.stderr)
                continue
            self._patches.append((owner, attr, original))
            self._wrappers.append((owner, attr, self._wrap(original, name)))

    def _span_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        tracer, nid, stack = self, self._span_id(name), self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(tracer.start)
            if stack:
                parent = stack[-1]
            else:
                parent = -1
                tracer._ops += 1
            tracer.name_id.append(nid)
            tracer.parent.append(parent)
            tracer.op.append(tracer._ops - 1)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.outcome.append(-1)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.start[sid] = t0
                tracer.end[sid] = t1
            if result is True or result is False:
                tracer.outcome[sid] = int(result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in self._patches:
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "outcome": np.frombuffer(self.outcome, dtype=np.int8).copy(),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, **self.arrays())

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, boolean-true count."""
        a = self.arrays()
        k = len(self.names)
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        covered = np.bincount(a["parent"][nested], weights=dur[nested], minlength=len(dur))
        self_s = dur - covered
        calls = np.bincount(a["name_id"], minlength=k)
        total = np.bincount(a["name_id"], weights=dur, minlength=k)
        own = np.bincount(a["name_id"], weights=self_s, minlength=k)
        trues = np.bincount(a["name_id"], weights=(a["outcome"] == 1).astype(float),
                            minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]),
                   "self_s": float(own[i]), "true": int(trues[i])}
            for i, name in enumerate(self.names)
        }
