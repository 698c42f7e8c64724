"""In-memory span tracer that wraps privfair's public functions from outside.

Nothing under src/ is edited. `Tracer.install()` rebinds each traced
function in its defining module and in every privfair module that imported
it by name (or patches the method on its class), so calls made from inside
the package are seen too. A span records its name, start, end, parent span
and the operation id (audit or job index; -1 during set-up). Spans stay in
memory; the aggregates are computed at the end.

While `enabled` is false the wrappers only pass the call through, so one
process can measure an untraced phase and then a traced phase of the same
workload, and report the difference as the tracing overhead.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (span name, module, attribute); an attribute "Class.method" patches the class.
TRACED = (
    ("tree.fit", "privfair.tree", "fit"),
    ("tree.rule_mask", "privfair.tree", "rule_mask"),
    ("tree.predict_dataset", "privfair.tree", "predict_dataset"),
    ("tree.prune_redundant", "privfair.tree", "prune_redundant"),
    ("tree.favorable_rules", "privfair.tree", "favorable_rules"),
    ("curator.Curator.__init__", "privfair.curator", "Curator.__init__"),
    ("curator.Curator.answer", "privfair.curator", "Curator.answer"),
    ("curator.process_frame", "privfair.curator", "process_frame"),
    ("curator.encode_frame", "privfair.curator", "encode_frame"),
    ("curator.decode_frame", "privfair.curator", "decode_frame"),
    ("curator.WireClient.ask", "privfair.curator", "WireClient.ask"),
    ("mechanisms.laplace_histogram", "privfair.mechanisms", "laplace_histogram"),
    ("mechanisms.exponential_histogram", "privfair.mechanisms", "exponential_histogram"),
    ("mechanisms.gaussian_histogram", "privfair.mechanisms", "gaussian_histogram"),
    ("estimator.estimate_sp", "privfair.estimator", "estimate_sp"),
    ("estimator.repair_histogram", "privfair.estimator", "repair_histogram"),
    ("data.Dataset.take", "privfair.data", "Dataset.take"),
    ("data.stratified_split", "privfair.data", "stratified_split"),
    ("data.encode_sensitive", "privfair.data", "encode_sensitive"),
    ("synth.make_adult_surrogate", "privfair.synth", "make_adult_surrogate"),
    ("binning.bin_numeric_features", "privfair.binning", "bin_numeric_features"),
    ("binning.apply_binning", "privfair.binning", "apply_binning"),
    ("metrics.sp_ratio_kary", "privfair.metrics", "sp_ratio_kary"),
    ("metrics.balanced_accuracy", "privfair.metrics", "balanced_accuracy"),
    ("experiments.grid_search_tree", "privfair.experiments", "grid_search_tree"),
    ("experiments.welch_t_test", "privfair.experiments", "welch_t_test"),
    ("experiments.run_experiment_1", "privfair.experiments", "run_experiment_1"),
    ("experiments.run_experiment_2", "privfair.experiments", "run_experiment_2"),
    ("experiments.run_experiment_2_1", "privfair.experiments", "run_experiment_2_1"),
)
SPAN_NAMES = tuple(name for name, _, _ in TRACED)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count(name, args, kwargs, result) -> dict:
    """Work counters recorded at the same boundary as the span."""
    if name == "tree.fit":
        return {"tree.fit.leaves": result.n_leaves}
    if name == "tree.rule_mask":
        clauses, data = _arg(args, kwargs, 0, "clauses"), _arg(args, kwargs, 1, "data")
        return {"tree.rule_mask.clause_rows": len(clauses) * data.n}
    if name == "curator.encode_frame":
        return {"curator.frame_bytes": len(result)}
    if name.startswith("mechanisms."):
        cells = int(np.asarray(_arg(args, kwargs, 0, "exact")).size)
        out = {"mechanisms.cells": cells}
        if name == "mechanisms.exponential_histogram":
            domain_max = int(_arg(args, kwargs, 1, "domain_max"))
            out["mechanisms.exponential_histogram.candidates"] = cells * (domain_max + 1)
        return out
    if name == "estimator.estimate_sp":
        return {"estimator.invalid_cells": result.invalid_cells,
                "estimator.total_cells": result.total_cells}
    return {}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op_id = -1
        self.spans: list[tuple] = []  # (name, start, end, parent index, op id, self seconds)
        self.counters: dict[tuple[int, str], float] = defaultdict(float)  # (op id, counter)
        self.raised: dict[tuple[int, str], int] = defaultdict(int)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for name, module_name, attr in TRACED:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._rebind(cls, meth, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("privfair"):
                    continue
                if getattr(mod, attr, None) is original:
                    self._rebind(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, name, fn):
        tracer = self
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1][0] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)  # reserve the slot so children can point at it
            entry = [index, 0.0]  # [span index, seconds covered by children]
            stack.append(entry)
            op = tracer.op_id
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[(op, name)] += 1
                raise
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.spans[index] = (name, start, end, parent, op, duration - entry[1])
            for counter, value in _count(name, args, kwargs, result).items():
                tracer.counters[(op, counter)] += value
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- aggregation --------------------------------------------------------

    def totals(self, ops) -> dict:
        """Per span name: calls, busy and self seconds summed over the ops given."""
        ops = set(ops)
        out = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        for span in self.spans:
            if span is None or span[4] not in ops:
                continue
            row = out[span[0]]
            row[0] += 1
            row[1] += span[2] - span[1]
            row[2] += span[5]
        return {name: {"calls": c, "busy_s": b, "self_s": s} for name, (c, b, s) in out.items()}

    def counter_totals(self, ops) -> dict:
        return _sum_over_ops(self.counters, ops)

    def raised_totals(self, ops) -> dict:
        return _sum_over_ops(self.raised, ops)

    def summary(self) -> dict:
        """Aggregates over every recorded span, for shipping out of a child process."""
        ops = {span[4] for span in self.spans if span is not None}
        return {"spans": self.totals(ops), "counters": self.counter_totals(ops),
                "raised": self.raised_totals(ops), "n_spans": len(self.spans)}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                if span is not None:
                    name, start, end, parent, op, _ = span
                    fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                         "parent": parent, "op": op}) + "\n")


def _sum_over_ops(table: dict, ops) -> dict:
    """Sum a {(op id, key): value} table over the given ops, by key."""
    ops = set(ops)
    out: dict = defaultdict(int)
    for (op, key), value in table.items():
        if op in ops:
            out[key] += value
    return dict(out)
