"""privfair benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--scale full|tiny] [--out FILE] [--spans FILE]

Workloads: audit-inproc, audit-wire, exp2-refit, exp1-gridsearch (see
workloads.py and README.md). The run sets the workload up `setups` times
(setup_s is the median), then runs its operations in a closed loop with one
caller for at least --seconds and at least a fixed prefix of work, checks
the outputs, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 the per-layer metrics
from spans, with the first half of the window untraced so that the tracing
overhead can be reported. --out appends a fuller record (samples, digest,
versions) to FILE; --spans writes the caller's spans as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import statistics
import sys
import time
from pathlib import Path

from common import MECHANISMS, SCALES, load_privfair, settle_process

WORKLOADS = ("audit-inproc", "audit-wire", "exp2-refit", "exp1-gridsearch")
DIGESTS = Path(__file__).with_name("digests.json")
# Set-up spans reported per set-up rather than per operation.
SETUP_SPANS = ("synth.make_adult_surrogate", "data.stratified_split", "data.encode_sensitive",
               "data.Dataset.take", "tree.fit", "curator.Curator.__init__")


def make_workload(name, scale_name, seed, traced):
    from workloads import AuditWorkload, ExperimentWorkload

    if name.startswith("audit-"):
        return AuditWorkload(scale_name, seed, traced, wire=(name == "audit-wire"))
    return ExperimentWorkload(scale_name, seed, experiment=2 if name == "exp2-refit" else 1)


def median(values):
    return statistics.median(values) if values else math.nan


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) >= 2 else math.nan


def run(args):
    scale = SCALES[args.scale]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.enabled = True  # set-up spans carry op id -1
    wl = make_workload(args.workload, args.scale, args.seed, tracer is not None)
    try:
        setup_times = []
        for _ in range(scale.setups):
            wl.close()  # stops the previous set-up's server, if any
            start = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.enabled = False

        op_walls: list[float] = []
        traced_from = None
        t0 = time.perf_counter()
        while True:
            i = len(op_walls)
            at_boundary = i % wl.cycle == 0
            now = time.perf_counter()
            traced_enough = tracer is None or (traced_from is not None and i >= traced_from + wl.cycle)
            if at_boundary and i >= wl.min_ops and now - t0 >= args.seconds and traced_enough:
                break
            if tracer is not None and traced_from is None and at_boundary and i >= wl.cycle \
                    and now - t0 >= args.seconds / 2:
                wl.trace_on()
                tracer.enabled = True
                traced_from = i
            if tracer is not None and tracer.enabled:
                tracer.op_id = i
            start = time.perf_counter()
            wl.op(i)
            op_walls.append(time.perf_counter() - start)
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.enabled = False
        server_trace = wl.server_trace() if tracer is not None else None
        outputs = wl.outputs()
        problems = wl.check()
    finally:
        wl.close()
        if tracer is not None:
            tracer.uninstall()

    gate = check_digest(wl.digest_key, wl.input_seed, args.scale, outputs["digest"])
    if gate.startswith("MISMATCH"):
        problems.append(f"{args.workload}: output digest {gate}")
    by_mech = {m: [d for mm, d in wl.audits if mm == m] for m in MECHANISMS}
    all_audits = [d for _, d in wl.audits]
    jobs = wl.job_walls(op_walls)
    samples = {
        "setups": len(setup_times), "ops": len(op_walls), "jobs": len(jobs),
        "audits": len(all_audits), **{f"audits_{m}": len(v) for m, v in by_mech.items()},
    }
    if tracer is None:
        metrics = {
            "setup_s": (median(setup_times), "s"),
            "audit_laplace_ms_p50": (median(by_mech["laplace"]) * 1e3, "ms"),
            "audit_exponential_ms_p50": (median(by_mech["exponential"]) * 1e3, "ms"),
            "audit_gaussian_ms_p50": (median(by_mech["gaussian"]) * 1e3, "ms"),
            "audit_ms_p90": (p90(all_audits) * 1e3, "ms"),
            "audits_per_s": (len(all_audits) / elapsed, "1/s"),
            "exp_wall_s": (median(jobs), "s"),
            "aaspe": (outputs["aaspe"], "1"),
            "peak_rss_mb": (outputs["rss_kb"] / 1024.0, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, server_trace, op_walls, traced_from, scale.setups, outputs)
    attempted = len(all_audits) if args.workload.startswith("audit-") else len(op_walls)
    failed = len(getattr(wl, "failures", []))
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            problems.append(f"metric {name} is not finite")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "detail": {
            "workload": args.workload, "seed": args.seed, "trace": args.trace, "scale": args.scale,
            "seconds": args.seconds, "elapsed_s": elapsed, "samples": samples,
            "digest": outputs["digest"], "gate": gate, "problems": problems[:20],
            "fail_ratio": outputs["fail_ratio"], "setup_times_s": setup_times,
            "versions": versions(),
        },
    }, tracer


def layer_metrics(tracer, server_trace, op_walls, traced_from, setups, outputs) -> dict:
    """Per-layer metrics of the traced ops, per operation (audit or job)."""
    ops = range(traced_from, len(op_walls))
    n = len(ops)
    spans = tracer.totals(ops)
    counters = tracer.counter_totals(ops)
    raised = tracer.raised_totals(ops)
    caller_self = sum(row["self_s"] for row in spans.values())
    if server_trace is not None:  # the curator's spans, recorded in the server process
        for name, row in server_trace["spans"].items():
            for key in row:
                spans[name][key] += row[key]
        for key, value in server_trace["counters"].items():
            counters[key] = counters.get(key, 0.0) + value
        for key, value in server_trace["raised"].items():
            raised[key] = raised.get(key, 0) + value

    out = {}
    for name, row in spans.items():
        out[f"{name}.calls"] = (row["calls"] / n, "count")
        out[f"{name}.busy_s"] = (row["busy_s"] / n, "s")
        out[f"{name}.self_s"] = (row["self_s"] / n, "s")
    setup_spans = tracer.totals([-1])
    for name in SETUP_SPANS:
        out[f"setup.{name}.busy_s"] = (setup_spans[name]["busy_s"] / setups, "s")
    for key in ("tree.fit.leaves", "tree.rule_mask.clause_rows", "mechanisms.cells",
                "mechanisms.exponential_histogram.candidates", "estimator.invalid_cells"):
        out[key] = (counters.get(key, 0.0) / n, "count")
    out["curator.frame_bytes"] = (counters.get("curator.frame_bytes", 0.0) / n, "B")
    audits = spans["estimator.estimate_sp"]["calls"]
    asks = spans["curator.WireClient.ask"]["calls"]
    answers = spans["curator.Curator.answer"]["calls"]
    refused = raised.get("curator.Curator.answer", 0)
    out["curator.round_trips_per_audit"] = (asks / audits if audits else 0.0, "count")
    out["curator.wire.transport_s"] = (
        (spans["curator.WireClient.ask"]["busy_s"] - spans["curator.process_frame"]["busy_s"]) / n, "s")
    out["curator.ledger_entries"] = (outputs["retained"]["ledger_entries"], "count")
    out["curator.batch_mask_bytes"] = (outputs["retained"]["batch_mask_bytes"], "B")
    out["curator.answered_ratio"] = ((answers - refused) / answers if answers else 0.0, "1")
    total_cells = counters.get("estimator.total_cells", 0.0)
    out["estimator.invalid_ratio"] = (
        counters.get("estimator.invalid_cells", 0.0) / total_cells if total_cells else 0.0, "1")
    out["fail_ratio"] = (outputs["fail_ratio"], "1")

    untraced_walls, traced_walls = op_walls[:traced_from], op_walls[traced_from:]
    out["trace.op_ms_p50_untraced"] = (median(untraced_walls) * 1e3, "ms")
    out["trace.op_ms_p50_traced"] = (median(traced_walls) * 1e3, "ms")
    out["trace.overhead_ms"] = ((median(traced_walls) - median(untraced_walls)) * 1e3, "ms")
    mean_traced = sum(traced_walls) / n
    out["trace.op_ms_mean_traced"] = (mean_traced * 1e3, "ms")
    out["trace.self_sum_ms"] = (caller_self / n * 1e3, "ms")
    out["trace.unattributed_ms"] = ((mean_traced - caller_self / n) * 1e3, "ms")
    out["trace.ops"] = (n, "count")
    return out


def check_digest(key: str, seed: int, scale: str, digest: str) -> str:
    if scale != "full":
        return "not recorded (scale is not full)"
    recorded = json.loads(DIGESTS.read_text()).get(key, {}) if DIGESTS.is_file() else {}
    expected = recorded.get(str(seed))
    if expected is None:
        return f"not recorded for seed {seed}"
    return "ok" if expected == digest else f"MISMATCH: expected {expected}, got {digest}"


def versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    settle_process()
    load_privfair()
    result, tracer = run(args)
    detail = result.pop("detail")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} elapsed={detail['elapsed_s']:.2f}s "
          f"samples={json.dumps(detail['samples'])}")
    for name, m in result["metrics"].items():
        print(f"{name:52s} {m['value']:14.6g} {m['unit']}")
    print(f"# output gate: {detail['gate']}; digest {detail['digest']}")
    for problem in detail["problems"]:
        print(f"# PROBLEM: {problem}")
    if args.spans and tracer is not None:
        tracer.write_spans(args.spans)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({**result, "detail": detail}, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
