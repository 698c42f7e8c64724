"""The four benchmark workloads.

Each workload has a `setup()` that the runner times (and repeats), an
`op(i)` that the runner calls in a closed loop with one caller, and the
bookkeeping behind the metrics: audit latencies per mechanism, the outputs
behind the digest, and the peak RSS after a fixed amount of work.

- audit-inproc: one long-lived in-process Curator, audits cycling
  laplace -> exponential -> gaussian.
- audit-wire: the same audits against a CuratorServer in a child process
  over one loopback TCP connection (1 + R round trips per audit).
- exp2-refit: run_experiment_2 + run_experiment_2_1 on a minleaf sub-grid,
  one mechanism per job, cycling through the three mechanisms.
- exp1-gridsearch: run_experiment_1 with a reduced grid search on raw data,
  K = 4 groups, all three mechanisms.

Known defect kept visible (ROADMAP 2(c)): with the default batch_id, repeated
audits on one curator identity collide and are refused. The audit workloads
therefore pass an explicit per-audit `batch_id` through `estimate_sp`'s public
parameter and size the curator budget to the run. This is a workaround in the
benchmark, not a fix in the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import select
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from common import (AUDIT_EPSILON, AUDIT_HEIGHT, AUDIT_MINLEAF, EXP2_SEED, MECHANISMS, ROOT,
                    SCALES, curator_seed, delta_for, make_split)

MAX_AUDITS = 100_000  # hard cap; the curator budget is sized for this many audits
CHILD_TIMEOUT_S = 60.0


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


class AuditWorkload:
    """Closed-loop audits of one fixed tree against one long-lived curator."""

    cycle = len(MECHANISMS)
    digest_key = "audit"  # in-process and wire estimates must be bit-identical

    def __init__(self, scale_name, seed, traced: bool, wire: bool):
        self.scale_name, self.scale = scale_name, SCALES[scale_name]
        self.seed = self.input_seed = seed
        self.traced, self.wire = traced, wire
        self.min_ops = self.scale.gate_audits
        self.client = self.curator = self.proc = None
        self.audits: list[tuple[str, float]] = []  # (mechanism, seconds)
        self.estimates = []
        self.failures: list[str] = []
        self.gate_stats: dict = {}

    # -- set-up and teardown --------------------------------------------------

    def setup(self) -> None:
        from privfair import curator as C, metrics, tree as T

        train, test, table = make_split(self.scale, "ethnicity")
        tree = T.fit(train, T.LearnerConfig(max_height=AUDIT_HEIGHT, minleaf_fraction=AUDIT_MINLEAF))
        self.tree, self.test, self.k = tree, test, table.k
        self.n_rules = len(T.favorable_rules(T.prune_redundant(tree)))
        preds = metrics.PredictionSet(test.labels, T.predict_dataset(tree, test), table.groups, table.k)
        self.sp_true = metrics.sp_ratio_kary(preds)
        budget = AUDIT_EPSILON * MAX_AUDITS
        if self.wire:
            port = self._start_server(budget)
            self.client = C.WireClient("127.0.0.1", port)
        else:
            self.curator = C.Curator(test, table, total_epsilon=budget, seed=curator_seed(self.seed))
            self.client = C.InProcessClient(self.curator)

    def _start_server(self, budget: float) -> int:
        cmd = [sys.executable, str(Path(__file__).with_name("server.py")), "--seed", str(self.seed),
               "--scale", self.scale_name, "--budget", repr(budget)]
        if self.traced:
            cmd.append("--trace")
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)
        return int(self._read_reply()["port"])

    def _read_reply(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], CHILD_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(f"curator server gave no reply (exit code {self.proc.poll()})")
        return json.loads(line)

    def _command(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read_reply()

    def close(self) -> None:
        if self.client is not None and self.wire:
            self.client.close()
        self.client = None
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            proc.stdin.close()  # end of stdin tells the server to quit
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()
        finally:
            proc.stdout.close()

    # -- the timed loop ---------------------------------------------------------

    def op(self, i: int) -> None:
        from privfair import errors, estimator

        mechanism = MECHANISMS[i % len(MECHANISMS)]
        start = time.perf_counter()
        try:
            est = estimator.estimate_sp(
                self.tree, self.client, AUDIT_EPSILON, population=self.test.n,
                mechanism=mechanism, delta=delta_for(mechanism), batch_id=f"audit-{i}",
            )
        except (errors.DegenerateEstimateError, errors.BudgetRefusal) as exc:
            est = None
            self.failures.append(f"audit {i}: {type(exc).__name__}: {exc}")
        self.audits.append((mechanism, time.perf_counter() - start))
        if i < self.scale.gate_audits:
            self.estimates.append(est)
        if i + 1 == self.scale.gate_audits:
            self.gate_stats = self._snapshot()

    def _snapshot(self) -> dict:
        """Peak RSS and ledger totals after the fixed gate prefix of audits."""
        if self.wire:
            server = self._command("stats")
            return {"rss_kb": _maxrss_kb() + server["maxrss_kb"], "spent": server["spent"],
                    "ledger_entries": server["ledger_entries"], "batches": server["batches"]}
        ledger = self.curator.ledger()
        batches = {e.composition for e in ledger.entries if e.composition != "sequential"}
        return {"rss_kb": _maxrss_kb(), "spent": ledger.spent,
                "ledger_entries": len(ledger.entries), "batches": len(batches)}

    def trace_on(self) -> None:
        if self.wire:
            self._command("trace-on")

    def server_trace(self) -> dict | None:
        return self._command("stats")["trace"] if self.wire else None

    # -- results ------------------------------------------------------------------

    def job_walls(self, op_walls: list[float]) -> list[float]:
        """Wall time of each complete laplace/exponential/gaussian cycle."""
        n = len(op_walls) // self.cycle * self.cycle
        return [sum(op_walls[i:i + self.cycle]) for i in range(0, n, self.cycle)]

    def outputs(self) -> dict:
        from privfair import tree as T

        ok = [e for e in self.estimates if e is not None]
        errors_ = [abs(self.sp_true - e.sp) for e in ok]
        digest = _sha256({
            "tree": T.to_record(self.tree),
            "estimates": [None if e is None else
                          [e.sp, list(e.accept_rates), e.query_count, e.invalid_cells,
                           e.total_cells, e.epsilon_spent] for e in self.estimates],
        })
        return {
            "aaspe": sum(errors_) / len(errors_) if errors_ else math.nan,
            "fail_ratio": (len(self.estimates) - len(ok)) / len(self.estimates),
            "digest": digest,
            "rss_kb": self.gate_stats["rss_kb"],
            "retained": {"ledger_entries": self.gate_stats["ledger_entries"],
                         "batch_mask_bytes": self.test.n * self.gate_stats["batches"]},
        }

    def check(self) -> list[str]:
        """Output checks beyond the digest; returns the problems found."""
        problems = list(self.failures)
        n = self.scale.gate_audits
        queries = 1 + self.n_rules
        for i, e in enumerate(self.estimates):
            if e is None:
                continue
            if not (0.0 <= e.sp <= 1.0) or e.query_count != queries \
                    or e.total_cells != queries * self.k or e.epsilon_spent != AUDIT_EPSILON:
                problems.append(f"audit {i}: implausible estimate {e}")
        stats = self.gate_stats
        if abs(stats["spent"] - n * AUDIT_EPSILON) > 1e-6 * n:
            problems.append(f"ledger spent {stats['spent']} after {n} audits of {AUDIT_EPSILON}")
        if stats["ledger_entries"] != n * queries or stats["batches"] != n:
            problems.append(f"ledger holds {stats['ledger_entries']} entries / {stats['batches']} "
                            f"batches after {n} audits of {queries} queries")
        return problems


class ExperimentWorkload:
    """Repeated run_experiment_* calls ("jobs") at one fixed configuration."""

    def __init__(self, scale_name, seed, experiment: int):
        from privfair import experiments as X

        self.scale, self.experiment = SCALES[scale_name], experiment
        self.input_seed = EXP2_SEED if experiment == 2 else seed
        self.digest_key = "exp2-refit" if experiment == 2 else "exp1-gridsearch"
        self.cycle = 1  # the runner may stop or start tracing after any job
        # exp2 takes one mechanism per call, so its jobs cycle through the three
        # configurations; the first pass over them is the fixed prefix of work
        self.n_configs = len(MECHANISMS) if experiment == 2 else 1
        self.min_ops = max(2, self.n_configs)
        self.audits: list[tuple[str, float]] = []
        self.results: list[tuple] = []
        self.audited_tree = None
        self.rss_kb = None
        self._X = X
        self._inner = None  # estimate_sp as found before the timer went in

    def setup(self) -> None:
        X, s = self._X, self.scale
        encoding = "ethnicity" if self.experiment == 2 else "sex-ethnicity"
        self.train, self.test, self.table = make_split(s, encoding)
        if self.experiment == 2:
            self.configs = [X.ExperimentConfig(
                epsilons=s.exp2_epsilons, runs=s.exp2_runs, mechanisms=(m,), seed=self.input_seed,
                minleafs=s.exp2_minleafs, delta=delta_for(m)) for m in MECHANISMS]
        else:
            self.configs = [X.ExperimentConfig(
                epsilons=s.exp1_epsilons, runs=s.exp1_runs, mechanisms=MECHANISMS, seed=self.input_seed,
                delta=delta_for("gaussian"))]
            self.space = X.TreeSearchSpace(heights=s.exp1_heights, leaf_counts=s.exp1_leaves,
                                           feature_modes=("sqrt", "all"))
        self._install_timer()

    def _install_timer(self) -> None:
        """Time each estimate_sp call the experiment makes, at its call site.

        This is the only shim in an untraced run: two clock reads per audit.
        It wraps whatever the experiments module holds, so in a traced run
        the timed call includes its spans.
        """
        if self._inner is not None:
            return
        X, audits = self._X, self.audits
        inner = self._inner = X.estimate_sp

        def timed_estimate_sp(tree, *args, **kwargs):
            if self.audited_tree is None:
                self.audited_tree = tree
            start = time.perf_counter()
            try:
                return inner(tree, *args, **kwargs)
            finally:
                audits.append((kwargs["mechanism"], time.perf_counter() - start))

        X.estimate_sp = timed_estimate_sp

    def close(self) -> None:
        if self._inner is not None:
            self._X.estimate_sp, self._inner = self._inner, None

    def op(self, i: int) -> None:
        X = self._X
        config = self.configs[i % self.n_configs]
        if self.experiment == 2:
            result = X.run_experiment_2(self.train, self.test, self.table, config)
            grid, notes = X.run_experiment_2_1(result)
            self.results.append((result, sorted((repr(k), repr(v)) for k, v in grid.items()), notes))
        else:
            result = X.run_experiment_1(self.train, self.test, self.table, config,
                                        search_space=self.space)
            self.results.append((result, None, None))
        if len(self.results) == self.n_configs:
            self.rss_kb = _maxrss_kb()

    def trace_on(self) -> None:
        pass

    def server_trace(self) -> None:
        return None

    def job_walls(self, op_walls: list[float]) -> list[float]:
        return list(op_walls)

    def outputs(self) -> dict:
        from privfair import tree as T

        first = [r for r, _, _ in self.results[:self.n_configs]]
        records = [rec for r in first for rec in r.records]
        ok = [rec for rec in records if not rec["failed"]]
        errors_ = [rec["abs_error"] for rec in ok]
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_out-") as tmp:
            csvs = self._csvs = [result.save(Path(tmp) / str(j))["records"].read_bytes()
                                 for j, (result, _, _) in enumerate(self.results)]
        digest = _sha256({
            "tree": T.to_record(self.audited_tree) if self.experiment == 1 else None,
            "records_csv": [hashlib.sha256(c).hexdigest() for c in csvs[:self.n_configs]],
            "heatmaps": [[grid, notes] for _, grid, notes in self.results[:self.n_configs]],
        })
        return {
            "aaspe": sum(errors_) / len(errors_) if errors_ else math.nan,
            "fail_ratio": (len(records) - len(ok)) / len(records),
            "digest": digest,
            "rss_kb": self.rss_kb,
            "retained": {"ledger_entries": 0, "batch_mask_bytes": 0},
        }

    def check(self) -> list[str]:
        s = self.scale
        problems = []
        if self.experiment == 2:
            expected = len(s.exp2_minleafs) * len(s.exp2_epsilons) * s.exp2_runs
        else:
            expected = len(MECHANISMS) * len(s.exp1_epsilons) * s.exp1_runs
        for j, (result, _, _) in enumerate(self.results):
            if len(result.records) != expected:
                problems.append(f"job {j}: {len(result.records)} records, expected {expected}")
            for rec in result.records:
                if not rec["failed"] and not (0.0 <= rec["sp_est"] <= 1.0
                                              and math.isfinite(rec["abs_error"])):
                    problems.append(f"job {j}: implausible record {rec}")
                    break
        for j in range(self.n_configs, len(self._csvs)):
            if self._csvs[j] != self._csvs[j % self.n_configs]:
                problems.append(f"job {j}: records differ from job {j % self.n_configs} "
                                "at the same configuration")
        return problems
