"""Experiment harness: mechanism comparison, minleaf/epsilon grids, exports.

Experiment 1 audits one grid-searched tree repeatedly per (mechanism,
epsilon) cell. Experiment 2 refits a tree per run (varying the
feature-subsample seed) over a minleaf grid with binned numeric features and
compares audit errors against a uniform-random baseline. Experiment 2.1
turns experiment-2 records into a UAR-AASPE heatmap. All randomness flows
from one master seed via documented per-cell, per-run stream splitting, so
reruns reproduce every record bit for bit.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import sys
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np
from scipy import stats as _scipy_stats

from . import __version__ as _version
from .binning import apply_binning, bin_numeric_features
from .curator import Curator, InProcessClient
from .data import CATEGORICAL, Dataset, SensitiveTable
from .errors import DegenerateEstimateError, MetricError, ParameterError
from .estimator import InvalidPolicy, estimate_sp
from .mechanisms import EXPONENTIAL, LAPLACE
from .metrics import PredictionSet, balanced_accuracy, sp_ratio_kary, uar_minus_aaspe
from .tree import DecisionTree, LearnerConfig, fit, predict_dataset, prune_redundant


def welch_t_test(sample_a, sample_b, alternative: str = "two-sided") -> tuple[float, float]:
    """Welch t statistic with Welch-Satterthwaite degrees of freedom.

    alternative "less" tests mean(a) < mean(b).
    """
    a = np.asarray(sample_a, dtype=float)
    b = np.asarray(sample_b, dtype=float)
    if len(a) < 2 or len(b) < 2:
        raise MetricError("welch_t_test needs at least 2 values per sample")
    va, vb = float(np.var(a, ddof=1)), float(np.var(b, ddof=1))
    if va == 0.0 and vb == 0.0:
        raise MetricError("welch_t_test degenerate: both samples have zero variance")
    na, nb = len(a), len(b)
    se2 = va / na + vb / nb
    t = (float(np.mean(a)) - float(np.mean(b))) / math.sqrt(se2)
    df = se2**2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    if alternative == "two-sided":
        p = 2.0 * float(_scipy_stats.t.sf(abs(t), df))
    elif alternative == "less":
        p = float(_scipy_stats.t.cdf(t, df))
    else:
        raise ParameterError(f"unknown alternative {alternative!r}")
    return t, p


# ---------------------------------------------------------------------------
# Grid search

@dataclass(frozen=True)
class TreeSearchSpace:
    """The (height, leaf count, feature mode) grid used for model selection."""

    heights: tuple[int, ...] = (2, 3, 4)
    leaf_counts: tuple[int, ...] = (3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
    feature_modes: tuple[str, ...] = ("sqrt", "all", "log2")
    minleaf_fraction: float = 0.01
    criterion: str = "entropy"

    def tuples(self) -> list[tuple[int, int, str]]:
        return list(itertools.product(self.heights, self.leaf_counts, self.feature_modes))


@dataclass(frozen=True)
class GridSearchReport:
    evaluated: tuple[tuple, ...]  # (params, mean balanced accuracy), in space.tuples() order
    chosen: tuple[int, int, str]
    cv_score: float


def stratified_folds(labels: np.ndarray, n_folds: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0xF0])))
    assignment = np.empty(len(labels), dtype=np.int64)
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        rng.shuffle(idx)
        assignment[idx] = np.arange(len(idx)) % n_folds
    folds = []
    for f in range(n_folds):
        val = np.flatnonzero(assignment == f)
        train = np.flatnonzero(assignment != f)
        folds.append((train, val))
    return folds


def grid_search_tree(
    data: Dataset,
    space: TreeSearchSpace = TreeSearchSpace(),
    folds: int = 5,
    seed: int = 0,
) -> tuple[DecisionTree, GridSearchReport]:
    """Pick the tuple with the best cross-validated balanced accuracy and
    refit it on the full split. Deterministic under the seed.

    Each fold's tables are taken once and scored for every tuple; the
    categorical columns are encoded before the folds are taken, so every
    fold and the final refit share one category table per column. A fold
    too small for the minleaf requirement, or a run without any validation
    fold that holds both classes, fails every tuple alike."""
    fold_idx = stratified_folds(data.labels, folds, seed)
    if any(space.minleaf_fraction * len(train_idx) < 1 for train_idx, _ in fold_idx):
        raise ParameterError("no grid tuple could be evaluated: "
                             "a training fold is smaller than the minleaf requirement")
    # balanced accuracy is undefined on a validation fold without both classes
    scorable = [(fold_no, train_idx, val_idx)
                for fold_no, (train_idx, val_idx) in enumerate(fold_idx)
                if np.isin((0, 1), data.labels[val_idx]).all()]
    if not scorable:
        raise ParameterError("no grid tuple could be evaluated: "
                             "no validation fold holds both classes")
    for name in data.feature_names:
        if data.feature_kinds[name] == CATEGORICAL:
            data.codes(name)
    params_list = space.tuples()
    scores: list[list[float]] = [[] for _ in params_list]  # per tuple, in fold order
    for fold_no, train_idx, val_idx in scorable:
        train, val = data.take(train_idx), data.take(val_idx)
        for (height, leaves, mode), tuple_scores in zip(params_list, scores):
            config = LearnerConfig(
                max_height=height, minleaf_fraction=space.minleaf_fraction, max_leaves=leaves,
                feature_subsample=mode, criterion=space.criterion,
                seed=seed * 1009 + fold_no,
            )
            tuple_scores.append(balanced_accuracy(val.labels, predict_dataset(fit(train, config), val)))
    evaluated = tuple((params, float(np.mean(s))) for params, s in zip(params_list, scores))
    (height, leaves, mode), score = max(evaluated, key=lambda e: e[1])  # first best tuple
    final = fit(
        data,
        LearnerConfig(
            max_height=height, minleaf_fraction=space.minleaf_fraction, max_leaves=leaves,
            feature_subsample=mode, criterion=space.criterion, seed=seed,
        ),
    )
    return final, GridSearchReport(evaluated, (height, leaves, mode), score)


# ---------------------------------------------------------------------------
# Experiment configuration and records

@dataclass(frozen=True)
class ExperimentConfig:
    epsilons: tuple[float, ...]
    runs: int = 25
    mechanisms: tuple[str, ...] = (LAPLACE, EXPONENTIAL)
    policy: InvalidPolicy = field(default_factory=InvalidPolicy)
    seed: int = 0
    minleafs: tuple[float, ...] = ()
    exp2_max_height: int = 10
    exp2_feature_mode: str = "sqrt"
    delta: float = 0.0

    def __post_init__(self):
        if not self.epsilons:
            raise ParameterError("epsilon grid must be nonempty")
        if self.runs < 2:
            raise ParameterError("need at least 2 runs per cell for any t-test")


def preset_config(experiment: str, paper_scale: bool = False, seed: int = 0) -> ExperimentConfig:
    """The desk-scale (or paper-scale) config of experiment "1", "2" or "2.1".

    Experiment 1 compares Laplace and exponential over 10 (paper: 40) epsilons
    up to 0.5; experiment 2 audits Laplace over 5 epsilons up to 0.25 and 20
    (paper: 80) minleafs up to 0.2. Desk scale runs 25 audits per cell, paper
    scale 50."""
    runs = 50 if paper_scale else 25
    if experiment == "1":
        epsilons = (tuple(k / 80.0 for k in range(1, 41)) if paper_scale
                    else tuple(k / 20.0 for k in range(1, 11)))
        return ExperimentConfig(epsilons=epsilons, runs=runs, seed=seed)
    if experiment in ("2", "2.1"):
        minleafs = (tuple(k / 400.0 for k in range(1, 81)) if paper_scale
                    else tuple(k / 100.0 for k in range(1, 21)))
        return ExperimentConfig(epsilons=tuple(k / 20.0 for k in range(1, 6)), runs=runs,
                                mechanisms=(LAPLACE,), seed=seed, minleafs=minleafs)
    raise ParameterError(f"unknown experiment {experiment!r}; use 1, 2 or 2.1")


RECORD_FIELDS = (
    "experiment", "mechanism", "epsilon", "minleaf", "run", "sp_true", "sp_est",
    "abs_error", "invalid_cells", "total_cells", "invalid_ratio", "query_count",
    "baseline", "baseline_error", "failed",
)

# the audit fields of a run whose audit (or, in experiment 2, whose parity) failed
_FAILED_RUN = {
    "sp_est": math.nan, "abs_error": math.nan, "invalid_cells": 0, "total_cells": 0,
    "invalid_ratio": math.nan, "query_count": 0, "failed": True,
}


def _successful(records, **keys) -> list[dict]:
    """The records of one cell (matching every key) whose audit succeeded."""
    return [r for r in records if all(r[k] == v for k, v in keys.items()) and not r["failed"]]


def _cell_summary(ok: list[dict]) -> dict:
    """n_runs, aaspe and mean_invalid_ratio of a cell's successful records."""
    return {
        "n_runs": len(ok),
        "aaspe": float(np.mean([r["abs_error"] for r in ok])) if ok else math.nan,
        "mean_invalid_ratio": float(np.mean([r["invalid_ratio"] for r in ok])) if ok else math.nan,
    }


@dataclass
class ExperimentResult:
    experiment: str
    records: list[dict]
    aggregates: list[dict]
    manifest: dict

    def cell_records(self, **keys) -> list[dict]:
        return _successful(self.records, **keys)

    def save(self, out_dir) -> dict[str, Path]:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = {
            "records": out_dir / f"{self.experiment}_records.csv",
            "aggregates": out_dir / f"{self.experiment}_aggregates.csv",
            "manifest": out_dir / f"{self.experiment}_manifest.json",
        }
        _write_csv(paths["records"], RECORD_FIELDS, self.records)
        if self.aggregates:
            _write_csv(paths["aggregates"], list(self.aggregates[0]), self.aggregates)
        with open(paths["manifest"], "w", encoding="utf-8") as fh:
            json.dump(self.manifest, fh, sort_keys=True, indent=1)
            fh.write("\n")
        return paths


def _write_csv(path: Path, fieldnames, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _csv_cell(row.get(k)) for k in fieldnames})


def _csv_cell(value):
    if isinstance(value, float):
        return repr(value)
    return value


def _config_manifest(experiment: str, config: ExperimentConfig, extra: dict | None = None) -> dict:
    stored = {f.name: getattr(config, f.name) for f in fields(ExperimentConfig)}
    stored = {name: list(v) if isinstance(v, tuple) else v for name, v in stored.items()}
    stored["policy"] = list(astuple(config.policy))
    manifest = {"experiment": experiment, "version": _version, "config": stored}
    if extra:
        manifest.update(extra)
    return manifest


def config_from_manifest(manifest) -> ExperimentConfig:
    """The config of an experiment-1 or experiment-2 manifest; any other
    manifest, or a config with a missing or unknown field, is a ParameterError."""
    if not isinstance(manifest, dict) or manifest.get("experiment") not in ("experiment1", "experiment2"):
        raise ParameterError("not an experiment-1 or experiment-2 manifest")
    stored = manifest.get("config")
    given = set(stored) if isinstance(stored, dict) else set()
    names = {f.name for f in fields(ExperimentConfig)}
    if given != names:
        raise ParameterError(f"manifest config lacks {sorted(names - given)} "
                             f"or has unknown {sorted(given - names)}")
    values = {name: tuple(v) if isinstance(v, list) else v for name, v in stored.items()}
    try:
        return ExperimentConfig(**{**values, "policy": InvalidPolicy(*stored["policy"])})
    except TypeError as exc:
        raise ParameterError(f"bad manifest config: {exc}") from None


def _curator_seed(master: int, *keys: int) -> int:
    entropy = np.random.SeedSequence([master, *keys]).generate_state(1)[0]
    return int(entropy)


def _progress(message: str, enabled: bool):
    if enabled:
        print(message, file=sys.stderr)


def _audit(tree, data, sensitive, epsilon, seed, mechanism, config, sp_true) -> dict:
    """The audit fields of one record: `tree` audited by a fresh curator with budget epsilon."""
    curator = Curator(data, sensitive, total_epsilon=epsilon, seed=seed)
    est = estimate_sp(
        tree, InProcessClient(curator), epsilon, population=data.n,
        mechanism=mechanism, policy=config.policy, delta=config.delta,
    )
    return {
        "sp_est": est.sp, "abs_error": abs(sp_true - est.sp),
        "invalid_cells": est.invalid_cells, "total_cells": est.total_cells,
        "invalid_ratio": est.invalid_ratio, "query_count": est.query_count, "failed": False,
    }


# ---------------------------------------------------------------------------
# Experiment 1: mechanism comparison on one fixed tree

def run_experiment_1(
    train: Dataset,
    test: Dataset,
    test_sensitive: SensitiveTable,
    config: ExperimentConfig,
    tree: DecisionTree | None = None,
    search_space: TreeSearchSpace = TreeSearchSpace(),
    progress: bool = False,
) -> ExperimentResult:
    """Per (mechanism, epsilon): repeated audits of one fixed tree, out of sample."""
    if tree is None:
        tree, _ = grid_search_tree(train, search_space, seed=config.seed)
    tree = prune_redundant(tree)
    y_pred = predict_dataset(tree, test)
    preds = PredictionSet(test.labels, y_pred, test_sensitive.groups, test_sensitive.k)
    sp_true = sp_ratio_kary(preds)  # undefined parity of the audited tree is a config error

    records: list[dict] = []
    for mech_i, mechanism in enumerate(config.mechanisms):
        for eps_i, epsilon in enumerate(config.epsilons):
            _progress(f"experiment1 {mechanism} eps={epsilon:g}", progress)
            for run in range(config.runs):
                seed = _curator_seed(config.seed, 1, mech_i, eps_i, run)
                record = {
                    "experiment": "experiment1", "mechanism": mechanism, "epsilon": epsilon,
                    "minleaf": math.nan, "run": run, "sp_true": sp_true,
                    "baseline": math.nan, "baseline_error": math.nan,
                }
                try:
                    record.update(_audit(tree, test, test_sensitive, epsilon, seed, mechanism,
                                         config, sp_true))
                except DegenerateEstimateError:
                    record.update(_FAILED_RUN)
                records.append(record)

    aggregates = []
    for epsilon in config.epsilons:
        errs = {}
        for mechanism in config.mechanisms:
            ok = _successful(records, mechanism=mechanism, epsilon=epsilon)
            errs[mechanism] = [r["abs_error"] for r in ok]
            aggregates.append({
                "epsilon": epsilon, "mechanism": mechanism, **_cell_summary(ok),
                "t_stat": math.nan, "p_value": math.nan, "comparison": "",
            })
        if LAPLACE in errs and EXPONENTIAL in errs:
            a, b = errs[LAPLACE], errs[EXPONENTIAL]
            if len(a) >= 2 and len(b) >= 2:
                try:
                    t, p = welch_t_test(a, b, "two-sided")
                except MetricError:
                    t, p = math.nan, math.nan
                aggregates.append({
                    "epsilon": epsilon, "mechanism": "laplace-vs-exponential",
                    "n_runs": len(a) + len(b), "aaspe": math.nan, "mean_invalid_ratio": math.nan,
                    "t_stat": t, "p_value": p, "comparison": "two-sided",
                })
    manifest = _config_manifest("experiment1", config, {"sp_true": sp_true})
    return ExperimentResult("experiment1", records, aggregates, manifest)


# ---------------------------------------------------------------------------
# Experiment 2: minleaf x epsilon grid against a random baseline

def run_experiment_2(
    train: Dataset,
    test: Dataset,
    test_sensitive: SensitiveTable,
    config: ExperimentConfig,
    progress: bool = False,
) -> ExperimentResult:
    """Per (minleaf, epsilon): audits of per-run refit trees on binned data,
    with a one-sided test of the audit errors against a random baseline."""
    if not config.minleafs:
        raise ParameterError("experiment 2 needs a minleaf grid")
    mechanism = config.mechanisms[0]
    binned_train, report = bin_numeric_features(train, seed=_curator_seed(config.seed, 2, 0))
    binned_test = apply_binning(test, report)

    records: list[dict] = []
    for ml_i, minleaf in enumerate(config.minleafs):
        for eps_i, epsilon in enumerate(config.epsilons):
            _progress(f"experiment2 minleaf={minleaf:g} eps={epsilon:g}", progress)
            baseline_rng = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence([config.seed, 0xBA5E, ml_i, eps_i]))
            )
            for run in range(config.runs):
                # the baseline stream never sees the tree, only the run index;
                # draw first so failed runs do not desynchronize it
                baseline = float(baseline_rng.random())
                learner = LearnerConfig(
                    max_height=config.exp2_max_height,
                    minleaf_fraction=minleaf,
                    feature_subsample=config.exp2_feature_mode,
                    seed=_curator_seed(config.seed, 2, ml_i, eps_i, run, 0),
                )
                tree = fit(binned_train, learner)
                record = {
                    "experiment": "experiment2", "mechanism": mechanism, "epsilon": epsilon,
                    "minleaf": minleaf, "run": run, "baseline": baseline,
                }
                try:
                    y_pred = predict_dataset(tree, binned_test)
                    preds = PredictionSet(
                        binned_test.labels, y_pred, test_sensitive.groups, test_sensitive.k
                    )
                    sp_true = sp_ratio_kary(preds)  # all-unfavorable trees have no parity
                    seed = _curator_seed(config.seed, 2, ml_i, eps_i, run, 1)
                    record.update(
                        sp_true=sp_true, baseline_error=abs(sp_true - baseline),
                        **_audit(tree, binned_test, test_sensitive, epsilon, seed, mechanism,
                                 config, sp_true),
                    )
                except (MetricError, DegenerateEstimateError):
                    record.update(sp_true=math.nan, baseline_error=math.nan, **_FAILED_RUN)
                records.append(record)

    aggregates = []
    for minleaf in config.minleafs:
        for epsilon in config.epsilons:
            ok = _successful(records, minleaf=minleaf, epsilon=epsilon)
            t, p = math.nan, math.nan
            if len(ok) >= 2:
                try:
                    t, p = welch_t_test([r["abs_error"] for r in ok],
                                        [r["baseline_error"] for r in ok], "less")
                except MetricError:
                    pass
            aggregates.append({
                "minleaf": minleaf, "epsilon": epsilon, **_cell_summary(ok),
                "t_stat": t, "p_value": p, "comparison": "audit-less-than-baseline",
            })
    manifest = _config_manifest("experiment2", config, {"mechanism": mechanism})
    return ExperimentResult("experiment2", records, aggregates, manifest)


# ---------------------------------------------------------------------------
# Experiment 2.1: compliance-detection heatmap from experiment-2 records

def run_experiment_2_1(result: ExperimentResult) -> tuple[dict, list[str]]:
    """UAR - AASPE per (minleaf, epsilon) cell of an experiment-2 result.

    Returns (grid, notes); cells with fewer than 2 successful runs are
    excluded with a note.
    """
    if result.experiment != "experiment2":
        raise ParameterError("experiment 2.1 consumes an experiment-2 result")
    minleafs = sorted({r["minleaf"] for r in result.records})
    epsilons = sorted({r["epsilon"] for r in result.records})
    grid: dict[tuple[float, float], float] = {}
    notes: list[str] = []
    for minleaf in minleafs:
        for epsilon in epsilons:
            ok = result.cell_records(minleaf=minleaf, epsilon=epsilon)
            if len(ok) < 2:
                notes.append(f"cell minleaf={minleaf:g} epsilon={epsilon:g} excluded (<2 runs)")
                continue
            true_sps = [r["sp_true"] for r in ok]
            est_sps = [r["sp_est"] for r in ok]
            grid[(minleaf, epsilon)] = uar_minus_aaspe(true_sps, est_sps)
    return grid, notes


def save_heatmap(grid: dict, out_path) -> Path:
    """Comma-separated matrix: first row epsilons, first column minleafs."""
    out_path = Path(out_path)
    minleafs = sorted({m for m, _ in grid})
    epsilons = sorted({e for _, e in grid})
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["minleaf\\epsilon", *[repr(e) for e in epsilons]])
        for m in minleafs:
            row = [repr(m)]
            for e in epsilons:
                row.append(repr(grid[(m, e)]) if (m, e) in grid else "")
            writer.writerow(row)
    return out_path


def run_and_save(which: str, train: Dataset, test: Dataset, test_sensitive: SensitiveTable,
                 config: ExperimentConfig, out_dir, progress: bool) -> dict[str, Path]:
    """Run experiment "1", "2" or "2.1" and save its files under out_dir.

    Experiment 2.1 is experiment 2 plus the heatmap; its notes go to stderr.
    Returns the written paths by kind."""
    if which == "1":
        return run_experiment_1(train, test, test_sensitive, config, progress=progress).save(out_dir)
    if which not in ("2", "2.1"):
        raise ParameterError(f"unknown experiment {which!r}; use 1, 2 or 2.1")
    result = run_experiment_2(train, test, test_sensitive, config, progress=progress)
    paths = result.save(out_dir)
    if which == "2.1":
        grid, notes = run_experiment_2_1(result)
        paths["heatmap"] = save_heatmap(grid, Path(out_dir) / "experiment2_1_heatmap.csv")
        for note in notes:
            print(note, file=sys.stderr)
    return paths
