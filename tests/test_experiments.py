import csv
import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from privfair import experiments as X
from privfair import tree as T
from privfair.data import Dataset, encode_sensitive
from privfair.errors import MetricError, ParameterError
from privfair.metrics import aaspe, balanced_accuracy

from conftest import make_dataset, random_mixed_dataset


def exp1_config(**kw):
    defaults = dict(epsilons=(0.1, 0.3), runs=6, mechanisms=("laplace", "exponential"), seed=5)
    defaults.update(kw)
    return X.ExperimentConfig(**defaults)


def exp2_config(**kw):
    defaults = dict(
        epsilons=(0.1, 0.25), runs=5, mechanisms=("laplace",), seed=5,
        minleafs=(0.05, 0.2), exp2_max_height=4,
    )
    defaults.update(kw)
    return X.ExperimentConfig(**defaults)


@pytest.fixture(scope="module")
def splits():
    train_ds, train_table = make_dataset(n=400, seed=2)
    test_ds, test_table = make_dataset(n=300, seed=3)
    return train_ds, test_ds, test_table


# ---------------------------------------------------------------------------
# welch_t_test

def test_welch_identical_samples():
    t, p = X.welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert t == pytest.approx(0.0)
    assert p == pytest.approx(1.0)


def test_welch_frozen_reference_value():
    # frozen independently computed reference for a={1,2,3}, b={2,3,4}
    t, p = X.welch_t_test([1, 2, 3], [2, 3, 4])
    assert t == pytest.approx(-1.224744871391589, abs=1e-9)
    assert p == pytest.approx(0.2878641347266908, abs=1e-6)


def test_welch_matches_scipy_oracle():
    rng = np.random.Generator(np.random.PCG64(3))
    for _ in range(10):
        a = rng.normal(0, 1, 12)
        b = rng.normal(0.4, 2, 9)
        t, p = X.welch_t_test(a, b)
        ref = scipy_stats.ttest_ind(a, b, equal_var=False)
        assert t == pytest.approx(float(ref.statistic), abs=1e-10)
        assert p == pytest.approx(float(ref.pvalue), abs=1e-10)


def test_welch_one_sided_halves_matching_direction():
    a, b = [1.0, 2.0, 3.0, 2.5], [3.0, 4.0, 5.0, 4.5]
    t2, p2 = X.welch_t_test(a, b, "two-sided")
    t1, p1 = X.welch_t_test(a, b, "less")
    assert t1 == pytest.approx(t2)
    assert p1 == pytest.approx(p2 / 2.0, abs=1e-12)


def test_welch_degenerate_both_zero_variance():
    with pytest.raises(MetricError):
        X.welch_t_test([1.0, 1.0], [2.0, 2.0])


def test_welch_needs_two_values():
    with pytest.raises(MetricError):
        X.welch_t_test([1.0], [2.0, 3.0])


@pytest.mark.parametrize("alternative", ["greater", "two_sided"])
def test_welch_unknown_alternative_is_refused(alternative):
    with pytest.raises(ParameterError):
        X.welch_t_test([1.0, 2.0, 3.0], [2.0, 3.0, 5.0], alternative)


# ---------------------------------------------------------------------------
# grid search

def test_search_space_has_ninety_tuples():
    assert len(X.TreeSearchSpace().tuples()) == 90


def test_grid_search_single_tuple(splits):
    train_ds, _, _ = splits
    space = X.TreeSearchSpace(heights=(3,), leaf_counts=(6,), feature_modes=("all",))
    tree, report = X.grid_search_tree(train_ds, space, seed=1)
    assert report.chosen == (3, 6, "all")
    assert tree.height <= 3 and tree.n_leaves <= 6


def test_grid_search_separable_data():
    rng = np.random.Generator(np.random.PCG64(7))
    n = 400
    x = rng.normal(0, 1, n)
    y = (x > 0).astype(int)
    from privfair.data import Dataset

    ds = Dataset(np.arange(n), ("x",), {"x": "numeric"}, {"x": x}, y)
    space = X.TreeSearchSpace(heights=(1, 2), leaf_counts=(2, 3), feature_modes=("all",))
    tree, report = X.grid_search_tree(ds, space, seed=2)
    assert report.cv_score >= 0.95


def test_grid_search_deterministic(splits):
    train_ds, _, _ = splits
    space = X.TreeSearchSpace(heights=(2, 3), leaf_counts=(4, 6), feature_modes=("sqrt",))
    t1, r1 = X.grid_search_tree(train_ds, space, seed=9)
    t2, r2 = X.grid_search_tree(train_ds, space, seed=9)
    assert t1 == t2 and r1.chosen == r2.chosen


def test_grid_search_skips_infeasible_tuples():
    ds, _ = make_dataset(n=60, seed=5)
    space = X.TreeSearchSpace(heights=(2,), leaf_counts=(3,), feature_modes=("all",),
                              minleaf_fraction=0.03)
    # folds of 48 rows: 0.03*48 = 1.44 >= 1, feasible; shrink to force a skip
    small = ds.take(np.arange(30))
    space_tight = X.TreeSearchSpace(heights=(2,), leaf_counts=(3,), feature_modes=("all",),
                                    minleaf_fraction=0.03)
    with pytest.raises(ParameterError):
        X.grid_search_tree(small, space_tight, folds=5, seed=1)


def reference_grid_search(data, space, folds=5, seed=0):
    """The grid search with the tuple loop outside the fold loop: every tuple
    takes, and so encodes, each fold afresh, and fits a single-class
    validation fold before it drops its undefined score."""
    fold_idx = X.stratified_folds(data.labels, folds, seed)
    evaluated = []
    causes = set()
    best = None
    for params in space.tuples():
        height, leaves, mode = params
        scores = []
        cause = "no validation fold holds both classes"
        for fold_no, (train_idx, val_idx) in enumerate(fold_idx):
            train = data.take(train_idx)
            if space.minleaf_fraction * train.n < 1:
                scores, cause = [], "a training fold is smaller than the minleaf requirement"
                break
            config = T.LearnerConfig(
                max_height=height, minleaf_fraction=space.minleaf_fraction, max_leaves=leaves,
                feature_subsample=mode, criterion=space.criterion,
                seed=seed * 1009 + fold_no,
            )
            tree = T.fit(train, config)
            val = data.take(val_idx)
            try:
                scores.append(balanced_accuracy(val.labels, T.predict_dataset(tree, val)))
            except MetricError:
                continue
        if not scores:
            causes.add(cause)
            continue
        mean_score = float(np.mean(scores))
        evaluated.append((params, mean_score))
        if best is None or mean_score > best[0]:
            best = (mean_score, params)
    if best is None:
        raise ParameterError("no grid tuple could be evaluated: " + "; ".join(sorted(causes)))
    score, (height, leaves, mode) = best
    final = T.fit(data, T.LearnerConfig(
        max_height=height, minleaf_fraction=space.minleaf_fraction, max_leaves=leaves,
        feature_subsample=mode, criterion=space.criterion, seed=seed,
    ))
    return final, X.GridSearchReport(tuple(evaluated), (height, leaves, mode), score)


def search_outcome(search, data, space, folds, seed):
    try:
        tree, report = search(data, space, folds=folds, seed=seed)
    except ParameterError as exc:
        return "ParameterError", str(exc)
    return T.to_record(tree), report.evaluated, report.chosen, report.cv_score


def assert_search_matches_reference(data, space, folds, seed):
    """Both searches on their own unencoded copy of data; returns the outcome."""
    want = search_outcome(reference_grid_search, data.take(np.arange(data.n)), space, folds, seed)
    got = search_outcome(X.grid_search_tree, data.take(np.arange(data.n)), space, folds, seed)
    assert got == want
    return got


def random_search_space(rng, n):
    def some(pool):
        return tuple(rng.choice(pool, size=int(rng.integers(1, 3)), replace=False).tolist())

    return X.TreeSearchSpace(
        heights=some([1, 2, 3, 4]), leaf_counts=some([2, 3, 5, 8]),
        feature_modes=some(["all", "sqrt", "log2"]),
        minleaf_fraction=float(rng.uniform(0.5 / n, 0.2)),
        criterion=str(rng.choice(["entropy", "gini"])),
    )


def test_grid_search_matches_tuple_outer_reference():
    rng = np.random.default_rng(20261018)
    raised = 0
    for _ in range(120):
        data = random_mixed_dataset(rng)
        space = random_search_space(rng, data.n)
        got = assert_search_matches_reference(
            data, space, folds=int(rng.integers(2, 6)), seed=int(rng.integers(0, 1000)))
        raised += got[0] == "ParameterError"
    assert 5 <= raised <= 60


def test_grid_search_single_class_validation_fold_matches_reference(monkeypatch):
    # 3 positives over 5 folds: two validation folds hold negatives only
    rng = np.random.default_rng(5)
    n = 60
    labels = np.zeros(n, dtype=int)
    labels[[4, 17, 40]] = 1
    x = rng.normal(0, 1, n) + labels
    c = rng.choice(["a", "b", "c"], n)
    data = Dataset(np.arange(n), ("x", "c"), {"x": "numeric", "c": "categorical"},
                   {"x": x, "c": c}, labels)
    space = X.TreeSearchSpace(heights=(1, 2), leaf_counts=(2, 3), feature_modes=("all",),
                              minleaf_fraction=0.05)
    folds = X.stratified_folds(labels, 5, 3)
    assert sum(labels[val].all() or not labels[val].any() for _, val in folds) == 2
    fits = []
    monkeypatch.setattr(X, "fit", lambda *a: fits.append(a) or T.fit(*a))
    _, evaluated, _, _ = assert_search_matches_reference(data, space, 5, 3)
    assert [params for params, _ in evaluated] == space.tuples()
    assert all(isinstance(score, float) for _, score in evaluated)
    assert len(fits) == 3 * len(space.tuples()) + 1  # the 3 two-class folds and the refit


def test_grid_search_every_tuple_below_minleaf_matches_reference():
    ds, _ = make_dataset(n=30, seed=5)
    space = X.TreeSearchSpace(heights=(2, 3), leaf_counts=(3, 4), feature_modes=("all", "sqrt"),
                              minleaf_fraction=0.03)  # 0.03 * 24 rows per training fold < 1
    assert assert_search_matches_reference(ds, space, 5, 1) == (
        "ParameterError",
        "no grid tuple could be evaluated: a training fold is smaller than the minleaf requirement")


def test_grid_search_no_two_class_validation_fold_matches_reference():
    ds, _ = make_dataset(n=200, seed=5)
    ds = Dataset(ds.instance_ids, ds.feature_names, ds.feature_kinds, ds.columns,
                 np.zeros(ds.n, dtype=int))
    space = X.TreeSearchSpace(heights=(2,), leaf_counts=(3, 4), feature_modes=("all",))
    assert assert_search_matches_reference(ds, space, 5, 1) == (
        "ParameterError", "no grid tuple could be evaluated: no validation fold holds both classes")


# ---------------------------------------------------------------------------
# experiment 1

@pytest.fixture(scope="module")
def exp1_result(splits):
    train_ds, test_ds, test_table = splits
    space = X.TreeSearchSpace(heights=(3,), leaf_counts=(8,), feature_modes=("all",))
    return X.run_experiment_1(train_ds, test_ds, test_table, exp1_config(), search_space=space)


def test_exp1_record_counts(exp1_result):
    assert len(exp1_result.records) == 2 * 2 * 6  # mechanisms x epsilons x runs


def test_exp1_reproducible(splits, exp1_result):
    train_ds, test_ds, test_table = splits
    space = X.TreeSearchSpace(heights=(3,), leaf_counts=(8,), feature_modes=("all",))
    again = X.run_experiment_1(train_ds, test_ds, test_table, exp1_config(), search_space=space)
    assert again.records == exp1_result.records


def test_exp1_aggregates_recomputable(exp1_result):
    for agg in exp1_result.aggregates:
        if agg["mechanism"] not in ("laplace", "exponential"):
            continue
        runs = exp1_result.cell_records(mechanism=agg["mechanism"], epsilon=agg["epsilon"])
        want = aaspe([r["sp_true"] for r in runs], [r["sp_est"] for r in runs])
        assert agg["aaspe"] == pytest.approx(want, abs=1e-12)


def test_exp1_has_welch_rows(exp1_result):
    rows = [a for a in exp1_result.aggregates if a["mechanism"] == "laplace-vs-exponential"]
    assert len(rows) == 2
    assert all(math.isfinite(r["p_value"]) for r in rows)


def test_exp1_noiseless_stub_zero_error(splits, noiseless):
    train_ds, test_ds, test_table = splits
    space = X.TreeSearchSpace(heights=(3,), leaf_counts=(8,), feature_modes=("all",))
    config = exp1_config(mechanisms=("laplace",), runs=2, epsilons=(0.5,))
    result = X.run_experiment_1(train_ds, test_ds, test_table, config, search_space=space)
    assert all(r["abs_error"] == pytest.approx(0.0, abs=1e-12) for r in result.records)


def test_exp1_laplace_error_improves_with_budget(splits):
    train_ds, test_ds, test_table = splits
    space = X.TreeSearchSpace(heights=(3,), leaf_counts=(8,), feature_modes=("all",))
    config = exp1_config(mechanisms=("laplace",), runs=25, epsilons=(0.05, 0.5))
    result = X.run_experiment_1(train_ds, test_ds, test_table, config, search_space=space)
    low = [r["abs_error"] for r in result.cell_records(epsilon=0.05)]
    high = [r["abs_error"] for r in result.cell_records(epsilon=0.5)]
    assert np.mean(high) < np.mean(low)


# ---------------------------------------------------------------------------
# experiment 2 and 2.1

@pytest.fixture(scope="module")
def exp2_result(splits):
    train_ds, test_ds, test_table = splits
    return X.run_experiment_2(train_ds, test_ds, test_table, exp2_config())


def test_exp2_record_counts(exp2_result):
    assert len(exp2_result.records) == 2 * 2 * 5


def test_exp2_baseline_errors_well_formed(exp2_result):
    for r in exp2_result.records:
        assert 0.0 <= r["baseline"] < 1.0
        assert r["baseline_error"] == pytest.approx(abs(r["sp_true"] - r["baseline"]))


def test_exp2_baseline_independent_of_tree(splits):
    train_ds, test_ds, test_table = splits
    a = X.run_experiment_2(train_ds, test_ds, test_table, exp2_config(exp2_max_height=2))
    b = X.run_experiment_2(train_ds, test_ds, test_table, exp2_config(exp2_max_height=6))
    assert [r["baseline"] for r in a.records] == [r["baseline"] for r in b.records]


def test_exp2_aggregates_have_one_sided_p(exp2_result):
    for agg in exp2_result.aggregates:
        assert agg["comparison"] == "audit-less-than-baseline"
        assert 0.0 <= agg["p_value"] <= 1.0


def test_exp2_reproducible(splits, exp2_result):
    train_ds, test_ds, test_table = splits
    again = X.run_experiment_2(train_ds, test_ds, test_table, exp2_config())
    assert again.records == exp2_result.records


def test_exp2_1_heatmap(exp2_result):
    grid, notes = X.run_experiment_2_1(exp2_result)
    assert len(grid) == 4
    assert not notes
    for value in grid.values():
        assert -1.0 <= value <= 1.0


def test_exp2_1_perfect_stub_cells_are_one(splits, noiseless):
    train_ds, test_ds, test_table = splits
    config = exp2_config(mechanisms=("laplace",), runs=3)
    result = X.run_experiment_2(train_ds, test_ds, test_table, config)
    grid, _ = X.run_experiment_2_1(result)
    for value in grid.values():
        assert value == pytest.approx(1.0, abs=1e-9)


def test_exp2_1_excludes_thin_cells(exp2_result):
    thinned = X.ExperimentResult(
        "experiment2",
        [r for r in exp2_result.records if not (r["minleaf"] == 0.05 and r["run"] > 0)],
        [], {},
    )
    grid, notes = X.run_experiment_2_1(thinned)
    assert any("excluded" in n for n in notes)


# ---------------------------------------------------------------------------
# exports

def test_save_and_reload_results(tmp_path, exp1_result):
    paths = exp1_result.save(tmp_path)
    with open(paths["records"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(exp1_result.records)
    # stored aggregates equal recomputation from the stored records
    by_cell = {}
    for row in rows:
        if row["failed"] == "True":
            continue
        key = (row["mechanism"], row["epsilon"])
        by_cell.setdefault(key, []).append(
            (float(row["sp_true"]), float(row["sp_est"]))
        )
    with open(paths["aggregates"], newline="") as fh:
        for agg in csv.DictReader(fh):
            key = (agg["mechanism"], agg["epsilon"])
            if key not in by_cell:
                continue
            pairs = by_cell[key]
            want = aaspe([a for a, _ in pairs], [b for _, b in pairs])
            assert float(agg["aaspe"]) == pytest.approx(want, abs=1e-12)
    manifest = paths["manifest"].read_text()
    assert "experiment1" in manifest


def test_save_heatmap_matrix(tmp_path, exp2_result):
    grid, _ = X.run_experiment_2_1(exp2_result)
    path = X.save_heatmap(grid, tmp_path / "heat.csv")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "minleaf\\epsilon"
    assert len(rows) == 3  # header + 2 minleaf rows
    assert len(rows[0]) == 3  # label + 2 epsilons
    assert float(rows[1][1]) == pytest.approx(grid[(0.05, 0.1)])


def test_scale_grids():
    desk1, paper1 = X.preset_config("1"), X.preset_config("1", paper_scale=True)
    desk2, paper2 = X.preset_config("2"), X.preset_config("2", paper_scale=True)
    assert len(desk1.epsilons) == 10
    assert len(paper1.epsilons) == 40
    assert paper1.epsilons[-1] == pytest.approx(0.5)
    assert len(desk2.minleafs) == 20
    assert len(paper2.minleafs) == 80
    assert paper2.minleafs[-1] == pytest.approx(0.2)
    assert desk2.epsilons == paper2.epsilons == (0.05, 0.1, 0.15, 0.2, 0.25)
    assert (desk1.runs, paper1.runs, desk2.mechanisms) == (25, 50, ("laplace",))
    assert X.preset_config("2.1", seed=3) == X.preset_config("2", seed=3)
    with pytest.raises(ParameterError):
        X.preset_config("3")


def test_config_manifest_round_trip():
    config = exp2_config(policy=X.InvalidPolicy("zero", "total-minus-valid"), delta=1e-5)
    assert X.config_from_manifest(X._config_manifest("experiment2", config)) == config


def test_config_requires_two_runs():
    with pytest.raises(ParameterError):
        X.ExperimentConfig(epsilons=(0.1,), runs=1)


def test_exp2_1_hotspot_on_adult_scale_data():
    # compliance detection peaks at generous budgets and chunky leaves: the
    # best cell lies at eps >= 3/20 and minleaf >= 7/100
    from privfair.data import DATASET_ENCODINGS, stratified_split
    from privfair.synth import make_adult_surrogate

    ds, sens = make_adult_surrogate(30162, seed=0)
    tr_idx, te_idx = stratified_split(ds.labels, seed=0)
    table = encode_sensitive(sens.take(te_idx), DATASET_ENCODINGS["adult"]["ethnicity"])
    config = X.ExperimentConfig(
        epsilons=(0.05, 0.15, 0.25), runs=10, mechanisms=("laplace",), seed=6,
        minleafs=(0.01, 0.05, 0.1, 0.16),
    )
    result = X.run_experiment_2(ds.take(tr_idx), ds.take(te_idx), table, config)
    grid, _ = X.run_experiment_2_1(result)
    best = max(grid, key=grid.get)
    assert best[1] >= 3 / 20
    assert best[0] >= 7 / 100
