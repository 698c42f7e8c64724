import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privfair import metrics as M
from privfair.errors import MetricError


def preds_from_rates(rates, per_group=10):
    """PredictionSet with exact per-group acceptance rates."""
    y_pred, groups = [], []
    for g, rate in enumerate(rates):
        n_pos = int(round(rate * per_group))
        y_pred += [1] * n_pos + [0] * (per_group - n_pos)
        groups += [g] * per_group
    y_true = list(np.array(y_pred)[::-1])
    return M.PredictionSet(np.array(y_true), np.array(y_pred), np.array(groups), len(rates))


def random_preds(n, k, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return M.PredictionSet(
        rng.integers(0, 2, n), rng.integers(0, 2, n), rng.integers(0, k, n), k
    )


# ---------------------------------------------------------------------------
# sp_ratio_kary

def test_sp_ratio_min_over_max():
    assert M.sp_ratio_kary(preds_from_rates([0.3, 0.6])) == pytest.approx(0.5)


def test_sp_ratio_equal_rates_is_one():
    assert M.sp_ratio_kary(preds_from_rates([0.4, 0.4, 0.4])) == pytest.approx(1.0)


def test_sp_ratio_matches_pairwise_enumeration_oracle():
    # brute force: min over all ordered pairs of rate_a / rate_b
    preds = random_preds(400, 4, seed=5)
    rates = M.acceptance_rates(preds)
    oracle = min(
        rates[a] / rates[b] for a in range(4) for b in range(4) if a != b and rates[b] > 0
    )
    assert M.sp_ratio_kary(preds) == pytest.approx(oracle, abs=1e-12)


def test_sp_ratio_empty_group_errors():
    preds = M.PredictionSet(np.array([1, 0]), np.array([1, 0]), np.array([0, 0]), 2)
    with pytest.raises(MetricError):
        M.sp_ratio_kary(preds)


def test_sp_ratio_scale_free_under_duplication():
    preds = random_preds(300, 3, seed=9)
    doubled = M.PredictionSet(
        np.concatenate([preds.y_true, preds.y_true]),
        np.concatenate([preds.y_pred, preds.y_pred]),
        np.concatenate([preds.groups, preds.groups]),
        3,
    )
    assert M.sp_ratio_kary(doubled) == pytest.approx(M.sp_ratio_kary(preds), abs=1e-12)


# ---------------------------------------------------------------------------
# AASPE / UAR

def test_aaspe_identical_is_zero():
    assert M.aaspe([0.2, 0.8], [0.2, 0.8]) == 0.0


def test_aaspe_simple_value():
    assert M.aaspe([0.5], [0.6]) == pytest.approx(0.1)


def test_aaspe_matches_summation_oracle():
    rng = np.random.Generator(np.random.PCG64(31))
    a, b = rng.random(100), rng.random(100)
    oracle = sum(abs(x - y) for x, y in zip(a, b)) / 100
    assert M.aaspe(a, b) == pytest.approx(oracle, abs=1e-12)


@given(st.lists(st.floats(0, 1), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_aaspe_symmetric(values):
    other = [1.0 - v for v in values]
    assert M.aaspe(values, other) == pytest.approx(M.aaspe(other, values), abs=1e-12)


def test_aaspe_translation_bounded():
    rng = np.random.Generator(np.random.PCG64(37))
    a, b, c = rng.random(50), rng.random(50), rng.random(50)
    assert abs(M.aaspe(a, b) - M.aaspe(a, c)) <= float(np.max(np.abs(b - c))) + 1e-12


def test_uar_perfect_is_one():
    vals = [0.05, 0.15, 0.95, 0.3]
    assert M.uar(vals, vals) == 1.0


def test_uar_total_miss_is_zero():
    assert M.uar([0.85, 0.82], [0.75, 0.72]) == 0.0


def test_uar_matches_confusion_matrix_oracle():
    rng = np.random.Generator(np.random.PCG64(41))
    true = rng.random(20)
    est = np.clip(true + rng.normal(0, 0.15, 20), 0, 1)
    tc = [M.decile_class(v) for v in true]
    ec = [M.decile_class(v) for v in est]
    recalls = []
    for c in sorted(set(tc)):
        hits = sum(1 for t, e in zip(tc, ec) if t == c and e == c)
        total = sum(1 for t in tc if t == c)
        recalls.append(hits / total)
    assert M.uar(true, est) == pytest.approx(float(np.mean(recalls)), abs=1e-12)


def test_decile_class_float_artifacts():
    assert M.decile_class(0.7) == 7
    assert M.decile_class(1.0) == 9  # 1.0 joins the 0.9 class
    assert M.decile_class(0.0) == 0


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_uar_invariant_to_sample_order(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    true = rng.random(15)
    est = rng.random(15)
    perm = rng.permutation(15)
    assert M.uar(true, est) == pytest.approx(M.uar(true[perm], est[perm]), abs=1e-12)


def test_uar_minus_aaspe():
    vals = [0.1, 0.5, 0.9]
    assert M.uar_minus_aaspe(vals, vals) == pytest.approx(1.0)
    assert M.uar_minus_aaspe([0.9], [0.0]) >= -1.0


# ---------------------------------------------------------------------------
# Balanced accuracy

def test_balanced_accuracy_perfect():
    rng = np.random.Generator(np.random.PCG64(5))
    y = rng.integers(0, 2, 100)
    assert M.balanced_accuracy(y, y.copy()) == 1.0


def test_balanced_accuracy_constant_predictor_balanced_data():
    y = np.array([0, 1] * 50)
    assert M.balanced_accuracy(y, np.ones(100, int)) == pytest.approx(0.5)


def test_balanced_accuracy_matches_recall_oracle():
    preds = random_preds(300, 2, seed=51)
    r0 = np.mean(preds.y_pred[preds.y_true == 0] == 0)
    r1 = np.mean(preds.y_pred[preds.y_true == 1] == 1)
    want = float((r0 + r1) / 2)
    assert M.balanced_accuracy(preds.y_true, preds.y_pred) == pytest.approx(want, abs=1e-12)


def test_balanced_accuracy_single_class_errors():
    with pytest.raises(MetricError):
        M.balanced_accuracy(np.ones(10, int), np.ones(10, int))
