"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria that need the
canonical benchmark files (9a, 11) skip when the files are absent and run
against the committed fixture goldens instead (9b).

Criterion 2 (mechanism ordering) asserts, at eps = 0.5 over 400 audits per
mechanism: Laplace AASPE <= 0.05, exponential AASPE above Laplace's, and a
one-sided Welch test (Laplace less) at p < 0.05. An earlier form demanded
exponential AASPE >= 0.20, which the documented sampler cannot reach. That
sampler (`exponential_count`: weight exp(eps * u / 2), unit utility
sensitivity) adds two-sided geometric noise with p = exp(-eps / 2) to each
cell; its mean absolute value 2p / (1 - p^2) is 3.96 at eps = 0.5 against
1 / eps = 2 for Laplace, a ratio of 1.98, while 0.20 against at most 0.05
needs 4 or more. Measured audit errors are closer still (ratio 1.3-1.6),
because the uniform repair of negative minority cells gives Laplace a heavy
tail. At 50 runs the Laplace bound and a two-sided Welch clause held only at
the committed seeds, and a two-sided test also passes when the exponential
sampler is twice too sharp (AASPE 0.030 against Laplace's 0.038); the
one-sided test at 400 runs fails that sampler. The paper's own definition of
its exponential mechanism is not in the repo, so whether it used a flatter
one stays open.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as scipy_stats

from privfair import mechanisms as mech
from privfair import metrics as M
from privfair import tree as T
from privfair.curator import Curator, CuratorServer, InProcessClient, WireClient
from privfair.data import (
    DATASET_ENCODINGS,
    encode_sensitive,
    load_adult,
    load_compas,
    load_german,
    save_dataset,
    stratified_split,
)
from privfair.estimator import estimate_sp
from privfair.experiments import (
    ExperimentConfig,
    TreeSearchSpace,
    grid_search_tree,
    preset_config,
    run_experiment_2,
    welch_t_test,
)
from privfair.metrics import PredictionSet, aaspe, sp_ratio_kary
from privfair.synth import make_adult_surrogate, make_compas_surrogate

from conftest import (FIXTURES, dp_density_ratio_check, equalized_odds, make_dataset,
                      serve_in_background)

CANONICAL = Path("data")
HAVE_CANONICAL_ADULT = (CANONICAL / "adult.data").exists() and (CANONICAL / "adult.test").exists()
HAVE_CANONICAL_COMPAS = (CANONICAL / "compas-scores-two-years.csv").exists()
HAVE_CANONICAL_GERMAN = (CANONICAL / "german.data").exists()


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>4} [{status}] {name}" + (f" — {detail}" if detail else ""))
    assert ok, f"criterion {number} ({name}): {detail}"


# ---------------------------------------------------------------------------
# shared expensive fixtures

@pytest.fixture(scope="module")
def adult_surrogate():
    ds, sens = make_adult_surrogate(30162, seed=0)
    tr_idx, te_idx = stratified_split(ds.labels, seed=0)
    return ds.take(tr_idx), ds.take(te_idx), sens.take(te_idx)


@pytest.fixture(scope="module")
def surrogate_tree(adult_surrogate):
    # The audited tree uses the largest shape of the model-selection grid
    # (height 4, 12 leaves) rather than the CV winner: mechanism-magnitude
    # criteria compare noise behavior, and the CV winner on the surrogate is
    # smaller than the documented comparison point.
    train, _, _ = adult_surrogate
    config = T.LearnerConfig(max_height=4, minleaf_fraction=0.01, max_leaves=12,
                             feature_subsample="all", seed=0)
    return T.prune_redundant(T.fit(train, config))


def audit_errors(tree, test, table, epsilon, mechanism, runs, seed0, delta=0.0):
    sp_true = sp_ratio_kary(
        PredictionSet(test.labels, T.predict_dataset(tree, test), table.groups, table.k)
    )
    errors, invalids = [], []
    for run in range(runs):
        curator = Curator(test, table, total_epsilon=epsilon, seed=seed0 + run)
        est = estimate_sp(tree, InProcessClient(curator), epsilon, population=test.n,
                          mechanism=mechanism, delta=delta)
        errors.append(abs(sp_true - est.sp))
        invalids.append(est.invalid_ratio)
    return sp_true, errors, invalids


# ---------------------------------------------------------------------------

def test_criterion_1_oracle_equivalence(noiseless):
    t0 = time.time()
    rng = np.random.Generator(np.random.PCG64(1))
    checked = 0
    worst = 0.0
    attempts = 0
    while checked < 100 and attempts < 400:
        attempts += 1
        n = int(rng.integers(50, 501))
        k = int(rng.choice([2, 3, 4]))
        ds, table = make_dataset(n=n, seed=int(rng.integers(0, 2**31)), k=k,
                                 label_noise=float(rng.uniform(0.3, 1.2)))
        if (np.bincount(table.groups, minlength=k) == 0).any():
            continue
        frac = float(rng.uniform(max(0.02, 2.0 / n), 0.2))
        cfg = T.LearnerConfig(max_height=int(rng.integers(1, 6)), minleaf_fraction=frac,
                              seed=int(rng.integers(0, 2**31)), feature_subsample="sqrt")
        tree = T.prune_redundant(T.fit(ds, cfg))
        if not T.favorable_rules(tree):
            continue
        preds = PredictionSet(ds.labels, T.predict_dataset(tree, ds), table.groups, k)
        want = sp_ratio_kary(preds)
        curator = Curator(ds, table, total_epsilon=1.0, seed=0)
        est = estimate_sp(tree, InProcessClient(curator), 1.0, population=ds.n,
                          mechanism="laplace")
        worst = max(worst, abs(est.sp - want))
        checked += 1
    elapsed = time.time() - t0
    report(1, "oracle equivalence of the noiseless audit", checked == 100 and worst <= 1e-12
           and elapsed < 30, f"n={checked} worst|diff|={worst:.2e} in {elapsed:.1f}s")


def test_criterion_2_mechanism_ordering(adult_surrogate, surrogate_tree):
    # 400 runs per mechanism: at 50 the Laplace bound and the Welch clause
    # held only at the committed seeds (see the module docstring).
    t0 = time.time()
    _, test, sens = adult_surrogate
    table = encode_sensitive(sens, DATASET_ENCODINGS["adult"]["ethnicity"])
    _, lap_errors, _ = audit_errors(surrogate_tree, test, table, 0.5, "laplace", 400, 10_000)
    _, exp_errors, _ = audit_errors(surrogate_tree, test, table, 0.5, "exponential", 400, 20_000)
    lap_aaspe = float(np.mean(lap_errors))
    exp_aaspe = float(np.mean(exp_errors))
    _, p = welch_t_test(lap_errors, exp_errors, "less")
    elapsed = time.time() - t0
    ok = lap_aaspe <= 0.05 and exp_aaspe > lap_aaspe and p < 0.05 and elapsed < 300
    report(2, "mechanism ordering at eps=0.5 (laplace <= 0.05, laplace < exponential, "
              "one-sided welch p < 0.05)", ok,
           f"AASPE laplace={lap_aaspe:.4f} exponential={exp_aaspe:.4f} one-sided p={p:.2e} "
           f"in {elapsed:.0f}s")


def test_criterion_3_privacy_utility_tradeoff(adult_surrogate, surrogate_tree):
    _, test, sens = adult_surrogate
    table = encode_sensitive(sens, DATASET_ENCODINGS["adult"]["ethnicity"])
    # paired seeds: run i uses the same curator seed at both budgets
    _, high_eps_errors, _ = audit_errors(surrogate_tree, test, table, 0.5, "laplace", 50, 31_000)
    _, low_eps_errors, _ = audit_errors(surrogate_tree, test, table, 0.05, "laplace", 50, 31_000)
    _, p = welch_t_test(high_eps_errors, low_eps_errors, "less")
    ok = float(np.mean(high_eps_errors)) < float(np.mean(low_eps_errors)) and p < 0.05
    report(3, "laplace error strictly lower at eps=0.5 than eps=0.05", ok,
           f"mean@0.5={np.mean(high_eps_errors):.4f} mean@0.05={np.mean(low_eps_errors):.4f} "
           f"one-sided p={p:.2e}")


def test_criterion_4_invalid_ratio_trend():
    (train, _), (test, test_sens) = load_german(FIXTURES / "german.data")
    table = encode_sensitive(test_sens, DATASET_ENCODINGS["german"]["sex"])
    tree = T.prune_redundant(
        T.fit(train, T.LearnerConfig(max_height=3, minleaf_fraction=0.05, seed=1))
    )
    grid = preset_config("1").epsilons
    means = []
    for i, eps in enumerate(grid):
        _, _, invalids = audit_errors(tree, test, table, eps, "laplace", 25, 40_000 + 1000 * i)
        means.append(float(np.mean(invalids)))
    rho, p = scipy_stats.spearmanr(grid, means)
    report(4, "laplace invalid ratio decreases with the budget", rho < 0 and p < 0.05,
           f"spearman rho={rho:.3f} p={p:.2e} ratios={['%.2f' % m for m in means]}")


def test_criterion_5_query_count_bound(noiseless):
    rng = np.random.Generator(np.random.PCG64(5))
    checked = 0
    violations = 0
    attempts = 0
    heights_seen = set()
    while checked < 1000 and attempts < 4000:
        attempts += 1
        n = int(rng.integers(80, 501))
        ds, table = make_dataset(n=n, seed=int(rng.integers(0, 2**31)),
                                 label_noise=float(rng.uniform(0.3, 1.5)))
        cfg = T.LearnerConfig(max_height=int(rng.integers(1, 9)),
                              minleaf_fraction=float(rng.uniform(max(0.005, 2.0 / n), 0.15)),
                              seed=int(rng.integers(0, 2**31)),
                              feature_subsample=str(rng.choice(["sqrt", "all", "log2"])))
        pruned = T.prune_redundant(T.fit(ds, cfg))
        if pruned.n_leaves < 2:
            continue
        curator = Curator(ds, table, total_epsilon=1.0, seed=0)
        est = estimate_sp(pruned, InProcessClient(curator), 1.0, population=ds.n,
                          mechanism="laplace")
        lo, hi = T.query_count_bounds(pruned.height)
        heights_seen.add(pruned.height)
        if not (lo <= est.query_count <= hi):
            violations += 1
        checked += 1
    report(5, "query count within [2, 2^(h-1)+1] on 1000 pruned trees",
           checked == 1000 and violations == 0,
           f"checked={checked} violations={violations} heights={sorted(heights_seen)}")


def test_criterion_6_dp_analytic_checks():
    rng = np.random.Generator(np.random.PCG64(6))
    lap_ok = 0
    for _ in range(100):
        eps = float(rng.uniform(0.05, 2.0))
        c = float(rng.integers(0, 500))
        c2 = c + float(rng.choice([-1.0, 1.0]))
        if dp_density_ratio_check("laplace", mech.PrivacyParams(eps), (c, c2)):
            lap_ok += 1
    exp_ok = True
    for gap in (0, 1):  # utility gaps up to the unit sensitivity
        for eps in (0.1, 0.5, 1.0, 2.0):
            for c in (0, 3, 10):
                if not dp_density_ratio_check(
                    "exponential", mech.PrivacyParams(eps), (c, c + gap), domain_max=25
                ):
                    exp_ok = False
    report(6, "analytic DP bounds (laplace density ratio, exponential probability ratio)",
           lap_ok == 100 and exp_ok, f"laplace ok={lap_ok}/100 exponential ok={exp_ok}")


def test_criterion_7_gaussian_formula_and_band(adult_surrogate, surrogate_tree):
    sigma = mech.gaussian_sigma(mech.PrivacyParams(0.5, 1e-3))
    formula_ok = abs(sigma - 15.1059) <= 1e-3
    _, test, sens = adult_surrogate
    table = encode_sensitive(sens, DATASET_ENCODINGS["adult"]["ethnicity"])
    _, errors, _ = audit_errors(surrogate_tree, test, table, 0.65, "gaussian", 50, 50_000,
                                delta=1e-3)
    band = float(np.mean(errors))
    band_ok = 0.15 <= band <= 0.45
    report(7, "gaussian sigma formula and AASPE consistency band",
           formula_ok and band_ok,
           f"sigma={sigma:.6f} (|d|<=1e-3: {formula_ok}) AASPE@0.65={band:.4f} in [0.15,0.45]")


def test_criterion_8_experiment2_significance_pattern(adult_surrogate):
    train, test, sens = adult_surrogate
    table = encode_sensitive(sens, DATASET_ENCODINGS["adult"]["ethnicity"])
    config = ExperimentConfig(epsilons=(0.25,), runs=25, mechanisms=("laplace",),
                              seed=8, minleafs=(0.2,))
    result = run_experiment_2(train, test, table, config)
    strong = result.aggregates[0]
    strong_ok = strong["p_value"] < 0.01

    cds, csens = make_compas_surrogate(6172, seed=0)
    tr_idx, te_idx = stratified_split(cds.labels, seed=0)
    quat = encode_sensitive(
        csens.take(te_idx), DATASET_ENCODINGS["compas"]["sex-ethnicity"]
    )
    config2 = ExperimentConfig(epsilons=(1 / 20,), runs=25, mechanisms=("laplace",),
                               seed=8, minleafs=(1 / 1000,))
    result2 = run_experiment_2(cds.take(tr_idx), cds.take(te_idx), quat, config2)
    weak = result2.aggregates[0]
    weak_ok = not (weak["p_value"] < 0.05)  # matches the reported failure cells
    report(8, "experiment-2 significance pattern (strong cell yes, starved cell no)",
           strong_ok and weak_ok,
           f"adult eps=0.25 minleaf=0.2 p={strong['p_value']:.2e}; "
           f"quaternary eps=0.05 minleaf=0.001 p={weak['p_value']:.3f}")


def test_criterion_9_preprocessing_goldens(tmp_path):
    details = []
    if HAVE_CANONICAL_ADULT:
        (tr, _), (te, _) = load_adult(CANONICAL / "adult.data", CANONICAL / "adult.test")
        assert (tr.n, te.n) == (30162, 15060)
        details.append("adult canonical 30162/15060 ok")
    if HAVE_CANONICAL_COMPAS:
        (tr, _), (te, _) = load_compas(CANONICAL / "compas-scores-two-years.csv")
        assert (tr.n, te.n) == (4115, 2057)
        details.append("compas canonical 4115/2057 ok")
    if HAVE_CANONICAL_GERMAN:
        (tr, _), (te, _) = load_german(CANONICAL / "german.data")
        assert (tr.n, te.n) == (667, 333)
        details.append("german canonical 667/333 ok")

    ok = True
    for name, loader in [
        ("adult", lambda: load_adult(FIXTURES / "adult.data", FIXTURES / "adult.test")),
        ("compas", lambda: load_compas(FIXTURES / "compas.csv")),
        ("german", lambda: load_german(FIXTURES / "german.data")),
    ]:
        (train, sens), _ = loader()
        csv_path, meta_path = tmp_path / f"{name}.csv", tmp_path / f"{name}.meta"
        save_dataset(train, sens, csv_path, meta_path)
        same = (csv_path.read_bytes() == (FIXTURES / f"{name}_train_golden.csv").read_bytes()
                and meta_path.read_bytes() == (FIXTURES / f"{name}_train_golden.meta").read_bytes())
        ok = ok and same
    details.append("fixture goldens byte-match" if ok else "fixture goldens DIFFER")
    report(9, "preprocessing goldens", ok, "; ".join(details))


def test_criterion_10_exact_metric_oracles():
    rng = np.random.Generator(np.random.PCG64(10))
    n, k = 1000, 4
    y_true = rng.integers(0, 2, n)
    y_pred = rng.integers(0, 2, n)
    groups = rng.integers(0, k, n)
    preds = M.PredictionSet(y_true, y_pred, groups, k)

    rates = [float(np.mean(y_pred[groups == g])) for g in range(k)]
    sp_oracle = min(rates[a] / rates[b] for a in range(k) for b in range(k)
                    if a != b and rates[b] > 0)
    ok_sp = abs(M.sp_ratio_kary(preds) - sp_oracle) <= 1e-10

    groups2 = rng.integers(0, 2, n)
    preds2 = M.PredictionSet(y_true, y_pred, groups2, 2)
    gaps = equalized_odds(preds2)
    ok_eo = True
    for y in (0, 1):
        a1 = float(np.mean(y_pred[(y_true == y) & (groups2 == 1)]))
        a0 = float(np.mean(y_pred[(y_true == y) & (groups2 == 0)]))
        ok_eo = ok_eo and abs(gaps[y] - (a1 - a0)) <= 1e-10

    true_sps = rng.random(1000)
    est_sps = np.clip(true_sps + rng.normal(0, 0.2, 1000), 0, 1)
    tc = [M.decile_class(v) for v in true_sps]
    ec = [M.decile_class(v) for v in est_sps]
    recalls = [
        np.mean([e == c for t, e in zip(tc, ec) if t == c]) for c in sorted(set(tc))
    ]
    ok_uar = abs(M.uar(true_sps, est_sps) - float(np.mean(recalls))) <= 1e-10

    aaspe_oracle = sum(abs(a - b) for a, b in zip(true_sps, est_sps)) / 1000
    ok_aaspe = abs(M.aaspe(true_sps, est_sps) - aaspe_oracle) <= 1e-10

    report(10, "exact metrics match brute-force oracles on 1000 random instances",
           ok_sp and ok_eo and ok_uar and ok_aaspe,
           f"sp={ok_sp} eqodds={ok_eo} uar={ok_uar} aaspe={ok_aaspe}")


@pytest.mark.skipif(not HAVE_CANONICAL_ADULT, reason="canonical Adult files not present")
def test_criterion_11_table4_sp_values():
    (train, _), (test, test_sens) = load_adult(CANONICAL / "adult.data", CANONICAL / "adult.test")
    tree, _ = grid_search_tree(train, TreeSearchSpace(), folds=5, seed=0)
    tree = T.prune_redundant(tree)
    table = encode_sensitive(test_sens, DATASET_ENCODINGS["adult"]["ethnicity"])
    sp = sp_ratio_kary(
        PredictionSet(test.labels, T.predict_dataset(tree, test), table.groups, table.k)
    )
    report(11, "canonical Adult ethnicity parity near 0.65", abs(sp - 0.65) <= 0.10,
           f"sp={sp:.4f}")


def test_criterion_12_transport_equivalence():
    (train, _), (test, test_sens) = load_german(FIXTURES / "german.data")
    table = encode_sensitive(test_sens, DATASET_ENCODINGS["german"]["sex"])
    tree = T.prune_redundant(
        T.fit(train, T.LearnerConfig(max_height=3, minleaf_fraction=0.05, seed=1))
    )

    curator_a = Curator(test, table, total_epsilon=0.5, seed=77)
    est_a = estimate_sp(tree, InProcessClient(curator_a), 0.5, population=test.n,
                        mechanism="laplace")

    curator_b = Curator(test, table, total_epsilon=0.5, seed=77)
    server = CuratorServer(curator_b, "127.0.0.1", 0)
    serve_in_background(server)
    host, port = server.address
    try:
        with WireClient(host, port) as client:
            est_b = estimate_sp(tree, client, 0.5, population=test.n, mechanism="laplace")
    finally:
        server.shutdown()
        server.server_close()
    report(12, "in-process and wire audits produce identical estimates", est_a == est_b,
           f"sp={est_a.sp:.6f} fields identical={est_a == est_b}")
