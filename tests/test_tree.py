import json
import math
from dataclasses import replace

import numpy as np
import pytest

from privfair import tree as T
from privfair.data import Dataset
from privfair.errors import DataError, ParameterError, RoutingError

from conftest import make_dataset, random_mixed_dataset, reference_predict


def tiny_dataset(xs, labels, kinds=None):
    xs = {name: np.asarray(col) for name, col in xs.items()}
    names = tuple(xs)
    kinds = kinds or {
        name: ("numeric" if np.issubdtype(col.dtype, np.number) else "categorical")
        for name, col in xs.items()
    }
    n = len(labels)
    return Dataset(np.arange(n), names, kinds, xs, np.asarray(labels))


def random_instances(ds, n, seed):
    """n random rows over ds's features: numeric values spread a little past
    the column's range, categories drawn from those present."""
    rng = np.random.Generator(np.random.PCG64(seed))
    cols = {}
    for name in ds.feature_names:
        col = ds.columns[name]
        if ds.feature_kinds[name] == "numeric":
            cols[name] = rng.uniform(float(col.min()) - 1, float(col.max()) + 1, n)
        else:
            cols[name] = rng.choice(np.unique(col), n)
    return Dataset(np.arange(n), ds.feature_names, dict(ds.feature_kinds), cols, np.zeros(n, dtype=int))


# ---------------------------------------------------------------------------
# fit

def test_fit_pure_labels_single_leaf():
    ds = tiny_dataset({"x": [1.0, 2.0, 3.0, 4.0]}, [1, 1, 1, 1])
    tree = T.fit(ds, T.LearnerConfig(max_height=3, minleaf_fraction=0.25))
    assert isinstance(tree.root, T.Leaf)
    assert tree.root.klass == 1
    assert tree.height == 0


def test_fit_xor_reaches_full_accuracy():
    # exhaustive check: every single split of 4-point XOR has zero gain, so
    # the zero-gain fallback must kick in; two levels then solve it exactly
    ds = tiny_dataset(
        {"a": ["0", "0", "1", "1"], "b": ["0", "1", "0", "1"]},
        [0, 1, 1, 0],
    )
    tree = T.fit(ds, T.LearnerConfig(max_height=2, minleaf_fraction=0.25))
    assert tree.height == 2
    preds = T.predict_dataset(tree, ds)
    assert (preds == ds.labels).all()


def test_fit_max_leaves_respected():
    ds, _ = make_dataset(n=300, seed=1)
    tree = T.fit(ds, T.LearnerConfig(max_height=6, minleaf_fraction=0.01, max_leaves=3))
    assert tree.n_leaves <= 3


def test_fit_empty_dataset_errors():
    ds = tiny_dataset({"x": np.array([], dtype=float)}, np.array([], dtype=int))
    with pytest.raises(DataError):
        T.fit(ds, T.LearnerConfig(max_height=2, minleaf_fraction=0.1))


def test_fit_constant_features_single_leaf():
    ds = tiny_dataset({"x": [3.0] * 10, "c": ["a"] * 10}, [0, 1] * 5)
    tree = T.fit(ds, T.LearnerConfig(max_height=3, minleaf_fraction=0.1))
    assert isinstance(tree.root, T.Leaf)


def test_fit_deterministic_under_seed():
    ds, _ = make_dataset(n=250, seed=8)
    cfg = T.LearnerConfig(max_height=4, minleaf_fraction=0.02, feature_subsample="sqrt", seed=5)
    assert T.fit(ds, cfg) == T.fit(ds, cfg)


def test_fit_minleaf_counts_respected():
    ds, _ = make_dataset(n=200, seed=2)
    frac = 0.05
    tree = T.fit(ds, T.LearnerConfig(max_height=6, minleaf_fraction=frac))
    minimum = math.ceil(frac * ds.n)
    leaves = []

    def walk(node):
        if isinstance(node, T.Leaf):
            leaves.append(node.count)
        else:
            walk(node.left)
            walk(node.right)

    walk(tree.root)
    assert all(c >= minimum for c in leaves)
    assert sum(leaves) == ds.n


def test_fit_height_capped():
    ds, _ = make_dataset(n=400, seed=3)
    for h in (1, 2, 3):
        tree = T.fit(ds, T.LearnerConfig(max_height=h, minleaf_fraction=0.01))
        assert tree.height <= h


def test_fit_gain_strictly_positive_on_generic_data():
    # no exact ties on continuous data: every chosen split must improve purity
    rng = np.random.Generator(np.random.PCG64(17))
    n = 300
    x = rng.normal(0, 1, (n, 2))
    y = (x[:, 0] + 0.5 * x[:, 1] > 0).astype(int)
    ds = tiny_dataset({"u": x[:, 0], "v": x[:, 1]}, y)
    tree = T.fit(ds, T.LearnerConfig(max_height=5, minleaf_fraction=0.02))

    def entropy(labels):
        if len(labels) == 0:
            return 0.0
        p = labels.mean()
        if p in (0.0, 1.0):
            return 0.0
        return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))

    def check(node, idx):
        if isinstance(node, T.Leaf):
            return
        mask = node.clause.mask(ds)[idx]
        li, ri = idx[mask], idx[~mask]
        parent = entropy(ds.labels[idx]) * len(idx)
        child = entropy(ds.labels[li]) * len(li) + entropy(ds.labels[ri]) * len(ri)
        assert parent - child > 0
        check(node.left, li)
        check(node.right, ri)

    check(tree.root, np.arange(n))


def test_fit_never_cuts_at_nan():
    # a cut between the last finite value and the NaNs had threshold NaN and
    # an empty left child, and was chosen again on the right child
    n = 60
    x = np.random.Generator(np.random.PCG64(3)).normal(0, 2, n)
    x[::5] = np.nan
    ds = tiny_dataset({"x": x}, np.isnan(x).astype(int))
    tree = T.fit(ds, T.LearnerConfig(max_height=3, minleaf_fraction=0.05))
    for node, _ in T.walk(tree.root):
        if isinstance(node, T.Branch):
            assert math.isfinite(node.clause.value)
        else:
            assert node.count > 0


# ---------------------------------------------------------------------------
# predict

def test_predict_single_leaf():
    ds = tiny_dataset({"x": [1.0, 2.0, 3.0, 4.0]}, [1, 1, 1, 1])
    tree = T.fit(ds, T.LearnerConfig(max_height=1, minleaf_fraction=0.3))
    assert T.predict_dataset(tree, tiny_dataset({"x": [123.0]}, [0])).tolist() == [1]


def test_predict_clause_semantics():
    root = T.Branch(
        T.SplitClause("x", "numeric", 5.0),
        T.Leaf(1, 10, (0, 10)),
        T.Leaf(0, 10, (10, 0)),
        20,
    )
    tree = T.DecisionTree(root, {"x": "numeric"}, 20)
    probe = tiny_dataset({"x": [3.0, 5.0, math.nan]}, [0, 0, 0])
    assert T.predict_dataset(tree, probe).tolist() == [1, 0, 0]


def test_predict_missing_feature_errors():
    root = T.Branch(
        T.SplitClause("x", "numeric", 5.0), T.Leaf(1, 1, (0, 1)), T.Leaf(0, 1, (1, 0)), 2
    )
    tree = T.DecisionTree(root, {"x": "numeric"}, 2)
    with pytest.raises(RoutingError):
        T.predict_dataset(tree, tiny_dataset({"y": [1.0]}, [0]))


def test_predict_reads_no_feature_of_an_all_unfavourable_subtree():
    # the right subtree splits on y but has no favourable leaf, so a table
    # without y is still predicted, as it is on the pruned tree
    unfavourable = T.Branch(T.SplitClause("y", "numeric", 0.0),
                            T.Leaf(0, 1, (1, 0)), T.Leaf(0, 1, (1, 0)), 2)
    root = T.Branch(T.SplitClause("x", "numeric", 5.0), T.Leaf(1, 1, (0, 1)), unfavourable, 3)
    tree = T.DecisionTree(root, {"x": "numeric", "y": "numeric"}, 3)
    probe = tiny_dataset({"x": [3.0, 7.0, 9.0]}, [0, 0, 0])
    assert T.predict_dataset(tree, probe).tolist() == [1, 0, 0]
    assert T.predict_dataset(T.prune_redundant(tree), probe).tolist() == [1, 0, 0]


def leaf_rules(tree):
    """(clause tuple, class) of every leaf, depth first."""
    return [(path, node.klass) for node, path in T.walk(tree.root) if isinstance(node, T.Leaf)]


def test_predict_matches_exactly_one_rule():
    ds, _ = make_dataset(n=300, seed=5)
    tree = T.fit(ds, T.LearnerConfig(max_height=4, minleaf_fraction=0.02))
    rules = leaf_rules(tree)
    probe = random_instances(ds, 200, seed=7)
    masks = [T.rule_mask(clauses, probe) for clauses, _ in rules]
    assert (np.sum(masks, axis=0) == 1).all()
    want = np.zeros(probe.n, dtype=int)
    for (_, klass), mask in zip(rules, masks):
        want[mask] = klass
    assert np.array_equal(T.predict_dataset(tree, probe), want)
    assert T.favorable_rules(tree) == [clauses for clauses, klass in rules if klass == 1]


@pytest.mark.parametrize("value", ["0", "b0", "zz", "a ", ""])
def test_categorical_value_absent_from_column_matches_no_row(value):
    # "0" sorts before every category, "b0" between two, "zz" after all
    ds = tiny_dataset({"c": ["a", "b", "c", "a"], "x": [1.0, 2.0, 3.0, 4.0]}, [0, 1, 1, 0])
    clause = T.SplitClause("c", "categorical", value)
    assert not clause.mask(ds).any() and len(clause.mask(ds)) == 4
    tree = T.DecisionTree(T.Branch(clause, T.Leaf(1, 1, (0, 1)), T.Leaf(0, 3, (3, 0)), 4),
                          {"c": "categorical", "x": "numeric"}, 4)
    assert T.predict_dataset(tree, ds).tolist() == [0, 0, 0, 0]


# ---------------------------------------------------------------------------
# rule extraction: a rule is its root-to-leaf clause tuple

def test_extract_rules_single_leaf_tautology():
    ds = tiny_dataset({"x": [1.0, 2.0, 3.0, 4.0]}, [1, 1, 1, 1])
    tree = T.fit(ds, T.LearnerConfig(max_height=1, minleaf_fraction=0.3))
    assert leaf_rules(tree) == [((), 1)]
    assert T.favorable_rules(tree) == [()]
    assert T.rule_mask((), tiny_dataset({"x": [-999.0]}, [0])).all()


def test_extract_rules_balanced_tree_counts():
    # a perfect height-3 tree has 8 leaves and 8 rules
    def perfect(depth, i=0):
        if depth == 0:
            return T.Leaf(i % 2, 1, (1 - i % 2, i % 2))
        return T.Branch(
            T.SplitClause(f"x{depth}", "numeric", 0.0),
            perfect(depth - 1, 2 * i),
            perfect(depth - 1, 2 * i + 1),
            2**depth,
        )

    tree = T.DecisionTree(perfect(3), {f"x{i}": "numeric" for i in (1, 2, 3)}, 8)
    assert len(leaf_rules(tree)) == 8
    assert len(T.favorable_rules(tree)) == 4  # the odd leaves


def test_every_training_instance_matches_one_rule():
    ds, _ = make_dataset(n=250, seed=11)
    tree = T.fit(ds, T.LearnerConfig(max_height=3, minleaf_fraction=0.02))
    hits = np.zeros(ds.n, dtype=int)
    for clauses, _ in leaf_rules(tree):
        hits += T.rule_mask(clauses, ds).astype(int)
    assert (hits == 1).all()


@pytest.mark.parametrize("height", [2, 4, 7])
def test_prefix_masks_equal_rule_mask(height):
    ds, _ = make_dataset(n=300, seed=5)
    tree = T.fit(ds, T.LearnerConfig(max_height=height, minleaf_fraction=0.01))
    paths = [clauses for clauses, _ in leaf_rules(tree)]
    assert max(len(p) for p in paths) >= min(height, 3)
    prefixes = [p[:i] for p in paths for i in range(len(p) + 1)]  # rules that prefix others
    rng = np.random.default_rng(height)
    orders = [
        paths,
        paths[::-1],
        [paths[i] for i in rng.permutation(len(paths))],
        [p for p in paths for _ in range(2)],  # duplicates
        prefixes,
        prefixes[::-1],
        [(paths + prefixes)[i] for i in rng.permutation(len(paths) + len(prefixes))],
    ]
    for conjunctions in orders:
        masks = T.prefix_masks(conjunctions, ds)
        assert len(masks) == len(conjunctions)
        for clauses, mask in zip(conjunctions, masks):
            assert np.array_equal(mask, T.rule_mask(clauses, ds))


def test_prefix_masks_of_nothing_and_of_the_tautology():
    ds, _ = make_dataset(n=20, seed=1)
    assert T.prefix_masks([], ds) == []
    (mask,) = T.prefix_masks([()], ds)
    assert mask.all() and len(mask) == ds.n


# ---------------------------------------------------------------------------
# prune_redundant

def test_prune_merges_same_class_siblings():
    root = T.Branch(
        T.SplitClause("x", "numeric", 1.0),
        T.Leaf(0, 5, (5, 0)),
        T.Leaf(0, 7, (6, 1)),
        12,
    )
    tree = T.DecisionTree(root, {"x": "numeric"}, 12)
    pruned = T.prune_redundant(tree)
    assert isinstance(pruned.root, T.Leaf)
    assert pruned.root.count == 12
    assert pruned.root.class_counts == (11, 1)


def test_prune_no_same_class_siblings_unchanged():
    root = T.Branch(
        T.SplitClause("x", "numeric", 1.0), T.Leaf(0, 5, (5, 0)), T.Leaf(1, 7, (1, 6)), 12
    )
    tree = T.DecisionTree(root, {"x": "numeric"}, 12)
    assert T.prune_redundant(tree) == tree


def test_prune_prediction_equivalence_fuzz():
    for seed in range(12):
        ds, _ = make_dataset(n=200, seed=100 + seed)
        tree = T.fit(ds, T.LearnerConfig(max_height=5, minleaf_fraction=0.02, seed=seed))
        probe = random_instances(ds, 80, seed=seed)
        assert np.array_equal(T.predict_dataset(tree, probe),
                              T.predict_dataset(T.prune_redundant(tree), probe))


def test_prune_reaches_fixpoint_through_cascades():
    # after merging the deep pair, the new leaf merges with its sibling too
    deep = T.Branch(
        T.SplitClause("y", "numeric", 0.0), T.Leaf(0, 2, (2, 0)), T.Leaf(0, 3, (3, 0)), 5
    )
    root = T.Branch(T.SplitClause("x", "numeric", 0.0), T.Leaf(0, 4, (4, 0)), deep, 9)
    tree = T.DecisionTree(root, {"x": "numeric", "y": "numeric"}, 9)
    pruned = T.prune_redundant(tree)
    assert isinstance(pruned.root, T.Leaf)
    assert pruned.root.count == 9


def test_prune_never_increases_favorable_rules():
    for seed in range(8):
        ds, _ = make_dataset(n=220, seed=200 + seed)
        tree = T.fit(ds, T.LearnerConfig(max_height=5, minleaf_fraction=0.02, seed=seed))
        before = len(T.favorable_rules(tree))
        after = len(T.favorable_rules(T.prune_redundant(tree)))
        assert after <= before


# ---------------------------------------------------------------------------
# query bounds

@pytest.mark.parametrize("h,expected", [(1, (2, 2)), (4, (2, 9)), (10, (2, 513))])
def test_query_count_bounds(h, expected):
    assert T.query_count_bounds(h) == expected


def test_query_count_bounds_rejects_zero():
    with pytest.raises(ParameterError):
        T.query_count_bounds(0)


def test_pruned_tree_favorable_rules_within_query_bound():
    for seed in range(25):
        ds, _ = make_dataset(n=260, seed=300 + seed, label_noise=1.2)
        cfg = T.LearnerConfig(
            max_height=1 + seed % 6, minleaf_fraction=0.02, seed=seed,
            feature_subsample="sqrt",
        )
        pruned = T.prune_redundant(T.fit(ds, cfg))
        if pruned.n_leaves < 2:
            continue
        h = pruned.height
        lo, hi = T.query_count_bounds(h)
        queries = len(T.favorable_rules(pruned)) + 1
        assert lo <= queries <= hi


# ---------------------------------------------------------------------------
# serialization

def test_record_roundtrip():
    ds, _ = make_dataset(n=180, seed=41)
    tree = T.fit(ds, T.LearnerConfig(max_height=4, minleaf_fraction=0.03))
    assert T.from_record(T.to_record(tree)) == tree


def test_to_text_literal_with_spaces_in_categories():
    inner = T.Branch(T.SplitClause("age", "numeric", 30.5), T.Leaf(0, 2, (2, 0)),
                     T.Leaf(1, 1, (0, 1)), 3)
    root = T.Branch(T.SplitClause("race", "categorical", "Native American"),
                    T.Leaf(1, 2, (0, 2)), inner, 5)
    tree = T.DecisionTree(root, {"race": "categorical", "age": "numeric"}, 5)
    assert T.to_text(tree) == (
        'tree n_train=5 features={"age": "numeric", "race": "categorical"}\n'
        'split race = "Native American" n=5\n'
        '  leaf class=1 n=2 counts=0/2\n'
        '  split age < 30.5 n=3\n'
        '    leaf class=0 n=2 counts=2/0\n'
        '    leaf class=1 n=1 counts=0/1\n'
    )


def test_save_load_tree_file(tmp_path):
    ds, _ = make_dataset(n=150, seed=47)
    tree = T.fit(ds, T.LearnerConfig(max_height=3, minleaf_fraction=0.05))
    path = tmp_path / "tree.json"
    T.save_tree(tree, path)
    assert T.load_tree(path) == tree
    # byte-stable rewrite
    first = path.read_bytes()
    T.save_tree(T.load_tree(path), path)
    assert path.read_bytes() == first


def split_tree():
    inner = T.Branch(T.SplitClause("age", "numeric", 3.5), T.Leaf(0, 2, (2, 0)),
                     T.Leaf(1, 1, (0, 1)), 3)
    root = T.Branch(T.SplitClause("race", "categorical", "a"), inner, T.Leaf(1, 2, (0, 2)), 5)
    return T.DecisionTree(root, {"race": "categorical", "age": "numeric"}, 5)


def test_walk_is_depth_first_left_before_right():
    tree = split_tree()
    race, age = tree.root.clause, tree.root.left.clause
    got = [(type(node).__name__, path) for node, path in T.walk(tree.root)]
    assert got == [
        ("Branch", ()),
        ("Branch", (race,)),
        ("Leaf", (race, age)),
        ("Leaf", (race, replace(age, negated=True))),
        ("Leaf", (replace(race, negated=True),)),
    ]
    assert (tree.height, tree.n_leaves) == (2, 3)


def malformed_tree_files():
    """{id: (file text, fault the refusal names)} for broken tree files."""
    record = T.to_record(split_tree())

    def root(**fields):  # the root split is race = "a"
        return json.dumps({**record, "root": {**record["root"], **fields}})

    def inner(**fields):  # the root's left child splits on age < 3.5
        return root(left={**record["root"]["left"], **fields})

    return {
        "op-le": (inner(op="<="), "unknown clause op '<='"),
        "no-root": (json.dumps({k: v for k, v in record.items() if k != "root"}),
                    "lacks the field 'root'"),
        "not-json": ("not json\n", "tree file"),
        "numeric-text": (inner(value="3.5"), "clause value '3.5' on 'age' is not a finite"),
        "numeric-nan-text": (inner(value="nan"), "clause value 'nan' on 'age' is not a finite"),
        "numeric-bool": (inner(value=True), "clause value True on 'age' is not a finite"),
        "numeric-nan": (inner(value=math.nan), "clause value nan on 'age' is not a finite"),
        "numeric-overflow": (inner(value=10 ** 400), "on 'age' is not a finite number"),
        "categorical-null": (root(value=None), "clause value None on 'race' is not a string"),
        "categorical-number": (root(value=5), "clause value 5 on 'race' is not a string"),
        "feature-number": (root(feature=7), "clause feature 7 is not a string"),
    }


@pytest.mark.parametrize("text, fault", malformed_tree_files().values(),
                         ids=malformed_tree_files().keys())
def test_load_tree_refuses_a_malformed_file(tmp_path, text, fault):
    # "<=" used to load as a categorical split on the string "3.5", and
    # float() and str() turned a mistyped value into a NaN threshold, 1.0,
    # "None" or "5"; a missing root and a non-JSON file died with a KeyError
    # and a JSONDecodeError
    path = tmp_path / "tree.json"
    path.write_text(text)
    with pytest.raises(DataError, match=fault):
        T.load_tree(path)


def test_fit_gini_criterion_works():
    ds, _ = make_dataset(n=200, seed=53)
    tree = T.fit(ds, T.LearnerConfig(max_height=3, minleaf_fraction=0.05, criterion="gini"))
    assert tree.n_leaves >= 2
    preds = T.predict_dataset(tree, ds)
    assert (preds == ds.labels).mean() > 0.6


def test_learner_config_validation():
    with pytest.raises(ParameterError):
        T.LearnerConfig(max_height=0, minleaf_fraction=0.1)
    with pytest.raises(ParameterError):
        T.LearnerConfig(max_height=2, minleaf_fraction=0.6)
    with pytest.raises(ParameterError):
        T.LearnerConfig(max_height=2, minleaf_fraction=0.1, feature_subsample="most")
    with pytest.raises(ParameterError):
        T.LearnerConfig(max_height=2, minleaf_fraction=0.1, criterion="mse")


# ---------------------------------------------------------------------------
# split search against the string reference

def reference_best_split(node, data, y, minleaf, config, rng, n_total):
    """The split search as it was before categorical columns were int-coded:
    each node factorizes its categorical strings with np.unique."""
    m = len(node.idx)
    if node.depth >= config.max_height or m < 2 * minleaf:
        return None
    if node.ones == 0 or node.ones == m:
        return None
    ysub = y[node.idx].astype(float)
    parent_imp = float(T._impurity(np.array([node.ones / m]), config.criterion)[0]) * m

    n_feat = len(data.feature_names)
    if config.feature_subsample == "all":
        feat_ids = range(n_feat)
    else:
        k = max(1, int(math.sqrt(n_feat)) if config.feature_subsample == "sqrt" else int(math.log2(n_feat)))
        feat_ids = sorted(rng.choice(n_feat, size=min(k, n_feat), replace=False).tolist())

    best = None
    for fi in feat_ids:
        name = data.feature_names[fi]
        col = data.columns[name][node.idx]
        if data.feature_kinds[name] == "numeric":
            order = np.argsort(col, kind="stable")
            sv = col[order]
            sy = ysub[order]
            cuts = np.flatnonzero(sv[:-1] != sv[1:])
            if cuts.size == 0:
                continue
            n_left = cuts + 1
            n_right = m - n_left
            ok = (n_left >= minleaf) & (n_right >= minleaf)
            if not ok.any():
                continue
            l1 = np.cumsum(sy)[cuts]
            r1 = node.ones - l1
            child = n_left * T._impurity(l1 / n_left, config.criterion) + n_right * T._impurity(
                r1 / n_right, config.criterion
            )
            gains = np.where(ok, parent_imp - child, -np.inf)
            j = int(np.argmax(gains))
            if not np.isfinite(gains[j]):
                continue
            gain = float(gains[j]) / n_total
            if best is None or gain > best[0] + T._GAIN_TOL:
                thr = float((sv[cuts[j]] + sv[cuts[j] + 1]) / 2.0)
                best = (gain, T.SplitClause(name, "numeric", thr), col < thr)
        else:
            cats, codes = np.unique(col, return_inverse=True)
            if len(cats) < 2:
                continue
            sizes = np.bincount(codes).astype(float)
            ones = np.bincount(codes, weights=ysub)
            n_left = sizes
            n_right = m - sizes
            ok = (n_left >= minleaf) & (n_right >= minleaf)
            if not ok.any():
                continue
            l1 = ones
            r1 = node.ones - ones
            child = n_left * T._impurity(
                np.divide(l1, n_left, out=np.zeros_like(l1), where=n_left > 0), config.criterion
            ) + n_right * T._impurity(
                np.divide(r1, n_right, out=np.zeros_like(r1), where=n_right > 0), config.criterion
            )
            gains = np.where(ok, parent_imp - child, -np.inf)
            j = int(np.argmax(gains))
            if not np.isfinite(gains[j]):
                continue
            gain = float(gains[j]) / n_total
            if best is None or gain > best[0] + T._GAIN_TOL:
                best = (gain, T.SplitClause(name, "categorical", str(cats[j])), codes == j)
    if best is None:
        return None
    gain, clause, left_mask = best
    return (max(gain, 0.0), clause, left_mask)


def reference_impurity(p1, criterion):
    """_impurity as it was: a clip, then masked writes that skip p = 0."""
    p1 = np.clip(p1, 0.0, 1.0)
    if criterion == "gini":
        return 2.0 * p1 * (1.0 - p1)
    out = np.zeros_like(p1, dtype=float)
    for p in (p1, 1.0 - p1):
        nz = p > 0
        out[nz] -= p[nz] * np.log2(p[nz])
    return out


def test_impurity_is_bit_identical_to_the_masked_reference():
    rng = np.random.default_rng(20261020)
    edges = np.array([0.0, 1.0, 0.5, 5e-324, 1e-300, 1.0 - 2.0 ** -53])
    for _ in range(300):
        n = int(rng.integers(1, 400))
        total = rng.integers(1, 2000, n).astype(float)
        fractions = np.floor(rng.random(n) * (total + 1)) / total  # 0 and 1 included
        for p1 in (fractions, rng.random(n), np.concatenate([fractions, edges])):
            for criterion in ("entropy", "gini"):
                # tobytes: equal bits, the sign of a zero included
                assert T._impurity(p1, criterion).tobytes() == \
                    reference_impurity(p1, criterion).tobytes()


def reference_fit(data, config):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "_best_split", reference_best_split)
        return T.fit(data, config)


def random_config(rng, n):
    return T.LearnerConfig(
        max_height=int(rng.integers(1, 7)),
        minleaf_fraction=float(rng.uniform(1.0 / n, 0.2)),
        max_leaves=None if rng.random() < 0.5 else int(rng.integers(1, 9)),
        feature_subsample=str(rng.choice(["all", "sqrt", "log2"])),
        criterion=str(rng.choice(["entropy", "gini"])),
        seed=int(rng.integers(0, 2**31 - 1)),
    )


def assert_categorical_masks_match_strings(tree, data):
    def walk(node):
        if isinstance(node, T.Leaf):
            return
        clause = node.clause
        if clause.kind == "categorical":
            assert np.array_equal(clause.mask(data), data.columns[clause.feature] == clause.value)
        walk(node.left)
        walk(node.right)

    walk(tree.root)


def test_split_search_matches_string_reference():
    rng = np.random.default_rng(20240611)
    split_categorical = wider = 0
    for _ in range(300):
        parent = random_mixed_dataset(rng)
        # a subset lacks some of the parent's categories. Taken before the
        # parent is encoded, it builds its own category table; taken after,
        # it shares the parent's wider one, which lists categories it lacks.
        picked = np.sort(rng.choice(parent.n, size=parent.n // 2, replace=False))
        own = parent.take(picked)
        config = random_config(rng, parent.n)
        tree = T.fit(parent, config)
        assert T.to_record(tree) == T.to_record(reference_fit(parent, config))
        for name in parent.feature_names:
            if parent.feature_kinds[name] == "categorical":
                parent.codes(name)
        shared = parent.take(picked)
        sub_config = random_config(rng, own.n)
        sub_tree = T.fit(own, sub_config)
        assert T.to_record(sub_tree) == T.to_record(reference_fit(shared, sub_config))
        assert T.to_record(T.fit(shared, sub_config)) == T.to_record(sub_tree)
        for fitted in (tree, sub_tree):
            for data in (parent, own, shared):
                assert_categorical_masks_match_strings(fitted, data)
                rows = [{f: data.columns[f][i] for f in data.feature_names} for i in range(data.n)]
                want = [reference_predict(fitted, row) for row in rows]  # string equality per row
                assert T.predict_dataset(fitted, data).tolist() == want
        split_categorical += "'op': '='" in repr(T.to_record(tree))
        wider += any(len(shared.codes(f)[0]) > len(own.codes(f)[0])
                     for f in parent.feature_names if parent.feature_kinds[f] == "categorical")
    assert split_categorical >= 50 and wider >= 20
