import socket

import numpy as np
import pytest

from privfair import curator as C
from privfair import estimator as E
from privfair import tree as T
from privfair.curator import Curator, InProcessClient
from privfair.data import Dataset, SensitiveTable
from privfair.errors import BudgetRefusal, DegenerateEstimateError, MechanismError, ParameterError
from privfair.metrics import PredictionSet, sp_ratio_kary

from conftest import make_dataset, serve_in_background


def curator_for(ds, table, budget, seed=0):
    return Curator(ds, table, total_epsilon=budget, seed=seed)


def leaf(k, n, counts):
    return T.Leaf(k, n, counts)


def single_leaf_tree(klass):
    return T.DecisionTree(leaf(klass, 10, (10 - 10 * klass, 10 * klass)), {}, 10)


# ---------------------------------------------------------------------------
# per-cell reference for repair_histogram, kept here as the oracle

def reference_flag(cell: float, dataset_total: int) -> str:
    if cell < 0:
        return "negative"
    if cell > dataset_total:
        return "too-large"
    return "valid"


def reference_repair_cell(counts, index, policy, dataset_total, uniform_total) -> float:
    counts = np.asarray(counts, dtype=float)
    cell = float(counts[index])
    flag = reference_flag(cell, dataset_total)
    if flag == "valid":
        return cell
    rule = policy.negative_rule if flag == "negative" else policy.too_large_rule
    uniform_value = max(0.0, uniform_total / len(counts))
    if rule == "zero":
        return 0.0
    if rule == "one":
        return 1.0
    if rule == "uniform":
        return uniform_value
    siblings_valid = all(
        reference_flag(float(counts[j]), dataset_total) == "valid"
        for j in range(len(counts))
        if j != index
    )
    if not siblings_valid:
        return uniform_value
    return max(0.0, float(dataset_total) - float(counts.sum() - cell))


def reference_repair_histogram(counts, policy, dataset_total, uniform_total):
    counts = np.asarray(counts, dtype=float)
    n_invalid = sum(1 for c in counts if reference_flag(float(c), dataset_total) != "valid")
    if n_invalid == 0:
        return counts.copy(), 0
    repaired = np.array([
        reference_repair_cell(counts, i, policy, dataset_total, uniform_total)
        for i in range(len(counts))
    ])
    return repaired, n_invalid


POLICY_PAIRS = [(neg, big) for neg in E.NEGATIVE_POLICIES for big in E.TOO_LARGE_POLICIES]


def random_histograms(rng, n):
    """Noisy histograms over k = 1..5 cells, salted with boundary values."""
    for _ in range(n):
        k = int(rng.integers(1, 6))
        total = int(rng.integers(0, 30))
        counts = rng.laplace(total / k, 4.0, size=k)
        if rng.random() < 0.5:
            counts = np.round(counts)
        salted = rng.random(k) < 0.15
        counts[salted] = rng.choice([-0.0, 0.0, float(total), total + 1.0, -1.0], size=salted.sum())
        uniform_total = float(counts.sum()) if rng.random() < 0.5 else float(total)
        yield counts, total, uniform_total


def test_repair_histogram_matches_per_cell_reference():
    rng = np.random.default_rng(20240607)
    policies = [E.InvalidPolicy(neg, big) for neg, big in POLICY_PAIRS]
    for i, (counts, total, uniform_total) in enumerate(random_histograms(rng, 100_000)):
        policy = policies[i % len(policies)]
        got, got_invalid = E.repair_histogram(counts, policy, total, uniform_total)
        want, want_invalid = reference_repair_histogram(counts, policy, total, uniform_total)
        assert got.tobytes() == want.tobytes(), (counts, total, uniform_total, policy)
        assert got_invalid == want_invalid


# ---------------------------------------------------------------------------
# validity flags

@pytest.mark.parametrize(
    "cell,total,expected",
    [
        (12.0, 1000, "valid"),    # exceeding the node count alone is fine
        (-0.5, 1000, "negative"),
        (1001.0, 1000, "too-large"),
        (0.0, 1000, "valid"),
        (1000.0, 1000, "valid"),
    ],
)
def test_exceeds_validity(cell, total, expected):
    # a zero-policy negative cell repairs to 0, a too-large one to the uniform 7
    policy = E.InvalidPolicy("zero", "uniform")
    repaired, n_invalid = E.repair_histogram(np.array([cell]), policy, total, 7.0)
    assert n_invalid == (expected != "valid")
    assert repaired[0] == {"valid": cell, "negative": 0.0, "too-large": 7.0}[expected]


# ---------------------------------------------------------------------------
# repair

def test_repair_negative_zero_policy():
    counts = np.array([-3.0, 40.0, 35.0, 28.0])
    policy = E.InvalidPolicy("zero", "uniform")
    assert E.repair_histogram(counts, policy, 1000, counts.sum())[0][0] == 0.0


def test_repair_negative_one_policy():
    counts = np.array([-3.0, 40.0])
    policy = E.InvalidPolicy("one", "uniform")
    assert E.repair_histogram(counts, policy, 1000, counts.sum())[0][0] == 1.0


def test_repair_negative_uniform_policy():
    # noisy rule total 100 over K=4 cells repairs to 25
    counts = np.array([-3.0, 40.0, 35.0, 28.0])
    policy = E.InvalidPolicy("uniform", "uniform")
    assert E.repair_histogram(counts, policy, 1000, 100.0)[0][0] == pytest.approx(25.0)


def test_repair_too_large_total_minus_valid():
    # cell 80 with dataset total 50 and valid siblings summing 30 repairs to 20
    counts = np.array([80.0, 12.0, 18.0])
    policy = E.InvalidPolicy("uniform", "total-minus-valid")
    assert E.repair_histogram(counts, policy, 50, counts.sum())[0][0] == pytest.approx(20.0)


def test_repair_total_minus_valid_falls_back_when_sibling_invalid():
    counts = np.array([80.0, -1.0, 18.0])
    policy = E.InvalidPolicy("uniform", "total-minus-valid")
    got = E.repair_histogram(counts, policy, 50, 97.0)[0][0]
    assert got == pytest.approx(97.0 / 3)


def test_repair_valid_cell_passthrough():
    counts = np.array([5.0, 6.0])
    policy = E.InvalidPolicy("zero", "uniform")
    assert E.repair_histogram(counts, policy, 100, 11.0)[0][1] == 6.0


def test_repair_histogram_counts_invalids():
    counts = np.array([-2.0, 5.0, 2000.0])
    policy = E.InvalidPolicy("uniform", "uniform")
    repaired, n_invalid = E.repair_histogram(counts, policy, 1000, counts.sum())
    assert n_invalid == 2
    assert (repaired >= 0).all()
    assert repaired.max() <= 1000


def test_invalid_policy_validation():
    with pytest.raises(ParameterError):
        E.InvalidPolicy("nope", "uniform")
    with pytest.raises(ParameterError):
        E.InvalidPolicy("zero", "zero")


# ---------------------------------------------------------------------------
# estimate_sp

def test_single_favorable_leaf_gives_sp_one(noiseless):
    ds, table = make_dataset(n=100, seed=1)
    tree = T.DecisionTree(leaf(1, ds.n, (0, ds.n)), dict(ds.feature_kinds), ds.n)
    cur = curator_for(ds, table, budget=1.0)
    est = E.estimate_sp(tree, InProcessClient(cur), 1.0, population=ds.n, mechanism="laplace")
    assert est.sp == 1.0
    assert est.query_count == 2


def test_known_counts_fixture(noiseless):
    # 10 privileged with 6 favorable, 10 unprivileged with 3 favorable -> 0.5
    n = 20
    x = np.array([1.0] * 6 + [0.0] * 4 + [1.0] * 3 + [0.0] * 7)
    y = x.astype(int)
    ds = Dataset(np.arange(n), ("x",), {"x": "numeric"}, {"x": x}, y)
    table = SensitiveTable(np.arange(n), np.array([1] * 10 + [0] * 10), ("u", "p"))
    root = T.Branch(T.SplitClause("x", "numeric", 0.5), leaf(0, 11, (11, 0)), leaf(1, 9, (0, 9)), n)
    tree = T.DecisionTree(root, {"x": "numeric"}, n)
    cur = curator_for(ds, table, budget=1.0)
    est = E.estimate_sp(tree, InProcessClient(cur), 1.0, population=n, mechanism="laplace")
    assert est.sp == pytest.approx(0.5, abs=1e-12)
    assert est.accept_rates == (pytest.approx(0.3), pytest.approx(0.6))


def test_oracle_equivalence_noiseless_stub(noiseless):
    for seed in range(10):
        ds, table = make_dataset(n=300, seed=seed)
        tree = T.prune_redundant(
            T.fit(ds, T.LearnerConfig(max_height=4, minleaf_fraction=0.02, seed=seed))
        )
        preds = PredictionSet(ds.labels, T.predict_dataset(tree, ds), table.groups, table.k)
        want = sp_ratio_kary(preds)
        cur = curator_for(ds, table, budget=1.0, seed=seed)
        est = E.estimate_sp(tree, InProcessClient(cur), 1.0, population=ds.n, mechanism="laplace")
        assert est.sp == pytest.approx(want, abs=1e-12)


def test_budget_spend_is_exactly_epsilon():
    ds, table = make_dataset(n=200, seed=3)
    tree = T.prune_redundant(T.fit(ds, T.LearnerConfig(max_height=3, minleaf_fraction=0.02)))
    for eps in (0.3, 0.5, 0.7):
        cur = curator_for(ds, table, budget=eps, seed=5)
        est = E.estimate_sp(tree, InProcessClient(cur), eps, population=ds.n, mechanism="laplace")
        assert est.epsilon_spent == eps
        assert cur.ledger().spent == pytest.approx(eps, abs=1e-15)


def test_repeat_audits_on_one_curator_each_get_a_batch():
    ds, table = make_dataset(n=200, seed=3)
    tree = T.prune_redundant(T.fit(ds, T.LearnerConfig(max_height=3, minleaf_fraction=0.02)))
    eps = 0.5
    cur = curator_for(ds, table, budget=2 * eps, seed=5)
    client = InProcessClient(cur)
    for _ in range(2):
        est = E.estimate_sp(tree, client, eps, population=ds.n, mechanism="laplace")
        assert 0.0 <= est.sp <= 1.0
    assert cur.ledger().spent == pytest.approx(2 * eps, abs=1e-15)


def test_audit_plan_is_compiled_once_per_tree_object(monkeypatch):
    # every audit used to prune the tree and extract its rules again
    ds, table = make_dataset(n=200, seed=3)
    tree = T.fit(ds, T.LearnerConfig(max_height=3, minleaf_fraction=0.02))
    pruned = []
    prune_redundant = T.prune_redundant
    monkeypatch.setattr(T, "prune_redundant", lambda t: pruned.append(t) or prune_redundant(t))
    client = InProcessClient(curator_for(ds, table, budget=2.0, seed=5))
    first = [E.estimate_sp(tree, client, 0.5, population=ds.n, batch_id=f"b{i}") for i in (1, 2)]
    assert len(pruned) == 1 and pruned[0] is tree
    twin = T.from_record(T.to_record(tree))  # an equal tree, but a second object
    client = InProcessClient(curator_for(ds, table, budget=2.0, seed=5))
    second = [E.estimate_sp(twin, client, 0.5, population=ds.n, batch_id=f"b{i}") for i in (1, 2)]
    assert len(pruned) == 2 and pruned[1] is twin
    assert second == first
    assert twin.audit_plan == tree.audit_plan and twin.audit_plan is not tree.audit_plan
    assert tree.audit_plan.rules == tuple(T.favorable_rules(prune_redundant(tree)))
    assert tree.audit_plan.height == prune_redundant(tree).height


def test_query_count_within_height_bounds(noiseless):
    ds, table = make_dataset(n=300, seed=9, label_noise=1.0)
    for seed in range(10):
        cfg = T.LearnerConfig(max_height=1 + seed % 5, minleaf_fraction=0.02, seed=seed)
        tree = T.prune_redundant(T.fit(ds, cfg))
        if tree.n_leaves < 2:
            continue
        cur = curator_for(ds, table, budget=1.0, seed=seed)
        est = E.estimate_sp(tree, InProcessClient(cur), 1.0, population=ds.n, mechanism="laplace")
        lo, hi = T.query_count_bounds(tree.height)
        assert lo <= est.query_count <= hi


def test_only_favorable_rules_queried(noiseless):
    ds, table = make_dataset(n=250, seed=11)
    tree = T.prune_redundant(T.fit(ds, T.LearnerConfig(max_height=3, minleaf_fraction=0.02)))
    cur = curator_for(ds, table, budget=1.0, seed=1)
    E.estimate_sp(tree, InProcessClient(cur), 1.0, population=ds.n, mechanism="laplace")
    digests = {entry.digest for entry in cur.ledger().entries}
    from privfair.curator import CuratorQuery

    for node, clauses in T.walk(tree.root):
        if not isinstance(node, T.Leaf) or node.klass == 1:
            continue
        # any unfavorable predicate, parallel or sequential, is absent
        for batch in ("b", None):
            probe = CuratorQuery(clauses, 0.5, "laplace", batch_id=batch)
            assert probe.digest() not in digests


def test_unfavorable_single_leaf_degenerate(noiseless):
    ds, table = make_dataset(n=100, seed=13)
    tree = T.DecisionTree(leaf(0, ds.n, (ds.n, 0)), dict(ds.feature_kinds), ds.n)
    cur = curator_for(ds, table, budget=1.0)
    with pytest.raises(DegenerateEstimateError):
        E.estimate_sp(tree, InProcessClient(cur), 1.0, population=ds.n, mechanism="laplace")


def test_budget_refusal_aborts():
    ds, table = make_dataset(n=150, seed=17)
    tree = T.prune_redundant(T.fit(ds, T.LearnerConfig(max_height=3, minleaf_fraction=0.02)))
    cur = curator_for(ds, table, budget=0.4)
    with pytest.raises(BudgetRefusal):
        E.estimate_sp(tree, InProcessClient(cur), 0.5, population=ds.n, mechanism="laplace")
    # the audit is one request: refused whole, it spends nothing
    assert cur.ledger().spent == 0.0
    assert cur.ledger().entries == []


def test_sp_always_in_unit_interval():
    ds, table = make_dataset(n=200, seed=19)
    tree = T.prune_redundant(T.fit(ds, T.LearnerConfig(max_height=3, minleaf_fraction=0.02)))
    for run in range(30):
        cur = curator_for(ds, table, budget=0.2, seed=run)
        est = E.estimate_sp(tree, InProcessClient(cur), 0.2, population=ds.n,
                            mechanism="laplace")
        assert 0.0 <= est.sp <= 1.0
        assert est.invalid_cells <= est.total_cells


def test_invalid_ratio_decreases_with_epsilon():
    # mean invalid ratio at eps=0.5 should not exceed the mean at eps=0.05
    ds, table = make_dataset(n=200, seed=21)
    tree = T.prune_redundant(T.fit(ds, T.LearnerConfig(max_height=3, minleaf_fraction=0.02)))

    def mean_invalid(eps):
        ratios = []
        for run in range(50):
            cur = curator_for(ds, table, budget=eps, seed=1000 + run)
            est = E.estimate_sp(tree, InProcessClient(cur), eps, population=ds.n,
                                mechanism="laplace")
            ratios.append(est.invalid_ratio)
        return float(np.mean(ratios))

    assert mean_invalid(0.5) <= mean_invalid(0.05)


def test_exponential_estimates_have_no_invalid_cells():
    ds, table = make_dataset(n=200, seed=23)
    tree = T.prune_redundant(T.fit(ds, T.LearnerConfig(max_height=3, minleaf_fraction=0.02)))
    for run in range(10):
        cur = curator_for(ds, table, budget=0.3, seed=run)
        est = E.estimate_sp(tree, InProcessClient(cur), 0.3, population=ds.n,
                            mechanism="exponential")
        assert est.invalid_cells == 0


def test_gaussian_requires_delta():
    ds, table = make_dataset(n=150, seed=29)
    tree = T.prune_redundant(T.fit(ds, T.LearnerConfig(max_height=2, minleaf_fraction=0.02)))
    cur = curator_for(ds, table, budget=0.5)
    with pytest.raises(ParameterError):
        E.estimate_sp(tree, InProcessClient(cur), 0.5, population=ds.n, mechanism="gaussian")
    cur2 = curator_for(ds, table, budget=0.5, seed=3)
    est = E.estimate_sp(tree, InProcessClient(cur2), 0.5, population=ds.n,
                        mechanism="gaussian", delta=1e-3)
    assert 0.0 <= est.sp <= 1.0


class StubClient:
    """Scripted curator answers for exercising the repair paths."""

    def __init__(self, answers, k=2):
        self._answers = list(answers)
        self.k = k
        self.queries = []

    def ask(self, query):
        from privfair.curator import CuratorAnswer

        self.queries.append(query)
        counts = np.asarray(self._answers.pop(0), dtype=float)
        return CuratorAnswer(counts, self.k, query.mechanism, query.digest())

    def ask_batch(self, queries):
        return [self.ask(q) for q in queries]


def two_leaf_tree():
    root = T.Branch(T.SplitClause("x", "numeric", 0.5), leaf(1, 5, (0, 5)), leaf(0, 5, (5, 0)), 10)
    return T.DecisionTree(root, {"x": "numeric"}, 10)


def test_negative_tautology_cell_repaired_with_public_population():
    # tautology [-2, 60] with uniform policy repairs the denominator to n/K
    client = StubClient([[-2.0, 60.0], [10.0, 30.0]])
    est = E.estimate_sp(two_leaf_tree(), client, 1.0, population=100)
    assert est.accept_rates[0] == pytest.approx(10.0 / (100 / 2))
    assert est.accept_rates[1] == pytest.approx(30.0 / 60.0)
    assert est.invalid_cells == 1


def test_negative_tautology_cell_with_zero_policy_degenerates():
    client = StubClient([[-2.0, 60.0], [10.0, 30.0]])
    policy = E.InvalidPolicy("zero", "uniform")
    with pytest.raises(DegenerateEstimateError):
        E.estimate_sp(two_leaf_tree(), client, 1.0, population=100, policy=policy)


def test_rule_uniform_repair_uses_noisy_rule_total():
    # rule histogram [-3, 40, 35, 28]: the negative cell becomes 100/4 = 25
    client = StubClient([[50.0, 50.0, 50.0, 50.0], [-3.0, 40.0, 35.0, 28.0]], k=4)
    est = E.estimate_sp(two_leaf_tree(), client, 1.0, population=200)
    assert est.accept_rates[0] == pytest.approx(25.0 / 50.0)
    assert est.invalid_cells == 1


class SilentClient:
    """A client that must never be asked."""

    def ask_batch(self, queries):
        raise AssertionError("a query was sent")


@pytest.mark.parametrize("epsilon, mechanism, delta, error", [
    (0.5, "exact", 0.0, MechanismError),
    (0.0, "laplace", 0.0, ParameterError),
    (-1.0, "exponential", 0.0, ParameterError),
    (2.5, "gaussian", 1e-5, ParameterError),
], ids=["unknown-mechanism", "zero-epsilon", "negative-epsilon", "gaussian-limit"])
def test_audit_whose_queries_cannot_be_built_asks_nothing(epsilon, mechanism, delta, error):
    # an unknown mechanism and a Gaussian half budget of 1.25 went out and
    # were refused only by the curator
    with pytest.raises(error):
        E.estimate_sp(two_leaf_tree(), SilentClient(), epsilon, population=10,
                      mechanism=mechanism, delta=delta)


def test_gaussian_audit_over_its_limit_sends_no_bytes():
    # the wire client sent the 1 + R query batch and exited as a protocol
    # error, where the in-process audit raised a parameter error
    listener = socket.create_server(("127.0.0.1", 0))
    try:
        with C.WireClient(*listener.getsockname()[:2], timeout=5) as client:
            with pytest.raises(ParameterError, match="gaussian mechanism needs 0 < epsilon < 1"):
                E.estimate_sp(two_leaf_tree(), client, 2.5, population=10, mechanism="gaussian",
                              delta=1e-5)
        conn, _ = listener.accept()
        with conn:
            assert conn.recv(1 << 16) == b""
    finally:
        listener.close()


class RecordingClient(InProcessClient):
    """An in-process client that records every call the auditor makes."""

    def __init__(self, curator):
        super().__init__(curator)
        self.calls = []

    def ask_batch(self, queries):
        self.calls.append(("ask_batch", list(queries)))
        return super().ask_batch(queries)


@pytest.mark.parametrize("mechanism, delta", [("laplace", 0.0), ("exponential", 0.0),
                                              ("gaussian", 1e-3)])
def test_audit_is_one_batch_request_identical_to_one_by_one(mechanism, delta):
    ds, table = make_dataset(n=300, seed=31)
    tree = T.fit(ds, T.LearnerConfig(max_height=4, minleaf_fraction=0.02))
    n_rules = len(T.favorable_rules(T.prune_redundant(tree)))
    cur = curator_for(ds, table, budget=1.0, seed=9)
    client = RecordingClient(cur)
    est = E.estimate_sp(tree, client, 0.5, population=ds.n, mechanism=mechanism, delta=delta)
    assert [kind for kind, _ in client.calls] == ["ask_batch"]
    queries = client.calls[0][1]
    assert len(queries) == 1 + n_rules == est.query_count

    ref = curator_for(ds, table, budget=1.0, seed=9)
    answers = [ref.answer(q) for q in queries]
    stub = StubClient([a.counts for a in answers], k=table.k)
    assert E.estimate_sp(tree, stub, 0.5, population=ds.n, mechanism=mechanism,
                         delta=delta) == est
    entries = [c.ledger().entries for c in (cur, ref)]
    assert entries[0] == entries[1]
    assert len(entries[0]) == 1 + n_rules


def test_wire_audit_is_bit_identical_and_one_round_trip(monkeypatch):
    ds, table = make_dataset(n=300, seed=37)
    tree = T.fit(ds, T.LearnerConfig(max_height=4, minleaf_fraction=0.02))
    requests = []
    process_frame = C.process_frame

    def counting(curator, line):
        requests.append(line)
        return process_frame(curator, line)

    monkeypatch.setattr(C, "process_frame", counting)
    server = C.CuratorServer(curator_for(ds, table, budget=2.0, seed=5))
    serve_in_background(server)
    try:
        with C.WireClient(*server.address) as client:
            wire = [E.estimate_sp(tree, client, 0.5, population=ds.n, mechanism=m, delta=1e-3,
                                  batch_id=f"b-{m}")
                    for m in ("laplace", "exponential", "gaussian")]
    finally:
        server.shutdown()
        server.server_close()
    client = InProcessClient(curator_for(ds, table, budget=2.0, seed=5))
    local = [E.estimate_sp(tree, client, 0.5, population=ds.n, mechanism=m, delta=1e-3,
                           batch_id=f"b-{m}")
             for m in ("laplace", "exponential", "gaussian")]
    assert wire == local
    assert len(requests) == 3
