import hashlib
import json
import math
import threading

import numpy as np
import pytest

from privfair import curator as C
from privfair import data as D
from privfair import mechanisms as mech
from privfair.data import Dataset, SensitiveTable
from privfair.errors import DataError
from privfair.tree import Leaf

FIXTURES = __import__("pathlib").Path(__file__).parent / "fixtures"


def make_dataset(n=200, seed=0, p_group=0.3, k=2, label_noise=0.6):
    """Small random mixed-feature dataset with aligned sensitive groups."""
    rng = np.random.Generator(np.random.PCG64(seed))
    x1 = rng.normal(0, 1, n)
    x2 = rng.choice(["a", "b", "c"], n)
    x3 = rng.integers(0, 10, n).astype(float)
    y = ((x1 + 0.8 * (x2 == "a") + 0.15 * x3 + rng.normal(0, label_noise, n)) > 0.8).astype(int)
    ds = Dataset(
        np.arange(n),
        ("x1", "x2", "x3"),
        {"x1": "numeric", "x2": "categorical", "x3": "numeric"},
        {"x1": x1, "x2": x2, "x3": x3},
        y,
    )
    if k == 2:
        groups = (rng.random(n) < p_group).astype(int)
        names = ("g0", "g1")
    else:
        groups = rng.integers(0, k, n)
        names = tuple(f"g{i}" for i in range(k))
    table = SensitiveTable(np.arange(n), groups, names)
    return ds, table


# sorted order differs from first-appearance order, so a table in any other
# order than np.unique's breaks "first category wins" ties
CATEGORY_POOL = ["zeta", "b10", "alpha", "b9", "Mid", "mid", "a b", "_"]


def random_mixed_dataset(rng):
    """Mixed numeric/categorical table; some columns are duplicated or built so
    that several categories, or several features, tie on gain."""
    n = int(rng.integers(16, 121))
    labels = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(int)
    cols, kinds = {}, {}
    for f in range(int(rng.integers(1, 6))):
        name = f"f{f}"
        shape = rng.random()
        if shape < 0.3 and f:  # copy of an earlier column: ties across features
            src = f"f{int(rng.integers(0, f))}"
            cols[name], kinds[name] = cols[src], kinds[src]
        elif shape < 0.5:  # numeric, with repeated values
            cols[name] = rng.integers(0, int(rng.integers(2, 8)), n).astype(float)
            kinds[name] = "numeric"
        elif shape < 0.6:
            cols[name] = np.round(rng.normal(0, 1, n), 1)
            kinds[name] = "numeric"
        elif shape < 0.8:  # categories tied in size and label count
            cats = rng.choice(CATEGORY_POOL, size=int(rng.integers(2, 5)), replace=False)
            cols[name] = np.array([cats[(i // 2) % len(cats)] for i in range(n)])
            kinds[name] = "categorical"
        else:
            cats = rng.choice(CATEGORY_POOL, size=int(rng.integers(1, 7)), replace=False)
            p = rng.dirichlet(np.ones(len(cats)))
            cols[name] = rng.choice(cats, size=n, p=p)
            kinds[name] = "categorical"
    if rng.random() < 0.3:  # labels alternate with row parity: pairs split evenly
        labels = np.arange(n) % 2
    names = tuple(cols)
    return Dataset(np.arange(n), names, kinds, {k: np.array(cols[k]) for k in names}, labels)


@pytest.fixture
def small_data():
    return make_dataset(n=240, seed=3)


@pytest.fixture
def fixtures_dir():
    return FIXTURES


@pytest.fixture
def noiseless(monkeypatch):
    """Laplace queries answered with their exact counts: the oracle for tests
    that run the whole curator path (ledger, masks, bincount) without noise."""
    monkeypatch.setattr(mech, "laplace_histogram",
                        lambda exact, params, rng: np.asarray(exact, dtype=float).copy())


def reference_predict(tree, instance):
    """Route one feature->value mapping to its leaf class by plain comparison."""
    node = tree.root
    while not isinstance(node, Leaf):
        c = node.clause
        v = instance[c.feature]
        holds = float(v) < c.value if c.kind == "numeric" else v == c.value
        node = node.left if holds else node.right
    return node.klass


def dp_density_ratio_check(mechanism, params, neighboring_counts, domain_max=None,
                           noise_scale=None, tol=1e-9):
    """Analytic check that the output densities of two neighboring answers
    stay within a factor exp(epsilon).

    Laplace: evaluates the density ratio on a grid plus the closed-form
    supremum exp(|c - c'| / scale). Exponential: compares the full
    probability tables over {0..domain_max}.
    """
    c, c2 = neighboring_counts
    bound = math.exp(params.epsilon) + tol
    if mechanism == mech.LAPLACE:
        scale = mech.laplace_noise_scale(params) if noise_scale is None else noise_scale
        sup = math.exp(abs(c - c2) / scale)
        lo, hi = min(c, c2) - 8 * scale, max(c, c2) + 8 * scale
        xs = np.linspace(lo, hi, 2001)
        ratio = np.exp((np.abs(xs - c2) - np.abs(xs - c)) / scale)
        return bool(max(sup, float(ratio.max())) <= bound)
    assert mechanism == mech.EXPONENTIAL, mechanism
    r = np.arange(domain_max + 1)

    def table(center):
        w = np.exp(-params.epsilon * np.abs(center - r) / 2.0)
        return w / w.sum()

    p, p2 = table(c), table(c2)
    return bool(float((p / p2).max()) <= bound and float((p2 / p).max()) <= bound)


def replay(ledger):
    """The ledger's spend recomputed from its entries. A running total, not
    sum(): from Python 3.12 on, sum() of floats is compensated and can differ
    from the ledger's own running total."""
    total = 0.0
    for entry in ledger.entries:
        total += entry.charged
    return total


def reference_encode_sensitive(sens, mode, definition):
    """The three-mode encoder that encode_sensitive replaced.

    mode is "raw" (definition names a categorical column to factorize),
    "binary-privilege" (one attr=value clause; privileged group 1) or
    "quaternary-intersection" (two clauses; group 2*first + second). A group
    may be left without a row.
    """
    if mode == "raw":
        attr = definition.strip()
        if attr not in sens.raw:
            raise DataError(f"sensitive attribute {attr!r} not available")
        if sens.raw[attr].dtype.kind == "f":
            raise DataError(f"raw:{attr} on a numeric column")  # one group per value
        names, codes = np.unique(sens.raw[attr], return_inverse=True)
        return SensitiveTable(sens.instance_ids.copy(), codes.astype(np.int64),
                              tuple(str(v) for v in names))
    clauses = []
    for part in definition.split("&"):
        attr, value = part.strip().split("=", 1)
        if attr.strip() not in sens.raw:
            raise DataError(f"sensitive attribute {attr.strip()!r} not available")
        clauses.append((attr.strip(), value.strip()))
    if mode == "binary-privilege":
        assert len(clauses) == 1, definition
        (a, v), = clauses
        return SensitiveTable(sens.instance_ids.copy(), (sens.raw[a] == v).astype(np.int64),
                              (f"non-{v}", v))
    assert mode == "quaternary-intersection" and len(clauses) == 2, (mode, definition)
    (a1, v1), (a2, v2) = clauses
    m1, m2 = sens.raw[a1] == v1, sens.raw[a2] == v2
    return SensitiveTable(
        sens.instance_ids.copy(), 2 * m1.astype(np.int64) + m2.astype(np.int64),
        (f"non-{v1}&non-{v2}", f"non-{v1}&{v2}", f"{v1}&non-{v2}", f"{v1}&{v2}"),
    )


def equalized_odds(preds):
    """Per-outcome gaps p(pred=1|y,A=1) - p(pred=1|y,A=0) for y = 0 and y = 1."""
    gaps = []
    for y in (0, 1):
        mask = preds.y_true == y
        sizes = np.bincount(preds.groups[mask], minlength=2).astype(float)
        fav = np.bincount(preds.groups[mask], weights=preds.y_pred[mask], minlength=2)
        rates = fav / sizes
        gaps.append(float(rates[1] - rates[0]))
    return gaps[0], gaps[1]


def load_saved(csv_path, meta_path):
    """Reload a (Dataset, SensitiveSet) pair written by data.save_dataset;
    round-trips exactly."""
    sidecar = {"feature": {}, "sensitive": {}}
    with open(meta_path, "r", encoding="utf-8") as fh:
        for line in fh:
            key, eq, value = line.strip().partition("=")
            section, dot, name = key.partition(".")
            if eq and dot and section in sidecar:
                sidecar[section][name] = value
    feat_kinds, sens_kinds = sidecar["feature"], sidecar["sensitive"]
    kinds = D._column_kinds(feat_kinds, sens_kinds)
    cols = {name: [] for name in kinds}
    ids, labels = [], []
    with open(csv_path, "r", encoding="utf-8", newline="") as fh:
        for line_no, record in D._header_records(fh, ["id", *kinds, "label"], "saved CSV file"):
            ids.append(D._parse_int(record["id"], line_no, "id"))
            labels.append(D._parse_int(record["label"], line_no, "label", (0, 1)))
            D._append_row(cols, kinds, [record[name] for name in kinds], line_no)
    return D._build_tables(labels, cols, feat_kinds, sens_kinds, ids)


def serve_in_background(server):
    """Run a CuratorServer's loop on a daemon thread; stop it with shutdown()."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


# ---------------------------------------------------------------------------
# The dict-plus-json.dumps wire writers and query digest that curator.py
# assembles as text; the tests hold the assembled bytes equal to these.

def clause_to_wire(c):
    return {"feature": c.feature, "op": c.op, "value": c.value, "negated": bool(c.negated)}


def query_to_frame(q, identity="default"):
    frame = {
        "type": "query",
        "predicate": [clause_to_wire(c) for c in q.clauses],
        "epsilon": repr(float(q.epsilon)),
        "mechanism": q.mechanism,
    }
    if q.delta:
        frame["delta"] = repr(float(q.delta))
    if q.batch_id is not None:
        frame["batch_id"] = q.batch_id
    if identity != "default":
        frame["identity"] = identity
    return frame


def batch_to_frame(queries, identity="default"):
    return {"type": "batch", "queries": [query_to_frame(q, identity) for q in queries]}


def reference_digest(q):
    canonical = {
        "clauses": [clause_to_wire(c) for c in q.clauses],
        "epsilon": repr(float(q.epsilon)),
        "mechanism": q.mechanism,
        "composition": C.SEQUENTIAL if q.batch_id is None else C.PARALLEL,
        "batch_id": q.batch_id,
    }
    if q.delta:
        canonical["delta"] = repr(float(q.delta))
    payload = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
