"""Greedy binary decision trees and the rule machinery built on them.

Trees grow best-first (largest impurity decrease expanded first), which is
what makes a leaf-count budget well defined. Every leaf keeps its training
count. A rule is the conjunction of the split clauses on a root-to-leaf path:
a branch holds its clause as is, and the path to its right child carries the
same clause negated. So the rule set of a tree is exhaustive and mutually
exclusive over the instance space, and a rule is just its clause tuple. A
SplitClause checks itself when it is built, so every clause in process is
valid. Tree files and wire frames spell a clause as feature, op ("<" or
"="), value and negated, and SplitClause.from_op reads that spelling.
"""

from __future__ import annotations

import heapq
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from .data import CATEGORICAL, NUMERIC, Dataset
from .errors import DataError, ParameterError, RoutingError

_GAIN_TOL = 1e-12
# how tree files and wire frames spell each clause kind; SplitClause.op is the inverse
_OP_KINDS = {"<": NUMERIC, "=": CATEGORICAL}


def json_scalar(value) -> str:
    """value as json.dumps writes it: a string ASCII-escaped, a finite float
    by float.__repr__ (numpy floats included); anything else through json."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)


@dataclass(frozen=True)
class SplitClause:
    """One rule literal: numeric `feature < value` or categorical
    `feature = value`, or its negation. A Branch holds its clause un-negated."""

    feature: str
    kind: str  # NUMERIC | CATEGORICAL
    value: float | str
    negated: bool = False

    def __post_init__(self):
        """The one clause check, whatever builds the clause: a string feature,
        a known kind, a finite number that is not a bool (stored as a float,
        so a clause and its digest do not depend on how it arrived) or a
        string as the value, and a bool negated; DataError otherwise."""
        feature, value = self.feature, self.value
        if not isinstance(feature, str):
            raise DataError(f"clause feature {feature!r} is not a string")
        if self.kind == NUMERIC:
            # NaN, the infinities and ints beyond the float range fail the bound
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or not abs(value) <= sys.float_info.max:
                raise DataError(f"clause value {value!r} on {feature!r} is not a finite number")
            if type(value) is not float:
                object.__setattr__(self, "value", float(value))
        elif self.kind != CATEGORICAL:
            raise DataError(f"unknown clause kind {self.kind!r}")
        elif not isinstance(value, str):
            raise DataError(f"clause value {value!r} on {feature!r} is not a string")
        if not isinstance(self.negated, bool):
            raise DataError(f"clause negated {self.negated!r} on {feature!r} is not a bool")

    @property
    def op(self) -> str:
        return "<" if self.kind == NUMERIC else "="

    @classmethod
    def from_op(cls, feature, op, value, negated=False) -> "SplitClause":
        """The clause spelled `feature op value`, negated when asked: "<" is
        numeric and "=" categorical. DataError for any other op, and for what
        __post_init__ refuses."""
        kind = _OP_KINDS.get(op) if isinstance(op, str) else None
        if kind is None:
            raise DataError(f"unknown clause op {op!r}")
        return cls(feature, kind, value, negated)

    @cached_property
    def wire_text(self) -> str:
        """The clause as wire frames and query digests spell it, built on
        first use: {feature, negated, op, value} as compact sorted-key JSON,
        byte for byte what json.dumps(..., sort_keys=True,
        separators=(",", ":")) writes for that object."""
        return (f'{{"feature":{json_scalar(self.feature)},'
                f'"negated":{"true" if self.negated else "false"},'
                f'"op":"{self.op}","value":{json_scalar(self.value)}}}')

    def mask(self, data: Dataset) -> np.ndarray:
        if self.feature not in data.columns:
            raise RoutingError(self.feature)
        if self.kind == NUMERIC:
            m = data.columns[self.feature] < self.value
        else:
            cats, codes = data.codes(self.feature)
            j = int(np.searchsorted(cats, self.value))
            if j == len(cats) or cats[j] != self.value:
                m = np.zeros(len(codes), dtype=bool)  # a value absent from the column matches no row
            else:
                m = codes == j
        return ~m if self.negated else m


def rule_mask(clauses, data: Dataset) -> np.ndarray:
    """Boolean membership mask of a clause conjunction over a dataset."""
    out = np.ones(data.n, dtype=bool)
    for c in clauses:
        out &= c.mask(data)
    return out


def prefix_masks(conjunctions, data: Dataset) -> list[np.ndarray]:
    """rule_mask of each clause conjunction in order, reusing shared prefixes.

    A stack holds the masks of the previous conjunction's clause prefixes;
    each conjunction keeps the entries of the prefix it shares with the
    previous one and ANDs in only the clauses after it, so tree rules in
    depth-first order evaluate every shared prefix once. Entries are never
    written in place, so one array may be returned for several conjunctions.
    """
    stack = [np.ones(data.n, dtype=bool)]
    previous = ()
    out = []
    for clauses in conjunctions:
        shared = 0
        for a, b in zip(previous, clauses):
            if a != b:
                break
            shared += 1
        del stack[shared + 1:]
        for c in clauses[shared:]:
            stack.append(stack[-1] & c.mask(data))
        out.append(stack[-1])
        previous = clauses
    return out


@dataclass(frozen=True)
class Leaf:
    klass: int
    count: int
    class_counts: tuple[int, int]


@dataclass(frozen=True)
class Branch:
    clause: SplitClause
    left: "Leaf | Branch"  # clause true
    right: "Leaf | Branch"  # clause false
    count: int


class AuditPlan(NamedTuple):
    rules: tuple[tuple[SplitClause, ...], ...]  # the pruned tree's favourable rules, depth first
    height: int  # the pruned tree's height


@dataclass(frozen=True)
class DecisionTree:
    root: Leaf | Branch
    feature_kinds: dict[str, str]
    n_train: int

    @cached_property
    def audit_plan(self) -> AuditPlan:
        """What an audit asks of this tree, compiled on its first audit and
        kept for the life of the object: the favourable rules of the pruned
        tree and its height."""
        pruned = prune_redundant(self)
        return AuditPlan(tuple(favorable_rules(pruned)), pruned.height)

    @property
    def height(self) -> int:
        return max(len(path) for _, path in walk(self.root))

    @property
    def n_leaves(self) -> int:
        return sum(isinstance(node, Leaf) for node, _ in walk(self.root))


def walk(node, path=()):
    """Yield (node, root-to-node clauses) for every node of a subtree, depth
    first, left before right; right branches contribute negated clauses."""
    stack = [(node, path)]  # one generator for the whole walk, not one per level
    while stack:
        node, path = stack.pop()
        yield node, path
        if isinstance(node, Branch):
            c = node.clause
            stack.append((node.right, path + (SplitClause(c.feature, c.kind, c.value, True),)))
            stack.append((node.left, path + (c,)))


@dataclass(frozen=True)
class LearnerConfig:
    max_height: int
    minleaf_fraction: float
    max_leaves: int | None = None
    feature_subsample: str = "all"  # sqrt | all | log2
    criterion: str = "entropy"  # entropy | gini
    seed: int = 0

    def __post_init__(self):
        if self.max_height < 1:
            raise ParameterError(f"max_height must be >= 1, got {self.max_height}")
        if not (0 < self.minleaf_fraction < 0.5):
            raise ParameterError(f"minleaf_fraction must be in (0, 0.5), got {self.minleaf_fraction}")
        if self.max_leaves is not None and self.max_leaves < 1:
            raise ParameterError("max_leaves must be >= 1")
        if self.feature_subsample not in ("sqrt", "all", "log2"):
            raise ParameterError(f"unknown feature_subsample {self.feature_subsample!r}")
        if self.criterion not in ("entropy", "gini"):
            raise ParameterError(f"unknown criterion {self.criterion!r}")


def _impurity(p1: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity of class-1 fractions p1, each in [0, 1] (a count over a
    larger or equal count). Entropy takes 0·log2(0) as 0: max(p, 5e-324) is
    p for every p > 0, and at p = 0 the term is -0.0, which adds nothing."""
    p0 = 1.0 - p1
    if criterion == "gini":
        return 2.0 * p1 * p0
    return (0.0 - p1 * np.log2(np.maximum(p1, 5e-324))) - p0 * np.log2(np.maximum(p0, 5e-324))


def _best_candidate(n_left, l1, ones, m, parent_imp, minleaf, criterion):
    """(index, impurity decrease) of the best candidate that leaves minleaf rows
    on each side, or None. Candidate i sends n_left[i] rows, l1[i] of them
    positive, to the left of a node with m rows and `ones` positives."""
    n_right = m - n_left
    ok = (n_left >= minleaf) & (n_right >= minleaf)
    if not ok.any():
        return None
    r1 = ones - l1
    child = n_left * _impurity(
        np.divide(l1, n_left, out=np.zeros_like(l1), where=n_left > 0), criterion
    ) + n_right * _impurity(
        np.divide(r1, n_right, out=np.zeros_like(r1), where=n_right > 0), criterion
    )
    gains = np.where(ok, parent_imp - child, -np.inf)
    j = int(np.argmax(gains))
    if not np.isfinite(gains[j]):
        return None
    return j, float(gains[j])


class _BuildNode:
    __slots__ = ("idx", "depth", "ones", "best")

    def __init__(self, idx, depth, ones):
        self.idx = idx
        self.depth = depth
        self.ones = ones
        self.best = None  # (gain, feature, clause, left_local_mask)


def _best_split(node, data, yf, minleaf, config, rng, n_total):
    m = len(node.idx)
    if node.depth >= config.max_height or m < 2 * minleaf:
        return None
    if node.ones == 0 or node.ones == m:
        return None  # pure
    ysub = yf[node.idx]
    parent_imp = float(_impurity(np.array([node.ones / m]), config.criterion)[0]) * m

    n_feat = len(data.feature_names)
    if config.feature_subsample == "all":
        feat_ids = range(n_feat)
    else:
        k = max(1, int(math.sqrt(n_feat)) if config.feature_subsample == "sqrt" else int(math.log2(n_feat)))
        feat_ids = sorted(rng.choice(n_feat, size=min(k, n_feat), replace=False).tolist())

    best = None  # (gain, clause, left_local_mask)
    for fi in feat_ids:
        name = data.feature_names[fi]
        numeric = data.feature_kinds[name] == NUMERIC
        if numeric:
            col = data.columns[name][node.idx]
            order = np.argsort(col, kind="stable")
            sv = col[order]
            cuts = np.flatnonzero(sv[:-1] < sv[1:])  # argsort puts NaN last; no cut reaches it
            if cuts.size == 0:
                continue
            n_left, l1 = cuts + 1, np.cumsum(ysub[order])[cuts]
        else:
            cats, codes = data.codes(name)
            codes = codes[node.idx]
            n_left = np.bincount(codes, minlength=len(cats)).astype(float)
            if np.count_nonzero(n_left) < 2:
                continue
            l1 = np.bincount(codes, weights=ysub, minlength=len(cats))
        found = _best_candidate(n_left, l1, node.ones, m, parent_imp, minleaf, config.criterion)
        if found is None:
            continue
        j, gain = found[0], found[1] / n_total
        if best is not None and gain <= best[0] + _GAIN_TOL:
            continue
        if numeric:
            thr = float((sv[cuts[j]] + sv[cuts[j] + 1]) / 2.0)
            best = (gain, SplitClause(name, NUMERIC, thr), col < thr)
        else:
            best = (gain, SplitClause(name, CATEGORICAL, str(cats[j])), codes == j)
    if best is None:
        return None
    gain, clause, left_mask = best
    # Zero-gain splits are allowed only as a fallback for impure nodes (e.g.
    # the first cut of an XOR pattern); they rank last in the best-first queue.
    return (max(gain, 0.0), clause, left_mask)


def fit(data: Dataset, config: LearnerConfig) -> DecisionTree:
    """Grow a tree best-first under the height/leaf/minleaf constraints.

    Tie-breaking is deterministic (lowest feature index, then lowest
    threshold or first category); feature candidates per split are drawn
    from the config seed.
    """
    n = data.n
    if n == 0:
        raise DataError("cannot fit a tree on an empty dataset")
    if config.minleaf_fraction * n < 1:
        raise ParameterError(
            f"minleaf_fraction {config.minleaf_fraction} yields an empty minimum leaf on n={n}"
        )
    minleaf = int(math.ceil(config.minleaf_fraction * n))
    y = np.asarray(data.labels)
    yf = y.astype(float)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([config.seed])))

    root = _BuildNode(np.arange(n), 0, int(y.sum()))
    root.best = _best_split(root, data, yf, minleaf, config, rng, n)
    heap = []
    seq = 0
    if root.best is not None:
        heapq.heappush(heap, (-root.best[0], seq, root))
        seq += 1
    n_leaves = 1
    children: dict[int, tuple] = {}

    while heap:
        if config.max_leaves is not None and n_leaves >= config.max_leaves:
            break
        _, _, node = heapq.heappop(heap)
        gain, clause, left_mask = node.best
        left_idx = node.idx[left_mask]
        right_idx = node.idx[~left_mask]
        left = _BuildNode(left_idx, node.depth + 1, int(y[left_idx].sum()))
        right = _BuildNode(right_idx, node.depth + 1, int(y[right_idx].sum()))
        children[id(node)] = (clause, left, right)
        n_leaves += 1
        for child in (left, right):
            child.best = _best_split(child, data, yf, minleaf, config, rng, n)
            if child.best is not None:
                heapq.heappush(heap, (-child.best[0], seq, child))
                seq += 1

    def build(node) -> Leaf | Branch:
        if id(node) in children:
            clause, left, right = children[id(node)]
            return Branch(clause, build(left), build(right), len(node.idx))
        m = len(node.idx)
        ones = node.ones
        return Leaf(1 if ones > m - ones else 0, m, (m - ones, ones))

    return DecisionTree(build(root), dict(data.feature_kinds), n)


def predict_dataset(tree: DecisionTree, data: Dataset) -> np.ndarray:
    """1 on the rows that a favourable rule holds, 0 elsewhere. The rules
    partition every table, so this is the tree's prediction; RoutingError
    names a feature of a favourable rule that the table lacks."""
    out = np.zeros(data.n, dtype=np.int64)
    for m in prefix_masks(favorable_rules(tree), data):
        out[m] = 1
    return out


def favorable_rules(tree: DecisionTree) -> list[tuple[SplitClause, ...]]:
    """The rule of each favourable (class 1) leaf, as its root-to-leaf clause
    tuple, depth first. A single favourable leaf yields the empty
    conjunction, which applies to everyone."""
    return [path for node, path in walk(tree.root) if isinstance(node, Leaf) and node.klass == 1]


def prune_redundant(tree: DecisionTree) -> DecisionTree:
    """Merge sibling leaves that predict the same class, bottom-up to fixpoint.

    Predictions are unchanged for every possible input; only the number of
    rules (and hence queries) shrinks.
    """

    def prune(node):
        if isinstance(node, Leaf):
            return node
        left = prune(node.left)
        right = prune(node.right)
        if isinstance(left, Leaf) and isinstance(right, Leaf) and left.klass == right.klass:
            counts = (
                left.class_counts[0] + right.class_counts[0],
                left.class_counts[1] + right.class_counts[1],
            )
            return Leaf(left.klass, left.count + right.count, counts)
        return Branch(node.clause, left, right, node.count)

    return DecisionTree(prune(tree.root), dict(tree.feature_kinds), tree.n_train)


def query_count_bounds(height: int) -> tuple[int, int]:
    """Lower/upper bound on the number of histogram queries an audit needs."""
    if height < 1:
        raise ParameterError(f"height must be >= 1, got {height}")
    return 2, 2 ** (height - 1) + 1


# ---------------------------------------------------------------------------
# Serialization: nested-record machine format and an indented text format.

def to_record(tree: DecisionTree) -> dict:
    def rec(node):
        if isinstance(node, Leaf):
            return {
                "type": "leaf",
                "class": node.klass,
                "count": node.count,
                "class_counts": list(node.class_counts),
            }
        return {
            "type": "split",
            "feature": node.clause.feature,
            "op": node.clause.op,
            "value": node.clause.value,
            "count": node.count,
            "left": rec(node.left),
            "right": rec(node.right),
        }

    return {"n_train": tree.n_train, "feature_kinds": dict(tree.feature_kinds), "root": rec(tree.root)}


def from_record(record: dict) -> DecisionTree:
    def rec(d):
        if d["type"] == "leaf":
            c0, c1 = d["class_counts"]
            return Leaf(int(d["class"]), int(d["count"]), (int(c0), int(c1)))
        clause = SplitClause.from_op(d["feature"], d["op"], d["value"])
        return Branch(clause, rec(d["left"]), rec(d["right"]), int(d["count"]))

    return DecisionTree(rec(record["root"]), dict(record["feature_kinds"]), int(record["n_train"]))


def save_tree(tree: DecisionTree, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_record(tree), fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_tree(path) -> DecisionTree:
    """Read a tree file; DataError names the fault of a malformed one."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return from_record(json.load(fh))
        except KeyError as exc:
            raise DataError(f"tree file {path} lacks the field {exc}") from None
        except (ValueError, TypeError) as exc:  # not JSON or not UTF-8, or a bad field
            raise DataError(f"tree file {path}: {exc}") from None


def to_text(tree: DecisionTree) -> str:
    """Human-readable one-node-per-line form, for display."""
    lines = [f"tree n_train={tree.n_train} features={json.dumps(tree.feature_kinds, sort_keys=True)}"]

    for node, path in walk(tree.root):
        pad = "  " * len(path)
        if isinstance(node, Leaf):
            lines.append(
                f"{pad}leaf class={node.klass} n={node.count} "
                f"counts={node.class_counts[0]}/{node.class_counts[1]}"
            )
        else:
            clause = node.clause
            lines.append(f"{pad}split {clause.feature} {clause.op} {json.dumps(clause.value)} "
                         f"n={node.count}")
    return "\n".join(lines) + "\n"
