"""Statistical-parity estimation for a tree through DP histogram queries.

The audit is one batch request to the curator: one tautology query (the
overall group composition) at half the budget, then one half-budget query
per favorable rule of the pruned tree (its audit_plan, compiled once per
tree object) as a parallel batch of disjoint predicates, so the total spend
is exactly the given epsilon. The curator answers the whole request or
refuses it without charging anything. Per-group acceptance rates accumulate as
repaired-rule-histogram over tautology-histogram, elementwise; the estimate
is their min/max ratio. Invalid cells (negative, or larger than the public
row count) are counted before the repair policy maps them to valid values.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass

import numpy as np

from .curator import CuratorQuery
from .errors import DegenerateEstimateError, ParameterError
from .tree import DecisionTree

NEGATIVE_POLICIES = ("zero", "one", "uniform", "total-minus-valid")
TOO_LARGE_POLICIES = ("uniform", "total-minus-valid")


@dataclass(frozen=True)
class InvalidPolicy:
    """How to map invalid histogram cells back into the valid range."""

    negative_rule: str = "uniform"
    too_large_rule: str = "uniform"

    def __post_init__(self):
        if self.negative_rule not in NEGATIVE_POLICIES:
            raise ParameterError(f"negative_rule must be one of {NEGATIVE_POLICIES}")
        if self.too_large_rule not in TOO_LARGE_POLICIES:
            raise ParameterError(f"too_large_rule must be one of {TOO_LARGE_POLICIES}")


@dataclass(frozen=True)
class SpEstimate:
    sp: float
    accept_rates: tuple[float, ...]
    query_count: int
    invalid_cells: int
    total_cells: int
    epsilon_spent: float

    @property
    def invalid_ratio(self) -> float:
        return self.invalid_cells / self.total_cells if self.total_cells else 0.0


def repair_histogram(counts: np.ndarray, policy: InvalidPolicy, dataset_total: int,
                     uniform_total: float) -> tuple[np.ndarray, int]:
    """Repair every invalid cell of one histogram; returns (repaired, n_invalid).

    A cell is invalid when negative or above the public row count; a count
    may exceed its node's population without being invalid. uniform_total
    is the histogram's population estimate: the public row count for the
    tautology query, the noisy rule total (sum of the noisy cells) for a
    rule query. total-minus-valid subtracts the valid sibling cells from the
    dataset total and is usable only when every sibling is valid, falling
    back to uniform otherwise. Valid cells pass through.
    """
    counts = np.asarray(counts, dtype=float)
    negative = counts < 0
    too_large = counts > dataset_total
    invalid = negative | too_large
    n_invalid = int(invalid.sum())
    if n_invalid == 0:
        return counts.copy(), 0
    uniform = max(0.0, uniform_total / len(counts))
    if n_invalid == 1:
        # every sibling of the one invalid cell is valid; a repaired count
        # cannot go below the empty-node count of zero
        rest = float(dataset_total) - (counts.sum() - counts)
        total_minus_valid = np.where(rest > 0.0, rest, 0.0)
    else:
        total_minus_valid = uniform
    values = {"zero": 0.0, "one": 1.0, "uniform": uniform, "total-minus-valid": total_minus_valid}
    repaired = np.where(negative, values[policy.negative_rule], values[policy.too_large_rule])
    return np.where(invalid, repaired, counts), n_invalid


def estimate_sp(
    tree: DecisionTree,
    client,
    epsilon: float,
    population: int,
    mechanism: str = "laplace",
    policy: InvalidPolicy = InvalidPolicy(),
    delta: float = 0.0,
    batch_id: str | None = None,
) -> SpEstimate:
    """Estimate the K-ary statistical parity of a tree's favorable decisions.

    population is the public row count of the audited split (used for
    validity flags and repairs, never as a denominator of exact counts).
    The 1 + R queries go out in one client.ask_batch call. Raises
    BudgetRefusal if the curator refuses (nothing is spent then),
    DegenerateEstimateError if a denominator cell is nonpositive after repair
    or every acceptance rate is zero. A query that cannot be built raises
    before anything is sent.
    """
    rules = tree.audit_plan.rules
    half = epsilon / 2.0

    if batch_id is None:
        # a fresh nonce per audit, so a repeat audit opens a batch of its own
        batch_id = f"rules-{secrets.token_hex(8)}"
    queries = [CuratorQuery((), half, mechanism, delta)]
    queries += [CuratorQuery(clauses, half, mechanism, delta, batch_id) for clauses in rules]
    taut_answer, *rule_answers = client.ask_batch(queries)
    k = taut_answer.k

    invalid = 0
    totals, taut_invalid = repair_histogram(taut_answer.counts, policy, population, float(population))
    invalid += taut_invalid
    if (totals <= 0).any():
        raise DegenerateEstimateError("tautology histogram has a nonpositive group total after repair")

    accept_rates = np.zeros(k, dtype=float)
    for answer in rule_answers:
        noisy = np.asarray(answer.counts, dtype=float)
        repaired, n_inv = repair_histogram(noisy, policy, population, float(noisy.sum()))
        invalid += n_inv
        accept_rates += repaired / totals

    top = float(accept_rates.max()) if k else 0.0
    if top <= 0.0:
        raise DegenerateEstimateError("all acceptance rates are zero after repair")
    sp = float(accept_rates.min()) / top
    return SpEstimate(
        sp=sp,
        accept_rates=tuple(float(r) for r in accept_rates),
        query_count=1 + len(rules),
        invalid_cells=invalid,
        total_cells=(1 + len(rules)) * k,
        epsilon_spent=half + half,
    )
