import json
import math
import socket
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privfair import curator as C
from privfair.data import Dataset, SensitiveTable
from privfair.errors import (REFUSAL_REASONS, BudgetRefusal, DataError, MechanismError,
                             ParameterError, ProtocolError)
from privfair.tree import SplitClause, rule_mask

from conftest import (FIXTURES, batch_to_frame, clause_to_wire, query_to_frame, reference_digest,
                      replay, serve_in_background)


def fixed_tables():
    """Hand-built 20-row table with groups [0]*10 + [1]*10."""
    n = 20
    x = np.arange(n, dtype=float)
    c = np.array(["a", "b"] * 10)
    y = np.array([1, 0] * 10)
    ds = Dataset(np.arange(n), ("x", "c"), {"x": "numeric", "c": "categorical"},
                 {"x": x, "c": c}, y)
    return ds, SensitiveTable(np.arange(n), np.array([0] * 10 + [1] * 10), ("g0", "g1"))


def fixed_curator(total_epsilon=1.0, seed=0):
    return C.Curator(*fixed_tables(), total_epsilon=total_epsilon, seed=seed)


def test_curator_refuses_a_sensitive_table_on_other_rows():
    """Equal lengths are not enough: permuted ids would attach groups to the wrong rows."""
    ds, table = fixed_tables()
    permuted = SensitiveTable(table.instance_ids[::-1], table.groups, table.group_names)
    with pytest.raises(DataError, match="align"):
        C.Curator(ds, permuted)


def lt(feature, value, negated=False):
    return SplitClause(feature, "numeric", value, negated)


def eq(feature, value, negated=False):
    return SplitClause(feature, "categorical", value, negated)


# ---------------------------------------------------------------------------
# exact histogram through the noiseless fixture

def exact_counts(clauses):
    cur = fixed_curator()
    return list(cur.answer(C.CuratorQuery(clauses, 0.1, "laplace")).counts)


def test_exact_histogram_tautology(noiseless):
    assert exact_counts(()) == [10.0, 10.0]


def test_exact_histogram_nobody(noiseless):
    assert exact_counts((lt("x", -5.0),)) == [0.0, 0.0]


def test_exact_histogram_matches_brute_force_filter(noiseless):
    # rule x < 5 matches rows 0..4, all group 0
    assert exact_counts((lt("x", 5.0),)) == [5.0, 0.0]
    # conjunction with c = a keeps even rows only
    got = exact_counts((lt("x", 13.0), eq("c", "a")))
    expected = [sum(1 for i in range(10) if i < 13 and i % 2 == 0),
                sum(1 for i in range(10, 20) if i < 13 and i % 2 == 0)]
    assert got == [float(e) for e in expected]


def test_exact_histogram_category_absent_from_column(noiseless):
    assert exact_counts((eq("c", "zz"),)) == [0.0, 0.0]
    assert exact_counts((eq("c", "0"),)) == [0.0, 0.0]
    assert exact_counts((eq("c", "zz", negated=True),)) == [10.0, 10.0]


def test_exact_histogram_unknown_feature_errors():
    with pytest.raises(KeyError):
        exact_counts((lt("zz", 1.0),))


# ---------------------------------------------------------------------------
# answer + ledger

def test_budget_two_halves_then_refusal():
    cur = fixed_curator(total_epsilon=1.0, seed=1)
    q = C.CuratorQuery((), 0.5, "laplace")
    cur.answer(q)
    cur.answer(q)
    with pytest.raises(BudgetRefusal) as exc:
        cur.answer(q)
    assert exc.value.remaining_epsilon == pytest.approx(0.0)
    ledger = cur.ledger()
    assert ledger.spent == pytest.approx(1.0)
    assert replay(ledger) == ledger.spent


def split_leaves(lo, hi, depth):
    """Root-to-leaf clause paths of a balanced tree that halves [lo, hi) on x."""
    if depth == 0:
        return [()]
    mid = (lo + hi) / 2
    return ([(lt("x", mid),) + path for path in split_leaves(lo, mid, depth - 1)]
            + [(lt("x", mid, True),) + path for path in split_leaves(mid, hi, depth - 1)])


def test_parallel_batch_of_eight_single_charge():
    # the eight leaves of a depth-3 split on x, in one batch, cost one 0.5 charge
    cur = fixed_curator(total_epsilon=1.0, seed=2)
    for clauses in split_leaves(0.0, 20.0, 3):
        cur.answer(C.CuratorQuery(clauses, 0.5, "laplace", batch_id="b1"))
    assert cur.ledger().spent == pytest.approx(0.5)
    assert len(cur.ledger().entries) == 8


def test_parallel_requires_batch_id():
    cur = fixed_curator()
    with pytest.raises(BudgetRefusal):
        cur.answer(C.CuratorQuery((), 0.1, "laplace", batch_id=""))


def test_parallel_overlapping_predicates_refused():
    cur = fixed_curator(total_epsilon=5.0, seed=3)
    cur.answer(C.CuratorQuery((lt("x", 8.0),), 0.5, "laplace", batch_id="b2"))
    with pytest.raises(BudgetRefusal):
        cur.answer(C.CuratorQuery((lt("x", 3.0),), 0.5, "laplace", batch_id="b2"))


def neighbour_curator(rows):
    x = np.array([r[0] for r in rows], dtype=float)
    c = np.array([r[1] for r in rows])
    ds = Dataset(np.arange(len(rows)), ("x", "c"), {"x": "numeric", "c": "categorical"},
                 {"x": x, "c": c}, np.zeros(len(rows), dtype=int))
    table = SensitiveTable(np.arange(len(rows)), np.arange(len(rows)) % 2, ("g0", "g1"))
    return C.Curator(ds, table, total_epsilon=1.0, seed=5)


@pytest.mark.parametrize("rows", [
    [(7, "a"), (2, "b"), (9, "a"), (1, "b")],
    [(7, "a"), (2, "b"), (9, "a"), (1, "b"), (1, "a")],
], ids=["disjoint-on-these-rows", "neighbour-with-an-overlap"])
def test_parallel_disjointness_is_decided_without_the_rows(rows):
    # x < 5 and c = a share no row on the first table, but one added row falls
    # under both; answering one neighbour and refusing the other would leak
    cur = neighbour_curator(rows)
    with pytest.raises(BudgetRefusal):
        cur.answer_batch([C.CuratorQuery(clauses, 0.5, "laplace", batch_id="b")
                          for clauses in [(lt("x", 5.0),), (eq("c", "a"),)]])
    assert cur.ledger().spent == 0.0
    assert cur.ledger().entries == []


def test_refused_parallel_batch_reads_no_row(monkeypatch):
    def no_rows(conjunctions, data):
        raise AssertionError("a row was read")

    monkeypatch.setattr(C, "prefix_masks", no_rows)
    cur = fixed_curator(seed=3)
    with pytest.raises(BudgetRefusal):
        cur.answer_batch([C.CuratorQuery((lt("x", 8.0),), 0.5, "laplace", batch_id="b"),
                          C.CuratorQuery((lt("x", 3.0),), 0.5, "laplace", batch_id="b")])
    assert cur.ledger().entries == []


literals = st.sampled_from(
    [lt("x", v, neg) for v in (0.0, 1.0, 2.0) for neg in (False, True)]
    + [eq("c", v, neg) for v in ("a", "b", "zz") for neg in (False, True)]
)
conjunctions = st.lists(literals, min_size=1, max_size=3).map(tuple)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(a=conjunctions, b=conjunctions,
       x=st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, math.nan]), min_size=1,
                  max_size=12),
       data=st.data())
def test_admitted_batch_members_are_disjoint_on_any_table(a, b, x, data):
    if data.draw(st.booleans()):  # often declare b disjoint from a
        declared = data.draw(st.sampled_from(a))
        b += (replace(declared, negated=not declared.negated),)
    c = data.draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=len(x), max_size=len(x)))
    ds = Dataset(np.arange(len(x)), ("x", "c"), {"x": "numeric", "c": "categorical"},
                 {"x": np.array(x), "c": np.array(c)}, np.zeros(len(x), dtype=int))
    queries = [C.CuratorQuery(clauses, 0.5, "laplace", batch_id="b")
               for clauses in (a, b)]
    try:
        C.BudgetLedger(1.0).charge_all(queries, ["a", "b"])
    except BudgetRefusal:
        return
    assert not (rule_mask(a, ds) & rule_mask(b, ds)).any()


def test_exponential_answers_within_range():
    cur = fixed_curator(total_epsilon=10.0, seed=4)
    for _ in range(20):
        ans = cur.answer(C.CuratorQuery((), 0.5, "exponential"))
        assert all(0 <= v <= 20 for v in ans.counts)


def test_exact_stub_gated():
    # the noiseless "exact" mechanism is gone from the curator: no query can name it
    with pytest.raises(MechanismError, match="mechanism 'exact' not available"):
        C.CuratorQuery((), 0.5, "exact")
    cur = fixed_curator()
    reply = C.process_frame(cur, raw_query_frame(epsilon="0.5", mechanism="exact"))
    assert reply == C.error_frame("mechanism 'exact' not available")
    assert cur.ledger().entries == []


def test_a_curator_without_a_seed_draws_noise_no_client_can_replay():
    # the default seed was 0, so any client with the code could draw the
    # noise itself and subtract it
    q = C.CuratorQuery((), 0.1, "laplace")
    first, second = (C.Curator(*fixed_tables()).answer(q).counts for _ in range(2))
    replayed = fixed_curator(seed=0).answer(q).counts
    assert not np.array_equal(first, second)
    assert not np.array_equal(first, replayed) and not np.array_equal(second, replayed)


@pytest.mark.parametrize("epsilon, mechanism, delta, error", [
    (0.25, "exact", 0.0, MechanismError),
    (0.25, "Laplace", 0.0, MechanismError),
    (1.5, "gaussian", 1e-5, ParameterError),
    (0.5, "gaussian", 0.0, ParameterError),
    (0.0, "laplace", 0.0, ParameterError),
    (-0.5, "exponential", 0.0, ParameterError),
    (math.nan, "laplace", 0.0, ParameterError),
    (0.5, "laplace", 1.0, ParameterError),
], ids=["gated-mechanism", "unknown-mechanism", "gaussian-limit", "gaussian-without-delta",
        "zero-epsilon", "negative-epsilon", "nan-epsilon", "delta-one"])
def test_bad_query_is_refused_when_built(epsilon, mechanism, delta, error):
    # each was built, and refused only once a curator was asked it
    with pytest.raises(error):
        C.CuratorQuery((), epsilon, mechanism, delta)


@pytest.mark.parametrize("batch_id", [5, b"b", ["b"]], ids=["number", "bytes", "list"])
def test_in_process_batch_id_must_be_a_string(batch_id):
    # batch_id=5 was answered and charged 0.5; the wire refuses it as a mistyped field
    cur = fixed_curator(total_epsilon=1.0, seed=61)
    with pytest.raises(ParameterError, match="is not a string"):
        cur.answer(C.CuratorQuery((), 0.5, "laplace", batch_id=batch_id))
    assert cur.ledger().spent == 0.0
    assert cur.ledger().entries == []


def test_digest_covers_a_nonzero_delta():
    # delta 1e-6 and 0.9 gave one digest
    digests = {C.CuratorQuery((), 0.5, "gaussian", d).digest() for d in (1e-6, 1e-5, 0.9)}
    assert len(digests) == 3
    # a zero delta stays out of the text, so the digest is what it was
    assert C.CuratorQuery((), 0.5, "laplace", 0).digest() == \
        C.CuratorQuery((), 0.5, "laplace").digest() == "b8276004ab95254f"


def test_refusal_consumes_no_randomness():
    cur = fixed_curator(total_epsilon=0.6, seed=7)
    a1 = cur.answer(C.CuratorQuery((), 0.5, "laplace"))
    with pytest.raises(BudgetRefusal):
        cur.answer(C.CuratorQuery((), 0.5, "laplace"))
    a2 = cur.answer(C.CuratorQuery((), 0.1, "laplace"))

    ref = fixed_curator(total_epsilon=0.6, seed=7)
    b1 = ref.answer(C.CuratorQuery((), 0.5, "laplace"))
    b2 = ref.answer(C.CuratorQuery((), 0.1, "laplace"))
    assert np.array_equal(a1.counts, b1.counts)
    assert np.array_equal(a2.counts, b2.counts)


def test_answer_deterministic_under_seed_and_order():
    queries = [C.CuratorQuery((), 0.2, "laplace"),
               C.CuratorQuery((lt("x", 5.0),), 0.2, "gaussian", delta=1e-3),
               C.CuratorQuery((eq("c", "a"),), 0.2, "exponential")]
    out1 = [fixed_curator(seed=11).answer(q).counts for q in [queries[0]]]
    cur_a, cur_b = fixed_curator(total_epsilon=2, seed=11), fixed_curator(total_epsilon=2, seed=11)
    for q in queries:
        assert np.array_equal(cur_a.answer(q).counts, cur_b.answer(q).counts)


def test_per_identity_budgets():
    cur = fixed_curator(total_epsilon=0.5, seed=13)
    cur.answer(C.CuratorQuery((), 0.5, "laplace"), "alice")
    with pytest.raises(BudgetRefusal):
        cur.answer(C.CuratorQuery((), 0.1, "laplace"), "alice")
    # a second identity has a ledger of its own
    cur.answer(C.CuratorQuery((), 0.5, "laplace"), "bob")
    assert cur.ledger("alice").spent == cur.ledger("bob").spent == 0.5
    assert cur.ledger().entries == []


def test_ledger_monotone_and_replayable():
    cur = fixed_curator(total_epsilon=3.0, seed=17)
    spends = []
    for i in range(5):
        cur.answer(C.CuratorQuery((), 0.3, "laplace"))
        spends.append(cur.ledger().spent)
    assert spends == sorted(spends)
    assert replay(cur.ledger()) == cur.ledger().spent


# ---------------------------------------------------------------------------
# batches: all or nothing, bit-identical to one-by-one answering

def audit_queries(batch_id="b"):
    """A tautology plus a disjoint partition whose rules share clause prefixes."""
    parts = [
        ((lt("x", 10.0), lt("x", 5.0)), "laplace", 0.0),
        ((lt("x", 10.0), lt("x", 5.0, True)), "gaussian", 1e-3),
        ((lt("x", 10.0, True), eq("c", "a")), "exponential", 0.0),
        ((lt("x", 10.0, True), eq("c", "a", True)), "laplace", 0.0),
    ]
    return [C.CuratorQuery((), 0.25, "laplace")] + [
        C.CuratorQuery(clauses, 0.25, mechanism, delta, batch_id)
        for clauses, mechanism, delta in parts
    ]


@pytest.mark.parametrize("seed", [0, 5, 11])
def test_answer_batch_matches_one_by_one(seed):
    queries = audit_queries()
    batched = fixed_curator(total_epsilon=1.0, seed=seed)
    one_by_one = fixed_curator(total_epsilon=1.0, seed=seed)
    got = batched.answer_batch(queries)
    want = [one_by_one.answer(q) for q in queries]
    assert [a.counts.tobytes() for a in got] == [a.counts.tobytes() for a in want]
    assert [a.digest for a in got] == [q.digest() for q in queries]
    assert batched.ledger().entries == one_by_one.ledger().entries
    assert len(batched.ledger().entries) == len(queries)
    assert batched.ledger().spent == one_by_one.ledger().spent == 0.5


@pytest.mark.parametrize(
    "last, error",
    [
        (C.CuratorQuery((lt("zz", 1.0),), 0.25, "laplace", batch_id="b"), KeyError),
        (C.CuratorQuery((lt("x", 3.0),), 0.25, "laplace", batch_id="b"), BudgetRefusal),
        (C.CuratorQuery((), 0.25, "laplace", batch_id=""), BudgetRefusal),
        (C.CuratorQuery((), 0.6, "laplace"), BudgetRefusal),
    ],
    ids=["unknown-feature", "overlapping", "missing-batch-id", "over-budget"],
)
def test_batch_with_a_bad_last_query_charges_nothing_and_draws_no_noise(last, error):
    cur = fixed_curator(total_epsilon=1.0, seed=43)
    with pytest.raises(error):
        cur.answer_batch(audit_queries() + [last])
    assert cur.ledger().spent == 0.0
    assert cur.ledger().entries == []
    # neither the noise stream nor the batch's disjointness state moved
    fresh = fixed_curator(total_epsilon=1.0, seed=43)
    got = cur.answer_batch(audit_queries())
    want = fresh.answer_batch(audit_queries())
    assert [a.counts.tobytes() for a in got] == [a.counts.tobytes() for a in want]


def test_refused_batch_reports_the_untouched_remaining_budget():
    cur = fixed_curator(total_epsilon=0.4, seed=47)
    with pytest.raises(BudgetRefusal) as exc:
        cur.answer_batch(audit_queries())  # 0.25 + 0.25 > 0.4
    assert exc.value.remaining_epsilon == pytest.approx(0.4)
    assert cur.ledger().spent == 0.0


def test_empty_batch_is_answered_with_nothing():
    cur = fixed_curator(seed=53)
    assert cur.answer_batch([]) == []
    assert cur.ledger().entries == []


def test_batch_spanning_two_requests_is_still_checked_for_overlap():
    cur = fixed_curator(total_epsilon=2.0, seed=59)
    queries = audit_queries()
    cur.answer_batch(queries[:3])
    with pytest.raises(BudgetRefusal):
        cur.answer_batch([queries[1]])
    cur.answer_batch(queries[3:])
    assert cur.ledger().spent == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# frames

def test_clause_wire_roundtrip():
    for rc in (lt("x", 3.5), lt("x", 3.5, True), eq("c", "a"), eq("c", "a", True)):
        assert C.clause_from_wire(clause_to_wire(rc)) == rc


def test_clause_wire_refuses_ge_and_ne():
    # ">=" and "!=" were read as negated "<" and "="; no client sends them
    cur = fixed_curator(total_epsilon=1.0, seed=97)
    for clause in ({"feature": "x", "op": ">=", "value": 3.5, "negated": False},
                   {"feature": "c", "op": "!=", "value": "a"}):
        with pytest.raises(DataError, match="unknown clause op"):
            C.clause_from_wire(clause)
        frame = {**query_to_frame(C.CuratorQuery((), 0.25, "laplace")), "predicate": [clause]}
        assert C.process_frame(cur, C.encode_frame(frame))["type"] == "error"
    assert cur.ledger().spent == 0.0
    assert cur.ledger().entries == []


@pytest.mark.parametrize("feature, kind, value, negated", [
    ("x", "numeric", "3", False),
    ("c", "categorical", ["a"], False),
    ("c", "categorical", 3, False),
    ("x", "ordinal", 3.0, False),
    (3, "numeric", 3.0, False),
    ("x", "numeric", 3.0, np.bool_(True)),
], ids=["non-numeric-threshold", "unhashable-category", "numeric-category", "unknown-kind",
        "feature-number", "negated-numpy-bool"])
def test_bad_clause_is_refused_when_built(feature, kind, value, negated):
    with pytest.raises(DataError):
        SplitClause(feature, kind, value, negated)


def test_int_valued_clause_has_one_digest_in_process_and_on_the_wire():
    # x < 5 was hashed with "value":5 in process but "value":5.0 once read from a frame
    q = C.CuratorQuery((lt("x", 5),), 0.5, "laplace")
    assert q.clauses == (lt("x", 5.0),) and type(q.clauses[0].value) is float
    reply = C.process_frame(fixed_curator(seed=23), C.encode_frame(query_to_frame(q)))
    assert reply["digest"] == q.digest() == fixed_curator(seed=23).answer(q).digest


def test_query_frame_roundtrip():
    q = C.CuratorQuery((lt("x", 2.0), eq("c", "b", True)), 0.25, "laplace", batch_id="batch-7")
    frame = query_to_frame(q)
    assert frame["epsilon"] == "0.25"
    assert C.frame_to_query(frame) == (q, "default")
    assert "identity" not in frame
    assert C.frame_to_query(query_to_frame(q, "alice")) == (q, "alice")


def test_counts_travel_as_decimal_strings():
    cur = fixed_curator(seed=19)
    ans = cur.answer(C.CuratorQuery((), 0.5, "laplace"))
    frame = C.answer_to_frame(ans)
    assert all(isinstance(c, str) for c in frame["counts"])
    back = [float(c) for c in frame["counts"]]
    assert back == list(ans.counts)  # repr round-trips exactly


def test_process_frame_malformed_returns_error_frame():
    cur = fixed_curator()
    reply = C.process_frame(cur, b"this is not json\n")
    assert reply["type"] == "error"


def test_process_frame_over_budget_refusal():
    cur = fixed_curator(total_epsilon=0.1)
    frame = query_to_frame(C.CuratorQuery((), 0.5, "laplace"))
    reply = C.process_frame(cur, C.encode_frame(frame))
    assert reply["type"] == "refusal"
    assert float(reply["remaining_epsilon"]) == pytest.approx(0.1)
    assert cur.ledger().spent == 0.0


MISSING = object()  # a raw_query_frame field given this value is left out


def raw_query_frame(**fields) -> bytes:
    frame = {"type": "query", "predicate": [], "mechanism": "laplace", **fields}
    return C.encode_frame({key: value for key, value in frame.items() if value is not MISSING})


def test_nan_epsilon_is_rejected_before_charge():
    cur = fixed_curator(total_epsilon=1.0)
    reply = C.process_frame(cur, raw_query_frame(epsilon="nan"))
    assert reply["type"] == "error"
    assert cur.ledger().spent == 0.0
    assert cur.ledger().entries == []
    # the budget still binds afterwards
    reply = C.process_frame(cur, raw_query_frame(epsilon="5"))
    assert reply["type"] == "refusal"
    assert cur.ledger().spent == 0.0


def test_gaussian_epsilon_limit_is_checked_before_charge():
    cur = fixed_curator(total_epsilon=2.0)
    reply = C.process_frame(cur, raw_query_frame(epsilon="1.5", delta="1e-05", mechanism="gaussian"))
    assert reply["type"] == "error"
    assert cur.ledger().spent == 0.0
    assert cur.ledger().entries == []


def test_out_of_range_delta_is_rejected_before_charge():
    cur = fixed_curator(total_epsilon=1.0)
    reply = C.process_frame(cur, raw_query_frame(epsilon="0.5", delta="2"))
    assert reply["type"] == "error"
    assert cur.ledger().spent == 0.0
    assert cur.ledger().entries == []


@pytest.mark.parametrize(
    "fields",
    [
        {"epsilon": "0.5", "delta": "abc"},
        {"epsilon": "0.5", "batch_id": {"a": 1}},
        {"epsilon": "0.5", "identity": ["x"]},
        {"epsilon": "0.5", "predicate": [{"feature": {"a": 1}, "op": "<", "value": 1}]},
        {"epsilon": "0.5", "predicate": [{"feature": "c", "op": "<", "value": 1}]},
        {"epsilon": 10 ** 400},
        {"epsilon": True},
        {"epsilon": 0.5},
        {"epsilon": "0.5", "predicate": MISSING},
        {"epsilon": "0.5", "predicate": {}},
        {"epsilon": "0.5", "predicate": ""},
        {"epsilon": "0.5", "identiy": "alice"},
        {"epsilon": "0.5", "delta": 0},
        {"epsilon": "0.5", "delta": None},
        {"epsilon": "0.5", "delta": False},
    ],
    ids=["delta-text", "batch-id-object", "identity-list", "feature-object",
         "numeric-clause-on-categorical", "epsilon-overflow", "epsilon-bool", "epsilon-number",
         "predicate-missing", "predicate-object", "predicate-empty-text", "unknown-key",
         "delta-zero", "delta-null", "delta-false"],
)
def test_malformed_query_frame_gets_error_frame(fields):
    cur = fixed_curator(total_epsilon=1.0)
    reply = C.process_frame(cur, raw_query_frame(**fields))
    assert reply["type"] == "error"
    assert cur.ledger().spent == 0.0
    assert cur.ledger().entries == []


MISTYPED_CLAUSES = [
    {"feature": "x", "op": "<", "value": 5.0, "negated": "false"},
    {"feature": "x", "op": "<", "value": 5.0, "negated": 0},
    {"feature": "x", "op": "<", "value": "nan"},
    {"feature": "x", "op": "<", "value": "5"},
    {"feature": "x", "op": "<", "value": True},
    {"feature": "x", "op": "<", "value": math.inf},
    {"feature": "c", "op": "=", "value": None},
    {"feature": "c", "op": "=", "value": 5},
    {"feature": "x", "op": "<", "value": 5.0, "negated": False, "negate": True},
    ["x", "<", 5.0],
    "x < 5",
]


@pytest.mark.parametrize("clause", MISTYPED_CLAUSES, ids=[
    "negated-string", "negated-number", "numeric-nan-text", "numeric-text", "numeric-bool",
    "numeric-infinity", "categorical-null", "categorical-number", "misspelt-key", "list",
    "string"])
def test_mistyped_clause_field_gets_error_frame_and_draws_no_noise(clause):
    # each used to be coerced: "false" read as negated (the complement was
    # answered), "nan" and "5" parsed as floats, true as 1.0, null and 5 as
    # the strings "None" and "5"; the misspelt "negate" key was dropped, so
    # the un-negated clause was answered and charged
    cur = fixed_curator(total_epsilon=1.0, seed=47)
    query = {**query_to_frame(C.CuratorQuery((), 0.25, "laplace")), "predicate": [clause]}
    batch = batch_to_frame(audit_queries())
    batch["queries"][1]["predicate"].append(clause)
    for frame in (query, batch):
        reply = C.process_frame(cur, C.encode_frame(frame))
        assert reply["type"] == "error"
        assert cur.ledger().spent == 0.0
        assert cur.ledger().entries == []
    with pytest.raises(DataError):
        C.clause_from_wire(clause)
    fresh = fixed_curator(total_epsilon=1.0, seed=47)
    got = cur.answer_batch(audit_queries())
    want = fresh.answer_batch(audit_queries())
    assert [a.counts.tobytes() for a in got] == [a.counts.tobytes() for a in want]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True, np.int64(3)],
                         ids=["nan", "infinity", "minus-infinity", "bool", "numpy-int"])
def test_in_process_clause_value_follows_the_wire_rule(value):
    # the wire refused each of these; in process NaN, the infinities and True
    # were answered and np.int64 escaped the digest as a TypeError
    cur = fixed_curator(total_epsilon=1.0, seed=53)
    with pytest.raises(DataError):
        cur.answer(C.CuratorQuery((lt("x", value),), 0.25, "laplace"))
    assert cur.ledger().spent == 0.0
    assert cur.ledger().entries == []
    fresh = fixed_curator(total_epsilon=1.0, seed=53)
    got = cur.answer_batch(audit_queries())
    want = fresh.answer_batch(audit_queries())
    assert [a.counts.tobytes() for a in got] == [a.counts.tobytes() for a in want]


@pytest.mark.parametrize("extra", [{"identiy": "alice"}, {"identity": "alice"},
                                   {"batch_id": "b"}, {"queries": [], "epsilon": "0.5"}],
                         ids=["misspelt-identity", "identity", "batch-id", "epsilon"])
def test_unknown_batch_frame_key_gets_error_frame_and_draws_no_noise(extra):
    # only "queries" was checked: the misspelt identity was answered and
    # charged 0.5 to "default"
    cur = fixed_curator(total_epsilon=1.0, seed=59)
    frame = {**batch_to_frame(audit_queries()), **extra}
    reply = C.process_frame(cur, C.encode_frame(frame))
    assert reply["type"] == "error" and "batch frame key" in reply["message"]
    assert cur.ledger().spent == 0.0 and cur.ledger("alice").spent == 0.0
    assert cur.ledger().entries == []
    fresh = fixed_curator(total_epsilon=1.0, seed=59)
    got = cur.answer_batch(audit_queries())
    want = fresh.answer_batch(audit_queries())
    assert [a.counts.tobytes() for a in got] == [a.counts.tobytes() for a in want]


@pytest.mark.parametrize("epsilon, delta", [
    (True, 0.0), ("0.5", 0.0), (None, 0.0), (np.bool_(True), 0.0), (0.5, False), (0.5, "0"),
], ids=["epsilon-bool", "epsilon-text", "epsilon-none", "epsilon-numpy-bool", "delta-bool",
        "delta-text"])
def test_in_process_epsilon_and_delta_must_be_real_numbers(epsilon, delta):
    # epsilon True was answered and charged 1.0, and "0.5" escaped as a bare TypeError
    cur = fixed_curator(total_epsilon=2.0, seed=61)
    with pytest.raises(ParameterError, match="not a real number"):
        cur.answer(C.CuratorQuery((), epsilon, "laplace", delta))
    assert cur.ledger().spent == 0.0
    assert cur.ledger().entries == []
    fresh = fixed_curator(total_epsilon=2.0, seed=61)
    got = cur.answer(C.CuratorQuery((), np.float64(0.5), "laplace"))
    want = fresh.answer(C.CuratorQuery((), 0.5, "laplace"))
    assert got.counts.tobytes() == want.counts.tobytes()
    # an int epsilon is a real number, hashed as the float it equals
    assert cur.answer(C.CuratorQuery((), 1, "laplace")).digest == \
        C.CuratorQuery((), 1.0, "laplace").digest()


def test_deeply_nested_frame_gets_error_frame():
    cur = fixed_curator()
    assert C.process_frame(cur, b"[" * 100_000 + b"\n")["type"] == "error"


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


def perturbed(base, keys):
    """Well-formed dicts from base with some keys set to arbitrary JSON or dropped."""
    return st.tuples(
        base,
        st.dictionaries(st.sampled_from(keys), json_values, max_size=1),
        st.sets(st.sampled_from(keys), max_size=1),
    ).map(lambda t: {k: v for k, v in {**t[0], **t[1]}.items() if k not in t[2]})


wire_clauses = perturbed(
    st.fixed_dictionaries(
        {"feature": st.just("x"), "op": st.just("<"), "value": st.floats()},
        optional={"negated": st.booleans()},
    )
    | st.fixed_dictionaries(
        {"feature": st.just("c"), "op": st.just("="),
         "value": st.sampled_from(["a", "b", "z"])},
        optional={"negated": st.booleans()},
    ),
    ["feature", "op", "value", "negated"],
)
query_frames = perturbed(
    st.fixed_dictionaries(
        {
            "type": st.just("query"),
            "predicate": st.lists(wire_clauses, max_size=2),
            "epsilon": st.sampled_from(["0.1", "0.2", "0.3", "0.5", "1.5", "-1", "nan"]),
            "mechanism": st.sampled_from(["laplace", "exponential", "gaussian", "exact"]),
        },
        optional={
            "delta": st.sampled_from(["0", "1e-05", "2", "nan"]),
            "batch_id": st.sampled_from(["b-1", "b-2", ""]),
            "identity": st.sampled_from(["default", "other"]),
        },
    ),
    ["type", "predicate", "epsilon", "mechanism", "delta", "batch_id", "identity"],
)


batch_frames = st.lists(query_frames, max_size=4).map(
    lambda queries: {"type": "batch", "queries": queries}
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(query_frames | batch_frames, min_size=1, max_size=8))
def test_process_frame_never_raises_and_ledger_holds(frames):
    cur = fixed_curator(total_epsilon=1.0)
    members = [q for f in frames for q in f.get("queries", [f])]
    identities = {"default"} | {
        q["identity"] for q in members if isinstance(q.get("identity"), str)
    }
    before = {identity: (0.0, 0) for identity in identities}
    for frame in frames:
        reply = C.process_frame(cur, C.encode_frame(frame))
        assert reply["type"] in ("answer", "answers", "refusal", "error")
        if reply["type"] == "refusal":
            assert set(reply) <= {"type", "remaining_epsilon", "reason"}
            assert reply.get("reason") in (None, "not-disjoint", "missing-batch-id")
            if reply.get("reason") == "missing-batch-id":
                members = frame.get("queries", [frame])
                assert any(q.get("batch_id", "b") in ("", None) for q in members)
        for identity in identities:
            ledger = cur.ledger(identity)
            now = (ledger.spent, len(ledger.entries))
            assert math.isfinite(ledger.spent)
            assert before[identity][0] <= ledger.spent <= 1.0 + 1e-9
            if reply["type"] not in ("answer", "answers"):
                assert now == before[identity]  # a refused or bad request costs nothing
            before[identity] = now


def test_answer_frame_matches_query_digest():
    cur = fixed_curator(seed=23)
    q = C.CuratorQuery((lt("x", 5.0),), 0.5, "laplace")
    reply = C.process_frame(cur, C.encode_frame(query_to_frame(q)))
    assert reply["type"] == "answer"
    assert reply["digest"] == q.digest()


# names and values with non-ASCII letters, quotes and backslashes
wire_strings = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=6) \
    | st.sampled_from(['"', "\\", 'a"b\\c', "\u00e9t\u00e9", "\u2603", "\U0001f600", "\n\t", ""])
# values a clause can be built with: finite, and ints within the float range
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
numeric_values = finite_floats | st.integers(-2 ** 64, 2 ** 64) | finite_floats.map(np.float64) \
    | st.sampled_from([-0.0, 5e-324, 1e308, np.float64(-0.0)])
text_clauses = st.builds(SplitClause, wire_strings, st.just("numeric"), numeric_values,
                         st.booleans()) \
    | st.builds(SplitClause, wire_strings, st.just("categorical"), wire_strings, st.booleans())
text_predicates = st.lists(text_clauses, max_size=4).map(tuple)
batch_ids = st.none() | st.just("") | wire_strings
text_queries = st.builds(
    C.CuratorQuery, text_predicates, st.floats(min_value=1e-3, max_value=10.0),
    st.sampled_from(["laplace", "exponential"]),
    st.sampled_from([0.0, 1e-5]) | st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    batch_ids,
) | st.builds(
    C.CuratorQuery, text_predicates, st.floats(min_value=1e-3, max_value=1.0, exclude_max=True),
    st.just("gaussian"), st.just(1e-5) | st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                                                   exclude_max=True),
    batch_ids)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(queries=st.lists(text_queries, max_size=4),
       identity=st.just("default") | st.sampled_from(["alice", "b\u00f6b"]) | wire_strings)
def test_assembled_digest_and_frames_equal_the_json_references(queries, identity):
    for q in queries:
        assert q.digest() == reference_digest(q)
        assert (C.query_text(q, identity) + "\n").encode("utf-8") == \
            C.encode_frame(query_to_frame(q, identity))
    assert C.batch_line(queries, identity) == C.encode_frame(batch_to_frame(queries, identity))


clause_dicts = json_values | perturbed(
    st.fixed_dictionaries(
        {"feature": st.sampled_from(["x", "zz"]), "op": st.just("<"),
         "value": numeric_values | st.floats()},
        optional={"negated": st.booleans()},
    )
    | st.fixed_dictionaries(
        {"feature": st.sampled_from(["c", "x"]), "op": st.just("="), "value": wire_strings},
        optional={"negated": st.booleans()},
    ),
    ["feature", "op", "value", "negated", "negate"],
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(clause_dicts)
def test_wire_clause_is_refused_or_decodes_to_its_own_canonical_text(d):
    cur = fixed_curator(total_epsilon=1.0, seed=101)
    frame = {**query_to_frame(C.CuratorQuery((), 0.25, "laplace")), "predicate": [d]}
    reply = C.process_frame(cur, C.encode_frame(frame))
    if reply["type"] == "error":
        assert all(ledger.spent == 0.0 and ledger.entries == [] for ledger in cur._ledgers.values())
        return
    assert reply["type"] == "answer"
    canonical = {**d, "negated": d.get("negated", False)}
    if d["op"] == "<":
        canonical["value"] = float(d["value"])
    assert C.clause_from_wire(d).wire_text == json.dumps(canonical, sort_keys=True,
                                                         separators=(",", ":"))


def test_batch_frame_gets_one_answers_frame():
    queries = audit_queries()
    cur = fixed_curator(seed=61)
    reply = C.process_frame(cur, C.encode_frame(batch_to_frame(queries)))
    assert reply["type"] == "answers"
    ref = fixed_curator(seed=61)
    assert reply["answers"] == [C.answer_to_frame(ref.answer(q)) for q in queries]
    assert cur.ledger().entries == ref.ledger().entries


def test_refused_batch_frame_charges_nothing():
    cur = fixed_curator(total_epsilon=1.0, seed=67)
    overlapping = C.CuratorQuery((lt("x", 3.0),), 0.25, "laplace", batch_id="b")
    reply = C.process_frame(cur, C.encode_frame(batch_to_frame(audit_queries() + [overlapping])))
    assert reply == C.refusal_frame(1.0, "not-disjoint")
    assert cur.ledger().spent == 0.0
    assert cur.ledger().entries == []


@pytest.mark.parametrize(
    "frame",
    [
        {"type": "batch"},
        {"type": "batch", "queries": "abc"},
        {"type": "batch", "queries": {"type": "query"}},
        {"type": "batch", "queries": [1]},
        {"type": "batch", "queries": [{"type": "batch", "queries": []}]},
        {"type": "batch", "queries": [query_to_frame(C.CuratorQuery((), 0.1, "laplace")),
                                      {"type": "query", "mechanism": "laplace"}]},
    ],
    ids=["no-queries", "string", "object", "number", "nested-batch", "bad-member"],
)
def test_malformed_batch_frame_gets_error_frame(frame):
    cur = fixed_curator(total_epsilon=1.0)
    reply = C.process_frame(cur, C.encode_frame(frame))
    assert reply["type"] == "error"
    assert cur.ledger().entries == []


def test_batch_frame_from_two_identities_gets_an_error_and_charges_nothing():
    cur = fixed_curator(total_epsilon=1.0, seed=43)
    frame = batch_to_frame(audit_queries())
    frame["queries"].append(query_to_frame(C.CuratorQuery((), 0.25, "laplace"), "other"))
    reply = C.process_frame(cur, C.encode_frame(frame))
    assert reply == C.error_frame("a batch must come from a single identity")
    for identity in ("default", "other"):
        assert cur.ledger(identity).spent == 0.0
        assert cur.ledger(identity).entries == []
    # no noise was drawn: the next audit answers as on a fresh curator
    fresh = fixed_curator(total_epsilon=1.0, seed=43)
    got = cur.answer_batch(audit_queries())
    want = fresh.answer_batch(audit_queries())
    assert [a.counts.tobytes() for a in got] == [a.counts.tobytes() for a in want]


@pytest.mark.parametrize("batch_id", [None, ""], ids=["null", "empty"])
def test_batch_id_key_keeps_the_parallel_flag_on_the_wire(batch_id):
    cur = fixed_curator(total_epsilon=1.0)
    line = raw_query_frame(epsilon="0.5", batch_id=batch_id)
    reply = C.process_frame(cur, line)
    assert reply == C.refusal_frame(1.0, "missing-batch-id")
    assert cur.ledger().spent == 0.0
    assert cur.ledger().entries == []
    # the in-process curator refuses the query that the frame decodes to
    query, identity = C.frame_to_query(C.decode_frame(line))
    assert query.batch_id == ""
    with pytest.raises(BudgetRefusal) as exc:
        cur.answer(query, identity)
    assert exc.value.reason == "missing-batch-id"
    assert C.process_frame(cur, C.encode_frame(query_to_frame(query))) == reply


# ---------------------------------------------------------------------------
# conformance transcript

def transcript_requests():
    queries = [
        C.CuratorQuery((), 0.25, "laplace"),
        C.CuratorQuery((lt("x", 5.0),), 0.25, "laplace", batch_id="b-1"),
        C.CuratorQuery((lt("x", 5.0, True), eq("c", "a")), 0.25, "laplace", batch_id="b-1"),
        C.CuratorQuery((), 2.0, "laplace"),          # over budget -> refusal
    ]
    # no CuratorQuery names "exact", so its frame is written as text -> error
    exact = '{"epsilon":"0.25","mechanism":"exact","predicate":[],"type":"query"}'
    return [C.query_text(q) for q in queries] + [exact]


def build_transcript() -> bytes:
    cur = fixed_curator(total_epsilon=1.0, seed=2024)
    out = b""
    for text in transcript_requests():
        request = (text + "\n").encode("utf-8")
        out += request
        out += C.encode_frame(C.process_frame(cur, request))
    return out


def test_wire_transcript_fixture_bit_exact():
    golden = (FIXTURES / "wire_transcript.jsonl").read_bytes()
    assert build_transcript() == golden
    assert golden.count(b"\n") == 10  # 5 requests + 5 replies


# ---------------------------------------------------------------------------
# server transport

def test_serve_answer_and_error_keeps_connection():
    cur = fixed_curator(total_epsilon=2.0, seed=31)
    server = C.CuratorServer(cur, "127.0.0.1", 0)
    serve_in_background(server)
    host, port = server.address
    try:
        with C.WireClient(host, port) as client:
            ans = client.ask(C.CuratorQuery((), 0.5, "laplace"))
            assert ans.k == 2
            with pytest.raises(ProtocolError):
                client.ask(C.CuratorQuery((lt("zz", 1.0),), 0.5, "laplace"))
            # connection still usable after the error frame
            ans2 = client.ask(C.CuratorQuery((), 0.5, "laplace"))
            assert ans2.k == 2
    finally:
        server.shutdown()
        server.server_close()


def test_serve_concurrent_clients_ledger_consistent():
    cur = fixed_curator(total_epsilon=1000.0, seed=37)
    server = C.CuratorServer(cur, "127.0.0.1", 0)
    serve_in_background(server)
    host, port = server.address
    n_clients, per_client = 100, 2
    errors = []

    def worker():
        try:
            with C.WireClient(host, port) as client:
                for _ in range(per_client):
                    client.ask(C.CuratorQuery((), 0.01, "laplace"))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(n_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    server.shutdown()
    server.server_close()
    assert not errors
    ledger = cur.ledger()
    assert len(ledger.entries) == n_clients * per_client
    assert ledger.spent == pytest.approx(n_clients * per_client * 0.01)
    assert replay(ledger) == ledger.spent


def test_parallel_batch_charges_the_maximum_epsilon():
    cur = fixed_curator(total_epsilon=1.0, seed=41)
    parts = [(lt("x", 5.0),), (lt("x", 5.0, True), lt("x", 10.0)),
             (lt("x", 5.0, True), lt("x", 10.0, True))]
    for clauses, eps in zip(parts, (0.2, 0.5, 0.3)):
        cur.answer(C.CuratorQuery(clauses, eps, "laplace", batch_id="bmax"))
    assert cur.ledger().spent == pytest.approx(0.5)
    assert replay(cur.ledger()) == cur.ledger().spent


def serving(cur):
    server = C.CuratorServer(cur, "127.0.0.1", 0)
    serve_in_background(server)
    return server


def test_wire_ask_batch_matches_in_process():
    queries = audit_queries()
    server = serving(fixed_curator(seed=71))
    try:
        with C.WireClient(*server.address) as client:
            got = client.ask_batch(queries)
            with pytest.raises(BudgetRefusal):
                client.ask_batch(queries)  # the batch id is spent
            with pytest.raises(ProtocolError):
                client.ask_batch([C.CuratorQuery((lt("zz", 1.0),), 0.1, "laplace")])
    finally:
        server.shutdown()
        server.server_close()
    want = C.InProcessClient(fixed_curator(seed=71)).ask_batch(queries)
    assert [a.counts.tobytes() for a in got] == [a.counts.tobytes() for a in want]
    assert [a.digest for a in got] == [a.digest for a in want]


REFUSALS = [
    ("budget", C.CuratorQuery((), 2.0, "laplace")),
    ("not-disjoint", C.CuratorQuery((lt("x", 3.0),), 0.25, "laplace", batch_id="b")),
    ("missing-batch-id", C.CuratorQuery((), 0.25, "laplace", batch_id="")),
]


@pytest.mark.parametrize("reason, last", REFUSALS, ids=[reason for reason, _ in REFUSALS])
def test_refusal_names_its_cause(reason, last):
    queries = audit_queries() + [last]
    cur = fixed_curator(total_epsilon=1.0, seed=89)
    with pytest.raises(BudgetRefusal) as exc:
        cur.answer_batch(queries)
    assert exc.value.reason == reason
    assert str(exc.value).startswith(REFUSAL_REASONS[reason])
    reply = C.process_frame(cur, C.encode_frame(batch_to_frame(queries)))
    assert reply == C.refusal_frame(1.0, reason)
    assert ("reason" in reply) == (reason != "budget")  # a budget refusal frame is unchanged
    server = serving(cur)
    try:
        with C.WireClient(*server.address) as client:
            with pytest.raises(BudgetRefusal) as exc:
                client.ask_batch(queries)
    finally:
        server.shutdown()
        server.server_close()
    assert (exc.value.reason, exc.value.remaining_epsilon) == (reason, 1.0)
    assert cur.ledger().entries == []


def test_wire_ask_batch_rejects_a_short_answers_frame(monkeypatch):
    process_frame = C.process_frame

    def drop_last(curator, line):
        reply = process_frame(curator, line)
        return {**reply, "answers": reply["answers"][:-1]}

    monkeypatch.setattr(C, "process_frame", drop_last)
    server = serving(fixed_curator(seed=79))
    try:
        with C.WireClient(*server.address) as client:
            with pytest.raises(ProtocolError):
                client.ask_batch(audit_queries())
    finally:
        server.shutdown()
        server.server_close()


# audit_queries() asks laplace, laplace, gaussian, exponential, laplace
@pytest.mark.parametrize("mangle", [
    lambda answers: answers[1].update(counts=["nan", "1.0"]),
    lambda answers: answers[1].update(counts=["inf", "1.0"]),
    lambda answers: answers[1].update(counts=["1.0"]),
    lambda answers: [a.update(k=3, counts=a["counts"] + ["0.0"]) for a in answers[1:]],
    lambda answers: answers[2].update(mechanism="laplace"),
    lambda answers: answers[0].update(k="2"),
    lambda answers: answers[0].update(noise="none"),
    lambda answers: answers.__setitem__(0, ["1.0", "1.0"]),
], ids=["nan-count", "infinite-count", "one-cell-for-k-2", "two-values-of-k", "wrong-mechanism",
        "k-text", "unknown-key", "not-an-object"])
def test_wire_ask_batch_rejects_answers_that_do_not_fit_the_batch(monkeypatch, mangle):
    # each was accepted: a "nan" count gave sp = nan, and one cell for k = 2
    # a plausible estimate
    process_frame = C.process_frame

    def mangled(curator, line):
        reply = process_frame(curator, line)
        mangle(reply["answers"])
        return reply

    monkeypatch.setattr(C, "process_frame", mangled)
    server = serving(fixed_curator(seed=79))
    try:
        with C.WireClient(*server.address) as client:
            with pytest.raises(ProtocolError):
                client.ask_batch(audit_queries())
    finally:
        server.shutdown()
        server.server_close()


def test_frame_over_the_cap_gets_an_error_and_the_connection_closes():
    cur = fixed_curator(total_epsilon=1.0, seed=73)
    server = serving(cur)
    try:
        with socket.create_connection(server.address, timeout=30) as sock:
            reader = sock.makefile("rb")
            line = C.encode_frame(query_to_frame(C.CuratorQuery((), 0.5, "laplace")))
            padded = line[:-2] + b" " * (2 * C.MAX_FRAME_BYTES) + line[-2:]
            try:
                sock.sendall(padded)
            except OSError:
                pass  # the server may close before the whole line is sent
            reply = C.decode_frame(reader.readline())
            assert reply["type"] == "error"
            assert str(C.MAX_FRAME_BYTES) in reply["message"]
            assert reader.readline() == b""
    finally:
        server.shutdown()
        server.server_close()
    assert cur.ledger().spent == 0.0
    assert cur.ledger().entries == []


def test_idle_connection_is_closed_and_the_server_keeps_serving(monkeypatch):
    monkeypatch.setattr(C._CuratorHandler, "timeout", 0.2)
    server = serving(fixed_curator(seed=83))
    errors = []  # handle_error prints a traceback for an exception out of handle
    monkeypatch.setattr(server, "handle_error", lambda request, address: errors.append(address))
    try:
        with socket.create_connection(server.address, timeout=30) as idle:
            assert idle.makefile("rb").readline() == b""  # EOF once the idle timeout passes
        with C.WireClient(*server.address) as client:
            assert client.ask(C.CuratorQuery((), 0.5, "laplace")).k == 2
    finally:
        server.shutdown()
        server.server_close()
    assert errors == []
