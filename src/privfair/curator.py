"""The trusted third party: answers rule histogram queries under a DP budget.

The curator holds a private copy of the feature data plus the encoded
sensitive groups. Every public answer passes through a DP mechanism; exact
histograms never leave the process, and unseeded noise comes from OS entropy
kept only in the generator. A per-identity ledger enforces sequential
composition, with parallel batches charged once at their maximum epsilon.
Their disjointness is declared by the predicates, never tested on the rows:
each member holds the negation of a clause of every earlier member, as any
two root-to-leaf paths of a tree do.

A query checks itself when built, so a bad one is never sent. A request of
one or more is answered all or nothing: every query is checked against the
table and the request admitted and charged before any row is read or noise
drawn. So a refused or malformed request spends no budget and no randomness,
and a refusal depends only on the request and the ledger. An audit is one
such request (the tautology query plus every rule query).
Masks reuse the clause prefix shared with the previous query of the request,
so tree rules in depth-first order evaluate each shared prefix once.

Wire protocol: newline-delimited UTF-8 frames, one JSON object per line with
sorted keys, at most MAX_FRAME_BYTES each. The client writes its query and
batch frames, and the curator its query digests, as text assembled from each
clause's cached wire_text, byte for byte what json.dumps would write.
epsilon/delta and answer counts travel as decimal strings to avoid float
round-trip drift. A query, batch or clause frame key that is unknown or
holds the wrong JSON type is refused, never coerced. A clause is an object
with the keys feature, op ("<" or "="), value and an optional negated; it is
checked by the SplitClause it builds, so one rule holds in process and on
the wire, and a numeric value is stored as a float whatever its JSON. A
"batch" frame carries a list of query frames and is answered by one
"answers" frame, or by one refusal or error frame for the whole batch. A
refusal frame carries the remaining budget and, unless the budget itself
refused, a "reason" key ("not-disjoint" or "missing-batch-id"). A query is
parallel exactly when it carries a batch_id key; a null or empty id is
refused as "missing-batch-id". The identity is a property of the request,
not of a query: a query frame may name one, and every member of a batch
frame must name the same one.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import socket
import socketserver
import threading
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, SensitiveTable
from .errors import (REFUSAL_REASONS, BudgetRefusal, DataError, MechanismError, ParameterError,
                     ProtocolError, RoutingError)
from . import mechanisms as mech
from .tree import SplitClause, json_scalar, prefix_masks

SEQUENTIAL = "sequential"
PARALLEL = "parallel"
MAX_FRAME_BYTES = 1 << 20  # one request line, newline included; 512 rules of depth 10 fit
IDLE_TIMEOUT_S = 300.0  # a server connection that sends nothing for this long is closed
# the keys a query frame may hold and their JSON types; no other key is accepted
_QUERY_FIELDS = {"type": str, "predicate": list, "epsilon": str, "mechanism": str, "delta": str,
                 "batch_id": (str, type(None)), "identity": str}
_BATCH_FIELDS = {"type": str, "queries": list}
_ANSWER_FIELDS = {"type": str, "counts": list, "k": int, "mechanism": str, "digest": str}
_CLAUSE_KEYS = frozenset(("feature", "op", "value", "negated"))


@dataclass(frozen=True)
class LedgerEntry:
    digest: str
    epsilon: float  # the query's epsilon
    charged: float  # increment actually applied to the spend
    composition: str  # "sequential" or "parallel:<batch_id>"


class BudgetLedger:
    """Spend ledger for one client identity; spent never decreases."""

    def __init__(self, total_epsilon: float):
        if total_epsilon <= 0:
            raise ParameterError("total_epsilon must be positive")
        self.total_epsilon = float(total_epsilon)
        self.spent = 0.0
        self.entries: list[LedgerEntry] = []
        # batch_id -> (charged epsilon, members, {literal: bitmask of the members holding it})
        self._batches: dict[str, tuple[float, int, dict]] = {}

    @property
    def remaining(self) -> float:
        return max(0.0, self.total_epsilon - self.spent)

    def charge_all(self, queries, digests) -> None:
        """Admit and record every query under its digest in order, or refuse
        them all leaving the ledger untouched. A query with a batch_id is
        parallel: the id must be nonempty and the query must hold the negation
        of a clause of every member already in its batch. A clause and its
        negation split every row, NaN cells and absent categories included,
        so no row is read to admit it."""
        spent = self.spent
        batches: dict[str, tuple[float, int, dict]] = {}
        entries = []
        for q, digest in zip(queries, digests):
            increment, label = q.epsilon, SEQUENTIAL
            if q.batch_id is not None:
                if q.batch_id not in batches:
                    charged, members, held = self._batches.get(q.batch_id, (0.0, 0, {}))
                    batches[q.batch_id] = (charged, members, dict(held))
                charged, members, held = batches[q.batch_id]
                literals = [(c.feature, c.kind, c.value, c.negated) for c in q.clauses]
                apart = 0  # the members that q holds the negation of a clause of
                for feature, kind, value, negated in literals:
                    apart |= held.get((feature, kind, value, not negated), 0)
                if not q.batch_id:
                    raise BudgetRefusal(self.remaining, "missing-batch-id")
                if apart != (1 << members) - 1:
                    raise BudgetRefusal(self.remaining, "not-disjoint")
                for literal in literals:
                    held[literal] = held.get(literal, 0) | 1 << members
                batches[q.batch_id] = (max(charged, q.epsilon), members + 1, held)
                increment, label = max(0.0, q.epsilon - charged), f"parallel:{q.batch_id}"
            if spent + increment > self.total_epsilon + 1e-9:
                raise BudgetRefusal(self.remaining)
            spent += increment
            entries.append(LedgerEntry(digest, q.epsilon, increment, label))
        self.spent = spent
        self._batches.update(batches)
        self.entries.extend(entries)


@dataclass(frozen=True)
class CuratorQuery:
    """A histogram query; it checks itself when built and keeps its PrivacyParams."""

    clauses: tuple[SplitClause, ...]  # empty conjunction = tautology
    epsilon: float
    mechanism: str
    delta: float = 0.0
    batch_id: str | None = None  # parallel composition within this batch; None = sequential
    params: mech.PrivacyParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mechanism not in mech.MECHANISMS:
            raise MechanismError(f"mechanism {self.mechanism!r} not available")
        for name, value in (("epsilon", self.epsilon), ("delta", self.delta)):
            if type(value) is not float and (
                    isinstance(value, bool) or not isinstance(value, numbers.Real)):
                raise ParameterError(f"{name} {value!r} is not a real number")
        params = mech.PrivacyParams(self.epsilon, self.delta)
        if self.mechanism == mech.GAUSSIAN:
            mech.gaussian_sigma(params)  # raises outside the Gaussian limits
        if self.batch_id is not None and not isinstance(self.batch_id, str):
            raise ParameterError(f"batch_id {self.batch_id!r} is not a string")
        object.__setattr__(self, "params", params)

    def digest(self) -> str:
        """The first 16 hex digits of the sha256 of the query's canonical
        text: compact sorted-key JSON of batch_id, clauses (each clause's
        wire_text), composition, delta if nonzero, epsilon and mechanism."""
        batch_id = "null" if self.batch_id is None else json_scalar(self.batch_id)
        composition = SEQUENTIAL if self.batch_id is None else PARALLEL
        delta = f'"delta":"{float(self.delta)!r}",' if self.delta else ""
        text = (f'{{"batch_id":{batch_id},"clauses":{_clause_list(self.clauses)},'
                f'"composition":"{composition}",{delta}"epsilon":"{float(self.epsilon)!r}",'
                f'"mechanism":{json_scalar(self.mechanism)}}}')
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class CuratorAnswer:
    counts: np.ndarray
    k: int
    mechanism: str
    digest: str


class Curator:
    """Holds the sensitive table, answers queries, enforces the budget."""

    def __init__(
        self,
        data: Dataset,
        sensitive: SensitiveTable,
        total_epsilon: float = 1.0,
        seed: int | None = None,
    ):
        if not np.array_equal(sensitive.instance_ids, data.instance_ids):
            raise DataError("sensitive table must align with the curator's data")
        self._data = data
        self._groups = np.asarray(sensitive.groups)
        self.k = sensitive.k
        self._default_budget = float(total_epsilon)
        self._ledgers: dict[str, BudgetLedger] = {}
        self._rng = np.random.Generator(np.random.PCG64(seed))  # no seed: fresh OS entropy
        self._lock = threading.Lock()

    def ledger(self, identity: str = "default") -> BudgetLedger:
        if identity not in self._ledgers:
            self._ledgers[identity] = BudgetLedger(self._default_budget)
        return self._ledgers[identity]

    def answer(self, query: CuratorQuery, identity: str = "default") -> CuratorAnswer:
        """Answer one query as a batch of one."""
        return self.answer_batch([query], identity)[0]

    def answer_batch(self, queries, identity: str = "default") -> list[CuratorAnswer]:
        """Atomic validate-charge-sample over the whole batch, charged to the
        identity's ledger: the ledger admits it from the clauses alone, and
        only then are masks built and noise drawn, in batch order. A refusal
        or an invalid query anywhere charges nothing, reads no row and
        consumes no randomness."""
        queries = list(queries)
        with self._lock:
            # check against the table before the ledger is touched: a bad query costs nothing
            for q in queries:
                self._validate(q)
            if not queries:
                return []
            digests = [q.digest() for q in queries]
            self.ledger(identity).charge_all(queries, digests)
            masks = prefix_masks([q.clauses for q in queries], self._data)
            return [self._sample(q, mask, d) for q, mask, d in zip(queries, masks, digests)]

    def _validate(self, query: CuratorQuery) -> None:
        # the query and its clauses checked themselves when built; only the table can refuse it now
        kinds = self._data.feature_kinds
        for c in query.clauses:
            if c.feature not in kinds:
                raise RoutingError(c.feature)
            if kinds[c.feature] != c.kind:
                raise DataError(f"feature {c.feature!r} is {kinds[c.feature]}, not {c.kind}")

    def _sample(self, query: CuratorQuery, mask: np.ndarray, digest: str) -> CuratorAnswer:
        exact = np.bincount(self._groups[mask], minlength=self.k).astype(float)
        if query.mechanism == mech.LAPLACE:
            counts = mech.laplace_histogram(exact, query.params, self._rng)
        elif query.mechanism == mech.GAUSSIAN:
            counts = mech.gaussian_histogram(exact, query.params, self._rng)
        else:
            # candidate answers range from zero to the rule's population
            counts = mech.exponential_histogram(exact, int(mask.sum()), query.params, self._rng)
        return CuratorAnswer(counts, self.k, query.mechanism, digest)


# ---------------------------------------------------------------------------
# Frame encoding

def _clause_list(clauses) -> str:
    return "[" + ",".join(c.wire_text for c in clauses) + "]"


def clause_from_wire(d) -> SplitClause:
    """The clause a wire object spells; DataError names a key outside the
    clause key table or a field of the wrong JSON type, KeyError a missing
    one."""
    if not isinstance(d, dict):
        raise DataError("a clause is not a JSON object")
    for key in d:
        if key not in _CLAUSE_KEYS:
            raise DataError(f"unknown clause key {key!r}")
    return SplitClause.from_op(d["feature"], d["op"], d["value"], d.get("negated", False))


def encode_frame(obj: dict) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def decode_frame(line: bytes) -> dict:
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ProtocolError(f"malformed frame: {exc}") from None
    if not isinstance(obj, dict) or "type" not in obj:
        raise ProtocolError("frame is not an object with a 'type' field")
    return obj


def query_text(q: CuratorQuery, identity: str = "default") -> str:
    """The query frame as encode_frame would write it, newline aside, put
    together from each clause's wire_text. delta is left out when zero,
    batch_id when None and identity when "default"."""
    fields = [] if q.batch_id is None else [f'"batch_id":{json_scalar(q.batch_id)}']
    if q.delta:
        fields.append(f'"delta":"{float(q.delta)!r}"')
    fields.append(f'"epsilon":"{float(q.epsilon)!r}"')
    if identity != "default":
        fields.append(f'"identity":{json_scalar(identity)}')
    fields.append(f'"mechanism":{json_scalar(q.mechanism)},"predicate":{_clause_list(q.clauses)}')
    return "{" + ",".join(fields) + ',"type":"query"}'


def frame_to_query(frame: dict) -> tuple[CuratorQuery, str]:
    """The query a frame carries and the identity that asks it."""
    _check_fields(frame, _QUERY_FIELDS, "query")
    try:
        clauses = tuple(clause_from_wire(c) for c in frame["predicate"])
        epsilon, delta = float(frame["epsilon"]), float(frame.get("delta", "0"))
        mechanism = frame["mechanism"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"bad query frame: {exc}") from None
    # any batch_id key marks the query parallel; a null id becomes "", which the ledger refuses
    batch_id = (frame["batch_id"] or "") if "batch_id" in frame else None
    identity = frame.get("identity", "default")
    return CuratorQuery(clauses, epsilon, mechanism, delta, batch_id), identity


def batch_line(queries, identity: str = "default") -> bytes:
    """The batch frame of the queries, newline included, as encode_frame
    would write it."""
    members = ",".join(query_text(q, identity) for q in queries)
    return f'{{"queries":[{members}],"type":"batch"}}\n'.encode("utf-8")


def _check_fields(frame: dict, fields: dict, kind: str) -> None:
    for key, value in frame.items():
        if key not in fields:
            raise ProtocolError(f"unknown {kind} frame key {key!r}")
        if not isinstance(value, fields[key]):
            raise ProtocolError(f"{kind} frame field {key!r} has the wrong JSON type")


def frame_to_batch(frame: dict) -> tuple[list[CuratorQuery], str]:
    """The queries a batch frame carries and the one identity that asks them."""
    _check_fields(frame, _BATCH_FIELDS, "batch")
    members = frame.get("queries")
    if not isinstance(members, list) or not all(
        isinstance(q, dict) and q.get("type") == "query" for q in members
    ):
        raise ProtocolError("a batch frame carries a list of query frames")
    decoded = [frame_to_query(q) for q in members]
    identities = {identity for _, identity in decoded} or {"default"}
    if len(identities) > 1:
        raise ProtocolError("a batch must come from a single identity")
    return [q for q, _ in decoded], identities.pop()


def answer_to_frame(a: CuratorAnswer) -> dict:
    return {
        "type": "answer",
        "counts": [repr(float(c)) for c in a.counts],
        "k": a.k,
        "mechanism": a.mechanism,
        "digest": a.digest,
    }


def frame_to_answer(frame: dict) -> CuratorAnswer:
    """The answer a frame carries; ProtocolError unless it holds k finite counts."""
    try:
        _check_fields(frame, _ANSWER_FIELDS, "answer")
        counts = [float(c) for c in frame["counts"]]
        if len(counts) != frame["k"] or not all(map(math.isfinite, counts)):
            raise ProtocolError(f"bad answer frame: not {frame['k']} finite counts")
        return CuratorAnswer(np.array(counts), frame["k"], frame["mechanism"], frame["digest"])
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"bad answer frame: {exc}") from None


def refusal_frame(remaining: float, reason: str = "budget") -> dict:
    # no reason key on a budget refusal: clients that predate reasons read that frame
    frame = {"type": "refusal", "remaining_epsilon": repr(float(remaining))}
    if reason != "budget":
        frame["reason"] = reason
    return frame


def error_frame(message: str) -> dict:
    return {"type": "error", "message": message}


def process_frame(curator: Curator, frame_line: bytes) -> dict:
    """One request frame in, one reply frame out; never raises."""
    try:
        frame = decode_frame(frame_line)
        if frame["type"] == "query":
            return answer_to_frame(curator.answer(*frame_to_query(frame)))
        if frame["type"] == "batch":
            answers = curator.answer_batch(*frame_to_batch(frame))
            return {"type": "answers", "answers": [answer_to_frame(a) for a in answers]}
        raise ProtocolError(f"unexpected frame type {frame['type']!r}")
    except BudgetRefusal as exc:
        return refusal_frame(exc.remaining_epsilon, exc.reason)
    except (ProtocolError, ParameterError, DataError, KeyError) as exc:
        return error_frame(str(exc))


# ---------------------------------------------------------------------------
# Transports

class InProcessClient:
    """Direct in-process transport; same contract as the wire client."""

    def __init__(self, curator: Curator, identity: str = "default"):
        self._curator = curator
        self.identity = identity

    def ask_batch(self, queries) -> list[CuratorAnswer]:
        return self._curator.answer_batch(queries, self.identity)


class _CuratorHandler(socketserver.StreamRequestHandler):
    timeout = IDLE_TIMEOUT_S

    def handle(self):
        try:
            while True:
                line = self.rfile.readline(MAX_FRAME_BYTES + 1)
                if not line:
                    return
                if len(line) > MAX_FRAME_BYTES:
                    # the rest of the line is never read; the connection closes
                    self.wfile.write(encode_frame(error_frame(
                        f"frame longer than {MAX_FRAME_BYTES} bytes")))
                    return
                if not line.strip():
                    continue
                reply = process_frame(self.server.curator, line)
                self.wfile.write(encode_frame(reply))
                self.wfile.flush()
        except TimeoutError:
            return  # idle for `timeout` seconds; returning closes the connection


class CuratorServer(socketserver.ThreadingTCPServer):
    """Serves the wire protocol; queries are totally ordered by the curator lock."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, curator: Curator, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _CuratorHandler)
        self.curator = curator

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[:2]


class WireClient:
    """Newline-delimited frame client; raises the same errors as the curator."""

    def __init__(self, host: str, port: int, identity: str = "default", timeout: float = 30.0):
        self.identity = identity
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rb")

    def ask(self, query: CuratorQuery) -> CuratorAnswer:
        return self.ask_batch([query])[0]

    def ask_batch(self, queries) -> list[CuratorAnswer]:
        """One batch frame each way; ProtocolError unless the answers fit the queries."""
        queries = list(queries)
        answers = self._exchange(batch_line(queries, self.identity)).get("answers")
        if not isinstance(answers, list) or len(answers) != len(queries):
            raise ProtocolError("the answers frame does not match the batch")
        answers = [frame_to_answer(a) for a in answers]
        if any(a.mechanism != q.mechanism or a.k != answers[0].k for q, a in zip(queries, answers)):
            raise ProtocolError("the answers frame does not match the batch")
        return answers

    def _exchange(self, request: bytes) -> dict:
        """Send one request line; return the answers frame or raise the
        curator's refusal or error."""
        self._sock.sendall(request)
        line = self._file.readline()
        if not line:
            raise ProtocolError("curator closed the connection")
        frame = decode_frame(line)
        if frame["type"] == "answers":
            return frame
        if frame["type"] == "refusal":
            try:
                remaining = float(frame["remaining_epsilon"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ProtocolError(f"bad refusal frame: {exc}") from None
            reason = frame.get("reason", "budget")
            if not isinstance(reason, str) or reason not in REFUSAL_REASONS:
                raise ProtocolError(f"bad refusal frame: unknown reason {reason!r}")
            raise BudgetRefusal(remaining, reason)
        if frame["type"] == "error":
            raise ProtocolError(frame.get("message", "curator error"))
        raise ProtocolError(f"unexpected frame type {frame['type']!r}")

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
