"""Exception types shared across the package."""


class DataError(ValueError):
    """Malformed or schema-incompatible input data."""


class ParameterError(ValueError):
    """Privacy or learner parameter outside its admissible range."""


class MechanismError(ParameterError):
    """Unknown or disallowed mechanism requested."""


class RoutingError(KeyError):
    """An instance lacks a feature the tree needs for routing."""


# why a curator refuses, each with the text a refusal shows for it
REFUSAL_REASONS = {
    "budget": "privacy budget exhausted",
    "not-disjoint": "parallel query not declared disjoint from its batch",
    "missing-batch-id": "parallel query without a batch id",
}


class BudgetRefusal(RuntimeError):
    """The curator refused a query; leaks only the remaining budget and the
    reason, which depends on the request and the ledger alone."""

    def __init__(self, remaining_epsilon: float, reason: str = "budget"):
        super().__init__(f"{REFUSAL_REASONS[reason]} (remaining={remaining_epsilon})")
        self.remaining_epsilon = remaining_epsilon
        self.reason = reason


class ProtocolError(RuntimeError):
    """Malformed frame or contract violation on the curator wire protocol."""


class DegenerateEstimateError(RuntimeError):
    """The estimate is undefined (nonpositive group total or all-zero rates)."""


class MetricError(ValueError):
    """A fairness metric is undefined for the given predictions."""
