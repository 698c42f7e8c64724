"""Privacy-preserving statistical-parity auditing of decision trees.

An auditor extracts the favorable decision rules of a tree and asks a
trusted curator differentially private histogram queries about them; the
per-group acceptance rates recovered from the noisy answers give a K-ary
statistical-parity estimate without the auditor ever seeing a sensitive
attribute.
"""

__version__ = "0.1.0"

from .data import (  # noqa: F401
    Dataset,
    SensitiveSet,
    SensitiveTable,
    encode_sensitive,
    load_adult,
    load_compas,
    load_german,
    stratified_split,
)
from .estimator import InvalidPolicy, SpEstimate, estimate_sp  # noqa: F401
from .curator import BudgetLedger, Curator, CuratorQuery, InProcessClient, WireClient  # noqa: F401
from .tree import (  # noqa: F401
    DecisionTree,
    LearnerConfig,
    fit,
    prune_redundant,
    query_count_bounds,
)
