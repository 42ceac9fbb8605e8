"""Sequential information elicitation for multi-party computation games.

Exact-rational tooling to decide whether an anonymous boolean function can be
computed in equilibrium by approaching costly-to-inform agents one at a time,
to run the highest-cost-first mechanism online, and to audit the resulting
incentives, with brute-force oracles for cross-checking.
"""

from types import ModuleType as _ModuleType

from .errors import (
    BadFunctionTable,
    CapExceeded,
    CostOutOfRange,
    ElicitError,
    MalformedDocument,
    PolicyFailed,
    QOutOfRange,
    StateExhausted,
    TargetNotInGraph,
)
from .graph import StateGraph, build, export_dot, max_count_path
from .mechanism import (
    ALL_ACTIONS,
    AuditRecord,
    AuditReport,
    FixedOrderPolicy,
    HcfPolicy,
    RunResult,
    audit_full_tree,
    deviation_profile,
    draw_secrets,
    run,
)
from .model import (
    ACTION_NAMES,
    Action,
    AnonymousFunctionSpec,
    COMPUTE_NEGATED,
    COMPUTE_REPORT_ONE,
    COMPUTE_REPORT_ZERO,
    GUESS_ONE,
    GUESS_ZERO,
    InfoState,
    ProblemInstance,
    Rational,
    Report,
    TRUTHFUL_COMPUTE,
    Transcript,
    consensus,
    emit,
    from_ones_counts,
    ingest,
    majority,
    normalize_low_q,
    parity,
    unanimity,
)
from .oracle import (
    DecisionTree,
    OracleVerdict,
    brute_pivotal,
    closed_form_pivotal,
    exhaustive_existence,
    hcf_tree_existence,
)
from .pivotal import NodeLabel, c_of, determine, pivotal_prob, threshold
from .verify import Verdict, Witness, exists_appropriate

__version__ = "0.1.0"

# Every public name imported above, and only those: the list cannot drift
# from the imports.
__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
