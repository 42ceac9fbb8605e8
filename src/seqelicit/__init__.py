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
)
from .mechanism import FixedOrderPolicy, HcfPolicy, audit_full_tree, deviation_profile, draw_secrets, run
from .model import TRUTHFUL_COMPUTE, InfoState, ingest
from .oracle import DecisionTree, exhaustive_existence
from .pivotal import determine
from .verify import exists_appropriate

__version__ = "0.1.0"

# The names the README's "Library" section uses, plus the error types; the
# rest of the API lives in the submodules. Derived from the imports above, so
# the list cannot drift from them.
__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
