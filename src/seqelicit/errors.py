"""Exception types shared across the package."""


class ElicitError(Exception):
    """Base class for all package-specific errors."""


class MalformedDocument(ElicitError):
    """Instance document does not follow the file format."""


class QOutOfRange(ElicitError):
    """Prior probability outside the accepted range."""


class CostOutOfRange(ElicitError):
    """A normalized cost falls outside [0, 1)."""


class BadFunctionTable(ElicitError):
    """Ones-count table does not match the agent count."""


class StateExhausted(ElicitError):
    """No agent is left to approach at this state."""


class CapExceeded(ElicitError):
    """Instance too large for a brute-force operation."""


class PolicyFailed(ElicitError):
    """A policy could not name an agent at a reached state."""

    def __init__(self, state, reason):
        super().__init__(f"policy failed at state {state}: {reason}")
        self.state = state
        self.reason = reason
