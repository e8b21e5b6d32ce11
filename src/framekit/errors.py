"""Exception hierarchy.

Domain-precondition failures derive from :class:`FrameKitError`; the CLI maps
them to exit code 3, parse failures to 2, and solver/eigendecomposition
breakdowns (:class:`NumericalError`) to 4.
"""


class FrameKitError(Exception):
    """Base class for domain errors raised by this package."""


class NotKFrameError(FrameKitError):
    """The lower frame inequality against ``K*`` fails."""


class NotParsevalError(FrameKitError):
    """Frame operator does not equal ``K K^T`` within tolerance."""


class NotPSDError(FrameKitError):
    """Operator is not positive semi-definite within tolerance."""


class NotDualError(FrameKitError):
    """Candidate sequence does not satisfy the duality relation."""


class NotOneUniformError(FrameKitError):
    """Diagonal inner products are not constant."""


class NotTwoUniformError(FrameKitError):
    """Off-diagonal cross products are not constant (or not 1-uniform)."""


class DependentInputError(FrameKitError):
    """Vectors required to be linearly independent are not."""


class NoConnectedPairAvailableError(FrameKitError):
    """No linearly connected pair among the unfinished indices."""


class InfeasibleError(FrameKitError):
    """Requested construction has no solution for the given inputs."""


class DofTooLargeError(FrameKitError):
    """Grid oracle refused: too many free coefficients to enumerate."""


class HypothesesNotMetError(FrameKitError):
    """Closed-form shortcut hypotheses fail; caller should fall back."""


class BudgetExceededError(FrameKitError):
    """Combinatorial search cap exceeded."""


class NumericalError(FrameKitError):
    """Internal numerical failure (solver did not converge, etc.)."""
