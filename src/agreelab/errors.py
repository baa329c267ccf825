"""Exception hierarchy shared across the package."""


class AgreementLabError(Exception):
    """Base class for every package-specific error."""


class UnknownSymbolError(AgreementLabError, KeyError):
    """A symbol was requested that is not part of the model's alphabet."""


class AbsoluteContinuityError(AgreementLabError, ValueError):
    """Two distributions do not share the same support."""


class NonInformativeModelError(AgreementLabError, ValueError):
    """The two conditional signal distributions coincide."""


class NonInformativeTruncationError(NonInformativeModelError):
    """A truncation threshold collapsed the two conditionals onto each other."""


class NullConditioningError(AgreementLabError, ZeroDivisionError):
    """Conditioning on an event of probability zero."""


class EnumerationBudgetError(AgreementLabError, ValueError):
    """The outcome space is too large for the exact enumeration engine."""


class ConnectivityError(AgreementLabError, ValueError):
    """The communication digraph is not strongly connected."""


class BoundedBeliefsError(AgreementLabError, ValueError):
    """Private beliefs have no lower tail, so the tail bound does not apply."""


class ScenarioParameterError(AgreementLabError, ValueError):
    """A scenario constructor was called with invalid parameters."""
