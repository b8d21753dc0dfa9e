"""Exception hierarchy for the rcndl package."""


class RcndlError(Exception):
    """Base class for all errors raised by this package."""


class ScopeError(RcndlError):
    """A variable set does not match the scope it is used against."""


class ArityError(RcndlError):
    """A probability list has the wrong length for its scope."""


class ProbabilityError(RcndlError, ValueError):
    """A value handed to the library lies outside its domain: a probability
    outside [0, 1], a distribution not summing to 1, or an unknown ordering
    policy.  Also a ``ValueError``, which library callers caught before it
    existed."""


class ParseError(RcndlError):
    """RCNDL or evidence source text does not match the grammar.

    Carries a 1-based source position so the CLI can point at the offender.
    """

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{line}:{column}: {message}"
        super().__init__(message)


class NetworkStructureError(RcndlError):
    """The clause set does not form a valid recursive causal network."""


class MultiplyConnectedError(NetworkStructureError):
    """The clause-sharing structure is not singly connected."""


class InfeasibleEvidenceError(RcndlError):
    """Evidence places probability mass where the prior has none.

    When the fault is one event of a partition that has no mass but a
    positive target, ``event`` gives it as variable values (``B=false``)
    and ``target`` the probability it was asked to take.
    """

    def __init__(self, message, event=None, target=None):
        super().__init__(message)
        self.event = event
        self.target = target


class ConvergenceError(RcndlError):
    """An iterative solve exceeded its iteration budget.

    The best iterate found so far is attached when available.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class SizeLimitError(RcndlError):
    """A full-joint expansion would exceed the configured state guard."""
