"""Exception types shared across the package."""


class FkdvError(Exception):
    """Base class for all package errors."""


class BalanceError(FkdvError):
    """Ansatz-degree balancing produced no positive integer order."""


class PoleError(FkdvError):
    """Numeric evaluation hit a pole or exceeded the magnitude guard."""


class UnboundSymbolError(FkdvError):
    """An assignment left a symbol of the system unbound."""

    def __init__(self, sym):
        self.sym = sym
        super().__init__(f"symbol {sym!s} is not bound by the assignment")


class InternalInvariantError(FkdvError):
    """A solver or fixture self-check failed; indicates a bug, not bad input."""
