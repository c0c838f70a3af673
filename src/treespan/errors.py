"""Exception types shared across the package.

Grouped by how the CLI maps them to exit codes: bad input (1), method
inapplicable (2, ``MethodInapplicable`` and its subclasses), internal
invariant violation (3).
"""


class TreespanError(Exception):
    """Base class for all package errors."""


# -- bad input ---------------------------------------------------------------

class NotSimpleError(TreespanError):
    """A drawing violates the simple-drawing rules."""

    def __init__(self, reason, pair=None):
        self.reason = reason
        self.pair = pair
        msg = reason if pair is None else f"{reason}: edges {pair[0]} and {pair[1]}"
        super().__init__(msg)


class NonMonotoneCurveError(TreespanError):
    pass


class InvalidRadiiError(TreespanError):
    pass


class UnknownEdgeError(TreespanError):
    pass


class TooLargeError(TreespanError):
    def __init__(self, n, limit):
        self.n = n
        self.limit = limit
        super().__init__(f"n={n} exceeds enumeration limit {limit}")


class IncompatibleError(TreespanError):
    pass


class BadTreeError(TreespanError):
    def __init__(self, index, cert):
        self.index = index
        self.cert = cert
        failed = ", ".join(f"not {name}" for name, holds in (
            ("spanning", cert.spanning), ("acyclic and connected", cert.acyclic_connected),
            ("plane", cert.plane)) if not holds)
        super().__init__(f"tree at position {index} is not a plane spanning tree ({failed})")


class IncompatibleStepError(TreespanError):
    def __init__(self, index):
        self.index = index
        super().__init__(f"trees at positions {index} and {index + 1} are not compatible")


class RejectionBudgetExceededError(TreespanError):
    def __init__(self, spec):
        self.spec = spec
        super().__init__(f"rejection budget exhausted for {spec}")


# -- method inapplicable -----------------------------------------------------

class MethodInapplicable(TreespanError):
    """No method covers the input; the CLI exits 2 on this and its subclasses."""


class NotCylindricalError(MethodInapplicable):
    pass


class NotMonotoneError(MethodInapplicable):
    pass


class NotStronglyCMonotoneError(MethodInapplicable):
    pass


class NotSpecialTreeError(MethodInapplicable):
    pass


class RelationCyclicError(MethodInapplicable):
    pass


class NoSideEdgeError(MethodInapplicable):
    pass


# -- internal ----------------------------------------------------------------

class InternalInvariantViolated(TreespanError):
    """A runtime certificate failed; signals a bug or misclassified input."""
