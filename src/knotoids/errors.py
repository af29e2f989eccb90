"""Exception hierarchy. Every error the CLI maps to JSON carries a short `kind`."""


class KnotoidError(Exception):
    """Base class for all domain errors."""

    kind = "KnotoidError"


class ParseError(KnotoidError):
    """Malformed Gauss-code text."""

    kind = "SyntaxError"


class ValidityError(KnotoidError):
    """Structurally invalid code (pairing, signs, role mixing, preferred marks)."""

    kind = "ValidityError"


class ComponentCountError(KnotoidError):
    kind = "ComponentCountError"


class NotClassicalError(KnotoidError):
    kind = "NotClassical"


class NotSingularError(KnotoidError):
    kind = "NotSingular"


class NotFlatSingularError(KnotoidError):
    kind = "NotFlatSingular"


class NoPreferredError(KnotoidError):
    kind = "NoPreferred"


class NotFoundError(KnotoidError):
    """Referenced chord or site does not exist."""

    kind = "NotFound"


class StaleMoveError(KnotoidError):
    """A move instance no longer matches the code it is applied to."""

    kind = "StaleMove"


class NotApplicableError(KnotoidError):
    """A based-matrix operation's precondition fails."""

    kind = "NotApplicable"


class SizeLimitError(KnotoidError):
    """Input refused by size: a canonical-form search that would visit more
    than the search-node budget (`sbm._NODE_BUDGET`), or `G` past its payload
    budget (`vassiliev._PAYLOAD_BUDGET`)."""

    kind = "SizeLimit"


class UnsupportedError(KnotoidError):
    kind = "Unsupported"
