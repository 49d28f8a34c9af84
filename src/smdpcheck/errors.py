"""Exception types shared across the package."""


class SmdpcheckError(Exception):
    """Base class for all errors raised by this package."""


class UnknownState(SmdpcheckError):
    pass


class UnknownLabel(SmdpcheckError):
    pass


class LabelMismatch(SmdpcheckError):
    """Two models were combined or compared but their label sets differ."""


class UnsupportedComposition(SmdpcheckError):
    """The requested residence-time composition is undefined for these operands."""


class NotExpressible(SmdpcheckError):
    """The distribution has no encoding in the supported SMT fragment."""


class ModelFormatError(SmdpcheckError):
    """Syntax error in a model or scheduler file.

    Carries the 1-based line of the offending token when known.
    """

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
