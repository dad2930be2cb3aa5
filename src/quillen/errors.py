"""Exception types shared across the package."""


class QuillenError(Exception):
    """Base class for all errors raised by this package."""


class GroupTooLarge(QuillenError):
    """Enumerating a group exceeded the configured element cap."""


class InvalidPermutation(QuillenError):
    pass


class NotAPGroup(QuillenError):
    pass


class NotSolvable(QuillenError):
    pass


class InvalidSpec(QuillenError):
    pass


class UnknownName(QuillenError):
    pass


class NotCentral(QuillenError):
    pass


class PairingNotIsomorphism(QuillenError):
    pass


class ActionNotHomomorphism(QuillenError):
    pass


class NodeNotInPoset(QuillenError):
    pass


class ComplexTooLarge(QuillenError):
    """Closing simplices under faces could exceed the face bound."""


class HypothesisViolated(QuillenError):
    """A theorem checker was called on a group violating its hypotheses."""

    def __init__(self, hypothesis, message=""):
        self.hypothesis = hypothesis
        super().__init__(message or hypothesis)


class DecompositionNotFound(QuillenError):
    """A decomposition guaranteed by a structure theorem could not be
    exhibited.  This would falsify the theorem and is surfaced as a red
    alert by report consumers."""


class PreconditionFailed(QuillenError):
    pass
