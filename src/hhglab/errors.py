"""Exception taxonomy shared across the package.

Input-validation failures are ValueErrors so that callers composing this
package with generic code get conventional behavior; operational failures
(budget exhaustion, refuted certification) are RuntimeErrors carrying
structured payloads.
"""


class InputError(ValueError):
    """Malformed or out-of-contract input."""


class WrongKindError(InputError):
    """An object of the wrong family or kind was supplied."""


class PreconditionError(InputError):
    """A documented precondition of the operation does not hold."""


class IndexMismatchError(InputError):
    """A domain label or index is not part of the structure it was used with."""


class ResourceBudgetError(RuntimeError):
    """A computation exceeded its configured budget.

    partial_radius: largest radius fully completed before the budget ran
    out.
    witness: dict reporting partial_radius.
    """

    def __init__(self, message, partial_radius):
        super().__init__(message)
        self.partial_radius = partial_radius
        self.witness = {"partial_radius": partial_radius}


class StructureInvalidError(RuntimeError):
    """A structure violates one of the standing structural constraints.

    witness: dict naming the domains and relation values that clash.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness or {}


class ClassificationAnomalyError(RuntimeError):
    """The classifier reached a state its case analysis says is impossible."""


class CertifierRefutedError(RuntimeError):
    """A would-be certificate failed its own verification step.

    witness: dict describing the failed check (which pair, which words,
    what collided).
    """

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness
