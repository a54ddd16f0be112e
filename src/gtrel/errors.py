"""Exception types shared across the package."""


class GtrelError(Exception):
    """Base class for validation failures."""


class StructureViolation(GtrelError):
    pass


class NotARealization(GtrelError):
    pass


class SeedViolatesRelations(GtrelError):
    pass


class NotCaseA(GtrelError):
    pass


class NotCaseB(GtrelError):
    pass


class PreconditionViolated(GtrelError):
    pass


class CriticalDenominator(GtrelError):
    pass


class UnsupportedGenerator(GtrelError):
    pass


class NotInjective(GtrelError):
    pass


class IncompatiblePair(GtrelError):
    pass


class WrongShape(GtrelError):
    pass


class NonSquareGamma(GtrelError):
    pass


class DegenerateDense(GtrelError):
    pass


class BranchNotLocalizable(GtrelError):
    pass


class BadTwist(GtrelError):
    pass


class RankMismatch(GtrelError):
    pass


class NotInBasis(GtrelError):
    pass
