"""Exception types shared across the package."""


class ResiduumError(Exception):
    """Base class for every error this package raises on purpose."""


class NotPrime(ResiduumError, ValueError):
    pass


class NonResidue(ResiduumError, ValueError):
    pass


class BadPrimeForm(ResiduumError, ValueError):
    pass


class NonSquareCell(ResiduumError, ValueError):
    pass


class NotMagic(ResiduumError, ValueError):
    pass


class NonzeroCenter(ResiduumError, ValueError):
    pass


class NotAMember(ResiduumError, ValueError):
    pass


class BoundExceeded(ResiduumError, ValueError):
    pass


class BadParameters(ResiduumError, ValueError):
    pass


class DividesTerm(ResiduumError, ValueError):
    pass


class NonResidueDifference(ResiduumError, ValueError):
    pass


class NotCovered(ResiduumError):
    pass


class FiveExcluded(NotCovered):
    """p = 5 satisfies the mod-24 residue test but has no consecutive runs."""


class OddCenter(ResiduumError, ValueError):
    pass


class UnexpectedPattern(ResiduumError, ValueError):
    pass


class AllZero(ResiduumError, ValueError):
    pass


class BadRange(ResiduumError, ValueError):
    pass


class ParseError(ResiduumError, ValueError):
    pass
